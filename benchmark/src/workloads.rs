//! The five workloads: set-up, measured phase, oracle check, probes.
//!
//! Every workload follows the same sequence inside one process:
//!
//! 1. **set-up** (timed as `setup_s`): generate inputs from the seed, build
//!    the module (and its training module), create the executor and the
//!    session, warm up — the warm-up includes every specializer promotion;
//! 2. **measured phase** for `--seconds` seconds, nothing but the calls a
//!    user of the system would make and a timestamp around them;
//! 3. **oracle check** of the outputs, outside the timed region;
//! 4. in a traced run only, **probes** that isolate single layers.

use crate::api::*;
use crate::consts::*;
use crate::gen::{self, Arrival, SplitMix};
use crate::stats;
use crate::trace::{self_times, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    InferFresh,
    InferHot8,
    TrainTreeLstm,
    ServeSmallOpen,
    ServeWideClosed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::InferFresh,
        Workload::InferHot8,
        Workload::TrainTreeLstm,
        Workload::ServeSmallOpen,
        Workload::ServeWideClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InferFresh => "infer.fresh",
            Workload::InferHot8 => "infer.hot8",
            Workload::TrainTreeLstm => "train.treelstm.b25",
            Workload::ServeSmallOpen => "serve.small.open",
            Workload::ServeWideClosed => "serve.wide.closed",
        }
    }

    /// Why the workload is in the set (one line, ≤200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::InferFresh => {
                "TreeRNN 32/32, run_many of 8, no tree repeats: every request takes the general \
                 recursive path (frame spawn, Cond, ready queue); executor-bound, specializer only misses"
            }
            Workload::InferHot8 => {
                "same model, loop and sizes but 8 recurring trees: the specializer's hit path; differs \
                 from infer.fresh only in recurrence (seed code: unrolling aborts, so the general path runs)"
            }
            Workload::TrainTreeLstm => {
                "TreeLSTM 64/168, Adagrad, batch 25 (paper Fig. 7): kernel-bound and the one workload \
                 that writes - backprop cache, concurrent gradient accumulation, serial optimizer step"
            }
            Workload::ServeSmallOpen => {
                "TreeRNN 32/32 via serve(), open-loop Poisson arrivals at 500/1000/1300 req/s, 10 ms \
                 limit: only an arrival schedule builds a queue, so serve-layer cost and wait show"
            }
            Workload::ServeWideClosed => {
                "TreeRNN 256/768 via serve(), closed loop of 32: kernel- and memory-bound, where \
                 cross-request fusion must pay; the control for changes aimed at serve overhead"
            }
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn model(self) -> ModelConfig {
        match self {
            Workload::TrainTreeLstm => ModelConfig::paper_default(ModelKind::TreeLstm, 1),
            Workload::ServeWideClosed => ModelConfig {
                embed: WIDE_EMBED,
                hidden: WIDE_HIDDEN,
                ..ModelConfig::paper_default(ModelKind::TreeRnn, 1)
            },
            _ => ModelConfig::paper_default(ModelKind::TreeRnn, 1),
        }
    }
}

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Everything one workload process measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every checked output matched the oracle and nothing failed.
    pub correct: bool,
    /// Metric name → value, end-to-end and per-layer alike.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines that are not metrics.
    pub notes: Vec<String>,
}

type Res<T> = Result<T, String>;

/// Inputs, model and executor of one workload.
struct Built {
    cfg: ModelConfig,
    insts: Vec<Instance>,
    feeds: Vec<Vec<Tensor>>,
    exec: Arc<Executor>,
    /// Nodes of the forward module, and of the module the session runs.
    forward_nodes: usize,
    total_nodes: usize,
}

/// A warmed-up workload, ready for its measured phase.
pub struct Ready {
    built: Built,
    runner: Runner,
    tracer: Tracer,
    /// Seconds the whole set-up took.
    pub setup_s: f64,
    /// Trees the warm-up used: on `infer.fresh`, the first never-seen tree.
    next_fresh: usize,
    values: BTreeMap<&'static str, f64>,
}

enum Runner {
    Infer(Session),
    Train(Trainer<Adagrad>),
    Serve(Session, ServeClient),
}

impl Runner {
    fn session(&self) -> &Session {
        match self {
            Runner::Infer(s) | Runner::Serve(s, _) => s,
            Runner::Train(t) => &t.session,
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

fn build(
    w: Workload,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    parent: u32,
) -> Res<(Built, Session)> {
    let cfg = w.model();
    let data_seed = gen::derive(seed, 1);

    let span = tr.begin("setup/data.gen", parent, 0);
    let insts = match w {
        Workload::InferFresh => {
            let n = (FRESH_POOL_PER_S * seconds).ceil() as usize + FRESH_WARMUP;
            gen::trees(cfg.vocab, n, INFER_LEAVES, data_seed)
        }
        Workload::InferHot8 => gen::trees_with_lengths(cfg.vocab, &HOT8_LEAVES, data_seed),
        Workload::TrainTreeLstm => {
            let lengths = gen::frozen_lengths(TRAIN_SET, TRAIN_LEAVES);
            gen::trees_with_lengths(cfg.vocab, &lengths, data_seed)
        }
        Workload::ServeSmallOpen | Workload::ServeWideClosed => {
            let lengths = gen::frozen_lengths(SERVE_POOL, SERVE_LEAVES);
            gen::trees_with_lengths(cfg.vocab, &lengths, data_seed)
        }
    };
    let feeds = Dataset::feeds_per_instance(&insts);
    tr.end(span);

    let span = tr.begin("setup/graph.build", parent, 0);
    let mut module = build_recursive(&cfg).map_err(|e| e.to_string())?;
    tr.end(span);
    let forward_nodes = module.total_nodes();
    if w == Workload::TrainTreeLstm {
        let span = tr.begin("setup/autodiff.build", parent, 0);
        module = training_module(&module)?;
        tr.end(span);
    }

    let total_nodes = module.total_nodes();

    let span = tr.begin("setup/session.new", parent, 0);
    let exec = Executor::with_threads(WORKERS);
    let session = Session::new(Arc::clone(&exec), module).map_err(|e| e.to_string())?;
    tr.end(span);
    let built = Built {
        cfg,
        insts,
        feeds,
        exec,
        forward_nodes,
        total_nodes,
    };
    Ok((built, session))
}

/// Runs each batch of tree indices through `Session::run_many`, timing
/// it; returns the time (ms) the batches that promoted a plan took beyond
/// a median batch.
fn warm_batches(
    session: &Session,
    feeds: &[Vec<Tensor>],
    batches: impl Iterator<Item = Vec<usize>>,
) -> Res<f64> {
    let (mut plain, mut promoting) = (Vec::new(), Vec::new());
    for batch in batches {
        let before = session.plan().spec_stats().promotions;
        let t = Instant::now();
        for r in session.run_many(batch.iter().map(|&i| feeds[i].clone()).collect()) {
            r.map_err(|e| e.to_string())?;
        }
        let dt = ms(t.elapsed());
        if session.plan().spec_stats().promotions > before {
            promoting.push(dt);
        } else {
            plain.push(dt);
        }
    }
    let typical = stats::median(&plain);
    Ok(promoting
        .iter()
        .fold(0.0, |sum, dt| sum + (dt - typical).max(0.0)))
}

/// Set-up of one workload: build everything, then warm up.
pub fn set_up(a: &RunArgs) -> Res<Ready> {
    let w = a.workload;
    let mut tr = Tracer::new(a.traced);
    let setup_span = tr.begin("setup", 0, 0);
    let (built, session) = build(w, a.seed, a.seconds, &mut tr, setup_span)?;
    let feeds = &built.feeds;
    if a.traced {
        built.exec.stats().enable_profiling();
    }
    let mut values = BTreeMap::new();
    values.insert("graph.nodes", built.forward_nodes as f64);
    values.insert(
        "autodiff.nodes",
        (built.total_nodes - built.forward_nodes) as f64,
    );

    let warm = tr.begin("setup/warmup", setup_span, 0);
    // Batches of 8 through `run_many` first: the second sighting of a feed
    // signature is when the specializer promotes it, so every promotion
    // lands here. (Batches, not single blocking runs: those are all
    // cross-thread wake-ups and made `setup_s` bimodal.) Then the measured
    // loop's own shape.
    let n = feeds.len();
    // (trees per pass, passes)
    let (pass, passes) = match w {
        Workload::InferFresh => (FRESH_WARMUP, 1),
        Workload::InferHot8 => (n, 12),
        Workload::TrainTreeLstm => (0, 0),
        Workload::ServeSmallOpen | Workload::ServeWideClosed => (n, 2),
    };
    let next_fresh = pass * passes;
    let order: Vec<usize> = (0..pass * passes).map(|k| k % pass).collect();
    let batches = order.chunks(INFER_IN_FLIGHT).map(<[usize]>::to_vec);
    let promote_ms = warm_batches(&session, feeds, batches)?;
    let runner = match w {
        Workload::InferFresh | Workload::InferHot8 => Runner::Infer(session),
        Workload::TrainTreeLstm => {
            let mut trainer = Trainer::new(session, Adagrad::new(TRAIN_LR));
            trainer
                .step_batch(feeds[..TRAIN_BATCH].to_vec())
                .map_err(|e| e.to_string())?;
            Runner::Train(trainer)
        }
        Workload::ServeSmallOpen | Workload::ServeWideClosed => {
            let client = session.serve();
            for round in feeds.chunks(CLOSED_OFFERED).cycle().take(4) {
                let tickets: Vec<ServeTicket> = round
                    .iter()
                    .map(|f| client.submit(f.clone()).map_err(|e| e.to_string()))
                    .collect::<Res<_>>()?;
                for t in tickets {
                    t.wait().map_err(|e| e.to_string())?;
                }
            }
            Runner::Serve(session, client)
        }
    };
    tr.end(warm);
    let setup_s = tr.end(setup_span);
    values.insert("plan.promote_ms", promote_ms);
    Ok(Ready {
        built,
        runner,
        tracer: tr,
        setup_s,
        next_fresh,
        values,
    })
}

impl Ready {
    /// Stops the serve loop, if any (set-up-only processes).
    pub fn shut_down(self) {
        if let Runner::Serve(_, client) = &self.runner {
            client.shutdown();
        }
    }
}

// ---------------------------------------------------------------------
// Measured phases
// ---------------------------------------------------------------------

/// One instance that completed without an error.
struct Done {
    /// Completion time, ns from the start of the measured phase.
    at_ns: u64,
    /// Index of its tree in the pool.
    tree: usize,
    /// `[loss, logit 0, logit 1]` as the program returned them.
    out: [f32; 3],
    /// Latency in ms (serve workloads; 0 elsewhere).
    lat_ms: f64,
    /// Rate rung (open loop; 0 elsewhere).
    rung: usize,
}

#[derive(Default)]
struct Measured {
    elapsed_s: f64,
    attempted: u64,
    /// Errors plus refused or shed requests.
    errors: u64,
    /// Oracle mismatches found by the phase itself (training).
    mismatches: u64,
    done: Vec<Done>,
    /// Samples behind `p50_ms`/`p99_ms`, and what one sample is.
    lat_ms: Vec<f64>,
    lat_unit: &'static str,
    /// How late the generator started each request, ms (open loop).
    late_ms: Vec<f64>,
    notes: Vec<String>,
}

fn measure_infer(
    session: &Session,
    feeds: &[Vec<Tensor>],
    first_fresh: Option<usize>,
    seconds: f64,
    tr: &mut Tracer,
) -> Measured {
    let mut m = Measured {
        lat_unit: "run_many of 8",
        ..Measured::default()
    };
    let mut next = first_fresh.unwrap_or(0);
    let t0 = Instant::now();
    let mut end = t0;
    loop {
        let tb = Instant::now();
        if (tb - t0).as_secs_f64() >= seconds {
            break;
        }
        let idxs: Vec<usize> = match first_fresh {
            // Fresh: the next eight never-seen trees; the pool bounds the
            // phase by count.
            Some(_) if next + INFER_IN_FLIGHT > feeds.len() => break,
            Some(_) => (next..next + INFER_IN_FLIGHT).collect(),
            None => (0..INFER_IN_FLIGHT)
                .map(|k| (next + k) % feeds.len())
                .collect(),
        };
        next += INFER_IN_FLIGHT;
        let batch = idxs.iter().map(|&i| feeds[i].clone()).collect();
        let results = session.run_many(batch);
        end = Instant::now();
        m.lat_ms.push(ms(end - tb));
        if tr.per_request() {
            let (a, b) = (tr.ns(tb), tr.ns(end));
            tr.add("batch", 0, m.lat_ms.len() as u64, a, b);
        }
        for (tree, r) in idxs.into_iter().zip(results) {
            m.attempted += 1;
            match r
                .map_err(|e| e.to_string())
                .and_then(|o| loss_and_logits(&o))
            {
                Ok(out) => m.done.push(Done {
                    at_ns: (end - t0).as_nanos() as u64,
                    tree,
                    out,
                    lat_ms: 0.0,
                    rung: 0,
                }),
                Err(_) => m.errors += 1,
            }
        }
    }
    m.elapsed_s = (end - t0).as_secs_f64();
    m
}

fn measure_train(
    trainer: &mut Trainer<Adagrad>,
    b: &Built,
    oracle: &Oracle,
    seconds: f64,
    tr: &mut Tracer,
) -> Res<Measured> {
    let mut m = Measured {
        lat_unit: "step of 25",
        ..Measured::default()
    };
    // Step-1 losses the oracle expects, from the parameters as they are
    // now (warm-up has already updated them once).
    let expected: Vec<f32> = b.insts[..TRAIN_BATCH]
        .iter()
        .map(|i| oracle.expect(i).map(|o| o[0]))
        .collect::<Res<_>>()?;
    let batches = TRAIN_SET / TRAIN_BATCH;
    let mut step_losses: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    let mut end = t0;
    loop {
        let tb = Instant::now();
        if (tb - t0).as_secs_f64() >= seconds {
            break;
        }
        let k = step_losses.len();
        let lo = (k % batches) * TRAIN_BATCH;
        let batch = b.feeds[lo..lo + TRAIN_BATCH].to_vec();
        m.attempted += TRAIN_BATCH as u64;
        let losses = if tr.per_request() {
            decomposed_step(trainer, batch, k as u64, tr)
        } else {
            trainer.step_batch(batch).map_err(|e| e.to_string())
        };
        end = Instant::now();
        let losses = match losses {
            Ok(l) => l,
            Err(e) => {
                m.errors += TRAIN_BATCH as u64;
                m.notes.push(format!("step {k} failed: {e}"));
                break;
            }
        };
        m.lat_ms.push(ms(end - tb));
        if k == 0 {
            m.mismatches += losses
                .iter()
                .zip(&expected)
                .filter(|(got, want)| !close(**got, **want))
                .count() as u64;
        }
        step_losses.push(losses.iter().map(|&l| l as f64).sum::<f64>() / losses.len() as f64);
        m.done.extend((0..TRAIN_BATCH).map(|j| Done {
            at_ns: (end - t0).as_nanos() as u64,
            tree: lo + j,
            out: [losses[j], 0.0, 0.0],
            lat_ms: 0.0,
            rung: 0,
        }));
    }
    m.elapsed_s = (end - t0).as_secs_f64();
    let n = step_losses.len();
    if n >= 10 {
        let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
        let (first, last) = (mean(&step_losses[..5]), mean(&step_losses[n - 5..]));
        m.notes.push(format!(
            "mean loss: first 5 steps {first:.4}, last 5 steps {last:.4} ({n} steps)"
        ));
        let fell = last < first;
        if !fell {
            m.mismatches += 1;
            m.notes.push("FAILED: the loss did not fall".into());
        }
    } else {
        m.notes
            .push(format!("{n} steps: too few for the loss-trend check"));
    }
    Ok(m)
}

/// `Trainer::step_batch` taken apart, so each part gets its own span.
fn decomposed_step(
    trainer: &mut Trainer<Adagrad>,
    batch: Vec<Vec<Tensor>>,
    k: u64,
    tr: &mut Tracer,
) -> Res<Vec<f32>> {
    let n = batch.len();
    let step = tr.begin("step", 0, k);
    let span = tr.begin("step/run_training_batch", step, k);
    let outs = trainer.session.run_training_batch(batch);
    tr.end(span);
    let outs = outs.map_err(|e| e.to_string())?;
    let span = tr.begin("step/scale", step, k);
    let scaled = trainer.session.grads().scale_all(1.0 / n as f32);
    tr.end(span);
    scaled.map_err(|e| e.to_string())?;
    let span = tr.begin("step/optim", step, k);
    let stepped = trainer
        .optimizer
        .step(trainer.session.params(), trainer.session.grads());
    tr.end(span);
    stepped.map_err(|e| e.to_string())?;
    tr.end(step);
    outs.iter()
        .map(|o| loss_and_logits(o).map(|x| x[0]))
        .collect()
}

/// Timestamps of one served request.
struct Served {
    req: u64,
    tree: usize,
    rung: usize,
    /// Latency is timed from here: the due time (open loop) or the start
    /// of `submit` (closed loop).
    from: Instant,
    submit_start: Instant,
    submit_end: Instant,
    done: Instant,
    out: Res<[f32; 3]>,
}

fn record_served(m: &mut Measured, tr: &mut Tracer, t0: Instant, s: Served) {
    if tr.per_request() {
        let (a, b, c, d) = (
            tr.ns(s.from),
            tr.ns(s.submit_start),
            tr.ns(s.submit_end),
            tr.ns(s.done),
        );
        let parent = tr.add("request", 0, s.req, a, d);
        tr.add("request/submit", parent, s.req, b, c);
        tr.add("request/wait", parent, s.req, c, d);
    }
    match s.out {
        Ok(out) => m.done.push(Done {
            at_ns: (s.done - t0).as_nanos() as u64,
            tree: s.tree,
            out,
            lat_ms: ms(s.done.saturating_duration_since(s.from)),
            rung: s.rung,
        }),
        Err(_) => m.errors += 1,
    }
}

/// Closed loop: offer `CLOSED_OFFERED` requests, wait for all, repeat.
/// Latency runs from the start of `submit` to the ticket resolving, with
/// tickets collected in submission order.
fn measure_closed(
    client: &ServeClient,
    feeds: &[Vec<Tensor>],
    seconds: f64,
    rung: usize,
    first_req: u64,
    tr: &mut Tracer,
) -> Measured {
    let mut m = Measured {
        lat_unit: "request in the closed loop of 32",
        ..Measured::default()
    };
    let t0 = Instant::now();
    let mut end = t0;
    let mut cursor = 0usize;
    while (Instant::now() - t0).as_secs_f64() < seconds {
        let mut round = Vec::with_capacity(CLOSED_OFFERED);
        for k in 0..CLOSED_OFFERED {
            let tree = (cursor + k) % feeds.len();
            m.attempted += 1;
            let submit_start = Instant::now();
            match client.submit(feeds[tree].clone()) {
                Ok(ticket) => round.push((tree, submit_start, Instant::now(), ticket)),
                Err(_) => m.errors += 1,
            }
        }
        cursor += CLOSED_OFFERED;
        for (tree, submit_start, submit_end, ticket) in round {
            let out = ticket
                .wait()
                .map_err(|e| e.to_string())
                .and_then(|o| loss_and_logits(&o));
            end = Instant::now();
            let s = Served {
                req: first_req + m.done.len() as u64 + m.errors,
                tree,
                rung,
                from: submit_start,
                submit_start,
                submit_end,
                done: end,
                out,
            };
            record_served(&mut m, tr, t0, s);
        }
    }
    m.elapsed_s = (end - t0).as_secs_f64();
    m.lat_ms = m.done.iter().map(|d| d.lat_ms).collect();
    m
}

/// Open loop: this thread submits each request when it is due, whatever
/// the system's state; a collector thread waits for the tickets in
/// submission order. Latency runs from the *due* time, so a stall also
/// charges the requests queued behind it.
fn measure_open(
    client: &ServeClient,
    feeds: &[Vec<Tensor>],
    schedule: &[Arrival],
    tr: &mut Tracer,
) -> Measured {
    let mut m = Measured::default();
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, ServeTicket)>();
    let t0 = Instant::now();
    let due_at = |a: &Arrival| t0 + Duration::from_nanos(a.due_ns);
    let served: Vec<Served> = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut served = Vec::with_capacity(schedule.len());
            for (k, submit_start, submit_end, ticket) in rx {
                let out = ticket
                    .wait()
                    .map_err(|e| e.to_string())
                    .and_then(|o| loss_and_logits(&o));
                let a = &schedule[k];
                served.push(Served {
                    req: k as u64,
                    tree: a.tree,
                    rung: a.rung,
                    from: due_at(a),
                    submit_start,
                    submit_end,
                    done: Instant::now(),
                    out,
                });
            }
            served
        });
        for (k, a) in schedule.iter().enumerate() {
            let due = due_at(a);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            m.attempted += 1;
            let submit_start = Instant::now();
            m.late_ms
                .push(ms(submit_start.saturating_duration_since(due)));
            match client.submit(feeds[a.tree].clone()) {
                Ok(ticket) => tx
                    .send((k, submit_start, Instant::now(), ticket))
                    .expect("collector outlives the generator"),
                Err(_) => m.errors += 1,
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    let end = served.last().map_or(t0, |s| s.done);
    for s in served {
        record_served(&mut m, tr, t0, s);
    }
    m.elapsed_s = (end - t0).as_secs_f64();
    m
}

// ---------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------

/// The independent reference: `FoldEngine` (depth-wise batching, no
/// executor, no graph) on the session's own parameters.
struct Oracle {
    fold: FoldEngine,
}

impl Oracle {
    fn new(cfg: &ModelConfig, params: &Arc<ParamStore>) -> Res<Self> {
        let mut fold = FoldEngine::new(cfg.clone()).map_err(|e| e.to_string())?;
        fold.set_params(Arc::clone(params));
        Ok(Oracle { fold })
    }

    /// `[loss, logit 0, logit 1]` the model must give for `inst`.
    fn expect(&self, inst: &Instance) -> Res<[f32; 3]> {
        let (loss, logits) = self
            .fold
            .infer(std::slice::from_ref(inst))
            .map_err(|e| e.to_string())?;
        match logits.f32s().map_err(|e| e.to_string())? {
            [a, b] => Ok([loss, *a, *b]),
            other => Err(format!("oracle gave {} logits", other.len())),
        }
    }
}

/// Within the oracle tolerance; a NaN is never close.
fn close(got: f32, want: f32) -> bool {
    (got - want).abs() <= TOLERANCE
}

/// Compares outputs with the oracle: every output, or on `infer.fresh` a
/// seeded sample of [`ORACLE_SAMPLE`]. Returns `(checked, mismatches)`.
fn check_outputs(
    oracle: &Oracle,
    insts: &[Instance],
    done: &[Done],
    sample_seed: Option<u64>,
) -> Res<(usize, u64)> {
    let picks: Vec<usize> = match sample_seed {
        Some(seed) if done.len() > ORACLE_SAMPLE => {
            let mut rng = SplitMix::new(seed);
            (0..ORACLE_SAMPLE).map(|_| rng.below(done.len())).collect()
        }
        _ => (0..done.len()).collect(),
    };
    let mut expected: HashMap<usize, [f32; 3]> = HashMap::new();
    let mut mismatches = 0;
    for &p in &picks {
        let d = &done[p];
        let want = match expected.get(&d.tree) {
            Some(w) => *w,
            None => {
                let w = oracle.expect(&insts[d.tree])?;
                expected.insert(d.tree, w);
                w
            }
        };
        if !d.out.iter().zip(&want).all(|(g, w)| close(*g, *w)) {
            mismatches += 1;
        }
    }
    Ok((picks.len(), mismatches))
}

// ---------------------------------------------------------------------
// Probes (traced run only)
// ---------------------------------------------------------------------

/// Closed loop of `CLOSED_OFFERED` for `seconds`; instances per second.
fn closed_rate(seconds: f64, pool: usize, mut round: impl FnMut(&[usize]) -> Res<()>) -> Res<f64> {
    let t0 = Instant::now();
    let (mut cursor, mut n) = (0usize, 0usize);
    while t0.elapsed().as_secs_f64() < seconds {
        let idxs: Vec<usize> = (0..CLOSED_OFFERED).map(|k| (cursor + k) % pool).collect();
        round(&idxs)?;
        cursor += CLOSED_OFFERED;
        n += CLOSED_OFFERED;
    }
    Ok(n as f64 / t0.elapsed().as_secs_f64())
}

fn queued_rate(client: &ServeClient, feeds: &[Vec<Tensor>], seconds: f64) -> Res<f64> {
    closed_rate(seconds, feeds.len(), |idxs| {
        let tickets: Vec<ServeTicket> = idxs
            .iter()
            .map(|&i| client.submit(feeds[i].clone()).map_err(|e| e.to_string()))
            .collect::<Res<_>>()?;
        tickets
            .into_iter()
            .try_for_each(|t| t.wait().map(drop).map_err(|e| e.to_string()))
    })
}

fn bare_rate(session: &Session, feeds: &[Vec<Tensor>], seconds: f64) -> Res<f64> {
    closed_rate(seconds, feeds.len(), |idxs| {
        session
            .run_many(idxs.iter().map(|&i| feeds[i].clone()).collect())
            .into_iter()
            .try_for_each(|r| r.map(drop).map_err(|e| e.to_string()))
    })
}

/// Median ns of one `[1, 2h] · [2h, h]` product, the combine GEMV of the
/// workload's model, called directly.
fn gemv_ns(hidden: usize) -> Res<f64> {
    let x = Tensor::full([1, 2 * hidden], 0.5);
    let w = Tensor::full([2 * hidden, hidden], 0.25);
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(50) {
        let t = Instant::now();
        for _ in 0..8 {
            std::hint::black_box(
                matmul(std::hint::black_box(&x), std::hint::black_box(&w))
                    .map_err(|e| e.to_string())?,
            );
        }
        samples.push(t.elapsed().as_nanos() as f64 / 8.0);
    }
    Ok(stats::median(&samples))
}

/// Matmul flops and bytes of one instance with `leaves` leaves, computed
/// from tensor sizes (not measured): one `[1,k]·[k,n]` product is `2kn`
/// flops and moves `4(kn + k + n)` bytes; training does three products
/// per forward product (forward, and the two gradients).
fn computed_work(cfg: &ModelConfig, leaves: f64, training: bool) -> (f64, f64) {
    let (e, h, c) = (cfg.embed as f64, cfg.hidden as f64, cfg.classes as f64);
    let gemv = |k: f64, n: f64| (2.0 * k * n, 4.0 * (k * n + k + n));
    let (leaf_products, internal_products) = match cfg.kind {
        ModelKind::TreeLstm => (3.0, 5.0),
        _ => (1.0, 1.0),
    };
    let passes = if training { 3.0 } else { 1.0 };
    let parts = [
        (leaves * leaf_products, gemv(e, h)),
        ((leaves - 1.0) * internal_products, gemv(2.0 * h, h)),
        (1.0, gemv(h, c)),
    ];
    parts.iter().fold((0.0, 0.0), |acc, (count, (f, b))| {
        (acc.0 + passes * count * f, acc.1 + passes * count * b)
    })
}

// ---------------------------------------------------------------------
// The whole run
// ---------------------------------------------------------------------

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Rates (instances per second) over [`SEGMENTS`] consecutive segments of
/// equally many completion events (a batch, a step or a request each).
fn segment_rates(done: &[Done]) -> Vec<f64> {
    // (completion time, instances completed at that time)
    let mut events: Vec<(u64, u64)> = Vec::new();
    for d in done {
        match events.last_mut() {
            Some(e) if e.0 == d.at_ns => e.1 += 1,
            _ => events.push((d.at_ns, 1)),
        }
    }
    let n = events.len();
    let mut rates = Vec::with_capacity(SEGMENTS);
    let mut from_ns = 0u64;
    for k in 0..SEGMENTS.min(n) {
        let seg = &events[k * n / SEGMENTS.min(n)..(k + 1) * n / SEGMENTS.min(n)];
        let to_ns = seg.last().expect("segments are non-empty").0;
        let count: u64 = seg.iter().map(|e| e.1).sum();
        rates.push(count as f64 * 1e9 / (to_ns - from_ns).max(1) as f64);
        from_ns = to_ns;
    }
    rates
}

/// Per-rung latencies of the open loop, the highest rung that met the
/// limit, and how late the generator ran (diagnostics, see the README).
fn open_rung_metrics(
    m: &Measured,
    values: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) {
    let late_p99 = stats::tail(&stats::sorted(&m.late_ms)).0;
    values.insert("gen.late_p99_ms", late_p99);
    if late_p99 > MAX_GENERATOR_LATE_MS {
        notes.push(format!(
            "INVALID: the generator ran {late_p99:.3} ms late at p99 (limit {MAX_GENERATOR_LATE_MS} ms)"
        ));
    }
    let mut max_ok = 0.0;
    for (rung, &rate) in OPEN_RATES.iter().enumerate() {
        let of_rung: Vec<f64> = m
            .done
            .iter()
            .filter(|d| d.rung == rung)
            .map(|d| d.lat_ms)
            .collect();
        let sorted = stats::sorted(&of_rung);
        let (p50, (p99, pct)) = (stats::percentile(&sorted, 0.5), stats::tail(&sorted));
        // A backlog that grows shows as a last quarter far slower than
        // the first.
        let q = of_rung.len() / 4;
        let growing = q > 0
            && stats::median(&of_rung[of_rung.len() - q..])
                > 2.0 * stats::median(&of_rung[..q]) + 1.0;
        if p99 <= LATENCY_LIMIT_MS && !growing {
            max_ok = rate;
        }
        notes.push(format!(
            "rung r{} at {rate} req/s: {} done, p50 {p50:.3} ms, p{:.1} {p99:.3} ms{}",
            rung + 1,
            of_rung.len(),
            pct * 100.0,
            if growing { ", backlog growing" } else { "" }
        ));
        let names = [
            ("serve.r1_p50_ms", "serve.r1_p99_ms"),
            ("serve.r2_p50_ms", "serve.r2_p99_ms"),
            ("serve.r3_p50_ms", "serve.r3_p99_ms"),
        ][rung];
        values.insert(names.0, p50);
        values.insert(names.1, p99);
    }
    values.insert("serve.max_ok_rate", max_ok);
}

/// Measured phase, oracle check and (traced) probes of a warmed-up
/// workload. `setup_s` is the median set-up time the caller collected.
pub fn measure(a: &RunArgs, ready: Ready, setup_s: f64) -> Res<Outcome> {
    let w = a.workload;
    let Ready {
        built: b,
        mut runner,
        tracer: mut tr,
        next_fresh,
        mut values,
        ..
    } = ready;
    let oracle = Oracle::new(&b.cfg, runner.session().params())?;
    let exec_stats = Arc::clone(b.exec.stats());
    let spec_before = runner.session().plan().spec_stats();
    let counters_before = exec_stats.snapshot();
    let profile_before = exec_stats.kernel_profile();

    let wall = Instant::now();
    let mut m = match (&mut runner, w) {
        (Runner::Infer(s), Workload::InferFresh) => {
            measure_infer(s, &b.feeds, Some(next_fresh), a.seconds, &mut tr)
        }
        (Runner::Infer(s), _) => measure_infer(s, &b.feeds, None, a.seconds, &mut tr),
        (Runner::Train(t), _) => measure_train(t, &b, &oracle, a.seconds, &mut tr)?,
        (Runner::Serve(_, client), Workload::ServeSmallOpen) => {
            // Three open rungs, then one closed rung at saturation. The
            // open rungs give goodput; `p50_ms`/`p99_ms` come from the
            // closed rung, because open-loop latency on a 2-vCPU host is
            // set by idle wake-ups and varies 25-45 % run to run on
            // identical code (per-rung values stay as diagnostics).
            let rung_s = a.seconds / (OPEN_RATES.len() + 1) as f64;
            let schedule =
                gen::poisson_schedule(&OPEN_RATES, rung_s, b.feeds.len(), gen::derive(a.seed, 2));
            let mut m = measure_open(client, &b.feeds, &schedule, &mut tr);
            let closed = measure_closed(
                client,
                &b.feeds,
                rung_s,
                OPEN_RATES.len(),
                schedule.len() as u64,
                &mut tr,
            );
            m.attempted += closed.attempted;
            m.errors += closed.errors;
            m.done.extend(closed.done);
            m.lat_ms = closed.lat_ms;
            m.lat_unit = closed.lat_unit;
            m
        }
        (Runner::Serve(_, client), _) => measure_closed(client, &b.feeds, a.seconds, 0, 0, &mut tr),
    };
    let wall_s = wall.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let counters = exec_stats.snapshot();
    let profile = exec_stats.kernel_profile();
    let spec = runner.session().plan().spec_stats();
    let serve_stats = match &runner {
        Runner::Serve(_, client) => Some(client.stats()),
        _ => None,
    };

    // Oracle check, outside the timed region.
    let sample = (w == Workload::InferFresh).then(|| gen::derive(a.seed, 3));
    let (checked, mismatches) = match w {
        Workload::TrainTreeLstm => (TRAIN_BATCH.min(m.done.len()), m.mismatches),
        _ => check_outputs(&oracle, &b.insts, &m.done, sample)?,
    };
    let refused = serve_stats.as_ref().map_or(0, |s| {
        s.rejected + s.expired + s.shed + s.shed_inflight + s.shed_predicted + s.abandoned
    });
    let failed = (m.errors + mismatches).min(m.attempted);
    let succeeded = m.attempted - failed;
    let mut notes = std::mem::take(&mut m.notes);
    notes.push(format!(
        "oracle: {checked} outputs checked, {mismatches} mismatches (tolerance {TOLERANCE})"
    ));

    // End-to-end metrics.
    // Throughput counts correct instances only. Closed loops report the
    // median rate over equal-count segments, so a burst or stall confined
    // to one segment does not move it; the open loop offers a different
    // rate per rung, so its goodput (completions within the latency limit)
    // is taken over the whole phase.
    let seg = segment_rates(&m.done);
    let seg_iqr = stats::iqr_frac(&seg);
    let correct_share = 1.0 - mismatches as f64 / checked.max(1) as f64;
    let inst_per_s = correct_share
        * if w == Workload::ServeSmallOpen {
            let open = m.done.iter().filter(|d| d.rung < OPEN_RATES.len());
            open.filter(|d| d.lat_ms <= LATENCY_LIMIT_MS).count() as f64 / m.elapsed_s
        } else {
            stats::median(&seg)
        };
    let lat = stats::sorted(&m.lat_ms);
    let (tail, tail_pct) = stats::tail(&lat);
    let p50 = stats::percentile(&lat, 0.5);
    notes.push(format!(
        "latency unit: {}; {} samples; p99_ms is the {:.1}th percentile",
        m.lat_unit,
        lat.len(),
        tail_pct * 100.0
    ));
    if w != Workload::ServeSmallOpen {
        notes.push(format!(
            "within-run spread: IQR of inst_per_s over {SEGMENTS} segments = {:.2}% of its median \
             (segments: {})",
            seg_iqr * 100.0,
            seg.iter()
                .map(|r| format!("{r:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    if !a.traced {
        values.insert("inst_per_s", inst_per_s);
        values.insert("p50_ms", p50);
        values.insert("p99_ms", tail);
        values.insert("setup_s", setup_s);
        values.insert("peak_rss_mb", rss);
    }

    // Per-layer numbers that cost nothing to collect: spans of the set-up
    // and deltas of the program's public counters.
    let insts_done = m.done.len().max(1) as f64;
    let self_time = self_times(tr.spans());
    let self_ms = |name: &str| self_time.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e6);
    values.insert("data.gen_ms", self_ms("setup/data.gen"));
    values.insert("graph.build_ms", self_ms("setup/graph.build"));
    values.insert("autodiff.build_ms", self_ms("setup/autodiff.build"));
    values.insert("plan.build_ms", self_ms("setup/session.new"));
    values.insert("setup.warmup_ms", self_ms("setup/warmup"));
    let (hits, misses) = (
        spec.hits - spec_before.hits,
        spec.misses - spec_before.misses,
    );
    values.insert(
        "plan.spec_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    values.insert("plan.promotions", spec.promotions as f64);
    let per_inst = |after: u64, before: u64| (after - before) as f64 / insts_done;
    let ops = (counters.ops_executed - counters_before.ops_executed).max(1) as f64;
    values.insert(
        "exec.frames_per_inst",
        per_inst(counters.frames_spawned, counters_before.frames_spawned),
    );
    values.insert("exec.ops_per_inst", ops / insts_done);
    values.insert(
        "exec.continuations_per_inst",
        per_inst(counters.continuations, counters_before.continuations),
    );
    values.insert("exec.us_per_op", wall_s * WORKERS as f64 * 1e6 / ops);
    values.insert(
        "cache.writes_per_inst",
        per_inst(counters.cache_writes, counters_before.cache_writes),
    );
    values.insert(
        "cache.reads_per_inst",
        per_inst(counters.cache_reads, counters_before.cache_reads),
    );
    let fusable = counters.fusable_seen - counters_before.fusable_seen;
    let fused = counters.fused_tasks - counters_before.fused_tasks;
    let groups = counters.fused_groups - counters_before.fused_groups;
    values.insert("fusion.fused_frac", fused as f64 / fusable.max(1) as f64);
    values.insert("fusion.mean_group", fused as f64 / groups.max(1) as f64);
    let mean_leaves = m
        .done
        .iter()
        .map(|d| b.insts[d.tree].tree.n_leaves() as f64)
        .sum::<f64>()
        / insts_done;
    let (flops, bytes) = computed_work(&b.cfg, mean_leaves, w == Workload::TrainTreeLstm);
    values.insert("kernel.flops_per_inst", flops);
    values.insert("kernel.bytes_per_inst", bytes);
    values.insert("trace.inst_per_s", inst_per_s);
    values.insert("trace.p50_ms", p50);
    values.insert("trace.segment_iqr_frac", seg_iqr);

    if let Some(s) = &serve_stats {
        values.insert("serve.wait_p50_ms", s.wait.p50_us / 1e3);
        values.insert("serve.wait_p99_ms", s.wait.p99_us / 1e3);
        values.insert("serve.service_p50_ms", s.service.p50_us / 1e3);
        values.insert("serve.service_p99_ms", s.service.p99_us / 1e3);
        values.insert(
            "serve.mean_wave",
            s.completed as f64 / s.batches.max(1) as f64,
        );
        values.insert("serve.wave_target_end", s.wave_target as f64);
        values.insert("serve.refused", refused as f64);
        // How far the client's median is from what the serve layer itself
        // accounts for: its wait + service medians, which cover the last
        // 4096 requests, against the client's median over the same ones.
        let recent = m.done.len().saturating_sub(4096);
        let client_p50 = stats::median(
            &m.done[recent..]
                .iter()
                .map(|d| d.lat_ms)
                .collect::<Vec<_>>(),
        );
        values.insert(
            "serve.client_gap_p50_ms",
            client_p50 - (s.wait.p50_us + s.service.p50_us) / 1e3,
        );
    }
    if w == Workload::ServeSmallOpen {
        open_rung_metrics(&m, &mut values, &mut notes);
    }

    if a.traced {
        // Kernel time the executor's profile saw during the measured phase.
        let mut kinds: Vec<(&str, f64)> = profile
            .iter()
            .map(|(k, (d, _))| {
                let before = profile_before.get(k).map_or(Duration::ZERO, |p| p.0);
                (*k, d.saturating_sub(before).as_secs_f64())
            })
            .collect();
        kinds.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("finite").then(x.0.cmp(y.0)));
        let busy: f64 = kinds.iter().map(|k| k.1).sum();
        values.insert("kernel.busy_frac", busy / (WORKERS as f64 * wall_s));
        let top: Vec<String> = kinds
            .iter()
            .take(3)
            .map(|(k, s)| format!("{k} {:.1}%", 100.0 * s / busy.max(1e-12)))
            .collect();
        notes.push(format!(
            "kernel.top3 (share of profiled kernel time): {}",
            top.join(", ")
        ));
        values.insert("kernel.gemv_ns", gemv_ns(b.cfg.hidden)?);

        let submit = tr.durations_ns("request/submit");
        values.insert("serve.submit_us_p50", stats::median(&submit) / 1e3);
        let steps = tr.durations_ns("step").len().max(1) as f64;
        let step_ms = |name: &str| self_ms(name) / steps;
        values.insert("train.run_batch_ms", step_ms("step/run_training_batch"));
        values.insert("train.scale_ms", step_ms("step/scale"));
        values.insert("optim.step_ms", step_ms("step/optim"));

        let probe_s = (a.seconds / 8.0).max(0.2);
        match &mut runner {
            Runner::Serve(session, client) => {
                // Same inputs, same offered concurrency: through the queue,
                // then (serve loop stopped, so fusion is off again) bare.
                let span = tr.begin("probe/queued", 0, 0);
                let queued = if w == Workload::ServeWideClosed {
                    inst_per_s
                } else {
                    queued_rate(client, &b.feeds, probe_s)?
                };
                tr.end(span);
                client.shutdown();
                let span = tr.begin("probe/bare", 0, 0);
                let bare = bare_rate(session, &b.feeds, probe_s)?;
                tr.end(span);
                values.insert("serve.queued_inst_per_s", queued);
                values.insert("serve.bare_inst_per_s", bare);
                values.insert("serve.overhead_frac", 1.0 - queued / bare);
            }
            Runner::Train(_) => {
                let span = tr.begin("probe/fold", 0, 0);
                let grads = GradStore::new(oracle.fold.params().len());
                let batch = &b.insts[..TRAIN_BATCH];
                let t0 = Instant::now();
                let mut n = 0usize;
                while t0.elapsed().as_secs_f64() < probe_s {
                    oracle
                        .fold
                        .train_step(batch, &grads)
                        .map_err(|e| e.to_string())?;
                    n += TRAIN_BATCH;
                }
                let fold_rate = n as f64 / t0.elapsed().as_secs_f64();
                tr.end(span);
                values.insert("fold.inst_per_s", fold_rate);
                values.insert("fold.rec_vs_fold", inst_per_s / fold_rate);
            }
            Runner::Infer(_) => {}
        }
        if !matches!(runner, Runner::Train(_)) {
            // One blocking run per distinct input: executor latency with
            // nothing else in flight.
            let span = tr.begin("probe/run", 0, 0);
            let distinct = b.feeds.len().min(SERVE_POOL);
            let mut us = Vec::with_capacity(distinct);
            for f in &b.feeds[..distinct] {
                let t = Instant::now();
                runner.session().run(f.clone()).map_err(|e| e.to_string())?;
                us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            tr.end(span);
            values.insert("exec.run_us_p50", stats::median(&us));
        }
        values.insert("trace.spans", tr.spans().len() as f64);
        let dir = std::env::var_os("CARGO_MANIFEST_DIR")
            .map_or_else(|| "benchmark".into(), std::path::PathBuf::from);
        let path = dir.join("out").join(format!("trace-{}.jsonl", w.name()));
        tr.write_jsonl(&path, w.name())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!(
            "trace: {} spans in {}",
            tr.spans().len(),
            path.display()
        ));
    }
    if let Runner::Serve(_, client) = &runner {
        client.shutdown();
    }

    notes.push(format!(
        "counts: attempted {} succeeded {succeeded} failed {failed} refused {refused} \
         failed_frac {:.6}; measured {:.3} s",
        m.attempted,
        failed as f64 / m.attempted.max(1) as f64,
        m.elapsed_s
    ));
    Ok(Outcome {
        attempted: m.attempted,
        failed,
        correct: failed == 0 && m.attempted > 0,
        values,
        notes,
    })
}
