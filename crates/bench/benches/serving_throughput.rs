//! serving_throughput — concurrent inference serving on one session.
//!
//! The north-star workload: a stream of independent, mixed-depth inference
//! requests (different parse trees → different recursion depths) served by
//! one `Session` on one shared worker pool, both bare (`Session::run_many`)
//! and through the admission queue (`Session::serve`).
//!
//! Three measurements:
//!
//! * criterion group `serving/*` — `run_many` at several concurrency levels
//!   vs the blocking sequential loop vs the admission-queue path at offered
//!   concurrency 32, with `Throughput::Elements` so the shim reports
//!   requests/sec first-class (stdout and `CRITERION_JSON`);
//! * a windowed closed-loop requests/sec table appended to
//!   `results/serving_throughput.json` (same JSON-lines trajectory format
//!   as the figure/table harnesses), honouring `RDG_QUICK`/`RDG_THREADS`/
//!   `RDG_SECONDS` — queued rows carry the per-request latency
//!   percentiles (enqueue→complete) from `ServeStats`, which the bare
//!   `run_many` path cannot measure (that is the point of the queue);
//! * a **mixed-QoS table** (same JSON file): one Interactive foreground
//!   client measured while a saturating Batch background stream hammers
//!   the same queue, class-blind (everything in one lane — the PR 4
//!   behavior) vs QoS-aware (foreground `Priority::Interactive`,
//!   background `Priority::Batch`). The percentile columns are the
//!   *foreground* stream's client-observed latency; requests/s is the
//!   aggregate of both streams.

use criterion::{BenchmarkId, Criterion, Throughput};
use rdg_bench::{fmt_thr, throughput, BenchOpts, Table};
use rdg_core::exec::LatencyPercentiles;
use rdg_core::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A per-instance TreeRNN inference session plus a pool of mixed-depth
/// requests (leaf counts spread 4–48, Moderate shape).
fn serving_fixture(threads: usize, quick: bool) -> (Session, Vec<Vec<Tensor>>) {
    let cfg = ModelConfig::paper_default(ModelKind::TreeRnn, 1);
    let data = Dataset::generate(DatasetConfig {
        vocab: cfg.vocab,
        n_train: 64,
        n_valid: 0,
        min_len: 4,
        max_len: if quick { 24 } else { 48 },
        shape: TreeShape::Moderate,
        seed: 20240715,
        ..DatasetConfig::default()
    });
    let m = build_recursive(&cfg).expect("build recursive");
    let sess = Session::new(Executor::with_threads(threads), m).expect("session");
    let requests = Dataset::feeds_per_instance(data.split(Split::Train));
    (sess, requests)
}

fn serving_bench(c: &mut Criterion, sess: &Session, requests: &[Vec<Tensor>]) {
    let mut g = c.benchmark_group("serving");
    g.sample_size(10);

    // Sequential baseline: the same 8 requests, one blocking run at a time.
    let reqs8: Vec<Vec<Tensor>> = requests[..8].to_vec();
    g.throughput(Throughput::Elements(8));
    g.bench_with_input(BenchmarkId::new("sequential", 8), &8usize, |b, _| {
        b.iter(|| {
            for r in &reqs8 {
                sess.run(r.clone()).expect("request");
            }
        })
    });

    // Concurrent serving minibatches (bare: all requests in flight at once).
    for &n in &[8usize, 32] {
        let reqs: Vec<Vec<Tensor>> = requests[..n].to_vec();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("run_many", n), &n, |b, _| {
            b.iter(|| {
                for r in sess.run_many(reqs.clone()) {
                    r.expect("request");
                }
            })
        });
    }

    // Admission-queue arm: the same 32 requests *offered* at once, but the
    // dispatcher admits them in worker-sized waves, so in-flight frames
    // stay at ≈ workers × batch_multiple instead of 32 — the high-offered-
    // concurrency locality tax is what this path removes.
    {
        let client = sess.serve();
        let reqs: Vec<Vec<Tensor>> = requests[..32].to_vec();
        g.throughput(Throughput::Elements(32));
        g.bench_with_input(BenchmarkId::new("queued", 32), &32usize, |b, _| {
            b.iter(|| {
                let tickets: Vec<_> = reqs
                    .iter()
                    .map(|r| client.submit(r.clone()).expect("admit"))
                    .collect();
                for t in tickets {
                    t.wait().expect("request");
                }
            })
        });
        client.shutdown();
    }
    g.finish();
}

/// Closed-loop requests/sec (and, on the queued path, latency percentiles)
/// at several concurrency levels, recorded to
/// `results/serving_throughput.json` for the cross-PR trajectory.
fn record_serving_throughput(opts: &BenchOpts, sess: &Session, requests: &[Vec<Tensor>]) {
    let window = Duration::from_secs_f64(opts.seconds);
    let mut table = Table::new(
        format!(
            "Serving throughput: mixed-depth TreeRNN inference, {} worker threads, {:.1}s window",
            opts.threads.max(2),
            opts.seconds
        ),
        &[
            "mode",
            "concurrency",
            "requests/s",
            "p50_us",
            "p95_us",
            "p99_us",
        ],
    );
    for &conc in &[1usize, 8, 32] {
        // Closed loop: `conc` requests in flight per call, rotating
        // through the pool (the cursor lives in the closure).
        let mut cursor = 0usize;
        let rps = throughput(conc, window, || {
            let batch: Vec<Vec<Tensor>> = (0..conc)
                .map(|k| requests[(cursor + k) % requests.len()].clone())
                .collect();
            cursor = (cursor + conc) % requests.len();
            for r in sess.run_many(batch) {
                r.expect("request");
            }
        });
        table.row(&[
            "bare".into(),
            conc.to_string(),
            fmt_thr(rps),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }
    for &conc in &[8usize, 32] {
        // Queued closed loop: the same offered concurrency, admitted
        // through the bounded queue. A fresh client per row keeps each
        // row's latency window to its own measurement.
        let client = sess.serve();
        let mut cursor = 0usize;
        let rps = throughput(conc, window, || {
            let tickets: Vec<_> = (0..conc)
                .map(|k| {
                    let feeds = requests[(cursor + k) % requests.len()].clone();
                    client.submit(feeds).expect("admit")
                })
                .collect();
            cursor = (cursor + conc) % requests.len();
            for t in tickets {
                t.wait().expect("request");
            }
        });
        let st = client.stats();
        table.row(&[
            "queued".into(),
            conc.to_string(),
            fmt_thr(rps),
            format!("{:.0}", st.total.p50_us),
            format!("{:.0}", st.total.p95_us),
            format!("{:.0}", st.total.p99_us),
        ]);
        client.shutdown();
    }
    table.emit("serving_throughput");
}

/// The cross-request batching fixture: the same mixed-depth tree pool as
/// [`serving_fixture`], but at serving-scale model dimensions
/// (embed 256, hidden 768). At the paper's toy dims (32) the weight
/// matrices live in L1 and per-request time is all executor machinery,
/// which fusing kernel calls cannot touch; at serving scale the combine
/// matrix alone is ~4.5 MB — past L2 — so every scalar GEMV re-streams
/// it and a fused row block reads it once. That is the regime dynamic
/// batching exists for.
fn batching_fixture(threads: usize, quick: bool) -> (Session, Vec<Vec<Tensor>>) {
    let cfg = ModelConfig {
        kind: ModelKind::TreeRnn,
        vocab: 2000,
        embed: 256,
        hidden: 768,
        classes: 2,
        batch: 1,
        seed: 20180423,
    };
    let data = Dataset::generate(DatasetConfig {
        vocab: cfg.vocab,
        n_train: 64,
        n_valid: 0,
        min_len: 4,
        max_len: if quick { 24 } else { 48 },
        shape: TreeShape::Moderate,
        seed: 20240715,
        ..DatasetConfig::default()
    });
    let m = build_recursive(&cfg).expect("build recursive");
    let sess = Session::new(Executor::with_threads(threads), m).expect("session");
    let requests = Dataset::feeds_per_instance(data.split(Split::Train));
    (sess, requests)
}

/// The cross-request batching A/B's scalar baseline: the same closed loop
/// of `conc` requests, each iteration one `Session::run_many` of them —
/// `conc` scalar root frames in flight, the shape of a fixed wave of
/// `conc` (×16 on 2 workers), without the dispatcher. Bare runs never fuse.
/// Returns the requests/s plus the executor's fusion-eligible instance
/// count over the arm (its fused rows stay zero).
fn bare_batching_arm(
    sess: &Session,
    requests: &[Vec<Tensor>],
    window: Duration,
    conc: usize,
) -> (f64, u64) {
    let before = sess.executor().stats().snapshot();
    let mut cursor = 0usize;
    let rps = throughput(conc, window, || {
        let batch: Vec<Vec<Tensor>> = (0..conc)
            .map(|k| requests[(cursor + k) % requests.len()].clone())
            .collect();
        cursor = (cursor + conc) % requests.len();
        for r in sess.run_many(batch) {
            r.expect("request");
        }
    });
    let after = sess.executor().stats().snapshot();
    assert_eq!(
        after.fused_tasks, before.fused_tasks,
        "bare runs never fuse"
    );
    (rps, after.fusable_seen - before.fusable_seen)
}

/// One cross-request-batching measurement: a closed loop of `conc`
/// offered requests through an admission queue configured by `config`.
/// Returns the requests/s plus the client's final `ServeStats` (latency
/// percentiles and the fusion telemetry rows).
fn batching_arm(
    sess: &Session,
    requests: &[Vec<Tensor>],
    window: Duration,
    conc: usize,
    config: ServeConfig,
) -> (f64, ServeStats) {
    let client = sess.serve_with(config);
    let mut cursor = 0usize;
    let rps = throughput(conc, window, || {
        let tickets: Vec<_> = (0..conc)
            .map(|k| {
                let feeds = requests[(cursor + k) % requests.len()].clone();
                client.submit(feeds).expect("admit")
            })
            .collect();
        cursor = (cursor + conc) % requests.len();
        for t in tickets {
            t.wait().expect("request");
        }
    });
    let st = client.stats();
    client.shutdown();
    (rps, st)
}

/// The cross-request batching A/B table: identical saturating mixed-depth
/// traffic, with the fusion telemetry (groups formed, instances fused,
/// eligible instances, fused fraction) carried per row. Three arms:
///
/// * `bare-scalar` — `Session::run_many` of the 32 requests per iteration:
///   32 scalar root frames in flight, the shape of a fixed ×16 wave on 2
///   workers, with no dispatcher (a serve loop always fuses, so the
///   scalar baseline is the bare path);
/// * `queued-fused` — fixed waves of workers × 16 through a serve loop,
///   whose runs stack same-shape kernels at dispatch time;
/// * `queued-default` — `ServeConfig::default()`, the dynamic controller:
///   its budget target alone would run waves of 2 here, and its backlog
///   waves (this model stacks a 4.5 MB weight) are what bring it close to
///   `queued-fused`.
///
/// Appended to `results/serving_throughput.json`.
///
/// With `RDG_ASSERT_SPEEDUP=1` the arm also enforces the PR 8 acceptance
/// floor — fused ≥ 1.3× bare-scalar requests/s and ≥ 50% of eligible
/// instances fused — which on a busy or single-core host is advisory
/// only (see ROADMAP.md on wall-clock asserts).
fn record_batching_ab(opts: &BenchOpts) {
    let (sess, requests) = batching_fixture(opts.threads.max(2), opts.quick);
    let (sess, requests) = (&sess, &requests[..]);
    let window = Duration::from_secs_f64(opts.seconds);
    const CONC: usize = 32;
    let mut table = Table::new(
        format!(
            "Cross-request batching A/B: mixed-depth TreeRNN at serving \
             scale (embed 256, hidden 768), {} offered requests \
             closed-loop, {} worker threads, {:.1}s window; fused rows \
             stack same-shape kernels across requests at dispatch time",
            CONC,
            opts.threads.max(2),
            opts.seconds
        ),
        &[
            "mode",
            "concurrency",
            "requests/s",
            "p50_us",
            "p99_us",
            "fused_groups",
            "fused_instances",
            "fused_eligible",
            "fused_frac",
        ],
    );
    let (bare_rps, bare_eligible) = bare_batching_arm(sess, requests, window, CONC);
    table.row(&[
        "bare-scalar".into(),
        CONC.to_string(),
        fmt_thr(bare_rps),
        "-".into(),
        "-".into(),
        "0".into(),
        "0".into(),
        bare_eligible.to_string(),
        format!("{:.3}", 0.0),
    ]);
    let arms = [
        (
            "queued-fused",
            ServeConfig {
                capacity: 64,
                batch_multiple: 16,
                sizing: WaveSizing::Fixed,
                ..ServeConfig::default()
            },
        ),
        ("queued-default", ServeConfig::default()),
    ];
    let mut rps_by_mode = [0.0f64; 2];
    let mut frac_by_mode = [0.0f64; 2];
    for (i, (mode, config)) in arms.into_iter().enumerate() {
        let (rps, st) = batching_arm(sess, requests, window, CONC, config);
        rps_by_mode[i] = rps;
        frac_by_mode[i] = st.fused_fraction();
        table.row(&[
            mode.into(),
            CONC.to_string(),
            fmt_thr(rps),
            format!("{:.0}", st.total.p50_us),
            format!("{:.0}", st.total.p99_us),
            st.fusion_groups.to_string(),
            st.fusion_instances.to_string(),
            st.fusion_eligible.to_string(),
            format!("{:.3}", frac_by_mode[i]),
        ]);
    }
    table.emit("serving_throughput");
    let ratio = rps_by_mode[0] / bare_rps;
    println!("fused serving vs bare-scalar: {ratio:.2}x (floor 1.3x)");
    if std::env::var_os("RDG_ASSERT_SPEEDUP").is_some() {
        assert!(
            ratio >= 1.3,
            "fused serving only {ratio:.2}x bare-scalar (floor 1.3x)"
        );
        assert!(
            frac_by_mode[0] >= 0.5,
            "only {:.0}% of eligible instances fused (floor 50%)",
            frac_by_mode[0] * 100.0
        );
    }
}

/// One mixed-QoS measurement: `bg_threads` background clients keep
/// `bg_outstanding` requests in flight each (a saturating stream), while
/// the foreground thread runs a closed loop and measures every request at
/// the client. `qos = false` submits both streams into one class (the
/// class-blind PR 4 queue); `qos = true` splits them
/// Interactive/Batch. Returns (aggregate req/s, foreground percentiles).
fn mixed_qos_arm(
    sess: &Session,
    requests: &[Vec<Tensor>],
    window: Duration,
    qos: bool,
) -> (f64, LatencyPercentiles) {
    const BG_THREADS: usize = 2;
    const BG_OUTSTANDING: usize = 24;
    let client = sess.serve_with(ServeConfig {
        capacity: 64,
        // Aging is the starvation bound, tuned to the lower class's
        // tolerance; for the A/B arm it must exceed the backlog drain
        // time or the aged backlog degenerates to FIFO and the arms
        // measure the same thing.
        aging_step: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let bg_class = if qos {
        Priority::Batch
    } else {
        Priority::Interactive
    };
    let stop = Arc::new(AtomicBool::new(false));
    let mut bg = Vec::new();
    for t in 0..BG_THREADS {
        let client = client.with_priority(bg_class);
        let stop = Arc::clone(&stop);
        let requests = requests.to_vec();
        bg.push(std::thread::spawn(move || {
            let mut ring: std::collections::VecDeque<rdg_core::exec::ServeTicket> =
                std::collections::VecDeque::new();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                if ring.len() >= BG_OUTSTANDING {
                    ring.pop_front().unwrap().wait().expect("bg request");
                }
                let feeds = requests[(t * 41 + i) % requests.len()].clone();
                i += 1;
                ring.push_back(client.submit(feeds).expect("bg admit"));
            }
            for t in ring {
                t.wait().expect("bg drain");
            }
        }));
    }
    // Foreground: closed loop, one request at a time, client-observed
    // latency per request (the number an interactive SLO is written on).
    let mut fg_lat_ns: Vec<u64> = Vec::new();
    let t0 = Instant::now();
    let mut i = 0usize;
    while t0.elapsed() < window {
        let feeds = requests[(i * 7) % requests.len()].clone();
        i += 1;
        let sent = Instant::now();
        client
            .submit(feeds)
            .expect("fg admit")
            .wait()
            .expect("fg request");
        fg_lat_ns.push(sent.elapsed().as_nanos() as u64);
    }
    stop.store(true, Ordering::Relaxed);
    for h in bg {
        h.join().expect("bg thread");
    }
    let wall = t0.elapsed().as_secs_f64();
    let completed = client.stats().completed;
    client.shutdown();
    (
        completed as f64 / wall,
        LatencyPercentiles::from_ns_samples(&mut fg_lat_ns),
    )
}

/// The mixed-QoS table: Interactive foreground under a saturating Batch
/// background, class-blind vs QoS-aware, appended to
/// `results/serving_throughput.json` next to the closed-loop table.
fn record_mixed_qos(opts: &BenchOpts, sess: &Session, requests: &[Vec<Tensor>]) {
    let window = Duration::from_secs_f64(opts.seconds);
    let mut table = Table::new(
        format!(
            "Mixed QoS: interactive foreground vs saturating batch background \
             (2 bg clients × 24 in flight), {} worker threads, {:.1}s window; \
             percentiles are the foreground stream's",
            opts.threads.max(2),
            opts.seconds
        ),
        &[
            "mode",
            "concurrency",
            "requests/s",
            "p50_us",
            "p95_us",
            "p99_us",
        ],
    );
    for (mode, qos) in [("mixed-blind", false), ("mixed-qos", true)] {
        let (rps, fg) = mixed_qos_arm(sess, requests, window, qos);
        table.row(&[
            mode.into(),
            "1+48".into(),
            fmt_thr(rps),
            format!("{:.0}", fg.p50_us),
            format!("{:.0}", fg.p95_us),
            format!("{:.0}", fg.p99_us),
        ]);
    }
    table.emit("serving_throughput");
}

/// One overload arm: `OV_CLIENTS` closed-loop clients per class keep the
/// queue saturated for `window`; every request is measured at the client.
/// With `slo` set, requests go through `submit_slo` (all three shed
/// points armed) and a shed resolves the ticket immediately; without, the
/// PR 5 path — backpressure only, every admitted request served however
/// stale. Returns per-class `(goodput req/s, completed, shed)` where
/// goodput counts only requests that *completed within `slo_ns`* — the
/// number an SLO dashboard reports, identical filter for both arms.
fn overload_arm(
    sess: &Session,
    requests: &[Vec<Tensor>],
    window: Duration,
    slo_ns: u64,
    shed: bool,
) -> [(f64, u64, u64); 2] {
    const OV_CLIENTS: usize = 2; // per class
    const OV_OUTSTANDING: usize = 12;
    let client = sess.serve_with(ServeConfig {
        capacity: 64,
        aging_step: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let classes = [Priority::Interactive, Priority::Batch];
    let t0 = Instant::now();
    let mut per_class = [(0.0f64, 0u64, 0u64); 2];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (ci, &class) in classes.iter().enumerate() {
            for t in 0..OV_CLIENTS {
                let client = client.with_priority(class);
                let requests = &requests;
                handles.push(scope.spawn(move || -> (usize, u64, u64, u64) {
                    let mut ring: std::collections::VecDeque<(
                        Instant,
                        rdg_core::exec::ServeTicket,
                    )> = std::collections::VecDeque::new();
                    let (mut good, mut done, mut shed_n) = (0u64, 0u64, 0u64);
                    let mut reap = |ring: &mut std::collections::VecDeque<_>| {
                        let (sent, ticket): (Instant, rdg_core::exec::ServeTicket) =
                            ring.pop_front().unwrap();
                        match ticket.wait() {
                            Ok(_) => {
                                done += 1;
                                if sent.elapsed().as_nanos() as u64 <= slo_ns {
                                    good += 1;
                                }
                            }
                            Err(rdg_core::exec::ServeError::Shed { .. }) => shed_n += 1,
                            Err(e) => panic!("overload request failed: {e}"),
                        }
                    };
                    // Predictive sheds are rejected at submit (no ticket),
                    // counted apart so the reap closure owns `shed_n` alone.
                    let mut pre_shed = 0u64;
                    let mut i = 0usize;
                    while t0.elapsed() < window {
                        if ring.len() >= OV_OUTSTANDING {
                            reap(&mut ring);
                        }
                        let feeds = requests[(ci * 97 + t * 41 + i) % requests.len()].clone();
                        i += 1;
                        let sent = Instant::now();
                        let submitted = if shed {
                            client.submit_slo(feeds, Duration::from_nanos(slo_ns))
                        } else {
                            client.submit(feeds)
                        };
                        match submitted {
                            Ok(ticket) => ring.push_back((sent, ticket)),
                            Err(rdg_core::exec::ServeError::Shed { .. }) => pre_shed += 1,
                            Err(e) => panic!("overload submit failed: {e}"),
                        }
                    }
                    while !ring.is_empty() {
                        reap(&mut ring);
                    }
                    drop(reap);
                    (ci, good, done, shed_n + pre_shed)
                }));
            }
        }
        for h in handles {
            let (ci, good, done, shed_n) = h.join().expect("overload client");
            per_class[ci].1 += done;
            per_class[ci].2 += shed_n;
            per_class[ci].0 += good as f64;
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    for entry in &mut per_class {
        entry.0 /= wall;
    }
    client.shutdown();
    per_class
}

/// The overload table: identical saturating two-class traffic, PR 5
/// no-shedding baseline vs SLO-enforced shedding, goodput + shed counts
/// per class, appended to `results/serving_throughput.json`.
fn record_overload_shedding(opts: &BenchOpts, sess: &Session, requests: &[Vec<Tensor>]) {
    let window = Duration::from_secs_f64(opts.seconds);
    // Calibrate the SLO to this host: mean unloaded latency of a few
    // sequential requests, scaled to half the expected full-queue wait
    // (2 classes × 2 clients × 12 outstanding, minus in-flight slack).
    let t0 = Instant::now();
    let cal = 8usize;
    for r in requests.iter().take(cal) {
        sess.run(r.clone()).expect("calibration request");
    }
    let mean_ns = (t0.elapsed().as_nanos() as u64 / cal as u64).max(1);
    let slo_ns = mean_ns * 48 / (2 * opts.threads.max(2) as u64);
    let mut table = Table::new(
        format!(
            "Overload shedding: 2+2 closed-loop clients × 12 in flight per \
             class, SLO {:.1} ms (calibrated), {} worker threads, {:.1}s \
             window; goodput counts requests completed within the SLO",
            slo_ns as f64 / 1e6,
            opts.threads.max(2),
            opts.seconds
        ),
        &["mode", "class", "goodput/s", "completed", "shed"],
    );
    for (mode, shed) in [("overload-noslo", false), ("overload-slo", true)] {
        let per_class = overload_arm(sess, requests, window, slo_ns, shed);
        for (ci, class) in [Priority::Interactive, Priority::Batch].iter().enumerate() {
            let (goodput, done, shed_n) = per_class[ci];
            table.row(&[
                mode.into(),
                class.name().into(),
                fmt_thr(goodput),
                done.to_string(),
                shed_n.to_string(),
            ]);
        }
    }
    table.emit("serving_throughput");
}

fn main() {
    // One fixture for all four measurements: same session, same request
    // pool, one worker pool (a `criterion_group!` would rebuild it per
    // target).
    let opts = BenchOpts::from_env();
    let (sess, requests) = serving_fixture(opts.threads.max(2), opts.quick);
    let mut criterion = Criterion::default();
    serving_bench(&mut criterion, &sess, &requests);
    record_serving_throughput(&opts, &sess, &requests);
    record_batching_ab(&opts);
    record_mixed_qos(&opts, &sess, &requests);
    record_overload_shedding(&opts, &sess, &requests);
}
