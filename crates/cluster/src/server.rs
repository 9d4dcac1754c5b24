//! Synchronous data-parallel training — and admission-controlled serving —
//! with a shared parameter store.

use rdg_autodiff::build_training_module;
use rdg_data::{Dataset, Split};
use rdg_exec::{
    ExecError, Executor, GradStore, LatencyPercentiles, ParamStore, Priority, ReplicaSnapshot,
    ServeConfig, ServeError, Session,
};
use rdg_models::{build_recursive, ModelConfig};
use rdg_nn::{Adagrad, Optimizer};
use rdg_tensor::ops;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Cluster experiment parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of simulated machines.
    pub n_machines: usize,
    /// Worker threads per machine's executor.
    pub threads_per_machine: usize,
    /// The per-machine model (its `batch` is the per-machine shard size).
    pub model: ModelConfig,
    /// Synchronous steps to run.
    pub steps: usize,
    /// Learning rate for the central Adagrad update.
    pub lr: f32,
}

/// Result of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Machines used.
    pub n_machines: usize,
    /// Training throughput, instances per second.
    pub instances_per_sec: f64,
    /// Mean per-step wall time, seconds.
    pub step_seconds: f64,
    /// Individual per-step compute times (seconds) of machine 0, for
    /// virtual-time calibration.
    pub machine0_compute: Vec<f64>,
    /// Final training loss observed (sanity: training must not diverge).
    pub final_loss: f32,
}

/// Runs synchronous data-parallel training with real threads.
///
/// Each machine trains `cfg.model.batch` instances per step on its own
/// executor as a **concurrent batch run**: the module is built for one
/// instance and the minibatch launches as `batch` concurrent root frames
/// ([`Session::run_training_batch`]), so a machine's worker threads stay
/// busy even on comb-shaped trees. Gradients are averaged across instances
/// and machines and applied centrally.
pub fn run_real(cfg: &ClusterConfig, data: &Dataset) -> Result<ClusterReport, ExecError> {
    // `cfg.model.batch` is the per-machine instances-per-step count; the
    // executed module itself is per-instance (cross-instance batching
    // happens in the runtime, not the graph).
    let mut per_instance = cfg.model.clone();
    per_instance.batch = 1;
    let module = build_recursive(&per_instance)?;
    let train = build_training_module(&module, module.main.outputs[0])?;
    // Shared "parameter server" store, initialized from the module specs.
    let params = Arc::new(ParamStore::from_module(&train));
    let n_params = train.params.len();
    let barrier = Arc::new(Barrier::new(cfg.n_machines));
    let merged = Arc::new(GradStore::new(n_params));
    let optimizer = Arc::new(Mutex::new(Adagrad::new(cfg.lr)));
    let losses = Arc::new(Mutex::new(vec![0.0f32; cfg.n_machines]));
    let compute_times = Arc::new(Mutex::new(Vec::<f64>::new()));

    let t0 = Instant::now();
    std::thread::scope(|scope| -> Result<(), ExecError> {
        let mut handles = Vec::new();
        for m in 0..cfg.n_machines {
            let train = train.clone();
            let params = Arc::clone(&params);
            let barrier = Arc::clone(&barrier);
            let merged = Arc::clone(&merged);
            let optimizer = Arc::clone(&optimizer);
            let losses = Arc::clone(&losses);
            let compute_times = Arc::clone(&compute_times);
            let cfg = cfg.clone();
            handles.push(scope.spawn(move || -> Result<(), ExecError> {
                let exec = Executor::with_threads(cfg.threads_per_machine);
                let session = Session::with_params(exec, train, params)?;
                let shard: Vec<_> = data
                    .split(Split::Train)
                    .iter()
                    .skip(m)
                    .step_by(cfg.n_machines)
                    .cloned()
                    .collect();
                let per_step = cfg.model.batch;
                for step in 0..cfg.steps {
                    let lo = (step * per_step) % shard.len().max(1);
                    let mut batch = Vec::with_capacity(per_step);
                    for k in 0..per_step {
                        batch.push(shard[(lo + k) % shard.len()].clone());
                    }
                    let feeds_list = Dataset::feeds_per_instance(&batch);
                    let tc = Instant::now();
                    let outs = session.run_training_batch(feeds_list)?;
                    let compute = tc.elapsed().as_secs_f64();
                    if m == 0 {
                        compute_times.lock().expect("poisoned").push(compute);
                    }
                    let mean_loss = outs
                        .iter()
                        .map(|o| o[0].as_f32_scalar().unwrap_or(f32::NAN))
                        .sum::<f32>()
                        / per_step.max(1) as f32;
                    losses.lock().expect("poisoned")[m] = mean_loss;
                    // Contribute this machine's gradient sums (scaled to
                    // the global per-instance mean) to the merged store.
                    let scale = 1.0 / (cfg.n_machines * per_step.max(1)) as f32;
                    for pid in session.params().ids() {
                        if let Some(g) = session.grads().get(pid) {
                            let scaled = ops::scale(&g, scale).map_err(ExecError::optimizer)?;
                            merged
                                .accumulate(pid, &scaled)
                                .map_err(ExecError::optimizer)?;
                        }
                    }
                    // All gradients in: machine 0 applies the update.
                    barrier.wait();
                    if m == 0 {
                        optimizer
                            .lock()
                            .expect("poisoned")
                            .step(session.params(), &merged)
                            .map_err(ExecError::optimizer)?;
                        merged.clear();
                    }
                    // Update visible before the next step begins.
                    barrier.wait();
                }
                Ok(())
            }));
        }
        for h in handles {
            h.join()
                .map_err(|_| ExecError::internal("machine thread panicked"))??;
        }
        Ok(())
    })?;
    let wall = t0.elapsed().as_secs_f64();
    let total_instances = (cfg.steps * cfg.model.batch * cfg.n_machines) as f64;
    let final_loss = {
        let l = losses.lock().expect("poisoned");
        l.iter().sum::<f32>() / l.len() as f32
    };
    let machine0_compute = compute_times.lock().expect("poisoned").clone();
    Ok(ClusterReport {
        n_machines: cfg.n_machines,
        instances_per_sec: total_instances / wall,
        step_seconds: wall / cfg.steps as f64,
        machine0_compute,
        final_loss,
    })
}

/// How clients pick a replica for each request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Routing {
    /// Static round-robin: request `i` of client `c` goes to machine
    /// `(c + i) % n`. Blind to load — a straggling replica keeps
    /// receiving its full share.
    RoundRobin,
    /// Join-shortest-queue over per-replica load snapshots: each request
    /// goes to the replica whose [`ReplicaSnapshot::predicted_wait_ns`]
    /// — queued + in-flight work times the observed service EWMA — is
    /// smallest (lowest index on ties). Snapshots are read fresh per
    /// request; see [`pick_replica`] for the staleness caveat.
    Jsq,
}

/// The join-shortest-queue decision: the index of the snapshot with the
/// smallest predicted wait, lowest index winning ties.
///
/// The snapshots are hints, not guarantees — a snapshot is stale the
/// moment it is taken. Frozen snapshots *herd*: every decision made from
/// the same vector lands on the same replica, which is exactly the
/// thundering-herd failure mode of snapshot-based routing. Callers must
/// re-read snapshots per decision (as [`serve_real`] does), which keeps
/// each decision's error bounded by one snapshot interval.
pub fn pick_replica(snaps: &[ReplicaSnapshot]) -> usize {
    snaps
        .iter()
        .enumerate()
        .min_by_key(|(i, s)| (s.predicted_wait_ns(), *i))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Serving-cluster experiment parameters.
///
/// The serving twin of [`ClusterConfig`]: `n_machines` model replicas share
/// one parameter store (the inference face of the parameter server) and a
/// pool of client threads streams requests at them. Every machine fronts
/// its executor with an admission queue ([`rdg_exec::ServeQueue`] via
/// `Session::serve_with`) instead of bare `run_many`, so a client burst is
/// absorbed as backpressure rather than as unbounded in-flight root frames.
#[derive(Clone, Debug)]
pub struct ServeClusterConfig {
    /// Number of model-replica machines.
    pub n_machines: usize,
    /// Worker threads per machine's executor.
    pub threads_per_machine: usize,
    /// The served model (built per-instance; its `batch` field is ignored).
    pub model: ModelConfig,
    /// Client threads driving the request stream.
    pub n_clients: usize,
    /// Requests each client issues (closed loop: submit, wait, repeat).
    pub requests_per_client: usize,
    /// Admission-queue tuning applied to every machine (every replica
    /// gets its own per-class lanes, dispatcher, and wave controller).
    pub queue: ServeConfig,
    /// QoS class per client thread, assigned round-robin (`client c` uses
    /// `class_mix[c % len]`). Empty means all-`Interactive` — the
    /// class-blind single-lane workload.
    pub class_mix: Vec<Priority>,
    /// How each request picks its replica.
    pub routing: Routing,
    /// End-to-end SLO attached to every request. `None` submits without
    /// deadlines (PR 5 behavior: backpressure only, never shedding);
    /// `Some` routes through `submit_slo_with`, so all three shed points
    /// — predictive admission, pop-time eviction, mid-service
    /// cancellation — are armed on every replica.
    pub slo: Option<Duration>,
}

/// Result of a serving-cluster run.
#[derive(Clone, Debug)]
pub struct ServeClusterReport {
    /// Machines used.
    pub n_machines: usize,
    /// Requests completed across all machines.
    pub completed: u64,
    /// `try_submit` bounces observed across all machines (backpressure).
    pub rejected: u64,
    /// Requests shed against their SLO across all machines, at any of the
    /// three shed points (pop-time eviction + mid-service cancellation +
    /// predictive admission). Always zero when
    /// [`ServeClusterConfig::slo`] is `None`.
    pub shed: u64,
    /// Aggregate serving throughput, requests per second.
    pub requests_per_sec: f64,
    /// Client-observed end-to-end latency percentiles, microseconds
    /// (submit call → ticket delivered, i.e. including queue wait).
    pub p50_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Cluster-level per-class split of the same client-observed
    /// latencies (classes that saw no traffic are omitted). Each entry
    /// aggregates across *all* replicas, the way a fleet SLO is read.
    pub per_class: Vec<ClassLatency>,
}

/// Client-observed latency of one QoS class across the whole cluster.
#[derive(Clone, Debug)]
pub struct ClassLatency {
    /// The admission class.
    pub class: Priority,
    /// Requests this class completed across all replicas.
    pub completed: u64,
    /// Requests this class shed against their SLO across all replicas
    /// (pop-time + mid-service + predictive, summed).
    pub shed: u64,
    /// Client-observed percentiles (submit → ticket), microseconds.
    pub percentiles: LatencyPercentiles,
}

/// Runs an admission-controlled serving cluster with real threads.
///
/// Each machine is an executor + session on the shared parameter store,
/// fronted by its own admission queue; each client thread round-robins its
/// requests across the machines through the queues' blocking `submit`
/// (backpressure, never load shedding) and waits for every answer.
/// Latency is measured at the client — queue wait included — which is the
/// number a serving SLO is written against.
pub fn serve_real(
    cfg: &ServeClusterConfig,
    data: &Dataset,
) -> Result<ServeClusterReport, ExecError> {
    let mut per_instance = cfg.model.clone();
    per_instance.batch = 1;
    let module = build_recursive(&per_instance)?;
    // Shared "parameter server" store: every replica validates against it
    // (Session::with_params checks count + dtype + shape up front).
    let params = Arc::new(ParamStore::from_module(&module));
    let mut clients = Vec::with_capacity(cfg.n_machines);
    for _ in 0..cfg.n_machines.max(1) {
        let exec = Executor::with_threads(cfg.threads_per_machine);
        let session = Session::with_params(exec, module.clone(), Arc::clone(&params))?;
        clients.push(session.serve_with(cfg.queue.clone()));
    }
    let requests = Dataset::feeds_per_instance(data.split(Split::Train));
    if requests.is_empty() {
        return Err(ExecError::internal("serving dataset has no instances"));
    }
    // Latency samples bucketed per class (the aggregate is their union).
    let latencies_ns = Arc::new(Mutex::new(vec![Vec::<u64>::new(); Priority::COUNT]));
    let t0 = Instant::now();
    std::thread::scope(|scope| -> Result<(), ExecError> {
        let mut handles = Vec::new();
        for c in 0..cfg.n_clients.max(1) {
            let clients = clients.clone();
            let requests = &requests;
            let latencies_ns = Arc::clone(&latencies_ns);
            let class = if cfg.class_mix.is_empty() {
                Priority::Interactive
            } else {
                cfg.class_mix[c % cfg.class_mix.len()]
            };
            handles.push(scope.spawn(move || -> Result<(), ExecError> {
                let mut mine = Vec::with_capacity(cfg.requests_per_client);
                for i in 0..cfg.requests_per_client {
                    let machine = match cfg.routing {
                        Routing::RoundRobin => (c + i) % clients.len(),
                        // A fresh snapshot per decision: routing from a
                        // cached vector herds every client onto the same
                        // replica (see `pick_replica`).
                        Routing::Jsq => {
                            let snaps: Vec<ReplicaSnapshot> =
                                clients.iter().map(|cl| cl.load_snapshot()).collect();
                            pick_replica(&snaps)
                        }
                    };
                    let feeds = requests[(c * 31 + i) % requests.len()].clone();
                    let sent = Instant::now();
                    let result = match cfg.slo {
                        Some(slo) => clients[machine]
                            .submit_slo_with(class, feeds, slo)
                            .and_then(|ticket| ticket.wait()),
                        None => clients[machine]
                            .submit_with(class, feeds)
                            .and_then(|ticket| ticket.wait()),
                    };
                    match result {
                        Ok(_) => mine.push(sent.elapsed().as_nanos() as u64),
                        // Shed or expired against the SLO: legal outcomes,
                        // tallied from the replica ledgers below.
                        Err(ServeError::Shed { .. }) | Err(ServeError::DeadlineExceeded) => {}
                        Err(ServeError::Exec(e)) => return Err(e),
                        Err(e) => return Err(ExecError::internal(e)),
                    }
                }
                latencies_ns.lock().expect("poisoned")[class.index()].extend(mine);
                Ok(())
            }));
        }
        for h in handles {
            h.join()
                .map_err(|_| ExecError::internal("client thread panicked"))??;
        }
        Ok(())
    })?;
    let wall = t0.elapsed().as_secs_f64();
    // One stats snapshot per replica (each snapshot locks the queue and
    // clones the latency windows — don't take it once per counter read).
    let replica_stats: Vec<_> = clients.iter().map(|cl| cl.stats()).collect();
    let (completed, rejected) = replica_stats.iter().fold((0u64, 0u64), |(c, r), st| {
        (c + st.completed, r + st.rejected)
    });
    let shed: u64 = replica_stats
        .iter()
        .map(|st| st.shed + st.shed_inflight + st.shed_predicted)
        .sum();
    // Per-class completion and shed counts, summed across every replica's
    // ledger.
    let class_completed: Vec<u64> = Priority::ALL
        .iter()
        .map(|p| {
            replica_stats
                .iter()
                .map(|st| st.classes[p.index()].completed)
                .sum()
        })
        .collect();
    let class_shed: Vec<u64> = Priority::ALL
        .iter()
        .map(|p| {
            replica_stats
                .iter()
                .map(|st| {
                    let c = &st.classes[p.index()];
                    c.shed + c.shed_inflight + c.shed_predicted
                })
                .sum()
        })
        .collect();
    for client in &clients {
        client.shutdown();
    }
    let buckets = latencies_ns.lock().expect("poisoned").clone();
    // Same quantile rule as ServeStats, so cluster and per-machine numbers
    // stay comparable — for the aggregate and for every class.
    let mut all: Vec<u64> = buckets.iter().flatten().copied().collect();
    let total = all.len();
    let pct = LatencyPercentiles::from_ns_samples(&mut all);
    let per_class = Priority::ALL
        .into_iter()
        .filter(|p| !buckets[p.index()].is_empty() || class_shed[p.index()] > 0)
        .map(|p| {
            let mut lat = buckets[p.index()].clone();
            ClassLatency {
                class: p,
                completed: class_completed[p.index()],
                shed: class_shed[p.index()],
                percentiles: LatencyPercentiles::from_ns_samples(&mut lat),
            }
        })
        .collect();
    Ok(ServeClusterReport {
        n_machines: cfg.n_machines.max(1),
        completed,
        rejected,
        shed,
        requests_per_sec: total as f64 / wall,
        p50_us: pct.p50_us,
        p95_us: pct.p95_us,
        p99_us: pct.p99_us,
        per_class,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdg_data::DatasetConfig;
    use rdg_models::ModelKind;

    #[test]
    fn two_machine_sync_training_runs() {
        let data = Dataset::generate(DatasetConfig {
            vocab: 100,
            n_train: 32,
            n_valid: 0,
            min_len: 3,
            max_len: 8,
            ..DatasetConfig::default()
        });
        let cfg = ClusterConfig {
            n_machines: 2,
            threads_per_machine: 1,
            model: ModelConfig::tiny(ModelKind::TreeRnn, 2),
            steps: 3,
            lr: 0.05,
        };
        let report = run_real(&cfg, &data).unwrap();
        assert!(report.instances_per_sec > 0.0);
        assert!(report.final_loss.is_finite());
        assert_eq!(report.machine0_compute.len(), 3);
    }

    #[test]
    fn two_machine_serving_cluster_answers_every_request() {
        let data = Dataset::generate(DatasetConfig {
            vocab: 100,
            n_train: 24,
            n_valid: 0,
            min_len: 3,
            max_len: 8,
            ..DatasetConfig::default()
        });
        let cfg = ServeClusterConfig {
            n_machines: 2,
            threads_per_machine: 1,
            model: ModelConfig::tiny(ModelKind::TreeRnn, 1),
            n_clients: 3,
            requests_per_client: 10,
            queue: ServeConfig {
                capacity: 4,
                batch_multiple: 2,
                ..ServeConfig::default()
            },
            // Two interactive clients, one batch client: both classes
            // must show up in the cluster-level split.
            class_mix: vec![Priority::Interactive, Priority::Batch],
            // JSQ with no SLO: load-aware routing must still answer every
            // request — routing never sheds, only deadlines do.
            routing: Routing::Jsq,
            slo: None,
        };
        let report = serve_real(&cfg, &data).unwrap();
        assert_eq!(report.completed, 30, "no request lost");
        assert_eq!(report.shed, 0, "no SLO attached, nothing may shed");
        assert!(report.requests_per_sec > 0.0);
        assert!(report.p50_us > 0.0);
        assert!(report.p50_us <= report.p95_us && report.p95_us <= report.p99_us);
        // Per-class split: 2 of 3 clients were Interactive, 1 was Batch.
        assert_eq!(report.per_class.len(), 2);
        let by_class = |p: Priority| {
            report
                .per_class
                .iter()
                .find(|c| c.class == p)
                .expect("class present")
        };
        assert_eq!(by_class(Priority::Interactive).completed, 20);
        assert_eq!(by_class(Priority::Batch).completed, 10);
        for c in &report.per_class {
            let pc = &c.percentiles;
            assert!(pc.p50_us > 0.0 && pc.p50_us <= pc.p95_us && pc.p95_us <= pc.p99_us);
            assert_eq!(c.shed, 0);
        }
    }

    fn snap(queue_depth: usize, in_flight: usize, ewma_ns: u64) -> ReplicaSnapshot {
        ReplicaSnapshot {
            queue_depth,
            in_flight,
            service_ewma_ns: ewma_ns,
            workers: 1,
        }
    }

    #[test]
    fn pick_replica_minimizes_predicted_wait_with_index_tiebreak() {
        // Depth × EWMA ÷ workers, not raw depth: a deep-but-fast replica
        // can beat a shallow-but-slow one.
        assert_eq!(
            pick_replica(&[snap(3, 0, 0), snap(1, 0, 0), snap(2, 0, 0)]),
            1
        );
        // 4 × 1 ms < 1 × 10 ms: the deeper replica genuinely is the
        // shorter predicted wait.
        assert_eq!(
            pick_replica(&[snap(1, 0, 10_000_000), snap(4, 0, 1_000_000)]),
            1
        );
        // In-flight work counts against a replica like queued work.
        assert_eq!(pick_replica(&[snap(0, 2, 0), snap(1, 0, 0)]), 1);
        // Ties go to the lowest index, deterministically.
        assert_eq!(
            pick_replica(&[snap(2, 0, 0), snap(2, 0, 0), snap(2, 0, 0)]),
            0
        );
        // Workers divide the backlog: 4 queued on 4 workers beats 2 on 1.
        let mut wide = snap(4, 0, 0);
        wide.workers = 4;
        assert_eq!(pick_replica(&[snap(2, 0, 0), wide]), 1);
        assert_eq!(pick_replica(&[]), 0, "degenerate input stays in range");
    }

    #[test]
    fn stale_snapshots_herd_and_fresh_snapshots_spread() {
        // The staleness failure mode, pinned as a unit test: route ten
        // requests from one frozen snapshot vector and every single one
        // lands on the same replica (a thundering herd onto the least
        // loaded machine). Re-reading the snapshot after each decision —
        // what `serve_real` does by taking `load_snapshot()` per request
        // — spreads the same ten requests across all three replicas and
        // leaves their depths balanced.
        let frozen = vec![snap(3, 0, 0), snap(1, 0, 0), snap(2, 0, 0)];
        for _ in 0..10 {
            assert_eq!(pick_replica(&frozen), 1, "frozen snapshots herd");
        }
        let mut fresh = frozen.clone();
        let mut hits = [0usize; 3];
        for _ in 0..9 {
            let m = pick_replica(&fresh);
            hits[m] += 1;
            fresh[m].queue_depth += 1; // the re-read sees the enqueue
        }
        assert!(
            hits.iter().all(|&h| h >= 2),
            "fresh snapshots spread the load: {hits:?}"
        );
        let depths: Vec<usize> = fresh.iter().map(|s| s.queue_depth).collect();
        assert_eq!(
            depths.iter().max().unwrap() - depths.iter().min().unwrap(),
            0,
            "3+1+2 queued plus 9 routed balances exactly: {depths:?}"
        );
    }

    /// Drives three scripted single-worker replicas against a shared
    /// virtual clock: one request arrives per 1 ms tick (30 total), each
    /// costing 1 ms of service, with replica 0's one worker stalled for
    /// 40 ms at the start. Returns how many requests completed within the
    /// 42 ms horizon under `routing`.
    fn routed_completions(routing: Routing) -> u64 {
        use rdg_exec::serve::test_support::ScriptedServe;
        use rdg_exec::WaveSizing;

        const TICK_NS: u64 = 1_000_000;
        const HORIZON_NS: u64 = 42_000_000;
        const N_REQS: u64 = 30;
        let cfg = ServeConfig {
            capacity: 32,
            batch_multiple: 1,
            sizing: WaveSizing::Fixed,
            ..ServeConfig::default()
        };
        let mut reps: Vec<ScriptedServe> = (0..3).map(|_| ScriptedServe::new(1, &cfg)).collect();
        reps[0].stall_worker(0, 40_000_000);
        let mut done_within = 0u64;
        let mut next_id = 0u64;
        for tick in 0..64u64 {
            let now = tick * TICK_NS;
            // Idle replicas catch up to the cluster clock so their next
            // request is enqueued at arrival time, not in their past.
            for rep in reps.iter_mut() {
                if rep.queue_depth() == 0 && rep.now_ns() < now {
                    rep.advance(now - rep.now_ns());
                }
            }
            if next_id < N_REQS {
                let m = match routing {
                    Routing::RoundRobin => (next_id as usize) % reps.len(),
                    Routing::Jsq => {
                        // The same snapshot shape the live path reads:
                        // queued depth, whether the replica is still busy
                        // past the cluster clock, and its service EWMA.
                        let snaps: Vec<ReplicaSnapshot> = reps
                            .iter()
                            .map(|rep| ReplicaSnapshot {
                                queue_depth: rep.queue_depth(),
                                in_flight: usize::from(rep.now_ns() > now),
                                service_ewma_ns: rep.ewma_ns().map_or(0, |e| e.max(0.0) as u64),
                                workers: 1,
                            })
                            .collect();
                        pick_replica(&snaps)
                    }
                };
                assert!(reps[m].submit(Priority::Interactive, next_id));
                next_id += 1;
            }
            // A replica that has caught up to the cluster clock drains
            // its backlog; one still busy (mid-stall) must wait.
            for rep in reps.iter_mut() {
                while rep.queue_depth() > 0 && rep.now_ns() <= now {
                    let w = rep.run_wave(|_| TICK_NS).expect("queue is non-empty");
                    done_within += w
                        .requests
                        .iter()
                        .filter(|r| r.done_ns <= HORIZON_NS)
                        .count() as u64;
                }
            }
        }
        for rep in reps.iter_mut() {
            for w in rep.drain(|_| TICK_NS) {
                done_within += w
                    .requests
                    .iter()
                    .filter(|r| r.done_ns <= HORIZON_NS)
                    .count() as u64;
            }
        }
        done_within
    }

    #[test]
    fn jsq_routes_around_a_stalled_replica_and_beats_round_robin() {
        // Round-robin keeps feeding the stalled replica a third of the
        // stream; everything it receives finishes after the 40 ms stall,
        // so at most a trickle lands inside the horizon. JSQ eats the
        // first request blind (a stall is invisible until it bites), then
        // sees the replica's backlog-plus-busy signal in every later
        // snapshot and routes around it. Both runs are pure virtual
        // clock: exact counts, no sleeps.
        let rr = routed_completions(Routing::RoundRobin);
        let jsq = routed_completions(Routing::Jsq);
        assert!(
            jsq > rr,
            "JSQ must beat round-robin behind a straggler: {jsq} vs {rr}"
        );
        assert_eq!(jsq, 30, "JSQ serves the whole stream within the horizon");
        assert_eq!(
            rr, 22,
            "round-robin strands 8 of the straggler's 10 requests past the horizon"
        );
    }

    #[test]
    fn single_machine_degenerates_to_plain_training() {
        let data = Dataset::generate(DatasetConfig {
            vocab: 100,
            n_train: 8,
            n_valid: 0,
            min_len: 3,
            max_len: 6,
            ..DatasetConfig::default()
        });
        let cfg = ClusterConfig {
            n_machines: 1,
            threads_per_machine: 2,
            model: ModelConfig::tiny(ModelKind::TreeRnn, 2),
            steps: 2,
            lr: 0.05,
        };
        let report = run_real(&cfg, &data).unwrap();
        assert_eq!(report.n_machines, 1);
        assert!(report.step_seconds > 0.0);
    }
}
