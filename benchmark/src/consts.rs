//! Frozen constants of the benchmark. `BENCHMARK.json` has a fixed key set,
//! so the constants a later issue may cite live here; changing any of them
//! is a change to the benchmark and re-bases every recorded number.

/// Seed used by `run`/`check` when none is given.
pub const DEFAULT_SEED: u64 = 20180423;
/// Measured seconds per workload (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 12.0;
/// Executor workers (= `nproc` of the reference container); the load
/// generator is one more thread beside them.
pub const WORKERS: usize = 2;
/// Set-ups per run (this process's own plus fresh child processes); the
/// reported `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// `infer.*`: requests in flight per `Session::run_many`.
pub const INFER_IN_FLIGHT: usize = 8;
/// `infer.*`: leaf-count range of the request trees.
pub const INFER_LEAVES: (usize, usize) = (4, 32);
/// `infer.fresh`: distinct trees generated per measured second. The pool
/// (≈30 000 at 12 s) bounds the measured phase by count as well as by time.
pub const FRESH_POOL_PER_S: f64 = 2500.0;
/// `infer.fresh`: never-reused trees spent on the warm-up.
pub const FRESH_WARMUP: usize = 128;
/// `infer.hot8`: leaf counts of the eight recurring trees — the octile
/// midpoints of the `infer.fresh` length distribution, so both workloads
/// do the same work per request and differ only in recurrence.
pub const HOT8_LEAVES: [usize; 8] = [10, 13, 16, 18, 21, 24, 29, 32];
/// `infer.fresh`: outputs compared with the oracle (a seeded sample).
pub const ORACLE_SAMPLE: usize = 256;

/// `train.treelstm.b25`: minibatch size, training-set size, leaf range.
pub const TRAIN_BATCH: usize = 25;
pub const TRAIN_SET: usize = 200;
pub const TRAIN_LEAVES: (usize, usize) = (4, 32);
/// Adagrad learning rate.
pub const TRAIN_LR: f32 = 0.01;

/// `serve.*`: tree-pool size and leaf range (the `serving_throughput`
/// fixture shape).
pub const SERVE_POOL: usize = 64;
pub const SERVE_LEAVES: (usize, usize) = (4, 48);
/// Seed of the frozen leaf-count multiset of the train and serve pools:
/// `--seed` changes words and tree shapes, never how much work a pool is.
pub const LENGTH_SEED: u64 = 20240715;
/// `serve.small.open`: Poisson arrival rates (req/s) of the three rungs,
/// ≈30/60/75 % of the closed-loop queued capacity measured when the
/// benchmark was defined. Never calibrated at run time.
pub const OPEN_RATES: [f64; 3] = [500.0, 1000.0, 1300.0];
/// `serve.small.open`: p99 latency limit; slower completions are not
/// goodput.
pub const LATENCY_LIMIT_MS: f64 = 10.0;
/// A run whose generator started requests later than this at p99 did not
/// offer the schedule it claims.
pub const MAX_GENERATOR_LATE_MS: f64 = 1.0;
/// `serve.wide.closed`: requests offered per closed-loop round.
pub const CLOSED_OFFERED: usize = 32;
/// `serve.wide.closed`: serving-scale model dimensions.
pub const WIDE_EMBED: usize = 256;
pub const WIDE_HIDDEN: usize = 768;

/// Oracle tolerance on loss and logits.
pub const TOLERANCE: f32 = 1e-4;
/// Segments of the measured phase: throughput is their median rate.
pub const SEGMENTS: usize = 5;
