//! QoS-aware admission-controlled serving: per-class bounded queues and a
//! service-time-adaptive dispatcher in front of the executor.
//!
//! [`Session::run_many`](crate::Session::run_many) launches every request
//! it is handed as a concurrent root frame — fine for a caller that already
//! sized its batch, wrong for a *server*: a burst of clients would put
//! hundreds of frame trees in flight at once, and on a small worker pool
//! the surplus concurrency buys nothing but cache thrash (the measured
//! ~20% locality tax at concurrency 32 on one core — see PERFORMANCE.md).
//! This module is the serving rung on top of the multi-run runtime:
//!
//! ```text
//! Interactive ──▶ [lane 0]──┐
//! Batch       ──▶ [lane 1]──┼─▶ aged-priority pick ─▶ dispatcher ─▶ root
//! BestEffort  ──▶ [lane 2]──┘   (strict + aging)      (EWMA-sized  frames
//!      ▲                                               waves)        │
//!      └───────────── ServeTicket::wait ◀── results ◀───────────────┘
//! ```
//!
//! * **Admission classes** — every request carries a [`Priority`]
//!   (`Interactive` / `Batch` / `BestEffort`). Each class has its own
//!   bounded lane with its own backpressure: [`ServeClient::try_submit`]
//!   fails fast with [`ServeError::QueueFull`] when *its class* is full,
//!   [`ServeClient::submit`] blocks, [`ServeClient::submit_deadline`]
//!   bounds the wait. A saturated `Batch` lane never blocks admission of an
//!   `Interactive` request. A client submits into its own class;
//!   [`ServeClient::with_priority`] makes a clone for another class, to
//!   hand to each traffic source.
//! * **Aged strict priority** — the dispatcher drains lanes strictly by
//!   class, *except* that a request promotes itself one class per
//!   [`ServeConfig::aging_step`] waited, so a hot `Interactive` stream can
//!   delay a `Batch` request by at most the aging bound, never unboundedly
//!   (see `classes.rs` for the exact deterministic pop rule).
//! * **Dynamic wave sizing** — the dispatcher drains in waves, submits
//!   each wave as concurrent root frames, and joins it before the next.
//!   Under [`WaveSizing::Dynamic`] (the default) an EWMA of observed
//!   per-request service time picks the largest wave whose predicted
//!   drain time fits the configured wave budget, clamped to
//!   `[workers, workers × max_multiple]`; [`WaveSizing::Fixed`] recovers
//!   the PR 4 `workers × batch_multiple` behavior exactly (see
//!   `controller.rs`). One case overrides the budget: when the requests
//!   stack a large weight and the `Interactive` lane already holds
//!   `workers × max_multiple` requests, the wave takes that many. Every
//!   arrival would wait for those requests anyway — nothing overtakes a
//!   queued `Interactive` request — and one stacked wave drains them
//!   sooner than many small ones. A backlog of lower classes keeps budget
//!   waves, because a fresh `Interactive` arrival overtakes it.
//! * **Latency accounting** — every request carries its
//!   enqueue → dispatch → complete timestamps; [`ServeClient::stats`]
//!   snapshots queue-wait, service, and total latency as p50/p95/p99
//!   ([`ServeStats`]) — aggregate *and* per class ([`ClassStats`]) — plus
//!   admission counters (submitted / rejected / expired / completed /
//!   failed).
//! * **Shutdown** — [`ServeClient::shutdown`] (or dropping the last
//!   client) stops admission, drains every already-accepted request, and
//!   joins the dispatcher. No accepted request is ever lost.
//!
//! A loop is opened with [`crate::Session::serve`] (default
//! [`ServeConfig`]) or [`crate::Session::serve_with`], which wire the
//! session's plan, parameters and executor into a dispatcher thread and
//! hand back its first [`ServeClient`]. Every loop fuses same-shape
//! kernels across its requests (see [`crate::batch`]); a bare
//! [`Executor::run`] beside it stays scalar.
//!
//! # One core, one driver, two clocks
//!
//! Every serving *rule* — who is admitted, refused or shed up front; which
//! requests form a wave and which are evicted at pop; when a running
//! request is cancelled; what the wave controller learns — lives once, in
//! the clock-free, lock-free `core::DispatchCore` (which owns the
//! `classes::ClassQueues` lanes and the `controller::WaveController`).
//! Everything a wave *does* with those rules — evict, launch, join in
//! dispatch order, answer, account — lives once too, in
//! `driver::Driver::step`, generic over a `driver::Runner` that supplies
//! the clock and runs the requests. This file runs that step on a
//! dispatcher thread with the wall clock and the executor, behind a
//! `Mutex<DispatchCore<Request>>` and two condvars;
//! [`test_support::ScriptedServe`] runs the *same* step with a virtual
//! clock and scripted service times. So the scripted suites, the schedule
//! fuzzer (`rdg_serve_fuzz`) and its corpus test the code that ships, all
//! the way to the ticket and the stats ledger.
//!
//! # Example
//!
//! ```
//! use rdg_exec::{Executor, Priority, Session};
//! use rdg_graph::ModuleBuilder;
//! use rdg_tensor::{DType, Tensor};
//!
//! let mut mb = ModuleBuilder::new();
//! let x = mb.main_input(DType::F32);
//! let y = mb.scale(x, 2.0).unwrap();
//! mb.set_outputs(&[y]).unwrap();
//! let session = Session::new(Executor::with_threads(2), mb.finish().unwrap()).unwrap();
//!
//! let client = session.serve();
//! let batch = client.with_priority(Priority::Batch);
//! let ticket = client.submit(vec![Tensor::scalar_f32(21.0)]).unwrap();
//! let bg = batch.submit(vec![Tensor::scalar_f32(1.0)]).unwrap();
//! assert_eq!(ticket.wait().unwrap()[0].as_f32_scalar().unwrap(), 42.0);
//! assert_eq!(bg.wait().unwrap()[0].as_f32_scalar().unwrap(), 2.0);
//! let stats = client.stats();
//! assert_eq!(stats.completed, 2);
//! assert_eq!(stats.classes[Priority::Batch.index()].completed, 1);
//! client.shutdown();
//! ```

pub(crate) mod classes;
pub(crate) mod controller;
pub(crate) mod core;
mod driver;
pub mod test_support;

use self::core::{DispatchCore, Refusal};
use self::driver::{Driver, Runner};
use crate::error::ExecError;
use crate::executor::{Executor, RunHandle};
use crate::params::ParamStore;
use crate::plan::ModulePlan;
use crate::stats::ExecStats;
use classes::Queued;
use crossbeam_channel::{bounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use rdg_tensor::Tensor;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A loop forms backlog waves (see [`WaveSizing::Dynamic`]) when its
/// requests stack a parameter larger than this, which a stacked call reads
/// once per group instead of once per member. Stacking a cache-resident
/// weight measured about 20 % slower than the scalar calls (PERFORMANCE.md,
/// "Serving throughput"), so small models keep their budget waves.
const BACKLOG_WEIGHT_BYTES: usize = 1 << 20;

/// Samples each latency distribution keeps for its percentiles (the most
/// recent ones; counts and means cover the loop's whole life).
const LATENCY_WINDOW: usize = 4096;

/// Admission class of one serving request.
///
/// Classes are *strictly* ordered — `Interactive` beats `Batch` beats
/// `BestEffort` (the derived order: smaller is more urgent) — subject to
/// anti-starvation aging: a request waiting in a lower class promotes one
/// class per [`ServeConfig::aging_step`], so lower classes are delayed by
/// at most a bounded amount, never forever.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive foreground traffic. The default class of a fresh
    /// [`ServeClient`] — a single-class workload therefore behaves exactly
    /// like a class-blind FIFO queue.
    #[default]
    Interactive,
    /// Throughput traffic that tolerates queueing (offline scoring,
    /// refresh jobs). Dispatched when no fresh `Interactive` work is
    /// queued, or after aging past it.
    Batch,
    /// Scavenger class: runs in whatever capacity is left, needs two
    /// aging steps to reach `Interactive` urgency.
    BestEffort,
}

impl Priority {
    /// Number of classes (lane count of every queue and stats array).
    pub const COUNT: usize = 3;

    /// All classes, most- to least-urgent. Index with [`Priority::index`].
    pub const ALL: [Priority; Priority::COUNT] =
        [Priority::Interactive, Priority::Batch, Priority::BestEffort];

    /// Lane index of this class: 0 (`Interactive`) … 2 (`BestEffort`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable class name (stats tables, logs).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::BestEffort => "best-effort",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Wave-sizing policy for the dispatcher.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WaveSizing {
    /// PR 4 behavior, recoverable for back-compat and A/B runs: every
    /// wave is exactly `workers ×` [`ServeConfig::batch_multiple`].
    Fixed,
    /// Adapt the wave target from observed service times: an EWMA of
    /// per-request service time picks the largest wave whose predicted
    /// drain time (`wave / workers × ewma`) fits `wave_budget`, clamped
    /// to `[workers, workers × max_multiple]`. Starts from
    /// `workers ×` [`ServeConfig::batch_multiple`] until the first
    /// observation arrives.
    ///
    /// The budget bounds how long the next arrival waits behind a wave.
    /// When the loop's requests stack a parameter over 1 MiB
    /// (one stacked call reads it once for the whole group), a saturated
    /// `Interactive` lane — `workers × max_multiple` requests queued —
    /// gets a *backlog wave* of that many instead: no arrival overtakes a
    /// queued `Interactive` request, so each would wait for them anyway,
    /// and one wide wave drains them sooner. `Interactive` is the one
    /// class whose backlog a wide wave cannot hurt; a `Batch` or
    /// `BestEffort` backlog keeps budget waves.
    Dynamic {
        /// Upper clamp, as a multiple of the worker count.
        max_multiple: usize,
        /// Wall-clock budget one wave's drain should fit in. Small
        /// budgets favor latency (short join granularity), large ones
        /// favor dispatch-overhead amortization.
        wave_budget: Duration,
        /// EWMA smoothing factor in `(0, 1]`; higher reacts faster.
        ewma_alpha: f64,
    },
}

impl Default for WaveSizing {
    /// Dynamic sizing: clamp at ×8 workers, 2 ms wave budget, α = 0.25.
    ///
    /// The budget leans toward latency: a wave is joined as a unit, so
    /// its drain time is the latency floor of every request admitted
    /// behind it — including a fresh `Interactive` one. 2 ms keeps that
    /// floor tight while still batching enough sub-millisecond requests
    /// to amortize the dispatch handoff; raise it for pure-throughput
    /// (single-class batch) serving.
    fn default() -> Self {
        WaveSizing::Dynamic {
            max_multiple: 8,
            wave_budget: Duration::from_millis(2),
            ewma_alpha: 0.25,
        }
    }
}

/// Tuning knobs for one serving loop.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bounded slots **per class lane**. A full lane rejects
    /// `try_submit` and blocks `submit` for that class only — this is the
    /// backpressure surface clients observe, and saturating one class
    /// never blocks admission of another.
    pub capacity: usize,
    /// Wave size as a multiple of the executor's worker count: the exact
    /// wave under [`WaveSizing::Fixed`], the starting point under
    /// [`WaveSizing::Dynamic`].
    pub batch_multiple: usize,
    /// How the dispatcher sizes its waves (default: dynamic EWMA).
    pub sizing: WaveSizing,
    /// Queue wait that promotes a request one class (anti-starvation
    /// aging). Tune it toward the lower classes' latency tolerance. Steps
    /// below 1 ns count as 1 ns, where every request that has waited 2 ns
    /// competes at `Interactive` urgency and the pop is FIFO by enqueue
    /// time — in effect a class-blind FIFO queue.
    pub aging_step: Duration,
    /// Record every dispatch wave (controller target + admission sequence
    /// numbers in pop order) for retrieval via
    /// [`ServeClient::dispatch_log`]. Off by default — it is a test hook:
    /// the live tests that need to know which wave a request rode read it
    /// (`serve_queue`'s backlog-wave pin, `serve_slo`'s in-flight cancel
    /// smoke test).
    pub record_dispatch: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            capacity: 256,
            batch_multiple: 4,
            sizing: WaveSizing::default(),
            aging_step: Duration::from_millis(25),
            record_dispatch: false,
        }
    }
}

/// Errors surfaced by the serving client.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// `try_submit` on a full class lane: the caller should back off or
    /// retry with the blocking `submit`.
    QueueFull,
    /// `submit_deadline` waited out its deadline on a full class lane.
    DeadlineExceeded,
    /// The serving loop no longer accepts requests (explicit shutdown or
    /// every client handle was dropped).
    Shutdown,
    /// The request was load-shed against its end-to-end SLO: evicted from
    /// its lane after the deadline passed, cancelled mid-service when the
    /// deadline passed in flight, or rejected at submit because the
    /// predicted queue wait already exceeded it. `waited` is how long the
    /// request had been in the system when it was shed.
    Shed {
        /// submit → shed span.
        waited: Duration,
    },
    /// The request was admitted and executed, but the run failed.
    Exec(ExecError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "admission lane full"),
            ServeError::DeadlineExceeded => {
                write!(f, "admission deadline exceeded while lane was full")
            }
            ServeError::Shutdown => write!(f, "serving loop has shut down"),
            ServeError::Shed { waited } => {
                write!(f, "request shed against its SLO after {waited:?}")
            }
            ServeError::Exec(e) => write!(f, "request execution failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

/// Percentile snapshot of one latency distribution, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyPercentiles {
    /// Observations recorded over the loop's lifetime (the percentiles are
    /// computed over the most recent 4096).
    pub count: u64,
    /// Lifetime mean, µs.
    pub mean_us: f64,
    /// Median, µs.
    pub p50_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
}

impl LatencyPercentiles {
    /// Computes the nearest-rank p50/p95/p99 (and mean) over a set of
    /// nanosecond samples. Sorts `samples` in place; an empty set yields
    /// the all-zero snapshot.
    ///
    /// This is *the* quantile rule of the serving stack: `ServeStats`
    /// snapshots and the serving bench's client-observed latencies both go
    /// through it, so their numbers stay comparable.
    pub fn from_ns_samples(samples: &mut Vec<u64>) -> Self {
        if samples.is_empty() {
            return LatencyPercentiles::default();
        }
        samples.sort_unstable();
        let sum: u128 = samples.iter().map(|&ns| ns as u128).sum();
        let q = |p: f64| -> f64 {
            let idx = ((samples.len() - 1) as f64 * p).round() as usize;
            samples[idx] as f64 / 1_000.0
        };
        LatencyPercentiles {
            count: samples.len() as u64,
            mean_us: (sum as f64 / samples.len() as f64) / 1_000.0,
            p50_us: q(0.50),
            p95_us: q(0.95),
            p99_us: q(0.99),
        }
    }
}

/// One latency distribution: a sliding sample window plus lifetime
/// count/sum, recorded by the dispatcher and snapshotted on demand.
struct LatencyTrack {
    inner: Mutex<LatRing>,
}

struct LatRing {
    samples: Vec<u64>, // nanoseconds
    next: usize,
    count: u64,
    sum_ns: u128,
    cap: usize,
}

impl Default for LatencyTrack {
    fn default() -> Self {
        LatencyTrack::new(LATENCY_WINDOW)
    }
}

impl LatencyTrack {
    fn new(cap: usize) -> Self {
        LatencyTrack {
            inner: Mutex::new(LatRing {
                samples: Vec::new(),
                next: 0,
                count: 0,
                sum_ns: 0,
                cap: cap.max(1),
            }),
        }
    }

    fn record_ns(&self, ns: u64) {
        let mut r = self.inner.lock();
        r.count += 1;
        r.sum_ns += ns as u128;
        if r.samples.len() < r.cap {
            r.samples.push(ns);
        } else {
            let i = r.next;
            r.samples[i] = ns;
            r.next = (i + 1) % r.cap;
        }
    }

    #[cfg(test)]
    fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    fn percentiles(&self) -> LatencyPercentiles {
        let r = self.inner.lock();
        if r.samples.is_empty() {
            return LatencyPercentiles::default();
        }
        let mut v = r.samples.clone();
        let mut p = LatencyPercentiles::from_ns_samples(&mut v);
        // Count and mean are lifetime figures, wider than the window.
        p.count = r.count;
        p.mean_us = (r.sum_ns as f64 / r.count as f64) / 1_000.0;
        p
    }
}

/// Per-class slice of a [`ServeStats`] snapshot: the admission counters
/// and the full wait/service/total latency split for one [`Priority`],
/// indexed by [`Priority::index`] in [`ServeStats::classes`].
#[derive(Clone, Debug, Default)]
pub struct ClassStats {
    /// Requests of this class accepted into the lane.
    pub submitted: u64,
    /// `try_submit` calls of this class bounced off a full lane.
    pub rejected: u64,
    /// `submit_deadline` calls of this class that waited out their
    /// deadline.
    pub expired: u64,
    /// Requests of this class that completed with a successful run
    /// delivered to a live ticket.
    pub completed: u64,
    /// Requests of this class that completed with an execution error.
    pub failed: u64,
    /// Requests of this class evicted at pop time: their end-to-end
    /// deadline had already passed when the dispatcher reached them, so
    /// they were discarded instead of burning a wave slot.
    pub shed: u64,
    /// Requests of this class cancelled mid-service: the deadline passed
    /// after dispatch, while the run was in flight.
    pub shed_inflight: u64,
    /// Requests of this class rejected at submit by predictive admission
    /// shedding (predicted wait already exceeded the SLO; never queued).
    pub shed_predicted: u64,
    /// Requests of this class whose result had no receiver: the client
    /// dropped the [`ServeTicket`] before delivery. The run still
    /// executed; the answer went nowhere. Split from `completed` so
    /// goodput accounting cannot mistake abandoned work for served work.
    pub abandoned: u64,
    /// Requests of this class sitting in the lane right now.
    pub queue_depth: usize,
    /// enqueue → dispatch (time spent queued).
    pub wait: LatencyPercentiles,
    /// dispatch → complete (time spent executing, including wave joins).
    pub service: LatencyPercentiles,
    /// enqueue → complete (what the client observes).
    pub total: LatencyPercentiles,
}

/// Snapshot of one serving loop's counters and latency percentiles.
///
/// Counter fields are monotone across snapshots of a live loop (they only
/// ever increase) — per class and therefore also in the aggregate; within
/// one snapshot `p50 ≤ p95 ≤ p99` holds for every distribution by
/// construction.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Requests accepted into the queue (all classes).
    pub submitted: u64,
    /// `try_submit` calls bounced off a full lane (backpressure events).
    pub rejected: u64,
    /// `submit_deadline` calls that waited out their deadline.
    pub expired: u64,
    /// Requests that completed with a successful run delivered to a live
    /// ticket.
    pub completed: u64,
    /// Requests that completed with an execution error.
    pub failed: u64,
    /// Requests evicted at pop time against their SLO (all classes).
    pub shed: u64,
    /// Requests cancelled mid-service against their SLO (all classes).
    pub shed_inflight: u64,
    /// Requests rejected at submit by predictive shedding (all classes).
    pub shed_predicted: u64,
    /// Requests whose ticket was dropped before delivery (all classes).
    pub abandoned: u64,
    /// Dispatch waves formed.
    pub batches: u64,
    /// Requests sitting in the queue right now (all classes).
    pub queue_depth: usize,
    /// Root frames in flight right now.
    pub in_flight: usize,
    /// The budget target of the *next* dispatch wave — constant under
    /// [`WaveSizing::Fixed`], live controller output under
    /// [`WaveSizing::Dynamic`]. A backlog wave (see
    /// [`WaveSizing::Dynamic`]) is larger than this; it shows in
    /// [`ServeStats::batches`] (fewer waves for the same requests) and in
    /// the dispatch log, not here.
    pub wave_target: usize,
    /// The controller's current per-request service EWMA, nanoseconds —
    /// `0` until the first dynamic-sizing observation (and always under
    /// [`WaveSizing::Fixed`]); the estimate is floored at 1 ns, so `0`
    /// always means "no estimate yet". This is the estimate predictive
    /// shedding divides by.
    pub service_ewma_ns: u64,
    /// enqueue → dispatch (time spent queued), all classes.
    pub wait: LatencyPercentiles,
    /// dispatch → complete (time spent executing, including wave joins).
    pub service: LatencyPercentiles,
    /// enqueue → complete (what the client observes), all classes.
    pub total: LatencyPercentiles,
    /// Fused kernel calls issued by this loop's runs (each covered ≥2
    /// request instances; a group counts toward the run of its first
    /// member).
    pub fusion_groups: u64,
    /// This loop's kernel instances executed through a fused call — the
    /// numerator of [`ServeStats::fused_fraction`].
    pub fusion_instances: u64,
    /// This loop's fusion-eligible kernel instances (batchable graph
    /// nodes), fused or not — the denominator of
    /// [`ServeStats::fused_fraction`]. All three fusion rows are the sums of
    /// each joined request's own run counters, so other runs on the same
    /// executor never count here; a request shows up once it is joined.
    pub fusion_eligible: u64,
    /// The per-class split, indexed by [`Priority::index`].
    pub classes: [ClassStats; Priority::COUNT],
}

impl ServeStats {
    /// Share of fusion-eligible kernel instances that actually executed
    /// through a fused call (`0.0` when nothing eligible ran yet).
    pub fn fused_fraction(&self) -> f64 {
        if self.fusion_eligible == 0 {
            0.0
        } else {
            self.fusion_instances as f64 / self.fusion_eligible as f64
        }
    }

    /// One-line human-readable summary (serving-loop progress printing).
    pub fn summary(&self) -> String {
        format!(
            "submitted={} completed={} failed={} rejected={} expired={} \
             shed={}/{}/{} abandoned={} depth={} in_flight={} wave={} \
             total_p50={:.0}µs p95={:.0}µs p99={:.0}µs",
            self.submitted,
            self.completed,
            self.failed,
            self.rejected,
            self.expired,
            self.shed,
            self.shed_inflight,
            self.shed_predicted,
            self.abandoned,
            self.queue_depth,
            self.in_flight,
            self.wave_target,
            self.total.p50_us,
            self.total.p95_us,
            self.total.p99_us,
        )
    }

    /// Multi-line per-class summary (one line per class that saw traffic).
    pub fn class_summary(&self) -> String {
        let mut out = String::new();
        for p in Priority::ALL {
            let c = &self.classes[p.index()];
            if c.submitted == 0 && c.rejected == 0 && c.expired == 0 && c.shed_predicted == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!(
                "{:<12} submitted={} completed={} failed={} rejected={} expired={} \
                 shed={}/{}/{} abandoned={} depth={} wait_p95={:.0}µs \
                 total_p50={:.0}µs p95={:.0}µs p99={:.0}µs",
                p.name(),
                c.submitted,
                c.completed,
                c.failed,
                c.rejected,
                c.expired,
                c.shed,
                c.shed_inflight,
                c.shed_predicted,
                c.abandoned,
                c.queue_depth,
                c.wait.p95_us,
                c.total.p50_us,
                c.total.p95_us,
                c.total.p99_us,
            ));
        }
        out
    }
}

/// One dispatch wave as recorded when [`ServeConfig::record_dispatch`] is
/// set: the scheduling *decision* the dispatcher made, stripped of wall
/// time so it is comparable across a live run and a scripted replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WaveRecord {
    /// The size this wave was formed to: the controller's target, or its
    /// upper clamp for a backlog wave (see [`WaveSizing::Dynamic`]).
    pub target: usize,
    /// Admission sequence numbers (0 = first accepted request) in
    /// dispatch order within the wave.
    pub seqs: Vec<u64>,
    /// Admission sequence numbers of requests popped while forming this
    /// wave but **evicted** instead of dispatched: their end-to-end
    /// deadline had already passed. Eviction is part of the scheduling
    /// decision, so it is logged with the wave it was made for.
    pub shed_seqs: Vec<u64>,
}

/// One queued request: feeds in, result channel out. Class, enqueue
/// timestamp, and deadline ride in the [`Queued`] wrapper the lane keeps.
struct Request {
    feeds: Vec<Tensor>,
    tx: Sender<Result<Vec<Tensor>, ServeError>>,
}

/// The lifecycle counters of one class.
#[derive(Default)]
struct ClassCounters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    shed_inflight: AtomicU64,
    shed_predicted: AtomicU64,
    abandoned: AtomicU64,
}

/// The three latency windows of one population of requests.
#[derive(Default)]
struct LatencyTracks {
    wait: LatencyTrack,
    service: LatencyTrack,
    total: LatencyTrack,
}

#[derive(Default)]
struct StatsInner {
    /// Per-class counters; the aggregate counters in a snapshot are their
    /// sums (still monotone: a sum of monotone counters is monotone).
    classes: [ClassCounters; Priority::COUNT],
    /// Per-class latency windows.
    class_latency: [LatencyTracks; Priority::COUNT],
    /// Aggregate latency windows (kept separately from the per-class
    /// windows — percentile windows cannot be merged after the fact).
    latency: LatencyTracks,
    in_flight: AtomicUsize,
    /// The sum of every joined request's run counters (the fusion rows of
    /// [`ServeStats`] read it).
    runs: ExecStats,
}

impl StatsInner {
    /// `class`'s counters, and the two latency windows a request of it
    /// records into: the aggregate and its class's own.
    fn class(&self, class: Priority) -> (&ClassCounters, [&LatencyTracks; 2]) {
        let i = class.index();
        (&self.classes[i], [&self.latency, &self.class_latency[i]])
    }
}

/// The admission-control subsystem: per-class bounded lanes + dispatcher
/// + stats.
///
/// Not held by users — [`crate::Session::serve_with`] spawns the dispatcher
/// and hands back the first [`ServeClient`]; the loop lives as long as any
/// client (or undelivered ticket) needs it.
pub(crate) struct ServeQueue {
    /// The core behind its lock, the submitters' condvar and the ledger —
    /// everything the wave step touches.
    driver: Driver<Request>,
    /// Signals the dispatcher: work arrived, or shutdown began.
    not_empty: Condvar,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
    /// What every request runs on: the executor, and the loop's plan and
    /// parameters.
    exec: Arc<Executor>,
    plan: Arc<ModulePlan>,
    params: Arc<ParamStore>,
    /// Zero point of the loop's nanosecond clock: every enqueue/dispatch/
    /// complete timestamp is `epoch.elapsed()` in nanoseconds — the same
    /// integer timeline `ScriptedServe` runs the wave step on virtually.
    epoch: Instant,
}

impl ServeQueue {
    /// Spawns a serving loop over `(plan, params)` on `exec` and returns
    /// its first client handle (default class: [`Priority::Interactive`]).
    pub(crate) fn spawn(
        exec: Arc<Executor>,
        plan: Arc<ModulePlan>,
        params: Arc<ParamStore>,
        config: ServeConfig,
    ) -> ServeClient {
        let backlog_waves = plan.largest_stacked_param_bytes(&params) > BACKLOG_WEIGHT_BYTES;
        let core = DispatchCore::new(exec.n_threads(), &config, backlog_waves);
        let shared = Arc::new(ServeQueue {
            driver: Driver::new(core, config.record_dispatch),
            not_empty: Condvar::new(),
            dispatcher: Mutex::new(None),
            exec,
            plan,
            params,
            epoch: Instant::now(),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rdg-serve-dispatch".into())
                .spawn(move || dispatcher_loop(&shared))
                .expect("spawn serve dispatcher")
        };
        *shared.dispatcher.lock() = Some(worker);
        ServeClient {
            shared,
            class: Priority::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }
}

/// The wall-clock [`Runner`]: the loop's epoch, and the executor running
/// every request as a fusing root frame of the loop's one plan, so
/// cross-request fusion (`GroupKey` is keyed by plan pointer) can group
/// any of them.
impl Runner<Request> for &ServeQueue {
    /// A failed submit is a run that has already failed.
    type Run = Result<RunHandle, ExecError>;
    type Output = Vec<Tensor>;

    fn now_ns(&self) -> u64 {
        ServeQueue::now_ns(self)
    }

    fn launch(&mut self, wave: &mut [Queued<Request>]) -> Vec<Self::Run> {
        let run = |q: &mut Queued<Request>| {
            let feeds = std::mem::take(&mut q.item.feeds);
            self.exec.submit_fused(&self.plan, &self.params, feeds)
        };
        wave.iter_mut().map(run).collect()
    }

    fn is_finished(&self, run: &Self::Run) -> bool {
        run.as_ref().map_or(true, RunHandle::is_finished)
    }

    fn cancel(&mut self, run: &mut Self::Run) {
        if let Ok(handle) = run {
            handle.cancel();
        }
    }

    fn join(&mut self, run: Self::Run) -> Result<Vec<Tensor>, ExecError> {
        let handle = run?;
        let counters = Arc::clone(handle.stats());
        let result = handle.wait();
        self.driver.stats.runs.absorb(&counters);
        result
    }
}

/// The dispatcher thread: the wave step on the wall clock, answering each
/// ticket over its channel, until shutdown *and* empty lanes — every
/// accepted request is answered before the thread exits (with its result,
/// or with [`ServeError::Shed`] when its SLO ran out first). Between waves
/// it sleeps on `not_empty`.
fn dispatcher_loop(shared: &ServeQueue) {
    let mut runner = shared;
    loop {
        let deliver = |q: Queued<Request>, _, _, answer| q.item.tx.send(answer).is_ok();
        if shared.driver.step(&mut runner, deliver).is_some() {
            continue;
        }
        let mut st = shared.driver.state.lock();
        if st.queue().is_empty() {
            if !st.is_open() {
                return;
            }
            shared.not_empty.wait(&mut st);
        }
    }
}

/// A cloneable handle to an admission-controlled serving loop.
///
/// Clones share one queue, one dispatcher, and one stats ledger — hand a
/// clone to every client thread. Each clone carries the class its four
/// submit calls admit into ([`Priority::Interactive`] unless made with
/// [`ServeClient::with_priority`]); they differ only in how long they wait
/// for a lane slot and whether the request carries an SLO. The loop shuts
/// down when the last clone drops
/// or [`ServeClient::shutdown`] is called; after that every submit returns
/// [`ServeError::Shutdown`], while already-accepted requests still
/// complete and their tickets still deliver.
pub struct ServeClient {
    shared: Arc<ServeQueue>,
    class: Priority,
}

impl Clone for ServeClient {
    fn clone(&self) -> Self {
        self.shared.driver.state.lock().add_client();
        ServeClient {
            shared: Arc::clone(&self.shared),
            class: self.class,
        }
    }
}

impl Drop for ServeClient {
    fn drop(&mut self) {
        if self.shared.driver.state.lock().drop_client() {
            // Last client gone: admission is closed; let the dispatcher
            // drain accepted requests, detached (drop must not block).
            self.shared.not_empty.notify_all();
            self.shared.driver.not_full.notify_all();
        }
    }
}

/// How long a submit may block on a full lane.
#[derive(Clone, Copy)]
enum Wait {
    /// Not at all: a full lane is [`ServeError::QueueFull`].
    No,
    /// Until this instant, then [`ServeError::DeadlineExceeded`].
    Until(Instant),
    /// As long as it takes.
    Forever,
}

impl Wait {
    /// At most `d` from now (`Forever` if that instant is unrepresentable).
    fn at_most(d: Duration) -> Wait {
        Instant::now()
            .checked_add(d)
            .map_or(Wait::Forever, Wait::Until)
    }
}

impl ServeClient {
    /// A clone whose submit calls use `class` — hand one to each traffic
    /// source so call sites stay class-free.
    pub fn with_priority(&self, class: Priority) -> ServeClient {
        let mut c = self.clone();
        c.class = class;
        c
    }

    /// The class this client's submit calls use.
    pub fn priority(&self) -> Priority {
        self.class
    }

    /// Non-blocking admission: rejects immediately with
    /// [`ServeError::QueueFull`] when this client's class lane has no free
    /// slot.
    pub fn try_submit(&self, feeds: Vec<Tensor>) -> Result<ServeTicket, ServeError> {
        self.admit(feeds, Wait::No, None)
    }

    /// Blocking admission: waits for a lane slot (backpressure), however
    /// long that takes. Returns [`ServeError::Shutdown`] if the loop stops
    /// accepting while this call is blocked.
    pub fn submit(&self, feeds: Vec<Tensor>) -> Result<ServeTicket, ServeError> {
        self.admit(feeds, Wait::Forever, None)
    }

    /// Blocking admission with a deadline: waits at most `deadline` for a
    /// lane slot, then gives up with [`ServeError::DeadlineExceeded`].
    pub fn submit_deadline(
        &self,
        feeds: Vec<Tensor>,
        deadline: Duration,
    ) -> Result<ServeTicket, ServeError> {
        self.admit(feeds, Wait::at_most(deadline), None)
    }

    /// Blocking admission with an end-to-end SLO: the request must
    /// *complete* within `slo` of this call, or it is shed.
    ///
    /// The SLO is enforced at three lifecycle points:
    ///
    /// 1. **Predictive admission** (here): if the class is `BestEffort`
    ///    and the dispatcher has a service EWMA, a request whose predicted
    ///    queue wait (`lane depth × EWMA ÷ workers`) already overruns the
    ///    deadline is shed immediately with [`ServeError::Shed`] — it never
    ///    queues, never counts as `submitted`, and ticks `shed_predicted`.
    /// 2. **Pop-time eviction**: an admitted request whose deadline has
    ///    passed when the dispatcher pops it is discarded (ticket resolves
    ///    to [`ServeError::Shed`], counted `shed`).
    /// 3. **Mid-service cancellation**: a request whose deadline passes
    ///    while its run is in flight is cancelled and counted
    ///    `shed_inflight`.
    ///
    /// Submit-side blocking is bounded by the same deadline: if no lane
    /// slot frees before the SLO is already blown, the call gives up with
    /// [`ServeError::DeadlineExceeded`] (counted `expired`), matching
    /// [`ServeClient::submit_deadline`].
    pub fn submit_slo(&self, feeds: Vec<Tensor>, slo: Duration) -> Result<ServeTicket, ServeError> {
        self.admit(feeds, Wait::at_most(slo), Some(slo))
    }

    /// The one admission path behind every `submit*` name: offers the
    /// request to the core under the state lock and turns each
    /// [`Refusal`] into what the caller asked for — an error now, or (on a
    /// full lane, within `wait`) a sleep on `not_full` and another offer.
    /// With `slo`, the request carries the deadline `now + slo`.
    fn admit(
        &self,
        feeds: Vec<Tensor>,
        wait: Wait,
        slo: Option<Duration>,
    ) -> Result<ServeTicket, ServeError> {
        let (shared, class) = (&*self.shared, self.class);
        let ledger = &shared.driver.stats.classes[class.index()];
        // (call time, absolute deadline) on the loop's clock.
        let slo_ns = slo.map(|slo| {
            let entered = shared.now_ns();
            let slo = u64::try_from(slo.as_nanos()).unwrap_or(u64::MAX);
            (entered, entered.saturating_add(slo))
        });
        let (tx, rx) = bounded(1);
        let mut request = Request { feeds, tx };
        let mut st = shared.driver.state.lock();
        loop {
            let now = shared.now_ns();
            let (why, back) = match st.admit(class, request, now, slo_ns.map(|(_, d)| d)) {
                Ok(()) => {
                    // Count before releasing the lock: the dispatcher cannot
                    // pop (and so cannot complete) this request until the
                    // lock drops, which keeps `submitted ≥ completed +
                    // failed` in every stats snapshot.
                    ledger.submitted.fetch_add(1, Ordering::Relaxed);
                    drop(st);
                    shared.not_empty.notify_one();
                    return Ok(ServeTicket { rx });
                }
                Err(refused) => refused,
            };
            request = back;
            let (counter, error) = match why {
                Refusal::Closed => return Err(ServeError::Shutdown),
                Refusal::ShedPredicted => {
                    let entered = slo_ns.map_or(now, |(entered, _)| entered);
                    let waited = Duration::from_nanos(now.saturating_sub(entered));
                    (&ledger.shed_predicted, ServeError::Shed { waited })
                }
                Refusal::Full => match wait {
                    Wait::No => (&ledger.rejected, ServeError::QueueFull),
                    Wait::Forever => {
                        shared.driver.not_full.wait(&mut st);
                        continue;
                    }
                    Wait::Until(limit) => {
                        let left = limit.saturating_duration_since(Instant::now());
                        if !left.is_zero() {
                            let _ = shared.driver.not_full.wait_for(&mut st, left);
                            continue;
                        }
                        (&ledger.expired, ServeError::DeadlineExceeded)
                    }
                },
            };
            drop(st);
            counter.fetch_add(1, Ordering::Relaxed);
            return Err(error);
        }
    }

    /// The per-class admission-lane slot count.
    pub fn capacity(&self) -> usize {
        self.shared.driver.state.lock().capacity()
    }

    /// The dispatch waves recorded so far — empty unless the loop was
    /// started with [`ServeConfig::record_dispatch`] set. Call after
    /// [`ServeClient::shutdown`] for the complete log.
    pub fn dispatch_log(&self) -> Vec<WaveRecord> {
        let log = self.shared.driver.dispatch_log.as_ref();
        log.map_or_else(Vec::new, |log| log.lock().clone())
    }

    /// Snapshot of the loop's counters and latency percentiles,
    /// aggregate and per class.
    pub fn stats(&self) -> ServeStats {
        self.shared.driver.stats()
    }

    /// Stops admission, waits for every accepted request to complete, and
    /// joins the dispatcher thread.
    ///
    /// Idempotent across clients: the first caller joins the dispatcher,
    /// later callers (and later submits) observe [`ServeError::Shutdown`].
    pub fn shutdown(&self) {
        self.shared.driver.state.lock().close();
        self.shared.not_empty.notify_all();
        self.shared.driver.not_full.notify_all();
        let handle = self.shared.dispatcher.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

/// The response slot of one admitted request.
///
/// Independent of the [`ServeClient`] that produced it: a ticket delivers
/// even after every client is dropped (accepted requests are drained on
/// shutdown, never discarded).
pub struct ServeTicket {
    rx: Receiver<Result<Vec<Tensor>, ServeError>>,
}

impl fmt::Debug for ServeTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeTicket").finish_non_exhaustive()
    }
}

impl ServeTicket {
    /// Blocks until the request resolves: its outputs, the run's error,
    /// or [`ServeError::Shed`] if the request's SLO ran out first.
    pub fn wait(self) -> Result<Vec<Tensor>, ServeError> {
        match self.rx.recv() {
            Ok(result) => result,
            // The dispatcher answers every accepted request before it
            // exits; a closed channel therefore means the process is
            // tearing the loop down around us.
            Err(_) => Err(ServeError::Shutdown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.capacity >= 1 && c.batch_multiple >= 1);
        assert!(matches!(c.sizing, WaveSizing::Dynamic { .. }));
        assert!(c.aging_step > Duration::ZERO);
    }

    #[test]
    fn priority_order_and_indexing() {
        assert!(Priority::Interactive < Priority::Batch);
        assert!(Priority::Batch < Priority::BestEffort);
        for (i, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Priority::default(), Priority::Interactive);
        assert_eq!(Priority::Batch.to_string(), "batch");
    }

    #[test]
    fn latency_percentiles_are_ordered_and_windowed() {
        let t = LatencyTrack::new(8);
        for us in [100u64, 200, 300, 400, 500, 600, 700, 800] {
            t.record(Duration::from_micros(us));
        }
        let p = t.percentiles();
        assert_eq!(p.count, 8);
        assert!(p.p50_us <= p.p95_us && p.p95_us <= p.p99_us);
        assert!((p.mean_us - 450.0).abs() < 1.0);
        // The ring slides: 8 huge samples push the small ones out.
        for _ in 0..8 {
            t.record(Duration::from_micros(10_000));
        }
        let p = t.percentiles();
        assert_eq!(p.count, 16, "count is lifetime");
        assert!(p.p50_us >= 9_999.0, "window slid to the recent samples");
    }

    #[test]
    fn empty_track_snapshots_zero() {
        let t = LatencyTrack::new(4);
        assert_eq!(t.percentiles(), LatencyPercentiles::default());
    }
}
