//! The serving driver: one wave step, whichever clock runs it.
//!
//! [`DispatchCore`] makes every serving *decision*; [`Driver::step`] is
//! the one function that acts on them. Per wave it forms the wave, answers
//! and counts the pop-time evictions, launches the rest, joins them in
//! dispatch order under the cancel rule, books every outcome in the stats
//! ledger and tells the controller how the wave drained. What it needs
//! from the world — a clock and a way to run a request — comes through one
//! [`Runner`]:
//!
//! ```text
//!   live: dispatcher thread                  ScriptedServe
//!   wall clock (the loop's epoch),           virtual clock (in a wave,
//!   Executor::submit / RunHandle             only joins move it), scripted
//!                  │                         services on simulated lanes
//!                  └──────▶ Driver::step ◀───────────┘
//!                form_wave · evict · launch · join · ledger · wave_done
//! ```
//!
//! The clock belongs to the runner because under the virtual clock it is
//! the joins that move it. So the scripted suites and the schedule fuzzer
//! (`rdg_serve_fuzz`, through [`super::test_support::ScriptedServe`])
//! exercise the accounting and delivery code the live loop ships, not a
//! copy of it.

use super::classes::Queued;
use super::core::{must_cancel, DispatchCore};
use super::{ClassStats, Priority, ServeError, ServeStats, StatsInner, WaveRecord};
use crate::error::ExecError;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::Ordering::Relaxed;
use std::time::Duration;

/// A clock and a way to run requests: what [`Driver::step`] cannot supply
/// itself. `T` is the queued request payload.
pub(super) trait Runner<T> {
    /// One launched request.
    type Run;
    /// What a successful run returns.
    type Output;
    /// The current time, nanoseconds on the loop's clock.
    fn now_ns(&self) -> u64;
    /// Starts every request of the wave, in dispatch order, taking what
    /// the runs consume from them. A wave launches as a whole: its runs
    /// execute concurrently and fuse with each other.
    fn launch(&mut self, wave: &mut [Queued<T>]) -> Vec<Self::Run>;
    /// Whether the run has finished, without waiting for it.
    fn is_finished(&self, run: &Self::Run) -> bool;
    /// Asks the run to stop; a run that already finished keeps its result.
    fn cancel(&mut self, run: &mut Self::Run);
    /// Waits for the run and returns its result.
    fn join(&mut self, run: Self::Run) -> Result<Self::Output, ExecError>;
}

/// One serving loop's driver state under either clock: the core behind
/// its lock, the condvar blocked submitters sleep on, and the ledger.
pub(super) struct Driver<T> {
    /// Every serving rule and the state it ranges over (lanes, controller,
    /// open flag, client count). Submitters and the wave step drive it
    /// under this one lock; nothing else decides anything.
    pub(super) state: Mutex<DispatchCore<T>>,
    /// Signals blocked submitters: a slot freed, or shutdown began.
    pub(super) not_full: Condvar,
    pub(super) stats: StatsInner,
    /// Wave-by-wave dispatch decisions, kept only when
    /// [`super::ServeConfig::record_dispatch`] is set.
    pub(super) dispatch_log: Option<Mutex<Vec<WaveRecord>>>,
}

impl<T> Driver<T> {
    pub(super) fn new(core: DispatchCore<T>, record_dispatch: bool) -> Self {
        Driver {
            state: Mutex::new(core),
            not_full: Condvar::new(),
            stats: StatsInner::default(),
            dispatch_log: record_dispatch.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Runs the next wave to completion: forms it at `runner`'s now,
    /// answers the requests evicted at pop with [`ServeError::Shed`],
    /// launches the rest as one wave, and joins them in dispatch order.
    /// When the join reaches a request [`must_cancel`] says to cancel, the
    /// runner cancels it, and it counts as `shed_inflight` only if the
    /// cancel won — a run that finished first keeps its result.
    ///
    /// `deliver(request, dispatched_ns, done_ns, answer)` hands a request
    /// its answer and says whether anyone was listening; a result nobody
    /// receives counts `abandoned`, not `completed`. `dispatched_ns` is
    /// `None` for an eviction, whose `done_ns` is the pop.
    ///
    /// Returns the size the wave was formed to, or `None` when nothing was
    /// queued. A wave whose every pop was evicted launches nothing and
    /// teaches the controller nothing.
    pub(super) fn step<R: Runner<T>>(
        &self,
        runner: &mut R,
        mut deliver: impl FnMut(Queued<T>, Option<u64>, u64, Result<R::Output, ServeError>) -> bool,
    ) -> Option<usize> {
        let (mut wave, mut evicted) = (Vec::new(), Vec::new());
        let (target, popped_ns) = {
            let mut st = self.state.lock();
            let now = runner.now_ns();
            let target = st.form_wave(now, &mut wave, &mut evicted)?;
            if let Some(log) = &self.dispatch_log {
                let seqs = |v: &[Queued<T>]| v.iter().map(|q| q.seq).collect();
                let (seqs, shed_seqs) = (seqs(&wave), seqs(&evicted));
                log.lock().push(WaveRecord {
                    target,
                    seqs,
                    shed_seqs,
                });
            }
            (target, now)
        };
        // Slots freed: wake every blocked submitter (they re-check space).
        self.not_full.notify_all();
        let stats = &self.stats;
        let shed = |since_ns: u64, now_ns: u64| {
            let waited = Duration::from_nanos(now_ns.saturating_sub(since_ns));
            Err(ServeError::Shed { waited })
        };
        // Eviction is a shed, full stop — a dropped ticket on top of it
        // stays a shed (`abandoned` splits only the completed/failed path).
        for q in evicted {
            stats.classes[q.class.index()].shed.fetch_add(1, Relaxed);
            let answer = shed(q.enqueued_ns, popped_ns);
            deliver(q, None, popped_ns, answer);
        }
        if wave.is_empty() {
            return Some(target);
        }
        let dispatched_ns = runner.now_ns();
        stats.in_flight.store(wave.len(), Relaxed);
        let runs = runner.launch(&mut wave);
        let wave_len = wave.len();
        let mut done_ns = dispatched_ns;
        for (q, mut run) in wave.into_iter().zip(runs) {
            let due = must_cancel(q.deadline_ns, runner.now_ns(), runner.is_finished(&run));
            if due {
                runner.cancel(&mut run);
            }
            let result = runner.join(run);
            done_ns = runner.now_ns();
            stats.in_flight.fetch_sub(1, Relaxed);
            let (ledger, tracks) = stats.class(q.class);
            let wait_ns = dispatched_ns.saturating_sub(q.enqueued_ns);
            let total_ns = done_ns.saturating_sub(q.enqueued_ns);
            for t in tracks {
                t.wait.record_ns(wait_ns);
            }
            if due && matches!(result, Err(ExecError::Cancelled)) {
                ledger.shed_inflight.fetch_add(1, Relaxed);
                let answer = shed(q.enqueued_ns, done_ns);
                deliver(q, Some(dispatched_ns), done_ns, answer);
                continue;
            }
            for t in tracks {
                t.service.record_ns(done_ns.saturating_sub(dispatched_ns));
                t.total.record_ns(total_ns);
            }
            // Count before delivering: a client that has seen its ticket
            // resolve must also see the counter (the `submitted ≥
            // completed + failed` snapshot invariant). A failed delivery
            // means no receiver existed — nobody raced us — so the
            // reclassification below is invisible to any live ticket.
            let counter = if result.is_ok() {
                &ledger.completed
            } else {
                &ledger.failed
            };
            counter.fetch_add(1, Relaxed);
            let answer = result.map_err(ServeError::Exec);
            if !deliver(q, Some(dispatched_ns), done_ns, answer) {
                // The work still ran — count it abandoned, not completed,
                // so goodput stays honest.
                counter.fetch_sub(1, Relaxed);
                ledger.abandoned.fetch_add(1, Relaxed);
            }
        }
        // The controller observes the *wave*, not the per-request join
        // latencies: joining in dispatch order means a later request's
        // individual dispatch→complete span includes earlier joins, which
        // would double-count intra-wave queueing and bias the EWMA high.
        let drain_ns = done_ns.saturating_sub(dispatched_ns);
        self.state.lock().wave_done(wave_len, drain_ns);
        Some(target)
    }

    /// Snapshot of the loop's counters and latency percentiles, aggregate
    /// and per class.
    pub(super) fn stats(&self) -> ServeStats {
        let s = &self.stats;
        let runs = s.runs.snapshot();
        let mut agg = ServeStats {
            in_flight: s.in_flight.load(Relaxed),
            wait: s.latency.wait.percentiles(),
            service: s.latency.service.percentiles(),
            total: s.latency.total.percentiles(),
            fusion_groups: runs.fused_groups,
            fusion_instances: runs.fused_tasks,
            fusion_eligible: runs.fusable_seen,
            ..ServeStats::default()
        };
        {
            let st = self.state.lock();
            agg.batches = st.batches();
            agg.wave_target = st.controller().target();
            agg.service_ewma_ns = st.service_ewma_ns().unwrap_or(0);
            for p in Priority::ALL {
                agg.classes[p.index()].queue_depth = st.queue().len_class(p);
            }
        }
        for p in Priority::ALL {
            let i = p.index();
            let (ledger, latency) = (&s.classes[i], &s.class_latency[i]);
            let c = ClassStats {
                submitted: ledger.submitted.load(Relaxed),
                rejected: ledger.rejected.load(Relaxed),
                expired: ledger.expired.load(Relaxed),
                completed: ledger.completed.load(Relaxed),
                failed: ledger.failed.load(Relaxed),
                shed: ledger.shed.load(Relaxed),
                shed_inflight: ledger.shed_inflight.load(Relaxed),
                shed_predicted: ledger.shed_predicted.load(Relaxed),
                abandoned: ledger.abandoned.load(Relaxed),
                queue_depth: agg.classes[i].queue_depth,
                wait: latency.wait.percentiles(),
                service: latency.service.percentiles(),
                total: latency.total.percentiles(),
            };
            agg.submitted += c.submitted;
            agg.rejected += c.rejected;
            agg.expired += c.expired;
            agg.completed += c.completed;
            agg.failed += c.failed;
            agg.shed += c.shed;
            agg.shed_inflight += c.shed_inflight;
            agg.shed_predicted += c.shed_predicted;
            agg.abandoned += c.abandoned;
            agg.queue_depth += c.queue_depth;
            agg.classes[i] = c;
        }
        agg
    }
}
