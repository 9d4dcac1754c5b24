//! Executor statistics: cheap atomic counters plus optional kernel profiling.
//!
//! The same [`ExecStats`] struct serves two roles:
//!
//! * **per-run** — every submitted run owns a private instance that its
//!   frames increment on the hot path; `RunHandle::stats` exposes it, so
//!   concurrent runs never smear into each other's numbers;
//! * **executor-lifetime aggregate** — when a run completes, its counters
//!   are folded into the executor's instance via [`ExecStats::absorb`]
//!   (`max_depth` folds as a max, everything else as a sum), so
//!   `Executor::stats` keeps reporting lifetime totals.
//!
//! Folding is **delta-based**: `absorb` returns a [`StatsSnapshot`] of the
//! values it folded, and [`ExecStats::absorb_since`] later folds only what
//! accumulated past a snapshot. The executor uses this to fold a failed or
//! cancelled run's *straggler* increments (tasks still draining after the
//! run reported its error) into the lifetime aggregate exactly once, at
//! final frame teardown — no straggler is lost and none is double-counted.
//!
//! Kernel profiling stays on the executor-lifetime instance only: it is a
//! diagnostic, not a per-run metric.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A plain-value copy of every [`ExecStats`] counter at one instant.
///
/// Produced by [`ExecStats::snapshot`] / [`ExecStats::absorb`]; consumed by
/// [`ExecStats::absorb_since`] as the "already folded" baseline so late
/// straggler increments fold into the lifetime aggregate without double
/// counting what the completion-time absorb already took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Operations executed.
    pub ops_executed: u64,
    /// Frames spawned.
    pub frames_spawned: u64,
    /// Deepest frame depth observed.
    pub max_depth: u64,
    /// Backprop cache writes.
    pub cache_writes: u64,
    /// Backprop cache reads.
    pub cache_reads: u64,
    /// In-place buffer reuses.
    pub inplace_updates: u64,
    /// Tasks dropped because their run was cancelled.
    pub cancelled_tasks: u64,
    /// Prelude-published nodes.
    pub prelude_published: u64,
    /// Tasks a worker ran as the continuation of the task before them
    /// instead of taking them from the ready queue, whatever the edge
    /// (plain dataflow, call, return). Workers add a whole chain at a time:
    /// when it ends, and before a run's result is published — so after
    /// `RunHandle::wait()` returns `Ok` this is exact, on the run and on the
    /// lifetime aggregate. A task dropped by cancellation as it was picked
    /// up as a continuation is counted too.
    pub continuations: u64,
    /// Kernel tasks whose graph node was batchable (fusion-eligible).
    pub fusable_seen: u64,
    /// Kernel tasks executed through a fused (stacked) kernel call.
    pub fused_tasks: u64,
    /// Fused kernel calls issued (each covers ≥2 member tasks).
    pub fused_groups: u64,
}

/// Counters describing one run's activity, or — as the fold of all
/// completed runs — one executor's lifetime activity (see module docs).
#[derive(Default)]
pub struct ExecStats {
    /// Operations executed (kernels, including structural ops).
    pub ops_executed: AtomicU64,
    /// Frames spawned (InvokeOp and Cond branch activations).
    pub frames_spawned: AtomicU64,
    /// Deepest frame depth observed.
    pub max_depth: AtomicU64,
    /// Values written to the backprop cache.
    pub cache_writes: AtomicU64,
    /// Values read from the backprop cache.
    pub cache_reads: AtomicU64,
    /// In-place buffer reuses observed by copy-on-write kernels.
    pub inplace_updates: AtomicU64,
    /// Tasks that were dropped because the run was cancelled by an error.
    pub cancelled_tasks: AtomicU64,
    /// Nodes resolved while their frame spawned: the plan's prelude
    /// (`Input`, `Const`, `Param`, `FwdValue`, `FwdZeros`). Counted in
    /// `ops_executed` too.
    pub prelude_published: AtomicU64,
    /// Tasks executed as continuations, bypassing the ready queue; added
    /// one chain at a time (see [`StatsSnapshot::continuations`]).
    pub continuations: AtomicU64,
    /// Kernel tasks whose graph node was batchable (`ExecutionPlan::fuse`),
    /// whether or not a fusion partner was available. The denominator of
    /// the fused fraction.
    pub fusable_seen: AtomicU64,
    /// Kernel tasks that executed through a fused (stacked) kernel call
    /// instead of the scalar path. The numerator of the fused fraction.
    pub fused_tasks: AtomicU64,
    /// Fused kernel calls issued; each one covered ≥2 member tasks.
    pub fused_groups: AtomicU64,
    /// Optional per-op-kind wall time, enabled by [`ExecStats::enable_profiling`].
    profile: Mutex<Option<HashMap<&'static str, (Duration, u64)>>>,
    profile_on: std::sync::atomic::AtomicBool,
}

impl ExecStats {
    /// Creates zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns on per-op-kind timing (adds a mutex acquisition per op, so
    /// keep it off for benchmark runs).
    pub fn enable_profiling(&self) {
        *self.profile.lock() = Some(HashMap::new());
        self.profile_on.store(true, Ordering::Release);
    }

    /// Whether profiling is enabled (one relaxed load; hot path safe — the
    /// sample table itself is behind its own lock).
    pub fn profiling(&self) -> bool {
        self.profile_on.load(Ordering::Relaxed)
    }

    /// Records one kernel execution time.
    pub fn record_kernel(&self, op: &'static str, d: Duration) {
        if let Some(map) = self.profile.lock().as_mut() {
            let e = map.entry(op).or_insert((Duration::ZERO, 0));
            e.0 += d;
            e.1 += 1;
        }
    }

    /// Snapshot of per-op-kind `(total time, count)`.
    pub fn kernel_profile(&self) -> HashMap<&'static str, (Duration, u64)> {
        self.profile.lock().clone().unwrap_or_default()
    }

    /// Raises `max_depth` to at least `d`.
    pub fn observe_depth(&self, d: u64) {
        self.max_depth.fetch_max(d, Ordering::Relaxed);
    }

    /// Reads every counter into a plain-value [`StatsSnapshot`].
    pub fn snapshot(&self) -> StatsSnapshot {
        // Exhaustive destructuring: adding a counter to ExecStats without
        // deciding how it folds is a compile error, not a silent zero in
        // the lifetime aggregate.
        let ExecStats {
            ops_executed,
            frames_spawned,
            max_depth,
            cache_writes,
            cache_reads,
            inplace_updates,
            cancelled_tasks,
            prelude_published,
            continuations,
            fusable_seen,
            fused_tasks,
            fused_groups,
            profile: _,    // profiling is executor-lifetime only
            profile_on: _, // profiling is executor-lifetime only
        } = self;
        StatsSnapshot {
            ops_executed: ops_executed.load(Ordering::Relaxed),
            frames_spawned: frames_spawned.load(Ordering::Relaxed),
            max_depth: max_depth.load(Ordering::Relaxed),
            cache_writes: cache_writes.load(Ordering::Relaxed),
            cache_reads: cache_reads.load(Ordering::Relaxed),
            inplace_updates: inplace_updates.load(Ordering::Relaxed),
            cancelled_tasks: cancelled_tasks.load(Ordering::Relaxed),
            prelude_published: prelude_published.load(Ordering::Relaxed),
            continuations: continuations.load(Ordering::Relaxed),
            fusable_seen: fusable_seen.load(Ordering::Relaxed),
            fused_tasks: fused_tasks.load(Ordering::Relaxed),
            fused_groups: fused_groups.load(Ordering::Relaxed),
        }
    }

    /// Folds a completed run's counters into this (lifetime) instance:
    /// `max_depth` as a max, every other counter (including
    /// `cancelled_tasks`) as a sum. Returns the snapshot of what was
    /// folded, for a later [`ExecStats::absorb_since`] straggler fold.
    pub fn absorb(&self, run: &ExecStats) -> StatsSnapshot {
        self.absorb_since(run, &StatsSnapshot::default())
    }

    /// Folds only what `run` accumulated *past* `base` into this (lifetime)
    /// instance and returns the new snapshot. This is how straggler
    /// increments — tasks of a failed/cancelled run that drain after the
    /// run already absorbed its counters — reach the aggregate exactly
    /// once, at final frame teardown.
    pub fn absorb_since(&self, run: &ExecStats, base: &StatsSnapshot) -> StatsSnapshot {
        let now = run.snapshot();
        let pairs = [
            (&self.ops_executed, now.ops_executed - base.ops_executed),
            (
                &self.frames_spawned,
                now.frames_spawned - base.frames_spawned,
            ),
            (&self.cache_writes, now.cache_writes - base.cache_writes),
            (&self.cache_reads, now.cache_reads - base.cache_reads),
            (
                &self.inplace_updates,
                now.inplace_updates - base.inplace_updates,
            ),
            (
                &self.cancelled_tasks,
                now.cancelled_tasks - base.cancelled_tasks,
            ),
            (
                &self.prelude_published,
                now.prelude_published - base.prelude_published,
            ),
            (&self.continuations, now.continuations - base.continuations),
            (&self.fusable_seen, now.fusable_seen - base.fusable_seen),
            (&self.fused_tasks, now.fused_tasks - base.fused_tasks),
            (&self.fused_groups, now.fused_groups - base.fused_groups),
        ];
        for (into, delta) in pairs {
            if delta != 0 {
                into.fetch_add(delta, Ordering::Relaxed);
            }
        }
        self.max_depth.fetch_max(now.max_depth, Ordering::Relaxed);
        now
    }

    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "ops={} frames={} max_depth={} cache_w={} cache_r={} inplace={} prelude={} conts={} \
             fusable={} fused={} groups={}",
            self.ops_executed.load(Ordering::Relaxed),
            self.frames_spawned.load(Ordering::Relaxed),
            self.max_depth.load(Ordering::Relaxed),
            self.cache_writes.load(Ordering::Relaxed),
            self.cache_reads.load(Ordering::Relaxed),
            self.inplace_updates.load(Ordering::Relaxed),
            self.prelude_published.load(Ordering::Relaxed),
            self.continuations.load(Ordering::Relaxed),
            self.fusable_seen.load(Ordering::Relaxed),
            self.fused_tasks.load(Ordering::Relaxed),
            self.fused_groups.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let s = ExecStats::new();
        assert_eq!(s.ops_executed.load(Ordering::Relaxed), 0);
        assert!(s.summary().contains("ops=0"));
    }

    #[test]
    fn depth_is_monotonic_max() {
        let s = ExecStats::new();
        s.observe_depth(5);
        s.observe_depth(3);
        assert_eq!(s.max_depth.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn absorb_sums_counters_and_maxes_depth() {
        let agg = ExecStats::new();
        agg.ops_executed.store(10, Ordering::Relaxed);
        agg.max_depth.store(7, Ordering::Relaxed);
        let run = ExecStats::new();
        run.ops_executed.store(5, Ordering::Relaxed);
        run.frames_spawned.store(3, Ordering::Relaxed);
        run.max_depth.store(4, Ordering::Relaxed);
        run.cancelled_tasks.store(99, Ordering::Relaxed);
        agg.absorb(&run);
        assert_eq!(agg.ops_executed.load(Ordering::Relaxed), 15);
        assert_eq!(agg.frames_spawned.load(Ordering::Relaxed), 3);
        assert_eq!(agg.max_depth.load(Ordering::Relaxed), 7, "max, not sum");
        assert_eq!(
            agg.cancelled_tasks.load(Ordering::Relaxed),
            99,
            "cancelled tasks fold as a sum like every other counter"
        );
        let deeper = ExecStats::new();
        deeper.max_depth.store(20, Ordering::Relaxed);
        agg.absorb(&deeper);
        assert_eq!(agg.max_depth.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn absorb_since_folds_only_the_delta() {
        let agg = ExecStats::new();
        let run = ExecStats::new();
        run.ops_executed.store(5, Ordering::Relaxed);
        run.cancelled_tasks.store(2, Ordering::Relaxed);
        let snap = agg.absorb(&run);
        assert_eq!(agg.ops_executed.load(Ordering::Relaxed), 5);
        assert_eq!(agg.cancelled_tasks.load(Ordering::Relaxed), 2);
        // Stragglers trickle in after the completion-time absorb...
        run.ops_executed.store(6, Ordering::Relaxed);
        run.cancelled_tasks.store(7, Ordering::Relaxed);
        // ...and only the delta past the snapshot is folded.
        agg.absorb_since(&run, &snap);
        assert_eq!(agg.ops_executed.load(Ordering::Relaxed), 6);
        assert_eq!(agg.cancelled_tasks.load(Ordering::Relaxed), 7);
        // A no-change fold is a no-op (idempotent on the same snapshot).
        let snap2 = run.snapshot();
        agg.absorb_since(&run, &snap2);
        assert_eq!(agg.ops_executed.load(Ordering::Relaxed), 6);
        assert_eq!(agg.cancelled_tasks.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn profiling_accumulates() {
        let s = ExecStats::new();
        s.record_kernel("MatMul", Duration::from_micros(5)); // ignored: off
        assert!(s.kernel_profile().is_empty());
        s.enable_profiling();
        s.record_kernel("MatMul", Duration::from_micros(5));
        s.record_kernel("MatMul", Duration::from_micros(7));
        let p = s.kernel_profile();
        assert_eq!(p["MatMul"].1, 2);
        assert_eq!(p["MatMul"].0, Duration::from_micros(12));
    }
}
