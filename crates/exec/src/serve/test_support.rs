//! The dispatcher core under a virtual clock: a deterministic, sleep-free
//! second driver for the serving rules.
//!
//! Admission, wave-sizing, aging, eviction and cancel decisions must be
//! *asserted exactly* — not probed with sleeps that flake on a loaded CI
//! container. The serving loop makes every one of them in
//! `core::DispatchCore`, which reads no clock and takes no lock. The live
//! loop drives that core with wall time and an executor; this module
//! drives the **same core** with a **virtual clock** and **scripted
//! service durations**, so a test can write
//!
//! ```
//! use rdg_exec::serve::test_support::ScriptedServe;
//! use rdg_exec::{Priority, ServeConfig};
//!
//! let mut s = ScriptedServe::new(2, &ServeConfig::default());
//! s.submit(Priority::Batch, 1);
//! s.submit(Priority::Interactive, 2);
//! let wave = s.run_wave(|_| 1_000_000).unwrap(); // 1 ms per request
//! assert_eq!(wave.requests[0].id, 2, "interactive dispatches first");
//! assert_eq!(wave.requests[1].id, 1);
//! ```
//!
//! and every assertion is a pure function of the script — and a statement
//! about the code the live loop runs, not about a model of it.
//!
//! What is twin-only is what stands in for the executor and the wall
//! clock, nothing else: requests "execute" on `workers` simulated lanes
//! (greedy list scheduling in dispatch order, around injected stalls),
//! completions are observed **in dispatch order** (the live dispatcher
//! joins its wave in submission order, so a later request's observed
//! service includes any wait for an earlier one), the core is told the
//! wave's request count and drain time, and the virtual clock advances to
//! the wave's last observed completion.

use super::core::{must_cancel, DispatchCore, Refusal};
use super::{Priority, ServeConfig};
use crate::batch::plan_groups;
use std::hash::Hash;

/// One request's life through a scripted wave, all timestamps in
/// nanoseconds of the harness's virtual clock.
#[derive(Clone, Debug)]
pub struct ScriptedRequest {
    /// Caller-chosen request id (the harness never interprets it beyond
    /// passing it to the service-duration script).
    pub id: u64,
    /// Admission class the request was submitted with.
    pub class: Priority,
    /// Virtual time the request entered its lane.
    pub enqueued_ns: u64,
    /// Absolute deadline carried by the request, if it was submitted with
    /// an SLO ([`ScriptedServe::submit_deadline`]).
    pub deadline_ns: Option<u64>,
    /// enqueue → dispatch: what the request waited in the queue.
    pub wait_ns: u64,
    /// dispatch → observed completion (join order included) — what the
    /// request's `ServeStats` service entry would record. The controller
    /// is fed the wave-level observation instead (see `run_wave`).
    pub service_ns: u64,
    /// Virtual time the request's completion was observed. For a
    /// mid-service-shed request this is the time the join loop reached
    /// (and cancelled) it.
    pub done_ns: u64,
    /// The request dispatched but its deadline passed before the join
    /// loop observed it finish: the live loop cancels it through
    /// `RunHandle::cancel` and counts `shed_inflight` instead of
    /// `completed`.
    pub shed_inflight: bool,
}

/// One request the dispatcher discarded at pop time because its deadline
/// had already passed — the scripted analogue of
/// [`super::ServeError::Shed`] resolved against an undispatched ticket.
#[derive(Clone, Debug)]
pub struct ScriptedShed {
    /// Caller-chosen request id.
    pub id: u64,
    /// Admission class the request was submitted with.
    pub class: Priority,
    /// Virtual time the request entered its lane.
    pub enqueued_ns: u64,
    /// The absolute deadline the request missed.
    pub deadline_ns: u64,
    /// Virtual time the eviction happened (the wave's pop time). Always
    /// `>= deadline_ns` — the never-evicted-early oracle.
    pub shed_ns: u64,
}

/// Outcome of one [`ScriptedServe::submit_deadline`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScriptedAdmission {
    /// The request entered its lane (carrying its absolute deadline).
    Admitted,
    /// Lane full or admission closed — the analogues of
    /// [`super::ServeError::QueueFull`] / [`super::ServeError::Shutdown`].
    Rejected,
    /// Predictive admission shedding fired: the predicted lane wait
    /// (depth × EWMA ÷ workers) already overruns the SLO, so the request
    /// was shed before queueing ([`super::ServeError::Shed`], counted
    /// `shed_predicted`).
    Shed,
}

/// One dispatch wave formed and "executed" by [`ScriptedServe::run_wave`].
#[derive(Clone, Debug)]
pub struct ScriptedWave {
    /// The controller's wave target when the wave was formed.
    pub target: usize,
    /// Virtual time the wave was dispatched.
    pub dispatched_ns: u64,
    /// The wave's requests, **in dispatch order** — the order the
    /// aged-priority pop emitted them.
    pub requests: Vec<ScriptedRequest>,
    /// Requests popped this wave whose deadline had already passed:
    /// discarded without dispatching (they consume no wave slots), in
    /// pop order.
    pub evicted: Vec<ScriptedShed>,
    /// The fused groups this wave executed, as index groups into
    /// `requests`, in formation (first-occurrence) order — the output of
    /// [`crate::batch::plan_groups`] over the wave's fusion signatures.
    /// A wave run through the scalar [`ScriptedServe::run_wave`] entry is
    /// all singletons in dispatch order.
    pub fused_groups: Vec<Vec<usize>>,
}

impl ScriptedWave {
    /// The dispatch order as bare ids (assertion convenience).
    pub fn ids(&self) -> Vec<u64> {
        self.requests.iter().map(|r| r.id).collect()
    }
}

/// The scripted driver of the dispatcher core — the live serve loop's
/// twin. Not a re-implementation of its rules: it holds the same
/// `DispatchCore` the live loop holds, but time is a `u64` the test owns
/// and service durations come from a script instead of an executor.
///
/// Beyond the happy path, the harness scripts the *lifecycle* events the
/// live loop races against in the stress tests:
///
/// * [`ScriptedServe::shutdown`] closes admission (every later submit is
///   rejected) while queued requests still drain — the scripted analogue
///   of [`super::ServeClient::shutdown`];
/// * [`ScriptedServe::clone_client`] / [`ScriptedServe::drop_client`]
///   script the client-handle count; dropping the last handle closes
///   admission exactly like the live last-`Drop`;
/// * [`ScriptedServe::stall_worker`] injects a replica-level delay — one
///   simulated worker lane is unavailable until a virtual deadline, the
///   clockless analogue of a straggling replica (the schedule fuzzer's
///   `Stall` event).
pub struct ScriptedServe {
    /// The same `DispatchCore` the live loop runs — every admission,
    /// wave-formation, eviction, cancel and controller decision is its.
    core: DispatchCore<u64>,
    now_ns: u64,
    /// Virtual time before which each simulated worker lane is busy with
    /// injected (non-request) work. Lane `w` starts requests no earlier
    /// than `stall_until[w]`.
    stall_until: Vec<u64>,
    /// Per-class predictive-shed tally — the twin of the live
    /// `shed_predicted` counters.
    shed_predicted: [u64; Priority::COUNT],
}

impl ScriptedServe {
    /// Builds a harness over `workers` simulated workers with `config`'s
    /// capacity, sizing, and aging parameters (the latency-window knob is
    /// irrelevant here — the harness reports raw numbers, not windows).
    /// Its scripted requests stack no weight, so it forms no backlog waves.
    pub fn new(workers: usize, config: &ServeConfig) -> Self {
        let core = DispatchCore::new(workers, config, false);
        ScriptedServe {
            stall_until: vec![0; core.workers()],
            core,
            now_ns: 0,
            shed_predicted: [0; Priority::COUNT],
        }
    }

    /// Current virtual time, nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Advances the virtual clock (e.g. to age queued requests between
    /// submissions) without running anything.
    pub fn advance(&mut self, ns: u64) {
        self.now_ns += ns;
    }

    /// Submits request `id` into `class` at the current virtual time.
    /// Returns `false` (rejecting the request) when the class lane is at
    /// capacity — the harness analogue of [`super::ServeError::QueueFull`]
    /// — or when admission is closed (the analogue of
    /// [`super::ServeError::Shutdown`]).
    pub fn submit(&mut self, class: Priority, id: u64) -> bool {
        self.admit(class, id, None) == ScriptedAdmission::Admitted
    }

    /// Submits request `id` into `class` with an end-to-end SLO of
    /// `slo_ns`: the request carries the absolute deadline `now + slo_ns`
    /// through its lane, and the same three shed points the live loop
    /// enforces apply — predictive admission here, pop-time eviction and
    /// mid-service cancellation in [`ScriptedServe::run_wave`].
    pub fn submit_deadline(&mut self, class: Priority, id: u64, slo_ns: u64) -> ScriptedAdmission {
        self.admit(class, id, Some(slo_ns))
    }

    /// Offers one request to the core at the current virtual time.
    fn admit(&mut self, class: Priority, id: u64, slo_ns: Option<u64>) -> ScriptedAdmission {
        let deadline = slo_ns.map(|slo| self.now_ns.saturating_add(slo));
        match self.core.admit(class, id, self.now_ns, deadline) {
            Ok(()) => ScriptedAdmission::Admitted,
            Err((Refusal::ShedPredicted, _)) => {
                self.shed_predicted[class.index()] += 1;
                ScriptedAdmission::Shed
            }
            Err((Refusal::Closed | Refusal::Full, _)) => ScriptedAdmission::Rejected,
        }
    }

    /// Per-class predictive-shed counts so far (the twin of the live
    /// `shed_predicted` stats), indexed by [`Priority::index`].
    pub fn shed_predicted(&self) -> [u64; Priority::COUNT] {
        self.shed_predicted
    }

    /// Whether admission is still open (no scripted shutdown yet and at
    /// least one client handle alive).
    pub fn is_open(&self) -> bool {
        self.core.is_open()
    }

    /// Scripts [`super::ServeClient::shutdown`]: admission closes
    /// immediately; requests already queued still drain through
    /// [`ScriptedServe::run_wave`] / [`ScriptedServe::drain`].
    pub fn shutdown(&mut self) {
        self.core.close();
    }

    /// Scripts cloning a client handle (the live `ServeClient::clone`).
    pub fn clone_client(&mut self) {
        self.core.add_client();
    }

    /// Scripts dropping a client handle. Dropping the last one closes
    /// admission, exactly like the live last-`Drop` path.
    pub fn drop_client(&mut self) {
        self.core.drop_client();
    }

    /// Injects a replica-level delay: worker lane `lane % workers` is
    /// busy with non-request work until `now + dur_ns`. Waves formed
    /// while the stall is live schedule around the stalled lane; a wave
    /// that must use it absorbs the delay into its drain time (and the
    /// controller observes the inflated drain, exactly as the live
    /// controller would behind a straggling replica).
    pub fn stall_worker(&mut self, lane: usize, dur_ns: u64) {
        let lane = lane % self.stall_until.len();
        let until = self.now_ns.saturating_add(dur_ns);
        if until > self.stall_until[lane] {
            self.stall_until[lane] = until;
        }
    }

    /// Requests queued across all lanes.
    pub fn queue_depth(&self) -> usize {
        self.core.queue().len()
    }

    /// Requests queued in `class`'s lane.
    pub fn queue_depth_class(&self, class: Priority) -> usize {
        self.core.queue().len_class(class)
    }

    /// The wave target the next [`ScriptedServe::run_wave`] will use.
    pub fn wave_target(&self) -> usize {
        self.core.controller().target()
    }

    /// The controller's current service-time EWMA, nanoseconds (`None`
    /// before any wave ran, or under fixed sizing).
    pub fn ewma_ns(&self) -> Option<f64> {
        self.core.controller().ewma_ns()
    }

    /// Forms and "executes" the next wave: pops up to the controller's
    /// target with the aged-priority rule at the current virtual time,
    /// **evicting** any popped request whose deadline has already passed
    /// (evictions consume no wave slots — exactly the live pop-time shed),
    /// runs each surviving request for `service_ns(id)` nanoseconds on
    /// `workers` greedy simulated lanes, observes completions in dispatch
    /// order (like the live join loop, cancelling any request whose
    /// deadline passes before the join reaches a finished run —
    /// `shed_inflight`), feeds the controller the wave's request count +
    /// drain time, and advances the clock to the wave's last completion.
    ///
    /// Returns `None` when nothing is queued. A wave in which *every*
    /// popped request was evicted comes back with empty `requests` — like
    /// the live loop it counts no batch and feeds the controller nothing.
    pub fn run_wave(&mut self, service_ns: impl Fn(u64) -> u64) -> Option<ScriptedWave> {
        // No fusion signature ⇒ `plan_groups` emits singletons in dispatch
        // order, which schedules identically to per-request greedy list
        // scheduling: the scalar entry is the degenerate grouped run.
        self.run_wave_grouped(service_ns, |_| None::<u64>, 1)
    }

    /// [`ScriptedServe::run_wave`] with the executor's cross-request batch
    /// fuser modeled at wave granularity: each popped request carries a
    /// fusion signature (`None` = not fusable), the wave's signatures are
    /// grouped with the *same* pure [`crate::batch::plan_groups`] the live
    /// fused worker loop uses (first-occurrence order, chunked at
    /// `max_group`), and each group executes as one unit on the earliest
    /// free lane — its service is the **max** of its members' scripted
    /// services, and every member completes when the group does. Pop
    /// order, eviction, and the join-order observation rule are exactly
    /// those of the scalar entry: fusion changes completion *times*, never
    /// admission or dispatch decisions.
    pub fn run_wave_grouped<K: Eq + Hash + Copy>(
        &mut self,
        service_ns: impl Fn(u64) -> u64,
        fuse_sig: impl Fn(u64) -> Option<K>,
        max_group: usize,
    ) -> Option<ScriptedWave> {
        let dispatched_ns = self.now_ns;
        let (mut popped, mut expired) = (Vec::new(), Vec::new());
        let target = self
            .core
            .form_wave(dispatched_ns, &mut popped, &mut expired)?;
        let evicted = expired
            .into_iter()
            .map(|q| ScriptedShed {
                id: q.item,
                class: q.class,
                enqueued_ns: q.enqueued_ns,
                deadline_ns: q
                    .deadline_ns
                    .expect("only a deadline gets a request evicted"),
                shed_ns: dispatched_ns,
            })
            .collect();
        // Group formation over the surviving pop order, then greedy list
        // scheduling in group order: each group starts on the earliest-free
        // simulated worker and runs for the max of its members' services
        // (the stacked kernel returns when its widest member would). A
        // stalled lane is not free until its stall deadline passes.
        let keys: Vec<Option<K>> = popped.iter().map(|q| fuse_sig(q.item)).collect();
        let groups = plan_groups(&keys, max_group);
        let mut avail: Vec<u64> = self
            .stall_until
            .iter()
            .map(|&s| s.max(dispatched_ns))
            .collect();
        let mut finishes = vec![0u64; popped.len()];
        for g in &groups {
            let lane = (0..avail.len())
                .min_by_key(|&w| avail[w])
                .expect("at least one worker");
            let dur = g
                .iter()
                .map(|&i| service_ns(popped[i].item))
                .max()
                .unwrap_or(0);
            let finish = avail[lane] + dur;
            avail[lane] = finish;
            for &i in g {
                finishes[i] = finish;
            }
        }
        // Completions observed in dispatch order, exactly like the live
        // dispatcher joining handles in submission order: the join loop
        // reaches each request at the current observation time, where the
        // core's cancel rule decides (a finished run keeps its result
        // however late). The cancelled run's worker reservation is kept —
        // the scripted lane schedule is fixed at dispatch (the live cancel
        // can free a worker a little earlier; differential scenarios pin
        // the points where the two agree exactly).
        let mut requests = Vec::with_capacity(popped.len());
        let mut observed = dispatched_ns;
        for (q, finish) in popped.into_iter().zip(finishes) {
            let shed_inflight = must_cancel(q.deadline_ns, observed, finish <= observed);
            if !shed_inflight {
                observed = observed.max(finish);
            }
            requests.push(ScriptedRequest {
                id: q.item,
                class: q.class,
                enqueued_ns: q.enqueued_ns,
                deadline_ns: q.deadline_ns,
                wait_ns: dispatched_ns.saturating_sub(q.enqueued_ns),
                service_ns: observed - dispatched_ns,
                done_ns: observed,
                shed_inflight,
            });
        }
        self.core
            .wave_done(requests.len(), observed - dispatched_ns);
        self.now_ns = observed;
        Some(ScriptedWave {
            target,
            dispatched_ns,
            requests,
            evicted,
            fused_groups: groups,
        })
    }

    /// Runs waves until every queued request has dispatched (the scripted
    /// analogue of the dispatcher's shutdown drain) and returns them in
    /// wave order. Nothing accepted is ever left behind — the conservation
    /// oracle the schedule fuzzer (`rdg_serve_fuzz`) and the QoS property
    /// suite both check.
    pub fn drain(&mut self, service_ns: impl Fn(u64) -> u64) -> Vec<ScriptedWave> {
        let mut waves = Vec::new();
        while let Some(w) = self.run_wave(&service_ns) {
            waves.push(w);
        }
        waves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::WaveSizing;
    use std::time::Duration;

    fn config(sizing: WaveSizing) -> ServeConfig {
        ServeConfig {
            capacity: 4,
            batch_multiple: 2,
            sizing,
            aging_step: Duration::from_millis(1),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn fixed_waves_have_fixed_size_and_strict_order() {
        let mut s = ScriptedServe::new(2, &config(WaveSizing::Fixed));
        for id in 0..3 {
            assert!(s.submit(Priority::Batch, id));
        }
        assert!(s.submit(Priority::Interactive, 100));
        let wave = s.run_wave(|_| 1_000).unwrap();
        assert_eq!(wave.target, 4, "workers × batch_multiple");
        assert_eq!(wave.ids(), vec![100, 0, 1, 2], "interactive first");
        assert_eq!(s.queue_depth(), 0);
    }

    #[test]
    fn capacity_bounds_each_lane_independently() {
        let mut s = ScriptedServe::new(2, &config(WaveSizing::Fixed));
        for id in 0..4 {
            assert!(s.submit(Priority::Batch, id));
        }
        assert!(!s.submit(Priority::Batch, 4), "batch lane full");
        assert!(s.submit(Priority::Interactive, 5), "other lanes unaffected");
    }

    #[test]
    fn clock_advances_by_simulated_drain_time() {
        let mut s = ScriptedServe::new(2, &config(WaveSizing::Fixed));
        for id in 0..4 {
            s.submit(Priority::Interactive, id);
        }
        // 4 requests × 1 ms on 2 workers = 2 ms drain.
        let wave = s.run_wave(|_| 1_000_000).unwrap();
        assert_eq!(s.now_ns(), 2_000_000);
        assert_eq!(wave.requests[0].service_ns, 1_000_000);
        assert_eq!(wave.requests[3].service_ns, 2_000_000);
        assert_eq!(wave.requests[3].wait_ns, 0);
    }

    #[test]
    fn grouped_wave_fuses_same_signature_requests_without_reordering() {
        // Wider than the helper config: one worker, one wave of 8.
        let mut c = config(WaveSizing::Fixed);
        c.capacity = 8;
        c.batch_multiple = 8;
        let mut s = ScriptedServe::new(1, &c);
        for id in 0..8 {
            assert!(s.submit(Priority::Interactive, id));
        }
        // All eight share one signature; groups chunk at 4 ⇒ two stacked
        // calls of 1 ms each on the single worker: 2 ms drain, versus the
        // 8 ms a scalar wave would take.
        let wave = s
            .run_wave_grouped(|_| 1_000_000, |_| Some(0u64), 4)
            .unwrap();
        assert_eq!(wave.ids(), (0..8).collect::<Vec<_>>(), "pop order kept");
        assert_eq!(
            wave.fused_groups,
            vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]],
            "first-occurrence groups chunked at max_group"
        );
        assert_eq!(s.now_ns(), 2_000_000, "group service is the member max");
        // Members complete when their group does.
        assert!(wave.requests[..4].iter().all(|r| r.done_ns == 1_000_000));
        assert!(wave.requests[4..].iter().all(|r| r.done_ns == 2_000_000));
    }

    #[test]
    fn scalar_run_wave_is_the_singleton_grouped_run() {
        let build = || {
            let mut s = ScriptedServe::new(2, &config(WaveSizing::Fixed));
            for id in 0..4 {
                s.submit(Priority::ALL[id as usize % 3], id);
            }
            s
        };
        let service = |id: u64| 300_000 + id * 100_000;
        let a = build().run_wave(service).unwrap();
        let b = build()
            .run_wave_grouped(service, |_| None::<u64>, 16)
            .unwrap();
        assert_eq!(a.ids(), b.ids());
        let done = |w: &ScriptedWave| w.requests.iter().map(|r| r.done_ns).collect::<Vec<_>>();
        assert_eq!(done(&a), done(&b), "no signature ⇒ scalar schedule");
        assert_eq!(a.fused_groups.len(), a.requests.len(), "all singletons");
    }

    #[test]
    fn dynamic_controller_sees_scripted_services() {
        let mut s = ScriptedServe::new(
            2,
            &config(WaveSizing::Dynamic {
                max_multiple: 8,
                wave_budget: Duration::from_millis(5),
                ewma_alpha: 1.0, // last observation wins: exact targets
            }),
        );
        assert_eq!(s.wave_target(), 4, "starting point before data");
        s.submit(Priority::Interactive, 0);
        s.run_wave(|_| 500_000).unwrap(); // 0.5 ms → target 2×5/0.5 = 20 → clamp 16
        assert_eq!(s.wave_target(), 16);
        s.submit(Priority::Interactive, 1);
        s.run_wave(|_| 20_000_000).unwrap(); // 20 ms → clamp at workers
        assert_eq!(s.wave_target(), 2);
    }
}
