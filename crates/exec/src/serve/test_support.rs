//! The serving driver under a virtual clock: a deterministic, sleep-free
//! run of the wave step the live loop ships.
//!
//! Admission, wave-sizing, aging, eviction and cancel decisions must be
//! *asserted exactly* — not probed with sleeps that flake on a loaded CI
//! container. The serving loop makes every one of them in
//! `core::DispatchCore`, which reads no clock and takes no lock, and acts
//! on them in `driver::Driver::step`, which reads time only through its
//! runner. The live loop runs that step with wall time and an executor;
//! this module runs the **same step** with a **virtual clock** and
//! **scripted service durations**, so a test can write
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
//! assert_eq!(s.stats().completed, 2, "the live loop's ledger, booked alike");
//! ```
//!
//! and every assertion is a pure function of the script — and a statement
//! about the code the live loop runs, not about a model of it.
//!
//! What is twin-only is the runner, nothing else: requests "execute" on
//! `workers` simulated lanes (greedy list scheduling in dispatch order,
//! around injected stalls), the step joins them in dispatch order exactly
//! as it does live (so a later request's observed service includes any
//! wait for an earlier one), and the virtual clock advances only when a
//! join reaches a completion later than it.

use super::classes::Queued;
use super::core::{DispatchCore, Refusal};
use super::driver::{Driver, Runner};
use super::{Priority, ServeConfig, ServeStats};
use crate::batch::plan_groups;
use crate::error::ExecError;
use std::hash::Hash;
use std::sync::atomic::Ordering;

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

/// The serving driver on a virtual clock — the live serve loop's twin.
/// Not a re-implementation of its rules or its accounting: it runs the
/// same `DispatchCore` and the same wave step the live loop runs, but time
/// is a `u64` the test owns and service durations come from a script
/// instead of an executor.
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
    /// The live loop's driver state: core, ledger and (when configured)
    /// dispatch log — every decision and every count is the wave step's.
    driver: Driver<u64>,
    now_ns: u64,
    /// Virtual time before which each simulated worker lane is busy with
    /// injected (non-request) work. Lane `w` starts requests no earlier
    /// than `stall_until[w]`.
    stall_until: Vec<u64>,
}

impl ScriptedServe {
    /// Builds a harness over `workers` simulated workers with `config`'s
    /// capacity, sizing and aging parameters. Its scripted requests stack
    /// no weight, so it forms no backlog waves.
    pub fn new(workers: usize, config: &ServeConfig) -> Self {
        let core = DispatchCore::new(workers, config, false);
        ScriptedServe {
            stall_until: vec![0; core.workers()],
            driver: Driver::new(core, config.record_dispatch),
            now_ns: 0,
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

    /// Offers one request to the core at the current virtual time and
    /// books the outcome as a non-blocking live submit would: `submitted`,
    /// `shed_predicted`, or `rejected` for a full lane.
    fn admit(&mut self, class: Priority, id: u64, slo_ns: Option<u64>) -> ScriptedAdmission {
        let deadline = slo_ns.map(|slo| self.now_ns.saturating_add(slo));
        let ledger = &self.driver.stats.classes[class.index()];
        let refusal = self
            .driver
            .state
            .get_mut()
            .admit(class, id, self.now_ns, deadline);
        let (counter, admission) = match refusal {
            Ok(()) => (&ledger.submitted, ScriptedAdmission::Admitted),
            Err((Refusal::ShedPredicted, _)) => (&ledger.shed_predicted, ScriptedAdmission::Shed),
            Err((Refusal::Full, _)) => (&ledger.rejected, ScriptedAdmission::Rejected),
            Err((Refusal::Closed, _)) => return ScriptedAdmission::Rejected,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        admission
    }

    /// Per-class predictive-shed counts so far (the `shed_predicted` rows
    /// of [`ScriptedServe::stats`]), indexed by [`Priority::index`].
    pub fn shed_predicted(&self) -> [u64; Priority::COUNT] {
        let classes = &self.driver.stats.classes;
        Priority::ALL.map(|p| classes[p.index()].shed_predicted.load(Ordering::Relaxed))
    }

    /// Snapshot of the ledger the wave step keeps — the live loop's
    /// [`super::ServeClient::stats`], with every latency on the virtual
    /// clock. The fusion rows stay zero: no executor runs here.
    pub fn stats(&self) -> ServeStats {
        self.driver.stats()
    }

    /// Whether admission is still open (no scripted shutdown yet and at
    /// least one client handle alive).
    pub fn is_open(&self) -> bool {
        self.driver.state.lock().is_open()
    }

    /// Scripts [`super::ServeClient::shutdown`]: admission closes
    /// immediately; requests already queued still drain through
    /// [`ScriptedServe::run_wave`] / [`ScriptedServe::drain`].
    pub fn shutdown(&mut self) {
        self.driver.state.get_mut().close();
    }

    /// Scripts cloning a client handle (the live `ServeClient::clone`).
    pub fn clone_client(&mut self) {
        self.driver.state.get_mut().add_client();
    }

    /// Scripts dropping a client handle. Dropping the last one closes
    /// admission, exactly like the live last-`Drop` path.
    pub fn drop_client(&mut self) {
        self.driver.state.get_mut().drop_client();
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
        self.driver.state.lock().queue().len()
    }

    /// Requests queued in `class`'s lane.
    pub fn queue_depth_class(&self, class: Priority) -> usize {
        self.driver.state.lock().queue().len_class(class)
    }

    /// The wave target the next [`ScriptedServe::run_wave`] will use.
    pub fn wave_target(&self) -> usize {
        self.driver.state.lock().controller().target()
    }

    /// The controller's current service-time EWMA, nanoseconds (`None`
    /// before any wave ran, or under fixed sizing).
    pub fn ewma_ns(&self) -> Option<f64> {
        self.driver.state.lock().controller().ewma_ns()
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
    /// All of it is the live loop's wave step, so the outcome is booked
    /// in the ledger [`ScriptedServe::stats`] reads.
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
        let mut runner = Virtual {
            now_ns: dispatched_ns,
            free_ns: self
                .stall_until
                .iter()
                .map(|&s| s.max(dispatched_ns))
                .collect(),
            service_ns: &service_ns,
            fuse_sig: &fuse_sig,
            max_group,
            groups: Vec::new(),
        };
        let (mut requests, mut evicted) = (Vec::new(), Vec::new());
        let target = self
            .driver
            .step(&mut runner, |q, dispatched, done_ns, answer| {
                let (id, class, enqueued_ns, deadline_ns) =
                    (q.item, q.class, q.enqueued_ns, q.deadline_ns);
                match dispatched {
                    None => evicted.push(ScriptedShed {
                        id,
                        class,
                        enqueued_ns,
                        deadline_ns: deadline_ns.expect("only a deadline gets a request evicted"),
                        shed_ns: done_ns,
                    }),
                    Some(dispatched_ns) => requests.push(ScriptedRequest {
                        id,
                        class,
                        enqueued_ns,
                        deadline_ns,
                        wait_ns: dispatched_ns.saturating_sub(enqueued_ns),
                        service_ns: done_ns - dispatched_ns,
                        done_ns,
                        // A scripted run fails only by being cancelled.
                        shed_inflight: answer.is_err(),
                    }),
                }
                true
            })?;
        self.now_ns = runner.now_ns;
        Some(ScriptedWave {
            target,
            dispatched_ns,
            requests,
            evicted,
            fused_groups: runner.groups,
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

/// The virtual-clock [`Runner`]: a wave's requests run on the simulated
/// worker lanes, and only a join moves the clock — to the joined
/// request's completion, if that is later.
struct Virtual<'a, K> {
    now_ns: u64,
    /// When each simulated worker lane is next free.
    free_ns: Vec<u64>,
    service_ns: &'a dyn Fn(u64) -> u64,
    fuse_sig: &'a dyn Fn(u64) -> Option<K>,
    max_group: usize,
    /// The last wave's fused groups, as indices in dispatch order.
    groups: Vec<Vec<usize>>,
}

impl<K: Eq + Hash + Copy> Runner<u64> for Virtual<'_, K> {
    /// When the run completes; `None` once cancelled (a cancelled run
    /// never finishes, and its lane stays reserved).
    type Run = Option<u64>;
    type Output = ();

    fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Groups the wave with the *same* pure [`crate::batch::plan_groups`]
    /// the live fused worker loop uses (first-occurrence order, chunked at
    /// `max_group`), then list-schedules the groups greedily in that order:
    /// each starts on the earliest-free lane (a stalled lane is not free
    /// until its stall ends) and runs for the max of its members'
    /// services, when the stacked kernel returns for its widest member.
    fn launch(&mut self, wave: &mut [Queued<u64>]) -> Vec<Option<u64>> {
        let keys: Vec<Option<K>> = wave.iter().map(|q| (self.fuse_sig)(q.item)).collect();
        self.groups = plan_groups(&keys, self.max_group);
        let mut finish = vec![None; wave.len()];
        for g in &self.groups {
            let free = &mut self.free_ns;
            let lane = (0..free.len())
                .min_by_key(|&w| free[w])
                .expect("at least one worker");
            free[lane] += g
                .iter()
                .map(|&i| (self.service_ns)(wave[i].item))
                .max()
                .unwrap_or(0);
            for &i in g {
                finish[i] = Some(free[lane]);
            }
        }
        finish
    }

    fn is_finished(&self, run: &Option<u64>) -> bool {
        run.is_some_and(|t| t <= self.now_ns)
    }

    fn cancel(&mut self, run: &mut Option<u64>) {
        *run = None;
    }

    fn join(&mut self, run: Option<u64>) -> Result<(), ExecError> {
        self.now_ns = self.now_ns.max(run.ok_or(ExecError::Cancelled)?);
        Ok(())
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
    fn an_answer_nobody_receives_counts_abandoned_and_a_shed_stays_a_shed() {
        let mut s = ScriptedServe::new(2, &config(WaveSizing::Fixed));
        assert!(s.submit(Priority::Batch, 0));
        assert!(s.submit(Priority::Batch, 1));
        assert_eq!(
            s.submit_deadline(Priority::Interactive, 2, 0),
            ScriptedAdmission::Admitted
        );
        s.advance(1);
        let mut runner = Virtual {
            now_ns: s.now_ns(),
            free_ns: vec![s.now_ns(); 2],
            service_ns: &|_| 1_000,
            fuse_sig: &|_| None::<u64>,
            max_group: 1,
            groups: Vec::new(),
        };
        // Nobody listens for request 1's answer or the evicted request 2's:
        // their tickets were dropped.
        s.driver.step(&mut runner, |q, _, _, _| q.item == 0);
        let st = s.stats();
        assert_eq!((st.completed, st.abandoned, st.shed), (1, 1, 1));
        assert_eq!(st.classes[Priority::Batch.index()].abandoned, 1);
        assert_eq!(st.classes[Priority::Interactive.index()].shed, 1);
        assert_eq!(st.total.count, 2, "the abandoned run still ran");
        assert_eq!(
            st.completed + st.failed + st.shed + st.shed_inflight + st.abandoned,
            st.submitted
        );
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
