//! Adversarial schedule fuzzing for the serving stack (FRET-style).
//!
//! The QoS machinery of `rdg_exec::serve` — aged-priority pop, EWMA
//! wave sizing, per-class backpressure, drain-on-shutdown — is exercised
//! by hand-written scripts and random property tests, but neither
//! *searches* for worst cases: the tail behavior that matters at scale
//! (an interactive request's p99 under a hostile arrival pattern) is only
//! ever sampled. FRET ("Dynamic Fuzzing-Based Whole-System Timing
//! Analysis", SNIPPETS.md §2) showed that fuzzing **schedules** — arrival
//! times and service durations, not payloads — finds worst-case timings
//! no hand-written stress test reaches. This crate is that idea applied
//! to the serving dispatcher:
//!
//! * a [`Scenario`] is a complete, serializable serving schedule: queue
//!   configuration plus an event list of class-tagged submissions with
//!   scripted service durations, virtual-clock gaps, dispatch waves,
//!   replica-level worker stalls, client clone/drop points, and a
//!   shutdown point;
//! * [`replay`] runs a scenario through [`ScriptedServe`] — the live
//!   serve loop's own `DispatchCore` and wave step on a virtual clock, so
//!   a finding here is a finding about production admission, wave,
//!   delivery and accounting logic, not about a model of it (only the
//!   executor and the wall clock are stood in for); zero sleeps — and
//!   scores it by observed **interactive p99** while checking the
//!   **invariant oracles** (class FIFO, strict priority for fresh
//!   submits, the aging starvation bound, no-loss/no-dup ticket
//!   conservation, the wave-target clamp and budget). The oracles are
//!   deliberately *not* shared with the core: they restate the contract
//!   independently, from the outside;
//! * [`replay_fused`] replays the same scenario under the wave-granularity
//!   model of the executor's cross-request batch fuser (same
//!   `rdg_exec::plan_groups`, group service = member max), so every oracle is
//!   also checked on fused completion schedules — without touching the
//!   [`Scenario`] format or any scalar corpus pin;
//! * [`run_campaign`] is the seeded, fully deterministic search loop:
//!   scenarios that raise the worst observed p99 or get nearer an oracle
//!   boundary seed the next generation (score-guided mutation in the FRET
//!   sense — the virtual clock is the coverage signal);
//! * [`minimize`] delta-debugs any finding down to a small reproducer,
//!   and the RON-style [`Scenario::to_ron`] / [`Scenario::from_ron`]
//!   round-trip lets findings live as committed corpus files under
//!   `crates/serve_fuzz/tests/corpus/serve_schedules/` that a plain
//!   `cargo test` replays exactly.
//!
//! The `rdg_fuzz_serve` binary drives a campaign from the command line /
//! CI; `tests/serve_fuzz.rs` pins determinism and the oracles, and
//! `tests/serve_fuzz_corpus.rs` replays the committed corpus.
//!
//! This crate is test tooling: it reaches the dispatcher only through
//! `rdg_exec`'s public [`ScriptedServe`], and nothing in the runtime
//! depends on it. Everything here is a pure function of the seed (every
//! random decision is drawn from one seeded [`StdRng`]): no wall clock,
//! no thread scheduling, no global state. Same seed → same scenarios,
//! same worst case, same report, on every host.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdg_exec::serve::test_support::{
    ScriptedAdmission, ScriptedRequest, ScriptedServe, ScriptedShed,
};
use rdg_exec::{Priority, ServeConfig, WaveSizing};
use std::fmt;
use std::time::Duration;

/// Uniform pick from a non-empty slice.
fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

// ---------------------------------------------------------------------
// Scenario model
// ---------------------------------------------------------------------

/// Upper bound on any scripted duration (service, gap, stall): 50 ms of
/// virtual time. Without a cap the search degenerates to "make every
/// number bigger"; with it, worst cases come from *structure* — arrival
/// order, class mixes, aging interplay — which is what the oracles and
/// the p99 score are meant to probe.
pub const MAX_DUR_NS: u64 = 50_000_000;

/// Wave-sizing spec of a scenario — [`WaveSizing`] with every field an
/// integer so serialization is exact (`alpha` is stored in thousandths).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizingSpec {
    /// Fixed waves of `workers × batch_multiple`.
    Fixed,
    /// The EWMA controller (see [`WaveSizing::Dynamic`]).
    Dynamic {
        /// Upper clamp as a multiple of the worker count.
        max_multiple: usize,
        /// Wave drain budget, nanoseconds.
        budget_ns: u64,
        /// EWMA smoothing factor in thousandths (250 = α 0.25).
        alpha_milli: u32,
    },
}

impl SizingSpec {
    /// The [`WaveSizing`] this spec denotes.
    pub fn to_wave_sizing(self) -> WaveSizing {
        match self {
            SizingSpec::Fixed => WaveSizing::Fixed,
            SizingSpec::Dynamic {
                max_multiple,
                budget_ns,
                alpha_milli,
            } => WaveSizing::Dynamic {
                max_multiple,
                wave_budget: Duration::from_nanos(budget_ns),
                ewma_alpha: alpha_milli as f64 / 1000.0,
            },
        }
    }
}

/// One step of a serving schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Advance the virtual clock by `ns` (an arrival gap).
    Advance(u64),
    /// Submit a request of `class` whose scripted service duration is
    /// `service_ns`. Request ids are assigned in event order.
    Submit(Priority, u64),
    /// Submit a request of `class` with scripted service duration
    /// `service_ns` and an end-to-end SLO of `slo_ns`: the request
    /// carries the absolute deadline `now + slo_ns` and is subject to all
    /// three shed points (predictive admission, pop-time eviction,
    /// mid-service cancellation). Ids share the `Submit` sequence.
    SubmitSlo(Priority, u64, u64),
    /// Form and run one dispatch wave (no-op on an empty queue).
    Wave,
    /// Replica-level delay injection: worker lane `lane % workers` is
    /// busy with non-request work for `dur_ns` from now (a straggling
    /// replica; [`ScriptedServe::stall_worker`]).
    Stall(usize, u64),
    /// Clone a client handle.
    CloneClient,
    /// Drop a client handle; dropping the last one closes admission.
    DropClient,
    /// Explicit shutdown: admission closes, queued work still drains.
    Shutdown,
}

impl Event {
    /// The scripted duration this event carries — service, gap or stall —
    /// if any: what perturbation and shrinking act on.
    fn duration_mut(&mut self) -> Option<&mut u64> {
        match self {
            Event::Submit(_, v)
            | Event::SubmitSlo(_, v, _)
            | Event::Advance(v)
            | Event::Stall(_, v) => Some(v),
            _ => None,
        }
    }
}

/// A complete serving schedule: configuration plus event list. The unit
/// the fuzzer generates, mutates, scores, minimizes, and serializes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Corpus slug (file-name stem; provenance note for humans).
    pub name: String,
    /// The campaign seed that produced this scenario (provenance).
    pub seed: u64,
    /// Simulated worker count.
    pub workers: usize,
    /// Per-class lane capacity.
    pub capacity: usize,
    /// Starting wave multiple (exact wave size under [`SizingSpec::Fixed`]).
    pub batch_multiple: usize,
    /// Anti-starvation aging step, nanoseconds.
    pub aging_step_ns: u64,
    /// Wave-sizing policy.
    pub sizing: SizingSpec,
    /// Interactive total-latency p99 this scenario is expected to
    /// reproduce exactly on replay (`None` until recorded). The corpus
    /// suite asserts equality — virtual time makes "exactly" meaningful.
    pub expect_p99_ns: Option<u64>,
    /// Total shed count (pop-time evictions + mid-service cancellations +
    /// predictive admission sheds) this scenario is expected to reproduce
    /// exactly on replay. `None` for schedules without SLO traffic; the
    /// serializer omits the field when unset so pre-SLO corpus files stay
    /// byte-identical.
    pub expect_shed: Option<u64>,
    /// The schedule itself.
    pub events: Vec<Event>,
}

impl Scenario {
    /// The [`ServeConfig`] this scenario's queue parameters denote.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            capacity: self.capacity,
            batch_multiple: self.batch_multiple,
            sizing: self.sizing.to_wave_sizing(),
            aging_step: Duration::from_nanos(self.aging_step_ns),
            ..ServeConfig::default()
        }
    }
}

// ---------------------------------------------------------------------
// Replay + oracles
// ---------------------------------------------------------------------

/// Submission metadata the oracles reason over (mirrors what the QoS
/// property suite tracks by hand).
#[derive(Clone, Copy, Debug)]
pub struct SubmitMeta {
    /// Request id (index among `Submit` events).
    pub id: u64,
    /// Admission class.
    pub class: Priority,
    /// Virtual enqueue time.
    pub enqueued_ns: u64,
    /// Absolute deadline (`enqueue + slo`) for SLO-carrying submissions.
    pub deadline_ns: Option<u64>,
    /// Admission order among *accepted* requests.
    pub seq: usize,
}

/// Everything one deterministic replay of a [`Scenario`] produced.
#[derive(Clone, Debug, Default)]
pub struct ReplayOutcome {
    /// Accepted submissions, in admission order.
    pub accepted: Vec<SubmitMeta>,
    /// Submissions rejected (full lane or closed admission).
    pub rejected: u64,
    /// The dispatch trace, in dispatch order across all waves. Includes
    /// mid-service-shed requests (marked `shed_inflight`); excludes
    /// pop-time evictions (see [`ReplayOutcome::evicted`]).
    pub trace: Vec<ScriptedRequest>,
    /// Requests evicted at pop time (deadline already passed), in pop
    /// order across all waves.
    pub evicted: Vec<ScriptedShed>,
    /// Submissions shed predictively at admission (never accepted).
    pub shed_predicted: u64,
    /// Per wave: the controller target when it formed and the dispatched
    /// request ids in pop order.
    pub waves: Vec<(usize, Vec<u64>)>,
    /// Nearest-rank p99 of interactive total latency (enqueue →
    /// completion), nanoseconds; 0 if no interactive request completed.
    pub interactive_p99_ns: u64,
    /// Worst queue wait observed by any request, nanoseconds.
    pub worst_wait_ns: u64,
    /// How close the run came to an oracle boundary without crossing it,
    /// in `[0, 1]` — the score-guidance signal (see [`replay`]).
    pub proximity: f64,
    /// Oracle violations, human-readable. Empty means the invariants
    /// held on this schedule.
    pub violations: Vec<String>,
}

impl ReplayOutcome {
    /// Every shed, whatever the lifecycle point: pop-time evictions +
    /// mid-service cancellations + predictive admission sheds. The number
    /// a corpus scenario's [`Scenario::expect_shed`] pins exactly.
    pub fn shed_total(&self) -> u64 {
        self.evicted.len() as u64
            + self.trace.iter().filter(|r| r.shed_inflight).count() as u64
            + self.shed_predicted
    }
}

/// Nearest-rank p99 over unsorted nanosecond samples (integer arithmetic
/// so replay scores are bit-exact across hosts).
fn p99_ns(samples: &mut Vec<u64>) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let idx = ((samples.len() - 1) * 99 + 50) / 100;
    samples[idx]
}

/// Replays `scenario` through [`ScriptedServe`] (the dispatcher core under
/// a virtual clock) and checks every oracle. Pure and deterministic: two
/// calls on one scenario return identical outcomes.
///
/// The proximity score rewards schedules that stress a boundary without
/// crossing it: waits approaching the aging bound, lanes filling toward
/// capacity (or bouncing off it), and wave targets pinned at a clamp.
/// Campaigns use it as the secondary selection signal, so the population
/// drifts toward the oracle edges where violations would live.
pub fn replay(scenario: &Scenario) -> ReplayOutcome {
    replay_with(scenario, None)
}

/// [`replay`] with the executor's cross-request batch fuser modeled at
/// wave granularity: requests whose scripted service durations are equal
/// stand in for "same kernel shape" and group through the same
/// `batch::plan_groups` the live fused worker loop uses, chunked at
/// `max_group`; a group's service is the max of its members' and every
/// member completes when the group does.
///
/// Every admission-order, shed, conservation, and controller oracle is
/// checked exactly as in scalar replay — fusion reshapes completion
/// *times*, never pop order or shed decisions, so the oracles must stay
/// green on any schedule they hold for scalar. Completion times (and so
/// the interactive p99) legitimately differ from scalar replay: a
/// scenario's `expect_p99_ns` / `expect_shed` pins are scalar-mode
/// contracts and are **not** compared here.
pub fn replay_fused(scenario: &Scenario, max_group: usize) -> ReplayOutcome {
    replay_with(scenario, Some(max_group))
}

/// One replay in progress: the twin, what it produced so far, and the
/// per-wave oracles. `fused: None` is the scalar twin; `Some(max_group)`
/// runs every wave through [`ScriptedServe::run_wave_grouped`] with the
/// service duration as the fusion signature.
struct Replay<'a> {
    scenario: &'a Scenario,
    fused: Option<usize>,
    s: ScriptedServe,
    out: ReplayOutcome,
    /// Scripted service duration per request id.
    services: Vec<u64>,
    /// Fullest any lane got, as a fraction of capacity.
    max_fill: f64,
    /// The `[lo, hi]` every wave target must stay inside.
    clamp: (usize, usize),
}

impl Replay<'_> {
    /// One submission, with or without an SLO. Ids are assigned in event
    /// order whether or not the request is admitted.
    fn submit(&mut self, class: Priority, service: u64, slo: Option<u64>) {
        let (s, out) = (&mut self.s, &mut self.out);
        let id = self.services.len() as u64;
        self.services.push(service.min(MAX_DUR_NS));
        let admission = match slo {
            Some(slo) => s.submit_deadline(class, id, slo),
            None if s.submit(class, id) => ScriptedAdmission::Admitted,
            None => ScriptedAdmission::Rejected,
        };
        match admission {
            ScriptedAdmission::Admitted => {
                out.accepted.push(SubmitMeta {
                    id,
                    class,
                    enqueued_ns: s.now_ns(),
                    deadline_ns: slo.map(|slo| s.now_ns().saturating_add(slo)),
                    seq: out.accepted.len(),
                });
                let fill = s.queue_depth_class(class) as f64 / self.scenario.capacity.max(1) as f64;
                self.max_fill = self.max_fill.max(fill);
            }
            ScriptedAdmission::Rejected => out.rejected += 1,
            // Counted from the twin's tally after the run (the predictive
            // shed is the only shed that never produces a trace or
            // eviction entry).
            ScriptedAdmission::Shed => {}
        }
    }

    /// Forms and runs one wave in the requested mode and checks the wave
    /// oracles on it; `false` when nothing was queued. In fused mode the
    /// scripted service duration doubles as the fusion signature: equal
    /// durations model equal kernel shapes, so duplicated-burst schedules
    /// (the mutator's span copies and the hand baselines) actually form
    /// groups.
    fn wave(&mut self) -> bool {
        let services = &self.services;
        let wave = match self.fused {
            None => self.s.run_wave(|id| services[id as usize]),
            Some(mg) => self.s.run_wave_grouped(
                |id| services[id as usize],
                |id| Some(services[id as usize]),
                mg,
            ),
        };
        let Some(wave) = wave else { return false };
        let (out, (lo, hi)) = (&mut self.out, self.clamp);
        if wave.requests.len() > wave.target {
            out.violations.push(format!(
                "wave of {} exceeds target {}",
                wave.requests.len(),
                wave.target
            ));
        }
        if !(lo..=hi).contains(&wave.target) {
            out.violations.push(format!(
                "wave target {} outside clamp [{lo}, {hi}]",
                wave.target
            ));
        }
        // Budget oracle: whenever the dynamic controller sizes above the
        // lower clamp, the predicted drain of the *next* wave must fit
        // the budget (floor rounding means `target × ewma ≤ workers ×
        // budget` exactly, up to f64 slack).
        if let SizingSpec::Dynamic { budget_ns, .. } = self.scenario.sizing {
            let workers = self.scenario.workers.max(1);
            let next = self.s.wave_target();
            if !(lo..=hi).contains(&next) {
                out.violations.push(format!(
                    "next wave target {next} outside clamp [{lo}, {hi}]"
                ));
            }
            if let Some(ewma) = self.s.ewma_ns().filter(|&e| next > lo && e > 0.0) {
                let allowed = workers as f64 * budget_ns as f64;
                if next as f64 * ewma > allowed * (1.0 + 1e-9) + 1.0 {
                    out.violations.push(format!(
                        "budget exceeded: target {next} × ewma {ewma:.0} ns > \
                         {} workers × {budget_ns} ns budget",
                        self.scenario.workers
                    ));
                }
            }
        }
        for r in &wave.requests {
            out.worst_wait_ns = out.worst_wait_ns.max(r.wait_ns);
        }
        out.waves.push((wave.target, wave.ids()));
        out.trace.extend(wave.requests);
        out.evicted.extend(wave.evicted);
        true
    }
}

fn replay_with(scenario: &Scenario, fused: Option<usize>) -> ReplayOutcome {
    let workers = scenario.workers.max(1);
    let mut r = Replay {
        scenario,
        fused,
        s: ScriptedServe::new(scenario.workers, &scenario.serve_config()),
        out: ReplayOutcome::default(),
        services: Vec::new(),
        max_fill: 0.0,
        clamp: match scenario.sizing {
            SizingSpec::Fixed => {
                let t = workers * scenario.batch_multiple.max(1);
                (t, t)
            }
            SizingSpec::Dynamic { max_multiple, .. } => (workers, workers * max_multiple.max(1)),
        },
    };
    for ev in &scenario.events {
        match *ev {
            Event::Advance(ns) => r.s.advance(ns.min(MAX_DUR_NS)),
            Event::Submit(class, service) => r.submit(class, service, None),
            Event::SubmitSlo(class, service, slo) => {
                r.submit(class, service, Some(slo.min(MAX_DUR_NS)))
            }
            Event::Wave => {
                r.wave();
            }
            Event::Stall(lane, dur) => r.s.stall_worker(lane, dur.min(MAX_DUR_NS)),
            Event::CloneClient => r.s.clone_client(),
            Event::DropClient => r.s.drop_client(),
            Event::Shutdown => r.s.shutdown(),
        }
    }
    // Final drain: whether the schedule shut down mid-storm or simply
    // ended, every accepted request must still dispatch (the live
    // dispatcher's drain-then-exit contract).
    while r.wave() {}

    let Replay {
        s,
        mut out,
        max_fill,
        clamp,
        ..
    } = r;
    out.shed_predicted = s.shed_predicted().iter().sum();
    check_order_oracles(scenario, &mut out);

    // Shed requests never completed: the p99 scores *answers delivered
    // within the lifecycle*, so only non-shed completions count (also
    // keeps pre-SLO corpus pins byte-stable — no-deadline schedules have
    // no shed requests to exclude).
    let mut interactive: Vec<u64> = out
        .trace
        .iter()
        .filter(|r| r.class == Priority::Interactive && !r.shed_inflight)
        .map(|r| r.done_ns - r.enqueued_ns)
        .collect();
    out.interactive_p99_ns = p99_ns(&mut interactive);

    // Oracle proximity: how hard did this schedule lean on a boundary?
    let aging_frac = if scenario.aging_step_ns > 0 {
        out.trace
            .iter()
            .filter(|r| r.class.index() > 0)
            .map(|r| {
                let bound = r.class.index() as u64 * scenario.aging_step_ns;
                (r.wait_ns as f64 / bound as f64).min(1.0)
            })
            .fold(0.0f64, f64::max)
    } else {
        0.0
    };
    let fill_frac = if out.rejected > 0 { 1.0 } else { max_fill };
    let at_clamp = out
        .waves
        .iter()
        .any(|(t, _)| *t == clamp.0 || *t == clamp.1);
    let clamp_frac = if at_clamp { 1.0 } else { 0.0 };
    out.proximity = aging_frac.max(fill_frac).max(0.5 * clamp_frac);
    out
}

/// The admission-order oracles (class FIFO, strict priority, aging
/// bound, conservation), plus the shed oracles: no ticket both shed and
/// dispatched, no phantom shed (every shed request carried a deadline),
/// and no early shed (eviction/cancellation at or after the deadline).
/// Checked on a finished replay.
fn check_order_oracles(scenario: &Scenario, out: &mut ReplayOutcome) {
    // Shed conservation: accepted ⇔ (dispatched ∪ evicted) exactly once,
    // with the two sides disjoint — a request is dispatched or shed at
    // pop, never both, and never lost.
    let mut accepted_ids: Vec<u64> = out.accepted.iter().map(|m| m.id).collect();
    let mut resolved: Vec<u64> = out
        .trace
        .iter()
        .map(|r| r.id)
        .chain(out.evicted.iter().map(|e| e.id))
        .collect();
    accepted_ids.sort_unstable();
    resolved.sort_unstable();
    if accepted_ids != resolved {
        out.violations.push(format!(
            "conservation broken: {} accepted vs {} dispatched + {} evicted \
             (lost, duplicated, or both shed and dispatched)",
            accepted_ids.len(),
            out.trace.len(),
            out.evicted.len()
        ));
        return; // positional oracles are meaningless on a broken trace
    }
    // Shed legality, for pop-time evictions and mid-service cancels alike:
    // no phantom shed (only an SLO-carrying request may be shed — for an
    // eviction the deadline is looked up in the admission metadata, not
    // taken from the eviction record) and no early shed (never before the
    // deadline).
    let meta = |id: u64| out.accepted.iter().find(|m| m.id == id);
    let evictions = out.evicted.iter().map(|e| {
        let deadline = meta(e.id).and_then(|m| m.deadline_ns);
        (
            ["phantom shed", "early eviction"],
            e.id,
            deadline,
            e.shed_ns,
        )
    });
    let cancels = out.trace.iter().filter(|r| r.shed_inflight).map(|r| {
        let kinds = ["phantom in-flight shed", "early in-flight shed"];
        (kinds, r.id, r.deadline_ns, r.done_ns)
    });
    for ([phantom, early], id, deadline, at) in evictions.chain(cancels) {
        match deadline {
            None => out
                .violations
                .push(format!("{phantom}: id {id} had no deadline")),
            Some(d) if at < d => out
                .violations
                .push(format!("{early}: id {id} shed at {at} before deadline {d}")),
            Some(_) => {}
        }
    }
    // Positional oracles range over *dispatched* requests only: an
    // evicted request has no dispatch position (its slot in the pop
    // order is exactly where it was discarded).
    let pos = |id: u64| out.trace.iter().position(|r| r.id == id);
    for a in &out.accepted {
        let Some(pa) = pos(a.id) else { continue };
        for b in &out.accepted {
            if a.seq >= b.seq {
                continue;
            }
            let Some(pb) = pos(b.id) else { continue };
            // Class FIFO + strict priority: `a` submitted before `b` and
            // at least as urgent ⇒ dispatched first.
            if a.class.index() <= b.class.index() && pa > pb {
                out.violations.push(format!(
                    "priority inversion: id {} (class {}, seq {}) after later, \
                     less-urgent id {} (class {}, seq {})",
                    a.id, a.class, a.seq, b.id, b.class, b.seq
                ));
            }
            // Aging bound: once `a` has waited class_index × aging_step,
            // nothing submitted after that instant may pass it.
            let bound = a.class.index() as u64 * scenario.aging_step_ns;
            if b.enqueued_ns >= a.enqueued_ns.saturating_add(bound) && pa > pb {
                out.violations.push(format!(
                    "starvation past the aging bound: id {} (class {}) passed by \
                     later id {} (class {})",
                    a.id, a.class, b.id, b.class
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Generation and mutation
// ---------------------------------------------------------------------

/// Generates a random scenario from `rng` (the campaign's initial
/// population and the fall-back when a mutation empties a schedule).
pub fn generate(rng: &mut StdRng, seed: u64, max_events: usize, workers: usize) -> Scenario {
    let capacity = pick(rng, &[2usize, 4, 8, 16]);
    let batch_multiple = pick(rng, &[1usize, 2, 4]);
    let aging_step_ns = pick(rng, &[250_000u64, 1_000_000, 4_000_000]);
    let sizing = if rng.gen_range(0..10u64) < 7 {
        SizingSpec::Dynamic {
            max_multiple: pick(rng, &[2usize, 4, 8]),
            budget_ns: pick(rng, &[500_000u64, 2_000_000, 8_000_000]),
            alpha_milli: pick(rng, &[100u32, 250, 500, 1000]),
        }
    } else {
        SizingSpec::Fixed
    };
    let n = rng.gen_range(8..=max_events.max(9));
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(random_event(rng, aging_step_ns, workers));
    }
    Scenario {
        name: String::new(),
        seed,
        workers,
        capacity,
        batch_multiple,
        aging_step_ns,
        sizing,
        expect_p99_ns: None,
        expect_shed: None,
        events,
    }
}

/// One random event, weighted toward submissions (the schedule's meat).
/// A quarter of the submissions carry an SLO, so every campaign
/// exercises all three shed points alongside plain traffic.
fn random_event(rng: &mut StdRng, aging_step_ns: u64, workers: usize) -> Event {
    match rng.gen_range(0..100u64) {
        0..=39 => Event::Submit(pick(rng, &Priority::ALL), random_service_ns(rng)),
        40..=54 => Event::SubmitSlo(
            pick(rng, &Priority::ALL),
            random_service_ns(rng),
            rng.gen_range(200_000..=30_000_000),
        ),
        55..=74 => Event::Wave,
        75..=89 => Event::Advance(rng.gen_range(0..4 * aging_step_ns.max(1))),
        90..=93 => Event::Stall(
            rng.gen_range(0..workers.max(1)),
            rng.gen_range(100_000..=20_000_000),
        ),
        94..=95 => Event::CloneClient,
        96..=97 => Event::DropClient,
        _ => Event::Shutdown,
    }
}

/// A scripted service duration: mostly sub-millisecond, with a heavy
/// tail of multi-millisecond spikes and occasional zero-duration
/// requests (the degenerate case the controller must survive).
fn random_service_ns(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..10u64) {
        0 => 0,
        1..=6 => rng.gen_range(50_000..=1_200_000),
        7..=8 => rng.gen_range(1_200_000..=8_000_000),
        _ => rng.gen_range(8_000_000..=MAX_DUR_NS),
    }
}

/// Mutates `parent` into a child schedule: 1–3 random operators from the
/// FRET repertoire (perturb a duration, flip a class, insert/delete/
/// duplicate an event span, move the shutdown point, splice in a donor's
/// suffix when one is provided).
pub fn mutate(parent: &Scenario, donor: Option<&Scenario>, rng: &mut StdRng) -> Scenario {
    let mut sc = parent.clone();
    sc.expect_p99_ns = None;
    sc.name.clear();
    let ops = rng.gen_range(1..=3u64);
    for _ in 0..ops {
        mutate_once(&mut sc, donor, rng);
    }
    if sc.events.is_empty() {
        sc.events
            .push(random_event(rng, sc.aging_step_ns, sc.workers));
    }
    sc
}

fn mutate_once(sc: &mut Scenario, donor: Option<&Scenario>, rng: &mut StdRng) {
    let n = sc.events.len();
    match rng.gen_range(0..10u64) {
        // Perturb one duration field (service, gap, or stall).
        0 | 1 => {
            if n == 0 {
                return;
            }
            let i = rng.gen_range(0..n);
            let scale = |rng: &mut StdRng, v: u64| -> u64 {
                match rng.gen_range(0..5u64) {
                    0 => 0,
                    1 => v / 2,
                    2 => v.saturating_mul(2).min(MAX_DUR_NS),
                    3 => v.saturating_mul(10).min(MAX_DUR_NS),
                    _ => random_service_ns(rng),
                }
            };
            match &mut sc.events[i] {
                Event::SubmitSlo(_, service, slo) => {
                    if rng.gen_range(0..2u64) == 0 {
                        *service = scale(rng, *service);
                    } else {
                        *slo = scale(rng, *slo);
                    }
                }
                ev => {
                    if let Some(v) = ev.duration_mut() {
                        *v = scale(rng, *v);
                    }
                }
            }
        }
        // Flip a submission's class.
        2 => {
            if let Some(ev) = sc
                .events
                .iter_mut()
                .filter(|e| matches!(e, Event::Submit(..) | Event::SubmitSlo(..)))
                .nth(rng.gen_range(0..16))
            {
                let flipped = pick(rng, &Priority::ALL);
                match ev {
                    Event::Submit(class, _) | Event::SubmitSlo(class, _, _) => *class = flipped,
                    _ => unreachable!("filtered to submissions"),
                }
            }
        }
        // Insert a random event.
        3 | 4 => {
            let at = rng.gen_range(0..=n);
            let ev = random_event(rng, sc.aging_step_ns, sc.workers);
            sc.events.insert(at, ev);
        }
        // Delete a small span.
        5 => {
            if n == 0 {
                return;
            }
            let at = rng.gen_range(0..n);
            let len = rng.gen_range(1..=4usize).min(n - at);
            sc.events.drain(at..at + len);
        }
        // Duplicate a span (burst amplification).
        6 | 7 => {
            if n == 0 {
                return;
            }
            let at = rng.gen_range(0..n);
            let len = rng.gen_range(1..=6usize).min(n - at);
            let span: Vec<Event> = sc.events[at..at + len].to_vec();
            let insert_at = rng.gen_range(0..=sc.events.len());
            for (k, ev) in span.into_iter().enumerate() {
                sc.events.insert(insert_at + k, ev);
            }
            sc.events.truncate(512); // schedules stay replayable in µs
        }
        // Move (or toggle) the shutdown point.
        8 => {
            sc.events.retain(|e| !matches!(e, Event::Shutdown));
            if rng.gen_range(0..3u64) < 2 {
                let at = rng.gen_range(0..=sc.events.len());
                sc.events.insert(at, Event::Shutdown);
            }
        }
        // Crossover: keep a prefix, splice in the donor's suffix.
        _ => {
            if let Some(d) = donor {
                if n > 0 && !d.events.is_empty() {
                    let cut = rng.gen_range(0..n);
                    let dcut = rng.gen_range(0..d.events.len());
                    sc.events.truncate(cut);
                    sc.events.extend_from_slice(&d.events[dcut..]);
                    sc.events.truncate(512);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Minimization (delta debugging)
// ---------------------------------------------------------------------

/// Delta-debugs `scenario` down while `keep` stays true: repeatedly
/// drops event chunks (halving granularity, classic ddmin), then shrinks
/// surviving durations toward zero. `keep` is called on candidates only;
/// the returned scenario always satisfies it. Deterministic, and bounded
/// by `max_checks` predicate evaluations.
pub fn minimize(
    scenario: &Scenario,
    max_checks: usize,
    mut keep: impl FnMut(&Scenario) -> bool,
) -> Scenario {
    debug_assert!(keep(scenario), "minimize() needs an interesting input");
    let mut best = scenario.clone();
    let mut checks = 0usize;
    // Phase 1: chunk removal.
    let mut chunk = (best.events.len() / 2).max(1);
    while chunk >= 1 && checks < max_checks {
        let mut i = 0;
        let mut removed_any = false;
        while i < best.events.len() && checks < max_checks {
            let mut cand = best.clone();
            let end = (i + chunk).min(cand.events.len());
            cand.events.drain(i..end);
            checks += 1;
            if !cand.events.is_empty() && keep(&cand) {
                best = cand;
                removed_any = true;
                // Same index now holds the next chunk.
            } else {
                i += chunk;
            }
        }
        if chunk == 1 && !removed_any {
            break;
        }
        if !removed_any {
            chunk /= 2;
        }
    }
    // Phase 2: shrink durations (0, then halves) while still interesting.
    for i in 0..best.events.len() {
        if checks >= max_checks {
            break;
        }
        let mut orig = best.events[i];
        let Some(mut v) = orig.duration_mut().map(|v| *v) else {
            continue;
        };
        let with = |v: u64| {
            let mut ev = orig;
            *ev.duration_mut().expect("checked above") = v;
            ev
        };
        // Try zero first (biggest shrink), then binary descent.
        let mut cand = best.clone();
        cand.events[i] = with(0);
        checks += 1;
        if keep(&cand) {
            best = cand;
            continue;
        }
        while v > 1 && checks < max_checks {
            let half = v / 2;
            let mut cand = best.clone();
            cand.events[i] = with(half);
            checks += 1;
            if keep(&cand) {
                best = cand;
                v = half;
            } else {
                break;
            }
        }
    }
    best
}

// ---------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------

/// Knobs of one fuzz campaign. Everything is deterministic in `seed`.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed: same seed → same campaign, bit for bit.
    pub seed: u64,
    /// Mutation iterations to run.
    pub iters: usize,
    /// Population size of the score-guided pool.
    pub pool: usize,
    /// Event-count ceiling for generated scenarios.
    pub max_events: usize,
    /// Simulated worker count of every scenario.
    pub workers: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xF4E7,
            iters: 2_000,
            pool: 12,
            max_events: 96,
            workers: 2,
        }
    }
}

/// One minimized oracle violation a campaign found.
#[derive(Clone, Debug)]
pub struct ViolationFinding {
    /// The minimized reproducer.
    pub scenario: Scenario,
    /// The first oracle message of the (minimized) replay.
    pub detail: String,
}

/// The result of [`run_campaign`].
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The config the campaign ran with.
    pub config: FuzzConfig,
    /// Scenarios replayed (pool init + iterations + minimization).
    pub executed: usize,
    /// The worst interactive p99 observed, nanoseconds.
    pub worst_p99_ns: u64,
    /// The minimized worst-case scenario (with `expect_p99_ns` recorded),
    /// ready for [`Scenario::to_ron`].
    pub worst: Scenario,
    /// The minimized *max-shed* scenario (with both `expect_p99_ns` and
    /// `expect_shed` recorded), when any violation-free schedule the
    /// campaign tried shed at all. Tracked separately from `worst`
    /// because the p99 score actively selects *away* from shedding:
    /// evicted and cancelled requests leave the latency population, so
    /// the champion schedule for tail latency is usually one where every
    /// SLO is met or absent. This secondary champion is what pins the
    /// shed-accounting semantics in the corpus.
    pub worst_shed: Option<Scenario>,
    /// `(iteration, p99_ns)` at every strict improvement — the search
    /// trajectory (iteration 0 = the best of the initial pool).
    pub improvements: Vec<(usize, u64)>,
    /// Minimized oracle violations (empty when the invariants held on
    /// every schedule tried — the expected steady state).
    pub violations: Vec<ViolationFinding>,
}

impl CampaignReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "seed={:#x} iters={} executed={} worst_interactive_p99={:.3}ms \
             improvements={} violations={}",
            self.config.seed,
            self.config.iters,
            self.executed,
            self.worst_p99_ns as f64 / 1e6,
            self.improvements.len(),
            self.violations.len(),
        )
    }
}

/// Runs a seeded, deterministic fuzz campaign: generate a pool, then
/// `iters` rounds of tournament-select → mutate → replay → score. New
/// worst-case p99s and oracle violations are delta-debugged down before
/// they are reported. Pure in `config` — no wall clock anywhere.
pub fn run_campaign(config: &FuzzConfig) -> CampaignReport {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut search = Search::default();
    let mut pool: Vec<(Scenario, u64, f64)> = Vec::with_capacity(config.pool);

    // Initial population.
    for _ in 0..config.pool.max(1) {
        let sc = generate(&mut rng, config.seed, config.max_events, config.workers);
        let out = search.score(&sc, 0);
        pool.push((sc, out.interactive_p99_ns, out.proximity));
    }
    // Iteration 0 is the best of the initial pool, not each step toward it.
    search.improvements = vec![(0, search.best.as_ref().expect("non-empty pool").1)];

    // Search loop.
    for iter in 1..=config.iters {
        let parent = {
            let a = rng.gen_range(0..pool.len());
            let b = rng.gen_range(0..pool.len());
            if pool[a].1 >= pool[b].1 {
                a
            } else {
                b
            }
        };
        let donor_idx = rng.gen_range(0..pool.len());
        let donor = (rng.gen_range(0..100u64) < 15).then(|| &pool[donor_idx].0);
        let child = mutate(&pool[parent].0, donor, &mut rng);
        let out = search.score(&child, iter);
        // Pool update: replace the weakest member when the child beats it
        // on either signal (p99 or oracle proximity).
        let weakest = (0..pool.len())
            .min_by(|&a, &b| {
                (pool[a].1, pool[a].2)
                    .partial_cmp(&(pool[b].1, pool[b].2))
                    .unwrap()
            })
            .unwrap();
        if out.interactive_p99_ns > pool[weakest].1 || out.proximity > pool[weakest].2 {
            pool[weakest] = (child, out.interactive_p99_ns, out.proximity);
        }
    }

    // Minimize the champion while its p99 stays at least as bad, then
    // record the exact expectation for corpus replay.
    let (champion, champion_p99) = search.best.take().expect("non-empty pool");
    let mut worst = if champion_p99 > 0 {
        search.minimize(&champion, 1_500, |out| {
            out.violations.is_empty() && out.interactive_p99_ns >= champion_p99
        })
    } else {
        champion
    };
    let final_out = search.replay(&worst);
    worst.expect_p99_ns = Some(final_out.interactive_p99_ns);
    // Pin the shed count only when the schedule actually sheds: the
    // field is omitted from serialization when `None`, which keeps
    // pre-SLO corpus files byte-identical.
    worst.expect_shed = (final_out.shed_total() > 0).then(|| final_out.shed_total());
    worst.name = format!("fuzz-worst-{:08x}", config.seed);

    // Minimize the max-shed champion while it keeps shedding at least as
    // much, then pin *both* counts for corpus replay.
    let worst_shed = search.best_shed.take().map(|(champion, shed)| {
        let mut m = search.minimize(&champion, 1_500, |out| {
            out.violations.is_empty() && out.shed_total() >= shed
        });
        let out = search.replay(&m);
        m.expect_p99_ns = Some(out.interactive_p99_ns);
        m.expect_shed = Some(out.shed_total());
        m.name = format!("fuzz-shed-{:08x}", config.seed);
        m
    });

    CampaignReport {
        config: config.clone(),
        executed: search.executed,
        worst_p99_ns: final_out.interactive_p99_ns,
        worst,
        worst_shed,
        improvements: search.improvements,
        violations: search.violations,
    }
}

/// What a campaign has found so far, and how many replays it cost.
#[derive(Default)]
struct Search {
    /// Scenarios replayed (scoring + minimization).
    executed: usize,
    /// Worst interactive p99 so far.
    best: Option<(Scenario, u64)>,
    /// Most sheds on a violation-free schedule so far.
    best_shed: Option<(Scenario, u64)>,
    improvements: Vec<(usize, u64)>,
    violations: Vec<ViolationFinding>,
    /// One minimized reproducer per violation kind (the leading word of
    /// the message) keeps the corpus meaningful.
    seen_violation_kinds: Vec<String>,
}

impl Search {
    fn replay(&mut self, sc: &Scenario) -> ReplayOutcome {
        self.executed += 1;
        replay(sc)
    }

    /// [`minimize`] while `keep` holds of the candidate's replay.
    fn minimize(
        &mut self,
        sc: &Scenario,
        max_checks: usize,
        keep: impl Fn(&ReplayOutcome) -> bool,
    ) -> Scenario {
        minimize(sc, max_checks, |cand| keep(&self.replay(cand)))
    }

    /// Replays one candidate of iteration `iter` and folds it into the
    /// champions, the trajectory and the violation list.
    fn score(&mut self, sc: &Scenario, iter: usize) -> ReplayOutcome {
        let out = self.replay(sc);
        if let Some(first) = out.violations.first() {
            let kind = first.split(':').next().unwrap_or(first).to_string();
            if !self.seen_violation_kinds.contains(&kind) {
                self.seen_violation_kinds.push(kind);
                let scenario = self.minimize(sc, 800, |out| !out.violations.is_empty());
                let detail = self.replay(&scenario).violations.first().cloned();
                self.violations.push(ViolationFinding {
                    scenario,
                    detail: detail.unwrap_or_default(),
                });
            }
        }
        let p99 = out.interactive_p99_ns;
        if self.best.as_ref().map_or(true, |(_, p)| p99 > *p) {
            self.best = Some((sc.clone(), p99));
            self.improvements.push((iter, p99));
        }
        let shed = out.shed_total();
        if out.violations.is_empty() && shed > self.best_shed.as_ref().map_or(0, |(_, n)| *n) {
            self.best_shed = Some((sc.clone(), shed));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Hand-written baselines
// ---------------------------------------------------------------------

/// The hand-written stress patterns of `tests/serve_qos.rs` /
/// `tests/serve_queue.rs` / the mixed-QoS bench, re-expressed as
/// scenarios on the same virtual clock. The corpus suite compares the
/// fuzzer's worst case against these: the acceptance bar is a committed
/// scenario whose interactive p99 is *strictly worse than every one of
/// them* — evidence the search reaches tails the hand-written tests
/// never did.
pub fn baseline_scenarios() -> Vec<Scenario> {
    let base = |name: &str, sizing: SizingSpec, batch_multiple: usize| Scenario {
        name: name.to_string(),
        seed: 0,
        workers: 2,
        capacity: 8,
        batch_multiple,
        aging_step_ns: 1_000_000,
        sizing,
        expect_p99_ns: None,
        expect_shed: None,
        events: Vec::new(),
    };
    let dynamic = SizingSpec::Dynamic {
        max_multiple: 8,
        budget_ns: 2_000_000,
        alpha_milli: 250,
    };

    // 1. The anti-starvation storm: one batch request under a hot
    //    interactive stream, fixed waves of 2, 0.3 ms services.
    let mut storm = base("hand-aged-batch-storm", SizingSpec::Fixed, 1);
    storm.events.push(Event::Submit(Priority::Batch, 300_000));
    for _ in 0..40 {
        storm
            .events
            .push(Event::Submit(Priority::Interactive, 300_000));
        storm
            .events
            .push(Event::Submit(Priority::Interactive, 300_000));
        storm.events.push(Event::Wave);
    }

    // 2. The three-class round-robin storm with 0.2–1.1 ms services
    //    (the serve_queue QoS stress, on the virtual clock).
    let mut classes = base("hand-three-class-storm", dynamic, 2);
    for i in 0..90u64 {
        let class = Priority::ALL[(i % 3) as usize];
        classes
            .events
            .push(Event::Submit(class, 200_000 + (i % 7) * 150_000));
        if i % 4 == 3 {
            classes.events.push(Event::Wave);
        }
    }

    // 3. A uniform interactive burst at the default dynamic sizing.
    let mut burst = base("hand-uniform-burst", dynamic, 4);
    burst.capacity = 64;
    for _ in 0..64 {
        burst
            .events
            .push(Event::Submit(Priority::Interactive, 1_000_000));
    }

    // 4. Saturating batch background with an interactive trickle (the
    //    mixed-QoS bench arm): batch floods, one interactive per wave.
    let mut mixed = base("hand-saturating-batch-bg", dynamic, 4);
    mixed.capacity = 24;
    for _ in 0..24 {
        mixed.events.push(Event::Submit(Priority::Batch, 900_000));
    }
    for _ in 0..16 {
        mixed
            .events
            .push(Event::Submit(Priority::Interactive, 250_000));
        mixed.events.push(Event::Wave);
    }
    vec![storm, classes, burst, mixed]
}

// ---------------------------------------------------------------------
// RON-style serialization
// ---------------------------------------------------------------------

impl Scenario {
    /// Serializes the scenario as a RON-style committed script — the
    /// corpus file format. Round-trips exactly through
    /// [`Scenario::from_ron`].
    pub fn to_ron(&self) -> String {
        use fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "// serve-schedule scenario (rdg_fuzz_serve); replayed by \
             tests/serve_fuzz_corpus.rs"
        );
        let _ = writeln!(s, "(");
        let _ = writeln!(s, "    name: \"{}\",", self.name);
        let _ = writeln!(s, "    seed: {},", self.seed);
        let _ = writeln!(s, "    workers: {},", self.workers);
        let _ = writeln!(s, "    capacity: {},", self.capacity);
        let _ = writeln!(s, "    batch_multiple: {},", self.batch_multiple);
        let _ = writeln!(s, "    aging_step_ns: {},", self.aging_step_ns);
        match self.sizing {
            SizingSpec::Fixed => {
                let _ = writeln!(s, "    sizing: Fixed,");
            }
            SizingSpec::Dynamic {
                max_multiple,
                budget_ns,
                alpha_milli,
            } => {
                let _ = writeln!(
                    s,
                    "    sizing: Dynamic(max_multiple: {max_multiple}, \
                     budget_ns: {budget_ns}, alpha_milli: {alpha_milli}),"
                );
            }
        }
        // `Option<u64>`, `Event` and `Priority` are written through their
        // derived `Debug` form, which *is* the corpus syntax: `Some(5)`,
        // `None`, `Submit(Batch, 300000)`, `Wave`.
        let _ = writeln!(s, "    expect_p99_ns: {:?},", self.expect_p99_ns);
        // Omitted (not `None`) when unset: pre-SLO corpus files round-trip
        // byte-identically through a serializer that never saw the field.
        if self.expect_shed.is_some() {
            let _ = writeln!(s, "    expect_shed: {:?},", self.expect_shed);
        }
        let _ = writeln!(s, "    events: [");
        for ev in &self.events {
            let _ = writeln!(s, "        {ev:?},");
        }
        let _ = writeln!(s, "    ],");
        let _ = writeln!(s, ")");
        s
    }

    /// Parses a scenario from its [`Scenario::to_ron`] form. `//`
    /// comments and trailing commas are tolerated; unknown fields are
    /// errors (a corpus file that drifts from the schema should fail
    /// loudly, not silently lose meaning).
    pub fn from_ron(text: &str) -> Result<Scenario, String> {
        let mut p = Parser::new(text);
        p.expect("(")?;
        let mut sc = Scenario {
            name: String::new(),
            seed: 0,
            workers: 1,
            capacity: 1,
            batch_multiple: 1,
            aging_step_ns: 0,
            sizing: SizingSpec::Fixed,
            expect_p99_ns: None,
            expect_shed: None,
            events: Vec::new(),
        };
        loop {
            if p.eat(")") {
                break;
            }
            let field = p.ident()?;
            p.expect(":")?;
            match field.as_str() {
                "name" => sc.name = p.string()?,
                "seed" => sc.seed = p.number()?,
                "workers" => sc.workers = p.number()? as usize,
                "capacity" => sc.capacity = p.number()? as usize,
                "batch_multiple" => sc.batch_multiple = p.number()? as usize,
                "aging_step_ns" => sc.aging_step_ns = p.number()?,
                "sizing" => sc.sizing = p.sizing()?,
                "expect_p99_ns" => sc.expect_p99_ns = p.option_number()?,
                "expect_shed" => sc.expect_shed = p.option_number()?,
                "events" => sc.events = p.events()?,
                other => return Err(format!("unknown scenario field `{other}`")),
            }
            p.eat(",");
        }
        Ok(sc)
    }
}

fn class_from_token(tok: &str) -> Result<Priority, String> {
    (Priority::ALL.into_iter())
        .find(|class| format!("{class:?}") == tok)
        .ok_or_else(|| format!("unknown priority class `{tok}`"))
}

fn number(tok: &str) -> Result<u64, String> {
    tok.parse::<u64>()
        .map_err(|_| format!("expected number, found `{tok}`"))
}

/// Minimal recursive-descent parser over the corpus grammar: idents,
/// integers, quoted strings, and the punctuation `( ) [ ] , :`.
struct Parser {
    tokens: Vec<String>,
    pos: usize,
}

impl Parser {
    fn new(text: &str) -> Self {
        let mut tokens = Vec::new();
        for line in text.lines() {
            let line = match line.find("//") {
                Some(i) => &line[..i],
                None => line,
            };
            let mut cur = String::new();
            let mut chars = line.chars().peekable();
            while let Some(c) = chars.next() {
                match c {
                    '"' => {
                        if !cur.is_empty() {
                            tokens.push(std::mem::take(&mut cur));
                        }
                        let mut s = String::from("\"");
                        for c2 in chars.by_ref() {
                            if c2 == '"' {
                                break;
                            }
                            s.push(c2);
                        }
                        tokens.push(s);
                    }
                    '(' | ')' | '[' | ']' | ',' | ':' => {
                        if !cur.is_empty() {
                            tokens.push(std::mem::take(&mut cur));
                        }
                        tokens.push(c.to_string());
                    }
                    c if c.is_whitespace() => {
                        if !cur.is_empty() {
                            tokens.push(std::mem::take(&mut cur));
                        }
                    }
                    c => cur.push(c),
                }
            }
            if !cur.is_empty() {
                tokens.push(cur);
            }
        }
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> Option<&str> {
        self.tokens.get(self.pos).map(String::as_str)
    }

    fn next(&mut self) -> Result<String, String> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| "unexpected end of input".to_string())?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, tok: &str) -> Result<(), String> {
        let t = self.next()?;
        if t == tok {
            Ok(())
        } else {
            Err(format!("expected `{tok}`, found `{t}`"))
        }
    }

    fn eat(&mut self, tok: &str) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, String> {
        let t = self.next()?;
        if t.chars().all(|c| c.is_alphanumeric() || c == '_') && !t.is_empty() {
            Ok(t)
        } else {
            Err(format!("expected identifier, found `{t}`"))
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        number(&self.next()?)
    }

    fn string(&mut self) -> Result<String, String> {
        let t = self.next()?;
        t.strip_prefix('"')
            .map(str::to_string)
            .ok_or_else(|| format!("expected string, found `{t}`"))
    }

    /// The tokens of a parenthesized, comma-separated argument list — or
    /// none, when the next token does not open one (`Wave`, `None`).
    fn args(&mut self) -> Result<Vec<String>, String> {
        let mut args = Vec::new();
        if self.eat("(") {
            while !self.eat(")") {
                args.push(self.next()?);
                self.eat(",");
            }
        }
        Ok(args)
    }

    fn option_number(&mut self) -> Result<Option<u64>, String> {
        let t = self.ident()?;
        match (t.as_str(), self.args()?.as_slice()) {
            ("None", []) => Ok(None),
            ("Some", [v]) => Ok(Some(number(v)?)),
            _ => Err(format!("expected Some(..) or None, found `{t}`")),
        }
    }

    fn sizing(&mut self) -> Result<SizingSpec, String> {
        let t = self.ident()?;
        match t.as_str() {
            "Fixed" => Ok(SizingSpec::Fixed),
            "Dynamic" => {
                self.expect("(")?;
                let (mut max_multiple, mut budget_ns, mut alpha_milli) = (1usize, 0u64, 0u32);
                loop {
                    if self.eat(")") {
                        break;
                    }
                    let f = self.ident()?;
                    self.expect(":")?;
                    match f.as_str() {
                        "max_multiple" => max_multiple = self.number()? as usize,
                        "budget_ns" => budget_ns = self.number()?,
                        "alpha_milli" => alpha_milli = self.number()? as u32,
                        other => return Err(format!("unknown sizing field `{other}`")),
                    }
                    self.eat(",");
                }
                Ok(SizingSpec::Dynamic {
                    max_multiple,
                    budget_ns,
                    alpha_milli,
                })
            }
            other => Err(format!("unknown sizing `{other}`")),
        }
    }

    fn events(&mut self) -> Result<Vec<Event>, String> {
        self.expect("[")?;
        let mut events = Vec::new();
        loop {
            if self.eat("]") {
                break;
            }
            let t = self.ident()?;
            let ev = match (t.as_str(), self.args()?.as_slice()) {
                ("Advance", [ns]) => Event::Advance(number(ns)?),
                ("Submit", [class, service]) => {
                    Event::Submit(class_from_token(class)?, number(service)?)
                }
                ("SubmitSlo", [class, service, slo]) => {
                    Event::SubmitSlo(class_from_token(class)?, number(service)?, number(slo)?)
                }
                ("Wave", []) => Event::Wave,
                ("Stall", [lane, dur]) => Event::Stall(number(lane)? as usize, number(dur)?),
                ("CloneClient", []) => Event::CloneClient,
                ("DropClient", []) => Event::DropClient,
                ("Shutdown", []) => Event::Shutdown,
                _ => return Err(format!("unknown or malformed event `{t}`")),
            };
            events.push(ev);
            self.eat(",");
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> Scenario {
        Scenario {
            name: "tiny".into(),
            seed: 7,
            workers: 2,
            capacity: 4,
            batch_multiple: 2,
            aging_step_ns: 1_000_000,
            sizing: SizingSpec::Dynamic {
                max_multiple: 8,
                budget_ns: 2_000_000,
                alpha_milli: 250,
            },
            expect_p99_ns: None,
            expect_shed: None,
            events: vec![
                Event::Submit(Priority::Batch, 300_000),
                Event::Advance(1_500_000),
                Event::Submit(Priority::Interactive, 200_000),
                Event::Wave,
                Event::Stall(0, 5_000_000),
                Event::Submit(Priority::Interactive, 100_000),
                Event::CloneClient,
                Event::DropClient,
                Event::Shutdown,
            ],
        }
    }

    #[test]
    fn replay_is_deterministic_and_conserving() {
        let sc = tiny_scenario();
        let a = replay(&sc);
        let b = replay(&sc);
        assert_eq!(a.waves, b.waves);
        assert_eq!(a.interactive_p99_ns, b.interactive_p99_ns);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.accepted.len(), a.trace.len());
    }

    #[test]
    fn aged_batch_dispatches_first_in_replay() {
        let sc = tiny_scenario();
        let out = replay(&sc);
        // The batch request aged one full step before the interactive
        // arrived: it must dispatch first (earlier enqueue, effective 0).
        assert_eq!(out.waves[0].1[0], 0, "aged batch leads the first wave");
    }

    #[test]
    fn fused_replay_is_deterministic_and_keeps_oracles() {
        let sc = tiny_scenario();
        for mg in [1usize, 2, 4, 16] {
            let a = replay_fused(&sc, mg);
            let b = replay_fused(&sc, mg);
            assert_eq!(a.waves, b.waves, "max_group {mg}");
            assert!(
                a.violations.is_empty(),
                "max_group {mg}: {:?}",
                a.violations
            );
            assert_eq!(
                a.accepted.len(),
                a.trace.len() + a.evicted.len(),
                "fused conservation"
            );
        }
    }

    #[test]
    fn fused_groups_shorten_the_drain_without_reordering() {
        // One worker, one fixed wave of eight identical 1 ms requests:
        // same-duration ⇒ same signature, so max_group 4 yields two
        // stacked calls of the member max (2 ms total) where the scalar
        // twin serializes all eight (8 ms) — with an identical pop order.
        let mut events = vec![Event::Submit(Priority::Interactive, 1_000_000); 8];
        events.push(Event::Wave);
        let sc = Scenario {
            name: "fused-burst".into(),
            seed: 0,
            workers: 1,
            capacity: 8,
            batch_multiple: 8,
            aging_step_ns: 1_000_000,
            sizing: SizingSpec::Fixed,
            expect_p99_ns: None,
            expect_shed: None,
            events,
        };
        let scalar = replay(&sc);
        let fused = replay_fused(&sc, 4);
        assert!(scalar.violations.is_empty(), "{:?}", scalar.violations);
        assert!(fused.violations.is_empty(), "{:?}", fused.violations);
        assert_eq!(
            scalar.waves, fused.waves,
            "fusion must not change pop order"
        );
        let drain = |o: &ReplayOutcome| o.trace.iter().map(|r| r.done_ns).max().unwrap();
        assert_eq!(drain(&scalar), 8_000_000);
        assert_eq!(drain(&fused), 2_000_000);
    }

    #[test]
    fn ron_round_trips_exactly() {
        let mut sc = tiny_scenario();
        sc.expect_p99_ns = Some(123_456);
        let text = sc.to_ron();
        let back = Scenario::from_ron(&text).unwrap();
        assert_eq!(sc, back);
        // Fixed sizing too.
        sc.sizing = SizingSpec::Fixed;
        sc.expect_p99_ns = None;
        let back = Scenario::from_ron(&sc.to_ron()).unwrap();
        assert_eq!(sc, back);
    }

    #[test]
    fn parser_rejects_unknown_fields_and_events() {
        let bad = "(name: \"x\", wibble: 3,)";
        assert!(Scenario::from_ron(bad).unwrap_err().contains("wibble"));
        let bad = "(events: [Explode,],)";
        assert!(Scenario::from_ron(bad).unwrap_err().contains("Explode"));
    }

    #[test]
    fn minimize_keeps_the_predicate_and_shrinks() {
        let sc = tiny_scenario();
        let full = replay(&sc);
        let target = full.interactive_p99_ns;
        assert!(target > 0);
        let min = minimize(&sc, 500, |cand| replay(cand).interactive_p99_ns >= target);
        assert!(replay(&min).interactive_p99_ns >= target);
        assert!(min.events.len() <= sc.events.len());
    }

    #[test]
    fn shutdown_closes_admission_but_drains() {
        let mut sc = tiny_scenario();
        sc.events.push(Event::Submit(Priority::Interactive, 100));
        let out = replay(&sc);
        assert_eq!(out.rejected, 1, "post-shutdown submit rejected");
        // Everything accepted before shutdown still dispatched.
        assert_eq!(out.accepted.len(), out.trace.len());
    }

    #[test]
    fn campaign_is_deterministic_in_the_seed() {
        let cfg = FuzzConfig {
            iters: 40,
            ..FuzzConfig::default()
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.worst_p99_ns, b.worst_p99_ns);
        assert_eq!(a.worst, b.worst);
        assert_eq!(a.improvements, b.improvements);
        assert_eq!(a.executed, b.executed);
        assert!(
            a.violations.is_empty(),
            "oracle violation: {:?}",
            a.violations
        );
    }

    #[test]
    fn baselines_replay_clean() {
        for sc in baseline_scenarios() {
            let out = replay(&sc);
            assert!(
                out.violations.is_empty(),
                "{}: {:?}",
                sc.name,
                out.violations
            );
            assert!(
                out.interactive_p99_ns > 0,
                "{} has interactive traffic",
                sc.name
            );
        }
    }
}
