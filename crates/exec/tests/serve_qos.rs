//! QoS admission-order invariants, proved deterministically.
//!
//! The dispatcher's scheduling decisions (class pick, aging promotion,
//! wave sizing) are pure functions of the queue contents and a nanosecond
//! timestamp, exposed through `rdg_exec::serve::test_support::ScriptedServe`
//! — a virtual-clock twin of the live dispatcher. The property tests here
//! drive it with random submission scripts and assert the admission-order
//! contract *exactly* on the dispatch trace, with zero sleeps:
//!
//! 1. **Class FIFO** — within one class, dispatch order is submission
//!    order.
//! 2. **Strict priority** — a request never dispatches after a
//!    later-submitted request of equal or lower urgency (in particular, a
//!    higher class never waits behind a *later* lower-class request at
//!    all).
//! 3. **Aging bound** — once a request has waited
//!    `class_index × aging_step`, nothing submitted after that point (any
//!    class) passes it: starvation is bounded.
//! 4. **Conservation** — every accepted request appears in the dispatch
//!    trace exactly once; rejected ones never do; wave sizes respect the
//!    controller's clamped target.
//!
//! A second group runs the *real* serving loop through random
//! submit/clone/drop/shutdown interleavings and asserts the accounting
//! closes exactly (no request lost or duplicated) — thread scheduling may
//! vary, the asserted counters may not.

use proptest::prelude::*;
use rdg_exec::serve::test_support::{ScriptedRequest, ScriptedServe};
use rdg_exec::{Executor, Priority, ServeConfig, ServeError, Session, WaveSizing};
use rdg_graph::{Module, ModuleBuilder};
use rdg_tensor::{DType, Tensor};
use std::time::Duration;

const STEP_NS: u64 = 1_000_000; // 1 ms aging step in every scripted run

fn scripted_config() -> ServeConfig {
    ServeConfig {
        capacity: 8,
        batch_multiple: 2,
        sizing: WaveSizing::default(),
        aging_step: Duration::from_nanos(STEP_NS),
        ..ServeConfig::default()
    }
}

fn class_of(idx: u8) -> Priority {
    Priority::ALL[idx as usize % Priority::COUNT]
}

/// Scripted service time: deterministic per request id, 0.2–1.1 ms.
fn service_ns(id: u64) -> u64 {
    200_000 + (id % 7) * 150_000
}

/// Metadata of one accepted submission: (class, enqueue ns, submit seq).
struct Submitted {
    class: Priority,
    enqueued_ns: u64,
    seq: usize,
}

/// Runs a random script through the harness and returns, per accepted
/// request id, its submission metadata plus the full dispatch trace in
/// dispatch order.
fn run_script(script: &[(u8, u64, u8)]) -> (Vec<Option<Submitted>>, Vec<ScriptedRequest>) {
    let mut harness = ScriptedServe::new(2, &scripted_config());
    let mut meta: Vec<Option<Submitted>> = Vec::new();
    let mut trace: Vec<ScriptedRequest> = Vec::new();
    let mut seq = 0usize;
    for &(class_idx, gap_ns, wave_die) in script {
        harness.advance(gap_ns);
        let class = class_of(class_idx);
        let id = meta.len() as u64;
        if harness.submit(class, id) {
            meta.push(Some(Submitted {
                class,
                enqueued_ns: harness.now_ns(),
                seq,
            }));
            seq += 1;
        } else {
            meta.push(None); // rejected: full lane
        }
        if wave_die == 0 {
            if let Some(wave) = harness.run_wave(service_ns) {
                assert!(wave.requests.len() <= wave.target, "wave overflows target");
                trace.extend(wave.requests);
            }
        }
    }
    // Final drain: every accepted request must eventually dispatch.
    while let Some(wave) = harness.run_wave(service_ns) {
        assert!(wave.requests.len() <= wave.target);
        trace.extend(wave.requests);
    }
    (meta, trace)
}

proptest! {
    #[test]
    fn admission_order_invariants_hold_on_arbitrary_scripts(
        script in prop::collection::vec((0u8..3, 0u64..3 * STEP_NS, 0u8..4), 1..48)
    ) {
        let (meta, trace) = run_script(&script);

        // 4. Conservation: accepted ⇔ dispatched exactly once.
        let accepted: Vec<u64> = meta
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_some())
            .map(|(id, _)| id as u64)
            .collect();
        let mut dispatched: Vec<u64> = trace.iter().map(|r| r.id).collect();
        dispatched.sort_unstable();
        prop_assert_eq!(
            &dispatched, &accepted,
            "dispatch trace ≠ accepted set (lost or duplicated request)"
        );

        // Position of each id in the dispatch trace.
        let pos = |id: u64| trace.iter().position(|r| r.id == id).unwrap();
        for &a in &accepted {
            let ma = meta[a as usize].as_ref().unwrap();
            for &b in &accepted {
                if a == b {
                    continue;
                }
                let mb = meta[b as usize].as_ref().unwrap();
                // 1+2. Strict priority with class FIFO: `a` submitted
                // before `b` and at least as urgent ⇒ dispatched first.
                if ma.seq < mb.seq && ma.class.index() <= mb.class.index() {
                    prop_assert!(
                        pos(a) < pos(b),
                        "id {} (class {}, seq {}) dispatched after later, \
                         less-urgent id {} (class {}, seq {})",
                        a, ma.class, ma.seq, b, mb.class, mb.seq
                    );
                }
                // 3. Aging bound: once `a` has waited
                // class_index × aging_step, later submissions of ANY
                // class cannot pass it.
                let bound = ma.class.index() as u64 * STEP_NS;
                if ma.seq < mb.seq && mb.enqueued_ns >= ma.enqueued_ns + bound {
                    prop_assert!(
                        pos(a) < pos(b),
                        "id {} (class {}) starved past its aging bound by \
                         later id {} (class {})",
                        a, ma.class, b, mb.class
                    );
                }
            }
        }

        // Wait times in the trace are consistent with the timestamps the
        // invariants above reasoned over.
        for r in &trace {
            let m = meta[r.id as usize].as_ref().unwrap();
            prop_assert_eq!(r.enqueued_ns, m.enqueued_ns);
            prop_assert_eq!(r.class, m.class);
        }
    }

    #[test]
    fn wave_targets_stay_clamped_on_arbitrary_scripts(
        script in prop::collection::vec((0u8..3, 0u64..STEP_NS, 0u8..2), 1..40)
    ) {
        // Under the default dynamic sizing with 2 workers and max ×8, the
        // target must stay in [2, 16] at every decision point, whatever
        // the script's service times do to the EWMA.
        let mut harness = ScriptedServe::new(2, &scripted_config());
        let mut id = 0u64;
        for &(class_idx, gap_ns, wave_die) in &script {
            harness.advance(gap_ns);
            harness.submit(class_of(class_idx), id);
            id += 1;
            prop_assert!((2..=16).contains(&harness.wave_target()));
            if wave_die == 0 {
                // Service times spread 0.05–10 ms: both clamps reachable.
                harness.run_wave(|id| 50_000 + (id % 5) * 2_500_000);
                prop_assert!((2..=16).contains(&harness.wave_target()));
            }
        }
    }
}

/// The aging bound, demonstrated on exact numbers: a `Batch` request
/// under a continuous `Interactive` stream dispatches within one aging
/// step — not after the stream ends.
#[test]
fn aged_batch_request_is_not_starved_by_a_hot_interactive_stream() {
    // Fixed waves of exactly 2 (= the interactive arrival rate per
    // wave), so the interactive lane alone can fill every wave forever —
    // only aging can get the batch request through.
    let mut h = ScriptedServe::new(
        2,
        &ServeConfig {
            batch_multiple: 1,
            sizing: WaveSizing::Fixed,
            aging_step: Duration::from_nanos(STEP_NS),
            ..scripted_config()
        },
    );
    let mut next_id = 0u64;
    h.submit(Priority::Batch, {
        next_id += 1;
        0
    });
    let mut batch_done_after_waves = None;
    for wave_no in 0..40 {
        // Two fresh interactive requests arrive before every wave: the
        // interactive lane is never empty.
        for _ in 0..2 {
            assert!(h.submit(Priority::Interactive, next_id));
            next_id += 1;
        }
        let wave = h.run_wave(|_| 300_000).unwrap(); // 0.3 ms each
        if wave.requests.iter().any(|r| r.id == 0) {
            let r = wave.requests.iter().find(|r| r.id == 0).unwrap();
            assert!(
                r.wait_ns <= STEP_NS + 2 * 300_000 * 2,
                "batch waited {} ns, far past the 1 ms aging step",
                r.wait_ns
            );
            batch_done_after_waves = Some(wave_no);
            break;
        }
    }
    let waves = batch_done_after_waves.expect("batch request starved for 40 waves");
    assert!(waves > 0, "strict priority held while the batch was fresh");
}

/// Interactive admission is never blocked by a saturated lower-class
/// lane: per-class capacity is the tentpole's backpressure contract.
#[test]
fn saturated_batch_lane_does_not_block_interactive_admission() {
    let mut h = ScriptedServe::new(2, &scripted_config());
    for id in 0..8 {
        assert!(h.submit(Priority::Batch, id));
    }
    assert!(!h.submit(Priority::Batch, 8), "batch lane is full");
    assert!(
        h.submit(Priority::Interactive, 9),
        "interactive lane must still admit"
    );
    assert_eq!(h.queue_depth_class(Priority::Batch), 8);
    assert_eq!(h.queue_depth_class(Priority::Interactive), 1);
}

// ---------------------------------------------------------------------
// WaveController under adversarial service-time sequences.
// ---------------------------------------------------------------------

const WORKERS: usize = 2;
const MAX_MULTIPLE: usize = 8;
const BUDGET_NS: u64 = 2_000_000;

fn adversarial_config() -> ServeConfig {
    ServeConfig {
        capacity: 64,
        batch_multiple: 2,
        sizing: WaveSizing::Dynamic {
            max_multiple: MAX_MULTIPLE,
            wave_budget: Duration::from_nanos(BUDGET_NS),
            ewma_alpha: 0.25,
        },
        aging_step: Duration::from_nanos(STEP_NS),
        ..ServeConfig::default()
    }
}

/// The controller's two contracts, checked at a decision point:
///
/// * **clamp** — the target stays in `[workers, workers × max_multiple]`;
/// * **budget** — whenever the controller sizes *above* the lower clamp,
///   the wave it plans must fit the drain budget under its own service
///   estimate: `target × ewma ≤ workers × budget` (floor rounding makes
///   this exact, up to f64 slack).
fn assert_controller_contracts(h: &ScriptedServe) {
    let target = h.wave_target();
    assert!(
        (WORKERS..=WORKERS * MAX_MULTIPLE).contains(&target),
        "target {target} outside clamp [{WORKERS}, {}]",
        WORKERS * MAX_MULTIPLE
    );
    if let Some(ewma) = h.ewma_ns() {
        if target > WORKERS && ewma > 0.0 {
            let predicted = target as f64 * ewma;
            let allowed = WORKERS as f64 * BUDGET_NS as f64;
            assert!(
                predicted <= allowed * (1.0 + 1e-9) + 1.0,
                "budget broken: target {target} × ewma {ewma:.0} ns = \
                 {predicted:.0} ns > {WORKERS} workers × {BUDGET_NS} ns"
            );
        }
    }
}

/// Drives `rounds` waves of `per_wave` requests through the harness with
/// the given service schedule, asserting the controller contracts at
/// every decision point.
fn drive_waves(service: impl Fn(u64) -> u64, rounds: u64, per_wave: u64) {
    let mut h = ScriptedServe::new(WORKERS, &adversarial_config());
    let mut id = 0u64;
    for _ in 0..rounds {
        for _ in 0..per_wave {
            assert!(h.submit(Priority::Interactive, id));
            id += 1;
        }
        assert_controller_contracts(&h);
        h.run_wave(&service);
        assert_controller_contracts(&h);
    }
    for w in h.drain(&service) {
        assert!(w.requests.len() <= w.target);
    }
    assert_controller_contracts(&h);
}

#[test]
fn controller_survives_alternating_spikes() {
    // 0.1 ms / 40 ms alternation: the EWMA is yanked between "fit 16"
    // and "fit nothing" every wave; the clamp and budget must hold at
    // every single decision, including right after each spike.
    drive_waves(|id| if id % 2 == 0 { 100_000 } else { 40_000_000 }, 30, 4);
}

#[test]
fn controller_survives_monotone_ramps() {
    // Service times ramp 0 → 30 ms and reset, repeatedly: targets must
    // walk down the clamp range without ever leaving it.
    drive_waves(|id| (id % 60) * 500_000, 40, 3);
}

#[test]
fn controller_survives_zero_duration_requests() {
    // Degenerate: every request takes zero virtual time. The EWMA decays
    // toward zero and the predicted-fit rule would allow an unbounded
    // wave — the upper clamp is what must keep the target finite.
    let mut h = ScriptedServe::new(WORKERS, &adversarial_config());
    let mut id = 0u64;
    for _ in 0..20 {
        for _ in 0..6 {
            assert!(h.submit(Priority::Interactive, id));
            id += 1;
        }
        h.run_wave(|_| 0);
        assert_controller_contracts(&h);
    }
    assert_eq!(
        h.wave_target(),
        WORKERS * MAX_MULTIPLE,
        "zero-cost requests pin the target at the upper clamp"
    );
}

proptest! {
    #[test]
    fn controller_contracts_hold_on_arbitrary_adversarial_schedules(
        script in prop::collection::vec((0u8..3, 0u64..30_000_000, 1u64..6), 1..80)
    ) {
        // Each element is (bucket die, raw ns, per-wave count): the die
        // picks zero-duration / sub-millisecond / multi-millisecond-spike
        // service for the requests of that round — the three adversarial
        // regimes, interleaved arbitrarily.
        let services: Vec<u64> = script
            .iter()
            .map(|&(die, raw, _)| match die {
                0 => 0,
                1 => 50_000 + raw % 1_150_000,
                _ => 20_000_000 + raw,
            })
            .collect();
        let service = |i: u64| services[i as usize % services.len()];
        let mut h = ScriptedServe::new(WORKERS, &adversarial_config());
        let mut id = 0u64;
        for &(_, _, per_wave) in &script {
            for _ in 0..per_wave {
                if !h.submit(Priority::Interactive, id) {
                    break; // lane full: the drain below still covers it
                }
                id += 1;
            }
            h.run_wave(service);
            assert_controller_contracts(&h);
        }
        h.drain(service);
        assert_controller_contracts(&h);
    }
}

// ---------------------------------------------------------------------
// Scripted lifecycle: shutdown / clone / drop under the virtual clock.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn scripted_shutdown_and_client_drops_lose_nothing(
        script in prop::collection::vec(
            // (action die, class die, gap ns): 0–5 submit, 6 wave,
            // 7 clone, 8 drop, 9 shutdown.
            (0u8..10, 0u8..3, 0u64..2 * STEP_NS),
            1..60,
        )
    ) {
        let mut h = ScriptedServe::new(2, &scripted_config());
        let mut accepted: Vec<u64> = Vec::new();
        let mut rejected_after_close = true;
        let mut next_id = 0u64;
        let mut trace: Vec<u64> = Vec::new();
        for &(action, class_idx, gap_ns) in &script {
            h.advance(gap_ns);
            match action {
                0..=5 => {
                    let id = next_id;
                    next_id += 1;
                    let admitted = h.submit(class_of(class_idx), id);
                    if admitted {
                        prop_assert!(h.is_open(), "closed admission accepted a request");
                        accepted.push(id);
                    } else if h.is_open() {
                        // Open but full lane: the only legal open rejection.
                        prop_assert!(
                            h.queue_depth_class(class_of(class_idx)) >= 8,
                            "open harness rejected below capacity"
                        );
                    }
                    if !h.is_open() && admitted {
                        rejected_after_close = false;
                    }
                }
                6 => {
                    if let Some(wave) = h.run_wave(service_ns) {
                        trace.extend(wave.ids());
                    }
                }
                7 => h.clone_client(),
                8 => h.drop_client(),
                _ => h.shutdown(),
            }
        }
        prop_assert!(rejected_after_close, "a submit after close was admitted");
        // Shutdown mid-storm (or end of script): the drain must deliver
        // every accepted request exactly once — nothing lost, nothing
        // duplicated, whether admission closed explicitly, by the last
        // client drop, or not at all.
        h.shutdown();
        for wave in h.drain(service_ns) {
            prop_assert!(wave.requests.len() <= wave.target);
            trace.extend(wave.ids());
        }
        let mut sorted = trace.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), trace.len(), "a request dispatched twice");
        let mut expect = accepted.clone();
        expect.sort_unstable();
        let mut got = trace;
        got.sort_unstable();
        prop_assert_eq!(got, expect, "dispatch trace ≠ accepted set");
        prop_assert_eq!(h.queue_depth(), 0);
    }
}

// ---------------------------------------------------------------------
// End-to-end conservation on the real serving loop.
// ---------------------------------------------------------------------

/// `sum(n)` with `n` fed as a main input (the shared serving fixture).
fn sum_module() -> Module {
    let mut mb = ModuleBuilder::new();
    let h = mb.declare_subgraph("sum", &[DType::I32], &[DType::I32]);
    mb.define_subgraph(&h, |b| {
        let n = b.input(0)?;
        let zero = b.const_i32(0);
        let p = b.igt(n, zero)?;
        let out = b.cond1(
            p,
            DType::I32,
            |b| {
                let one = b.const_i32(1);
                let m = b.isub(n, one)?;
                let rec = b.invoke(&h, &[m])?[0];
                b.iadd(n, rec)
            },
            |b| b.identity(zero),
        )?;
        Ok(vec![out])
    })
    .unwrap();
    let n = mb.main_input(DType::I32);
    let out = mb.invoke(&h, &[n]).unwrap();
    mb.set_outputs(&[out[0]]).unwrap();
    mb.finish().unwrap()
}

fn gauss(n: i32) -> i32 {
    ((n as i64 * (n as i64 + 1)) / 2) as i32
}

proptest! {
    #[test]
    fn no_request_lost_or_duplicated_across_submit_shutdown_interleavings(
        ops in prop::collection::vec((0u8..3, 0i32..60, 0u8..6), 1..16)
    ) {
        // Random interleaving of class-tagged submissions, client
        // clones/drops, and a shutdown point; after shutdown, admission
        // must fail but every already-accepted ticket must still deliver
        // its exact answer — once.
        let session = Session::new(Executor::with_threads(2), sum_module()).unwrap();
        let root = session.serve_with(ServeConfig {
            capacity: 64,
            ..ServeConfig::default()
        });
        let by_class = Priority::ALL.map(|class| root.with_priority(class));
        let mut clones = vec![root.clone()];
        let mut tickets: Vec<(i32, rdg_exec::ServeTicket)> = Vec::new();
        let mut accepted = 0u64;
        let shutdown_at = ops.len() / 2;
        for (i, &(class_idx, n, action)) in ops.iter().enumerate() {
            if i == shutdown_at {
                root.shutdown();
            }
            let client = &clones[i % clones.len()];
            match action {
                // Clone a client mid-stream (new default class).
                0 => clones.push(client.with_priority(class_of(class_idx))),
                // Drop a clone (never the root: it carries shutdown).
                1 if clones.len() > 1 => {
                    clones.pop();
                }
                _ => match by_class[class_of(class_idx).index()].submit(vec![Tensor::scalar_i32(n)]) {
                    Ok(t) => {
                        prop_assert!(i < shutdown_at, "admission after shutdown");
                        accepted += 1;
                        tickets.push((n, t));
                    }
                    Err(ServeError::Shutdown) => {
                        prop_assert!(i >= shutdown_at, "spurious shutdown error");
                    }
                    Err(other) => prop_assert!(false, "unexpected {:?}", other),
                },
            }
        }
        if ops.len() <= shutdown_at {
            root.shutdown();
        }
        // Every accepted ticket delivers exactly once, with the right
        // answer (tickets are linear values: waiting twice cannot even
        // be expressed — "no duplicate" is the counter equality below).
        let delivered = tickets.len() as u64;
        for (n, t) in tickets {
            prop_assert_eq!(t.wait().unwrap()[0].as_i32_scalar().unwrap(), gauss(n));
        }
        let st = root.stats();
        prop_assert_eq!(st.submitted, accepted);
        prop_assert_eq!(st.completed, delivered);
        prop_assert_eq!(st.failed, 0);
        prop_assert_eq!(st.queue_depth, 0, "shutdown drained the lanes");
        let per_class: u64 = st.classes.iter().map(|c| c.completed).sum();
        prop_assert_eq!(per_class, st.completed, "class ledgers cover everything");
    }
}
