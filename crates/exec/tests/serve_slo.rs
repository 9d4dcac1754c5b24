//! The SLO lifecycle suite: every request's end-to-end deadline is
//! enforced at exactly three points — predictive admission shedding at
//! submit, pop-time eviction at wave formation, and mid-service
//! cancellation at the join — and every shed is accounted exactly once.
//!
//! The suite runs in three layers:
//!
//! 1. **Twin-exact tests** pin each shed point on the virtual clock with
//!    exact nanosecond assertions (no sleeps, no tolerance windows).
//!    `ScriptedServe` runs the live loop's own wave step, so its
//!    `stats()` is the live ledger: these tests also pin what each shed
//!    point counts, and the class-mix scenario pins pop order, pop-time
//!    sheds and their delivery, scalar and fused alike.
//! 2. **A property sweep** replays hundreds of fuzzer-generated random
//!    schedules and re-derives the conservation and never-early-shed
//!    invariants independently of the fuzzer's own oracles. It draws its
//!    schedules from the fuzzer, so it lives with it: `tests/serve_slo.rs`
//!    of the `rdg_serve_fuzz` crate.
//! 3. **Live smoke tests** drive the real dispatcher through each shed
//!    point (and the abandoned-ticket split) on the wall clock; the
//!    inherently racy ones retry and skip with a note on hosts that cannot
//!    hold the race open, since their scenarios are pinned
//!    deterministically by layer 1.

use rdg_exec::serve::test_support::{ScriptedAdmission, ScriptedServe, ScriptedWave};
use rdg_exec::{Executor, Priority, ServeConfig, ServeError, ServeStats, Session, WaveSizing};
use rdg_graph::{Module, ModuleBuilder};
use rdg_tensor::{DType, Tensor};
use std::time::{Duration, Instant};

/// `sum(n)` with `n` fed as a main input (the serving tests' fixture).
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

/// Exact accounting closure: everything admitted is delivered, shed, or
/// abandoned — nothing lost, nothing double-counted.
fn assert_closure(st: &ServeStats) {
    assert_eq!(
        st.completed + st.failed + st.shed + st.shed_inflight + st.abandoned,
        st.submitted,
        "lifecycle closure: {}",
        st.summary()
    );
    for p in Priority::ALL {
        let c = &st.classes[p.index()];
        assert_eq!(
            c.completed + c.failed + c.shed + c.shed_inflight + c.abandoned,
            c.submitted,
            "{p}: per-class lifecycle closure"
        );
    }
}

// ---------------------------------------------------------------------------
// Layer 1: twin-exact shed points on the virtual clock.
// ---------------------------------------------------------------------------

#[test]
fn twin_pop_time_eviction_is_exact() {
    // One worker, fixed waves of one: request 0 (no deadline, 5 ms of
    // service) is dispatched first; request 1 carries a 2 ms SLO. By the
    // time the dispatcher pops again the clock reads 5 ms — past the
    // deadline — so request 1 is evicted at pop, consuming no wave slot.
    let cfg = ServeConfig {
        capacity: 8,
        batch_multiple: 1,
        sizing: WaveSizing::Fixed,
        ..ServeConfig::default()
    };
    let mut s = ScriptedServe::new(1, &cfg);
    assert!(s.submit(Priority::Interactive, 0));
    assert_eq!(
        s.submit_deadline(Priority::Interactive, 1, 2_000_000),
        ScriptedAdmission::Admitted,
        "predictive shedding is inert before any EWMA exists"
    );
    let svc = |id: u64| if id == 0 { 5_000_000 } else { 1_000_000 };

    let w = s.run_wave(svc).expect("first wave");
    assert_eq!(w.ids(), vec![0]);
    assert!(
        w.evicted.is_empty(),
        "deadline still 2 ms away at first pop"
    );
    assert_eq!(s.now_ns(), 5_000_000);

    let w = s.run_wave(svc).expect("eviction wave");
    assert!(w.ids().is_empty(), "the evicted request burns no wave slot");
    assert_eq!(w.evicted.len(), 1);
    let e = &w.evicted[0];
    assert_eq!(e.id, 1);
    assert_eq!(e.class, Priority::Interactive);
    assert_eq!(e.enqueued_ns, 0);
    assert_eq!(e.deadline_ns, 2_000_000);
    assert_eq!(e.shed_ns, 5_000_000, "shed exactly at pop, not before");
    assert!(e.shed_ns >= e.deadline_ns, "never evicted early");
    assert_eq!(
        s.now_ns(),
        5_000_000,
        "an all-evicted wave consumes no service time"
    );
    assert!(s.run_wave(svc).is_none(), "queue drained");
}

#[test]
fn twin_mid_service_cancellation_is_exact() {
    // One worker, fixed waves of two: both requests pop together at t=0
    // (the 2 ms deadline of request 1 is still in the future, so no
    // eviction). The single worker runs request 0 for 5 ms; when the join
    // reaches request 1 the observation clock reads 5 ms ≥ its deadline
    // and the run has not finished — cancelled in flight.
    let cfg = ServeConfig {
        capacity: 8,
        batch_multiple: 2,
        sizing: WaveSizing::Fixed,
        ..ServeConfig::default()
    };
    let mut s = ScriptedServe::new(1, &cfg);
    assert!(s.submit(Priority::Interactive, 0));
    assert_eq!(
        s.submit_deadline(Priority::Interactive, 1, 2_000_000),
        ScriptedAdmission::Admitted
    );
    let svc = |id: u64| if id == 0 { 5_000_000 } else { 1_000_000 };

    let w = s.run_wave(svc).expect("the only wave");
    assert_eq!(w.ids(), vec![0, 1], "both popped before the deadline");
    assert!(w.evicted.is_empty());
    let done = &w.requests[0];
    assert!(!done.shed_inflight);
    assert_eq!(done.done_ns, 5_000_000);
    let cancelled = &w.requests[1];
    assert!(cancelled.shed_inflight, "deadline passed while in flight");
    assert_eq!(cancelled.deadline_ns, Some(2_000_000));
    assert_eq!(
        cancelled.done_ns, 5_000_000,
        "cancelled at the join-observation instant, not at its would-be finish"
    );
    assert!(
        cancelled.done_ns >= cancelled.deadline_ns.unwrap(),
        "never cancelled early"
    );
    assert!(s.run_wave(svc).is_none());
}

#[test]
fn twin_predictive_admission_shed_is_exact() {
    // Dynamic sizing with α=1: after one 4 ms request the EWMA is exactly
    // 4 ms. With two best-effort requests already queued on one worker
    // the predicted wait is 2 × 4 ms = 8 ms, so a best-effort submit with
    // a 5 ms SLO is shed at admission (never queued), one with a 10 ms
    // SLO is admitted, and an interactive submit with the same 5 ms SLO
    // is admitted regardless — the class gate exempts it.
    let cfg = ServeConfig {
        capacity: 16,
        batch_multiple: 1,
        sizing: WaveSizing::Dynamic {
            max_multiple: 4,
            wave_budget: Duration::from_millis(5),
            ewma_alpha: 1.0,
        },
        ..ServeConfig::default()
    };
    let mut s = ScriptedServe::new(1, &cfg);
    assert!(s.submit(Priority::Interactive, 0));
    let w = s.run_wave(|_| 4_000_000).expect("calibration wave");
    assert_eq!(w.ids(), vec![0]);
    assert_eq!(s.ewma_ns(), Some(4_000_000.0), "α=1 ⇒ EWMA = last sample");

    assert!(s.submit(Priority::BestEffort, 1));
    assert!(s.submit(Priority::BestEffort, 2));
    assert_eq!(
        s.submit_deadline(Priority::BestEffort, 3, 5_000_000),
        ScriptedAdmission::Shed,
        "predicted 8 ms wait > 5 ms SLO: shed at submit"
    );
    assert_eq!(
        s.submit_deadline(Priority::BestEffort, 4, 10_000_000),
        ScriptedAdmission::Admitted,
        "predicted 8 ms wait ≤ 10 ms SLO: admitted"
    );
    assert_eq!(
        s.submit_deadline(Priority::Interactive, 5, 5_000_000),
        ScriptedAdmission::Admitted,
        "interactive is exempt from predictive shedding"
    );
    assert_eq!(s.shed_predicted(), [0, 0, 1]);
    assert_eq!(
        s.queue_depth(),
        4,
        "the shed request was never queued; the admitted ones were"
    );
}

/// The classes of the ten requests queued behind the blocker in the
/// class-mix scenario (ids 1..=10; id 0 is the blocker).
const MIX: [Priority; 10] = [
    Priority::Batch,
    Priority::Interactive,
    Priority::BestEffort,
    Priority::Interactive,
    Priority::Batch,
    Priority::BestEffort,
    Priority::Interactive,
    Priority::Batch,
    Priority::Interactive,
    Priority::BestEffort,
];

/// The class-mix scenario on the virtual clock: one worker, fixed waves of
/// 16 and an hour of aging step (so the pop is strict priority + FIFO). A
/// blocker rides the first wave; then the ten `MIX` requests and two
/// zero-SLO requests (ids 11 and 12, `Interactive` then `Batch`) queue
/// and drain in one wave. With `fused`, every wave runs through the
/// grouped model (one shared fusion signature, groups of up to 4).
fn class_mix(fused: bool) -> (Vec<ScriptedWave>, ServeStats) {
    let mut s = ScriptedServe::new(
        1,
        &ServeConfig {
            capacity: 64,
            batch_multiple: 16,
            sizing: WaveSizing::Fixed,
            aging_step: Duration::from_secs(3600),
            ..ServeConfig::default()
        },
    );
    let service = |_id: u64| 1_000_000u64;
    let wave = |s: &mut ScriptedServe| {
        if fused {
            s.run_wave_grouped(service, |_| Some(0u64), 4)
        } else {
            s.run_wave(service)
        }
    };
    assert!(s.submit(Priority::Interactive, 0), "blocker admitted");
    let mut waves = vec![wave(&mut s).expect("blocker wave")];
    for (i, class) in MIX.iter().enumerate() {
        assert!(s.submit(*class, 1 + i as u64), "request {i} admitted");
    }
    for (id, class) in [(11, Priority::Interactive), (12, Priority::Batch)] {
        // SLO 0: the deadline is `now`, expired at any later pop.
        // Fixed sizing keeps the EWMA unset, so predictive shedding is
        // inert and the shed must happen at pop.
        assert_eq!(s.submit_deadline(class, id, 0), ScriptedAdmission::Admitted);
    }
    waves.push(wave(&mut s).expect("drain wave"));
    assert!(wave(&mut s).is_none(), "two waves drain the scenario");
    (waves, s.stats())
}

#[test]
fn class_mix_pops_by_class_and_sheds_expired_requests_at_pop() {
    let (waves, st) = class_mix(false);
    assert_eq!((waves[0].target, waves[0].ids()), (16, vec![0]));
    assert!(waves[0].evicted.is_empty());
    assert_eq!(waves[1].target, 16);
    assert_eq!(
        waves[1].ids(),
        vec![2, 4, 7, 9, 1, 5, 8, 3, 6, 10],
        "strict priority, FIFO within class, over the MIX pattern"
    );
    let shed: Vec<u64> = waves[1].evicted.iter().map(|e| e.id).collect();
    assert_eq!(
        shed,
        vec![11, 12],
        "expired SLO requests evicted in pop order (interactive lane \
         first, then batch), consuming no wave slots"
    );
    // The ledger the live loop keeps, booked by the same wave step.
    assert_eq!(st.classes[Priority::Interactive.index()].shed, 1);
    assert_eq!(st.classes[Priority::Batch.index()].shed, 1);
    assert_eq!(st.classes[Priority::BestEffort.index()].shed, 0);
    assert_eq!((st.shed_inflight, st.shed_predicted), (0, 0));
    assert_eq!((st.submitted, st.completed, st.batches), (13, 11, 2));
    assert_eq!(st.total.count, 11, "a shed request records no latency");
    assert_eq!(st.in_flight, 0);
    assert_closure(&st);
}

#[test]
fn fused_waves_make_the_same_decisions() {
    // Grouping happens after the pop: fusion reshapes when a wave's
    // requests complete, never wave targets, pop order, sheds or counts.
    let (scalar, scalar_st) = class_mix(false);
    let (fused, fused_st) = class_mix(true);
    let decisions = |waves: &[ScriptedWave]| {
        let shed = |w: &ScriptedWave| w.evicted.iter().map(|e| e.id).collect::<Vec<_>>();
        waves
            .iter()
            .map(|w| (w.target, w.ids(), shed(w)))
            .collect::<Vec<_>>()
    };
    assert_eq!(decisions(&fused), decisions(&scalar));
    assert_eq!(
        fused[1].fused_groups.len(),
        3,
        "ten requests in groups of 4"
    );
    for st in [&scalar_st, &fused_st] {
        assert_closure(st);
    }
    let counts = |st: &ServeStats| {
        let c = |p: Priority| &st.classes[p.index()];
        Priority::ALL.map(|p| {
            (
                c(p).submitted,
                c(p).completed,
                c(p).shed,
                c(p).shed_inflight,
            )
        })
    };
    assert_eq!(counts(&fused_st), counts(&scalar_st));
}

#[test]
fn scripted_in_flight_request_past_deadline_is_cancelled() {
    // The live in-flight smoke test's scenario, without its race: one
    // worker, fixed waves of two. A blocker rides the first wave; then a
    // 5 ms request and a victim with a 2 ms SLO share the second. The
    // join reaches the victim when the long request finishes, 5 ms after
    // the pop — past its deadline, with its own run not started — and
    // cancels it.
    let mut s = ScriptedServe::new(
        1,
        &ServeConfig {
            capacity: 8,
            batch_multiple: 2,
            sizing: WaveSizing::Fixed,
            ..ServeConfig::default()
        },
    );
    let svc = |id: u64| if id == 0 { 1_000_000 } else { 5_000_000 };
    assert!(s.submit(Priority::Interactive, 0));
    assert_eq!(s.run_wave(svc).expect("blocker wave").ids(), vec![0]);
    assert!(s.submit(Priority::Interactive, 1));
    assert_eq!(
        s.submit_deadline(Priority::Interactive, 2, 2_000_000),
        ScriptedAdmission::Admitted,
        "fixed sizing keeps the EWMA unset"
    );
    let w = s.run_wave(svc).expect("second wave");
    assert_eq!(w.ids(), vec![1, 2], "both popped before the deadline");
    assert!(w.requests[1].shed_inflight);
    let st = s.stats();
    assert_eq!(st.shed_inflight, 1);
    assert_eq!(st.shed, 0, "not a pop-time shed: it was dispatched");
    assert_eq!(st.completed, 2, "blocker and the long request");
    assert_eq!(st.wait.count, 3, "a cancelled request still waited");
    assert_eq!(st.total.count, 2, "but records no service or total");
    assert_closure(&st);
}

#[test]
fn scripted_predictive_shed_rejects_at_submit_when_backlog_exceeds_slo() {
    // The live predictive-shed smoke test's scenario, without its race:
    // a calibration wave publishes a 4 ms EWMA (α = 1), a blocker wave
    // runs, and a best-effort backlog of two queues behind it. The
    // predicted wait is then 2 × EWMA on one worker, so a best-effort
    // submit with an SLO of EWMA / 2 is shed at submit and never queued.
    let mut s = ScriptedServe::new(
        1,
        &ServeConfig {
            capacity: 16,
            batch_multiple: 1,
            sizing: WaveSizing::Dynamic {
                max_multiple: 4,
                wave_budget: Duration::from_millis(5),
                ewma_alpha: 1.0,
            },
            ..ServeConfig::default()
        },
    );
    let svc = |_id: u64| 4_000_000;
    for id in 0..2 {
        assert!(s.submit(Priority::Interactive, id));
        s.run_wave(svc).expect("calibration and blocker waves");
    }
    let ewma = s.stats().service_ewma_ns;
    assert_eq!(ewma, 4_000_000);
    assert!(s.submit(Priority::BestEffort, 2));
    assert!(s.submit(Priority::BestEffort, 3));
    assert_eq!(
        s.submit_deadline(Priority::BestEffort, 4, ewma / 2),
        ScriptedAdmission::Shed
    );
    let st = s.stats();
    assert_eq!(st.shed_predicted, 1);
    assert_eq!(
        st.classes[Priority::BestEffort.index()].shed_predicted,
        1,
        "charged to the class that was shed"
    );
    assert_eq!(
        st.submitted, 4,
        "a predictively shed request is never admitted"
    );
    assert_eq!(st.queue_depth, 2);
    s.drain(svc);
    let st = s.stats();
    assert_eq!(st.completed, 4);
    assert_closure(&st);
}

// ---------------------------------------------------------------------------
// Goodput: shedding must *pay* under overload, not just account cleanly.
// ---------------------------------------------------------------------------

/// Drives the twin through a bursty overload: every 6 ms a burst of ten
/// interactive requests lands on a single worker that needs 1 ms each
/// (1.67× oversubscribed on average, 10× within a burst), SLO 3.5 ms,
/// lane capacity 10. Returns `(goodput, admitted)`: how many requests
/// completed within their SLO window, and how many were admitted at all.
///
/// Burstiness is the point. Under a *smooth* open-loop overload,
/// FIFO-with-eviction still serves oldest-first — exactly the requests
/// nearest their deadline — so shedding barely moves goodput. Under
/// bursts, evicting the doomed tail of one burst clears the lane before
/// the next burst arrives, and the head of every burst makes its window.
fn overloaded_goodput(with_slo: bool) -> (u64, u64) {
    const N: u64 = 300;
    const BURST: u64 = 10;
    const PERIOD_NS: u64 = 6_000_000;
    const SVC_NS: u64 = 1_000_000;
    const SLO_NS: u64 = 3_500_000;
    let arrival = |id: u64| (id / BURST) * PERIOD_NS;
    let cfg = ServeConfig {
        capacity: 10,
        batch_multiple: 1,
        sizing: WaveSizing::Fixed,
        ..ServeConfig::default()
    };
    let mut s = ScriptedServe::new(1, &cfg);
    let mut next = 0u64;
    let mut admitted = 0u64;
    let mut goodput = 0u64;
    while next < N || s.queue_depth() > 0 {
        while next < N && arrival(next) <= s.now_ns() {
            let ok = if with_slo {
                s.submit_deadline(Priority::Interactive, next, SLO_NS)
                    == ScriptedAdmission::Admitted
            } else {
                s.submit(Priority::Interactive, next)
            };
            if ok {
                admitted += 1;
            }
            next += 1;
        }
        if s.queue_depth() == 0 {
            // Idle until the next arrival (there must be one, or the
            // outer condition would have ended the loop).
            s.advance(arrival(next) - s.now_ns());
            continue;
        }
        if let Some(w) = s.run_wave(|_| SVC_NS) {
            goodput += w
                .requests
                .iter()
                .filter(|r| !r.shed_inflight && r.done_ns - r.enqueued_ns <= SLO_NS)
                .count() as u64;
        }
    }
    (goodput, admitted)
}

#[test]
fn shedding_beats_no_shedding_on_interactive_goodput_under_overload() {
    // Identical arrival process, identical queue, identical worker. The
    // no-SLO baseline drags each burst's unserved tail under the next
    // burst, so after the first burst every request waits behind stale
    // work and misses its window; with deadlines attached the doomed
    // tail is evicted at pop for free, the lane is clear when the next
    // burst lands, and the head of every burst completes in time.
    let (base_good, base_admitted) = overloaded_goodput(false);
    let (slo_good, slo_admitted) = overloaded_goodput(true);
    eprintln!(
        "goodput A/B (virtual clock): baseline {base_good}/{base_admitted} \
         within SLO, shedding {slo_good}/{slo_admitted}"
    );
    assert!(base_admitted > 0 && slo_admitted > 0);
    assert!(
        slo_good > base_good,
        "shedding must raise within-SLO goodput under overload: \
         {slo_good} (shed) vs {base_good} (baseline)"
    );
    // The win must be structural, not a one-request rounding artifact.
    assert!(
        slo_good >= base_good + 50,
        "expected a decisive goodput win: {slo_good} vs {base_good}"
    );
}

// ---------------------------------------------------------------------------
// Layer 3: the live dispatcher, one shed point at a time.
// ---------------------------------------------------------------------------

#[test]
fn live_zero_slo_request_is_shed_at_pop() {
    // A zero SLO makes pop-time eviction deterministic on the wall clock:
    // `deadline = now` is expired at any strictly later pop, and fixed
    // sizing keeps the EWMA unset so predictive shedding cannot fire
    // first. No races, no retries.
    let s = Session::new(Executor::with_threads(1), sum_module()).unwrap();
    let client = s.serve_with(ServeConfig {
        capacity: 8,
        batch_multiple: 1,
        sizing: WaveSizing::Fixed,
        ..ServeConfig::default()
    });
    let ticket = client
        .submit_slo(vec![Tensor::scalar_i32(5)], Duration::ZERO)
        .expect("zero-SLO request admits: the lane is empty and no EWMA exists");
    match ticket.wait() {
        Err(ServeError::Shed { .. }) => {}
        other => panic!("expected pop-time shed, got {other:?}"),
    }
    client.shutdown();
    let st = client.stats();
    assert_eq!(st.submitted, 1);
    assert_eq!(st.shed, 1, "counted as a pop-time shed");
    assert_eq!(st.completed, 0);
    assert_eq!(st.shed_inflight + st.shed_predicted + st.abandoned, 0);
    assert_eq!(st.classes[Priority::Interactive.index()].shed, 1);
    assert_closure(&st);
}

/// Wall-clock service time of `sum(n)` on a fresh single-thread session —
/// the calibration the racy live tests scale their SLOs from.
fn measure_service(n: i32) -> Duration {
    let s = Session::new(Executor::with_threads(1), sum_module()).unwrap();
    let t0 = Instant::now();
    s.run(vec![Tensor::scalar_i32(n)]).unwrap();
    t0.elapsed()
}

#[test]
fn live_in_flight_request_past_deadline_is_cancelled() {
    // Mid-service cancellation needs a wave of two on one worker: a
    // long request ahead of an SLO request whose deadline passes while
    // the join is still waiting on the long one. Getting both into the
    // same wave requires a blocker to hold the dispatcher open across
    // two submits — a wall-clock race, so: calibrate, retry, and skip
    // with a note if the host is too fast to hold it open.
    const BLOCK_N: i32 = 60_000;
    const LONG_N: i32 = 300_000;
    let unit = measure_service(BLOCK_N);
    for attempt in 0..5 {
        let s = Session::new(Executor::with_threads(1), sum_module()).unwrap();
        let client = s.serve_with(ServeConfig {
            capacity: 8,
            batch_multiple: 2,
            sizing: WaveSizing::Fixed,
            record_dispatch: true,
            ..ServeConfig::default()
        });
        let blocker = client.submit(vec![Tensor::scalar_i32(BLOCK_N)]).unwrap();
        while client.stats().batches < 1 {
            std::thread::yield_now();
        }
        // Deadline: comfortably after the pop (~1 blocker-unit away) but
        // well before the ~5-unit long request ahead of it finishes.
        let slo = unit * 2;
        let long = client.submit(vec![Tensor::scalar_i32(LONG_N)]).unwrap();
        let victim = client
            .submit_slo(vec![Tensor::scalar_i32(LONG_N)], slo)
            .expect("admits: lane has space and fixed sizing keeps the EWMA unset");
        blocker.wait().unwrap();
        long.wait().unwrap();
        let result = victim.wait();
        client.shutdown();
        let st = client.stats();
        let log = client.dispatch_log();
        let race_held = log.len() >= 2 && log[0].seqs == [0] && log[1].seqs == [1, 2];
        if race_held && st.shed_inflight == 1 {
            assert!(
                matches!(result, Err(ServeError::Shed { .. })),
                "cancelled ticket resolves Shed, got {result:?}"
            );
            assert_eq!(st.shed, 0, "not a pop-time shed: it was dispatched");
            assert_eq!(st.completed, 2, "blocker and the long request");
            assert_closure(&st);
            return;
        }
        // Race miss: the blocker finished early (waves split) or the
        // victim outran its cancellation. Both still account exactly.
        assert_closure(&st);
        eprintln!(
            "attempt {attempt}: race missed (log={log:?}, {})",
            st.summary()
        );
    }
    eprintln!("host too fast to hold the blocker race open; skipping live half");
}

#[test]
fn live_predictive_shed_rejects_at_submit_when_backlog_exceeds_slo() {
    // Predictive shedding needs a real EWMA (one completed dynamic wave)
    // and a best-effort backlog. A long blocker pins the worker so the
    // backlog cannot drain between our submits; if the blocker finishes
    // early the attempt is retried.
    for attempt in 0..5 {
        let s = Session::new(Executor::with_threads(1), sum_module()).unwrap();
        let client = s.serve_with(ServeConfig {
            capacity: 16,
            batch_multiple: 1,
            sizing: WaveSizing::Dynamic {
                max_multiple: 4,
                wave_budget: Duration::from_millis(5),
                ewma_alpha: 1.0,
            },
            ..ServeConfig::default()
        });
        // Calibration wave: one completed request publishes the EWMA.
        client
            .submit(vec![Tensor::scalar_i32(60_000)])
            .unwrap()
            .wait()
            .unwrap();
        while client.stats().service_ewma_ns == 0 {
            std::thread::yield_now();
        }
        let ewma = client.stats().service_ewma_ns;
        // Blocker wave: pin the worker, then pile up a best-effort
        // backlog of two behind it.
        let blocker = client.submit(vec![Tensor::scalar_i32(300_000)]).unwrap();
        while client.stats().batches < 2 {
            std::thread::yield_now();
        }
        let best_effort = client.with_priority(Priority::BestEffort);
        let backlog: Vec<_> = (0..2)
            .map(|_| best_effort.submit(vec![Tensor::scalar_i32(5)]).unwrap())
            .collect();
        // Predicted wait ≥ 2 × EWMA on one worker; an SLO of EWMA/2 is
        // always below it, so the submit must shed — unless the backlog
        // already drained (blocker finished: race miss, retry).
        let slo = Duration::from_nanos(ewma / 2);
        let verdict = best_effort.submit_slo(vec![Tensor::scalar_i32(5)], slo);
        let depth_live = client.stats().queue_depth;
        blocker.wait().unwrap();
        for t in backlog {
            t.wait().unwrap();
        }
        client.shutdown();
        let st = client.stats();
        if depth_live == 0 {
            assert_closure(&st);
            eprintln!("attempt {attempt}: blocker finished early, retrying");
            continue;
        }
        match verdict {
            Err(ServeError::Shed { .. }) => {}
            other => panic!("expected predictive shed at submit, got {other:?}"),
        }
        assert_eq!(st.shed_predicted, 1);
        assert_eq!(
            st.classes[Priority::BestEffort.index()].shed_predicted,
            1,
            "charged to the class that was shed"
        );
        assert_eq!(
            st.submitted, 4,
            "a predictively shed request is never admitted"
        );
        assert_closure(&st);
        return;
    }
    eprintln!("host too fast to keep a backlog pinned; skipping live half");
}

#[test]
fn live_dropped_ticket_counts_abandoned_not_completed() {
    // The abandoned split: a ticket dropped before delivery must land in
    // `abandoned`, not `completed`. The drop has to beat the dispatcher's
    // send, so a long blocker pins the worker while the victim's ticket
    // is discarded; if the blocker finishes first the send wins the race
    // legitimately (the buffered result simply goes unread) — retry.
    for attempt in 0..5 {
        let s = Session::new(Executor::with_threads(1), sum_module()).unwrap();
        let client = s.serve_with(ServeConfig {
            capacity: 8,
            batch_multiple: 1,
            sizing: WaveSizing::Fixed,
            ..ServeConfig::default()
        });
        let blocker = client.submit(vec![Tensor::scalar_i32(300_000)]).unwrap();
        while client.stats().batches < 1 {
            std::thread::yield_now();
        }
        let victim = client.submit(vec![Tensor::scalar_i32(5)]).unwrap();
        drop(victim);
        blocker.wait().unwrap();
        client.shutdown();
        let st = client.stats();
        assert_closure(&st);
        if st.abandoned == 1 {
            assert_eq!(st.submitted, 2);
            assert_eq!(st.completed, 1, "only the blocker was delivered");
            assert_eq!(
                st.classes[Priority::Interactive.index()].abandoned,
                1,
                "charged to the abandoning class"
            );
            return;
        }
        eprintln!(
            "attempt {attempt}: send beat the drop ({}), retrying",
            st.summary()
        );
    }
    eprintln!("host too fast to abandon before delivery; skipping live half");
}
