//! Differential test of the live serving *driver*: real threads, condvars
//! and the wall clock must feed the dispatcher core the same events the
//! `ScriptedServe` virtual-clock driver feeds it, on one deterministic
//! scenario.
//!
//! The serving rules themselves — admission, aged-priority pop, pop-time
//! eviction, wave sizing — exist once, in `serve/core.rs`, and both
//! drivers run that code; that the two *rule sets* agree is true by
//! construction and needs no test. What can still go wrong is the live
//! plumbing around the core: a submit that reaches it under the wrong
//! class or without its deadline, a dispatcher that wakes on the wrong
//! condition or forms a wave before the lock-protected state says so, a
//! clock conversion that expires a request early, a shed decision that
//! never reaches the ticket or the counters. This test pins that: one
//! scenario (a blocker occupying the single worker while ten mixed-class
//! requests — plus two already-expired SLO requests — pile up, then one
//! drain wave) is run through `Session::serve_with` with
//! [`ServeConfig::record_dispatch`] on, and through the scripted driver on
//! the virtual clock, and the two dispatch logs — wave targets, per-wave
//! admission sequence numbers in pop order, *and* pop-time shed decisions
//! — must be identical.
//!
//! The SLO half uses zero-duration SLOs deliberately: `deadline = now`
//! is expired at any later pop on both clocks, so the eviction decision
//! is deterministic even though the live side runs on wall time (and
//! fixed sizing keeps the EWMA unset, so predictive admission shedding
//! stays inert on both sides — the shed must happen at pop, nowhere
//! else).
//!
//! The live side races wall time (the blocker must outlive our twelve
//! submits), so the scenario is retried a few times and skipped with a
//! note on hosts too fast to hold the race open. A skip loses coverage of
//! the live plumbing only; the rules are covered, deterministically, by
//! the core's own tests and every scripted suite.
//!
//! A second, fused pin runs the identical scenario through the twin's
//! group-formation model (`run_wave_grouped`) as well as the scalar one,
//! and the live side — whose loop always runs the executor's
//! dispatch-time fuser — must match both: fusion is a property of kernel
//! execution within a wave and must never leak into scheduling
//! decisions.

use rdg_exec::serve::test_support::{ScriptedAdmission, ScriptedServe};
use rdg_exec::{Executor, Priority, ServeConfig, ServeError, Session, WaveRecord, WaveSizing};
use rdg_graph::{Module, ModuleBuilder};
use rdg_tensor::{DType, Tensor};
use std::time::Duration;

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

/// The scenario's class sequence for the ten queued requests (admission
/// sequence numbers 1..=10; seq 0 is the blocker).
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

fn config() -> ServeConfig {
    ServeConfig {
        capacity: 64,
        batch_multiple: 16,
        sizing: WaveSizing::Fixed,
        // An hour of aging step: no promotion can occur within the test,
        // so the pop order is pure strict priority + FIFO on both sides
        // regardless of how wall time maps to the virtual clock.
        aging_step: Duration::from_secs(3600),
        record_dispatch: true,
        ..ServeConfig::default()
    }
}

/// The classes of the two already-expired SLO requests queued after the
/// mix (admission sequence numbers 11 and 12).
const SLO_MIX: [Priority; 2] = [Priority::Interactive, Priority::Batch];

/// The twin's dispatch log for the scenario, on the virtual clock. With
/// `fused`, every wave runs through the twin's group-formation model
/// (one shared fusion signature, groups of up to 4) instead of the scalar
/// schedule — the dispatch log must come out identical either way,
/// because grouping happens strictly after the pop.
fn scripted_log(fused: bool) -> Vec<WaveRecord> {
    let mut s = ScriptedServe::new(1, &config());
    assert!(s.submit(Priority::Interactive, 0), "blocker admitted");
    let mut log = Vec::new();
    // Service times are irrelevant to the *order* here (one worker,
    // fixed waves, no aging) — any positive value works.
    let service = |_id: u64| 1_000_000u64;
    let wave = |s: &mut ScriptedServe| {
        if fused {
            s.run_wave_grouped(service, |_| Some(0u64), 4)
        } else {
            s.run_wave(service)
        }
    };
    let w = wave(&mut s).expect("blocker wave");
    log.push(WaveRecord {
        target: w.target,
        seqs: w.ids(),
        shed_seqs: w.evicted.iter().map(|e| e.id).collect(),
    });
    for (i, class) in MIX.iter().enumerate() {
        assert!(s.submit(*class, 1 + i as u64), "request {i} admitted");
    }
    for (i, class) in SLO_MIX.iter().enumerate() {
        // SLO 0: the deadline is `now`, expired at any later pop.
        assert_eq!(
            s.submit_deadline(*class, 11 + i as u64, 0),
            ScriptedAdmission::Admitted,
            "expired-SLO request {i} admitted (predictive shed inert \
             under fixed sizing)"
        );
    }
    let w = wave(&mut s).expect("drain wave");
    log.push(WaveRecord {
        target: w.target,
        seqs: w.ids(),
        shed_seqs: w.evicted.iter().map(|e| e.id).collect(),
    });
    assert!(wave(&mut s).is_none(), "two waves drain the scenario");
    log
}

/// One live attempt; `None` when the timing race didn't hold (the
/// blocker finished before the twelve requests were all queued).
fn live_log_attempt() -> Option<Vec<WaveRecord>> {
    let s = Session::new(Executor::with_threads(1), sum_module()).unwrap();
    let client = s.serve_with(config());
    let blocker = client.submit(vec![Tensor::scalar_i32(60_000)]).unwrap();
    // Wait for the dispatcher to pop the blocker's wave: once `batches`
    // ticks, the first wave is closed and everything we submit next goes
    // to the second one — provided the blocker is still running then.
    while client.stats().batches < 1 {
        std::thread::yield_now();
    }
    let by_class = Priority::ALL.map(|class| client.with_priority(class));
    let tickets: Vec<_> = MIX
        .iter()
        .map(|class| {
            by_class[class.index()]
                .submit(vec![Tensor::scalar_i32(5)])
                .unwrap()
        })
        .collect();
    let shed_tickets: Vec<_> = SLO_MIX
        .iter()
        .map(|class| {
            by_class[class.index()]
                .submit_slo(vec![Tensor::scalar_i32(5)], Duration::ZERO)
                .expect("zero-SLO request admits (lane has space, no EWMA yet)")
        })
        .collect();
    blocker.wait().unwrap();
    for t in tickets {
        t.wait().unwrap();
    }
    for t in shed_tickets {
        // The shed decision must also reach the ticket itself.
        assert!(
            matches!(t.wait(), Err(ServeError::Shed { .. })),
            "expired-SLO ticket resolves Shed"
        );
    }
    client.shutdown();
    let stats = client.stats();
    let log = client.dispatch_log();
    // The race held only if the blocker wave contained exactly the
    // blocker and one drain wave took all ten live plus both sheds.
    if log.len() == 2 && log[0].seqs == [0] && log[1].seqs.len() == MIX.len() {
        assert_eq!(
            stats.classes[Priority::Interactive.index()].shed,
            1,
            "one interactive pop-time shed"
        );
        assert_eq!(
            stats.classes[Priority::Batch.index()].shed,
            1,
            "one batch pop-time shed"
        );
        assert_eq!(stats.shed_inflight, 0, "no mid-service cancels here");
        assert_eq!(stats.shed_predicted, 0, "predictive shedding was inert");
        Some(log)
    } else {
        None
    }
}

#[test]
fn live_dispatcher_and_scripted_twin_agree_wave_for_wave() {
    let expected = scripted_log(false);
    // Sanity on the twin itself: fixed waves of 1 × 16, strict priority,
    // and both expired requests shed at pop in pop order.
    assert_eq!(
        expected[0],
        WaveRecord {
            target: 16,
            seqs: vec![0],
            shed_seqs: vec![],
        }
    );
    assert_eq!(expected[1].target, 16);
    assert_eq!(
        expected[1].seqs,
        vec![2, 4, 7, 9, 1, 5, 8, 3, 6, 10],
        "strict priority, FIFO within class, over the MIX pattern"
    );
    assert_eq!(
        expected[1].shed_seqs,
        vec![11, 12],
        "expired SLO requests evicted in pop order (interactive lane \
         first, then batch), consuming no wave slots"
    );
    for attempt in 0..5 {
        if let Some(live) = live_log_attempt() {
            assert_eq!(
                live, expected,
                "live dispatcher diverged from the scripted twin \
                 (attempt {attempt}): same queue state must produce the \
                 same wave targets, pop order, and shed decisions"
            );
            return;
        }
    }
    // Five misses means the blocker kept finishing before twelve tiny
    // submits — a host too fast for this race. The decision logic is
    // still asserted above and across the twin suites.
    eprintln!("host too fast to hold the blocker race open; skipping live half");
}

/// The fused-wave pin: cross-request batch fusion must be invisible to
/// admission and dispatch. The twin's group-formation model and the live
/// dispatcher (which always runs the executor's fuser) must both produce
/// the exact dispatch log of the scalar scenario — fusion reshapes kernel
/// execution inside a wave, never wave targets, pop order, or shed
/// decisions.
#[test]
fn fusion_does_not_perturb_the_dispatch_log() {
    let expected = scripted_log(false);
    assert_eq!(
        scripted_log(true),
        expected,
        "the twin's wave-granularity group formation changed a dispatch \
         decision: grouping must happen strictly after the pop"
    );
    for attempt in 0..5 {
        if let Some(live) = live_log_attempt() {
            assert_eq!(
                live, expected,
                "live dispatcher with cross-request batching diverged \
                 from the scalar twin (attempt {attempt}): fusion must not \
                 change wave targets, pop order, or shed decisions"
            );
            return;
        }
    }
    eprintln!("host too fast to hold the blocker race open; skipping live half");
}
