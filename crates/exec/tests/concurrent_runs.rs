//! The multi-run runtime: concurrent root frames on one worker pool.
//!
//! Covers the `Executor::submit` / `RunHandle` surface, per-run statistics
//! isolation, cancellation, per-request error isolation in
//! `Session::run_many`, and a stress test hammering one session from eight
//! OS threads at once.

use rdg_exec::{ExecError, ExecStats, Executor, Session};
use rdg_graph::{Module, ModuleBuilder};
use rdg_tensor::{DType, Tensor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `sum(n) = n == 0 ? 0 : n + sum(n-1)`, with `n` fed as a main input —
/// every run of the same session can request a different depth.
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
    n * (n + 1) / 2
}

#[test]
fn submitted_runs_execute_concurrently_and_deliver_independent_results() {
    let s = Session::new(Executor::with_threads(2), sum_module()).unwrap();
    let handles: Vec<_> = (0..16)
        .map(|i| s.submit_run(vec![Tensor::scalar_i32(i)]).unwrap())
        .collect();
    // Join in reverse submission order: completion order must not matter.
    for (i, h) in handles.into_iter().enumerate().rev() {
        let out = h.wait().unwrap();
        assert_eq!(out[0].as_i32_scalar().unwrap(), gauss(i as i32));
    }
}

#[test]
fn run_many_returns_positional_results() {
    let s = Session::new(Executor::with_threads(2), sum_module()).unwrap();
    let feeds: Vec<Vec<Tensor>> = (0..10).map(|i| vec![Tensor::scalar_i32(i)]).collect();
    let results = s.run_many(feeds);
    assert_eq!(results.len(), 10);
    for (i, r) in results.into_iter().enumerate() {
        assert_eq!(r.unwrap()[0].as_i32_scalar().unwrap(), gauss(i as i32));
    }
}

#[test]
fn run_many_isolates_per_request_errors() {
    let s = Session::new(Executor::with_threads(2), sum_module()).unwrap();
    let feeds = vec![
        vec![Tensor::scalar_i32(4)],
        vec![Tensor::scalar_f32(1.0)], // wrong dtype: this request only
        vec![Tensor::scalar_i32(6)],
        vec![], // missing feed: this request only
    ];
    let results = s.run_many(feeds);
    assert_eq!(results[0].as_ref().unwrap()[0].as_i32_scalar().unwrap(), 10);
    assert!(matches!(results[1], Err(ExecError::BadFeed { .. })));
    assert_eq!(results[2].as_ref().unwrap()[0].as_i32_scalar().unwrap(), 21);
    assert!(matches!(results[3], Err(ExecError::BadFeed { .. })));
}

#[test]
fn per_run_stats_do_not_smear_across_concurrent_runs() {
    let s = Session::new(Executor::with_threads(2), sum_module()).unwrap();
    let shallow = s.submit_run(vec![Tensor::scalar_i32(3)]).unwrap();
    let deep = s.submit_run(vec![Tensor::scalar_i32(300)]).unwrap();
    let shallow_stats = Arc::clone(shallow.stats());
    let deep_stats = Arc::clone(deep.stats());
    shallow.wait().unwrap();
    deep.wait().unwrap();
    // Each handle reports only its own run: the shallow run's max depth
    // must not have been inflated by the concurrent deep run.
    let sd = shallow_stats.max_depth.load(Ordering::Relaxed);
    let dd = deep_stats.max_depth.load(Ordering::Relaxed);
    assert!(sd >= 3 && sd < 20, "shallow run depth stays shallow: {sd}");
    assert!(dd >= 300, "deep run observed its own depth: {dd}");
    let sf = shallow_stats.frames_spawned.load(Ordering::Relaxed);
    let df = deep_stats.frames_spawned.load(Ordering::Relaxed);
    // Executor-lifetime aggregate has absorbed both runs.
    let agg = s.executor().stats();
    assert!(agg.max_depth.load(Ordering::Relaxed) >= 300);
    assert!(agg.frames_spawned.load(Ordering::Relaxed) >= sf + df);
}

#[test]
fn run_handle_outlives_its_session_and_executor() {
    // The handle keeps the worker pool alive: dropping the session (and
    // with it the last user-held Arc<Executor>) while the run is in flight
    // must not strand wait() on a channel nobody will ever write to.
    let s = Session::new(Executor::with_threads(2), sum_module()).unwrap();
    let h = s.submit_run(vec![Tensor::scalar_i32(1000)]).unwrap();
    drop(s);
    assert_eq!(h.wait().unwrap()[0].as_i32_scalar().unwrap(), gauss(1000));
}

#[test]
fn cancel_aborts_a_deep_run() {
    let s = Session::new(Executor::with_threads(2), sum_module()).unwrap();
    let h = s.submit_run(vec![Tensor::scalar_i32(2_000_000)]).unwrap();
    h.cancel();
    match h.wait() {
        Err(ExecError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The pool must still be healthy for later runs.
    let out = s.run(vec![Tensor::scalar_i32(5)]).unwrap();
    assert_eq!(out[0].as_i32_scalar().unwrap(), 15);
}

#[test]
fn cancel_after_completion_keeps_the_result() {
    let s = Session::new(Executor::with_threads(2), sum_module()).unwrap();
    let h = s.submit_run(vec![Tensor::scalar_i32(4)]).unwrap();
    while !h.is_finished() {
        std::thread::yield_now();
    }
    h.cancel();
    assert_eq!(h.wait().unwrap()[0].as_i32_scalar().unwrap(), 10);
}

/// `wait` consumed the handle; once the stragglers have drained, the
/// runtime's last holder of the per-run stats (the run context) is gone and
/// the teardown fold has run.
fn wait_torn_down(run_stats: &Arc<ExecStats>) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Arc::strong_count(run_stats) > 1 {
        assert!(
            Instant::now() < deadline,
            "stragglers never drained: {}",
            run_stats.summary()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn cancel_landing_in_a_workers_chain_fails_only_that_run() {
    // On one worker the descent of `sum` is a single chain: every frame
    // readies exactly one op at a time, so nothing but the run's head ever
    // enters the queue, and two million frames never finish before the
    // cancel below.
    let exec = Executor::with_threads(1);
    let s = Session::new(Arc::clone(&exec), sum_module()).unwrap();
    let h = s.submit_run(vec![Tensor::scalar_i32(2_000_000)]).unwrap();
    let cancelled = Arc::clone(h.stats());
    while cancelled.frames_spawned.load(Ordering::Relaxed) < 100 {
        std::thread::yield_now();
    }
    h.cancel();
    assert!(matches!(h.wait(), Err(ExecError::Cancelled)));
    wait_torn_down(&cancelled);
    let c = cancelled.snapshot();
    // The chain stopped at its next op: that is the one task there was to
    // drop.
    assert_eq!(c.cancelled_tasks, 1);
    // Every dispatched op but the head was a continuation, and so was the
    // dropped task (counted when the worker picked it, not when it ran).
    assert_eq!(c.continuations, c.ops_executed - c.prelude_published);

    // The pool is fine: the next run on it succeeds, and the lifetime
    // aggregate is the sum of the two runs.
    let h2 = s.submit_run(vec![Tensor::scalar_i32(10)]).unwrap();
    let ok = Arc::clone(h2.stats());
    assert_eq!(h2.wait().unwrap()[0].as_i32_scalar().unwrap(), gauss(10));
    wait_torn_down(&ok);
    let (o, agg) = (ok.snapshot(), exec.stats().snapshot());
    assert_eq!(o.cancelled_tasks, 0);
    assert_eq!(agg.cancelled_tasks, 1);
    assert_eq!(agg.ops_executed, c.ops_executed + o.ops_executed);
    assert_eq!(agg.continuations, c.continuations + o.continuations);
    assert_eq!(agg.frames_spawned, c.frames_spawned + o.frames_spawned);
}

#[test]
fn straggler_stats_fold_into_lifetime_aggregate_at_teardown() {
    // A cancelled run's stray tasks drain *after* the run has reported its
    // error (and absorbed its counters). Every straggler increment —
    // `cancelled_tasks` included — must still reach the executor-lifetime
    // aggregate, folded exactly once at final frame teardown.
    let exec = Executor::with_threads(2);
    let s = Session::new(Arc::clone(&exec), sum_module()).unwrap();
    let h = s.submit_run(vec![Tensor::scalar_i32(2_000_000)]).unwrap();
    let run_stats = Arc::clone(h.stats());
    // Let the run actually get going before cancelling it.
    while run_stats.frames_spawned.load(Ordering::Relaxed) < 100 {
        std::thread::yield_now();
    }
    h.cancel();
    match h.wait() {
        Err(ExecError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    wait_torn_down(&run_stats);
    let run = run_stats.snapshot();
    let agg = exec.stats().snapshot();
    assert!(
        run.cancelled_tasks > 0,
        "cancelling a deep in-flight run must drop at least one task"
    );
    // This executor ran exactly one run, so the lifetime aggregate must
    // equal the run's final counters — nothing lost, nothing double
    // counted (the old code either dropped stragglers or counted
    // cancellations on both sinks).
    assert_eq!(agg.cancelled_tasks, run.cancelled_tasks);
    assert_eq!(agg.ops_executed, run.ops_executed);
    assert_eq!(agg.frames_spawned, run.frames_spawned);
    assert_eq!(agg.continuations, run.continuations);
    assert_eq!(agg.max_depth, run.max_depth);
}

#[test]
fn successful_runs_fold_before_wait_returns() {
    // The completion-time absorb must still be visible immediately after
    // wait() — the teardown fold is a late-straggler catch-up, not a
    // replacement for prompt folding.
    let exec = Executor::with_threads(2);
    let s = Session::new(Arc::clone(&exec), sum_module()).unwrap();
    s.run(vec![Tensor::scalar_i32(50)]).unwrap();
    let agg = exec.stats().snapshot();
    assert!(agg.frames_spawned > 50);
    assert_eq!(agg.cancelled_tasks, 0);
}

#[test]
fn overlapping_training_steps_are_rejected_across_threads() {
    // Thread A runs a long clearing training step; the main thread's
    // clearing calls must bounce with TrainingOverlap while A is inside,
    // and succeed again after A returns. (The deterministic single-thread
    // variant lives in the session unit tests; this exercises the real
    // two-thread race.) No sleeps: both sides retry, so the test cannot
    // depend on who gets scheduled first — the main thread attempts in a
    // tight loop (µs per attempt) against A's ~1s-deep step, and A
    // retries the claim if one of those attempts briefly held the token.
    let s = Arc::new(Session::new(Executor::with_threads(2), sum_module()).unwrap());
    let done = Arc::new(AtomicBool::new(false));
    let trainer = {
        let s = Arc::clone(&s);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            // Deep enough to stay in flight for ~1s on this container.
            let r = loop {
                match s.run_training(vec![Tensor::scalar_i32(200_000)]) {
                    Err(ExecError::TrainingOverlap) => continue, // main holds it; retry
                    r => break r,
                }
            };
            done.store(true, Ordering::Release);
            r
        })
    };
    let mut saw_overlap = false;
    while !saw_overlap {
        match s.run_training(vec![Tensor::scalar_i32(1)]) {
            Err(ExecError::TrainingOverlap) => saw_overlap = true,
            Ok(_) => {
                // A has not claimed the token yet (or we raced ahead of
                // it). If A already finished without us ever overlapping,
                // the ~1s step never collided with µs-scale attempts —
                // that cannot happen unless the guard is broken.
                assert!(
                    !done.load(Ordering::Acquire),
                    "deep training step finished without a single overlap"
                );
                // Sleep with the token *free* so the trainer thread gets a
                // scheduling slot to claim it (on one core, back-to-back
                // attempts could otherwise starve its compare_exchange).
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    // The batch entry point bounces identically while A is inside.
    match s.run_training_batch(vec![vec![Tensor::scalar_i32(1)]]) {
        Err(ExecError::TrainingOverlap) => {}
        // A may have finished in the meantime; then the call legitimately
        // succeeds — the overlap rejection itself was proven above.
        Ok(_) => assert!(done.load(Ordering::Acquire)),
        Err(other) => panic!("unexpected error: {other}"),
    }
    // Inference is unrestricted while (or after) the step runs.
    let out = s.run(vec![Tensor::scalar_i32(4)]).unwrap();
    assert_eq!(out[0].as_i32_scalar().unwrap(), gauss(4));
    trainer.join().unwrap().unwrap();
    // Step finished: the token is free again.
    s.run_training(vec![Tensor::scalar_i32(5)]).unwrap();
}

#[test]
fn eight_threads_hammer_one_session() {
    // The satellite stress test: one shared session, eight OS threads, a
    // mix of blocking runs and concurrent submissions, exact results
    // demanded everywhere.
    let s = Arc::new(Session::new(Executor::with_threads(2), sum_module()).unwrap());
    let mut handles = Vec::new();
    for t in 0..8i32 {
        let s = Arc::clone(&s);
        handles.push(std::thread::spawn(move || {
            for i in 0..40i32 {
                let n = (t * 7 + i) % 60;
                if i % 3 == 0 {
                    // Blocking path.
                    let out = s.run(vec![Tensor::scalar_i32(n)]).unwrap();
                    assert_eq!(out[0].as_i32_scalar().unwrap(), gauss(n));
                } else {
                    // Concurrent batch path.
                    let feeds = vec![vec![Tensor::scalar_i32(n)], vec![Tensor::scalar_i32(n + 1)]];
                    let rs = s.run_many(feeds);
                    assert_eq!(
                        rs[0].as_ref().unwrap()[0].as_i32_scalar().unwrap(),
                        gauss(n)
                    );
                    assert_eq!(
                        rs[1].as_ref().unwrap()[0].as_i32_scalar().unwrap(),
                        gauss(n + 1)
                    );
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}
