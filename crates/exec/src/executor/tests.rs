//! The continuation rule, pinned: what a worker keeps, what it queues, when
//! it hands claimed work back, and how a chain ends under cancel and error.
//!
//! Interleavings are forced, not slept for: where a test needs to know which
//! thread ran what, the test thread acts as one worker by calling
//! [`run_batch`] / [`run_batch_fused`] / [`execute_task`] itself on tasks
//! from [`Executor::start`], beside an executor whose single real worker is
//! known to be parked. The per-run `trace` (test builds only) records the
//! executing thread of every dispatched op.

use super::*;
use rdg_graph::{Module, ModuleBuilder};
use rdg_tensor::DType;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

fn planned(m: Module) -> (Arc<ModulePlan>, Arc<ParamStore>) {
    let plan = ModulePlan::new(Arc::new(m)).unwrap();
    let params = Arc::new(ParamStore::from_module(&plan.module));
    (plan, params)
}

/// `x + 1 + 1 + …`, `n` dependent ops: one input, no fork anywhere.
fn chain(n: usize) -> Module {
    let mut mb = ModuleBuilder::new();
    let mut x = mb.main_input(DType::F32);
    for _ in 0..n {
        x = mb.add_const(x, 1.0).unwrap();
    }
    mb.set_outputs(&[x]).unwrap();
    mb.finish().unwrap()
}

/// One producer (`tanh x`) read by `k` independent consumers.
fn fanout(k: usize) -> Module {
    let mut mb = ModuleBuilder::new();
    let x = mb.main_input(DType::F32);
    let t = mb.tanh(x).unwrap();
    let outs: Vec<_> = (0..k).map(|i| mb.add_const(t, i as f32).unwrap()).collect();
    mb.set_outputs(&outs).unwrap();
    mb.finish().unwrap()
}

/// Sum over a full binary tree of `2^depth` leaves, two recursive calls per
/// internal frame (the fork the executor splits between workers).
fn tree(depth: i32) -> Module {
    let mut mb = ModuleBuilder::new();
    let h = mb.declare_subgraph("tree", &[DType::I32, DType::F32], &[DType::F32]);
    mb.define_subgraph(&h, |b| {
        let d = b.input(0)?;
        let x = b.input(1)?;
        let zero = b.const_i32(0);
        let p = b.igt(d, zero)?;
        let out = b.cond1(
            p,
            DType::F32,
            |b| {
                let one = b.const_i32(1);
                let d2 = b.isub(d, one)?;
                let xl = b.scale(x, 0.4)?;
                let xr = b.scale(x, 0.6)?;
                let l = b.invoke(&h, &[d2, xl])?[0];
                let r = b.invoke(&h, &[d2, xr])?[0];
                b.add(l, r)
            },
            |b| b.tanh(x),
        )?;
        Ok(vec![out])
    })
    .unwrap();
    let d0 = mb.const_i32(depth);
    let x0 = mb.const_f32(1.0);
    let out = mb.invoke(&h, &[d0, x0]).unwrap();
    mb.set_outputs(&[out[0]]).unwrap();
    mb.finish().unwrap()
}

/// An executor whose only real worker is parked in `pop_batch`.
fn executor_with_parked_worker() -> Arc<Executor> {
    let exec = Executor::with_threads(1);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !exec.queue.has_idle() {
        assert!(Instant::now() < deadline, "the worker never parked");
        std::thread::yield_now();
    }
    exec
}

fn start(exec: &Arc<Executor>, m: Module, feeds: Vec<Tensor>) -> (RunHandle, Task) {
    let (plan, params) = planned(m);
    let (h, root) = exec
        .start(&plan, &params, feeds, None, None, false)
        .unwrap();
    (h, root.expect("the prelude leaves one op runnable"))
}

/// Waits for the run; returns its result and, op by op, the executing thread.
fn finish(h: RunHandle) -> (Result<Vec<Tensor>, ExecError>, Vec<ThreadId>) {
    let ctx = Arc::clone(&h.ctx);
    let result = h.wait();
    let threads = ctx.trace.lock().iter().map(|(t, ..)| *t).collect();
    (result, threads)
}

fn scalar(result: Result<Vec<Tensor>, ExecError>) -> f32 {
    result.unwrap()[0].as_f32_scalar().unwrap()
}

/// Blocks until the runtime has dropped its last reference to the run (the
/// teardown fold into the lifetime aggregate has then happened).
fn wait_torn_down(stats: &Arc<ExecStats>) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Arc::strong_count(stats) > 1 {
        assert!(Instant::now() < deadline, "run never tore down");
        std::thread::yield_now();
    }
}

#[test]
fn serial_chain_runs_as_one_chain_off_the_stack() {
    for n in [1_000usize, 100_000] {
        let exec = Executor::with_threads(1);
        let (plan, params) = planned(chain(n));
        let feeds = vec![Tensor::scalar_f32(0.0)];
        let h = exec.submit(&plan, &params, feeds, None, None).unwrap();
        let stats = Arc::clone(h.stats());
        // A chain executed by recursion instead of the worker's loop would
        // overflow the 2 MB worker stack long before 100 000 ops.
        let out = h.wait().unwrap();
        assert_eq!(out[0].as_f32_scalar().unwrap(), n as f32);
        let s = stats.snapshot();
        assert_eq!(s.prelude_published, 1);
        assert_eq!(s.ops_executed, n as u64 + 1);
        // The head travels through the queue once; every other op is the
        // continuation of the one before it. Exact the moment wait() returns,
        // on the run and on the lifetime aggregate.
        assert_eq!(s.continuations, n as u64 - 1);
        assert_eq!(exec.stats().snapshot().continuations, n as u64 - 1);
    }
}

#[test]
fn a_fork_keeps_one_consumer_and_queues_the_rest() {
    for workers in [1, 2] {
        for k in [1usize, 2, 8] {
            let exec = Executor::with_threads(workers);
            let (plan, params) = planned(fanout(k));
            let feeds = vec![Tensor::scalar_f32(0.5)];
            let h = exec.submit(&plan, &params, feeds, None, None).unwrap();
            let stats = Arc::clone(h.stats());
            let out = h.wait().unwrap();
            assert_eq!(out.len(), k);
            let s = stats.snapshot();
            let dispatched = s.ops_executed - s.prelude_published;
            assert_eq!(dispatched, k as u64 + 1);
            // `tanh` arrives through the queue (the run's head); finishing
            // it readies k consumers, of which exactly one is kept. The
            // consumers ready nothing, so that is the only continuation and
            // the other k-1 made a queue trip each.
            assert_eq!(s.continuations, 1, "{workers} workers, k={k}");
            assert_eq!(dispatched - s.continuations - 1, k as u64 - 1);
        }
    }
}

#[test]
fn sibling_subtrees_reach_the_other_worker() {
    // The test thread runs the root chain; whatever it does not keep can
    // only be run by the real worker, so the run completing shows the
    // surplus path end to end, and the trace shows both threads.
    let exec = executor_with_parked_worker();
    let (h, root) = start(&exec, tree(5), vec![]);
    run_batch(&exec.queue, &mut vec![root]);
    let me = std::thread::current().id();
    let (got, ran) = finish(h);
    // The root chain is at least main Invoke, igt, Cond and one op of the
    // first internal frame; which thread gets the rest depends on timing.
    assert!(ran.contains(&me));
    assert!(
        ran.iter().any(|&t| t != me),
        "nothing was left for the other worker"
    );
    let got = scalar(got);

    // Same value as a plain 2-worker run, bit for bit.
    let (plan, params) = planned(tree(5));
    let two = Executor::with_threads(2);
    let want = scalar(two.run(&plan, &params, vec![], None, None));
    assert_eq!(got.to_bits(), want.to_bits());
}

#[test]
fn scalar_loop_hands_its_claim_back_to_a_parked_worker() {
    let exec = executor_with_parked_worker();
    let (long, long_root) = start(&exec, chain(20_000), vec![Tensor::scalar_f32(0.0)]);
    let (short, short_root) = start(&exec, chain(10), vec![Tensor::scalar_f32(0.0)]);
    // One claim of two tasks: the long chain's head runs first.
    let mut batch = vec![long_root, short_root];
    run_batch(&exec.queue, &mut batch);
    assert!(batch.is_empty());
    let me = std::thread::current().id();
    let (long, ran_long) = finish(long);
    let (short, ran_short) = finish(short);
    assert!(ran_long.iter().all(|&t| t == me));
    // The short run did not wait out 20 000 ops in this thread's buffer: it
    // was handed back before the chain's first continuation and ran,
    // entirely, on the parked worker.
    assert!(ran_short.iter().all(|&t| t != me));
    assert_eq!(scalar(short), 10.0);
    assert_eq!(scalar(long), 20_000.0);
}

#[test]
fn fused_drain_shares_its_round_with_a_parked_worker() {
    let exec = executor_with_parked_worker();
    let (a, a_root) = start(&exec, chain(2_000), vec![Tensor::scalar_f32(0.0)]);
    let (b, b_root) = start(&exec, chain(2_000), vec![Tensor::scalar_f32(1.0)]);
    let mut batch = vec![a_root, b_root];
    run_batch_fused(&exec.queue, &mut batch);
    let me = std::thread::current().id();
    let (sa, sb) = (Arc::clone(a.stats()), Arc::clone(b.stats()));
    let ((a, ran_a), (b, ran_b)) = (finish(a), finish(b));
    // Both claimed heads run in the first round, here. Without the bound the
    // two chains would go on interleaving on this thread, round after round,
    // while the other worker stays parked; with it the second chain's
    // continuation is handed over before the second round.
    assert!(ran_a.iter().all(|&t| t == me));
    assert_eq!(ran_b.iter().filter(|&&t| t == me).count(), 1);
    assert_eq!(scalar(a), 2_000.0);
    assert_eq!(scalar(b), 2_001.0);
    // Rounds count their continuations exactly, per run: every op of `a`
    // but its head; of `b` neither the head nor the op that changed hands
    // through the queue.
    assert_eq!(sa.snapshot().continuations, 1_999);
    assert_eq!(sb.snapshot().continuations, 1_998);
}

#[test]
fn cancel_stops_the_chain_at_the_next_op() {
    let exec = executor_with_parked_worker();
    let (h, root) = start(&exec, chain(1_000), vec![Tensor::scalar_f32(0.0)]);
    let stats = Arc::clone(h.stats());
    let mut next = Some(root);
    for _ in 0..10 {
        next = execute_task(next.take().expect("chain continues"));
    }
    h.cancel();
    assert!(execute_task(next.expect("chain continues")).is_none());
    assert!(matches!(h.wait(), Err(ExecError::Cancelled)));
    wait_torn_down(&stats);
    let s = stats.snapshot();
    assert_eq!(s.ops_executed, 1 + 10, "prelude + the ops before cancel");
    assert_eq!(s.cancelled_tasks, 1, "only the chain's next op was dropped");
    // This executor saw one run: lifetime and per-run counters agree.
    assert_eq!(exec.stats().snapshot(), s);
}

#[test]
fn kernel_error_mid_chain_ends_it_there() {
    // 500 adds, a division by the fed divisor, 500 more adds.
    let mut mb = ModuleBuilder::new();
    let mut x = mb.main_input(DType::I32);
    let d = mb.main_input(DType::I32);
    let one = mb.const_i32(1);
    for _ in 0..500 {
        x = mb.iadd(x, one).unwrap();
    }
    x = mb.idiv(x, d).unwrap();
    for _ in 0..500 {
        x = mb.iadd(x, one).unwrap();
    }
    mb.set_outputs(&[x]).unwrap();
    let (plan, params) = planned(mb.finish().unwrap());
    let exec = Executor::with_threads(1);
    let feeds = |d: i32| vec![Tensor::scalar_i32(0), Tensor::scalar_i32(d)];

    let bad = exec.submit(&plan, &params, feeds(0), None, None).unwrap();
    let good = exec.submit(&plan, &params, feeds(5), None, None).unwrap();
    let (sb, sg) = (Arc::clone(bad.stats()), Arc::clone(good.stats()));
    assert!(matches!(bad.wait(), Err(ExecError::Kernel { .. })));
    // Already exact when the error is delivered: three prelude nodes, 500
    // adds and the division that failed, the last 500 of them continuations.
    assert_eq!(sb.snapshot().ops_executed, 3 + 500 + 1);
    assert_eq!(sb.snapshot().continuations, 500);
    assert_eq!(good.wait().unwrap()[0].as_i32_scalar().unwrap(), 600);
    wait_torn_down(&sb);
    let b = sb.snapshot();
    // None of the 500 ops behind the division was started, so none had to
    // be dropped, and nothing trickled in after the error.
    assert_eq!(b.ops_executed, 3 + 500 + 1);
    assert_eq!(b.cancelled_tasks, 0);
    assert_eq!(b.continuations, 500);
    wait_torn_down(&sg);
    let (g, agg) = (sg.snapshot(), exec.stats().snapshot());
    assert_eq!(g.ops_executed, 3 + 1001);
    assert_eq!(agg.ops_executed, b.ops_executed + g.ops_executed);
    assert_eq!(agg.continuations, b.continuations + g.continuations);
    assert_eq!(agg.cancelled_tasks, 0);
}

/// The frame path of every op the (finished) run dispatched.
fn traced_paths(ctx: &RunContext) -> Vec<PathKey> {
    ctx.trace.lock().iter().map(|(.., p)| p.clone()).collect()
}

#[test]
fn inference_builds_no_paths_and_training_one_node_per_frame() {
    let exec = Executor::with_threads(2);
    let (plan, params) = planned(tree(5));
    // Every inference entry point (`Session::run`, `run_many`, `submit_run`,
    // the serve dispatcher) starts its runs like this, scalar or fused: no
    // cache, so no table, and every frame of the 63-call recursion sits at
    // the root path.
    for fuse in [false, true] {
        let run = if fuse {
            exec.submit_fused(&plan, &params, vec![])
        } else {
            exec.submit(&plan, &params, vec![], None, None)
        }
        .unwrap();
        let ctx = Arc::clone(&run.ctx);
        assert!(ctx.cache.is_none());
        run.wait().unwrap();
        let paths = traced_paths(&ctx);
        assert!(paths.len() > 63 && paths.iter().all(PathKey::is_empty));
    }
    // The same module run with a cache: each frame below the root gets its
    // own node in that cache's table (63 activations of `tree`, each with
    // the frame of the branch its Cond took), and another run's cache
    // shares none of them.
    let caches = [(); 2].map(|_| Arc::new(BackpropCache::new()));
    let deepest = caches.each_ref().map(|cache| {
        let h = exec
            .submit(&plan, &params, vec![], None, Some(Arc::clone(cache)))
            .unwrap();
        let ctx = Arc::clone(&h.ctx);
        h.wait().unwrap();
        let frames = ctx.run_stats.snapshot().frames_spawned as usize;
        assert_eq!(cache.path_nodes(), frames - 1);
        let paths = traced_paths(&ctx);
        paths.into_iter().max_by_key(PathKey::len).unwrap()
    });
    assert_eq!(caches[0].path_nodes(), 2 * 63);
    assert_eq!(deepest[0].len(), deepest[1].len());
    assert!(!deepest[0].ptr_eq(&deepest[1]));
}

/// Cores of `gref` waiting in the plan's free list.
fn pooled(plan: &ModulePlan, gref: GraphRef) -> usize {
    plan.plan(gref).pool.0.lock().len()
}

/// Main graphs whose callee has nothing to run once its sources are
/// resolved: `cap` returns a capture, `par` a parameter. `call` wires the
/// callee(s) into main; the expected output is `cap + par = 100 + 7`.
fn born_complete(
    call: impl FnOnce(&mut ModuleBuilder, rdg_graph::Wire, rdg_graph::ParamId) -> rdg_graph::Wire,
) -> Module {
    let mut mb = ModuleBuilder::new();
    let bias = mb.const_f32(100.0);
    let w = mb.param("w", Tensor::scalar_f32(7.0));
    let out = call(&mut mb, bias, w);
    mb.set_outputs(&[out]).unwrap();
    mb.finish().unwrap()
}

#[test]
fn a_graph_with_nothing_left_to_run_completes_while_it_spawns() {
    let exec = Executor::with_threads(1);
    // As main: a constant, and a parameter, returned as they are. The run is
    // over before `start` returns; there is no task to queue.
    for main_is_param in [false, true] {
        let m = born_complete(|mb, bias, w| match main_is_param {
            true => mb.param_read(w).unwrap(),
            false => bias,
        });
        let (plan, params) = planned(m);
        assert_eq!(plan.plan(GraphRef::Main).live_at_spawn, 0);
        let (h, root) = exec
            .start(&plan, &params, vec![], None, None, false)
            .unwrap();
        assert!(root.is_none() && h.is_finished());
        let stats = Arc::clone(h.stats());
        let want = if main_is_param { 7.0 } else { 100.0 };
        assert_eq!(scalar(h.wait()), want);
        let s = stats.snapshot();
        // Every node of main is prelude: the constant, and the read if any.
        let n = plan.plan(GraphRef::Main).len() as u64;
        assert_eq!(
            (s.frames_spawned, s.ops_executed, s.prelude_published),
            (1, n, n)
        );
        assert_eq!(pooled(&plan, GraphRef::Main), 1, "the core went back");
    }

    // Under Invoke: both callees return to main while they spawn, and main's
    // `add` is the continuation of whichever call completed it.
    let m = born_complete(|mb, bias, w| {
        let cap = mb.subgraph("cap", &[], &[DType::F32], |_| Ok(vec![bias]));
        let par = mb.subgraph("par", &[], &[DType::F32], |b| Ok(vec![b.param_read(w)?]));
        let c = mb.invoke(&cap.unwrap(), &[]).unwrap()[0];
        let p = mb.invoke(&par.unwrap(), &[]).unwrap()[0];
        mb.add(c, p).unwrap()
    });
    let (plan, params) = planned(m);
    let h = exec.submit(&plan, &params, vec![], None, None).unwrap();
    let stats = Arc::clone(h.stats());
    assert_eq!(scalar(h.wait()), 107.0);
    let s = stats.snapshot();
    assert_eq!(s.frames_spawned, 3);
    // main's constant and one source per callee; two Invokes and the add.
    assert_eq!((s.prelude_published, s.ops_executed), (3, 6));
    for sub in 0..2 {
        assert_eq!(pooled(&plan, GraphRef::Sub(SubGraphId(sub))), 1);
    }

    // As Cond branches: whichever the predicate picks is born complete.
    for (pred, want) in [(1, 100.0), (0, 7.0)] {
        let m = born_complete(|mb, bias, w| {
            let p = mb.main_input(DType::I32);
            mb.cond1(p, DType::F32, |_| Ok(bias), |b| b.param_read(w))
                .unwrap()
        });
        let (plan, params) = planned(m);
        let feeds = vec![Tensor::scalar_i32(pred)];
        let h = exec.submit(&plan, &params, feeds, None, None).unwrap();
        let stats = Arc::clone(h.stats());
        assert_eq!(scalar(h.wait()), want);
        assert_eq!(stats.snapshot().frames_spawned, 2);
        let taken = SubGraphId(if pred != 0 { 0 } else { 1 });
        assert_eq!(pooled(&plan, GraphRef::Sub(taken)), 1);
    }
}

#[test]
fn a_zero_argument_invoke_is_ready_at_spawn_and_still_dispatched() {
    // main = seven() + seven(): two source nodes that are calls. Nothing is
    // resolved at spawn; the first is the root task, the second its surplus.
    let mut mb = ModuleBuilder::new();
    let seven = mb
        .subgraph("seven", &[], &[DType::F32], |b| {
            let c = b.const_f32(3.0);
            b.add_const(c, 4.0).map(|y| vec![y])
        })
        .unwrap();
    let a = mb.invoke(&seven, &[]).unwrap()[0];
    let b = mb.invoke(&seven, &[]).unwrap()[0];
    let out = mb.add(a, b).unwrap();
    mb.set_outputs(&[out]).unwrap();
    let (plan, params) = planned(mb.finish().unwrap());
    assert_eq!(plan.plan(GraphRef::Main).ready_at_spawn.len(), 2);

    let exec = Executor::with_pool(0);
    let (h, root) = exec
        .start(&plan, &params, vec![], None, None, false)
        .unwrap();
    let stats = Arc::clone(h.stats());
    assert_eq!(stats.snapshot().ops_executed, 0, "main has no prelude");
    // The test thread is the only worker: root chain first, then the queue.
    let mut next = root;
    while let Some(t) = next.or_else(|| exec.queue.try_pop()) {
        next = execute_task(t);
    }
    assert_eq!(scalar(h.wait()), 14.0);
    let s = stats.snapshot();
    assert_eq!(s.frames_spawned, 3);
    // Per callee: the Invoke, the constant (prelude), the add; and main's add.
    assert_eq!((s.ops_executed, s.prelude_published), (7, 2));
}

#[test]
fn a_failure_while_spawning_fails_the_run_once_and_the_counters_close() {
    // `half(x: f32)` called with an f32, its Input then re-declared i32: the
    // kind of disagreement only a forged module can carry past the builder.
    let mut mb = ModuleBuilder::new();
    let half = mb
        .subgraph("half", &[DType::F32], &[DType::F32], |b| {
            let x = b.input(0)?;
            b.scale(x, 0.5).map(|y| vec![y])
        })
        .unwrap();
    let x = mb.main_input(DType::F32);
    let t = mb.tanh(x).unwrap();
    let y = mb.invoke(&half, &[t]).unwrap()[0];
    mb.set_outputs(&[y]).unwrap();
    let mut m = mb.finish().unwrap();
    let body = &mut m.subgraphs[0].graph;
    let input = body.input_nodes[0];
    body.nodes[input.0 as usize].op = OpKind::Input {
        index: 0,
        dtype: DType::I32,
    };
    let (plan, params) = planned(m);

    let exec = executor_with_parked_worker();
    let feeds = vec![Tensor::scalar_f32(0.25)];
    let h = exec.submit(&plan, &params, feeds, None, None).unwrap();
    let stats = Arc::clone(h.stats());
    match h.wait() {
        Err(ExecError::Kernel { graph, source, .. }) => {
            assert_eq!(graph, "half");
            assert!(matches!(
                *source,
                rdg_tensor::TensorError::DTypeMismatch { ctx: "Input", .. }
            ));
        }
        other => panic!("expected the Input mismatch, got {other:?}"),
    }
    wait_torn_down(&stats);
    let s = stats.snapshot();
    // main's Input, tanh, the Invoke, and the callee's prelude (counted as a
    // whole when the spawn begins). The frame never existed for anyone else:
    // nothing was queued, so nothing had to be dropped.
    assert_eq!(
        (s.frames_spawned, s.ops_executed, s.prelude_published),
        (2, 4, 2)
    );
    assert_eq!(s.cancelled_tasks, 0);
    assert_eq!(exec.stats().snapshot(), s);
    assert_eq!(pooled(&plan, GraphRef::Sub(SubGraphId(0))), 1);
}

#[test]
fn a_cancelled_member_drops_out_of_its_fused_group() {
    // `tanh(x · W)`: the head of every run is the batchable `MatMul`.
    let mut mb = ModuleBuilder::new();
    let x = mb.main_input(DType::F32);
    let w = mb.param("w", Tensor::from_f32(vec![3, 2], vec![0.5; 6]).unwrap());
    let w = mb.param_read(w).unwrap();
    let y = mb.matmul(x, w).unwrap();
    let y = mb.tanh(y).unwrap();
    mb.set_outputs(&[y]).unwrap();
    let (plan, params) = planned(mb.finish().unwrap());
    let row = |v: f32| vec![Tensor::from_f32(vec![1, 3], vec![v, 1.0, -2.0]).unwrap()];

    // The test thread is the only worker: three fusing runs, the middle one
    // cancelled, claimed in one batch. All three heads form one group; the
    // cancelled member drops out at its claim and the other two fuse.
    let exec = Executor::with_pool(0);
    let (handles, mut batch): (Vec<RunHandle>, Vec<Task>) = [0.25, 0.5, 0.75]
        .into_iter()
        .map(|v| {
            let (h, root) = exec
                .start(&plan, &params, row(v), None, None, true)
                .unwrap();
            (h, root.expect("the MatMul is ready at spawn"))
        })
        .unzip();
    handles[1].cancel();
    run_batch_fused(&exec.queue, &mut batch);
    assert!(exec.queue.try_pop().is_none(), "nothing was left behind");
    let stats: Vec<_> = handles.iter().map(|h| Arc::clone(h.stats())).collect();
    let outs: Vec<_> = handles.into_iter().map(RunHandle::wait).collect();
    assert!(matches!(outs[1], Err(ExecError::Cancelled)));
    let [a, c, b] = [0, 1, 2].map(|i| stats[i].snapshot());
    assert_eq!(
        (c.cancelled_tasks, c.fusable_seen, c.fused_tasks),
        (1, 0, 0)
    );
    assert_eq!((a.fused_groups, a.fused_tasks, b.fused_tasks), (1, 1, 1));

    // Each survivor equals its own scalar run bit for bit.
    for (i, v) in [(0, 0.25), (2, 0.75)] {
        let (h, root) = exec
            .start(&plan, &params, row(v), None, None, false)
            .unwrap();
        let mut next = root;
        while let Some(t) = next {
            next = execute_task(t);
        }
        let (want, got) = (h.wait().unwrap(), outs[i].as_ref().unwrap());
        assert_eq!(want[0].f32s().unwrap(), got[0].f32s().unwrap());
    }
}
