//! Batch fusion must change the schedule, not the math.
//!
//! The executor's one drain stacks the tasks of a stackable node — from
//! sibling frames, minibatch instances and concurrent requests alike — into
//! one matmul-class call and scatters the result back per task. The
//! stacking is row/column concatenation with the kernel loop order
//! preserved, so fused outputs are **bit-for-bit** identical to scalar
//! execution — not merely `allclose`. These tests pin that contract end to
//! end, with the virtual clock (`SimExecutor`, which executes one task at a
//! time and never stacks) as the scalar oracle. The models are sized above
//! the stacking crossover (a shared weight of at least 64 KiB), so their
//! weight products stack:
//!
//! 1. A property sweep over random tree shapes, depths, and model kinds
//!    (TreeRNN / RNTN / TreeLSTM — covering `MatMul` and `Bilinear`)
//!    comparing every output tensor of every request bitwise.
//! 2. A deterministic saturation test that also asserts fusion actually
//!    *engages* (groups form, instances fuse) and that per-class
//!    accounting stays closed with batching on — fused members resolve
//!    their own tickets exactly once.
//! 3. Fusion needs no opt-in and is counted per run: a serve loop that
//!    shuts down takes nothing from another loop on the same executor, a
//!    bare run beside a serve loop groups with its requests, and a loop's
//!    fusion counters count its own requests' runs and nothing else.
//! 4. Cancelling one of several runs claimed together drops that run
//!    alone: the others still fuse, and every counter is accounted once.
//! 5. A TreeLSTM minibatch trained on the live two-worker pool, where its
//!    gate products and weight-gradient sinks stack, gives the per-instance
//!    losses of the virtual clock bit for bit, and its gradients within
//!    the training suites' tolerance; `run_many` inference the outputs.

use proptest::prelude::*;
use rdg_core::exec::sim::SimExecutor;
use rdg_core::exec::{
    BackpropCache, ExecError, ExecStats, GradStore, RunHandle, ServeTicket, StatsSnapshot,
};
use rdg_core::prelude::*;
use std::sync::Arc;

const KINDS: [ModelKind; 3] = [ModelKind::TreeRnn, ModelKind::Rntn, ModelKind::TreeLstm];

/// The tiny config with a hidden width whose recursive weight is at least
/// the 64 KiB stacking crossover: TreeRNN and TreeLSTM `[192, 96]`
/// (72 KiB), RNTN's `V` `[16, 32, 32]` (64 KiB).
fn above_crossover(kind: ModelKind, batch: usize) -> ModelConfig {
    let hidden = if kind == ModelKind::Rntn { 16 } else { 96 };
    ModelConfig {
        hidden,
        ..ModelConfig::tiny(kind, batch)
    }
}

/// One request's outputs on the virtual clock: the scalar oracle.
fn oracle(sess: &Session, feeds: Vec<Tensor>) -> Vec<Tensor> {
    (SimExecutor::new(1).run(sess.plan(), sess.params(), feeds, None, None))
        .expect("oracle run")
        .outputs
}

/// Build a per-instance session plus one feed vector per tree.
fn fixture(
    kind: ModelKind,
    seed: u64,
    n: usize,
    max_len: usize,
    shape: TreeShape,
) -> (Session, Vec<Vec<Tensor>>) {
    let cfg = above_crossover(kind, 1);
    let data = Dataset::generate(DatasetConfig {
        vocab: cfg.vocab,
        n_train: n,
        n_valid: 0,
        min_len: 3,
        max_len,
        shape,
        seed,
        ..DatasetConfig::default()
    });
    let m = build_recursive(&cfg).expect("build recursive");
    let sess = Session::new(Executor::with_threads(2), m).expect("session");
    let requests = Dataset::feeds_per_instance(data.split(Split::Train));
    (sess, requests)
}

/// Exact equality: same shapes, same f32 bit patterns. `allclose` would
/// hide a fusion that silently reordered an accumulation.
fn assert_bit_equal(scalar: &[Tensor], fused: &[Tensor], ctx: &str) {
    assert_eq!(scalar.len(), fused.len(), "{ctx}: output arity differs");
    for (o, (a, b)) in scalar.iter().zip(fused).enumerate() {
        assert_eq!(a.shape(), b.shape(), "{ctx}: output {o} shape differs");
        let (xa, xb) = (a.f32s().expect("f32 output"), b.f32s().expect("f32 output"));
        for (j, (va, vb)) in xa.iter().zip(xb).enumerate() {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{ctx}: output {o}[{j}] differs: scalar {va} vs fused {vb}"
            );
        }
    }
}

proptest! {
    /// Random trees, random depths, random shapes, all three model kinds:
    /// serving with cross-request batching on returns bit-identical
    /// outputs to one-at-a-time scalar runs of the same session.
    #[test]
    fn fused_serving_matches_scalar_bitwise(
        (kind_idx, seed, max_len, balanced) in (0usize..3, 0u64..1_000_000, 5usize..14, 0u8..2)
    ) {
        let kind = KINDS[kind_idx];
        let shape = if balanced == 0 { TreeShape::Moderate } else { TreeShape::Balanced };
        let (sess, requests) = fixture(kind, seed, 6, max_len, shape);
        let scalar: Vec<Vec<Tensor>> = requests
            .iter()
            .map(|r| oracle(&sess, r.clone()))
            .collect();
        // Then the same requests, all in flight at once, batching on
        // (the serving default).
        let client = sess.serve();
        let tickets: Vec<_> = requests
            .iter()
            .map(|r| client.submit(r.clone()).expect("admit"))
            .collect();
        let fused: Vec<Vec<Tensor>> = tickets
            .into_iter()
            .map(|t| t.wait().expect("fused request"))
            .collect();
        let st = client.stats();
        client.shutdown();
        for (i, (s, f)) in scalar.iter().zip(&fused).enumerate() {
            assert_bit_equal(s, f, &format!("{kind:?} seed {seed} request {i}"));
        }
        // Tickets resolve exactly once whether or not their kernels fused.
        prop_assert_eq!(st.submitted, st.completed);
        prop_assert_eq!(st.failed, 0);
        prop_assert!(st.fusion_instances <= st.fusion_eligible,
            "fused more instances than were eligible");
    }
}

/// Saturating same-shape traffic must actually form groups: 32 identical
/// balanced trees offered at once. Also pins per-class accounting closure
/// with batching on, and the counter algebra of the fusion telemetry.
#[test]
fn fusion_engages_under_saturation_and_accounting_closes() {
    let (sess, requests) = fixture(ModelKind::TreeRnn, 20240808, 32, 16, TreeShape::Balanced);
    let scalar: Vec<Vec<Tensor>> = requests.iter().map(|r| oracle(&sess, r.clone())).collect();
    let client = sess.serve_with(ServeConfig {
        capacity: 64,
        ..ServeConfig::default()
    });
    // Mixed classes: fusion groups freely across QoS lanes (class shapes
    // admission order, not kernel compatibility).
    let classed: Vec<_> = Priority::ALL
        .iter()
        .map(|&p| client.with_priority(p))
        .collect();
    let tickets: Vec<_> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| classed[i % classed.len()].submit(r.clone()).expect("admit"))
        .collect();
    let fused: Vec<Vec<Tensor>> = tickets
        .into_iter()
        .map(|t| t.wait().expect("fused request"))
        .collect();
    let st = client.stats();
    client.shutdown();

    for (i, (s, f)) in scalar.iter().zip(&fused).enumerate() {
        assert_bit_equal(s, f, &format!("saturated request {i}"));
    }
    // The whole point: groups formed and fused real work.
    assert!(st.fusion_eligible > 0, "no batchable instances observed");
    assert!(
        st.fusion_groups > 0,
        "saturating identical-shape traffic formed no fused groups"
    );
    assert!(
        st.fusion_instances >= 2 * st.fusion_groups,
        "every fused group stacks at least two instances \
         ({} instances across {} groups)",
        st.fusion_instances,
        st.fusion_groups
    );
    assert!(st.fusion_instances <= st.fusion_eligible);
    let f = st.fused_fraction();
    assert!((0.0..=1.0).contains(&f), "fused fraction {f} out of range");
    // Accounting closure, per class and aggregate, with batching on.
    assert_eq!(st.submitted, 32);
    assert_eq!(st.completed + st.failed + st.abandoned, st.submitted);
    assert_eq!(st.failed, 0);
    for c in &st.classes {
        assert_eq!(
            c.completed + c.failed + c.abandoned,
            c.submitted,
            "class accounting must close exactly with batching on"
        );
        assert_eq!(
            c.shed + c.shed_inflight + c.shed_predicted,
            0,
            "no SLO traffic here, so fusion must not invent sheds"
        );
    }
}

/// A one-worker executor, a TreeRNN session on it, one request (a balanced
/// 12-leaf tree) and that request's scalar outputs.
fn one_worker_fixture() -> (Arc<Executor>, Session, Vec<Tensor>, Vec<Tensor>) {
    let cfg = above_crossover(ModelKind::TreeRnn, 1);
    let data = Dataset::generate(DatasetConfig {
        vocab: cfg.vocab,
        n_train: 1,
        n_valid: 0,
        min_len: 12,
        max_len: 12,
        shape: TreeShape::Balanced,
        seed: 20260925,
    });
    let exec = Executor::with_threads(1);
    let sess =
        Session::new(Arc::clone(&exec), build_recursive(&cfg).expect("build")).expect("session");
    let request = Dataset::feeds_per_instance(data.split(Split::Train)).remove(0);
    let scalar = oracle(&sess, request.clone());
    (exec, sess, request, scalar)
}

/// Starts the plug — a straight line long enough to outlast any number of
/// submits — and returns once `exec`'s one worker has claimed it, alone:
/// whatever is submitted next queues up behind it. Callers assert the plug
/// is still running when they are done submitting.
fn plug(exec: &Arc<Executor>) -> RunHandle {
    let mut mb = ModuleBuilder::new();
    let mut x = mb.const_f32(0.0);
    for _ in 0..100_000 {
        x = mb.add_const(x, 1.0).expect("add");
    }
    mb.set_outputs(&[x]).expect("outputs");
    let plug_sess = Session::new(Arc::clone(exec), mb.finish().expect("finish")).expect("plug");
    let plug = plug_sess.submit_run(vec![]).expect("plug run");
    while plug.stats().snapshot().ops_executed < 2 {
        std::thread::yield_now();
    }
    plug
}

/// Eight identical requests in flight at once on one worker, behind a plug
/// run that keeps the worker busy until all eight heads are queued — which
/// makes the schedule a function of the code alone; the plug never groups.
/// Every request's outputs are checked bitwise against the scalar oracle.
/// Returns the executor and its stats before and after the eight.
fn eight_identical_behind_a_plug(profile: bool) -> (Arc<Executor>, StatsSnapshot, StatsSnapshot) {
    let (exec, sess, request, scalar) = one_worker_fixture();
    if profile {
        exec.stats().enable_profiling();
    }
    let before = exec.stats().snapshot();
    let plug = plug(&exec);
    let handles: Vec<_> = (0..8)
        .map(|_| sess.submit_run(request.clone()).expect("submit"))
        .collect();
    assert!(
        !plug.is_finished(),
        "the plug ended before all requests were queued"
    );
    for (i, h) in handles.into_iter().enumerate() {
        assert_bit_equal(
            &scalar,
            &h.wait().expect("concurrent run"),
            &format!("request {i}"),
        );
    }
    plug.wait().expect("plug");
    let after = exec.stats().snapshot();
    (exec, before, after)
}

/// Every member of a fused group finishes in the same stacked call, and its
/// continuation chain runs until the next stackable node, where it parks
/// again — so the eight runs regroup at every weight product. On the
/// one-worker plug schedule the fused fraction is a number, not a
/// distribution: 81 of 88 stackable tasks (0.920), the eleven combine
/// products of each of the eight trees.
///
/// History: the round-based fused drain of PR 12 fused 328 of 384 eligible
/// tasks (0.854) here, counting every batchable node; since PR 44 only
/// nodes sharing a weight of at least the stacking crossover count (the
/// bias adds no longer do), and the one drain parks each member until no
/// scalar work is left instead of running lockstep rounds, so a group
/// that a claim split reunites on the agenda.
#[test]
fn identical_concurrent_requests_regroup_after_every_fused_call() {
    let (_exec, before, after) = eight_identical_behind_a_plug(false);
    let eligible = after.fusable_seen - before.fusable_seen;
    let fused = after.fused_tasks - before.fused_tasks;
    assert!(eligible > 0);
    let frac = fused as f64 / eligible as f64;
    println!("fused {fused} of {eligible} eligible kernel tasks ({frac:.3})");
    assert!(frac >= 0.85, "fused fraction fell to {frac:.3}");
}

/// The kernel profile must see the fused path: a stacked call over `k`
/// members is one profiled kernel call where scalar execution makes `k`.
/// Every dispatched task that is neither a call site (one per frame below
/// a root) nor a member of a stacked call is one profiled call, and each
/// stacked call is one more — no fewer (before PR 13 only the plain scalar
/// path was timed, and every call made by the fused worker loop went
/// missing from `kernel.busy_frac`).
#[test]
fn kernel_profile_counts_fused_calls() {
    let (exec, before, after) = eight_identical_behind_a_plug(true);
    let calls: u64 = (exec.stats().kernel_profile().values())
        .map(|&(_, n)| n)
        .sum();
    let d = |get: fn(&StatsSnapshot) -> u64| get(&after) - get(&before);
    let runs = 8 + 1; // the eight requests and the plug
    let dispatched = d(|s| s.ops_executed) - d(|s| s.prelude_published);
    let call_sites = d(|s| s.frames_spawned) - runs;
    let (groups, members) = (d(|s| s.fused_groups), d(|s| s.fused_tasks));
    assert!(groups > 0, "the plug schedule formed no fused group");
    assert_eq!(
        calls,
        dispatched - call_sites - (members - groups),
        "each fused group replaces its members' calls by one profiled call"
    );
    let (time, n) = exec.stats().kernel_profile()["MatMul"];
    assert!(
        n > 0 && !time.is_zero(),
        "MatMul profiled: {n} calls, {time:?}"
    );
}

/// Two serve loops on one executor, both fusing. The first shuts down while
/// the second has traffic in flight; the second must go on forming groups.
/// (While fusion was a switch on the pool, the first loop's shutdown turned
/// it off for everyone.)
#[test]
fn a_serve_loop_shutting_down_leaves_the_other_loop_fusing() {
    let (exec, sess, request, scalar) = one_worker_fixture();
    let config = || ServeConfig {
        capacity: 64,
        ..ServeConfig::default()
    };
    let (first, second) = (sess.serve_with(config()), sess.serve_with(config()));
    let burst = |client: &ServeClient| -> Vec<ServeTicket> {
        (0..32)
            .map(|_| client.submit(request.clone()).expect("admit"))
            .collect()
    };
    let check = |tickets: Vec<ServeTicket>, ctx: &str| {
        for t in tickets {
            assert_bit_equal(&scalar, &t.wait().expect("request"), ctx);
        }
    };
    // Both loops busy behind the plug, then the first one goes away
    // (`shutdown` drains it and joins its dispatcher) mid-traffic.
    let plug_run = plug(&exec);
    let (a, b) = (burst(&first), burst(&second));
    assert!(!plug_run.is_finished(), "the plug ended before the bursts");
    first.shutdown();
    check(a, "first loop");
    check(b, "second loop, first burst");
    let groups_at_shutdown = second.stats().fusion_groups;
    assert!(groups_at_shutdown > 0, "two fusing loops formed no group");
    // Heads of a fresh burst queue up behind a second plug: with fusion
    // still on for the second loop's runs they regroup.
    let plug_run = plug(&exec);
    let b = burst(&second);
    assert!(!plug_run.is_finished(), "the plug ended before the burst");
    check(b, "second loop, after the first shut down");
    let st = second.stats();
    second.shutdown();
    assert!(
        st.fusion_groups > groups_at_shutdown,
        "the surviving loop stopped fusing at {groups_at_shutdown} groups"
    );
    assert_eq!(st.completed, 64);
}

/// A bare run started while a serve loop is busy on the same executor
/// groups with the loop's requests: fusion is no opt-in, and a stacked
/// call's key names the plan, not the run. Its head is claimed in one batch
/// with the heads of two other bare runs, and all of them — and the served
/// request — are bit-equal to the scalar oracle.
#[test]
fn a_bare_run_beside_a_serve_loop_groups_with_it() {
    let (exec, sess, request, scalar) = one_worker_fixture();
    let client = sess.serve();
    let before = exec.stats().snapshot();
    let plug_run = plug(&exec);
    let served = client.submit(request.clone()).expect("admit");
    // The loop is busy: its dispatcher has popped the request and joins it.
    while client.stats().batches == 0 {
        std::thread::yield_now();
    }
    let bare = || sess.submit_run(request.clone()).expect("bare run");
    let runs = [bare(), bare(), bare()];
    assert!(!plug_run.is_finished(), "the plug ended before the submits");
    let stats: Vec<_> = runs.iter().map(|h| Arc::clone(h.stats())).collect();
    for h in runs {
        assert_bit_equal(&scalar, &h.wait().expect("bare run"), "bare run");
    }
    assert_bit_equal(&scalar, &served.wait().expect("request"), "served request");
    client.shutdown();
    for s in &stats {
        let s = s.snapshot();
        assert!(s.fusable_seen > 0, "the bare run had stackable kernels");
        assert!(s.fused_tasks > 0, "a bare run beside others never grouped");
    }
    let groups = exec.stats().snapshot().fused_groups - before.fused_groups;
    assert!(groups > 0, "the runs formed no group");
}

/// A serve loop's fusion rows are its own requests' run counters: N
/// identical requests served beside a bare `run_many` on the same executor
/// report exactly N solo runs' worth of fusion-eligible kernels, whatever
/// the bare runs did meanwhile.
#[test]
fn a_serve_loops_fusion_rows_count_its_own_runs_only() {
    const N: u64 = 6;
    let (_, sess, request, _) = one_worker_fixture();
    let solo = sess.submit_run(request.clone()).expect("solo run");
    let solo_stats = Arc::clone(solo.stats());
    solo.wait().expect("solo run");
    let per_run = solo_stats.snapshot().fusable_seen;
    assert!(per_run > 0, "the tree has batchable kernels");

    let client = sess.serve();
    let tickets: Vec<_> = (0..N)
        .map(|_| client.submit(request.clone()).expect("admit"))
        .collect();
    for out in sess.run_many(vec![request.clone(); 4]) {
        out.expect("bare run");
    }
    for t in tickets {
        t.wait().expect("request");
    }
    let st = client.stats();
    client.shutdown();
    assert_eq!(st.fusion_eligible, N * per_run, "{st:?}");
    assert!(st.fusion_instances <= st.fusion_eligible);
}

/// Three runs of one plan queue up behind the plug and one of them is
/// cancelled before the worker gets to any of them (ROADMAP 4(d); the
/// executor's unit tests pin the member dropping out of a group it was
/// claimed into). The worker's drain claims the cancelled run's head
/// beside a survivor's and drops it there, so that run reports `Cancelled`
/// and fuses nothing, while the two survivors go on forming groups and match
/// their solo scalar runs bit for bit. Once every run has torn down, the
/// executor's lifetime counters are the sum of the four runs' own.
#[test]
fn a_run_cancelled_beside_fusing_partners_drops_out_and_the_rest_still_fuse() {
    let (exec, sess, request, scalar) = one_worker_fixture();
    let before = exec.stats().snapshot();
    let plug = plug(&exec);
    let [a, cancelled, b] = [(); 3].map(|_| sess.submit_run(request.clone()).expect("submit"));
    cancelled.cancel();
    assert!(!plug.is_finished(), "the plug ended before the cancel");
    let stats = [&plug, &a, &cancelled, &b].map(|h| Arc::clone(h.stats()));
    assert!(matches!(cancelled.wait(), Err(ExecError::Cancelled)));
    for (h, ctx) in [(a, "first survivor"), (b, "second survivor")] {
        assert_bit_equal(&scalar, &h.wait().expect(ctx), ctx);
    }
    plug.wait().expect("plug");
    let runs = stats.map(|s| {
        wait_torn_down(&s);
        s.snapshot()
    });
    let [_, a, c, b] = runs;
    assert_eq!(c.fused_tasks, 0, "the cancelled run was fused");
    assert!(c.cancelled_tasks >= 1, "the cancelled run dropped no task");
    let (groups, members) = (
        a.fused_groups + b.fused_groups,
        a.fused_tasks + b.fused_tasks,
    );
    assert!(groups > 0, "the survivors formed no fused group");
    assert!(
        members >= 2 * groups,
        "{members} members in {groups} groups"
    );
    let after = exec.stats().snapshot();
    let counters: [(&str, fn(&StatsSnapshot) -> u64); 8] = [
        ("ops_executed", |s| s.ops_executed),
        ("frames_spawned", |s| s.frames_spawned),
        ("prelude_published", |s| s.prelude_published),
        ("continuations", |s| s.continuations),
        ("cancelled_tasks", |s| s.cancelled_tasks),
        ("fusable_seen", |s| s.fusable_seen),
        ("fused_tasks", |s| s.fused_tasks),
        ("fused_groups", |s| s.fused_groups),
    ];
    for (name, get) in counters {
        let runs_total: u64 = runs.iter().map(get).sum();
        assert_eq!(get(&after) - get(&before), runs_total, "{name}");
    }
}

/// Blocks until the runtime has let go of a run's stats: its stragglers
/// have drained and its teardown fold into the lifetime counters is done.
fn wait_torn_down(stats: &Arc<ExecStats>) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while Arc::strong_count(stats) > 1 {
        assert!(std::time::Instant::now() < deadline, "run never tore down");
        std::thread::yield_now();
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.f32s().expect("f32").iter().map(|x| x.to_bits()).collect()
}

/// A TreeLSTM minibatch above the crossover (five `[192, 96]` gate weights)
/// trained through `Session::run_training_batch` on the live two-worker
/// pool, where its gate products, their input gradients and its
/// weight-gradient sinks stack, against the virtual clock, which runs one
/// task at a time and never stacks. Every instance's loss is bit-identical.
/// Gradients sum the instances' contributions in an order the schedule
/// decides, so they agree within the training suites' 1e-5. The same trees
/// through `run_many` give the oracle's outputs bit for bit.
#[test]
fn stacked_treelstm_minibatch_matches_the_virtual_clock() {
    let cfg = above_crossover(ModelKind::TreeLstm, 1);
    let data = Dataset::generate(DatasetConfig {
        vocab: cfg.vocab,
        n_train: 12,
        n_valid: 0,
        min_len: 4,
        max_len: 10,
        shape: TreeShape::Moderate,
        seed: 20261021,
    });
    let feeds = Dataset::feeds_per_instance(data.split(Split::Train));
    let model = build_recursive(&cfg).expect("build");
    let train = build_training_module(&model, model.main.outputs[0]).expect("autodiff");
    let sess = Session::new(Executor::with_threads(2), train).expect("session");
    let plan = sess.plan();
    let n_params = plan.module.params.len();

    let before = sess.executor().stats().snapshot();
    let live = sess
        .run_training_batch(feeds.clone())
        .expect("training batch");
    let after = sess.executor().stats().snapshot();
    let grouped = after.fused_tasks - before.fused_tasks;
    assert!(grouped > 0, "the minibatch stacked nothing");

    let oracle_grads = Arc::new(GradStore::new(n_params));
    for (i, f) in feeds.iter().enumerate() {
        let cache = Arc::new(BackpropCache::new());
        let want = SimExecutor::new(1)
            .run(
                plan,
                sess.params(),
                f.clone(),
                Some(Arc::clone(&oracle_grads)),
                Some(cache),
            )
            .expect("oracle training run")
            .outputs;
        assert_eq!(bits(&want[0]), bits(&live[i][0]), "instance {i}: loss");
    }
    for p in 0..n_params {
        let pid = ParamId(p as u32);
        let name = &plan.module.params[p].name;
        match (oracle_grads.get(pid), sess.grads().get(pid)) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.shape(), b.shape(), "gradient of '{name}'");
                let (a, b) = (a.f32s().expect("f32"), b.f32s().expect("f32"));
                for (x, y) in a.iter().zip(b) {
                    assert!(
                        (x - y).abs() <= 1e-5 * x.abs().max(y.abs()).max(1.0),
                        "gradient of '{name}': {x} vs {y}"
                    );
                }
            }
            (a, b) => panic!("gradient of '{name}': {a:?} vs {b:?}"),
        }
    }

    let infer = Session::with_params(
        Arc::clone(sess.executor()),
        model,
        Arc::clone(sess.params()),
    )
    .expect("inference session");
    let outs = infer.run_many(feeds.clone());
    for (i, (f, out)) in feeds.into_iter().zip(outs).enumerate() {
        let want = oracle(&infer, f);
        assert_bit_equal(&want, &out.expect("run_many"), &format!("tree {i}"));
    }
}
