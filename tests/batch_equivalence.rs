//! Cross-request batch fusion must change the schedule, not the math.
//!
//! The executor's dispatch-time fuser stacks same-shape kernels from
//! concurrent serving requests into one matmul-class call and scatters the
//! result back per request. The stacking is row/column concatenation with
//! the kernel loop order preserved, so fused outputs are **bit-for-bit**
//! identical to scalar execution — not merely `allclose`. These tests pin
//! that contract end to end, with the scalar path (runs that did not opt
//! into fusion, the pre-PR-8 executor behavior) as the oracle:
//!
//! 1. A property sweep over random tree shapes, depths, and model kinds
//!    (TreeRNN / RNTN / TreeLSTM — covering every fusable op: `MatMul`,
//!    `AddBias`, `Bilinear`, and the transposed variants) comparing every
//!    output tensor of every request bitwise.
//! 2. A deterministic saturation test that also asserts fusion actually
//!    *engages* (groups form, instances fuse) and that per-class
//!    accounting stays closed with batching on — fused members resolve
//!    their own tickets exactly once.
//! 3. Fusion is a property of each run, not of the pool: a serve loop that
//!    shuts down takes nothing from another loop on the same executor, a
//!    bare run beside a fusing loop joins no group, and a loop's fusion
//!    counters count its own requests' runs and nothing else.
//! 4. Cancelling one of several fusing runs claimed together drops that run
//!    alone: the others still fuse, and every counter is accounted once.

use proptest::prelude::*;
use rdg_core::exec::{ExecError, ExecStats, RunHandle, ServeTicket, StatsSnapshot};
use rdg_core::prelude::*;
use std::sync::Arc;

const KINDS: [ModelKind; 3] = [ModelKind::TreeRnn, ModelKind::Rntn, ModelKind::TreeLstm];

/// Build a per-instance session plus one feed vector per tree.
fn fixture(
    kind: ModelKind,
    seed: u64,
    n: usize,
    max_len: usize,
    shape: TreeShape,
) -> (Session, Vec<Vec<Tensor>>) {
    let cfg = ModelConfig::tiny(kind, 1);
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
        // Oracle first: bare runs never fuse (they do not opt in).
        let scalar: Vec<Vec<Tensor>> = requests
            .iter()
            .map(|r| sess.run(r.clone()).expect("scalar run"))
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
    let scalar: Vec<Vec<Tensor>> = requests
        .iter()
        .map(|r| sess.run(r.clone()).expect("scalar run"))
        .collect();
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
    let cfg = ModelConfig::tiny(ModelKind::TreeRnn, 1);
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
    let scalar = sess.run(request.clone()).expect("scalar run");
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
/// makes the schedule a function of the code alone. With `fuse` the eight
/// runs opt into fusion (`Executor::submit_fused`, what a serve loop does
/// for its requests); the plug never does. Every request's outputs are
/// checked bitwise against a scalar run. Returns the executor and its stats
/// before and after the eight.
fn eight_identical_behind_a_plug(
    fuse: bool,
    profile: bool,
) -> (Arc<Executor>, StatsSnapshot, StatsSnapshot) {
    let (exec, sess, request, scalar) = one_worker_fixture();
    if profile {
        // The fixture's scalar run is not part of what the callers compare.
        exec.stats().enable_profiling();
    }
    let before = exec.stats().snapshot();
    let plug = plug(&exec);
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let feeds = request.clone();
            if fuse {
                exec.submit_fused(sess.plan(), sess.params(), feeds)
            } else {
                sess.submit_run(feeds)
            }
            .expect("submit")
        })
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

/// Every member of a fused group finishes in the same stacked call, so with
/// work-first continuations (PR 12) all of a group's continuations reach
/// the next node together and regroup without meeting in the queue. On the
/// one-worker plug schedule the fused fraction is a number, not a
/// distribution: 328 of 384 eligible tasks (0.854).
///
/// The parent of PR 12 fused 0.91–0.94 of this *particular* load: there
/// every op took a queue trip, which re-united fragments that a claim had
/// split, where a chain that stays on its worker keeps the group it started
/// with. On the benchmark's serving workloads (different trees, waves of
/// two) the fraction rose instead, 0.43 → 0.49 (PERFORMANCE.md § PR 12).
/// The floor pins what the work-first drain achieves here.
#[test]
fn identical_concurrent_requests_regroup_after_every_fused_call() {
    let (_exec, before, after) = eight_identical_behind_a_plug(true, false);
    let eligible = after.fusable_seen - before.fusable_seen;
    let fused = after.fused_tasks - before.fused_tasks;
    assert!(eligible > 0);
    let frac = fused as f64 / eligible as f64;
    println!("fused {fused} of {eligible} eligible kernel tasks ({frac:.3})");
    assert!(frac >= 0.85, "fused fraction fell to {frac:.3}");
}

/// The kernel profile must see the fused path. The same eight requests run
/// once scalar and once fused, both profiled: a stacked call over `k`
/// members is one kernel call where the scalar run made `k`, so the fused
/// profile holds exactly `fused_tasks − fused_groups` fewer calls — no
/// fewer (before PR 13 only the plain scalar path was timed, and every call
/// made by the fused worker loop went missing from `kernel.busy_frac`).
#[test]
fn kernel_profile_counts_fused_calls() {
    let calls = |exec: &Executor| -> u64 {
        exec.stats()
            .kernel_profile()
            .values()
            .map(|&(_, n)| n)
            .sum()
    };
    let (scalar_exec, ..) = eight_identical_behind_a_plug(false, true);
    let (fused_exec, before, after) = eight_identical_behind_a_plug(true, true);
    let groups = after.fused_groups - before.fused_groups;
    let members = after.fused_tasks - before.fused_tasks;
    assert!(groups > 0, "the plug schedule formed no fused group");
    assert_eq!(
        calls(&scalar_exec) - calls(&fused_exec),
        members - groups,
        "each fused group replaces its members' calls by one profiled call"
    );
    let (time, n) = fused_exec.stats().kernel_profile()["MatMul"];
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

/// A bare run started while a fusing serve loop is busy on the same executor
/// joins no fused group and is bit-equal to its solo result. It runs the
/// loop's own plan, so its tasks are group-compatible with the loop's in
/// every way but the opt-in; and its head is claimed in one batch with the
/// heads of two opted-in runs that do group, so a partner was there to take.
#[test]
fn a_bare_run_beside_a_fusing_serve_loop_stays_scalar() {
    let (exec, sess, request, scalar) = one_worker_fixture();
    let client = sess.serve();
    let before = exec.stats().snapshot();
    let plug_run = plug(&exec);
    let served = client.submit(request.clone()).expect("admit");
    // The loop is busy: its dispatcher has popped the request and joins it.
    while client.stats().batches == 0 {
        std::thread::yield_now();
    }
    let fused = || {
        exec.submit_fused(sess.plan(), sess.params(), request.clone())
            .expect("fused run")
    };
    let [a, bare, b] = [
        fused(),
        sess.submit_run(request.clone()).expect("bare run"),
        fused(),
    ];
    assert!(!plug_run.is_finished(), "the plug ended before the submits");
    let bare_stats = Arc::clone(bare.stats());
    for (h, ctx) in [(a, "fused run"), (bare, "bare run"), (b, "fused run")] {
        assert_bit_equal(&scalar, &h.wait().expect(ctx), ctx);
    }
    assert_bit_equal(&scalar, &served.wait().expect("request"), "served request");
    client.shutdown();
    let bare = bare_stats.snapshot();
    assert!(bare.fusable_seen > 0, "the bare run had batchable kernels");
    assert_eq!(bare.fused_tasks, 0, "a run that did not opt in was fused");
    let groups = exec.stats().snapshot().fused_groups - before.fused_groups;
    assert!(groups > 0, "the opted-in runs around it formed no group");
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

/// Three fusing runs of one plan queue up behind the plug and one of them is
/// cancelled before the worker gets to any of them (ROADMAP 4(d); the
/// executor's unit tests pin the member dropping out of a group it was
/// claimed into). The worker's fused drain claims the cancelled run's head
/// beside a survivor's and drops it there, so that run reports `Cancelled`
/// and fuses nothing, while the two survivors go on forming groups and match
/// their solo scalar runs bit for bit. Once every run has torn down, the
/// executor's lifetime counters are the sum of the four runs' own.
#[test]
fn a_run_cancelled_beside_fusing_partners_drops_out_and_the_rest_still_fuse() {
    let (exec, sess, request, scalar) = one_worker_fixture();
    let before = exec.stats().snapshot();
    let plug = plug(&exec);
    let [a, cancelled, b] = [(); 3].map(|_| {
        exec.submit_fused(sess.plan(), sess.params(), request.clone())
            .expect("submit")
    });
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
