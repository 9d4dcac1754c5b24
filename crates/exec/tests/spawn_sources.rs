//! Frames are born with their sources resolved: what that must not change
//! (who sees a parameter write, what training caches and reads back, which
//! error a missing value is) and what it does change (the ready queue's
//! traffic, as an exact count).

use rdg_autodiff::build_training_module;
use rdg_data::{Dataset, DatasetConfig, Split, TreeShape};
use rdg_exec::{BackpropCache, ExecError, Executor, ModulePlan, ParamStore, Session};
use rdg_graph::{Module, ModuleBuilder, ParamId};
use rdg_models::{build_recursive, ModelConfig, ModelKind};
use rdg_tensor::{DType, Tensor};
use std::sync::Arc;

/// `acc(n) = n > 0 ? w + acc(n − 1) : w` called as `acc(depth)`:
/// `depth + 1` frames of `acc` and as many Cond branches, each
/// branch reading `w` itself. The output is `(depth + 1) · w` only if every
/// frame of the run saw the same store.
fn sum_of_reads(depth: i32, w: f32) -> (Arc<ModulePlan>, ParamId) {
    let mut mb = ModuleBuilder::new();
    let w = mb.param("w", Tensor::scalar_f32(w));
    let h = mb.declare_subgraph("acc", &[DType::I32], &[DType::F32]);
    mb.define_subgraph(&h, |b| {
        let n = b.input(0)?;
        let zero = b.const_i32(0);
        let p = b.igt(n, zero)?;
        let out = b.cond1(
            p,
            DType::F32,
            |b| {
                let one = b.const_i32(1);
                let m = b.isub(n, one)?;
                let rest = b.invoke(&h, &[m])?[0];
                let wv = b.param_read(w)?;
                b.add(wv, rest)
            },
            |b| b.param_read(w),
        )?;
        Ok(vec![out])
    })
    .unwrap();
    let n0 = mb.const_i32(depth);
    let out = mb.invoke(&h, &[n0]).unwrap();
    mb.set_outputs(&[out[0]]).unwrap();
    let module = Arc::new(mb.finish().unwrap());
    let plan = ModulePlan::new(module).unwrap();
    (plan, w)
}

fn scalar(out: Result<Vec<Tensor>, ExecError>) -> f32 {
    out.unwrap()[0].as_f32_scalar().unwrap()
}

/// The property the old "`Param` reads must stay queued" rule was guarding:
/// a write to the store between two runs is seen by every frame of the later
/// run and by none of the earlier one — whichever entry point started them,
/// and although frame cores (whose slots now hold a parameter from the moment
/// the frame exists) are recycled from one run to the next.
#[test]
fn a_param_write_between_runs_reaches_every_frame_of_the_next_run_only() {
    const DEPTH: i32 = 40; // more frames than the core pool recycles at once
    let n = (DEPTH + 1) as f32;
    let (plan, w) = sum_of_reads(DEPTH, 1.0);
    let exec = Executor::with_threads(2);
    let sess = Session::from_plan(Arc::clone(&exec), Arc::clone(&plan), None).unwrap();
    let other = Session::from_plan(exec, plan, Some(Arc::clone(sess.params()))).unwrap();

    assert_eq!(scalar(sess.run(vec![])), n);
    sess.params().write(w, Tensor::scalar_f32(2.0));
    assert_eq!(scalar(sess.run(vec![])), 2.0 * n);

    // Between two `run_many` batches; every run of a batch agrees.
    for out in sess.run_many(vec![vec![]; 6]) {
        assert_eq!(scalar(out), 2.0 * n);
    }
    sess.params().write(w, Tensor::scalar_f32(0.5));
    for out in sess.run_many(vec![vec![]; 6]) {
        assert_eq!(scalar(out), 0.5 * n);
    }

    // Written through a second session sharing the store, and read by it.
    assert_eq!(scalar(other.run(vec![])), 0.5 * n);
    other.params().write(w, Tensor::scalar_f32(3.0));
    assert_eq!(scalar(sess.run(vec![])), 3.0 * n);
    assert_eq!(scalar(other.submit_run(vec![]).unwrap().wait()), 3.0 * n);
}

/// `loss(w) = (w · x)²` through a SubGraph that multiplies its two explicit
/// inputs: the backward pass needs both *inputs* of the forward frame, which
/// are prelude nodes there, and reads them as prelude nodes of its own.
fn square_through_a_call(w0: f32, x: f32) -> Module {
    let mut mb = ModuleBuilder::new();
    let w = mb.param_wire("w", Tensor::scalar_f32(w0)).unwrap();
    let times = mb
        .subgraph("times", &[DType::F32, DType::F32], &[DType::F32], |b| {
            let (a, c) = (b.input(0)?, b.input(1)?);
            b.mul(a, c).map(|y| vec![y])
        })
        .unwrap();
    let x = mb.const_f32(x);
    let wx = mb.invoke(&times, &[w, x]).unwrap()[0];
    let loss = mb.invoke(&times, &[wx, wx]).unwrap()[0];
    mb.set_outputs(&[loss]).unwrap();
    let fwd = mb.finish().unwrap();
    build_training_module(&fwd, fwd.main.outputs[0]).unwrap()
}

/// An optimizer step between two training steps moves the next loss to the
/// value the update predicts, and the gradient that produced the update came
/// through `keep_value` prelude nodes (captured `Input`s) and `FwdValue`
/// prelude reads.
#[test]
fn training_reads_what_the_spawn_cached_and_sees_the_step_between_steps() {
    let (w0, x, lr) = (1.5f32, 2.0f32, 0.01f32);
    let sess = Session::new(Executor::with_threads(2), square_through_a_call(w0, x)).unwrap();
    let w = ParamId(0);

    let cache = Arc::new(BackpropCache::new());
    let run = sess
        .executor()
        .submit(
            sess.plan(),
            sess.params(),
            vec![],
            Some(Arc::clone(sess.grads())),
            Some(Arc::clone(&cache)),
        )
        .unwrap();
    let stats = Arc::clone(run.stats());
    assert_eq!(scalar(run.wait()), (w0 * x) * (w0 * x));
    let s = stats.snapshot();
    // Two forward frames keep both their inputs; two backward frames read
    // both back. None of the eight was a task.
    assert_eq!((s.cache_writes, s.cache_reads), (4, 4));
    assert_eq!(cache.len(), 4);
    let g = sess.grads().get(w).unwrap().as_f32_scalar().unwrap();
    assert_eq!(g, 2.0 * w0 * x * x);

    // The same step through the session, then plain SGD between the steps.
    assert_eq!(scalar(sess.run_training(vec![])), (w0 * x) * (w0 * x));
    let w1 = w0 - lr * sess.grads().get(w).unwrap().as_f32_scalar().unwrap();
    sess.params().write(w, Tensor::scalar_f32(w1));
    assert_eq!(scalar(sess.run_training(vec![])), (w1 * x) * (w1 * x));
    let g1 = sess.grads().get(w).unwrap().as_f32_scalar().unwrap();
    assert_eq!(g1, 2.0 * w1 * x * x);
}

/// A forward pass that kept nothing: the first backward frame's `FwdValue`
/// misses while that frame spawns, and the run fails with the miss — once.
#[test]
fn a_cache_miss_while_spawning_is_the_runs_error() {
    let mut module = square_through_a_call(1.5, 2.0);
    module.keep_sets.clear();
    let exec = Executor::with_threads(2);
    let sess = Session::new(Arc::clone(&exec), module).unwrap();
    let run = sess.submit_training(vec![]).unwrap();
    let stats = Arc::clone(run.stats());
    match run.wait() {
        Err(ExecError::CacheMiss { msg }) => assert!(msg.starts_with("value of"), "{msg}"),
        other => panic!("expected a cache miss, got {other:?}"),
    }
    // Teardown folds the run into the executor's lifetime counters exactly
    // once, the dropped stragglers of the failed run included.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while Arc::strong_count(&stats) > 1 {
        assert!(std::time::Instant::now() < deadline, "run never tore down");
        std::thread::yield_now();
    }
    let s = stats.snapshot();
    assert_eq!(s.cache_reads, 1, "the spawn stopped at the first miss");
    assert_eq!(exec.stats().snapshot(), s);
    // The session is usable afterwards: the failed step released its token.
    assert!(matches!(
        sess.run_training(vec![]),
        Err(ExecError::CacheMiss { .. })
    ));
}

/// Feeds of one `words`-word sentence with a balanced parse.
fn sentence(words: usize, vocab: usize) -> Vec<Tensor> {
    let cfg = DatasetConfig {
        vocab,
        n_train: 1,
        n_valid: 0,
        shape: TreeShape::Balanced,
        seed: 11,
        ..DatasetConfig::default()
    };
    let data = Dataset::generate_fixed_length(cfg, words);
    Dataset::feeds_for(data.split(Split::Train))
}

/// The claim as a count. On one worker nothing depends on timing: every
/// internal tree node forks once (its two recursive calls become ready
/// together; one is kept, one queued), so an `L`-leaf tree sends `L − 1`
/// tasks through the queue, plus the run's head. Everything else is a prelude
/// publish or a continuation. With `Param` reads queued the same run took
/// about six times as many.
#[test]
fn treernn_inference_takes_one_task_per_leaf_from_the_queue() {
    let cfg = ModelConfig::tiny(ModelKind::TreeRnn, 1);
    let module = Arc::new(build_recursive(&cfg).unwrap());
    let plan = ModulePlan::new(module).unwrap();
    let params = Arc::new(ParamStore::from_module(&plan.module));
    let exec = Executor::with_threads(1);
    for leaves in [1usize, 2, 7, 32] {
        let feeds = sentence(leaves, cfg.vocab);
        let run = exec.submit(&plan, &params, feeds, None, None).unwrap();
        let stats = Arc::clone(run.stats());
        run.wait().unwrap();
        let s = stats.snapshot();
        let queued = s.ops_executed - s.prelude_published - s.continuations;
        assert_eq!(queued, leaves as u64, "{leaves} leaves: {s:?}");
    }
}
