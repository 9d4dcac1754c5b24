//! The virtual-time executor: it drives the production interpreter, so its
//! values, counters, cache traffic and errors are the real executor's; its
//! clock is a FIFO list-scheduling model whose shapes are pinned here.

use rdg_autodiff::build_training_module;
use rdg_data::{Dataset, DatasetConfig, Split, TreeShape};
use rdg_exec::sim::{CostModel, SimExecutor, SimResult};
use rdg_exec::{BackpropCache, ExecError, Executor, GradStore, ModulePlan, ParamStore, Session};
use rdg_graph::{Module, ModuleBuilder, OpKind, ParamId};
use rdg_models::{build_iterative, build_recursive, ModelConfig, ModelKind};
use rdg_tensor::{DType, Tensor};
use std::sync::Arc;

fn planned(m: Module) -> (Arc<ModulePlan>, Arc<ParamStore>) {
    let plan = ModulePlan::new(Arc::new(m)).unwrap();
    let params = Arc::new(ParamStore::from_module(&plan.module));
    (plan, params)
}

/// One inference run of `m` (no feeds) on `workers` virtual workers.
fn sim(m: Module, workers: usize) -> SimResult {
    let (plan, params) = planned(m);
    SimExecutor::new(workers)
        .run(&plan, &params, vec![], None, None)
        .unwrap()
}

/// Doubly recursive fib over i32 (value-dependent `Cond`).
fn fib_module(n: i32) -> Module {
    let mut mb = ModuleBuilder::new();
    let h = mb.declare_subgraph("fib", &[DType::I32], &[DType::I32]);
    mb.define_subgraph(&h, |b| {
        let n = b.input(0)?;
        let one = b.const_i32(1);
        let p = b.ile(n, one)?;
        let out = b.cond1(
            p,
            DType::I32,
            |b| b.identity(n),
            |b| {
                let one = b.const_i32(1);
                let two = b.const_i32(2);
                let a = b.isub(n, one)?;
                let bb = b.isub(n, two)?;
                let fa = b.invoke(&h, &[a])?[0];
                let fb = b.invoke(&h, &[bb])?[0];
                b.iadd(fa, fb)
            },
        )?;
        Ok(vec![out])
    })
    .unwrap();
    let s = mb.const_i32(n);
    let out = mb.invoke(&h, &[s]).unwrap();
    mb.set_outputs(&[out[0]]).unwrap();
    mb.finish().unwrap()
}

/// Balanced binary recursion over f32 work (tanh per node).
fn tree_module(depth: i32) -> Module {
    let mut mb = ModuleBuilder::new();
    let h = mb.declare_subgraph("t", &[DType::I32, DType::F32], &[DType::F32]);
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
                let xl = b.scale(x, 0.3)?;
                let xr = b.scale(x, 0.7)?;
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
    let x0 = mb.const_f32(0.9);
    let out = mb.invoke(&h, &[d0, x0]).unwrap();
    mb.set_outputs(&[out[0]]).unwrap();
    mb.finish().unwrap()
}

/// Linear (chain) recursion: a tail-recursive loop of `len` iterations.
fn chain_module(len: i32) -> Module {
    let mut mb = ModuleBuilder::new();
    let limit = mb.const_i32(len);
    let i0 = mb.const_i32(0);
    let x0 = mb.const_f32(0.9);
    let outs = mb
        .while_loop(
            "chain",
            &[i0, x0],
            |b, s| b.ilt(s[0], limit),
            |b, s| {
                let one = b.const_i32(1);
                let i = b.iadd(s[0], one)?;
                let x = b.tanh(s[1])?;
                Ok(vec![i, x])
            },
        )
        .unwrap();
    mb.set_outputs(&[outs[1]]).unwrap();
    mb.finish().unwrap()
}

/// Counts down `depth` frames, then divides by zero.
fn failing_module(depth: i32) -> Module {
    let mut mb = ModuleBuilder::new();
    let h = mb.declare_subgraph("bad", &[DType::I32], &[DType::I32]);
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
                Ok(b.invoke(&h, &[m])?[0])
            },
            |b| {
                let one = b.const_i32(1);
                let zero = b.const_i32(0);
                b.idiv(one, zero)
            },
        )?;
        Ok(vec![out])
    })
    .unwrap();
    let s0 = mb.const_i32(depth);
    let out = mb.invoke(&h, &[s0]).unwrap();
    mb.set_outputs(&[out[0]]).unwrap();
    mb.finish().unwrap()
}

/// Feeds of one balanced-parse sentence of `words` words.
fn sentence(words: usize, vocab: usize) -> Vec<Tensor> {
    let data = Dataset::generate_fixed_length(
        DatasetConfig {
            vocab,
            n_train: 1,
            n_valid: 0,
            shape: TreeShape::Balanced,
            seed: 11,
            ..DatasetConfig::default()
        },
        words,
    );
    Dataset::feeds_for(data.split(Split::Train))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.f32s().unwrap().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn sim_computes_correct_values() {
    let r = sim(fib_module(10), 4);
    assert_eq!(r.outputs[0].as_i32_scalar().unwrap(), 55);
    assert!(r.virtual_ns > 0.0);
    assert!(r.frames > 100);
}

#[test]
fn sim_matches_real_executor_values() {
    let m = tree_module(6);
    let sim_out = sim(m.clone(), 4);
    let sess = Session::new(Executor::with_threads(2), m).unwrap();
    let real_out = sess.run(vec![]).unwrap();
    assert_eq!(
        bits(&sim_out.outputs[0]),
        bits(&real_out[0]),
        "virtual-time execution must compute identical values"
    );
}

#[test]
fn single_worker_makespan_equals_total_work() {
    let r = sim(fib_module(8), 1);
    assert!(
        (r.virtual_ns - r.total_work_ns).abs() / r.total_work_ns < 1e-9,
        "one worker serializes all work"
    );
    assert!((r.parallelism() - 1.0).abs() < 1e-9);
}

#[test]
fn more_workers_never_slower() {
    let [t1, t8, t64] = [1, 8, 64].map(|w| sim(fib_module(12), w));
    assert!(t8.virtual_ns <= t1.virtual_ns, "8 workers beat 1");
    assert!(t64.virtual_ns <= t8.virtual_ns, "64 workers beat 8");
    // Same computation, same work.
    assert!((t1.total_work_ns - t64.total_work_ns).abs() < 1.0);
    // fib is massively parallel: expect real speedup at 8 workers.
    assert!(
        t1.virtual_ns / t8.virtual_ns > 2.0,
        "expected >2x speedup, got {:.2}",
        t1.virtual_ns / t8.virtual_ns
    );
}

#[test]
fn sim_work_is_invariant_to_worker_count() {
    let w1 = sim(tree_module(7), 1);
    let w16 = sim(tree_module(7), 16);
    assert_eq!(w1.ops, w16.ops, "same schedule, same op count");
    assert!((w1.total_work_ns - w16.total_work_ns).abs() < 1e-6);
    assert!(w16.parallelism() > w1.parallelism());
}

#[test]
fn tree_scales_with_workers_chain_does_not() {
    // The paper's whole story in one assertion: extra workers speed up
    // the tree recursion but cannot help the chain.
    let tree_speedup = sim(tree_module(8), 1).virtual_ns / sim(tree_module(8), 32).virtual_ns;
    let chain_speedup =
        sim(chain_module(255), 1).virtual_ns / sim(chain_module(255), 32).virtual_ns;
    assert!(
        tree_speedup > 4.0,
        "tree speedup with 32 workers: {tree_speedup:.2}"
    );
    // The loop body contains two independent chains (counter and value), so
    // the chain enjoys a small constant speedup — but it must stay bounded
    // while the tree's grows with the frontier.
    assert!(
        chain_speedup < 3.0,
        "chain speedup must be bounded: {chain_speedup:.2}"
    );
    assert!(
        tree_speedup > 1.5 * chain_speedup,
        "tree must out-scale chain: {tree_speedup:.2} vs {chain_speedup:.2}"
    );
}

#[test]
fn cost_model_charges_matmul_by_macs() {
    let cm = CostModel::default();
    let small = cm.op_cost(
        &OpKind::MatMul,
        &[Tensor::zeros([1, 8]), Tensor::zeros([8, 8])],
    );
    let big = cm.op_cost(
        &OpKind::MatMul,
        &[Tensor::zeros([1, 128]), Tensor::zeros([128, 128])],
    );
    // 128²/8² MAC ratio on the work term; the dispatch floor keeps the
    // ratio below the raw 256×.
    assert!(big > small * 4.0, "big {big} vs small {small}");
    assert_eq!(big, cm.dispatch_ns + 128.0 * 128.0 * cm.mac_ns);
    // The transposed variants count the same m·k·n from their own layouts.
    let at = cm.op_cost(
        &OpKind::MatMulAT,
        &[Tensor::zeros([128, 1]), Tensor::zeros([128, 64])],
    );
    let bt = cm.op_cost(
        &OpKind::MatMulBT,
        &[Tensor::zeros([1, 128]), Tensor::zeros([64, 128])],
    );
    assert_eq!(at, cm.dispatch_ns + 128.0 * 64.0 * cm.mac_ns);
    assert_eq!(bt, at);
    // The factored sink is the `MatMulAT` it replaces, not the k·(m+n)
    // elements it is handed.
    let sink = OpKind::GradSinkOuter { param: ParamId(0) };
    let (a, dy) = (Tensor::zeros([1, 128]), Tensor::zeros([1, 64]));
    assert_eq!(cm.op_cost(&sink, &[a, dy]), at);
    let tiny = cm.op_cost(&OpKind::Identity, &[]);
    assert!(tiny >= cm.dispatch_ns, "every op pays dispatch");
}

#[test]
fn main_only_module_runs_as_one_frame() {
    let mut mb = ModuleBuilder::new();
    let a = mb.const_f32(2.0);
    let b = mb.tanh(a).unwrap();
    mb.set_outputs(&[b]).unwrap();
    let r = sim(mb.finish().unwrap(), 2);
    assert_eq!(r.frames, 1, "root frame only");
    assert_eq!(r.outputs[0].as_f32_scalar().unwrap(), 2.0f32.tanh());
}

/// The counters are the production run's own: the same plan on the real
/// executor reports the same ops and frames.
#[test]
fn ops_and_frames_are_the_real_runs_stats() {
    for kind in [ModelKind::TreeRnn, ModelKind::TreeLstm] {
        let cfg = ModelConfig::tiny(kind, 1);
        let (plan, params) = planned(build_recursive(&cfg).unwrap());
        let feeds = sentence(9, cfg.vocab);
        let r = SimExecutor::new(36)
            .run(&plan, &params, feeds.clone(), None, None)
            .unwrap();

        let real = Executor::with_threads(2)
            .submit(&plan, &params, feeds, None, None)
            .unwrap();
        let stats = Arc::clone(real.stats());
        let out = real.wait().unwrap();
        let s = stats.snapshot();
        assert_eq!(
            (r.ops, r.frames),
            (s.ops_executed, s.frames_spawned),
            "{kind:?}"
        );
        assert!(r.frames > 9, "{kind:?}: one frame per tree node at least");
        assert_eq!(bits(&r.outputs[0]), bits(&out[0]), "{kind:?}");
    }
}

/// Training under the virtual clock is the production training path: the
/// loss, the cache's path table and the gradients are those of a real run.
#[test]
fn training_run_fills_grads_and_cache_like_a_real_run() {
    let cfg = ModelConfig::tiny(ModelKind::TreeLstm, 1);
    let fwd = build_recursive(&cfg).unwrap();
    let module = build_training_module(&fwd, fwd.main.outputs[0]).unwrap();
    let sess = Session::new(Executor::with_threads(1), module).unwrap();
    let (plan, params) = (sess.plan(), sess.params());
    let n_params = plan.module.params.len();

    // `exact`: gradient sums are accumulated in execution order, which the
    // FIFO model and the work-first worker do not share. With two words no
    // parameter receives more than two contributions, and a + b == b + a.
    for (words, exact) in [(2usize, true), (10, false)] {
        let feeds = sentence(words, cfg.vocab);
        let (grads, cache) = (
            Arc::new(GradStore::new(n_params)),
            Arc::new(BackpropCache::new()),
        );
        let r = SimExecutor::new(36)
            .run(
                plan,
                params,
                feeds.clone(),
                Some(Arc::clone(&grads)),
                Some(Arc::clone(&cache)),
            )
            .unwrap();

        let real_cache = Arc::new(BackpropCache::new());
        let real_grads = Arc::new(GradStore::new(n_params));
        sess.executor()
            .run(
                plan,
                params,
                feeds.clone(),
                Some(real_grads),
                Some(Arc::clone(&real_cache)),
            )
            .unwrap();
        assert!(cache.path_nodes() > words, "one path per forward frame");
        assert_eq!(cache.path_nodes(), real_cache.path_nodes(), "{words} words");
        assert_eq!(cache.len(), real_cache.len(), "{words} words");

        let loss = sess.run_training(feeds).unwrap();
        assert_eq!(bits(&r.outputs[0]), bits(&loss[0]), "{words} words: loss");
        for i in 0..n_params {
            let pid = ParamId(i as u32);
            let name = &plan.module.params[i].name;
            match (grads.get(pid), sess.grads().get(pid)) {
                (None, None) => {}
                (Some(a), Some(b)) if exact => {
                    assert_eq!(bits(&a), bits(&b), "gradient of '{name}'")
                }
                (Some(a), Some(b)) => {
                    for (x, y) in a.f32s().unwrap().iter().zip(b.f32s().unwrap()) {
                        assert!(
                            (x - y).abs() <= 1e-5 * x.abs().max(y.abs()).max(1.0),
                            "gradient of '{name}': {x} vs {y}"
                        );
                    }
                }
                _ => panic!("gradient of '{name}' present on one side only"),
            }
        }
    }
}

#[test]
fn kernel_error_is_the_real_executors_error() {
    let (plan, params) = planned(failing_module(50));
    let virt = SimExecutor::new(4).run(&plan, &params, vec![], None, None);
    let real = Executor::with_threads(2).run(&plan, &params, vec![], None, None);
    match (virt.map(|r| r.outputs), real) {
        (
            Err(ExecError::Kernel {
                graph: g1,
                node: n1,
                source: s1,
            }),
            Err(ExecError::Kernel {
                graph: g2,
                node: n2,
                source: s2,
            }),
        ) => {
            assert_eq!((g1, n1), (g2, n2));
            assert_eq!(s1.to_string(), s2.to_string());
            assert!(s1.to_string().contains("division"), "{s1}");
        }
        (a, b) => panic!("expected two kernel errors, got {a:?} and {b:?}"),
    }
}

#[test]
fn deep_tail_recursion_completes_on_the_test_stack() {
    // The driver runs tasks in a loop and frames return by cascade, so the
    // depth is bounded by memory, as on the worker pool.
    let r = sim(chain_module(20_000), 2);
    assert!(r.frames > 20_000, "{} frames", r.frames);
    let x = r.outputs[0].as_f32_scalar().unwrap();
    assert!(x > 0.0 && x < 0.9, "tanh iterated 20 000 times: {x}");
}

/// Figure 11's expected shape on the 36-worker machine: per-instance time of
/// the recursive TreeLSTM grows with tree height, of the iterative one with
/// sentence length.
#[test]
fn fig11_shape_recursive_sublinear_iterative_linear() {
    let mut cfg = ModelConfig::paper_default(ModelKind::TreeLstm, 1);
    cfg.hidden = 48;
    let (rec, params) = planned(build_recursive(&cfg).unwrap());
    let itr = ModulePlan::new(Arc::new(build_iterative(&cfg).unwrap())).unwrap();
    let sim36 = SimExecutor::new(36);
    let growth = |plan: &Arc<ModulePlan>| {
        let ns = |words| {
            sim36
                .run(plan, &params, sentence(words, cfg.vocab), None, None)
                .unwrap()
                .virtual_ns
        };
        ns(120) / ns(10)
    };
    let (rec, itr) = (growth(&rec), growth(&itr));
    assert!(rec < 6.0, "recursive 10 → 120 words grew {rec:.1}×");
    assert!(itr >= 8.0, "iterative 10 → 120 words grew {itr:.1}×");
}
