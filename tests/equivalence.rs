//! The paper's §6.2 claim: "our implementation calculates numerically
//! identical results as the iterative implementation".
//!
//! With shared parameters, all three implementations (recursive, iterative,
//! unrolled) must agree on forward losses/logits and on every parameter
//! gradient, for all three model families. And the recursion is run, not
//! rewritten: planning keeps the module it is given, and a session runs
//! its one plan on every call, however often the feeds recur.

use rdg_core::exec::ModulePlan;
use rdg_core::prelude::*;
use std::sync::Arc;

fn tiny_dataset(batch: usize, seed: u64) -> (Vec<Tensor>, Vec<Instance>) {
    let d = Dataset::generate(DatasetConfig {
        vocab: 100,
        n_train: batch,
        n_valid: 0,
        min_len: 3,
        max_len: 10,
        seed,
        ..DatasetConfig::default()
    });
    let insts = d.split(Split::Train).to_vec();
    (Dataset::feeds_for(&insts), insts)
}

#[test]
fn forward_outputs_identical_across_implementations() {
    for kind in [ModelKind::TreeRnn, ModelKind::Rntn, ModelKind::TreeLstm] {
        let cfg = ModelConfig::tiny(kind, 3);
        let (feeds, insts) = tiny_dataset(3, 99);

        let exec = Executor::with_threads(2);
        let rec = Session::new(Arc::clone(&exec), build_recursive(&cfg).unwrap()).unwrap();
        let itr = Session::with_params(
            Arc::clone(&exec),
            build_iterative(&cfg).unwrap(),
            Arc::clone(rec.params()),
        )
        .unwrap();
        let mut unr = UnrolledModel::new(cfg.clone()).unwrap();
        unr.set_params(Arc::clone(rec.params()));

        let out_rec = rec.run(feeds.clone()).unwrap();
        let out_itr = itr.run(feeds.clone()).unwrap();
        let (loss_unr, logits_unr) = unr.run_inference(&insts).unwrap();

        let loss_rec = out_rec[0].as_f32_scalar().unwrap();
        let loss_itr = out_itr[0].as_f32_scalar().unwrap();
        assert!(
            (loss_rec - loss_itr).abs() < 1e-5,
            "{kind:?}: losses differ: recursive {loss_rec} vs iterative {loss_itr}"
        );
        assert!(
            (loss_rec - loss_unr).abs() < 1e-5,
            "{kind:?}: losses differ: recursive {loss_rec} vs unrolled {loss_unr}"
        );
        assert!(
            out_rec[1].allclose(&out_itr[1], 1e-5),
            "{kind:?}: logits differ between recursive and iterative"
        );
        // Unrolled logits come one instance at a time.
        let rl = out_rec[1].f32s().unwrap();
        for (i, li) in logits_unr.iter().enumerate() {
            let lv = li.f32s().unwrap();
            for c in 0..cfg.classes {
                assert!(
                    (rl[i * cfg.classes + c] - lv[c]).abs() < 1e-4,
                    "{kind:?}: unrolled logits differ at instance {i}"
                );
            }
        }
    }
}

#[test]
fn gradients_identical_recursive_vs_iterative() {
    for kind in [ModelKind::TreeRnn, ModelKind::Rntn, ModelKind::TreeLstm] {
        let cfg = ModelConfig::tiny(kind, 2);
        let (feeds, _) = tiny_dataset(2, 123);

        let m_rec = build_recursive(&cfg).unwrap();
        let m_itr = build_iterative(&cfg).unwrap();
        let t_rec = build_training_module(&m_rec, m_rec.main.outputs[0]).unwrap();
        let t_itr = build_training_module(&m_itr, m_itr.main.outputs[0]).unwrap();

        let exec = Executor::with_threads(2);
        let s_rec = Session::new(Arc::clone(&exec), t_rec).unwrap();
        let s_itr =
            Session::with_params(Arc::clone(&exec), t_itr, Arc::clone(s_rec.params())).unwrap();

        s_rec.run_training(feeds.clone()).unwrap();
        s_itr.run_training(feeds).unwrap();

        for (i, spec) in s_rec.module().params.iter().enumerate() {
            let pid = ParamId(i as u32);
            let gr = s_rec.grads().get(pid);
            let gi = s_itr.grads().get(pid);
            match (gr, gi) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!(
                        a.allclose(&b, 1e-3),
                        "{kind:?}: gradient of '{}' differs between implementations",
                        spec.name
                    );
                }
                (a, b) => {
                    // One side missing: the other must be (numerically) zero.
                    let present = a.or(b).unwrap();
                    let max = present
                        .f32s()
                        .unwrap()
                        .iter()
                        .fold(0.0f32, |m, &x| m.max(x.abs()));
                    assert!(
                        max < 1e-6,
                        "{kind:?}: gradient of '{}' present on one side only (max {max})",
                        spec.name
                    );
                }
            }
        }
    }
}

#[test]
fn gradients_identical_recursive_vs_unrolled() {
    let kind = ModelKind::TreeRnn;
    let cfg = ModelConfig::tiny(kind, 2);
    let (feeds, insts) = tiny_dataset(2, 7);

    let m_rec = build_recursive(&cfg).unwrap();
    let t_rec = build_training_module(&m_rec, m_rec.main.outputs[0]).unwrap();
    let s_rec = Session::new(Executor::with_threads(2), t_rec).unwrap();
    s_rec.run_training(feeds).unwrap();

    let mut unr = UnrolledModel::new(cfg).unwrap();
    unr.set_params(Arc::clone(s_rec.params()));
    let grads = rdg_core::exec::GradStore::new(unr.params().len());
    unr.run_training(&insts, &grads).unwrap();

    for (i, spec) in s_rec.module().params.iter().enumerate() {
        let pid = ParamId(i as u32);
        if let (Some(a), Some(b)) = (s_rec.grads().get(pid), grads.get(pid)) {
            assert!(
                a.allclose(&b, 1e-3),
                "gradient of '{}' differs between recursive and unrolled",
                spec.name
            );
        }
    }
}

#[test]
fn recursive_executor_stats_show_parallel_frames() {
    // The recursive implementation must actually fan out frames (the
    // mechanism behind the paper's speedups), unlike the strictly
    // chain-shaped iterative frames.
    let cfg = ModelConfig::tiny(ModelKind::TreeRnn, 1);
    let (feeds, _) = tiny_dataset(1, 5);
    let m = build_recursive(&cfg).unwrap();
    let s = Session::new(Executor::with_threads(2), m).unwrap();
    s.run(feeds).unwrap();
    let frames = s
        .executor()
        .stats()
        .frames_spawned
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(frames > 3, "tree recursion must spawn frames, saw {frames}");
}

/// The shipped-model zoo: all three families × {recursive, iterative} ×
/// {forward, training}, the TD models, and the quickstart fib — the same
/// 17 modules the lint gate covers.
fn zoo() -> Vec<(String, Module)> {
    let mut out = Vec::new();
    for (kind, kname) in [
        (ModelKind::TreeRnn, "tree-rnn"),
        (ModelKind::Rntn, "rntn"),
        (ModelKind::TreeLstm, "tree-lstm"),
    ] {
        let cfg = ModelConfig::tiny(kind, 4);
        for (style, m) in [
            ("rec", build_recursive(&cfg).unwrap()),
            ("itr", build_iterative(&cfg).unwrap()),
        ] {
            let t = build_training_module(&m, m.main.outputs[0]).unwrap();
            out.push((format!("{kname}-{style}"), m));
            out.push((format!("{kname}-{style}-train"), t));
        }
    }
    let td = TdConfig::tiny(4);
    for (name, m) in [
        ("td-rec", build_td_recursive(&td).unwrap()),
        ("td-itr", build_td_iterative(&td).unwrap()),
    ] {
        let t = build_training_module(&m, m.main.outputs[1]).unwrap();
        out.push((name.to_string(), m));
        out.push((format!("{name}-train"), t));
    }
    out.push(("quickstart-fib".to_string(), fib_module()));
    out
}

/// The quickstart recursive fib (value-dependent `Cond`, doubly recursive).
fn fib_module() -> Module {
    let mut mb = ModuleBuilder::new();
    let fib = mb.declare_subgraph("fib", &[DType::I32], &[DType::I32]);
    mb.define_subgraph(&fib, |b| {
        let n = b.input(0)?;
        let one = b.const_i32(1);
        let base = b.ile(n, one)?;
        let out = b.cond1(
            base,
            DType::I32,
            |b| b.identity(n),
            |b| {
                let a = b.isub(n, one)?;
                let two = b.const_i32(2);
                let c = b.isub(n, two)?;
                let fa = b.invoke(&fib, &[a])?[0];
                let fc = b.invoke(&fib, &[c])?[0];
                b.iadd(fa, fc)
            },
        )?;
        Ok(vec![out])
    })
    .expect("fib body");
    let n = mb.main_input(DType::I32);
    let out = mb.invoke(&fib, &[n]).expect("fib invoke")[0];
    mb.set_outputs(&[out]).expect("outputs");
    mb.finish().expect("fib module")
}

/// A main graph chaining `n` invokes of a straight-line "dense" SubGraph
/// (MatMul + AddBias + Tanh): the easiest calls there are to splice.
fn dense_chain_module(n: usize) -> Module {
    let mut mb = ModuleBuilder::new();
    let w = mb
        .param_wire("w", Tensor::from_f32([4, 4], vec![0.1; 16]).unwrap())
        .unwrap();
    let bias = mb
        .param_wire("b", Tensor::from_f32([1, 4], vec![0.01; 4]).unwrap())
        .unwrap();
    let h = mb
        .subgraph("dense", &[DType::F32], &[DType::F32], |b| {
            let x = b.input(0)?;
            let y = b.matmul(x, w)?;
            let y = b.add_bias(y, bias)?;
            Ok(vec![b.tanh(y)?])
        })
        .unwrap();
    let mut x = mb.constant(Tensor::from_f32([1, 4], vec![1.0; 4]).unwrap());
    for _ in 0..n {
        x = mb.invoke(&h, &[x]).unwrap()[0];
    }
    mb.set_outputs(&[x]).unwrap();
    mb.finish().unwrap()
}

/// Recurring feeds change nothing about how a run executes: `fib(12)` run
/// three times with identical feeds through one session spawns the same
/// frames every time, because every run executes the plan the session was
/// built with — the recursion is never folded away by a later run.
#[test]
fn recurring_feeds_run_the_same_frames_every_time() {
    let sess = Session::new(Executor::with_threads(2), fib_module()).unwrap();
    let feeds = vec![Tensor::scalar_i32(12)];
    let frames: Vec<u64> = (0..3)
        .map(|_| {
            let run = sess.submit_run(feeds.clone()).unwrap();
            let stats = Arc::clone(run.stats());
            let out = run.wait().unwrap();
            assert_eq!(out[0].i32s().unwrap(), [144]);
            stats.snapshot().frames_spawned
        })
        .collect();
    assert!(frames[0] > 0, "fib(12) spawns frames");
    assert_eq!(frames, [frames[0]; 3], "every run spawns the same frames");
}

/// Planning never rewrites a module: `ModulePlan::new` keeps the very `Arc`
/// it was given, for every zoo module and for the dense chain (whose
/// straight-line calls are the easiest to splice).
#[test]
fn plans_keep_the_module_they_were_given() {
    let mut modules = zoo();
    modules.push(("dense-chain".to_string(), dense_chain_module(8)));
    for (name, m) in modules {
        let m = Arc::new(m);
        let plan = ModulePlan::new(Arc::clone(&m)).unwrap();
        assert!(
            Arc::ptr_eq(&plan.module, &m),
            "{name}: module was rewritten"
        );
    }
}
