//! Executor robustness: determinism, concurrency, error paths.

use rdg_exec::{Executor, Session};
use rdg_graph::{Module, ModuleBuilder};
use rdg_tensor::{DType, Tensor};
use std::sync::Arc;

/// A moderately parallel recursive module: sum over a binary tree of adds.
fn tree_sum_module(depth: i32) -> Module {
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

#[test]
fn repeated_runs_are_bitwise_deterministic() {
    // The dataflow is confluent: whatever order workers pick, the same
    // values must come out (floats included — no reduction reordering in
    // this graph).
    let s = Session::new(Executor::with_threads(2), tree_sum_module(8)).unwrap();
    let first = s.run(vec![]).unwrap()[0].as_f32_scalar().unwrap();
    for _ in 0..20 {
        let again = s.run(vec![]).unwrap()[0].as_f32_scalar().unwrap();
        assert_eq!(first.to_bits(), again.to_bits(), "nondeterministic result");
    }
}

#[test]
fn thread_count_does_not_change_results() {
    let mut values = Vec::new();
    for threads in [1usize, 2, 4] {
        let s = Session::new(Executor::with_threads(threads), tree_sum_module(7)).unwrap();
        values.push(s.run(vec![]).unwrap()[0].as_f32_scalar().unwrap());
    }
    assert_eq!(values[0].to_bits(), values[1].to_bits());
    assert_eq!(values[1].to_bits(), values[2].to_bits());
}

#[test]
fn one_executor_serves_concurrent_sessions() {
    let exec = Executor::with_threads(2);
    let s1 = Arc::new(Session::new(Arc::clone(&exec), tree_sum_module(6)).unwrap());
    let s2 = Arc::new(Session::new(Arc::clone(&exec), tree_sum_module(9)).unwrap());
    let mut handles = Vec::new();
    for _ in 0..4 {
        let s1 = Arc::clone(&s1);
        let s2 = Arc::clone(&s2);
        handles.push(std::thread::spawn(move || {
            for _ in 0..5 {
                let a = s1.run(vec![]).unwrap()[0].as_f32_scalar().unwrap();
                let b = s2.run(vec![]).unwrap()[0].as_f32_scalar().unwrap();
                assert!(a.is_finite() && b.is_finite());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn error_deep_in_recursion_cancels_the_run_cleanly() {
    // countdown that divides by zero at the base case, 50 frames deep.
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
    let s0 = mb.const_i32(50);
    let out = mb.invoke(&h, &[s0]).unwrap();
    mb.set_outputs(&[out[0]]).unwrap();
    let sess = Session::new(Executor::with_threads(2), mb.finish().unwrap()).unwrap();
    let err = sess.run(vec![]).unwrap_err();
    assert!(err.to_string().contains("division"), "{err}");
    // The executor must remain usable after a failed run.
    let ok = Session::new(sess.executor().clone(), tree_sum_module(3)).unwrap();
    assert!(ok.run(vec![]).is_ok());
}

#[test]
fn error_at_extreme_depth_does_not_overflow_on_teardown() {
    // Same failure shape, but 20 000 frames deep: cancelling the run drops
    // the whole ancestor chain from the leaf, which must tear down
    // iteratively (a recursive drop would overflow the worker stack long
    // before this depth).
    let mut mb = ModuleBuilder::new();
    let h = mb.declare_subgraph("bad_deep", &[DType::I32], &[DType::I32]);
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
    let s0 = mb.const_i32(20_000);
    let out = mb.invoke(&h, &[s0]).unwrap();
    mb.set_outputs(&[out[0]]).unwrap();
    let sess = Session::new(Executor::with_threads(2), mb.finish().unwrap()).unwrap();
    let err = sess.run(vec![]).unwrap_err();
    assert!(err.to_string().contains("division"), "{err}");
    // The executor survives and can run again at depth.
    let err2 = sess.run(vec![]).unwrap_err();
    assert!(err2.to_string().contains("division"), "{err2}");
}

#[test]
fn feeds_flow_through_recursion() {
    // Feed-driven recursion: depth comes from a main input.
    let mut mb = ModuleBuilder::new();
    let h = mb.declare_subgraph("count", &[DType::I32], &[DType::I32]);
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
                let r = b.invoke(&h, &[m])?[0];
                b.iadd(r, one)
            },
            |b| b.identity(zero),
        )?;
        Ok(vec![out])
    })
    .unwrap();
    let input = mb.main_input(DType::I32);
    let out = mb.invoke(&h, &[input]).unwrap();
    mb.set_outputs(&[out[0]]).unwrap();
    let sess = Session::new(Executor::with_threads(2), mb.finish().unwrap()).unwrap();
    for n in [0i32, 1, 17, 100] {
        let out = sess.run(vec![Tensor::scalar_i32(n)]).unwrap();
        assert_eq!(out[0].as_i32_scalar().unwrap(), n);
    }
}

#[test]
fn training_mode_does_not_change_forward_values() {
    // With a cache and grad store attached (but no gradient nodes), outputs
    // must equal the inference run's.
    let m = tree_sum_module(6);
    let s = Session::new(Executor::with_threads(2), m).unwrap();
    let inf = s.run(vec![]).unwrap()[0].as_f32_scalar().unwrap();
    let trn = s.run_training(vec![]).unwrap()[0].as_f32_scalar().unwrap();
    assert_eq!(inf.to_bits(), trn.to_bits());
}
