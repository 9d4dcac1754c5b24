//! A training run owns its paths: they live in its backprop cache, one node
//! per forward frame, and go when the cache goes.
//!
//! (That a node dies with its cache, a `Weak` to it expiring, is pinned
//! beside the private node type in `crates/exec/src/path.rs`; that an
//! inference run builds no table at all, in `executor/tests.rs`.)

use rdg_core::exec::{BackpropCache, PathKey};
use rdg_core::graph::OpKind;
use rdg_core::prelude::*;
use std::sync::Arc;

/// `acc(n, x) = n > 0 ? acc(n − 1, w·x) : x`, called as `acc(depth, 1)`: a
/// tail recursion `depth` calls deep computing `w^depth`, with its gradient.
fn power_session(depth: i32, w: f32) -> Session {
    let mut mb = ModuleBuilder::new();
    let w = mb.param("w", Tensor::scalar_f32(w));
    let h = mb.declare_subgraph("acc", &[DType::I32, DType::F32], &[DType::F32]);
    mb.define_subgraph(&h, |b| {
        let (n, x) = (b.input(0)?, b.input(1)?);
        let zero = b.const_i32(0);
        let p = b.igt(n, zero)?;
        let out = b.cond1(
            p,
            DType::F32,
            |b| {
                let one = b.const_i32(1);
                let m = b.isub(n, one)?;
                let wv = b.param_read(w)?;
                let wx = b.mul(wv, x)?;
                Ok(b.invoke(&h, &[m, wx])?[0])
            },
            |b| b.identity(x),
        )?;
        Ok(vec![out])
    })
    .unwrap();
    let (n0, x0) = (mb.const_i32(depth), mb.const_f32(1.0));
    let out = mb.invoke(&h, &[n0, x0]).unwrap();
    mb.set_outputs(&[out[0]]).unwrap();
    let forward = mb.finish().unwrap();
    let train = build_training_module(&forward, forward.main.outputs[0]).unwrap();
    Session::new(Executor::with_threads(2), train).unwrap()
}

#[test]
fn a_training_runs_cache_holds_one_node_per_forward_frame() {
    const DEPTH: i32 = 9;
    let sess = power_session(DEPTH, 0.9);
    let caches = [(); 2].map(|_| Arc::new(BackpropCache::new()));
    for cache in &caches {
        let (grads, cache_arg) = (Arc::clone(sess.grads()), Arc::clone(cache));
        let run = sess
            .executor()
            .submit(
                sess.plan(),
                sess.params(),
                vec![],
                Some(grads),
                Some(cache_arg),
            )
            .unwrap();
        let stats = Arc::clone(run.stats());
        run.wait().unwrap();
        // Forward: `acc` is activated DEPTH + 1 times and each activation
        // spawns the frame of the branch its Cond took. The backward pass
        // mirrors every one of those frames and finds its path: it adds no
        // node, so the table holds half the frames spawned below the root.
        let forward_frames = 2 * (DEPTH as usize + 1);
        assert_eq!(cache.path_nodes(), forward_frames);
        assert_eq!(
            stats.snapshot().frames_spawned as usize,
            1 + 2 * forward_frames
        );
    }
    // The same call site, looked up in each cache: found (nothing is added),
    // and the two runs' nodes for it are not the same node.
    let main = &sess.module().main;
    let site = main.nodes.iter().find_map(|n| match n.op {
        OpKind::Invoke { site, .. } => Some(site),
        _ => None,
    });
    let [a, b] = caches
        .each_ref()
        .map(|c| c.child_path(&PathKey::root(), site.expect("main invokes acc")));
    assert_eq!((a.sites(), a.hash_value()), (b.sites(), b.hash_value()));
    assert!(!a.ptr_eq(&b), "two caches shared a path node");
    assert_eq!(caches[0].path_nodes(), caches[1].path_nodes());
    assert_eq!(caches[0].path_nodes(), 2 * (DEPTH as usize + 1));
}

#[test]
fn a_20_000_deep_tail_recursive_training_run_completes_and_tears_down() {
    const DEPTH: i32 = 20_000;
    let w = 1.0001f32;
    let sess = power_session(DEPTH, w);
    let run = sess.submit_training(vec![]).unwrap();
    let stats = Arc::clone(run.stats());
    let loss = run.wait().unwrap()[0].as_f32_scalar().unwrap() as f64;
    // Closed form, in f64 from the f32 weight: w^n and n·w^(n−1). 20 000
    // roundings of 2⁻²⁴ each stay well inside one part in a hundred.
    let close = |got: f64, want: f64| (got - want).abs() <= 1e-2 * want;
    let (w, n) = (w as f64, DEPTH as f64);
    assert!(close(loss, w.powf(n)), "loss {loss}, want {}", w.powf(n));
    let dw = sess.grads().get(ParamId(0)).expect("dw accumulated");
    let dw = dw.as_f32_scalar().unwrap() as f64;
    let want = n * w.powf(n - 1.0);
    assert!(close(dw, want), "dw {dw}, want {want}");
    // The run's private cache — a 40 000-node chain in its path table, and
    // as many cached values keyed by it — is dropped with the run's last
    // frame, on a worker's stack. Wait for that teardown to have happened.
    while Arc::strong_count(&stats) > 1 {
        std::thread::yield_now();
    }
    assert_eq!(stats.snapshot().max_depth as i32, 2 * (DEPTH + 1));
}
