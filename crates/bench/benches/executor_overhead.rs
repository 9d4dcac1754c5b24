//! Executor overhead: per-op dispatch and per-frame (InvokeOp) cost —
//! the constants behind every throughput number in the paper tables.
//!
//! Workloads:
//!
//! * `dispatch/op_chain/{100,1000}` — serial chains of trivial ops: pure
//!   scheduler + dispatch cost, the plain-op baseline.
//! * `dispatch/invoke_chain/{100,1000}` — the same chains with every op
//!   wrapped in a SubGraph invocation: the per-invoke premium over a plain
//!   op is `(invoke_chain - op_chain) / n`.
//! * `dispatch/spawn_sources/{0,3,10}` — the 1000-frame invoke chain again,
//!   its body now also reading `k` parameters, all into one `StackRows`
//!   with the argument: what a frame pays per zero-input node it is born
//!   with. At `k = 0` it is `invoke_chain/1000` measured a second time;
//!   `k > 0` adds two ops per frame whatever `k` is and no fork, so the
//!   slope from 3 to 10 is seven reads.
//! * `dispatch/fanout/{2,8}` — 100 stages of one producer read by `k`
//!   independent consumers: the surplus path. A finishing worker keeps one
//!   ready consumer and pushes the other `k-1` to the shared queue, so
//!   against `op_chain` (no fork, no queue traffic after the head) this
//!   prices a fork per extra consumer.
//! * `recursion/fib/{12,16}` — a fib-shaped doubly-recursive module: frame
//!   fan-out, Cond branches, and deep PathKey reuse, the shape the paper's
//!   recursive models actually execute.
//! * `scheduler/fifo` — the same fib shape at `fib(13)` on an executor of
//!   its own: the row the policy ablation left behind when the FIFO became
//!   the only ready-queue policy (PR 21), kept so its trajectory goes on.
//!
//! Set `CRITERION_JSON=results/executor_overhead.json` to append one JSON
//! record per benchmark (see the criterion shim docs); `PERFORMANCE.md`
//! tracks the medians across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdg_core::prelude::*;
use std::sync::Arc;

/// A chain of `n` trivial ops in the main graph: measures scheduler +
/// dispatch cost per op with zero kernel work.
fn chain_module(n: usize) -> Module {
    let mut mb = ModuleBuilder::new();
    let mut x = mb.const_f32(1.0);
    for _ in 0..n {
        x = mb.add_const(x, 1.0).expect("add");
    }
    mb.set_outputs(&[x]).expect("outputs");
    mb.finish().expect("finish")
}

/// A chain of `n` invocations of `f(x) = x + Σ p_i + 1`, `k` scalar
/// parameters read in the body: measures per-frame overhead (spawn +
/// argument passing + return delivery) and, over `k`, what a frame pays per
/// zero-input node it is born with. The reads and `x` feed one `StackRows`,
/// so the body stays a chain (no fork, nothing for a second worker) and
/// `k > 0` adds two ops to it whatever `k` is: the slope over `k` is the
/// reads alone.
fn invoke_chain_module(n: usize, k: usize) -> Module {
    let mut mb = ModuleBuilder::new();
    let params: Vec<_> = (0..k)
        .map(|i| mb.param(format!("p{i}"), Tensor::scalar_f32(0.5)))
        .collect();
    let f = mb
        .subgraph("step", &[DType::F32], &[DType::F32], |b| {
            let mut y = b.input(0)?;
            if !params.is_empty() {
                let mut rows = vec![y];
                for &p in &params {
                    rows.push(b.param_read(p)?);
                }
                let stacked = b.stack_rows(&rows)?;
                y = b.sum_all(stacked)?;
            }
            Ok(vec![b.add_const(y, 1.0)?])
        })
        .expect("subgraph");
    let mut x = mb.const_f32(0.0);
    for _ in 0..n {
        x = mb.invoke(&f, &[x]).expect("invoke")[0];
    }
    mb.set_outputs(&[x]).expect("outputs");
    mb.finish().expect("finish")
}

/// `stages` forks in a row: each stage is one producer read by `k`
/// independent consumers, the first of which feeds the next stage.
fn fanout_module(k: usize, stages: usize) -> Module {
    let mut mb = ModuleBuilder::new();
    let mut x = mb.const_f32(0.0);
    let mut outs = Vec::new();
    for _ in 0..stages {
        let producer = mb.add_const(x, 1.0).expect("add");
        for i in 0..k {
            outs.push(mb.add_const(producer, i as f32).expect("add"));
        }
        x = outs[outs.len() - k];
    }
    mb.set_outputs(&outs).expect("outputs");
    mb.finish().expect("finish")
}

fn session(exec: &Arc<Executor>, module: Module) -> Session {
    Session::new(Arc::clone(exec), module).expect("session")
}

fn dispatch_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatch");
    g.sample_size(20);
    let exec = Executor::with_threads(2);
    for n in [100usize, 1000] {
        let sess = session(&exec, chain_module(n));
        g.bench_with_input(BenchmarkId::new("op_chain", n), &n, |b, _| {
            b.iter(|| sess.run(vec![]).expect("run"))
        });
        let sess = session(&exec, invoke_chain_module(n, 0));
        g.bench_with_input(BenchmarkId::new("invoke_chain", n), &n, |b, _| {
            b.iter(|| sess.run(vec![]).expect("run"))
        });
    }
    for k in [0usize, 3, 10] {
        let sess = session(&exec, invoke_chain_module(1000, k));
        g.bench_with_input(BenchmarkId::new("spawn_sources", k), &k, |b, _| {
            b.iter(|| sess.run(vec![]).expect("run"))
        });
    }
    for k in [2usize, 8] {
        let sess = session(&exec, fanout_module(k, 100));
        g.bench_with_input(BenchmarkId::new("fanout", k), &k, |b, _| {
            b.iter(|| sess.run(vec![]).expect("run"))
        });
    }
    g.finish();
}

/// A doubly-recursive fib module: `fib(n) = n <= 1 ? n : fib(n-1)+fib(n-2)`.
///
/// Exponential frame fan-out with a Cond at every level — the recursion
/// shape (frame tree, not a chain) that the paper's models execute.
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
                let c2 = b.isub(n, two)?;
                let fa = b.invoke(&h, &[a])?[0];
                let fb = b.invoke(&h, &[c2])?[0];
                b.iadd(fa, fb)
            },
        )?;
        Ok(vec![out])
    })
    .expect("define");
    let s = mb.const_i32(n);
    let out = mb.invoke(&h, &[s]).expect("invoke");
    mb.set_outputs(&[out[0]]).expect("outputs");
    mb.finish().expect("finish")
}

fn recursion_bench(c: &mut Criterion) {
    // Frame fan-out cost on the recursion shape real models execute
    // (exponentially many concurrent sibling frames, Cond at every level).
    let mut g = c.benchmark_group("recursion");
    g.sample_size(10);
    let exec = Executor::with_threads(2);
    for n in [12i32, 16] {
        let sess = session(&exec, fib_module(n));
        g.bench_with_input(BenchmarkId::new("fib", n), &n, |b, _| {
            b.iter(|| sess.run(vec![]).expect("run"))
        });
    }
    g.finish();
}

fn scheduler_bench(c: &mut Criterion) {
    // The paper's global FIFO on a parallel recursion.
    let mut g = c.benchmark_group("scheduler");
    g.sample_size(10);
    let exec = Executor::with_threads(2);
    let sess = session(&exec, fib_module(13));
    g.bench_function("fifo", |b| b.iter(|| sess.run(vec![]).expect("run")));
    g.finish();
}

criterion_group!(benches, dispatch_bench, recursion_bench, scheduler_bench);
criterion_main!(benches);
