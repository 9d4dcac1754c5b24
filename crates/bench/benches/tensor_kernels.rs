//! Micro-benchmarks of the tensor kernels that dominate model time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdg_core::exec::GradStore;
use rdg_core::graph::ParamId;
use rdg_core::tensor::{ops, Tensor};

/// `matmul` at the models' shapes; `1x128x128` is one TD-TreeLSTM gate
/// (hidden 128), and `1x1536x768` and `2x1536x768` are the
/// `serve.wide.closed` combine GEMV (TreeRNN, hidden 768) alone and as a
/// fused pair. Each row runs at the one heap layout its process happens to
/// have; under the AVX2 build `1x128x128` moves with that layout.
fn matmul_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    g.sample_size(20);
    for &(m, k, n) in &[
        (1usize, 128usize, 128usize),
        (1, 336, 168),
        (25, 336, 168),
        (64, 64, 64),
        (1, 1536, 768),
        (2, 1536, 768),
    ] {
        let a = Tensor::full([m, k], 0.5);
        let b = Tensor::full([k, n], 0.25);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{k}x{n}")),
            &(a, b),
            |bench, (a, b)| bench.iter(|| ops::matmul(a, b).expect("matmul")),
        );
    }
    g.finish();
}

/// `dX = dY·Wᵀ` at the shapes the backward pass runs it. `1x168·336` and
/// `25x168·336` are one TreeLSTM internal gate weight (`[336, 168]`,
/// 226 KB) against one tree node and a batch of 25, `1x168·64` a leaf gate
/// weight (`[64, 168]`). The older rows keep their trajectory: `1x840·336`
/// and `25x840·336` are a synthetic `[336, 840]` weight (1.1 MB, larger
/// than L2; no model has it), and `1x64·32` a cache-resident
/// TreeRNN-sized one.
fn matmul_bt_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul_bt");
    g.sample_size(20);
    for &(m, k, n) in &[
        (1usize, 840usize, 336usize),
        (25, 840, 336),
        (1, 64, 32),
        (1, 168, 336),
        (25, 168, 336),
        (1, 168, 64),
    ] {
        let a = Tensor::full([m, k], 0.5);
        let b = Tensor::full([n, k], 0.25);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{k}·{n}")),
            &(a, b),
            |bench, (a, b)| bench.iter(|| ops::matmul_bt(a, b).expect("matmul_bt")),
        );
    }
    g.finish();
}

/// One weight-gradient contribution `G += xᵀ·dy` of a tree node into a warm
/// `[336, 840]` accumulator: `dense` materializes `dW` (`matmul_at`) and
/// adds it (`accumulate`); `factored` is the rank-1 update in place.
fn grad_sink_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("grad_sink");
    g.sample_size(20);
    let p = ParamId(0);
    let x = Tensor::full([1, 336], 0.5);
    let dy = Tensor::full([1, 840], 0.25);
    let warm = || {
        let gs = GradStore::new(1);
        gs.accumulate(p, &Tensor::zeros([336, 840])).expect("warm");
        gs
    };
    let gs = warm();
    g.bench_function("dense/336x840", |b| {
        b.iter(|| {
            let dw = ops::matmul_at(&x, &dy).expect("matmul_at");
            gs.accumulate(p, &dw).expect("accumulate")
        })
    });
    let gs = warm();
    g.bench_function("factored/336x840", |b| {
        b.iter(|| gs.accumulate_outer(p, &x, &dy).expect("accumulate_outer"))
    });
    g.finish();
}

fn elementwise_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("elementwise");
    g.sample_size(20);
    let x = Tensor::full([25, 168], 0.3);
    g.bench_function("tanh_25x168", |b| b.iter(|| ops::tanh(&x).expect("tanh")));
    g.bench_function("sigmoid_25x168", |b| {
        b.iter(|| ops::sigmoid(&x).expect("sigmoid"))
    });
    let y = Tensor::full([25, 168], 0.7);
    g.bench_function("mul_25x168", |b| b.iter(|| ops::mul(&x, &y).expect("mul")));
    g.finish();
}

fn gather_scatter_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("gather_scatter");
    g.sample_size(20);
    let table = Tensor::full([2000, 64], 0.1);
    let ids = Tensor::from_i32([64], (0..64).map(|i| (i * 31) % 2000).collect()).expect("ids");
    g.bench_function("gather_64_rows_of_64", |b| {
        b.iter(|| ops::gather_rows(&table, &ids).expect("gather"))
    });
    let src = Tensor::full([64, 64], 0.5);
    g.bench_function("scatter_add_64_rows", |b| {
        b.iter(|| {
            let mut dst = Tensor::zeros([2000, 64]);
            ops::scatter_add_rows(&mut dst, &ids, &src).expect("scatter");
            dst
        })
    });
    g.finish();
}

fn bilinear_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("bilinear");
    g.sample_size(10);
    // RNTN-sized: 32 slices of 64×64.
    let x = Tensor::full([1, 64], 0.2);
    let v = Tensor::full([32, 64, 64], 0.01);
    g.bench_function("rntn_1x64_v32", |b| {
        b.iter(|| ops::bilinear(&x, &v).expect("bilinear"))
    });
    g.finish();
}

criterion_group!(
    benches,
    matmul_bench,
    matmul_bt_bench,
    grad_sink_bench,
    elementwise_bench,
    gather_scatter_bench,
    bilinear_bench
);
criterion_main!(benches);
