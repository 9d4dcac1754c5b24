//! Micro-benchmarks of the tensor kernels that dominate model time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdg_core::exec::GradStore;
use rdg_core::graph::ParamId;
use rdg_core::tensor::{ops, Tensor};

/// `matmul` at the models' shapes; `1x128x128` is one TD-TreeLSTM gate
/// (hidden 128), `4x336x168` four TreeLSTM gate products stacked into one
/// call (the mean group of a `train.treelstm.b25` drain), and `1x1536x768`
/// and `2x1536x768` are the `serve.wide.closed` combine GEMV (TreeRNN,
/// hidden 768) alone and as a fused pair. Each row runs at the one heap
/// layout its process happens to have; under the AVX2 build `1x128x128`
/// moves with that layout.
fn matmul_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    g.sample_size(20);
    for &(m, k, n) in &[
        (1usize, 128usize, 128usize),
        (1, 336, 168),
        (4, 336, 168),
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

/// `dX = dY·Wᵀ` at the shapes the backward pass runs it. `1x168·336`,
/// `4x168·336` and `25x168·336` are one TreeLSTM internal gate weight
/// (`[336, 168]`, 226 KB) against one tree node, a stacked group of four
/// and a batch of 25, `1x168·64` a leaf gate
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
        (4, 168, 336),
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
    // A group of k sinks on one TreeLSTM gate weight (`[336, 168]`) as one
    // stacked update, against the same k sinks one row at a time.
    let gs = GradStore::new(1);
    gs.accumulate(p, &Tensor::zeros([336, 168])).expect("warm");
    for k in [1usize, 4, 8] {
        let a = Tensor::full([k, 336], 0.5);
        let dy = Tensor::full([k, 168], 0.25);
        g.bench_function(format!("stacked/{k}x336x168"), |b| {
            b.iter(|| gs.accumulate_outer(p, &a, &dy).expect("stacked"))
        });
        let (x, dy1) = (Tensor::full([1, 336], 0.5), Tensor::full([1, 168], 0.25));
        g.bench_function(format!("one_by_one/{k}x336x168"), |b| {
            b.iter(|| {
                for _ in 0..k {
                    gs.accumulate_outer(p, &x, &dy1).expect("one row");
                }
            })
        });
    }
    g.finish();
}

/// Where stacking starts to pay, the measurement behind the executor's
/// stacking crossover: four row vectors against one `[k, n]` weight as one
/// call with its gather and scatter (`stacked`), against four one-row
/// calls (`one_by_one`), from a cache-resident TreeRNN weight (8 KiB) to a
/// TreeLSTM gate weight (226 KB).
fn stack_crossover_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("stack_crossover");
    g.sample_size(20);
    for &(k, n) in &[
        (64usize, 32usize),
        (64, 64),
        (128, 64),
        (128, 128),
        (256, 128),
        (336, 168),
    ] {
        let w = Tensor::full([k, n], 0.25);
        let rows: Vec<Tensor> = (0..4)
            .map(|i| Tensor::full([1, k], 0.5 + i as f32))
            .collect();
        let kib = k * n * 4 / 1024;
        g.bench_function(format!("stacked/4x{k}x{n}_{kib}KiB"), |b| {
            b.iter(|| {
                let refs: Vec<&Tensor> = rows.iter().collect();
                let out = ops::matmul(&ops::stack_rows(&refs).expect("stack"), &w).expect("mm");
                (0..4)
                    .map(|i| ops::get_row(&out, &Tensor::scalar_i32(i)).expect("row"))
                    .collect::<Vec<_>>()
            })
        });
        g.bench_function(format!("one_by_one/4x{k}x{n}_{kib}KiB"), |b| {
            b.iter(|| {
                rows.iter()
                    .map(|r| ops::matmul(r, &w).expect("mm"))
                    .collect::<Vec<_>>()
            })
        });
    }
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
    stack_crossover_bench,
    elementwise_bench,
    gather_scatter_bench,
    bilinear_bench
);
criterion_main!(benches);
