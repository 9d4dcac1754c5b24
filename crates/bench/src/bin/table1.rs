//! Table 1 — TreeRNN training throughput on the recursive implementation
//! with balanced / moderately-balanced / linear parse trees, batch {1,10,25}.
//!
//! Balancedness bounds the exploitable concurrency *within* one instance: a
//! full binary tree over N leaves admits (N+1)/2-way parallelism, a comb
//! admits ~1. Minibatches run as concurrent batch runs
//! (`Trainer::step_batch` on a per-instance module), so cross-instance
//! parallelism tops up whatever the tree shape leaves on the table — which
//! is why Linear gains the most from batching.
//!
//! Both claims are checked against the measured rows, not printed as
//! givens: each batch row carries Balanced/Linear and whether it is > 1,
//! and a second table carries each shape's largest-batch / batch-1 gain and
//! whether Linear's is the largest. The binary prints the verdicts and
//! writes them into the JSON record; it asserts nothing.

use rdg_bench::{fmt_thr, record, throughput, verdict, BenchOpts, Table};
use rdg_core::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let opts = BenchOpts::from_env();
    let window = Duration::from_secs_f64(opts.seconds);
    let batches: &[usize] = if opts.quick { &[1, 10] } else { &[1, 10, 25] };
    let shapes = [
        ("Balanced", TreeShape::Balanced),
        ("Moderate", TreeShape::Moderate),
        ("Linear", TreeShape::Linear),
    ];

    println!(
        "Table 1: TreeRNN recursive training throughput vs tree balancedness, {} threads{}",
        opts.threads,
        if opts.quick { " [quick]" } else { "" }
    );

    let mut table = Table::new(
        "Table 1: throughput (instances/s)",
        &[
            "batch", "Balanced", "Moderate", "Linear", "Bal/Lin", "claim",
        ],
    );
    // Throughput per batch (outer) and shape (inner, in `shapes` order).
    let mut thr: Vec<[f64; 3]> = Vec::new();
    let exec = Executor::with_threads(opts.threads);
    for &batch in batches {
        // Per-instance module; the runtime batches across instances.
        let cfg = ModelConfig::paper_default(ModelKind::TreeRnn, 1);
        let mut row = [0.0f64; 3];
        for (cell, (_, shape)) in row.iter_mut().zip(shapes) {
            let data = Dataset::generate(DatasetConfig {
                vocab: cfg.vocab,
                n_train: batch.max(4) * 2,
                n_valid: 0,
                min_len: if opts.quick { 12 } else { 24 },
                max_len: if opts.quick { 12 } else { 24 },
                shape,
                seed: 12,
                ..DatasetConfig::default()
            });
            let insts: Vec<Instance> = data.split(Split::Train)[..batch].to_vec();
            let feeds_list = Dataset::feeds_per_instance(&insts);
            let m = build_recursive(&cfg).expect("build");
            let t = build_training_module(&m, m.main.outputs[0]).expect("ad");
            let sess = Session::new(Arc::clone(&exec), t).expect("session");
            let mut trainer = Trainer::new(sess, Adagrad::new(0.01));
            *cell = throughput(batch, window, || {
                trainer.step_batch(feeds_list.clone()).expect("step");
            });
        }
        let ratio = row[0] / row[2];
        table.row(&[
            batch.to_string(),
            fmt_thr(row[0]),
            fmt_thr(row[1]),
            fmt_thr(row[2]),
            format!("{ratio:.2}"),
            verdict(ratio > 1.0),
        ]);
        thr.push(row);
    }
    table.emit("table1");

    // Batching gain per shape: largest batch over batch 1.
    let (first, last) = (thr[0], thr[thr.len() - 1]);
    let gains: Vec<f64> = (0..shapes.len()).map(|i| last[i] / first[i]).collect();
    let largest = gains.iter().cloned().fold(f64::MIN, f64::max);
    let mut gain_table = Table::new(
        format!(
            "Table 1: batching gain (batch {} / batch 1 instances/s)",
            batches[batches.len() - 1]
        ),
        &["shape", "gain", "claim"],
    );
    for ((name, _), &gain) in shapes.iter().zip(&gains) {
        let claim = if *name == "Linear" {
            verdict(gain >= largest)
        } else {
            "-".into()
        };
        gain_table.row(&[name.to_string(), format!("{gain:.2}"), claim]);
    }
    gain_table.emit("table1");
    println!("claims: Balanced/Linear > 1 at every batch; Linear gains the most from batching");
    record(
        "table1",
        &format!("threads={} quick={}\n", opts.threads, opts.quick),
    );
}
