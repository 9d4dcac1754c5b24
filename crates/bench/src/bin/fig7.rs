//! Figure 7 — Training throughput for TreeRNN, RNTN, and TreeLSTM with the
//! synthetic Large Movie Review stand-in: recursive vs iterative vs
//! static-unrolling, batch sizes {1, 10, 25}.
//!
//! Recursive and iterative bins run minibatches as **concurrent batch
//! runs**: the module is built per-instance and the runtime launches the
//! whole minibatch as concurrent root frames on one worker pool
//! (`Trainer::step_batch`), instead of replicating the instance subgraphs
//! inside one main graph. Unrolling keeps its defining per-instance
//! graph-construction loop.
//!
//! Each row carries its Recursive/Iterative ratio and whether the paper's
//! claim holds there: recursion trains faster than the iterative
//! `while_loop` encoding, Recursive/Iterative > 1, for every model and
//! batch. The binary prints the verdicts and writes them into the JSON
//! record; it asserts nothing.

use rdg_bench::{fmt_thr, record, throughput, verdict, BenchOpts, Table};
use rdg_core::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let opts = BenchOpts::from_env();
    let window = Duration::from_secs_f64(opts.seconds);
    let batches: &[usize] = if opts.quick { &[1, 10] } else { &[1, 10, 25] };
    let kinds = [ModelKind::TreeRnn, ModelKind::Rntn, ModelKind::TreeLstm];

    println!(
        "Figure 7: training throughput (instances/s), {} threads, window {:.1}s{}",
        opts.threads,
        opts.seconds,
        if opts.quick { " [quick]" } else { "" }
    );

    for kind in kinds {
        let mut table = Table::new(
            format!("Fig 7 ({kind:?}) training throughput"),
            &[
                "batch",
                "Recursive",
                "Iterative",
                "Unrolling",
                "Recur/Iter",
                "claim",
            ],
        );
        for &batch in batches {
            // Per-instance module: the minibatch is batched by the runtime
            // (concurrent root frames), not inside the graph.
            let cfg = ModelConfig::paper_default(kind, 1);
            let data = Dataset::generate(DatasetConfig {
                vocab: cfg.vocab,
                n_train: batch.max(8) * 4,
                n_valid: 0,
                min_len: 4,
                max_len: if opts.quick { 16 } else { 32 },
                seed: 7,
                ..DatasetConfig::default()
            });
            let insts: Vec<Instance> = data.split(Split::Train)[..batch].to_vec();
            let feeds_list = Dataset::feeds_per_instance(&insts);

            // Recursive.
            let m = build_recursive(&cfg).expect("build recursive");
            let t = build_training_module(&m, m.main.outputs[0]).expect("autodiff");
            let exec = Executor::with_threads(opts.threads);
            let sess = Session::new(Arc::clone(&exec), t).expect("session");
            let mut trainer = Trainer::new(sess, Adagrad::new(0.01));
            let rec = throughput(batch, window, || {
                trainer.step_batch(feeds_list.clone()).expect("train step");
            });

            // Iterative.
            let m = build_iterative(&cfg).expect("build iterative");
            let t = build_training_module(&m, m.main.outputs[0]).expect("autodiff");
            let sess = Session::new(Arc::clone(&exec), t).expect("session");
            let mut trainer = Trainer::new(sess, Adagrad::new(0.01));
            let itr = throughput(batch, window, || {
                trainer.step_batch(feeds_list.clone()).expect("train step");
            });

            // Unrolling (fresh graph per instance, sequential dispatch).
            let unr_model = UnrolledModel::new(cfg.clone()).expect("build unrolled");
            let grads = rdg_core::exec::GradStore::new(unr_model.params().len());
            let mut opt = Adagrad::new(0.01);
            let unr = throughput(batch, window, || {
                unr_model.run_training(&insts, &grads).expect("train step");
                opt.step(unr_model.params(), &grads).expect("update");
            });

            let ratio = rec / itr;
            table.row(&[
                batch.to_string(),
                fmt_thr(rec),
                fmt_thr(itr),
                fmt_thr(unr),
                format!("{ratio:.2}"),
                verdict(ratio > 1.0),
            ]);
        }
        table.emit("fig7");
    }
    println!("claim: training Recursive/Iterative > 1 for every model and batch");
    record(
        "fig7",
        &format!("threads={} quick={}\n", opts.threads, opts.quick),
    );
}
