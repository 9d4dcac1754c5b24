//! Figure 8 — Inference throughput for TreeRNN, RNTN, and TreeLSTM:
//! recursive vs iterative vs static-unrolling, batch sizes {1, 10, 25}.
//!
//! Each row carries its Recursive/Iterative ratio and whether the paper's
//! claim holds there: recursion infers faster than the iterative
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
        "Figure 8: inference throughput (instances/s), {} threads, window {:.1}s{}",
        opts.threads,
        opts.seconds,
        if opts.quick { " [quick]" } else { "" }
    );

    for kind in kinds {
        let mut table = Table::new(
            format!("Fig 8 ({kind:?}) inference throughput"),
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
            let cfg = ModelConfig::paper_default(kind, batch);
            let data = Dataset::generate(DatasetConfig {
                vocab: cfg.vocab,
                n_train: batch.max(8) * 4,
                n_valid: 0,
                min_len: 4,
                max_len: if opts.quick { 16 } else { 32 },
                seed: 8,
                ..DatasetConfig::default()
            });
            let insts: Vec<Instance> = data.split(Split::Train)[..batch].to_vec();
            let feeds = Dataset::feeds_for(&insts);

            let exec = Executor::with_threads(opts.threads);
            let rec_sess = Session::new(Arc::clone(&exec), build_recursive(&cfg).expect("build"))
                .expect("session");
            let rec = throughput(batch, window, || {
                rec_sess.run(feeds.clone()).expect("run");
            });

            let itr_sess = Session::with_params(
                Arc::clone(&exec),
                build_iterative(&cfg).expect("build"),
                Arc::clone(rec_sess.params()),
            )
            .expect("session");
            let itr = throughput(batch, window, || {
                itr_sess.run(feeds.clone()).expect("run");
            });

            let mut unr_model = UnrolledModel::new(cfg).expect("build");
            unr_model.set_params(Arc::clone(rec_sess.params()));
            let unr = throughput(batch, window, || {
                unr_model.run_inference(&insts).expect("run");
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
        table.emit("fig8");
    }
    println!("claim: inference Recursive/Iterative > 1 for every model and batch");
    record(
        "fig8",
        &format!("threads={} quick={}\n", opts.threads, opts.quick),
    );
}
