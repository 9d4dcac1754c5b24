//! Table 2 — TreeLSTM inference and training throughput: iterative vs
//! recursive vs folding (depth-wise dynamic batching), batch {1, 10, 25}.
//!
//! The paper's crossover: recursion wins on inference (no regrouping
//! overhead, cheap parallelism), folding wins on training at larger batches
//! (batched kernels amortize; the paper additionally had a GPU — our fold
//! runs batched CPU kernels, see REPRODUCING.md for the gap discussion).
//!
//! Each row carries its Recur/Fold ratio and whether the paper's claim
//! holds there: on inference, Recur/Fold > 1 at every batch; on training,
//! Recur/Fold > 1 at the smallest batch and falling as the batch grows
//! (folding overtakes). Recur and Fold are timed in `rdg_bench::WINDOWS`
//! windows each, interleaved window by window, and the row prints the
//! median ratio with its min–max. A verdict is `holds` or `fails` only
//! when every window agrees (min > 1, or max < 1; for "falling", this
//! batch's spread wholly below, or wholly above, the previous batch's),
//! and `undecided` otherwise. Quick mode shrinks the model and the batch
//! set, never the window count. The binary prints the verdicts and writes
//! them into the JSON record; it asserts nothing.

use rdg_bench::{fmt_thr, interleaved, record, throughput, BenchOpts, Spread, Table};
use rdg_core::fold::FoldEngine;
use rdg_core::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let opts = BenchOpts::from_env();
    let window = Duration::from_secs_f64(opts.seconds);
    let batches: &[usize] = if opts.quick { &[1, 10] } else { &[1, 10, 25] };

    println!(
        "Table 2: TreeLSTM iterative/recursive/folding, {} threads{}",
        opts.threads,
        if opts.quick { " [quick]" } else { "" }
    );

    let headers = [
        "batch",
        "Iter",
        "Recur",
        "Fold",
        "Recur/Fold (min–max)",
        "claim",
    ];
    let mut inf_table = Table::new("Table 2 (inference, instances/s)", &headers);
    let mut trn_table = Table::new("Table 2 (training, instances/s)", &headers);
    // Training's Recur/Fold at the previous (smaller) batch.
    let mut trn_prev: Option<Spread> = None;

    let exec = Executor::with_threads(opts.threads);
    for &batch in batches {
        let mut cfg = ModelConfig::paper_default(ModelKind::TreeLstm, batch);
        if opts.quick {
            cfg.hidden = 64;
        }
        let data = Dataset::generate(DatasetConfig {
            vocab: cfg.vocab,
            n_train: batch.max(4) * 2,
            n_valid: 0,
            min_len: 4,
            max_len: if opts.quick { 16 } else { 32 },
            seed: 13,
            ..DatasetConfig::default()
        });
        let insts: Vec<Instance> = data.split(Split::Train)[..batch].to_vec();
        let feeds = Dataset::feeds_for(&insts);

        // Sessions with shared parameters.
        let m_rec = build_recursive(&cfg).expect("build");
        let m_itr = build_iterative(&cfg).expect("build");
        let t_rec = build_training_module(&m_rec, m_rec.main.outputs[0]).expect("ad");
        let t_itr = build_training_module(&m_itr, m_itr.main.outputs[0]).expect("ad");
        let s_rec = Session::new(Arc::clone(&exec), m_rec).expect("session");
        let s_itr = Session::with_params(Arc::clone(&exec), m_itr, Arc::clone(s_rec.params()))
            .expect("session");
        let st_rec = Session::with_params(Arc::clone(&exec), t_rec, Arc::clone(s_rec.params()))
            .expect("session");
        let st_itr = Session::with_params(Arc::clone(&exec), t_itr, Arc::clone(s_rec.params()))
            .expect("session");
        let mut fold = FoldEngine::new(cfg).expect("build fold");
        fold.set_params(Arc::clone(s_rec.params()));

        // Inference.
        let i_itr = throughput(batch, window, || {
            s_itr.run(feeds.clone()).expect("run");
        });
        let (i_rec, i_fold, inf_ratio) = interleaved(
            batch,
            window,
            || {
                s_rec.run(feeds.clone()).expect("run");
            },
            || {
                fold.infer(&insts).expect("run");
            },
        );
        inf_table.row(&[
            batch.to_string(),
            fmt_thr(i_itr),
            fmt_thr(i_rec),
            fmt_thr(i_fold),
            inf_ratio.cell(),
            inf_ratio.above_one(),
        ]);

        // Training (no optimizer application — measuring fwd+bwd as in §6.4).
        let t_itr = throughput(batch, window, || {
            st_itr.run_training(feeds.clone()).expect("run");
        });
        let grads = rdg_core::exec::GradStore::new(fold.params().len());
        let (t_rec, t_fold, trn_ratio) = interleaved(
            batch,
            window,
            || {
                st_rec.run_training(feeds.clone()).expect("run");
            },
            || {
                fold.train_step(&insts, &grads).expect("run");
            },
        );
        trn_table.row(&[
            batch.to_string(),
            fmt_thr(t_itr),
            fmt_thr(t_rec),
            fmt_thr(t_fold),
            trn_ratio.cell(),
            trn_prev.map_or(trn_ratio.above_one(), |prev| trn_ratio.below(&prev)),
        ]);
        trn_prev = Some(trn_ratio);
    }
    inf_table.emit("table2");
    trn_table.emit("table2");
    println!(
        "claims: inference Recur/Fold > 1 at every batch; training Recur/Fold > 1 at the \
         smallest batch, then falling as the batch grows (Recur and Fold: medians of {} \
         interleaved windows; a verdict needs every window to agree)",
        rdg_bench::WINDOWS
    );
    record(
        "table2",
        &format!("threads={} quick={}\n", opts.threads, opts.quick),
    );
}
