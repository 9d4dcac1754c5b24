//! Table 3 — TD-TreeLSTM (dynamically-structured) throughput: iterative vs
//! recursive, batch {1, 64}. Folding is *not applicable*: the tree structure
//! is computed during execution, so no ahead-of-time batching plan exists.
//!
//! Each row carries its Recursive/Iterative ratio and whether the paper's
//! claim (recursive ahead of iterative, by parallel sibling expansion)
//! holds there: Recursive/Iterative > 1. The binary prints the verdicts and
//! writes them into the JSON record; it asserts nothing.

use rdg_bench::{fmt_thr, record, throughput, verdict, BenchOpts, Table};
use rdg_core::models::td::td_feeds;
use rdg_core::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let opts = BenchOpts::from_env();
    let window = Duration::from_secs_f64(opts.seconds);
    let batches: &[usize] = if opts.quick { &[1, 16] } else { &[1, 64] };

    println!(
        "Table 3: TD-TreeLSTM evaluation throughput, {} threads{}",
        opts.threads,
        if opts.quick { " [quick]" } else { "" }
    );

    let mut table = Table::new(
        "Table 3: throughput (instances/s)",
        &[
            "batch",
            "Iterative",
            "Recursive",
            "Folding",
            "Rec/Iter",
            "claim",
        ],
    );
    let exec = Executor::with_threads(opts.threads);
    for &batch in batches {
        let mut cfg = TdConfig::paper_default(batch);
        // Quick mode only bounds the trees: a smaller hidden size makes the
        // generator stop at the root, and the table would time no recursion.
        if opts.quick {
            cfg.max_depth = 5;
        }
        let feeds = td_feeds(&cfg, 14);

        let m_rec = build_td_recursive(&cfg).expect("build");
        let m_itr = build_td_iterative(&cfg).expect("build");
        let s_rec = Session::new(Arc::clone(&exec), m_rec).expect("session");
        let s_itr = Session::with_params(Arc::clone(&exec), m_itr, Arc::clone(s_rec.params()))
            .expect("session");

        // Sanity: both implementations generate identical structures.
        let nr = s_rec.run(feeds.clone()).expect("run")[0]
            .as_i32_scalar()
            .expect("count");
        let ni = s_itr.run(feeds.clone()).expect("run")[0]
            .as_i32_scalar()
            .expect("count");
        assert_eq!(nr, ni, "implementations must agree on generated trees");
        println!("batch {batch}: {nr} total nodes generated per run");
        assert!(
            nr as usize > batch,
            "batch {batch} generated {nr} nodes: no tree grew past its root, \
             so the Recursive column would time no recursion"
        );

        let thr_itr = throughput(batch, window, || {
            s_itr.run(feeds.clone()).expect("run");
        });
        let thr_rec = throughput(batch, window, || {
            s_rec.run(feeds.clone()).expect("run");
        });
        let ratio = thr_rec / thr_itr;
        table.row(&[
            batch.to_string(),
            fmt_thr(thr_itr),
            fmt_thr(thr_rec),
            "Not supported".into(),
            format!("{ratio:.2}"),
            verdict(ratio > 1.0),
        ]);
    }
    table.emit("table3");
    println!("claims: Recursive/Iterative > 1 at every batch; folding inapplicable");
    record(
        "table3",
        &format!("threads={} quick={}\n", opts.threads, opts.quick),
    );
}
