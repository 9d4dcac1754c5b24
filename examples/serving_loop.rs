//! Serving loop: a long-lived, QoS-aware admission-controlled TreeRNN
//! service.
//!
//! The serving story end to end: one `Session` on one worker pool, fronted
//! by per-class bounded admission lanes (`Session::serve`), fed mixed-depth
//! inference requests by **interactive** client threads and a **batch**
//! background client (`ServeClient::with_priority`). The dispatcher drains
//! the lanes in aged strict priority — interactive requests jump the batch
//! backlog, batch requests age past starvation — in waves whose size
//! adapts to observed service times, so burst load turns into queue wait
//! (visible per class in the stats below) instead of cache-thrashing
//! oversubscription. Finishes with a clean shutdown: clients stop, the
//! lanes drain, the dispatcher joins, and the final `ServeStats` must
//! account for every single request in every class.
//!
//! Run with: `cargo run --release --example serving_loop`
//! Environment: `RDG_QUICK=1` shrinks the run for CI smoke,
//! `RDG_THREADS=n` sizes the worker pool, `RDG_SECONDS=s` sets duration.

use rdg_core::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let quick = std::env::var("RDG_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false);
    let threads: usize = std::env::var("RDG_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let seconds: f64 = std::env::var("RDG_SECONDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 2.0 } else { 10.0 });
    let n_interactive = if quick { 2 } else { 3 };
    let n_batch = 1;

    // --- 1. A TreeRNN session and a pool of mixed-depth requests ---------
    let cfg = ModelConfig::paper_default(ModelKind::TreeRnn, 1);
    let data = Dataset::generate(DatasetConfig {
        vocab: cfg.vocab,
        n_train: 64,
        n_valid: 0,
        min_len: 4,
        max_len: if quick { 16 } else { 48 },
        shape: TreeShape::Moderate,
        seed: 20240715,
        ..DatasetConfig::default()
    });
    let module = build_recursive(&cfg).expect("build recursive TreeRNN");
    let session = Session::new(Executor::with_threads(threads), module).expect("session");
    let requests = Dataset::feeds_per_instance(data.split(Split::Train));

    // --- 2. Open the QoS-aware serving loop ------------------------------
    let client = session.serve_with(ServeConfig {
        capacity: 64,
        ..ServeConfig::default()
    });
    println!(
        "serving_loop: {threads} workers, initial wave {}, lane capacity {}, \
         {n_interactive} interactive + {n_batch} batch clients, {seconds:.1}s",
        client.stats().wave_target,
        client.capacity(),
    );

    // --- 3. Client threads: closed-loop submit → wait, until told to stop.
    // Interactive clients use the first client's class; the batch client
    // submits through a `with_priority(Priority::Batch)` clone and keeps a small ring of
    // requests in flight — a background stream the interactive traffic
    // must not be stuck behind.
    let stop = Arc::new(AtomicBool::new(false));
    let answered_interactive = Arc::new(AtomicU64::new(0));
    let answered_batch = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::new();
    for c in 0..n_interactive {
        let client = client.clone();
        let stop = Arc::clone(&stop);
        let answered = Arc::clone(&answered_interactive);
        let requests = requests.clone();
        workers.push(std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let feeds = requests[(c * 17 + i) % requests.len()].clone();
                i += 1;
                // Blocking admission = backpressure: a full lane slows
                // the client down instead of dropping its request.
                match client.submit(feeds) {
                    Ok(ticket) => {
                        ticket.wait().expect("interactive request failed");
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("admission failed: {e}"),
                }
            }
        }));
    }
    for b in 0..n_batch {
        let client = client.with_priority(Priority::Batch);
        let stop = Arc::clone(&stop);
        let answered = Arc::clone(&answered_batch);
        let requests = requests.clone();
        workers.push(std::thread::spawn(move || {
            const OUTSTANDING: usize = 8;
            let mut ring: std::collections::VecDeque<rdg_core::exec::ServeTicket> =
                std::collections::VecDeque::new();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                if ring.len() >= OUTSTANDING {
                    ring.pop_front().unwrap().wait().expect("batch request");
                    answered.fetch_add(1, Ordering::Relaxed);
                }
                let feeds = requests[(b * 29 + i) % requests.len()].clone();
                i += 1;
                match client.submit(feeds) {
                    Ok(ticket) => ring.push_back(ticket),
                    Err(e) => panic!("batch admission failed: {e}"),
                }
            }
            while let Some(t) = ring.pop_front() {
                t.wait().expect("batch request failed");
                answered.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    // --- 4. The operator's view: periodic stats snapshots -----------------
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let tick = Duration::from_secs_f64((seconds / 5.0).clamp(0.2, 2.0));
    while Instant::now() < deadline {
        std::thread::sleep(tick);
        let stats = client.stats();
        println!(
            "  t={:4.1}s  {}",
            t0.elapsed().as_secs_f64(),
            stats.summary()
        );
        for line in stats.class_summary().lines() {
            println!("           {line}");
        }
    }

    // --- 5. Clean shutdown: stop clients, drain the lanes, join. ----------
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("client thread");
    }
    client.shutdown();
    let stats = client.stats();
    let wall = t0.elapsed().as_secs_f64();
    println!("final: {}", stats.summary());
    for line in stats.class_summary().lines() {
        println!("       {line}");
    }
    let inter = &stats.classes[Priority::Interactive.index()];
    let batch = &stats.classes[Priority::Batch.index()];
    println!(
        "served {} requests in {wall:.1}s = {:.0} req/s \
         (interactive p50={:.0}µs p95={:.0}µs | batch p50={:.0}µs p95={:.0}µs)",
        stats.completed,
        stats.completed as f64 / wall,
        inter.total.p50_us,
        inter.total.p95_us,
        batch.total.p50_us,
        batch.total.p95_us,
    );
    // Accounting must close: every admitted request was answered, in every
    // class, and nothing remains queued. This loop submits without SLOs and
    // waits on every ticket, so every shed counter and the abandoned
    // counter must stay at exactly zero — the full lifecycle closure
    // `completed + failed + shed + shed_inflight + abandoned == submitted`
    // collapses to its PR 5 form.
    assert_eq!(stats.completed + stats.failed, stats.submitted);
    assert_eq!(stats.failed, 0, "no request may fail");
    assert_eq!(
        stats.shed + stats.shed_inflight + stats.shed_predicted + stats.abandoned,
        0,
        "no SLOs and no dropped tickets in this loop, so nothing sheds or abandons"
    );
    assert_eq!(
        inter.completed + inter.failed,
        inter.submitted,
        "interactive accounting closes"
    );
    assert_eq!(
        batch.completed + batch.failed,
        batch.submitted,
        "batch accounting closes"
    );
    assert_eq!(
        inter.completed,
        answered_interactive.load(Ordering::Relaxed),
        "every interactive completion was delivered to a client"
    );
    assert_eq!(
        batch.completed,
        answered_batch.load(Ordering::Relaxed),
        "every batch completion was delivered to a client"
    );
    assert!(
        batch.completed > 0,
        "the batch stream made progress under interactive load (no starvation)"
    );
    assert_eq!(stats.queue_depth, 0, "clean shutdown leaves no queued work");
    println!("serving_loop: OK");
}
