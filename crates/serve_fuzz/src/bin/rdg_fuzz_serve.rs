//! `rdg_fuzz_serve` — seeded adversarial schedule fuzzing for the serving
//! stack, from the command line / CI.
//!
//! Runs one deterministic campaign of `rdg_serve_fuzz` and prints
//! the report: the worst interactive p99 found, the search trajectory,
//! and any oracle violations. Minimized findings (the worst-case scenario
//! and every violation reproducer) are written as RON-style scripts to
//! the output directory, ready to be committed into
//! `crates/serve_fuzz/tests/corpus/serve_schedules/`.
//!
//! Configuration is via environment (CI-friendly; no CLI parsing):
//!
//! | variable         | default | meaning                                  |
//! |------------------|---------|------------------------------------------|
//! | `RDG_FUZZ_SEED`  | 0xF4E7  | master seed (decimal or 0x-hex)          |
//! | `RDG_FUZZ_ITERS` | 2000    | mutation iterations                      |
//! | `RDG_FUZZ_OUT`   | unset   | directory for minimized finding scripts  |
//!
//! Exit status: 0 when every schedule tried kept the serving invariants,
//! 1 when a violation was found (the minimized reproducer is printed and,
//! with `RDG_FUZZ_OUT`, written to disk — commit it to the corpus so the
//! regression stays fixed).
//!
//! The campaign runs entirely on the virtual clock: wall time is a few
//! hundred milliseconds for the default 2000 iterations, independent of
//! the scripted service durations.

use rdg_serve_fuzz::{run_campaign, FuzzConfig};
use std::path::Path;

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => {
            let v = v.trim();
            let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse::<u64>(),
            };
            parsed.unwrap_or_else(|_| {
                eprintln!("rdg_fuzz_serve: ignoring unparsable {name}={v:?}");
                default
            })
        }
        Err(_) => default,
    }
}

fn main() {
    let defaults = FuzzConfig::default();
    let config = FuzzConfig {
        seed: env_u64("RDG_FUZZ_SEED", defaults.seed),
        iters: env_u64("RDG_FUZZ_ITERS", defaults.iters as u64) as usize,
        ..defaults
    };
    println!(
        "rdg_fuzz_serve: campaign seed={:#x} iters={} pool={} workers={}",
        config.seed, config.iters, config.pool, config.workers
    );
    let report = run_campaign(&config);
    println!("{}", report.summary());
    for (iter, p99) in &report.improvements {
        println!(
            "  improvement @ iter {iter}: interactive p99 {:.3} ms",
            *p99 as f64 / 1e6
        );
    }
    println!(
        "worst-case scenario: {} events, expect_p99_ns={:?}",
        report.worst.events.len(),
        report.worst.expect_p99_ns
    );
    match &report.worst_shed {
        Some(sc) => println!(
            "max-shed scenario: {} events, expect_shed={:?}, expect_p99_ns={:?}",
            sc.events.len(),
            sc.expect_shed,
            sc.expect_p99_ns
        ),
        None => println!("max-shed scenario: none (no schedule tried ever shed)"),
    }

    let out_dir = std::env::var("RDG_FUZZ_OUT").ok();
    if let Some(dir) = &out_dir {
        let dir = Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("rdg_fuzz_serve: cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
        let mut findings = vec![&report.worst];
        if let Some(sc) = &report.worst_shed {
            findings.push(sc);
        }
        for sc in findings {
            let path = dir.join(format!("{}.ron", sc.name));
            if let Err(e) = std::fs::write(&path, sc.to_ron()) {
                eprintln!("rdg_fuzz_serve: cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
            println!("wrote {}", path.display());
        }
    }

    if report.violations.is_empty() {
        println!("oracles held on every schedule tried");
        return;
    }
    eprintln!(
        "rdg_fuzz_serve: {} ORACLE VIOLATION(S) — minimized reproducers follow",
        report.violations.len()
    );
    for (i, v) in report.violations.iter().enumerate() {
        eprintln!("--- violation {i}: {}", v.detail);
        let mut sc = v.scenario.clone();
        sc.name = format!("fuzz-violation-{:08x}-{i}", report.config.seed);
        eprintln!("{}", sc.to_ron());
        if let Some(dir) = &out_dir {
            let path = Path::new(dir).join(format!("{}.ron", sc.name));
            if let Err(e) = std::fs::write(&path, sc.to_ron()) {
                eprintln!("rdg_fuzz_serve: cannot write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
    }
    std::process::exit(1);
}
