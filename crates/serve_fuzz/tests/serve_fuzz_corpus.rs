//! Replay suite for the committed worst-case schedule corpus.
//!
//! Every `*.ron` file under `tests/corpus/serve_schedules/` is a
//! minimized scenario the fuzzer (`rdg_fuzz_serve`) found — a worst-case
//! interactive-p99 schedule or a shrunken oracle reproducer. This suite
//! replays each one on the virtual clock (zero sleeps, sub-second total)
//! and asserts:
//!
//! * the scenario parses, and re-serializes to the identical file
//!   (round-trip — the on-disk format cannot rot silently);
//! * replay is deterministic (two runs, identical traces);
//! * every serving oracle holds (class FIFO, strict priority, aging
//!   bound, conservation, wave clamp + budget);
//! * the recorded `expect_p99_ns` reproduces **exactly** — these files
//!   are regression pins: if a scheduling change shifts a worst case,
//!   this suite names the scenario and the delta instead of a live
//!   stress test silently losing its teeth;
//! * at least one committed scenario has a strictly worse interactive
//!   p99 than *every* hand-written stress pattern — the corpus proves
//!   the fuzzer reaches tails the hand-written tests never did.

use rdg_serve_fuzz::{baseline_scenarios, replay, replay_fused, Scenario};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
        .join("serve_schedules")
}

fn load_corpus() -> Vec<(String, String, Scenario)> {
    let mut entries: Vec<(String, String, Scenario)> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .filter_map(|e| {
            let path = e.expect("readable corpus dir entry").path();
            if path.extension().and_then(|s| s.to_str()) != Some("ron") {
                return None;
            }
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable corpus file");
            let sc = Scenario::from_ron(&text)
                .unwrap_or_else(|e| panic!("{name}: corpus file does not parse: {e}"));
            Some((name, text, sc))
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

#[test]
fn corpus_has_at_least_five_minimized_scenarios() {
    let corpus = load_corpus();
    assert!(
        corpus.len() >= 7,
        "expected ≥ 7 committed scenarios, found {}",
        corpus.len()
    );
    for (name, _, sc) in &corpus {
        assert_eq!(
            &sc.name, name,
            "scenario name field must match its file stem"
        );
        assert!(
            sc.expect_p99_ns.is_some(),
            "{name}: corpus scenarios must pin their expected p99"
        );
    }
    let with_shed = corpus
        .iter()
        .filter(|(_, _, sc)| sc.expect_shed.is_some())
        .count();
    assert!(
        with_shed >= 2,
        "expected ≥ 2 scenarios pinning exact shed counts, found {with_shed}"
    );
}

#[test]
fn corpus_files_round_trip_exactly() {
    for (name, text, sc) in load_corpus() {
        let reparsed = Scenario::from_ron(&sc.to_ron())
            .unwrap_or_else(|e| panic!("{name}: re-serialized form does not parse: {e}"));
        assert_eq!(sc, reparsed, "{name}: serialize → parse is not identity");
        assert_eq!(
            text,
            sc.to_ron(),
            "{name}: committed file differs from canonical serialization"
        );
    }
}

#[test]
fn corpus_replays_clean_and_reproduces_pinned_p99() {
    for (name, _, sc) in load_corpus() {
        let out = replay(&sc);
        assert!(
            out.violations.is_empty(),
            "{name}: oracle violation on replay: {:?}",
            out.violations
        );
        assert_eq!(
            Some(out.interactive_p99_ns),
            sc.expect_p99_ns,
            "{name}: interactive p99 drifted from the committed pin \
             (a scheduling change moved this worst case — regenerate the \
             corpus deliberately if the change is intended)"
        );
        if let Some(pin) = sc.expect_shed {
            assert_eq!(
                out.shed_total(),
                pin,
                "{name}: shed count (pop + in-flight + predictive) drifted \
                 from the committed pin"
            );
        }
        // Determinism: an identical second replay, wave for wave.
        let again = replay(&sc);
        assert_eq!(
            out.waves, again.waves,
            "{name}: replay is not deterministic"
        );
        assert_eq!(out.rejected, again.rejected);
    }
}

#[test]
fn corpus_replays_clean_under_fused_grouping() {
    // The committed worst cases double as adversarial inputs for the
    // cross-request fuser's twin: every oracle must hold when the same
    // schedule executes with wave-granularity group fusion. The p99 /
    // shed pins are scalar-mode contracts (grouping legitimately moves
    // completion times), so they are deliberately not compared here.
    for (name, _, sc) in load_corpus() {
        for mg in [2usize, 16] {
            let out = replay_fused(&sc, mg);
            assert!(
                out.violations.is_empty(),
                "{name}: oracle violation under fused replay (max_group \
                 {mg}): {:?}",
                out.violations
            );
            assert_eq!(
                out.accepted.len(),
                out.trace.len() + out.evicted.len(),
                "{name}: fused conservation (max_group {mg})"
            );
            let again = replay_fused(&sc, mg);
            assert_eq!(
                out.waves, again.waves,
                "{name}: fused replay is not deterministic (max_group {mg})"
            );
        }
    }
    for baseline in baseline_scenarios() {
        let out = replay_fused(&baseline, 4);
        assert!(
            out.violations.is_empty(),
            "baseline {} under fused replay: {:?}",
            baseline.name,
            out.violations
        );
    }
}

#[test]
fn some_corpus_scenario_beats_every_hand_written_stress_pattern() {
    let corpus = load_corpus();
    let worst_corpus = corpus
        .iter()
        .map(|(_, _, sc)| replay(sc).interactive_p99_ns)
        .max()
        .expect("non-empty corpus");
    for baseline in baseline_scenarios() {
        let out = replay(&baseline);
        assert!(
            out.violations.is_empty(),
            "baseline {}: {:?}",
            baseline.name,
            out.violations
        );
        assert!(
            worst_corpus > out.interactive_p99_ns,
            "fuzzer worst case ({} ns) does not beat hand-written pattern \
             `{}` ({} ns)",
            worst_corpus,
            baseline.name,
            out.interactive_p99_ns
        );
    }
}
