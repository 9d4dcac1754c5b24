//! Layer 2 of the SLO lifecycle suite (layers 1 and 3, the virtual-clock
//! shed-point pins and the live dispatcher tests, are `rdg_exec`'s
//! `tests/serve_slo.rs`): a property sweep that replays hundreds of
//! fuzzer-generated random schedules and re-derives the conservation and
//! never-early-shed invariants independently of the fuzzer's own oracles.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdg_exec::Priority;
use rdg_serve_fuzz::{generate, replay};
use std::collections::{HashMap, HashSet};

#[test]
fn property_shed_semantics_hold_across_random_schedules() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5105);
        let workers = 1 + (seed % 3) as usize;
        let sc = generate(&mut rng, seed, 40, workers);
        let out = replay(&sc);
        assert!(
            out.violations.is_empty(),
            "seed {seed}: fuzzer oracles violated: {:?}\n{}",
            out.violations,
            sc.to_ron()
        );

        // Conservation, re-derived independently: the multiset of accepted
        // ids equals dispatched ∪ evicted — nothing lost, nothing
        // duplicated, and (since the union is exact) no request both shed
        // at pop and dispatched.
        let mut lhs: Vec<u64> = out.accepted.iter().map(|m| m.id).collect();
        let mut rhs: Vec<u64> = out
            .trace
            .iter()
            .map(|r| r.id)
            .chain(out.evicted.iter().map(|e| e.id))
            .collect();
        lhs.sort_unstable();
        rhs.sort_unstable();
        assert_eq!(lhs, rhs, "seed {seed}: conservation broken");
        let dispatched: HashSet<u64> = out.trace.iter().map(|r| r.id).collect();
        for e in &out.evicted {
            assert!(
                !dispatched.contains(&e.id),
                "seed {seed}: id {} both shed and dispatched",
                e.id
            );
        }

        // Never shed early, and only against a real deadline — checked
        // against the admission-time metadata, not the shed record.
        let meta: HashMap<u64, _> = out.accepted.iter().map(|m| (m.id, m)).collect();
        for e in &out.evicted {
            let m = meta[&e.id];
            assert_eq!(
                m.deadline_ns,
                Some(e.deadline_ns),
                "seed {seed}: eviction deadline disagrees with admission"
            );
            assert!(
                e.shed_ns >= e.deadline_ns,
                "seed {seed}: id {} evicted at {} before deadline {}",
                e.id,
                e.shed_ns,
                e.deadline_ns
            );
        }
        for r in out.trace.iter().filter(|r| r.shed_inflight) {
            let d = r
                .deadline_ns
                .unwrap_or_else(|| panic!("seed {seed}: id {} cancelled without a deadline", r.id));
            assert!(
                r.done_ns >= d,
                "seed {seed}: id {} cancelled at {} before deadline {d}",
                r.id,
                r.done_ns
            );
        }

        // The class-FIFO invariant survives mixed deadline/no-deadline
        // traffic: within a class, both the dispatched stream and the
        // evicted stream preserve admission order (aging promotes lanes,
        // never reorders within one).
        for class in Priority::ALL {
            let seqs: Vec<usize> = out
                .trace
                .iter()
                .filter(|r| r.class == class)
                .map(|r| meta[&r.id].seq)
                .collect();
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: {class} dispatch order broke admission FIFO: {seqs:?}"
            );
            let seqs: Vec<usize> = out
                .evicted
                .iter()
                .filter(|e| e.class == class)
                .map(|e| meta[&e.id].seq)
                .collect();
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: {class} eviction order broke admission FIFO: {seqs:?}"
            );
        }
    }
}
