//! Property-based coverage for `PathKey` hash-consing invariants.
//!
//! The executor and the backprop cache both lean on three properties of a
//! `PathTable` (each case builds its own: a table is a plain value):
//!
//! 1. **Equality ⇔ pointer equality ⇔ same site sequence** — two paths
//!    built through one table from the same sites are the same node. This
//!    is what makes backward-pass cache probes a pointer compare.
//! 2. **Hash stability** — a path's hash is a pure function of its site
//!    sequence, so keys built independently (forward vs. backward pass)
//!    collide onto the same cache shard and bucket.
//! 3. **Deep-recursion keys** — thousand-site chains behave like shallow
//!    ones: no stack overflow on construction, drop, or comparison, and
//!    prefix sharing keeps re-derivation cheap.

use proptest::prelude::*;
use rdg_exec::{PathKey, PathTable};
use rdg_graph::CallSiteId;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn build(table: &PathTable, sites: &[u32]) -> PathKey {
    sites
        .iter()
        .fold(PathKey::root(), |p, &s| table.child(&p, CallSiteId(s)))
}

fn std_hash(p: &PathKey) -> u64 {
    let mut h = DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

proptest! {
    /// Rebuilding any site sequence yields the same node and adds none:
    /// equality, pointer equality, and both hash views all agree.
    #[test]
    fn equality_is_pointer_equality(sites in prop::collection::vec(0u32..50, 0..24)) {
        let t = PathTable::new();
        let a = build(&t, &sites);
        let b = build(&t, &sites);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.ptr_eq(&b), "equal paths must share the node");
        prop_assert_eq!(a.hash_value(), b.hash_value());
        prop_assert_eq!(std_hash(&a), std_hash(&b));
        prop_assert_eq!(a.len() as usize, sites.len());
        prop_assert_eq!(t.len(), sites.len());
    }

    /// Distinct site sequences produce unequal, non-pointer-equal keys
    /// with (overwhelmingly) different hashes.
    #[test]
    fn distinct_sequences_differ(
        (a, b) in (
            prop::collection::vec(0u32..50, 0..16),
            prop::collection::vec(0u32..50, 0..16),
        )
    ) {
        if a == b {
            return; // the shim has no prop_assume; skip colliding draws
        }
        let t = PathTable::new();
        let ka = build(&t, &a);
        let kb = build(&t, &b);
        prop_assert_ne!(&ka, &kb);
        prop_assert!(!ka.ptr_eq(&kb));
    }

    /// A clone is indistinguishable from the original, and extending a
    /// shared prefix in two orders keeps the prefix node shared while the
    /// leaves differ.
    #[test]
    fn prefix_sharing_holds(
        (prefix, x, y) in (prop::collection::vec(0u32..50, 1..12), 0u32..50, 50u32..100)
    ) {
        let t = PathTable::new();
        let p = build(&t, &prefix);
        prop_assert!(p.clone().ptr_eq(&p));
        let px = t.child(&p, CallSiteId(x));
        let py = t.child(&p, CallSiteId(y));
        prop_assert_ne!(&px, &py);
        // Both children were built from the same parent node, so
        // rebuilding either from scratch finds the same node again.
        let rebuilt = t.child(&build(&t, &prefix), CallSiteId(x));
        prop_assert!(rebuilt.ptr_eq(&px));
    }

    /// The precomputed hash equals a fresh structural recomputation —
    /// i.e. which table built a chain never changes its hash (the mixing
    /// formula is the contract).
    #[test]
    fn hash_matches_structural_recomputation(sites in prop::collection::vec(0u32..1000, 0..20)) {
        let k = build(&PathTable::new(), &sites);
        let mut h: u64 = 0xcbf29ce484222325;
        for &s in &sites {
            h = h
                .wrapping_mul(0x100000001b3)
                .wrapping_add(0x9e3779b97f4a7c15 ^ (s as u64).wrapping_mul(0xff51afd7ed558ccd));
        }
        prop_assert_eq!(k.hash_value(), h);
    }
}

/// Deep-recursion keys: a 20 000-site chain (the depth the executor's
/// tail-recursion test reaches) builds, compares, re-derives and drops on
/// this thread's default stack — the table first and then the last key, or
/// a table that is the chain's only owner — and the second derivation is
/// fully shared.
#[test]
fn deep_recursion_keys_are_safe_and_shared() {
    let sites: Vec<u32> = (0..20_000).map(|i| i % 7).collect();
    let t = PathTable::new();
    let p = build(&t, &sites);
    assert_eq!(p.len() as usize, sites.len());
    let q = build(&t, &sites);
    assert_eq!(p, q);
    assert!(p.ptr_eq(&q), "deep re-derivation must hit the table");
    assert_eq!(t.len(), sites.len());
    drop((t, q));
    drop(p);
    let t = PathTable::new();
    drop(build(&t, &sites));
    drop(t);
}

/// Sites round-trip through deep keys (leaf-to-root walk + reverse).
#[test]
fn deep_sites_round_trip() {
    let sites: Vec<u32> = (0..5_000).map(|i| 2_000_000 + i).collect();
    let p = build(&PathTable::new(), &sites);
    let got: Vec<u32> = p.sites().iter().map(|s| s.0).collect();
    assert_eq!(got, sites);
}
