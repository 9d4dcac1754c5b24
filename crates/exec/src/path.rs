//! Invocation paths: hash-consed chains of call sites.
//!
//! The paper (§5, "Backpropagation cache implementation") keys each cached
//! forward value by "the InvokeOp's topological position within the SubGraph
//! combined with the key of the parent InvokeOp, guaranteeing uniqueness".
//! [`PathKey`] is exactly that: a persistent linked list of
//! [`CallSiteId`]s from the root frame, with a precomputed running hash so
//! map lookups don't walk the chain. Gradient SubGraphs reuse the forward
//! call-site ids, so a backward frame reconstructs the identical path and
//! finds its forward twin's activations.
//!
//! # Hash-consing
//!
//! Path nodes are **interned** in a process-wide table keyed by
//! `(parent pointer, call site)`. [`PathKey::child`] is therefore a sharded
//! table lookup: extending the same parent with the same site twice returns
//! the *same* `Arc` both times, so
//!
//! * structurally equal paths are **pointer-equal** — equality and backprop
//!   cache probes never walk the chain;
//! * the steady state of a training loop (same module, same recursion
//!   shape, step after step) allocates **zero** path nodes — child-key
//!   creation is a lookup, not an allocation + rehash;
//! * deep chains are never dropped recursively (the interner keeps one
//!   strong reference to every node it ever produced), so a 20 000-deep
//!   tail recursion cannot overflow the stack on teardown.
//!
//! Left alone, the table grows with the number of **distinct paths ever
//! observed, across all runs and all modules** — a trie of every call-site
//! chain executed so far, at roughly a hundred bytes per node. Re-running
//! the same shapes (a training loop over a fixed module, the steady state
//! this design optimizes) adds nothing, but workloads whose recursion
//! shape varies per input (e.g. a treebank where every tree is a new
//! shape) keep adding the union of their paths.
//! [`PathKey::flush_interner`] reclaims that growth at quiescent points
//! (between epochs, at serve shutdown): it evicts every node no live key
//! references and cascades up each retired chain **iteratively** on a
//! worklist, so flushing a 20 000-deep retired chain never recurses. Keys
//! still held anywhere outside the interner — and all their ancestors —
//! are left untouched, and the structural-equality backstop in
//! [`PartialEq`] keeps any key that survives a flush comparable with
//! freshly re-interned twins. [`PathKey::interner_len`] exposes the
//! current size for diagnostics, tests, and leak monitoring.
//!
//! # Example
//!
//! ```
//! use rdg_exec::PathKey;
//! use rdg_graph::CallSiteId;
//!
//! let fwd = PathKey::root().child(CallSiteId(3)).child(CallSiteId(7));
//! // The backward pass rebuilds the path from scratch…
//! let bwd = PathKey::root().child(CallSiteId(3)).child(CallSiteId(7));
//! // …and gets the identical interned node back.
//! assert_eq!(fwd, bwd);
//! assert_eq!(fwd.hash_value(), bwd.hash_value());
//! assert_eq!(fwd.sites(), vec![CallSiteId(3), CallSiteId(7)]);
//! ```

use parking_lot::Mutex;
use rdg_graph::CallSiteId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// Quiescent points counted since the last epoch flush (see
/// [`PathKey::note_run_quiescent`]).
static QUIESCENT_POINTS: AtomicU32 = AtomicU32::new(0);

/// Flush the interner after this many quiescent points regardless of size.
const FLUSH_EVERY_QUIESCENT: u32 = 64;
/// Minimum quiescent points before a size-triggered flush (avoids
/// thrashing a workload that legitimately holds a big live path set).
const FLUSH_MIN_QUIESCENT: u32 = 8;
/// Size-triggered flush threshold, in interned path nodes.
const FLUSH_LEN_TRIGGER: usize = 4096;

#[derive(Debug)]
struct PathNode {
    parent: PathKey,
    site: CallSiteId,
    hash: u64,
    len: u32,
}

/// An invocation path: the chain of call sites from the root frame.
///
/// Cheap to clone (one `Arc` bump) and to extend (one interner lookup);
/// structurally equal paths are pointer-equal (see the module docs), so
/// equality is a pointer compare and hashing reads a precomputed value.
#[derive(Clone, Debug, Default)]
pub struct PathKey(Option<Arc<PathNode>>);

/// Identity for the root path's hash (FNV-1a offset basis).
const ROOT_HASH: u64 = 0xcbf29ce484222325;

/// Shard count for the interner (must be a power of two).
const N_SHARDS: usize = 64;

/// Interner key: the parent node's address (0 for the root) plus the site.
type InternKey = (usize, u32);

/// A multiplicative hasher for [`InternKey`]s — the keys are already
/// well-distributed pointers, so SipHash would be wasted work on the
/// invoke hot path.
#[derive(Default)]
struct FxLiteHasher(u64);

impl Hasher for FxLiteHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0xff51afd7ed558ccd);
    }
}

struct Interner {
    shards: Vec<Mutex<HashMap<InternKey, PathKey, BuildHasherDefault<FxLiteHasher>>>>,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        shards: (0..N_SHARDS)
            .map(|_| Mutex::new(HashMap::default()))
            .collect(),
    })
}

impl Interner {
    fn shard(
        &self,
        key: &InternKey,
    ) -> &Mutex<HashMap<InternKey, PathKey, BuildHasherDefault<FxLiteHasher>>> {
        // Pointers are aligned: shift off the low zero bits before mixing
        // so consecutive allocations land in different shards.
        let mixed = ((key.0 as u64 >> 4) ^ (key.1 as u64).wrapping_mul(0x9e3779b97f4a7c15))
            .wrapping_mul(0xff51afd7ed558ccd);
        &self.shards[(mixed >> 32) as usize & (N_SHARDS - 1)]
    }
}

impl PathKey {
    /// The root path (the main graph's frame).
    pub fn root() -> Self {
        PathKey(None)
    }

    /// Extends this path with one call site.
    ///
    /// Hash-consed: extending the same parent with the same site returns
    /// the same interned node, so this is a table lookup in the steady
    /// state and allocates only the first time a path is ever seen.
    pub fn child(&self, site: CallSiteId) -> Self {
        let parent_ptr = self.0.as_ref().map_or(0usize, |a| Arc::as_ptr(a) as usize);
        let key: InternKey = (parent_ptr, site.0);
        let shard = interner().shard(&key);
        let mut map = shard.lock();
        if let Some(k) = map.get(&key) {
            return k.clone();
        }
        let parent_hash = self.hash_value();
        // Mixing function: a 64-bit FNV-style combine keeps chains cheap and
        // collision-resistant enough for a cache (equality still verifies).
        let hash = parent_hash
            .wrapping_mul(0x100000001b3)
            .wrapping_add(0x9e3779b97f4a7c15 ^ (site.0 as u64).wrapping_mul(0xff51afd7ed558ccd));
        let k = PathKey(Some(Arc::new(PathNode {
            parent: self.clone(),
            site,
            hash,
            len: self.len() + 1,
        })));
        map.insert(key, k.clone());
        k
    }

    /// Number of call sites in the path (0 for the root).
    pub fn len(&self) -> u32 {
        self.0.as_ref().map_or(0, |n| n.len)
    }

    /// Returns `true` for the root path.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// The precomputed chain hash.
    pub fn hash_value(&self) -> u64 {
        self.0.as_ref().map_or(ROOT_HASH, |n| n.hash)
    }

    /// The sites from root to leaf (diagnostics; allocates).
    pub fn sites(&self) -> Vec<CallSiteId> {
        let mut out = Vec::with_capacity(self.len() as usize);
        let mut cur = &self.0;
        while let Some(n) = cur {
            out.push(n.site);
            cur = &n.parent.0;
        }
        out.reverse();
        out
    }

    /// Total number of path nodes held by the process-wide interner
    /// (diagnostics; locks every shard).
    pub fn interner_len() -> usize {
        interner().shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Flushes retired nodes from the process-wide interner, returning the
    /// number of nodes reclaimed.
    ///
    /// A node is retired when nothing outside the interner references it:
    /// no live [`PathKey`] held by a frame, cache, or caller, and no
    /// interned child whose `parent` link pins it. Retired leaves are
    /// evicted first; each eviction may retire its parent in turn, and
    /// that cascade runs on an explicit worklist — never by recursive
    /// `Drop` — so flushing arbitrarily deep retired chains is
    /// stack-safe.
    ///
    /// Safe to call at any time: live keys (and every ancestor on their
    /// spine) are never touched, and a key that races a flush simply
    /// re-interns its path on next extension, with the structural
    /// fallback in `PartialEq` keeping old and new nodes equal. Intended
    /// for quiescent points — between training epochs or when a serving
    /// session shuts down — where varied-shape workloads would otherwise
    /// grow the table without bound.
    pub fn flush_interner() -> usize {
        let it = interner();
        let mut worklist: Vec<Arc<PathNode>> = Vec::new();
        // Phase 1: sweep each shard for nodes only the interner still
        // holds (strong count 1: the map's own clone). An interned child
        // pins its parent through `PathNode::parent`, so this set is
        // exactly the retired leaves.
        for shard in &it.shards {
            let mut map = shard.lock();
            let dead: Vec<InternKey> = map
                .iter()
                .filter(|(_, v)| v.0.as_ref().map_or(false, |a| Arc::strong_count(a) == 1))
                .map(|(k, _)| *k)
                .collect();
            for k in dead {
                if let Some(PathKey(Some(node))) = map.remove(&k) {
                    worklist.push(node);
                }
            }
        }
        // Phase 2: tear down each retired node and cascade to its parent
        // iteratively. Stealing the parent link before the node drops is
        // what keeps deep chains off the call stack.
        let mut flushed = 0usize;
        while let Some(node) = worklist.pop() {
            let Ok(mut inner) = Arc::try_unwrap(node) else {
                // Lost a race to a concurrent re-reference; the clone we
                // dropped leaves the node alive for its new holder.
                continue;
            };
            flushed += 1;
            let parent = std::mem::replace(&mut inner.parent, PathKey::root());
            drop(inner);
            if let Some(parent_arc) = parent.0 {
                let gp_ptr = parent_arc
                    .parent
                    .0
                    .as_ref()
                    .map_or(0usize, |a| Arc::as_ptr(a) as usize);
                let key: InternKey = (gp_ptr, parent_arc.site.0);
                let shard = it.shard(&key);
                let mut map = shard.lock();
                // Retire the parent only if the map still holds this very
                // node and the only references left are the map's clone
                // plus ours — i.e. we just dropped its last child.
                let retired = matches!(
                    map.get(&key),
                    Some(PathKey(Some(e)))
                        if Arc::ptr_eq(e, &parent_arc) && Arc::strong_count(&parent_arc) == 2
                );
                if retired {
                    map.remove(&key);
                    drop(map);
                    worklist.push(parent_arc);
                }
            }
        }
        flushed
    }

    /// Notes that a run (or wave of runs) has fully completed — a
    /// *quiescent point* where no frame holds a [`PathKey`] — and
    /// periodically flushes the interner.
    ///
    /// Long-lived sessions doing bare `run`/`run_many` never pass a serve
    /// shutdown, so without this hook every distinct recursion shape they
    /// ever executed stays interned for the life of the process
    /// (value-dependent `Cond` branching makes paths effectively
    /// per-input, so varied workloads grow the table without bound). The
    /// flush is epoch-scoped: it runs every `FLUSH_EVERY_QUIESCENT`
    /// quiescent points, or sooner once the table exceeds
    /// `FLUSH_LEN_TRIGGER` nodes, and reclaims only retired chains —
    /// paths shared with in-flight runs survive untouched.
    pub fn note_run_quiescent() {
        let n = QUIESCENT_POINTS.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= FLUSH_EVERY_QUIESCENT
            || (n >= FLUSH_MIN_QUIESCENT && Self::interner_len() > FLUSH_LEN_TRIGGER)
        {
            QUIESCENT_POINTS.store(0, Ordering::Relaxed);
            Self::flush_interner();
        }
    }

    /// Returns `true` when `self` and `other` share the same interned node
    /// (or are both the root). Because every non-root key is produced by
    /// [`PathKey::child`], this coincides with structural equality.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl PartialEq for PathKey {
    fn eq(&self, other: &Self) -> bool {
        // Interning makes pointer equality complete, but keep the
        // structural walk as a correctness backstop so `Eq` never depends
        // on every key having gone through the interner.
        if self.ptr_eq(other) {
            return true;
        }
        if self.hash_value() != other.hash_value() || self.len() != other.len() {
            return false;
        }
        let (mut a, mut b) = (&self.0, &other.0);
        loop {
            match (a, b) {
                (None, None) => return true,
                (Some(x), Some(y)) => {
                    if Arc::ptr_eq(x, y) {
                        return true;
                    }
                    if x.site != y.site {
                        return false;
                    }
                    a = &x.parent.0;
                    b = &y.parent.0;
                }
                _ => return false,
            }
        }
    }
}

impl Eq for PathKey {}

impl Hash for PathKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash_value());
    }
}

impl std::fmt::Display for PathKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "/")?;
        for s in self.sites() {
            write!(f, "{}/", s.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_empty() {
        let r = PathKey::root();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r, PathKey::root());
    }

    #[test]
    fn children_extend_and_differ() {
        let r = PathKey::root();
        let a = r.child(CallSiteId(1));
        let b = r.child(CallSiteId(2));
        assert_eq!(a.len(), 1);
        assert_ne!(a, b);
        assert_ne!(a, r);
        let aa = a.child(CallSiteId(2));
        let bb = b.child(CallSiteId(1));
        // Different orderings of the same sites must differ.
        assert_ne!(aa, bb);
    }

    #[test]
    fn reconstructed_paths_are_equal() {
        // The backward pass rebuilds paths from scratch; equality must hold
        // structurally, not just by pointer.
        let fwd = PathKey::root().child(CallSiteId(3)).child(CallSiteId(7));
        let bwd = PathKey::root().child(CallSiteId(3)).child(CallSiteId(7));
        assert_eq!(fwd, bwd);
        assert_eq!(fwd.hash_value(), bwd.hash_value());
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |p: &PathKey| {
            let mut s = DefaultHasher::new();
            p.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&fwd), h(&bwd));
    }

    #[test]
    fn interning_makes_paths_pointer_equal() {
        let a = PathKey::root().child(CallSiteId(41)).child(CallSiteId(42));
        let b = PathKey::root().child(CallSiteId(41)).child(CallSiteId(42));
        assert!(a.ptr_eq(&b), "interned twins must share the node");
        // Clones stay pointer-equal, of course.
        assert!(a.clone().ptr_eq(&b));
        // And re-creating the key finds the same node instead of adding one.
        // (Not asserted on `interner_len()`: the table is process-wide and
        // sibling tests intern and flush concurrently. A live key pins its
        // whole spine against a flush, so the pointer check cannot race.)
        let c = PathKey::root().child(CallSiteId(41)).child(CallSiteId(42));
        assert!(c.ptr_eq(&a));
    }

    #[test]
    fn sites_round_trip() {
        let p = PathKey::root()
            .child(CallSiteId(1))
            .child(CallSiteId(5))
            .child(CallSiteId(9));
        assert_eq!(p.sites(), vec![CallSiteId(1), CallSiteId(5), CallSiteId(9)]);
        assert_eq!(p.to_string(), "/1/5/9/");
    }

    #[test]
    fn deep_paths_do_not_collide() {
        // Build many distinct deep paths and check pairwise inequality via a
        // set (hash collisions would surface as set collisions + eq failure).
        use std::collections::HashSet;
        let mut set = HashSet::new();
        for i in 0..100u32 {
            let mut p = PathKey::root();
            for j in 0..20u32 {
                p = p.child(CallSiteId(i * 31 + j));
            }
            assert!(set.insert(p));
        }
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        // Many threads racing to intern the same chain must all observe
        // pointer-equal keys.
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    let mut p = PathKey::root();
                    for j in 0..64u32 {
                        p = p.child(CallSiteId(7_000_000 + j));
                    }
                    p
                })
            })
            .collect();
        let keys: Vec<PathKey> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for k in &keys[1..] {
            assert!(keys[0].ptr_eq(k));
        }
    }
}
