//! Invocation paths: chains of call sites, hash-consed per training run.
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
//! # Owner and lifetime
//!
//! Path nodes live in a [`PathTable`], keyed by `(parent node, call site)`,
//! and the only table the runtime ever builds is the one inside a training
//! run's [`crate::BackpropCache`]. [`PathTable::child`] is the one way to
//! extend a path: extending the same parent with the same site twice
//! returns the *same* node, so within one table
//!
//! * structurally equal paths are **pointer-equal** — [`PathKey`] equality
//!   *is* a pointer compare, and a backprop-cache probe never walks a chain;
//! * the forward and the backward pass of one run — the only two readers a
//!   path has — share one node per frame: the forward frame allocates it,
//!   the backward frame looks it up.
//!
//! The table pins every node it produced and is dropped with its cache,
//! which is dropped with its run: nothing outlives the run that needed it,
//! so there is nothing to flush and no process-wide state. Two runs never
//! share a node (their caches are private), and no key crosses a run
//! boundary. Teardown is iterative (`PathNode`'s `Drop`), so the chain of
//! a 20 000-deep tail recursion is freed without recursing.
//!
//! **Inference has no paths.** A path is read in exactly two places — the
//! cache keys written as forward nodes finish and the cache keys probed by
//! `FwdValue`/`FwdZeros` — and both need a cache. A run without one
//! (`Session::run`, `run_many`, `submit_run`, `serve`) hands every frame
//! [`PathKey::root`]: it builds no table, allocates no node and takes no
//! lock on the invoke path.
//!
//! # Example
//!
//! ```
//! use rdg_exec::{PathKey, PathTable};
//! use rdg_graph::CallSiteId;
//!
//! let table = PathTable::new();
//! let root = PathKey::root();
//! let fwd = table.child(&table.child(&root, CallSiteId(3)), CallSiteId(7));
//! // The backward pass rebuilds the path from scratch…
//! let bwd = table.child(&table.child(&root, CallSiteId(3)), CallSiteId(7));
//! // …and gets the identical node back.
//! assert!(fwd.ptr_eq(&bwd));
//! assert_eq!(fwd.sites(), vec![CallSiteId(3), CallSiteId(7)]);
//! assert_eq!(table.len(), 2);
//! ```

use crate::cache::ShardedMap;
use rdg_graph::CallSiteId;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

#[derive(Debug)]
struct PathNode {
    parent: PathKey,
    site: CallSiteId,
    hash: u64,
    len: u32,
}

impl Drop for PathNode {
    /// Frees an exclusively-owned ancestor chain iteratively. A table (or
    /// the last key of a path that outlived its table) drops the leaf of a
    /// chain whose every other node is held only by its child; the default
    /// drop glue would recurse once per node and overflow the stack at the
    /// depths tail recursion reaches (20 000+).
    fn drop(&mut self) {
        let mut next = self.parent.0.take();
        while let Some(node) = next {
            // Steal the grandparent first, so the node dropped at the end
            // of this step has no parent left to recurse into.
            next = Arc::into_inner(node).and_then(|mut n| n.parent.0.take());
        }
    }
}

/// An invocation path: the chain of call sites from the root frame.
///
/// Cheap to clone (one `Arc` bump); extended through a [`PathTable`], in
/// which structurally equal paths are pointer-equal (see the module docs),
/// so equality is a pointer compare and hashing reads a precomputed value.
/// Keys of different tables are never equal, except the root.
#[derive(Clone, Debug, Default)]
pub struct PathKey(Option<Arc<PathNode>>);

/// Identity for the root path's hash (FNV-1a offset basis).
const ROOT_HASH: u64 = 0xcbf29ce484222325;

/// The path nodes of one owner — in the runtime, of one training run's
/// [`crate::BackpropCache`] — keyed by the parent node's address (0 for the
/// root) and the call site. Every node stays pinned until the table drops,
/// so an address is never reused while it is a key.
#[derive(Default)]
pub struct PathTable(ShardedMap<(usize, u32), PathKey>);

impl PathTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extends `parent` (the root, or a path of this table) with one call
    /// site: the same node every time, allocated the first time.
    pub fn child(&self, parent: &PathKey, site: CallSiteId) -> PathKey {
        let addr = parent.0.as_ref().map_or(0, |a| Arc::as_ptr(a) as usize);
        self.0.get_or_insert_with((addr, site.0), || {
            // Mixing function: a 64-bit FNV-style combine keeps chains
            // cheap and collision-resistant enough for a cache (equality
            // still verifies).
            let hash = parent
                .hash_value()
                .wrapping_mul(0x100000001b3)
                .wrapping_add(
                    0x9e3779b97f4a7c15 ^ (site.0 as u64).wrapping_mul(0xff51afd7ed558ccd),
                );
            PathKey(Some(Arc::new(PathNode {
                parent: parent.clone(),
                site,
                hash,
                len: parent.len() + 1,
            })))
        })
    }

    /// Number of path nodes in the table (diagnostics; locks every shard).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` when no path was extended through this table yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Drops every node no live key references.
    pub fn clear(&self) {
        self.0.clear();
    }
}

impl PathKey {
    /// The root path (the main graph's frame, and every inference frame).
    pub fn root() -> Self {
        PathKey(None)
    }

    /// Number of call sites in the path (0 for the root).
    pub fn len(&self) -> u32 {
        self.0.as_ref().map_or(0, |n| n.len)
    }

    /// Returns `true` for the root path.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// The precomputed chain hash: a function of the site sequence alone.
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

    /// Returns `true` when `self` and `other` are the same node (or both
    /// the root) — for two keys of one table, exactly when their site
    /// sequences are equal.
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
        self.ptr_eq(other)
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

    fn build(table: &PathTable, sites: impl IntoIterator<Item = u32>) -> PathKey {
        sites
            .into_iter()
            .fold(PathKey::root(), |p, s| table.child(&p, CallSiteId(s)))
    }

    #[test]
    fn root_is_empty() {
        let r = PathKey::root();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r, PathKey::root());
    }

    #[test]
    fn children_extend_and_differ() {
        let t = PathTable::new();
        let (a, b) = (build(&t, [1]), build(&t, [2]));
        assert_eq!(a.len(), 1);
        assert_ne!(a, b);
        assert_ne!(a, PathKey::root());
        // Different orderings of the same sites must differ.
        assert_ne!(build(&t, [1, 2]), build(&t, [2, 1]));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn rebuilding_a_path_finds_the_same_node() {
        // The backward pass rebuilds paths from scratch: same node, same
        // hash through both views, and nothing added to the table.
        let t = PathTable::new();
        let fwd = build(&t, [3, 7]);
        let bwd = build(&t, [3, 7]);
        assert!(fwd.ptr_eq(&bwd));
        assert_eq!(fwd, bwd);
        assert_eq!(fwd.hash_value(), bwd.hash_value());
        assert_eq!(t.len(), 2);
        use std::collections::hash_map::DefaultHasher;
        let h = |p: &PathKey| {
            let mut s = DefaultHasher::new();
            p.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&fwd), h(&bwd));
    }

    #[test]
    fn tables_share_hashes_but_never_nodes() {
        let (t1, t2) = (PathTable::new(), PathTable::new());
        let (a, b) = (build(&t1, [3, 7]), build(&t2, [3, 7]));
        assert_eq!(a.hash_value(), b.hash_value());
        assert_eq!(a.sites(), b.sites());
        assert!(!a.ptr_eq(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn sites_round_trip() {
        let p = build(&PathTable::new(), [1, 5, 9]);
        assert_eq!(p.sites(), vec![CallSiteId(1), CallSiteId(5), CallSiteId(9)]);
        assert_eq!(p.to_string(), "/1/5/9/");
    }

    #[test]
    fn deep_paths_do_not_collide() {
        // Build many distinct deep paths and check pairwise inequality via a
        // set (hash collisions would surface as set collisions + eq failure).
        use std::collections::HashSet;
        let t = PathTable::new();
        let mut set = HashSet::new();
        for i in 0..100u32 {
            assert!(set.insert(build(&t, (0..20).map(|j| i * 31 + j))));
        }
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn concurrent_extension_yields_one_node_per_site() {
        // Eight threads racing to extend one chain through one table must
        // all end on the same node, and the table holds the chain once.
        let t = PathTable::new();
        let barrier = std::sync::Barrier::new(8);
        let keys: Vec<PathKey> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        build(&t, 0..64)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for k in &keys[1..] {
            assert!(keys[0].ptr_eq(k));
        }
        assert_eq!(t.len(), 64);
    }

    #[test]
    fn nodes_die_with_their_cache() {
        let cache = crate::BackpropCache::new();
        let mid = cache.child_path(&PathKey::root(), CallSiteId(1));
        let leaf = cache.child_path(&mid, CallSiteId(2));
        let weak = Arc::downgrade(leaf.0.as_ref().unwrap());
        drop((mid, leaf));
        assert!(weak.upgrade().is_some(), "the cache's table pins the node");
        assert_eq!(cache.path_nodes(), 2);
        drop(cache);
        assert!(weak.upgrade().is_none(), "nothing outlives the cache");
    }
}
