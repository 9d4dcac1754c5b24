//! The concurrent backpropagation cache (paper §5, Figure 6).
//!
//! During the forward phase of training, every frame stores the activations
//! that gradients will need, keyed by `(graph, invocation path, node, port)`.
//! Multiple instances of the same operation — recursion! — insert
//! concurrently; the backward phase performs concurrent lookups. The paper
//! uses a concurrent hash table for exactly this reason and notes that a
//! queue or stack would mis-route values under nondeterministic scheduling.
//!
//! [`ShardedMap`] is a small clean-room concurrent hash map: fixed shard
//! array, each shard a `parking_lot::Mutex<HashMap>`. Shard selection uses
//! the key's hash, so disjoint paths rarely contend.
//!
//! # Owner and lifetime
//!
//! A [`BackpropCache`] belongs to one training run: `Session` builds a fresh
//! one per submission, the run's context holds it, and it is dropped with
//! the run's last frame (a caller that passes its own `Arc` to
//! `Executor::submit` decides otherwise). Everything the forward pass leaves
//! for the backward pass lives here and nowhere else — the cached values,
//! their shapes, and the [`PathTable`] whose nodes name the frames that
//! produced them. A backward frame re-deriving its forward twin's path
//! through [`BackpropCache::child_path`] gets the *same* node back, so the
//! bucket comparison inside a probe is a pointer compare and the key's hash
//! a precomputed load, however deep recursion makes the path. An inference
//! run has no cache, so it has no table and no paths (see [`crate::path`]).

use crate::path::{PathKey, PathTable};
use parking_lot::Mutex;
use rdg_graph::{CallSiteId, GraphRef, NodeId};
use rdg_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};

const N_SHARDS: usize = 32;

/// A sharded concurrent hash map.
pub struct ShardedMap<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
    hasher: RandomState,
    inserts: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V: Clone> ShardedMap<K, V> {
    /// Creates an empty map with the default shard count.
    pub fn new() -> Self {
        ShardedMap {
            shards: (0..N_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hasher: RandomState::new(),
            inserts: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, k: &K) -> usize {
        let mut h = self.hasher.build_hasher();
        k.hash(&mut h);
        (h.finish() as usize) % N_SHARDS
    }

    /// Inserts a value (overwriting silently; forward re-execution of the
    /// same (path, node) writes identical data).
    pub fn insert(&self, k: K, v: V) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let s = self.shard_of(&k);
        self.shards[s].lock().insert(k, v);
    }

    /// Clones the value for `k`, if present.
    pub fn get(&self, k: &K) -> Option<V> {
        let s = self.shard_of(k);
        let got = self.shards[s].lock().get(k).cloned();
        match &got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Clones the value for `k`, inserting `make()` first when it is absent.
    /// Lookup and insert share one shard lock, so racing callers all get
    /// the one value.
    pub fn get_or_insert_with(&self, k: K, make: impl FnOnce() -> V) -> V {
        let s = self.shard_of(&k);
        self.shards[s].lock().entry(k).or_insert_with(make).clone()
    }

    /// Removes all entries (between training steps).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().clear();
        }
    }

    /// Total number of entries (locks every shard; diagnostics only).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Returns `true` when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters: `(inserts, hits, misses)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.inserts.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Key of one cached forward value.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Which graph the node belongs to.
    pub gref: GraphRef,
    /// The invocation path of the frame that produced the value.
    pub path: PathKey,
    /// The producing node.
    pub node: NodeId,
    /// The producing port.
    pub port: u16,
}

/// The backprop cache of one training run: full values, a lighter
/// shape-only table, and the path nodes both are keyed by.
///
/// Shape entries serve gradient kernels that only need a *shape witness*
/// (`FwdZeros`), so large intermediates — e.g. the `[N, d]` state matrix the
/// iterative baseline threads through its loop — are not retained just to
/// recover their dimensions.
#[derive(Default)]
pub struct BackpropCache {
    /// Full tensor values.
    pub(crate) values: ShardedMap<CacheKey, Tensor>,
    /// Shape-only entries.
    pub(crate) shapes: ShardedMap<CacheKey, Shape>,
    /// One node per frame the run spawned below the root.
    paths: PathTable,
}

impl BackpropCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all entries (called between training steps).
    pub fn clear(&self) {
        self.values.clear();
        self.shapes.clear();
        self.paths.clear();
    }

    /// The path of a frame called at `site` from a frame at `parent`.
    pub fn child_path(&self, parent: &PathKey, site: CallSiteId) -> PathKey {
        self.paths.child(parent, site)
    }

    /// Number of full values the cache holds.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Number of path nodes the cache holds: the distinct call paths of
    /// the runs that used it.
    pub fn path_nodes(&self) -> usize {
        self.paths.len()
    }
}

/// The path a call site gives its child frame: a node of the run's cache
/// when it trains, the root when it does not — nothing reads the path of an
/// inference frame, so inference builds none.
pub(crate) fn call_path(
    cache: Option<&BackpropCache>,
    parent: &PathKey,
    site: CallSiteId,
) -> PathKey {
    cache.map_or_else(PathKey::root, |c| c.child_path(parent, site))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdg_graph::SubGraphId;
    use std::sync::Arc;

    fn key(c: &BackpropCache, site: u32, node: u32) -> CacheKey {
        CacheKey {
            gref: GraphRef::Sub(SubGraphId(0)),
            path: c.child_path(&PathKey::root(), CallSiteId(site)),
            node: NodeId(node),
            port: 0,
        }
    }

    #[test]
    fn insert_get_roundtrip() {
        let c = BackpropCache::new();
        c.values.insert(key(&c, 1, 2), Tensor::scalar_f32(3.5));
        let got = c.values.get(&key(&c, 1, 2)).unwrap();
        assert_eq!(got.as_f32_scalar().unwrap(), 3.5);
        assert!(c.values.get(&key(&c, 1, 3)).is_none());
        assert!(c.values.get(&key(&c, 2, 2)).is_none());
    }

    #[test]
    fn distinct_paths_do_not_alias() {
        let c = BackpropCache::new();
        let path = |a, b| {
            let first = c.child_path(&PathKey::root(), CallSiteId(a));
            c.child_path(&first, CallSiteId(b))
        };
        let k1 = CacheKey {
            gref: GraphRef::Main,
            path: path(1, 2),
            node: NodeId(0),
            port: 0,
        };
        let k2 = CacheKey {
            gref: GraphRef::Main,
            path: path(2, 1),
            node: NodeId(0),
            port: 0,
        };
        c.values.insert(k1.clone(), Tensor::scalar_f32(1.0));
        c.values.insert(k2.clone(), Tensor::scalar_f32(2.0));
        assert_eq!(c.values.get(&k1).unwrap().as_f32_scalar().unwrap(), 1.0);
        assert_eq!(c.values.get(&k2).unwrap().as_f32_scalar().unwrap(), 2.0);
    }

    #[test]
    fn clear_empties_every_table() {
        let c = BackpropCache::new();
        c.values.insert(key(&c, 1, 1), Tensor::scalar_f32(0.0));
        c.shapes.insert(key(&c, 1, 1), Shape::matrix(2, 2));
        assert_eq!(c.values.len() + c.shapes.len() + c.path_nodes(), 3);
        c.clear();
        assert!(c.values.is_empty());
        assert!(c.shapes.is_empty());
        assert_eq!(c.path_nodes(), 0);
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        // The paper's Figure 6 scenario: many frames writing and reading
        // concurrently. Every thread must read back exactly what it wrote.
        let c = Arc::new(BackpropCache::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    let k = key(&c, t * 1000 + i, i);
                    c.values
                        .insert(k.clone(), Tensor::scalar_f32((t * 1000 + i) as f32));
                    let v = c.values.get(&k).expect("own write visible");
                    assert_eq!(v.as_f32_scalar().unwrap(), (t * 1000 + i) as f32);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.values.len(), 8 * 200);
        let (ins, hits, misses) = c.values.counters();
        assert_eq!(ins, 1600);
        assert_eq!(hits, 1600);
        assert_eq!(misses, 0);
    }

    #[test]
    fn get_or_insert_with_keeps_the_first_value() {
        let c = ShardedMap::<u32, u32>::new();
        assert_eq!(c.get_or_insert_with(1, || 10), 10);
        assert_eq!(c.get_or_insert_with(1, || unreachable!("present")), 10);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn overwrite_is_silent() {
        let c = ShardedMap::<u32, u32>::new();
        c.insert(1, 10);
        c.insert(1, 20);
        assert_eq!(c.get(&1), Some(20));
        assert_eq!(c.len(), 1);
    }
}
