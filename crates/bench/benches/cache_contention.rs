//! The backprop cache under concurrency (paper §5, Figure 6): many frames
//! inserting and looking up activations at once.

use criterion::{criterion_group, criterion_main, Criterion};
use rdg_core::exec::{CacheKey, PathKey, PathTable, ShardedMap};
use rdg_core::graph::{CallSiteId, GraphRef, NodeId, SubGraphId};
use rdg_core::tensor::Tensor;
use std::sync::Arc;

fn key(paths: &PathTable, site: u32, node: u32) -> CacheKey {
    CacheKey {
        gref: GraphRef::Sub(SubGraphId(0)),
        path: paths.child(&PathKey::root(), CallSiteId(site)),
        node: NodeId(node),
        port: 0,
    }
}

fn single_thread(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_single");
    g.sample_size(20);
    g.bench_function("insert_get_1000", |b| {
        b.iter(|| {
            let paths = PathTable::new();
            let m: ShardedMap<CacheKey, Tensor> = ShardedMap::new();
            for i in 0..1000u32 {
                m.insert(key(&paths, i, i % 50), Tensor::scalar_f32(i as f32));
            }
            let mut acc = 0.0;
            for i in 0..1000u32 {
                acc += m
                    .get(&key(&paths, i, i % 50))
                    .expect("present")
                    .as_f32_scalar()
                    .expect("scalar");
            }
            acc
        })
    });
    g.finish();
}

fn concurrent(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_concurrent");
    g.sample_size(10);
    g.bench_function("2_threads_disjoint_paths", |b| {
        b.iter(|| {
            let m: Arc<ShardedMap<CacheKey, Tensor>> = Arc::new(ShardedMap::new());
            let paths = Arc::new(PathTable::new());
            let handles: Vec<_> = (0..2u32)
                .map(|t| {
                    let (m, paths) = (Arc::clone(&m), Arc::clone(&paths));
                    std::thread::spawn(move || {
                        for i in 0..500u32 {
                            let k = key(&paths, t * 10_000 + i, i % 50);
                            m.insert(k.clone(), Tensor::scalar_f32(i as f32));
                            let _ = m.get(&k);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("join");
            }
        })
    });
    g.finish();
}

fn path_keys(c: &mut Criterion) {
    let mut g = c.benchmark_group("path_key");
    g.sample_size(20);
    // One table, as one training run has: the first derivation allocates
    // the chain (the forward pass), every later one looks it up (the
    // backward pass, and each timed iteration).
    let paths = PathTable::new();
    let derive = || (0..100u32).fold(PathKey::root(), |p, i| paths.child(&p, CallSiteId(i)));
    let (deep, deep2) = (derive(), derive());
    g.bench_function("extend_100_deep", |b| b.iter(|| derive().hash_value()));
    g.bench_function("eq_100_deep_reconstructed", |b| b.iter(|| deep == deep2));
    g.finish();
}

criterion_group!(benches, single_thread, concurrent, path_keys);
criterion_main!(benches);
