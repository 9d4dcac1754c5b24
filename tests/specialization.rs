//! Plan-specialization contracts: the specializer's one pass, hot-shape
//! unrolling, must be *invisible* except for speed, and planning itself
//! must rewrite nothing.
//!
//! 1. **Bit-exactness** — a session running through the specializer
//!    produces byte-identical outputs (and, for training twins, identical
//!    `GradStore` contents) to a session pinned to the general frame
//!    path, on shared weights, across all three model families in both
//!    recursive and iterative form. Property-tested over dataset seeds.
//! 2. **Fuse-signature preservation** — every node a promoted plan maps
//!    back to an original node (via [`ModulePlan::provenance`]) must have
//!    the same `analyze::fuse_class` and the same plan-level `FuseKind`.
//!    A specialized node whose fuse signature drifted from its
//!    general-plan twin would silently drop out of cross-request fusion
//!    groups (`fused_fraction` collapses with no correctness signal).
//! 3. **Fallback** — an unobserved feed signature takes the general path
//!    and completes; promotion only ever swaps in a plan for signatures
//!    the profile has seen.
//! 4. **No plan-time rewrite** — `ModulePlan::new` plans the module it is
//!    given, across the whole shipped-model zoo; only a promoted plan
//!    carries a different module.

use proptest::prelude::*;
use rdg::exec::{ModulePlan, SpecStats};
use rdg::graph::analyze::fuse_class;
use rdg::graph::GraphRef;
use rdg::prelude::*;
use std::sync::Arc;

fn tiny_dataset(batch: usize, seed: u64) -> Vec<Tensor> {
    let d = Dataset::generate(DatasetConfig {
        vocab: 100,
        n_train: batch,
        n_valid: 0,
        min_len: 3,
        max_len: 10,
        seed,
        ..DatasetConfig::default()
    });
    Dataset::feeds_for(&d.split(Split::Train).to_vec())
}

/// A session pinned to the general frame path (no specializer).
fn general_session(exec: &Arc<Executor>, m: Module) -> Session {
    let plan = ModulePlan::general(Arc::new(m)).unwrap();
    Session::from_plan(Arc::clone(exec), plan, None).unwrap()
}

/// The shipped-model zoo: all three families × {recursive, iterative} ×
/// {forward, training}, the TD models, and the quickstart fib — the same
/// 17 modules the lint gate covers.
fn zoo() -> Vec<(String, Module)> {
    let mut out = Vec::new();
    for (kind, kname) in [
        (ModelKind::TreeRnn, "tree-rnn"),
        (ModelKind::Rntn, "rntn"),
        (ModelKind::TreeLstm, "tree-lstm"),
    ] {
        let cfg = ModelConfig::tiny(kind, 4);
        for (style, m) in [
            ("rec", build_recursive(&cfg).unwrap()),
            ("itr", build_iterative(&cfg).unwrap()),
        ] {
            let t = build_training_module(&m, m.main.outputs[0]).unwrap();
            out.push((format!("{kname}-{style}"), m));
            out.push((format!("{kname}-{style}-train"), t));
        }
    }
    let td = TdConfig::tiny(4);
    for (name, m) in [
        ("td-rec", build_td_recursive(&td).unwrap()),
        ("td-itr", build_td_iterative(&td).unwrap()),
    ] {
        let t = build_training_module(&m, m.main.outputs[1]).unwrap();
        out.push((name.to_string(), m));
        out.push((format!("{name}-train"), t));
    }
    out.push(("quickstart-fib".to_string(), fib_module()));
    out
}

/// The quickstart recursive fib (value-dependent `Cond`, doubly recursive).
fn fib_module() -> Module {
    let mut mb = ModuleBuilder::new();
    let fib = mb.declare_subgraph("fib", &[DType::I32], &[DType::I32]);
    mb.define_subgraph(&fib, |b| {
        let n = b.input(0)?;
        let one = b.const_i32(1);
        let base = b.ile(n, one)?;
        let out = b.cond1(
            base,
            DType::I32,
            |b| b.identity(n),
            |b| {
                let a = b.isub(n, one)?;
                let two = b.const_i32(2);
                let c = b.isub(n, two)?;
                let fa = b.invoke(&fib, &[a])?[0];
                let fc = b.invoke(&fib, &[c])?[0];
                b.iadd(fa, fc)
            },
        )?;
        Ok(vec![out])
    })
    .expect("fib body");
    let n = mb.main_input(DType::I32);
    let out = mb.invoke(&fib, &[n]).expect("fib invoke")[0];
    mb.set_outputs(&[out]).expect("outputs");
    mb.finish().expect("fib module")
}

/// A main graph chaining `n` invokes of a straight-line "dense" SubGraph
/// (MatMul + AddBias + Tanh), with fusable ops inside the body so the
/// unroller, which expands every call inline, must carry their fuse
/// signatures.
fn dense_chain_module(n: usize) -> Module {
    let mut mb = ModuleBuilder::new();
    let w = mb
        .param_wire("w", Tensor::from_f32([4, 4], vec![0.1; 16]).unwrap())
        .unwrap();
    let bias = mb
        .param_wire("b", Tensor::from_f32([1, 4], vec![0.01; 4]).unwrap())
        .unwrap();
    let h = mb
        .subgraph("dense", &[DType::F32], &[DType::F32], |b| {
            let x = b.input(0)?;
            let y = b.matmul(x, w)?;
            let y = b.add_bias(y, bias)?;
            Ok(vec![b.tanh(y)?])
        })
        .unwrap();
    let mut x = mb.constant(Tensor::from_f32([1, 4], vec![1.0; 4]).unwrap());
    for _ in 0..n {
        x = mb.invoke(&h, &[x]).unwrap()[0];
    }
    mb.set_outputs(&[x]).unwrap();
    mb.finish().unwrap()
}

/// Asserts every provenance-mapped node of `spec`'s unrolled main graph has
/// the same analyzer fuse class and the same plan-level `FuseKind` as the
/// original node it came from. Returns the number of mapped nodes.
fn assert_fuse_signatures_preserved(
    name: &str,
    original: &Module,
    general: &ModulePlan,
    spec: &ModulePlan,
) -> usize {
    let Some(prov) = spec.provenance() else {
        return 0;
    };
    let mut mapped = 0usize;
    for (idx, entry) in prov.iter().enumerate() {
        let Some((ogref, onode)) = entry else {
            continue;
        };
        mapped += 1;
        let new_op = &spec.module.main.nodes[idx].op;
        let old_op = &original.graph(*ogref).nodes[onode.0 as usize].op;
        assert_eq!(
            fuse_class(new_op),
            fuse_class(old_op),
            "{name}: fuse_class drifted at main node {idx} (from {} node {})",
            original.graph_name(*ogref),
            onode.0,
        );
        let new_fuse = spec.plan(GraphRef::Main).fuse[idx];
        let old_fuse = general.plan(*ogref).fuse[onode.0 as usize];
        assert_eq!(
            new_fuse, old_fuse,
            "{name}: plan-level FuseKind drifted at main node {idx} — \
             the specialized twin would drop out of fusion groups",
        );
    }
    mapped
}

/// Plans `m` with the specializer and resolves `feeds` until the signature
/// promotes (`HOT_AFTER` = 2 sightings); returns the promoted plan.
fn promote(name: &str, m: Module, feeds: &[Tensor]) -> Arc<ModulePlan> {
    let plan = ModulePlan::new(Arc::new(m)).unwrap();
    plan.resolve_for_feeds(feeds);
    let promoted = plan.resolve_for_feeds(feeds);
    assert!(
        !Arc::ptr_eq(&promoted, &plan),
        "{name}: a recurring signature promotes: {:?}",
        plan.spec_stats()
    );
    promoted
}

/// Satellite regression: `fuse_class` agreement between specialized and
/// general plans. The unroller expands every call inline. Each tree
/// family's recursive and iterative inference module resolves a recurring
/// tree, and whatever plan that yields must agree with the general one
/// (today these trees are refused and resolve to the general plan, which
/// maps nothing). The dense chain does promote, and must map its ops back
/// through provenance call by call.
#[test]
fn inlining_preserves_fuse_signatures_across_the_zoo() {
    let feeds = tiny_dataset(1, 11);
    for kind in [ModelKind::TreeRnn, ModelKind::Rntn, ModelKind::TreeLstm] {
        let cfg = ModelConfig::tiny(kind, 1);
        for (style, m) in [
            ("rec", build_recursive(&cfg).unwrap()),
            ("itr", build_iterative(&cfg).unwrap()),
        ] {
            let name = format!("{kind:?}-{style}");
            let general = ModulePlan::general(Arc::new(m.clone())).unwrap();
            let plan = ModulePlan::new(Arc::new(m.clone())).unwrap();
            plan.resolve_for_feeds(&feeds);
            let spec = plan.resolve_for_feeds(&feeds);
            assert_fuse_signatures_preserved(&name, &m, &general, &spec);
        }
    }
    // The dense chain must map its MatMul/AddBias/Tanh nodes, 3 per call.
    let m = dense_chain_module(8);
    let general = ModulePlan::general(Arc::new(m.clone())).unwrap();
    let spec = promote("dense-chain", m.clone(), &[]);
    let mapped = assert_fuse_signatures_preserved("dense-chain", &m, &general, &spec);
    assert!(
        mapped >= 8 * 3,
        "unrolled calls should map their ops through provenance, got {mapped}"
    );
}

/// Planning never rewrites a module: `ModulePlan::new` keeps the very `Arc`
/// it was given, for every zoo module and for the dense chain (whose
/// straight-line calls are the easiest to splice). Only a promoted plan
/// carries a different module, and only it carries provenance.
#[test]
fn plans_keep_the_module_they_were_given() {
    let mut modules = zoo();
    modules.push(("dense-chain".to_string(), dense_chain_module(8)));
    for (name, m) in modules {
        let m = Arc::new(m);
        let plan = ModulePlan::new(Arc::clone(&m)).unwrap();
        assert!(
            Arc::ptr_eq(&plan.module, &m),
            "{name}: module was rewritten"
        );
        assert!(plan.provenance().is_none(), "{name}");
    }
    let m = Arc::new(fib_module());
    let plan = ModulePlan::new(Arc::clone(&m)).unwrap();
    let feeds = [Tensor::scalar_i32(6)];
    plan.resolve_for_feeds(&feeds);
    let promoted = plan.resolve_for_feeds(&feeds);
    assert!(Arc::ptr_eq(&plan.module, &m));
    assert!(!Arc::ptr_eq(&promoted.module, &m));
    assert!(promoted.provenance().is_some());
}

/// Hot-shape promotion preserves fuse signatures too: promote fib, then
/// walk the promoted plan's provenance against the original module.
#[test]
fn promoted_plans_preserve_fuse_signatures() {
    let m = fib_module();
    let original = m.clone();
    let general = ModulePlan::general(Arc::new(m.clone())).unwrap();
    let exec = Executor::with_threads(2);
    let sess = Session::new(Arc::clone(&exec), m).unwrap();
    let feeds = vec![Tensor::scalar_i32(10)];
    for _ in 0..3 {
        sess.run(feeds.clone()).unwrap();
    }
    let stats = sess.plan().spec_stats();
    assert!(
        stats.promotions >= 1,
        "fib(10) should promote after {} runs: {stats:?}",
        3
    );
    let promoted = sess.plan().resolve_for_feeds(&feeds);
    assert!(
        !Arc::ptr_eq(&promoted, sess.plan()),
        "promotion swaps in a distinct plan"
    );
    assert_fuse_signatures_preserved("fib-promoted", &original, &general, &promoted);
}

/// Tentpole correctness: fib through the specializer (which constant-folds
/// the whole recursion at plan time) equals fib through the general frame
/// machinery, and an *unobserved* signature still completes via fallback.
#[test]
fn fib_specialized_matches_general_and_falls_back_on_new_shapes() {
    let exec = Executor::with_threads(2);
    let gen = general_session(&exec, fib_module());
    let spec = Session::new(Arc::clone(&exec), fib_module()).unwrap();
    for n in [1i32, 2, 7, 12] {
        let feeds = vec![Tensor::scalar_i32(n)];
        let want = gen.run(feeds.clone()).unwrap()[0].i32s().unwrap()[0];
        for run in 0..4 {
            let got = spec.run(feeds.clone()).unwrap()[0].i32s().unwrap()[0];
            assert_eq!(got, want, "fib({n}) diverged on run {run}");
        }
    }
    let stats = spec.plan().spec_stats();
    assert!(
        stats.promotions >= 1 && stats.hits >= 1,
        "repeated fib signatures should promote and hit: {stats:?}"
    );
    assert!(
        stats.folded_ops > 0,
        "fib unrolling should constant-fold the recursion: {stats:?}"
    );
    // Fallback: a signature never seen before resolves to the general
    // plan (same Arc) and completes correctly.
    let fresh = vec![Tensor::scalar_i32(13)];
    let plan = spec.plan().resolve_for_feeds(&fresh);
    assert!(
        Arc::ptr_eq(&plan, spec.plan()),
        "unobserved shape must take the general plan"
    );
    let want = gen.run(fresh.clone()).unwrap()[0].i32s().unwrap()[0];
    assert_eq!(spec.run(fresh).unwrap()[0].i32s().unwrap()[0], want);
}

/// A depth-driven binary recursion whose leaves branch on *data*:
/// `tree(d, x) = d > 0 ? tree(d-1, 0.4x) + tree(d-1, 0.6x)
///                     : (x > 0.1 ? tanh x : -x)`.
/// The depth feed is value-keyed, so every level unrolls; the leaf `Cond`
/// reads an f32 and stays behind as a residual frame.
fn data_leaf_tree_module() -> Module {
    let mut mb = ModuleBuilder::new();
    let h = mb.declare_subgraph("tree", &[DType::I32, DType::F32], &[DType::F32]);
    mb.define_subgraph(&h, |b| {
        let d = b.input(0)?;
        let x = b.input(1)?;
        let zero = b.const_i32(0);
        let inner = b.igt(d, zero)?;
        let out = b.cond1(
            inner,
            DType::F32,
            |b| {
                let one = b.const_i32(1);
                let d2 = b.isub(d, one)?;
                let xl = b.scale(x, 0.4)?;
                let xr = b.scale(x, 0.6)?;
                let l = b.invoke(&h, &[d2, xl])?[0];
                let r = b.invoke(&h, &[d2, xr])?[0];
                b.add(l, r)
            },
            |b| {
                let big = b.fgt_const(x, 0.1)?;
                b.cond1(big, DType::F32, |b| b.tanh(x), |b| b.neg(x))
            },
        )?;
        Ok(vec![out])
    })
    .expect("tree body");
    let d = mb.main_input(DType::I32);
    let x = mb.main_input(DType::F32);
    let out = mb.invoke(&h, &[d, x]).expect("tree invoke")[0];
    mb.set_outputs(&[out]).expect("outputs");
    mb.finish().expect("tree module")
}

/// Regression: a "promotion" that saves nothing must not take one of the
/// promoted-plan slots. A tree of more than 32 leaves is keyed by shape
/// only, so unrolling expands main's one call and leaves the whole recursion
/// behind one residual frame: the general path plus a frame, reported as
/// hits. It is now refused (blacklisted, a miss); a partial unroll that
/// removes more frames than it leaves still promotes.
#[test]
fn a_promotion_must_remove_more_frames_than_it_leaves() {
    let exec = Executor::with_threads(2);
    let cfg = ModelConfig::tiny(ModelKind::TreeRnn, 1);
    let data = Dataset::generate_fixed_length(
        DatasetConfig {
            vocab: cfg.vocab,
            n_train: 1,
            n_valid: 0,
            seed: 5,
            ..DatasetConfig::default()
        },
        40,
    );
    let feeds = Dataset::feeds_for(data.split(Split::Train));
    let sess = Session::new(Arc::clone(&exec), build_recursive(&cfg).unwrap()).unwrap();
    for _ in 0..4 {
        sess.run(feeds.clone()).unwrap();
    }
    let s = sess.plan().spec_stats();
    assert_eq!(
        (s.promotions, s.promoted_plans, s.residual_frames, s.hits),
        (0, 0, 0, 0),
        "a 40-leaf tree has nothing to unroll: {s:?}"
    );
    assert_eq!(s.misses, 4, "{s:?}");

    // Useful residuals: depth 3 expands 15 calls and resolves 15 depth
    // tests; the 8 data-dependent leaf branches stay as frames.
    let feeds = vec![Tensor::scalar_i32(3), Tensor::scalar_f32(0.8)];
    let gen = general_session(&exec, data_leaf_tree_module());
    let spec = Session::new(Arc::clone(&exec), data_leaf_tree_module()).unwrap();
    let want = gen.run(feeds.clone()).unwrap();
    for _ in 0..4 {
        let got = spec.run(feeds.clone()).unwrap();
        assert_eq!(got[0].f32s().unwrap(), want[0].f32s().unwrap());
    }
    let s = spec.plan().spec_stats();
    assert_eq!(
        (s.promotions, s.unrolled_frames, s.residual_frames),
        (1, 30, 8),
        "{s:?}"
    );
    assert!(s.hits >= 2, "{s:?}");
}

/// Bitwise output equality between a pinned-general and a specializing
/// session on shared weights, for one (module, feeds) pair. The spec
/// session runs `rounds` times so later runs cross the promotion
/// threshold and execute the promoted plan if one exists. Returns the spec
/// session's specializer counters.
fn assert_outputs_bit_identical(
    name: &str,
    m: Module,
    feeds: Vec<Tensor>,
    rounds: usize,
) -> SpecStats {
    let exec = Executor::with_threads(2);
    let gen = general_session(&exec, m.clone());
    let spec = Session::with_params(Arc::clone(&exec), m, Arc::clone(gen.params())).unwrap();
    let want = gen.run(feeds.clone()).unwrap();
    for round in 0..rounds {
        let got = spec.run(feeds.clone()).unwrap();
        assert_eq!(got.len(), want.len(), "{name}: output arity");
        for (i, (a, b)) in want.iter().zip(got.iter()).enumerate() {
            assert_eq!(a.dtype(), b.dtype(), "{name}: output {i} dtype");
            assert_eq!(
                a.shape().dims(),
                b.shape().dims(),
                "{name}: output {i} shape (round {round})"
            );
            match a.dtype() {
                DType::F32 => assert_eq!(
                    a.f32s().unwrap(),
                    b.f32s().unwrap(),
                    "{name}: output {i} not bit-identical (round {round})"
                ),
                DType::I32 => assert_eq!(
                    a.i32s().unwrap(),
                    b.i32s().unwrap(),
                    "{name}: output {i} not bit-identical (round {round})"
                ),
            }
        }
    }
    spec.plan().spec_stats()
}

/// Identical `GradStore` contents between a pinned-general and a
/// specializing session on shared weights. Single-threaded executor so
/// accumulation order is deterministic and the comparison can be bitwise.
fn assert_grads_bit_identical(name: &str, m: &Module, feeds: Vec<Tensor>) {
    let t = build_training_module(m, m.main.outputs[0]).unwrap();
    let exec = Executor::with_threads(1);
    let gen = general_session(&exec, t.clone());
    let spec = Session::with_params(Arc::clone(&exec), t, Arc::clone(gen.params())).unwrap();
    gen.run_training(feeds.clone()).unwrap();
    spec.run_training(feeds).unwrap();
    for (i, p) in gen.module().params.iter().enumerate() {
        let pid = ParamId(i as u32);
        match (gen.grads().get(pid), spec.grads().get(pid)) {
            (None, None) => {}
            (Some(a), Some(b)) => assert_eq!(
                a.f32s().unwrap(),
                b.f32s().unwrap(),
                "{name}: gradient of '{}' not bit-identical",
                p.name
            ),
            _ => panic!("{name}: gradient of '{}' present on one side only", p.name),
        }
    }
}

/// All three model families, indexed by a property-test seed so the 48
/// generated cases spread evenly across kinds.
fn kind_for(seed: u64) -> ModelKind {
    [ModelKind::TreeRnn, ModelKind::Rntn, ModelKind::TreeLstm][(seed % 3) as usize]
}

proptest! {
    /// Satellite property: specialized/unrolled plans are bit-identical
    /// to the general frame path (both model styles, shared weights) over
    /// random datasets.
    #[test]
    fn specialized_outputs_bit_identical((seed, batch) in (0u64..10_000, 1usize..4)) {
        let kind = kind_for(seed);
        let cfg = ModelConfig::tiny(kind, batch);
        let feeds = tiny_dataset(batch, seed);
        assert_outputs_bit_identical(
            &format!("{kind:?}-rec"),
            build_recursive(&cfg).unwrap(),
            feeds.clone(),
            4,
        );
        assert_outputs_bit_identical(
            &format!("{kind:?}-itr"),
            build_iterative(&cfg).unwrap(),
            feeds,
            4,
        );
    }

    /// Satellite property: training twins accumulate identical gradients
    /// through the specializer.
    #[test]
    fn specialized_grads_bit_identical(seed in 0u64..10_000) {
        let kind = kind_for(seed);
        let cfg = ModelConfig::tiny(kind, 2);
        let feeds = tiny_dataset(2, seed);
        assert_grads_bit_identical(
            &format!("{kind:?}-rec"),
            &build_recursive(&cfg).unwrap(),
            feeds.clone(),
        );
        assert_grads_bit_identical(
            &format!("{kind:?}-itr"),
            &build_iterative(&cfg).unwrap(),
            feeds,
        );
    }
}

/// The dense chain through a promoted plan: every call expanded into main,
/// no frame left, and the outputs bit-identical to the general path's.
#[test]
fn inlined_dense_chain_runs_bit_identical() {
    let s = assert_outputs_bit_identical("dense-chain-100", dense_chain_module(100), vec![], 3);
    assert_eq!(
        (s.promotions, s.unrolled_frames, s.residual_frames, s.hits),
        (1, 100, 0, 2),
        "{s:?}"
    );
}

/// A promoted plan's provenance covers its whole unrolled main graph —
/// downstream consumers (the fuse regression above) index it by node.
#[test]
fn provenance_covers_rewritten_main() {
    let spec = promote("dense-chain-4", dense_chain_module(4), &[]);
    let prov = spec.provenance().expect("a promoted plan has provenance");
    assert_eq!(prov.len(), spec.module.main.nodes.len());
}
