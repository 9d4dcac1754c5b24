//! Precompiled scheduling metadata: one [`ExecutionPlan`] per graph.
//!
//! A [`ModulePlan`] is computed **once** per module and shared by every
//! frame that ever activates one of its graphs. This is the "precompile the
//! per-invocation bookkeeping" lesson of recursive dataflow systems: a
//! recursive model invokes the same SubGraph thousands of times per step,
//! so anything derivable from the graph alone — topological order,
//! in-degree counts, consumer lists, port fetch counts, spawn-time
//! resolvable nodes — must be derived once here, never per frame.
//!
//! Concretely, an [`ExecutionPlan`] precomputes:
//!
//! * `consumers` / `pending` / `fetch_counts` — the dependency-counting
//!   wiring the executor uses to decide readiness and when an output's last
//!   reader may *move* the tensor out (consumer refcounting).
//! * `topo` — a topological order of the graph (diagnostics, deterministic
//!   iteration, and the order in which the prelude publishes).
//! * `prelude` — every zero-input node that needs no kernel: `Input` (the
//!   frame's argument), `Const` (the planned tensor), `Param` (a read of
//!   the run's store) and `FwdValue`/`FwdZeros` (a backprop-cache read keyed
//!   by the frame's path). A frame spawns inside its run and both stores are
//!   written only between runs, so all of them are resolved while the frame
//!   spawns: a frame is born with its sources in place and dispatches real
//!   operations only.
//! * `pending_at_spawn` / `ready_at_spawn` / `live_at_spawn` — the state the
//!   prelude leaves behind. It is always published in full, so that state
//!   is static: the countdown each frame is seeded with, the nodes runnable
//!   the moment the frame exists (the consumers the prelude completed, and
//!   any other zero-input node — a zero-argument `Invoke`), and how many
//!   nodes are still to run.
//! * keep flags — which node outputs training runs must write to the
//!   backprop cache.
//! * a pooled free-list of frame cores (pending counters + value slots),
//!   so frame activation reuses allocations across invocations and runs.
//!
//! Planning never rewrites a module: [`ModulePlan::new`] plans it exactly
//! as built, and every run of a session executes that one plan — recursion
//! runs on the unmodified frame machinery, whatever the feeds.
//!
//! # Example
//!
//! ```
//! use rdg_exec::ModulePlan;
//! use rdg_graph::{GraphRef, ModuleBuilder};
//! use std::sync::Arc;
//!
//! let mut mb = ModuleBuilder::new();
//! let a = mb.const_f32(2.0);
//! let b = mb.add_const(a, 1.0).unwrap();
//! mb.set_outputs(&[b]).unwrap();
//! let plan = ModulePlan::new(Arc::new(mb.finish().unwrap())).unwrap();
//!
//! let main = plan.plan(GraphRef::Main);
//! assert_eq!(main.topo.len(), 2);
//! assert_eq!(main.prelude.len(), 1); // the constant resolves at spawn
//! assert_eq!(main.ready_at_spawn.len(), 1); // so the add is runnable at once
//! assert_eq!(main.live_at_spawn, 1);
//! ```

use rdg_graph::{GraphRef, Module, NodeId, OpKind, ParamId, PortRef, SubGraphId};
use rdg_tensor::{DType, Tensor};
use std::sync::Arc;

/// How one prelude node's outputs are produced at frame-spawn time.
pub enum PreludeValue {
    /// A graph `Input`: cloned from the frame's argument vector.
    Arg {
        /// Position in the frame's argument list.
        index: usize,
        /// Declared element type (validated against the fed tensor).
        dtype: DType,
    },
    /// A graph `Const`: the tensor is captured here at plan time.
    Const(Tensor),
    /// A `Param` read: the run's store as it stands when the frame spawns
    /// (the store is written between runs, never during one).
    Param(ParamId),
    /// A `FwdValue` / `FwdZeros` read of the backprop cache, keyed by the
    /// spawning frame's path.
    Fwd {
        /// The forward port whose cached value (or shape) is read.
        of: PortRef,
        /// `FwdZeros`: zeros of the cached shape instead of the value.
        zeros: bool,
    },
}

/// One node the executor resolves inline while spawning a frame.
pub struct PreludeEntry {
    /// The node whose (single) output is published.
    pub node: NodeId,
    /// Where its value comes from.
    pub value: PreludeValue,
}

/// Per-graph scheduling metadata, computed once and reused by every frame.
pub struct ExecutionPlan {
    /// For each node, the distinct nodes consuming any of its outputs, in
    /// node (construction) order. The order is a scheduling decision: of the
    /// consumers a finishing node makes ready, the executor keeps the first
    /// in this list as its continuation and queues the rest. Sorting call
    /// sites (`Invoke`/`Cond`) to the front or to the back measured the
    /// same as leaving it (PERFORMANCE.md § PR 12), so it is left as built.
    pub consumers: Vec<Vec<NodeId>>,
    /// For each node, the number of distinct producers it waits on
    /// (the in-degree counts seeding each frame's countdown).
    pub pending: Vec<u32>,
    /// For each node, the total number of value fetches it will receive
    /// (input references across all consumers plus graph-output reads).
    pub fetch_counts: Vec<u32>,
    /// A topological order of the graph. `prelude` is derived in this
    /// order, so spawn-time publishing is deterministic.
    pub topo: Vec<NodeId>,
    /// The zero-input nodes that need no kernel, resolved while the frame
    /// spawns (see [`PreludeValue`]).
    pub prelude: Vec<PreludeEntry>,
    /// `pending` once the whole prelude has been published: the countdown
    /// every frame of this graph starts from.
    pub pending_at_spawn: Vec<u32>,
    /// The nodes outside the prelude that a new frame can run at once, in
    /// the order the prelude completes them (zero-input nodes that are not
    /// prelude, e.g. a zero-argument `Invoke`, last). The spawning worker
    /// keeps the first as its continuation and queues the rest.
    pub ready_at_spawn: Vec<NodeId>,
    /// Nodes a new frame still has to run: `len() - prelude.len()`. Zero
    /// when the graph only returns captures, constants or parameters; such
    /// a frame completes while it spawns.
    pub live_at_spawn: usize,
    /// Nodes whose output values must be written to the backprop cache.
    pub keep_value: Vec<bool>,
    /// Nodes whose output shapes must be written to the shape cache.
    pub keep_shape: Vec<bool>,
    /// Per-node batchability: `Some` iff the op is row/column stackable
    /// across concurrent frames (see [`crate::batch::fuse_kind`]). Computed
    /// here so dispatch-time grouping is an index, not a shape derivation.
    pub fuse: Vec<Option<crate::batch::FuseKind>>,
    /// Pooled frame cores (pending counters + value slots) recycled across
    /// activations of this graph.
    pub(crate) pool: crate::executor::CorePool,
}

impl ExecutionPlan {
    fn build(module: &Module, gref: GraphRef) -> rdg_graph::Result<Self> {
        let g = module.graph(gref);
        let n = g.len();
        let consumers = g.consumers();
        let pending = g.pending_counts();
        let topo = g.topo_order(&module.graph_name(gref))?;
        let mut fetch_counts = vec![0u32; n];
        for node in &g.nodes {
            for inp in &node.inputs {
                fetch_counts[inp.node.0 as usize] += 1;
            }
        }
        for out in &g.outputs {
            fetch_counts[out.node.0 as usize] += 1;
        }
        // One rule: a zero-input node that needs no kernel is resolved while
        // the frame spawns, in topological order. Its value is a function of
        // the plan, the frame's arguments and path, and the run's stores,
        // none of which changes while the run is alive.
        let mut prelude = Vec::new();
        // Any other zero-input node (a zero-argument `Invoke`) is simply
        // runnable at spawn.
        let mut other_sources = Vec::new();
        for &s in topo.iter().filter(|&&n| pending[n.0 as usize] == 0) {
            let value = match &g.node(s).op {
                OpKind::Input { index, dtype } => PreludeValue::Arg {
                    index: *index,
                    dtype: *dtype,
                },
                OpKind::Const(t) => PreludeValue::Const(t.clone()),
                OpKind::Param(p) => PreludeValue::Param(*p),
                OpKind::FwdValue { of } => PreludeValue::Fwd {
                    of: *of,
                    zeros: false,
                },
                OpKind::FwdZeros { of } => PreludeValue::Fwd {
                    of: *of,
                    zeros: true,
                },
                _ => {
                    other_sources.push(s);
                    continue;
                }
            };
            prelude.push(PreludeEntry { node: s, value });
        }
        // The prelude is always published in full, so what it leaves behind
        // is static: replay its publishes on the countdown once, here.
        let mut pending_at_spawn = pending.clone();
        let mut ready_at_spawn = Vec::new();
        for entry in &prelude {
            for &c in &consumers[entry.node.0 as usize] {
                pending_at_spawn[c.0 as usize] -= 1;
                if pending_at_spawn[c.0 as usize] == 0 {
                    ready_at_spawn.push(c);
                }
            }
        }
        ready_at_spawn.extend(other_sources);
        let live_at_spawn = n - prelude.len();
        let mut keep_value = vec![false; n];
        if let Some(set) = module.keep_sets.get(&gref) {
            for &(node, _port) in set {
                keep_value[node.0 as usize] = true;
            }
        }
        let mut keep_shape = vec![false; n];
        if let Some(set) = module.shape_keep_sets.get(&gref) {
            for &(node, _port) in set {
                keep_shape[node.0 as usize] = true;
            }
        }
        let fuse = g
            .nodes
            .iter()
            .map(|node| crate::batch::fuse_kind(&node.op))
            .collect();
        Ok(ExecutionPlan {
            consumers,
            pending,
            fetch_counts,
            topo,
            prelude,
            pending_at_spawn,
            ready_at_spawn,
            live_at_spawn,
            keep_value,
            keep_shape,
            fuse,
            pool: crate::executor::CorePool::default(),
        })
    }

    /// Number of nodes in the planned graph.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` for the degenerate empty graph.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Plan-specialization counters, kept only because the repo benchmark reads
/// them through [`ModulePlan::spec_stats`]. Every run executes the plan
/// [`ModulePlan::new`] built, so they are always zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Runs dispatched to a promoted plan.
    pub hits: u64,
    /// Runs that took the frame machinery.
    pub misses: u64,
    /// Feed signatures promoted to plans of their own.
    pub promotions: u64,
}

/// All plans for a module, plus the module itself.
pub struct ModulePlan {
    /// The planned module, exactly as passed to [`ModulePlan::new`].
    pub module: Arc<Module>,
    main: ExecutionPlan,
    subs: Vec<ExecutionPlan>,
}

impl ModulePlan {
    /// Validates and statically analyzes the module, then computes every
    /// graph's plan. Analyzer *errors* (definite shape/dtype mismatches,
    /// ill-founded recursion, double publishes) reject the module before a
    /// single frame spawns. The module is planned exactly as built
    /// (`plan.module` is the `Arc` passed in).
    pub fn new(module: Arc<Module>) -> rdg_graph::Result<Arc<Self>> {
        module.validate()?;
        rdg_graph::analyze::check_module(&module, &rdg_graph::analyze::AnalysisConfig::default())?;
        let main = ExecutionPlan::build(&module, GraphRef::Main)?;
        let subs = (0..module.subgraphs.len())
            .map(|i| ExecutionPlan::build(&module, GraphRef::Sub(SubGraphId(i as u32))))
            .collect::<rdg_graph::Result<Vec<_>>>()?;
        Ok(Arc::new(ModulePlan { module, main, subs }))
    }

    /// The plan for one graph.
    pub fn plan(&self, gref: GraphRef) -> &ExecutionPlan {
        match gref {
            GraphRef::Main => &self.main,
            GraphRef::Sub(id) => &self.subs[id.0 as usize],
        }
    }

    /// Always [`SpecStats::default`]: nothing specializes a plan. Kept for
    /// the repo benchmark, which pins this signature; ROADMAP item 1(f)
    /// removes it together with that pin.
    pub fn spec_stats(&self) -> SpecStats {
        SpecStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdg_graph::ModuleBuilder;
    use rdg_tensor::Tensor;

    #[test]
    fn plan_counts_match_simple_graph() {
        let mut mb = ModuleBuilder::new();
        let a = mb.const_f32(1.0);
        let b = mb.const_f32(2.0);
        let c = mb.add(a, b).unwrap();
        let d = mb.mul(c, c).unwrap(); // two references to c, one consumer
        mb.set_outputs(&[d]).unwrap();
        let m = Arc::new(mb.finish().unwrap());
        let plan = ModulePlan::new(m).unwrap();
        let p = plan.plan(GraphRef::Main);
        // a, b are zero-input constants, so they are prelude; publishing
        // them leaves c runnable and c, d to run.
        assert_eq!(p.prelude.len(), 2);
        assert_eq!(p.ready_at_spawn, [NodeId(2)]);
        assert_eq!(p.pending_at_spawn, [0, 0, 0, 1]);
        assert_eq!(p.live_at_spawn, 2);
        // c has one distinct consumer (d) but two fetches.
        assert_eq!(p.consumers[2].len(), 1);
        assert_eq!(p.fetch_counts[2], 2);
        // d is fetched once: as the graph output.
        assert_eq!(p.fetch_counts[3], 1);
        assert_eq!(p.pending[3], 1, "d waits on one distinct producer");
        // The topological order covers the graph and starts at a source.
        assert_eq!(p.topo.len(), 4);
        assert!(p.topo[0] == NodeId(0) || p.topo[0] == NodeId(1));
    }

    /// The rule the plan applies, one case per kind of zero-input node. That
    /// resolving a `Param` at spawn is *safe* — the store is written between
    /// runs, a frame spawns inside one — is a property of the runtime, pinned
    /// as behaviour in `tests/spawn_sources.rs`.
    #[test]
    fn zero_input_nodes_without_a_kernel_resolve_at_spawn() {
        let mut mb = ModuleBuilder::new();
        let w = mb.param_wire("w", Tensor::scalar_f32(1.0)).unwrap(); // node 0
        let c = mb.const_f32(2.0); // 1
        let y = mb.mul(w, c).unwrap(); // 2
        let seven = mb
            .subgraph("seven", &[], &[DType::F32], |b| Ok(vec![b.const_f32(7.0)]))
            .unwrap();
        let z = mb.invoke(&seven, &[]).unwrap()[0]; // 3
        let out = mb.add(y, z).unwrap(); // 4
        mb.set_outputs(&[out]).unwrap();
        let plan = ModulePlan::new(Arc::new(mb.finish().unwrap())).unwrap();
        let p = plan.plan(GraphRef::Main);
        // The parameter read and the constant are both born with the frame.
        let prelude: Vec<NodeId> = p.prelude.iter().map(|e| e.node).collect();
        assert_eq!(prelude, [NodeId(0), NodeId(1)]);
        assert!(matches!(p.prelude[0].value, PreludeValue::Param(_)));
        // What they complete runs first; the zero-argument call has nothing
        // to wait for either, but it needs a dispatch: ready, not resolved.
        assert_eq!(p.ready_at_spawn, [NodeId(2), NodeId(3)]);
        assert_eq!(p.live_at_spawn, p.len() - 2);
        assert_eq!(p.pending_at_spawn[2], 0);
        assert_eq!(p.pending_at_spawn[4], 2);
        // The callee only returns a constant: nothing of it is left to run.
        let callee = plan.plan(GraphRef::Sub(seven.id()));
        assert_eq!(callee.live_at_spawn, 0);
        assert!(callee.ready_at_spawn.is_empty());
    }

    #[test]
    fn keep_flags_come_from_module() {
        let mut mb = ModuleBuilder::new();
        let a = mb.const_f32(1.0);
        let b = mb.neg(a).unwrap();
        mb.set_outputs(&[b]).unwrap();
        let mut m = mb.finish().unwrap();
        m.keep_sets
            .entry(GraphRef::Main)
            .or_default()
            .insert((NodeId(0), 0));
        let plan = ModulePlan::new(Arc::new(m)).unwrap();
        let p = plan.plan(GraphRef::Main);
        assert!(p.keep_value[0]);
        assert!(!p.keep_value[1]);
    }

    #[test]
    fn invalid_module_is_rejected() {
        let mut m = Module::default();
        // Forge an invalid main graph: op referencing a dangling node.
        m.main.push_node(
            rdg_graph::OpKind::Neg,
            vec![rdg_graph::PortRef {
                node: NodeId(9),
                port: 0,
            }],
            vec![rdg_tensor::DType::F32],
        );
        assert!(ModulePlan::new(Arc::new(m)).is_err());
        let _ = Tensor::zeros([1]); // silence unused import in some cfgs
    }
}
