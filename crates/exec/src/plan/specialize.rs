//! Plan-time specialization: hot-shape unrolling.
//!
//! The paper's recursive `invoke` pays a frame (spawn + argument passing +
//! return delivery) per activation, and runs it on the unmodified executor
//! at about a plain op's cost (§4.1.2). Planning a module therefore never
//! rewrites it: [`ModulePlan::new`] plans the module exactly as built. The
//! one rewrite is per feed signature, at run time, and only for a signature
//! that recurs. Cortex makes the observation this builds on: once a
//! recursion's control flow is known, its frames are *compilable away*.
//!
//! **Hot-shape unrolling** (`unroll_for_feeds`) — given a concrete feed
//! signature (shapes always; values for small `i32` feeds), the whole
//! recursion is abstract-interpreted at plan time: every `Invoke` is
//! expanded in place, every `Cond` whose predicate folds to a known
//! constant is resolved to its taken branch, and every op whose operands
//! are all known is constant-folded through the *same* kernels the executor
//! runs (so folded results are bit-exact). What cannot be decided
//! statically is left behind as a *residual* `Invoke`/`Cond` (fresh call
//! sites, general frame machinery) — the fallback path.
//!
//! The expander copies op kinds verbatim onto every surviving node, so the
//! serving executor's cross-request fuse signature
//! ([`crate::batch::fuse_kind`], keyed per plan by `GroupKey`) classifies a
//! specialized node exactly like its general-plan twin. A promoted plan's
//! [`ModulePlan::provenance`] records which original node each node of its
//! flattened main graph descends from; the regression suite uses it to
//! assert that fuse-class agreement.
//!
//! # What is never unrolled
//!
//! Node ids are load-bearing wherever the backprop cache is involved: keep
//! sets name `(node, port)` pairs, and `FwdValue`/`FwdZeros` in a gradient
//! twin name nodes of its forward graph. Unrolling therefore requires a
//! module with no keeps, no gradient twins, and no autodiff ops anywhere —
//! the training path always takes the general frame machinery.

use crate::plan::ModulePlan;
use rdg_graph::analyze::{AbsDim, AbsShape};
use rdg_graph::{CallSiteId, Graph, GraphRef, Module, NodeId, OpKind, PortRef, SubGraphId};
use rdg_tensor::{DType, Tensor};
use std::collections::HashMap;

/// Deepest invocation chain the unroller will expand before leaving a
/// residual frame (also the plan-time recursion bound of the expander).
const MAX_UNROLL_DEPTH: usize = 512;
/// Abstract-interpretation step budget for one unroll attempt.
const MAX_UNROLL_VISITED: usize = 500_000;
/// Node budget for one unrolled main graph; an expansion that would exceed
/// it is abandoned and the signature blacklisted.
const MAX_UNROLL_NODES: usize = 50_000;
/// A feed signature is promoted once it has been seen this many times.
pub(crate) const HOT_AFTER: u32 = 2;
/// Maximum number of promoted (specialized) plans kept per module plan.
pub(crate) const MAX_PROMOTED: usize = 8;
/// `i32` feeds up to this many elements contribute their *values* to the
/// specialization key (and are therefore foldable); larger tensors and all
/// `f32` feeds contribute shape only.
const MAX_VALUE_KEY_ELEMS: usize = 64;

/// `true` when the module is safe to unroll at all (see module docs) and
/// unrolling could plausibly pay (it has at least one call site).
pub(crate) fn unroll_eligible(m: &Module) -> bool {
    let clean = |g: &Graph| {
        !g.nodes.iter().any(|n| {
            n.op.is_sink() || matches!(n.op, OpKind::FwdValue { .. } | OpKind::FwdZeros { .. })
        })
    };
    let has_calls = |g: &Graph| g.nodes.iter().any(|n| n.op.is_control_flow());
    m.keep_sets.values().all(|s| s.is_empty())
        && m.shape_keep_sets.values().all(|s| s.is_empty())
        && m.subgraphs.iter().all(|s| s.grad_of.is_none())
        && clean(&m.main)
        && m.subgraphs.iter().all(|s| clean(&s.graph))
        && (has_calls(&m.main) || m.subgraphs.iter().any(|s| has_calls(&s.graph)))
}

/// The specialization key of a feed vector: per feed, dtype + dims always,
/// plus raw values for small `i32` tensors (the recursion drivers —
/// depths, topologies, token ids). Two runs with equal keys are guaranteed
/// to take identical control-flow paths through the module.
pub(crate) fn spec_key(feeds: &[Tensor]) -> Vec<u8> {
    let mut k = Vec::with_capacity(feeds.len() * 16);
    for t in feeds {
        k.push(match t.dtype() {
            DType::F32 => 0u8,
            DType::I32 => 1u8,
        });
        let dims = t.shape().dims();
        k.extend((dims.len() as u32).to_le_bytes());
        for &d in dims {
            k.extend((d as u64).to_le_bytes());
        }
        if value_keyed(t) {
            k.push(1);
            for v in t.i32s().expect("i32 feed") {
                k.extend(v.to_le_bytes());
            }
        } else {
            k.push(0);
        }
    }
    k
}

/// `true` when a feed's *values* (not just shape) enter the key.
fn value_keyed(t: &Tensor) -> bool {
    t.dtype() == DType::I32 && t.numel() <= MAX_VALUE_KEY_ELEMS
}

/// Result of one unroll attempt.
pub(crate) struct UnrollOutcome {
    /// The specialized module: the original SubGraphs (residual targets)
    /// plus a flattened main graph.
    pub module: Module,
    /// Provenance of the flattened main graph.
    pub provenance: Vec<Option<(GraphRef, NodeId)>>,
    /// `Invoke` frames expanded away at plan time.
    pub invokes_expanded: usize,
    /// `Cond` frames resolved to a statically taken branch.
    pub conds_resolved: usize,
    /// Ops constant-folded through the real kernels.
    pub folded: usize,
    /// Residual `Invoke`/`Cond` frames left for the general machinery.
    pub residuals: usize,
}

impl UnrollOutcome {
    /// `(frames expanded, ops folded, residual frames)` for the stats
    /// counters.
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        (
            (self.invokes_expanded + self.conds_resolved) as u64,
            self.folded as u64,
            self.residuals as u64,
        )
    }
}

/// One abstract value during expansion: possibly a plan-time tensor,
/// possibly a port in the output graph, always an abstract shape.
#[derive(Clone)]
struct Slot {
    known: Option<Tensor>,
    port: Option<PortRef>,
    abs: AbsShape,
}

impl Slot {
    fn unknown(port: PortRef, abs: AbsShape) -> Self {
        Slot {
            known: None,
            port: Some(port),
            abs,
        }
    }

    fn known(t: Tensor) -> Self {
        let abs = AbsShape::from_dims(t.shape().dims());
        Slot {
            known: Some(t),
            port: None,
            abs,
        }
    }
}

/// Expansion abandoned (budget, depth, or an op the pass cannot handle);
/// the caller falls back to the general plan and blacklists the key.
struct Abort;

struct Expander<'a> {
    m: &'a Module,
    plan: &'a ModulePlan,
    out: Graph,
    prov: Vec<Option<(GraphRef, NodeId)>>,
    next_site: u32,
    visited: usize,
    invokes_expanded: usize,
    conds_resolved: usize,
    folded: usize,
    residuals: usize,
    fold_params: crate::params::ParamStore,
    fold_stats: crate::stats::ExecStats,
}

impl<'a> Expander<'a> {
    fn tick(&mut self) -> Result<(), Abort> {
        self.visited += 1;
        if self.visited > MAX_UNROLL_VISITED || self.out.len() > MAX_UNROLL_NODES {
            return Err(Abort);
        }
        Ok(())
    }

    fn emit(
        &mut self,
        op: OpKind,
        inputs: Vec<PortRef>,
        dtypes: Vec<DType>,
        from: Option<(GraphRef, NodeId)>,
    ) -> NodeId {
        let nid = self.out.push_node(op, inputs, dtypes);
        self.prov.push(from);
        nid
    }

    fn fresh_site(&mut self) -> CallSiteId {
        let s = CallSiteId(self.next_site);
        self.next_site += 1;
        s
    }

    /// Ensures a slot has a port in the output graph, materializing folded
    /// values as `Const` nodes on demand.
    fn materialize(&mut self, slot: &mut Slot) -> Result<PortRef, Abort> {
        if let Some(p) = slot.port {
            return Ok(p);
        }
        let t = slot.known.clone().ok_or(Abort)?;
        let dt = t.dtype();
        let nid = self.emit(OpKind::Const(t), Vec::new(), vec![dt], None);
        let p = PortRef::of(nid);
        slot.port = Some(p);
        Ok(p)
    }

    /// Constant-folds one op through the executor's kernels.
    fn fold(&mut self, op: &OpKind, inputs: Vec<Tensor>) -> Result<Tensor, Abort> {
        let ctx = crate::kernel::KernelCtx {
            args: &[],
            params: &self.fold_params,
            grads: None,
            stats: &self.fold_stats,
        };
        let mut outs = crate::kernel::execute(op, inputs, &ctx).map_err(|_| Abort)?;
        if outs.len() != 1 {
            return Err(Abort);
        }
        self.folded += 1;
        Ok(outs.pop().expect("one output"))
    }

    /// Expands one graph body given abstract arguments; returns the slots
    /// of the graph's declared outputs.
    fn expand_graph(
        &mut self,
        gref: GraphRef,
        args: &[Slot],
        depth: usize,
    ) -> Result<Vec<Slot>, Abort> {
        let g = self.m.graph(gref);
        let shapes = &self.plan.plan(gref).shapes;
        let mut slots: Vec<Vec<Slot>> = Vec::with_capacity(g.len());
        for (idx, node) in g.nodes.iter().enumerate() {
            self.tick()?;
            let static_abs = |port: usize| -> AbsShape {
                shapes
                    .get(idx)
                    .and_then(|v| v.get(port))
                    .cloned()
                    .unwrap_or(AbsShape::Top)
            };
            let mut ins: Vec<Slot> = Vec::with_capacity(node.inputs.len());
            for p in &node.inputs {
                ins.push(take_slot(&slots, p)?);
            }
            let row: Vec<Slot> = match &node.op {
                OpKind::Input { index, dtype } => match gref {
                    // The specialized main keeps the exact input signature
                    // (the executor validates feeds against `input_nodes`),
                    // so main inputs are always emitted — their *values*
                    // may still be known from the key.
                    GraphRef::Main => {
                        let nid = self.emit(
                            OpKind::Input {
                                index: *index,
                                dtype: *dtype,
                            },
                            Vec::new(),
                            vec![*dtype],
                            Some((gref, NodeId(idx as u32))),
                        );
                        let mut s = args.get(*index).cloned().ok_or(Abort)?;
                        s.port = Some(PortRef::of(nid));
                        vec![s]
                    }
                    GraphRef::Sub(_) => vec![args.get(*index).cloned().ok_or(Abort)?],
                },
                OpKind::Const(t) => vec![Slot::known(t.clone())],
                OpKind::Identity => vec![ins[0].clone()],
                OpKind::Invoke { sub, n_out, .. } => {
                    if depth >= MAX_UNROLL_DEPTH {
                        self.residual_invoke(*sub, *n_out, ins, &static_abs)?
                    } else {
                        self.invokes_expanded += 1;
                        self.expand_graph(GraphRef::Sub(*sub), &ins, depth + 1)?
                    }
                }
                OpKind::Cond {
                    sub_then,
                    sub_else,
                    n_then_in,
                    n_out,
                    ..
                } => {
                    let pred = ins[0].known.as_ref().and_then(|t| t.as_i32_scalar().ok());
                    match pred {
                        Some(p) if depth < MAX_UNROLL_DEPTH => {
                            self.conds_resolved += 1;
                            let n_then = *n_then_in as usize;
                            let (sub, branch_args) = if p != 0 {
                                (*sub_then, &ins[1..1 + n_then])
                            } else {
                                (*sub_else, &ins[1 + n_then..])
                            };
                            self.expand_graph(GraphRef::Sub(sub), branch_args, depth + 1)?
                        }
                        _ => self.residual_cond(
                            *sub_then,
                            *sub_else,
                            *n_then_in,
                            *n_out,
                            ins,
                            &static_abs,
                        )?,
                    }
                }
                OpKind::FwdValue { .. }
                | OpKind::FwdZeros { .. }
                | OpKind::GradSink { .. }
                | OpKind::GradSinkRows { .. }
                | OpKind::GradSinkOuter { .. } => return Err(Abort),
                OpKind::Param(_) => {
                    let nid = self.emit(
                        node.op.clone(),
                        Vec::new(),
                        g.out_dtypes[idx].clone(),
                        Some((gref, NodeId(idx as u32))),
                    );
                    vec![Slot::unknown(PortRef::of(nid), static_abs(0))]
                }
                op => {
                    if ins.iter().all(|s| s.known.is_some()) {
                        let tensors: Vec<Tensor> = ins
                            .iter()
                            .map(|s| s.known.clone().expect("known"))
                            .collect();
                        vec![Slot::known(self.fold(op, tensors)?)]
                    } else if matches!(op, OpKind::Len) {
                        // The analyzer's static shape can decide `Len` even
                        // when the value cannot be folded.
                        match numel_of(&ins[0].abs) {
                            Some(n) => {
                                self.folded += 1;
                                vec![Slot::known(Tensor::scalar_i32(n as i32))]
                            }
                            None => self.emit_op(gref, idx, node, ins, &static_abs)?,
                        }
                    } else {
                        self.emit_op(gref, idx, node, ins, &static_abs)?
                    }
                }
            };
            slots.push(row);
        }
        let mut outs = Vec::with_capacity(g.outputs.len());
        for p in &g.outputs {
            outs.push(take_slot(&slots, p)?);
        }
        Ok(outs)
    }

    /// Emits a surviving (unfoldable) plain op, materializing its inputs.
    fn emit_op(
        &mut self,
        gref: GraphRef,
        idx: usize,
        node: &rdg_graph::Node,
        mut ins: Vec<Slot>,
        static_abs: &dyn Fn(usize) -> AbsShape,
    ) -> Result<Vec<Slot>, Abort> {
        let mut ports = Vec::with_capacity(ins.len());
        for s in &mut ins {
            ports.push(self.materialize(s)?);
        }
        let g = self.m.graph(gref);
        let nid = self.emit(
            node.op.clone(),
            ports,
            g.out_dtypes[idx].clone(),
            Some((gref, NodeId(idx as u32))),
        );
        Ok((0..g.out_dtypes[idx].len())
            .map(|p| {
                Slot::unknown(
                    PortRef {
                        node: nid,
                        port: p as u16,
                    },
                    static_abs(p),
                )
            })
            .collect())
    }

    fn residual_invoke(
        &mut self,
        sub: SubGraphId,
        n_out: u16,
        mut ins: Vec<Slot>,
        static_abs: &dyn Fn(usize) -> AbsShape,
    ) -> Result<Vec<Slot>, Abort> {
        let mut ports = Vec::with_capacity(ins.len());
        for s in &mut ins {
            ports.push(self.materialize(s)?);
        }
        let site = self.fresh_site();
        let dtypes = self.m.subgraph(sub).output_dtypes.clone();
        let nid = self.emit(
            OpKind::Invoke {
                sub,
                site,
                n_out,
                mirror: false,
            },
            ports,
            dtypes,
            None,
        );
        self.residuals += 1;
        Ok((0..n_out as usize)
            .map(|p| {
                Slot::unknown(
                    PortRef {
                        node: nid,
                        port: p as u16,
                    },
                    static_abs(p),
                )
            })
            .collect())
    }

    #[allow(clippy::too_many_arguments)]
    fn residual_cond(
        &mut self,
        sub_then: SubGraphId,
        sub_else: SubGraphId,
        n_then_in: u16,
        n_out: u16,
        mut ins: Vec<Slot>,
        static_abs: &dyn Fn(usize) -> AbsShape,
    ) -> Result<Vec<Slot>, Abort> {
        let mut ports = Vec::with_capacity(ins.len());
        for s in &mut ins {
            ports.push(self.materialize(s)?);
        }
        let site_then = self.fresh_site();
        let site_else = self.fresh_site();
        let dtypes = self.m.subgraph(sub_then).output_dtypes.clone();
        let nid = self.emit(
            OpKind::Cond {
                sub_then,
                sub_else,
                site_then,
                site_else,
                n_then_in,
                n_out,
                mirror: false,
            },
            ports,
            dtypes,
            None,
        );
        self.residuals += 1;
        Ok((0..n_out as usize)
            .map(|p| {
                Slot::unknown(
                    PortRef {
                        node: nid,
                        port: p as u16,
                    },
                    static_abs(p),
                )
            })
            .collect())
    }
}

/// Looks up an already-expanded slot; a miss means a forward edge the
/// expander cannot handle (builder graphs are push-ordered, so this only
/// trips on hand-forged graphs).
fn take_slot(slots: &[Vec<Slot>], p: &PortRef) -> Result<Slot, Abort> {
    slots
        .get(p.node.0 as usize)
        .and_then(|v| v.get(p.port as usize))
        .cloned()
        .ok_or(Abort)
}

/// Product of a fully known abstract shape, or `None`.
fn numel_of(abs: &AbsShape) -> Option<usize> {
    match abs {
        AbsShape::Dims(dims) => {
            let mut n = 1usize;
            for d in dims {
                match d {
                    AbsDim::Known(k) => n = n.checked_mul(*k)?,
                    _ => return None,
                }
            }
            Some(n)
        }
        _ => None,
    }
}

/// Attempts to expand `plan.module`'s main graph for one concrete feed
/// signature. Returns `None` when the expansion aborts (budget, depth, an
/// unhandled pattern, or a kernel error during folding — the general path
/// reproduces any such error at run time) or eliminates no more call frames
/// than it leaves residual.
pub(crate) fn unroll_for_feeds(plan: &ModulePlan, feeds: &[Tensor]) -> Option<UnrollOutcome> {
    let m = &plan.module;
    if m.main.input_nodes.len() != feeds.len() {
        return None;
    }
    let args: Vec<Slot> = feeds
        .iter()
        .map(|t| Slot {
            known: value_keyed(t).then(|| t.clone()),
            port: None,
            abs: AbsShape::from_dims(t.shape().dims()),
        })
        .collect();
    let mut ex = Expander {
        m,
        plan,
        out: Graph::new(),
        prov: Vec::new(),
        next_site: m.n_sites,
        visited: 0,
        invokes_expanded: 0,
        conds_resolved: 0,
        folded: 0,
        residuals: 0,
        fold_params: crate::params::ParamStore::from_module(&Module::default()),
        fold_stats: crate::stats::ExecStats::default(),
    };
    let mut outs = ex.expand_graph(GraphRef::Main, &args, 0).ok()?;
    for slot in &mut outs {
        let p = ex.materialize(slot).ok()?;
        ex.out.outputs.push(p);
    }
    // Worth a slot only when it removes more frames than it leaves: a tree
    // keyed by shape alone expands main's one call and keeps the whole
    // recursion behind one residual frame — the general path plus a frame.
    if ex.invokes_expanded + ex.conds_resolved <= ex.residuals {
        return None;
    }
    let module = Module {
        subgraphs: m.subgraphs.clone(),
        main: ex.out,
        params: m.params.clone(),
        n_sites: ex.next_site,
        keep_sets: HashMap::new(),
        shape_keep_sets: HashMap::new(),
    };
    Some(UnrollOutcome {
        module,
        provenance: ex.prov,
        invokes_expanded: ex.invokes_expanded,
        conds_resolved: ex.conds_resolved,
        folded: ex.folded,
        residuals: ex.residuals,
    })
}
