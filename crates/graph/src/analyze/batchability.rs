//! Static batchability: which nodes can the serving executor fuse across
//! concurrent requests, and how much of each graph's compute does that
//! cover?
//!
//! The serving executor groups ready node-firings by `GroupKey` (plan,
//! graph, node) and stacks their row-vector operands into one matrix
//! kernel call. Whether a node is *eligible* at all is a pure function of
//! its [`OpKind`] — captured here by [`fuse_class`], which is the single
//! source of truth: `rdg_exec::batch::fuse_kind` delegates to it, so the
//! static prediction is a superset of anything the runtime ever fuses, by
//! construction.
//!
//! The pass reports per-graph coverage (fraction of compute nodes that are
//! fuse-eligible) and warns ([`codes::FUSION_INELIGIBLE`]) about
//! compute-*heavy* ineligible ops — the softmax family — inside **hot**
//! (recursive) SubGraphs, where the miss is paid once per recursion level
//! per request. Cheap ineligible ops (`Tanh`, `ConcatCols`, …) are memory
//! bound and deliberately unfused, so they are not worth a warning.

use super::{codes, node_diag, Diagnostic, Severity};
use crate::graph::NodeId;
use crate::module::{GraphRef, Module};
use crate::op::OpKind;
use crate::subgraph::SubGraphId;
use std::collections::HashSet;

/// How a fused group shares operands across stacked requests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FuseClass {
    /// Requests stack as rows of the first operand (weights shared).
    RowsShared,
    /// Requests stack as columns; the first operand is shared.
    ColsShared,
    /// A rank-1 weight-gradient sink (`GradSinkOuter`): requests stack both
    /// operands as rows into one update of the parameter's accumulator.
    SinkRows,
}

/// The fuse signature of an op under the serving executor's cross-request
/// batcher. `None` means the op never fuses. This is the single source of
/// truth — the runtime batcher delegates here.
pub fn fuse_class(op: &OpKind) -> Option<FuseClass> {
    match op {
        OpKind::MatMul | OpKind::MatMulBT | OpKind::AddBias | OpKind::Bilinear => {
            Some(FuseClass::RowsShared)
        }
        OpKind::MatMulAT => Some(FuseClass::ColsShared),
        OpKind::GradSinkOuter { .. } => Some(FuseClass::SinkRows),
        _ => None,
    }
}

/// Ops that do real arithmetic (the denominator of fusion coverage).
/// Structural, constant, and bookkeeping ops are excluded.
fn is_compute(op: &OpKind) -> bool {
    !matches!(
        op,
        OpKind::Input { .. }
            | OpKind::Const(_)
            | OpKind::Param(_)
            | OpKind::Identity
            | OpKind::Invoke { .. }
            | OpKind::Cond { .. }
            | OpKind::FwdValue { .. }
            | OpKind::FwdZeros { .. }
            | OpKind::GradSink { .. }
            | OpKind::GradSinkRows { .. }
            | OpKind::GradSinkOuter { .. }
            | OpKind::ZerosLike
            | OpKind::OnesLike
            | OpKind::ZerosDyn { .. }
    )
}

/// Heavy ops whose per-level cost rivals a GEMV: missing fusion on these
/// inside a recursive SubGraph is worth surfacing.
fn is_heavy(op: &OpKind) -> bool {
    matches!(
        op,
        OpKind::Softmax | OpKind::LogSoftmax | OpKind::SoftmaxXent
    )
}

/// Fusion coverage of one graph.
pub struct GraphCoverage {
    /// Which graph.
    pub gref: GraphRef,
    /// Graph name (main or the SubGraph's name).
    pub name: String,
    /// Compute nodes whose op is fuse-eligible.
    pub eligible: Vec<NodeId>,
    /// Number of compute nodes considered.
    pub n_compute: usize,
    /// `true` when the graph lies on a recursive cycle (runs O(depth)
    /// times per inference).
    pub hot: bool,
}

impl GraphCoverage {
    /// Fraction of compute nodes that are fuse-eligible (0 when the graph
    /// has no compute nodes).
    pub fn coverage(&self) -> f64 {
        if self.n_compute == 0 {
            0.0
        } else {
            self.eligible.len() as f64 / self.n_compute as f64
        }
    }
}

/// Module-wide batchability summary.
pub struct BatchabilityReport {
    /// One entry per graph, main first.
    pub graphs: Vec<GraphCoverage>,
    /// Eligible `(graph, node)` pairs, for ⊇ checks against runtime fuse
    /// decisions.
    eligible: HashSet<(GraphRef, NodeId)>,
}

impl BatchabilityReport {
    /// Is this node statically predicted fuse-eligible?
    pub fn is_eligible(&self, gref: GraphRef, node: NodeId) -> bool {
        self.eligible.contains(&(gref, node))
    }

    /// Coverage over hot graphs only — the number that predicts serving
    /// fusion benefit (cold graphs fire once per request).
    pub fn hot_coverage(&self) -> f64 {
        let (mut el, mut n) = (0usize, 0usize);
        for g in self.graphs.iter().filter(|g| g.hot) {
            el += g.eligible.len();
            n += g.n_compute;
        }
        if n == 0 {
            0.0
        } else {
            el as f64 / n as f64
        }
    }
}

/// Classifies every node and warns about heavy ineligible ops in hot
/// SubGraphs. `hot[k]` comes from the recursion pass.
pub fn check_batchability(
    m: &Module,
    hot: &[bool],
    diags: &mut Vec<Diagnostic>,
) -> BatchabilityReport {
    let mut grefs = vec![(GraphRef::Main, false)];
    grefs.extend((0..m.subgraphs.len()).map(|k| (GraphRef::Sub(SubGraphId(k as u32)), hot[k])));

    let mut graphs = Vec::with_capacity(grefs.len());
    let mut eligible_set = HashSet::new();
    for (gref, is_hot) in grefs {
        let g = m.graph(gref);
        let mut eligible = Vec::new();
        let mut n_compute = 0usize;
        for (i, n) in g.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            if is_compute(&n.op) {
                n_compute += 1;
            }
            if fuse_class(&n.op).is_some() {
                // A sink is bookkeeping, not compute: it may stack, but
                // coverage stays a fraction of the compute nodes.
                if is_compute(&n.op) {
                    eligible.push(id);
                }
                eligible_set.insert((gref, id));
            } else if is_hot && is_heavy(&n.op) {
                diags.push(node_diag(
                    m,
                    gref,
                    id,
                    Severity::Warning,
                    codes::FUSION_INELIGIBLE,
                    Vec::new(),
                    "compute-heavy op in a recursive SubGraph cannot fuse across requests; \
                     it will run once per recursion level per request"
                        .to_string(),
                ));
            }
        }
        graphs.push(GraphCoverage {
            gref,
            name: m.graph_name(gref),
            eligible,
            n_compute,
            hot: is_hot,
        });
    }
    BatchabilityReport {
        graphs,
        eligible: eligible_set,
    }
}
