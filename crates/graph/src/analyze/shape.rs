//! Interprocedural abstract shape and dtype inference.
//!
//! Shapes live in a three-level lattice per dimension — `Known(n)` ⊑
//! `Sym(k)`/`Top` — lifted to whole shapes as `Bottom ⊑ Dims([...]) ⊑ Top`.
//! `Bottom` means "no value has reached this port yet" (the initial state,
//! and the permanent state of ports inside unreached SubGraphs), `Top`
//! means "any shape". Symbolic dims are minted for runtime-determined
//! extents (`ZerosDyn` row counts) so that a dynamic dimension still
//! *propagates as one identity* instead of collapsing to ⊤.
//!
//! Inference runs as a fixpoint: call-site argument shapes are joined into
//! each SubGraph's formal-input summary, bodies are re-evaluated, and
//! `Invoke`/`Cond` output ports pick up the callee's output summaries.
//! Every stored cell is only ever raised via the lattice join, so the
//! iteration terminates (the lattice has finite height and there are
//! finitely many cells). Diagnostics are collected in a single reporting
//! pass *after* the fixpoint stabilizes, so a transiently unknown shape
//! never produces a spurious finding and no finding is reported twice.
//!
//! A mismatch is an **error only when definite**: two `Known` extents that
//! differ, a rank that a kernel can never accept, a dtype the op cannot
//! take. Anything involving `Sym`/`Top` stays silent — the analysis is
//! deliberately may-style so that shipped recursive models (whose state
//! tensors have genuinely dynamic row counts) produce zero false positives.

use super::{codes, node_diag, Diagnostic, Severity};
use crate::graph::{Graph, NodeId};
use crate::module::{GraphRef, Module};
use crate::op::OpKind;
use crate::subgraph::SubGraphId;
use rdg_tensor::DType;
use std::collections::HashMap;
use std::fmt;

/// One abstract dimension extent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbsDim {
    /// Statically known extent.
    Known(usize),
    /// Runtime-determined extent with a stable identity (symbol `k`).
    Sym(u32),
    /// Unknown extent.
    Top,
}

impl AbsDim {
    /// Lattice join: equal values are preserved, anything else is ⊤.
    pub fn join(self, other: AbsDim) -> AbsDim {
        if self == other {
            self
        } else {
            AbsDim::Top
        }
    }

    /// The statically known extent, if any.
    pub fn known(self) -> Option<usize> {
        match self {
            AbsDim::Known(n) => Some(n),
            _ => None,
        }
    }

    /// Refinement for dims that *must* be equal at run time: prefer the
    /// more precise side (`Known` over `Sym` over `Top`).
    fn prefer_known(self, other: AbsDim) -> AbsDim {
        match (self, other) {
            (AbsDim::Known(_), _) => self,
            (_, AbsDim::Known(_)) => other,
            (AbsDim::Sym(_), _) => self,
            (_, AbsDim::Sym(_)) => other,
            _ => AbsDim::Top,
        }
    }

    /// `true` only when both extents are `Known` and differ — the sole
    /// situation where equality is definitely violated.
    fn conflicts(self, other: AbsDim) -> bool {
        matches!((self, other), (AbsDim::Known(a), AbsDim::Known(b)) if a != b)
    }
}

impl fmt::Display for AbsDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsDim::Known(n) => write!(f, "{n}"),
            AbsDim::Sym(k) => write!(f, "s{k}"),
            AbsDim::Top => write!(f, "?"),
        }
    }
}

/// One abstract tensor shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbsShape {
    /// No value has reached this port (unreached code).
    Bottom,
    /// A tensor of this rank with the given per-dimension extents.
    Dims(Vec<AbsDim>),
    /// Any shape.
    Top,
}

impl AbsShape {
    /// Abstract shape of a concrete tensor shape.
    pub fn from_dims(dims: &[usize]) -> AbsShape {
        AbsShape::Dims(dims.iter().map(|&d| AbsDim::Known(d)).collect())
    }

    /// The scalar shape `[]`.
    pub fn scalar() -> AbsShape {
        AbsShape::Dims(Vec::new())
    }

    /// Lattice join.
    pub fn join(&self, other: &AbsShape) -> AbsShape {
        match (self, other) {
            (AbsShape::Bottom, x) | (x, AbsShape::Bottom) => x.clone(),
            (AbsShape::Top, _) | (_, AbsShape::Top) => AbsShape::Top,
            (AbsShape::Dims(a), AbsShape::Dims(b)) => {
                if a.len() != b.len() {
                    AbsShape::Top
                } else {
                    AbsShape::Dims(a.iter().zip(b).map(|(&x, &y)| x.join(y)).collect())
                }
            }
        }
    }

    /// `true` when every extent is statically known.
    pub fn fully_known(&self) -> bool {
        match self {
            AbsShape::Dims(d) => d.iter().all(|x| x.known().is_some()),
            _ => false,
        }
    }

    /// Element count, when every extent is known.
    pub fn numel(&self) -> Option<usize> {
        match self {
            AbsShape::Dims(d) => d.iter().try_fold(1usize, |acc, x| Some(acc * x.known()?)),
            _ => None,
        }
    }

    /// `true` when the value *might* be scalar-like (`numel == 1`) at run
    /// time — i.e. broadcastable under the elementwise kernels.
    fn could_be_scalar(&self) -> bool {
        match self {
            AbsShape::Bottom | AbsShape::Top => true,
            AbsShape::Dims(d) => d.iter().all(|x| x.known().is_none_or(|n| n == 1)),
        }
    }
}

impl fmt::Display for AbsShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsShape::Bottom => write!(f, "⊥"),
            AbsShape::Top => write!(f, "⊤"),
            AbsShape::Dims(d) => {
                write!(f, "[")?;
                for (i, x) in d.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// A matrix view of an abstract shape, mirroring `Shape::as_matrix`:
/// rank-1 `[n]` is a single row, rank 0 and rank > 2 are never matrices.
enum Mat {
    /// The shape is ⊤/⊥ — could be anything.
    Unknown,
    /// Definitely not viewable as a matrix.
    Bad,
    /// Rows and columns.
    Rc(AbsDim, AbsDim),
}

fn mat(s: &AbsShape) -> Mat {
    match s {
        AbsShape::Bottom | AbsShape::Top => Mat::Unknown,
        AbsShape::Dims(d) => match d.len() {
            1 => Mat::Rc(AbsDim::Known(1), d[0]),
            2 => Mat::Rc(d[0], d[1]),
            _ => Mat::Bad,
        },
    }
}

/// Inferred shapes for every output port of every node in a module.
pub struct ShapeMap {
    /// `graphs[0]` is main; `graphs[1 + k]` is SubGraph `k`. Inner index:
    /// `[node][out_port]`.
    graphs: Vec<Vec<Vec<AbsShape>>>,
}

impl ShapeMap {
    fn slot(gref: GraphRef) -> usize {
        match gref {
            GraphRef::Main => 0,
            GraphRef::Sub(SubGraphId(k)) => 1 + k as usize,
        }
    }

    /// Shape of one output port.
    pub fn get(&self, gref: GraphRef, node: NodeId, port: u16) -> &AbsShape {
        &self.graphs[Self::slot(gref)][node.0 as usize][port as usize]
    }

    /// Per-node, per-port shapes for one graph.
    pub fn graph_shapes(&self, gref: GraphRef) -> &Vec<Vec<AbsShape>> {
        &self.graphs[Self::slot(gref)]
    }
}

/// The fixpoint engine.
struct Infer<'m> {
    m: &'m Module,
    /// Stored output shapes, join-accumulated: `[slot][node][port]`.
    shapes: Vec<Vec<Vec<AbsShape>>>,
    /// Join of all call-site argument shapes per SubGraph input.
    sub_inputs: Vec<Vec<AbsShape>>,
    /// SubGraphs that at least one evaluated call site targets.
    reached: Vec<bool>,
    /// Pre-minted symbol per `ZerosDyn` node, keyed by `(slot, node)`.
    syms: HashMap<(usize, usize), u32>,
    changed: bool,
}

/// All graphs of a module as `(slot, gref)` pairs, main first.
fn all_graphs(m: &Module) -> Vec<(usize, GraphRef)> {
    let mut v = vec![(0usize, GraphRef::Main)];
    for k in 0..m.subgraphs.len() {
        v.push((1 + k, GraphRef::Sub(SubGraphId(k as u32))));
    }
    v
}

impl<'m> Infer<'m> {
    fn new(m: &'m Module) -> Self {
        let mut shapes = Vec::new();
        let mut syms = HashMap::new();
        let mut next_sym = 0u32;
        for (slot, gref) in all_graphs(m) {
            let g = m.graph(gref);
            let mut per_node = Vec::with_capacity(g.len());
            for (i, n) in g.nodes.iter().enumerate() {
                if let OpKind::ZerosDyn { .. } = n.op {
                    syms.insert((slot, i), next_sym);
                    next_sym += 1;
                }
                per_node.push(vec![AbsShape::Bottom; n.op.n_outputs()]);
            }
            shapes.push(per_node);
        }
        let sub_inputs = m
            .subgraphs
            .iter()
            .map(|sg| vec![AbsShape::Bottom; sg.n_inputs()])
            .collect();
        Infer {
            m,
            shapes,
            sub_inputs,
            reached: vec![false; m.subgraphs.len()],
            syms,
            changed: false,
        }
    }

    fn store(&mut self, slot: usize, node: usize, outs: Vec<AbsShape>) {
        for (port, s) in outs.into_iter().enumerate() {
            let cell = &mut self.shapes[slot][node][port];
            let joined = cell.join(&s);
            if *cell != joined {
                *cell = joined;
                self.changed = true;
            }
        }
    }

    fn join_sub_input(&mut self, sub: SubGraphId, index: usize, s: &AbsShape) {
        let cell = &mut self.sub_inputs[sub.0 as usize][index];
        let joined = cell.join(s);
        if *cell != joined {
            *cell = joined;
            self.changed = true;
        }
    }

    fn mark_reached(&mut self, sub: SubGraphId) {
        if !self.reached[sub.0 as usize] {
            self.reached[sub.0 as usize] = true;
            self.changed = true;
        }
    }

    /// Output-port summaries of a SubGraph: the stored shapes of its
    /// declared output ports.
    fn sub_summary(&self, sub: SubGraphId) -> Vec<AbsShape> {
        let slot = 1 + sub.0 as usize;
        let g = &self.m.subgraph(sub).graph;
        g.outputs
            .iter()
            .map(|p| self.shapes[slot][p.node.0 as usize][p.port as usize].clone())
            .collect()
    }

    /// One evaluation sweep over every reached graph, in declaration order.
    fn sweep(&mut self) {
        for (slot, gref) in all_graphs(self.m) {
            if let GraphRef::Sub(id) = gref {
                if !self.reached[id.0 as usize] {
                    continue;
                }
            }
            let g = self.m.graph(gref);
            // Builder-produced graphs are already topologically ordered by
            // construction; evaluating in node order converges in the same
            // number of sweeps as a topo order would for them, and the
            // outer fixpoint covers hand-forged orderings.
            for i in 0..g.len() {
                let ins: Vec<AbsShape> = g.nodes[i]
                    .inputs
                    .iter()
                    .map(|p| self.shapes[slot][p.node.0 as usize][p.port as usize].clone())
                    .collect();
                let (outs, _) = self.transfer(slot, gref, i, &ins, true);
                self.store(slot, i, outs);
            }
        }
    }

    /// The per-op transfer function. Returns one abstract shape per output
    /// port plus any definite-mismatch details (`(ports, message)`).
    /// During the fixpoint (`propagate == true`) call-site argument shapes
    /// are joined into callee summaries; the reporting pass passes `false`
    /// so it is effect-free.
    fn transfer(
        &mut self,
        slot: usize,
        gref: GraphRef,
        node: usize,
        ins: &[AbsShape],
        propagate: bool,
    ) -> (Vec<AbsShape>, Vec<(Vec<u16>, String)>) {
        use AbsShape::{Dims, Top};
        let op = self.m.graph(gref).nodes[node].op.clone();
        let n_out = op.n_outputs();
        let mut diags: Vec<(Vec<u16>, String)> = Vec::new();

        // A Bottom input means the operand's producer has not been reached
        // yet; outputs stay Bottom and nothing is diagnosed. `Input`,
        // `Const`, `Param` and the cache-reading ops have no data inputs
        // and are always evaluated.
        let has_bottom = ins.iter().any(|s| *s == AbsShape::Bottom);

        let mut err = |ports: Vec<u16>, msg: String| -> AbsShape {
            diags.push((ports, msg));
            Top
        };

        let out: Vec<AbsShape> =
            match &op {
                OpKind::Input { index, .. } => {
                    let s = match gref {
                        GraphRef::Main => Top,
                        GraphRef::Sub(id) => self.sub_inputs[id.0 as usize][*index].clone(),
                    };
                    vec![s]
                }
                OpKind::Const(t) => vec![AbsShape::from_dims(t.shape().dims())],
                OpKind::Param(pid) => {
                    vec![AbsShape::from_dims(
                        self.m.params[pid.0 as usize].init.shape().dims(),
                    )]
                }
                OpKind::FwdValue { .. } | OpKind::FwdZeros { .. } => vec![Top],
                _ if has_bottom => vec![AbsShape::Bottom; n_out],

                OpKind::Identity
                | OpKind::Neg
                | OpKind::Scale(_)
                | OpKind::AddConst(_)
                | OpKind::Tanh
                | OpKind::Sigmoid
                | OpKind::Relu
                | OpKind::Softmax
                | OpKind::LogSoftmax
                | OpKind::ZerosLike
                | OpKind::OnesLike => vec![ins[0].clone()],

                OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div => {
                    vec![ew_binary(&ins[0], &ins[1]).unwrap_or_else(|m| err(vec![0, 1], m))]
                }
                OpKind::TanhGrad
                | OpKind::SigmoidGrad
                | OpKind::ReluGrad
                | OpKind::SoftmaxGrad
                | OpKind::LogSoftmaxGrad => {
                    vec![ew_binary(&ins[0], &ins[1]).unwrap_or_else(|m| err(vec![0, 1], m))]
                }
                OpKind::ScalarMul => {
                    if !ins[1].could_be_scalar() {
                        vec![err(
                            vec![1],
                            format!("scale operand must be a scalar, got {}", ins[1]),
                        )]
                    } else {
                        vec![ins[0].clone()]
                    }
                }

                OpKind::MatMul => vec![matmul_like(&ins[0], &ins[1], false, false)
                    .unwrap_or_else(|m| err(vec![0, 1], m))],
                OpKind::MatMulAT => vec![matmul_like(&ins[0], &ins[1], true, false)
                    .unwrap_or_else(|m| err(vec![0, 1], m))],
                OpKind::MatMulBT => vec![matmul_like(&ins[0], &ins[1], false, true)
                    .unwrap_or_else(|m| err(vec![0, 1], m))],

                OpKind::AddBias => {
                    let a = &ins[0];
                    match (mat(a), ins[1].numel()) {
                        (Mat::Bad, _) => vec![err(
                            vec![0],
                            format!("add_bias operand is not a matrix: {a}"),
                        )],
                        (Mat::Rc(_, c), Some(bn)) if c.known().is_some_and(|n| n != bn) => {
                            vec![err(
                                vec![0, 1],
                                format!("bias of {} elements against {} columns ({a})", bn, c),
                            )]
                        }
                        _ => vec![a.clone()],
                    }
                }

                OpKind::Bilinear => {
                    let x = mat(&ins[0]);
                    let (rows, xc) = match x {
                        Mat::Bad => {
                            return (
                                vec![err(
                                    vec![0],
                                    format!("bilinear input is not a matrix: {}", ins[0]),
                                )],
                                diags,
                            )
                        }
                        Mat::Rc(r, c) => (r, c),
                        Mat::Unknown => (AbsDim::Top, AbsDim::Top),
                    };
                    match &ins[1] {
                        Dims(d) if d.len() == 3 => {
                            if d[1].conflicts(d[2]) || d[1].conflicts(xc) || d[2].conflicts(xc) {
                                vec![err(
                                    vec![0, 1],
                                    format!("bilinear V {} vs input {}", ins[1], ins[0]),
                                )]
                            } else {
                                vec![Dims(vec![rows, d[0]])]
                            }
                        }
                        Dims(_) => vec![err(
                            vec![1],
                            format!("bilinear V must be rank-3, got {}", ins[1]),
                        )],
                        _ => vec![Dims(vec![rows, AbsDim::Top])],
                    }
                }

                OpKind::ConcatCols => match (mat(&ins[0]), mat(&ins[1])) {
                    (Mat::Bad, _) | (_, Mat::Bad) => vec![err(
                        vec![0, 1],
                        format!(
                            "concat_cols operands must be matrices: {} / {}",
                            ins[0], ins[1]
                        ),
                    )],
                    (Mat::Rc(r0, c0), Mat::Rc(r1, c1)) => {
                        if r0.conflicts(r1) {
                            vec![err(
                                vec![0, 1],
                                format!("row counts differ: {} vs {}", ins[0], ins[1]),
                            )]
                        } else {
                            let cols = match (c0.known(), c1.known()) {
                                (Some(p), Some(q)) => AbsDim::Known(p + q),
                                _ => AbsDim::Top,
                            };
                            vec![Dims(vec![r0.prefer_known(r1), cols])]
                        }
                    }
                    _ => vec![Top],
                },

                OpKind::SliceCols { lo, hi } => match mat(&ins[0]) {
                    Mat::Bad => vec![err(
                        vec![0],
                        format!("slice_cols operand is not a matrix: {}", ins[0]),
                    )],
                    Mat::Rc(r, c) => {
                        if c.known().is_some_and(|n| *hi > n) {
                            vec![err(
                                vec![0],
                                format!("slice [{lo},{hi}) out of range for {}", ins[0]),
                            )]
                        } else {
                            vec![Dims(vec![r, AbsDim::Known(hi - lo)])]
                        }
                    }
                    Mat::Unknown => vec![Dims(vec![AbsDim::Top, AbsDim::Known(hi - lo)])],
                },

                OpKind::Transpose => match mat(&ins[0]) {
                    Mat::Bad => vec![err(
                        vec![0],
                        format!("transpose operand is not a matrix: {}", ins[0]),
                    )],
                    Mat::Rc(r, c) => vec![Dims(vec![c, r])],
                    Mat::Unknown => vec![Top],
                },

                OpKind::StackRows => {
                    let mut d: Option<usize> = None;
                    let mut bad = None;
                    for (i, s) in ins.iter().enumerate() {
                        if let Some(n) = s.numel() {
                            match d {
                                Some(prev) if prev != n => {
                                    bad = Some((i, prev, n));
                                    break;
                                }
                                _ => d = Some(n),
                            }
                        }
                    }
                    if let Some((i, prev, n)) = bad {
                        vec![err(
                            vec![i as u16],
                            format!("stack_rows parts differ in size: {prev} vs {n}"),
                        )]
                    } else {
                        let cols = d.map(AbsDim::Known).unwrap_or(AbsDim::Top);
                        vec![Dims(vec![AbsDim::Known(ins.len()), cols])]
                    }
                }

                OpKind::SumAll | OpKind::MeanAll => vec![AbsShape::scalar()],
                OpKind::SumAxis0 => match mat(&ins[0]) {
                    Mat::Bad => vec![err(
                        vec![0],
                        format!("sum_axis0 operand is not a matrix: {}", ins[0]),
                    )],
                    Mat::Rc(_, c) => vec![Dims(vec![c])],
                    Mat::Unknown => vec![Top],
                },

                OpKind::GatherRows => {
                    let d = match mat(&ins[0]) {
                        Mat::Bad => {
                            return (
                                vec![err(
                                    vec![0],
                                    format!("gather_rows table is not a matrix: {}", ins[0]),
                                )],
                                diags,
                            )
                        }
                        Mat::Rc(_, c) => c,
                        Mat::Unknown => AbsDim::Top,
                    };
                    let rows = ins[1].numel().map(AbsDim::Known).unwrap_or(AbsDim::Top);
                    vec![Dims(vec![rows, d])]
                }
                OpKind::GetRow => {
                    let d = match mat(&ins[0]) {
                        Mat::Bad => {
                            return (
                                vec![err(
                                    vec![0],
                                    format!("get_row operand is not a matrix: {}", ins[0]),
                                )],
                                diags,
                            )
                        }
                        Mat::Rc(_, c) => c,
                        Mat::Unknown => AbsDim::Top,
                    };
                    if !ins[1].could_be_scalar() {
                        vec![err(
                            vec![1],
                            format!("row index must be a scalar, got {}", ins[1]),
                        )]
                    } else {
                        vec![Dims(vec![AbsDim::Known(1), d])]
                    }
                }
                OpKind::SetRow => {
                    if !ins[1].could_be_scalar() {
                        vec![err(
                            vec![1],
                            format!("row index must be a scalar, got {}", ins[1]),
                        )]
                    } else {
                        match (mat(&ins[0]), ins[2].numel()) {
                            (Mat::Rc(_, c), Some(rn)) if c.known().is_some_and(|n| n != rn) => {
                                vec![err(
                                    vec![0, 2],
                                    format!("row of {rn} elements into {} columns", c),
                                )]
                            }
                            (Mat::Bad, _) => vec![err(
                                vec![0],
                                format!("set_row target is not a matrix: {}", ins[0]),
                            )],
                            _ => vec![ins[0].clone()],
                        }
                    }
                }
                OpKind::OneHot { classes } => {
                    let rows = ins[0].numel().map(AbsDim::Known).unwrap_or(AbsDim::Top);
                    vec![Dims(vec![rows, AbsDim::Known(*classes)])]
                }
                OpKind::ArgmaxRows => match mat(&ins[0]) {
                    Mat::Bad => vec![err(
                        vec![0],
                        format!("argmax_rows operand is not a matrix: {}", ins[0]),
                    )],
                    Mat::Rc(r, _) => vec![Dims(vec![r])],
                    Mat::Unknown => vec![Top],
                },

                OpKind::SoftmaxXent => match mat(&ins[0]) {
                    Mat::Bad => vec![err(
                        vec![0],
                        format!("softmax_xent logits are not a matrix: {}", ins[0]),
                    )],
                    Mat::Rc(r, _) => {
                        if let (Some(m), Some(ln)) = (r.known(), ins[1].numel()) {
                            if m != ln {
                                return (
                                    vec![err(
                                        vec![0, 1],
                                        format!("{ln} labels against {m} logit rows"),
                                    )],
                                    diags,
                                );
                            }
                        }
                        vec![Dims(vec![r])]
                    }
                    Mat::Unknown => vec![Top],
                },

                OpKind::IAdd
                | OpKind::ISub
                | OpKind::IMul
                | OpKind::IDiv
                | OpKind::ILt
                | OpKind::ILe
                | OpKind::IGt
                | OpKind::IGe
                | OpKind::IEq
                | OpKind::And
                | OpKind::Or
                | OpKind::Not
                | OpKind::FGtConst(_) => {
                    let mut out = AbsShape::scalar();
                    for (i, s) in ins.iter().enumerate() {
                        if !s.could_be_scalar() {
                            out = err(vec![i as u16], format!("operand must be a scalar, got {s}"));
                            break;
                        }
                    }
                    vec![out]
                }
                OpKind::GatherScalarI32 => {
                    if !ins[1].could_be_scalar() {
                        vec![err(
                            vec![1],
                            format!("index must be a scalar, got {}", ins[1]),
                        )]
                    } else {
                        vec![AbsShape::scalar()]
                    }
                }
                OpKind::Len => vec![AbsShape::scalar()],
                OpKind::ZerosDyn { cols } => {
                    if !ins[0].could_be_scalar() {
                        vec![err(
                            vec![0],
                            format!("row count must be a scalar, got {}", ins[0]),
                        )]
                    } else {
                        let sym = self.syms[&(slot, node)];
                        vec![Dims(vec![AbsDim::Sym(sym), AbsDim::Known(*cols)])]
                    }
                }

                OpKind::Invoke { sub, .. } => {
                    if propagate {
                        self.mark_reached(*sub);
                        for (i, s) in ins.iter().enumerate() {
                            self.join_sub_input(*sub, i, s);
                        }
                    }
                    self.sub_summary(*sub)
                }
                OpKind::Cond {
                    sub_then,
                    sub_else,
                    n_then_in,
                    ..
                } => {
                    let nt = *n_then_in as usize;
                    if propagate {
                        self.mark_reached(*sub_then);
                        self.mark_reached(*sub_else);
                        for (i, s) in ins[1..1 + nt].iter().enumerate() {
                            self.join_sub_input(*sub_then, i, s);
                        }
                        for (i, s) in ins[1 + nt..].iter().enumerate() {
                            self.join_sub_input(*sub_else, i, s);
                        }
                    }
                    if !ins[0].could_be_scalar() {
                        diags.push((
                            vec![0],
                            format!("cond predicate must be a scalar, got {}", ins[0]),
                        ));
                    }
                    let t = self.sub_summary(*sub_then);
                    let e = self.sub_summary(*sub_else);
                    t.iter().zip(e.iter()).map(|(a, b)| a.join(b)).collect()
                }

                OpKind::SoftmaxXentGrad => vec![ins[0].clone()],
                OpKind::MeanAllGrad | OpKind::FillLike | OpKind::BroadcastRowsLike => {
                    vec![ins[0].clone()]
                }
                OpKind::PadColsLike { .. } => vec![ins[0].clone()],
                OpKind::SliceColsLike { take_second } => {
                    let w = if *take_second { &ins[1] } else { &ins[0] };
                    let rows = match mat(&ins[2]) {
                        Mat::Rc(r, _) => r,
                        _ => AbsDim::Top,
                    };
                    let cols = match mat(w) {
                        Mat::Rc(_, c) => c,
                        _ => AbsDim::Top,
                    };
                    vec![Dims(vec![rows, cols])]
                }
                OpKind::ScatterRowsLike | OpKind::ScatterRowLike => vec![ins[0].clone()],
                OpKind::BilinearGradX => vec![ins[0].clone()],
                OpKind::BilinearGradV => vec![ins[1].clone()],
                OpKind::GradSink { .. } | OpKind::GradSinkRows { .. } => vec![AbsShape::scalar()],
                OpKind::GradSinkOuter { param } => {
                    // `aᵀ·dy` is checked like the `MatMulAT` it replaces,
                    // then against the parameter it is accumulated for.
                    let w =
                        AbsShape::from_dims(self.m.params[param.0 as usize].init.shape().dims());
                    let fits = matmul_like(&ins[0], &ins[1], true, false).and_then(|g| {
                        match (mat(&g), mat(&w)) {
                            (Mat::Rc(m, n), Mat::Rc(pm, pn))
                                if !m.conflicts(pm) && !n.conflicts(pn) =>
                            {
                                Ok(AbsShape::scalar())
                            }
                            _ => Err(format!("gradient {g} into parameter {w}")),
                        }
                    });
                    vec![fits.unwrap_or_else(|msg| err(vec![0, 1], msg))]
                }
            };
        debug_assert_eq!(out.len(), n_out);
        (out, diags)
    }
}

/// Elementwise binary result: exact shape match (refined elementwise) or a
/// possible scalar broadcast; errors only when definitely neither.
fn ew_binary(a: &AbsShape, b: &AbsShape) -> Result<AbsShape, String> {
    use AbsShape::{Dims, Top};
    match (a, b) {
        (Top, _) | (_, Top) | (AbsShape::Bottom, _) | (_, AbsShape::Bottom) => Ok(Top),
        (Dims(x), Dims(y)) => {
            let equal_ok = x.len() == y.len() && !x.iter().zip(y).any(|(&p, &q)| p.conflicts(q));
            if equal_ok {
                Ok(Dims(
                    x.iter().zip(y).map(|(&p, &q)| p.prefer_known(q)).collect(),
                ))
            } else if a.could_be_scalar() {
                Ok(b.clone())
            } else if b.could_be_scalar() {
                Ok(a.clone())
            } else {
                Err(format!("elementwise shapes incompatible: {a} vs {b}"))
            }
        }
    }
}

/// Matrix-product result shape for the three `MatMul` variants.
fn matmul_like(a: &AbsShape, b: &AbsShape, at: bool, bt: bool) -> Result<AbsShape, String> {
    let (ka, m) = match mat(a) {
        Mat::Bad => return Err(format!("matmul lhs is not a matrix: {a}")),
        Mat::Rc(r, c) => {
            if at {
                (r, c) // A: [k, m], used as Aᵀ
            } else {
                (c, r) // A: [m, k]
            }
        }
        Mat::Unknown => (AbsDim::Top, AbsDim::Top),
    };
    let (kb, n) = match mat(b) {
        Mat::Bad => return Err(format!("matmul rhs is not a matrix: {b}")),
        Mat::Rc(r, c) => {
            if bt {
                (c, r) // B: [n, k], used as Bᵀ
            } else {
                (r, c) // B: [k, n]
            }
        }
        Mat::Unknown => (AbsDim::Top, AbsDim::Top),
    };
    if ka.conflicts(kb) {
        return Err(format!(
            "inner dimensions differ: {a} vs {b} (k={ka} vs k={kb})"
        ));
    }
    Ok(AbsShape::Dims(vec![m, n]))
}

/// Expected input dtypes of an op, where fixed. `None` entries accept any
/// dtype. Ops with no constraints return an empty list.
fn expected_input_dtypes(op: &OpKind, arity: usize) -> Vec<Option<DType>> {
    use DType::{F32, I32};
    let all = |d: DType| vec![Some(d); arity];
    match op {
        OpKind::Add
        | OpKind::Sub
        | OpKind::Mul
        | OpKind::Div
        | OpKind::Neg
        | OpKind::Scale(_)
        | OpKind::AddConst(_)
        | OpKind::ScalarMul
        | OpKind::MatMul
        | OpKind::MatMulAT
        | OpKind::MatMulBT
        | OpKind::AddBias
        | OpKind::Bilinear
        | OpKind::Tanh
        | OpKind::Sigmoid
        | OpKind::Relu
        | OpKind::Softmax
        | OpKind::LogSoftmax
        | OpKind::ConcatCols
        | OpKind::SliceCols { .. }
        | OpKind::Transpose
        | OpKind::StackRows
        | OpKind::SumAll
        | OpKind::MeanAll
        | OpKind::SumAxis0
        | OpKind::FGtConst(_)
        | OpKind::TanhGrad
        | OpKind::SigmoidGrad
        | OpKind::ReluGrad
        | OpKind::SoftmaxGrad
        | OpKind::LogSoftmaxGrad
        | OpKind::MeanAllGrad
        | OpKind::FillLike
        | OpKind::BroadcastRowsLike
        | OpKind::PadColsLike { .. }
        | OpKind::SliceColsLike { .. }
        | OpKind::BilinearGradX
        | OpKind::BilinearGradV
        | OpKind::GradSink { .. }
        | OpKind::GradSinkOuter { .. } => all(F32),
        OpKind::ArgmaxRows => all(F32),
        OpKind::IAdd
        | OpKind::ISub
        | OpKind::IMul
        | OpKind::IDiv
        | OpKind::ILt
        | OpKind::ILe
        | OpKind::IGt
        | OpKind::IGe
        | OpKind::IEq
        | OpKind::And
        | OpKind::Or
        | OpKind::Not
        | OpKind::GatherScalarI32
        | OpKind::ZerosDyn { .. }
        | OpKind::OneHot { .. } => all(I32),
        OpKind::GatherRows | OpKind::GetRow => vec![Some(F32), Some(I32)],
        OpKind::SetRow => vec![Some(F32), Some(I32), Some(F32)],
        OpKind::SoftmaxXent => vec![Some(F32), Some(I32)],
        OpKind::SoftmaxXentGrad | OpKind::ScatterRowsLike | OpKind::ScatterRowLike => {
            vec![Some(F32), Some(I32), Some(F32)]
        }
        OpKind::GradSinkRows { .. } => vec![Some(I32), Some(F32)],
        _ => vec![None; arity],
    }
}

/// Dtype findings for one node (checked against producers' declared output
/// dtypes, so forged graphs the builder would reject are caught too).
fn dtype_diags(m: &Module, gref: GraphRef, g: &Graph, node: usize) -> Vec<(Vec<u16>, String)> {
    let n = &g.nodes[node];
    let mut out = Vec::new();
    match &n.op {
        OpKind::Invoke { sub, .. } => {
            let sg = m.subgraph(*sub);
            for (i, p) in n.inputs.iter().enumerate() {
                let got = g.port_dtype(*p);
                if let Some(&want) = sg.input_dtypes.get(i) {
                    if got != want {
                        out.push((
                            vec![i as u16],
                            format!(
                                "invoke of {}: arg {i} is {got:?}, expected {want:?}",
                                sg.name
                            ),
                        ));
                    }
                }
            }
        }
        OpKind::Cond {
            sub_then,
            sub_else,
            n_then_in,
            ..
        } => {
            let nt = *n_then_in as usize;
            if g.port_dtype(n.inputs[0]) != DType::I32 {
                out.push((vec![0], "cond predicate must be i32".to_string()));
            }
            for (i, p) in n.inputs[1..].iter().enumerate() {
                let (sg, j) = if i < nt {
                    (m.subgraph(*sub_then), i)
                } else {
                    (m.subgraph(*sub_else), i - nt)
                };
                let got = g.port_dtype(*p);
                if let Some(&want) = sg.input_dtypes.get(j) {
                    if got != want {
                        out.push((
                            vec![(i + 1) as u16],
                            format!(
                                "cond input {} routed to {}: is {got:?}, expected {want:?}",
                                i + 1,
                                sg.name
                            ),
                        ));
                    }
                }
            }
        }
        op => {
            for (i, (p, want)) in n
                .inputs
                .iter()
                .zip(expected_input_dtypes(op, n.inputs.len()))
                .enumerate()
            {
                if let Some(want) = want {
                    let got = g.port_dtype(*p);
                    if got != want {
                        out.push((
                            vec![i as u16],
                            format!("operand {i} is {got:?}, expected {want:?}"),
                        ));
                    }
                }
            }
        }
    }
    let _ = gref;
    out
}

/// Runs interprocedural shape/dtype inference over `m`, appending
/// `shape-mismatch` / `dtype-mismatch` errors to `diags`, and returns the
/// inferred [`ShapeMap`].
pub fn infer_shapes(m: &Module, diags: &mut Vec<Diagnostic>) -> ShapeMap {
    let mut inf = Infer::new(m);
    // Finite-height lattice + join-only updates ⇒ convergence; the cap is
    // a backstop that can only trigger on adversarial hand-forged graphs.
    let cap = 8 + 2 * m.total_nodes() + 4 * m.subgraphs.len();
    for _ in 0..cap {
        inf.changed = false;
        inf.sweep();
        if !inf.changed {
            break;
        }
    }

    // Reporting pass: shapes are final, so each definite mismatch is
    // reported exactly once, and never from unreached SubGraphs.
    for (slot, gref) in all_graphs(m) {
        if let GraphRef::Sub(id) = gref {
            if !inf.reached[id.0 as usize] {
                continue;
            }
        }
        let g = m.graph(gref);
        for i in 0..g.len() {
            let ins: Vec<AbsShape> = g.nodes[i]
                .inputs
                .iter()
                .map(|p| inf.shapes[slot][p.node.0 as usize][p.port as usize].clone())
                .collect();
            let (_, shape_errs) = inf.transfer(slot, gref, i, &ins, false);
            for (ports, detail) in shape_errs {
                diags.push(node_diag(
                    m,
                    gref,
                    NodeId(i as u32),
                    Severity::Error,
                    codes::SHAPE_MISMATCH,
                    ports,
                    detail,
                ));
            }
            for (ports, detail) in dtype_diags(m, gref, g, i) {
                diags.push(node_diag(
                    m,
                    gref,
                    NodeId(i as u32),
                    Severity::Error,
                    codes::DTYPE_MISMATCH,
                    ports,
                    detail,
                ));
            }
        }
    }
    ShapeMap { graphs: inf.shapes }
}
