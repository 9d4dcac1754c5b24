//! The gradient-graph builder.

use rdg_graph::{
    CallSiteId, Graph, GraphError, GraphRef, Module, NodeId, OpKind, PortRef, SubGraph, SubGraphId,
};
use rdg_tensor::{DType, Tensor};
use std::collections::{HashMap, HashSet};

/// Signature of a declared (possibly not-yet-built) gradient SubGraph.
#[derive(Clone, Debug)]
struct GradDecl {
    /// Id of `∇S` in the extended module.
    id: SubGraphId,
    /// Forward output indices that are `f32` (one `∇S` input per entry).
    dy_outputs: Vec<usize>,
    /// Forward input indices that are `f32` (one `∇S` output per entry).
    f32_inputs: Vec<usize>,
}

/// Pending gradient-body construction jobs.
enum Job {
    /// Build the body of `∇S` for SubGraph `fwd`.
    Sub { fwd: SubGraphId, decl: GradDecl },
    /// Build the extended gradient of one cond branch: gradients of `fwd`,
    /// padded with pass-through zeros for `other`'s inputs so both branch
    /// gradients share an output signature.
    Branch {
        fwd: SubGraphId,
        other: SubGraphId,
        /// `true` → outputs are `[grads(fwd) ++ zeros(other)]`,
        /// `false` → `[zeros(other) ++ grads(fwd)]`.
        self_first: bool,
        id: SubGraphId,
    },
}

/// State for differentiating one forward graph into one output graph.
struct DiffState {
    /// Snapshot of the forward graph.
    fwd: Graph,
    /// `None` → the main graph (gradient nodes reference forward ports
    /// directly); `Some(id)` → a SubGraph (references go through the cache).
    fwd_sub: Option<SubGraphId>,
    /// Graph receiving gradient nodes (the main graph itself, or a new one).
    out: Graph,
    /// Pending gradient contributions per forward port.
    contrib: HashMap<(u32, u16), Vec<PortRef>>,
    /// Memo for forward-value references.
    vref: HashMap<(u32, u16), PortRef>,
    /// Memo for forward-shape (zeros) references.
    zref: HashMap<(u32, u16), PortRef>,
    /// Gradients that reached `Input` nodes, by forward input index.
    input_grads: HashMap<usize, PortRef>,
}

impl DiffState {
    fn n1(&mut self, op: OpKind, inputs: Vec<PortRef>, dt: DType) -> PortRef {
        PortRef::of(self.out.push_node(op, inputs, vec![dt]))
    }

    fn add_contrib(&mut self, fwd_port: PortRef, g: PortRef) {
        self.contrib
            .entry((fwd_port.node.0, fwd_port.port))
            .or_default()
            .push(g);
    }

    /// Contributes `xᵀ·y` to the gradient of forward port `w`. Weight fast
    /// path: when `w` is read straight from a parameter the product goes
    /// into a factored sink and is never materialized; any other operand
    /// gets the dense `MatMulAT`.
    fn weight_grad(&mut self, w: PortRef, x: PortRef, y: PortRef) {
        if let OpKind::Param(p) = self.fwd.node(w.node).op {
            self.n1(OpKind::GradSinkOuter { param: p }, vec![x, y], DType::F32);
        } else {
            let d = self.n1(OpKind::MatMulAT, vec![x, y], DType::F32);
            self.add_contrib(w, d);
        }
    }

    fn finalize(&mut self, node: NodeId, port: u16) -> Option<PortRef> {
        let v = self.contrib.remove(&(node.0, port))?;
        let mut it = v.into_iter();
        let first = it.next()?;
        Some(it.fold(first, |acc, g| {
            self.n1(OpKind::Add, vec![acc, g], DType::F32)
        }))
    }
}

/// Builds gradient graphs across a whole module.
struct GradBuilder {
    module: Module,
    memo: HashMap<SubGraphId, Option<GradDecl>>,
    branch_memo: HashMap<(SubGraphId, bool), SubGraphId>,
    pending: Vec<Job>,
    keep: HashMap<GraphRef, HashSet<(NodeId, u16)>>,
    shape_keep: HashMap<GraphRef, HashSet<(NodeId, u16)>>,
}

/// Extends `fwd` with backpropagation of `loss` (a scalar `f32` port in the
/// main graph), returning the training module.
///
/// The returned module keeps the forward outputs unchanged; executing it in
/// training mode additionally fills the gradient store. Keep-sets for the
/// backprop cache are attached to the module.
pub fn build_training_module(fwd: &Module, loss: PortRef) -> rdg_graph::Result<Module> {
    fwd.validate()?;
    if loss.node.0 as usize >= fwd.main.len() {
        return Err(GraphError::invalid(
            "loss port does not exist in the main graph",
        ));
    }
    if fwd.main.port_dtype(loss) != DType::F32 {
        return Err(GraphError::invalid("loss must be an f32 port"));
    }
    let mut gb = GradBuilder {
        module: fwd.clone(),
        memo: HashMap::new(),
        branch_memo: HashMap::new(),
        pending: Vec::new(),
        keep: HashMap::new(),
        shape_keep: HashMap::new(),
    };
    gb.diff_main(loss)?;
    while let Some(job) = gb.pending.pop() {
        match job {
            Job::Sub { fwd, decl } => gb.build_sub(fwd, decl)?,
            Job::Branch {
                fwd,
                other,
                self_first,
                id,
            } => gb.build_branch(fwd, other, self_first, id)?,
        }
    }
    gb.module.keep_sets = gb.keep;
    gb.module.shape_keep_sets = gb.shape_keep;
    // Reverse-mode rules emit contributions speculatively; chains whose
    // tail reaches a gradient-free origin (e.g. a ZerosDyn state table)
    // end up dead. Prune them so the generated module is analyzer-clean
    // and the executor skips the wasted kernels.
    rdg_graph::analyze::prune_dead(&mut gb.module);
    gb.module.validate()?;
    Ok(gb.module)
}

impl GradBuilder {
    // -- forward-value references -----------------------------------------

    /// A port in `st.out` carrying the forward value of `p`.
    fn ref_value(&mut self, st: &mut DiffState, p: PortRef) -> PortRef {
        if let Some(&r) = st.vref.get(&(p.node.0, p.port)) {
            return r;
        }
        let dt = st.fwd.port_dtype(p);
        let r = match &st.fwd.node(p.node).op {
            OpKind::Const(t) => st.n1(OpKind::Const(t.clone()), vec![], dt),
            OpKind::Param(pid) => st.n1(OpKind::Param(*pid), vec![], dt),
            _ => match st.fwd_sub {
                None => p, // main graph: the forward node is in `out` itself
                Some(sub) => {
                    self.keep
                        .entry(GraphRef::Sub(sub))
                        .or_default()
                        .insert((p.node, p.port));
                    st.n1(OpKind::FwdValue { of: p }, vec![], dt)
                }
            },
        };
        st.vref.insert((p.node.0, p.port), r);
        r
    }

    /// A port in `st.out` carrying zeros shaped like the forward value of
    /// `p` (a shape witness; only the shape is retained for SubGraphs).
    fn ref_zeros(&mut self, st: &mut DiffState, p: PortRef) -> PortRef {
        if let Some(&r) = st.zref.get(&(p.node.0, p.port)) {
            return r;
        }
        let r = match st.fwd_sub {
            None => st.n1(OpKind::ZerosLike, vec![p], DType::F32),
            Some(sub) => {
                self.shape_keep
                    .entry(GraphRef::Sub(sub))
                    .or_default()
                    .insert((p.node, p.port));
                st.n1(OpKind::FwdZeros { of: p }, vec![], DType::F32)
            }
        };
        st.zref.insert((p.node.0, p.port), r);
        r
    }

    // -- declarations ------------------------------------------------------

    /// Declares `∇S` (allocating its id and signature) without building the
    /// body; returns `None` when no gradient can flow into `S` (no `f32`
    /// outputs).
    fn declare_grad(&mut self, sub: SubGraphId) -> Option<GradDecl> {
        if let Some(d) = self.memo.get(&sub) {
            return d.clone();
        }
        let sg = &self.module.subgraphs[sub.0 as usize];
        let dy_outputs: Vec<usize> = sg
            .output_dtypes
            .iter()
            .enumerate()
            .filter(|(_, &dt)| dt == DType::F32)
            .map(|(i, _)| i)
            .collect();
        if dy_outputs.is_empty() {
            self.memo.insert(sub, None);
            return None;
        }
        let f32_inputs: Vec<usize> = sg
            .input_dtypes
            .iter()
            .enumerate()
            .filter(|(_, &dt)| dt == DType::F32)
            .map(|(i, _)| i)
            .collect();
        let name = format!("grad_{}", sg.name);
        let n_in = sg.input_dtypes.len();
        let id = SubGraphId(self.module.subgraphs.len() as u32);
        let mut grad_input_map = vec![None; n_in];
        for (j, &i) in f32_inputs.iter().enumerate() {
            grad_input_map[i] = Some(j);
        }
        self.module.subgraphs.push(SubGraph {
            id,
            name,
            graph: Graph::new(),
            input_dtypes: vec![DType::F32; dy_outputs.len()],
            explicit_inputs: dy_outputs.len(),
            output_dtypes: vec![DType::F32; f32_inputs.len()],
            grad_of: Some(sub),
            grad_input_map,
        });
        let decl = GradDecl {
            id,
            dy_outputs,
            f32_inputs,
        };
        self.memo.insert(sub, Some(decl.clone()));
        self.pending.push(Job::Sub {
            fwd: sub,
            decl: decl.clone(),
        });
        Some(decl)
    }

    /// Declares the extended gradient of cond branch `fwd` (see [`Job::Branch`]).
    fn declare_branch_grad(
        &mut self,
        fwd: SubGraphId,
        other: SubGraphId,
        self_first: bool,
    ) -> SubGraphId {
        if let Some(&id) = self.branch_memo.get(&(fwd, self_first)) {
            return id;
        }
        let fsg = &self.module.subgraphs[fwd.0 as usize];
        let osg = &self.module.subgraphs[other.0 as usize];
        let n_dys = fsg
            .output_dtypes
            .iter()
            .filter(|&&d| d == DType::F32)
            .count();
        let n_self = fsg
            .input_dtypes
            .iter()
            .filter(|&&d| d == DType::F32)
            .count();
        let n_other = osg
            .input_dtypes
            .iter()
            .filter(|&&d| d == DType::F32)
            .count();
        let name = format!("grad_{}", fsg.name);
        let id = SubGraphId(self.module.subgraphs.len() as u32);
        self.module.subgraphs.push(SubGraph {
            id,
            name,
            graph: Graph::new(),
            input_dtypes: vec![DType::F32; n_dys + n_other],
            explicit_inputs: n_dys + n_other,
            output_dtypes: vec![DType::F32; n_self + n_other],
            grad_of: Some(fwd),
            grad_input_map: Vec::new(),
        });
        self.branch_memo.insert((fwd, self_first), id);
        self.pending.push(Job::Branch {
            fwd,
            other,
            self_first,
            id,
        });
        id
    }

    // -- body construction ---------------------------------------------------

    fn diff_main(&mut self, loss: PortRef) -> rdg_graph::Result<()> {
        let snapshot = self.module.main.clone();
        let out = std::mem::take(&mut self.module.main);
        let mut st = DiffState {
            fwd: snapshot,
            fwd_sub: None,
            out,
            contrib: HashMap::new(),
            vref: HashMap::new(),
            zref: HashMap::new(),
            input_grads: HashMap::new(),
        };
        // Seed dL/dL = 1. `OnesLike(loss)` rather than a constant: the data
        // dependency on the loss port orders the entire backward sweep after
        // the forward frames whose activations it reads from the cache (a
        // forward InvokeOp completes only when its whole frame subtree has
        // completed, i.e. after all its cache writes).
        let one = st.n1(OpKind::OnesLike, vec![loss], DType::F32);
        st.add_contrib(loss, one);
        self.diff_body(&mut st)?;
        self.module.main = st.out;
        Ok(())
    }

    fn build_sub(&mut self, fwd: SubGraphId, decl: GradDecl) -> rdg_graph::Result<()> {
        let fsg = self.module.subgraphs[fwd.0 as usize].clone();
        let mut st = DiffState {
            fwd: fsg.graph.clone(),
            fwd_sub: Some(fwd),
            out: Graph::new(),
            contrib: HashMap::new(),
            vref: HashMap::new(),
            zref: HashMap::new(),
            input_grads: HashMap::new(),
        };
        for (j, &k) in decl.dy_outputs.iter().enumerate() {
            let dy = PortRef::of(st.out.push_node(
                OpKind::Input {
                    index: j,
                    dtype: DType::F32,
                },
                vec![],
                vec![DType::F32],
            ));
            st.add_contrib(fsg.graph.outputs[k], dy);
        }
        self.diff_body(&mut st)?;
        let mut outputs = Vec::with_capacity(decl.f32_inputs.len());
        for &i in &decl.f32_inputs {
            let port = match st.input_grads.get(&i) {
                Some(&g) => g,
                None => {
                    let fwd_in = PortRef::of(fsg.graph.input_nodes[i]);
                    self.ref_zeros(&mut st, fwd_in)
                }
            };
            outputs.push(port);
        }
        st.out.outputs = outputs;
        self.module.subgraphs[decl.id.0 as usize].graph = st.out;
        Ok(())
    }

    fn build_branch(
        &mut self,
        fwd: SubGraphId,
        other: SubGraphId,
        self_first: bool,
        id: SubGraphId,
    ) -> rdg_graph::Result<()> {
        let fsg = self.module.subgraphs[fwd.0 as usize].clone();
        let osg = self.module.subgraphs[other.0 as usize].clone();
        let dy_outputs: Vec<usize> = fsg
            .output_dtypes
            .iter()
            .enumerate()
            .filter(|(_, &dt)| dt == DType::F32)
            .map(|(i, _)| i)
            .collect();
        let self_inputs: Vec<usize> = fsg
            .input_dtypes
            .iter()
            .enumerate()
            .filter(|(_, &dt)| dt == DType::F32)
            .map(|(i, _)| i)
            .collect();
        let n_other = osg
            .input_dtypes
            .iter()
            .filter(|&&d| d == DType::F32)
            .count();

        let mut st = DiffState {
            fwd: fsg.graph.clone(),
            fwd_sub: Some(fwd),
            out: Graph::new(),
            contrib: HashMap::new(),
            vref: HashMap::new(),
            zref: HashMap::new(),
            input_grads: HashMap::new(),
        };
        // dy inputs first, then the pass-through zero tensors.
        for (j, &k) in dy_outputs.iter().enumerate() {
            let dy = PortRef::of(st.out.push_node(
                OpKind::Input {
                    index: j,
                    dtype: DType::F32,
                },
                vec![],
                vec![DType::F32],
            ));
            st.add_contrib(fsg.graph.outputs[k], dy);
        }
        let mut zero_ports = Vec::with_capacity(n_other);
        for j in 0..n_other {
            zero_ports.push(PortRef::of(st.out.push_node(
                OpKind::Input {
                    index: dy_outputs.len() + j,
                    dtype: DType::F32,
                },
                vec![],
                vec![DType::F32],
            )));
        }
        self.diff_body(&mut st)?;
        let mut self_grads = Vec::with_capacity(self_inputs.len());
        for &i in &self_inputs {
            let port = match st.input_grads.get(&i) {
                Some(&g) => g,
                None => {
                    let fwd_in = PortRef::of(fsg.graph.input_nodes[i]);
                    self.ref_zeros(&mut st, fwd_in)
                }
            };
            self_grads.push(port);
        }
        st.out.outputs = if self_first {
            self_grads.into_iter().chain(zero_ports).collect()
        } else {
            zero_ports.into_iter().chain(self_grads).collect()
        };
        self.module.subgraphs[id.0 as usize].graph = st.out;
        Ok(())
    }

    /// Reverse-mode sweep over `st.fwd`, emitting gradient nodes into
    /// `st.out`.
    fn diff_body(&mut self, st: &mut DiffState) -> rdg_graph::Result<()> {
        let order = st.fwd.topo_order("forward")?;
        for &nid in order.iter().rev() {
            let node = st.fwd.node(nid).clone();
            let arity = node.op.n_outputs();
            let mut dys: Vec<Option<PortRef>> =
                (0..arity).map(|k| st.finalize(nid, k as u16)).collect();
            if dys.iter().all(Option::is_none) {
                continue;
            }
            self.op_grad(st, nid, &node.op, &node.inputs, &mut dys)?;
        }
        Ok(())
    }

    /// Per-op gradient rule: given output gradients, contribute input
    /// gradients (and parameter sinks).
    #[allow(clippy::too_many_lines)]
    fn op_grad(
        &mut self,
        st: &mut DiffState,
        nid: NodeId,
        op: &OpKind,
        ins: &[PortRef],
        dys: &mut [Option<PortRef>],
    ) -> rdg_graph::Result<()> {
        let dy = dys[0];
        match op {
            OpKind::Add => {
                let dy = dy.expect("checked");
                st.add_contrib(ins[0], dy);
                st.add_contrib(ins[1], dy);
            }
            OpKind::Sub => {
                let dy = dy.expect("checked");
                st.add_contrib(ins[0], dy);
                let nd = st.n1(OpKind::Neg, vec![dy], DType::F32);
                st.add_contrib(ins[1], nd);
            }
            OpKind::Mul => {
                let dy = dy.expect("checked");
                let a = self.ref_value(st, ins[0]);
                let b = self.ref_value(st, ins[1]);
                let da = st.n1(OpKind::Mul, vec![dy, b], DType::F32);
                let db = st.n1(OpKind::Mul, vec![dy, a], DType::F32);
                st.add_contrib(ins[0], da);
                st.add_contrib(ins[1], db);
            }
            OpKind::Div => {
                let dy = dy.expect("checked");
                let a = self.ref_value(st, ins[0]);
                let b = self.ref_value(st, ins[1]);
                let da = st.n1(OpKind::Div, vec![dy, b], DType::F32);
                let num = st.n1(OpKind::Mul, vec![dy, a], DType::F32);
                let b2 = st.n1(OpKind::Mul, vec![b, b], DType::F32);
                let frac = st.n1(OpKind::Div, vec![num, b2], DType::F32);
                let db = st.n1(OpKind::Neg, vec![frac], DType::F32);
                st.add_contrib(ins[0], da);
                st.add_contrib(ins[1], db);
            }
            OpKind::Neg => {
                let dy = dy.expect("checked");
                let d = st.n1(OpKind::Neg, vec![dy], DType::F32);
                st.add_contrib(ins[0], d);
            }
            OpKind::Scale(s) => {
                let dy = dy.expect("checked");
                let d = st.n1(OpKind::Scale(*s), vec![dy], DType::F32);
                st.add_contrib(ins[0], d);
            }
            OpKind::AddConst(_) | OpKind::Identity => {
                st.add_contrib(ins[0], dy.expect("checked"));
            }
            OpKind::ScalarMul => {
                let dy = dy.expect("checked");
                let x = self.ref_value(st, ins[0]);
                let s = self.ref_value(st, ins[1]);
                let dx = st.n1(OpKind::ScalarMul, vec![dy, s], DType::F32);
                let prod = st.n1(OpKind::Mul, vec![dy, x], DType::F32);
                let ds = st.n1(OpKind::SumAll, vec![prod], DType::F32);
                st.add_contrib(ins[0], dx);
                st.add_contrib(ins[1], ds);
            }
            OpKind::MatMul => {
                let dy = dy.expect("checked");
                let a = self.ref_value(st, ins[0]);
                let b = self.ref_value(st, ins[1]);
                let da = st.n1(OpKind::MatMulBT, vec![dy, b], DType::F32);
                st.add_contrib(ins[0], da);
                st.weight_grad(ins[1], a, dy);
            }
            OpKind::MatMulAT => {
                let dy = dy.expect("checked");
                let a = self.ref_value(st, ins[0]);
                let b = self.ref_value(st, ins[1]);
                let da = st.n1(OpKind::MatMulBT, vec![b, dy], DType::F32);
                let db = st.n1(OpKind::MatMul, vec![a, dy], DType::F32);
                st.add_contrib(ins[0], da);
                st.add_contrib(ins[1], db);
            }
            OpKind::MatMulBT => {
                let dy = dy.expect("checked");
                let a = self.ref_value(st, ins[0]);
                let b = self.ref_value(st, ins[1]);
                let da = st.n1(OpKind::MatMul, vec![dy, b], DType::F32);
                st.add_contrib(ins[0], da);
                st.weight_grad(ins[1], dy, a);
            }
            OpKind::AddBias => {
                let dy = dy.expect("checked");
                st.add_contrib(ins[0], dy);
                let db = st.n1(OpKind::SumAxis0, vec![dy], DType::F32);
                st.add_contrib(ins[1], db);
            }
            OpKind::Bilinear => {
                let dy = dy.expect("checked");
                let x = self.ref_value(st, ins[0]);
                let v = self.ref_value(st, ins[1]);
                let dx = st.n1(OpKind::BilinearGradX, vec![x, v, dy], DType::F32);
                let dv = st.n1(OpKind::BilinearGradV, vec![x, v, dy], DType::F32);
                st.add_contrib(ins[0], dx);
                st.add_contrib(ins[1], dv);
            }
            OpKind::Tanh
            | OpKind::Sigmoid
            | OpKind::Relu
            | OpKind::Softmax
            | OpKind::LogSoftmax => {
                let dy = dy.expect("checked");
                let y = self.ref_value(st, PortRef::of(nid));
                let gop = match op {
                    OpKind::Tanh => OpKind::TanhGrad,
                    OpKind::Sigmoid => OpKind::SigmoidGrad,
                    OpKind::Relu => OpKind::ReluGrad,
                    OpKind::Softmax => OpKind::SoftmaxGrad,
                    _ => OpKind::LogSoftmaxGrad,
                };
                let d = st.n1(gop, vec![y, dy], DType::F32);
                st.add_contrib(ins[0], d);
            }
            OpKind::ConcatCols => {
                let dy = dy.expect("checked");
                let za = self.ref_zeros(st, ins[0]);
                let zb = self.ref_zeros(st, ins[1]);
                let da = st.n1(
                    OpKind::SliceColsLike { take_second: false },
                    vec![za, zb, dy],
                    DType::F32,
                );
                let db = st.n1(
                    OpKind::SliceColsLike { take_second: true },
                    vec![za, zb, dy],
                    DType::F32,
                );
                st.add_contrib(ins[0], da);
                st.add_contrib(ins[1], db);
            }
            OpKind::SliceCols { lo, .. } => {
                let dy = dy.expect("checked");
                let z = self.ref_zeros(st, ins[0]);
                let d = st.n1(OpKind::PadColsLike { lo: *lo }, vec![z, dy], DType::F32);
                st.add_contrib(ins[0], d);
            }
            OpKind::Transpose => {
                let dy = dy.expect("checked");
                let d = st.n1(OpKind::Transpose, vec![dy], DType::F32);
                st.add_contrib(ins[0], d);
            }
            OpKind::StackRows => {
                let dy = dy.expect("checked");
                for (i, &inp) in ins.iter().enumerate() {
                    let idx = st.n1(
                        OpKind::Const(Tensor::scalar_i32(i as i32)),
                        vec![],
                        DType::I32,
                    );
                    let d = st.n1(OpKind::GetRow, vec![dy, idx], DType::F32);
                    st.add_contrib(inp, d);
                }
            }
            OpKind::SumAll => {
                let dy = dy.expect("checked");
                let z = self.ref_zeros(st, ins[0]);
                let d = st.n1(OpKind::FillLike, vec![z, dy], DType::F32);
                st.add_contrib(ins[0], d);
            }
            OpKind::MeanAll => {
                let dy = dy.expect("checked");
                let z = self.ref_zeros(st, ins[0]);
                let d = st.n1(OpKind::MeanAllGrad, vec![z, dy], DType::F32);
                st.add_contrib(ins[0], d);
            }
            OpKind::SumAxis0 => {
                let dy = dy.expect("checked");
                let z = self.ref_zeros(st, ins[0]);
                let d = st.n1(OpKind::BroadcastRowsLike, vec![z, dy], DType::F32);
                st.add_contrib(ins[0], d);
            }
            OpKind::GatherRows => {
                let dy = dy.expect("checked");
                let ids = self.ref_value(st, ins[1]);
                // Embedding fast path: a gather straight from a parameter
                // becomes a row-sparse sink instead of a dense scatter.
                if let OpKind::Param(p) = st.fwd.node(ins[0].node).op {
                    st.n1(OpKind::GradSinkRows { param: p }, vec![ids, dy], DType::F32);
                } else {
                    let z = self.ref_zeros(st, ins[0]);
                    let d = st.n1(OpKind::ScatterRowsLike, vec![z, ids, dy], DType::F32);
                    st.add_contrib(ins[0], d);
                }
            }
            OpKind::GetRow => {
                let dy = dy.expect("checked");
                let z = self.ref_zeros(st, ins[0]);
                let i = self.ref_value(st, ins[1]);
                let d = st.n1(OpKind::ScatterRowLike, vec![z, i, dy], DType::F32);
                st.add_contrib(ins[0], d);
            }
            OpKind::SetRow => {
                let dy = dy.expect("checked");
                let i = self.ref_value(st, ins[1]);
                let zrow = self.ref_zeros(st, ins[2]);
                let dmat = st.n1(OpKind::SetRow, vec![dy, i, zrow], DType::F32);
                let drow = st.n1(OpKind::GetRow, vec![dy, i], DType::F32);
                st.add_contrib(ins[0], dmat);
                st.add_contrib(ins[2], drow);
            }
            OpKind::SoftmaxXent => {
                let dy = dy.expect("checked");
                let logits = self.ref_value(st, ins[0]);
                let labels = self.ref_value(st, ins[1]);
                let d = st.n1(
                    OpKind::SoftmaxXentGrad,
                    vec![logits, labels, dy],
                    DType::F32,
                );
                st.add_contrib(ins[0], d);
            }
            OpKind::Param(p) => {
                let dy = dy.expect("checked");
                st.n1(OpKind::GradSink { param: *p }, vec![dy], DType::F32);
            }
            OpKind::Input { index, .. } => {
                let dy = dy.expect("checked");
                // Accumulate if the same input already received a gradient
                // (several rules may target the same input node).
                match st.input_grads.get(index) {
                    Some(&prev) => {
                        let sum = st.n1(OpKind::Add, vec![prev, dy], DType::F32);
                        st.input_grads.insert(*index, sum);
                    }
                    None => {
                        st.input_grads.insert(*index, dy);
                    }
                }
            }
            OpKind::Const(_)
            | OpKind::OneHot { .. }
            | OpKind::ArgmaxRows
            | OpKind::ZerosLike
            | OpKind::OnesLike
            | OpKind::IAdd
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
            | OpKind::Len
            | OpKind::FGtConst(_)
            | OpKind::ZerosDyn { .. } => {
                // Non-differentiable: gradients stop here (a contribution to
                // a ZerosDyn state buffer is the gradient of a constant).
            }
            OpKind::Invoke { sub, site, .. } => {
                self.invoke_grad(st, nid, *sub, *site, ins, dys)?;
            }
            OpKind::Cond {
                sub_then,
                sub_else,
                site_then,
                site_else,
                n_then_in,
                ..
            } => {
                self.cond_grad(
                    st,
                    nid,
                    *sub_then,
                    *sub_else,
                    *site_then,
                    *site_else,
                    *n_then_in as usize,
                    ins,
                    dys,
                )?;
            }
            other => {
                return Err(GraphError::invalid(format!(
                    "cannot differentiate op {other}: gradient ops must not appear in forward graphs"
                )));
            }
        }
        Ok(())
    }

    fn invoke_grad(
        &mut self,
        st: &mut DiffState,
        nid: NodeId,
        sub: SubGraphId,
        site: CallSiteId,
        ins: &[PortRef],
        dys: &mut [Option<PortRef>],
    ) -> rdg_graph::Result<()> {
        let Some(decl) = self.declare_grad(sub) else {
            return Ok(());
        };
        let mut args = Vec::with_capacity(decl.dy_outputs.len());
        for &k in &decl.dy_outputs {
            let dy = match dys[k].take() {
                Some(d) => d,
                None => self.ref_zeros(
                    st,
                    PortRef {
                        node: nid,
                        port: k as u16,
                    },
                ),
            };
            args.push(dy);
        }
        let n_out = decl.f32_inputs.len() as u16;
        let g = st.out.push_node(
            OpKind::Invoke {
                sub: decl.id,
                site,
                n_out,
                mirror: true,
            },
            args,
            vec![DType::F32; n_out as usize],
        );
        for (j, &i) in decl.f32_inputs.iter().enumerate() {
            st.add_contrib(
                ins[i],
                PortRef {
                    node: g,
                    port: j as u16,
                },
            );
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn cond_grad(
        &mut self,
        st: &mut DiffState,
        nid: NodeId,
        sub_then: SubGraphId,
        sub_else: SubGraphId,
        site_then: CallSiteId,
        site_else: CallSiteId,
        n_then_in: usize,
        ins: &[PortRef],
        dys: &mut [Option<PortRef>],
    ) -> rdg_graph::Result<()> {
        let tsg = &self.module.subgraphs[sub_then.0 as usize];
        let esg = &self.module.subgraphs[sub_else.0 as usize];
        let dy_outputs: Vec<usize> = tsg
            .output_dtypes
            .iter()
            .enumerate()
            .filter(|(_, &dt)| dt == DType::F32)
            .map(|(i, _)| i)
            .collect();
        if dy_outputs.is_empty() {
            return Ok(());
        }
        let t_f32: Vec<usize> = tsg
            .input_dtypes
            .iter()
            .enumerate()
            .filter(|(_, &dt)| dt == DType::F32)
            .map(|(i, _)| i)
            .collect();
        let e_f32: Vec<usize> = esg
            .input_dtypes
            .iter()
            .enumerate()
            .filter(|(_, &dt)| dt == DType::F32)
            .map(|(i, _)| i)
            .collect();

        let g_then = self.declare_branch_grad(sub_then, sub_else, true);
        let g_else = self.declare_branch_grad(sub_else, sub_then, false);

        let pred = self.ref_value(st, ins[0]);
        let mut dy_ports = Vec::with_capacity(dy_outputs.len());
        for &k in &dy_outputs {
            let dy = match dys[k].take() {
                Some(d) => d,
                None => self.ref_zeros(
                    st,
                    PortRef {
                        node: nid,
                        port: k as u16,
                    },
                ),
            };
            dy_ports.push(dy);
        }
        // Zero witnesses for the args of the branch that did NOT run; the
        // forward cond evaluated all its args eagerly, so shapes exist.
        let zeros_e: Vec<PortRef> = e_f32
            .iter()
            .map(|&i| self.ref_zeros(st, ins[1 + n_then_in + i]))
            .collect();
        let zeros_t: Vec<PortRef> = t_f32
            .iter()
            .map(|&i| self.ref_zeros(st, ins[1 + i]))
            .collect();

        let mut inputs = vec![pred];
        inputs.extend(dy_ports.iter().copied());
        inputs.extend(zeros_e.iter().copied());
        let n_then_in_g = (dy_ports.len() + zeros_e.len()) as u16;
        inputs.extend(dy_ports.iter().copied());
        inputs.extend(zeros_t.iter().copied());

        let n_out = (t_f32.len() + e_f32.len()) as u16;
        let g = st.out.push_node(
            OpKind::Cond {
                sub_then: g_then,
                sub_else: g_else,
                site_then,
                site_else,
                n_then_in: n_then_in_g,
                n_out,
                mirror: true,
            },
            inputs,
            vec![DType::F32; n_out as usize],
        );
        for (j, &i) in t_f32.iter().enumerate() {
            st.add_contrib(
                ins[1 + i],
                PortRef {
                    node: g,
                    port: j as u16,
                },
            );
        }
        for (j, &i) in e_f32.iter().enumerate() {
            st.add_contrib(
                ins[1 + n_then_in + i],
                PortRef {
                    node: g,
                    port: (t_f32.len() + j) as u16,
                },
            );
        }
        Ok(())
    }
}
