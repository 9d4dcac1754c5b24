//! Operation kinds: the vocabulary of graph nodes.

use crate::subgraph::SubGraphId;
use rdg_tensor::Tensor;
use std::fmt;

/// Identifier of a trainable parameter in the module's parameter table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ParamId(pub u32);

/// Identifier of a SubGraph call site, unique across a [`crate::Module`].
///
/// Call sites are the building blocks of *invocation paths*: the backprop
/// cache keys a forward value by the chain of call sites from the root frame
/// (the paper's "InvokeOp's topological position combined with the key of
/// the parent InvokeOp"). Gradient graphs reuse the forward site ids so the
/// backward execution reconstructs identical paths.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CallSiteId(pub u32);

/// Every operation a graph node can perform.
///
/// Most variants are thin wrappers over `rdg_tensor::ops` kernels; the
/// structural ones (`Invoke`, `Cond`, `FwdValue`, `GradSink*`) are
/// interpreted by the executor itself.
#[derive(Clone, Debug)]
pub enum OpKind {
    // -- graph interface -------------------------------------------------
    /// Formal input `index` of the enclosing graph (placeholder).
    Input {
        /// Position in the graph's input list.
        index: usize,
        /// Element type of the fed value.
        dtype: rdg_tensor::DType,
    },
    /// Compile-time constant.
    Const(Tensor),
    /// Read of a trainable parameter from the parameter store.
    Param(ParamId),
    /// Pass-through (used for output wiring and graph surgery).
    Identity,

    // -- f32 arithmetic ---------------------------------------------------
    /// Elementwise addition (same shapes).
    Add,
    /// Elementwise subtraction.
    Sub,
    /// Elementwise (Hadamard) multiplication.
    Mul,
    /// Elementwise division.
    Div,
    /// Elementwise negation.
    Neg,
    /// Multiplication by a static constant.
    Scale(f32),
    /// Addition of a static constant.
    AddConst(f32),
    /// Multiplication by a runtime scalar tensor: `(x, s) -> x·s`.
    ScalarMul,
    /// Dense matrix product `A·B`.
    MatMul,
    /// Dense matrix product `Aᵀ·B` (gradient form).
    MatMulAT,
    /// Dense matrix product `A·Bᵀ` (gradient form).
    MatMulBT,
    /// Row-broadcast bias addition `[m,n] + [n]`.
    AddBias,
    /// Bilinear tensor product `(x, V) → x·V_t·xᵀ` (RNTN).
    Bilinear,

    // -- activations -------------------------------------------------------
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// Row-wise softmax.
    Softmax,
    /// Row-wise log-softmax.
    LogSoftmax,

    // -- shape -------------------------------------------------------------
    /// Column concatenation of two matrices.
    ConcatCols,
    /// Column slice `[lo, hi)`.
    SliceCols {
        /// First column (inclusive).
        lo: usize,
        /// Last column (exclusive).
        hi: usize,
    },
    /// Transpose of a matrix.
    Transpose,
    /// Stack N row vectors into a matrix (variadic).
    StackRows,

    // -- reductions ---------------------------------------------------------
    /// Sum of all elements to a scalar.
    SumAll,
    /// Mean of all elements to a scalar.
    MeanAll,
    /// Column sums `[m,n] → [n]`.
    SumAxis0,

    // -- indexing ------------------------------------------------------------
    /// Row gather `(table, ids) → rows`.
    GatherRows,
    /// Single-row extraction `(mat, i) → [1,d]`.
    GetRow,
    /// Functional row replacement `(mat, i, row) → mat'` (copy-on-write).
    SetRow,
    /// One-hot encoding of integer ids.
    OneHot {
        /// Number of classes (output width).
        classes: usize,
    },
    /// Row-wise argmax to `i32`.
    ArgmaxRows,

    // -- loss -----------------------------------------------------------------
    /// Fused softmax cross-entropy `(logits, labels) → loss[m]`.
    SoftmaxXent,

    // -- i32 scalar arithmetic / predicates ------------------------------------
    /// Scalar integer addition.
    IAdd,
    /// Scalar integer subtraction.
    ISub,
    /// Scalar integer multiplication.
    IMul,
    /// Scalar integer division.
    IDiv,
    /// Scalar `<` producing `0/1`.
    ILt,
    /// Scalar `<=` producing `0/1`.
    ILe,
    /// Scalar `>` producing `0/1`.
    IGt,
    /// Scalar `>=` producing `0/1`.
    IGe,
    /// Scalar `==` producing `0/1`.
    IEq,
    /// Logical AND of predicates.
    And,
    /// Logical OR of predicates.
    Or,
    /// Logical NOT of a predicate.
    Not,
    /// Element gather from a rank-1 `i32` tensor: `(vec, i) → scalar`.
    GatherScalarI32,
    /// Element count of any tensor, as an `i32` scalar.
    Len,
    /// `f32` scalar threshold predicate: `x > c` as `i32` `0/1`. This is how
    /// dynamically-structured models (TD-TreeLSTM) turn a *computed value*
    /// into a control-flow decision at run time.
    FGtConst(f32),
    /// Zeros of runtime-determined row count: `(n: i32 scalar) → f32 [n, cols]`.
    ZerosDyn {
        /// Number of columns.
        cols: usize,
    },

    // -- control flow ------------------------------------------------------------
    /// The paper's `InvokeOp`: executes SubGraph `sub` with this node's
    /// inputs as the SubGraph's inputs; the SubGraph's outputs become this
    /// node's output ports.
    Invoke {
        /// The SubGraph to execute.
        sub: SubGraphId,
        /// Call-site id; extends the invocation path. Unique in the module
        /// unless `mirror` is set.
        site: CallSiteId,
        /// Number of output ports (== `sub`'s output arity).
        n_out: u16,
        /// Set on gradient invokes: the site id *mirrors* the forward
        /// invoke's site so the backward frame reconstructs the forward
        /// invocation path and finds its cached activations.
        mirror: bool,
    },
    /// Functional conditional. Input 0 is an `i32` predicate; the remaining
    /// inputs are the captured inputs of the two branch SubGraphs
    /// (`then` block first). Exactly one branch executes.
    Cond {
        /// Branch executed when the predicate is non-zero.
        sub_then: SubGraphId,
        /// Branch executed when the predicate is zero.
        sub_else: SubGraphId,
        /// Call site of the then-branch.
        site_then: CallSiteId,
        /// Call site of the else-branch.
        site_else: CallSiteId,
        /// Number of inputs routed to the then-branch (following the
        /// predicate); the rest go to the else-branch.
        n_then_in: u16,
        /// Number of output ports (== either branch's output arity).
        n_out: u16,
        /// Set on gradient conds: sites mirror the forward cond's sites.
        mirror: bool,
    },

    // -- autodiff support ----------------------------------------------------------
    /// Reads the forward value of port `of` in the forward twin of the
    /// enclosing gradient SubGraph, through the backprop cache at the
    /// mirrored invocation path.
    FwdValue {
        /// Port in the forward graph whose cached value to read.
        of: crate::graph::PortRef,
    },
    /// Produces a zero tensor shaped like the forward value of port `of`,
    /// through the *shape* cache — used as a shape witness by gradient
    /// kernels so large forward intermediates need not be retained.
    FwdZeros {
        /// Port in the forward graph whose cached shape to use.
        of: crate::graph::PortRef,
    },
    /// Accumulates a dense gradient into the gradient store for `param`.
    GradSink {
        /// Target parameter.
        param: ParamId,
    },
    /// Accumulates a row-sparse gradient `(ids, rows)` for an embedding
    /// table parameter.
    GradSinkRows {
        /// Target parameter.
        param: ParamId,
    },
    /// Accumulates the factored weight gradient `(a, dy) → G += aᵀ·dy`
    /// (`a: [k, m]`, `dy: [k, n]`, `G: [m, n]`) for a parameter that a
    /// `MatMul` read directly; the product is never materialized.
    GradSinkOuter {
        /// Target parameter.
        param: ParamId,
    },
    /// Zeros with the shape of the input.
    ZerosLike,
    /// Ones with the shape of the input.
    OnesLike,

    // -- gradient kernels -------------------------------------------------------------
    /// `(y, dy) → dy ⊙ (1 - y²)`.
    TanhGrad,
    /// `(y, dy) → dy ⊙ y(1-y)`.
    SigmoidGrad,
    /// `(y, dy) → dy ⊙ [y > 0]`.
    ReluGrad,
    /// Softmax backward `(y, dy)`.
    SoftmaxGrad,
    /// Log-softmax backward `(y, dy)`.
    LogSoftmaxGrad,
    /// Cross-entropy backward `(logits, labels, dy)`.
    SoftmaxXentGrad,
    /// Mean-all backward `(x, dy)`.
    MeanAllGrad,
    /// Sum-all backward `(x, dy)` — fills `x`'s shape with `dy`.
    FillLike,
    /// Sum-axis0 backward `(x, dy)` — repeats `dy` over `x`'s rows.
    BroadcastRowsLike,
    /// Column-slice backward `(x, dy)` at offset `lo`.
    PadColsLike {
        /// Column offset where `dy` is re-embedded.
        lo: usize,
    },
    /// Column-concat backward `(a_like, b_like, dy)`: slices `dy` into the
    /// first or second operand's column range, with widths taken from the
    /// shape witnesses.
    SliceColsLike {
        /// `false` → the first operand's slice, `true` → the second's.
        take_second: bool,
    },
    /// Gather backward `(table_like, ids, dy) → d_table`.
    ScatterRowsLike,
    /// Row-extraction backward `(mat_like, i, dy_row) → d_mat`.
    ScatterRowLike,
    /// Bilinear backward w.r.t. `x`: `(x, v, dy)`.
    BilinearGradX,
    /// Bilinear backward w.r.t. `v`: `(x, v_like, dy)`.
    BilinearGradV,
}

impl OpKind {
    /// Number of output ports this op produces.
    pub fn n_outputs(&self) -> usize {
        match self {
            OpKind::Invoke { n_out, .. } | OpKind::Cond { n_out, .. } => *n_out as usize,
            _ => 1,
        }
    }

    /// Short mnemonic used in diagnostics and DOT output.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpKind::Input { .. } => "Input",
            OpKind::Const(_) => "Const",
            OpKind::Param(_) => "Param",
            OpKind::Identity => "Identity",
            OpKind::Add => "Add",
            OpKind::Sub => "Sub",
            OpKind::Mul => "Mul",
            OpKind::Div => "Div",
            OpKind::Neg => "Neg",
            OpKind::Scale(_) => "Scale",
            OpKind::AddConst(_) => "AddConst",
            OpKind::ScalarMul => "ScalarMul",
            OpKind::MatMul => "MatMul",
            OpKind::MatMulAT => "MatMulAT",
            OpKind::MatMulBT => "MatMulBT",
            OpKind::AddBias => "AddBias",
            OpKind::Bilinear => "Bilinear",
            OpKind::Tanh => "Tanh",
            OpKind::Sigmoid => "Sigmoid",
            OpKind::Relu => "Relu",
            OpKind::Softmax => "Softmax",
            OpKind::LogSoftmax => "LogSoftmax",
            OpKind::ConcatCols => "ConcatCols",
            OpKind::SliceCols { .. } => "SliceCols",
            OpKind::Transpose => "Transpose",
            OpKind::StackRows => "StackRows",
            OpKind::SumAll => "SumAll",
            OpKind::MeanAll => "MeanAll",
            OpKind::SumAxis0 => "SumAxis0",
            OpKind::GatherRows => "GatherRows",
            OpKind::GetRow => "GetRow",
            OpKind::SetRow => "SetRow",
            OpKind::OneHot { .. } => "OneHot",
            OpKind::ArgmaxRows => "ArgmaxRows",
            OpKind::SoftmaxXent => "SoftmaxXent",
            OpKind::IAdd => "IAdd",
            OpKind::ISub => "ISub",
            OpKind::IMul => "IMul",
            OpKind::IDiv => "IDiv",
            OpKind::ILt => "ILt",
            OpKind::ILe => "ILe",
            OpKind::IGt => "IGt",
            OpKind::IGe => "IGe",
            OpKind::IEq => "IEq",
            OpKind::And => "And",
            OpKind::Or => "Or",
            OpKind::Not => "Not",
            OpKind::GatherScalarI32 => "GatherScalarI32",
            OpKind::Len => "Len",
            OpKind::FGtConst(_) => "FGtConst",
            OpKind::ZerosDyn { .. } => "ZerosDyn",
            OpKind::Invoke { .. } => "Invoke",
            OpKind::Cond { .. } => "Cond",
            OpKind::FwdValue { .. } => "FwdValue",
            OpKind::FwdZeros { .. } => "FwdZeros",
            OpKind::GradSink { .. } => "GradSink",
            OpKind::GradSinkRows { .. } => "GradSinkRows",
            OpKind::GradSinkOuter { .. } => "GradSinkOuter",
            OpKind::ZerosLike => "ZerosLike",
            OpKind::OnesLike => "OnesLike",
            OpKind::TanhGrad => "TanhGrad",
            OpKind::SigmoidGrad => "SigmoidGrad",
            OpKind::ReluGrad => "ReluGrad",
            OpKind::SoftmaxGrad => "SoftmaxGrad",
            OpKind::LogSoftmaxGrad => "LogSoftmaxGrad",
            OpKind::SoftmaxXentGrad => "SoftmaxXentGrad",
            OpKind::MeanAllGrad => "MeanAllGrad",
            OpKind::FillLike => "FillLike",
            OpKind::BroadcastRowsLike => "BroadcastRowsLike",
            OpKind::PadColsLike { .. } => "PadColsLike",
            OpKind::SliceColsLike { .. } => "SliceColsLike",
            OpKind::ScatterRowsLike => "ScatterRowsLike",
            OpKind::ScatterRowLike => "ScatterRowLike",
            OpKind::BilinearGradX => "BilinearGradX",
            OpKind::BilinearGradV => "BilinearGradV",
        }
    }

    /// Returns `true` for ops interpreted structurally by the executor
    /// (frame spawning) rather than by a tensor kernel.
    pub fn is_control_flow(&self) -> bool {
        matches!(self, OpKind::Invoke { .. } | OpKind::Cond { .. })
    }

    /// Returns `true` for side-effecting gradient accumulation sinks.
    pub fn is_sink(&self) -> bool {
        matches!(
            self,
            OpKind::GradSink { .. } | OpKind::GradSinkRows { .. } | OpKind::GradSinkOuter { .. }
        )
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Invoke { sub, site, .. } => write!(f, "Invoke(sg{}, site{})", sub.0, site.0),
            OpKind::Cond {
                sub_then, sub_else, ..
            } => {
                write!(f, "Cond(sg{}, sg{})", sub_then.0, sub_else.0)
            }
            OpKind::Scale(s) => write!(f, "Scale({s})"),
            OpKind::AddConst(c) => write!(f, "AddConst({c})"),
            OpKind::SliceCols { lo, hi } => write!(f, "SliceCols[{lo}..{hi}]"),
            OpKind::Param(p) => write!(f, "Param({})", p.0),
            OpKind::FwdValue { of } => write!(f, "FwdValue({}:{})", of.node.0, of.port),
            OpKind::FwdZeros { of } => write!(f, "FwdZeros({}:{})", of.node.0, of.port),
            _ => write!(f, "{}", self.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{NodeId, PortRef};

    #[test]
    fn arity_of_structural_ops() {
        let inv = OpKind::Invoke {
            sub: SubGraphId(0),
            site: CallSiteId(0),
            n_out: 3,
            mirror: false,
        };
        assert_eq!(inv.n_outputs(), 3);
        assert!(inv.is_control_flow());
        assert_eq!(OpKind::Add.n_outputs(), 1);
        assert!(!OpKind::Add.is_control_flow());
    }

    #[test]
    fn sinks_are_flagged() {
        assert!(OpKind::GradSink { param: ParamId(0) }.is_sink());
        assert!(OpKind::GradSinkRows { param: ParamId(1) }.is_sink());
        assert!(OpKind::GradSinkOuter { param: ParamId(2) }.is_sink());
        assert!(!OpKind::MatMul.is_sink());
    }

    #[test]
    fn display_contains_details() {
        let c = OpKind::Cond {
            sub_then: SubGraphId(1),
            sub_else: SubGraphId(2),
            site_then: CallSiteId(10),
            site_else: CallSiteId(11),
            n_then_in: 0,
            n_out: 1,
            mirror: false,
        };
        assert!(c.to_string().contains("sg1"));
        let fv = OpKind::FwdValue {
            of: PortRef {
                node: NodeId(4),
                port: 1,
            },
        };
        assert!(fv.to_string().contains("4:1"));
    }
}
