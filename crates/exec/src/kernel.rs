//! Kernel dispatch: maps non-structural [`OpKind`]s onto tensor kernels.
//!
//! Structural ops (`Invoke`, `Cond`, `FwdValue`, `FwdZeros`) are interpreted
//! by the executor itself because they need frames, paths, and the backprop
//! cache; everything else funnels through [`execute`].

use crate::params::{GradStore, ParamStore};
use crate::stats::ExecStats;
use rdg_graph::OpKind;
use rdg_tensor::{ops, Tensor, TensorError};
use std::sync::atomic::Ordering;

/// Ambient state a kernel may need besides its tensor inputs.
pub struct KernelCtx<'a> {
    /// The enclosing frame's arguments (serves `Input` nodes).
    pub args: &'a [Tensor],
    /// Trainable parameters (serves `Param` nodes).
    pub params: &'a ParamStore,
    /// Gradient accumulators (serves `GradSink*`; absent during inference).
    pub grads: Option<&'a GradStore>,
    /// Statistics sink.
    pub stats: &'a ExecStats,
}

/// Executes a non-structural op.
///
/// Inputs are passed *by value*: the executor's consumer refcounting hands
/// the last consumer the original tensor, letting copy-on-write kernels
/// (`SetRow`) mutate in place.
pub fn execute(
    op: &OpKind,
    mut inputs: Vec<Tensor>,
    ctx: &KernelCtx<'_>,
) -> Result<Tensor, TensorError> {
    let grads = || {
        let why = || TensorError::invalid(format!("{} outside a training run", op.mnemonic()));
        ctx.grads.ok_or_else(why)
    };
    match op {
        OpKind::Input { index, dtype } => {
            let v = ctx
                .args
                .get(*index)
                .ok_or_else(|| TensorError::invalid(format!("frame has no argument {index}")))?;
            if v.dtype() != *dtype {
                return Err(TensorError::DTypeMismatch {
                    expected: *dtype,
                    got: v.dtype(),
                    ctx: "Input",
                });
            }
            Ok(v.clone())
        }
        OpKind::Const(t) => Ok(t.clone()),
        OpKind::Param(p) => Ok(ctx.params.read(*p)),
        OpKind::Identity => Ok(inputs.remove(0)),

        OpKind::Add => ops::add(&inputs[0], &inputs[1]),
        OpKind::Sub => ops::sub(&inputs[0], &inputs[1]),
        OpKind::Mul => ops::mul(&inputs[0], &inputs[1]),
        OpKind::Div => ops::div(&inputs[0], &inputs[1]),
        OpKind::Neg => ops::neg(&inputs[0]),
        OpKind::Scale(s) => ops::scale(&inputs[0], *s),
        OpKind::AddConst(c) => ops::add_const(&inputs[0], *c),
        OpKind::ScalarMul => ops::scalar_mul(&inputs[0], &inputs[1]),
        OpKind::MatMul => ops::matmul(&inputs[0], &inputs[1]),
        OpKind::MatMulAT => ops::matmul_at(&inputs[0], &inputs[1]),
        OpKind::MatMulBT => ops::matmul_bt(&inputs[0], &inputs[1]),
        OpKind::AddBias => ops::add_bias(&inputs[0], &inputs[1]),
        OpKind::Bilinear => ops::bilinear(&inputs[0], &inputs[1]),

        OpKind::Tanh => ops::tanh(&inputs[0]),
        OpKind::Sigmoid => ops::sigmoid(&inputs[0]),
        OpKind::Relu => ops::relu(&inputs[0]),
        OpKind::Softmax => ops::softmax(&inputs[0]),
        OpKind::LogSoftmax => ops::log_softmax(&inputs[0]),

        OpKind::ConcatCols => ops::concat_cols(&inputs[0], &inputs[1]),
        OpKind::SliceCols { lo, hi } => ops::slice_cols(&inputs[0], *lo, *hi),
        OpKind::Transpose => ops::transpose2d(&inputs[0]),
        OpKind::StackRows => {
            let refs: Vec<&Tensor> = inputs.iter().collect();
            ops::stack_rows(&refs)
        }

        OpKind::SumAll => ops::sum_all(&inputs[0]),
        OpKind::MeanAll => ops::mean_all(&inputs[0]),
        OpKind::SumAxis0 => ops::sum_axis0(&inputs[0]),

        OpKind::GatherRows => ops::gather_rows(&inputs[0], &inputs[1]),
        OpKind::GetRow => ops::get_row(&inputs[0], &inputs[1]),
        OpKind::SetRow => {
            let row = inputs.pop().expect("setrow arity");
            let i = inputs.pop().expect("setrow arity");
            let mat = inputs.pop().expect("setrow arity");
            if mat.is_unique() {
                ctx.stats.inplace_updates.fetch_add(1, Ordering::Relaxed);
            }
            ops::set_row(mat, &i, &row)
        }
        OpKind::OneHot { classes } => ops::onehot(&inputs[0], *classes),
        OpKind::ArgmaxRows => ops::argmax_rows(&inputs[0]),
        OpKind::SoftmaxXent => ops::softmax_xent(&inputs[0], &inputs[1]),

        OpKind::IAdd => ops::iadd(&inputs[0], &inputs[1]),
        OpKind::ISub => ops::isub(&inputs[0], &inputs[1]),
        OpKind::IMul => ops::imul(&inputs[0], &inputs[1]),
        OpKind::IDiv => ops::idiv(&inputs[0], &inputs[1]),
        OpKind::ILt => ops::ilt(&inputs[0], &inputs[1]),
        OpKind::ILe => ops::ile(&inputs[0], &inputs[1]),
        OpKind::IGt => ops::igt(&inputs[0], &inputs[1]),
        OpKind::IGe => ops::ige(&inputs[0], &inputs[1]),
        OpKind::IEq => ops::ieq(&inputs[0], &inputs[1]),
        OpKind::And => ops::logical_and(&inputs[0], &inputs[1]),
        OpKind::Or => ops::logical_or(&inputs[0], &inputs[1]),
        OpKind::Not => ops::logical_not(&inputs[0]),
        OpKind::GatherScalarI32 => ops::gather_scalar_i32(&inputs[0], &inputs[1]),
        OpKind::Len => Ok(Tensor::scalar_i32(inputs[0].numel() as i32)),
        OpKind::FGtConst(c) => Ok(Tensor::scalar_i32((inputs[0].as_f32_scalar()? > *c) as i32)),
        OpKind::ZerosDyn { cols } => {
            let n = inputs[0].as_i32_scalar()?;
            if n < 0 {
                return Err(TensorError::invalid("ZerosDyn: negative row count"));
            }
            Ok(Tensor::zeros([n as usize, *cols]))
        }

        OpKind::GradSink { param } => {
            grads()?.accumulate(*param, &inputs[0])?;
            Ok(Tensor::scalar_f32(0.0))
        }
        OpKind::GradSinkRows { param } => {
            let like = ctx.params.read(*param);
            grads()?.accumulate_rows(*param, &like, &inputs[0], &inputs[1])?;
            Ok(Tensor::scalar_f32(0.0))
        }
        OpKind::GradSinkOuter { param } => {
            grads()?.accumulate_outer(*param, &inputs[0], &inputs[1])?;
            Ok(Tensor::scalar_f32(0.0))
        }
        OpKind::ZerosLike => Ok(Tensor::zeros_like(&inputs[0])),
        OpKind::OnesLike => Ok(Tensor::full(inputs[0].shape().clone(), 1.0)),

        OpKind::TanhGrad => ops::tanh_grad(&inputs[0], &inputs[1]),
        OpKind::SigmoidGrad => ops::sigmoid_grad(&inputs[0], &inputs[1]),
        OpKind::ReluGrad => ops::relu_grad(&inputs[0], &inputs[1]),
        OpKind::SoftmaxGrad => ops::softmax_grad(&inputs[0], &inputs[1]),
        OpKind::LogSoftmaxGrad => ops::log_softmax_grad(&inputs[0], &inputs[1]),
        OpKind::SoftmaxXentGrad => ops::softmax_xent_grad(&inputs[0], &inputs[1], &inputs[2]),
        OpKind::MeanAllGrad => ops::mean_all_grad(&inputs[0], &inputs[1]),
        OpKind::FillLike => ops::fill_like(&inputs[0], &inputs[1]),
        OpKind::BroadcastRowsLike => ops::broadcast_rows_like(&inputs[0], &inputs[1]),
        OpKind::PadColsLike { lo } => ops::pad_cols_like(&inputs[0], &inputs[1], *lo),
        OpKind::SliceColsLike { take_second } => {
            let wa = inputs[0]
                .shape()
                .as_matrix()
                .ok_or_else(|| TensorError::invalid("SliceColsLike: rank-2 witness required"))?
                .1;
            let wb = inputs[1]
                .shape()
                .as_matrix()
                .ok_or_else(|| TensorError::invalid("SliceColsLike: rank-2 witness required"))?
                .1;
            let dy = &inputs[2];
            if *take_second {
                ops::slice_cols(dy, wa, wa + wb)
            } else {
                ops::slice_cols(dy, 0, wa)
            }
        }
        OpKind::ScatterRowsLike => ops::scatter_rows_like(&inputs[0], &inputs[1], &inputs[2]),
        OpKind::ScatterRowLike => {
            // (mat_like, i, dy_row): zero matrix with one row set.
            let zeros = Tensor::zeros_like(&inputs[0]);
            ops::set_row(zeros, &inputs[1], &inputs[2])
        }
        OpKind::BilinearGradX => ops::bilinear_grad_x(&inputs[0], &inputs[1], &inputs[2]),
        OpKind::BilinearGradV => ops::bilinear_grad_v(&inputs[0], &inputs[1], &inputs[2]),

        OpKind::Invoke { .. }
        | OpKind::Cond { .. }
        | OpKind::FwdValue { .. }
        | OpKind::FwdZeros { .. } => Err(TensorError::invalid(format!(
            "structural op {} reached the kernel dispatcher",
            op.mnemonic()
        ))),
    }
}

/// Executes one *fused* kernel over a stack of group members' inputs.
///
/// `stacked` is the members' varying operand concatenated along the fuse
/// axis (rows for [`crate::batch::FuseKind::RowsShared`], columns for
/// `ColsShared`); `shared` is the operand common to every member (typically
/// a parameter read). The op's kernel computes each output row (or column
/// block) independently and in the scalar flop order, so the caller can
/// slice the result back per member bit-for-bit.
pub fn execute_stacked(
    op: &OpKind,
    stacked: &Tensor,
    shared: &Tensor,
) -> Result<Tensor, TensorError> {
    match op {
        OpKind::MatMul => ops::matmul(stacked, shared),
        OpKind::MatMulBT => ops::matmul_bt(stacked, shared),
        OpKind::AddBias => ops::add_bias(stacked, shared),
        OpKind::Bilinear => ops::bilinear(stacked, shared),
        // AᵀB stacks B by columns against a shared A, so the shared tensor
        // is the *first* operand here.
        OpKind::MatMulAT => ops::matmul_at(shared, stacked),
        _ => Err(TensorError::invalid(format!(
            "op {} has no stacked execution path",
            op.mnemonic()
        ))),
    }
}

/// Executes a group of rank-1 gradient sinks as one update: `a` and `dy`
/// are the members' operands stacked by rows, in member order, and
/// `GradStore::accumulate_outer` adds their terms to each accumulator
/// element in that order — the bits of the members' calls one by one.
pub(crate) fn execute_stacked_sink(
    op: &OpKind,
    a: &Tensor,
    dy: &Tensor,
    grads: &GradStore,
) -> Result<(), TensorError> {
    match op {
        OpKind::GradSinkOuter { param } => grads.accumulate_outer(*param, a, dy),
        _ => Err(TensorError::invalid(format!(
            "op {} has no stacked sink path",
            op.mnemonic()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdg_graph::{Module, ParamId};
    use rdg_tensor::DType;

    fn ctx_fixture() -> (ParamStore, GradStore, ExecStats, Vec<Tensor>) {
        let mut module = Module::default();
        module.params.push(rdg_graph::ParamSpec {
            name: "w".into(),
            init: Tensor::from_f32([2], vec![5.0, 6.0]).unwrap(),
        });
        let ps = ParamStore::from_module(&module);
        let gs = GradStore::new(1);
        let stats = ExecStats::new();
        let args = vec![Tensor::scalar_f32(42.0)];
        (ps, gs, stats, args)
    }

    #[test]
    fn input_const_param_identity() {
        let (ps, gs, stats, args) = ctx_fixture();
        let ctx = KernelCtx {
            args: &args,
            params: &ps,
            grads: Some(&gs),
            stats: &stats,
        };

        let v = execute(
            &OpKind::Input {
                index: 0,
                dtype: DType::F32,
            },
            vec![],
            &ctx,
        )
        .unwrap();
        assert_eq!(v.as_f32_scalar().unwrap(), 42.0);

        let v = execute(&OpKind::Const(Tensor::scalar_i32(7)), vec![], &ctx).unwrap();
        assert_eq!(v.as_i32_scalar().unwrap(), 7);

        let v = execute(&OpKind::Param(ParamId(0)), vec![], &ctx).unwrap();
        assert_eq!(v.f32s().unwrap(), &[5.0, 6.0]);

        let v = execute(&OpKind::Identity, vec![Tensor::scalar_f32(1.5)], &ctx).unwrap();
        assert_eq!(v.as_f32_scalar().unwrap(), 1.5);
    }

    #[test]
    fn input_dtype_checked() {
        let (ps, gs, stats, args) = ctx_fixture();
        let ctx = KernelCtx {
            args: &args,
            params: &ps,
            grads: Some(&gs),
            stats: &stats,
        };
        let r = execute(
            &OpKind::Input {
                index: 0,
                dtype: DType::I32,
            },
            vec![],
            &ctx,
        );
        assert!(r.is_err());
        let r = execute(
            &OpKind::Input {
                index: 5,
                dtype: DType::F32,
            },
            vec![],
            &ctx,
        );
        assert!(r.is_err());
    }

    #[test]
    fn gradsink_accumulates_and_requires_training() {
        let (ps, gs, stats, args) = ctx_fixture();
        let ctx = KernelCtx {
            args: &args,
            params: &ps,
            grads: Some(&gs),
            stats: &stats,
        };
        execute(
            &OpKind::GradSink { param: ParamId(0) },
            vec![Tensor::from_f32([2], vec![1.0, 2.0]).unwrap()],
            &ctx,
        )
        .unwrap();
        assert_eq!(gs.get(ParamId(0)).unwrap().f32s().unwrap(), &[1.0, 2.0]);

        let ctx_inf = KernelCtx {
            args: &args,
            params: &ps,
            grads: None,
            stats: &stats,
        };
        let r = execute(
            &OpKind::GradSink { param: ParamId(0) },
            vec![Tensor::zeros([2])],
            &ctx_inf,
        );
        assert!(r.is_err(), "GradSink must fail outside training");
    }

    #[test]
    fn structural_ops_rejected() {
        let (ps, gs, stats, args) = ctx_fixture();
        let ctx = KernelCtx {
            args: &args,
            params: &ps,
            grads: Some(&gs),
            stats: &stats,
        };
        let op = OpKind::FwdValue {
            of: rdg_graph::PortRef {
                node: rdg_graph::NodeId(0),
                port: 0,
            },
        };
        assert!(execute(&op, vec![], &ctx).is_err());
    }

    #[test]
    fn setrow_tracks_inplace() {
        let (ps, gs, stats, args) = ctx_fixture();
        let ctx = KernelCtx {
            args: &args,
            params: &ps,
            grads: Some(&gs),
            stats: &stats,
        };
        let mat = Tensor::zeros([2, 2]);
        let i = Tensor::scalar_i32(0);
        let row = Tensor::ones([2]);
        execute(&OpKind::SetRow, vec![mat, i, row], &ctx).unwrap();
        assert_eq!(stats.inplace_updates.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn scatter_row_like_zeroes_everything_else() {
        let (ps, gs, stats, args) = ctx_fixture();
        let ctx = KernelCtx {
            args: &args,
            params: &ps,
            grads: Some(&gs),
            stats: &stats,
        };
        let like = Tensor::ones([2, 2]);
        let i = Tensor::scalar_i32(1);
        let row = Tensor::from_f32([2], vec![3.0, 4.0]).unwrap();
        let out = execute(&OpKind::ScatterRowLike, vec![like, i, row], &ctx).unwrap();
        assert_eq!(out.f32s().unwrap(), &[0.0, 0.0, 3.0, 4.0]);
    }
}
