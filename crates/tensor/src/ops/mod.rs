//! Tensor kernels: the numerical operations behind every graph op.
//!
//! Kernels are grouped by family:
//!
//! * [`elementwise`] — `add`/`sub`/`mul`/`div` and scalar/bias broadcasts.
//! * [`mod@matmul`] — dense matrix products, including the transposed variants
//!   (`aᵀb`, `abᵀ`) needed by gradients without materializing transposes.
//! * [`activation`] — `tanh`/`sigmoid`/`relu`/`softmax` and their gradients.
//! * [`reduce`] — reductions and their shape-restoring gradient kernels.
//! * [`index`] — row gather/scatter, functional row updates (copy-on-write).
//! * [`shape_ops`] — concat / slice / stack / transpose.
//! * [`loss`] — fused softmax cross-entropy with integer labels.
//! * [`mod@bilinear`] — the RNTN bilinear tensor product `xᵀ V x`.
//! * [`scalar`] — `i32` scalar arithmetic and comparisons (tree indices,
//!   control-flow predicates).
//! * [`rng`] — seeded random tensor constructors (normal / uniform / Xavier).

pub mod activation;
pub mod bilinear;
pub mod elementwise;
pub mod index;
pub mod loss;
pub mod matmul;
pub mod reduce;
pub mod rng;
pub mod scalar;
pub mod shape_ops;

pub use activation::{
    log_softmax, log_softmax_grad, relu, relu_grad, sigmoid, sigmoid_grad, softmax, softmax_grad,
    tanh, tanh_grad,
};
pub use bilinear::{bilinear, bilinear_grad_v, bilinear_grad_x};
pub use elementwise::{add, add_bias, add_const, div, mul, neg, scalar_mul, scale, sub};
pub use index::{gather_rows, get_row, onehot, scatter_add_rows, scatter_rows_like, set_row};
pub use loss::{softmax_xent, softmax_xent_grad};
pub use matmul::{matmul, matmul_at, matmul_at_acc, matmul_bt, outer_acc, vector_isa};
pub use reduce::{
    broadcast_rows_like, fill_like, mean_all, mean_all_grad, mean_axis0, sum_all, sum_axis0,
};
pub use rng::{randn, uniform, xavier_uniform};
pub use scalar::{
    gather_scalar_i32, iadd, idiv, ieq, ige, igt, ile, ilt, imul, isub, logical_and, logical_not,
    logical_or,
};
pub use shape_ops::{
    argmax_rows, concat_cols, concat_rows, pad_cols_like, slice_cols, stack_rows, transpose2d,
};
