//! Dense tensor substrate for the `rdg` recursive-dataflow framework.
//!
//! This crate provides the numerical foundation that the dataflow executor
//! (`rdg-exec`) and the neural-network layers (`rdg-nn`) are built on:
//!
//! * [`Tensor`] — an immutable, reference-counted, row-major dense tensor of
//!   `f32` or `i32` elements with copy-on-write mutation
//!   ([`Tensor::make_f32_mut`]), which lets functional updates (e.g. row
//!   scatter in the iterative baseline) run in place whenever the buffer is
//!   uniquely owned.
//! * [`Shape`] and [`DType`] — lightweight shape/dtype metadata.
//! * [`ops`] — the kernel library: matrix multiplication, elementwise
//!   arithmetic, activations and their gradients, softmax/cross-entropy,
//!   gather/scatter, concatenation/slicing, and the bilinear tensor product
//!   used by the RNTN model.
//!
//! All kernels are plain Rust (no BLAS, no intrinsics) that autovectorizes;
//! the matmul kernel uses a cache-friendly `i-k-j` loop ordering. Every
//! kernel is one build for the baseline target except `matmul` and
//! `matmul_at`/`matmul_at_acc`, whose loop nests also get an AVX2 build of
//! the same source, picked at run time ([`ops::vector_isa`] names it) and
//! bit-identical to the baseline one. The call into that build is the
//! crate's only `unsafe` block (`ops/matmul.rs`); the crate denies
//! `unsafe_code` everywhere else.
//!
//! Everything is fallible: kernels return [`TensorError`] on shape or dtype
//! mismatches rather than panicking, so the executor can surface graph-level
//! errors with context.

#![deny(unsafe_code)]

pub mod error;
pub mod ops;
pub mod shape;
pub mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::{Buffer, DType, Tensor};

/// Convenient result alias used throughout the tensor crate.
pub type Result<T> = std::result::Result<T, TensorError>;
