//! Reverse-mode automatic differentiation for recursive dataflow modules.
//!
//! This crate implements §4.2 of the EuroSys '18 paper: given a forward
//! [`rdg_graph::Module`] and a scalar loss port in its main graph,
//! [`build_training_module`] produces an extended module that computes the
//! loss *and* accumulates parameter gradients when executed in training
//! mode.
//!
//! The key design points, mirroring the paper:
//!
//! * **Gradient SubGraphs.** The gradient of an `InvokeOp` is an `InvokeOp`
//!   of the differentiated SubGraph (`∇S`). If `S` invokes itself, `∇S`
//!   invokes `∇S` — the backward graph of a recursive model is itself
//!   recursive, produced via the same forward-declaration trick the builder
//!   uses (declare `∇S`'s signature first, then build the body that refers
//!   to it).
//! * **Mirrored call sites.** Every gradient `Invoke`/`Cond` carries the
//!   *forward* call-site id (flagged `mirror`), so a backward frame's
//!   invocation path equals its forward twin's path and `FwdValue` reads hit
//!   the right backprop-cache entries.
//! * **Lazy conditional gradients.** The gradient of a `Cond` is a `Cond` on
//!   the cached forward predicate; only the branch that executed forward is
//!   differentiated (the untaken branch's activations were never cached).
//!   The not-taken side of the gradient pair passes through zero tensors so
//!   both branches agree on output signature.
//! * **Keep-set analysis.** While building gradients we record exactly which
//!   forward ports backward reads (`FwdValue`) and which it only needs
//!   *shapes* for (`FwdZeros`); the executor caches values for the former
//!   and shapes for the latter, so large loop-carried state in the iterative
//!   baseline is not retained by value.
//! * **Parameter gradients** drain into `GradSink` nodes (dense),
//!   `GradSinkRows` (row-sparse, for embedding `GatherRows` reads straight
//!   from a parameter) or `GradSinkOuter` (factored `aᵀ·dy`, for a `MatMul`
//!   whose weight operand is read straight from a parameter),
//!   accumulating across all frames of a step.
//!
//! [`gradcheck`] provides finite-difference verification used heavily by the
//! test suite.

pub mod diff;
pub mod gradcheck;

pub use diff::build_training_module;
pub use gradcheck::{check_gradients, GradCheckReport};
