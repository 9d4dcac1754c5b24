//! `rdg` — recursive dataflow graphs for deep learning.
//!
//! A clean-room Rust implementation of the EuroSys '18 paper **"Improving
//! the Expressiveness of Deep Learning Frameworks with Recursion"** (Jeong,
//! Jeong, Kim, Yu, Chun): first-class recursion for embedded-control-flow
//! deep-learning frameworks via two abstractions,
//!
//! * **SubGraph** — a dataflow-graph fragment with a typed signature,
//!   semantically a function definition, declared with forward declarations
//!   and automatic outer-reference capture
//!   ([`rdg_graph::ModuleBuilder::declare_subgraph`]);
//! * **InvokeOp** — an ordinary graph operation whose kernel executes a
//!   SubGraph ([`rdg_graph::ModuleBuilder::invoke`]); a SubGraph invoking
//!   *itself* yields recursion inside a static graph, executed by the
//!   unmodified master/worker machinery ([`rdg_exec::Executor`]) with full
//!   sibling parallelism, and differentiated by synthesizing recursive
//!   gradient SubGraphs with mirrored call sites
//!   ([`rdg_autodiff::build_training_module`]).
//!
//! # Quickstart
//!
//! ```
//! use rdg_core::prelude::*;
//!
//! // fib(n) = n <= 1 ? n : fib(n-1) + fib(n-2), as a recursive graph.
//! let mut mb = ModuleBuilder::new();
//! let fib = mb.declare_subgraph("fib", &[DType::I32], &[DType::I32]);
//! mb.define_subgraph(&fib, |b| {
//!     let n = b.input(0)?;
//!     let one = b.const_i32(1);
//!     let base = b.ile(n, one)?;
//!     let out = b.cond1(base, DType::I32,
//!         |b| b.identity(n),
//!         |b| {
//!             let one = b.const_i32(1);
//!             let two = b.const_i32(2);
//!             let a = b.isub(n, one)?;
//!             let c = b.isub(n, two)?;
//!             let fa = b.invoke(&fib, &[a])?[0];
//!             let fc = b.invoke(&fib, &[c])?[0];
//!             b.iadd(fa, fc)
//!         })?;
//!     Ok(vec![out])
//! }).unwrap();
//! let n = mb.const_i32(10);
//! let out = mb.invoke(&fib, &[n]).unwrap();
//! mb.set_outputs(&[out[0]]).unwrap();
//!
//! let session = Session::new(Executor::with_threads(2), mb.finish().unwrap()).unwrap();
//! assert_eq!(session.run(vec![]).unwrap()[0].as_i32_scalar().unwrap(), 55);
//! ```
//!
//! # Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`rdg_tensor`] | dense tensors and kernels |
//! | [`rdg_graph`] | IR, SubGraphs, builder DSL |
//! | [`rdg_exec`] | parallel executor, backprop cache, virtual-time twin |
//! | [`rdg_autodiff`] | recursive reverse-mode differentiation |
//! | [`rdg_nn`] | cells, layers, optimizers |
//! | [`rdg_data`] | synthetic Large-Movie-Review substitute |
//! | [`rdg_models`] | TreeRNN / RNTN / TreeLSTM / TD-TreeLSTM × styles |
//! | [`rdg_fold`] | TensorFlow-Fold-style dynamic batching baseline |
//! | [`rdg_cluster`] | data-parallel multi-machine training |

pub use rdg_autodiff as autodiff;
pub use rdg_cluster as cluster;
pub use rdg_data as data;
pub use rdg_exec as exec;
pub use rdg_fold as fold;
pub use rdg_graph as graph;
pub use rdg_models as models;
pub use rdg_nn as nn;
pub use rdg_tensor as tensor;

/// The working set for typical users: builder, executor, autodiff, models.
pub mod prelude {
    pub use rdg_autodiff::{build_training_module, check_gradients};
    pub use rdg_data::{Dataset, DatasetConfig, Instance, Split, TreeShape};
    pub use rdg_exec::{
        ClassStats, Executor, Priority, ServeClient, ServeConfig, ServeError, ServeStats, Session,
        WaveSizing,
    };
    pub use rdg_graph::{GraphRef, Module, ModuleBuilder, ParamId, SubGraphHandle, Wire};
    pub use rdg_models::{
        build_iterative, build_recursive, build_td_iterative, build_td_recursive, ModelConfig,
        ModelKind, TdConfig, UnrolledModel,
    };
    pub use rdg_nn::{Adagrad, Adam, Optimizer, Sgd, Trainer};
    pub use rdg_tensor::{DType, Shape, Tensor};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_basic_flow_works() {
        let mut mb = ModuleBuilder::new();
        let x = mb.const_f32(2.0);
        let y = mb.scale(x, 3.0).unwrap();
        mb.set_outputs(&[y]).unwrap();
        let s = Session::new(Executor::with_threads(1), mb.finish().unwrap()).unwrap();
        assert_eq!(s.run(vec![]).unwrap()[0].as_f32_scalar().unwrap(), 6.0);
    }
}
