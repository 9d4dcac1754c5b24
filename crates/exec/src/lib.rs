//! The `rdg` runtime: a parallel dataflow executor with first-class
//! support for recursive graphs.
//!
//! This crate implements the system-design half of the EuroSys '18 paper
//! "Improving the Expressiveness of Deep Learning Frameworks with
//! Recursion" (§4–§5):
//!
//! * [`executor::Executor`] — master/worker execution: one global FIFO
//!   ready queue ([`queue::ReadyQueue`]) feeding a pool of execution
//!   threads ([`executor::Executor::with_threads`]), with dependency-count
//!   scheduling and one claim → kernel → publish sequence for every task,
//!   scalar or fused. `InvokeOp` execution spawns a child frame
//!   scheduled like any other operations — recursive graphs run on the
//!   unmodified machinery (paper §4.1.2). The hot path is engineered down
//!   to near plain-op cost per invoke: frame cores are pooled,
//!   `Input`/`Const` nodes resolve while the frame spawns, and a worker
//!   that finishes an operation runs the first consumer it made ready
//!   itself, so only the surplus of a fork pays a queue round-trip (see
//!   the [`executor`] module docs). The executor is a **multi-run runtime**:
//!   [`executor::Executor::submit`] starts a run without blocking and
//!   returns a [`executor::RunHandle`]; every run carries its own
//!   [`executor::RunContext`] (feeds, result slot, grad/cache handles,
//!   stats, cancel state, fusion opt-in), so many root frames — a training
//!   minibatch, or a stream of serving requests — share one worker pool.
//! * [`plan::ModulePlan`] / [`plan::ExecutionPlan`] — per-graph scheduling
//!   metadata (topological order, in-degree counts, consumer wiring,
//!   spawn-time-resolvable prelude), precompiled once per module and reused
//!   by every frame. A plan is never rewritten: every run of a session
//!   executes the one plan it was built with, whatever the feeds.
//! * [`path::PathKey`] / [`path::PathTable`] — invocation paths
//!   (call-site chains), the keys of the backprop cache, hash-consed in a
//!   table the cache owns: extending a path is a lookup in that table and
//!   equality is a pointer compare. Inference runs build none.
//! * [`cache::BackpropCache`] — one training run's concurrent hash table,
//!   carrying forward activations to the mirrored backward frames (paper
//!   §5, Figure 6), sharded for concurrent insert/lookup.
//! * [`params::ParamStore`] / [`params::GradStore`] — parameters live
//!   outside the graph; gradients accumulate concurrently from many frames.
//! * [`session::Session`] — a planned module bound to parameters.
//! * [`serve::ServeQueue`] — QoS-aware admission-controlled serving:
//!   per-class bounded lanes ([`serve::Priority`]) with backpressure in
//!   front of the executor, an aged strict-priority pick (starvation is
//!   bounded by the aging step), a dispatcher whose wave size adapts to
//!   observed service times ([`serve::WaveSizing`]), and per-request
//!   latency percentiles aggregate and per class ([`serve::ServeStats`]).
//!   Entered via [`session::Session::serve`].
//! * [`sim`] — the same interpreter driven on one thread under a virtual
//!   clock, used to reproduce the paper's resource-dependent results on
//!   hardware smaller than the authors' 36-core testbed.
//!
//! # Quick start
//!
//! Build a module with [`rdg_graph::ModuleBuilder`], wrap it in a
//! [`Session`], and run it on an [`Executor`]:
//!
//! ```
//! use rdg_exec::{Executor, Session};
//! use rdg_graph::ModuleBuilder;
//! use rdg_tensor::DType;
//!
//! // sum(n) = n == 0 ? 0 : n + sum(n - 1), as a self-invoking SubGraph.
//! let mut mb = ModuleBuilder::new();
//! let h = mb.declare_subgraph("sum", &[DType::I32], &[DType::I32]);
//! mb.define_subgraph(&h, |b| {
//!     let n = b.input(0)?;
//!     let zero = b.const_i32(0);
//!     let p = b.igt(n, zero)?;
//!     let out = b.cond1(
//!         p,
//!         DType::I32,
//!         |b| {
//!             let one = b.const_i32(1);
//!             let m = b.isub(n, one)?;
//!             let rec = b.invoke(&h, &[m])?[0];
//!             b.iadd(n, rec)
//!         },
//!         |b| b.identity(zero),
//!     )?;
//!     Ok(vec![out])
//! })
//! .unwrap();
//! let start = mb.const_i32(10);
//! let out = mb.invoke(&h, &[start]).unwrap();
//! mb.set_outputs(&[out[0]]).unwrap();
//!
//! let exec = Executor::with_threads(2);
//! let session = Session::new(exec, mb.finish().unwrap()).unwrap();
//! let result = session.run(vec![]).unwrap();
//! assert_eq!(result[0].as_i32_scalar().unwrap(), 55);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod error;
pub mod executor;
pub mod kernel;
pub mod params;
pub mod path;
pub mod plan;
pub mod queue;
pub mod serve;
pub mod session;
pub mod sim;
pub mod stats;

pub use batch::{fuse_kind, plan_groups, FuseKind, GroupKey};
pub use cache::{BackpropCache, CacheKey, ShardedMap};
pub use error::ExecError;
pub use executor::{Executor, RunHandle};
pub use params::{GradStore, ParamStore};
pub use path::{PathKey, PathTable};
pub use plan::{ExecutionPlan, ModulePlan, SpecStats};
pub use serve::{
    ClassStats, LatencyPercentiles, Priority, ServeClient, ServeConfig, ServeError, ServeQueue,
    ServeStats, ServeTicket, WaveRecord, WaveSizing,
};
pub use session::Session;
pub use stats::{ExecStats, StatsSnapshot};
