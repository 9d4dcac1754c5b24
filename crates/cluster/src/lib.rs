//! Data-parallel multi-machine training (paper Figure 10).
//!
//! The paper scales TreeLSTM training to 8 machines with "the well-known
//! data parallelism technique" (parameter server, Li et al. OSDI '14) and
//! observes near-linear speedup. This crate reproduces that experiment in
//! two modes:
//!
//! * [`run_real`] — every simulated machine is a thread group with its own
//!   executor and training session; all machines share one parameter store
//!   (the in-process stand-in for the parameter server). Synchronous SGD:
//!   compute shard gradients → barrier → aggregate → central update →
//!   barrier. Honest wall-clock numbers, but bounded by the host's physical
//!   cores (the paper used 8 × 36-core machines).
//! * [`run_virtual`] — calibrated virtual time: per-step compute times are
//!   *measured* on one real machine, then an `N`-machine synchronous step
//!   costs one formula ([`model_step`]): the mean over bootstrap windows of
//!   the `max` of `N` sampled compute times (the straggler) plus a
//!   parameter-server network term from the actual parameter byte count and
//!   a configurable bandwidth/latency ([`NetModel::sync_cost`]). This is the
//!   documented hardware substitution for the paper's cluster.

pub mod server;
pub mod virtual_time;

pub use server::{run_real, ClusterConfig, ClusterReport};
pub use virtual_time::{model_step, run_virtual, NetModel};
