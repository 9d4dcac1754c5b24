//! The single file through which the benchmark touches the `rdg_*` crates.
//!
//! Everything the benchmark calls in the program under test is re-exported
//! (or thinly wrapped) here, so an API change in `crates/` shows up as a
//! compile error in this one file. Pinned signatures:
//!
//! ```text
//! Executor::with_threads(usize) -> Arc<Executor>
//! Executor::stats(&self) -> &Arc<ExecStats>
//! ExecStats::snapshot(&self) -> StatsSnapshot
//! ExecStats::enable_profiling(&self)
//! ExecStats::kernel_profile(&self) -> HashMap<&'static str, (Duration, u64)>
//! Session::new(Arc<Executor>, Module) -> Result<Session, ExecError>
//! Session::run(&self, Vec<Tensor>) -> Result<Vec<Tensor>, ExecError>
//! Session::run_many(&self, Vec<Vec<Tensor>>) -> Vec<Result<Vec<Tensor>, ExecError>>
//! Session::run_training_batch(&self, Vec<Vec<Tensor>>) -> Result<Vec<Vec<Tensor>>, ExecError>
//! Session::serve(&self) -> ServeClient
//! Session::plan(&self) -> &Arc<ModulePlan>
//! Session::params(&self) -> &Arc<ParamStore>
//! Session::grads(&self) -> &Arc<GradStore>
//! ModulePlan::spec_stats(&self) -> SpecStats  { hits, misses, promotions, .. }
//! StatsSnapshot { ops_executed, frames_spawned, continuations, cache_writes, cache_reads,
//!                 fusable_seen, fused_tasks, fused_groups, .. }
//! ServeStats { completed, batches, wave_target, wait, service: LatencyPercentiles { p50_us, p99_us, .. },
//!              rejected, expired, shed, shed_inflight, shed_predicted, abandoned, .. }
//! ServeClient::submit(&self, Vec<Tensor>) -> Result<ServeTicket, ServeError>
//! ServeClient::stats(&self) -> ServeStats
//! ServeClient::shutdown(&self)
//! ServeTicket::wait(self) -> Result<Vec<Tensor>, ServeError>
//! Trainer::new(Session, O) -> Trainer<O>;  Trainer::step_batch(&mut self, Vec<Vec<Tensor>>) -> Result<Vec<f32>, ExecError>
//! Adagrad::new(f32);  Optimizer::step(&mut self, &ParamStore, &GradStore) -> Result<(), TensorError>
//! GradStore::scale_all(&self, f32) -> Result<(), TensorError>
//! build_recursive(&ModelConfig) -> Result<Module>;  Module::total_nodes(&self) -> usize
//! build_training_module(&Module, PortRef) -> Result<Module>
//! Dataset::generate(DatasetConfig) -> Dataset;  Dataset::generate_fixed_length(DatasetConfig, usize) -> Dataset
//! Dataset::split(&self, Split) -> &[Instance];  Dataset::feeds_per_instance(&[Instance]) -> Vec<Vec<Tensor>>
//! FoldEngine::new(ModelConfig);  FoldEngine::set_params(&mut self, Arc<ParamStore>)
//! FoldEngine::infer(&self, &[Instance]) -> Result<(f32, Tensor), TensorError>
//! FoldEngine::train_step(&self, &[Instance], &GradStore) -> Result<f32, TensorError>
//! ops::matmul(&Tensor, &Tensor) -> Result<Tensor>
//! ```
//!
//! Deliberately absent: `ReadyQueue`, `PathKey`, `plan_groups` and the
//! other internals ROADMAP items 1 and 3 intend to reshape — microbenches
//! of those belong in `crates/bench`.

use rdg_core::autodiff::build_training_module;
pub use rdg_core::data::{Dataset, DatasetConfig, Instance, Split, TreeShape};
pub use rdg_core::exec::{Executor, GradStore, ParamStore, ServeClient, ServeTicket, Session};
pub use rdg_core::fold::FoldEngine;
pub use rdg_core::graph::Module;
pub use rdg_core::models::{build_recursive, ModelConfig, ModelKind};
pub use rdg_core::nn::{Adagrad, Optimizer, Trainer};
pub use rdg_core::tensor::ops::matmul;
pub use rdg_core::tensor::Tensor;

/// `forward` extended with backpropagation of its loss (output 0).
pub fn training_module(forward: &Module) -> Result<Module, String> {
    build_training_module(forward, forward.main.outputs[0]).map_err(|e| e.to_string())
}

/// `[loss, logit 0, logit 1]` of one batch-1 model run (`[loss, logits]`).
pub fn loss_and_logits(outputs: &[Tensor]) -> Result<[f32; 3], String> {
    let loss = outputs
        .first()
        .ok_or("run returned no outputs")?
        .as_f32_scalar()
        .map_err(|e| e.to_string())?;
    let logits = outputs
        .get(1)
        .ok_or("run returned no logits")?
        .f32s()
        .map_err(|e| e.to_string())?;
    match logits {
        [a, b] => Ok([loss, *a, *b]),
        _ => Err(format!("expected 2 logits, got {}", logits.len())),
    }
}
