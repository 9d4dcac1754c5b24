//! Synchronous data-parallel training with a shared parameter store.

use rdg_autodiff::build_training_module;
use rdg_data::{Dataset, Split};
use rdg_exec::{ExecError, Executor, GradStore, ParamStore, Session};
use rdg_models::{build_recursive, ModelConfig};
use rdg_nn::{Adagrad, Optimizer};
use rdg_tensor::ops;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Cluster experiment parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of simulated machines.
    pub n_machines: usize,
    /// Worker threads per machine's executor.
    pub threads_per_machine: usize,
    /// The per-machine model (its `batch` is the per-machine shard size).
    pub model: ModelConfig,
    /// Synchronous steps to run.
    pub steps: usize,
    /// Learning rate for the central Adagrad update.
    pub lr: f32,
}

/// Result of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Machines used.
    pub n_machines: usize,
    /// Training throughput, instances per second.
    pub instances_per_sec: f64,
    /// Mean per-step wall time, seconds.
    pub step_seconds: f64,
    /// Individual per-step compute times (seconds) of machine 0, for
    /// virtual-time calibration.
    pub machine0_compute: Vec<f64>,
    /// Final training loss observed (sanity: training must not diverge).
    pub final_loss: f32,
}

/// Runs synchronous data-parallel training with real threads.
///
/// Each machine trains `cfg.model.batch` instances per step on its own
/// executor as a **concurrent batch run**: the module is built for one
/// instance and the minibatch launches as `batch` concurrent root frames
/// ([`Session::run_training_batch`]), so a machine's worker threads stay
/// busy even on comb-shaped trees. Gradients are averaged across instances
/// and machines and applied centrally.
///
/// Machine `m` trains on every `n_machines`-th training instance from `m`
/// on. A machine left without an instance is an error, returned before any
/// machine starts.
pub fn run_real(cfg: &ClusterConfig, data: &Dataset) -> Result<ClusterReport, ExecError> {
    let instances = data.split(Split::Train);
    let shards: Vec<Vec<_>> = (0..cfg.n_machines)
        .map(|m| {
            let shard = instances.iter().skip(m).step_by(cfg.n_machines);
            shard.cloned().collect()
        })
        .collect();
    if shards.iter().any(Vec::is_empty) {
        return Err(ExecError::internal(format!(
            "{} machines over {} training instances leave a machine without data",
            cfg.n_machines,
            instances.len()
        )));
    }
    // `cfg.model.batch` is the per-machine instances-per-step count; the
    // executed module itself is per-instance (cross-instance batching
    // happens in the runtime, not the graph).
    let mut per_instance = cfg.model.clone();
    per_instance.batch = 1;
    let module = build_recursive(&per_instance)?;
    let train = build_training_module(&module, module.main.outputs[0])?;
    // Shared "parameter server" store, initialized from the module specs.
    let params = Arc::new(ParamStore::from_module(&train));
    let n_params = train.params.len();
    let barrier = Arc::new(Barrier::new(cfg.n_machines));
    let merged = Arc::new(GradStore::new(n_params));
    let optimizer = Arc::new(Mutex::new(Adagrad::new(cfg.lr)));
    let losses = Arc::new(Mutex::new(vec![0.0f32; cfg.n_machines]));
    let compute_times = Arc::new(Mutex::new(Vec::<f64>::new()));

    let t0 = Instant::now();
    std::thread::scope(|scope| -> Result<(), ExecError> {
        let mut handles = Vec::new();
        for (m, shard) in shards.iter().enumerate() {
            let train = train.clone();
            let params = Arc::clone(&params);
            let barrier = Arc::clone(&barrier);
            let merged = Arc::clone(&merged);
            let optimizer = Arc::clone(&optimizer);
            let losses = Arc::clone(&losses);
            let compute_times = Arc::clone(&compute_times);
            let cfg = cfg.clone();
            handles.push(scope.spawn(move || -> Result<(), ExecError> {
                let exec = Executor::with_threads(cfg.threads_per_machine);
                let session = Session::with_params(exec, train, params)?;
                let per_step = cfg.model.batch;
                for step in 0..cfg.steps {
                    let lo = (step * per_step) % shard.len();
                    let mut batch = Vec::with_capacity(per_step);
                    for k in 0..per_step {
                        batch.push(shard[(lo + k) % shard.len()].clone());
                    }
                    let feeds_list = Dataset::feeds_per_instance(&batch);
                    let tc = Instant::now();
                    let outs = session.run_training_batch(feeds_list)?;
                    let compute = tc.elapsed().as_secs_f64();
                    if m == 0 {
                        compute_times.lock().expect("poisoned").push(compute);
                    }
                    let mean_loss = outs
                        .iter()
                        .map(|o| o[0].as_f32_scalar().unwrap_or(f32::NAN))
                        .sum::<f32>()
                        / per_step.max(1) as f32;
                    losses.lock().expect("poisoned")[m] = mean_loss;
                    // Contribute this machine's gradient sums (scaled to
                    // the global per-instance mean) to the merged store.
                    let scale = 1.0 / (cfg.n_machines * per_step.max(1)) as f32;
                    for pid in session.params().ids() {
                        if let Some(g) = session.grads().get(pid) {
                            let scaled = ops::scale(&g, scale).map_err(ExecError::optimizer)?;
                            merged
                                .accumulate(pid, &scaled)
                                .map_err(ExecError::optimizer)?;
                        }
                    }
                    // All gradients in: machine 0 applies the update.
                    barrier.wait();
                    if m == 0 {
                        optimizer
                            .lock()
                            .expect("poisoned")
                            .step(session.params(), &merged)
                            .map_err(ExecError::optimizer)?;
                        merged.clear();
                    }
                    // Update visible before the next step begins.
                    barrier.wait();
                }
                Ok(())
            }));
        }
        for h in handles {
            h.join()
                .map_err(|_| ExecError::internal("machine thread panicked"))??;
        }
        Ok(())
    })?;
    let wall = t0.elapsed().as_secs_f64();
    let total_instances = (cfg.steps * cfg.model.batch * cfg.n_machines) as f64;
    let final_loss = {
        let l = losses.lock().expect("poisoned");
        l.iter().sum::<f32>() / l.len() as f32
    };
    let machine0_compute = compute_times.lock().expect("poisoned").clone();
    Ok(ClusterReport {
        n_machines: cfg.n_machines,
        instances_per_sec: total_instances / wall,
        step_seconds: wall / cfg.steps as f64,
        machine0_compute,
        final_loss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdg_data::DatasetConfig;
    use rdg_models::ModelKind;

    #[test]
    fn two_machine_sync_training_runs() {
        let data = Dataset::generate(DatasetConfig {
            vocab: 100,
            n_train: 32,
            n_valid: 0,
            min_len: 3,
            max_len: 8,
            ..DatasetConfig::default()
        });
        let cfg = ClusterConfig {
            n_machines: 2,
            threads_per_machine: 1,
            model: ModelConfig::tiny(ModelKind::TreeRnn, 2),
            steps: 3,
            lr: 0.05,
        };
        let report = run_real(&cfg, &data).unwrap();
        assert!(report.instances_per_sec > 0.0);
        assert!(report.final_loss.is_finite());
        assert_eq!(report.machine0_compute.len(), 3);
    }

    /// Three machines over two instances: the third machine has no shard,
    /// which is an error up front — started, it would fail its first step
    /// while the other two wait on the step barrier forever. The run goes
    /// on a helper thread so a hang fails the test instead of stalling it.
    #[test]
    fn more_machines_than_instances_is_an_error_not_a_hang() {
        let data = Dataset::generate(DatasetConfig {
            vocab: 100,
            n_train: 2,
            n_valid: 0,
            min_len: 3,
            max_len: 6,
            ..DatasetConfig::default()
        });
        let cfg = ClusterConfig {
            n_machines: 3,
            threads_per_machine: 1,
            model: ModelConfig::tiny(ModelKind::TreeRnn, 1),
            steps: 2,
            lr: 0.05,
        };
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(run_real(&cfg, &data).map(|r| r.n_machines));
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_real returns within 60 s");
        assert!(
            matches!(outcome, Err(ExecError::Internal { .. })),
            "{outcome:?}"
        );
    }

    #[test]
    fn single_machine_degenerates_to_plain_training() {
        let data = Dataset::generate(DatasetConfig {
            vocab: 100,
            n_train: 8,
            n_valid: 0,
            min_len: 3,
            max_len: 6,
            ..DatasetConfig::default()
        });
        let cfg = ClusterConfig {
            n_machines: 1,
            threads_per_machine: 2,
            model: ModelConfig::tiny(ModelKind::TreeRnn, 2),
            steps: 2,
            lr: 0.05,
        };
        let report = run_real(&cfg, &data).unwrap();
        assert_eq!(report.n_machines, 1);
        assert!(report.step_seconds > 0.0);
    }
}
