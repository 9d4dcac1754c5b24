//! Virtual-time cluster model, calibrated from real single-machine steps.
//!
//! The model is one cost formula (paper Fig. 10's scaling argument). Given
//! `S` compute times `s[0..S]` measured on one real machine, a synchronous
//! step of `n` machines costs
//!
//! ```text
//! step(n) = mean over w < S of  max over k < n of  s[(w + 7k) mod S]    (the straggler)
//!         + sync_cost(n)                                                (the parameter server)
//! sync_cost(1) = 0,   sync_cost(n > 1) = 2 · latency + 2 · param_bytes / bandwidth
//! ```
//!
//! and throughput is `n · batch_per_machine / step(n)` ([`model_step`]).
//! [`run_virtual`] measures the samples with [`run_real`] on one machine and
//! evaluates the formula for the configured machine count.

use crate::server::{run_real, ClusterConfig, ClusterReport};
use rdg_data::Dataset;
use rdg_exec::ExecError;

/// Parameter-server network model.
#[derive(Clone, Copy, Debug)]
pub struct NetModel {
    /// One-way latency per synchronization round, seconds.
    pub latency_s: f64,
    /// Link bandwidth, bytes per second.
    pub bandwidth_bps: f64,
}

impl Default for NetModel {
    fn default() -> Self {
        // 10 GbE with 100 µs RTT-ish latency: the class of hardware the
        // paper's testbed would have used.
        NetModel {
            latency_s: 100e-6,
            bandwidth_bps: 10e9 / 8.0,
        }
    }
}

impl NetModel {
    /// Synchronization cost of one step for `n` machines pushing gradients
    /// and pulling parameters of `param_bytes` each (classic PS: push + pull
    /// per machine, server link is the bottleneck; sharding across machines
    /// divides the serialized volume).
    pub fn sync_cost(&self, n: usize, param_bytes: f64) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        // Sharded parameter server: each of the n servers handles 1/n of the
        // parameters for all n machines → per-step volume ≈ 2·param_bytes.
        2.0 * self.latency_s + 2.0 * param_bytes / self.bandwidth_bps
    }
}

/// The pure virtual-time model: step time for `n` synchronous machines from
/// measured single-machine compute samples.
///
/// `E[max of n samples]` (synchronous SGD waits for the straggler), averaged
/// over deterministic bootstrap windows, plus the network term. Returns
/// `(step_seconds, instances_per_sec)`.
pub fn model_step(
    samples: &[f64],
    n: usize,
    batch_per_machine: usize,
    net: &NetModel,
    param_bytes: f64,
) -> (f64, f64) {
    assert!(!samples.is_empty(), "need calibration samples");
    let mut max_sum = 0.0;
    for w in 0..samples.len() {
        let mut mx: f64 = 0.0;
        for k in 0..n {
            mx = mx.max(samples[(w + k * 7) % samples.len()]);
        }
        max_sum += mx;
    }
    let straggler_step = max_sum / samples.len() as f64;
    let step = straggler_step + net.sync_cost(n, param_bytes);
    let instances = (batch_per_machine * n) as f64;
    (step, instances / step)
}

/// Runs the calibration on one real machine, then models `n_machines`.
pub fn run_virtual(
    cfg: &ClusterConfig,
    data: &Dataset,
    net: &NetModel,
    param_bytes: f64,
) -> Result<ClusterReport, ExecError> {
    // Calibrate on a single real machine.
    let mut one = cfg.clone();
    one.n_machines = 1;
    let base = run_real(&one, data)?;
    let samples = &base.machine0_compute;
    if samples.is_empty() {
        return Err(ExecError::internal("no calibration samples"));
    }
    let (step, throughput) = model_step(samples, cfg.n_machines, cfg.model.batch, net, param_bytes);
    Ok(ClusterReport {
        n_machines: cfg.n_machines,
        instances_per_sec: throughput,
        step_seconds: step,
        machine0_compute: samples.clone(),
        final_loss: base.final_loss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdg_data::DatasetConfig;
    use rdg_models::{ModelConfig, ModelKind};

    #[test]
    fn sync_cost_is_zero_for_one_machine() {
        let net = NetModel::default();
        assert_eq!(net.sync_cost(1, 1e6), 0.0);
        assert!(net.sync_cost(8, 1e6) > 0.0);
    }

    #[test]
    fn model_scaling_is_nearly_linear_with_tight_samples() {
        // Deterministic samples with 5% jitter: the model must show the
        // paper's near-linear shape.
        let samples: Vec<f64> = (0..32)
            .map(|i| 0.10 + 0.005 * ((i * 13 % 7) as f64 / 7.0))
            .collect();
        let net = NetModel::default();
        let (_, t1) = model_step(&samples, 1, 10, &net, 1e6);
        let (_, t4) = model_step(&samples, 4, 10, &net, 1e6);
        let (_, t8) = model_step(&samples, 8, 10, &net, 1e6);
        let s4 = t4 / t1;
        let s8 = t8 / t1;
        assert!(s4 > 3.5, "4-machine speedup {s4:.2}");
        assert!(s8 > 6.5, "8-machine speedup {s8:.2}");
        assert!(s8 <= 8.0 + 1e-9, "speedup bounded by machine count");
    }

    #[test]
    fn straggler_variance_degrades_scaling() {
        // High-variance compute: max-of-n grows, scaling drops below linear.
        let tight: Vec<f64> = vec![0.1; 16];
        let loose: Vec<f64> = (0..16)
            .map(|i| if i % 4 == 0 { 0.2 } else { 0.05 })
            .collect();
        let net = NetModel {
            latency_s: 0.0,
            bandwidth_bps: f64::INFINITY,
        };
        let (_, tight8) = model_step(&tight, 8, 10, &net, 0.0);
        let (_, tight1) = model_step(&tight, 1, 10, &net, 0.0);
        let (_, loose8) = model_step(&loose, 8, 10, &net, 0.0);
        let (_, loose1) = model_step(&loose, 1, 10, &net, 0.0);
        assert!(
            (tight8 / tight1 - 8.0).abs() < 1e-9,
            "no variance → perfect scaling"
        );
        assert!(loose8 / loose1 < 8.0, "stragglers hurt");
    }

    #[test]
    fn model_step_output_bits_are_pinned() {
        let samples: Vec<f64> = (0..24).map(|i| 0.08 + 0.01 * ((i % 5) as f64)).collect();
        let net = NetModel::default();
        // `(step, instances/s)` bits for n = 1, 4 and 8 machines: the model
        // is a pure function of its inputs, the same to the last digit.
        let pinned: [(usize, u64, u64); 3] = [
            (1, 0x3fb9_62fc_962f_c964, 0x4059_35c8_1135_c810),
            (4, 0x3fbd_affd_d0c2_6c69, 0x4075_8ed3_c69a_aca1),
            (8, 0x3fbe_c10e_e1d3_7d7b, 0x4084_cf69_fae2_bc17),
        ];
        for (n, step, tput) in pinned {
            let (s, t) = model_step(&samples, n, 10, &net, 1e6);
            assert_eq!((s.to_bits(), t.to_bits()), (step, tput), "n={n}");
        }
    }

    #[test]
    fn run_virtual_smoke() {
        let data = Dataset::generate(DatasetConfig {
            vocab: 100,
            n_train: 8,
            n_valid: 0,
            min_len: 3,
            max_len: 6,
            ..DatasetConfig::default()
        });
        let cfg = ClusterConfig {
            n_machines: 4,
            threads_per_machine: 1,
            model: ModelConfig::tiny(ModelKind::TreeRnn, 2),
            steps: 2,
            lr: 0.05,
        };
        let r = run_virtual(&cfg, &data, &NetModel::default(), 1e5).unwrap();
        assert!(r.instances_per_sec > 0.0);
        assert_eq!(r.n_machines, 4);
    }
}
