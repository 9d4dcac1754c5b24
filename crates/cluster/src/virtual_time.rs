//! Virtual-time cluster model, calibrated from real single-machine steps.

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
/// `(step_seconds, instances_per_sec)`. This is [`model_step_injected`] with
/// [`DelayInjector::none`]: adding its zero delay leaves every sample as is.
pub fn model_step(
    samples: &[f64],
    n: usize,
    batch_per_machine: usize,
    net: &NetModel,
    param_bytes: f64,
) -> (f64, f64) {
    model_step_injected(
        samples,
        n,
        batch_per_machine,
        net,
        param_bytes,
        &DelayInjector::none(),
    )
}

/// Deterministic replica-level delay injection for the virtual-time
/// model: the cluster-side half of the serving stack's adversarial
/// schedule fuzzing (`rdg_exec::serve::fuzz`).
///
/// The fuzzer scripts worker stalls (`Event::Stall`) against the scripted
/// dispatcher; this injector carries the same idea to the cluster model —
/// a machine is slowed at deterministic `(machine, step)` points, and the
/// synchronous-SGD straggler effect (`E[max of n]`) propagates the delay
/// into step time. Everything is a pure function of the seed and the
/// profile: same injector → same delays → same modeled throughput, on
/// every host.
#[derive(Clone, Debug, PartialEq)]
pub struct DelayInjector {
    /// Seed of the random-stall component.
    seed: u64,
    /// Probability, in thousandths, that a given `(machine, step)` point
    /// draws a random stall of `delay_s`.
    prob_milli: u32,
    /// Random-stall magnitude, seconds.
    delay_s: f64,
    /// Deterministic per-machine extra delay, seconds (index = machine;
    /// machines beyond the profile get zero). This is where a serving
    /// fuzz scenario's stall profile lands.
    extra_s: Vec<f64>,
}

impl DelayInjector {
    /// No injection: [`DelayInjector::delay_for`] is identically zero and
    /// [`model_step_injected`] reduces to [`model_step`] exactly.
    pub fn none() -> Self {
        DelayInjector {
            seed: 0,
            prob_milli: 0,
            delay_s: 0.0,
            extra_s: Vec::new(),
        }
    }

    /// Seeded random stalls: each `(machine, step)` point independently
    /// draws a `delay_s`-second stall with probability
    /// `prob_milli / 1000`, from a SplitMix64 hash of
    /// `(seed, machine, step)` — deterministic across platforms.
    pub fn random(seed: u64, prob_milli: u32, delay_s: f64) -> Self {
        DelayInjector {
            seed,
            prob_milli: prob_milli.min(1000),
            delay_s,
            extra_s: Vec::new(),
        }
    }

    /// Builds a per-machine delay profile from a serving-fuzzer stall
    /// script (`rdg_exec::serve::fuzz::Scenario::stall_events`): each
    /// `(lane, dur_ns)` event adds `dur_ns` to machine `lane % n_machines`,
    /// so a schedule the fuzzer found adversarial for the dispatcher can
    /// be replayed as a straggler pattern at cluster level.
    pub fn from_stall_profile(stalls: &[(usize, u64)], n_machines: usize) -> Self {
        let n = n_machines.max(1);
        let mut extra_s = vec![0.0f64; n];
        for &(lane, dur_ns) in stalls {
            extra_s[lane % n] += dur_ns as f64 * 1e-9;
        }
        DelayInjector {
            seed: 0,
            prob_milli: 0,
            delay_s: 0.0,
            extra_s,
        }
    }

    /// The injected delay, in seconds, machine `machine` suffers at step
    /// `step`: its deterministic profile entry plus the seeded random
    /// stall (if that point drew one). Pure — two calls always agree.
    pub fn delay_for(&self, machine: usize, step: usize) -> f64 {
        let profile = self.extra_s.get(machine).copied().unwrap_or(0.0);
        if self.prob_milli == 0 {
            return profile;
        }
        // SplitMix64 over (seed, machine, step).
        let mut z = self
            .seed
            .wrapping_add((machine as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((step as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if z % 1000 < self.prob_milli as u64 {
            profile + self.delay_s
        } else {
            profile
        }
    }

    /// Whether this injector can never add delay.
    pub fn is_none(&self) -> bool {
        self.prob_milli == 0 && self.extra_s.iter().all(|&d| d == 0.0)
    }
}

/// [`model_step`] with replica-level delay injection: machine `k`'s
/// bootstrap sample in window `w` is inflated by
/// [`DelayInjector::delay_for`]`(k, w)` before the straggler `max`, so an
/// injected stall on *one* machine stalls the whole synchronous step —
/// exactly the degradation mode the serving fuzzer's `Stall` event probes
/// on the dispatcher side. With [`DelayInjector::none`] this is
/// [`model_step`], which calls it so.
pub fn model_step_injected(
    samples: &[f64],
    n: usize,
    batch_per_machine: usize,
    net: &NetModel,
    param_bytes: f64,
    inj: &DelayInjector,
) -> (f64, f64) {
    assert!(!samples.is_empty(), "need calibration samples");
    let mut max_sum = 0.0;
    for w in 0..samples.len() {
        let mut mx: f64 = 0.0;
        for k in 0..n {
            let s = samples[(w + k * 7) % samples.len()] + inj.delay_for(k, w);
            mx = mx.max(s);
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
    fn no_injection_reduces_to_the_plain_model_exactly() {
        let samples: Vec<f64> = (0..24).map(|i| 0.08 + 0.01 * ((i % 5) as f64)).collect();
        let net = NetModel::default();
        // `(step, instances/s)` bits of the plain model before it became a
        // call of the injected one (PR 21): the same to the last digit.
        let pinned: [(usize, u64, u64); 3] = [
            (1, 0x3fb9_62fc_962f_c964, 0x4059_35c8_1135_c810),
            (4, 0x3fbd_affd_d0c2_6c69, 0x4075_8ed3_c69a_aca1),
            (8, 0x3fbe_c10e_e1d3_7d7b, 0x4084_cf69_fae2_bc17),
        ];
        for (n, step, tput) in pinned {
            let plain = model_step(&samples, n, 10, &net, 1e6);
            let inj = model_step_injected(&samples, n, 10, &net, 1e6, &DelayInjector::none());
            assert_eq!(plain, inj, "n={n}: none() must be the identity");
            assert_eq!(
                (plain.0.to_bits(), plain.1.to_bits()),
                (step, tput),
                "n={n}"
            );
        }
        assert!(DelayInjector::none().is_none());
    }

    #[test]
    fn injection_is_deterministic_in_the_seed() {
        let a = DelayInjector::random(42, 250, 0.05);
        let b = DelayInjector::random(42, 250, 0.05);
        let mut fired = 0usize;
        for m in 0..8 {
            for s in 0..64 {
                assert_eq!(a.delay_for(m, s), b.delay_for(m, s));
                if a.delay_for(m, s) > 0.0 {
                    fired += 1;
                }
            }
        }
        // ~25% of 512 points should stall; exact count is seed-pinned.
        assert!(fired > 64 && fired < 256, "fired {fired} of 512");
        assert_ne!(
            (0..64).map(|s| a.delay_for(0, s) > 0.0).collect::<Vec<_>>(),
            (0..64)
                .map(|s| DelayInjector::random(43, 250, 0.05).delay_for(0, s) > 0.0)
                .collect::<Vec<_>>(),
            "different seeds draw different stall patterns"
        );
    }

    #[test]
    fn injected_delays_degrade_scaling() {
        let samples: Vec<f64> = vec![0.1; 16];
        let net = NetModel {
            latency_s: 0.0,
            bandwidth_bps: f64::INFINITY,
        };
        let (_, clean1) = model_step(&samples, 1, 10, &net, 0.0);
        let (_, clean8) = model_step(&samples, 8, 10, &net, 0.0);
        let inj = DelayInjector::random(7, 300, 0.1);
        let (_, hurt8) = model_step_injected(&samples, 8, 10, &net, 0.0, &inj);
        assert!(
            (clean8 / clean1 - 8.0).abs() < 1e-9,
            "tight samples scale perfectly without injection"
        );
        assert!(
            hurt8 < clean8,
            "injected stalls must cost throughput ({hurt8:.2} vs {clean8:.2})"
        );
        // With 30% stall probability per machine-step and 8 machines,
        // nearly every window has a straggler: speedup collapses.
        assert!(hurt8 / clean1 < 6.0, "stalls should break near-linearity");
    }

    #[test]
    fn serving_fuzz_stall_profile_bridges_to_the_cluster_model() {
        // The cross-layer path the fuzzer satellite exists for: a serving
        // schedule's replica stalls, found adversarial for the dispatcher,
        // replayed as a straggler profile in the cluster model.
        use rdg_exec::serve::fuzz::{replay, Event, Scenario, SizingSpec};
        use rdg_exec::Priority;
        let scenario = Scenario {
            name: "stall-bridge".into(),
            seed: 0,
            workers: 2,
            capacity: 8,
            batch_multiple: 2,
            aging_step_ns: 1_000_000,
            sizing: SizingSpec::Fixed,
            expect_p99_ns: None,
            expect_shed: None,
            events: vec![
                Event::Submit(Priority::Interactive, 300_000),
                Event::Stall(0, 40_000_000), // lane 0: 40 ms straggler
                Event::Stall(1, 10_000_000), // lane 1: 10 ms — no free lane
                Event::Submit(Priority::Interactive, 300_000),
                Event::Wave,
            ],
        };
        // The same stalls hurt the dispatcher's tail…
        let out = replay(&scenario);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(
            out.interactive_p99_ns >= 10_000_000,
            "a stalled lane must show up in the serving tail (p99 {} ns)",
            out.interactive_p99_ns
        );
        // …and, bridged through the profile, the cluster model's step.
        let inj = DelayInjector::from_stall_profile(&scenario.stall_events(), 4);
        assert_eq!(inj.delay_for(0, 0), 0.04);
        assert_eq!(inj.delay_for(1, 3), 0.01);
        assert_eq!(inj.delay_for(2, 0), 0.0);
        let samples: Vec<f64> = vec![0.05; 8];
        let net = NetModel {
            latency_s: 0.0,
            bandwidth_bps: f64::INFINITY,
        };
        let (clean_step, _) = model_step(&samples, 4, 10, &net, 0.0);
        let (stalled_step, _) = model_step_injected(&samples, 4, 10, &net, 0.0, &inj);
        assert!(
            (stalled_step - (clean_step + 0.04)).abs() < 1e-12,
            "the 40 ms straggler dominates every synchronous step: \
             {stalled_step:.4} vs clean {clean_step:.4}"
        );
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
