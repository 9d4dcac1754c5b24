//! Dynamic wave sizing: an EWMA service-time controller for the
//! dispatcher's wave target.
//!
//! PR 4 sized every dispatch wave `workers × batch_multiple` — a fixed
//! guess. The right wave size depends on how long requests actually take:
//! tiny requests want big waves (amortize the dispatch handoff), slow
//! requests want small ones (a wave is joined as a unit, so its drain time
//! is the latency floor for everything queued behind it). The controller
//! closes that loop: it keeps an exponentially weighted moving average of
//! observed per-request service time and picks the largest wave whose
//! predicted drain time `(wave / workers) × ewma` still fits a configured
//! wall-clock budget, clamped to `[workers, workers × max_multiple]`.
//!
//! The controller is a pure fold over observed durations — no clock, no
//! locks. It lives inside `core::DispatchCore`, which feeds it one
//! observation per finished wave (`wave_done`, from the wave step)
//! whichever clock ran the wave: measured drain times in the live loop,
//! scripted ones in [`super::test_support::ScriptedServe`] — so tests
//! assert the resulting targets exactly.
//!
//! The budget bounds how long the *next* arrival waits behind a wave. It
//! stops bounding anything once the `Interactive` lane is saturated: with
//! `hi = workers × max_multiple` `Interactive` requests queued, every
//! arrival waits for all of them, because none overtakes a queued
//! `Interactive` request. On a loop whose requests stack a large weight,
//! `DispatchCore::form_wave` then forms one *backlog wave* of [`hi`]
//! instead of `hi / target` budget waves. `Interactive` is the one class
//! whose backlog such a wave cannot hurt; a `Batch` backlog would be
//! overtaken by a fresh `Interactive` arrival, so it keeps budget waves.
//! Backlog waves feed [`WaveController::observe_wave`] like any other,
//! and [`WaveController::target`] stays the budget target.
//!
//! [`hi`]: WaveController::hi

use super::WaveSizing;

/// EWMA wave-target controller. Owned by the dispatcher core; stats
/// snapshots and routing read its target and EWMA from there, under the
/// serving loop's state lock.
pub(crate) struct WaveController {
    sizing: WaveSizing,
    /// Wave target when sizing is fixed, and the dynamic controller's
    /// starting point before any observation arrives.
    initial: usize,
    workers: usize,
    /// EWMA of per-request service time, nanoseconds. `None` until the
    /// first observation.
    ewma_ns: Option<f64>,
}

impl WaveController {
    pub(crate) fn new(sizing: WaveSizing, batch_multiple: usize, workers: usize) -> Self {
        let workers = workers.max(1);
        let initial = match sizing {
            WaveSizing::Fixed => workers * batch_multiple.max(1),
            WaveSizing::Dynamic { max_multiple, .. } => {
                (workers * batch_multiple.max(1)).clamp(workers, workers * max_multiple.max(1))
            }
        };
        WaveController {
            sizing,
            initial,
            workers,
            ewma_ns: None,
        }
    }

    /// Feeds one completed wave: its request count and its wall-clock
    /// drain time (dispatch → last completion, nanoseconds). A no-op
    /// under fixed sizing.
    ///
    /// The controller deliberately observes at wave granularity, not per
    /// request: the dispatcher joins a wave in submission order, so a
    /// later request's individual dispatch→complete latency includes the
    /// wait for every earlier join and would double-count intra-wave
    /// queueing (inflating the EWMA and collapsing the target below the
    /// budget-optimal wave). The drain time divided by the wave's
    /// parallelism — `min(workers, wave_len)` busy lanes — is an
    /// unbiased per-request service estimate whatever the wave size.
    pub(crate) fn observe_wave(&mut self, wave_len: usize, drain_ns: u64) {
        let alpha = match self.sizing {
            WaveSizing::Fixed => return,
            WaveSizing::Dynamic { ewma_alpha, .. } => ewma_alpha.clamp(0.0, 1.0),
        };
        if wave_len == 0 {
            return;
        }
        let busy = self.workers.min(wave_len) as f64;
        // Floor at 1ns: a zero-drain wave (clock granularity, or a wave of
        // instantly-failing submissions) is "immeasurably fast", not free.
        // Feeding a raw 0 would decay the EWMA toward 0, pinning `target()`
        // at the hi clamp and reporting a 0ns estimate — which stats and
        // routing snapshots use as the "no estimate yet" value.
        let sample = (drain_ns as f64 * busy / wave_len as f64).max(1.0);
        self.ewma_ns = Some(match self.ewma_ns {
            None => sample,
            Some(prev) => alpha * sample + (1.0 - alpha) * prev,
        });
    }

    /// The EWMA the controller currently holds, nanoseconds (`None`
    /// before the first observation, or under fixed sizing).
    pub(crate) fn ewma_ns(&self) -> Option<f64> {
        self.ewma_ns
    }

    /// The wave target the next dispatch wave should use: the budget
    /// target.
    pub(crate) fn target(&self) -> usize {
        let (WaveSizing::Dynamic { wave_budget, .. }, Some(hi), Some(ewma)) =
            (self.sizing, self.hi(), self.ewma_ns)
        else {
            // Fixed sizing, or nothing observed yet: the configured
            // multiple (the first waves teach the dynamic controller).
            return self.initial;
        };
        if ewma <= 0.0 {
            return hi;
        }
        // Largest wave whose predicted drain (wave/workers × ewma) fits the
        // budget.
        let budget_ns = wave_budget.as_nanos() as f64;
        let ideal = (self.workers as f64 * budget_ns / ewma).floor() as usize;
        ideal.clamp(self.workers, hi)
    }

    /// The upper clamp of dynamic sizing, `workers × max_multiple` — also
    /// the size of a backlog wave (`DispatchCore::form_wave`). `None` under
    /// fixed sizing, which has no clamp and forms no backlog waves.
    pub(crate) fn hi(&self) -> Option<usize> {
        match self.sizing {
            WaveSizing::Fixed => None,
            WaveSizing::Dynamic { max_multiple, .. } => Some(self.workers * max_multiple.max(1)),
        }
    }
}

/// Predicted queue wait for a request entering a lane `depth` deep when
/// the per-request service EWMA is `ewma_ns` and `workers` lanes drain
/// concurrently: `depth × ewma ÷ workers`, saturating.
///
/// The prediction rule of predictive admission shedding, its one caller
/// (`DispatchCore::admit`, behind [`super::ServeClient::submit_slo`]
/// and the scripted driver alike).
pub(crate) fn predicted_wait_ns(depth: usize, ewma_ns: u64, workers: usize) -> u64 {
    let w = workers.max(1) as u128;
    (depth as u128 * ewma_ns as u128 / w).min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const MS: u64 = 1_000_000;

    #[test]
    fn predicted_wait_scales_with_depth_and_workers() {
        assert_eq!(predicted_wait_ns(0, MS, 2), 0, "empty lane waits nothing");
        assert_eq!(predicted_wait_ns(4, MS, 1), 4 * MS);
        assert_eq!(predicted_wait_ns(4, MS, 2), 2 * MS);
        assert_eq!(
            predicted_wait_ns(4, MS, 0),
            4 * MS,
            "zero workers clamps to 1"
        );
        // Saturates instead of wrapping on absurd inputs.
        assert_eq!(predicted_wait_ns(usize::MAX, u64::MAX, 1), u64::MAX);
    }

    fn dynamic(max_multiple: usize, budget_ms: u64, alpha: f64) -> WaveSizing {
        WaveSizing::Dynamic {
            max_multiple,
            wave_budget: Duration::from_millis(budget_ms),
            ewma_alpha: alpha,
        }
    }

    /// Drives the controller through waves of its *own* chosen size over
    /// a uniform true per-request service time: each wave's drain is what
    /// 2 greedy workers would take, i.e. `ceil(wave/2) × service`.
    fn drive_uniform(c: &mut WaveController, service_ns: u64, waves: usize) {
        for _ in 0..waves {
            let wave = c.target();
            let drain = (wave as u64).div_ceil(2) * service_ns;
            c.observe_wave(wave, drain);
        }
    }

    #[test]
    fn fixed_sizing_ignores_observations() {
        let mut c = WaveController::new(WaveSizing::Fixed, 4, 2);
        assert_eq!(c.target(), 8);
        for _ in 0..100 {
            c.observe_wave(8, 50 * MS);
        }
        assert_eq!(c.target(), 8, "fixed mode never adapts");
        assert_eq!(c.ewma_ns(), None);
    }

    #[test]
    fn dynamic_starts_from_the_configured_multiple() {
        let c = WaveController::new(dynamic(8, 5, 0.25), 4, 2);
        assert_eq!(c.target(), 8, "workers × batch_multiple before data");
    }

    #[test]
    fn fast_requests_converge_to_the_upper_clamp() {
        // 2 workers, 5 ms budget, 50 µs requests: the ideal wave is
        // 2 × 5ms / 50µs = 200, clamped to workers × max_multiple = 16.
        let mut c = WaveController::new(dynamic(8, 5, 0.25), 4, 2);
        drive_uniform(&mut c, 50_000, 64);
        assert_eq!(c.target(), 16);
        let ewma = c.ewma_ns().unwrap();
        assert!((ewma - 50_000.0).abs() < 1.0, "EWMA converged: {ewma}");
    }

    #[test]
    fn slow_requests_converge_to_the_lower_clamp() {
        // 20 ms requests against a 5 ms budget: ideal wave 0.5, clamped
        // up to the worker count — never below one request per worker.
        let mut c = WaveController::new(dynamic(8, 5, 0.25), 4, 2);
        drive_uniform(&mut c, 20 * MS, 64);
        assert_eq!(c.target(), 2);
    }

    #[test]
    fn moderate_requests_land_between_the_clamps() {
        // 2 ms requests, 5 ms budget, 2 workers: the continuous ideal is
        // 2 × 5/2 = 5. Waves of 5 on 2 workers drain in 3 slots (6 ms),
        // so the estimator reads 2.4 ms and settles one below — the
        // ceil-rounding bias is toward the budget, never past the clamps.
        let mut c = WaveController::new(dynamic(8, 5, 0.25), 4, 2);
        drive_uniform(&mut c, 2 * MS, 64);
        assert_eq!(c.target(), 4);
    }

    #[test]
    fn wave_observation_is_unbiased_by_join_order() {
        // The regression the wave-granularity observation exists for: a
        // 16-wave of 1 ms requests on 2 workers drains in 8 ms. Per-
        // request join-order latencies would average ~4.5 ms and collapse
        // the target to 2; the drain-based estimate recovers the true
        // 1 ms service and keeps the target at the budget-optimal 10.
        let mut c = WaveController::new(dynamic(8, 5, 1.0), 8, 2);
        assert_eq!(c.target(), 16);
        c.observe_wave(16, 8 * MS);
        assert_eq!(c.ewma_ns().unwrap(), MS as f64);
        assert_eq!(c.target(), 10);
    }

    #[test]
    fn single_request_waves_use_actual_parallelism() {
        // A 1-request wave keeps only one worker busy: the estimate must
        // divide by min(workers, wave_len), not workers, or every small
        // wave would double-count the idle lanes.
        let mut c = WaveController::new(dynamic(8, 5, 1.0), 4, 2);
        c.observe_wave(1, 500_000); // 0.5 ms true service
        assert_eq!(c.ewma_ns().unwrap(), 500_000.0);
        assert_eq!(c.target(), 16, "2 × 5ms / 0.5ms = 20, clamped to 16");
    }

    #[test]
    fn bimodal_service_times_track_the_ewma_fixed_point() {
        // Alternating 1 ms / 9 ms regimes with α = 0.5 (full 2-wide waves
        // so the estimate equals the true service): the EWMA oscillates
        // around 5 ms with a ±2 ms swing; the target must stay inside the
        // clamps and inside the band the two pure regimes would produce,
        // for every step after warmup.
        let mut c = WaveController::new(dynamic(8, 5, 0.5), 4, 2);
        let fast_target = {
            let mut f = WaveController::new(dynamic(8, 5, 0.5), 4, 2);
            f.observe_wave(2, MS);
            f.target()
        };
        let slow_target = {
            let mut s = WaveController::new(dynamic(8, 5, 0.5), 4, 2);
            s.observe_wave(2, 9 * MS);
            s.target()
        };
        assert!(slow_target < fast_target);
        for i in 0..128 {
            c.observe_wave(2, if i % 2 == 0 { MS } else { 9 * MS });
            if i >= 8 {
                let t = c.target();
                assert!(
                    (slow_target..=fast_target).contains(&t),
                    "step {i}: target {t} outside [{slow_target}, {fast_target}]"
                );
            }
        }
        // The fixed point: after a slow sample the EWMA sits near
        // (9 + 5)/2 = 7 ms → target 1 (clamped to 2); after a fast one
        // near (1 + 7)/2 = 3 ms → target 3.
        let ewma = c.ewma_ns().unwrap();
        assert!(
            (2.5 * MS as f64..=7.5 * MS as f64).contains(&ewma),
            "{ewma}"
        );
    }

    #[test]
    fn convergence_is_monotone_toward_a_regime_change() {
        // Switch from slow to fast mid-stream: the target must move
        // toward the new regime without overshooting the clamps.
        let mut c = WaveController::new(dynamic(8, 5, 0.25), 4, 2);
        drive_uniform(&mut c, 20 * MS, 32);
        assert_eq!(c.target(), 2);
        let mut last = c.target();
        for _ in 0..64 {
            let wave = c.target();
            let drain = (wave as u64).div_ceil(2) * 100_000;
            c.observe_wave(wave, drain);
            let t = c.target();
            assert!(t >= last, "target shrank during speed-up: {last} → {t}");
            assert!(t <= 16);
            last = t;
        }
        assert_eq!(last, 16, "fully converged to the upper clamp");
    }

    #[test]
    fn degenerate_configs_are_clamped_sane() {
        // Zero multiples and zero workers all collapse to ≥ 1; empty
        // waves are ignored.
        let c = WaveController::new(WaveSizing::Fixed, 0, 0);
        assert_eq!(c.target(), 1);
        let mut c = WaveController::new(dynamic(1, 5, 0.25), 0, 3);
        c.observe_wave(0, 1_000);
        assert_eq!(c.ewma_ns(), None, "empty wave is no observation");
        for _ in 0..8 {
            c.observe_wave(3, 3);
        }
        assert_eq!(c.target(), 3, "max_multiple 1 pins the wave to workers");
    }

    #[test]
    fn zero_drain_waves_keep_the_ewma_positive() {
        // A run of zero-drain waves (timer granularity) must not decay the
        // EWMA to 0: downstream publication truncates the EWMA to a u64
        // where 0 doubles as the "no estimate" sentinel, and `target()`
        // must keep returning something inside the clamps.
        let mut c = WaveController::new(dynamic(8, 5, 1.0), 4, 2);
        c.observe_wave(2, MS); // establish a real estimate first
        for _ in 0..64 {
            c.observe_wave(2, 0);
        }
        let ewma = c.ewma_ns().unwrap();
        assert!(ewma >= 1.0, "EWMA floored at 1ns, got {ewma}");
        let t = c.target();
        assert!((2..=16).contains(&t), "target stays clamped: {t}");
    }

    #[test]
    fn cold_start_zero_drain_does_not_panic_or_zero_the_target() {
        // First-ever observation is degenerate: no panic, no zero wave.
        let mut c = WaveController::new(dynamic(8, 5, 0.25), 4, 2);
        c.observe_wave(4, 0);
        assert_eq!(c.ewma_ns(), Some(1.0), "zero-drain sample floors to 1ns");
        let t = c.target();
        assert!(t >= 2, "target never collapses to zero: {t}");
    }

    #[test]
    fn empty_wave_is_a_no_op_even_after_observations() {
        // wave_len == 0 must not touch the EWMA (division by zero would
        // produce NaN and poison every later fold).
        let mut c = WaveController::new(dynamic(8, 5, 0.5), 4, 2);
        c.observe_wave(2, MS);
        let before = c.ewma_ns().unwrap();
        c.observe_wave(0, 0);
        c.observe_wave(0, 7 * MS);
        assert_eq!(c.ewma_ns().unwrap(), before, "empty waves are ignored");
        assert!(c.ewma_ns().unwrap().is_finite());
    }
}
