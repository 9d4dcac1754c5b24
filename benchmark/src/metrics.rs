//! Names, units and bounds of every metric, and of the five workloads.
//! `BENCHMARK.json` repeats the names; a unit test keeps the two equal.

/// One end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "inst_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "p99_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

/// One per-layer metric (traced run only; no bound): `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 52] = [
    // rdg_data
    ("data.gen_ms", "ms", "lower"),
    // rdg_models + rdg_graph (builder + analyzer gate)
    ("graph.build_ms", "ms", "lower"),
    ("graph.nodes", "count", "lower"),
    // rdg_autodiff
    ("autodiff.build_ms", "ms", "lower"),
    ("autodiff.nodes", "count", "lower"),
    // rdg_exec::plan (+ specialize)
    ("plan.build_ms", "ms", "lower"),
    ("plan.spec_hit_rate", "frac", "higher"),
    ("plan.promotions", "count", "lower"),
    ("plan.promote_ms", "ms", "lower"),
    ("setup.warmup_ms", "ms", "lower"),
    // rdg_exec::executor (+ queue, path)
    ("exec.frames_per_inst", "count", "lower"),
    ("exec.ops_per_inst", "count", "lower"),
    ("exec.continuations_per_inst", "count", "higher"),
    ("exec.run_us_p50", "us", "lower"),
    ("exec.us_per_op", "us", "lower"),
    // rdg_tensor
    ("kernel.busy_frac", "frac", "higher"),
    ("kernel.gemv_ns", "ns", "lower"),
    ("kernel.flops_per_inst", "count", "lower"),
    ("kernel.bytes_per_inst", "count", "lower"),
    // rdg_exec::cache
    ("cache.writes_per_inst", "count", "lower"),
    ("cache.reads_per_inst", "count", "lower"),
    // rdg_nn
    ("train.run_batch_ms", "ms", "lower"),
    ("train.scale_ms", "ms", "lower"),
    ("optim.step_ms", "ms", "lower"),
    // rdg_exec::serve
    ("serve.submit_us_p50", "us", "lower"),
    ("serve.wait_p50_ms", "ms", "lower"),
    ("serve.wait_p99_ms", "ms", "lower"),
    ("serve.service_p50_ms", "ms", "lower"),
    ("serve.service_p99_ms", "ms", "lower"),
    ("serve.mean_wave", "count", "higher"),
    ("serve.wave_target_end", "count", "higher"),
    ("serve.refused", "count", "lower"),
    ("serve.r1_p50_ms", "ms", "lower"),
    ("serve.r1_p99_ms", "ms", "lower"),
    ("serve.r2_p50_ms", "ms", "lower"),
    ("serve.r2_p99_ms", "ms", "lower"),
    ("serve.r3_p50_ms", "ms", "lower"),
    ("serve.r3_p99_ms", "ms", "lower"),
    ("serve.max_ok_rate", "1/s", "higher"),
    ("serve.queued_inst_per_s", "1/s", "higher"),
    ("serve.bare_inst_per_s", "1/s", "higher"),
    ("serve.overhead_frac", "frac", "lower"),
    ("serve.client_gap_p50_ms", "ms", "lower"),
    ("gen.late_p99_ms", "ms", "lower"),
    // rdg_exec::batch
    ("fusion.fused_frac", "frac", "higher"),
    ("fusion.mean_group", "count", "higher"),
    // rdg_fold (reference only)
    ("fold.inst_per_s", "1/s", "higher"),
    ("fold.rec_vs_fold", "ratio", "higher"),
    // the traced run itself
    ("trace.inst_per_s", "1/s", "higher"),
    ("trace.p50_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.segment_iqr_frac", "frac", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.1)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));
    }

    /// `BENCHMARK.json` is written one definition per line; each line must
    /// be exactly what these tables say, and there must be no others.
    #[test]
    fn benchmark_json_names_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let mut expected = 0;
        for w in Workload::ALL {
            let line = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why());
            assert!(json.contains(&line), "missing workload line: {line}");
            expected += 1;
        }
        for m in &END_TO_END {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(json.contains(&line), "missing end_to_end line: {line}");
            expected += 1;
        }
        for (name, unit, better) in &PER_LAYER {
            let line =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&line), "missing per_layer line: {line}");
            expected += 1;
        }
        assert_eq!(json.matches("\"name\":").count(), expected);
        let secs = format!("\"run_seconds\": {}", crate::consts::RUN_SECONDS);
        assert!(json.contains(&secs), "run_seconds differs from consts.rs");
    }
}
