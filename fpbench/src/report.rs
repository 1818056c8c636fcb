//! The metric tables (mirrored by `BENCHMARK.json`; a test keeps the two
//! equal) and the result line the driver reads.

use crate::stats::Better::{self, Higher, Lower};

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics with the share of the parent's median by which
/// each may worsen. Every workload reports every one of them, measured
/// with tracing off.
pub const END_TO_END: [(MetricDef, f64); 4] = [
    // Host seconds of environment build, scheduler init and the untimed
    // warm-up; median of several set-ups in one process.
    (m("setup_s", "s", Lower), 0.25),
    // Client dispatches resolved per host second; median over the units
    // of the run. One dispatch of a training workload is one client-round
    // (local_iters × batch adversarial samples). The bound is the widest
    // the contract allows because the sandbox is: the same binary on the
    // same seeds read 9.9, 9.4 and 8.3 dispatches/s on `prophet_sync` in
    // three ten-run sweeps an hour apart, and one sweep of `jfat_sync`
    // spread 13 % where the others spread 2 %. A tighter bound would gate
    // the neighbours' load, not the code.
    (m("dispatches_per_s", "1/s", Higher), 0.25),
    // VmHWM of the measured process (one malloc arena, see `main.rs`).
    (m("peak_rss_mb", "MB", Lower), 0.15),
    // Simulated seconds one unit takes on the modelled fleet. Repeats
    // exactly for a seed, and a host-speed change must not move it at
    // all (`--compare` holds equal seeds to that); the bound is as wide
    // as it is because the driver's runs differ in seed, and a
    // 2 700-dispatch unit of `fleet_async_planes` spread 3.7 % over seeds
    // 1–10 and 6.1 % over seeds 11–20.
    (m("virtual_time_s", "sim_s", Lower), 0.20),
];

/// Per-layer metrics of the traced pass. Probes (timed from outside at
/// fixed shapes) read the same under every workload; counts and self
/// times come from the workload's own traced unit and are 0 where the
/// workload does not exercise that code.
pub const PER_LAYER: [MetricDef; 76] = [
    // fp_tensor
    m("tensor.gemm_stage_gflops", "GFLOP/s", Higher),
    m("tensor.gemm_skinny_gflops", "GFLOP/s", Higher),
    m("tensor.quantize_melem_per_s", "Melem/s", Higher),
    m("tensor.dequantize_melem_per_s", "Melem/s", Higher),
    // fp_nn
    m("nn.cascade_fwd_ms", "ms", Lower),
    m("nn.cascade_bwd_ms", "ms", Lower),
    m("nn.window_step_ms.m0", "ms", Lower),
    m("nn.window_step_ms.m1", "ms", Lower),
    m("nn.window_step_ms.m2", "ms", Lower),
    m("nn.window_step_ms.m3", "ms", Lower),
    m("nn.sgd_step_us", "us", Lower),
    m("nn.flat_params_us", "us", Lower),
    m("nn.qcodec_encode_us", "us", Lower),
    m("nn.qcodec_decode_us", "us", Lower),
    m("nn.param_diff_us", "us", Lower),
    m("nn.apply_delta_us", "us", Lower),
    // fp_data
    m("data.next_batch_us", "us", Lower),
    m("data.generate_ms", "ms", Lower),
    m("data.partition_ms", "ms", Lower),
    // fp_attack
    m("attack.pgd_input_ms", "ms", Lower),
    m("attack.pgd_feature_ms", "ms", Lower),
    m("attack.pgd_share", "share", Lower),
    m("attack.eval_adv_ms", "ms", Lower),
    // fp_hwsim
    m("hwsim.round_trip_ns", "ns", Lower),
    m("hwsim.mem_req_us", "us", Lower),
    m("hwsim.forward_macs_us", "us", Lower),
    m("hwsim.predicted_over_measured", "ratio", Lower),
    // fp_fl probes
    m("fl.local_train_ms", "ms", Lower),
    m("fl.weighted_average_us", "us", Lower),
    m("fl.trimmed_mean_us", "us", Lower),
    m("fl.client_device_ns", "ns", Lower),
    m("fl.checkpoint_ms", "ms", Lower),
    m("fl.resume_ms", "ms", Lower),
    m("fl.resume_identical", "count", Higher),
    m("fl.fanout_ratio", "ratio", Lower),
    // fp_fl, from the traced unit
    m("fl.synthetic_train_us", "us", Lower),
    m("fl.synthetic_merge_us", "us", Lower),
    m("fl.quant_self_us", "us", Lower),
    m("fl.byz_self_us", "us", Lower),
    m("fl.engine_self_us_per_dispatch", "us", Lower),
    m("fl.sink_us_per_record", "us", Lower),
    m("fl.agg_wall_us_p50", "us", Lower),
    m("fl.agg_wall_us_tail", "us", Lower),
    m("fl.merged_per_dispatch", "ratio", Higher),
    m("fl.dropped_out", "count", Lower),
    m("fl.stragglers", "count", Lower),
    m("fl.timed_out", "count", Lower),
    m("fl.unavailable", "count", Lower),
    m("fl.outage_lost", "count", Lower),
    m("fl.throttled", "count", Lower),
    m("fl.filtered", "count", Lower),
    m("fl.clip_applied", "count", Lower),
    m("fl.delta_hit_share", "share", Higher),
    m("fl.up_reduction_vs_dense", "ratio", Higher),
    m("fl.mean_staleness", "versions", Lower),
    m("fl.max_staleness", "versions", Lower),
    m("fl.bundles", "count", Higher),
    m("fl.up_bytes", "B", Lower),
    m("fl.down_bytes", "B", Lower),
    // fedprophet probes
    m("core.window_train_ms.m0", "ms", Lower),
    m("core.window_train_ms.m1", "ms", Lower),
    m("core.window_train_ms.m2", "ms", Lower),
    m("core.window_train_ms.m3", "ms", Lower),
    m("core.window_train_prophet_ms", "ms", Lower),
    m("core.probe_dz_ms", "ms", Lower),
    m("core.partition_us", "us", Lower),
    m("core.assign_us", "us", Lower),
    // fedprophet, from the traced unit
    m("core.accounted_share", "share", Higher),
    m("core.mean_assigned", "modules", Higher),
    m("core.virtual_compute_s", "sim_s", Lower),
    m("core.virtual_data_s", "sim_s", Lower),
    m("core.virtual_transfer_s", "sim_s", Lower),
    m("core.mem_reduction", "share", Higher),
    // training quality of the unit (gated by floors, not by bounds)
    m("train.final_val_clean", "share", Higher),
    m("train.final_val_adv", "share", Higher),
    // harness
    m("bench.trace_overhead_share", "share", Lower),
];

/// A measured value with what to print beside it.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    /// Sample count or other provenance, for the printed table only.
    pub note: String,
}

/// What one run of one workload reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Measured>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, note: impl Into<String>) {
        self.metrics.push(Measured {
            name: name.to_string(),
            value,
            note: note.into(),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable table: every metric by name, with its unit.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in defs {
            let (v, note) = self
                .metrics
                .iter()
                .find(|m| m.name == d.name)
                .map_or((0.0, "not exercised"), |m| (m.value, m.note.as_str()));
            out.push_str(&format!(
                "  {:<34} {:>16} {:<8} {note}\n",
                d.name,
                fmt(v),
                d.unit
            ));
        }
        for f in &self.failures {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        out
    }

    /// The driver's result line: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, with every metric of `defs`.
    pub fn json_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.get(d.name).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    fmt(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest representation that reads back as the same `f64` — all the
/// digits that were measured — and valid JSON for the values we emit.
fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn end_to_end_defs() -> Vec<MetricDef> {
    END_TO_END.iter().map(|(d, _)| *d).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_every_metric_and_reads_back() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.push("setup_s", 0.123_456_789_012, "");
        let line = o.json_line(&end_to_end_defs());
        let v: crate::compare::Raw = serde_json::from_str(&line).unwrap();
        let top = v.0.as_map().unwrap();
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = serde::map_field(top, "metrics", "line")
            .unwrap()
            .as_map()
            .unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = metrics[0].1.as_map().unwrap();
        assert_eq!(setup[0].1.as_f64(), Some(0.123_456_789_012));
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        names.extend(END_TO_END.iter().map(|(d, _)| d.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        assert!(PER_LAYER.len() <= 128);
        for d in PER_LAYER.iter().chain(END_TO_END.iter().map(|(d, _)| d)) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(d.name.chars().all(ok), "{}", d.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(d.unit.chars().all(ok), "{}", d.unit);
        }
        for (d, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
        }
    }
}
