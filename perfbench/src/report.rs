//! The metric vocabulary and the one-line JSON result every run prints.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: an untraced run prints exactly the end-to-end
//! metrics, a traced run exactly the per-layer ones (a test keeps the
//! tables and the file in step). A per-layer metric of a layer the
//! workload never reaches reads 0.

use std::collections::BTreeMap;

use amnesiac_telemetry::Json;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("eval_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("edp_gain_pct", "%"),
    ("edp_gain_oracle_pct", "%"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
];

/// The verbs of loadgen's default mix, for the per-verb server times.
pub const MIX_VERBS: [&str; 6] = ["compile", "disasm", "simulate", "trace", "stats", "verify"];

/// The five policy configurations of the paper, as metric-name stems.
pub const POLICY_STEMS: [&str; 5] = ["oracle", "c-oracle", "compiler", "flc", "llc"];

/// Layers that get a self-time metric (`self_ms.<layer>`), named after
/// the span each records.
pub const SPAN_LAYERS: [&str; 11] = [
    "bench", "isa", "profile", "sim", "compiler", "verify", "absint", "core", "request", "router",
    "serve",
];

/// Per-layer metrics: name and unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    add("workloads.build_ms", "ms");
    add("isa.decode_ms", "ms");
    add("profile.ms", "ms");
    add("profile.minst_per_s", "Minst/s");
    add("profile.over_classic", "ratio");
    add("sim.classic_ms", "ms");
    add("sim.minst_per_s", "Minst/s");
    add("compiler.prob_ms", "ms");
    add("compiler.oracle_ms", "ms");
    add("compiler.validation_rounds", "count");
    add("compiler.rounds_saved_static", "count");
    add("compiler.slices_selected", "count");
    add("compiler.slices_dropped", "count");
    add("compiler.keep_ratio", "ratio");
    add("verify.ms", "ms");
    add("absint.ms", "ms");
    for stem in POLICY_STEMS {
        add(&format!("core.{stem}_ms"), "ms");
    }
    add("core.minst_per_s", "Minst/s");
    add("core.fired", "count");
    add("core.recompute_insts", "count");
    add("core.hist_reads", "count");
    add("core.fire_ratio", "ratio");
    for run in ["classic", "compiler"] {
        for level in ["l1", "l2", "dram"] {
            add(&format!("mem.{run}.{level}_loads"), "count");
        }
    }
    add("energy.classic_nj", "nJ");
    add("energy.compiler_nj", "nJ");
    add("cache.hits", "count");
    add("cache.misses", "count");
    add("cache.hit_ratio", "ratio");
    add("cache.evictions", "count");
    add("cache.inflight_waits", "count");
    add("cache.bytes", "bytes");
    add("serve.elapsed_p50_ms", "ms");
    add("serve.elapsed_p99_ms", "ms");
    for verb in MIX_VERBS {
        add(&format!("serve.{verb}.elapsed_p50_ms"), "ms");
        add(&format!("serve.{verb}.elapsed_p99_ms"), "ms");
    }
    add("serve.wire_p50_ms", "ms");
    add("serve.wire_p99_ms", "ms");
    add("serve.expired_skipped", "count");
    add("serve.overloaded", "count");
    add("router.hop_p50_ms", "ms");
    add("router.hop_p99_ms", "ms");
    add("router.forwarded", "count");
    add("router.rerouted", "count");
    add("router.unavailable", "count");
    add("driver.late_max_ms", "ms");
    add("driver.late_p99_ms", "ms");
    for layer in SPAN_LAYERS {
        add(&format!("self_ms.{layer}"), "ms");
    }
    add("trace.spans", "count");
    add("trace.overhead_ms", "ms");
    add("trace.overhead_pct", "%");
    add("knee.rps", "1/s");
    add("knee.p99_ms", "ms");
    out
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (layer calls, requests, checks).
    pub attempted: u64,
    /// Operations that errored, went missing or failed a check.
    pub failed: u64,
    /// `false` when the run itself is invalid (the generator fell behind).
    pub valid: bool,
    /// End-to-end metric values.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values (absent = layer not on this path = 0).
    pub layer: BTreeMap<String, f64>,
}

impl Outcome {
    /// An empty, valid outcome.
    pub fn new() -> Outcome {
        Outcome {
            valid: true,
            ..Outcome::default()
        }
    }

    /// Sets a per-layer metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    /// Adds to a per-layer metric.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.layer.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Counts one operation, failed when `ok` is false.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: the end-to-end metrics, or with `trace` the
    /// per-layer ones.
    ///
    /// # Errors
    ///
    /// Names an end-to-end metric the workload failed to produce.
    pub fn result_json(&self, trace: bool) -> Result<Json, String> {
        let mut metrics = Json::obj();
        if trace {
            for (name, unit) in per_layer() {
                let value = self.layer.get(&name).copied().unwrap_or(0.0);
                metrics.set(&name, metric(value, unit));
            }
        } else {
            for (name, unit) in END_TO_END {
                let value = self
                    .e2e
                    .get(name)
                    .copied()
                    .ok_or_else(|| format!("workload did not produce `{name}`"))?;
                metrics.set(name, metric(value, unit));
            }
        }
        Ok(Json::obj()
            .with("correct", self.valid && self.failed == 0)
            .with("attempted", self.attempted.max(1))
            .with("failed", self.failed)
            .with("metrics", metrics))
    }
}

fn metric(value: f64, unit: &str) -> Json {
    let value = if value.is_finite() { value } else { 0.0 };
    Json::obj().with("value", value).with("unit", unit)
}

/// The `q`-quantile of `samples` (any order), interpolating linearly
/// between closest ranks; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc = amnesiac_telemetry::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layer);
    }

    #[test]
    fn traced_result_fills_unreached_layers_with_zero() {
        let mut outcome = Outcome::new();
        outcome.op(true);
        outcome.set("profile.ms", 12.5);
        let json = outcome.result_json(true).expect("per-layer result");
        let metrics = json.get("metrics").expect("metrics");
        assert_eq!(
            metrics
                .get("profile.ms")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(12.5)
        );
        assert_eq!(
            metrics
                .get("router.forwarded")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert!(
            outcome.result_json(false).is_err(),
            "e2e metrics are mandatory"
        );
    }
}
