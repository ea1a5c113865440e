//! Perf-regression harness: snapshot documents and the one comparator
//! that gates a fresh run against a committed baseline.
//!
//! Two snapshot kinds share one schema ([`SCHEMA_VERSION`]):
//!
//! * `suite` — written by `amnesiac bench-snapshot` ([`snapshot`]): per
//!   benchmark, the per-policy EDP/energy/time gains, the verifier and
//!   validation counters, and the stage wall times;
//! * `serve` — written by `amnesiac loadgen --json`: the load config plus
//!   the cold and warm bursts' outcomes.
//!
//! [`compare`] applies the gate list of the documents' kind. Gains are
//! deterministic (the simulator has no timing dependence, and the gains
//! do not depend on the worker-pool size), so every suite gain cell is
//! gated with zero slack. Wall-clock numbers — stage times, latencies,
//! throughput — are never gated; they come back as advisory notes or
//! ride along in the snapshot for trend inspection.

use std::fmt::Write as _;

use amnesiac_telemetry::{Json, ToJson};
use amnesiac_workloads::Scale;

use crate::pipeline::{EvalSuite, PolicyOutcome};

/// The snapshot layout version; [`compare`] accepts no other.
///
/// v2 added the per-bench `verify` block, v3 the `kind` discriminator,
/// v4 the serve snapshot's `results.cache` and `results.warm` blocks.
pub const SCHEMA_VERSION: u64 = 4;

/// Slack, in percentage points, on the serve error-rate gates: a request
/// that misses its deadline on a loaded host counts as an error, so the
/// rate is not fully deterministic the way suite gains are.
const SERVE_ERROR_RATE_SLACK_PP: f64 = 0.05;

/// Snapshot label for a workload scale.
fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Paper => "paper",
    }
}

/// The workload scale a suite snapshot records in its `scale` field.
///
/// # Errors
///
/// Returns a message when the field is absent or names no known scale.
pub fn snapshot_scale(doc: &Json) -> Result<Scale, String> {
    match doc.get("scale").and_then(Json::as_str) {
        Some("test") => Ok(Scale::Test),
        Some("paper") => Ok(Scale::Paper),
        Some(other) => Err(format!("unknown scale `{other}`")),
        None => Err("suite snapshot has no `scale`".to_string()),
    }
}

/// The `kind` of a snapshot document (`"suite"` or `"serve"`).
///
/// # Errors
///
/// Returns a message naming the version when the document is not at
/// [`SCHEMA_VERSION`], or when it carries no `kind`.
pub fn snapshot_kind(doc: &Json) -> Result<&str, String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("not a bench snapshot (no `schema_version`)")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "snapshot schema {version} is not the supported {SCHEMA_VERSION}; re-snapshot it"
        ));
    }
    doc.get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "snapshot has no `kind`".to_string())
}

/// Builds the snapshot document for a computed suite. `scale` records the
/// workload scale the suite ran at; [`compare`] only diffs snapshots of
/// one scale.
pub fn snapshot(suite: &EvalSuite, scale: Scale) -> Json {
    let mut benches = Json::obj();
    for bench in &suite.benches {
        let mut gains = Json::obj();
        for &p in &PolicyOutcome::ALL {
            gains.set(
                p.label(),
                Json::obj()
                    .with("edp_gain_pct", bench.edp_gain(p))
                    .with("energy_gain_pct", bench.energy_gain(p))
                    .with("time_gain_pct", bench.time_gain(p)),
            );
        }
        let verify = Json::obj()
            .with(
                "errors",
                bench.prob_report.verify.error_count() + bench.oracle_report.verify.error_count(),
            )
            .with(
                "warnings",
                bench.prob_report.verify.warn_count() + bench.oracle_report.verify.warn_count(),
            );
        // how much dynamic replay the static equivalence pre-pass retired
        let validation = Json::obj()
            .with(
                "rounds",
                u64::from(bench.prob_report.validation_rounds)
                    + u64::from(bench.oracle_report.validation_rounds),
            )
            .with(
                "rounds_saved_static",
                u64::from(bench.prob_report.validation_rounds_saved_static)
                    + u64::from(bench.oracle_report.validation_rounds_saved_static),
            );
        benches.set(
            bench.name,
            Json::obj()
                .with("pipeline_ms", bench.stages.total_ms())
                .with("stages", bench.stages.to_json())
                .with("gains", gains)
                .with("verify", verify)
                .with("validation", validation),
        );
    }
    Json::obj()
        .with("schema_version", SCHEMA_VERSION)
        .with("kind", "suite")
        .with("scale", scale_label(scale))
        .with("benches", benches)
}

/// One gated metric that moved the wrong way by more than its slack.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Dotted path of the metric in the snapshot, e.g.
    /// `benches.is.gains.Compiler.edp_gain_pct`.
    pub metric: String,
    /// The baseline value.
    pub baseline: f64,
    /// The freshly measured value.
    pub current: f64,
}

/// The outcome of [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The kind both snapshots share.
    pub kind: String,
    /// How many metrics were gated.
    pub gated: usize,
    /// Gated metrics that regressed; empty means the run passes.
    pub regressions: Vec<Regression>,
    /// Advisory lines, never part of the verdict: suite gain cells that
    /// are exactly zero in the baseline (the effect does not show there,
    /// so the cell guards little), and serve latency/throughput deltas.
    pub notes: Vec<String>,
}

impl Comparison {
    /// `true` iff no gated metric regressed.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Renders the comparison for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.ok() {
            let _ = writeln!(
                out,
                "bench-compare({}): OK — {} gated metric(s) held",
                self.kind, self.gated
            );
        } else {
            let _ = writeln!(
                out,
                "bench-compare({}): {} of {} gated metric(s) regressed:",
                self.kind,
                self.regressions.len(),
                self.gated
            );
            for r in &self.regressions {
                let _ = writeln!(
                    out,
                    "  {}: baseline {}, current {}",
                    r.metric, r.baseline, r.current
                );
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }
}

impl ToJson for Comparison {
    /// `{schema_version, kind, ok, gated, notes, regressions}`.
    fn to_json(&self) -> Json {
        Json::obj()
            .with("schema_version", SCHEMA_VERSION)
            .with("kind", self.kind.as_str())
            .with("ok", self.ok())
            .with("gated", self.gated)
            .with("notes", self.notes.clone())
            .with(
                "regressions",
                self.regressions
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .with("metric", r.metric.as_str())
                            .with("baseline", r.baseline)
                            .with("current", r.current)
                    })
                    .collect::<Vec<_>>(),
            )
    }
}

/// A gated metric: its path, which way is better, and how far it may
/// move the wrong way before it counts as a regression.
struct Gate {
    path: String,
    higher_is_better: bool,
    slack: f64,
}

/// The number at `path` in `doc`.
fn number(doc: &Json, label: &str, path: &str) -> Result<f64, String> {
    doc.get_path(path)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{label}: missing number `{path}`"))
}

/// Diffs a fresh snapshot against a baseline of the same kind.
///
/// Both documents must be at [`SCHEMA_VERSION`] and carry the same
/// `kind`. The gates then depend on the kind:
///
/// * `suite` — every `benches.*.gains.*.*` cell of the baseline, higher
///   is better, zero slack. Both snapshots must record the same `scale`.
/// * `serve` — `error_rate_pct` (0.05 pp slack) and `protocol_errors` (no
///   slack) of the cold burst (`results`) and of the warm one
///   (`results.warm`), both lower is better. The schedule is a pure
///   function of the embedded config, so both runs must have scheduled
///   the same number of requests.
///
/// # Errors
///
/// Returns a message on a schema or kind mismatch, a missing field, a
/// scale mismatch, or a scheduled-count mismatch.
pub fn compare(baseline: &Json, current: &Json) -> Result<Comparison, String> {
    let kind = snapshot_kind(baseline).map_err(|e| format!("baseline: {e}"))?;
    let gates_of = match kind {
        "suite" => suite_gates,
        "serve" => serve_gates,
        other => return Err(format!("baseline: unknown snapshot kind `{other}`")),
    };
    let current_kind = snapshot_kind(current).map_err(|e| format!("current: {e}"))?;
    if kind != current_kind {
        return Err(format!(
            "baseline is a `{kind}` snapshot but current is a `{current_kind}` snapshot"
        ));
    }
    let mut notes = Vec::new();
    let gates = gates_of(baseline, current, &mut notes)?;
    let gated = gates.len();
    let mut regressions = Vec::new();
    for gate in gates {
        let base = number(baseline, "baseline", &gate.path)?;
        let cur = number(current, "current", &gate.path)?;
        let worse_by = if gate.higher_is_better {
            base - cur
        } else {
            cur - base
        };
        if worse_by > gate.slack {
            regressions.push(Regression {
                metric: gate.path,
                baseline: base,
                current: cur,
            });
        }
    }
    Ok(Comparison {
        kind: kind.to_string(),
        gated,
        regressions,
        notes,
    })
}

/// Every gain cell of a suite baseline, after checking both runs share
/// its scale; zero cells are noted.
fn suite_gates(
    baseline: &Json,
    current: &Json,
    notes: &mut Vec<String>,
) -> Result<Vec<Gate>, String> {
    let scale = snapshot_scale(baseline).map_err(|e| format!("baseline: {e}"))?;
    let current_scale = snapshot_scale(current).map_err(|e| format!("current: {e}"))?;
    if scale != current_scale {
        return Err(format!(
            "baseline ran at {} scale but current at {} scale",
            scale_label(scale),
            scale_label(current_scale)
        ));
    }
    let benches = baseline
        .get("benches")
        .and_then(Json::as_obj)
        .ok_or("baseline: missing `benches`")?;
    let mut gates = Vec::new();
    for (bench, entry) in benches {
        let gains = entry
            .get("gains")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("baseline: `{bench}` has no gains"))?;
        for (policy, metrics) in gains {
            let metrics = metrics
                .as_obj()
                .ok_or_else(|| format!("baseline: `{bench}.{policy}` is not an object"))?;
            for (metric, value) in metrics {
                let path = format!("benches.{bench}.gains.{policy}.{metric}");
                if value.as_f64() == Some(0.0) {
                    notes.push(format!(
                        "baseline gain `{path}` is exactly zero: the effect does not \
                         show at this scale"
                    ));
                }
                gates.push(Gate {
                    path,
                    higher_is_better: true,
                    slack: 0.0,
                });
            }
        }
    }
    Ok(gates)
}

/// The cold and warm bursts' reliability metrics, after checking both
/// runs replayed the same schedule; latency and throughput deltas are
/// noted.
fn serve_gates(
    baseline: &Json,
    current: &Json,
    notes: &mut Vec<String>,
) -> Result<Vec<Gate>, String> {
    let scheduled = number(baseline, "baseline", "results.scheduled")?;
    let current_scheduled = number(current, "current", "results.scheduled")?;
    if scheduled != current_scheduled {
        return Err(format!(
            "scheduled request counts differ (baseline {scheduled}, current \
             {current_scheduled}); the run did not replay the baseline's config/seed"
        ));
    }
    let mut gates = Vec::new();
    for burst in ["results", "results.warm"] {
        for metric in [
            "latency_ms.p50",
            "latency_ms.p99",
            "latency_ms.p999",
            "throughput_rps",
        ] {
            let path = format!("{burst}.{metric}");
            let (Ok(base), Ok(cur)) = (
                number(baseline, "baseline", &path),
                number(current, "current", &path),
            ) else {
                continue;
            };
            let delta_pct = if base != 0.0 {
                100.0 * (cur - base) / base
            } else {
                0.0
            };
            notes.push(format!(
                "{path}: baseline {base:.3}, current {cur:.3} ({delta_pct:+.1}%)"
            ));
        }
        gates.push(Gate {
            path: format!("{burst}.error_rate_pct"),
            higher_is_better: false,
            slack: SERVE_ERROR_RATE_SLACK_PP,
        });
        gates.push(Gate {
            path: format!("{burst}.protocol_errors"),
            higher_is_better: false,
            slack: 0.0,
        });
    }
    Ok(gates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::BenchEval;
    use amnesiac_energy::EnergyModel;
    use amnesiac_telemetry::parse;
    use amnesiac_workloads::build_focal;

    fn suite_snapshot() -> Json {
        let suite = EvalSuite {
            benches: vec![BenchEval::compute(
                build_focal("is", Scale::Test),
                &EnergyModel::paper(),
            )],
            energy: EnergyModel::paper(),
        };
        snapshot(&suite, Scale::Test)
    }

    /// A hand-built serve snapshot in the shape `amnesiac-loadgen` emits
    /// (the crates cannot depend on each other; the CLI's tests cover the
    /// two staying in sync).
    fn serve_snapshot() -> Json {
        let burst = || {
            Json::obj()
                .with("scheduled", 450u64)
                .with("protocol_errors", 0u64)
                .with("error_rate_pct", 0.0)
                .with("throughput_rps", 299.0)
                .with(
                    "latency_ms",
                    Json::obj()
                        .with("p50", 2.0)
                        .with("p99", 5.0)
                        .with("p999", 10.0),
                )
        };
        Json::obj()
            .with("schema_version", SCHEMA_VERSION)
            .with("kind", "serve")
            .with(
                "config",
                Json::obj().with("rate", 300.0).with("seed", 42u64),
            )
            .with("results", burst().with("warm", burst()))
    }

    /// `doc` with the number at the dotted `path` replaced by `f(old)`.
    fn edit(doc: &Json, path: &str, f: impl Fn(f64) -> f64) -> Json {
        let mut doc = doc.clone();
        let (parent, key) = path.rsplit_once('.').unwrap_or(("", path));
        let mut node = &mut doc;
        for part in parent.split('.').filter(|p| !p.is_empty()) {
            node = node.get_mut(part).expect(part);
        }
        let old = node.get(key).and_then(Json::as_f64).expect(key);
        node.set(key, f(old));
        doc
    }

    /// `doc` without its top-level `key`.
    fn without(doc: &Json, key: &str) -> Json {
        let mut doc = doc.clone();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != key);
        }
        doc
    }

    const GAIN: &str = "benches.is.gains.Compiler.edp_gain_pct";

    #[test]
    fn one_comparator_gates_both_kinds() {
        let suite = suite_snapshot();
        let serve = serve_snapshot();
        // `Ok(None)`: clean; `Ok(Some(metric))`: exactly that metric
        // regressed; `Err(text)`: refused with a message containing `text`
        type Expect = Result<Option<&'static str>, &'static str>;
        let cases: Vec<(&str, Json, Json, Expect, &str)> = vec![
            (
                "suite against itself, after a disk round trip",
                suite.clone(),
                parse(&suite.pretty()).unwrap(),
                Ok(None),
                "",
            ),
            (
                "serve against itself",
                serve.clone(),
                serve.clone(),
                Ok(None),
                "results.warm.latency_ms.p99: baseline 5.000",
            ),
            (
                "a suite gain cell 1e-9 lower",
                suite.clone(),
                edit(&suite, GAIN, |g| g - 1e-9),
                Ok(Some(GAIN)),
                "",
            ),
            (
                "a suite gain cell improved",
                suite.clone(),
                edit(&suite, GAIN, |g| g + 5.0),
                Ok(None),
                "",
            ),
            (
                "a zero baseline cell is noted",
                edit(&suite, GAIN, |_| 0.0),
                edit(&suite, GAIN, |_| 0.0),
                Ok(None),
                "baseline gain `benches.is.gains.Compiler.edp_gain_pct` is exactly zero",
            ),
            (
                "serve error rate inside the slack",
                serve.clone(),
                edit(&serve, "results.error_rate_pct", |r| r + 0.04),
                Ok(None),
                "",
            ),
            (
                "serve error rate past the slack, latency 10x worse",
                serve.clone(),
                edit(
                    &edit(&serve, "results.error_rate_pct", |r| r + 0.06),
                    "results.latency_ms.p99",
                    |l| l * 10.0,
                ),
                Ok(Some("results.error_rate_pct")),
                "results.latency_ms.p99: baseline 5.000, current 50.000 (+900.0%)",
            ),
            (
                "one more protocol error",
                serve.clone(),
                edit(&serve, "results.protocol_errors", |e| e + 1.0),
                Ok(Some("results.protocol_errors")),
                "",
            ),
            (
                "a warm-burst regression",
                serve.clone(),
                edit(&serve, "results.warm.error_rate_pct", |r| r + 1.0),
                Ok(Some("results.warm.error_rate_pct")),
                "",
            ),
            (
                "a scheduled-count mismatch",
                serve.clone(),
                edit(&serve, "results.scheduled", |s| s + 1.0),
                Err("scheduled request counts differ"),
                "",
            ),
            (
                "snapshots of different kinds",
                suite.clone(),
                serve.clone(),
                Err("baseline is a `suite` snapshot but current is a `serve` snapshot"),
                "",
            ),
            (
                "a schema 1 baseline",
                edit(&suite, "schema_version", |_| 1.0),
                suite.clone(),
                Err("baseline: snapshot schema 1 is not the supported 4"),
                "",
            ),
            (
                "a schema 3 current",
                serve.clone(),
                edit(&serve, "schema_version", |_| 3.0),
                Err("current: snapshot schema 3 is not the supported 4"),
                "",
            ),
            (
                "a suite baseline without a scale",
                without(&suite, "scale"),
                suite.clone(),
                Err("baseline: suite snapshot has no `scale`"),
                "",
            ),
            (
                "a suite baseline without a kind",
                without(&suite, "kind"),
                suite.clone(),
                Err("baseline: snapshot has no `kind`"),
                "",
            ),
            (
                "a baseline of an unknown kind",
                suite.clone().with("kind", "bogus"),
                suite.clone().with("kind", "bogus"),
                Err("baseline: unknown snapshot kind `bogus`"),
                "",
            ),
            (
                "not a snapshot",
                Json::obj(),
                suite.clone(),
                Err("no `schema_version`"),
                "",
            ),
        ];
        for (name, baseline, current, expect, note) in cases {
            let outcome = compare(&baseline, &current);
            match (expect, outcome) {
                (Ok(want), Ok(c)) => {
                    let want: Vec<&str> = want.into_iter().collect();
                    let got: Vec<&str> = c.regressions.iter().map(|r| r.metric.as_str()).collect();
                    assert_eq!(got, want, "{name}");
                    // the JSON twin carries the same verdict, kind,
                    // regressions and notes
                    let json = parse(&c.to_json().pretty()).unwrap();
                    assert_eq!(json.get("ok"), Some(&Json::Bool(want.is_empty())), "{name}");
                    assert_eq!(
                        json.get("kind").and_then(Json::as_str),
                        snapshot_kind(&baseline).ok(),
                        "{name}"
                    );
                    assert_eq!(
                        json.get("kind").and_then(Json::as_str),
                        Some(c.kind.as_str())
                    );
                    let field = |key: &str, sub: Option<&str>| -> Vec<String> {
                        json.get(key)
                            .and_then(Json::as_arr)
                            .expect(key)
                            .iter()
                            .map(|v| sub.map_or(Some(v), |s| v.get(s)))
                            .map(|v| v.and_then(Json::as_str).expect(key).to_string())
                            .collect()
                    };
                    assert_eq!(field("regressions", Some("metric")), want, "{name}");
                    let notes = field("notes", None);
                    assert_eq!(notes, c.notes, "{name}");
                    assert!(
                        note.is_empty() || notes.iter().any(|n| n.contains(note)),
                        "{name}: {notes:?}"
                    );
                    let text = c.render();
                    assert!(
                        want.first()
                            .map_or(text.contains("OK"), |m| text.contains(m)),
                        "{name}: {text}"
                    );
                }
                (Err(want), Err(e)) => assert!(e.contains(want), "{name}: {e}"),
                (want, got) => panic!("{name}: expected {want:?}, got {got:?}"),
            }
        }
    }

    #[test]
    fn suite_snapshot_records_scale_and_counters() {
        let snap = suite_snapshot();
        assert_eq!(snapshot_kind(&snap), Ok("suite"));
        assert_eq!(snapshot_scale(&snap), Ok(Scale::Test));
        assert_eq!(
            snap.get_path("benches.is.verify.errors")
                .and_then(Json::as_f64),
            Some(0.0),
            "pipeline-gated binaries must snapshot zero verify errors"
        );
        for counter in ["rounds", "rounds_saved_static"] {
            let path = format!("benches.is.validation.{counter}");
            assert!(snap.get_path(&path).is_some(), "{path}");
        }
    }
}
