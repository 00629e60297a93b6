//! Report generation: per-cell results → BENCH_*.json-compatible
//! report, paired comparison table, and budget verdicts.
//!
//! The JSON shape follows the repo's existing `BENCH_PR*.json` files:
//! top-level `bench`/`date`/`command`/`description`/`config`/`runs`/
//! `summary` with a boolean `summary.pass`. The harness adds a
//! `comparisons` array (one entry per paired-ratio budget evaluation)
//! and embeds the scenario fingerprint in `config`, which is what lets
//! `experiments check` fail CI when a committed report drifts from the
//! scenario that claims to have produced it.

use std::time::{SystemTime, UNIX_EPOCH};

use iofwd_telemetry::json::{quote, Json};
use iofwd_telemetry::snapshot::TelemetrySnapshot;

use crate::replay::CellMeasurement;
use crate::scenario::{Budget, BudgetKind, Cell, Scenario};

/// One executed cell, reduced to named metrics and counters. This is
/// both a report row and the unit of checkpointing.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    pub cell: String,
    pub axes: Vec<(String, String)>,
    pub metrics: Vec<(String, f64)>,
    pub counters: Vec<(String, u64)>,
}

impl CellResult {
    pub fn from_measurement(
        cell: &Cell,
        m: &CellMeasurement,
        snapshot: &TelemetrySnapshot,
    ) -> CellResult {
        let client_ns = m.trace.client_ns.max(1) as f64;
        let pct = |ns: u64| (ns as f64 / client_ns * 100.0 * 10.0).round() / 10.0;
        // Allocation guard: payload-sized hot-path allocations (slab
        // misses, Vec reads) self-report into this counter, so
        // per-op bytes ≈ 0 is what "zero-copy" means, measurably.
        let alloc_per_op =
            snapshot.counter("hotpath_alloc_bytes") as f64 / m.ops_attempted.max(1) as f64;
        let metrics = vec![
            ("wall_ms".to_string(), round3(m.wall.as_secs_f64() * 1e3)),
            ("ops".to_string(), m.ops_attempted as f64),
            ("ops_failed".to_string(), m.ops_failed as f64),
            ("bytes_written".to_string(), m.bytes_written as f64),
            ("bytes_read".to_string(), m.bytes_read as f64),
            ("throughput_mib_s".to_string(), round3(m.throughput_mib_s())),
            ("completion_rate".to_string(), round3(m.completion_rate())),
            ("p50_us".to_string(), m.p50_us as f64),
            ("p99_us".to_string(), m.p99_us as f64),
            ("stage_network_pct".to_string(), pct(m.trace.network_ns())),
            ("stage_queue_pct".to_string(), pct(m.trace.queue_ns)),
            ("stage_dispatch_pct".to_string(), pct(m.trace.dispatch_ns)),
            ("stage_backend_pct".to_string(), pct(m.trace.backend_ns)),
            ("stage_reply_pct".to_string(), pct(m.trace.reply_ns)),
            ("alloc_bytes_per_op".to_string(), round3(alloc_per_op)),
        ];
        CellResult {
            cell: cell.name.clone(),
            axes: cell.axes.clone(),
            metrics,
            counters: snapshot.counters.clone(),
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Checkpoint encoding: one JSON file per cell, stamped with the
    /// scenario fingerprint so stale cells are re-run, not reused.
    pub fn to_checkpoint_json(&self, fingerprint: u64) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"fingerprint\": {},\n  \"cell\": {},\n",
            quote(&format!("{fingerprint:016x}")),
            quote(&self.cell)
        ));
        s.push_str("  \"axes\": ");
        s.push_str(&json_map(&self.axes, 2, |v| quote(v)));
        s.push_str(",\n  \"metrics\": ");
        s.push_str(&json_map(&self.metrics, 2, |v| fmt_f64(*v)));
        s.push_str(",\n  \"counters\": ");
        s.push_str(&json_map(&self.counters, 2, u64::to_string));
        s.push_str("\n}\n");
        s
    }

    /// Parse a checkpoint file; returns the stamped fingerprint too.
    pub fn from_checkpoint_json(text: &str) -> Result<(u64, CellResult), String> {
        let v = Json::parse(text)?;
        let fp_hex = v
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("checkpoint: missing fingerprint")?;
        let fingerprint = u64::from_str_radix(fp_hex, 16)
            .map_err(|_| "checkpoint: bad fingerprint".to_string())?;
        let cell = v
            .get("cell")
            .and_then(Json::as_str)
            .ok_or("checkpoint: missing cell")?
            .to_string();
        let axes = obj_entries(&v, "axes")?
            .iter()
            .map(|(k, val)| {
                val.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or(format!("checkpoint: axis {k} not a string"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = obj_entries(&v, "metrics")?
            .iter()
            .map(|(k, val)| {
                val.as_f64()
                    .map(|n| (k.clone(), n))
                    .ok_or(format!("checkpoint: metric {k} not a number"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let counters = obj_entries(&v, "counters")?
            .iter()
            .map(|(k, val)| {
                val.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or(format!("checkpoint: counter {k} not an unsigned integer"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((
            fingerprint,
            CellResult {
                cell,
                axes,
                metrics,
                counters,
            },
        ))
    }
}

fn obj_entries<'a>(v: &'a Json, key: &str) -> Result<&'a [(String, Json)], String> {
    v.get(key)
        .and_then(Json::as_obj)
        .ok_or(format!("checkpoint: missing object `{key}`"))
}

/// One evaluated budget instance (budget × candidate cell).
#[derive(Debug, Clone)]
pub struct Verdict {
    pub budget: String,
    pub cell: String,
    pub pass: bool,
    pub detail: String,
}

/// One paired-ratio evaluation, reported in the `comparisons` array.
#[derive(Debug, Clone)]
pub struct Comparison {
    pub budget: String,
    pub cell: String,
    pub baseline: String,
    pub metric: String,
    pub candidate_value: f64,
    pub baseline_value: f64,
    pub ratio: f64,
    pub bound: String,
    pub pass: bool,
}

/// Evaluate every budget against the full result set.
pub fn evaluate(scenario: &Scenario, results: &[CellResult]) -> (Vec<Verdict>, Vec<Comparison>) {
    let mut verdicts = Vec::new();
    let mut comparisons = Vec::new();
    let find = |name: &str| results.iter().find(|r| r.cell == name);
    for budget in &scenario.budgets {
        let candidates: Vec<&CellResult> = results
            .iter()
            .filter(|r| {
                r.axes
                    .iter()
                    .any(|(k, v)| *k == budget.axis && *v == budget.candidate)
            })
            .collect();
        if candidates.is_empty() {
            verdicts.push(Verdict {
                budget: budget.name.clone(),
                cell: "-".into(),
                pass: false,
                detail: format!(
                    "no cells with {}={} were executed",
                    budget.axis, budget.candidate
                ),
            });
            continue;
        }
        for cand in candidates {
            let (pass, detail) = match &budget.kind {
                BudgetKind::PairedRatio {
                    metric,
                    min_ratio,
                    max_ratio,
                } => {
                    let pair = pair_cell(scenario, budget, cand);
                    match pair.as_ref().and_then(|p| find(&p.name)) {
                        None => (
                            false,
                            format!("paired baseline cell missing for {}", cand.cell),
                        ),
                        Some(base) => {
                            let cv = cand.metric(metric).unwrap_or(f64::NAN);
                            let bv = base.metric(metric).unwrap_or(f64::NAN);
                            let ratio = if bv.abs() < f64::EPSILON || !bv.is_finite() {
                                f64::NAN
                            } else {
                                cv / bv
                            };
                            let mut ok = ratio.is_finite();
                            let mut bound = Vec::new();
                            if let Some(min) = min_ratio {
                                ok = ok && ratio >= *min;
                                bound.push(format!(">= {min:.2}x"));
                            }
                            if let Some(max) = max_ratio {
                                ok = ok && ratio <= *max;
                                bound.push(format!("<= {max:.2}x"));
                            }
                            let bound = bound.join(", ");
                            comparisons.push(Comparison {
                                budget: budget.name.clone(),
                                cell: cand.cell.clone(),
                                baseline: base.cell.clone(),
                                metric: metric.clone(),
                                candidate_value: cv,
                                baseline_value: bv,
                                ratio: round3(ratio),
                                bound: bound.clone(),
                                pass: ok,
                            });
                            (
                                ok,
                                format!(
                                    "{metric} {cv:.3} vs baseline {bv:.3} = {ratio:.2}x (need {bound})"
                                ),
                            )
                        }
                    }
                }
                BudgetKind::CounterNonzero { counter } => {
                    let n = cand.counter(counter);
                    (n > 0, format!("counter {counter} = {n} (need nonzero)"))
                }
                BudgetKind::MetricMin { metric, min } => {
                    let v = cand.metric(metric).unwrap_or(f64::NAN);
                    (
                        v.is_finite() && v >= *min,
                        format!("{metric} {v:.3} (need >= {min:.3})"),
                    )
                }
            };
            verdicts.push(Verdict {
                budget: budget.name.clone(),
                cell: cand.cell.clone(),
                pass,
                detail,
            });
        }
    }
    (verdicts, comparisons)
}

fn pair_cell(scenario: &Scenario, budget: &Budget, cand: &CellResult) -> Option<Cell> {
    let cell = Cell {
        name: cand.cell.clone(),
        axes: cand.axes.clone(),
    };
    scenario.baseline_of(&cell, budget)
}

/// Render the full BENCH-compatible report.
pub fn render_json(
    scenario: &Scenario,
    results: &[CellResult],
    verdicts: &[Verdict],
    comparisons: &[Comparison],
    command: &str,
) -> String {
    let pass = verdicts.iter().all(|v| v.pass);
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"bench\": {},\n", quote(&scenario.bench)));
    s.push_str(&format!("  \"date\": {},\n", quote(&today())));
    s.push_str(&format!("  \"command\": {},\n", quote(command)));
    s.push_str(&format!(
        "  \"description\": {},\n",
        quote(&scenario.description)
    ));

    // config
    s.push_str("  \"config\": {\n");
    s.push_str(&format!("    \"scenario\": {},\n", quote(&scenario.name)));
    s.push_str(&format!(
        "    \"scenario_file\": {},\n",
        quote(&scenario.source.display().to_string())
    ));
    s.push_str(&format!(
        "    \"scenario_fingerprint\": {},\n",
        quote(&format!("{:016x}", scenario.fingerprint))
    ));
    s.push_str(&format!("    \"seed\": {},\n", scenario.seed));
    let wl = scenario.workload.describe();
    s.push_str("    \"workload\": {");
    s.push_str(
        &wl.iter()
            .map(|(k, v)| {
                let val = if v.chars().all(|c| c.is_ascii_digit()) {
                    v.clone()
                } else {
                    quote(v)
                };
                format!("{}: {}", quote(k), val)
            })
            .collect::<Vec<_>>()
            .join(", "),
    );
    s.push_str("},\n");
    let d = &scenario.daemon;
    s.push_str(&format!(
        "    \"daemon\": {{\"workers\": {}, \"bml_mib\": {}, \"retry_attempts\": {}, \
         \"throttle_per_op_us\": {}, \"throttle_bw_mib_s\": {}, \
         \"coalesce_max_bytes\": {}, \"coalesce_max_ops\": {}}},\n",
        d.workers,
        d.bml_mib,
        d.retry_attempts,
        d.throttle.map(|(us, _)| us).unwrap_or(0),
        d.throttle
            .map(|(_, bw)| fmt_f64(bw / (1024.0 * 1024.0)))
            .unwrap_or_else(|| "0".into()),
        d.coalesce_max_bytes,
        d.coalesce_max_ops
    ));
    s.push_str("    \"axes\": {");
    s.push_str(
        &scenario
            .axes
            .iter()
            .map(|a| {
                format!(
                    "{}: [{}]",
                    quote(&a.name),
                    a.values
                        .iter()
                        .map(|v| quote(v))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
    );
    s.push_str("},\n");
    s.push_str(&format!("    \"cells\": {}\n", results.len()));
    s.push_str("  },\n");

    // runs: one object per cell
    s.push_str("  \"runs\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"cell\": {},\n", quote(&r.cell)));
        s.push_str("      \"axes\": ");
        s.push_str(&json_map(&r.axes, 6, |v| quote(v)));
        s.push_str(",\n      \"metrics\": ");
        s.push_str(&json_map(&r.metrics, 6, |v| fmt_f64(*v)));
        s.push_str(",\n      \"counters\": ");
        s.push_str(&json_map(&r.counters, 6, u64::to_string));
        s.push_str("\n    }");
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");

    // comparisons
    s.push_str("  \"comparisons\": [\n");
    for (i, c) in comparisons.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"budget\": {}, \"cell\": {}, \"baseline\": {}, \"metric\": {}, \
             \"candidate_value\": {}, \"baseline_value\": {}, \"ratio\": {}, \
             \"bound\": {}, \"pass\": {}}}{}\n",
            quote(&c.budget),
            quote(&c.cell),
            quote(&c.baseline),
            quote(&c.metric),
            fmt_f64(c.candidate_value),
            fmt_f64(c.baseline_value),
            fmt_f64(c.ratio),
            quote(&c.bound),
            c.pass,
            if i + 1 < comparisons.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");

    // summary
    let note = if pass {
        format!(
            "All {} budget checks passed over {} cells.",
            verdicts.len(),
            results.len()
        )
    } else {
        let failed: Vec<&str> = verdicts
            .iter()
            .filter(|v| !v.pass)
            .map(|v| v.budget.as_str())
            .collect();
        format!("FAILED budgets: {}.", failed.join(", "))
    };
    s.push_str("  \"summary\": {\n");
    s.push_str("    \"verdicts\": [\n");
    for (i, v) in verdicts.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"budget\": {}, \"cell\": {}, \"pass\": {}, \"detail\": {}}}{}\n",
            quote(&v.budget),
            quote(&v.cell),
            v.pass,
            quote(&v.detail),
            if i + 1 < verdicts.len() { "," } else { "" }
        ));
    }
    s.push_str("    ],\n");
    s.push_str(&format!("    \"pass\": {pass},\n"));
    s.push_str(&format!("    \"note\": {}\n", quote(&note)));
    s.push_str("  }\n}\n");
    s
}

/// Render the human-facing summary: cells table, paired comparisons,
/// verdict list. Used for stdout and for EXPERIMENTS.md.
pub fn render_markdown(
    scenario: &Scenario,
    results: &[CellResult],
    verdicts: &[Verdict],
    comparisons: &[Comparison],
) -> String {
    let pass = verdicts.iter().all(|v| v.pass);
    let mut s = format!(
        "## scenario `{}` — {}\n\n",
        scenario.name,
        if pass { "PASS" } else { "FAIL" }
    );
    s.push_str("| cell | wall ms | MiB/s | p50 us | p99 us | net % | backend % | queue % |\n");
    s.push_str("|---|---:|---:|---:|---:|---:|---:|---:|\n");
    for r in results {
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.cell,
            fmt_f64(r.metric("wall_ms").unwrap_or(0.0)),
            fmt_f64(r.metric("throughput_mib_s").unwrap_or(0.0)),
            fmt_f64(r.metric("p50_us").unwrap_or(0.0)),
            fmt_f64(r.metric("p99_us").unwrap_or(0.0)),
            fmt_f64(r.metric("stage_network_pct").unwrap_or(0.0)),
            fmt_f64(r.metric("stage_backend_pct").unwrap_or(0.0)),
            fmt_f64(r.metric("stage_queue_pct").unwrap_or(0.0)),
        ));
    }
    if !comparisons.is_empty() {
        s.push_str("\n### paired comparisons\n\n");
        s.push_str("| budget | cell | baseline | metric | ratio | bound | verdict |\n");
        s.push_str("|---|---|---|---|---:|---|---|\n");
        for c in comparisons {
            s.push_str(&format!(
                "| {} | {} | {} | {} | {}x | {} | {} |\n",
                c.budget,
                c.cell,
                c.baseline,
                c.metric,
                fmt_f64(c.ratio),
                c.bound,
                if c.pass { "ok" } else { "FAIL" }
            ));
        }
    }
    s.push_str("\n### verdicts\n\n");
    for v in verdicts {
        s.push_str(&format!(
            "- {} `{}` @ {}: {}\n",
            if v.pass { "ok" } else { "FAIL" },
            v.budget,
            v.cell,
            v.detail
        ));
    }
    s
}

/// Structural drift check of a committed BENCH report against its
/// scenario. Catches: hand-edited or truncated reports, reports
/// generated by an older scenario revision (fingerprint mismatch),
/// missing cells, and failing summaries committed as green.
pub fn check(report_text: &str, scenario: Option<&Scenario>) -> Result<(), String> {
    let v = Json::parse(report_text).map_err(|e| format!("report is not valid JSON: {e}"))?;
    for key in ["bench", "date", "command", "description"] {
        if v.get(key).and_then(Json::as_str).is_none() {
            return Err(format!("report: missing string `{key}`"));
        }
    }
    let runs = match v.get("runs") {
        Some(Json::Arr(items)) if !items.is_empty() => items,
        Some(Json::Arr(_)) => return Err("report: `runs` is empty".into()),
        _ => return Err("report: missing array `runs`".into()),
    };
    let mut cells = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let cell = run
            .get("cell")
            .and_then(Json::as_str)
            .ok_or(format!("report: run #{i} missing `cell`"))?;
        let metrics = run
            .get("metrics")
            .ok_or(format!("report: run #{i} missing `metrics`"))?;
        for m in ["wall_ms", "throughput_mib_s", "p99_us"] {
            if metrics.get(m).and_then(Json::as_f64).is_none() {
                return Err(format!("report: run `{cell}` missing metric `{m}`"));
            }
        }
        cells.push(cell.to_string());
    }
    let summary = v.get("summary").ok_or("report: missing `summary`")?;
    let pass = summary
        .get("pass")
        .and_then(Json::as_bool)
        .ok_or("report: summary.pass must be a boolean")?;
    if !pass {
        return Err("report: summary.pass is false — a failing report is committed".into());
    }
    if let Some(scenario) = scenario {
        let bench = v.get("bench").and_then(Json::as_str).unwrap_or("");
        if bench != scenario.bench {
            return Err(format!(
                "report bench `{bench}` != scenario bench `{}`",
                scenario.bench
            ));
        }
        let fp = v
            .get("config")
            .and_then(|c| c.get("scenario_fingerprint"))
            .and_then(Json::as_str)
            .ok_or("report: missing config.scenario_fingerprint")?;
        let want = format!("{:016x}", scenario.fingerprint);
        if fp != want {
            return Err(format!(
                "scenario drift: report was generated from fingerprint {fp}, \
                 but {} now hashes to {want} — regenerate the report",
                scenario.source.display()
            ));
        }
        let mut expected: Vec<String> = scenario.expand().into_iter().map(|c| c.name).collect();
        let mut got = cells.clone();
        expected.sort();
        got.sort();
        if expected != got {
            return Err(format!(
                "cell set drift: scenario expands to {} cells, report has {} \
                 (missing or extra cells)",
                expected.len(),
                got.len()
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// small JSON / formatting helpers
// ---------------------------------------------------------------------

/// A pretty-printed JSON object; `render` turns a value into its
/// literal (counters print as exact integers, never through `f64`).
fn json_map<V>(pairs: &[(String, V)], indent: usize, render: impl Fn(&V) -> String) -> String {
    let pad = " ".repeat(indent);
    let body = pairs
        .iter()
        .map(|(k, v)| format!("{pad}  {}: {}", quote(k), render(v)))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("{{\n{body}\n{pad}}}")
}

/// Minimal JSON number formatting: integers print bare, fractions keep
/// up to three decimals.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v.fract().abs() < 1e-9 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        let s = format!("{v:.3}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Today's civil date (UTC) as `YYYY-MM-DD`, no chrono needed.
pub fn today() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_roundtrip() {
        let r = CellResult {
            cell: "mode=staged/coalesce=on".into(),
            axes: vec![
                ("mode".into(), "staged".into()),
                ("coalesce".into(), "on".into()),
            ],
            metrics: vec![("wall_ms".into(), 12.5), ("ops".into(), 100.0)],
            // Past 2^53: exact only if it never passes through `f64`.
            counters: vec![
                ("coalesced_batches".into(), 42),
                ("uptime_ns".into(), u64::MAX),
            ],
        };
        let text = r.to_checkpoint_json(0xdead_beef);
        let (fp, back) = CellResult::from_checkpoint_json(&text).expect("parse");
        assert_eq!(fp, 0xdead_beef);
        assert_eq!(back, r);
    }

    #[test]
    fn fmt_f64_shapes() {
        assert_eq!(fmt_f64(12.0), "12");
        assert_eq!(fmt_f64(12.5), "12.5");
        assert_eq!(fmt_f64(12.3456), "12.346");
        assert_eq!(fmt_f64(f64::NAN), "0");
    }

    #[test]
    fn today_is_plausible() {
        let d = today();
        assert_eq!(d.len(), 10);
        assert!(d.starts_with("20"), "{d}");
    }

    #[test]
    fn check_rejects_drift_and_truncation() {
        assert!(check("{", None).is_err());
        assert!(check("{\"bench\": \"x\"}", None)
            .unwrap_err()
            .contains("missing"));
        let minimal = r#"{
            "bench": "b", "date": "2026-01-01", "command": "c", "description": "d",
            "runs": [{"cell": "mode=staged",
                      "metrics": {"wall_ms": 1, "throughput_mib_s": 2, "p99_us": 3}}],
            "summary": {"pass": true}
        }"#;
        assert!(check(minimal, None).is_ok());
        let failing = minimal.replace("\"pass\": true", "\"pass\": false");
        assert!(check(&failing, None)
            .unwrap_err()
            .contains("failing report"));
    }
}
