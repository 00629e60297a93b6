//! Scenario schema: what one declarative experiment file means.
//!
//! A scenario declares *one* seeded workload and a matrix of daemon
//! configurations (axes). The harness replays the identical workload
//! over every cell of the matrix — the paper's evaluation method
//! (identical MADbench runs across ciod/zoid/sched/staged, §V) turned
//! into a reusable framework — then compares paired cells and checks
//! declared regression budgets.
//!
//! See `DESIGN.md §14` for the full schema reference; the committed
//! files under `crates/experiments/scenarios/` are the living examples.

use std::path::{Path, PathBuf};

use crate::toml::{self, Table, Value};
use crate::workload::{WorkloadKind, WorkloadSpec};

/// Axis names the runner knows how to apply to a daemon/cell.
pub const KNOWN_AXES: [&str; 6] = [
    "mode",
    "coalesce",
    "clients",
    "fault",
    "workers",
    "transport",
];

/// One sweep dimension: `name = ["value", …]` under `[axes]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    pub name: String,
    pub values: Vec<String>,
}

/// Fixed daemon configuration shared by every cell (axes override the
/// matching fields per cell).
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    pub workers: usize,
    pub bml_mib: u64,
    pub retry_attempts: u32,
    /// Device model: fixed per-op microseconds + bandwidth in
    /// *bytes/second*, applied via `iofwdd --throttle`. `None` runs
    /// against the raw filesystem.
    pub throttle: Option<(u64, f64)>,
    /// Inject a synthetic EMFILE on every Nth accept attempt (0 = off),
    /// via `iofwdd --accept-fault-every` — the accept-path chaos knob.
    pub accept_fault_every: u64,
    /// Event-loop threads for `transport = "reactor"` cells.
    pub reactor_threads: usize,
    /// Base directory for the daemon's `--root` backing store. `None`
    /// keeps it in the report's scratch tree (the build disk). Paired
    /// CPU-bound scenarios point this at a tmpfs (e.g. `/dev/shm`) so
    /// run-to-run device-speed drift cannot dilute the ratio under
    /// test: an fsync against spinning metal is an additive cost both
    /// arms pay equally, which compresses every paired comparison
    /// toward 1.0.
    pub root_dir: Option<String>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 2,
            bml_mib: 64,
            retry_attempts: 4,
            throttle: None,
            accept_fault_every: 0,
            reactor_threads: 2,
            root_dir: None,
        }
    }
}

/// How one budget is checked.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetKind {
    /// Every candidate cell's `metric`, divided by its paired baseline
    /// cell's, must lie within `[min_ratio, max_ratio]`.
    PairedRatio {
        metric: String,
        min_ratio: Option<f64>,
        max_ratio: Option<f64>,
    },
    /// Every candidate cell must report a nonzero telemetry counter.
    CounterNonzero { counter: String },
    /// Every candidate cell's `metric` must be at least `min`.
    MetricMin { metric: String, min: f64 },
}

/// A declared regression gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    pub name: String,
    /// Axis the budget quantifies over.
    pub axis: String,
    /// Cells whose `axis` equals this value are candidates.
    pub candidate: String,
    /// For `PairedRatio`: the axis value of the paired baseline cell
    /// (all other axes equal).
    pub baseline: Option<String>,
    pub kind: BudgetKind,
}

/// One fully parsed, validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub name: String,
    pub bench: String,
    pub description: String,
    pub seed: u64,
    pub workload: WorkloadSpec,
    pub daemon: DaemonConfig,
    /// Measurements per cell; the reported cell is the run with the
    /// median throughput (ties break toward the earlier run). One
    /// measurement of a sub-second live-daemon cell on a busy machine
    /// wanders ±10%, which is fatal to a paired-ratio budget whose
    /// margin is the same order; the median of three is not.
    pub repeats: usize,
    pub axes: Vec<Axis>,
    /// Named fault plans referenced by the `fault` axis.
    pub fault_plans: Vec<(String, String)>,
    pub budgets: Vec<Budget>,
    /// Where the scenario was loaded from (repo-relative when possible).
    pub source: PathBuf,
    /// FNV-1a of the raw file text: checkpointed cells from a different
    /// scenario revision are never reused.
    pub fingerprint: u64,
}

/// One point of the expanded matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// `axis=value` pairs joined by `/`, in axis declaration order.
    pub name: String,
    pub axes: Vec<(String, String)>,
}

impl Cell {
    pub fn axis(&self, name: &str) -> Option<&str> {
        self.axes
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// A filesystem-safe slug for checkpoint files.
    pub fn slug(&self) -> String {
        self.name.replace('=', "-").replace('/', "__")
    }
}

impl Scenario {
    /// Load and validate a scenario file.
    pub fn load(path: &Path) -> Result<Scenario, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Scenario::parse(&text, path)
    }

    pub fn parse(text: &str, source: &Path) -> Result<Scenario, String> {
        let root = toml::parse(text).map_err(|e| format!("{}: {e}", source.display()))?;
        let ctx = |e: String| format!("{}: {e}", source.display());
        // A typo'd section (`[[budgets]]`, `[axis]`) must not silently
        // no-op — e.g. a budget-free scenario would report green with
        // zero verdicts.
        const KNOWN_SECTIONS: [&str; 6] =
            ["scenario", "workload", "daemon", "axes", "faults", "budget"];
        for (key, _) in &root {
            if !KNOWN_SECTIONS.contains(&key.as_str()) {
                return Err(ctx(format!(
                    "unknown section `{key}` (known: {})",
                    KNOWN_SECTIONS.join(", ")
                )));
            }
        }
        let scenario = table(&root, "scenario").map_err(&ctx)?;
        let name = req_str(scenario, "scenario", "name").map_err(&ctx)?;
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
            return Err(ctx(format!(
                "scenario.name `{name}` must be nonempty [a-z0-9-]"
            )));
        }
        let bench = opt_str(scenario, "bench")
            .map_err(&ctx)?
            .unwrap_or_else(|| format!("experiments_{}", name.replace('-', "_")));
        let description = opt_str(scenario, "description")
            .map_err(&ctx)?
            .unwrap_or_default();
        let seed = opt_u64(scenario, "seed").map_err(&ctx)?.unwrap_or(1);
        let repeats = match opt_u64(scenario, "repeats").map_err(&ctx)? {
            None => 1,
            Some(r @ 1..=9) => r as usize,
            Some(other) => {
                return Err(ctx(format!("scenario.repeats = {other} must be in 1..=9")));
            }
        };

        let workload = parse_workload(&root).map_err(&ctx)?;
        let daemon = parse_daemon(&root).map_err(&ctx)?;
        let axes = parse_axes(&root).map_err(&ctx)?;
        let fault_plans = parse_fault_plans(&root).map_err(&ctx)?;
        let budgets = parse_budgets(&root).map_err(&ctx)?;

        let scenario = Scenario {
            name,
            bench,
            description,
            seed,
            workload,
            daemon,
            repeats,
            axes,
            fault_plans,
            budgets,
            source: source.to_path_buf(),
            fingerprint: fnv1a(text.as_bytes()),
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Cross-field validation: axis values are applicable, fault names
    /// resolve, budgets reference real axes/values and pair cleanly.
    fn validate(&self) -> Result<(), String> {
        let ctx = |e: String| format!("{}: {e}", self.source.display());
        if self.axes.is_empty() {
            return Err(ctx("at least one axis is required".into()));
        }
        for axis in &self.axes {
            if !KNOWN_AXES.contains(&axis.name.as_str()) {
                return Err(ctx(format!(
                    "unknown axis `{}` (known: {})",
                    axis.name,
                    KNOWN_AXES.join(", ")
                )));
            }
            if axis.values.is_empty() {
                return Err(ctx(format!("axis `{}` has no values", axis.name)));
            }
            let mut seen = Vec::new();
            for v in &axis.values {
                if seen.contains(&v) {
                    return Err(ctx(format!("axis `{}` repeats value `{v}`", axis.name)));
                }
                seen.push(v);
                self.validate_axis_value(&axis.name, v).map_err(&ctx)?;
            }
        }
        let mut names = Vec::new();
        for (i, a) in self.axes.iter().enumerate() {
            if names.contains(&&a.name) {
                return Err(ctx(format!("axis `{}` declared twice", a.name)));
            }
            let _ = i;
            names.push(&a.name);
        }
        for b in &self.budgets {
            let axis = self.axes.iter().find(|a| a.name == b.axis).ok_or_else(|| {
                ctx(format!(
                    "budget `{}` references unknown axis `{}`",
                    b.name, b.axis
                ))
            })?;
            if !axis.values.contains(&b.candidate) {
                return Err(ctx(format!(
                    "budget `{}`: candidate `{}` is not a value of axis `{}`",
                    b.name, b.candidate, b.axis
                )));
            }
            if let Some(base) = &b.baseline {
                if !axis.values.contains(base) {
                    return Err(ctx(format!(
                        "budget `{}`: baseline `{base}` is not a value of axis `{}`",
                        b.name, b.axis
                    )));
                }
                if base == &b.candidate {
                    return Err(ctx(format!(
                        "budget `{}`: baseline equals candidate",
                        b.name
                    )));
                }
            } else if matches!(b.kind, BudgetKind::PairedRatio { .. }) {
                return Err(ctx(format!(
                    "budget `{}`: paired_ratio needs a baseline",
                    b.name
                )));
            }
        }
        Ok(())
    }

    fn validate_axis_value(&self, axis: &str, value: &str) -> Result<(), String> {
        match axis {
            "mode" => match value {
                "ciod" | "zoid" | "sched" | "staged" => Ok(()),
                other => Err(format!("axis mode: unknown forwarding mode `{other}`")),
            },
            "coalesce" => match value {
                "on" | "off" => Ok(()),
                other => Err(format!("axis coalesce: `{other}` is not off|on")),
            },
            "clients" | "workers" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("axis {axis}: `{value}` is not an integer"))?;
                if n == 0 {
                    return Err(format!("axis {axis}: must be >= 1"));
                }
                Ok(())
            }
            "fault" => {
                if value == "none" || self.fault_plans.iter().any(|(n, _)| n == value) {
                    Ok(())
                } else {
                    Err(format!(
                        "axis fault: `{value}` has no [faults.{value}] plan"
                    ))
                }
            }
            "transport" => match value {
                "threads" | "reactor" => Ok(()),
                other => Err(format!("axis transport: `{other}` is not threads|reactor")),
            },
            other => Err(format!("unknown axis `{other}`")),
        }
    }

    /// Expand the axis matrix into cells: the cell count is the product
    /// of the axis cardinalities, names are unique, and the order is
    /// deterministic — axes in declaration order, the *last* axis
    /// varying fastest (odometer order).
    pub fn expand(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        let total: usize = self.axes.iter().map(|a| a.values.len()).product();
        let mut indices = vec![0usize; self.axes.len()];
        for _ in 0..total {
            let axes: Vec<(String, String)> = self
                .axes
                .iter()
                .zip(&indices)
                .map(|(a, &i)| (a.name.clone(), a.values[i].clone()))
                .collect();
            let name = axes
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join("/");
            cells.push(Cell { name, axes });
            // Odometer increment, rightmost digit fastest.
            for d in (0..indices.len()).rev() {
                indices[d] += 1;
                if indices[d] < self.axes[d].values.len() {
                    break;
                }
                indices[d] = 0;
            }
        }
        cells
    }

    /// The paired baseline cell of `cell` under `budget` — identical on
    /// every axis except the budget's, which takes the baseline value.
    pub fn baseline_of(&self, cell: &Cell, budget: &Budget) -> Option<Cell> {
        let base = budget.baseline.as_ref()?;
        let axes: Vec<(String, String)> = cell
            .axes
            .iter()
            .map(|(k, v)| {
                if *k == budget.axis {
                    (k.clone(), base.clone())
                } else {
                    (k.clone(), v.clone())
                }
            })
            .collect();
        let name = axes
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join("/");
        Some(Cell { name, axes })
    }

    /// The named fault plan's text.
    pub fn fault_plan(&self, name: &str) -> Option<&str> {
        self.fault_plans
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.as_str())
    }
}

// ---------------------------------------------------------------------
// section parsers
// ---------------------------------------------------------------------

fn table<'a>(root: &'a Table, key: &str) -> Result<&'a Table, String> {
    toml::get(root, key)
        .ok_or(format!("missing [{key}] section"))?
        .as_table()
        .ok_or(format!("[{key}] is not a table"))
}

fn req_str(t: &Table, section: &str, key: &str) -> Result<String, String> {
    toml::get(t, key)
        .ok_or(format!("missing {section}.{key}"))?
        .as_str()
        .map(str::to_string)
        .ok_or(format!("{section}.{key} must be a string"))
}

fn opt_str(t: &Table, key: &str) -> Result<Option<String>, String> {
    match toml::get(t, key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or(format!("{key} must be a string")),
    }
}

fn opt_u64(t: &Table, key: &str) -> Result<Option<u64>, String> {
    match toml::get(t, key) {
        None => Ok(None),
        Some(v) => match v.as_i64() {
            Some(n) if n >= 0 => Ok(Some(n as u64)),
            Some(_) | None => Err(format!("{key} must be a non-negative integer")),
        },
    }
}

fn opt_f64(t: &Table, key: &str) -> Result<Option<f64>, String> {
    match toml::get(t, key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or(format!("{key} must be a number")),
    }
}

fn parse_workload(root: &Table) -> Result<WorkloadSpec, String> {
    let t = table(root, "workload")?;
    let kind = match req_str(t, "workload", "kind")?.as_str() {
        "madbench" => WorkloadKind::Madbench,
        "mixed" => WorkloadKind::Mixed,
        "manytask" => WorkloadKind::ManyTask,
        other => return Err(format!("workload.kind `{other}` (madbench|mixed|manytask)")),
    };
    let mut spec = WorkloadSpec::new(kind);
    if let Some(v) = opt_u64(t, "op_bytes")? {
        spec.op_bytes = v;
    }
    if let Some(v) = opt_u64(t, "bins")? {
        spec.bins = v;
    }
    if let Some(v) = opt_u64(t, "chunks_per_bin")? {
        spec.chunks_per_bin = v;
    }
    if let Some(v) = opt_str(t, "phases")? {
        if v.is_empty() || !v.chars().all(|c| "swc".contains(c)) {
            return Err(format!("workload.phases `{v}` must be drawn from s/w/c"));
        }
        spec.phases = v;
    }
    if let Some(v) = opt_u64(t, "stripes")? {
        spec.stripes = v;
    }
    if let Some(v) = opt_u64(t, "stripe_bytes")? {
        spec.stripe_bytes = v;
    }
    if let Some(v) = opt_u64(t, "meta_files")? {
        spec.meta_files = v;
    }
    if let Some(v) = opt_u64(t, "meta_bytes")? {
        spec.meta_bytes = v;
    }
    if let Some(v) = opt_u64(t, "rereads")? {
        spec.rereads = v;
    }
    if let Some(v) = opt_u64(t, "tasks")? {
        spec.tasks = v;
    }
    if let Some(v) = opt_u64(t, "task_bytes")? {
        spec.task_bytes = v;
    }
    spec.validate()?;
    Ok(spec)
}

fn parse_daemon(root: &Table) -> Result<DaemonConfig, String> {
    let mut cfg = DaemonConfig::default();
    let Some(v) = toml::get(root, "daemon") else {
        return Ok(cfg);
    };
    let t = v.as_table().ok_or("[daemon] is not a table".to_string())?;
    if let Some(v) = opt_u64(t, "workers")? {
        cfg.workers = v.max(1) as usize;
    }
    if let Some(v) = opt_u64(t, "bml_mib")? {
        cfg.bml_mib = v.max(1);
    }
    if let Some(v) = opt_u64(t, "retry_attempts")? {
        cfg.retry_attempts = v.max(1) as u32;
    }
    let per_op = opt_u64(t, "throttle_per_op_us")?;
    let bw = opt_f64(t, "throttle_bw_mib_s")?;
    cfg.throttle = match (per_op, bw) {
        (None, None) => None,
        (per_op, bw) => {
            let bw_mib = bw.unwrap_or(4096.0);
            if bw_mib <= 0.0 {
                return Err("daemon.throttle_bw_mib_s must be positive".into());
            }
            Some((per_op.unwrap_or(0), bw_mib * 1024.0 * 1024.0))
        }
    };
    if let Some(v) = opt_u64(t, "accept_fault_every")? {
        cfg.accept_fault_every = v;
    }
    if let Some(v) = opt_u64(t, "reactor_threads")? {
        cfg.reactor_threads = v.max(1) as usize;
    }
    if let Some(v) = opt_str(t, "root_dir")? {
        if v.is_empty() {
            return Err("daemon.root_dir must not be empty".into());
        }
        cfg.root_dir = Some(v);
    }
    Ok(cfg)
}

fn parse_axes(root: &Table) -> Result<Vec<Axis>, String> {
    let t = table(root, "axes")?;
    let mut axes = Vec::new();
    for (name, v) in t {
        let items = v
            .as_array()
            .ok_or(format!("axes.{name} must be an array"))?;
        let mut values = Vec::new();
        for item in items {
            let s = match item {
                Value::Str(s) => s.clone(),
                Value::Int(i) => i.to_string(),
                other => return Err(format!("axes.{name}: bad value ({other})")),
            };
            values.push(s);
        }
        axes.push(Axis {
            name: name.clone(),
            values,
        });
    }
    Ok(axes)
}

fn parse_fault_plans(root: &Table) -> Result<Vec<(String, String)>, String> {
    let Some(v) = toml::get(root, "faults") else {
        return Ok(Vec::new());
    };
    let t = v.as_table().ok_or("[faults] is not a table".to_string())?;
    let mut plans = Vec::new();
    for (name, v) in t {
        let plan = v
            .get("plan")
            .and_then(Value::as_str)
            .ok_or(format!("faults.{name} needs a `plan` string"))?;
        // Parse eagerly so a bad plan fails at load, not mid-sweep.
        iofwd::fault::FaultPlan::parse(plan)
            .map_err(|e| format!("faults.{name}: bad fault plan: {e}"))?;
        plans.push((name.clone(), plan.to_string()));
    }
    Ok(plans)
}

fn parse_budgets(root: &Table) -> Result<Vec<Budget>, String> {
    let Some(v) = toml::get(root, "budget") else {
        return Ok(Vec::new());
    };
    let items = v
        .as_array()
        .ok_or("[[budget]] must be an array of tables".to_string())?;
    let mut budgets = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let t = item
            .as_table()
            .ok_or(format!("budget #{i} is not a table"))?;
        let name = req_str(t, "budget", "name")?;
        let axis = req_str(t, "budget", "axis")?;
        let candidate = req_str(t, "budget", "candidate")?;
        let baseline = opt_str(t, "baseline")?;
        let kind = match req_str(t, "budget", "kind")?.as_str() {
            "paired_ratio" => {
                let metric = req_str(t, "budget", "metric")?;
                let min_ratio = opt_f64(t, "min_ratio")?;
                let max_ratio = opt_f64(t, "max_ratio")?;
                if min_ratio.is_none() && max_ratio.is_none() {
                    return Err(format!(
                        "budget `{name}`: paired_ratio needs min_ratio and/or max_ratio"
                    ));
                }
                BudgetKind::PairedRatio {
                    metric,
                    min_ratio,
                    max_ratio,
                }
            }
            "counter_nonzero" => BudgetKind::CounterNonzero {
                counter: req_str(t, "budget", "counter")?,
            },
            "metric_min" => BudgetKind::MetricMin {
                metric: req_str(t, "budget", "metric")?,
                min: opt_f64(t, "min")?.ok_or(format!("budget `{name}`: metric_min needs min"))?,
            },
            other => {
                return Err(format!(
                    "budget `{name}`: unknown kind `{other}` \
                     (paired_ratio|counter_nonzero|metric_min)"
                ))
            }
        };
        if budgets.iter().any(|b: &Budget| b.name == name) {
            return Err(format!("duplicate budget name `{name}`"));
        }
        budgets.push(Budget {
            name,
            axis,
            candidate,
            baseline,
            kind,
        });
    }
    Ok(budgets)
}

/// FNV-1a, the checkpoint fingerprint hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
[scenario]
name = "mini"
seed = 9
description = "test scenario"

[workload]
kind = "manytask"
tasks = 4
task_bytes = 128

[axes]
mode = ["staged", "sched"]
coalesce = ["off", "on"]

[[budget]]
name = "on-not-slower"
kind = "paired_ratio"
metric = "throughput_mib_s"
axis = "coalesce"
candidate = "on"
baseline = "off"
min_ratio = 0.5
"#;

    #[test]
    fn parses_and_expands_odometer_order() {
        let s = Scenario::parse(MINI, Path::new("mini.toml")).expect("parse");
        let cells = s.expand();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].name, "mode=staged/coalesce=off");
        assert_eq!(cells[1].name, "mode=staged/coalesce=on");
        assert_eq!(cells[2].name, "mode=sched/coalesce=off");
        assert_eq!(cells[3].name, "mode=sched/coalesce=on");
        let base = s.baseline_of(&cells[3], &s.budgets[0]).unwrap();
        assert_eq!(base.name, "mode=sched/coalesce=off");
    }

    #[test]
    fn rejects_unknown_axis_and_bad_mode() {
        let bad = MINI.replace("[axes]\nmode", "[axes]\ncolor = [\"red\"]\nmode");
        assert!(Scenario::parse(&bad, Path::new("x.toml"))
            .unwrap_err()
            .contains("unknown axis"));
        let bad = MINI.replace("\"sched\"", "\"warp\"");
        assert!(Scenario::parse(&bad, Path::new("x.toml"))
            .unwrap_err()
            .contains("unknown forwarding mode"));
    }

    #[test]
    fn rejects_unknown_sections() {
        // `[[budgets]]` (plural) must be a load error, not a silently
        // budget-free scenario that reports green with zero verdicts.
        let bad = MINI.replace("[[budget]]", "[[budgets]]");
        let err = Scenario::parse(&bad, Path::new("x.toml")).unwrap_err();
        assert!(err.contains("unknown section `budgets`"), "{err}");
    }

    #[test]
    fn rejects_budget_without_baseline_pairing() {
        let bad = MINI.replace("baseline = \"off\"\n", "");
        assert!(Scenario::parse(&bad, Path::new("x.toml"))
            .unwrap_err()
            .contains("needs a baseline"));
    }

    #[test]
    fn fault_axis_requires_named_plan() {
        let bad = MINI.replace(
            "coalesce = [\"off\", \"on\"]",
            "fault = [\"none\", \"storm\"]",
        );
        let err = Scenario::parse(
            &bad.replace("axis = \"coalesce\"", "axis = \"fault\"")
                .replace("candidate = \"on\"", "candidate = \"storm\"")
                .replace("baseline = \"off\"", "baseline = \"none\""),
            Path::new("x.toml"),
        )
        .unwrap_err();
        assert!(err.contains("no [faults.storm] plan"), "{err}");
    }
}
