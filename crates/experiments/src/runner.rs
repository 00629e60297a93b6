//! Sweep execution: expand a scenario, run each cell against its own
//! freshly spawned `iofwdd`, harvest telemetry, checkpoint, report.
//!
//! Checkpoint/resume: each completed cell is written to
//! `<out>/cells/<slug>.json` stamped with the scenario fingerprint.
//! A later run of the same (byte-identical) scenario reuses those
//! cells and executes only the missing ones — interrupting a sweep
//! costs only the cell that was in flight. `--force` discards all
//! checkpoints; editing the scenario file invalidates them implicitly
//! because the fingerprint changes.

use std::path::{Path, PathBuf};
use std::time::Instant;

use iofwd::client::Client;
use iofwd::daemon::{locate_iofwdd, DaemonHandle, DaemonSpec};
use iofwd::transport::tcp::TcpConn;
use iofwd_telemetry::snapshot::TelemetrySnapshot;

use crate::report::{self, CellResult};
use crate::scenario::{Cell, Scenario};
use crate::workload;

/// How one `run` invocation is parameterized (CLI flags, mostly).
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Scenario file, as given on the command line.
    pub scenario: PathBuf,
    /// Output directory; defaults to `target/experiments/<name>`.
    pub out_dir: Option<PathBuf>,
    /// Discard checkpoints and re-run every cell.
    pub force: bool,
    /// Explicit `iofwdd` binary (else locate / build).
    pub bin: Option<PathBuf>,
}

/// What happened, for the CLI to narrate and exit on.
#[derive(Debug)]
pub struct RunOutcome {
    pub executed: usize,
    pub reused: usize,
    pub report_json: PathBuf,
    pub report_md: PathBuf,
    pub markdown: String,
    pub pass: bool,
}

/// Execute (or resume) a full sweep. Op-level failures inside cells are
/// data; this errors only on harness-level problems (no daemon binary,
/// daemon crash, unparseable telemetry).
pub fn run(cfg: &RunConfig, progress: &mut dyn FnMut(&str)) -> Result<RunOutcome, String> {
    let scenario_path = resolve_scenario_path(&cfg.scenario)?;
    let scenario = Scenario::load(&scenario_path)?;
    let bin = resolve_iofwdd(cfg.bin.as_deref())?;
    let out_dir = cfg
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/experiments").join(&scenario.name));
    let cells_dir = out_dir.join("cells");
    std::fs::create_dir_all(&cells_dir)
        .map_err(|e| format!("cannot create {}: {e}", cells_dir.display()))?;

    let cells = scenario.expand();
    progress(&format!(
        "scenario `{}`: {} cells over {} axes (daemon: {})",
        scenario.name,
        cells.len(),
        scenario.axes.len(),
        bin.display()
    ));

    let mut results = Vec::new();
    let mut executed = 0usize;
    let mut reused = 0usize;
    for cell in &cells {
        let checkpoint = cells_dir.join(format!("{}.json", cell.slug()));
        if !cfg.force {
            if let Some(prior) = load_checkpoint(&checkpoint, &scenario, cell) {
                progress(&format!("cell {} — reused checkpoint", cell.name));
                results.push(prior);
                reused += 1;
                continue;
            }
        }
        let started = Instant::now();
        let result = run_cell(&scenario, cell, &bin, &out_dir)?;
        progress(&format!(
            "cell {} — {} ops, {} MiB/s, p99 {} us ({} ms)",
            cell.name,
            result.metric("ops").unwrap_or(0.0) as u64,
            report::fmt_f64(result.metric("throughput_mib_s").unwrap_or(0.0)),
            result.metric("p99_us").unwrap_or(0.0) as u64,
            started.elapsed().as_millis(),
        ));
        std::fs::write(&checkpoint, result.to_checkpoint_json(scenario.fingerprint))
            .map_err(|e| format!("cannot write {}: {e}", checkpoint.display()))?;
        results.push(result);
        executed += 1;
    }

    let (verdicts, comparisons) = report::evaluate(&scenario, &results);
    let pass = verdicts.iter().all(|v| v.pass);
    let command = format!("cargo run -p experiments -- run {}", cfg.scenario.display());
    let json = report::render_json(&scenario, &results, &verdicts, &comparisons, &command);
    let markdown = report::render_markdown(&scenario, &results, &verdicts, &comparisons);
    let report_json = out_dir.join("report.json");
    let report_md = out_dir.join("report.md");
    std::fs::write(&report_json, &json)
        .map_err(|e| format!("cannot write {}: {e}", report_json.display()))?;
    std::fs::write(&report_md, &markdown)
        .map_err(|e| format!("cannot write {}: {e}", report_md.display()))?;

    Ok(RunOutcome {
        executed,
        reused,
        report_json,
        report_md,
        markdown,
        pass,
    })
}

/// A checkpoint is reusable iff it parses, its fingerprint matches the
/// current scenario text, and it belongs to this cell.
fn load_checkpoint(path: &Path, scenario: &Scenario, cell: &Cell) -> Option<CellResult> {
    let text = std::fs::read_to_string(path).ok()?;
    let (fp, result) = CellResult::from_checkpoint_json(&text).ok()?;
    (fp == scenario.fingerprint && result.cell == cell.name).then_some(result)
}

/// The daemon's backing root for one cell. With `daemon.root_dir` set
/// the root lives outside the report tree (typically a tmpfs like
/// `/dev/shm`) and is torn down when the cell finishes — RAM-backed
/// roots must not outlive the measurement that needed them.
struct CellRoot {
    path: std::path::PathBuf,
    ephemeral: bool,
}

impl Drop for CellRoot {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// Run one cell `scenario.repeats` times and keep the run with the
/// median throughput (upper median on even counts, earlier run on
/// ties). Budgets judge one representative measurement per cell, so
/// the representative must be the distribution's center, not whichever
/// single run the machine's mood produced.
fn run_cell(
    scenario: &Scenario,
    cell: &Cell,
    bin: &Path,
    out_dir: &Path,
) -> Result<CellResult, String> {
    let n = scenario.repeats.max(1);
    if n == 1 {
        return measure_cell(scenario, cell, bin, out_dir);
    }
    let mut runs = Vec::with_capacity(n);
    for _ in 0..n {
        runs.push(measure_cell(scenario, cell, bin, out_dir)?);
    }
    let throughput = |r: &CellResult| {
        r.metrics
            .iter()
            .find(|(k, _)| k == "throughput_mib_s")
            .map_or(0.0, |(_, v)| *v)
    };
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by(|&a, &b| {
        throughput(&runs[a])
            .total_cmp(&throughput(&runs[b]))
            .then(a.cmp(&b))
    });
    let mid = order[runs.len() / 2];
    Ok(runs.swap_remove(mid))
}

/// One measurement: fresh scratch root, fresh daemon, replay, harvest.
fn measure_cell(
    scenario: &Scenario,
    cell: &Cell,
    bin: &Path,
    out_dir: &Path,
) -> Result<CellResult, String> {
    let scratch = out_dir.join("scratch").join(cell.slug());
    // A clean root every time: workload replays assume their own prior
    // files do not exist (CREATE|TRUNC opens would otherwise hide
    // cross-run contamination in read-back phases).
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let d = &scenario.daemon;
    let root = match &d.root_dir {
        Some(base) => {
            let path = Path::new(base)
                .join(format!("iofwd-exp-{}", scenario.name))
                .join(cell.slug());
            // Same clean-root contract as the scratch tree: stale
            // leftovers from a crashed run must not feed read-backs.
            let _ = std::fs::remove_dir_all(&path);
            CellRoot {
                path,
                ephemeral: true,
            }
        }
        None => CellRoot {
            path: scratch.join("root"),
            ephemeral: false,
        },
    };
    let mode = cell.axis("mode").unwrap_or("staged");
    let workers: usize = cell
        .axis("workers")
        .map(|w| w.parse().expect("validated at load"))
        .unwrap_or(d.workers);
    let mut spec = DaemonSpec::new(bin, &root.path)
        .mode(mode)
        .workers(workers)
        .log_to(scratch.join("daemon.log"))
        .arg("--bml-mib")
        .arg(d.bml_mib.to_string())
        .arg("--retry-attempts")
        .arg(d.retry_attempts.to_string());
    match cell.axis("coalesce") {
        Some("off") => spec = spec.arg("--coalesce=off"),
        Some("on") => {
            spec = spec.arg(format!(
                "--coalesce={},{}",
                d.coalesce_max_bytes, d.coalesce_max_ops
            ))
        }
        Some(explicit) => {
            let budgets = explicit.strip_prefix("on:").expect("validated at load");
            spec = spec.arg(format!("--coalesce={budgets}"));
        }
        None => {}
    }
    if let Some(transport) = cell.axis("transport") {
        spec = spec.arg("--transport").arg(transport);
        if transport == "reactor" {
            spec = spec
                .arg("--reactor-threads")
                .arg(d.reactor_threads.to_string());
        }
    }
    if d.accept_fault_every > 0 {
        spec = spec
            .arg("--accept-fault-every")
            .arg(d.accept_fault_every.to_string());
    }
    if let Some((per_op_us, bytes_per_sec)) = d.throttle {
        spec = spec.arg("--throttle").arg(format!(
            "{per_op_us},{}",
            report::fmt_f64(bytes_per_sec / (1024.0 * 1024.0))
        ));
    }
    if let Some(fault) = cell.axis("fault") {
        if fault != "none" {
            let plan = scenario.fault_plan(fault).expect("validated at load");
            let plan_path = scratch.join("fault.plan");
            std::fs::write(&plan_path, plan)
                .map_err(|e| format!("cannot write {}: {e}", plan_path.display()))?;
            spec = spec
                .arg("--fault-plan")
                .arg(plan_path.display().to_string());
        }
    }

    let mut daemon = DaemonHandle::spawn(&spec).map_err(|e| format!("cell {}: {e}", cell.name))?;

    let clients: usize = cell
        .axis("clients")
        .map(|c| c.parse().expect("validated at load"))
        .unwrap_or(1);
    let streams = workload::generate(&scenario.workload, clients, scenario.seed);
    let measurement = crate::replay::run(&daemon.addr(), &streams)
        .map_err(|e| format!("cell {}: replay: {e}\n{}", cell.name, daemon.log_tail()))?;

    let snapshot = harvest_snapshot(&daemon.addr()).map_err(|e| {
        format!(
            "cell {}: stats query: {e}\n{}",
            cell.name,
            daemon.log_tail()
        )
    })?;
    if daemon.panicked() {
        return Err(format!(
            "cell {}: daemon panicked:\n{}",
            cell.name,
            daemon.log_tail()
        ));
    }
    daemon
        .shutdown()
        .map_err(|e| format!("cell {}: shutdown: {e}", cell.name))?;
    Ok(CellResult::from_measurement(cell, &measurement, &snapshot))
}

/// Harvest the daemon's final telemetry over the stats wire protocol:
/// synchronous request/reply, no files and no triggers.
fn harvest_snapshot(addr: &str) -> Result<TelemetrySnapshot, String> {
    let conn = TcpConn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut client = Client::connect(Box::new(conn));
    let fetch = |client: &mut Client| -> Result<TelemetrySnapshot, String> {
        client.query_snapshot().map_err(|e| format!("query: {e}"))
    };
    // Staged-write spans fold in worker threads a beat after the
    // client's barrier reply, so a snapshot taken the instant the
    // replay returns can be one or two ops short. Settle: re-query
    // until two consecutive snapshots agree on the fold counters.
    let mut snap = fetch(&mut client)?;
    for _ in 0..100 {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let next = fetch(&mut client)?;
        let settled = next.counter("ops_completed") == snap.counter("ops_completed")
            && next.counter("ops_failed") == snap.counter("ops_failed");
        snap = next;
        if settled {
            break;
        }
    }
    let _ = client.shutdown();
    Ok(snap)
}

/// Find the scenario file: as given, else relative to the repo root
/// (derived from this crate's manifest), else in the committed
/// scenarios directory.
pub fn resolve_scenario_path(given: &Path) -> Result<PathBuf, String> {
    if given.is_file() {
        return Ok(given.to_path_buf());
    }
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let candidates = [
        manifest.join("../..").join(given),
        manifest.join(given),
        manifest
            .join("scenarios")
            .join(given.file_name().unwrap_or(given.as_os_str())),
    ];
    for c in &candidates {
        if c.is_file() {
            return Ok(c.clone());
        }
    }
    Err(format!("scenario file not found: {}", given.display()))
}

/// Find (or build) the daemon binary. Resolution: explicit path →
/// `IOFWDD_BIN` / alongside this executable → `cargo build` fallback
/// matching this binary's profile.
fn resolve_iofwdd(explicit: Option<&Path>) -> Result<PathBuf, String> {
    if let Some(p) = explicit {
        return if p.is_file() {
            Ok(p.to_path_buf())
        } else {
            Err(format!("--bin {}: not a file", p.display()))
        };
    }
    if let Some(found) = locate_iofwdd() {
        return Ok(found);
    }
    // Clean checkout: build it. Match our own profile so a release
    // harness measures a release daemon.
    let release = std::env::current_exe()
        .ok()
        .map(|p| p.components().any(|c| c.as_os_str() == "release"))
        .unwrap_or(false);
    let mut cmd = std::process::Command::new("cargo");
    cmd.args(["build", "-p", "iofwd", "--bins"]);
    if release {
        cmd.arg("--release");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("iofwdd not built and cargo unavailable: {e}"))?;
    if !status.success() {
        return Err("cargo build -p iofwd --bins failed".into());
    }
    locate_iofwdd().ok_or_else(|| {
        "built iofwd but still cannot locate the iofwdd binary \
         (set IOFWDD_BIN explicitly)"
            .to_string()
    })
}
