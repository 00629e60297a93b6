//! `iofwd-bench` — the repo benchmark's harness (see `../README.md`).
//!
//! ```text
//! iofwd-bench run --workload W --seed N --seconds S --trace 0|1 --iofwdd BIN --out DIR
//! iofwd-bench suite --seed N --seconds S --iofwdd BIN --out DIR
//! iofwd-bench compare A.json B.json
//! iofwd-bench manifest
//! ```
//!
//! `run` prints every metric by name and unit and, as the last line of
//! standard output, the one JSON object the driver reads. `--trace 0`
//! measures the end-to-end metrics with tracing off; `--trace 1` the
//! per-layer ones.

mod affinity;
mod ceilings;
mod compare;
mod daemon;
mod json;
mod loadgen;
mod metrics;
mod procfs;
mod replay;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use affinity::{CpuMask, Split};
use daemon::ScratchDir;
use json::Value;
use loadgen::{Pass, Timing};
use metrics::{Metric, END_TO_END, PER_LAYER};
use workload::{Ceiling, Spec, SPECS};

/// An end-to-end run measures `--seconds` of load in this many segments,
/// with the workload's ceiling probed before each and after the last.
const SEGMENTS: usize = 4;
/// Windows per segment; every end-to-end metric is the median of its
/// per-window values over all segments.
const WINDOWS: usize = 5;
/// Load before the first window: at least a lap of the ring files, whose
/// pages the first lap allocates (slow on a VM that backs memory lazily).
const WARMUP: Duration = Duration::from_millis(1500);
/// Load before each later segment's first window: caches and TCP windows
/// after the probe that ran in between.
const SEGMENT_WARMUP: Duration = Duration::from_millis(300);
/// Full set-ups (spawn to ready) per end-to-end run; `setup_s` is their
/// median.
const SETUPS: usize = 5;
/// Each ceiling probe bracketing a segment.
const BRACKET_PROBE: Duration = Duration::from_millis(400);
/// Each of the seven ceiling probes and nine replays of a traced run.
const LAYER_PROBE: Duration = Duration::from_millis(500);
const LAYER_REPLAY: Duration = Duration::from_millis(300);
/// Calls written to a trace file (all of them are measured).
const TRACE_FILE_CALLS: usize = 20_000;

struct Args {
    seed: u64,
    seconds: u64,
    iofwdd: PathBuf,
    out: PathBuf,
    cpus: Split,
    /// Self-test of the verifier: flip one byte of a root file.
    corrupt: bool,
}

struct RunResult {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    detail: Value,
}

fn io_err(e: std::io::Error) -> String {
    e.to_string()
}

/// The run's scratch directory and, inside it, where probe and replay
/// files go and where each daemon gets its own directory.
fn scratch(args: &Args) -> Result<(ScratchDir, PathBuf, PathBuf), String> {
    let dir = args.out.join(format!("scratch-{}", std::process::id()));
    let guard = ScratchDir::create(&dir).map_err(io_err)?;
    let probes = dir.join("probes");
    std::fs::create_dir_all(&probes).map_err(io_err)?;
    Ok((guard, probes, dir.join("daemon")))
}

fn measure_ceiling(spec: &Spec, dir: &Path, cpus: &CpuMask) -> std::io::Result<f64> {
    let d = BRACKET_PROBE;
    Ok(match spec.ceiling {
        Ceiling::RelayWrite => ceilings::relay_write_mib_s(dir, cpus, d)?,
        Ceiling::RelayRead => ceilings::relay_read_mib_s(dir, cpus, d)?,
        Ceiling::RelayMix => {
            let (w, r) = (
                ceilings::relay_write_mib_s(dir, cpus, d)?,
                ceilings::relay_read_mib_s(dir, cpus, d)?,
            );
            2.0 * w * r / (w + r)
        }
        Ceiling::PingPong => ceilings::pingpong_ops_s(cpus, d)?,
        Ceiling::Device(mib_s) => mib_s,
    })
}

fn pass_detail(pass: &Pass) -> Value {
    let windows: Vec<_> = metrics::pass_windows(pass).into_iter().flatten().collect();
    Value::obj()
        .with("daemon_command", pass.daemon_argv.join(" "))
        .with("op_stream_hash", format!("{:016x}", pass.op_stream_hash))
        .with("segments", pass.segments.len())
        .with("window_s", pass.window_ns as f64 / 1e9)
        .with(
            "ops_per_window",
            windows.iter().map(|w| w.ops).collect::<Vec<u64>>(),
        )
        .with(
            "barriers_per_window",
            windows.iter().map(|w| w.barriers).collect::<Vec<u64>>(),
        )
        .with("blocks_verified", pass.blocks_verified)
        .with("attempted", pass.attempted)
        .with("failed", pass.failed)
}

fn placement(cpus: &Split) -> Value {
    Value::obj()
        .with("daemon_cpus", cpus.daemon.clone())
        .with("loadgen_cpus", cpus.loadgen.clone())
}

/// `--trace 0`: set up [`SETUPS`] times, then one untraced pass of
/// [`SEGMENTS`] segments with the workload's ceiling probed around each,
/// verify, report the end-to-end metrics.
fn run_end_to_end(args: &Args, spec: &'static Spec) -> Result<RunResult, String> {
    let origin = Instant::now();
    let (_scratch, probes, daemon_dir) = scratch(args)?;
    let set_up = || {
        loadgen::set_up(
            &args.iofwdd,
            &daemon_dir,
            &args.cpus,
            spec,
            args.seed,
            origin,
            false,
        )
        .map_err(io_err)
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        setup_s.push(set_up()?.setup_s);
    }
    let ready = set_up()?;
    setup_s.push(ready.setup_s);
    let timing = Timing {
        segments: SEGMENTS,
        first_warmup: WARMUP,
        warmup: SEGMENT_WARMUP,
        window: Duration::from_secs(args.seconds) / (SEGMENTS * WINDOWS) as u32,
        windows: WINDOWS,
    };
    let server_cpus = args.cpus.daemon_mask();
    // The first probe creates its files and touches its buffers; only the
    // later ones measure the host.
    measure_ceiling(spec, &probes, &server_cpus).map_err(io_err)?;
    let mut ceilings = Vec::with_capacity(SEGMENTS + 1);
    let pass = loadgen::run_pass(ready, args.seed, origin, timing, args.corrupt, || {
        ceilings.push(measure_ceiling(spec, &probes, &server_cpus)?);
        Ok(())
    })
    .map_err(io_err)?;
    let per_op = spec.ceiling == Ceiling::PingPong;
    let metrics = metrics::end_to_end(&pass, &setup_s, &ceilings, per_op)?;
    let detail = pass_detail(&pass)
        .with("ceilings", ceilings)
        .with("setup_s_each", setup_s)
        .with("placement", placement(&args.cpus))
        .with("backing_fs", daemon::backing_fs(&args.out));
    Ok(RunResult {
        metrics,
        attempted: pass.attempted,
        failed: pass.failed,
        errors: pass.errors,
        detail,
    })
}

/// `--trace 1`: all seven ceilings, the layer replays at the workload's
/// block size, then an untraced and a traced pass sharing `--seconds`.
fn run_per_layer(args: &Args, spec: &'static Spec) -> Result<RunResult, String> {
    let origin = Instant::now();
    let (_scratch, probes, daemon_dir) = scratch(args)?;
    let dir = &probes;
    let cpus = &args.cpus.daemon_mask();
    let ceilings = ceilings::measure_all(dir, cpus, LAYER_PROBE).map_err(io_err)?;
    let replays = replay::run(dir, spec.block, LAYER_REPLAY).map_err(io_err)?;

    let windows = 2 * WINDOWS;
    let timing = Timing {
        segments: 1,
        first_warmup: WARMUP,
        warmup: WARMUP,
        window: Duration::from_secs(args.seconds) / 2 / windows as u32,
        windows,
    };
    let pass = |traced: bool| -> Result<Pass, String> {
        let ready = loadgen::set_up(
            &args.iofwdd,
            &daemon_dir,
            &args.cpus,
            spec,
            args.seed,
            origin,
            traced,
        )
        .map_err(io_err)?;
        loadgen::run_pass(ready, args.seed, origin, timing, args.corrupt, || Ok(())).map_err(io_err)
    };
    let untraced = pass(false)?;
    let traced = pass(true)?;

    let start = traced.segments[0].start_ns;
    let end = start + traced.window_ns * windows as u64;
    let mut ledger = trace::Ledger::default();
    for (samples, spans) in traced.samples.iter().zip(&traced.spans) {
        ledger.add_client(samples, spans, start, end);
    }
    let trace_file = args.out.join(format!("trace-{}.json", spec.name));
    let spans = trace::spans_json(&traced.samples, &traced.spans, start, end, TRACE_FILE_CALLS)
        .with("workload", spec.name);
    std::fs::write(&trace_file, format!("{spans}\n")).map_err(io_err)?;

    let metrics = metrics::per_layer(&ceilings, &replays, &untraced, &traced, &ledger);
    let detail = Value::obj()
        .with("untraced", pass_detail(&untraced))
        .with("traced", pass_detail(&traced))
        .with("traced_calls", ledger.ops)
        .with("client_call_ns_per_op", ledger.per_op(ledger.call_ns))
        .with("trace_file", trace_file.display().to_string())
        .with("placement", placement(&args.cpus))
        .with("backing_fs", daemon::backing_fs(&args.out));
    let mut errors = untraced.errors;
    errors.extend(traced.errors);
    Ok(RunResult {
        metrics,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        errors,
        detail,
    })
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// `detail` adds each metric's spread and the per-window values behind it.
fn metrics_json(metrics: &[Metric], detail: bool) -> Value {
    let mut out = Value::obj();
    for m in metrics {
        let mut v = Value::obj()
            .with("value", m.value)
            .with("unit", unit_of(m.name));
        if let (true, Some(s)) = (detail, m.spread) {
            v.set("spread", s);
            v.set("windows", m.windows.clone());
        }
        out.set(m.name, v);
    }
    out
}

fn print_metrics(spec: &Spec, trace: bool, r: &RunResult) {
    println!(
        "# {} ({}), {} of {} calls and checks failed",
        spec.name,
        if trace { "per-layer" } else { "end-to-end" },
        r.failed,
        r.attempted
    );
    for m in &r.metrics {
        match m.spread {
            Some(s) => println!(
                "{:<38} {:>14.4} {:<6} spread {:.1}%",
                m.name,
                m.value,
                unit_of(m.name),
                s * 100.0
            ),
            None => println!("{:<38} {:>14.4} {}", m.name, m.value, unit_of(m.name)),
        }
    }
    for e in &r.errors {
        println!("# error: {e}");
    }
}

fn run_one(args: &Args, spec: &'static Spec, trace: bool) -> Result<RunResult, String> {
    std::fs::create_dir_all(&args.out).map_err(io_err)?;
    let r = if trace {
        run_per_layer(args, spec)?
    } else {
        run_end_to_end(args, spec)?
    };
    print_metrics(spec, trace, &r);
    Ok(r)
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

fn environment(args: &Args) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    Value::obj()
        .with("nproc", nproc)
        .with("kernel", kernel.trim())
        .with("rustc", command_output("rustc", &["-V"]))
        .with("git_commit", command_output("git", &["rev-parse", "HEAD"]))
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("iofwdd", args.iofwdd.display().to_string())
        .with("backing_fs", daemon::backing_fs(&args.out))
}

/// Every workload, end-to-end then per-layer, into `results.json`.
fn suite(args: &Args) -> Result<bool, String> {
    let mut workloads = Value::obj();
    let mut ok = true;
    for spec in &SPECS {
        let e2e = run_one(args, spec, false)?;
        let layers = run_one(args, spec, true)?;
        ok &= e2e.failed == 0 && layers.failed == 0;
        workloads.set(
            spec.name,
            Value::obj()
                .with("end_to_end", metrics_json(&e2e.metrics, true))
                .with("per_layer", metrics_json(&layers.metrics, false))
                .with("attempted", e2e.attempted + layers.attempted)
                .with("failed", e2e.failed + layers.failed)
                .with("end_to_end_run", e2e.detail)
                .with("per_layer_run", layers.detail),
        );
    }
    let results = Value::obj()
        .with("env", environment(args))
        .with("definitions", metrics::definitions())
        .with("workloads", workloads);
    let path = args.out.join("results.json");
    std::fs::write(&path, format!("{results}\n")).map_err(io_err)?;
    println!("# wrote {}", path.display());
    Ok(ok)
}

fn usage() -> String {
    "usage: iofwd-bench run --workload NAME --seed N --seconds S --trace 0|1 --iofwdd BIN --out DIR [--corrupt]\n\
     \x20      iofwd-bench suite --seed N --seconds S --iofwdd BIN --out DIR\n\
     \x20      iofwd-bench compare A.json B.json\n\
     \x20      iofwd-bench manifest"
        .into()
}

fn main_inner() -> Result<bool, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    match command.as_str() {
        "manifest" => {
            println!("{}", metrics::manifest());
            return Ok(true);
        }
        "compare" => {
            let load = |path: Option<String>| -> Result<Value, String> {
                let path = path.ok_or_else(usage)?;
                let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
                Value::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let (a, b) = (load(argv.next())?, load(argv.next())?);
            let rows = compare::compare(&a, &b);
            print!("{}", compare::render(&rows));
            return Ok(!rows.iter().any(|r| r.outside_bound));
        }
        "run" | "suite" => {}
        _ => return Err(usage()),
    }
    let mut args = Args {
        seed: 1,
        seconds: metrics::RUN_SECONDS,
        iofwdd: PathBuf::new(),
        out: PathBuf::new(),
        cpus: Split::detect().map_err(io_err)?,
        corrupt: false,
    };
    // The load generator's threads all descend from this one.
    affinity::pin(&args.cpus.loadgen_mask()).map_err(io_err)?;
    let (mut workload, mut trace) = (None, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds needs a whole number from 1 to 60")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--iofwdd" => args.iofwdd = value()?.into(),
            "--out" => args.out = value()?.into(),
            "--corrupt" => args.corrupt = true,
            _ => return Err(usage()),
        }
    }
    if args.iofwdd.as_os_str().is_empty() || args.out.as_os_str().is_empty() {
        return Err(usage());
    }
    if command == "suite" {
        return suite(&args);
    }
    let name = workload.ok_or_else(usage)?;
    let spec = workload::spec(&name).ok_or(format!("unknown workload '{name}'"))?;
    let r = run_one(&args, spec, trace)?;
    let detail = Value::obj()
        .with("env", environment(&args))
        .with("workload", spec.name)
        .with("trace", trace)
        .with("metrics", metrics_json(&r.metrics, true))
        .with("run", r.detail);
    let file = format!("run-{}-trace{}.json", spec.name, u8::from(trace));
    std::fs::write(args.out.join(file), format!("{detail}\n")).map_err(io_err)?;
    let line = Value::obj()
        .with("correct", r.failed == 0)
        .with("attempted", r.attempted)
        .with("failed", r.failed)
        .with("metrics", metrics_json(&r.metrics, false));
    println!("{line}");
    Ok(r.failed == 0)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("iofwd-bench: {e}");
            ExitCode::from(2)
        }
    }
}
