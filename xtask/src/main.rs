//! `cargo xtask` — workspace automation.
//!
//! Subcommands:
//!
//! * `lint` — the invariant linter. Eleven rules the compiler cannot
//!   enforce but this codebase depends on (see DESIGN.md, "Enforced
//!   invariants"):
//!   - **R1** Simulation crates (`simcore`, `bgsim`, `bgp-model`,
//!     `madbench`) must use the virtual clock, never the host clock:
//!     no `std::time::Instant`, `std::time::SystemTime`,
//!     `std::thread::sleep` in their `src/` trees.
//!   - **R2** Daemon-path modules of `iofwd` (`backend`, `transport`,
//!     `client`, `bml`, `descdb`, `fault`, `server::{admit, queue,
//!     reactor, staged}`) must not `.unwrap()` / `.expect(...)`
//!     / `panic!` outside `#[cfg(test)]` modules — errors flow through
//!     `iofwd_proto::error` to the client like CIOD returns errno.
//!   - **R3** `match` expressions over wire-format enums (`Request`,
//!     `Response`, `FrameKind`, `Whence`) must be exhaustive by
//!     listing variants: no `_ =>` or bare-binding catch-all arms, so
//!     adding a protocol op forces every dispatch site to be revisited.
//!   - **R4** Every `unsafe` must be annotated with a `// SAFETY:`
//!     comment in the three lines above it.
//!   - **R5** Telemetry-recording hot paths (`iofwd::{bml, descdb,
//!     server::queue}` and `iofwd-telemetry` outside `snapshot.rs`)
//!     must not `format!` / `println!` / `eprintln!` — recording stays
//!     allocation-free; rendering lives in the snapshot/dump layer.
//!   - **R6** Every runtime `OpSpan::begin` site must stamp the full
//!     lifecycle — `enqueue_ns`, `dispatch_ns`, `reply_ns` — and hand
//!     the span to `Telemetry::complete` in the same file, so no op
//!     type can silently ship half-timed spans to the flight recorder
//!     or the trace exporter.
//!   - **R7** Every file that defines or calls the coalesced-batch
//!     executor `execute_coalesced` (outside test code) must stamp a
//!     `.disposition` and reach `Telemetry::complete`, so no exit path
//!     can drop a constituent op's span when a batch fans back out.
//!   - **R8** Experiment scenarios stay runnable: every
//!     `scenarios/*.toml` path referenced by `ci.sh` must exist, and
//!     every committed file under `crates/experiments/scenarios/` must
//!     load through the harness's own parser (schema + cross-field
//!     validation), so a scenario edit cannot break the CI gates at
//!     sweep time instead of lint time.
//!   - **R9** Per-client attribution in `crates/iofwd/src/` goes
//!     through the sharded `Telemetry::client_stats` accessor — no raw
//!     `.clients.` table access, so hot paths can neither take extra
//!     shard locks nor stamp rows in a disabled registry.
//!   - **R10** Forwarding hot-path files (`iofwd-proto::{wire,
//!     reader}`, `iofwd::{client, transport, bml, server::{admit,
//!     engine, handlers, queue, reactor}}`) must not `.to_vec()` a
//!     `Bytes` view or `Bytes::copy_from_slice(` a payload — payloads
//!     travel application→socket→BML→backend by reference; a
//!     deliberate deep copy (CIOD paper-fidelity staging, small frames
//!     leaving the receive buffer) must carry a `// HOTPATH:` comment
//!     above it.
//!   - **R11** `iofwd::server::engine`, where the daemon calls its
//!     backend, must not `let _ =` the result of a `Backend` /
//!     `BackendObject` call: a discarded errno is an error the client
//!     never hears about.
//!
//!   Known-good exceptions live in `xtask/lint.allow` (one per line:
//!   `R<n> <path> -- <justification>`, at most [`MAX_ALLOW`] entries).
//!   Stale entries — suppressions whose finding no longer exists — fail
//!   the run.
//!
//! * `analyze` — the interprocedural concurrency analyzer: builds
//!   per-function summaries (locks, blocking calls, BML buffer events)
//!   for `iofwd` / `iofwd-proto` / `iofwd-telemetry`, propagates them
//!   over a name-resolution call graph, and reports lock-order cycles
//!   (A1), blocking-under-lock (A2), and BML buffer leak paths (A3).
//!   `--json` emits a machine-readable report on stdout. Exceptions
//!   live in `xtask/analyze.allow` (same shape as `lint.allow`); see
//!   DESIGN.md §13 for rule semantics and approximations.
//!
//! * `loom` — run the loomlite model-checking suite
//!   (`crates/iofwd/tests/loom_model.rs`) with `RUSTFLAGS="--cfg loom"`.
//! * `miri` — run the protocol/runtime unit tests under Miri when the
//!   component is installed; explains how to get it otherwise.
//! * `tsan` — run the concurrency tests under ThreadSanitizer when the
//!   nightly toolchain has `rust-src`; explains otherwise.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use xtask::rules::{self, Rule};
use xtask::{analyze, collect_rs_files};

/// Hard cap on `xtask/lint.allow` so the escape hatch stays an escape
/// hatch; growing past this means fixing code, not the allowlist.
const MAX_ALLOW: usize = 10;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&root),
        Some("analyze") => analyze::run(&root, args.iter().any(|a| a == "--json")),
        Some("loom") => run_loom(&root),
        Some("miri") => run_miri(&root),
        Some("tsan") => run_tsan(&root),
        Some(other) => {
            eprintln!("xtask: unknown subcommand `{other}`");
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("usage: cargo xtask <lint|analyze [--json]|loom|miri|tsan>");
}

/// The workspace root: xtask is always invoked via `cargo run` from the
/// workspace, so the manifest dir's parent is the root.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

// ---------------------------------------------------------------------
// lint
// ---------------------------------------------------------------------

/// One parsed `lint.allow` entry.
struct AllowEntry {
    rule: Rule,
    path: String,
    line_no: usize,
}

fn lint(root: &Path) -> ExitCode {
    let allow = match parse_allowlist(root) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("xtask lint: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    collect_rs_files(&root.join("examples"), &mut files);
    collect_rs_files(&root.join("tests"), &mut files);
    collect_rs_files(&root.join("xtask"), &mut files);
    files.sort();

    let mut violations = Vec::new();
    for file in &files {
        let Ok(source) = std::fs::read_to_string(file) else {
            continue;
        };
        let rel = file.strip_prefix(root).unwrap_or(file);
        violations.extend(rules::check_file(rel, &source));
    }

    let mut used: HashSet<usize> = HashSet::new();
    let mut reported = 0usize;
    for v in &violations {
        let hit = allow.iter().position(|a| {
            a.rule == v.rule && v.path.to_string_lossy().replace('\\', "/") == a.path
        });
        match hit {
            Some(i) => {
                used.insert(i);
            }
            None => {
                reported += 1;
                eprintln!("{v}");
            }
        }
    }
    // A stale entry means the suppressed finding no longer exists: the
    // suppression must not outlive its bug, so this is a hard failure.
    let mut stale = 0usize;
    for (i, a) in allow.iter().enumerate() {
        if !used.contains(&i) {
            stale += 1;
            eprintln!(
                "xtask lint: stale allowlist entry (lint.allow:{}): {} {} — remove it",
                a.line_no, a.rule, a.path
            );
        }
    }

    // R8: experiment scenarios referenced by CI (and all committed
    // ones) must parse through the harness's own loader.
    let scenarios_checked = match lint_scenarios(root) {
        Ok(n) => n,
        Err(errors) => {
            for e in &errors {
                eprintln!("xtask lint: R8 {e}");
            }
            reported += errors.len();
            0
        }
    };

    if reported > 0 || stale > 0 {
        eprintln!(
            "xtask lint: {reported} violation(s), {stale} stale allowlist entr(ies) in {} \
             file(s) scanned",
            files.len()
        );
        ExitCode::FAILURE
    } else {
        println!(
            "xtask lint: ok ({} files scanned, {} scenario(s) validated, \
             {} allowlisted exception(s))",
            files.len(),
            scenarios_checked,
            used.len()
        );
        ExitCode::SUCCESS
    }
}

/// R8: every `scenarios/*.toml` token in `ci.sh` must resolve to a
/// committed file, and every committed scenario must load cleanly.
fn lint_scenarios(root: &Path) -> Result<usize, Vec<String>> {
    let mut errors = Vec::new();
    let scenarios_dir = root.join("crates/experiments/scenarios");

    // Scenario paths referenced by CI.
    let ci = root.join("ci.sh");
    let mut referenced = Vec::new();
    match std::fs::read_to_string(&ci) {
        Ok(text) => {
            for (i, line) in text.lines().enumerate() {
                for token in line.split_whitespace() {
                    let token = token.trim_matches(|c: char| "\"'".contains(c));
                    if token.contains("scenarios/") && token.ends_with(".toml") {
                        if !root.join(token).is_file() {
                            errors.push(format!(
                                "ci.sh:{}: references missing scenario `{token}`",
                                i + 1
                            ));
                        } else {
                            referenced.push(token.to_string());
                        }
                    }
                }
            }
        }
        Err(e) => errors.push(format!("cannot read {}: {e}", ci.display())),
    }
    if referenced.is_empty() && errors.is_empty() {
        errors.push("ci.sh references no scenarios/*.toml — the scenario gates are gone".into());
    }

    // Every committed scenario parses (covers referenced ones too).
    let mut checked = 0usize;
    match std::fs::read_dir(&scenarios_dir) {
        Ok(entries) => {
            let mut paths: Vec<PathBuf> = entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "toml"))
                .collect();
            paths.sort();
            if paths.is_empty() {
                errors.push(format!(
                    "{} holds no .toml scenarios",
                    scenarios_dir.display()
                ));
            }
            for path in paths {
                match experiments::scenario::Scenario::load(&path) {
                    Ok(_) => checked += 1,
                    Err(e) => errors.push(e),
                }
            }
        }
        Err(e) => errors.push(format!("cannot read {}: {e}", scenarios_dir.display())),
    }

    if errors.is_empty() {
        Ok(checked)
    } else {
        Err(errors)
    }
}

fn parse_allowlist(root: &Path) -> Result<Vec<AllowEntry>, String> {
    let path = root.join("xtask/lint.allow");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, justification) = line
            .split_once("--")
            .ok_or_else(|| format!("lint.allow:{line_no}: missing `-- <justification>`"))?;
        if justification.trim().is_empty() {
            return Err(format!("lint.allow:{line_no}: empty justification"));
        }
        let mut parts = head.split_whitespace();
        let rule = parts
            .next()
            .and_then(Rule::parse)
            .ok_or_else(|| format!("lint.allow:{line_no}: expected R1..R9"))?;
        let path = parts
            .next()
            .ok_or_else(|| format!("lint.allow:{line_no}: expected a file path"))?
            .to_string();
        if parts.next().is_some() {
            return Err(format!("lint.allow:{line_no}: trailing tokens before `--`"));
        }
        entries.push(AllowEntry {
            rule,
            path,
            line_no,
        });
    }
    if entries.len() > MAX_ALLOW {
        return Err(format!(
            "lint.allow has {} entries; the cap is {MAX_ALLOW} — fix code instead of allowlisting",
            entries.len()
        ));
    }
    Ok(entries)
}

// ---------------------------------------------------------------------
// loom / miri / tsan runners
// ---------------------------------------------------------------------

fn run_loom(root: &Path) -> ExitCode {
    println!(
        "xtask loom: RUSTFLAGS=\"--cfg loom\" cargo test -p iofwd --test loom_model --release"
    );
    let status = Command::new(cargo())
        .current_dir(root)
        .env("RUSTFLAGS", "--cfg loom")
        .args(["test", "-p", "iofwd", "--test", "loom_model", "--release"])
        .status();
    exit_from(status, "cargo test (loom)")
}

fn run_miri(root: &Path) -> ExitCode {
    let probe = Command::new(cargo())
        .current_dir(root)
        .args(["+nightly", "miri", "--version"])
        .output();
    let available = matches!(&probe, Ok(o) if o.status.success());
    if !available {
        println!("xtask miri: skipped — the `miri` component is not installed.");
        println!("  Install with: rustup +nightly component add miri");
        println!("  Then run:     cargo xtask miri");
        return ExitCode::SUCCESS;
    }
    println!("xtask miri: cargo +nightly miri test -p iofwd-proto -p iofwd --lib");
    let status = Command::new(cargo())
        .current_dir(root)
        .args([
            "+nightly",
            "miri",
            "test",
            "-p",
            "iofwd-proto",
            "-p",
            "iofwd",
            "--lib",
        ])
        .status();
    exit_from(status, "cargo miri test")
}

fn run_tsan(root: &Path) -> ExitCode {
    let probe = Command::new("rustc")
        .args(["+nightly", "--print", "sysroot"])
        .output();
    let sysroot = match &probe {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => {
            println!("xtask tsan: skipped — no nightly toolchain found.");
            println!("  Install with: rustup toolchain install nightly");
            return ExitCode::SUCCESS;
        }
    };
    // -Zbuild-std (required to instrument std) needs the rust-src component.
    if !Path::new(&sysroot)
        .join("lib/rustlib/src/rust/library")
        .exists()
    {
        println!("xtask tsan: skipped — nightly lacks the `rust-src` component.");
        println!("  Install with: rustup +nightly component add rust-src");
        println!("  Then run:     cargo xtask tsan");
        return ExitCode::SUCCESS;
    }
    let target = host_target();
    println!(
        "xtask tsan: RUSTFLAGS=\"-Zsanitizer=thread\" cargo +nightly test -Zbuild-std \
         --target {target} -p iofwd --lib"
    );
    let status = Command::new(cargo())
        .current_dir(root)
        .env("RUSTFLAGS", "-Zsanitizer=thread")
        .args([
            "+nightly",
            "test",
            "-Zbuild-std",
            "--target",
            &target,
            "-p",
            "iofwd",
            "--lib",
        ])
        .status();
    exit_from(status, "cargo test (tsan)")
}

fn cargo() -> String {
    std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string())
}

fn host_target() -> String {
    let out = Command::new("rustc").args(["-vV"]).output();
    if let Ok(o) = out {
        for line in String::from_utf8_lossy(&o.stdout).lines() {
            if let Some(t) = line.strip_prefix("host: ") {
                return t.to_string();
            }
        }
    }
    "x86_64-unknown-linux-gnu".to_string()
}

fn exit_from(status: std::io::Result<std::process::ExitStatus>, what: &str) -> ExitCode {
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(s) => {
            eprintln!("xtask: {what} failed: {s}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask: could not run {what}: {e}");
            ExitCode::FAILURE
        }
    }
}
