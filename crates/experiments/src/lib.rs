//! Declarative experiment harness: TOML scenarios, seeded workload
//! replay against a live `iofwdd`, and regression-gated BENCH reports.
//!
//! The paper's evaluation (§V) is a matrix: the same application
//! workloads (MADbench2, loosely-coupled many-task runs, mixed traces)
//! replayed across I/O forwarding configurations, with paired cells
//! compared. This crate turns that method into infrastructure:
//!
//! * [`scenario`] — the `[scenario]`/`[workload]`/`[axes]`/`[[budget]]`
//!   TOML schema, matrix expansion, and cross-field validation;
//! * [`workload`] — seeded deterministic op-stream generation on
//!   `simcore::rng` (same seed ⇒ byte-identical streams);
//! * [`replay`] — thread-per-client execution against a live daemon
//!   with per-op latencies and stage-echo aggregation;
//! * [`runner`] — per-cell daemon lifecycle, telemetry harvest, and
//!   fingerprint-guarded checkpoint/resume;
//! * [`report`] — BENCH_*.json-compatible reports, paired comparison
//!   tables, budget verdicts, and the `check` drift guard;
//! * [`toml`] — the dependency-free TOML subset parser underneath it;
//! * [`figures`] / [`paper`] — one builder per figure of the paper over
//!   the discrete-event simulator, each a [`simcore::stats::Figure`]
//!   with one series per forwarding mechanism, and the published
//!   reference anchors they are printed beside
//!   (`experiments figures all`).
//!
//! The CLI binary (`cargo run -p experiments -- run <scenario.toml>`)
//! is a thin wrapper over [`runner::run`]; CI invokes it for the
//! committed scenarios under `crates/experiments/scenarios/`.

pub mod figures;
pub mod paper;
pub mod replay;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod toml;
pub mod workload;
