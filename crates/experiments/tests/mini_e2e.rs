//! End-to-end harness test: a 2-cell mini-scenario executed against
//! live `iofwdd` processes, validating the report JSON shape, the
//! drift checker, and checkpoint/resume re-running only missing cells.

use std::path::PathBuf;

use experiments::report;
use experiments::runner::{run, RunConfig};
use experiments::scenario::Scenario;
use iofwd_telemetry::json::Json;

const MINI: &str = r#"
[scenario]
name = "mini-e2e"
bench = "experiments_mini_e2e"
seed = 11
description = "2-cell harness self-test"

[workload]
kind = "manytask"
tasks = 4
task_bytes = 256

[daemon]
workers = 1
bml_mib = 8

[axes]
coalesce = ["off", "on"]

[[budget]]
name = "everything-completes"
kind = "metric_min"
metric = "completion_rate"
axis = "coalesce"
candidate = "on"
min = 1.0

[[budget]]
name = "on-arm-not-catastrophic"
kind = "paired_ratio"
metric = "throughput_mib_s"
axis = "coalesce"
candidate = "on"
baseline = "off"
min_ratio = 0.01
"#;

#[test]
fn two_cell_sweep_reports_and_resumes() {
    let dir = std::env::temp_dir().join(format!("experiments-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let scenario_path = dir.join("mini.toml");
    std::fs::write(&scenario_path, MINI).unwrap();
    let out_dir = dir.join("out");

    let cfg = RunConfig {
        scenario: scenario_path.clone(),
        out_dir: Some(out_dir.clone()),
        force: false,
        bin: None,
    };
    let mut quiet = |_line: &str| {};

    // First run: both cells execute, budgets pass, report lands.
    let outcome = run(&cfg, &mut quiet).expect("sweep runs");
    assert!(outcome.pass, "budgets must pass:\n{}", outcome.markdown);
    assert_eq!((outcome.executed, outcome.reused), (2, 0));

    // The report is BENCH-compatible and structurally sound.
    let report_text = std::fs::read_to_string(&outcome.report_json).unwrap();
    let scenario = Scenario::load(&scenario_path).unwrap();
    report::check(&report_text, Some(&scenario)).expect("check passes on fresh report");
    let v = Json::parse(&report_text).unwrap();
    assert_eq!(
        v.get("bench").and_then(Json::as_str),
        Some("experiments_mini_e2e")
    );
    let runs = match v.get("runs") {
        Some(Json::Arr(items)) => items,
        other => panic!("runs missing: {other:?}"),
    };
    assert_eq!(runs.len(), 2);
    for run_obj in runs {
        let metrics = run_obj.get("metrics").expect("metrics object");
        for m in [
            "wall_ms",
            "throughput_mib_s",
            "p50_us",
            "p99_us",
            "stage_backend_pct",
        ] {
            assert!(
                metrics.get(m).and_then(Json::as_f64).is_some(),
                "metric {m} missing"
            );
        }
        // Live-daemon telemetry made it into the report: every op the
        // replay sent shows up in the daemon's own completion counter.
        let ops_completed = run_obj
            .get("counters")
            .and_then(|c| c.get("ops_completed"))
            .and_then(Json::as_f64)
            .expect("ops_completed counter");
        assert!(
            ops_completed >= 12.0,
            "4 tasks x open+write+close: {ops_completed}"
        );
    }
    // Comparisons carry the paired budget evaluation.
    match v.get("comparisons") {
        Some(Json::Arr(items)) => assert_eq!(items.len(), 1),
        other => panic!("comparisons missing: {other:?}"),
    }

    // Resume: drop one checkpoint; only that cell re-executes.
    let dropped = out_dir.join("cells").join("coalesce-on.json");
    assert!(dropped.is_file(), "checkpoint file for the on cell");
    std::fs::remove_file(&dropped).unwrap();
    let outcome = run(&cfg, &mut quiet).expect("resume runs");
    assert_eq!((outcome.executed, outcome.reused), (1, 1));
    assert!(outcome.pass);

    // Editing the scenario invalidates every checkpoint (fingerprint).
    std::fs::write(&scenario_path, format!("{MINI}\n# revised\n")).unwrap();
    let outcome = run(&cfg, &mut quiet).expect("re-run after edit");
    assert_eq!((outcome.executed, outcome.reused), (2, 0));

    // And the originally committed report now fails the drift check
    // against the revised scenario.
    let revised = Scenario::load(&scenario_path).unwrap();
    let err = report::check(&report_text, Some(&revised)).unwrap_err();
    assert!(err.contains("drift"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_path_resolution_finds_committed_scenarios() {
    // The committed scenario files resolve from a bare relative path
    // the way ci.sh invokes them.
    let p = experiments::runner::resolve_scenario_path(&PathBuf::from(
        "crates/experiments/scenarios/coalescing.toml",
    ))
    .expect("committed scenario resolves");
    let s = Scenario::load(&p).expect("committed scenario parses");
    assert_eq!(s.name, "coalescing");
    assert_eq!(s.expand().len(), 4);
}
