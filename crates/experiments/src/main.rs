//! `experiments` — run declarative scenario sweeps, check committed
//! reports for drift, or inspect matrix expansion.
//!
//! ```text
//! experiments run <scenario.toml> [--out DIR] [--force] [--bin IOFWDD]
//! experiments check <BENCH.json> [<scenario.toml>]
//! experiments expand <scenario.toml>
//! experiments figures [--scale N] <fig4|…|fig13|efficiency|telemetry|bottleneck|ablation-bml|ablation-protocol|all>…
//! ```
//!
//! Exit status: 0 on success with all budgets green; 1 on failed
//! budgets, drift, or harness errors; 2 on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use experiments::runner::{self, RunConfig};
use experiments::scenario::Scenario;

mod figures_cli;

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments run <scenario.toml> [--out DIR] [--force] [--bin IOFWDD]\n\
         \x20      experiments check <BENCH.json> [<scenario.toml>]\n\
         \x20      experiments expand <scenario.toml>\n\
         \x20      experiments figures [--scale N] <fig4|fig5|fig6|fig9|fig10|fig11|fig12|fig13|\
         efficiency|telemetry|bottleneck|ablation-bml|ablation-protocol|all>..."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("expand") => cmd_expand(&args[1..]),
        Some("figures") => figures_cli::run(&args[1..]).unwrap_or_else(usage),
        _ => usage(),
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut cfg = RunConfig::default();
    let mut it = args.iter();
    let Some(path) = it.next() else {
        return usage();
    };
    cfg.scenario = PathBuf::from(path);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--force" => cfg.force = true,
            "--out" => match it.next() {
                Some(v) => cfg.out_dir = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--bin" => match it.next() {
                Some(v) => cfg.bin = Some(PathBuf::from(v)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let mut progress = |line: &str| eprintln!("experiments: {line}");
    match runner::run(&cfg, &mut progress) {
        Ok(outcome) => {
            println!("{}", outcome.markdown);
            eprintln!(
                "experiments: {} cells executed, {} reused; report at {}",
                outcome.executed,
                outcome.reused,
                outcome.report_json.display()
            );
            if outcome.pass {
                ExitCode::SUCCESS
            } else {
                eprintln!("experiments: BUDGET FAILURE — see verdicts above");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("experiments: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_check(args: &[String]) -> ExitCode {
    let Some(report_path) = args.first() else {
        return usage();
    };
    let scenario = match args.get(1) {
        Some(p) => {
            let resolved = match runner::resolve_scenario_path(&PathBuf::from(p)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("experiments: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match Scenario::load(&resolved) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("experiments: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let text = match std::fs::read_to_string(report_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("experiments: cannot read {report_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match experiments::report::check(&text, scenario.as_ref()) {
        Ok(()) => {
            println!("{report_path}: ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("experiments: {report_path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_expand(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let resolved = match runner::resolve_scenario_path(&PathBuf::from(path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("experiments: {e}");
            return ExitCode::FAILURE;
        }
    };
    match Scenario::load(&resolved) {
        Ok(s) => {
            for cell in s.expand() {
                println!("{}", cell.name);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("experiments: {e}");
            ExitCode::FAILURE
        }
    }
}
