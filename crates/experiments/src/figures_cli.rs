//! `experiments figures` — regenerate the paper's figures from the
//! simulator, and the live-daemon stage tables beside them.
//!
//! ```text
//! experiments figures all
//! experiments figures fig9 fig13
//! experiments figures --scale 4 fig12   # more iterations
//! experiments figures efficiency
//! experiments figures telemetry   # live-daemon stage breakdown
//! experiments figures bottleneck  # dominant-stage attribution
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use bgp_model::MachineConfig;
use experiments::figures::{self, build, efficiency_ladder, Budget, FigureId};
use experiments::paper;
use iofwd::backend::MemSinkBackend;
use iofwd::server::{ForwardingMode, IonServer, ServerConfig};
use iofwd::telemetry::snapshot::{fmt_ns, TelemetrySnapshot};
use iofwd::trace::StageBreakdown;
use iofwd::transport::mem::MemHub;
use madbench::{MadbenchParams, Phase};
use simcore::stats::Figure;

/// Print every requested table, in order; `None` is a usage error (an
/// unknown name, a bad `--scale`, nothing requested).
pub fn run(args: &[String]) -> Option<ExitCode> {
    let mut scale = 1.0f64;
    let mut want = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = it.next()?.parse().ok()?,
            other => want.push(other),
        }
    }
    if want.is_empty() {
        return None;
    }
    let budget = Budget { scale };
    for w in want {
        match w {
            "all" => {
                for id in FigureId::ALL {
                    print_figure(id, budget);
                }
                print_efficiency(budget);
                print_ablation(figures::ablation_bml, budget);
                print_ablation(figures::ablation_protocol, budget);
            }
            "efficiency" | "t-effic" => print_efficiency(budget),
            "telemetry" => print_telemetry(budget),
            "bottleneck" => print_bottleneck(budget),
            "ablation-bml" => print_ablation(figures::ablation_bml, budget),
            "ablation-protocol" => print_ablation(figures::ablation_protocol, budget),
            other => print_figure(FigureId::parse(other)?, budget),
        }
    }
    Some(ExitCode::SUCCESS)
}

fn print_figure(id: FigureId, budget: Budget) {
    eprintln!("[figures] running {} ...", id.name());
    let fig = build(id, budget);
    println!("{fig}");
    annotate(id, &fig);
    println!();
}

fn print_ablation(build: fn(&MachineConfig, Budget) -> Figure, budget: Budget) {
    eprintln!("[figures] running ablation ...");
    println!("{}", build(&MachineConfig::intrepid(), budget));
}

fn annotate(id: FigureId, fig: &Figure) {
    let at = |label: &str, x: f64| fig.series(label).and_then(|s| s.y_at(x));
    match id {
        FigureId::Fig4 => {
            if let Some(z) = at("zoid", 8.0) {
                println!(
                    "# paper: plateau ~{} MiB/s (93% of {}); measured zoid@8 = {:.0}",
                    paper::FIG4_MEASURED_PLATEAU,
                    paper::FIG4_HEADER_LIMITED_PEAK,
                    z
                );
            }
        }
        FigureId::Fig5 => {
            if let (Some(one), Some(four)) = (at("ION -> DA", 1.0), at("ION -> DA", 4.0)) {
                println!(
                    "# paper: 1 thr = {} MiB/s, 4 thr = {} MiB/s (peak), 8 thr declines; \
                     measured {:.0} / {:.0}",
                    paper::FIG5_ONE_THREAD,
                    paper::FIG5_FOUR_THREADS,
                    one,
                    four
                );
            }
            if let Some(d) = at("DA -> DA (1 thread)", 1.0) {
                println!(
                    "# paper: DA->DA = {} MiB/s; measured {:.0}",
                    paper::FIG5_DA_TO_DA,
                    d
                );
            }
        }
        FigureId::Fig6 => {
            if let Some(z) = at("zoid", 8.0) {
                println!(
                    "# paper: CIOD/ZOID sustain ~{} MiB/s = {}% of the {} ceiling; \
                     measured zoid@8 = {:.0}",
                    paper::FIG6_BASELINE_PLATEAU,
                    (paper::FIG6_BASELINE_EFFICIENCY * 100.0) as u32,
                    paper::FIG6_CEILING,
                    z
                );
            }
        }
        FigureId::Fig9 => {
            let r = |a: &str, b: &str| match (at(a, 32.0), at(b, 32.0)) {
                (Some(x), Some(y)) if y > 0.0 => x / y,
                _ => f64::NAN,
            };
            println!(
                "# paper @32 CNs: sched/ciod = {:.2}, sched/zoid = {:.2}, async/sched = {:.2}; \
                 measured {:.2}, {:.2}, {:.2}",
                paper::fig9::SCHED_OVER_CIOD,
                paper::fig9::SCHED_OVER_ZOID,
                paper::fig9::ASYNC_OVER_SCHED,
                r("sched", "ciod"),
                r("sched", "zoid"),
                r("async-staged", "sched"),
            );
        }
        FigureId::Fig10 => {
            let e = |label: &str| at(label, 256.0).map(|v| v / paper::FIG6_CEILING);
            println!(
                "# paper @256 KiB: ciod {:.0}%, zoid {:.0}%, sched {:.0}%, async {:.0}% \
                 efficiency; measured {:.0}%, {:.0}%, {:.0}%, {:.0}%",
                paper::fig10::CIOD_EFF_256K * 100.0,
                paper::fig10::ZOID_EFF_256K * 100.0,
                paper::fig10::SCHED_EFF_256K * 100.0,
                paper::fig10::ASYNC_EFF_256K * 100.0,
                e("ciod").unwrap_or(f64::NAN) * 100.0,
                e("zoid").unwrap_or(f64::NAN) * 100.0,
                e("sched").unwrap_or(f64::NAN) * 100.0,
                e("async-staged").unwrap_or(f64::NAN) * 100.0,
            );
        }
        FigureId::Fig11 => {
            println!(
                "# paper: 1 worker <= {} MiB/s; peak at {} workers; 8 declines",
                paper::fig11::ONE_WORKER_CAP,
                paper::fig11::BEST_WORKERS
            );
        }
        FigureId::Fig12 => {
            for (i, &nodes) in paper::fig12::NODES.iter().enumerate() {
                let x = nodes as f64;
                let r = |a: &str, b: &str| match (at(a, x), at(b, x)) {
                    (Some(p), Some(q)) if q > 0.0 => p / q,
                    _ => f64::NAN,
                };
                println!(
                    "# paper @{} CNs: async/ciod = {:.2}, async/zoid = {:.2}; \
                     measured {:.2}, {:.2}",
                    nodes,
                    paper::fig12::OVER_CIOD[i],
                    paper::fig12::OVER_ZOID[i],
                    r("async-staged", "ciod"),
                    r("async-staged", "zoid"),
                );
            }
        }
        FigureId::Fig13 => {
            let r = |x: f64, b: &str| match (at("async-staged", x), at(b, x)) {
                (Some(p), Some(q)) if q > 0.0 => p / q,
                _ => f64::NAN,
            };
            println!(
                "# paper: async/ciod = {:.2} (64), {:.2} (256); async/zoid = {:.2} (64), \
                 {:.2} (256); measured {:.2}, {:.2}, {:.2}, {:.2}",
                paper::fig13::OVER_CIOD_64,
                paper::fig13::OVER_CIOD_256,
                paper::fig13::OVER_ZOID_64,
                paper::fig13::OVER_ZOID_256,
                r(64.0, "ciod"),
                r(256.0, "ciod"),
                r(64.0, "zoid"),
                r(256.0, "zoid"),
            );
        }
    }
}

fn print_efficiency(budget: Budget) {
    eprintln!("[figures] running efficiency ladder ...");
    let cfg = MachineConfig::intrepid();
    println!("# In-text efficiency ladder at 32 CNs (vs the ~650 MiB/s ceiling)");
    println!("{:>14} {:>12} {:>12}", "mechanism", "measured", "paper");
    for (name, measured, paper_eff) in efficiency_ladder(&cfg, budget) {
        println!(
            "{:>14} {:>11.0}% {:>11.0}%",
            name,
            measured * 100.0,
            paper_eff * 100.0
        );
    }
    println!();
}

/// Run MADbench against a real in-process daemon once per forwarding
/// strategy; returns the workload and each strategy's final snapshot.
fn live_sweep(budget: Budget) -> (MadbenchParams, [(ForwardingMode, TelemetrySnapshot); 4]) {
    let nbin = ((3.0 * budget.scale).round() as u64).max(1);
    let p = MadbenchParams {
        npix: 64,
        nbin,
        nproc: 4,
        ..MadbenchParams::paper_64()
    };
    // A BML barely larger than one write forces occupancy to swing and
    // acquires to block — the gauge evidence for staging backpressure.
    let bml_capacity = 2 * p.slice_bytes();
    let modes = [
        ForwardingMode::Ciod,
        ForwardingMode::Zoid,
        ForwardingMode::Sched { workers: 2 },
        ForwardingMode::AsyncStaged {
            workers: 2,
            bml_capacity,
        },
    ];
    let snapshots = modes.map(|mode| {
        let hub = MemHub::new();
        let server = IonServer::spawn(
            Box::new(hub.listener()),
            Arc::new(MemSinkBackend::new()),
            ServerConfig::new(mode),
        );
        let telemetry = server.telemetry();
        madbench::runner::run(&p, &Phase::ALL, |_| Box::new(hub.connect()));
        server.shutdown();
        (mode, telemetry.snapshot())
    });
    (p, snapshots)
}

/// Live-daemon telemetry: the paper-style lifecycle stage breakdown
/// (queue wait vs backend service) each forwarding strategy exhibits.
fn print_telemetry(budget: Budget) {
    eprintln!("[figures] running live-daemon telemetry sweep ...");
    let (p, sweep) = live_sweep(budget);
    println!(
        "# Per-strategy op lifecycle (MADbench {} procs x {} bins, live daemon)",
        p.nproc, p.nbin
    );
    println!(
        "{:>12} {:>6} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
        "mode", "ops", "qwait-mean", "qwait-p99", "svc-mean", "svc-p99", "total-mean", "total-p99"
    );
    for (mode, snap) in sweep {
        let h = |name: &str| snap.hist(name).cloned().unwrap_or_default();
        let (qw, svc, tot) = (h("queue_wait_ns"), h("service_ns"), h("total_ns"));
        println!(
            "{:>12} {:>6} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
            mode.name(),
            snap.counter("ops_completed"),
            fmt_ns(qw.mean()),
            fmt_ns(qw.quantile(0.99) as f64),
            fmt_ns(svc.mean()),
            fmt_ns(svc.quantile(0.99) as f64),
            fmt_ns(tot.mean()),
            fmt_ns(tot.quantile(0.99) as f64),
        );
        if matches!(mode, ForwardingMode::AsyncStaged { .. }) {
            println!(
                "# async-staged: {} staged ops, {} blocked BML acquires, \
                 BML occupancy peak {} B / final {} B, queue depth peak {}",
                snap.counter("ops_staged"),
                snap.counter("bml_blocked_acquires"),
                snap.gauge("bml_occupancy").peak,
                snap.gauge("bml_occupancy").current,
                snap.gauge("queue_depth").peak,
            );
        }
    }
    println!();
}

/// Bottleneck attribution: the same sweep as `telemetry`, each
/// strategy's histograms reduced to a [`StageBreakdown`] naming the
/// stage that dominates server residency — the paper's §III/§V
/// diagnosis (thread-per-CN strategies queue; the worker pool moves the
/// cost into backend service) as a one-line verdict per mode.
fn print_bottleneck(budget: Budget) {
    eprintln!("[figures] running live-daemon bottleneck attribution ...");
    let (p, sweep) = live_sweep(budget);
    println!(
        "# Per-strategy bottleneck attribution (MADbench {} procs x {} bins, live daemon)",
        p.nproc, p.nbin
    );
    for (mode, snap) in sweep {
        print!(
            "{}",
            StageBreakdown::from_snapshot(&snap).render(mode.name())
        );
    }
    println!();
}
