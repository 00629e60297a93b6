//! Builders that regenerate each figure of the paper from the simulator.
//!
//! Methodology notes:
//!
//! * The paper reports "the maximum of five runs, each consisting of
//!   1,000 iterations" because its I/O network was *shared*. The
//!   simulator is deterministic and unshared, so one run per point
//!   suffices; we use fewer iterations (enough to reach steady state)
//!   to keep regeneration fast. `--scale` scales them back up.
//! * Axes and series labels match the paper's figures.

use bgp_model::units::{KIB, MIB};
use bgp_model::MachineConfig;
use bgsim::{
    run_collective, run_da_to_da, run_end_to_end, run_external_senders, run_madbench,
    CollectiveParams, EndToEndParams, MadbenchParams, Strategy,
};
use simcore::stats::{Figure, Series};

/// Which figure to regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureId {
    Fig4,
    Fig5,
    Fig6,
    Fig9,
    Fig10,
    Fig11,
    Fig12,
    Fig13,
}

impl FigureId {
    pub const ALL: [FigureId; 8] = [
        FigureId::Fig4,
        FigureId::Fig5,
        FigureId::Fig6,
        FigureId::Fig9,
        FigureId::Fig10,
        FigureId::Fig11,
        FigureId::Fig12,
        FigureId::Fig13,
    ];

    pub fn parse(s: &str) -> Option<FigureId> {
        Some(match s.to_ascii_lowercase().as_str() {
            "fig4" | "4" => FigureId::Fig4,
            "fig5" | "5" => FigureId::Fig5,
            "fig6" | "6" => FigureId::Fig6,
            "fig9" | "9" => FigureId::Fig9,
            "fig10" | "10" => FigureId::Fig10,
            "fig11" | "11" => FigureId::Fig11,
            "fig12" | "12" => FigureId::Fig12,
            "fig13" | "13" => FigureId::Fig13,
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            FigureId::Fig4 => "fig4",
            FigureId::Fig5 => "fig5",
            FigureId::Fig6 => "fig6",
            FigureId::Fig9 => "fig9",
            FigureId::Fig10 => "fig10",
            FigureId::Fig11 => "fig11",
            FigureId::Fig12 => "fig12",
            FigureId::Fig13 => "fig13",
        }
    }
}

/// Iteration budget knob: 1.0 = fast default; larger = closer to the
/// paper's 1,000-iteration runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub scale: f64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget { scale: 1.0 }
    }
}

impl Budget {
    fn iters(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(2)
    }
}

/// Regenerate one figure.
pub fn build(id: FigureId, budget: Budget) -> Figure {
    let cfg = MachineConfig::intrepid();
    match id {
        FigureId::Fig4 => fig4(&cfg, budget),
        FigureId::Fig5 => fig5(&cfg, budget),
        FigureId::Fig6 => fig6(&cfg, budget),
        FigureId::Fig9 => fig9(&cfg, budget),
        FigureId::Fig10 => fig10(&cfg, budget),
        FigureId::Fig11 => fig11(&cfg, budget),
        FigureId::Fig12 => fig12(&cfg, budget),
        FigureId::Fig13 => fig13(&cfg, budget),
    }
}

/// CN counts swept in the single-pset figures.
const CN_SWEEP: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Figure 4: collective-network streaming CN→ION (/dev/null), CIOD vs
/// ZOID, 1 MiB messages, versus CN count.
pub fn fig4(cfg: &MachineConfig, budget: Budget) -> Figure {
    let mut fig = Figure::new(
        "Figure 4: collective network streaming CN -> ION (1 MiB, /dev/null)",
        "compute nodes",
        "MiB/s",
    );
    for strategy in [Strategy::Ciod, Strategy::Zoid] {
        let mut s = Series::new(strategy.name());
        for cns in CN_SWEEP {
            let r = run_collective(
                cfg,
                &CollectiveParams {
                    strategy,
                    compute_nodes: cns,
                    msg_bytes: MIB,
                    iters_per_cn: budget.iters(30),
                },
            );
            s.push(cns as f64, r.mib_per_sec);
        }
        fig.push_series(s);
    }
    let mut peak = Series::new("header-limited peak");
    for cns in CN_SWEEP {
        peak.push(cns as f64, crate::paper::FIG4_HEADER_LIMITED_PEAK);
    }
    fig.push_series(peak);
    fig
}

/// Figure 5: external-network streaming ION→DA (nuttcp-style) versus
/// sender-thread count, plus the DA→DA single-thread baseline.
pub fn fig5(cfg: &MachineConfig, budget: Budget) -> Figure {
    let mut fig = Figure::new(
        "Figure 5: data streaming ION -> DA node (1 MiB messages)",
        "sender threads",
        "MiB/s",
    );
    let mut ion = Series::new("ION -> DA");
    let mut dada = Series::new("DA -> DA (1 thread)");
    let mut nic = Series::new("10GbE peak");
    for threads in [1usize, 2, 4, 8] {
        let r = run_external_senders(cfg, threads, MIB, budget.iters(60));
        ion.push(threads as f64, r.mib_per_sec);
        dada.push(threads as f64, run_da_to_da(cfg, MIB, budget.iters(50)));
        nic.push(threads as f64, crate::paper::FIG5_NIC_PEAK);
    }
    fig.push_series(ion);
    fig.push_series(dada);
    fig.push_series(nic);
    fig
}

/// Figure 6: end-to-end CN→ION→DA, CIOD vs ZOID vs the achievable
/// ceiling, 1 MiB messages, versus CN count.
pub fn fig6(cfg: &MachineConfig, budget: Budget) -> Figure {
    let mut fig = Figure::new(
        "Figure 6: end-to-end I/O forwarding CN -> ION -> DA (1 MiB)",
        "compute nodes",
        "MiB/s",
    );
    for strategy in [Strategy::Ciod, Strategy::Zoid] {
        fig.push_series(end_to_end_series(cfg, strategy, &CN_SWEEP, MIB, budget, 1));
    }
    let mut max = Series::new("max achievable");
    for cns in CN_SWEEP {
        max.push(cns as f64, crate::paper::FIG6_CEILING);
    }
    fig.push_series(max);
    fig
}

/// Figure 9: end-to-end comparison of all four mechanisms (1 MiB, 4
/// workers) versus CN count.
pub fn fig9(cfg: &MachineConfig, budget: Budget) -> Figure {
    let mut fig = Figure::new(
        "Figure 9: I/O forwarding mechanisms, end-to-end (1 MiB, 4 workers)",
        "compute nodes",
        "MiB/s",
    );
    for strategy in Strategy::lineup() {
        fig.push_series(end_to_end_series(cfg, strategy, &CN_SWEEP, MIB, budget, 1));
    }
    fig
}

/// Figure 10: end-to-end throughput at 64 CNs versus message size.
pub fn fig10(cfg: &MachineConfig, budget: Budget) -> Figure {
    let mut fig = Figure::new(
        "Figure 10: I/O forwarding mechanisms at 64 CNs vs message size",
        "message KiB",
        "MiB/s",
    );
    let sizes = [4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, MIB, 4 * MIB];
    for strategy in Strategy::lineup() {
        let mut s = Series::new(strategy.name());
        for &size in &sizes {
            // Fixed byte volume per CN so small-message points do not
            // explode the op count.
            let iters = budget.iters(((24 * MIB) / size.max(256 * KIB)) as usize * 8);
            let r = run_end_to_end(
                cfg,
                &EndToEndParams {
                    strategy,
                    compute_nodes: 64,
                    msg_bytes: size,
                    iters_per_cn: iters,
                    da_sinks: 1,
                },
            );
            s.push((size / KIB) as f64, r.mib_per_sec);
        }
        fig.push_series(s);
    }
    fig
}

/// Figure 11: async+sched end-to-end throughput at 1 MiB versus
/// worker-pool size.
pub fn fig11(cfg: &MachineConfig, budget: Budget) -> Figure {
    let mut fig = Figure::new(
        "Figure 11: impact of worker-pool size (async staging + scheduling, 1 MiB, 64 CNs)",
        "worker threads",
        "MiB/s",
    );
    let mut s = Series::new("async-staged");
    for workers in [1usize, 2, 4, 8] {
        let strategy = Strategy::AsyncStaged {
            workers,
            bml_capacity: bgp_model::calibration::BML_DEFAULT_CAPACITY,
        };
        let r = run_end_to_end(
            cfg,
            &EndToEndParams {
                strategy,
                compute_nodes: 64,
                msg_bytes: MIB,
                iters_per_cn: budget.iters(25),
                da_sinks: 1,
            },
        );
        s.push(workers as f64, r.mib_per_sec);
    }
    fig.push_series(s);
    fig
}

/// Figure 12: weak scaling over 256/512/1024 CNs (4/8/16 IONs), 20 DA
/// sinks, MxN-distributed connections.
pub fn fig12(cfg: &MachineConfig, budget: Budget) -> Figure {
    let mut fig = Figure::new(
        "Figure 12: weak scaling, aggregate end-to-end throughput (1 MiB, 20 DA sinks)",
        "compute nodes",
        "MiB/s",
    );
    let nodes = crate::paper::fig12::NODES;
    for strategy in Strategy::lineup() {
        fig.push_series(end_to_end_series(cfg, strategy, &nodes, MIB, budget, 20));
    }
    fig
}

/// Figure 13: MADbench2 on simulated GPFS, 64 and 256 nodes.
pub fn fig13(cfg: &MachineConfig, budget: Budget) -> Figure {
    let mut fig = Figure::new(
        "Figure 13: MADbench2 aggregate I/O throughput on GPFS",
        "compute nodes",
        "MiB/s",
    );
    let nbin = budget.iters(10) as u64;
    for strategy in Strategy::lineup() {
        let mut s = Series::new(strategy.name());
        for (nodes, params) in [
            (64f64, MadbenchParams::paper_64(strategy, nbin)),
            (256f64, MadbenchParams::paper_256(strategy, nbin)),
        ] {
            let r = run_madbench(cfg, &params);
            s.push(nodes, r.mib_per_sec);
        }
        fig.push_series(s);
    }
    fig
}

fn end_to_end_series(
    cfg: &MachineConfig,
    strategy: Strategy,
    cn_counts: &[usize],
    msg: u64,
    budget: Budget,
    da_sinks: usize,
) -> Series {
    let mut s = Series::new(strategy.name());
    for &cns in cn_counts {
        // Keep total op count bounded for the big weak-scaling points.
        let iters = if cns > 64 {
            budget.iters(10)
        } else {
            budget.iters(25)
        };
        let r = run_end_to_end(
            cfg,
            &EndToEndParams {
                strategy,
                compute_nodes: cns,
                msg_bytes: msg,
                iters_per_cn: iters,
                da_sinks,
            },
        );
        s.push(cns as f64, r.mib_per_sec);
    }
    s
}

/// The in-text efficiency ladder (§V summary): baseline 66 % → sched
/// 83 % → async 95 %, measured at 32 CNs against the §III-C ceiling.
pub fn efficiency_ladder(cfg: &MachineConfig, budget: Budget) -> Vec<(String, f64, f64)> {
    let ceiling = crate::paper::FIG6_CEILING;
    let mut rows = Vec::new();
    let paper = [0.60, 0.66, 0.83, 0.95];
    for (strategy, paper_eff) in Strategy::lineup().into_iter().zip(paper) {
        let r = run_end_to_end(
            cfg,
            &EndToEndParams {
                strategy,
                compute_nodes: 32,
                msg_bytes: MIB,
                iters_per_cn: budget.iters(25),
                da_sinks: 1,
            },
        );
        rows.push((
            strategy.name().to_owned(),
            r.mib_per_sec / ceiling,
            paper_eff,
        ));
    }
    rows
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5; not figures of the paper)
// ---------------------------------------------------------------------------

/// Ablation: BML staging-memory capacity. Shrinking the BML forces the
/// paper's §IV blocking path ("the I/O operation is blocked until ...
/// sufficient memory is available"), degrading async staging toward the
/// synchronous ceiling.
pub fn ablation_bml(cfg: &MachineConfig, budget: Budget) -> Figure {
    let mut fig = Figure::new(
        "Ablation: BML staging capacity (async staging + scheduling, 1 MiB, 64 CNs)",
        "BML MiB",
        "MiB/s",
    );
    let mut tput = Series::new("throughput");
    let mut blocked = Series::new("blocked acquisitions");
    for cap_mib in [4u64, 8, 16, 32, 64, 512] {
        let r = run_end_to_end(
            cfg,
            &EndToEndParams {
                strategy: Strategy::AsyncStaged {
                    workers: 4,
                    bml_capacity: cap_mib * MIB,
                },
                compute_nodes: 64,
                msg_bytes: MIB,
                iters_per_cn: budget.iters(20),
                da_sinks: 1,
            },
        );
        tput.push(cap_mib as f64, r.mib_per_sec);
        blocked.push(cap_mib as f64, r.bml_blocked as f64);
    }
    fig.push_series(tput);
    fig.push_series(blocked);
    fig
}

/// Ablation: the two-step control/data protocol (§V-A2). Inlining the
/// parameters with the data saves one control-message latency per
/// operation — visible at small message sizes, noise at 1 MiB.
pub fn ablation_protocol(cfg: &MachineConfig, budget: Budget) -> Figure {
    use bgsim::{run_end_to_end_opts, SimOptions};
    let mut fig = Figure::new(
        "Ablation: two-step vs inlined control protocol (zoid, 64 CNs)",
        "message KiB",
        "MiB/s",
    );
    let mut two_step = Series::new("two-step (paper)");
    let mut inlined = Series::new("inlined control");
    for &size in &[4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, MIB] {
        let iters = budget.iters(((16 * MIB) / size.max(64 * KIB)) as usize * 4);
        let params = EndToEndParams {
            strategy: Strategy::Zoid,
            compute_nodes: 64,
            msg_bytes: size,
            iters_per_cn: iters,
            da_sinks: 1,
        };
        let a = run_end_to_end_opts(
            cfg,
            &params,
            SimOptions {
                inline_control: false,
                ..SimOptions::default()
            },
        );
        let b = run_end_to_end_opts(
            cfg,
            &params,
            SimOptions {
                inline_control: true,
                ..SimOptions::default()
            },
        );
        two_step.push((size / KIB) as f64, a.mib_per_sec);
        inlined.push((size / KIB) as f64, b.mib_per_sec);
    }
    fig.push_series(two_step);
    fig.push_series(inlined);
    fig
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_id_parsing() {
        assert_eq!(FigureId::parse("fig9"), Some(FigureId::Fig9));
        assert_eq!(FigureId::parse("9"), Some(FigureId::Fig9));
        assert_eq!(FigureId::parse("FIG13"), Some(FigureId::Fig13));
        assert_eq!(FigureId::parse("fig7"), None);
        assert_eq!(FigureId::ALL.len(), 8);
    }

    #[test]
    fn budget_scaling() {
        assert_eq!(Budget::default().iters(30), 30);
        assert_eq!(Budget { scale: 0.1 }.iters(30), 3);
        assert_eq!(Budget { scale: 0.01 }.iters(30), 2);
    }

    #[test]
    fn fig11_has_four_points() {
        let cfg = MachineConfig::intrepid();
        let f = fig11(&cfg, Budget { scale: 0.2 });
        assert_eq!(f.series.len(), 1);
        assert_eq!(f.series[0].points.len(), 4);
    }
}
