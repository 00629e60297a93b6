//! The paper's published reference values, transcribed from the text of
//! *Accelerating I/O Forwarding in IBM Blue Gene/P Systems* (SC 2010).
//! Used by the figures harness to print paper-vs-measured tables and by
//! the integration shape tests.

/// §III-A: theoretical tree-network peak after header overhead, MiB/s.
pub const FIG4_HEADER_LIMITED_PEAK: f64 = 731.0;
/// §III-A: measured collective-network plateau at 1 MiB messages, MiB/s.
pub const FIG4_MEASURED_PLATEAU: f64 = 680.0;
/// §III-A: ZOID's edge over CIOD on the collective path ("a 2%
/// performance improvement over CIOD").
pub const FIG4_ZOID_OVER_CIOD: f64 = 1.02;

/// §III-B / Figure 5 anchors: ION→DA nuttcp throughput by thread count.
pub const FIG5_ONE_THREAD: f64 = 307.0;
pub const FIG5_FOUR_THREADS: f64 = 791.0;
/// §III-B: DA→DA single-thread baseline.
pub const FIG5_DA_TO_DA: f64 = 1110.0;
/// §III-B: theoretical 10 GbE peak.
pub const FIG5_NIC_PEAK: f64 = 1192.0;

/// §III-C: end-to-end ceiling ("≈ 650 MiBps") and the measured CIOD/ZOID
/// plateau ("≈ 420 MiBps, which is only 66% of the maximum achievable").
pub const FIG6_CEILING: f64 = 650.0;
pub const FIG6_BASELINE_PLATEAU: f64 = 420.0;
pub const FIG6_BASELINE_EFFICIENCY: f64 = 0.66;

/// §V-A1 / Figure 9 at 32 CNs (1 MiB messages, 4 workers).
pub mod fig9 {
    /// "up to 38% improvement in performance over CIOD for 32 CNs".
    pub const SCHED_OVER_CIOD: f64 = 1.38;
    /// "up to 23% improvement over the default ZOID thread mechanism".
    pub const SCHED_OVER_ZOID: f64 = 1.23;
    /// "up to 83% throughput efficiency".
    pub const SCHED_EFFICIENCY: f64 = 0.83;
    /// "57% improvement over CIOD for 32 CNs".
    pub const ASYNC_OVER_CIOD: f64 = 1.57;
    /// "up to 40% over the default ZOID performance".
    pub const ASYNC_OVER_ZOID: f64 = 1.40;
    /// "a 14% improvement over the I/O scheduling alone".
    pub const ASYNC_OVER_SCHED: f64 = 1.14;
    /// "approximately 95% efficiency".
    pub const ASYNC_EFFICIENCY: f64 = 0.95;
}

/// §V-A2 / Figure 10 at 64 CNs, 256 KiB messages: efficiency of each
/// mechanism relative to the achievable maximum.
pub mod fig10 {
    pub const CIOD_EFF_256K: f64 = 0.64;
    pub const ZOID_EFF_256K: f64 = 0.74;
    pub const SCHED_EFF_256K: f64 = 0.86;
    pub const ASYNC_EFF_256K: f64 = 0.95;
}

/// §V-A3 / Figure 11: worker-pool-size anchors at 1 MiB.
pub mod fig11 {
    /// "a single thread is unable to sustain more than 300 MiBps".
    pub const ONE_WORKER_CAP: f64 = 307.0;
    /// "The maximum performance is obtained with 4 threads".
    pub const BEST_WORKERS: usize = 4;
}

/// §V-A4 / Figure 12: weak scaling, async+sched improvement over the
/// baselines at (256, 512, 1024) CNs = (4, 8, 16) IONs, 20 DA sinks.
pub mod fig12 {
    pub const OVER_CIOD: [f64; 3] = [1.53, 1.43, 1.47];
    pub const OVER_ZOID: [f64; 3] = [1.33, 1.25, 1.34];
    pub const NODES: [usize; 3] = [256, 512, 1024];
}

/// §V-B / Figure 13: MADbench2 improvements of async+sched.
pub mod fig13 {
    /// 64 nodes: "53% improvement in performance over CIOD and 40%
    /// improvement over ZOID".
    pub const OVER_CIOD_64: f64 = 1.53;
    pub const OVER_ZOID_64: f64 = 1.40;
    /// 256 nodes: "49% improvement over CIOD and 34% over ZOID".
    pub const OVER_CIOD_256: f64 = 1.49;
    pub const OVER_ZOID_256: f64 = 1.34;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcription_consistency() {
        // The paper's own numbers must be mutually consistent:
        // sched/ciod ÷ sched/zoid ≈ zoid/ciod ≈ a small edge.
        let zoid_over_ciod = fig9::SCHED_OVER_CIOD / fig9::SCHED_OVER_ZOID;
        assert!(zoid_over_ciod > 1.0 && zoid_over_ciod < 1.2);
        // async/sched derived two ways.
        let derived = fig9::ASYNC_OVER_CIOD / fig9::SCHED_OVER_CIOD;
        assert!((derived - fig9::ASYNC_OVER_SCHED).abs() < 0.02);
        // Efficiency ladder is monotone. (Constant on purpose: these
        // are the paper's published numbers cross-checked against each
        // other.)
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(FIG6_BASELINE_EFFICIENCY < fig9::SCHED_EFFICIENCY);
            assert!(fig9::SCHED_EFFICIENCY < fig9::ASYNC_EFFICIENCY);
        }
    }
}
