//! Node specifications: CPUs, context-switch models, and per-node-type
//! parameters for the four node classes in the ALCF system (§II-A):
//! BG/P compute nodes, BG/P I/O nodes, Eureka data-analysis nodes, and
//! file-server nodes.

use crate::calibration;
use crate::units::{gbit_s, mib_s};

/// How a node's scheduler degrades under oversubscription. With `n`
/// I/O-driving threads on `cores` cores, each thread's per-byte CPU cost
/// inflates by `1 + slope * max(0, n - cores) / cores` (context-switch
/// churn, cache thrash). `slope` differs between thread-based (ZOID) and
/// process-based (CIOD) daemons — §III-A attributes ZOID's edge to
/// cheaper thread context switches. Synchronous completion additionally
/// pays a per-excess-thread wakeup latency ([`CtxSwitchModel::wakeup_delay`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtxSwitchModel {
    pub slope: f64,
}

impl CtxSwitchModel {
    pub fn thread_based() -> Self {
        CtxSwitchModel {
            slope: calibration::ION_CTX_SWITCH_SLOPE_THREAD,
        }
    }

    pub fn process_based() -> Self {
        CtxSwitchModel {
            slope: calibration::ION_CTX_SWITCH_SLOPE_PROCESS,
        }
    }

    /// Per-byte CPU cost multiplier (≥ 1) for `threads` concurrent
    /// I/O-driving threads on `cores` cores; logarithmic in the
    /// oversubscription ratio.
    pub fn inflation(&self, cores: u32, threads: usize) -> f64 {
        let c = cores as f64;
        let excess = (threads as f64 - c).max(0.0);
        1.0 + self.slope * (1.0 + excess / c).ln()
    }

    /// Equivalent efficiency factor in (0, 1].
    pub fn efficiency(&self, cores: u32, threads: usize) -> f64 {
        1.0 / self.inflation(cores, threads)
    }

    /// Seconds added to a synchronous completion's critical path by
    /// waking the blocked handler on an ION with `threads` schedulable
    /// daemon entities, for an operation carrying `bytes` of data
    /// (sub-linear in threads — sleeping threads leave the run queue —
    /// and proportional to the data that must drain before completion).
    pub fn wakeup_delay(&self, cores: u32, threads: usize, bytes: u64) -> f64 {
        let excess = (threads as f64 - cores as f64).max(0.0);
        calibration::SYNC_WAKEUP_SQRT_COEFF_PER_MIB
            * excess.sqrt()
            * (bytes as f64 / crate::units::MIB as f64)
    }
}

/// A node's processor complex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    pub cores: u32,
    pub clock_hz: f64,
}

impl CpuSpec {
    /// BG/P node CPU: quad-core 32-bit 850 MHz IBM PowerPC 450 (§II-A).
    pub fn ppc450() -> Self {
        CpuSpec {
            cores: 4,
            clock_hz: 850e6,
        }
    }

    /// Eureka DA node: dual-processor quad-core 2 GHz Intel Xeon (§III-B).
    pub fn xeon_da() -> Self {
        CpuSpec {
            cores: 8,
            clock_hz: 2.0e9,
        }
    }

    /// Total core-seconds per second.
    pub fn capacity(&self) -> f64 {
        self.cores as f64
    }
}

/// A BG/P compute node.
#[derive(Debug, Clone, Copy)]
pub struct CnSpec {
    pub cpu: CpuSpec,
    /// Memory per node: 2 GiB (§II-A).
    pub memory_bytes: u64,
    /// Maximum rate at which one CN can inject payload into the tree
    /// network (calibrated; see [`calibration::CN_INJECT_BPS`]).
    pub inject_bps: f64,
}

impl Default for CnSpec {
    fn default() -> Self {
        CnSpec {
            cpu: CpuSpec::ppc450(),
            memory_bytes: 2 * crate::units::GIB,
            inject_bps: calibration::CN_INJECT_BPS,
        }
    }
}

/// A BG/P I/O node: same quad-core PPC-450 as a CN, plus a 10 GbE port.
#[derive(Debug, Clone, Copy)]
pub struct IonSpec {
    pub cpu: CpuSpec,
    pub memory_bytes: u64,
    /// 10 GbE NIC raw bandwidth, bytes/s (§II-A: "10 gigabit Ethernet port").
    pub nic_bps: f64,
    /// Single-thread TCP send payload rate (Figure 5: 307 MiB/s).
    pub tcp_send_bps_per_core: f64,
    /// Aggregate tree-reception-path service rate (calibrated).
    pub recv_path_bps: f64,
}

impl Default for IonSpec {
    fn default() -> Self {
        IonSpec {
            cpu: CpuSpec::ppc450(),
            memory_bytes: 2 * crate::units::GIB,
            nic_bps: gbit_s(10.0),
            tcp_send_bps_per_core: calibration::ION_TCP_SEND_BPS_PER_CORE,
            recv_path_bps: calibration::ION_RECV_PATH_BPS,
        }
    }
}

impl IonSpec {
    /// CPU cost (core-seconds) of sending one byte over TCP.
    pub fn tcp_send_cpb(&self) -> f64 {
        1.0 / self.tcp_send_bps_per_core
    }

    /// Effective aggregate NIC TX-path capacity given `threads`
    /// concurrent sending threads: the software-limited 791 MiB/s path
    /// (Figure 5's 4-thread measurement), degrading mildly once senders
    /// oversubscribe the cores (Figure 5's 8-thread decline).
    pub fn nic_tx_effective(&self, threads: usize) -> f64 {
        let c = self.cpu.cores as f64;
        let excess = (threads as f64 - c).max(0.0);
        let path = calibration::ION_NIC_TX_PATH_BPS
            / (1.0 + calibration::NIC_TX_CONTENTION_SLOPE * (1.0 + excess / c).ln());
        path.min(self.nic_bps)
    }

    /// Effective reception-path capacity with `handlers` concurrent
    /// receiving handlers (Figure 4 contention fit).
    pub fn recv_path_effective(&self, handlers: usize) -> f64 {
        let knee = calibration::RECV_CONTENTION_KNEE;
        let excess = handlers.saturating_sub(knee) as f64;
        self.recv_path_bps / (1.0 + calibration::RECV_CONTENTION_SLOPE * excess)
    }
}

/// A Eureka data-analysis node (§II-A, §III-B).
#[derive(Debug, Clone, Copy)]
pub struct DaSpec {
    pub cpu: CpuSpec,
    pub nic_bps: f64,
    /// Single-thread TCP rate on a DA node: 1110 MiB/s (Figure 5's
    /// DA-to-DA baseline) — the 2 GHz Xeon nearly saturates the NIC alone.
    pub tcp_bps_per_core: f64,
}

impl Default for DaSpec {
    fn default() -> Self {
        DaSpec {
            cpu: CpuSpec::xeon_da(),
            nic_bps: gbit_s(10.0),
            tcp_bps_per_core: mib_s(1110.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::to_mib_s;

    #[test]
    fn ctx_switch_no_penalty_under_subscription() {
        let m = CtxSwitchModel::thread_based();
        assert_eq!(m.efficiency(4, 1), 1.0);
        assert_eq!(m.efficiency(4, 4), 1.0);
    }

    #[test]
    fn ctx_switch_penalty_grows_with_oversubscription() {
        let m = CtxSwitchModel::thread_based();
        let e8 = m.efficiency(4, 8);
        let e64 = m.efficiency(4, 64);
        assert!(e8 < 1.0);
        assert!(e64 < e8);
        assert!(e64 > 0.3, "efficiency should not collapse entirely: {e64}");
    }

    #[test]
    fn process_model_worse_than_thread_model() {
        let t = CtxSwitchModel::thread_based();
        let p = CtxSwitchModel::process_based();
        for n in [8usize, 16, 32, 64] {
            assert!(p.efficiency(4, n) < t.efficiency(4, n));
        }
    }

    #[test]
    fn ion_single_thread_send_rate_matches_fig5() {
        let ion = IonSpec::default();
        let rate = 1.0 / ion.tcp_send_cpb();
        assert!((to_mib_s(rate) - 307.0).abs() < 0.5);
    }

    #[test]
    fn ion_nic_tx_contention_anchors() {
        let ion = IonSpec::default();
        assert!((to_mib_s(ion.nic_tx_effective(4)) - 791.0).abs() < 1.0);
        assert!(ion.nic_tx_effective(8) < ion.nic_tx_effective(4));
        // With ≤ cores senders there is no oversubscription penalty.
        assert_eq!(ion.nic_tx_effective(1), ion.nic_tx_effective(4));
        // The path never exceeds the wire.
        assert!(ion.nic_tx_effective(1) <= ion.nic_bps);
    }

    #[test]
    fn ion_recv_path_declines_past_knee() {
        let ion = IonSpec::default();
        assert_eq!(ion.recv_path_effective(4), ion.recv_path_bps);
        assert_eq!(ion.recv_path_effective(8), ion.recv_path_bps);
        assert!(ion.recv_path_effective(64) < ion.recv_path_effective(32));
        // Decline is mild (Figure 4 shows degradation, not collapse),
        // and must leave room for async staging's ~95 % efficiency with
        // 64 concurrent streams (Figure 9).
        assert!(ion.recv_path_effective(64) > 0.85 * ion.recv_path_bps);
    }

    #[test]
    fn inflation_and_wakeup_grow_with_threads() {
        let m = CtxSwitchModel::thread_based();
        assert_eq!(m.inflation(4, 4), 1.0);
        assert!(m.inflation(4, 32) > m.inflation(4, 8));
        let mib = 1u64 << 20;
        assert_eq!(m.wakeup_delay(4, 4, mib), 0.0);
        assert!(m.wakeup_delay(4, 64, mib) > m.wakeup_delay(4, 16, mib));
        // Proportional to the data in flight.
        assert!((m.wakeup_delay(4, 64, 4 * mib) / m.wakeup_delay(4, 64, mib) - 4.0).abs() < 1e-9);
        // Efficiency is the reciprocal view.
        let n = 32;
        assert!((m.efficiency(4, n) * m.inflation(4, n) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn da_node_is_fast_enough_to_not_bind() {
        let da = DaSpec::default();
        // A single DA core nearly saturates its NIC (Figure 5: 1110 MiB/s).
        assert!(da.tcp_bps_per_core > 0.9 * da.nic_bps);
    }

    #[test]
    fn specs_quote_paper_hardware() {
        assert_eq!(CpuSpec::ppc450().cores, 4);
        assert_eq!(CpuSpec::ppc450().clock_hz, 850e6);
        assert_eq!(CpuSpec::xeon_da().cores, 8);
        assert_eq!(CnSpec::default().memory_bytes, 2 * crate::units::GIB);
    }
}
