//! GPFS storage model: 128 file-server nodes (dual-core dual-processor
//! Opteron, 10 Gb/s Myrinet, InfiniBand 4X DDR to 16 DataDirect Networks
//! 9900 storage devices) serving a clusterwide parallel file system
//! (§II-A).
//!
//! For this paper's experiments storage is a *sink* whose aggregate
//! bandwidth comfortably exceeds what ≤ 16 IONs can push (the MADbench2
//! runs use 1–4 IONs); what matters is the per-ION GPFS client ceiling
//! and the per-operation cost, both calibrated in [`crate::calibration`].

use simcore::time::Duration;

use crate::calibration;
use crate::units::{gbit_s, mib_s};

/// The clusterwide GPFS installation.
#[derive(Debug, Clone, Copy)]
pub struct StorageSpec {
    /// Number of file-server nodes (§II-A: 128).
    pub fsn_count: usize,
    /// Per-FSN network bandwidth (10 Gb/s Myrinet).
    pub fsn_nic_bps: f64,
    /// Aggregate backend bandwidth of the 16 DDN 9900 couplets, bytes/s.
    /// Lang et al. (SC 2009, the paper's reference 11) measured Intrepid's
    /// storage at tens of GB/s; we size each couplet at 2.8 GiB/s.
    pub backend_bps: f64,
    /// Ceiling one ION's GPFS client traffic can reach (calibrated).
    pub per_ion_bps: f64,
    /// Fixed service latency per file operation at the FSN (calibrated).
    pub per_op_latency: Duration,
}

impl Default for StorageSpec {
    fn default() -> Self {
        StorageSpec {
            fsn_count: 128,
            fsn_nic_bps: gbit_s(10.0),
            backend_bps: 16.0 * mib_s(2.8 * 1024.0),
            per_ion_bps: calibration::GPFS_PER_ION_BPS,
            per_op_latency: calibration::GPFS_PER_OP_LATENCY,
        }
    }
}

impl StorageSpec {
    /// Aggregate bandwidth the array can absorb: the lesser of the FSN
    /// network ingress and the backend disks.
    pub fn aggregate_bps(&self) -> f64 {
        (self.fsn_count as f64 * self.fsn_nic_bps).min(self.backend_bps)
    }

    /// GPFS stripes files across servers; `ions` concurrent clients can
    /// jointly use at most this bandwidth.
    pub fn capacity_for_ions(&self, ions: usize) -> f64 {
        (ions as f64 * self.per_ion_bps).min(self.aggregate_bps())
    }
}

/// Round `offset` up to the next multiple of `alignment`.
pub fn align_up(offset: u64, alignment: u64) -> u64 {
    assert!(
        alignment.is_power_of_two(),
        "alignment must be a power of two"
    );
    (offset + alignment - 1) & !(alignment - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_binds_before_fsn_network() {
        let s = StorageSpec::default();
        // 128 FSNs × 10 Gb/s = 160 GB/s of network far exceeds the disks.
        assert!(s.aggregate_bps() < s.fsn_count as f64 * s.fsn_nic_bps);
        assert_eq!(s.aggregate_bps(), s.backend_bps);
    }

    #[test]
    fn storage_never_binds_at_paper_scales() {
        let s = StorageSpec::default();
        // Figure 13's biggest run uses 4 IONs; even 16 IONs (Figure 12
        // scale) stay below the array's aggregate.
        assert_eq!(s.capacity_for_ions(4), 4.0 * s.per_ion_bps);
        assert_eq!(s.capacity_for_ions(16), 16.0 * s.per_ion_bps);
    }

    #[test]
    fn huge_ion_counts_hit_the_array_limit() {
        let s = StorageSpec::default();
        assert_eq!(s.capacity_for_ions(1000), s.aggregate_bps());
    }

    #[test]
    fn align_up_basics() {
        assert_eq!(align_up(0, 4096), 0);
        assert_eq!(align_up(1, 4096), 4096);
        assert_eq!(align_up(4096, 4096), 4096);
        assert_eq!(align_up(4097, 4096), 8192);
    }

    #[test]
    #[should_panic]
    fn align_up_rejects_non_power_of_two() {
        align_up(10, 1000);
    }
}
