//! The BG/P collective ("tree") network connecting the 64 compute nodes
//! of a pset to their I/O node.
//!
//! From §III-A of the paper:
//!
//! > The theoretical peak bandwidth of the collective network is 850 MBps
//! > (≈ 810 MiBps). The peak throughput — taking into account 16 bytes of
//! > header information for the I/O forwarding mechanism in both CIOD and
//! > ZOID for every 256-byte payload, as well as 10 bytes of hardware
//! > headers related to operation control and link reliability — is
//! > ≈ 731 MiBps.
//!
//! We reproduce that math exactly: each payload byte carries
//! `(payload + headers) / payload` bytes on the wire, so a link of raw
//! capacity `B` sustains `B * payload / (payload + headers)` of payload.
//!
//! CIOD and ZOID both use a *two-step* protocol (§V-A2): the I/O call's
//! parameters travel in a separate control message before the data, which
//! is "the primary performance gating factor for smaller message sizes".
//! [`CollectiveNetwork::op_wire_bytes`] accounts for both steps.

use simcore::time::Duration;

use crate::units::mb_s;

/// Parameters of the collective network and the forwarding protocol's
/// framing on it.
#[derive(Debug, Clone)]
pub struct CollectiveNetwork {
    /// Raw link bandwidth in bytes/s (paper: 850 MB/s).
    pub raw_bandwidth: f64,
    /// Packet payload size in bytes (paper: 256).
    pub payload_bytes: u64,
    /// I/O-forwarding software header per packet (paper: 16 bytes).
    pub fwd_header_bytes: u64,
    /// Hardware header per packet: operation control + link reliability
    /// (paper: 10 bytes).
    pub hw_header_bytes: u64,
    /// One-way message latency CN→ION for a minimum-size packet. The tree
    /// network's hardware latency is a few microseconds; the forwarding
    /// stack adds protocol processing on both ends (calibrated, see
    /// [`crate::calibration`]).
    pub one_way_latency: Duration,
    /// Size of the control message carrying the I/O call's parameters in
    /// the two-step CIOD/ZOID protocol.
    pub control_message_bytes: u64,
}

impl CollectiveNetwork {
    /// The BG/P tree network as described in §III-A.
    pub fn bgp() -> Self {
        CollectiveNetwork {
            raw_bandwidth: mb_s(850.0),
            payload_bytes: 256,
            fwd_header_bytes: 16,
            hw_header_bytes: 10,
            one_way_latency: crate::calibration::TREE_ONE_WAY_LATENCY,
            control_message_bytes: 256,
        }
    }

    /// Wire bytes consumed per payload byte (> 1 because of headers).
    pub fn wire_bytes_per_payload_byte(&self) -> f64 {
        let total = self.payload_bytes + self.fwd_header_bytes + self.hw_header_bytes;
        total as f64 / self.payload_bytes as f64
    }

    /// Peak *payload* bandwidth in bytes/s after header overhead — the
    /// paper's "≈ 731 MiBps" number.
    pub fn effective_peak(&self) -> f64 {
        self.raw_bandwidth / self.wire_bytes_per_payload_byte()
    }

    /// Total wire bytes for transferring an I/O operation's data of
    /// `payload` bytes (packet count rounds up).
    pub fn data_wire_bytes(&self, payload: u64) -> u64 {
        if payload == 0 {
            return 0;
        }
        let packets = payload.div_ceil(self.payload_bytes);
        payload + packets * (self.fwd_header_bytes + self.hw_header_bytes)
    }

    /// Wire bytes for one *complete* forwarded operation in the two-step
    /// protocol: the control message (step 1) plus the data (step 2).
    pub fn op_wire_bytes(&self, payload: u64) -> u64 {
        self.data_wire_bytes(self.control_message_bytes) + self.data_wire_bytes(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{to_mib_s, MIB};

    #[test]
    fn effective_peak_matches_paper() {
        let net = CollectiveNetwork::bgp();
        let peak = to_mib_s(net.effective_peak());
        // Paper says ≈ 731 MiB/s. Applying the paper's own header math to
        // 850 MB/s gives 735.9 MiB/s; we accept the figure if it is within
        // 1 % of the paper's rounded number.
        assert!((peak - 731.0).abs() / 731.0 < 0.01, "peak {peak}");
    }

    #[test]
    fn wire_overhead_factor() {
        let net = CollectiveNetwork::bgp();
        let f = net.wire_bytes_per_payload_byte();
        assert!((f - 282.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn data_wire_bytes_rounds_packets_up() {
        let net = CollectiveNetwork::bgp();
        // 1 byte still needs a whole packet's headers.
        assert_eq!(net.data_wire_bytes(1), 1 + 26);
        // Exactly one packet.
        assert_eq!(net.data_wire_bytes(256), 256 + 26);
        // One byte into the second packet.
        assert_eq!(net.data_wire_bytes(257), 257 + 52);
        assert_eq!(net.data_wire_bytes(0), 0);
    }

    #[test]
    fn one_mib_overhead_close_to_asymptote() {
        let net = CollectiveNetwork::bgp();
        let wire = net.data_wire_bytes(MIB) as f64;
        let factor = wire / MIB as f64;
        assert!((factor - net.wire_bytes_per_payload_byte()).abs() < 1e-4);
    }

    #[test]
    fn op_wire_bytes_includes_control_step() {
        let net = CollectiveNetwork::bgp();
        assert_eq!(
            net.op_wire_bytes(MIB),
            net.data_wire_bytes(256) + net.data_wire_bytes(MIB)
        );
        // Even a zero-byte op pays for the control message.
        assert!(net.op_wire_bytes(0) > 0);
    }

    #[test]
    fn small_messages_pay_proportionally_more() {
        let net = CollectiveNetwork::bgp();
        let eff = |n: u64| n as f64 / net.op_wire_bytes(n) as f64;
        assert!(eff(4 * 1024) < eff(64 * 1024));
        assert!(eff(64 * 1024) < eff(MIB));
    }
}
