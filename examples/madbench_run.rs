//! Run the MADbench2-style workload against a real iofwd daemon, once
//! per forwarding mode, and compare aggregate throughput — the runtime
//! mirror of the paper's Figure 13 (scaled to workstation size).
//!
//! ```text
//! cargo run -p iofwd-examples --release --bin madbench_run [nproc] [nbin]
//! ```

use std::sync::Arc;
use std::time::Duration;

use iofwd::backend::{MemSinkBackend, ThrottledBackend};
use iofwd::server::{ForwardingMode, IonServer, ServerConfig};
use iofwd::transport::mem::MemHub;
use madbench::{MadbenchParams, Phase};

fn main() {
    let mut args = std::env::args().skip(1);
    let nproc: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let nbin: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);

    // Workstation-scale MADbench2: same phase structure and per-op
    // geometry as the paper's runs, smaller matrices.
    let p = MadbenchParams {
        npix: 512,
        nproc,
        ..MadbenchParams::paper_64()
    }
    .with_nbin(nbin);
    p.validate().expect("params");
    println!(
        "MADbench2 (I/O mode): NPIX={}, NBIN={}, {} processes, {} KiB/op, \
         {} MiB total I/O\n",
        p.npix,
        p.nbin,
        p.nproc,
        p.slice_bytes() >> 10,
        p.total_bytes() >> 20
    );

    println!(
        "{:>14} {:>12} {:>10} {:>8}",
        "mode", "MiB/s", "elapsed", "ops"
    );
    for mode in [
        ForwardingMode::Ciod,
        ForwardingMode::Zoid,
        ForwardingMode::Sched { workers: 4 },
        ForwardingMode::AsyncStaged {
            workers: 4,
            bml_capacity: 128 << 20,
        },
    ] {
        let hub = MemHub::new();
        // A throttled backend stands in for a storage system the daemon
        // can outrun — otherwise an in-memory sink hides the differences.
        let backend = Arc::new(ThrottledBackend::new(
            Arc::new(MemSinkBackend::new()),
            256.0 * 1024.0 * 1024.0, // 256 MiB/s "GPFS"
            Duration::from_micros(50),
        ));
        let server = IonServer::spawn(Box::new(hub.listener()), backend, ServerConfig::new(mode));
        let report = madbench::runner::run(&p, &Phase::ALL, |_| Box::new(hub.connect()));
        server.shutdown();
        println!(
            "{:>14} {:>12.1} {:>9.2?} {:>8}",
            mode.name(),
            report.mib_per_sec(),
            report.elapsed,
            report.ops
        );
    }
    println!(
        "\nNote: on a workstation all modes converge to the device rate — the paper's\n\
         gaps come from contention on a 4-core 850 MHz ION, which the bgsim simulator\n\
         reproduces: `cargo run -p experiments --release -- figures fig13`.\n\
         (paper, Figure 13: async staging + scheduling ~1.5x CIOD, ~1.4x ZOID)"
    );
}
