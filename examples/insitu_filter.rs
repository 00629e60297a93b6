//! In-situ analytics on the I/O node — the paper's §VII future work
//! running for real: a simulation streams a field through the forwarding
//! daemon; the ION computes statistics and subsamples the data before it
//! reaches storage, all overlapped with the application via asynchronous
//! staging.
//!
//! ```text
//! cargo run -p iofwd-examples --release --bin insitu_filter
//! ```

use std::sync::Arc;

use iofwd::backend::MemSinkBackend;
use iofwd::client::Client;
use iofwd::filter::{FilterChain, Scoped, SinkFilter, StatisticsFilter, SubsampleFilter};
use iofwd::server::{ForwardingMode, IonServer, ServerConfig};
use iofwd::transport::mem::MemHub;
use iofwd_proto::OpenFlags;

fn main() {
    // The analytics pipeline running on the "ION":
    //  1. swallow anything written under /scratch entirely,
    //  2. statistics over every /results sample (pure observation),
    //  3. keep every 8th /results sample for storage (8x reduction).
    let stats = StatisticsFilter::new();
    let subsample = SubsampleFilter::new(8);
    let scratch_sink = SinkFilter::new("/scratch/");
    let chain = FilterChain::new()
        .with(scratch_sink.clone())
        .with(Scoped::new("/results/", stats.clone()))
        .with(Scoped::new("/results/", subsample.clone()));

    let hub = MemHub::new();
    let backend = Arc::new(MemSinkBackend::new());
    let server = IonServer::spawn(
        Box::new(hub.listener()),
        backend.clone(),
        ServerConfig::new(ForwardingMode::AsyncStaged {
            workers: 4,
            bml_capacity: 64 << 20,
        })
        .with_filter(chain),
    );

    // The "simulation": writes 4 timesteps of a 256k-sample field, plus
    // some scratch output it never needs back.
    let mut cn = Client::connect(Box::new(hub.connect()));
    let field_fd = cn
        .open(
            "/results/field.dat",
            OpenFlags::WRONLY | OpenFlags::CREATE,
            0o644,
        )
        .unwrap();
    let scratch_fd = cn
        .open(
            "/scratch/debug.dat",
            OpenFlags::WRONLY | OpenFlags::CREATE,
            0o644,
        )
        .unwrap();

    let samples_per_step = 256 * 1024;
    for step in 0..4 {
        let mut buf = Vec::with_capacity(samples_per_step * 8);
        for i in 0..samples_per_step {
            let v = (step as f64) + (i as f64 / samples_per_step as f64).sin();
            buf.extend_from_slice(&v.to_le_bytes());
        }
        cn.write(field_fd, &buf).unwrap();
        cn.write(scratch_fd, &vec![0u8; 1 << 20]).unwrap();
        println!(
            "timestep {step}: wrote {} MiB field + 1 MiB scratch",
            buf.len() >> 20
        );
    }
    cn.close(field_fd).unwrap();
    cn.close(scratch_fd).unwrap();
    cn.shutdown().unwrap();

    let snap = stats.snapshot();
    println!("\nin-situ statistics (computed on the ION, zero app cycles):");
    println!(
        "  {} samples, mean {:.4}, min {:.4}, max {:.4}",
        snap.samples, snap.mean, snap.min, snap.max
    );

    let app_bytes = 4 * samples_per_step as u64 * 8 + 4 * (1 << 20);
    let stored = backend.contents("/results/field.dat").unwrap().len() as u64;
    println!("\ndata reduction:");
    println!("  application wrote   {:>8} KiB", app_bytes >> 10);
    println!("  reached storage     {:>8} KiB", stored >> 10);
    println!(
        "  subsample removed   {:>8} KiB",
        subsample.reduced_bytes() >> 10
    );
    println!(
        "  scratch consumed    {:>8} KiB",
        scratch_sink.consumed_bytes() >> 10
    );
    println!(
        "  daemon filtered out {:>8} KiB",
        server.telemetry().bytes_filtered_out.get() >> 10
    );
    server.shutdown();

    assert_eq!(stored, 4 * samples_per_step as u64); // 8 bytes per sample / 8x reduction
    assert!(backend.contents("/scratch/debug.dat").unwrap().is_empty());
    println!("\nok: storage holds 1/8 of the field, scratch never hit the disk");
}
