//! Ablation benchmarks for the design choices called out in DESIGN.md §5:
//! worker-pool size (the runtime-side mirror of Figure 11) and staging
//! on/off against a slow backend (the overlap win on real threads).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use iofwd::backend::{MemSinkBackend, ThrottledBackend};
use iofwd::client::Client;
use iofwd::server::{ForwardingMode, IonServer, ServerConfig};
use iofwd::transport::mem::MemHub;
use iofwd_proto::OpenFlags;

/// N client threads each writing `ops` chunks through one daemon;
/// returns when all have finished (throughput = total bytes / elapsed).
fn drive_clients(server_cfg: ServerConfig, clients: usize, ops: usize, chunk: usize) {
    let hub = MemHub::new();
    let backend = Arc::new(MemSinkBackend::new());
    let server = IonServer::spawn(Box::new(hub.listener()), backend, server_cfg);
    std::thread::scope(|s| {
        for k in 0..clients {
            let conn = hub.connect();
            s.spawn(move || {
                let mut c = Client::with_id(Box::new(conn), k as u32);
                let fd = c
                    .open(
                        &format!("/a{k}"),
                        OpenFlags::WRONLY | OpenFlags::CREATE,
                        0o644,
                    )
                    .unwrap();
                let data = vec![k as u8; chunk];
                for _ in 0..ops {
                    c.write(fd, &data).unwrap();
                }
                c.close(fd).unwrap();
                c.shutdown().unwrap();
            });
        }
    });
    server.shutdown();
}

/// DESIGN.md ablation 1 / Figure 11 on real threads: worker-pool size.
fn bench_worker_pool_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_worker_pool");
    g.sample_size(10);
    let (clients, ops, chunk) = (8usize, 48usize, 64 * 1024);
    g.throughput(Throughput::Bytes((clients * ops * chunk) as u64));
    for workers in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                drive_clients(
                    ServerConfig::new(ForwardingMode::AsyncStaged {
                        workers: w,
                        bml_capacity: 64 << 20,
                    }),
                    clients,
                    ops,
                    chunk,
                )
            })
        });
    }
    g.finish();
}

/// The overlap win: against a bandwidth-limited backend, staged writes
/// return immediately while sync writes wait out the device.
fn bench_staging_overlap(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_staging_overlap");
    g.sample_size(10);
    let chunk = 256 * 1024;
    let ops = 8;
    g.throughput(Throughput::Bytes((ops * chunk) as u64));
    for (name, mode) in [
        ("sync_sched", ForwardingMode::Sched { workers: 2 }),
        (
            "async_staged",
            ForwardingMode::AsyncStaged {
                workers: 2,
                bml_capacity: 64 << 20,
            },
        ),
    ] {
        g.bench_function(name, |b| {
            let hub = MemHub::new();
            let slow = Arc::new(ThrottledBackend::new(
                Arc::new(MemSinkBackend::new()),
                64.0 * 1024.0 * 1024.0, // 64 MiB/s device
                Duration::ZERO,
            ));
            let server = IonServer::spawn(Box::new(hub.listener()), slow, ServerConfig::new(mode));
            let mut client = Client::connect(Box::new(hub.connect()));
            let fd = client
                .open("/slow", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
                .unwrap();
            let data = vec![1u8; chunk];
            b.iter(|| {
                // Measure submission latency of a burst: this is what the
                // application experiences (§IV's motivation).
                for _ in 0..ops {
                    client.write(fd, &data).unwrap();
                }
            });
            client.fsync(fd).unwrap();
            client.close(fd).unwrap();
            client.shutdown().unwrap();
            server.shutdown();
        });
    }
    g.finish();
}

criterion_group!(benches, bench_worker_pool_size, bench_staging_overlap);
criterion_main!(benches);
