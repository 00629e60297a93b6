//! End-to-end tests of the four forwarding modes over the in-memory and
//! TCP transports: correctness of data movement, staging semantics,
//! deferred errors, barriers, and concurrency.

use std::sync::Arc;
use std::time::{Duration, Instant};

use iofwd::backend::{
    Backend, FaultBackend, FileBackend, MemSinkBackend, NullBackend, ThrottledBackend,
};
use iofwd::client::{Client, ClientError, WriteOutcome};
use iofwd::fault::{FaultPlan, FaultRule, OpClass};
use iofwd::server::{ForwardingMode, IonServer, ReactorConfig, ServerConfig};
use iofwd::telemetry::Telemetry;
use iofwd::transport::mem::MemHub;
use iofwd::transport::tcp::{TcpAcceptor, TcpConn};
use iofwd_proto::{Errno, OpenFlags, Whence};

const ALL_MODES: [ForwardingMode; 4] = [
    ForwardingMode::Ciod,
    ForwardingMode::Zoid,
    ForwardingMode::Sched { workers: 4 },
    ForwardingMode::AsyncStaged {
        workers: 4,
        bml_capacity: 8 << 20,
    },
];

/// A memory sink whose first `ok_writes` writes succeed and every later
/// one fails with `errno` (`on write nth>N errno=E`).
fn failing_after(ok_writes: u64, errno: Errno) -> Arc<FaultBackend> {
    let plan = FaultPlan::new(0).rule(FaultRule::on(OpClass::Write).after(ok_writes).errno(errno));
    Arc::new(FaultBackend::new(
        Arc::new(MemSinkBackend::new()),
        plan,
        Arc::new(Telemetry::disabled()),
    ))
}

fn start(mode: ForwardingMode, backend: Arc<dyn Backend>) -> (IonServer, MemHub) {
    let hub = MemHub::new();
    let server = IonServer::spawn(Box::new(hub.listener()), backend, ServerConfig::new(mode));
    (server, hub)
}

#[test]
fn write_read_roundtrip_all_modes() {
    for mode in ALL_MODES {
        let backend = Arc::new(MemSinkBackend::new());
        let (server, hub) = start(mode, backend.clone());
        let mut c = Client::connect(Box::new(hub.connect()));

        let fd = c
            .open("/data", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
            .unwrap();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(
            c.write(fd, &payload).unwrap(),
            payload.len() as u64,
            "{}",
            mode.name()
        );
        c.fsync(fd).unwrap();
        let got = c.pread(fd, 0, payload.len() as u64).unwrap();
        assert_eq!(got, payload, "mode {}", mode.name());
        c.close(fd).unwrap();
        c.shutdown().unwrap();
        server.shutdown();
        assert_eq!(
            backend.contents("/data").unwrap(),
            payload,
            "mode {}",
            mode.name()
        );
    }
}

#[test]
fn sequential_writes_preserve_order_all_modes() {
    for mode in ALL_MODES {
        let backend = Arc::new(MemSinkBackend::new());
        let (server, hub) = start(mode, backend.clone());
        let mut c = Client::connect(Box::new(hub.connect()));
        let fd = c
            .open("/seq", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
            .unwrap();
        let mut expect = Vec::new();
        for i in 0..64u8 {
            let chunk = vec![i; 1000];
            c.write(fd, &chunk).unwrap();
            expect.extend_from_slice(&chunk);
        }
        c.close(fd).unwrap();
        c.shutdown().unwrap();
        server.shutdown();
        assert_eq!(
            backend.contents("/seq").unwrap(),
            expect,
            "mode {}",
            mode.name()
        );
    }
}

#[test]
fn staged_mode_returns_staged_writes() {
    let backend = Arc::new(MemSinkBackend::new());
    let (server, hub) = start(
        ForwardingMode::AsyncStaged {
            workers: 2,
            bml_capacity: 4 << 20,
        },
        backend.clone(),
    );
    let mut c = Client::connect(Box::new(hub.connect()));
    let fd = c
        .open("/s", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
        .unwrap();
    match c.write_detailed(fd, &[1u8; 4096]).unwrap() {
        WriteOutcome::Staged(op) => assert_eq!(op, iofwd_proto::OpId(1)),
        other => panic!("expected staged outcome, got {other:?}"),
    }
    // fsync barriers: afterwards, the data must be durably in the backend.
    c.fsync(fd).unwrap();
    assert_eq!(backend.contents("/s").unwrap().len(), 4096);
    assert_eq!(c.stats().staged_writes, 1);
    c.close(fd).unwrap();
    c.shutdown().unwrap();
    assert_eq!(server.telemetry().ops_staged.get(), 1);
    server.shutdown();
}

#[test]
fn non_staged_modes_never_stage() {
    for mode in [
        ForwardingMode::Ciod,
        ForwardingMode::Zoid,
        ForwardingMode::Sched { workers: 2 },
    ] {
        let backend = Arc::new(MemSinkBackend::new());
        let (server, hub) = start(mode, backend);
        let mut c = Client::connect(Box::new(hub.connect()));
        let fd = c
            .open("/n", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
            .unwrap();
        match c.write_detailed(fd, b"x").unwrap() {
            WriteOutcome::Completed(1) => {}
            other => panic!("mode {}: unexpected {other:?}", mode.name()),
        }
        c.shutdown().unwrap();
        server.shutdown();
    }
}

#[test]
fn deferred_error_reported_on_next_operation() {
    // First write succeeds, everything after fails with ENOSPC.
    let backend = failing_after(1, Errno::NoSpc);
    let (server, hub) = start(
        ForwardingMode::AsyncStaged {
            workers: 2,
            bml_capacity: 4 << 20,
        },
        backend,
    );
    let mut c = Client::connect(Box::new(hub.connect()));
    let fd = c
        .open("/d", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
        .unwrap();
    // Both writes are accepted (staged) — the failure is asynchronous.
    assert!(matches!(
        c.write_detailed(fd, &[0u8; 4096]).unwrap(),
        WriteOutcome::Staged(_)
    ));
    assert!(matches!(
        c.write_detailed(fd, &[0u8; 4096]).unwrap(),
        WriteOutcome::Staged(_)
    ));
    // The barrier surfaces the second write's failure.
    match c.fsync(fd) {
        Err(ClientError::Deferred { op, errno }) => {
            assert_eq!(op, iofwd_proto::OpId(2));
            assert_eq!(errno, Errno::NoSpc);
        }
        other => panic!("expected deferred ENOSPC, got {other:?}"),
    }
    // The error was consumed; close now succeeds.
    c.close(fd).unwrap();
    c.shutdown().unwrap();
    server.shutdown();
}

#[test]
fn deferred_error_reported_on_close() {
    let backend = failing_after(0, Errno::Io);
    let (server, hub) = start(
        ForwardingMode::AsyncStaged {
            workers: 1,
            bml_capacity: 1 << 20,
        },
        backend,
    );
    let mut c = Client::connect(Box::new(hub.connect()));
    let fd = c
        .open("/e", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
        .unwrap();
    assert!(matches!(
        c.write_detailed(fd, &[9u8; 100]).unwrap(),
        WriteOutcome::Staged(_)
    ));
    match c.close(fd) {
        Err(ClientError::Deferred { errno, .. }) => assert_eq!(errno, Errno::Io),
        other => panic!("expected deferred EIO on close, got {other:?}"),
    }
    c.shutdown().unwrap();
    server.shutdown();
}

#[test]
fn sync_modes_report_errors_immediately() {
    let backend = failing_after(0, Errno::NoSpc);
    for mode in [
        ForwardingMode::Ciod,
        ForwardingMode::Zoid,
        ForwardingMode::Sched { workers: 2 },
    ] {
        let (server, hub) = start(mode, backend.clone());
        let mut c = Client::connect(Box::new(hub.connect()));
        let fd = c
            .open("/x", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
            .unwrap();
        match c.write(fd, b"data") {
            Err(ClientError::Remote(Errno::NoSpc)) => {}
            other => panic!(
                "mode {}: expected immediate ENOSPC, got {other:?}",
                mode.name()
            ),
        }
        c.shutdown().unwrap();
        server.shutdown();
    }
}

#[test]
fn bml_capacity_blocks_but_completes() {
    // Tiny BML (64 KiB) with a slow backend: staging must block when the
    // cap is hit, yet all data lands correctly.
    let sink = Arc::new(MemSinkBackend::new());
    let slow = Arc::new(ThrottledBackend::new(
        sink.clone(),
        8.0 * 1024.0 * 1024.0, // 8 MiB/s
        Duration::ZERO,
    ));
    let (server, hub) = start(
        ForwardingMode::AsyncStaged {
            workers: 2,
            bml_capacity: 64 * 1024,
        },
        slow,
    );
    let mut c = Client::connect(Box::new(hub.connect()));
    let fd = c
        .open("/b", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
        .unwrap();
    let mut expect = Vec::new();
    for i in 0..32u8 {
        let chunk = vec![i; 16 * 1024];
        c.write(fd, &chunk).unwrap();
        expect.extend_from_slice(&chunk);
    }
    c.close(fd).unwrap();
    c.shutdown().unwrap();
    let telemetry = server.telemetry();
    assert!(
        telemetry.bml_blocked_acquires.get() > 0,
        "64 KiB BML must block under 512 KiB of writes"
    );
    assert!(telemetry.bml_occupancy.peak() <= 64 * 1024);
    server.shutdown();
    assert_eq!(sink.contents("/b").unwrap(), expect);
}

#[test]
fn staging_overlaps_slow_backend() {
    // With a throttled backend, staged writes should return much faster
    // than the backend can absorb them — the paper's overlap win.
    let sink = Arc::new(MemSinkBackend::new());
    let slow = Arc::new(ThrottledBackend::new(
        sink.clone(),
        4.0 * 1024.0 * 1024.0,
        Duration::ZERO,
    ));
    let (server, hub) = start(
        ForwardingMode::AsyncStaged {
            workers: 2,
            bml_capacity: 16 << 20,
        },
        slow,
    );
    let mut c = Client::connect(Box::new(hub.connect()));
    let fd = c
        .open("/ov", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
        .unwrap();
    let chunk = vec![7u8; 1 << 20];
    let t0 = Instant::now();
    for _ in 0..4 {
        c.write(fd, &chunk).unwrap(); // 4 MiB total, backend needs ~1 s
    }
    let submit_time = t0.elapsed();
    assert!(
        submit_time < Duration::from_millis(500),
        "staged submission should not wait for the slow backend ({submit_time:?})"
    );
    c.close(fd).unwrap(); // barrier: waits for drain
    let total = t0.elapsed();
    assert!(
        total >= Duration::from_millis(800),
        "close must barrier ({total:?})"
    );
    c.shutdown().unwrap();
    server.shutdown();
    assert_eq!(sink.contents("/ov").unwrap().len(), 4 << 20);
}

#[test]
fn many_concurrent_clients_all_modes() {
    for mode in ALL_MODES {
        let backend = Arc::new(MemSinkBackend::new());
        let (server, hub) = start(mode, backend.clone());
        let mut joins = Vec::new();
        for k in 0..16u32 {
            let conn = hub.connect();
            joins.push(std::thread::spawn(move || {
                let mut c = Client::with_id(Box::new(conn), k);
                let path = format!("/client-{k}");
                let fd = c
                    .open(&path, OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
                    .unwrap();
                for i in 0..20u32 {
                    let data = vec![(k as u8).wrapping_add(i as u8); 4096];
                    c.write(fd, &data).unwrap();
                }
                c.close(fd).unwrap();
                c.shutdown().unwrap();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        server.shutdown();
        for k in 0..16u32 {
            let got = backend.contents(&format!("/client-{k}")).unwrap();
            assert_eq!(got.len(), 20 * 4096, "mode {} client {k}", mode.name());
        }
    }
}

#[test]
fn socket_sink_counts_bytes() {
    let backend = Arc::new(MemSinkBackend::new());
    let (server, hub) = start(ForwardingMode::Sched { workers: 2 }, backend.clone());
    let mut c = Client::connect(Box::new(hub.connect()));
    let fd = c.connect_socket("da-node-0", 9000).unwrap();
    for _ in 0..8 {
        c.write(fd, &[0u8; 128 * 1024]).unwrap();
    }
    c.close(fd).unwrap();
    c.shutdown().unwrap();
    server.shutdown();
    assert_eq!(backend.socket_bytes(), 8 * 128 * 1024);
}

#[test]
fn null_backend_microbenchmark_path() {
    // The §III-A benchmark shape: every CN writes to /dev/null on the ION.
    let backend = Arc::new(NullBackend::new());
    let (server, hub) = start(ForwardingMode::Zoid, backend.clone());
    let mut c = Client::connect(Box::new(hub.connect()));
    let fd = c.open("/dev/null", OpenFlags::WRONLY, 0).unwrap();
    for _ in 0..10 {
        c.write(fd, &[0u8; 65536]).unwrap();
    }
    c.close(fd).unwrap();
    c.shutdown().unwrap();
    server.shutdown();
    assert_eq!(backend.bytes_written(), 10 * 65536);
}

#[test]
fn metadata_ops_work_in_staged_mode() {
    let backend = Arc::new(MemSinkBackend::new());
    let (server, hub) = start(
        ForwardingMode::AsyncStaged {
            workers: 2,
            bml_capacity: 1 << 20,
        },
        backend,
    );
    let mut c = Client::connect(Box::new(hub.connect()));
    let fd = c
        .open("/meta", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
        .unwrap();
    c.write(fd, b"0123456789").unwrap();
    // lseek and reads barrier behind the staged write.
    assert_eq!(c.lseek(fd, 2, Whence::Set).unwrap(), 2);
    assert_eq!(c.read(fd, 3).unwrap(), b"234");
    let st = c.fstat(fd).unwrap();
    assert_eq!(st.size, 10);
    assert_eq!(c.stat("/meta").unwrap().size, 10);
    c.unlink("/meta").unwrap();
    assert!(matches!(
        c.stat("/meta"),
        Err(ClientError::Remote(Errno::NoEnt))
    ));
    c.close(fd).unwrap();
    c.shutdown().unwrap();
    server.shutdown();
}

#[test]
fn tcp_transport_end_to_end() {
    let backend = Arc::new(MemSinkBackend::new());
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let server = IonServer::spawn(
        Box::new(acceptor),
        backend.clone(),
        ServerConfig::new(ForwardingMode::AsyncStaged {
            workers: 2,
            bml_capacity: 8 << 20,
        }),
    );
    let mut c = Client::connect(Box::new(TcpConn::connect(addr).unwrap()));
    let fd = c
        .open("/tcp", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
        .unwrap();
    let payload = vec![42u8; 2 << 20];
    c.write(fd, &payload).unwrap();
    c.fsync(fd).unwrap();
    assert_eq!(c.pread(fd, 0, 16).unwrap(), vec![42u8; 16]);
    c.close(fd).unwrap();
    c.shutdown().unwrap();
    server.shutdown();
    assert_eq!(backend.contents("/tcp").unwrap(), payload);
}

#[test]
fn server_stats_accumulate() {
    let backend = Arc::new(MemSinkBackend::new());
    let (server, hub) = start(ForwardingMode::Zoid, backend);
    let mut c = Client::connect(Box::new(hub.connect()));
    let fd = c
        .open("/st", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
        .unwrap();
    c.write(fd, &[1u8; 1000]).unwrap();
    c.pread(fd, 0, 1000).unwrap();
    c.close(fd).unwrap();
    c.shutdown().unwrap();
    let t = server.telemetry();
    assert!(t.ops_completed.get() >= 4);
    // Payload bytes, by client and at the backend.
    let clients = t.snapshot().clients;
    assert_eq!(clients.len(), 1);
    assert_eq!((clients[0].bytes_in, clients[0].bytes_out), (1000, 1000));
    assert_eq!(t.backend_bytes_written.get(), 1000);
    assert_eq!(t.backend_bytes_read.get(), 1000);
    server.shutdown();
}

#[test]
fn open_of_missing_file_fails_cleanly() {
    for mode in ALL_MODES {
        let backend = Arc::new(MemSinkBackend::new());
        let (server, hub) = start(mode, backend);
        let mut c = Client::connect(Box::new(hub.connect()));
        match c.open("/missing", OpenFlags::RDONLY, 0) {
            Err(ClientError::Remote(Errno::NoEnt)) => {}
            other => panic!("mode {}: {other:?}", mode.name()),
        }
        c.shutdown().unwrap();
        server.shutdown();
    }
}

/// Open descriptors once the daemon has had a moment (at most 5 s) to
/// observe a disconnect and reclaim what the client left open.
fn descriptors_after_reclaim(server: &IonServer) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.open_descriptors() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    server.open_descriptors()
}

#[test]
fn vanished_client_descriptors_are_reclaimed() {
    // A client that disconnects without closing must not leak ION
    // descriptors — and its staged writes must still land.
    for mode in ALL_MODES {
        let backend = Arc::new(MemSinkBackend::new());
        let (server, hub) = start(mode, backend.clone());
        {
            let mut c = Client::connect(Box::new(hub.connect()));
            let fd = c
                .open("/orphan", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
                .unwrap();
            c.write(fd, &[5u8; 8192]).unwrap();
            // Drop the client without close() or shutdown(): the
            // connection just vanishes.
        }
        assert_eq!(
            descriptors_after_reclaim(&server),
            0,
            "mode {}",
            mode.name()
        );
        server.shutdown();
        assert_eq!(
            backend.contents("/orphan").unwrap().len(),
            8192,
            "mode {}",
            mode.name()
        );
    }
}

#[test]
fn vanished_client_pending_error_is_orphaned_not_reported() {
    // The only write fails after it was acknowledged; the client goes
    // away without a barrier, so nobody ever receives the report.
    let (server, hub) = start(
        ForwardingMode::AsyncStaged {
            workers: 1,
            bml_capacity: 1 << 20,
        },
        failing_after(0, Errno::NoSpc),
    );
    {
        let mut c = Client::connect(Box::new(hub.connect()));
        let fd = c
            .open("/lost", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
            .unwrap();
        assert!(matches!(
            c.write_detailed(fd, &[3u8; 512]).unwrap(),
            WriteOutcome::Staged(_)
        ));
    }
    assert_eq!(descriptors_after_reclaim(&server), 0);
    let t = server.telemetry();
    server.shutdown();
    assert_eq!(t.deferred_errors.get(), 1);
    assert_eq!(t.deferred_errors_reported.get(), 0);
    assert_eq!(t.deferred_errors_orphaned.get(), 1);
}

#[test]
fn close_without_fsync_keeps_the_data_and_never_flushes() {
    // `close` is a barrier, not a flush: what was written is what a
    // reopen reads, in every mode and on both transports, and no
    // backend sync was paid for it.
    let staged = ForwardingMode::AsyncStaged {
        workers: 2,
        bml_capacity: 4 << 20,
    };
    let cases = [
        (ForwardingMode::Zoid, false),
        (ForwardingMode::Sched { workers: 2 }, false),
        (staged, false),
        (staged, true),
    ];
    let payload: Vec<u8> = (0..300_000u32).map(|i| (i % 241) as u8).collect();
    for (i, (mode, reactor)) in cases.into_iter().enumerate() {
        let label = format!("mode {} reactor={reactor}", mode.name());
        let root = std::env::temp_dir().join(format!("iofwd-close-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let backend = Arc::new(FileBackend::new(&root));
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let config = ServerConfig::new(mode);
        let server = if reactor {
            IonServer::spawn_reactor(acceptor, backend, config, ReactorConfig::default())
                .expect("spawn reactor")
        } else {
            IonServer::spawn(Box::new(acceptor), backend, config)
        };
        let mut c = Client::connect(Box::new(TcpConn::connect(addr).unwrap()));
        let fd = c
            .open("/kept", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
            .unwrap();
        for chunk in payload.chunks(64 << 10) {
            c.write(fd, chunk).unwrap();
        }
        c.close(fd).unwrap();
        assert_eq!(
            c.stat("/kept").unwrap().size,
            payload.len() as u64,
            "{label}"
        );
        let fd = c.open("/kept", OpenFlags::RDONLY, 0).unwrap();
        let back = c.pread(fd, 0, payload.len() as u64).unwrap();
        assert!(back == payload, "{label}: read back what was written");
        c.close(fd).unwrap();
        c.unlink("/kept").unwrap();
        assert!(
            matches!(c.stat("/kept"), Err(ClientError::Remote(Errno::NoEnt))),
            "{label}"
        );
        c.shutdown().unwrap();
        let telemetry = server.telemetry();
        server.shutdown();
        assert_eq!(telemetry.backend_sync_ops.get(), 0, "{label}");
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn oversized_writes_are_chunked_transparently() {
    for mode in [
        ForwardingMode::Zoid,
        ForwardingMode::AsyncStaged {
            workers: 2,
            bml_capacity: 8 << 20,
        },
    ] {
        let backend = Arc::new(MemSinkBackend::new());
        let (server, hub) = start(mode, backend.clone());
        let mut c = Client::connect(Box::new(hub.connect()));
        // Force tiny frames so a modest write must split.
        c.set_max_chunk(64 * 1024);
        let fd = c
            .open("/big", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
            .unwrap();
        let payload: Vec<u8> = (0..1_000_000u32).map(|i| (i % 239) as u8).collect();
        assert_eq!(c.write(fd, &payload).unwrap(), payload.len() as u64);
        c.fsync(fd).unwrap();
        // Positioned writes split with correct offsets too.
        c.pwrite(fd, 500_000, &payload[..300_000]).unwrap();
        c.fsync(fd).unwrap();
        let mut expect = payload.clone();
        expect[500_000..800_000].copy_from_slice(&payload[..300_000]);
        assert_eq!(
            c.pread(fd, 0, expect.len() as u64).unwrap(),
            expect,
            "mode {}",
            mode.name()
        );
        c.close(fd).unwrap();
        c.shutdown().unwrap();
        server.shutdown();
        assert_eq!(
            backend.contents("/big").unwrap(),
            expect,
            "mode {}",
            mode.name()
        );
    }
}

#[test]
fn namespace_ops_work_end_to_end() {
    // mkdir + readdir + ftruncate through every daemon mode.
    for mode in ALL_MODES {
        let backend = Arc::new(MemSinkBackend::new());
        let (server, hub) = start(mode, backend.clone());
        let mut c = Client::connect(Box::new(hub.connect()));
        c.mkdir("/proj", 0o755).unwrap();
        c.mkdir("/proj/run1", 0o755).unwrap();
        assert!(matches!(
            c.mkdir("/proj", 0o755),
            Err(ClientError::Remote(Errno::Exist))
        ));
        for name in ["a.dat", "b.dat"] {
            let fd = c
                .open(
                    &format!("/proj/{name}"),
                    OpenFlags::WRONLY | OpenFlags::CREATE,
                    0o644,
                )
                .unwrap();
            c.write(fd, &[9u8; 1000]).unwrap();
            c.close(fd).unwrap();
        }
        let mut entries = c.readdir("/proj").unwrap();
        entries.sort();
        assert_eq!(
            entries,
            vec!["a.dat", "b.dat", "run1"],
            "mode {}",
            mode.name()
        );
        // ftruncate shrinks and zero-extends, ordered after staged writes.
        let fd = c.open("/proj/a.dat", OpenFlags::RDWR, 0).unwrap();
        c.write(fd, &[7u8; 500]).unwrap();
        c.ftruncate(fd, 200).unwrap();
        assert_eq!(c.fstat(fd).unwrap().size, 200);
        c.ftruncate(fd, 400).unwrap();
        let data = c.pread(fd, 0, 400).unwrap();
        assert_eq!(&data[..200], &[7u8; 200][..], "mode {}", mode.name());
        assert_eq!(&data[200..], &[0u8; 200][..], "mode {}", mode.name());
        c.close(fd).unwrap();
        c.shutdown().unwrap();
        server.shutdown();
    }
}

#[test]
fn readdir_missing_and_root() {
    let backend = Arc::new(MemSinkBackend::new());
    let (server, hub) = start(ForwardingMode::Zoid, backend);
    let mut c = Client::connect(Box::new(hub.connect()));
    // Root of an empty store lists nothing.
    assert!(c.readdir("/").unwrap().is_empty());
    let fd = c
        .open("/top.dat", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
        .unwrap();
    c.close(fd).unwrap();
    assert_eq!(c.readdir("/").unwrap(), vec!["top.dat"]);
    c.shutdown().unwrap();
    server.shutdown();
}
