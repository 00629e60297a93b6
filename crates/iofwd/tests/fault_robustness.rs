//! Robustness under injected faults and forced shutdown: the chaos
//! completion contract (a seeded fault plan with transient errors must
//! not surface to a client when retries are on) and the drain contract
//! (a deadline-bounded shutdown leaves no staged write without an
//! outcome and no BML buffer stranded).

use std::sync::Arc;
use std::time::Duration;

use iofwd::backend::{Backend, FaultBackend, MemSinkBackend, ThrottledBackend};
use iofwd::client::Client;
use iofwd::fault::{FaultPlan, FaultRule, OpClass, RetryPolicy};
use iofwd::server::{ForwardingMode, IonServer, ServerConfig};
use iofwd::transport::mem::MemHub;
use iofwd_proto::{Errno, OpenFlags};

/// A retry policy tuned for tests: plenty of attempts, microscopic
/// backoff so the suite stays fast.
fn quick_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 10,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_micros(500),
        op_deadline: Duration::from_secs(5),
    }
}

fn staged_config(workers: usize, bml: u64) -> ServerConfig {
    ServerConfig::new(ForwardingMode::AsyncStaged {
        workers,
        bml_capacity: bml,
    })
}

#[test]
fn chaos_plan_with_transient_faults_completes_with_retries() {
    // >5% of writes fail with EAGAIN, another slice go through short;
    // opens occasionally EAGAIN too. With retries on, the client must
    // never see an error and every byte must land.
    let plan = FaultPlan::new(0xc4a05)
        .rule(
            FaultRule::on(OpClass::Write)
                .probability(0.10)
                .errno(Errno::Again),
        )
        .rule(FaultRule::on(OpClass::Write).probability(0.10).short(0.5))
        .rule(
            FaultRule::on(OpClass::Open)
                .probability(0.25)
                .errno(Errno::Again),
        );
    let sink = Arc::new(MemSinkBackend::new());
    let config = staged_config(3, 8 << 20).with_retry_policy(quick_retries());
    let telemetry = config.telemetry.clone();
    let faulty = Arc::new(FaultBackend::new(sink.clone(), plan, telemetry.clone()));
    let hub = MemHub::new();
    let server = IonServer::spawn(Box::new(hub.listener()), faulty.clone(), config);

    let mut c = Client::connect(Box::new(hub.connect()));
    let fd = c
        .open("/chaos", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
        .unwrap();
    let mut expect = Vec::new();
    for i in 0..200u32 {
        let chunk = vec![(i % 251) as u8; 4096];
        c.write(fd, &chunk).unwrap();
        expect.extend_from_slice(&chunk);
    }
    // The barrier surfaces any deferred staged-write error: there must
    // be none — every transient fault was retried away.
    c.fsync(fd).unwrap();
    c.close(fd).unwrap();
    c.shutdown().unwrap();
    server.shutdown();

    assert_eq!(sink.contents("/chaos").unwrap(), expect);
    assert!(
        telemetry.faults_injected.get() > 0,
        "a 10% plan over 200 writes must fire"
    );
    assert!(
        telemetry.faults_injected.get() > 0,
        "injected faults must be counted"
    );
    assert!(
        telemetry.retries_attempted.get() > 0,
        "transient faults must drive retries"
    );
    assert_eq!(
        telemetry.retries_exhausted.get(),
        0,
        "10 attempts vs p=0.1 must never exhaust"
    );
}

#[test]
fn chaos_faults_surface_without_retries() {
    // Same shape of plan, retries disabled (the engine default): the
    // deferred-error channel must deliver the injected EAGAIN instead of
    // papering over it. nth=3 makes the failure deterministic.
    let plan = FaultPlan::new(7).rule(FaultRule::on(OpClass::Write).nth(3).errno(Errno::Again));
    let sink = Arc::new(MemSinkBackend::new());
    let config = staged_config(1, 1 << 20);
    let telemetry = config.telemetry.clone();
    let faulty = Arc::new(FaultBackend::new(sink, plan, telemetry.clone()));
    let hub = MemHub::new();
    let server = IonServer::spawn(Box::new(hub.listener()), faulty, config);

    let mut c = Client::connect(Box::new(hub.connect()));
    let fd = c
        .open("/noretry", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
        .unwrap();
    // The deferred-error channel reports the failure on whichever op on
    // this fd follows the failed staged write — a later write if the
    // worker already executed write #3, otherwise the fsync barrier.
    let mut surfaced = None;
    for _ in 0..4 {
        if let Err(e) = c.write(fd, &[1u8; 512]) {
            surfaced = Some(e);
            break;
        }
    }
    let surfaced = surfaced.unwrap_or_else(|| c.fsync(fd).expect_err("EAGAIN must surface"));
    match surfaced {
        iofwd::client::ClientError::Deferred { errno, .. } => assert_eq!(errno, Errno::Again),
        other => panic!("expected deferred EAGAIN, got {other:?}"),
    }
    c.close(fd).unwrap();
    c.shutdown().unwrap();
    server.shutdown();
    assert_eq!(telemetry.retries_attempted.get(), 0);
}

#[test]
fn orderly_shutdown_reports_nothing_parked() {
    let sink = Arc::new(MemSinkBackend::new());
    let hub = MemHub::new();
    let server = IonServer::spawn(Box::new(hub.listener()), sink, staged_config(2, 4 << 20));
    let mut c = Client::connect(Box::new(hub.connect()));
    let fd = c
        .open("/calm", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
        .unwrap();
    c.write(fd, &[2u8; 8192]).unwrap();
    c.close(fd).unwrap();
    c.shutdown().unwrap();
    let report = server.shutdown_with_deadline(Duration::from_secs(5));
    assert_eq!((report.executed, report.deferred), (0, 0));
}

#[test]
fn kill_during_load_strands_no_bml_buffer() {
    // A slow backend, a pile of staged writes, the client vanishes, and
    // the daemon is given a deadline far too small to finish the backlog.
    // Contract: every parked staged write either executes during the
    // drain or records a deferred error — and all staging memory is
    // returned (BML occupancy gauge reads zero after shutdown).
    const CHUNK: usize = 64 * 1024;
    const WRITES: usize = 16;
    let sink = Arc::new(MemSinkBackend::new());
    // 2 MiB/s: each 64 KiB write costs ~31 ms; 16 of them ~500 ms.
    let slow = Arc::new(ThrottledBackend::new(
        sink.clone(),
        2.0 * 1024.0 * 1024.0,
        Duration::ZERO,
    ));
    // Coalescing off: this test targets the *serial* backlog drain.
    // Merged, the parked chain would execute as one vectored call that
    // simply outlives the deadline, leaving the drain nothing to defer.
    let config = staged_config(2, 4 << 20).with_coalescing(false);
    let telemetry = config.telemetry.clone();
    let hub = MemHub::new();
    let server = IonServer::spawn(Box::new(hub.listener()), slow, config);

    {
        let mut c = Client::connect(Box::new(hub.connect()));
        let fd = c
            .open("/killed", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
            .unwrap();
        for i in 0..WRITES {
            c.write(fd, &vec![i as u8; CHUNK]).unwrap();
        }
        // Vanish without close/fsync: the backlog is the daemon's
        // problem now.
    }
    let report = server.shutdown_with_deadline(Duration::from_millis(300));

    // The deadline was less than the backlog cost, so the drain must
    // have deferred at least one write — and executed at least one.
    assert!(report.deferred > 0, "300 ms cannot drain ~500 ms of writes");
    assert!(report.executed > 0, "the drain had budget for some writes");
    assert_eq!(telemetry.drain_executed.get(), report.executed as u64);
    assert_eq!(telemetry.drain_deferred.get(), report.deferred as u64);
    // Single-fd lanes preserve order, so what landed is an exact prefix:
    // every write except the deferred tail.
    let landed = sink.contents("/killed").unwrap().len();
    assert_eq!(landed, (WRITES - report.deferred) * CHUNK);
    // No staging buffer may outlive shutdown.
    assert_eq!(
        telemetry.bml_occupancy.get(),
        0,
        "BML buffers stranded after shutdown"
    );
}

/// A plan's `nth=` counts the ops its rule matches. `on any nth=1`
/// therefore fails the daemon's first op of any class, once — not the
/// first open, the first write *and* the first read.
#[test]
fn any_class_nth_rule_fires_once_across_classes() {
    let plan = FaultPlan::parse("on any nth=1 errno=EIO").expect("valid plan");
    let tel = Arc::new(iofwd::telemetry::Telemetry::new());
    let b = FaultBackend::new(Arc::new(MemSinkBackend::new()), plan, tel.clone());
    assert_eq!(
        b.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
            .err(),
        Some(Errno::Io),
        "the first op fails"
    );
    let mut f = b
        .open("/f", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
        .expect("the second op passes");
    assert_eq!(f.write_at(Some(0), b"abcd"), Ok(4), "the third op passes");
    let mut out = [0u8; 4];
    assert_eq!(
        f.read_into(Some(0), &mut out),
        Ok(4),
        "the fourth op passes"
    );
    assert_eq!(tel.faults_injected.get(), 1);
}

/// A rule with a path glob counts only the ops on paths its glob
/// accepts: `nth=2` is the second open under `/hot`, whatever else
/// the daemon opened in between.
#[test]
fn path_glob_nth_rule_counts_only_matching_paths() {
    let plan = FaultPlan::parse("on open path=/hot/* nth=2 errno=EIO").expect("valid plan");
    let tel = Arc::new(iofwd::telemetry::Telemetry::new());
    let b = FaultBackend::new(Arc::new(MemSinkBackend::new()), plan, tel);
    let open = |path: &str| {
        b.open(path, OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
            .err()
    };
    assert_eq!(open("/a"), None);
    assert_eq!(open("/hot/x"), None, "first /hot open passes");
    assert_eq!(open("/hot/y"), Some(Errno::Io), "second /hot open fails");
    assert_eq!(open("/hot/z"), None);
}

/// A client that stays connected and sends nothing does not hold a
/// threaded daemon's shutdown past its deadline: a handler still waiting
/// for its next frame then has its connection closed, and the report is
/// an orderly shutdown's.
#[test]
fn an_idle_connected_client_does_not_hold_shutdown_past_its_deadline() {
    use iofwd::transport::tcp::{TcpAcceptor, TcpConn};
    use std::time::Instant;

    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("addr");
    let sink = Arc::new(MemSinkBackend::new());
    let server = IonServer::spawn(Box::new(acceptor), sink, staged_config(2, 4 << 20));
    let mut idle = Client::connect(Box::new(TcpConn::connect(addr).expect("connect")));
    let fd = idle
        .open("/idle", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
        .expect("open");
    idle.write(fd, &[1u8; 4096]).expect("write");
    idle.fsync(fd).expect("fsync");
    let deadline = Duration::from_millis(300);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || done_tx.send(server.shutdown_with_deadline(deadline)));
    let report = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown returned while the client stayed connected");
    assert!(
        started.elapsed() < deadline + Duration::from_secs(2),
        "shutdown took {:?} against a {deadline:?} deadline",
        started.elapsed()
    );
    assert_eq!(report, iofwd::server::ShutdownReport::default());
    assert!(
        idle.stat("/idle").is_err(),
        "the closed connection answered"
    );
}
