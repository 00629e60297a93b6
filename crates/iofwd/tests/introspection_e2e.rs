//! End-to-end tests of the live introspection plane: the stats wire
//! protocol across transports and modes, per-client attribution, and
//! `iofwd-cp doctor` observing a genuinely wedged daemon from outside.

use std::sync::Arc;
use std::time::{Duration, Instant};

use iofwd::backend::{FaultBackend, MemSinkBackend};
use iofwd::client::Client;
use iofwd::fault::{FaultPlan, FaultRule, OpClass};
use iofwd::server::{ForwardingMode, IonServer, ReactorConfig, ServerConfig};
use iofwd::telemetry::{snapshot::validate_prometheus, Rates, Telemetry, TelemetrySnapshot};
use iofwd::transport::mem::MemHub;
use iofwd::transport::tcp::{TcpAcceptor, TcpConn};
use iofwd_proto::{Frame, OpenFlags, Request, Response, StatsQuery};

fn unique_tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "iofwd-introspect-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

const ALL_MODES: [ForwardingMode; 4] = [
    ForwardingMode::Ciod,
    ForwardingMode::Zoid,
    ForwardingMode::Sched { workers: 2 },
    ForwardingMode::AsyncStaged {
        workers: 2,
        bml_capacity: 8 << 20,
    },
];

/// Every forwarding mode answers the stats query in-band, the snapshot
/// carries a per-client row for the traffic just sent, and the reader's
/// views — rates and Prometheus — derive from fetched snapshots.
#[test]
fn stats_protocol_answers_in_all_modes_with_attribution() {
    for mode in ALL_MODES {
        let telemetry = Arc::new(Telemetry::new());
        let hub = MemHub::new();
        let server = IonServer::spawn(
            Box::new(hub.listener()),
            Arc::new(MemSinkBackend::new()),
            ServerConfig::new(mode).with_telemetry(telemetry.clone()),
        );
        let mut c = Client::with_id(Box::new(hub.connect()), 5);
        let fd = c
            .open("/attr", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
            .expect("open");
        let payload = vec![7u8; 64 << 10];
        c.write(fd, &payload).expect("write");
        c.fsync(fd).expect("fsync");
        c.close(fd).expect("close");

        // A staged write's span folds on its worker a beat after the
        // barrier that waited for it has been answered; take the
        // baseline once all four ops are in.
        let deadline = Instant::now() + Duration::from_secs(5);
        let snap = loop {
            let snap = c.query_snapshot().expect("snapshot");
            if snap.counter("ops_completed") >= 4 || Instant::now() > deadline {
                break snap;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        assert!(
            snap.counter("ops_completed") > 0,
            "mode {}: snapshot shows no ops",
            mode.name()
        );
        let row = snap
            .client(5)
            .unwrap_or_else(|| panic!("mode {}: no row for client 5", mode.name()));
        assert!(row.ops > 0, "mode {}: client row has no ops", mode.name());
        assert!(
            row.bytes_in >= payload.len() as u64,
            "mode {}: client 5 bytes_in {} < payload {}",
            mode.name(),
            row.bytes_in,
            payload.len()
        );

        let later = c.query_snapshot().expect("snapshot");
        let rates = Rates::between(&snap, &later);
        assert!(
            rates.window_ns > 0,
            "mode {}: snapshots carry no uptime delta: {rates:?}",
            mode.name()
        );
        let since_boot = Rates::between(&TelemetrySnapshot::default(), &snap);
        assert!(
            since_boot.ops_per_s > 0.0,
            "mode {}: rates see no ops: {since_boot:?}",
            mode.name()
        );
        let samples = validate_prometheus(&later.render_prometheus())
            .unwrap_or_else(|e| panic!("mode {}: bad exposition: {e}", mode.name()));
        assert!(samples > 0, "mode {}: empty exposition", mode.name());

        // Meta-traffic stays off the books: the stats queries must not
        // have inflated the op counters.
        let after = c.query_snapshot().expect("snapshot");
        assert_eq!(
            after.counter("ops_completed"),
            snap.counter("ops_completed"),
            "mode {}: stats queries leaked into op accounting",
            mode.name()
        );
        c.shutdown().expect("shutdown");
        server.shutdown();
    }
}

/// The reactor transport answers stats inline from the event loop and
/// stamps per-client rows on its own read/write paths.
#[test]
fn reactor_serves_stats_and_attributes_clients() {
    let telemetry = Arc::new(Telemetry::new());
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("addr");
    let server = IonServer::spawn_reactor(
        acceptor,
        Arc::new(MemSinkBackend::new()),
        ServerConfig::new(ForwardingMode::Sched { workers: 2 }).with_telemetry(telemetry.clone()),
        iofwd::server::ReactorConfig::default(),
    )
    .expect("spawn reactor");

    let conn = TcpConn::connect(addr.to_string()).expect("connect");
    let mut c = Client::with_id(Box::new(conn), 9);
    let fd = c
        .open("/r", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
        .expect("open");
    let payload = vec![3u8; 128 << 10];
    c.write(fd, &payload).expect("write");
    // A read makes the outbound payload non-trivial (write acks carry
    // no data), exercising the reply-side attribution.
    let got = c.pread(fd, 0, payload.len() as u64).expect("pread");
    assert_eq!(got.len(), payload.len());
    c.close(fd).expect("close");

    let snap = c.query_snapshot().expect("snapshot");
    let row = snap.client(9).expect("client 9 row");
    assert!(
        row.bytes_in >= payload.len() as u64,
        "client 9 bytes_in {} < payload {}",
        row.bytes_in,
        payload.len()
    );
    assert!(row.bytes_out > 0, "replies never attributed");
    // The event loops registered heartbeats and measured poll waits.
    assert!(telemetry.loop_heartbeats.registered() > 0);
    let prom = c.query_snapshot().expect("snapshot").render_prometheus();
    validate_prometheus(&prom).expect("valid exposition");
    c.shutdown().expect("shutdown");
    server.shutdown();
}

/// Start `iofwd-cp doctor ADDR SPEC` with its stdout piped.
fn spawn_doctor(addr: &str, spec: &str) -> std::process::Child {
    std::process::Command::new(env!("CARGO_BIN_EXE_iofwd-cp"))
        .args(["doctor", addr, spec])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn iofwd-cp doctor")
}

/// Kill a running `doctor` and return what it printed.
fn stop_doctor(mut doctor: std::process::Child) -> String {
    let _ = doctor.kill();
    let out = doctor.wait_with_output().expect("doctor output");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Wedge the worker pool with injected `delay_us` faults and prove the
/// three promises hold at once with `iofwd-cp doctor` as the reader: it
/// trips on queue head-of-line age, its flight dump lands on disk, and
/// the stats endpoint keeps answering from a separate connection
/// throughout.
#[test]
fn watchdog_trips_on_wedged_queue_while_stats_answer() {
    let telemetry = Arc::new(Telemetry::new());
    // Every write stalls 120 ms in the backend; with one worker, queued
    // writes age far past the 30 ms SLO.
    let plan = FaultPlan::new(42).rule(FaultRule::on(OpClass::Write).delay_us(120_000));
    let backend = Arc::new(FaultBackend::new(
        Arc::new(MemSinkBackend::new()),
        plan,
        telemetry.clone(),
    ));
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("addr").to_string();
    let server = IonServer::spawn(
        Box::new(acceptor),
        backend,
        ServerConfig::new(ForwardingMode::Sched { workers: 1 }).with_telemetry(telemetry.clone()),
    );
    let dump = unique_tmp("wd-dump");
    let _ = std::fs::remove_file(&dump);
    let spec = format!(
        "interval_ms=10,queue_age_ms=30,loop_lag_ms=0,dump={}",
        dump.display()
    );
    let doctor = spawn_doctor(&addr, &spec);

    // Three writers pile onto the one execution slot: one runs its write
    // in place, the others queue behind it for the one worker.
    let writers: Vec<_> = (0..3u32)
        .map(|i| {
            let conn = TcpConn::connect(&addr).expect("connect");
            std::thread::spawn(move || {
                let mut c = Client::with_id(Box::new(conn), 100 + i);
                let fd = c
                    .open(
                        &format!("/wedge{i}"),
                        OpenFlags::WRONLY | OpenFlags::CREATE,
                        0o644,
                    )
                    .expect("open");
                for _ in 0..3 {
                    c.write(fd, &[0u8; 4096]).expect("write");
                }
                c.close(fd).expect("close");
                let _ = c.shutdown();
            })
        })
        .collect();

    // While the queue is wedged, the stats endpoint must answer promptly
    // from a fresh connection — and the doctor must dump the trip.
    let mut stats_conn = Client::connect(Box::new(TcpConn::connect(&addr).expect("connect")));
    let deadline = Instant::now() + Duration::from_secs(10);
    let tripped =
        || std::fs::read_to_string(&dump).is_ok_and(|d| d.contains("flight recorder (oldest"));
    while Instant::now() < deadline && !tripped() {
        let t0 = Instant::now();
        stats_conn.query_snapshot().expect("snapshot");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "stats query stalled behind the wedged queue"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let printed = stop_doctor(doctor);

    for w in writers {
        w.join().expect("writer");
    }
    let _ = stats_conn.shutdown();
    server.shutdown();

    assert!(
        printed.contains("trip reason=queue_stall"),
        "doctor never tripped on the wedged queue: {printed}"
    );
    let dumped = std::fs::read_to_string(&dump).expect("flight dump written");
    assert!(
        dumped.contains("trip reason=queue_stall"),
        "dump missing trip line: {dumped}"
    );
    assert!(
        dumped.contains("flight recorder"),
        "dump missing flight table: {dumped}"
    );
    let _ = std::fs::remove_file(&dump);
}

/// A connection that is accepted and never answered is a stalled loop as
/// far as any reader can tell: `doctor` reports a `loop_stall` within
/// its loop-lag limit and reconnects.
#[test]
fn doctor_trips_on_a_daemon_that_never_answers() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    // Before the spawn: the doctor can connect through the backlog and
    // start its 200 ms query timer before `spawn_doctor` returns.
    let t0 = Instant::now();
    let mut doctor = spawn_doctor(&addr, "interval_ms=10,loop_lag_ms=200");
    let first = listener.accept().expect("doctor connects");
    let mut printed = String::new();
    let stdout = doctor.stdout.as_mut().expect("piped stdout");
    std::io::BufRead::read_line(&mut std::io::BufReader::new(stdout), &mut printed)
        .expect("doctor prints a trip");
    let waited = t0.elapsed();
    let second = listener
        .accept()
        .expect("doctor reconnects after no answer");
    stop_doctor(doctor);
    drop((first, second));
    assert!(
        printed.contains("trip reason=loop_stall") && printed.contains("limit=200000000"),
        "{printed}"
    );
    assert!(
        waited >= Duration::from_millis(200) && waited < Duration::from_secs(5),
        "no-answer trip after {waited:?}"
    );
}

/// The one way out answers when every data connection is parked for
/// staging memory, on both TCP transports. Four clients each write
/// 8 blocks of 16 KiB, then of 4 KiB (below the split threshold), through
/// a four-block pool whose backend takes 100 ms per write. Every payload
/// is received into a BML block, so once the four blocks are held every
/// writer waits for one — blocked in `Bml::acquire` under `recv` on
/// threads, `awaiting_block` on the reactor — while a connection opened
/// afresh is still answered within a second.
#[test]
fn fresh_connection_is_answered_while_every_data_connection_waits_for_staging_memory() {
    for (block, reactor) in [
        (16 << 10, false),
        (16 << 10, true),
        (4 << 10, false),
        (4 << 10, true),
    ] {
        let arm = if reactor { "reactor" } else { "threads" };
        let arm = format!("{arm}, {block} B writes");
        let telemetry = Arc::new(Telemetry::new());
        let plan = FaultPlan::new(7).rule(FaultRule::on(OpClass::Write).delay_us(100_000));
        let backend = Arc::new(FaultBackend::new(
            Arc::new(MemSinkBackend::new()),
            plan,
            telemetry.clone(),
        ));
        let config = ServerConfig::new(ForwardingMode::AsyncStaged {
            workers: 2,
            bml_capacity: 4 * block as u64,
        })
        .with_telemetry(telemetry);
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
        let addr = acceptor.local_addr().expect("addr");
        let server = if reactor {
            IonServer::spawn_reactor(acceptor, backend, config, ReactorConfig::default())
                .expect("spawn reactor")
        } else {
            IonServer::spawn(Box::new(acceptor), backend, config)
        };

        let writers: Vec<_> = (0..4u32)
            .map(|i| {
                std::thread::spawn(move || {
                    let conn = TcpConn::connect(addr).expect("connect");
                    let mut c = Client::with_id(Box::new(conn), 200 + i);
                    let fd = c
                        .open(
                            &format!("/parked{i}"),
                            OpenFlags::WRONLY | OpenFlags::CREATE,
                            0o644,
                        )
                        .expect("open");
                    for k in 0..8u64 {
                        c.pwrite(fd, k * block as u64, &vec![i as u8; block])
                            .expect("pwrite");
                    }
                    c.close(fd).expect("close");
                    let _ = c.shutdown();
                })
            })
            .collect();

        let parked = |snap: &TelemetrySnapshot| {
            if reactor {
                snap.counter("backpressure_events") > 0
            } else {
                snap.gauge("bml_waiters").peak > 0
            }
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut seen = false;
        while !seen && Instant::now() < deadline {
            let t0 = Instant::now();
            let conn = TcpConn::connect(addr).expect("connect");
            let snap = Client::connect(Box::new(conn))
                .query_snapshot()
                .expect("snapshot");
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "{arm}: a fresh connection's stats query waited {:?}",
                t0.elapsed()
            );
            seen = parked(&snap);
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(seen, "{arm}: no data connection ever waited for a block");

        for w in writers {
            w.join().expect("writer");
        }
        server.shutdown();
    }
}

/// Read reply frames off a raw socket until `n` have arrived.
fn read_replies(stream: &mut std::net::TcpStream, n: usize) -> Vec<Frame> {
    let mut buf = bytes::BytesMut::new();
    let mut out = Vec::new();
    while out.len() < n {
        match Frame::decode(&buf).expect("well-formed reply stream") {
            Some((frame, used)) => {
                let _ = buf.split_to(used);
                out.push(frame);
            }
            None => {
                let got = buf.read_from(stream, 4096).expect("read");
                assert!(got > 0, "server hung up early ({}/{n} replies)", out.len());
            }
        }
    }
    out
}

/// DESIGN §9's promise on the reactor: stats are "answered while the
/// data path is wedged" — including for a client that has used up its
/// own queue credit. Four writes are pipelined at a one-worker daemon
/// whose backend takes 150 ms per write, with `max_client_queued = 1`,
/// followed by a stats query on the same connection. The query is
/// decoded as soon as the last write is admitted (the third is then
/// executing, the fourth queued), so its reply must overtake both of
/// those writes' replies; before the admission core it sat behind the
/// client's queue debt until the third write had finished.
#[test]
fn reactor_answers_stats_for_a_client_over_its_queue_credit() {
    use std::io::Write;

    let telemetry = Arc::new(Telemetry::new());
    let plan = FaultPlan::new(1).rule(FaultRule::on(OpClass::Write).delay_us(150_000));
    let backend = Arc::new(FaultBackend::new(
        Arc::new(MemSinkBackend::new()),
        plan,
        telemetry.clone(),
    ));
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("addr");
    let server = IonServer::spawn_reactor(
        acceptor,
        backend,
        ServerConfig::new(ForwardingMode::Sched { workers: 1 }).with_telemetry(telemetry),
        iofwd::server::ReactorConfig {
            max_client_queued: 1,
            ..Default::default()
        },
    )
    .expect("spawn reactor");

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let open = Request::Open {
        path: "/debt".into(),
        flags: OpenFlags::WRONLY | OpenFlags::CREATE,
        mode: 0o644,
    };
    stream
        .write_all(&Frame::request(6, 1, &open, bytes::Bytes::new()).encode())
        .expect("open");
    let fd = match read_replies(&mut stream, 1)[0]
        .decode_response()
        .expect("open reply")
    {
        Response::Ok { ret } => iofwd_proto::Fd(ret as u32),
        other => panic!("open failed: {other:?}"),
    };

    const WRITES: u64 = 4;
    let stats_seq = 2 + WRITES;
    let mut wire = Vec::new();
    for i in 0..WRITES {
        let req = Request::Pwrite {
            fd,
            offset: i * 512,
            len: 512,
        };
        let payload = bytes::Bytes::from(vec![i as u8; 512]);
        wire.extend_from_slice(&Frame::request(6, 2 + i, &req, payload).encode());
    }
    let stats = Request::Stats {
        query: StatsQuery::Snapshot,
    };
    wire.extend_from_slice(&Frame::request(6, stats_seq, &stats, bytes::Bytes::new()).encode());
    stream.write_all(&wire).expect("pipeline");

    let order: Vec<u64> = read_replies(&mut stream, WRITES as usize + 1)
        .iter()
        .map(|f| f.seq)
        .collect();
    let stats_at = order
        .iter()
        .position(|&seq| seq == stats_seq)
        .expect("stats reply");
    assert!(
        order.len() - 1 - stats_at >= 2,
        "stats reply waited for the client's queue debt to drain: reply order {order:?}"
    );
    drop(stream);
    server.shutdown();
}
