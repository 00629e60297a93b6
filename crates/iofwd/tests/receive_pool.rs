//! Receiving into the pool, end to end over TCP on both drivers and over
//! `MemHub`: a write payload is charged to the BML once — before its first
//! byte is received, until its last byte is written — and staged in that
//! block; one whose class no block of the pool can hold is written
//! synchronously; the charge comes back on every way out (completion,
//! backend error, refused descriptor, shutdown drain, the staging path's
//! early exits — one table — and a client that dies mid-payload); and
//! staging memory is capped for bytes in flight, so
//! clients that announce payloads and stall hold a bounded number of
//! blocks while everyone else is still served.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use iofwd::backend::{Backend, FaultBackend, MemSinkBackend, ThrottledBackend};
use iofwd::client::{Client, ClientError, WriteOutcome};
use iofwd::fault::{FaultPlan, FaultRule, OpClass};
use iofwd::server::{ForwardingMode, IonServer, ReactorConfig, ServerConfig};
use iofwd::telemetry::Telemetry;
use iofwd::transport::mem::MemHub;
use iofwd::transport::tcp::{TcpAcceptor, TcpConn};
use iofwd::transport::Conn;
use iofwd_proto::{Errno, Fd, Frame, OpId, OpenFlags, Request, Response, StatsQuery};

const KIB: usize = 1024;
const MIB: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Transport {
    Threads,
    Reactor,
}

const BOTH: [Transport; 2] = [Transport::Threads, Transport::Reactor];

fn start(
    transport: Transport,
    backend: Arc<dyn Backend>,
    config: ServerConfig,
) -> (IonServer, SocketAddr) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("addr");
    let server = match transport {
        Transport::Threads => IonServer::spawn(Box::new(acceptor), backend, config),
        Transport::Reactor => {
            IonServer::spawn_reactor(acceptor, backend, config, ReactorConfig::default())
                .expect("spawn reactor")
        }
    };
    (server, addr)
}

/// Every way a payload reaches the daemon: TCP on either driver, and
/// `MemHub` frames, handed over by value, on threads.
#[derive(Debug, Clone, Copy)]
enum Arm {
    Tcp(Transport),
    MemHub,
}

const ARMS: [Arm; 3] = [
    Arm::Tcp(Transport::Threads),
    Arm::Tcp(Transport::Reactor),
    Arm::MemHub,
];

/// A daemon on `arm` and a client of it. A TCP client gives up on a reply
/// after ten seconds, so a daemon that never answers fails the test.
fn start_arm(arm: Arm, backend: Arc<dyn Backend>, config: ServerConfig) -> (IonServer, Client) {
    match arm {
        Arm::Tcp(transport) => {
            let (server, addr) = start(transport, backend, config);
            let stream = TcpStream::connect(addr).expect("connect");
            let patience = Some(Duration::from_secs(10));
            stream.set_read_timeout(patience).expect("read timeout");
            let conn = TcpConn::from_stream(stream).expect("conn");
            (server, Client::connect(Box::new(conn)))
        }
        Arm::MemHub => {
            let hub = MemHub::new();
            let server = IonServer::spawn(Box::new(hub.listener()), backend, config);
            (server, Client::connect(Box::new(hub.connect())))
        }
    }
}

fn staged(workers: usize, bml_capacity: usize) -> ServerConfig {
    ServerConfig::new(ForwardingMode::AsyncStaged {
        workers,
        bml_capacity: bml_capacity as u64,
    })
}

fn client(addr: SocketAddr) -> Client {
    Client::connect(Box::new(TcpConn::connect(addr).expect("connect")))
}

/// Poll until `done`; panics with `what` after five seconds.
fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A memory sink behind `plan`, counting into `telemetry`.
fn faulty(plan: FaultPlan, telemetry: &Arc<Telemetry>) -> Arc<FaultBackend> {
    let sink = Arc::new(MemSinkBackend::new());
    Arc::new(FaultBackend::new(sink, plan, telemetry.clone()))
}

/// The wire image of a `Pwrite` announcing `len` payload bytes, without
/// them.
fn pwrite_head(fd: Fd, len: usize) -> Vec<u8> {
    let req = Request::Pwrite {
        fd,
        offset: 0,
        len: len as u64,
    };
    Frame::request_head(9, 1, &req)
        .encode_header_for(len)
        .to_vec()
}

#[test]
fn a_staged_write_holds_one_charge_of_its_class_until_it_is_written() {
    for transport in BOTH {
        for len in [64 * KIB, MIB] {
            let config = staged(2, 8 * MIB);
            let telemetry = config.telemetry.clone();
            // Every write takes 300 ms: long enough to look at the gauge
            // between the `Staged` ack and the backend call returning.
            let slow = FaultPlan::new(1).rule(FaultRule::on(OpClass::Write).delay_us(300_000));
            let (server, addr) = start(transport, faulty(slow, &telemetry), config);
            let mut c = client(addr);
            let fd = c
                .open("/one", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
                .unwrap();
            c.pwrite(fd, 0, &vec![3u8; len]).unwrap();
            assert_eq!(c.stats().staged_writes, 1, "{transport:?}");
            assert_eq!(
                telemetry.bml_occupancy.get(),
                len as i64,
                "{transport:?}: a staged {len}-byte write is charged once"
            );
            // `fsync` returns once the write is reported; the worker gives
            // the block back right after that.
            c.fsync(fd).unwrap();
            eventually("the written block is back", || {
                telemetry.bml_occupancy.get() == 0
            });
            // The next one lands in the block the first one left behind.
            let misses = telemetry.slab_misses.get();
            c.pwrite(fd, 0, &vec![4u8; len]).unwrap();
            c.fsync(fd).unwrap();
            assert_eq!(telemetry.slab_misses.get(), misses, "{transport:?}: {len}");
            assert!(telemetry.slab_hits.get() > 0);
            eventually("the recycled block is back", || {
                telemetry.bml_occupancy.get() == 0
            });
            c.close(fd).unwrap();
            c.shutdown().unwrap();
            server.shutdown();
        }
    }
}

/// One block per staged write: N staged 4 KiB writes take exactly N blocks
/// from the pool and stage N ops, however they arrived — each payload is
/// received into its block and staged there, never charged twice.
#[test]
fn every_staged_write_is_received_into_one_block() {
    const N: u64 = 32;
    for arm in ARMS {
        let config = staged(2, 8 * MIB);
        let telemetry = config.telemetry.clone();
        let (server, mut c) = start_arm(arm, Arc::new(MemSinkBackend::new()), config);
        let fd = c
            .open("/small", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
            .unwrap();
        let blocks = || telemetry.slab_hits.get() + telemetry.slab_misses.get();
        let (blocks_before, staged_before) = (blocks(), telemetry.ops_staged.get());
        for i in 0..N {
            c.pwrite(fd, i * 4 * KIB as u64, &[i as u8; 4 * KIB])
                .unwrap();
        }
        assert_eq!(c.stats().staged_writes, N, "{arm:?}");
        assert_eq!(blocks() - blocks_before, N, "{arm:?}: blocks taken");
        assert_eq!(telemetry.ops_staged.get() - staged_before, N, "{arm:?}");
        c.close(fd).unwrap();
        c.shutdown().unwrap();
        server.shutdown();
        assert_eq!(telemetry.bml_occupancy.get(), 0, "{arm:?}");
    }
}

/// A pool whose size is not a power of two cannot stage a write whose
/// class is larger than it: a 2.5 MiB write's 4 MiB class never fits in
/// 3 MiB. Its payload stays on the heap and is written synchronously, on
/// every arm, and reads back intact.
#[test]
fn a_write_whose_class_exceeds_the_pool_is_written_synchronously() {
    const LEN: usize = 5 * MIB / 2;
    for arm in ARMS {
        let config = staged(2, 3 * MIB);
        let telemetry = config.telemetry.clone();
        let (server, mut c) = start_arm(arm, Arc::new(MemSinkBackend::new()), config);
        let fd = c
            .open("/odd", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
            .unwrap();
        let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
        let wrote = c.pwrite(fd, 0, &data);
        assert!(
            matches!(wrote, Ok(n) if n == LEN as u64),
            "{arm:?}: {wrote:?}"
        );
        assert_eq!(c.stats().staged_writes, 0, "{arm:?}: not staged");
        assert_eq!(telemetry.ops_staged.get(), 0, "{arm:?}");
        assert_eq!(c.pread(fd, 0, LEN as u64).unwrap(), data, "{arm:?}");
        c.close(fd).unwrap();
        c.shutdown().unwrap();
        server.shutdown();
        assert_eq!(telemetry.bml_occupancy.get(), 0, "{arm:?}");
    }
}

#[test]
fn the_charge_comes_back_after_a_write_error_and_a_refused_descriptor() {
    for transport in BOTH {
        let config = staged(2, 8 * MIB);
        let telemetry = config.telemetry.clone();
        let failing = FaultPlan::new(2).rule(FaultRule::on(OpClass::Write).errno(Errno::NoSpc));
        let (server, addr) = start(transport, faulty(failing, &telemetry), config);
        let mut c = client(addr);
        let fd = c
            .open("/full", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
            .unwrap();
        c.pwrite(fd, 0, &vec![5u8; MIB]).unwrap();
        match c.fsync(fd).expect_err("the staged write failed") {
            ClientError::Deferred { errno, .. } => assert_eq!(errno, Errno::NoSpc),
            other => panic!("{transport:?}: expected the deferred ENOSPC, got {other:?}"),
        }
        eventually("the failed write's block is back", || {
            telemetry.bml_occupancy.get() == 0
        });
        // `begin_op` refuses a descriptor nobody opened: the payload was
        // received into a block, and the block goes back with the reply.
        match c.pwrite(Fd(4040), 0, &vec![6u8; 64 * KIB]) {
            Err(ClientError::Remote(Errno::BadF)) => {}
            other => panic!("{transport:?}: expected EBADF, got {other:?}"),
        }
        assert_eq!(
            telemetry.bml_occupancy.get(),
            0,
            "{transport:?}: after EBADF"
        );
        c.close(fd).unwrap();
        c.shutdown().unwrap();
        server.shutdown();
        assert_eq!(telemetry.bml_occupancy.get(), 0);
    }
}

const CHUNK: usize = 64 * KIB;

#[test]
fn shutdown_mid_burst_reports_and_returns_every_received_block() {
    // `fault_robustness::kill_during_load_strands_no_bml_buffer`, over TCP:
    // the backlog's payloads sit in the blocks they were received into.
    const WRITES: usize = 16;
    for transport in BOTH {
        let sink = Arc::new(MemSinkBackend::new());
        // 2 MiB/s: each 64 KiB write costs ~31 ms; 16 of them ~500 ms.
        let slow = Arc::new(ThrottledBackend::new(
            sink.clone(),
            2.0 * MIB as f64,
            Duration::ZERO,
        ));
        let config = staged(2, 4 * MIB).with_coalescing(false);
        let telemetry = config.telemetry.clone();
        let (server, addr) = start(transport, slow, config);
        let mut c = client(addr);
        let fd = c
            .open("/killed", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
            .unwrap();
        for i in 0..WRITES {
            c.pwrite(fd, (i * CHUNK) as u64, &vec![i as u8; CHUNK])
                .unwrap();
        }
        c.shutdown().unwrap();
        let report = server.shutdown_with_deadline(Duration::from_millis(300));
        assert!(report.deferred > 0, "{transport:?}: 300 ms cannot drain it");
        assert!(report.executed > 0, "{transport:?}: the drain had budget");
        assert_eq!(telemetry.drain_executed.get(), report.executed as u64);
        assert_eq!(telemetry.drain_deferred.get(), report.deferred as u64);
        let landed = sink.contents("/killed").unwrap().len();
        assert_eq!(landed, (WRITES - report.deferred) * CHUNK, "{transport:?}");
        assert_eq!(telemetry.bml_occupancy.get(), 0, "{transport:?}: stranded");
    }
}

/// What one early exit did: writes acked `Staged`, writes that reached
/// the backend, and writes the drain failed with a deferred `EIO`.
type Exit = (usize, usize, usize);

fn landed(sink: &MemSinkBackend, path: &str) -> usize {
    sink.contents(path).map_or(0, |c| c.len() / CHUNK)
}

/// `frames` sent back to back on one raw connection: a reply per frame,
/// in `seq` order.
fn pipelined(conn: &dyn Conn, frames: Vec<(Request, Bytes)>) -> Vec<(Response, Bytes)> {
    let n = frames.len();
    for (seq, (req, data)) in (0..).zip(frames) {
        conn.send(Frame::request(5, seq, &req, data)).expect("send");
    }
    let mut replies: Vec<Frame> = (0..n).map(|_| conn.recv().unwrap().unwrap()).collect();
    replies.sort_by_key(|f| f.seq);
    let decode = |f: Frame| (f.decode_response().expect("reply"), f.data);
    replies.into_iter().map(decode).collect()
}

fn open_raw(conn: &dyn Conn, path: &str) -> Fd {
    let (flags, mode) = (OpenFlags::RDWR | OpenFlags::CREATE, 0o644);
    let open = Request::Open {
        path: path.into(),
        flags,
        mode,
    };
    match pipelined(conn, vec![(open, Bytes::new())])[0].0 {
        Response::Ok { ret } => Fd(ret as u32),
        ref other => panic!("open: {other:?}"),
    }
}

fn pwrite_at(fd: Fd, offset: u64) -> (Request, Bytes) {
    let req = Request::Pwrite {
        fd,
        offset,
        len: CHUNK as u64,
    };
    (req, Bytes::from(vec![offset as u8; CHUNK]))
}

fn acked(replies: &[(Response, Bytes)]) -> usize {
    let staged = |(r, _): &&(Response, Bytes)| matches!(r, Response::Staged { .. });
    replies.iter().filter(staged).count()
}

/// `pwrite; close; pwrite` pipelined on one connection against a 200 ms
/// device, on either driver: the second write, admitted after its
/// descriptor's close, is refused `EBADF` — never acked and then dropped —
/// and both drivers answer the one frame stream alike.
fn write_after_close(arm: Arm, config: ServerConfig) -> Exit {
    let Arm::Tcp(t) = arm else { unreachable!() };
    let sink = Arc::new(MemSinkBackend::new());
    let plan = FaultPlan::parse("on write delay_us=200000").expect("plan");
    let slow = FaultBackend::new(sink.clone(), plan, Arc::new(Telemetry::disabled()));
    let (server, addr) = start(t, Arc::new(slow), config);
    let conn = TcpConn::connect(addr).expect("connect");
    let fd = open_raw(&conn, "/a");
    let close = (Request::Close { fd }, Bytes::new());
    let frames = vec![pwrite_at(fd, 0), close, pwrite_at(fd, CHUNK as u64)];
    let replies: Vec<_> = pipelined(&conn, frames)
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    let (staged, refused) = (OpId::FIRST, Errno::BadF);
    let expected = [Response::Staged { op: staged }, Response::Ok { ret: 0 }];
    assert_eq!(replies[..2], expected, "{t:?}");
    assert_eq!(replies[2], Response::Err { errno: refused }, "{t:?}");
    drop(conn);
    server.shutdown();
    (1, landed(&sink, "/a"), 0)
}

/// A write staged once shutdown has closed the queue: the ack is out,
/// the push fails, and the handler runs the write in place.
fn push_to_a_closed_queue(arm: Arm, config: ServerConfig) -> Exit {
    let Arm::Tcp(t) = arm else { unreachable!() };
    let sink = Arc::new(MemSinkBackend::new());
    let (server, addr) = start(t, sink.clone(), config);
    let (mut writer, mut probe) = (client(addr), client(addr));
    let fd = writer
        .open("/b", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
        .unwrap();
    let shutdown = std::thread::spawn(move || server.shutdown());
    // A synchronous op is refused `EAGAIN` once the queue has closed.
    eventually("the queue closes", || {
        matches!(probe.stat("/b"), Err(ClientError::Remote(Errno::Again)))
    });
    let outcome = writer.pwrite_detailed(fd, 0, &[9u8; CHUNK]).expect("write");
    drop((writer, probe));
    shutdown.join().expect("shutdown");
    let acked = usize::from(matches!(outcome, WriteOutcome::Staged(_)));
    (acked, landed(&sink, "/b"), 0)
}

/// A read reply is a view of a BML block (on `MemHub`, which hands frames
/// over by value). The client holds it across the daemon's shutdown, which
/// closes the pool under it; dropping the view then gives the charge back
/// to a closed pool.
fn pool_closed_under_a_block(_: Arm, config: ServerConfig) -> Exit {
    let (sink, hub) = (Arc::new(MemSinkBackend::new()), MemHub::new());
    let telemetry = config.telemetry.clone();
    let server = IonServer::spawn(Box::new(hub.listener()), sink.clone(), config);
    let conn = hub.connect();
    let fd = open_raw(&conn, "/c");
    let len = CHUNK as u64;
    let frames = vec![
        pwrite_at(fd, 0),
        (Request::Fsync { fd }, Bytes::new()),
        (Request::Pread { fd, offset: 0, len }, Bytes::new()),
        (Request::Close { fd }, Bytes::new()),
    ];
    let mut replies = pipelined(&conn, frames);
    let view = std::mem::take(&mut replies[2].1);
    drop(conn);
    server.shutdown();
    assert_eq!(telemetry.bml_occupancy.get(), CHUNK as i64, "the view");
    drop(view);
    (acked(&replies), landed(&sink, "/c"), 0)
}

/// Sixteen writes parked behind a 2 MiB/s device (~500 ms), the client
/// gone, and a 300 ms drain: it runs what it can and fails the rest.
fn drain_out_of_time(arm: Arm, config: ServerConfig) -> Exit {
    const WRITES: usize = 16;
    let sink = Arc::new(MemSinkBackend::new());
    let slow = ThrottledBackend::new(sink.clone(), 2.0 * MIB as f64, Duration::ZERO);
    // Serial, so the backlog is sixteen calls the deadline can split.
    let config = config.with_coalescing(false);
    let telemetry = config.telemetry.clone();
    let (server, mut c) = start_arm(arm, Arc::new(slow), config);
    let fd = c
        .open("/d", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
        .unwrap();
    let acked = (0..WRITES)
        .map(|i| c.pwrite_detailed(fd, (i * CHUNK) as u64, &vec![i as u8; CHUNK]))
        .filter(|w| matches!(w, Ok(WriteOutcome::Staged(_))))
        .count();
    drop(c);
    let report = server.shutdown_with_deadline(Duration::from_millis(300));
    assert!(report.deferred > 0, "{arm:?}: 300 ms cannot drain it");
    assert!(report.executed > 0, "{arm:?}: the drain had budget");
    assert_eq!(telemetry.drain_executed.get(), report.executed as u64);
    assert_eq!(telemetry.drain_deferred.get(), report.deferred as u64);
    (acked, landed(&sink, "/d"), report.deferred)
}

/// Run one early exit on each of `arms`: it must give every received
/// block back, leave no op in flight and no descriptor open, and execute
/// or fail with a deferred error every write it acked `Staged`.
fn settles(row: &str, case: fn(Arm, ServerConfig) -> Exit, arms: &[Arm]) {
    for &arm in arms {
        let config = staged(2, 4 * MIB);
        let telemetry = config.telemetry.clone();
        let (acked, landed, deferred) = case(arm, config);
        let row = format!("{row} ({arm:?})");
        assert!(acked > 0, "{row}: nothing was acked");
        assert_eq!(acked, landed + deferred, "{row}");
        assert_eq!(telemetry.bml_occupancy.get(), 0, "{row}: stranded");
        assert_eq!(telemetry.inflight_ops.get(), 0, "{row}: in flight");
        assert_eq!(telemetry.open_descriptors.get(), 0, "{row}: open");
    }
}

/// The staging path's early exits, one row each.
#[test]
fn every_staging_early_exit_returns_its_block_and_settles_its_write() {
    let [threads, reactor, memhub] = ARMS;
    settles(
        "a write admitted after its close",
        write_after_close,
        &[threads, reactor],
    );
    settles(
        "a push that finds the queue closed",
        push_to_a_closed_queue,
        &[threads],
    );
    settles(
        "the pool closed under a block",
        pool_closed_under_a_block,
        &[memhub],
    );
    settles("a shutdown drain out of time", drain_out_of_time, &ARMS);
}

#[test]
fn a_client_that_dies_inside_a_payload_gives_its_block_back() {
    for transport in BOTH {
        let config = staged(1, 8 * MIB);
        let telemetry = config.telemetry.clone();
        let (server, addr) = start(transport, Arc::new(MemSinkBackend::new()), config);
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&pwrite_head(Fd(3), MIB)).unwrap();
        stream.write_all(&vec![8u8; MIB / 2]).unwrap();
        eventually("the half-received payload holds its block", || {
            telemetry.bml_occupancy.get() == MIB as i64
        });
        drop(stream);
        eventually("the dead connection's block is back", || {
            telemetry.bml_occupancy.get() == 0
        });
        server.shutdown();
    }
}

#[test]
fn stalled_payloads_hold_bounded_staging_memory_and_starve_nobody_else() {
    const STALLED: usize = 5;
    for transport in BOTH {
        let config = staged(2, 64 * MIB);
        let telemetry = config.telemetry.clone();
        let (server, addr) = start(transport, Arc::new(MemSinkBackend::new()), config);
        // Each announces a 32 MiB payload and sends none of it.
        let stalled: Vec<TcpStream> = (0..STALLED)
            .map(|_| {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.write_all(&pwrite_head(Fd(3), 32 * MIB)).unwrap();
                stream
            })
            .collect();
        // Two get a block; the others wait for one — in `recv` on their
        // handler threads, or parked off the reactor's interest set.
        eventually("the 64 MiB of staging memory is committed", || {
            telemetry.bml_occupancy.get() == 64 * MIB as i64
        });
        match transport {
            Transport::Threads => eventually("the rest wait in the BML", || {
                telemetry.bml_waiters.get() == STALLED as i64 - 2
            }),
            Transport::Reactor => eventually("the rest are parked", || {
                telemetry.backpressure_events.get() == STALLED as u64 - 2
            }),
        }
        assert_eq!(telemetry.bml_occupancy.get(), 64 * MIB as i64);

        // A parked connection is not polled for readability: more bytes
        // from it do not spin the (level-triggered) loop. Retries ride the
        // 20 ms tick, so 300 ms is a few dozen laps, not thousands.
        if transport == Transport::Reactor {
            for mut stream in &stalled {
                stream.write_all(&[1u8; KIB]).unwrap();
            }
            let laps = telemetry.loop_lag_ns.snapshot().count;
            std::thread::sleep(Duration::from_millis(300));
            let laps = telemetry.loop_lag_ns.snapshot().count - laps;
            assert!(
                laps < 400,
                "{laps} laps in 300 ms: a parked socket is polled"
            );
            assert_eq!(telemetry.backpressure_events.get(), STALLED as u64 - 2);
        }

        // Everyone else is still served: metadata, and the stats plane.
        let mut other = client(addr);
        let fd = other
            .open(
                "/still-served",
                OpenFlags::WRONLY | OpenFlags::CREATE,
                0o644,
            )
            .unwrap();
        other.close(fd).unwrap();
        assert_eq!(other.stat("/still-served").unwrap().size, 0);
        let snapshot = other.query_stats(StatsQuery::Snapshot).unwrap();
        assert!(!snapshot.is_empty());
        other.shutdown().unwrap();

        drop(stalled);
        eventually("dropping the stalled clients frees every block", || {
            telemetry.bml_occupancy.get() == 0 && telemetry.bml_waiters.get() == 0
        });
        server.shutdown();
    }
}
