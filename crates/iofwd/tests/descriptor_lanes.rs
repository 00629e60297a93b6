//! Ordering on one descriptor without a thread that waits for it: in
//! staged mode every op on a descriptor takes its turn in the
//! descriptor's lane, behind the writes staged before it; an op admitted
//! after a `close` of its descriptor is refused `EBADF`, so no write is
//! acknowledged and then dropped; and in every mode a `close` leaves an
//! op another connection has in flight on the same descriptor to finish,
//! as POSIX `close` does.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use iofwd::backend::{FaultBackend, MemSinkBackend};
use iofwd::client::{Client, ClientError, WriteOutcome};
use iofwd::fault::FaultPlan;
use iofwd::server::{ForwardingMode, IonServer, ReactorConfig, ServerConfig};
use iofwd::telemetry::Telemetry;
use iofwd::transport::mem::MemHub;
use iofwd::transport::tcp::{TcpAcceptor, TcpConn};
use iofwd::transport::Conn;
use iofwd_proto::{Errno, Fd, Frame, OpId, OpenFlags, Request, Response};

fn start(mode: ForwardingMode, plan: &str) -> (IonServer, MemHub) {
    let backend = FaultBackend::new(
        Arc::new(MemSinkBackend::new()),
        FaultPlan::parse(plan).expect("valid plan"),
        Arc::new(Telemetry::disabled()),
    );
    let hub = MemHub::new();
    let server = IonServer::spawn(
        Box::new(hub.listener()),
        Arc::new(backend),
        ServerConfig::new(mode),
    );
    (server, hub)
}

/// One worker, kept busy for 20 ms by a staged write to another file,
/// so the writes staged next on the descriptor under test wait in the
/// queue while the ops after them arrive.
fn staged_behind_a_busy_worker() -> (IonServer, Client) {
    let (server, hub) = start(
        ForwardingMode::AsyncStaged {
            workers: 1,
            bml_capacity: 64 << 10,
        },
        "on write nth=1 delay_us=20000",
    );
    let mut c = Client::connect(Box::new(hub.connect()));
    let flags = OpenFlags::RDWR | OpenFlags::CREATE;
    let other = c.open("/busy", flags, 0o644).expect("open");
    c.write(other, &[0u8; 512]).expect("blocker write");
    (server, c)
}

#[test]
fn a_write_past_the_largest_bml_class_lands_after_the_writes_staged_before_it() {
    let (server, mut c) = staged_behind_a_busy_worker();
    let fd = c
        .open("/ab", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
        .expect("open");
    let a = vec![0xaa; 4 << 10];
    let b = vec![0xbb; 128 << 10];
    assert!(matches!(
        c.write_detailed(fd, &a).expect("write A"),
        WriteOutcome::Staged(_)
    ));
    // Past the 64 KiB BML's largest class: not staged, run synchronously
    // — after A, at the cursor A leaves.
    assert_eq!(
        c.write_detailed(fd, &b).expect("write B"),
        WriteOutcome::Completed(b.len() as u64)
    );
    c.fsync(fd).expect("fsync");
    let back = c
        .pread(fd, 0, (a.len() + b.len()) as u64)
        .expect("read back");
    assert!(back == [a, b].concat(), "cursor writes landed out of order");
    c.close(fd).expect("close");
    c.shutdown().expect("shutdown");
    server.shutdown();
}

#[test]
fn fstat_sees_the_writes_staged_before_it() {
    let (server, mut c) = staged_behind_a_busy_worker();
    let fd = c
        .open("/grown", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
        .expect("open");
    assert!(matches!(
        c.write_detailed(fd, &[7u8; 4096]).expect("write"),
        WriteOutcome::Staged(_)
    ));
    assert_eq!(c.fstat(fd).expect("fstat").size, 4096);
    c.close(fd).expect("close");
    c.shutdown().expect("shutdown");
    server.shutdown();
}

/// Client 1's `pread` is held in the backend for half a second; client 2
/// closes the same descriptor number meanwhile. The close does not wait
/// for the read, the read still completes on the object it began on,
/// nothing panics, and every gauge comes back to zero.
#[test]
fn closing_a_descriptor_another_connection_is_using() {
    for mode in [ForwardingMode::Sched { workers: 2 }, ForwardingMode::Zoid] {
        let label = mode.name();
        let (server, hub) = start(mode, "on read delay_us=500000");
        let mut owner = Client::with_id(Box::new(hub.connect()), 1);
        let mut other = Client::with_id(Box::new(hub.connect()), 2);
        let fd = owner
            .open("/shared", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
            .expect("open");
        owner.write(fd, &[3u8; 4096]).expect("write");
        let read_done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let got = owner.pread(fd, 0, 4096);
                read_done.store(true, Ordering::SeqCst);
                got
            });
            std::thread::sleep(Duration::from_millis(100));
            other.close(fd).expect("close by the other connection");
            assert!(
                !read_done.load(Ordering::SeqCst),
                "{label}: close waited for the read"
            );
            let got = reader.join().expect("reader panicked");
            assert_eq!(
                got.expect("the read is answered"),
                vec![3u8; 4096],
                "{label}"
            );
        });
        owner.shutdown().expect("shutdown");
        other.shutdown().expect("shutdown");
        let telemetry = server.telemetry();
        server.shutdown();
        assert_eq!(telemetry.inflight_ops.get(), 0, "{label}");
        assert_eq!(telemetry.open_descriptors.get(), 0, "{label}");
    }
}

/// A staged daemon over TCP, on the reactor or on threads, whose device
/// holds every write for `delay_us`; its address, its memory sink and its
/// registry.
fn staged_daemon(
    reactor: bool,
    delay_us: u32,
) -> (IonServer, String, Arc<MemSinkBackend>, Arc<Telemetry>) {
    let sink = Arc::new(MemSinkBackend::new());
    let plan = FaultPlan::parse(&format!("on write delay_us={delay_us}")).expect("valid plan");
    let backend = Arc::new(FaultBackend::new(
        sink.clone(),
        plan,
        Arc::new(Telemetry::disabled()),
    ));
    let telemetry = Arc::new(Telemetry::new());
    let config = ServerConfig::new(ForwardingMode::AsyncStaged {
        workers: 2,
        bml_capacity: 1 << 20,
    })
    .with_telemetry(telemetry.clone());
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("addr").to_string();
    let server = if reactor {
        IonServer::spawn_reactor(acceptor, backend, config, ReactorConfig::default())
            .expect("spawn reactor")
    } else {
        IonServer::spawn(Box::new(acceptor), backend, config)
    };
    (server, addr, sink, telemetry)
}

/// After shutdown nothing is left charged, in flight or open.
fn assert_settled(telemetry: &Telemetry, label: &str) {
    assert_eq!(telemetry.bml_occupancy.get(), 0, "{label}");
    assert_eq!(telemetry.inflight_ops.get(), 0, "{label}");
    assert_eq!(telemetry.open_descriptors.get(), 0, "{label}");
}

/// `open`, then — once it is answered — `pwrite(0); close;
/// pwrite(4096)` sent back to back on one connection before any reply
/// is read, against a 200 ms device: the replies in `seq` order, and the
/// bytes that reached the backend.
fn pipelined_close(reactor: bool) -> (Vec<Response>, usize) {
    let (server, addr, sink, telemetry) = staged_daemon(reactor, 200_000);
    let conn = TcpConn::connect(addr).expect("connect");
    let reply = || {
        let frame = conn.recv().expect("recv").expect("a reply per frame");
        let resp = frame.decode_response().expect("well-formed reply");
        (frame.seq, resp)
    };
    let open = Request::Open {
        path: "/raced".into(),
        flags: OpenFlags::RDWR | OpenFlags::CREATE,
        mode: 0o644,
    };
    conn.send(Frame::request(5, 1, &open, Bytes::new()))
        .expect("send");
    let (_, opened) = reply();
    let Response::Ok { ret } = opened else {
        panic!("open failed: {opened:?}");
    };
    let fd = Fd(ret as u32);
    let pwrite = |offset| Request::Pwrite {
        fd,
        offset,
        len: 4096,
    };
    let frames = [
        (pwrite(0), Bytes::from(vec![1u8; 4096])),
        (Request::Close { fd }, Bytes::new()),
        (pwrite(4096), Bytes::from(vec![2u8; 4096])),
    ];
    for (seq, (req, data)) in (2..).zip(frames) {
        conn.send(Frame::request(5, seq, &req, data)).expect("send");
    }
    let mut replies = vec![Some(opened), None, None, None];
    for _ in 0..3 {
        let (seq, resp) = reply();
        replies[seq as usize - 1] = Some(resp);
    }
    drop(conn);
    server.shutdown();
    let label = if reactor { "reactor" } else { "threads" };
    assert_settled(&telemetry, label);
    let landed = sink.contents("/raced").map_or(0, |c| c.len());
    (replies.into_iter().map(Option::unwrap).collect(), landed)
}

/// A write pipelined behind its descriptor's close is refused `EBADF` at
/// admission on both drivers, never acked `Staged` and then dropped:
/// both drivers answer the one frame stream alike, and every write
/// acked `Staged` reaches the backend.
#[test]
fn a_write_pipelined_behind_a_close_is_refused_on_both_drivers() {
    let expected = vec![
        Response::Ok { ret: 3 },
        Response::Staged { op: OpId::FIRST },
        Response::Ok { ret: 0 },
        Response::Err { errno: Errno::BadF },
    ];
    for reactor in [true, false] {
        let (replies, landed) = pipelined_close(reactor);
        assert_eq!(replies, expected, "reactor={reactor}");
        let staged = replies
            .iter()
            .filter(|r| matches!(r, Response::Staged { .. }))
            .count();
        assert_eq!(landed, staged * 4096, "reactor={reactor}");
    }
}

/// Connection B closes a descriptor while A's first write to it is held
/// in the backend, and A writes again: on threads, B's close waits in
/// the lane behind A's write, and A's second write, admitted after the
/// close, is refused `EBADF` rather than acked and lost.
#[test]
fn a_write_admitted_after_another_connections_close_is_refused() {
    let (server, addr, sink, telemetry) = staged_daemon(false, 500_000);
    let connect = |id| Client::with_id(Box::new(TcpConn::connect(&addr).expect("connect")), id);
    let (mut a, mut b) = (connect(1), connect(2));
    let fd = a
        .open("/shared", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
        .expect("open");
    assert!(matches!(
        a.pwrite_detailed(fd, 0, &[1u8; 4096]).expect("first write"),
        WriteOutcome::Staged(_)
    ));
    let closed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let closer = scope.spawn(|| {
            let got = b.close(fd);
            closed.store(true, Ordering::SeqCst);
            got
        });
        // A's open and write, then B's close: once the daemon has
        // received it, its handler joins the close to the lane behind the
        // held write at once; nothing counts that step, so allow it 50 ms
        // of the write's 500.
        let deadline = Instant::now() + Duration::from_secs(5);
        while telemetry.frames_in.get() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(50));
        let late = a.pwrite_detailed(fd, 4096, &[2u8; 4096]);
        assert!(
            !closed.load(Ordering::SeqCst),
            "the close returned before the held write landed"
        );
        assert!(
            matches!(late, Err(ClientError::Remote(Errno::BadF))),
            "a write admitted after the close: {late:?}"
        );
        closer.join().expect("closer panicked").expect("close");
    });
    assert_eq!(sink.contents("/shared"), Some(vec![1u8; 4096]));
    a.shutdown().expect("shutdown");
    b.shutdown().expect("shutdown");
    server.shutdown();
    assert_settled(&telemetry, "threads");
}
