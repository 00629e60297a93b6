//! End-to-end tests of distributed tracing (DESIGN.md §11): a tracing
//! client's stage-echo sums must reproduce the daemon's own telemetry
//! histograms, traced and untraced clients interoperate on the same
//! daemon (wire backward compatibility), spans read back through the
//! stats query render a Perfetto-loadable trace with per-worker tracks,
//! and failed ops land in the flight recorder with their errno and
//! disposition.

use std::sync::Arc;

use iofwd::backend::{Backend, MemSinkBackend};
use iofwd::client::{Client, ClientError};
use iofwd::server::{ForwardingMode, IonServer, ServerConfig};
use iofwd::telemetry::{Disposition, OpSpan, Telemetry};
use iofwd::trace::{render_chrome_trace, validate_chrome_trace, StageBreakdown};
use iofwd::transport::mem::MemHub;
use iofwd::transport::tcp::{TcpAcceptor, TcpConn};
use iofwd_proto::{Errno, OpenFlags};

fn start_with_telemetry(
    mode: ForwardingMode,
    backend: Arc<dyn Backend>,
    telemetry: Arc<Telemetry>,
) -> (IonServer, MemHub) {
    let hub = MemHub::new();
    let server = IonServer::spawn(
        Box::new(hub.listener()),
        backend,
        ServerConfig::new(mode).with_telemetry(telemetry),
    );
    (server, hub)
}

/// `a` is within `pct` percent of `b`, with a small absolute slack so
/// sums in the tens-of-microseconds range (where one scheduler blip on
/// a single op is several percent) don't flake under machine load.
fn within_pct(a: u64, b: u64, pct: f64) -> bool {
    const SLACK_NS: u64 = 20_000;
    a.abs_diff(b) <= SLACK_NS || a.abs_diff(b) as f64 <= b.max(1) as f64 * (pct / 100.0)
}

/// The acceptance bar: for synchronous modes, the client's summed stage
/// echoes must reproduce the daemon's histogram sums within 5%. The
/// reply-before-send design makes them *identical* here — every echoed
/// reply is built from the very span `Telemetry::complete` folds into
/// the histograms — but the test asserts the documented tolerance.
#[test]
fn client_decomposition_matches_daemon_histograms() {
    for mode in [
        ForwardingMode::Ciod,
        ForwardingMode::Zoid,
        ForwardingMode::Sched { workers: 2 },
    ] {
        let telemetry = Arc::new(Telemetry::new());
        let backend = Arc::new(MemSinkBackend::new());
        let (server, hub) = start_with_telemetry(mode, backend, telemetry.clone());
        let mut c = Client::connect(Box::new(hub.connect()));
        c.enable_tracing();

        let fd = c
            .open("/traced", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
            .unwrap();
        for i in 0..32u8 {
            c.write(fd, &vec![i; 8 * 1024]).unwrap();
        }
        c.pread(fd, 0, 4096).unwrap();
        c.fsync(fd).unwrap();
        c.close(fd).unwrap();
        c.shutdown().unwrap();

        let t = c.trace_stats();
        assert!(
            t.calls >= 36,
            "mode {}: echoed {} calls",
            mode.name(),
            t.calls
        );
        let snap = telemetry.snapshot();
        let sum = |name: &str| snap.hist(name).map_or(0, |h| h.sum);
        for (stage, client_side) in [
            ("total_ns", t.server_total_ns),
            ("queue_wait_ns", t.queue_ns),
            ("dispatch_lag_ns", t.dispatch_ns),
            ("service_ns", t.backend_ns),
            ("reply_lag_ns", t.reply_ns),
        ] {
            assert!(
                within_pct(client_side, sum(stage), 5.0),
                "mode {}: {stage}: client sum {client_side} vs daemon sum {} exceeds 5%",
                mode.name(),
                sum(stage)
            );
        }
        // The client's wall clock bounds the server's residency: the
        // decomposition never attributes more time than was observed.
        assert!(t.server_total_ns <= t.client_ns);
        assert!(t.network_ns() + t.server_total_ns == t.client_ns);
        server.shutdown();
    }
}

/// Staged mode echoes the ack-time view: the stage breakdown arrives on
/// the immediate `Staged` ack (before the backend runs), so backend and
/// reply stages are not yet measurable there, but barrier ops (fsync,
/// close) still carry full lifecycles.
#[test]
fn staged_mode_echoes_ack_time_stages() {
    let telemetry = Arc::new(Telemetry::new());
    let backend = Arc::new(MemSinkBackend::new());
    let (server, hub) = start_with_telemetry(
        ForwardingMode::AsyncStaged {
            workers: 2,
            bml_capacity: 8 << 20,
        },
        backend,
        telemetry,
    );
    let mut c = Client::connect(Box::new(hub.connect()));
    c.enable_tracing();
    let fd = c
        .open("/staged", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
        .unwrap();
    for _ in 0..16 {
        c.write(fd, &[7u8; 16 * 1024]).unwrap();
    }
    c.fsync(fd).unwrap();
    c.close(fd).unwrap();
    c.shutdown().unwrap();
    let t = c.trace_stats();
    assert!(t.calls >= 19, "echoed {} calls", t.calls);
    assert!(t.server_total_ns > 0);
    assert!(t.server_total_ns <= t.client_ns);
    server.shutdown();
}

/// Every span the flight recorder holds, read over the stats query the
/// way `iofwd-cp trace ADDR OUT` reads it: from ticket 0, nothing missed.
fn read_spans(reader: &mut Client) -> Vec<OpSpan> {
    let (oldest, next, held) = reader.query_spans(0).expect("span query");
    assert_eq!((oldest, held.len() as u64), (0, next), "ring overflowed");
    held.into_iter().map(|(_, s)| s).collect()
}

/// One daemon, one traced client, one legacy (untraced) client: the
/// optional trace extension must not disturb plain-protocol peers, and
/// the spans read through the stats query must render a schema-valid
/// trace with a track per pool worker — over real TCP framing, where
/// the streaming decoder has to resynchronise on the extension's length.
#[test]
fn tcp_traced_and_untraced_clients_interoperate() {
    let telemetry = Arc::new(Telemetry::new());
    let backend = Arc::new(MemSinkBackend::new());
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let server = IonServer::spawn(
        Box::new(acceptor),
        backend.clone(),
        // Staged, so the writes run on the pool: a synchronous op from
        // a lone client runs on its handler, off every worker track.
        ServerConfig::new(ForwardingMode::AsyncStaged {
            workers: 2,
            bml_capacity: 8 << 20,
        })
        .with_telemetry(telemetry),
    );

    let mut traced = Client::with_id(Box::new(TcpConn::connect(addr).unwrap()), 0);
    traced.enable_tracing();
    let mut plain = Client::with_id(Box::new(TcpConn::connect(addr).unwrap()), 1);

    let payload = vec![3u8; 64 * 1024];
    let tfd = traced
        .open("/t", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
        .unwrap();
    let pfd = plain
        .open("/p", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
        .unwrap();
    for _ in 0..8 {
        traced.write(tfd, &payload).unwrap();
        plain.write(pfd, &payload).unwrap();
    }
    assert_eq!(traced.pread(tfd, 0, 16).unwrap(), vec![3u8; 16]);
    assert_eq!(plain.pread(pfd, 0, 16).unwrap(), vec![3u8; 16]);
    traced.close(tfd).unwrap();
    plain.close(pfd).unwrap();
    traced.shutdown().unwrap();
    plain.shutdown().unwrap();
    // A staged write's span folds on its worker a beat after the close
    // that waited for it has been answered: 2 × (open + 8 + pread + close).
    let mut reader = Client::connect(Box::new(TcpConn::connect(addr).unwrap()));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mut spans = read_spans(&mut reader);
    while spans.len() < 22 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
        spans = read_spans(&mut reader);
    }
    reader.shutdown().unwrap();
    server.shutdown();

    // 11 echoed ops: open + 8 staged acks + pread + close (the shutdown
    // reply carries no echo — it is control traffic, with no span).
    assert!(traced.trace_stats().calls >= 11);
    assert_eq!(plain.trace_stats().calls, 0, "no echoes without tracing");
    assert_eq!(backend.contents("/t").unwrap().len(), 8 * 64 * 1024);
    assert_eq!(backend.contents("/p").unwrap().len(), 8 * 64 * 1024);

    // The reader's `sampled` filter keeps only the traced client's spans,
    // and they render to a schema-valid trace with per-worker tracks.
    assert_eq!(spans.len(), 22, "every op's span reaches the reader");
    let spans: Vec<OpSpan> = spans.into_iter().filter(|s| s.sampled).collect();
    assert_eq!(spans.len(), 11);
    assert!(spans.iter().all(|s| s.trace_id >> 32 == 1));
    let summary = validate_chrome_trace(&render_chrome_trace(&spans)).expect("valid trace");
    assert!(summary.slices > 0);
    assert_eq!(summary.client_tracks, 1);
    assert!(
        summary.worker_tracks >= 1,
        "pool execution must appear on worker tracks"
    );
    // The sampled view agrees with itself when re-aggregated.
    let b = StageBreakdown::from_spans(&spans);
    assert_eq!(b.ops, spans.len() as u64);
    assert!(b.total_ns >= b.backend_ns);
}

/// The flight recorder holds every op, traced or not: an untraced
/// client's spans reach the reader, unflagged.
#[test]
fn self_sampling_traces_untraced_clients() {
    let telemetry = Arc::new(Telemetry::new());
    let backend = Arc::new(MemSinkBackend::new());
    let (server, hub) =
        start_with_telemetry(ForwardingMode::Sched { workers: 2 }, backend, telemetry);
    let mut c = Client::connect(Box::new(hub.connect()));
    let fd = c
        .open("/plain", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
        .unwrap();
    for _ in 0..10 {
        c.write(fd, &[1u8; 4096]).unwrap();
    }
    c.close(fd).unwrap();
    let spans = read_spans(&mut c);
    c.shutdown().unwrap();
    server.shutdown();

    assert_eq!(spans.len(), 12, "open + 10 writes + close");
    assert!(spans.iter().all(|s| s.trace_id == 0 && !s.sampled));
    let summary = validate_chrome_trace(&render_chrome_trace(&spans)).expect("valid trace");
    assert!(summary.slices >= spans.len());
}

/// The flight recorder keeps failed ops with their wire errno and
/// disposition — the post-mortem surface for "which op failed, how".
#[test]
fn flight_recorder_captures_errno_and_disposition() {
    let telemetry = Arc::new(Telemetry::new());
    let backend = Arc::new(MemSinkBackend::new());
    let (server, hub) = start_with_telemetry(ForwardingMode::Zoid, backend, telemetry.clone());
    let mut c = Client::connect(Box::new(hub.connect()));
    let fd = c
        .open("/f", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
        .unwrap();
    c.write(fd, b"ok").unwrap();
    c.close(fd).unwrap();
    // Writing through a closed descriptor must fail with EBADF...
    match c.write(fd, b"stale") {
        Err(ClientError::Remote(Errno::BadF)) => {}
        other => panic!("expected EBADF, got {other:?}"),
    }
    c.shutdown().unwrap();
    server.shutdown();

    // ...and the flight recorder must remember exactly that.
    let flight: Vec<OpSpan> = telemetry
        .flight
        .since(0)
        .2
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let failed: Vec<_> = flight.iter().filter(|s| !s.ok).collect();
    assert_eq!(
        failed.len(),
        1,
        "one failed op in {} recorded",
        flight.len()
    );
    assert_eq!(failed[0].errno, Errno::BadF.to_wire());
    assert_eq!(failed[0].disposition, Disposition::Completed);
    // Successful ops carry no errno.
    assert!(flight.iter().filter(|s| s.ok).all(|s| s.errno == 0));
}
