//! Receiving into the pool, end to end over TCP and on both transports: a
//! large payload is charged to the BML once — before its first byte is
//! read, until its last byte is written — and that charge comes back on
//! every way out (completion, backend error, refused descriptor, shutdown
//! drain, a client that dies mid-payload); and staging memory is capped
//! for bytes in flight, so clients that announce payloads and stall hold a
//! bounded number of blocks while everyone else is still served.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use iofwd::backend::{Backend, FaultBackend, MemSinkBackend, ThrottledBackend};
use iofwd::client::{Client, ClientError};
use iofwd::fault::{FaultPlan, FaultRule, OpClass};
use iofwd::server::{ForwardingMode, IonServer, ReactorConfig, ServerConfig};
use iofwd::telemetry::Telemetry;
use iofwd::transport::tcp::{TcpAcceptor, TcpConn};
use iofwd_proto::{Errno, Fd, Frame, OpenFlags, Request, StatsQuery};

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

#[test]
fn shutdown_mid_burst_reports_and_returns_every_received_block() {
    // `fault_robustness::kill_during_load_strands_no_bml_buffer`, over TCP:
    // the backlog's payloads sit in the blocks they were received into.
    const CHUNK: usize = 64 * KIB;
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
