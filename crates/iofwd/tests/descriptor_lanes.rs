//! Ordering on one descriptor without a thread that waits for it: in
//! staged mode every op on a descriptor takes its turn in the
//! descriptor's lane, behind the writes staged before it, and in every
//! mode a `close` leaves an op another connection has in flight on the
//! same descriptor to finish, as POSIX `close` does.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use iofwd::backend::{FaultBackend, MemSinkBackend};
use iofwd::client::{Client, WriteOutcome};
use iofwd::fault::FaultPlan;
use iofwd::server::{ForwardingMode, IonServer, ServerConfig};
use iofwd::telemetry::Telemetry;
use iofwd::transport::mem::MemHub;
use iofwd_proto::OpenFlags;

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
