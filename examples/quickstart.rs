//! Quickstart: stand up an ION daemon with asynchronous data staging,
//! forward some I/O through it, observe staging and deferred-error
//! semantics.
//!
//! ```text
//! cargo run -p iofwd-examples --bin quickstart
//! ```

use std::sync::Arc;

use iofwd::backend::MemSinkBackend;
use iofwd::client::{Client, WriteOutcome};
use iofwd::server::{ForwardingMode, IonServer, ServerConfig};
use iofwd::transport::mem::MemHub;
use iofwd_proto::OpenFlags;

fn main() {
    // The "collective network": an in-process hub. Swap for
    // `transport::tcp` to cross machines (see the tcp_forwarding example).
    let hub = MemHub::new();

    // The "file system" the ION writes to.
    let backend = Arc::new(MemSinkBackend::new());

    // The ION daemon: asynchronous data staging + I/O scheduling with a
    // 4-thread worker pool and 64 MiB of BML staging memory (§IV of the
    // paper).
    let server = IonServer::spawn(
        Box::new(hub.listener()),
        backend.clone(),
        ServerConfig::new(ForwardingMode::AsyncStaged {
            workers: 4,
            bml_capacity: 64 << 20,
        }),
    );

    // The "compute node": a POSIX-like client.
    let mut cn = Client::connect(Box::new(hub.connect()));
    let fd = cn
        .open(
            "/science/output.dat",
            OpenFlags::RDWR | OpenFlags::CREATE,
            0o644,
        )
        .expect("open forwarded to the ION");

    // Data writes are *staged*: the call returns as soon as the payload
    // is copied into ION staging memory, and the actual write proceeds
    // in the background while the application computes.
    let chunk = vec![7u8; 1 << 20];
    for i in 0..8 {
        match cn.write_detailed(fd, &chunk).expect("write") {
            WriteOutcome::Staged(op) => println!("write {i}: staged as {op}"),
            WriteOutcome::Completed(n) => println!("write {i}: completed synchronously ({n} B)"),
        }
    }

    // fsync is a barrier: all staged writes are durable (or their first
    // error is reported) when it returns.
    cn.fsync(fd).expect("fsync barrier");
    let st = cn.fstat(fd).expect("fstat");
    println!("file size after barrier: {} MiB", st.size >> 20);

    // Reads see everything the staged writes produced.
    let head = cn.pread(fd, 0, 16).expect("pread");
    assert_eq!(head, vec![7u8; 16]);

    // close is a barrier too, but not a flush: it waits and reports,
    // and leaves durability to the fsync above.
    cn.close(fd).expect("close");
    cn.shutdown().expect("shutdown");

    println!(
        "client: {} requests, {} staged writes",
        cn.stats().requests,
        cn.stats().staged_writes
    );
    let t = server.telemetry();
    println!(
        "daemon: {} ops completed, {} B in, {} staged ops",
        t.ops_completed.get(),
        t.transport_bytes_in.get(),
        t.ops_staged.get()
    );
    println!(
        "BML: {} blocked acquisitions, high water {} MiB",
        t.bml_blocked_acquires.get(),
        t.bml_occupancy.peak() >> 20
    );
    server.shutdown();
    assert_eq!(
        backend.contents("/science/output.dat").unwrap().len(),
        8 << 20
    );
    println!("ok: 8 MiB landed in the backend");
}
