//! Multi-client I/O forwarding over TCP: the daemon listens on a real
//! socket; N client threads (stand-ins for compute nodes) forward their
//! I/O concurrently, exactly as a pset shares its ION.
//!
//! ```text
//! cargo run -p iofwd-examples --release --bin tcp_forwarding [clients] [MiB-per-client]
//! ```

use std::sync::Arc;
use std::time::Instant;

use iofwd::backend::MemSinkBackend;
use iofwd::client::Client;
use iofwd::server::{ForwardingMode, IonServer, ServerConfig};
use iofwd::transport::tcp::{TcpAcceptor, TcpConn};
use iofwd_proto::OpenFlags;

fn main() {
    let mut args = std::env::args().skip(1);
    let clients: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let mib_per_client: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(64);

    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("local addr");
    println!("ION daemon listening on {addr} (AsyncStaged, 4 workers)");

    let backend = Arc::new(MemSinkBackend::new());
    let server = IonServer::spawn(
        Box::new(acceptor),
        backend.clone(),
        ServerConfig::new(ForwardingMode::AsyncStaged {
            workers: 4,
            bml_capacity: 256 << 20,
        }),
    );

    let chunk = 1 << 20; // 1 MiB operations, like the paper's microbenchmark
    let start = Instant::now();
    std::thread::scope(|s| {
        for rank in 0..clients {
            s.spawn(move || {
                let conn = TcpConn::connect(addr).expect("connect");
                let mut cn = Client::with_id(Box::new(conn), rank as u32);
                let fd = cn
                    .open(
                        &format!("/rank-{rank}.dat"),
                        OpenFlags::WRONLY | OpenFlags::CREATE,
                        0o644,
                    )
                    .expect("open");
                let data = vec![rank as u8; chunk];
                for _ in 0..mib_per_client {
                    cn.write(fd, &data).expect("write");
                }
                cn.close(fd).expect("close"); // barrier, not a flush: staged writes drain
                cn.shutdown().expect("shutdown");
            });
        }
    });
    let elapsed = start.elapsed();
    let total_mib = (clients * mib_per_client) as f64;
    println!(
        "{clients} clients x {mib_per_client} MiB = {total_mib} MiB in {:.2?} -> {:.0} MiB/s",
        elapsed,
        total_mib / elapsed.as_secs_f64()
    );

    let t = server.telemetry();
    println!(
        "daemon: {} ops completed, {} staged ops, {} B in",
        t.ops_completed.get(),
        t.ops_staged.get(),
        t.transport_bytes_in.get()
    );
    server.shutdown();
    for rank in 0..clients {
        let f = backend
            .contents(&format!("/rank-{rank}.dat"))
            .expect("file exists");
        assert_eq!(f.len(), mib_per_client << 20);
    }
    println!("ok: all files verified");
}
