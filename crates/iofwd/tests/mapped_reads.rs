//! A large `pread` that a threaded handler runs over TCP answers with a
//! mapping of the file's window, which the kernel copies out inside the
//! send. What that must keep: a write queued behind the read on its
//! descriptor lands only once the reply is in the socket, so the reply
//! holds the bytes the read saw (pinned on both drivers); and a file
//! truncated while the reply is being copied still yields a whole frame —
//! the bytes still mapped, then zeros — on a connection that goes on
//! serving.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use iofwd::backend::FileBackend;
use iofwd::client::{Client, WriteOutcome};
use iofwd::server::{ForwardingMode, IonServer, ReactorConfig, ServerConfig};
use iofwd::transport::tcp::{TcpAcceptor, TcpConn};
use iofwd::transport::Conn;
use iofwd_proto::{Fd, Frame, OpenFlags, Request, Response};

const MIB: usize = 1 << 20;
/// The read's window: far more than loopback socket buffers hold while
/// the reader reads nothing, so most of the reply is copied out late.
const LEN: usize = 32 * MIB;
const OLD: u8 = 0xab;

/// A staged daemon over TCP, on threads or the reactor, serving a root
/// that holds `/x`: `LEN` bytes of `OLD`.
fn start(reactor: bool, tag: &str) -> (IonServer, SocketAddr, PathBuf) {
    let root = std::env::temp_dir().join(format!("iofwd-mapped-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("root");
    std::fs::write(root.join("x"), vec![OLD; LEN]).expect("file");
    let backend = Arc::new(FileBackend::new(&root));
    let config = ServerConfig::new(ForwardingMode::AsyncStaged {
        workers: 2,
        bml_capacity: 64 << 20,
    });
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("addr");
    let server = if reactor {
        IonServer::spawn_reactor(acceptor, backend, config, ReactorConfig::default())
            .expect("spawn reactor")
    } else {
        IonServer::spawn(Box::new(acceptor), backend, config)
    };
    (server, addr, root)
}

/// `pread(fd, 0, LEN)` on a raw connection that reads none of its reply:
/// returns once the reply's first byte has arrived, so the read has run
/// and its reply is filling the socket buffers.
fn read_left_unread(addr: SocketAddr, fd: Fd) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let pread = Request::Pread {
        fd,
        offset: 0,
        len: LEN as u64,
    };
    let frame = Frame::request(1, 1, &pread, Bytes::new());
    stream.write_all(&frame.encode()).expect("send");
    stream.peek(&mut [0u8; 1]).expect("the reply begins");
    stream
}

/// The next frame on `conn`: its response and payload.
fn reply(conn: &TcpConn) -> (Response, Bytes) {
    let frame = conn.recv().expect("a whole frame").expect("not closed");
    (frame.decode_response().expect("a response"), frame.data)
}

/// Where the first byte other than `want` sits in `data`, if one does.
fn first_not(data: &[u8], want: u8) -> Option<usize> {
    data.iter().position(|&b| b != want)
}

/// Connection A's `pread` of the whole file heads the descriptor's lane,
/// and its reply waits in the socket; B then writes new bytes at the
/// window's far end and `fsync`s. A reads its reply once B's `fsync` has
/// returned — the write has landed — or 200 ms have passed, and it holds
/// only the old bytes: the write waits in the lane until the reply is in
/// the socket.
#[test]
fn a_write_queued_behind_a_read_leaves_its_reply_alone_on_both_drivers() {
    const NEW: u8 = 0x5c;
    for reactor in [false, true] {
        let (server, addr, root) = start(reactor, &format!("war-{reactor}"));
        let mut b = Client::with_id(Box::new(TcpConn::connect(addr).expect("connect")), 2);
        let fd = b.open("/x", OpenFlags::RDWR, 0).expect("open");
        let a = TcpConn::from_stream(read_left_unread(addr, fd)).expect("conn");
        let at = (LEN - MIB) as u64;
        let (synced_tx, synced) = std::sync::mpsc::channel();
        let writer = std::thread::spawn(move || {
            let staged = b.pwrite_detailed(fd, at, &vec![NEW; MIB]).expect("write");
            assert!(matches!(staged, WriteOutcome::Staged(_)), "{staged:?}");
            b.fsync(fd).expect("fsync");
            let _ = synced_tx.send(());
            b
        });
        let _ = synced.recv_timeout(Duration::from_millis(200));
        let (resp, data) = reply(&a);
        assert_eq!(resp, Response::Ok { ret: LEN as i64 }, "reactor={reactor}");
        assert_eq!(data.len(), LEN, "reactor={reactor}");
        assert_eq!(
            first_not(&data, OLD),
            None,
            "reactor={reactor}: the reply holds bytes written after the read"
        );
        let mut b = writer.join().expect("writer panicked");
        let landed = b.pread(fd, at, MIB as u64).expect("read back");
        assert!(
            landed == vec![NEW; MIB],
            "reactor={reactor}: the write was lost"
        );
        b.close(fd).expect("close");
        b.shutdown().expect("shutdown");
        drop(a);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// The file is shrunk through a descriptor of its own while the mapped
/// reply of a whole-file `pread` waits in the socket. The reader still
/// gets a whole frame: the bytes below the new end, what the socket
/// buffers held before the truncation, then zeros to the frame's end. The
/// same connection then serves its next op.
#[test]
fn a_file_truncated_under_a_mapped_reply_yields_a_whole_frame_then_zeros() {
    const KEPT: usize = 24 * MIB;
    let (server, addr, root) = start(false, "truncated");
    let mut c = Client::with_id(Box::new(TcpConn::connect(addr).expect("connect")), 2);
    let fd = c.open("/x", OpenFlags::RDONLY, 0).expect("open");
    let a = TcpConn::from_stream(read_left_unread(addr, fd)).expect("conn");
    let shrink = std::fs::OpenOptions::new().write(true).open(root.join("x"));
    shrink
        .and_then(|f| f.set_len(KEPT as u64))
        .expect("truncate");
    let (resp, data) = reply(&a);
    assert_eq!(resp, Response::Ok { ret: LEN as i64 });
    assert_eq!(data.len(), LEN);
    let zeros_from = data.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    assert!(
        (KEPT..LEN).contains(&zeros_from),
        "no zeros past the new end: nonzero bytes run to {zeros_from}"
    );
    assert_eq!(first_not(&data[..zeros_from], OLD), None);
    let fstat = Frame::request(1, 2, &Request::Fstat { fd }, Bytes::new());
    a.send(fstat).expect("send the next op");
    match reply(&a).0 {
        Response::StatOk { st } => assert_eq!(st.size, KEPT as u64),
        other => panic!("the next op: {other:?}"),
    }
    c.close(fd).expect("close");
    c.shutdown().expect("shutdown");
    drop(a);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
