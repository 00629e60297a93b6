//! Client-side unit tests against a scripted mock connection: protocol
//! conformance, error mapping, and robustness to a misbehaving daemon;
//! and, over real sockets, what the client's two send paths put on the
//! wire and how its reads hand the receive buffer back.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::sync::Arc;

use bytes::Bytes;
use iofwd::backend::MemSinkBackend;
use iofwd::client::{Client, ClientError, WriteOutcome};
use iofwd::server::{ForwardingMode, IonServer, ReactorConfig, ServerConfig};
use iofwd::sync::Mutex;
use iofwd::telemetry::Telemetry;
use iofwd::transport::tcp::{TcpAcceptor, TcpConn};
use iofwd::transport::Conn;
use iofwd_proto::{
    Errno, Fd, FileStat, Frame, OpId, OpenFlags, Request, Response, TraceContext, TraceExt, Whence,
};

/// A connection whose responses are scripted ahead of time. Each entry
/// is a function of the received request frame.
type Responder = Box<dyn Fn(&Frame) -> Option<Frame> + Send + Sync>;

struct MockConn {
    script: Mutex<VecDeque<Responder>>,
    pending: Mutex<VecDeque<Frame>>,
    sent: Mutex<Vec<Frame>>,
}

impl MockConn {
    fn new(script: Vec<Responder>) -> MockConn {
        MockConn {
            script: Mutex::new(script.into()),
            pending: Mutex::new(VecDeque::new()),
            sent: Mutex::new(Vec::new()),
        }
    }

    fn sent_requests(&self) -> Vec<Request> {
        self.sent
            .lock()
            .iter()
            .map(|f| f.decode_request().unwrap())
            .collect()
    }
}

impl Conn for MockConn {
    fn send(&self, frame: Frame) -> io::Result<()> {
        let responder = self
            .script
            .lock()
            .pop_front()
            .expect("mock: more requests than scripted");
        if let Some(resp) = responder(&frame) {
            self.pending.lock().push_back(resp);
        }
        self.sent.lock().push(frame);
        Ok(())
    }

    fn recv(&self) -> io::Result<Option<Frame>> {
        Ok(self.pending.lock().pop_front())
    }

    fn close(&self) {}
}

/// Respond to any request with the given response, echoing the seq.
fn ok_with(resp: Response) -> Responder {
    Box::new(move |frame| {
        Some(Frame::response(
            frame.client_id,
            frame.seq,
            &resp,
            Bytes::new(),
        ))
    })
}

fn ok_with_data(resp: Response, data: &'static [u8]) -> Responder {
    Box::new(move |frame| {
        Some(Frame::response(
            frame.client_id,
            frame.seq,
            &resp,
            Bytes::from_static(data),
        ))
    })
}

#[test]
fn open_maps_ret_to_fd() {
    let conn = MockConn::new(vec![ok_with(Response::Ok { ret: 7 })]);
    let mut c = Client::connect(Box::new(conn));
    let fd = c.open("/x", OpenFlags::RDONLY, 0).unwrap();
    assert_eq!(fd, Fd(7));
}

#[test]
fn requests_carry_increasing_seq_and_client_id() {
    let conn = Box::new(MockConn::new(vec![
        ok_with(Response::Ok { ret: 3 }),
        ok_with(Response::Ok { ret: 0 }),
    ]));
    let raw: *const MockConn = &*conn;
    let mut c = Client::with_id(conn, 42);
    c.open("/x", OpenFlags::RDONLY, 0).unwrap();
    c.fsync(Fd(3)).unwrap();
    // SAFETY: the client owns the box and outlives this scope, so the
    // pointer taken before the move stays valid; MockConn's interior is
    // mutex-guarded, so the shared reference is sound.
    let mock = unsafe { &*raw };
    let frames = mock.sent.lock();
    assert_eq!(frames[0].seq, 1);
    assert_eq!(frames[1].seq, 2);
    assert!(frames.iter().all(|f| f.client_id == 42));
}

#[test]
fn staged_response_maps_to_write_outcome() {
    let conn = MockConn::new(vec![ok_with(Response::Staged { op: OpId(9) })]);
    let mut c = Client::connect(Box::new(conn));
    match c.write_detailed(Fd(3), b"abc").unwrap() {
        WriteOutcome::Staged(op) => assert_eq!(op, OpId(9)),
        other => panic!("{other:?}"),
    }
    assert_eq!(c.stats().staged_writes, 1);
    assert_eq!(c.stats().bytes_sent, 3);
}

#[test]
fn deferred_error_maps_to_client_error() {
    let conn = MockConn::new(vec![ok_with(Response::DeferredErr {
        op: OpId(4),
        errno: Errno::NoSpc,
    })]);
    let mut c = Client::connect(Box::new(conn));
    match c.write(Fd(3), b"abc") {
        Err(ClientError::Deferred { op, errno }) => {
            assert_eq!(op, OpId(4));
            assert_eq!(errno, Errno::NoSpc);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn remote_errno_maps_to_remote_error() {
    let conn = MockConn::new(vec![ok_with(Response::Err {
        errno: Errno::Access,
    })]);
    let mut c = Client::connect(Box::new(conn));
    match c.open("/forbidden", OpenFlags::RDONLY, 0) {
        Err(ClientError::Remote(Errno::Access)) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn out_of_order_seq_is_protocol_error() {
    let conn = MockConn::new(vec![Box::new(|frame: &Frame| {
        Some(Frame::response(
            frame.client_id,
            frame.seq + 99,
            &Response::Ok { ret: 0 },
            Bytes::new(),
        ))
    })]);
    let mut c = Client::connect(Box::new(conn));
    match c.fsync(Fd(3)) {
        Err(ClientError::Protocol(msg)) => assert!(msg.contains("out of order"), "{msg}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn closed_connection_maps_to_closed() {
    // Responder that produces no response: recv returns None.
    let conn = MockConn::new(vec![Box::new(|_: &Frame| None)]);
    let mut c = Client::connect(Box::new(conn));
    match c.fsync(Fd(3)) {
        Err(ClientError::Closed) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn read_length_mismatch_is_protocol_error() {
    // Daemon claims 10 bytes read but ships 3.
    let conn = MockConn::new(vec![ok_with_data(Response::Ok { ret: 10 }, b"abc")]);
    let mut c = Client::connect(Box::new(conn));
    match c.read(Fd(3), 10) {
        Err(ClientError::Protocol(msg)) => assert!(msg.contains("carried"), "{msg}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn read_returns_payload() {
    let conn = MockConn::new(vec![ok_with_data(Response::Ok { ret: 5 }, b"hello")]);
    let mut c = Client::connect(Box::new(conn));
    assert_eq!(c.read(Fd(3), 64).unwrap(), b"hello");
    assert_eq!(c.stats().bytes_received, 5);
}

#[test]
fn stat_maps_statok() {
    let st = FileStat {
        size: 123,
        mode: 0o644,
        mtime_ns: 9,
        is_dir: false,
    };
    let conn = MockConn::new(vec![ok_with(Response::StatOk { st })]);
    let mut c = Client::connect(Box::new(conn));
    assert_eq!(c.stat("/x").unwrap(), st);
}

#[test]
fn unexpected_response_kind_is_protocol_error() {
    // fsync answered with StatOk.
    let st = FileStat::default();
    let conn = MockConn::new(vec![ok_with(Response::StatOk { st })]);
    let mut c = Client::connect(Box::new(conn));
    assert!(matches!(c.fsync(Fd(3)), Err(ClientError::Protocol(_))));
}

#[test]
fn request_wire_forms_match_api_calls() {
    let conn = Box::new(MockConn::new(vec![
        ok_with(Response::Ok { ret: 3 }),
        ok_with(Response::Staged { op: OpId(1) }),
        ok_with(Response::Ok { ret: 4 }),
        ok_with(Response::Ok { ret: 0 }),
        ok_with(Response::Ok { ret: 0 }),
    ]));
    let raw: *const MockConn = &*conn;
    let mut c = Client::connect(conn);
    let fd = c
        .open("/f", OpenFlags::WRONLY | OpenFlags::CREATE, 0o600)
        .unwrap();
    c.pwrite(fd, 4096, b"data").unwrap();
    c.lseek(fd, -1, Whence::End).unwrap();
    c.close(fd).unwrap();
    c.shutdown().unwrap();
    // SAFETY: the client owns the box and outlives this scope, so the
    // pointer taken before the move stays valid; MockConn's interior is
    // mutex-guarded, so the shared reference is sound.
    let mock = unsafe { &*raw };
    let reqs = mock.sent_requests();
    assert_eq!(
        reqs,
        vec![
            Request::Open {
                path: "/f".into(),
                flags: OpenFlags::WRONLY | OpenFlags::CREATE,
                mode: 0o600
            },
            Request::Pwrite {
                fd: Fd(3),
                offset: 4096,
                len: 4
            },
            Request::Lseek {
                fd: Fd(3),
                offset: -1,
                whence: Whence::End
            },
            Request::Close { fd: Fd(3) },
            Request::Shutdown,
        ]
    );
}

// ---------------------------------------------------------------------
// By-reference send: `Conn::send_with_payload`, default and override.
// ---------------------------------------------------------------------

/// A transport that implements only what `Conn` requires, so the
/// client's sends take the trait's default `send_with_payload`: copy the
/// payload into the frame, then `send`.
struct ByValue(TcpConn);

impl Conn for ByValue {
    fn send(&self, frame: Frame) -> io::Result<()> {
        self.0.send(frame)
    }
    fn recv(&self) -> io::Result<Option<Frame>> {
        self.0.recv()
    }
    fn close(&self) {
        self.0.close()
    }
}

fn connect(addr: std::net::SocketAddr, by_value: bool) -> Box<dyn Conn> {
    let conn = TcpConn::connect(addr).expect("connect");
    if by_value {
        Box::new(ByValue(conn))
    } else {
        Box::new(conn)
    }
}

/// Accept one connection, record every byte it sends, and acknowledge
/// each complete request (found with the reference decoder) with `Ok`.
fn capture_wire(listener: TcpListener) -> Vec<u8> {
    let (mut stream, _) = listener.accept().expect("accept");
    let (mut wire, mut parsed) = (Vec::new(), 0);
    let mut chunk = vec![0u8; 256 << 10];
    loop {
        while let Some((req, used)) = Frame::decode(&wire[parsed..]).expect("valid request") {
            parsed += used;
            let ok = Frame::response(
                req.client_id,
                req.seq,
                &Response::Ok { ret: 0 },
                Bytes::new(),
            );
            stream.write_all(&ok.encode()).expect("reply");
        }
        match stream.read(&mut chunk).expect("read") {
            0 => return wire,
            n => wire.extend_from_slice(&chunk[..n]),
        }
    }
}

#[test]
fn default_and_by_reference_sends_put_the_encoded_frame_on_the_wire() {
    let sizes = [
        0,
        1,
        4096,
        Frame::SPLIT_SEND_MIN - 1,
        Frame::SPLIT_SEND_MIN,
        1 << 20,
    ];
    for by_value in [true, false] {
        for tracing in [false, true] {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let server = std::thread::spawn(move || capture_wire(listener));
            let mut c = Client::with_id(connect(addr, by_value), 5);
            if tracing {
                c.enable_tracing();
            }
            let mut expect = Vec::new();
            let mut sent = 0u64;
            for (i, len) in sizes.into_iter().enumerate() {
                let data: Vec<u8> = (0..len).map(|b| (b * 31 + i) as u8).collect();
                let seq = i as u64 * 2 + 1;
                let calls = [
                    (
                        Request::Pwrite {
                            fd: Fd(3),
                            offset: 9,
                            len: len as u64,
                        },
                        &data[..],
                    ),
                    (Request::Fsync { fd: Fd(3) }, &[][..]),
                ];
                c.pwrite(Fd(3), 9, &data).expect("pwrite");
                c.fsync(Fd(3)).expect("fsync");
                for (k, (req, payload)) in calls.into_iter().enumerate() {
                    let seq = seq + k as u64;
                    let mut f = Frame::request(5, seq, &req, Bytes::copy_from_slice(payload));
                    if tracing {
                        f = f.with_ext(TraceExt::Ctx(TraceContext::sampled(6 << 32 | seq)));
                    }
                    expect.extend_from_slice(&f.encode());
                }
                sent += len as u64;
            }
            assert_eq!(c.stats().bytes_sent, sent, "payload bytes counted once");
            assert_eq!(c.stats().requests, 2 * sizes.len() as u64);
            drop(c);
            let wire = server.join().expect("capture thread");
            assert!(
                wire == expect,
                "by_value={by_value} tracing={tracing}: wire image differs from Frame::encode \
                 ({} vs {} bytes)",
                wire.len(),
                expect.len()
            );
        }
    }
}

#[test]
fn both_send_paths_count_the_payload_once_at_both_ends() {
    const LEN: usize = 1 << 20;
    let block: Vec<u8> = (0..LEN).map(|b| (b % 251) as u8).collect();
    for reactor in [false, true] {
        for by_value in [true, false] {
            let telemetry = Arc::new(Telemetry::new());
            let config = ServerConfig::new(ForwardingMode::AsyncStaged {
                workers: 1,
                bml_capacity: 4 << 20,
            })
            .with_telemetry(telemetry.clone());
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
            let addr = acceptor.local_addr().expect("addr");
            let backend = Arc::new(MemSinkBackend::new());
            let server = if reactor {
                IonServer::spawn_reactor(acceptor, backend, config, ReactorConfig::default())
                    .expect("spawn reactor")
            } else {
                IonServer::spawn(Box::new(acceptor), backend, config)
            };
            let mut c = Client::with_id(connect(addr, by_value), 11);
            let fd = c
                .open("/once", OpenFlags::CREATE | OpenFlags::RDWR, 0o644)
                .expect("open");
            assert_eq!(c.pwrite(fd, 0, &block).expect("pwrite"), LEN as u64);
            assert_eq!(
                c.pwrite(fd, LEN as u64, &block[..100]).expect("pwrite"),
                100
            );
            let back = c.pread(fd, 0, LEN as u64).expect("pread");
            assert!(back == block, "read back what was written");
            c.close(fd).expect("close");
            c.shutdown().expect("shutdown");
            let label = format!("reactor={reactor} by_value={by_value}");
            let (out, back_in) = (LEN as u64 + 100, LEN as u64);
            assert_eq!(c.stats().bytes_sent, out, "{label}");
            assert_eq!(c.stats().bytes_received, back_in, "{label}");
            server.shutdown();
            assert_eq!(telemetry.transport_bytes_in.get(), out, "{label}");
            assert_eq!(telemetry.transport_bytes_out.get(), back_in, "{label}");
            let row = telemetry.client_stats(11).expect("enabled registry");
            assert_eq!(row.bytes_in.get(), out, "{label}");
            assert_eq!(row.bytes_out.get(), back_in, "{label}");
        }
    }
}

/// Records where the payload of the last received frame lives.
struct Spy {
    inner: TcpConn,
    payload_at: Arc<Mutex<usize>>,
}

impl Conn for Spy {
    fn send(&self, frame: Frame) -> io::Result<()> {
        self.inner.send(frame)
    }
    fn recv(&self) -> io::Result<Option<Frame>> {
        let frame = self.inner.recv()?;
        if let Some(f) = &frame {
            *self.payload_at.lock() = f.data.as_ptr() as usize;
        }
        Ok(frame)
    }
    fn close(&self) {
        self.inner.close()
    }
}

#[test]
fn read_hands_back_the_receive_buffer_itself() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let conn = TcpConn::from_stream(stream).expect("conn");
        while let Some(req) = conn.recv().expect("recv") {
            let Request::Pread { len, .. } = req.decode_request().expect("request") else {
                panic!("only preads are scripted");
            };
            let data = Bytes::from(vec![0xa5u8; len as usize]);
            let resp = Response::Ok { ret: len as i64 };
            conn.send(Frame::response(req.client_id, req.seq, &resp, data))
                .expect("send");
        }
    });
    let payload_at = Arc::new(Mutex::new(0usize));
    let spy = Spy {
        inner: TcpConn::connect(addr).expect("connect"),
        payload_at: payload_at.clone(),
    };
    let mut c = Client::connect(Box::new(spy));
    // Above and below the split threshold: either way the frame's payload
    // is the only owner of exact-size storage, and `pread` returns it.
    for len in [1usize << 20, Frame::SPLIT_SEND_MIN, 4096] {
        let got = c.pread(Fd(3), 0, len as u64).expect("pread");
        assert_eq!(got.len(), len);
        assert_eq!(
            got.as_ptr() as usize,
            *payload_at.lock(),
            "{len}-byte read was copied"
        );
        assert_eq!(got.capacity(), len);
    }
    drop(c);
    server.join().expect("server");
}
