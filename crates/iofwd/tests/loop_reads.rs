//! Reads on the event loop: the reactor serves a cached positional read
//! on the loop that admitted it, and sends every read that could wait to
//! the worker pool, as if it had never been tried. Either way the client
//! gets the same bytes, and the same errors, as on handler threads.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use iofwd::backend::{Backend, BackendObject, FaultBackend, FileBackend, ThrottledBackend};
use iofwd::client::Client;
use iofwd::fault::{FaultPlan, FaultRule, OpClass};
use iofwd::server::{ForwardingMode, IonServer, ReactorConfig, ServerConfig};
use iofwd::sync::Mutex;
use iofwd::telemetry::{OpKind, OpSpan, Telemetry};
use iofwd::transport::tcp::{TcpAcceptor, TcpConn};
use iofwd_proto::{Errno, FileStat, Frame, OpenFlags, Request, Whence};

const STAGED: ForwardingMode = ForwardingMode::AsyncStaged {
    workers: 2,
    bml_capacity: 64 << 20,
};

/// A fresh directory under the system temp dir, removed on drop.
struct TempRoot(PathBuf);

impl TempRoot {
    fn new(tag: &str) -> TempRoot {
        let dir =
            std::env::temp_dir().join(format!("iofwd-loop-reads-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp root");
        TempRoot(dir)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Whether this filesystem answers a cached no-wait read (tmpfs answers
/// `EOPNOTSUPP`, and every read then goes to the pool).
fn files_read_without_waiting(root: &TempRoot) -> bool {
    let files = FileBackend::new(&root.0);
    let mut f = files
        .open("/probe", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
        .expect("probe");
    f.write_at(Some(0), b"probe").expect("probe write");
    let cached = f.read_nowait_at(0, &mut [0u8; 5]) == Ok(5);
    if !cached {
        eprintln!("no-wait reads unsupported under {:?}: skipped", root.0);
    }
    cached
}

/// A reactor with one event loop, so every connection shares it.
fn reactor(backend: Arc<dyn Backend>, mode: ForwardingMode) -> (IonServer, SocketAddr) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("addr");
    let config = ServerConfig::new(mode).with_telemetry(Arc::new(Telemetry::new()));
    let one_loop = ReactorConfig {
        threads: 1,
        ..ReactorConfig::default()
    };
    let server =
        IonServer::spawn_reactor(acceptor, backend, config, one_loop).expect("spawn reactor");
    (server, addr)
}

fn threads(backend: Arc<dyn Backend>, mode: ForwardingMode) -> (IonServer, SocketAddr) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("addr");
    let config = ServerConfig::new(mode).with_telemetry(Arc::new(Telemetry::new()));
    (IonServer::spawn(Box::new(acceptor), backend, config), addr)
}

fn client(addr: SocketAddr, id: u32) -> Client {
    Client::with_id(Box::new(TcpConn::connect(addr).expect("connect")), id)
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

/// Write `data` to `path` and wait for it to land: the `fsync` barrier
/// runs behind the staged write.
fn populate(c: &mut Client, path: &str, data: &[u8]) -> iofwd_proto::Fd {
    let fd = c
        .open(path, OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
        .expect("open");
    c.pwrite(fd, 0, data).expect("pwrite");
    c.fsync(fd).expect("fsync");
    fd
}

/// The spans of `client`'s reads, oldest first.
fn read_spans(server: &IonServer, client: u32) -> Vec<OpSpan> {
    let (_, _, held) = server.telemetry().flight.since(0);
    let spans = held.into_iter().map(|(_, span)| span);
    spans
        .filter(|s| s.client == u64::from(client) && s.kind == OpKind::Read)
        .collect()
}

/// (a) A cached `pread` on a reactor crosses no thread: it is counted
/// in place, its span has worker 0 and a full lifecycle, and the bytes
/// are the file's.
#[test]
fn a_cached_pread_is_served_on_the_loop() {
    let root = TempRoot::new("cached");
    if !files_read_without_waiting(&root) {
        return;
    }
    let (server, addr) = reactor(Arc::new(FileBackend::new(&root.0)), STAGED);
    let telemetry = server.telemetry();
    let mut c = client(addr, 11);
    let data = pattern(256 << 10);
    let fd = populate(&mut c, "/cached", &data);
    let in_place = telemetry.ops_in_place.get();
    assert_eq!(
        c.pread(fd, 4096, 64 << 10).expect("pread"),
        data[4096..][..64 << 10]
    );
    assert_eq!(telemetry.ops_in_place.get(), in_place + 1);
    let span = *read_spans(&server, 11).last().expect("the read's span");
    assert_eq!((span.worker, span.bytes, span.ok), (0, 64 << 10, true));
    let stamps = [
        span.arrival_ns,
        span.enqueue_ns,
        span.dispatch_ns,
        span.backend_start_ns,
        span.backend_done_ns,
        span.reply_ns,
    ];
    assert!(
        stamps[0] > 0 && stamps.windows(2).all(|w| w[0] <= w[1]),
        "{stamps:?}"
    );
    c.close(fd).expect("close");
    server.shutdown();
}

/// Read `len` bytes at 0 of a populated file through `backend` on a
/// reactor: the bytes, and whether the read ran on a worker and was not
/// counted in place.
fn read_through(backend: Arc<dyn Backend>, len: usize) -> Vec<u8> {
    let (server, addr) = reactor(backend, STAGED);
    let telemetry = server.telemetry();
    let mut c = client(addr, 12);
    let fd = populate(&mut c, "/punted", &pattern(len));
    let in_place = telemetry.ops_in_place.get();
    let got = c.pread(fd, 0, len as u64).expect("pread");
    assert_eq!(
        telemetry.ops_in_place.get(),
        in_place,
        "the read ran on the loop"
    );
    let span = *read_spans(&server, 12).last().expect("the read's span");
    assert!(span.worker > 0, "the read ran on the loop: {span:?}");
    c.close(fd).expect("close");
    server.shutdown();
    got
}

/// (b) Objects that cannot promise a read will not wait keep the
/// default answer, and their reads go to a worker: the throttled and
/// the fault-injecting ones.
#[test]
fn throttled_and_fault_injecting_reads_punt_to_a_worker() {
    let root = TempRoot::new("wrapped");
    let files = || Arc::new(FileBackend::new(&root.0));
    let throttled = ThrottledBackend::new(files(), 1e9, Duration::from_micros(100));
    assert_eq!(read_through(Arc::new(throttled), 8192), pattern(8192));
    let telemetry = Arc::new(Telemetry::new());
    let plan = FaultPlan::new(3).rule(FaultRule::on(OpClass::Read).delay_us(1000));
    let faulty = FaultBackend::new(files(), plan, telemetry.clone());
    assert_eq!(read_through(Arc::new(faulty), 8192), pattern(8192));
    assert!(telemetry.faults_injected.get() > 0, "the read rule fired");
}

/// A one-file memory backend whose no-wait reads answer a short count,
/// then `EAGAIN` (a partly cached range), and whose writes fail `EIO`
/// if `fail_writes`.
struct Scripted {
    data: Arc<Mutex<Vec<u8>>>,
    nowait_calls: Arc<AtomicUsize>,
    fail_writes: bool,
}

impl Scripted {
    fn new(fail_writes: bool) -> Scripted {
        Scripted {
            data: Arc::new(Mutex::new(Vec::new())),
            nowait_calls: Arc::new(AtomicUsize::new(0)),
            fail_writes,
        }
    }
}

struct ScriptedObject {
    data: Arc<Mutex<Vec<u8>>>,
    nowait_calls: Arc<AtomicUsize>,
    fail_writes: bool,
}

impl BackendObject for ScriptedObject {
    fn write_vectored_at(&mut self, offset: Option<u64>, bufs: &[&[u8]]) -> Result<u64, Errno> {
        if self.fail_writes {
            return Err(Errno::Io);
        }
        let mut data = self.data.lock();
        let mut at = offset.unwrap_or(data.len() as u64) as usize;
        for buf in bufs {
            if data.len() < at + buf.len() {
                data.resize(at + buf.len(), 0);
            }
            data[at..at + buf.len()].copy_from_slice(buf);
            at += buf.len();
        }
        Ok(bufs.iter().map(|b| b.len() as u64).sum())
    }

    fn read_into(&mut self, offset: Option<u64>, out: &mut [u8]) -> Result<u64, Errno> {
        let data = self.data.lock();
        let at = (offset.unwrap_or(0) as usize).min(data.len());
        let n = out.len().min(data.len() - at);
        out[..n].copy_from_slice(&data[at..at + n]);
        Ok(n as u64)
    }

    /// Odd calls: half of what is asked for; even calls: `EAGAIN`.
    fn read_nowait_at(&mut self, offset: u64, out: &mut [u8]) -> Result<u64, Errno> {
        if self.nowait_calls.fetch_add(1, Ordering::SeqCst) % 2 == 1 {
            return Err(Errno::Again);
        }
        let half = out.len() / 2;
        self.read_into(Some(offset), &mut out[..half])
    }

    fn seek(&mut self, _: i64, _: Whence) -> Result<u64, Errno> {
        Err(Errno::Inval)
    }

    fn sync(&mut self) -> Result<(), Errno> {
        Ok(())
    }

    fn fstat(&mut self) -> Result<FileStat, Errno> {
        Err(Errno::NoSys)
    }
}

impl Backend for Scripted {
    fn open(&self, _: &str, _: OpenFlags, _: u32) -> Result<Box<dyn BackendObject>, Errno> {
        Ok(Box::new(ScriptedObject {
            data: self.data.clone(),
            nowait_calls: self.nowait_calls.clone(),
            fail_writes: self.fail_writes,
        }))
    }
    fn stat(&self, _: &str) -> Result<FileStat, Errno> {
        Err(Errno::NoSys)
    }
    fn unlink(&self, _: &str) -> Result<(), Errno> {
        Err(Errno::NoSys)
    }
    fn mkdir(&self, _: &str, _: u32) -> Result<(), Errno> {
        Err(Errno::NoSys)
    }
    fn readdir(&self, _: &str) -> Result<Vec<String>, Errno> {
        Err(Errno::NoSys)
    }
}

/// (b) A range only partly at hand: the loop's first call gets half of
/// it, the second `EAGAIN`, and the read goes whole to a worker — the
/// half already read is not sent.
#[test]
fn a_short_count_then_eagain_punts_the_whole_read() {
    let backend = Arc::new(Scripted::new(false));
    let calls = backend.nowait_calls.clone();
    assert_eq!(read_through(backend, 16 << 10), pattern(16 << 10));
    assert_eq!(calls.load(Ordering::SeqCst), 2, "short count, then EAGAIN");
}

/// (b) A descriptor with a deferred error: the loop leaves its report to
/// the pool, whose reply is the same `DeferredErr` — the same op, the
/// same errno — as on handler threads, and nothing was read for it.
#[test]
fn a_pending_deferred_error_is_reported_as_on_threads() {
    let mut replies = Vec::new();
    for spawn in [reactor, threads] {
        let backend = Arc::new(Scripted::new(true));
        let calls = backend.nowait_calls.clone();
        let (server, addr) = spawn(backend, STAGED);
        let telemetry = server.telemetry();
        let mut c = client(addr, 13);
        let fd = c
            .open("/failing", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
            .expect("open");
        c.pwrite(fd, 0, &[1u8; 4096]).expect("staged");
        let deadline = Instant::now() + Duration::from_secs(5);
        while telemetry.deferred_errors.get() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            telemetry.deferred_errors.get(),
            1,
            "the staged write failed"
        );
        replies.push(format!("{:?}", c.pread(fd, 0, 4096).err()));
        assert_eq!(calls.load(Ordering::SeqCst), 0, "no byte was read for it");
        c.close(fd).expect("close");
        // A handler thread serves its client until the client leaves.
        drop(c);
        server.shutdown();
    }
    assert!(replies[0].contains("Deferred"), "{replies:?}");
    assert_eq!(replies[0], replies[1], "reactor vs threads");
}

fn read_frames(stream: &mut TcpStream, n: usize, buf: &mut BytesMut) -> Vec<Frame> {
    let mut out = Vec::new();
    while out.len() < n {
        match Frame::decode(buf).expect("well-formed reply stream") {
            Some((frame, used)) => {
                let _ = buf.split_to(used);
                out.push(frame);
            }
            None => {
                let mut chunk = [0u8; 64 << 10];
                let got = stream.read(&mut chunk).expect("read");
                assert!(got > 0, "server hung up early ({}/{n} replies)", out.len());
                buf.extend_from_slice(&chunk[..got]);
            }
        }
    }
    out
}

/// (c) DESIGN §9 with reads punted: with the one worker wedged in 150 ms
/// reads, a stats query on another connection is answered at once — the
/// loop ran none of the reads.
#[test]
fn stats_are_answered_while_every_worker_is_wedged_in_reads() {
    const READS: u64 = 8;
    let root = TempRoot::new("wedged");
    let telemetry = Arc::new(Telemetry::new());
    let plan = FaultPlan::new(5).rule(FaultRule::on(OpClass::Read).delay_us(150_000));
    let files = Arc::new(FileBackend::new(&root.0));
    let backend = Arc::new(FaultBackend::new(files, plan, telemetry.clone()));
    let mode = ForwardingMode::AsyncStaged {
        workers: 1,
        bml_capacity: 8 << 20,
    };
    let (server, addr) = reactor(backend, mode);
    let mut c = client(addr, 16);
    let fd = populate(&mut c, "/wedged", &pattern(4096));

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let open = Request::Open {
        path: "/wedged".into(),
        flags: OpenFlags::RDONLY,
        mode: 0,
    };
    stream
        .write_all(&Frame::request(17, 0, &open, Bytes::new()).encode())
        .expect("open");
    let mut buf = BytesMut::new();
    let reply = read_frames(&mut stream, 1, &mut buf).remove(0);
    let Ok(iofwd_proto::Response::Ok { ret }) = reply.decode_response() else {
        panic!("open failed: {reply:?}");
    };
    let read_fd = iofwd_proto::Fd(ret as u32);
    let wire: Vec<u8> = (1..=READS)
        .flat_map(|seq| {
            let req = Request::Pread {
                fd: read_fd,
                offset: 0,
                len: 4096,
            };
            Frame::request(17, seq, &req, Bytes::new())
                .encode()
                .to_vec()
        })
        .collect();
    stream.write_all(&wire).expect("pipeline");
    std::thread::sleep(Duration::from_millis(20));

    let asked = Instant::now();
    client(addr, 18).query_snapshot().expect("stats");
    let waited = asked.elapsed();
    assert!(waited < Duration::from_secs(2), "stats waited {waited:?}");
    let started = telemetry.faults_injected.get();
    assert!(started < READS, "the reads were not wedged: {started} done");
    let reads = read_frames(&mut stream, READS as usize, &mut buf);
    for frame in reads {
        assert_eq!(frame.data, Bytes::from(pattern(4096)), "seq {}", frame.seq);
    }
    c.close(fd).expect("close");
    server.shutdown();
}
