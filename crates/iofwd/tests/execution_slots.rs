//! §IV's bound, end to end: the work queue caps how many ops execute at
//! once at `workers`, whether a worker runs an op or the thread that
//! dispatched it runs it in place under a free execution slot. Eight TCP
//! clients drive mixed `pwrite`/`pread` traffic with read-back checks,
//! then one client alone reads every file back, through both pool modes
//! on both transports against a backend whose every data call takes a
//! millisecond. The backend never sees more than two calls at once with
//! two workers, while both paths carry traffic.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use iofwd::backend::{Backend, BackendObject, MemSinkBackend};
use iofwd::client::Client;
use iofwd::server::{ForwardingMode, IonServer, ReactorConfig, ServerConfig};
use iofwd::transport::tcp::{TcpAcceptor, TcpConn};
use iofwd_proto::{Errno, Fd, FileStat, OpenFlags, Whence};

const WORKERS: usize = 2;
const CLIENTS: u32 = 8;
const BLOCK: usize = 4096;
const BLOCKS: u64 = 8;
const OPS: u64 = 48;

/// Data calls currently inside the backend, and the most there ever were.
#[derive(Default)]
struct Concurrency {
    now: AtomicUsize,
    peak: AtomicUsize,
}

impl Concurrency {
    /// One data call: counted in, about a millisecond of device time,
    /// then the real call, counted out.
    fn call<T>(&self, op: impl FnOnce() -> T) -> T {
        let inside = self.now.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(inside, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(1));
        let out = op();
        self.now.fetch_sub(1, Ordering::SeqCst);
        out
    }
}

/// A memory sink whose `read_into` / `write_at` go through [`Concurrency`].
struct SlowSink {
    inner: MemSinkBackend,
    calls: Arc<Concurrency>,
}

struct SlowObject {
    inner: Box<dyn BackendObject>,
    calls: Arc<Concurrency>,
}

impl BackendObject for SlowObject {
    fn write_at(&mut self, offset: Option<u64>, data: &[u8]) -> Result<u64, Errno> {
        let inner = &mut self.inner;
        self.calls.call(|| inner.write_at(offset, data))
    }
    fn read_into(&mut self, offset: Option<u64>, out: &mut [u8]) -> Result<u64, Errno> {
        let inner = &mut self.inner;
        self.calls.call(|| inner.read_into(offset, out))
    }
    fn seek(&mut self, offset: i64, whence: Whence) -> Result<u64, Errno> {
        self.inner.seek(offset, whence)
    }
    fn sync(&mut self) -> Result<(), Errno> {
        self.inner.sync()
    }
    fn fstat(&mut self) -> Result<FileStat, Errno> {
        self.inner.fstat()
    }
}

impl Backend for SlowSink {
    fn open(
        &self,
        path: &str,
        flags: OpenFlags,
        mode: u32,
    ) -> Result<Box<dyn BackendObject>, Errno> {
        Ok(Box::new(SlowObject {
            inner: self.inner.open(path, flags, mode)?,
            calls: self.calls.clone(),
        }))
    }
    fn stat(&self, path: &str) -> Result<FileStat, Errno> {
        self.inner.stat(path)
    }
    fn unlink(&self, path: &str) -> Result<(), Errno> {
        self.inner.unlink(path)
    }
    fn mkdir(&self, path: &str, mode: u32) -> Result<(), Errno> {
        self.inner.mkdir(path, mode)
    }
    fn readdir(&self, path: &str) -> Result<Vec<String>, Errno> {
        self.inner.readdir(path)
    }
}

/// The contents of `block` after its `version`-th write by `client`.
fn pattern(client: u32, block: u64, version: u64) -> Vec<u8> {
    let seed = (client as u64) << 40 | block << 20 | version;
    (0..BLOCK as u64)
        .map(|i| (seed.wrapping_mul(0x9E37_79B9) ^ i) as u8)
        .collect()
}

fn connect(addr: SocketAddr, client: u32) -> Client {
    Client::with_id(Box::new(TcpConn::connect(addr).expect("connect")), client)
}

/// Read `block` of the file open on `fd` and check it is `want`.
fn check(c: &mut Client, fd: Fd, block: u64, want: &[u8]) {
    let got = c
        .pread(fd, block * BLOCK as u64, BLOCK as u64)
        .expect("pread");
    assert!(got == want, "block {block} read back wrong");
}

/// One client's traffic on its own file: writes round a ring of blocks,
/// every third op reading back (and checking) the block written last.
/// Returns what each block should now hold.
fn drive(addr: SocketAddr, client: u32) -> Vec<Vec<u8>> {
    let mut c = connect(addr, client);
    let flags = OpenFlags::RDWR | OpenFlags::CREATE;
    let fd = c.open(&format!("/c{client}"), flags, 0o644).expect("open");
    let mut latest = vec![Vec::new(); BLOCKS as usize];
    let mut last = 0;
    for i in 0..OPS {
        if i % 3 == 2 {
            check(&mut c, fd, last, &latest[last as usize]);
            continue;
        }
        last = i % BLOCKS;
        let data = pattern(client, last, i);
        let n = c.pwrite(fd, last * BLOCK as u64, &data).expect("pwrite");
        assert_eq!(n, BLOCK as u64);
        latest[last as usize] = data;
    }
    c.fsync(fd).expect("fsync reports no deferred error");
    c.close(fd).expect("close");
    c.shutdown().expect("shutdown");
    latest
}

#[test]
fn at_most_workers_ops_execute_at_once_on_either_path() {
    for mode in [
        ForwardingMode::Sched { workers: WORKERS },
        ForwardingMode::AsyncStaged {
            workers: WORKERS,
            bml_capacity: 4 << 20,
        },
    ] {
        for reactor in [false, true] {
            let arm = format!(
                "{}/{}",
                mode.name(),
                if reactor { "reactor" } else { "threads" }
            );
            let calls = Arc::new(Concurrency::default());
            let backend = Arc::new(SlowSink {
                inner: MemSinkBackend::new(),
                calls: calls.clone(),
            });
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
            let addr = acceptor.local_addr().expect("addr");
            let config = ServerConfig::new(mode);
            let server = if reactor {
                IonServer::spawn_reactor(acceptor, backend, config, ReactorConfig::default())
                    .expect("spawn reactor")
            } else {
                IonServer::spawn(Box::new(acceptor), backend, config)
            };
            // Eight clients keep both slots busy, so most of their ops
            // cross to a worker...
            let files: Vec<Vec<Vec<u8>>> = std::thread::scope(|scope| {
                let clients: Vec<_> = (1..=CLIENTS)
                    .map(|client| scope.spawn(move || drive(addr, client)))
                    .collect();
                clients.into_iter().map(|h| h.join().unwrap()).collect()
            });
            // ...while one client alone meets an idle pool, and its reads
            // run where they are dispatched.
            let mut c = connect(addr, CLIENTS + 1);
            for (client, blocks) in (1..).zip(&files) {
                let fd = c
                    .open(&format!("/c{client}"), OpenFlags::RDONLY, 0)
                    .expect("open");
                for (block, want) in (0..).zip(blocks) {
                    check(&mut c, fd, block, want);
                }
                c.close(fd).expect("close");
            }
            c.shutdown().expect("shutdown");
            let in_place = server.telemetry().ops_in_place.get();
            let (enqueued, _) = server.queue_stats().expect("a pool mode");
            server.shutdown();

            let peak = calls.peak.load(Ordering::SeqCst);
            assert!(peak <= WORKERS, "{arm}: {peak} backend calls at once");
            assert!(enqueued > 0, "{arm}: nothing crossed to a worker");
            if reactor && matches!(mode, ForwardingMode::Sched { .. }) {
                // The event loop must not execute ops: it pushes them all.
                assert_eq!(in_place, 0, "{arm}: an event loop ran an op");
            } else {
                assert!(in_place > 0, "{arm}: nothing ran in place");
            }
        }
    }
}
