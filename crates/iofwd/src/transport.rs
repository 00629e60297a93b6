//! Transports: how frames move between a compute-node client and the ION
//! daemon.
//!
//! On a real BG/P this hop is the collective (tree) network; here it is
//! pluggable: [`mem`] provides an in-process channel transport (the
//! default for tests and single-host examples), and [`tcp`] carries the
//! same frames over TCP for multi-host deployments.
//!
//! On the daemon's end both receive every write payload into a BML block
//! ([`Conn::receive_into`]), waiting in `recv` while the pool is full:
//! that is where staging memory is charged, once, on either transport.

use std::io;

use bytes::Bytes;
use iofwd_proto::Frame;

/// One end of a bidirectional frame connection.
///
/// `recv` blocks until a frame arrives; `Ok(None)` means the peer closed
/// cleanly. Implementations must allow `send` and `recv` from different
/// threads (`&self` receivers with interior mutability).
pub trait Conn: Send + Sync {
    fn send(&self, frame: Frame) -> io::Result<()>;
    /// Send `frame` (whose `data` is empty) with `payload` as its data,
    /// from the caller's buffer where the transport can: the wire image is
    /// that of `Frame { data: payload, ..frame }`. A transport that hands
    /// frames over by value copies the payload into one and `send`s it.
    fn send_with_payload(&self, frame: Frame, payload: &[u8]) -> io::Result<()> {
        // HOTPATH: the by-value fallback; `TcpConn` sends by reference.
        let data = Bytes::copy_from_slice(payload);
        self.send(Frame { data, ..frame })
    }
    fn recv(&self) -> io::Result<Option<Frame>>;
    /// Daemon side: from now on receive every payload into a block of
    /// `pool` ([`Bml::receive_storage`](crate::bml::Bml::receive_storage)),
    /// waiting in `recv` for one when the pool is full. Both transports
    /// do; the default, which keeps payloads where they arrive, serves
    /// connection wrappers outside the daemon.
    fn receive_into(&self, _pool: &crate::bml::Bml) {}
    /// Close both directions; subsequent `recv` on the peer returns `None`.
    fn close(&self);
}

/// Server-side accept source.
pub trait Listener: Send + Sync {
    /// Block for the next client connection; `Ok(None)` means the
    /// listener was shut down.
    fn accept(&self) -> io::Result<Option<Box<dyn Conn>>>;
    /// Unblock any pending `accept` and refuse new connections.
    fn shutdown(&self);
}

pub mod mem {
    //! In-process transport over the `std` channels of [`crate::sync`].
    //!
    //! [`MemHub`] plays the role of the collective network: clients call
    //! [`MemHub::connect`], servers accept from [`MemHub::listener`].

    use super::{Conn, Listener};
    use crate::bml::Bml;
    use crate::sync::{channel, Mutex, Receiver, RecvTimeoutError, Sender};
    use iofwd_proto::{Frame, Storage};
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};
    use std::time::Duration;

    /// One endpoint of an in-memory connection.
    pub struct MemConn {
        tx: Sender<Frame>,
        /// Locked because a `std` receiver is not `Sync`; only the
        /// endpoint's reading thread takes it.
        rx: Mutex<Receiver<Frame>>,
        /// The daemon's end: the pool each payload is copied into.
        pool: OnceLock<Bml>,
    }

    impl Conn for MemConn {
        fn send(&self, frame: Frame) -> io::Result<()> {
            self.tx
                .send(frame)
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"))
        }

        fn recv(&self) -> io::Result<Option<Frame>> {
            let Ok(mut frame) = self.rx.lock().recv() else {
                return Ok(None);
            };
            let pool = self.pool.get().filter(|_| !frame.data.is_empty());
            if let Some(Storage::Block(mut block)) =
                pool.map(|pool| pool.receive_storage(frame.data.len(), true))
            {
                // HOTPATH: the one copy of a by-value payload, into the
                // block it is staged in.
                block.as_mut_slice().copy_from_slice(&frame.data);
                frame.data = block.freeze();
            }
            Ok(Some(frame))
        }

        fn receive_into(&self, pool: &Bml) {
            let _ = self.pool.set(pool.clone());
        }

        fn close(&self) {
            // Dropping our sender would be ideal, but we only have &self;
            // sending is refused by the peer's disconnect when both sides
            // drop. Explicit close is modeled by dropping the endpoints.
        }
    }

    /// Build a directly-connected pair (client end, server end).
    pub fn pair() -> (MemConn, MemConn) {
        let (atx, arx) = channel();
        let (btx, brx) = channel();
        let conn = |tx, rx| MemConn {
            tx,
            rx: Mutex::new(rx),
            pool: OnceLock::new(),
        };
        (conn(atx, brx), conn(btx, arx))
    }

    /// Rendezvous point connecting clients to a server accept loop.
    pub struct MemHub {
        conn_tx: Sender<MemConn>,
        /// Shared by every listener: a `std` receiver cannot be cloned.
        conn_rx: Arc<Mutex<Receiver<MemConn>>>,
    }

    impl Default for MemHub {
        fn default() -> Self {
            Self::new()
        }
    }

    impl MemHub {
        pub fn new() -> Self {
            let (conn_tx, conn_rx) = channel();
            MemHub {
                conn_tx,
                conn_rx: Arc::new(Mutex::new(conn_rx)),
            }
        }

        /// Client side: open a connection to the hub's listener.
        pub fn connect(&self) -> MemConn {
            let (client, server) = pair();
            // If the listener is gone the returned endpoint simply reads
            // EOF on first use — the same thing a real daemon's client
            // sees, so no need to panic here.
            let _ = self.conn_tx.send(server);
            client
        }

        /// Server side: the accept source.
        pub fn listener(&self) -> MemListener {
            MemListener {
                rx: self.conn_rx.clone(),
                closed: AtomicBool::new(false),
            }
        }
    }

    /// Accept side of a [`MemHub`].
    pub struct MemListener {
        rx: Arc<Mutex<Receiver<MemConn>>>,
        closed: AtomicBool,
    }

    impl Listener for MemListener {
        fn accept(&self) -> io::Result<Option<Box<dyn Conn>>> {
            loop {
                if self.closed.load(Ordering::Acquire) {
                    return Ok(None);
                }
                match self.rx.lock().recv_timeout(Duration::from_millis(50)) {
                    Ok(c) => return Ok(Some(Box::new(c))),
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return Ok(None),
                }
            }
        }

        fn shutdown(&self) {
            self.closed.store(true, Ordering::Release);
        }
    }
}

pub mod tcp {
    //! TCP transport: length-delimited frames over a stream socket.

    use super::{Conn, Listener};
    use crate::bml::Bml;
    use crate::sync::{BlockingGuard, Mutex, MutexGuard};
    use iofwd_proto::{Frame, FrameReader};
    use std::io::{self, Write};
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
    use std::os::fd::{AsRawFd, RawFd};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

    /// A frame connection over a `TcpStream`.
    pub struct TcpConn {
        write: Mutex<TcpStream>,
        /// The receive side; with a pool (the daemon's end), large
        /// payloads land in its blocks.
        read: Mutex<(TcpStream, FrameReader, Option<Bml>)>,
    }

    impl TcpConn {
        pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpConn> {
            let stream = TcpStream::connect(addr)?;
            Self::from_stream(stream)
        }

        pub fn from_stream(stream: TcpStream) -> io::Result<TcpConn> {
            stream.set_nodelay(true)?;
            let read = stream.try_clone()?;
            Ok(TcpConn {
                write: Mutex::new(stream),
                read: Mutex::new((read, FrameReader::default(), None)),
            })
        }

        /// The one write site: the write half, taken to block on its socket.
        fn writer(&self) -> MutexGuard<'_, TcpStream> {
            let w = self.write.lock();
            w.blocking("a socket write");
            w
        }
    }

    /// Drain a header + payload pair with vectored writes, never
    /// gathering them into one buffer. The payload goes to the kernel
    /// from wherever it already lives (the application's buffer, a
    /// receive buffer, a BML slab) — a contiguous `encode()` image would
    /// re-copy it first, a per-byte tax that rivals the backend write
    /// itself for megabyte frames.
    fn write_all_split(w: &mut impl Write, mut head: &[u8], mut body: &[u8]) -> io::Result<()> {
        while !head.is_empty() || !body.is_empty() {
            let bufs = [io::IoSlice::new(head), io::IoSlice::new(body)];
            match w.write_vectored(&bufs) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) if n <= head.len() => head = &head[n..],
                Ok(n) => {
                    body = &body[n - head.len()..];
                    head = &[];
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    impl Conn for TcpConn {
        fn send(&self, frame: Frame) -> io::Result<()> {
            if frame.data.len() >= Frame::SPLIT_SEND_MIN {
                let header = frame.encode_header();
                return write_all_split(&mut *self.writer(), &header, &frame.data);
            }
            let wire = frame.encode();
            self.writer().write_all(&wire)
        }

        fn send_with_payload(&self, frame: Frame, payload: &[u8]) -> io::Result<()> {
            let header = frame.encode_header_for(payload.len());
            write_all_split(&mut *self.writer(), &header, payload)
        }

        fn recv(&self) -> io::Result<Option<Frame>> {
            let mut read = self.read.lock();
            read.blocking("a socket read");
            let (stream, reader, pool) = &mut *read;
            match pool {
                // "The I/O operation is blocked until ... sufficient
                // memory is available" (§IV) — before the payload is read.
                Some(pool) => {
                    reader.read_frame_with(stream, &mut |len| pool.receive_storage(len, true))
                }
                None => reader.read_frame(stream),
            }
        }

        fn receive_into(&self, pool: &Bml) {
            self.read.lock().2 = Some(pool.clone());
        }

        fn close(&self) {
            let _ = self.write.lock().shutdown(std::net::Shutdown::Both);
        }
    }

    /// Accept side over a `TcpListener`.
    ///
    /// Two modes share this type: the threaded server calls the blocking
    /// [`Listener::accept`] (a real blocking `accept(2)` — no poll/sleep
    /// dance — unblocked by a self-connection from [`Listener::shutdown`]),
    /// and the reactor puts the listener in nonblocking mode, registers
    /// its fd with the poller, and drains it with
    /// [`TcpAcceptor::try_accept_stream`].
    ///
    /// For chaos testing, [`TcpAcceptor::set_accept_fault`] makes every
    /// Nth accept fail with a synthetic `EMFILE` *before* touching the
    /// kernel — the pending connection stays in the backlog and succeeds
    /// on the retry, so a surviving accept path loses no clients.
    pub struct TcpAcceptor {
        listener: TcpListener,
        closed: AtomicBool,
        /// Inject a synthetic EMFILE on every Nth accept (0 = off).
        fault_every: AtomicU64,
        accept_seq: AtomicU64,
    }

    impl TcpAcceptor {
        pub fn bind(addr: impl ToSocketAddrs) -> io::Result<TcpAcceptor> {
            let listener = TcpListener::bind(addr)?;
            Ok(TcpAcceptor {
                listener,
                closed: AtomicBool::new(false),
                fault_every: AtomicU64::new(0),
                accept_seq: AtomicU64::new(0),
            })
        }

        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            self.listener.local_addr()
        }

        /// Fail every `every`-th accept attempt with a synthetic EMFILE
        /// (0 disables). The failure fires before the kernel accept, so
        /// no real connection is consumed by it.
        pub fn set_accept_fault(&self, every: u64) {
            self.fault_every.store(every, Ordering::Relaxed);
        }

        /// Switch the underlying listener between blocking (threaded
        /// accept loop) and nonblocking (reactor poll registration).
        pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
            self.listener.set_nonblocking(nonblocking)
        }

        pub fn is_shut_down(&self) -> bool {
            self.closed.load(Ordering::Acquire)
        }

        fn injected_fault(&self) -> Option<io::Error> {
            let every = self.fault_every.load(Ordering::Relaxed);
            if every == 0 {
                return None;
            }
            let seq = self.accept_seq.fetch_add(1, Ordering::Relaxed) + 1;
            // EMFILE: "too many open files" — the classic fd-exhaustion
            // failure the accept loop must survive.
            seq.is_multiple_of(every)
                .then(|| io::Error::from_raw_os_error(24))
        }

        /// Nonblocking accept for the reactor: `Ok(None)` means no
        /// connection is pending right now (WouldBlock); transient
        /// errors (including injected faults) surface as `Err` for the
        /// caller to count and retry.
        pub fn try_accept_stream(&self) -> io::Result<Option<TcpStream>> {
            if self.is_shut_down() {
                return Ok(None);
            }
            if let Some(e) = self.injected_fault() {
                return Err(e);
            }
            match self.listener.accept() {
                Ok((stream, _)) => Ok(Some(stream)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            }
        }

        /// Blocking accept of the raw stream; `Ok(None)` on shutdown.
        fn accept_stream(&self) -> io::Result<Option<TcpStream>> {
            if self.is_shut_down() {
                return Ok(None);
            }
            if let Some(e) = self.injected_fault() {
                return Err(e);
            }
            let (stream, _) = self.listener.accept()?;
            if self.is_shut_down() {
                // This is (or raced with) the wake connection from
                // `shutdown()`; drop it and report an orderly stop.
                return Ok(None);
            }
            Ok(Some(stream))
        }
    }

    impl AsRawFd for TcpAcceptor {
        fn as_raw_fd(&self) -> RawFd {
            self.listener.as_raw_fd()
        }
    }

    impl Listener for TcpAcceptor {
        fn accept(&self) -> io::Result<Option<Box<dyn Conn>>> {
            match self.accept_stream()? {
                Some(stream) => Ok(Some(Box::new(TcpConn::from_stream(stream)?))),
                None => Ok(None),
            }
        }

        fn shutdown(&self) {
            if self.closed.swap(true, Ordering::AcqRel) {
                return;
            }
            // Unblock a thread parked in accept(2) by connecting to
            // ourselves; the accept path re-checks `closed` after every
            // accept, so the wake connection is dropped on arrival. If
            // nobody is blocked the connection just sits in the backlog
            // until the listener is dropped — harmless either way.
            if let Ok(addr) = self.listener.local_addr() {
                let target = SocketAddr::new(
                    match addr.ip() {
                        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
                        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
                        ip => ip,
                    },
                    addr.port(),
                );
                let _ = TcpStream::connect_timeout(&target, Duration::from_millis(200));
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::mem::{pair, MemHub};
    use super::tcp::{TcpAcceptor, TcpConn};
    use super::{Conn, Listener};
    use crate::bml::{Bml, BmlBuffer};
    use bytes::Bytes;
    use iofwd_proto::{Fd, Frame, Request};
    use std::time::Duration;

    fn frame(seq: u64) -> Frame {
        Frame::request(
            1,
            seq,
            &Request::Write { fd: Fd(3), len: 4 },
            Bytes::from_static(b"abcd"),
        )
    }

    #[test]
    fn mem_pair_roundtrip() {
        let (a, b) = pair();
        a.send(frame(1)).unwrap();
        let got = b.recv().unwrap().unwrap();
        assert_eq!(got.seq, 1);
        assert_eq!(&got.data[..], b"abcd");
        b.send(frame(2)).unwrap();
        assert_eq!(a.recv().unwrap().unwrap().seq, 2);
    }

    #[test]
    fn mem_recv_none_after_peer_drop() {
        let (a, b) = pair();
        drop(a);
        assert!(b.recv().unwrap().is_none());
    }

    #[test]
    fn mem_hub_connects_client_to_listener() {
        let hub = MemHub::new();
        let listener = hub.listener();
        let client = hub.connect();
        let t = std::thread::spawn(move || {
            let conn = listener.accept().unwrap().unwrap();
            let f = conn.recv().unwrap().unwrap();
            conn.send(f).unwrap();
        });
        client.send(frame(9)).unwrap();
        assert_eq!(client.recv().unwrap().unwrap().seq, 9);
        t.join().unwrap();
    }

    #[test]
    fn mem_listener_shutdown_unblocks_accept() {
        let hub = MemHub::new();
        let listener = hub.listener();
        listener.shutdown();
        assert!(listener.accept().unwrap().is_none());
    }

    #[test]
    fn tcp_roundtrip() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let conn = acceptor.accept().unwrap().unwrap();
            while let Some(f) = conn.recv().unwrap() {
                conn.send(f).unwrap();
            }
        });
        let client = TcpConn::connect(addr).unwrap();
        for seq in 0..5 {
            client.send(frame(seq)).unwrap();
            let echo = client.recv().unwrap().unwrap();
            assert_eq!(echo.seq, seq);
            assert_eq!(&echo.data[..], b"abcd");
        }
        client.close();
        t.join().unwrap();
    }

    #[test]
    fn tcp_acceptor_shutdown() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        acceptor.shutdown();
        assert!(acceptor.accept().unwrap().is_none());
    }

    #[test]
    fn tcp_shutdown_unblocks_blocked_accept() {
        let acceptor = std::sync::Arc::new(TcpAcceptor::bind("127.0.0.1:0").unwrap());
        let blocked = acceptor.clone();
        let t = std::thread::spawn(move || blocked.accept().unwrap().is_none());
        // Let the thread park in accept(2), then wake it via shutdown.
        std::thread::sleep(Duration::from_millis(50));
        acceptor.shutdown();
        assert!(t.join().unwrap(), "accept should report orderly shutdown");
    }

    #[test]
    fn tcp_accept_fault_fires_before_the_kernel_accept() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        acceptor.set_accept_fault(1); // every accept attempt fails
        let client = std::thread::spawn(move || TcpConn::connect(addr).unwrap());
        let err = match acceptor.accept() {
            Err(e) => e,
            Ok(_) => panic!("expected injected accept fault"),
        };
        assert_eq!(err.raw_os_error(), Some(24), "expected synthetic EMFILE");
        // The client's handshake completed into the backlog untouched:
        // once the fault clears, the same connection is accepted.
        acceptor.set_accept_fault(0);
        let server = acceptor.accept().unwrap().unwrap();
        let c = client.join().unwrap();
        c.send(frame(42)).unwrap();
        assert_eq!(server.recv().unwrap().unwrap().seq, 42);
    }

    #[test]
    fn tcp_large_frame_crosses_reads() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let big = vec![7u8; 1 << 20];
        let expect = big.clone();
        let t = std::thread::spawn(move || {
            let conn = acceptor.accept().unwrap().unwrap();
            let f = conn.recv().unwrap().unwrap();
            assert_eq!(&f.data[..], &expect[..]);
        });
        let client = TcpConn::connect(addr).unwrap();
        let f = Frame::request(
            1,
            1,
            &Request::Write {
                fd: Fd(3),
                len: big.len() as u64,
            },
            Bytes::from(big),
        );
        client.send(f).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn tcp_received_payloads_pin_no_more_than_their_bml_class() {
        // A staged write's payload is charged to the BML as one block of
        // its size class, and the storage behind it must not be larger
        // than that, whichever side of the split threshold. The daemon's
        // end receives each one into a pool block; the client's end, which
        // has no pool, owns exact-size heap.
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let client = TcpConn::connect(addr).unwrap();
        let server = acceptor.accept().unwrap().unwrap();
        let bml = Bml::new(4 << 20);
        server.receive_into(&bml);
        for (seq, len) in [4096usize, 64 << 10, 1 << 20].into_iter().enumerate() {
            let req = Request::Write {
                fd: Fd(3),
                len: len as u64,
            };
            let head = Frame::request_head(1, seq as u64, &req);
            client
                .send_with_payload(head.clone(), &vec![7u8; len])
                .unwrap();
            let frame = server.recv().unwrap().unwrap();
            assert_eq!(frame.data.len(), len);
            let class_bytes = Bml::class_for(len).1;
            // Charged on receipt, once; staging takes the block over.
            assert_eq!(bml.outstanding(), class_bytes as u64);
            let at = frame.data.as_ptr();
            let echo = frame.data.to_vec();
            let block = BmlBuffer::from_payload(frame.data).expect("a pool block");
            assert_eq!(block.as_slice().as_ptr(), at, "staged where it landed");
            assert_eq!((block.len(), block.block_size()), (len, class_bytes));
            assert_eq!(bml.outstanding(), class_bytes as u64);
            drop(block);
            assert_eq!(bml.outstanding(), 0);
            // The other way: the client's end has no pool.
            server.send_with_payload(head, &echo).unwrap();
            let back = client.recv().unwrap().unwrap();
            assert_eq!(back.data, echo[..]);
            assert_pins_at_most_its_bml_class(back.data);
            assert_eq!(bml.outstanding(), 0);
        }
    }

    /// `data` must be the only owner of its storage, and that storage no
    /// larger than the BML size class an adopted payload is charged as.
    pub(crate) fn assert_pins_at_most_its_bml_class(data: Bytes) {
        let (len, at) = (data.len(), data.as_ptr());
        let storage = Vec::from(data);
        assert_eq!(storage.as_ptr(), at, "the payload owns its storage alone");
        let (_, class_bytes) = Bml::class_for(len);
        assert!(
            storage.capacity() <= class_bytes,
            "{len}-byte payload pins {} bytes, its BML class charges {class_bytes}",
            storage.capacity()
        );
    }
}
