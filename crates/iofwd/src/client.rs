//! The compute-node side: a POSIX-like client whose every call is
//! forwarded to the ION daemon.
//!
//! On BG/P this role is played by the Compute Node Kernel, which "ships
//! all I/O operations to a dedicated I/O node" (§I). [`Client`] exposes
//! the familiar open/read/write/close veneer; each method builds a
//! request frame, sends it over the connection's transport, and waits for
//! the matching response.
//!
//! With an `AsyncStaged` daemon, writes may return
//! [`WriteOutcome::Staged`]: the data has been copied into ION staging
//! memory and the application may continue computing — the overlap the
//! paper measures. Failures of staged operations surface on a later call
//! on the same descriptor as [`ClientError::Deferred`] (§IV).

use std::io;
use std::time::Instant;

use bytes::Bytes;
use iofwd_proto::{
    DecodeError, Errno, Fd, FileStat, Frame, OpId, OpenFlags, Request, Response, TraceContext,
    TraceExt, Whence,
};

use crate::trace::StageBreakdown;
use crate::transport::Conn;

/// Errors surfaced to the application.
#[derive(Debug)]
pub enum ClientError {
    /// The daemon rejected or failed the operation synchronously.
    Remote(Errno),
    /// A *previous* staged operation on this descriptor failed; the
    /// current operation did not run (§IV deferred-error semantics).
    Deferred { op: OpId, errno: Errno },
    /// Transport failure.
    Io(io::Error),
    /// The daemon replied with something unparseable or mismatched.
    Protocol(String),
    /// The connection closed mid-conversation.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Remote(e) => write!(f, "remote error: {e}"),
            ClientError::Deferred { op, errno } => {
                write!(f, "deferred error from staged {op}: {errno}")
            }
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(s) => write!(f, "protocol error: {s}"),
            ClientError::Closed => f.write_str("connection closed"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

/// How a write completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Executed synchronously; `n` bytes written.
    Completed(u64),
    /// Copied into ION staging memory; executing in the background.
    Staged(OpId),
}

impl WriteOutcome {
    /// Bytes the application may consider written (staged counts in
    /// full — errors, if any, arrive deferred).
    pub fn bytes(&self, requested: u64) -> u64 {
        match self {
            WriteOutcome::Completed(n) => *n,
            WriteOutcome::Staged(_) => requested,
        }
    }
}

/// Client-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    pub requests: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub staged_writes: u64,
}

/// Client-side latency decomposition, accumulated over traced calls
/// whose replies carried a server stage echo. All durations are
/// nanoseconds; server stages come from the daemon's clock, while
/// `client_ns` is this process's wall clock around send→receive — the
/// difference is network + marshalling time, no clock sync needed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Wall-clock time across those calls (send → reply received).
    pub client_ns: u64,
    /// The daemon's echoed stages; `server.ops` counts the calls.
    pub server: StageBreakdown,
}

impl TraceStats {
    /// Client-observed time not accounted to the server: network and
    /// client-side marshalling.
    pub fn network_ns(&self) -> u64 {
        self.client_ns.saturating_sub(self.server.total_ns)
    }
}

/// A forwarded-I/O client over any [`Conn`].
pub struct Client {
    conn: Box<dyn Conn>,
    client_id: u32,
    seq: u64,
    stats: ClientStats,
    max_chunk: usize,
    tracing: bool,
    trace: TraceStats,
}

impl Client {
    /// Wrap an established connection.
    pub fn connect(conn: Box<dyn Conn>) -> Client {
        Self::with_id(conn, 0)
    }

    /// Wrap with an explicit client id (e.g. the compute-node rank).
    pub fn with_id(conn: Box<dyn Conn>, client_id: u32) -> Client {
        Client {
            conn,
            client_id,
            seq: 0,
            stats: ClientStats::default(),
            max_chunk: iofwd_proto::MAX_DATA_LEN as usize,
            tracing: false,
            trace: TraceStats::default(),
        }
    }

    /// Attach a sampled trace context to every subsequent request and
    /// accumulate the daemon's echoed stage breakdowns into
    /// [`Client::trace_stats`]. Trace ids are deterministic:
    /// `(client_id + 1) << 32 | seq`.
    pub fn enable_tracing(&mut self) {
        self.tracing = true;
    }

    /// The accumulated latency decomposition (empty unless
    /// [`Client::enable_tracing`] was called and the daemon echoes
    /// stage breakdowns).
    pub fn trace_stats(&self) -> TraceStats {
        self.trace
    }

    /// Cap the per-frame payload; larger application writes are split
    /// into sequential forwarded operations, exactly as CIOD/ZOID
    /// segment transfers that exceed ION memory (§IV: "For large
    /// transfers, both CIOD and ZOID block the I/O operation till
    /// sufficient memory is present"). Defaults to the protocol's frame
    /// limit.
    pub fn set_max_chunk(&mut self, bytes: usize) {
        assert!(bytes > 0 && bytes as u64 <= iofwd_proto::MAX_DATA_LEN);
        self.max_chunk = bytes;
    }

    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// One forwarded call. `payload` stays the caller's: the transport
    /// puts it on the wire from where it is.
    fn call(&mut self, req: &Request, payload: &[u8]) -> Result<(Response, Bytes), ClientError> {
        debug_assert_eq!(req.expected_payload(), payload.len() as u64);
        self.seq += 1;
        let seq = self.seq;
        self.stats.requests += 1;
        self.stats.bytes_sent += payload.len() as u64;
        let mut frame = Frame::request_head(self.client_id, seq, req);
        let started = if self.tracing {
            let trace_id = (u64::from(self.client_id) + 1) << 32 | (seq & 0xffff_ffff);
            frame = frame.with_ext(TraceExt::Ctx(TraceContext::sampled(trace_id)));
            Some(Instant::now())
        } else {
            None
        };
        self.conn.send_with_payload(frame, payload)?;
        let frame = self.conn.recv()?.ok_or(ClientError::Closed)?;
        if frame.seq != seq {
            return Err(ClientError::Protocol(format!(
                "response out of order: expected seq {seq}, got {}",
                frame.seq
            )));
        }
        if let (Some(started), Some(echo)) = (started, frame.stage_echo()) {
            self.trace.client_ns += started.elapsed().as_nanos() as u64;
            self.trace.server.add_echo(&echo);
        }
        let resp = frame.decode_response()?;
        self.stats.bytes_received += frame.data.len() as u64;
        Ok((resp, frame.data))
    }

    fn expect_ret(&mut self, req: &Request) -> Result<i64, ClientError> {
        match self.call(req, &[])? {
            (Response::Ok { ret }, _) => Ok(ret),
            (Response::Err { errno }, _) => Err(ClientError::Remote(errno)),
            (Response::DeferredErr { op, errno }, _) => Err(ClientError::Deferred { op, errno }),
            (other @ (Response::Staged { .. } | Response::StatOk { .. }), _) => Err(
                ClientError::Protocol(format!("unexpected response {other:?}")),
            ),
        }
    }

    /// Open (or create) a file on the ION's backend.
    pub fn open(&mut self, path: &str, flags: OpenFlags, mode: u32) -> Result<Fd, ClientError> {
        let ret = self.expect_ret(&Request::Open {
            path: path.into(),
            flags,
            mode,
        })?;
        Ok(Fd(ret as u32))
    }

    /// Open a streaming connection to a remote sink through the ION.
    pub fn connect_socket(&mut self, host: &str, port: u16) -> Result<Fd, ClientError> {
        let ret = self.expect_ret(&Request::Connect {
            host: host.into(),
            port,
        })?;
        Ok(Fd(ret as u32))
    }

    /// Write at the cursor. Staged outcomes count as full writes; call
    /// [`Client::write_detailed`] to distinguish.
    pub fn write(&mut self, fd: Fd, data: &[u8]) -> Result<u64, ClientError> {
        let len = data.len() as u64;
        Ok(self.write_detailed(fd, data)?.bytes(len))
    }

    /// Write, reporting whether the daemon staged it asynchronously.
    /// Writes beyond the chunk limit are split; the reported outcome is
    /// the LAST chunk's (all-or-error semantics still hold: any chunk
    /// failure aborts the remainder).
    pub fn write_detailed(&mut self, fd: Fd, data: &[u8]) -> Result<WriteOutcome, ClientError> {
        self.write_chunks(fd, None, data)
    }

    /// Positioned write (split into chunks beyond the frame limit).
    pub fn pwrite(&mut self, fd: Fd, offset: u64, data: &[u8]) -> Result<u64, ClientError> {
        let len = data.len() as u64;
        Ok(self.pwrite_detailed(fd, offset, data)?.bytes(len))
    }

    /// Positioned write, reporting staging.
    pub fn pwrite_detailed(
        &mut self,
        fd: Fd,
        offset: u64,
        data: &[u8],
    ) -> Result<WriteOutcome, ClientError> {
        self.write_chunks(fd, Some(offset), data)
    }

    /// The one write loop: a request per chunk of at most `max_chunk`
    /// bytes (an empty write is one empty request) — a `Pwrite` at
    /// `offset` plus the bytes already sent, or a cursor `Write`.
    fn write_chunks(
        &mut self,
        fd: Fd,
        offset: Option<u64>,
        data: &[u8],
    ) -> Result<WriteOutcome, ClientError> {
        let mut outcome = WriteOutcome::Completed(0);
        let mut sent = 0u64;
        let chunks = data.chunks(self.max_chunk.max(1));
        for chunk in chunks.chain(data.is_empty().then_some(data)) {
            let len = chunk.len() as u64;
            let req = match offset {
                Some(at) => Request::Pwrite {
                    fd,
                    offset: at + sent,
                    len,
                },
                None => Request::Write { fd, len },
            };
            outcome = match self.write_impl(req, chunk)? {
                WriteOutcome::Completed(n) => WriteOutcome::Completed(sent + n),
                staged => staged,
            };
            sent += len;
        }
        Ok(outcome)
    }

    fn write_impl(&mut self, req: Request, data: &[u8]) -> Result<WriteOutcome, ClientError> {
        match self.call(&req, data)? {
            (Response::Ok { ret }, _) => Ok(WriteOutcome::Completed(ret as u64)),
            (Response::Staged { op }, _) => {
                self.stats.staged_writes += 1;
                Ok(WriteOutcome::Staged(op))
            }
            (Response::Err { errno }, _) => Err(ClientError::Remote(errno)),
            (Response::DeferredErr { op, errno }, _) => Err(ClientError::Deferred { op, errno }),
            (other @ Response::StatOk { .. }, _) => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Read from the cursor.
    pub fn read(&mut self, fd: Fd, len: u64) -> Result<Vec<u8>, ClientError> {
        self.read_impl(Request::Read { fd, len })
    }

    /// Positioned read.
    pub fn pread(&mut self, fd: Fd, offset: u64, len: u64) -> Result<Vec<u8>, ClientError> {
        self.read_impl(Request::Pread { fd, offset, len })
    }

    fn read_impl(&mut self, req: Request) -> Result<Vec<u8>, ClientError> {
        match self.call(&req, &[])? {
            (Response::Ok { ret }, data) => {
                if ret as usize != data.len() {
                    return Err(ClientError::Protocol(format!(
                        "read returned {ret} but carried {} bytes",
                        data.len()
                    )));
                }
                // The receive buffer itself, not a copy of it.
                Ok(Vec::from(data))
            }
            (Response::Err { errno }, _) => Err(ClientError::Remote(errno)),
            (Response::DeferredErr { op, errno }, _) => Err(ClientError::Deferred { op, errno }),
            (other @ (Response::Staged { .. } | Response::StatOk { .. }), _) => Err(
                ClientError::Protocol(format!("unexpected response {other:?}")),
            ),
        }
    }

    /// Reposition the descriptor; returns the new offset.
    pub fn lseek(&mut self, fd: Fd, offset: i64, whence: Whence) -> Result<u64, ClientError> {
        let ret = self.expect_ret(&Request::Lseek { fd, offset, whence })?;
        Ok(ret as u64)
    }

    /// Flush the descriptor. In staged mode this is a barrier: all staged
    /// writes complete (or their first error is reported) before it
    /// returns.
    pub fn fsync(&mut self, fd: Fd) -> Result<(), ClientError> {
        self.expect_ret(&Request::Fsync { fd })?;
        Ok(())
    }

    /// Close the descriptor (barriers staged writes, reports deferred
    /// errors).
    pub fn close(&mut self, fd: Fd) -> Result<(), ClientError> {
        self.expect_ret(&Request::Close { fd })?;
        Ok(())
    }

    pub fn stat(&mut self, path: &str) -> Result<FileStat, ClientError> {
        match self.call(&Request::Stat { path: path.into() }, &[])? {
            (Response::StatOk { st }, _) => Ok(st),
            (Response::Err { errno }, _) => Err(ClientError::Remote(errno)),
            (Response::DeferredErr { op, errno }, _) => Err(ClientError::Deferred { op, errno }),
            (other @ (Response::Ok { .. } | Response::Staged { .. }), _) => Err(
                ClientError::Protocol(format!("unexpected response {other:?}")),
            ),
        }
    }

    pub fn fstat(&mut self, fd: Fd) -> Result<FileStat, ClientError> {
        match self.call(&Request::Fstat { fd }, &[])? {
            (Response::StatOk { st }, _) => Ok(st),
            (Response::Err { errno }, _) => Err(ClientError::Remote(errno)),
            (Response::DeferredErr { op, errno }, _) => Err(ClientError::Deferred { op, errno }),
            (other @ (Response::Ok { .. } | Response::Staged { .. }), _) => Err(
                ClientError::Protocol(format!("unexpected response {other:?}")),
            ),
        }
    }

    pub fn unlink(&mut self, path: &str) -> Result<(), ClientError> {
        self.expect_ret(&Request::Unlink { path: path.into() })?;
        Ok(())
    }

    /// Truncate (or zero-extend) an open descriptor. In staged mode this
    /// is ordered after all in-flight staged writes.
    pub fn ftruncate(&mut self, fd: Fd, len: u64) -> Result<(), ClientError> {
        self.expect_ret(&Request::Ftruncate { fd, len })?;
        Ok(())
    }

    /// Create a directory on the daemon's backend.
    pub fn mkdir(&mut self, path: &str, mode: u32) -> Result<(), ClientError> {
        self.expect_ret(&Request::Mkdir {
            path: path.into(),
            mode,
        })?;
        Ok(())
    }

    /// List the entries directly under `path`.
    pub fn readdir(&mut self, path: &str) -> Result<Vec<String>, ClientError> {
        match self.call(&Request::Readdir { path: path.into() }, &[])? {
            (Response::Ok { .. }, data) => {
                iofwd_proto::decode_dirents(&data).map_err(ClientError::from)
            }
            (Response::Err { errno }, _) => Err(ClientError::Remote(errno)),
            (Response::DeferredErr { op, errno }, _) => Err(ClientError::Deferred { op, errno }),
            (other @ (Response::Staged { .. } | Response::StatOk { .. }), _) => Err(
                ClientError::Protocol(format!("unexpected response {other:?}")),
            ),
        }
    }

    /// Query the daemon's live introspection plane: the registry's JSON
    /// snapshot or the flight recorder's spans, per [`StatsQuery`]. The
    /// daemon answers from telemetry memory without entering the work
    /// queue, so this works even while the data path is saturated or
    /// wedged.
    pub fn query_stats(&mut self, query: iofwd_proto::StatsQuery) -> Result<Bytes, ClientError> {
        match self.call(&Request::Stats { query }, &[])? {
            (Response::Ok { .. }, data) => Ok(data),
            (Response::Err { errno }, _) => Err(ClientError::Remote(errno)),
            (Response::DeferredErr { op, errno }, _) => Err(ClientError::Deferred { op, errno }),
            (other @ (Response::Staged { .. } | Response::StatOk { .. }), _) => Err(
                ClientError::Protocol(format!("unexpected response {other:?}")),
            ),
        }
    }

    /// The daemon's live registry, parsed: [`Client::query_stats`] for
    /// [`StatsQuery::Snapshot`](iofwd_proto::StatsQuery::Snapshot) read
    /// back through `TelemetrySnapshot::from_json`.
    pub fn query_snapshot(&mut self) -> Result<crate::telemetry::TelemetrySnapshot, ClientError> {
        let data = self.query_stats(iofwd_proto::StatsQuery::Snapshot)?;
        crate::telemetry::TelemetrySnapshot::from_json(&String::from_utf8_lossy(&data))
            .map_err(|e| ClientError::Protocol(format!("malformed snapshot: {e}")))
    }

    /// The flight recorder's held spans with a ticket `>= after`, as
    /// `(oldest_held, next, [(ticket, span)])`: ask again with `next` for
    /// the ones after these; `oldest_held - after` were overwritten
    /// before this read.
    pub fn query_spans(&mut self, after: u64) -> Result<crate::telemetry::SpanRead, ClientError> {
        let data = self.query_stats(iofwd_proto::StatsQuery::Spans { after })?;
        crate::telemetry::ring::decode_spans(&data)
            .ok_or_else(|| ClientError::Protocol("malformed span read".into()))
    }

    /// Orderly disconnect: tells the daemon this client is done.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect_ret(&Request::Shutdown)?;
        Ok(())
    }
}
