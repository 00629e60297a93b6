//! Request execution shared by every forwarding mode: CIOD proxies, ZOID
//! handler threads, and scheduled workers all funnel through
//! [`Engine::execute`], so mode differences are purely *who runs it and
//! when* — exactly the paper's framing of the design space.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use iofwd_proto::{Errno, Fd, Frame, Request, Response};
use simcore::rng::SimRng;

use crate::backend::{Backend, BackendObject};
use crate::bml::Bml;
use crate::descdb::{BeginError, DescDb, OpOutcome, SharedObject};
use crate::fault::{is_transient, RetryPolicy};
use crate::sync::{self, BlockingGuard, Mutex, MutexGuard};
use crate::telemetry::{OpKind, OpSpan, Telemetry};

/// Lock an object for a backend call: the one lock the call may block under.
fn io(obj: &SharedObject) -> MutexGuard<'_, Box<dyn BackendObject>> {
    let o = obj.lock();
    o.blocking("a backend call on its object");
    o
}

/// Telemetry classification of a request. Exhaustive so a new `Request`
/// variant forces a decision about its span kind.
pub(crate) fn op_kind(req: &Request) -> OpKind {
    match req {
        Request::Open { .. } => OpKind::Open,
        Request::Connect { .. } => OpKind::Connect,
        Request::Write { .. } | Request::Pwrite { .. } => OpKind::Write,
        Request::Read { .. } | Request::Pread { .. } => OpKind::Read,
        Request::Fsync { .. } => OpKind::Fsync,
        Request::Close { .. } => OpKind::Close,
        Request::Lseek { .. }
        | Request::Stat { .. }
        | Request::Fstat { .. }
        | Request::Unlink { .. }
        | Request::Ftruncate { .. }
        | Request::Mkdir { .. }
        | Request::Readdir { .. } => OpKind::Meta,
        Request::Shutdown | Request::Stats { .. } => OpKind::Control,
    }
}

/// Wire errno carried by a response, 0 for success shapes. Exhaustive
/// so a new `Response` variant forces a decision about its errno.
pub(crate) fn response_errno(resp: &Response) -> u32 {
    match resp {
        Response::Err { errno } | Response::DeferredErr { errno, .. } => errno.to_wire(),
        Response::Ok { .. } | Response::StatOk { .. } | Response::Staged { .. } => 0,
    }
}

/// The most buffers one backend write carries: the size of the iovec
/// [`Engine`] rebuilds on the stack, and the most staged writes a worker
/// coalesces into one batch.
pub(crate) const COALESCE_MAX_OPS: usize = 16;

/// How far a write of a list of parts got: the bytes that landed, and
/// the error that stopped it short, if one did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Written {
    pub(crate) bytes: usize,
    pub(crate) failure: Option<Errno>,
}

impl Written {
    /// The outcome of the part that ends `end` bytes into the list. A
    /// part the written prefix covers moved all its bytes and succeeded,
    /// even when a later part made the write go short; the part holding
    /// the shortfall and every later one failed with the write's errno.
    pub fn outcome(&self, end: usize) -> OpOutcome {
        match self.failure {
            Some(e) if end > self.bytes => OpOutcome::Failed(e),
            _ => OpOutcome::Ok,
        }
    }
}

/// The daemon's shared state: backend, descriptor database, optional BML.
pub struct Engine {
    pub(crate) backend: Arc<dyn Backend>,
    pub(crate) db: DescDb,
    pub(crate) bml: Option<Bml>,
    pub(crate) telemetry: Arc<Telemetry>,
    /// Retry policy for transient backend errors. Disabled by default:
    /// embedders (and the daemon CLI) opt in explicitly, so existing
    /// error-propagation semantics are unchanged unless asked for.
    pub(crate) retry: RetryPolicy,
    /// Deterministic jitter source for backoff; seeded once so retry
    /// timing is reproducible run-to-run.
    retry_rng: Mutex<SimRng>,
}

impl Engine {
    pub fn new(backend: Arc<dyn Backend>, bml: Option<Bml>) -> Self {
        Self::with_telemetry(backend, bml, Arc::new(Telemetry::disabled()))
    }

    /// Full constructor: the telemetry registry is shared with the
    /// descriptor database (and, by the caller, the BML/queue/transport).
    pub fn with_telemetry(
        backend: Arc<dyn Backend>,
        bml: Option<Bml>,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        Engine {
            backend,
            db: DescDb::with_telemetry(telemetry.clone()),
            bml,
            telemetry,
            retry: RetryPolicy::disabled(),
            retry_rng: Mutex::new(SimRng::new(0x10f_44d)),
        }
    }

    /// Enable (or reconfigure) retrying of transient backend errors.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Run a backend call under the retry policy: *transient* errnos
    /// ([`is_transient`]) are re-attempted with exponential backoff and
    /// deterministic jitter until the attempt budget or the per-op
    /// deadline runs out. Permanent errnos return immediately — they
    /// keep flowing into the sync reply or the descdb deferred-error
    /// channel exactly as before.
    pub(crate) fn with_retries<T>(
        &self,
        mut f: impl FnMut() -> Result<T, Errno>,
    ) -> Result<T, Errno> {
        let mut attempt = 1u32;
        let started = Instant::now();
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if !is_transient(e) || !self.retry.enabled() => return Err(e),
                Err(e) => {
                    if attempt >= self.retry.max_attempts
                        || started.elapsed() >= self.retry.op_deadline
                    {
                        if self.telemetry.enabled() {
                            self.telemetry.retries_exhausted.inc();
                        }
                        return Err(e);
                    }
                    let backoff = {
                        let mut rng = self.retry_rng.lock();
                        self.retry.backoff(attempt, &mut rng)
                    };
                    if self.telemetry.enabled() {
                        self.telemetry.retries_attempted.inc();
                    }
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
            }
        }
    }

    /// How every write reaches the backend, sync or staged, one part
    /// or a coalesced batch: lock the object and write the parts back to
    /// back, continuing after POSIX-legal short writes with the rest of
    /// the list and retrying transient errors per the policy. A device
    /// that accepts zero bytes with data remaining reports `EIO`, not a
    /// spin. The iovec is rebuilt on the stack before every call, so a
    /// write allocates nothing; a call carries at most
    /// [`COALESCE_MAX_OPS`] buffers, and longer lists continue in the
    /// next call.
    fn write_parts<'a>(
        &self,
        obj: &SharedObject,
        offset: Option<u64>,
        parts: impl Iterator<Item = &'a [u8]> + Clone,
    ) -> Written {
        let total: usize = parts.clone().map(<[u8]>::len).sum();
        let mut iov: [&[u8]; COALESCE_MAX_OPS] = [&[]; COALESCE_MAX_OPS];
        let (mut written, mut failure) = (0usize, None);
        let mut o = io(obj);
        while written < total && failure.is_none() {
            // The remaining iovec: drop written and empty parts, slice
            // the one the last short write split.
            let (mut len, mut start) = (0, 0);
            for d in parts.clone() {
                let end = start + d.len();
                if end > written && !d.is_empty() {
                    iov[len] = &d[written.saturating_sub(start)..];
                    len += 1;
                    if len == COALESCE_MAX_OPS {
                        break;
                    }
                }
                start = end;
            }
            // Positional writes continue at offset+written; cursor
            // writes continue at the cursor the short write advanced.
            let at = offset.map(|base| base + written as u64);
            match self.with_retries(|| o.write_vectored_at(at, &iov[..len])) {
                Ok(n) => {
                    // Backend data traffic is counted where the engine
                    // makes the call: successful calls only (a failed
                    // one moved no data), and a coalesced batch is one
                    // op however many writes it carries.
                    if self.telemetry.enabled() {
                        self.telemetry.backend_write_ops.inc();
                        self.telemetry.backend_bytes_written.add(n);
                    }
                    written += n as usize;
                    failure = (n == 0).then_some(Errno::Io);
                }
                Err(e) => failure = Some(e),
            }
        }
        Written {
            bytes: written,
            failure,
        }
    }

    pub fn descriptor_db(&self) -> &DescDb {
        &self.db
    }

    pub fn bml(&self) -> Option<&Bml> {
        self.bml.as_ref()
    }

    /// [`Engine::execute`] bracketed with backend-stage timestamps and
    /// outcome/byte accounting on the caller's lifecycle span.
    pub fn execute_timed(
        &self,
        req: &Request,
        data: &Bytes,
        span: &mut OpSpan,
    ) -> (Response, Bytes) {
        let start = self.telemetry.now_ns();
        let done = self.execute(req, data);
        self.stamp(span, start, done)
    }

    /// [`Engine::execute_timed`] for a transport that copies replies out in
    /// the kernel: a `pread` answers with a mapping of its window where
    /// the object can map one ([`BackendObject::map_at`]).
    pub(crate) fn execute_mapped_timed(
        &self,
        req: &Request,
        data: &Bytes,
        span: &mut OpSpan,
    ) -> (Response, Bytes) {
        let Request::Pread { fd, offset, len } = *req else {
            return self.execute_timed(req, data, span);
        };
        sync::blocking("a backend call");
        let start = self.telemetry.now_ns();
        let done = self.data_read(fd, Some(offset), len, true);
        self.stamp(span, start, done)
    }

    /// [`Engine::execute_timed`] of a `pread` heading its lane, on a thread
    /// that must not block: no-wait calls fill a free slab block to its
    /// end or EOF. Anything short of that — no descriptor, a deferred
    /// error to report, no free block, a call that would wait — is `None`,
    /// for the pool to run, with no op id taken, no count and no stamp.
    pub(crate) fn read_nowait_timed(
        &self,
        req: &Request,
        span: &mut OpSpan,
    ) -> Option<(Response, Bytes)> {
        let Request::Pread { fd, offset, len } = *req else {
            return None;
        };
        let start = self.telemetry.now_ns();
        self.db.status(fd).filter(|s| !s.has_pending_error)?;
        let obj = self.db.object(fd).ok()?;
        let payload = self.read_payload(len, false, |out| {
            let (mut o, mut filled) = (obj.lock(), 0);
            while filled < out.len() {
                let at = offset.checked_add(filled as u64).ok_or(Errno::Inval)?;
                match o.read_nowait_at(at, &mut out[filled..])? {
                    0 => break,
                    n => filled += n as usize,
                }
            }
            Ok(filled as u64)
        });
        let payload = payload.ok()?;
        let done = match self.db.begin_op(fd) {
            Ok((op, _)) => {
                self.db.finish_op(fd, op, OpOutcome::Ok);
                self.read_reply(Ok(payload))
            }
            Err(e) => (self.begin_error_response(e), Bytes::new()),
        };
        Some(self.stamp(span, start, done))
    }

    fn stamp(&self, span: &mut OpSpan, start: u64, done: (Response, Bytes)) -> (Response, Bytes) {
        let (resp, out) = done;
        span.backend_start_ns = start;
        span.backend_done_ns = self.telemetry.now_ns();
        span.ok = !matches!(resp, Response::Err { .. } | Response::DeferredErr { .. });
        span.errno = response_errno(&resp);
        span.bytes = span.bytes.max(out.len() as u64);
        (resp, out)
    }

    /// Execute a request to completion and produce the response. `data`
    /// is the frame payload (write contents). Returns the response and
    /// any response payload (read contents).
    pub fn execute(&self, req: &Request, data: &Bytes) -> (Response, Bytes) {
        sync::blocking("a backend call");
        match req {
            Request::Open { path, flags, mode } => match self
                .with_retries(|| self.backend.open(path, *flags, *mode))
                .and_then(|obj| self.db.insert(obj, path))
            {
                Ok(fd) => (Response::Ok { ret: fd.0 as i64 }, Bytes::new()),
                Err(e) => (Response::Err { errno: e }, Bytes::new()),
            },
            Request::Connect { host, port } => match self
                .with_retries(|| self.backend.connect(host, *port))
                .and_then(|obj| self.db.insert(obj, &format!("{host}:{port}")))
            {
                Ok(fd) => (Response::Ok { ret: fd.0 as i64 }, Bytes::new()),
                Err(e) => (Response::Err { errno: e }, Bytes::new()),
            },
            Request::Write { fd, len } => self.data_write(*fd, None, data, *len),
            Request::Pwrite { fd, offset, len } => self.data_write(*fd, Some(*offset), data, *len),
            Request::Read { fd, len } => self.data_read(*fd, None, *len, false),
            Request::Pread { fd, offset, len } => self.data_read(*fd, Some(*offset), *len, false),
            // Seeks, like every op on a descriptor, run behind its staged
            // writes (their lane): a staged cursor write consumes the
            // object cursor when it executes, so a seek overtaking it
            // would move the cursor out from under the write.
            Request::Lseek { fd, offset, whence } => {
                match self
                    .db
                    .object(*fd)
                    .and_then(|o| io(&o).seek(*offset, *whence))
                {
                    Ok(pos) => (Response::Ok { ret: pos as i64 }, Bytes::new()),
                    Err(e) => (Response::Err { errno: e }, Bytes::new()),
                }
            }
            Request::Fsync { fd } => self.fsync(*fd),
            Request::Close { fd } => self.close(*fd),
            Request::Stat { path } => match self.backend.stat(path) {
                Ok(st) => (Response::StatOk { st }, Bytes::new()),
                Err(e) => (Response::Err { errno: e }, Bytes::new()),
            },
            Request::Fstat { fd } => match self.db.object(*fd).and_then(|o| io(&o).fstat()) {
                Ok(st) => (Response::StatOk { st }, Bytes::new()),
                Err(e) => (Response::Err { errno: e }, Bytes::new()),
            },
            Request::Unlink { path } => match self.backend.unlink(path) {
                Ok(()) => (Response::Ok { ret: 0 }, Bytes::new()),
                Err(e) => (Response::Err { errno: e }, Bytes::new()),
            },
            Request::Ftruncate { fd, len } => {
                match self.db.object(*fd).and_then(|o| io(&o).truncate(*len)) {
                    Ok(()) => (Response::Ok { ret: 0 }, Bytes::new()),
                    Err(e) => (Response::Err { errno: e }, Bytes::new()),
                }
            }
            Request::Mkdir { path, mode } => match self.backend.mkdir(path, *mode) {
                Ok(()) => (Response::Ok { ret: 0 }, Bytes::new()),
                Err(e) => (Response::Err { errno: e }, Bytes::new()),
            },
            Request::Readdir { path } => match self.backend.readdir(path) {
                Ok(names) => (
                    Response::Ok {
                        ret: names.len() as i64,
                    },
                    iofwd_proto::encode_dirents(&names),
                ),
                Err(e) => (Response::Err { errno: e }, Bytes::new()),
            },
            Request::Shutdown => (Response::Ok { ret: 0 }, Bytes::new()),
            // Stats queries are answered at the transport layer (off
            // the data path, before any enqueue); one reaching the
            // engine is a routing bug, reported rather than masked.
            Request::Stats { .. } => (
                Response::Err {
                    errno: Errno::Inval,
                },
                Bytes::new(),
            ),
        }
    }

    fn data_write(
        &self,
        fd: iofwd_proto::Fd,
        offset: Option<u64>,
        data: &Bytes,
        declared_len: u64,
    ) -> (Response, Bytes) {
        if declared_len != data.len() as u64 {
            return (
                Response::Err {
                    errno: Errno::Inval,
                },
                Bytes::new(),
            );
        }
        let (op, obj) = match self.db.begin_op(fd) {
            Ok(v) => v,
            Err(e) => return (self.begin_error_response(e), Bytes::new()),
        };
        let written = self.write_parts(&obj, offset, std::iter::once(&data[..]));
        // Synchronous path: the reply reports the error; nothing deferred.
        self.db.finish_op(fd, op, OpOutcome::Ok);
        match written.failure {
            None => (
                Response::Ok {
                    ret: declared_len as i64,
                },
                Bytes::new(),
            ),
            Some(e) => (Response::Err { errno: e }, Bytes::new()),
        }
    }

    /// Execute staged writes on one descriptor — one, or a batch of
    /// offset-contiguous ones — as one write of their list of parts, and
    /// record each part's outcome in the descriptor database in batch
    /// order ([`Written::outcome`]), so deferred-error attribution (first
    /// error wins) lands on the same op as serial execution against a
    /// backend whose errors are positional.
    ///
    /// `base` is the first part's offset (`None` for a cursor chain —
    /// short writes then resume at the cursor the backend advanced).
    /// Parts must be contiguous: part *i+1* starts where part *i* ends.
    pub fn execute_coalesced_write<'a>(
        &self,
        fd: iofwd_proto::Fd,
        base: Option<u64>,
        parts: impl Iterator<Item = (iofwd_proto::OpId, &'a [u8])> + Clone,
    ) -> Written {
        let written = match self.db.object(fd) {
            Ok(obj) => self.write_parts(&obj, base, parts.clone().map(|(_, d)| d)),
            Err(e) => Written {
                bytes: 0,
                failure: Some(e),
            },
        };
        let mut end = 0;
        for (op, d) in parts {
            end += d.len();
            self.db.finish_op(fd, op, written.outcome(end));
        }
        written
    }

    /// A read; with `map`, a positional one answers with a mapping of its
    /// window if that is long enough for a split send (not read in user space).
    fn data_read(&self, fd: Fd, offset: Option<u64>, len: u64, map: bool) -> (Response, Bytes) {
        let (op, obj) = match self.db.begin_op(fd) {
            Ok(v) => v,
            Err(e) => return (self.begin_error_response(e), Bytes::new()),
        };
        let (len, min) = (len.min(iofwd_proto::MAX_DATA_LEN), Frame::SPLIT_SEND_MIN);
        let mapped = match offset {
            Some(at) if map && len >= min as u64 => io(&obj).map_at(at, len),
            _ => None,
        };
        let result = match mapped.filter(|payload| payload.len() >= min) {
            Some(payload) => Ok(payload),
            None => self.read_payload(len, true, |out| {
                let mut o = io(&obj);
                self.with_retries(|| o.read_into(offset, out))
            }),
        };
        self.db.finish_op(fd, op, OpOutcome::Ok);
        self.read_reply(result)
    }

    /// A read's reply payload, filled by `read`. A reply carries at most
    /// one frame's payload: a longer request is served short, and never
    /// sizes an allocation. The payload is a recycled BML slab block —
    /// the backend fills it in place and the reply is a refcounted view
    /// of it, so no per-op Vec exists. With the BML absent, saturated, or
    /// too small for the request, it is a fresh Vec, charged to
    /// `hotpath_alloc_bytes` — or, for a read that may not wait,
    /// `EAGAIN`.
    fn read_payload(
        &self,
        len: u64,
        may_wait: bool,
        read: impl FnOnce(&mut [u8]) -> Result<u64, Errno>,
    ) -> Result<Bytes, Errno> {
        let len = len.min(iofwd_proto::MAX_DATA_LEN) as usize;
        let slab = self.bml.as_ref().filter(|_| len > 0);
        match slab.and_then(|b| b.try_acquire(len)) {
            Some(mut buf) => read(buf.as_mut_slice()).map(|n| {
                buf.truncate(n as usize);
                buf.into_bytes()
            }),
            None if !may_wait => Err(Errno::Again),
            None => {
                let mut buf = vec![0u8; len];
                read(&mut buf).map(|n| {
                    buf.truncate(n as usize);
                    if self.telemetry.enabled() && !buf.is_empty() {
                        self.telemetry.hotpath_alloc_bytes.add(buf.len() as u64);
                    }
                    Bytes::from(buf)
                })
            }
        }
    }

    fn read_reply(&self, result: Result<Bytes, Errno>) -> (Response, Bytes) {
        match result {
            Ok(data) => {
                if self.telemetry.enabled() {
                    self.telemetry.backend_read_ops.inc();
                    self.telemetry.backend_bytes_read.add(data.len() as u64);
                }
                (
                    Response::Ok {
                        ret: data.len() as i64,
                    },
                    data,
                )
            }
            Err(e) => (Response::Err { errno: e }, Bytes::new()),
        }
    }

    /// `fsync` is a staging barrier and the daemon's one flush: it runs
    /// behind the descriptor's staged writes (their lane), surfaces any
    /// deferred error, then syncs the backend object and reports how that
    /// went.
    fn fsync(&self, fd: iofwd_proto::Fd) -> (Response, Bytes) {
        if let Some((op, errno)) = self.db.take_error(fd) {
            return (self.deferred_error_response(op, errno), Bytes::new());
        }
        let synced = self.db.object(fd).and_then(|obj| {
            let mut o = io(&obj);
            self.with_retries(|| o.sync())
        });
        match synced {
            Ok(()) => {
                if self.telemetry.enabled() {
                    self.telemetry.backend_sync_ops.inc();
                }
                (Response::Ok { ret: 0 }, Bytes::new())
            }
            Err(e) => (Response::Err { errno: e }, Bytes::new()),
        }
    }

    /// `close` runs behind the descriptor's staged writes, like fsync,
    /// then takes the descriptor out of the database. A deferred error is
    /// still reported — the close itself succeeds, as POSIX close does
    /// after a failed async write-back. Dropping the object is the
    /// backend close; nothing is flushed — durability is `fsync`'s job
    /// (§IV keeps `close` synchronous, not durable).
    fn close(&self, fd: iofwd_proto::Fd) -> (Response, Bytes) {
        let resp = match self.db.remove(fd) {
            Ok((_obj, Some((op, errno)))) => self.deferred_error_response(op, errno),
            Ok((_obj, None)) => Response::Ok { ret: 0 },
            Err(errno) => Response::Err { errno },
        };
        (resp, Bytes::new())
    }

    /// Close a descriptor whose client is gone. There is nobody to
    /// report a pending staged error to, so it is counted as orphaned,
    /// not as reported.
    pub(crate) fn close_orphan(&self, fd: iofwd_proto::Fd) {
        if let Ok((_obj, Some(_))) = self.db.remove(fd) {
            if self.telemetry.enabled() {
                self.telemetry.deferred_errors_orphaned.inc();
            }
        }
    }

    /// The reply for a `begin_op` refusal.
    pub(crate) fn begin_error_response(&self, e: BeginError) -> Response {
        match e {
            BeginError::Sync(errno) => Response::Err { errno },
            BeginError::Deferred { op, errno } => self.deferred_error_response(op, errno),
        }
    }

    /// The one place a `DeferredErr` reply is built: a staged write's
    /// failure counts as reported the moment it becomes a response, so
    /// §IV's "reported once" is visible on the stats wire — at most one
    /// report per descriptor per failure recorded (`deferred_errors`
    /// also counts the cascades behind the first).
    fn deferred_error_response(&self, op: iofwd_proto::OpId, errno: Errno) -> Response {
        if self.telemetry.enabled() {
            self.telemetry.deferred_errors_reported.inc();
        }
        Response::DeferredErr { op, errno }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FaultBackend, MemSinkBackend};
    use crate::fault::FaultPlan;
    use iofwd_proto::{Fd, OpenFlags};

    fn engine() -> (Engine, Arc<MemSinkBackend>) {
        let be = Arc::new(MemSinkBackend::new());
        (Engine::new(be.clone(), None), be)
    }

    fn open(e: &Engine, path: &str) -> Fd {
        let (resp, _) = e.execute(
            &Request::Open {
                path: path.into(),
                flags: OpenFlags::RDWR | OpenFlags::CREATE,
                mode: 0o644,
            },
            &Bytes::new(),
        );
        match resp {
            Response::Ok { ret } => Fd(ret as u32),
            other => panic!("open failed: {other:?}"),
        }
    }

    #[test]
    fn open_write_read_close() {
        let be = Arc::new(MemSinkBackend::new());
        let t = Arc::new(Telemetry::new());
        let e = Engine::with_telemetry(be.clone(), None, t.clone());
        // Execute as a driver does: a stamped span per op, folded after.
        let run = |seq: u64, req: Request, data: &'static [u8]| {
            let mut span = OpSpan::begin(op_kind(&req), 0, seq, t.now_ns());
            let out = e.execute_timed(&req, &Bytes::from_static(data), &mut span);
            t.complete(&span);
            out
        };
        let (resp, _) = run(
            1,
            Request::Open {
                path: "/a".into(),
                flags: OpenFlags::RDWR | OpenFlags::CREATE,
                mode: 0o644,
            },
            b"",
        );
        let Response::Ok { ret } = resp else {
            panic!("open failed: {resp:?}");
        };
        let fd = Fd(ret as u32);
        let (resp, _) = run(2, Request::Write { fd, len: 5 }, b"hello");
        assert_eq!(resp, Response::Ok { ret: 5 });
        let (resp, data) = run(
            3,
            Request::Pread {
                fd,
                offset: 0,
                len: 5,
            },
            b"",
        );
        assert_eq!(resp, Response::Ok { ret: 5 });
        assert_eq!(&data[..], b"hello");
        let (resp, _) = run(4, Request::Close { fd }, b"");
        assert_eq!(resp, Response::Ok { ret: 0 });
        assert_eq!(be.contents("/a").unwrap(), b"hello");
        assert_eq!(t.ops_completed.get(), 4);
        assert_eq!(t.ops_failed.get(), 0);
        assert_eq!(
            (t.backend_write_ops.get(), t.backend_bytes_written.get()),
            (1, 5)
        );
        assert_eq!(
            (t.backend_read_ops.get(), t.backend_bytes_read.get()),
            (1, 5)
        );
        // No BML: the read was served from a fresh allocation.
        assert_eq!(t.hotpath_alloc_bytes.get(), 5);
    }

    #[test]
    fn length_mismatch_rejected() {
        let (e, _) = engine();
        let fd = open(&e, "/m");
        let (resp, _) = e.execute(
            &Request::Write { fd, len: 10 },
            &Bytes::from_static(b"shrt"),
        );
        assert_eq!(
            resp,
            Response::Err {
                errno: Errno::Inval
            }
        );
    }

    #[test]
    fn bad_fd_reported() {
        let (e, _) = engine();
        let (resp, _) = e.execute(&Request::Fsync { fd: Fd(77) }, &Bytes::new());
        assert_eq!(resp, Response::Err { errno: Errno::BadF });
        let (resp, _) = e.execute(&Request::Read { fd: Fd(77), len: 1 }, &Bytes::new());
        assert_eq!(resp, Response::Err { errno: Errno::BadF });
    }

    #[test]
    fn stat_paths() {
        let (e, _) = engine();
        let fd = open(&e, "/s");
        e.execute(&Request::Write { fd, len: 3 }, &Bytes::from_static(b"abc"));
        let (resp, _) = e.execute(&Request::Stat { path: "/s".into() }, &Bytes::new());
        match resp {
            Response::StatOk { st } => assert_eq!(st.size, 3),
            other => panic!("{other:?}"),
        }
        let (resp, _) = e.execute(&Request::Fstat { fd }, &Bytes::new());
        match resp {
            Response::StatOk { st } => assert_eq!(st.size, 3),
            other => panic!("{other:?}"),
        }
        let (resp, _) = e.execute(&Request::Unlink { path: "/s".into() }, &Bytes::new());
        assert_eq!(resp, Response::Ok { ret: 0 });
        let (resp, _) = e.execute(&Request::Stat { path: "/s".into() }, &Bytes::new());
        assert_eq!(
            resp,
            Response::Err {
                errno: Errno::NoEnt
            }
        );
    }

    #[test]
    fn double_close_is_badf() {
        let (e, _) = engine();
        let fd = open(&e, "/c");
        assert_eq!(
            e.execute(&Request::Close { fd }, &Bytes::new()).0,
            Response::Ok { ret: 0 }
        );
        assert_eq!(
            e.execute(&Request::Close { fd }, &Bytes::new()).0,
            Response::Err { errno: Errno::BadF }
        );
    }

    #[test]
    fn lseek_roundtrip() {
        let (e, _) = engine();
        let fd = open(&e, "/l");
        e.execute(&Request::Write { fd, len: 4 }, &Bytes::from_static(b"wxyz"));
        let (resp, _) = e.execute(
            &Request::Lseek {
                fd,
                offset: 1,
                whence: iofwd_proto::Whence::Set,
            },
            &Bytes::new(),
        );
        assert_eq!(resp, Response::Ok { ret: 1 });
        let (_, data) = e.execute(&Request::Read { fd, len: 2 }, &Bytes::new());
        assert_eq!(&data[..], b"xy");
    }

    /// Run a staged batch and read each part's outcome off the result.
    fn write_batch(
        e: &Engine,
        fd: Fd,
        base: Option<u64>,
        parts: &[(iofwd_proto::OpId, &[u8])],
    ) -> Vec<OpOutcome> {
        let written = e.execute_coalesced_write(fd, base, parts.iter().copied());
        let mut end = 0;
        let mut outcome = |len| {
            end += len;
            written.outcome(end)
        };
        parts.iter().map(|(_, d)| outcome(d.len())).collect()
    }

    fn begin(e: &Engine, fd: Fd) -> iofwd_proto::OpId {
        match e.descriptor_db().begin_op(fd) {
            Ok((op, _)) => op,
            Err(err) => panic!("begin_op failed: {err:?}"),
        }
    }

    #[test]
    fn close_never_reaches_backend_sync() {
        // A do-nothing rule on every sync: `faults_injected` counts the
        // syncs that reach the backend.
        let plan = FaultPlan::parse("on sync delay_us=0").expect("valid plan");
        let t = Arc::new(Telemetry::new());
        let e = Engine::with_telemetry(
            Arc::new(FaultBackend::new(
                Arc::new(MemSinkBackend::new()),
                plan,
                t.clone(),
            )),
            None,
            t.clone(),
        );
        let run = |req: Request, data: &'static [u8]| {
            let (resp, _) = e.execute(&req, &Bytes::from_static(data));
            assert!(matches!(resp, Response::Ok { .. }), "{req:?}: {resp:?}");
            t.faults_injected.get()
        };
        let pwrite = |fd| Request::Pwrite {
            fd,
            offset: 0,
            len: 4,
        };
        // Read-only, written and truncated descriptors all close without
        // a flush.
        let fd = open(&e, "/clean");
        let read = Request::Pread {
            fd,
            offset: 0,
            len: 4,
        };
        assert_eq!(run(read, b""), 0);
        assert_eq!(run(Request::Close { fd }, b""), 0);
        let fd = open(&e, "/dirty");
        assert_eq!(run(pwrite(fd), b"data"), 0);
        assert_eq!(run(Request::Close { fd }, b""), 0);
        let fd = open(&e, "/cut");
        assert_eq!(run(pwrite(fd), b"data"), 0);
        assert_eq!(run(Request::Ftruncate { fd, len: 1 }, b""), 0);
        assert_eq!(run(Request::Close { fd }, b""), 0);
        // Every fsync, dirty or clean, is exactly one backend sync — and
        // the only thing `backend_sync_ops` counts.
        let fd = open(&e, "/synced");
        assert_eq!(run(pwrite(fd), b"data"), 0);
        assert_eq!(run(Request::Fsync { fd }, b""), 1);
        assert_eq!(run(Request::Fsync { fd }, b""), 2);
        assert_eq!(run(Request::Close { fd }, b""), 2);
        assert_eq!(t.backend_sync_ops.get(), 2);
    }

    #[test]
    fn fsync_failure_is_reported_not_swallowed() {
        let plan = FaultPlan::parse("on sync nth=1 errno=EIO").expect("valid plan");
        let t = Arc::new(Telemetry::new());
        let e = Engine::with_telemetry(
            Arc::new(FaultBackend::new(
                Arc::new(MemSinkBackend::new()),
                plan,
                t.clone(),
            )),
            None,
            t.clone(),
        );
        let fd = open(&e, "/f");
        let write = Request::Pwrite {
            fd,
            offset: 0,
            len: 4,
        };
        assert_eq!(
            e.execute(&write, &Bytes::from_static(b"data")).0,
            Response::Ok { ret: 4 }
        );
        assert_eq!(
            e.execute(&Request::Fsync { fd }, &Bytes::new()).0,
            Response::Err { errno: Errno::Io }
        );
        // A failed flush is not a flush, and the close behind it neither
        // retries it nor has an error of its own to report.
        assert_eq!(t.backend_sync_ops.get(), 0);
        assert_eq!(
            e.execute(&Request::Close { fd }, &Bytes::new()).0,
            Response::Ok { ret: 0 }
        );
        assert_eq!(t.faults_injected.get(), 1);
    }

    #[test]
    fn coalesced_write_on_dead_descriptor_fails_every_part() {
        let (e, _) = engine();
        let fd = open(&e, "/dead");
        let (a, b) = (begin(&e, fd), begin(&e, fd));
        // Retire the object out from under the batch.
        e.descriptor_db().finish_op(fd, a, OpOutcome::Ok);
        e.descriptor_db().finish_op(fd, b, OpOutcome::Ok);
        e.execute(&Request::Close { fd }, &Bytes::new());
        let (x, y) = (iofwd_proto::OpId(900), iofwd_proto::OpId(901));
        let outcomes = write_batch(&e, fd, Some(0), &[(x, b"a"), (y, b"b")]);
        assert_eq!(
            outcomes,
            vec![
                OpOutcome::Failed(Errno::BadF),
                OpOutcome::Failed(Errno::BadF),
            ]
        );
    }
}
