//! Request execution shared by every forwarding mode: CIOD proxies, ZOID
//! handler threads, and scheduled workers all funnel through
//! [`Engine::execute`], so mode differences are purely *who runs it and
//! when* — exactly the paper's framing of the design space.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use iofwd_proto::{Errno, Request, Response};
use simcore::rng::SimRng;

use crate::backend::Backend;
use crate::bml::Bml;
use crate::descdb::{BeginError, DescDb, OpOutcome, SharedObject};
use crate::fault::{is_transient, RetryPolicy};
use crate::telemetry::{OpKind, OpSpan, Telemetry};

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
    retry_rng: parking_lot::Mutex<SimRng>,
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
            retry_rng: parking_lot::Mutex::new(SimRng::new(0x10f_44d)),
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

    /// How a single write, sync or staged, reaches the backend: lock the
    /// object and write all of `data`, continuing after POSIX-legal short
    /// writes and retrying transient errors per the policy. A device that
    /// accepts zero bytes with data remaining reports `EIO`, not a spin.
    fn write_fully(
        &self,
        obj: &SharedObject,
        offset: Option<u64>,
        data: &[u8],
    ) -> Result<(), Errno> {
        let mut o = obj.lock();
        let mut written = 0usize;
        while written < data.len() {
            // Positional writes continue at offset+written; cursor
            // writes continue at the cursor the short write advanced.
            let at = offset.map(|base| base + written as u64);
            let n = self.with_retries(|| o.write_at(at, &data[written..]))?;
            self.count_backend_write(n);
            let n = n as usize;
            if n == 0 {
                return Err(Errno::Io);
            }
            written += n;
        }
        Ok(())
    }

    /// Backend data traffic is counted here, where the engine makes the
    /// call: successful calls only (a failed one moved no data), and a
    /// vectored batch is one op however many writes it carries.
    fn count_backend_write(&self, bytes: u64) {
        if self.telemetry.enabled() {
            self.telemetry.backend_write_ops.inc();
            self.telemetry.backend_bytes_written.add(bytes);
        }
    }

    fn count_backend_read(&self, bytes: u64) {
        if self.telemetry.enabled() {
            self.telemetry.backend_read_ops.inc();
            self.telemetry.backend_bytes_read.add(bytes);
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
        span.backend_start_ns = self.telemetry.now_ns();
        let (resp, out) = self.execute(req, data);
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
            Request::Read { fd, len } => self.data_read(*fd, None, *len),
            Request::Pread { fd, offset, len } => self.data_read(*fd, Some(*offset), *len),
            // Seeks, like every op on a descriptor, run behind its staged
            // writes (their lane): a staged cursor write consumes the
            // object cursor when it executes, so a seek overtaking it
            // would move the cursor out from under the write.
            Request::Lseek { fd, offset, whence } => {
                match self
                    .db
                    .object(*fd)
                    .and_then(|o| o.lock().seek(*offset, *whence))
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
            Request::Fstat { fd } => match self.db.object(*fd).and_then(|o| o.lock().fstat()) {
                Ok(st) => (Response::StatOk { st }, Bytes::new()),
                Err(e) => (Response::Err { errno: e }, Bytes::new()),
            },
            Request::Unlink { path } => match self.backend.unlink(path) {
                Ok(()) => (Response::Ok { ret: 0 }, Bytes::new()),
                Err(e) => (Response::Err { errno: e }, Bytes::new()),
            },
            Request::Ftruncate { fd, len } => {
                match self.db.object(*fd).and_then(|o| o.lock().truncate(*len)) {
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
        let result = self.write_fully(&obj, offset, data);
        // Synchronous path: the reply reports the error; nothing deferred.
        self.db.finish_op(fd, op, OpOutcome::Ok);
        match result {
            Ok(()) => (
                Response::Ok {
                    ret: declared_len as i64,
                },
                Bytes::new(),
            ),
            Err(e) => (Response::Err { errno: e }, Bytes::new()),
        }
    }

    /// Execute a staged write on behalf of a worker: stream the staging
    /// buffer to the backend and record the outcome in the descriptor
    /// database. Returns the outcome so the worker can finish the op's
    /// lifecycle span.
    pub fn execute_staged_write(
        &self,
        fd: iofwd_proto::Fd,
        op: iofwd_proto::OpId,
        offset: Option<u64>,
        data: &[u8],
    ) -> OpOutcome {
        let written = self
            .db
            .object(fd)
            .and_then(|obj| self.write_fully(&obj, offset, data));
        let outcome = match written {
            Ok(()) => OpOutcome::Ok,
            Err(e) => OpOutcome::Failed(e),
        };
        self.db.finish_op(fd, op, outcome);
        outcome
    }

    /// Execute a batch of offset-contiguous staged writes on one
    /// descriptor as a single vectored backend operation, fanning the
    /// outcome back per constituent: parts fully covered by the bytes
    /// the backend accepted succeed; the part containing the shortfall
    /// and every later part fail with the batch's errno. Every part's
    /// outcome is recorded in the descriptor database in batch order,
    /// so deferred-error attribution (first error wins) lands on the
    /// same op as serial execution against a backend whose errors are
    /// positional.
    ///
    /// `base` is the first part's offset (`None` for a cursor chain —
    /// short writes then resume at the cursor the backend advanced).
    /// Parts must be contiguous: part *i+1* starts where part *i* ends.
    pub fn execute_coalesced_write(
        &self,
        fd: iofwd_proto::Fd,
        base: Option<u64>,
        parts: &[(iofwd_proto::OpId, &[u8])],
    ) -> Vec<OpOutcome> {
        let total: usize = parts.iter().map(|(_, d)| d.len()).sum();
        let mut written = 0usize;
        let mut failure = None;
        match self.db.object(fd) {
            Ok(obj) => {
                let mut o = obj.lock();
                while written < total && failure.is_none() {
                    // Rebuild the remaining iovec: drop fully-written
                    // parts, slice the one the short write split.
                    let mut bufs = Vec::with_capacity(parts.len());
                    let mut start = 0usize;
                    for (_, d) in parts {
                        let end = start + d.len();
                        if end > written && !d.is_empty() {
                            bufs.push(&d[written.saturating_sub(start).min(d.len())..]);
                        }
                        start = end;
                    }
                    let at = base.map(|b| b + written as u64);
                    match self.with_retries(|| o.write_vectored_at(at, &bufs)) {
                        Ok(n) => {
                            self.count_backend_write(n);
                            // A device accepting zero bytes with data
                            // remaining is an error, as in write_fully.
                            if n == 0 {
                                failure = Some(Errno::Io);
                            }
                            written += n as usize;
                        }
                        Err(e) => failure = Some(e),
                    }
                }
            }
            Err(e) => failure = Some(e),
        }
        // Fan the batch outcome back out per constituent op.
        let mut out = Vec::with_capacity(parts.len());
        let mut start = 0usize;
        for &(op, d) in parts {
            let end = start + d.len();
            let outcome = match failure {
                // Covered parts moved all their bytes: full success,
                // even when a later part made the batch go short.
                None => OpOutcome::Ok,
                Some(_) if end <= written => OpOutcome::Ok,
                Some(e) => OpOutcome::Failed(e),
            };
            self.db.finish_op(fd, op, outcome);
            out.push(outcome);
            start = end;
        }
        out
    }

    fn data_read(&self, fd: iofwd_proto::Fd, offset: Option<u64>, len: u64) -> (Response, Bytes) {
        let (op, obj) = match self.db.begin_op(fd) {
            Ok(v) => v,
            Err(e) => return (self.begin_error_response(e), Bytes::new()),
        };
        // A reply carries at most one frame's payload: a longer request
        // is served short, and never sizes an allocation.
        let len = len.min(iofwd_proto::MAX_DATA_LEN);
        // Serve the read out of a recycled BML slab block — the backend
        // fills it in place and the reply payload is a refcounted view
        // of it, so no per-op Vec exists. With the BML absent, saturated,
        // or too small for the request, the block is a fresh Vec, charged
        // to `hotpath_alloc_bytes`.
        let slab = if len > 0 {
            self.bml.as_ref().and_then(|b| b.try_acquire(len as usize))
        } else {
            None
        };
        let read = |out: &mut [u8]| {
            let mut o = obj.lock();
            self.with_retries(|| o.read_into(offset, out))
        };
        let result = match slab {
            Some(mut buf) => read(buf.as_mut_slice()).map(|n| {
                buf.truncate(n as usize);
                buf.into_bytes()
            }),
            None => {
                let mut buf = vec![0u8; len as usize];
                read(&mut buf).map(|n| {
                    buf.truncate(n as usize);
                    if self.telemetry.enabled() && !buf.is_empty() {
                        self.telemetry.hotpath_alloc_bytes.add(buf.len() as u64);
                    }
                    Bytes::from(buf)
                })
            }
        };
        self.db.finish_op(fd, op, OpOutcome::Ok);
        match result {
            Ok(data) => {
                self.count_backend_read(data.len() as u64);
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
            let mut o = obj.lock();
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
    use crate::backend::MemSinkBackend;
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

    use crate::backend::BackendObject;
    use iofwd_proto::{FileStat, Whence};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Position-sticky faulty backend for coalescing tests: every
    /// positional write at or past `limit` fails with `errno`, and any
    /// single call moves at most `cap` bytes (a POSIX short write).
    /// Being a function of file position (not call count), serial and
    /// coalesced execution must observe identical per-op outcomes.
    /// `syncs` counts the `sync` calls that reach it.
    struct StickyLimit {
        inner: Arc<MemSinkBackend>,
        cap: usize,
        limit: u64,
        errno: Errno,
        syncs: Arc<AtomicUsize>,
    }

    struct StickyObj {
        inner: Box<dyn crate::backend::BackendObject>,
        cap: usize,
        limit: u64,
        errno: Errno,
        syncs: Arc<AtomicUsize>,
    }

    impl BackendObject for StickyObj {
        fn write_at(&mut self, offset: Option<u64>, data: &[u8]) -> Result<u64, Errno> {
            let off = offset.expect("sticky test backend is positional-only");
            if off >= self.limit {
                return Err(self.errno);
            }
            let n = data.len().min(self.cap).min((self.limit - off) as usize);
            self.inner.write_at(offset, &data[..n])
        }

        fn read_into(&mut self, offset: Option<u64>, out: &mut [u8]) -> Result<u64, Errno> {
            self.inner.read_into(offset, out)
        }

        fn seek(&mut self, offset: i64, whence: Whence) -> Result<u64, Errno> {
            self.inner.seek(offset, whence)
        }

        fn sync(&mut self) -> Result<(), Errno> {
            self.syncs.fetch_add(1, Ordering::Relaxed);
            self.inner.sync()
        }

        fn fstat(&mut self) -> Result<FileStat, Errno> {
            self.inner.fstat()
        }

        fn truncate(&mut self, len: u64) -> Result<(), Errno> {
            self.inner.truncate(len)
        }
    }

    impl Backend for StickyLimit {
        fn open(
            &self,
            path: &str,
            flags: OpenFlags,
            mode: u32,
        ) -> Result<Box<dyn BackendObject>, Errno> {
            Ok(Box::new(StickyObj {
                inner: self.inner.open(path, flags, mode)?,
                cap: self.cap,
                limit: self.limit,
                errno: self.errno,
                syncs: self.syncs.clone(),
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

    fn begin(e: &Engine, fd: Fd) -> iofwd_proto::OpId {
        match e.descriptor_db().begin_op(fd) {
            Ok((op, _)) => op,
            Err(err) => panic!("begin_op failed: {err:?}"),
        }
    }

    #[test]
    fn coalesced_write_success_and_cursor_chain() {
        let (e, be) = engine();
        let fd = open(&e, "/co");
        let (a, b, c) = (begin(&e, fd), begin(&e, fd), begin(&e, fd));
        // Positional chain [2, 8).
        let parts: Vec<(iofwd_proto::OpId, &[u8])> = vec![(a, b"AB"), (b, b"CDE"), (c, b"F")];
        let outcomes = e.execute_coalesced_write(fd, Some(2), &parts);
        assert_eq!(outcomes, vec![OpOutcome::Ok; 3]);
        assert_eq!(be.contents("/co").unwrap(), b"\0\0ABCDEF");
        // Cursor chain: the engine-held cursor sits at 0 (positional
        // writes leave it), so a None-base batch lands from there.
        let (d, g) = (begin(&e, fd), begin(&e, fd));
        let outcomes = e.execute_coalesced_write(fd, None, &[(d, b"xy"), (g, b"z")]);
        assert_eq!(outcomes, vec![OpOutcome::Ok; 2]);
        assert_eq!(&be.contents("/co").unwrap()[..3], b"xyz");
        // No deferred error: fsync is clean.
        assert_eq!(
            e.execute(&Request::Fsync { fd }, &Bytes::new()).0,
            Response::Ok { ret: 0 }
        );
    }

    #[test]
    fn coalesced_short_writes_complete_via_continuation() {
        // cap=3 forces every backend call short; no error position.
        let be = Arc::new(MemSinkBackend::new());
        let sticky = Arc::new(StickyLimit {
            inner: be.clone(),
            cap: 3,
            limit: u64::MAX,
            errno: Errno::Io,
            syncs: Arc::default(),
        });
        let e = Engine::new(sticky, None);
        let fd = open(&e, "/short");
        let (a, b) = (begin(&e, fd), begin(&e, fd));
        let outcomes = e.execute_coalesced_write(fd, Some(0), &[(a, b"01234"), (b, b"56789")]);
        assert_eq!(outcomes, vec![OpOutcome::Ok; 2]);
        assert_eq!(be.contents("/short").unwrap(), b"0123456789");
    }

    #[test]
    fn coalesced_error_fans_out_to_uncovered_ops_only() {
        // Writes at/past byte 6 fail: part a ([0,4)) is covered, part b
        // ([4,8)) straddles, part c ([8,10)) is untouched.
        let be = Arc::new(MemSinkBackend::new());
        let sticky = Arc::new(StickyLimit {
            inner: be.clone(),
            cap: usize::MAX,
            limit: 6,
            errno: Errno::NoSpc,
            syncs: Arc::default(),
        });
        let e = Engine::new(sticky, None);
        let fd = open(&e, "/fan");
        let (a, b, c) = (begin(&e, fd), begin(&e, fd), begin(&e, fd));
        let outcomes =
            e.execute_coalesced_write(fd, Some(0), &[(a, b"AAAA"), (b, b"BBBB"), (c, b"CC")]);
        assert_eq!(
            outcomes,
            vec![
                OpOutcome::Ok,
                OpOutcome::Failed(Errno::NoSpc),
                OpOutcome::Failed(Errno::NoSpc),
            ]
        );
        // The prefix the device accepted is on disk.
        assert_eq!(be.contents("/fan").unwrap(), b"AAAABB");
        // Deferred-error attribution: first failing op, its errno.
        match e.execute(&Request::Fsync { fd }, &Bytes::new()).0 {
            Response::DeferredErr { op, errno } => {
                assert_eq!(op, b);
                assert_eq!(errno, Errno::NoSpc);
            }
            other => panic!("expected deferred error, got {other:?}"),
        }
    }

    #[test]
    fn close_never_reaches_backend_sync() {
        let syncs = Arc::new(AtomicUsize::new(0));
        let t = Arc::new(Telemetry::new());
        let e = Engine::with_telemetry(
            Arc::new(StickyLimit {
                inner: Arc::new(MemSinkBackend::new()),
                cap: usize::MAX,
                limit: u64::MAX,
                errno: Errno::Io,
                syncs: syncs.clone(),
            }),
            None,
            t.clone(),
        );
        let run = |req: Request, data: &'static [u8]| {
            let (resp, _) = e.execute(&req, &Bytes::from_static(data));
            assert!(matches!(resp, Response::Ok { .. }), "{req:?}: {resp:?}");
            syncs.load(Ordering::Relaxed)
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
        use crate::backend::FaultBackend;
        use crate::fault::FaultPlan;
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
        let outcomes = e.execute_coalesced_write(fd, Some(0), &[(x, b"a"), (y, b"b")]);
        assert_eq!(
            outcomes,
            vec![
                OpOutcome::Failed(Errno::BadF),
                OpOutcome::Failed(Errno::BadF),
            ]
        );
    }
}
