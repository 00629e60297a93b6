//! The descriptor database.
//!
//! §IV of the paper:
//!
//! > In addition, we maintain a database of open I/O descriptors; for
//! > each, we keep a list of completed and in-progress operations and
//! > their associated status, including errors. We distinguish the
//! > various I/O operations performed on a particular descriptor via a
//! > counter. Errors are passed to the application on subsequent
//! > operations on the descriptor.
//!
//! [`DescDb`] is that database, and the daemon's only table keyed by
//! descriptor: one map under one lock holds, per open descriptor, the
//! [`BackendObject`], its op ids, the ops in flight, the first unreported
//! staged error — and its *lane*. Ops on one descriptor must run in the
//! order the application issued them (a read, `fsync` or `close` sees
//! every write staged before it: §IV's barriers), ops on different
//! descriptors spread freely across the worker pool. In staged mode every
//! op on a descriptor joins its lane at admission, in frame order; at
//! most one item of a lane is dispatched at a time, and completing it
//! releases the next. A barrier is a place in the lane, not a wait.
//! A `close` (or a reclaim) that joins a lane marks the descriptor
//! closing: ops admitted after it are refused `EBADF`, so the closer is
//! its lane's last op and removing the entry when it runs strands
//! nothing.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use iofwd_proto::{Errno, Fd, OpId};

use crate::backend::BackendObject;
use crate::server::{StagedPart, WorkItem, WorkQueue};
use crate::sync::Mutex;
use crate::telemetry::Telemetry;

/// A shared, lockable open backend object.
pub type SharedObject = Arc<parking_lot::Mutex<Box<dyn BackendObject>>>;

/// Outcome of a staged operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    Ok,
    Failed(Errno),
}

struct DescEntry {
    /// The open file/socket; workers lock it per operation, which
    /// serialises I/O on one descriptor while leaving different
    /// descriptors fully concurrent.
    obj: SharedObject,
    next_op: OpId,
    in_progress: BTreeSet<OpId>,
    completed_ops: u64,
    /// First staged failure not yet reported to the client.
    pending_error: Option<(OpId, Errno)>,
    /// The lane: an item of it is dispatched, these wait behind it.
    busy: bool,
    parked: VecDeque<WorkItem>,
    /// A close or reclaim has joined the lane.
    closing: bool,
}

impl DescEntry {
    fn begin(&mut self, telemetry: &Telemetry) -> Result<OpId, BeginError> {
        if let Some((op, errno)) = self.pending_error.take() {
            return Err(BeginError::Deferred { op, errno });
        }
        let op = self.next_op;
        self.next_op = op.next();
        self.in_progress.insert(op);
        if telemetry.enabled() {
            telemetry.inflight_ops.add(1);
        }
        Ok(op)
    }

    /// Head the lane if it is idle, else wait in it as `park(op)`.
    fn enter<T>(&mut self, op: T, park: impl FnOnce(T) -> WorkItem) -> Option<T> {
        if self.busy {
            self.parked.push_back(park(op));
            None
        } else {
            self.busy = true;
            Some(op)
        }
    }
}

struct DbInner {
    entries: HashMap<Fd, DescEntry>,
    next_fd: u32,
}

/// Shared descriptor database: one per daemon.
pub struct DescDb {
    inner: Mutex<DbInner>,
    telemetry: Arc<Telemetry>,
}

/// Snapshot of a descriptor's staging state, for introspection/tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DescStatus {
    pub in_progress: usize,
    pub completed: u64,
    pub has_pending_error: bool,
}

impl Default for DescDb {
    fn default() -> Self {
        Self::new()
    }
}

impl DescDb {
    pub fn new() -> Self {
        Self::with_telemetry(Arc::new(Telemetry::disabled()))
    }

    /// Like [`DescDb::new`], reporting open-descriptor and in-flight-op
    /// gauges plus deferred-error counts into a shared registry.
    pub fn with_telemetry(telemetry: Arc<Telemetry>) -> Self {
        DescDb {
            inner: Mutex::new(DbInner {
                entries: HashMap::new(),
                next_fd: 3, // 0-2 reserved by convention, as POSIX stdio
            }),
            telemetry,
        }
    }

    /// Register a freshly opened backend object; returns its descriptor,
    /// or `EMFILE` once the 32-bit descriptor space is exhausted.
    /// `_origin` (the path or `host:port` opened) is not stored: the
    /// frozen `benchmark/` layer replay calls this two-argument signature.
    pub fn insert(&self, obj: Box<dyn BackendObject>, _origin: &str) -> Result<Fd, Errno> {
        let mut db = self.inner.lock();
        let fd = Fd(db.next_fd);
        db.next_fd = db.next_fd.checked_add(1).ok_or(Errno::MFile)?;
        db.entries.insert(
            fd,
            DescEntry {
                obj: Arc::new(parking_lot::Mutex::new(obj)),
                next_op: OpId::FIRST,
                in_progress: BTreeSet::new(),
                completed_ops: 0,
                pending_error: None,
                busy: false,
                parked: VecDeque::new(),
                closing: false,
            },
        );
        if self.telemetry.enabled() {
            self.telemetry.open_descriptors.add(1);
        }
        Ok(fd)
    }

    /// The backend object for `fd` (to lock and perform I/O on).
    pub fn object(&self, fd: Fd) -> Result<SharedObject, Errno> {
        let db = self.inner.lock();
        db.entries
            .get(&fd)
            .map(|e| e.obj.clone())
            .ok_or(Errno::BadF)
    }

    /// Begin an operation on `fd`: allocates the next per-descriptor
    /// operation id and marks it in progress. Fails with the descriptor's
    /// pending staged error, if any — this is how "errors are passed to
    /// the application on subsequent operations" (§IV).
    pub fn begin_op(&self, fd: Fd) -> Result<(OpId, SharedObject), BeginError> {
        let mut db = self.inner.lock();
        let e = db
            .entries
            .get_mut(&fd)
            .ok_or(BeginError::Sync(Errno::BadF))?;
        let op = e.begin(&self.telemetry)?;
        Ok((op, e.obj.clone()))
    }

    /// [`begin_op`](Self::begin_op) for a staged write, and join the lane
    /// with `part(op)` in the same step: the op id, and the write if it
    /// heads the lane. Refused `EBADF` once a close joined the lane, so a
    /// write acked `Staged` always runs ahead of its descriptor's close.
    pub fn stage(
        &self,
        fd: Fd,
        part: impl FnOnce(OpId) -> StagedPart,
    ) -> Result<(OpId, Option<WorkItem>), BeginError> {
        let mut db = self.inner.lock();
        let e = db
            .entries
            .get_mut(&fd)
            .filter(|e| !e.closing)
            .ok_or(BeginError::Sync(Errno::BadF))?;
        let op = e.begin(&self.telemetry)?;
        let head = e.enter(WorkItem::StagedWrite { fd, part: part(op) }, |w| w);
        Ok((op, head))
    }

    /// Join `fd`'s lane with `op`, which `closes` the descriptor or not:
    /// `Ok(Some(op))` to dispatch now (it heads the lane, or `fd` is not
    /// open and it is answered `EBADF`), `Ok(None)` if it waits in the
    /// lane as `park(op)`, `Err(op)` to answer `EBADF` (a close is ahead).
    pub fn join<T>(
        &self,
        fd: Fd,
        op: T,
        closes: bool,
        park: impl FnOnce(T) -> WorkItem,
    ) -> Result<Option<T>, T> {
        let mut db = self.inner.lock();
        let Some(e) = db.entries.get_mut(&fd) else {
            return Ok(Some(op));
        };
        if e.closing {
            return Err(op);
        }
        e.closing = closes;
        Ok(e.enter(op, park))
    }

    /// Join `fd`'s lane with a departed client's reclaim of it; `true`
    /// if it heads the lane, to run now. Never refused: a close ahead of
    /// it that a closed queue answers unrun leaves it to close `fd`.
    pub fn join_reclaim(&self, fd: Fd) -> bool {
        let mut db = self.inner.lock();
        db.entries.get_mut(&fd).is_some_and(|e| {
            e.closing = true;
            e.enter(WorkItem::Reclaim(fd), |r| r).is_some()
        })
    }

    /// Complete `fd`'s dispatched item; returns the next parked item of
    /// its lane, to dispatch. A no-op on a closed descriptor or idle lane.
    pub fn complete(&self, fd: Fd) -> Option<WorkItem> {
        let mut db = self.inner.lock();
        let e = db.entries.get_mut(&fd)?;
        let next = e.parked.pop_front();
        e.busy = next.is_some();
        next
    }

    /// Drop-safe completion for `fd`: the guard completes the lane when
    /// it goes out of scope — return, `?` or unwind — and re-enqueues the
    /// successor on `queue`, or, with the queue closed, leaves it heading
    /// the lane for [`drain_all`](Self::drain_all). No error path can
    /// leak a lane, or its successors' BML buffers.
    pub fn completion_guard<'a>(&'a self, fd: Fd, queue: &'a WorkQueue) -> CompletionGuard<'a> {
        CompletionGuard {
            db: self,
            queue,
            fd,
            released: false,
        }
    }

    /// The coalescing layer's feed: move parked staged writes from the
    /// front of `fd`'s lane to `out` while they extend the chain ending at
    /// `chain_end` (`None` for a cursor write) within `max_ops` and
    /// `max_bytes`. The first item that does not join stays parked, so
    /// harvested writes run as they would have serially; the lane stays
    /// busy until the caller completes it.
    pub fn harvest_contiguous(
        &self,
        fd: Fd,
        chain_end: Option<u64>,
        max_ops: usize,
        max_bytes: usize,
        out: &mut Vec<StagedPart>,
    ) {
        let mut end = chain_end;
        let mut bytes = 0usize;
        let mut db = self.inner.lock();
        let Some(e) = db.entries.get_mut(&fd) else {
            return;
        };
        for _ in 0..max_ops {
            // A cursor write (`None`) extends a cursor chain, a positional
            // one only a positional chain ending exactly where it starts.
            match e.parked.front() {
                Some(WorkItem::StagedWrite { part, .. })
                    if part.offset == end && bytes + part.buf.len() <= max_bytes => {}
                _ => break,
            }
            let Some(WorkItem::StagedWrite { part, .. }) = e.parked.pop_front() else {
                break;
            };
            bytes += part.buf.len();
            end = part.offset.map(|o| o + part.buf.len() as u64);
            out.push(part);
        }
    }

    /// Items parked across all lanes (for stats/tests).
    pub fn parked(&self) -> usize {
        let db = self.inner.lock();
        db.entries.values().map(|e| e.parked.len()).sum()
    }

    /// Take every parked item, for the shutdown drain; every lane idles.
    pub fn drain_all(&self) -> Vec<WorkItem> {
        let mut db = self.inner.lock();
        db.entries
            .values_mut()
            .flat_map(|e| {
                e.busy = false;
                e.parked.drain(..)
            })
            .collect()
    }

    /// Record the outcome of a previously begun operation. On a
    /// descriptor already removed (closed by another connection while
    /// the op ran) the outcome has nobody to go to, but the op still
    /// leaves the in-flight gauge.
    pub fn finish_op(&self, fd: Fd, op: OpId, outcome: OpOutcome) {
        let mut db = self.inner.lock();
        if let Some(e) = db.entries.get_mut(&fd) {
            let was_tracked = e.in_progress.remove(&op);
            debug_assert!(was_tracked, "finish_op for untracked {op}");
            e.completed_ops += 1;
            if let OpOutcome::Failed(errno) = outcome {
                // Keep only the FIRST unreported failure; later failures
                // on the same descriptor are typically cascades.
                if e.pending_error.is_none() {
                    e.pending_error = Some((op, errno));
                }
                if self.telemetry.enabled() {
                    self.telemetry.deferred_errors.inc();
                }
            }
        }
        drop(db);
        if self.telemetry.enabled() {
            self.telemetry.inflight_ops.add(-1);
        }
    }

    /// Take (and clear) the descriptor's pending staged error.
    pub fn take_error(&self, fd: Fd) -> Option<(OpId, Errno)> {
        let mut db = self.inner.lock();
        db.entries.get_mut(&fd).and_then(|e| e.pending_error.take())
    }

    /// Remove the descriptor, returning its object (the caller drops it:
    /// that is the backend close) and any unreported staged error. No op
    /// on it may start after this; ops still in flight keep the object
    /// alive until they finish, as POSIX `close` does on a descriptor
    /// another thread is using. Its lane goes with it: only a reclaim
    /// can wait behind a closer.
    pub fn remove(&self, fd: Fd) -> Result<(SharedObject, Option<(OpId, Errno)>), Errno> {
        let mut db = self.inner.lock();
        let e = db.entries.remove(&fd).ok_or(Errno::BadF)?;
        if self.telemetry.enabled() {
            self.telemetry.open_descriptors.add(-1);
        }
        Ok((e.obj, e.pending_error))
    }

    pub fn status(&self, fd: Fd) -> Option<DescStatus> {
        let db = self.inner.lock();
        db.entries.get(&fd).map(|e| DescStatus {
            in_progress: e.in_progress.len(),
            completed: e.completed_ops,
            has_pending_error: e.pending_error.is_some(),
        })
    }

    pub fn open_count(&self) -> usize {
        self.inner.lock().entries.len()
    }
}

/// Why `begin_op` refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginError {
    /// Immediate error (bad descriptor).
    Sync(Errno),
    /// A previously staged operation failed; report and clear.
    Deferred { op: OpId, errno: Errno },
}

/// See [`DescDb::completion_guard`].
pub struct CompletionGuard<'a> {
    db: &'a DescDb,
    queue: &'a WorkQueue,
    fd: Fd,
    released: bool,
}

impl CompletionGuard<'_> {
    /// Complete the lane now. A synchronous op it releases is handed
    /// back, for the caller to run in place; any other successor is
    /// re-enqueued as on drop.
    pub fn release(mut self) -> Option<WorkItem> {
        self.released = true;
        match self.db.complete(self.fd)? {
            next @ WorkItem::Sync { .. } => Some(next),
            next => {
                self.push(next);
                None
            }
        }
    }

    /// A successor that lost the race with queue close carries a BML
    /// buffer or a client waiting for its reply: it heads its lane again
    /// until the shutdown drain collects it. (Its entry is there: only
    /// the head of a lane removes it.)
    fn push(&self, next: WorkItem) {
        if let Err(closed) = self.queue.push(next) {
            let mut db = self.db.inner.lock();
            if let Some(e) = db.entries.get_mut(&self.fd) {
                e.busy = true;
                e.parked.push_front(*closed.0);
            }
        }
    }
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        if self.released {
            return;
        }
        if let Some(next) = self.db.complete(self.fd) {
            self.push(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, MemSinkBackend};
    use iofwd_proto::OpenFlags;

    fn open_one(db: &DescDb) -> Fd {
        let be = MemSinkBackend::new();
        let obj = be
            .open("/x", OpenFlags::RDWR | OpenFlags::CREATE, 0)
            .unwrap();
        db.insert(obj, "/x").unwrap()
    }

    #[test]
    fn insert_allocates_increasing_fds() {
        let db = DescDb::new();
        let a = open_one(&db);
        let b = open_one(&db);
        assert!(b > a);
        assert_eq!(db.open_count(), 2);
    }

    #[test]
    fn op_ids_count_per_descriptor() {
        let db = DescDb::new();
        let fd = open_one(&db);
        let (op1, _) = db.begin_op(fd).unwrap();
        db.finish_op(fd, op1, OpOutcome::Ok);
        let (op2, _) = db.begin_op(fd).unwrap();
        assert_eq!(op2, op1.next());
        db.finish_op(fd, op2, OpOutcome::Ok);
        let other = open_one(&db);
        let (op, _) = db.begin_op(other).unwrap();
        assert_eq!(op, OpId::FIRST, "counter is per descriptor");
        db.finish_op(other, op, OpOutcome::Ok);
    }

    #[test]
    fn deferred_error_surfaces_on_next_op() {
        let db = DescDb::new();
        let fd = open_one(&db);
        let (op, _) = db.begin_op(fd).unwrap();
        db.finish_op(fd, op, OpOutcome::Failed(Errno::NoSpc));
        match db.begin_op(fd) {
            Err(BeginError::Deferred { op: failed, errno }) => {
                assert_eq!(failed, op);
                assert_eq!(errno, Errno::NoSpc);
            }
            Err(other) => panic!("expected deferred error, got {other:?}"),
            Ok(_) => panic!("expected deferred error, got Ok"),
        }
        // The error is cleared after being reported once.
        let (op2, _) = db.begin_op(fd).unwrap();
        db.finish_op(fd, op2, OpOutcome::Ok);
    }

    #[test]
    fn only_first_error_kept() {
        let db = DescDb::new();
        let fd = open_one(&db);
        let (op1, _) = db.begin_op(fd).unwrap();
        let (op2, _) = db.begin_op(fd).unwrap();
        db.finish_op(fd, op1, OpOutcome::Failed(Errno::Io));
        db.finish_op(fd, op2, OpOutcome::Failed(Errno::NoSpc));
        assert_eq!(db.take_error(fd), Some((op1, Errno::Io)));
        assert_eq!(db.take_error(fd), None);
    }

    #[test]
    fn remove_under_an_op_in_flight_still_settles_its_gauge() {
        let t = Arc::new(Telemetry::new());
        let db = DescDb::with_telemetry(t.clone());
        let fd = open_one(&db);
        let (op, _) = db.begin_op(fd).unwrap();
        db.remove(fd).unwrap();
        db.finish_op(fd, op, OpOutcome::Ok);
        assert_eq!(t.inflight_ops.get(), 0);
        assert_eq!(t.open_descriptors.get(), 0);
    }

    #[test]
    fn close_refuses_new_ops_and_reports_error() {
        let db = DescDb::new();
        let fd = open_one(&db);
        let (op, _) = db.begin_op(fd).unwrap();
        db.finish_op(fd, op, OpOutcome::Failed(Errno::Pipe));
        let (_obj, err) = db.remove(fd).unwrap();
        assert_eq!(err, Some((op, Errno::Pipe)));
        assert!(matches!(
            db.begin_op(fd),
            Err(BeginError::Sync(Errno::BadF))
        ));
        assert_eq!(db.open_count(), 0);
    }

    #[test]
    fn unknown_fd_errors() {
        let db = DescDb::new();
        assert!(matches!(
            db.begin_op(Fd(99)),
            Err(BeginError::Sync(Errno::BadF))
        ));
        assert!(db.remove(Fd(99)).is_err());
        assert!(db.status(Fd(99)).is_none());
    }

    #[test]
    fn status_snapshot() {
        let db = DescDb::new();
        let fd = open_one(&db);
        let (op, _) = db.begin_op(fd).unwrap();
        assert_eq!(
            db.status(fd).unwrap(),
            DescStatus {
                in_progress: 1,
                completed: 0,
                has_pending_error: false
            }
        );
        db.finish_op(fd, op, OpOutcome::Ok);
        assert_eq!(
            db.status(fd).unwrap(),
            DescStatus {
                in_progress: 0,
                completed: 1,
                has_pending_error: false
            }
        );
    }

    // The lane.

    use crate::bml::Bml;
    use crate::server::{ReplyTo, Route};
    use crate::telemetry::OpSpan;
    use bytes::Bytes;
    use iofwd_proto::Request;

    fn item(tag: u32) -> WorkItem {
        let (route, _) = Route::channel(None, Arc::new(Telemetry::disabled()));
        WorkItem::Sync {
            req: Request::Fsync { fd: Fd(tag) },
            data: Bytes::new(),
            reply: ReplyTo::new(route, Default::default(), OpSpan::default()),
            lane: None,
        }
    }

    fn tag(i: &WorkItem) -> u32 {
        match i {
            WorkItem::Sync {
                req: Request::Fsync { fd },
                ..
            } => fd.0,
            _ => unreachable!(),
        }
    }

    fn part(bml: &Bml, tag: u32, offset: Option<u64>, len: usize) -> StagedPart {
        let mut buf = bml.acquire(len).unwrap();
        buf.fill_from(&vec![tag as u8; len]);
        StagedPart {
            op: OpId(tag as u64),
            offset,
            buf,
            span: OpSpan::default(),
        }
    }

    fn staged(bml: &Bml, fd: Fd, tag: u32, offset: Option<u64>, len: usize) -> WorkItem {
        let part = part(bml, tag, offset, len);
        WorkItem::StagedWrite { fd, part }
    }

    fn staged_tag(i: &WorkItem) -> u32 {
        match i {
            WorkItem::StagedWrite { part, .. } => part.op.0 as u32,
            _ => unreachable!(),
        }
    }

    /// Join `fd`'s lane with an op that does not close it.
    fn admit(db: &DescDb, fd: Fd, item: WorkItem) -> Option<WorkItem> {
        match db.join(fd, item, false, |i| i) {
            Ok(go) => go,
            Err(_) => panic!("an open lane refused an op"),
        }
    }

    fn harvest(
        db: &DescDb,
        fd: Fd,
        chain_end: Option<u64>,
        max_ops: usize,
        max_bytes: usize,
    ) -> Vec<StagedPart> {
        let mut out = Vec::new();
        db.harvest_contiguous(fd, chain_end, max_ops, max_bytes, &mut out);
        out
    }

    fn part_tags(parts: &[StagedPart]) -> Vec<u32> {
        parts.iter().map(|p| p.op.0 as u32).collect()
    }

    #[test]
    fn harvest_takes_contiguous_prefix_only() {
        let bml = Bml::new(1 << 20);
        let db = DescDb::new();
        let fd = open_one(&db);
        // In-flight positional write covering [0, 100).
        assert!(admit(&db, fd, staged(&bml, fd, 0, Some(0), 100)).is_some());
        // Parked: two contiguous successors, then a gap, then another.
        assert!(admit(&db, fd, staged(&bml, fd, 1, Some(100), 50)).is_none());
        assert!(admit(&db, fd, staged(&bml, fd, 2, Some(150), 50)).is_none());
        assert!(admit(&db, fd, staged(&bml, fd, 3, Some(999), 50)).is_none());
        assert!(admit(&db, fd, staged(&bml, fd, 4, Some(1049), 50)).is_none());
        let got = harvest(&db, fd, Some(100), 16, 1 << 20);
        assert_eq!(part_tags(&got), vec![1, 2]);
        // The gap item (and its successor) stay parked, in order.
        assert_eq!(db.parked(), 2);
        let next = db.complete(fd).unwrap();
        assert_eq!(staged_tag(&next), 3);
    }

    #[test]
    fn harvest_respects_budgets_and_shape() {
        let bml = Bml::new(1 << 20);
        let db = DescDb::new();
        let fd = open_one(&db);
        assert!(admit(&db, fd, staged(&bml, fd, 0, None, 10)).is_some());
        for t in 1..=5 {
            assert!(admit(&db, fd, staged(&bml, fd, t, None, 10)).is_none());
        }
        // A cursor chain harvests cursor writes, capped by max_ops...
        let got = harvest(&db, fd, None, 2, 1 << 20);
        assert_eq!(part_tags(&got), vec![1, 2]);
        // ...and by max_bytes (3 fits alone; 4 would exceed 15 bytes).
        let got = harvest(&db, fd, None, 16, 15);
        assert_eq!(part_tags(&got), vec![3]);
        // A positional chain never harvests cursor writes.
        assert!(harvest(&db, fd, Some(40), 16, 1 << 20).is_empty());
        assert_eq!(db.parked(), 2);
    }

    #[test]
    fn harvest_ignores_unknown_lane_and_sync_items() {
        let db = DescDb::new();
        assert!(harvest(&db, Fd(9), Some(0), 16, 1 << 20).is_empty());
        let fd = open_one(&db);
        assert!(admit(&db, fd, item(10)).is_some());
        assert!(admit(&db, fd, item(11)).is_none());
        // A parked Sync item never joins a write chain.
        assert!(harvest(&db, fd, None, 16, 1 << 20).is_empty());
        assert_eq!(db.parked(), 1);
    }

    #[test]
    fn first_item_passes_through() {
        let db = DescDb::new();
        let fd = open_one(&db);
        assert!(admit(&db, fd, item(10)).is_some());
        assert_eq!(db.parked(), 0);
    }

    #[test]
    fn second_item_parks_until_complete() {
        let db = DescDb::new();
        let fd = open_one(&db);
        assert!(admit(&db, fd, item(10)).is_some());
        assert!(admit(&db, fd, item(11)).is_none());
        assert!(admit(&db, fd, item(12)).is_none());
        assert_eq!(db.parked(), 2);
        // Completion releases in FIFO order.
        let next = db.complete(fd).unwrap();
        assert_eq!(tag(&next), 11);
        let next = db.complete(fd).unwrap();
        assert_eq!(tag(&next), 12);
        assert!(db.complete(fd).is_none());
        assert_eq!(db.parked(), 0);
    }

    #[test]
    fn lanes_are_independent() {
        let db = DescDb::new();
        let (a, b) = (open_one(&db), open_one(&db));
        assert!(admit(&db, a, item(10)).is_some());
        assert!(
            admit(&db, b, item(20)).is_some(),
            "other fd must not be blocked"
        );
    }

    #[test]
    fn lane_reusable_after_drain() {
        let db = DescDb::new();
        let fd = open_one(&db);
        assert!(admit(&db, fd, item(1)).is_some());
        assert!(db.complete(fd).is_none());
        assert!(admit(&db, fd, item(2)).is_some());
    }

    #[test]
    fn complete_is_total_on_unknown_lane() {
        let db = DescDb::new();
        // Never opened: no panic, no successor.
        assert!(db.complete(Fd(99)).is_none());
        // Double-complete of an idle lane: same.
        let fd = open_one(&db);
        assert!(admit(&db, fd, item(1)).is_some());
        assert!(db.complete(fd).is_none());
        assert!(db.complete(fd).is_none());
    }

    #[test]
    fn guard_completes_lane_on_drop_and_requeues_successor() {
        let db = DescDb::new();
        let fd = open_one(&db);
        let q = WorkQueue::new(1);
        assert!(admit(&db, fd, item(10)).is_some());
        assert!(admit(&db, fd, item(11)).is_none());
        {
            // Worker "drops the StagedWrite on an error path" — the
            // guard still releases the lane and re-enqueues item 11.
            let _guard = db.completion_guard(fd, &q);
        }
        assert_eq!(db.parked(), 0);
        let batch = q.pop_batch(0, 10);
        assert_eq!(batch.len(), 1);
        assert_eq!(tag(&batch[0]), 11);
    }

    #[test]
    fn guard_parks_orphan_when_queue_closed() {
        let db = DescDb::new();
        let fd = open_one(&db);
        let q = WorkQueue::new(1);
        assert!(admit(&db, fd, item(10)).is_some());
        assert!(admit(&db, fd, item(11)).is_none());
        q.close();
        drop(db.completion_guard(fd, &q));
        // The successor lost the race with close but was not dropped.
        assert_eq!(db.parked(), 1);
        let drained = db.drain_all();
        assert_eq!(drained.len(), 1);
        assert_eq!(tag(&drained[0]), 11);
        assert_eq!(db.parked(), 0);
    }

    #[test]
    fn drain_all_collects_lane_successors() {
        let db = DescDb::new();
        let (a, b) = (open_one(&db), open_one(&db));
        assert!(admit(&db, a, item(10)).is_some());
        assert!(admit(&db, a, item(11)).is_none());
        assert!(admit(&db, b, item(20)).is_some());
        assert!(admit(&db, b, item(21)).is_none());
        let mut drained: Vec<u32> = db.drain_all().iter().map(tag).collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![11, 21]);
        // Lanes are idle; stale completes are no-ops.
        assert!(db.complete(a).is_none());
        assert!(db.complete(b).is_none());
    }

    /// Close is a barrier that ends the lane: the write staged before it
    /// runs ahead of it, and every op admitted after it — a staged
    /// write, another op, a second close — is refused `EBADF` without an
    /// op begun, so removing the entry when the close runs strands
    /// nothing.
    #[test]
    fn a_close_in_the_lane_refuses_every_later_op() {
        let bml = Bml::new(1 << 20);
        let db = DescDb::new();
        let fd = open_one(&db);
        let (first, head) = db.stage(fd, |_| part(&bml, 1, Some(0), 8)).unwrap();
        assert!(head.is_some(), "the write heads the idle lane");
        assert!(matches!(db.join(fd, item(2), true, |i| i), Ok(None)));
        let late = part(&bml, 3, Some(8), 8);
        assert!(matches!(
            db.stage(fd, move |_| late),
            Err(BeginError::Sync(Errno::BadF))
        ));
        assert!(db.join(fd, item(4), false, |i| i).is_err());
        assert!(db.join(fd, item(5), true, |i| i).is_err());
        assert_eq!(db.status(fd).unwrap().in_progress, 1);
        assert_eq!(bml.outstanding(), 4096, "the refused write's block is back");
        // The write runs, then releases the close, which removes the
        // entry: nothing is left behind it.
        db.finish_op(fd, first, OpOutcome::Ok);
        drop(head);
        assert_eq!(tag(&db.complete(fd).unwrap()), 2);
        db.remove(fd).unwrap();
        assert!(db.complete(fd).is_none());
        assert_eq!((db.parked(), db.open_count()), (0, 0));
        assert_eq!(bml.outstanding(), 0);
    }

    /// A reclaim is never refused: behind a close that a closed queue
    /// answered without running it, it still closes the descriptor. An
    /// op on a descriptor that is not open runs at once, in no lane.
    #[test]
    fn a_reclaim_closes_the_descriptor_behind_a_close_that_never_ran() {
        let db = DescDb::new();
        let fd = open_one(&db);
        assert!(admit(&db, fd, item(1)).is_some());
        assert!(matches!(db.join(fd, item(2), true, |i| i), Ok(None)));
        assert!(!db.join_reclaim(fd), "the reclaim waits behind the close");
        assert_eq!(tag(&db.complete(fd).unwrap()), 2);
        // The close is answered EAGAIN, unrun: the reclaim comes next.
        assert!(matches!(db.complete(fd), Some(WorkItem::Reclaim(r)) if r == fd));
        db.remove(fd).unwrap();
        assert!(!db.join_reclaim(fd), "nothing left to reclaim");
        let Ok(Some(gone)) = db.join(fd, item(3), true, |i| i) else {
            panic!("an op on a closed descriptor runs at once");
        };
        assert_eq!(tag(&gone), 3);
        assert!(db.complete(fd).is_none());
        assert_eq!(db.parked(), 0);
    }
}
