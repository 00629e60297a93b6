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
//! [`DescDb`] owns the open [`BackendObject`]s, allocates per-descriptor
//! operation ids, tracks which operations are still in flight, and holds
//! the first error of any staged operation until a later call on the
//! same descriptor surfaces it. Ordering a descriptor's later ops behind
//! its staged writes is not done here: each op waits its turn in the
//! descriptor's lane (`server::staged`), so nothing ever blocks on this
//! table.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use iofwd_proto::{Errno, Fd, OpId};
use parking_lot::Mutex;

use crate::backend::BackendObject;
use crate::telemetry::Telemetry;

/// A shared, lockable open backend object.
pub type SharedObject = Arc<Mutex<Box<dyn BackendObject>>>;

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
}

#[derive(Default)]
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
                obj: Arc::new(Mutex::new(obj)),
                next_op: OpId::FIRST,
                in_progress: BTreeSet::new(),
                completed_ops: 0,
                pending_error: None,
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
        if let Some((op, errno)) = e.pending_error.take() {
            return Err(BeginError::Deferred { op, errno });
        }
        let op = e.next_op;
        e.next_op = op.next();
        e.in_progress.insert(op);
        let obj = e.obj.clone();
        if self.telemetry.enabled() {
            self.telemetry.inflight_ops.add(1);
        }
        Ok((op, obj))
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
    /// another thread is using.
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
}
