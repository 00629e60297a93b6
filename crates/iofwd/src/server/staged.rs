//! Per-descriptor serialization in staged mode.
//!
//! Ops on *one* descriptor must execute in the order the application
//! issued them — a cursor write sequence or a byte stream to a DA node is
//! order-sensitive, and a read, `fsync`, `lseek` or `close` must see every
//! write staged before it (§IV's barriers) — while ops on *different*
//! descriptors spread freely across the worker pool. The [`FdSerializer`]
//! provides exactly that: each descriptor is a lane that every op on it
//! joins at admission, in frame order; at most one item per lane is
//! dispatched at a time, and completing it releases the next. A barrier is
//! therefore a place in the lane, not a wait: lanes never block a thread —
//! ordering is enforced at dispatch, so nothing can deadlock on it.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use iofwd_proto::Fd;

use crate::sync::Mutex;

use super::queue::{StagedPart, WorkItem, WorkQueue};

#[derive(Default)]
struct Lane {
    busy: bool,
    pending: VecDeque<WorkItem>,
}

/// Dispatch-order serializer keyed by descriptor.
#[derive(Default)]
pub struct FdSerializer {
    lanes: Mutex<HashMap<Fd, Lane>>,
}

impl FdSerializer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Join `fd`'s lane with `op`. If the lane is idle, `op` heads it now
    /// and is handed back for the caller to dispatch; otherwise it waits
    /// in the lane as `park(op)`, for the completion of the item ahead to
    /// release it, and `None` is returned.
    pub fn join<T>(&self, fd: Fd, op: T, park: impl FnOnce(T) -> WorkItem) -> Option<T> {
        let mut lanes = self.lanes.lock();
        let lane = lanes.entry(fd).or_default();
        if lane.busy {
            lane.pending.push_back(park(op));
            None
        } else {
            lane.busy = true;
            Some(op)
        }
    }

    /// [`join`](Self::join) with an item already built.
    pub fn admit(&self, fd: Fd, item: WorkItem) -> Option<WorkItem> {
        self.join(fd, item, |item| item)
    }

    /// Mark `fd`'s in-flight item complete. Returns the next parked item
    /// for that lane (the caller enqueues it), if any. Total: completing
    /// an unknown or idle lane (a double-complete racing descriptor
    /// close, or a guard firing after `drain_all`) is a no-op, not a
    /// panic.
    pub fn complete(&self, fd: Fd) -> Option<WorkItem> {
        let mut lanes = self.lanes.lock();
        let lane = lanes.get_mut(&fd)?;
        match lane.pending.pop_front() {
            Some(next) => Some(next),
            None => {
                lane.busy = false;
                // Drop empty idle lanes so closed descriptors don't leak.
                lanes.remove(&fd);
                None
            }
        }
    }

    /// Drop-safe completion for `fd`: the returned guard completes the
    /// lane when it goes out of scope — normal return, `?`, or unwind —
    /// and re-enqueues the successor on `queue`, or, if the queue has
    /// closed, leaves it heading the lane for the shutdown drain
    /// ([`drain_all`](Self::drain_all)). Holding the guard across
    /// execution makes it impossible to leak a lane (and with it every
    /// successor's BML buffer) on an error path.
    pub fn completion_guard(self: &Arc<Self>, fd: Fd, queue: Arc<WorkQueue>) -> CompletionGuard {
        CompletionGuard {
            serializer: self.clone(),
            queue,
            fd,
            released: false,
        }
    }

    /// Harvest parked staged writes from the front of `fd`'s lane while
    /// they extend a contiguous chain: the coalescing layer's feed.
    ///
    /// `chain_end` is where the worker's in-flight write ends —
    /// `Some(offset + len)` for a positional write, `None` for a cursor
    /// write. A parked `StagedWrite` joins the chain when it is the
    /// same shape (positional starting exactly at the chain end, or
    /// cursor following cursor) and fits `max_bytes`/`max_ops`. The
    /// first non-joining item stops the harvest and stays parked, so
    /// per-lane FIFO order is preserved: harvested items execute in
    /// the batch, ahead of everything still pending, exactly as they
    /// would have serially. The lane stays busy; the caller's
    /// completion releases whatever remains. Harvested writes are
    /// appended to `out`, the caller's reused buffer.
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
        let mut lanes = self.lanes.lock();
        let Some(lane) = lanes.get_mut(&fd) else {
            return;
        };
        for _ in 0..max_ops {
            let joins = match lane.pending.front() {
                Some(WorkItem::StagedWrite { part, .. }) => {
                    let contiguous = match (end, part.offset) {
                        // A cursor write extends a cursor chain...
                        (None, None) => true,
                        // ...a positional write extends a positional
                        // chain only from exactly the chain end.
                        (Some(e), Some(o)) => o == e,
                        _ => false,
                    };
                    contiguous && bytes + part.buf.len() <= max_bytes
                }
                _ => false,
            };
            if !joins {
                break;
            }
            let Some(WorkItem::StagedWrite { part, .. }) = lane.pending.pop_front() else {
                break;
            };
            bytes += part.buf.len();
            end = part.offset.map(|o| o + part.buf.len() as u64);
            out.push(part);
        }
    }

    /// Items parked across all lanes (for stats/tests).
    pub fn parked(&self) -> usize {
        self.lanes.lock().values().map(|l| l.pending.len()).sum()
    }

    /// Take every item still parked in a lane, for the shutdown drain.
    /// After this, lanes are empty; `complete` on a drained lane is a
    /// no-op.
    pub fn drain_all(&self) -> Vec<WorkItem> {
        let mut lanes = self.lanes.lock();
        lanes.drain().flat_map(|(_, lane)| lane.pending).collect()
    }
}

/// See [`FdSerializer::completion_guard`].
pub struct CompletionGuard {
    serializer: Arc<FdSerializer>,
    queue: Arc<WorkQueue>,
    fd: Fd,
    released: bool,
}

impl CompletionGuard {
    /// Complete the lane now. A synchronous op it releases is handed
    /// back, for the caller to run in place; any other successor is
    /// re-enqueued as on drop.
    pub fn release(mut self) -> Option<WorkItem> {
        self.released = true;
        match self.serializer.complete(self.fd)? {
            next @ WorkItem::Sync { .. } => Some(next),
            next => {
                self.push(next);
                None
            }
        }
    }

    /// A successor that lost the race with queue close carries a BML
    /// buffer or a client waiting for its reply: it heads its lane again
    /// until the shutdown drain collects it.
    fn push(&self, next: WorkItem) {
        if let Err(closed) = self.queue.push(next) {
            let mut lanes = self.serializer.lanes.lock();
            let lane = lanes.entry(self.fd).or_default();
            lane.busy = true;
            lane.pending.push_front(*closed.0);
        }
    }
}

impl Drop for CompletionGuard {
    fn drop(&mut self) {
        if self.released {
            return;
        }
        if let Some(next) = self.serializer.complete(self.fd) {
            self.push(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::queue::{ReplyTo, Route};
    use super::*;
    use crate::telemetry::{OpSpan, Telemetry};
    use bytes::Bytes;
    use iofwd_proto::Request;

    fn item(tag: u32) -> WorkItem {
        let (route, _) = Route::channel(None, Arc::new(Telemetry::disabled()));
        WorkItem::Sync {
            req: Request::Fsync { fd: Fd(tag) },
            data: Bytes::new(),
            reply: ReplyTo::new(route, Default::default(), OpSpan::default()),
            lane: Some(Fd(1)),
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

    fn staged(bml: &crate::bml::Bml, tag: u32, offset: Option<u64>, len: usize) -> WorkItem {
        let mut buf = bml.acquire(len).unwrap();
        buf.fill_from(&vec![tag as u8; len]);
        WorkItem::StagedWrite {
            fd: Fd(1),
            part: StagedPart {
                op: iofwd_proto::OpId(tag as u64),
                offset,
                buf,
                span: crate::telemetry::OpSpan::default(),
            },
        }
    }

    fn staged_tag(i: &WorkItem) -> u32 {
        match i {
            WorkItem::StagedWrite { part, .. } => part.op.0 as u32,
            _ => unreachable!(),
        }
    }

    fn harvest(
        s: &FdSerializer,
        fd: Fd,
        chain_end: Option<u64>,
        max_ops: usize,
        max_bytes: usize,
    ) -> Vec<StagedPart> {
        let mut out = Vec::new();
        s.harvest_contiguous(fd, chain_end, max_ops, max_bytes, &mut out);
        out
    }

    fn part_tags(parts: &[StagedPart]) -> Vec<u32> {
        parts.iter().map(|p| p.op.0 as u32).collect()
    }

    #[test]
    fn harvest_takes_contiguous_prefix_only() {
        let bml = crate::bml::Bml::new(1 << 20);
        let s = FdSerializer::new();
        // In-flight positional write covering [0, 100).
        assert!(s.admit(Fd(1), staged(&bml, 0, Some(0), 100)).is_some());
        // Parked: two contiguous successors, then a gap, then another.
        assert!(s.admit(Fd(1), staged(&bml, 1, Some(100), 50)).is_none());
        assert!(s.admit(Fd(1), staged(&bml, 2, Some(150), 50)).is_none());
        assert!(s.admit(Fd(1), staged(&bml, 3, Some(999), 50)).is_none());
        assert!(s.admit(Fd(1), staged(&bml, 4, Some(1049), 50)).is_none());
        let got = harvest(&s, Fd(1), Some(100), 16, 1 << 20);
        assert_eq!(part_tags(&got), vec![1, 2]);
        // The gap item (and its successor) stay parked, in order.
        assert_eq!(s.parked(), 2);
        let next = s.complete(Fd(1)).unwrap();
        assert_eq!(staged_tag(&next), 3);
    }

    #[test]
    fn harvest_respects_budgets_and_shape() {
        let bml = crate::bml::Bml::new(1 << 20);
        let s = FdSerializer::new();
        assert!(s.admit(Fd(1), staged(&bml, 0, None, 10)).is_some());
        for t in 1..=5 {
            assert!(s.admit(Fd(1), staged(&bml, t, None, 10)).is_none());
        }
        // A cursor chain harvests cursor writes, capped by max_ops...
        let got = harvest(&s, Fd(1), None, 2, 1 << 20);
        assert_eq!(part_tags(&got), vec![1, 2]);
        // ...and by max_bytes (3 fits alone; 4 would exceed 15 bytes).
        let got = harvest(&s, Fd(1), None, 16, 15);
        assert_eq!(part_tags(&got), vec![3]);
        // A positional chain never harvests cursor writes.
        assert!(harvest(&s, Fd(1), Some(40), 16, 1 << 20).is_empty());
        assert_eq!(s.parked(), 2);
    }

    #[test]
    fn harvest_ignores_unknown_lane_and_sync_items() {
        let s = FdSerializer::new();
        assert!(harvest(&s, Fd(9), Some(0), 16, 1 << 20).is_empty());
        assert!(s.admit(Fd(1), item(10)).is_some());
        assert!(s.admit(Fd(1), item(11)).is_none());
        // A parked Sync item never joins a write chain.
        assert!(harvest(&s, Fd(1), None, 16, 1 << 20).is_empty());
        assert_eq!(s.parked(), 1);
    }

    #[test]
    fn first_item_passes_through() {
        let s = FdSerializer::new();
        assert!(s.admit(Fd(1), item(10)).is_some());
        assert_eq!(s.parked(), 0);
    }

    #[test]
    fn second_item_parks_until_complete() {
        let s = FdSerializer::new();
        assert!(s.admit(Fd(1), item(10)).is_some());
        assert!(s.admit(Fd(1), item(11)).is_none());
        assert!(s.admit(Fd(1), item(12)).is_none());
        assert_eq!(s.parked(), 2);
        // Completion releases in FIFO order.
        let next = s.complete(Fd(1)).unwrap();
        assert_eq!(tag(&next), 11);
        let next = s.complete(Fd(1)).unwrap();
        assert_eq!(tag(&next), 12);
        assert!(s.complete(Fd(1)).is_none());
        assert_eq!(s.parked(), 0);
    }

    #[test]
    fn lanes_are_independent() {
        let s = FdSerializer::new();
        assert!(s.admit(Fd(1), item(10)).is_some());
        assert!(
            s.admit(Fd(2), item(20)).is_some(),
            "other fd must not be blocked"
        );
    }

    #[test]
    fn lane_reusable_after_drain() {
        let s = FdSerializer::new();
        assert!(s.admit(Fd(1), item(1)).is_some());
        assert!(s.complete(Fd(1)).is_none());
        assert!(s.admit(Fd(1), item(2)).is_some());
    }

    #[test]
    fn complete_is_total_on_unknown_lane() {
        let s = FdSerializer::new();
        // Never admitted: no panic, no successor.
        assert!(s.complete(Fd(99)).is_none());
        // Double-complete after the lane was removed: same.
        assert!(s.admit(Fd(1), item(1)).is_some());
        assert!(s.complete(Fd(1)).is_none());
        assert!(s.complete(Fd(1)).is_none());
    }

    #[test]
    fn guard_completes_lane_on_drop_and_requeues_successor() {
        let s = Arc::new(FdSerializer::new());
        let q = Arc::new(WorkQueue::new(1));
        assert!(s.admit(Fd(1), item(10)).is_some());
        assert!(s.admit(Fd(1), item(11)).is_none());
        {
            // Worker "drops the StagedWrite on an error path" — the
            // guard still releases the lane and re-enqueues item 11.
            let _guard = s.completion_guard(Fd(1), q.clone());
        }
        assert_eq!(s.parked(), 0);
        let batch = q.pop_batch(0, 10);
        assert_eq!(batch.len(), 1);
        assert_eq!(tag(&batch[0]), 11);
    }

    #[test]
    fn guard_parks_orphan_when_queue_closed() {
        let s = Arc::new(FdSerializer::new());
        let q = Arc::new(WorkQueue::new(1));
        assert!(s.admit(Fd(1), item(10)).is_some());
        assert!(s.admit(Fd(1), item(11)).is_none());
        q.close();
        drop(s.completion_guard(Fd(1), q.clone()));
        // The successor lost the race with close but was not dropped.
        assert_eq!(s.parked(), 1);
        let drained = s.drain_all();
        assert_eq!(drained.len(), 1);
        assert_eq!(tag(&drained[0]), 11);
        assert_eq!(s.parked(), 0);
    }

    #[test]
    fn drain_all_collects_lane_successors() {
        let s = FdSerializer::new();
        assert!(s.admit(Fd(1), item(10)).is_some());
        assert!(s.admit(Fd(1), item(11)).is_none());
        assert!(s.admit(Fd(2), item(20)).is_some());
        assert!(s.admit(Fd(2), item(21)).is_none());
        let mut drained: Vec<u32> = s.drain_all().iter().map(tag).collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![11, 21]);
        // Lanes are gone; stale completes are no-ops.
        assert!(s.complete(Fd(1)).is_none());
        assert!(s.complete(Fd(2)).is_none());
    }
}
