//! The I/O work queue (§IV).
//!
//! > To enable I/O scheduling, we augmented ZOID's thread model with a
//! > work queue model using a shared first-in first-out (FIFO) work
//! > queue. [...] We use a pool of worker threads to handle the I/O tasks
//! > in the work queue. [...] To facilitate I/O multiplexing per thread,
//! > a worker thread dequeues multiple I/O requests and executes them in
//! > an event loop. [...] We use a simple load-balancing heuristic to
//! > balance the tasks among the work threads.
//!
//! This is that queue: one FIFO, one lock, one condvar. The queue keeps
//! no per-client order of its own, and needs none: a synchronous op's
//! client waits for its reply, and in staged mode the descriptor lanes
//! (`descdb.rs`) order the rest — a descriptor has at most one item
//! queued at a time, its later ops (staged writes, the barrier behind
//! them) wait in its lane, and the coalescer harvests adjacent writes
//! from the lane, not from a popped batch.
//!
//! The same lock guards the cap on how many ops execute at once:
//! `workers` execution slots. A worker holds one while it runs a popped
//! batch, and waits for an item *and* a free slot before it takes
//! either; a thread that may block, with a synchronous op in hand,
//! claims a free one without waiting ([`WorkQueue::try_claim`]) and runs
//! the op itself instead of pushing it.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use iofwd_proto::{Errno, Fd, OpId, Request, Response};
use polling::Waker;

use crate::bml::BmlBuffer;
use crate::sync::{Condvar, Mutex};
use crate::telemetry::{Disposition, OpSpan, Telemetry};

/// What a finished op means for its connection's descriptor set
/// (decided once, at admission, from the request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SessionEffect {
    /// No descriptor is created or retired.
    #[default]
    None,
    /// `Open`/`Connect`: success allocates a descriptor to track.
    Opens,
    /// `Close`: success (or a deferred error) releases the descriptor.
    Closes(Fd),
}

/// Reply addressing plus session effect of one admitted op: everything
/// needed, besides the outcome itself, to answer the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ticket {
    pub client_id: u32,
    pub seq: u64,
    pub effect: SessionEffect,
}

/// A finished op on its way back to the connection that admitted it:
/// the outcome, and the `(token, gen)` address of that connection (a
/// reactor slot; a threaded connection's own sink has address `(0, 0)`).
/// A stale `gen` means the client disconnected while the op was in
/// flight: the span still folds, the reply has nowhere to go.
pub struct Completion {
    pub token: usize,
    pub gen: u64,
    pub ticket: Ticket,
    pub resp: Response,
    pub data: Bytes,
    pub span: OpSpan,
}

/// Where queued ops come back: one channel per threaded connection, one
/// per event loop (with the loop's waker) on the reactor, made when the
/// connection or loop starts. Its owner drains the receiving end — a
/// handler blocks on it, an event loop drains it when woken.
pub struct CompletionSink {
    tx: Sender<Completion>,
    waker: Option<Waker>,
    telemetry: Arc<Telemetry>,
}

impl CompletionSink {
    fn complete(&self, completion: Completion) {
        match self.tx.send(completion) {
            Ok(()) => {
                if let Some(waker) = &self.waker {
                    waker.wake();
                }
            }
            // The owner is gone (client or loop shut down): the reply has
            // no destination, but the span still reaches the recorder.
            Err(unsent) => abandon(&self.telemetry, unsent.0.span),
        }
    }
}

/// Fold the span of an op whose connection is gone: the reply has no
/// destination, but the op still reaches the flight recorder.
pub(crate) fn abandon(telemetry: &Telemetry, mut span: OpSpan) {
    span.reply_ns = telemetry.now_ns();
    telemetry.complete(&span);
}

/// How a queued op reaches the connection that admitted it — the one
/// reply route, on both drivers: the connection's completion sink and
/// its `(token, gen)` address there. Cloning one is one `Arc` clone.
#[derive(Clone)]
pub struct Route {
    pub sink: Arc<CompletionSink>,
    pub token: usize,
    pub gen: u64,
}

impl Route {
    /// A new sink, addressed `(0, 0)`, and the receiving end its owner
    /// waits on; `waker` wakes an event loop on every completion.
    pub fn channel(
        waker: Option<Waker>,
        telemetry: Arc<Telemetry>,
    ) -> (Route, Receiver<Completion>) {
        let (tx, rx) = unbounded();
        let sink = Arc::new(CompletionSink {
            tx,
            waker,
            telemetry,
        });
        (
            Route {
                sink,
                token: 0,
                gen: 0,
            },
            rx,
        )
    }
}

/// How a queued [`WorkItem::Sync`] is answered: its route, the op's
/// ticket and its span (which the worker stamps). Answered exactly once:
/// [`deliver`](Self::deliver), or — dropped unanswered, by a worker's
/// unwind or a lost item — `EIO` with disposition `QueueRejected`, which
/// closes the connection.
pub struct ReplyTo {
    route: Option<Route>,
    pub ticket: Ticket,
    pub span: OpSpan,
}

impl ReplyTo {
    pub fn new(route: Route, ticket: Ticket, span: OpSpan) -> ReplyTo {
        ReplyTo {
            route: Some(route),
            ticket,
            span,
        }
    }

    /// Send the outcome to the connection; whoever drains the sink
    /// stamps `reply_ns` and folds the span.
    pub fn deliver(mut self, resp: Response, data: Bytes) {
        self.send(resp, data);
    }

    fn send(&mut self, resp: Response, data: Bytes) {
        if let Some(Route { sink, token, gen }) = self.route.take() {
            sink.complete(Completion {
                token,
                gen,
                ticket: self.ticket,
                resp,
                data,
                span: self.span,
            });
        }
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        if self.route.is_some() {
            let errno = Errno::Io;
            self.span.ok = false;
            self.span.errno = errno.to_wire();
            self.span.disposition = Disposition::QueueRejected;
            if self.span.dispatch_ns == 0 {
                self.span.dispatch_ns = self.span.enqueue_ns;
            }
            self.send(Response::Err { errno }, Bytes::new());
        }
    }
}

/// A unit of work for the worker pool. Every op carries its lifecycle
/// span; the worker stamps dispatch/backend stages into it.
pub enum WorkItem {
    /// Execute a request and answer it through `reply`, which carries its
    /// span (the synchronous-scheduling path). `lane` is the descriptor
    /// lane it holds, in staged mode; running it completes that lane.
    Sync {
        req: Request,
        data: Bytes,
        reply: ReplyTo,
        lane: Option<Fd>,
    },
    /// A staged write: data already in BML memory, the client already
    /// released (the asynchronous-staging path). The buffer returns to
    /// the BML when the item is dropped after execution.
    StagedWrite { fd: Fd, part: StagedPart },
    /// Close a descriptor its client left open when it went away, in its
    /// turn on the descriptor's lane (staged mode).
    Reclaim(Fd),
}

/// One staged write minus its descriptor: the payload of a
/// [`WorkItem::StagedWrite`], and one part of the list of buffers a
/// worker writes in one backend call (`handlers::execute_staged`): the
/// write alone, or with the contiguous writes harvested behind it.
pub struct StagedPart {
    pub op: OpId,
    /// `Some` for pwrite, `None` for a cursor write.
    pub offset: Option<u64>,
    pub buf: BmlBuffer,
    pub span: OpSpan,
}

impl WorkItem {
    /// The client this work belongs to (from its span), for per-client
    /// admission accounting; a reclaim's client is gone, and counts as
    /// nobody's.
    pub fn client(&self) -> u64 {
        match self {
            WorkItem::Sync { reply, .. } => reply.span.client,
            WorkItem::StagedWrite { part, .. } => part.span.client,
            WorkItem::Reclaim(_) => u64::MAX,
        }
    }

    /// The descriptor lane this item holds, if any.
    pub fn lane(&self) -> Option<Fd> {
        match self {
            WorkItem::Sync { lane, .. } => *lane,
            WorkItem::StagedWrite { fd, .. } | WorkItem::Reclaim(fd) => Some(*fd),
        }
    }

    /// When this item entered the queue (its span's enqueue stamp; 0
    /// when telemetry is disabled or it has no span), for
    /// head-of-line-age sampling.
    fn enqueue_ns(&self) -> u64 {
        match self {
            WorkItem::Sync { reply, .. } => reply.span.enqueue_ns,
            WorkItem::StagedWrite { part, .. } => part.span.enqueue_ns,
            WorkItem::Reclaim(_) => 0,
        }
    }
}

/// Returned by [`WorkQueue::push`] when the queue has been closed: the
/// daemon is shutting down and accepts no new work. The rejected item
/// is handed back so the caller can fail it cleanly (reply with an
/// errno, record a deferred error) instead of losing it — a staged
/// write carries a BML buffer that must not be stranded. Boxed so the
/// hot path's `Result` stays a word; the allocation only happens on
/// the cold shutdown race.
pub struct QueueClosed(pub Box<WorkItem>);

impl std::fmt::Debug for QueueClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("QueueClosed(..)")
    }
}

/// Everything the queue knows, behind its one lock.
struct State {
    /// The shared FIFO. It holds at most one item per descriptor at a
    /// time (a descriptor's later ops wait in its lane, `descdb.rs`), so
    /// the order between a client's writes and its barriers is the
    /// lane's business, not the queue's.
    items: VecDeque<WorkItem>,
    /// Execution slots not held by anyone: §IV's bound on how many ops
    /// execute at once, whoever runs them.
    free: usize,
    /// Items waiting per client: the fairness signal the reactor uses
    /// to park a chatty connection instead of letting it flood the
    /// queue, and what keeps [`WorkQueue::try_claim`] from overtaking a
    /// client's own queued work. Entries are removed at zero so an idle
    /// client costs nothing.
    per_client: HashMap<u64, usize>,
    closed: bool,
    aborted: bool,
}

/// One held execution slot. A counter with an RAII release, not a lock
/// guard: nothing is locked while the op it admits runs. Dropping it
/// frees the slot and, if work is waiting, wakes a worker for it.
pub struct Slot<'a>(&'a WorkQueue);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut s = self.0.state.lock();
        s.free += 1;
        let waiting = !s.items.is_empty();
        drop(s);
        if waiting {
            self.0.ready.notify_one();
        }
    }
}

/// MPMC work queue with batch dequeue ("I/O multiplexing per thread"):
/// one FIFO, one lock, one condvar. Every method takes the lock once.
pub struct WorkQueue {
    state: Mutex<State>,
    /// Signalled when an item arrives, a slot frees with work waiting,
    /// or the queue closes; workers wait on it for "an item *and* a
    /// slot".
    ready: Condvar,
    telemetry: Arc<Telemetry>,
}

impl WorkQueue {
    pub fn new(workers: usize) -> Self {
        Self::with_telemetry(workers, Arc::new(Telemetry::disabled()))
    }

    pub fn with_telemetry(workers: usize, telemetry: Arc<Telemetry>) -> Self {
        assert!(workers > 0, "worker pool must be non-empty");
        WorkQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                free: workers,
                per_client: HashMap::new(),
                closed: false,
                aborted: false,
            }),
            ready: Condvar::new(),
            telemetry,
        }
    }

    /// Enqueue a task; wakes one worker. Fails with [`QueueClosed`]
    /// (returning the item) once [`close`](Self::close) has been
    /// called — a handler racing daemon shutdown gets its work back to
    /// fail cleanly rather than a panic.
    pub fn push(&self, item: WorkItem) -> Result<(), QueueClosed> {
        let mut s = self.state.lock();
        if s.closed {
            return Err(QueueClosed(Box::new(item)));
        }
        *s.per_client.entry(item.client()).or_insert(0) += 1;
        s.items.push_back(item);
        drop(s);
        if self.telemetry.enabled() {
            self.telemetry.queue_depth.add(1);
        }
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue up to `batch` tasks for `worker`, blocking while empty.
    /// Returns an empty vec once the queue is closed and drained.
    ///
    /// Convenience wrapper over [`Self::pop_batch_into`] that gives the
    /// execution slot straight back; the worker hot loop uses the
    /// `_into` form to hold the slot and to reuse one buffer per thread
    /// instead of allocating a fresh `Vec` per drain.
    pub fn pop_batch(&self, worker: usize, batch: usize) -> Vec<WorkItem> {
        let mut out = Vec::new();
        drop(self.pop_batch_into(worker, batch, &mut out));
        out
    }

    /// Wait until an item is queued *and* an execution slot is free,
    /// then take up to `batch` tasks into `out` (cleared first) together
    /// with the slot to run them under; the worker holds the slot until
    /// the batch is done. Items, slot and the clients' waiting counts
    /// change in one critical section, so a popped item counts as its
    /// client's until a slot is held. Leaves `out` empty (and returns
    /// `None`) once the queue is closed and drained, or aborted. The
    /// caller owns — and reuses — the buffer, so a long-lived worker
    /// allocates its batch storage once.
    pub fn pop_batch_into(
        &self,
        worker: usize,
        batch: usize,
        out: &mut Vec<WorkItem>,
    ) -> Option<Slot<'_>> {
        assert!(batch > 0);
        out.clear();
        let mut s = self.state.lock();
        loop {
            if s.aborted || (s.closed && s.items.is_empty()) {
                // Drained for good, or a degraded shutdown whose
                // remaining items belong to the drain, not the workers.
                return None;
            }
            if !s.items.is_empty() && s.free > 0 {
                break;
            }
            self.ready.wait(&mut s);
        }
        let n = {
            let s = &mut *s;
            s.free -= 1;
            let n = batch.min(s.items.len());
            for item in s.items.drain(..n) {
                client_dec(&mut s.per_client, item.client());
                out.push(item);
            }
            n
        };
        drop(s);
        if self.telemetry.enabled() {
            self.telemetry.queue_depth.add(-(n as i64));
            self.telemetry.batch_size.record_shard(worker, n as u64);
            self.telemetry.worker_dispatch.add(worker, n as u64);
        }
        Some(Slot(self))
    }

    /// Claim an execution slot to run one of `client`'s synchronous ops
    /// on the calling thread instead of pushing it. Never blocks; fails
    /// — push instead — once the queue is closed, while the client has
    /// anything queued (so its own earlier work is never overtaken), or
    /// while every slot is held.
    pub fn try_claim(&self, client: u64) -> Option<Slot<'_>> {
        let mut s = self.state.lock();
        if s.closed || s.free == 0 || s.per_client.contains_key(&client) {
            return None;
        }
        s.free -= 1;
        Some(Slot(self))
    }

    /// Close the queue: workers drain remaining items, then exit.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.ready.notify_all();
    }

    /// Close *and* stop handing items to workers: subsequent
    /// `pop_batch` calls return empty even if items remain. Whatever
    /// is still parked belongs to [`drain_remaining`](Self::drain_remaining)
    /// — the deadline-bounded shutdown drain.
    pub fn abort(&self) {
        let mut s = self.state.lock();
        s.closed = true;
        s.aborted = true;
        drop(s);
        self.ready.notify_all();
    }

    /// Take every item still parked in the queue, in FIFO order. Used by
    /// shutdown after workers have exited to guarantee no staged write —
    /// and no BML buffer — is silently dropped.
    pub fn drain_remaining(&self) -> Vec<WorkItem> {
        let mut s = self.state.lock();
        s.per_client.clear();
        let out: Vec<WorkItem> = s.items.drain(..).collect();
        drop(s);
        if self.telemetry.enabled() && !out.is_empty() {
            self.telemetry.queue_depth.add(-(out.len() as i64));
        }
        out
    }

    pub fn depth(&self) -> usize {
        self.state.lock().items.len()
    }

    /// How many items `client` has queued right now — the reactor's
    /// fair-admission signal (park the connection once this crosses its
    /// cap, resume as completions drain it).
    pub fn client_queued(&self, client: u64) -> usize {
        self.state
            .lock()
            .per_client
            .get(&client)
            .copied()
            .unwrap_or(0)
    }

    /// Enqueue stamp of the oldest item still parked (the FIFO's front).
    /// `None` when the queue is empty or the front predates telemetry
    /// (stamp 0). A stats snapshot exports its age as
    /// `queue_head_age_ns`, `iofwd-cp doctor`'s head-of-line probe; it
    /// is read per stats query, never on the data path.
    pub fn oldest_enqueue_ns(&self) -> Option<u64> {
        self.state
            .lock()
            .items
            .front()
            .map(WorkItem::enqueue_ns)
            .filter(|&ns| ns > 0)
    }
}

fn client_dec(map: &mut HashMap<u64, usize>, client: u64) {
    if let Some(n) = map.get_mut(&client) {
        if *n <= 1 {
            map.remove(&client);
        } else {
            *n -= 1;
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A queue counting into its own enabled registry.
    fn counted(workers: usize) -> (WorkQueue, Arc<Telemetry>) {
        let tel = Arc::new(Telemetry::new());
        (WorkQueue::with_telemetry(workers, tel.clone()), tel)
    }

    /// A `Sync` item for `client` on a route whose receiver is gone.
    fn stamped(tag: u64, enqueue_ns: u64, client: u64) -> WorkItem {
        let (route, _) = Route::channel(None, Arc::new(Telemetry::disabled()));
        let span = OpSpan {
            client,
            enqueue_ns,
            ..OpSpan::default()
        };
        routed(&route, tag, span)
    }

    fn routed(route: &Route, tag: u64, span: OpSpan) -> WorkItem {
        WorkItem::Sync {
            req: Request::Fsync { fd: Fd(tag as u32) },
            data: Bytes::new(),
            reply: ReplyTo::new(route.clone(), TICKET, span),
            lane: None,
        }
    }

    const TICKET: Ticket = Ticket {
        client_id: 3,
        seq: 11,
        effect: SessionEffect::None,
    };

    fn tag_of(item: &WorkItem) -> u64 {
        match item {
            WorkItem::Sync {
                req: Request::Fsync { fd },
                ..
            } => fd.0 as u64,
            _ => panic!("unexpected item"),
        }
    }

    #[test]
    fn a_sync_item_is_answered_exactly_once() {
        let tel = Arc::new(Telemetry::new());
        let (mut route, rx) = Route::channel(None, tel.clone());
        (route.token, route.gen) = (4, 2);
        let span = OpSpan {
            enqueue_ns: 100,
            ok: true,
            ..OpSpan::default()
        };
        let item = || routed(&route, 1, span);
        // Dropped undelivered (a worker's unwind, a lost item): one EIO,
        // marked queue-rejected so the connection closes behind it.
        drop(item());
        let c = rx.try_recv().expect("a dropped item is answered");
        assert_eq!((c.token, c.gen, c.ticket), (4, 2, TICKET));
        assert_eq!(c.resp, Response::Err { errno: Errno::Io });
        assert_eq!(c.span.disposition, Disposition::QueueRejected);
        assert_eq!((c.span.ok, c.span.dispatch_ns), (false, 100));
        assert!(rx.try_recv().is_err(), "answered once");
        // Delivered: its own response, once, and nothing more at the drop.
        let WorkItem::Sync { reply, .. } = item() else {
            unreachable!("a sync item");
        };
        reply.deliver(Response::Ok { ret: 7 }, Bytes::from_static(b"x"));
        let c = rx.try_recv().expect("a delivered item is answered");
        assert_eq!(c.resp, Response::Ok { ret: 7 });
        assert_eq!(&c.data[..], b"x");
        assert_eq!(c.span.disposition, Disposition::Completed);
        assert!(rx.try_recv().is_err(), "answered once");
        // With the receiver gone the sink folds each span itself, once.
        drop(rx);
        let WorkItem::Sync { reply, .. } = item() else {
            unreachable!("a sync item");
        };
        reply.deliver(Response::Ok { ret: 0 }, Bytes::new());
        drop(item());
        assert_eq!((tel.ops_completed.get(), tel.ops_failed.get()), (2, 1));
        assert_eq!(tel.flight.since(0).2.len(), 2);
    }

    #[test]
    fn single_shard_preserves_fifo_order() {
        let (q, tel) = counted(1);
        let mut high_water = Vec::new();
        for i in 0..5 {
            q.push(stamped(i, 0, 0)).unwrap();
            high_water.push(tel.queue_depth.peak());
        }
        // Pushes from one thread: after the i-th the peak is exactly i+1.
        assert_eq!(high_water, vec![1, 2, 3, 4, 5]);
        let batch = q.pop_batch(0, 3);
        assert_eq!(batch.iter().map(tag_of).collect::<Vec<_>>(), vec![0, 1, 2]);
        let rest = q.pop_batch(1, 10);
        assert_eq!(rest.iter().map(tag_of).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(tel.worker_dispatch.total(), 5);
        // Pops never lower the peak.
        q.push(stamped(9, 0, 0)).unwrap();
        assert_eq!(tel.queue_depth.peak(), 5);
    }

    #[test]
    fn pop_batch_into_reuses_and_clears_caller_buffer() {
        let q = WorkQueue::new(1);
        for i in 0..4 {
            q.push(stamped(i, 0, 0)).unwrap();
        }
        let mut buf = Vec::new();
        q.pop_batch_into(0, 3, &mut buf);
        assert_eq!(buf.iter().map(tag_of).collect::<Vec<_>>(), vec![0, 1, 2]);
        let cap = buf.capacity();
        // Stale contents from the previous drain must not leak through.
        q.pop_batch_into(0, 3, &mut buf);
        assert_eq!(buf.iter().map(tag_of).collect::<Vec<_>>(), vec![3]);
        assert_eq!(buf.capacity(), cap, "reused allocation, no regrow");
        q.close();
        q.pop_batch_into(0, 3, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn close_drains_then_returns_empty() {
        let q = WorkQueue::new(1);
        q.push(stamped(1, 0, 0)).unwrap();
        q.close();
        assert_eq!(q.pop_batch(0, 10).len(), 1);
        assert!(q.pop_batch(0, 10).is_empty());
    }

    #[test]
    fn push_after_close_returns_queue_closed_with_item() {
        let (q, tel) = counted(1);
        q.push(stamped(1, 0, 0)).unwrap();
        q.close();
        // A handler racing shutdown gets its item back, not a panic.
        let err = q.push(stamped(2, 0, 0)).unwrap_err();
        assert_eq!(tag_of(&err.0), 2);
        // The rejected push left no trace in the accounting.
        assert_eq!(tel.queue_depth.get(), 1);
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn blocked_pop_wakes_on_push() {
        let q = Arc::new(WorkQueue::new(1));
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop_batch(0, 1));
        std::thread::sleep(std::time::Duration::from_millis(30));
        q.push(stamped(7, 0, 0)).unwrap();
        let got = t.join().unwrap();
        assert_eq!(tag_of(&got[0]), 7);
    }

    #[test]
    fn abort_parks_items_for_drain() {
        let q = WorkQueue::new(2);
        for i in 0..4 {
            q.push(stamped(i, 0, 0)).unwrap();
        }
        q.abort();
        // Workers get nothing after an abort, even with items parked.
        assert!(q.pop_batch(0, 10).is_empty());
        assert!(q.pop_batch(1, 10).is_empty());
        // The drain recovers every item exactly once.
        let mut drained: Vec<u64> = q.drain_remaining().iter().map(tag_of).collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2, 3]);
        assert!(q.drain_remaining().is_empty());
    }

    #[test]
    fn per_client_counts_track_push_pop_and_drain() {
        let q = WorkQueue::new(1);
        for i in 0..3 {
            q.push(stamped(i, 0, 7)).unwrap();
        }
        q.push(stamped(9, 0, 8)).unwrap();
        assert_eq!(q.client_queued(7), 3);
        assert_eq!(q.client_queued(8), 1);
        assert_eq!(q.client_queued(99), 0);
        // Pops release the pusher's budget item by item.
        assert_eq!(q.pop_batch(0, 2).len(), 2);
        assert_eq!(q.client_queued(7), 1);
        assert_eq!(q.client_queued(8), 1);
        // The shutdown drain forgets all per-client accounting.
        q.abort();
        assert_eq!(q.drain_remaining().len(), 2);
        assert_eq!(q.client_queued(7), 0);
        assert_eq!(q.client_queued(8), 0);
    }

    #[test]
    fn oldest_enqueue_ns_follows_the_queue_fronts() {
        let q = WorkQueue::new(2);
        assert_eq!(q.oldest_enqueue_ns(), None);
        q.push(stamped(0, 500, 0)).unwrap();
        q.push(stamped(1, 900, 1)).unwrap();
        // The front is the oldest item, whichever client it belongs to.
        assert_eq!(q.oldest_enqueue_ns(), Some(500));
        assert_eq!(q.pop_batch(0, 1).len(), 1);
        assert_eq!(q.oldest_enqueue_ns(), Some(900));
        assert_eq!(q.pop_batch(1, 1).len(), 1);
        assert_eq!(q.oldest_enqueue_ns(), None);
        // Unstamped items (telemetry disabled) never report an age.
        q.push(stamped(2, 0, 0)).unwrap();
        assert_eq!(q.oldest_enqueue_ns(), None);
    }

    #[test]
    fn blocked_workers_all_released_by_close() {
        let q = Arc::new(WorkQueue::new(4));
        let mut handles = Vec::new();
        for w in 0..4 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || q.pop_batch(w, 1).len()));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), 0);
        }
    }
}
