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
//! The queue is sharded, one shard per worker (a one-worker queue is
//! the paper's single shared FIFO). Each shard has its own lock, so a
//! push and `n` pops proceed without contending on a global queue
//! mutex; each shard also has its own sleep/wake eventcount (version +
//! condvar) that a push bumps after publishing an item, so the wakeup
//! goes to the shard's home worker — not an arbitrary sleeper that
//! would have to steal.
//!
//! Placement is by *client affinity* (a multiplicative hash of the
//! item's client id), not round-robin: one client's ops stay FIFO in
//! one shard, so an fsync barrier is dequeued only after that client's
//! earlier staged writes, and offset-adjacent writes arrive in the
//! same drained batch where the coalescer can still merge them.
//! Round-robin placement scatters a client's stream across every
//! shard, which reorders barriers against their writes and destroys
//! coalescing adjacency — measurably worse on few-core hosts. Idle
//! workers steal *half* the deepest other shard (min one item), so a
//! steal amortizes its lock round-trip the same way a batch drain
//! does; a push that finds its home shard already `HELP_DEPTH` deep
//! also wakes a sleeper on another shard to come steal. The steal path
//! is model-checked by `work_stealing_delivers_exactly_once` in the
//! loom suite.
//!
//! The cap on how many ops execute at once is its own object: `workers`
//! execution slots. A worker holds one while it runs a popped batch; a
//! thread that may block, with a synchronous op in hand, claims a free
//! one without waiting ([`WorkQueue::try_claim`]) and runs the op
//! itself instead of pushing it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::Sender;
use iofwd_proto::{Fd, OpId, Request, Response};

use crate::bml::BmlBuffer;
use crate::sync::{Condvar, Mutex};
use crate::telemetry::{OpSpan, Telemetry};

/// What a finished op means for its connection's descriptor set
/// (decided once, at admission, from the request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEffect {
    /// No descriptor is created or retired.
    None,
    /// `Open`/`Connect`: success allocates a descriptor to track.
    Opens,
    /// `Close`: success (or a deferred error) releases the descriptor.
    Closes(Fd),
}

/// Reply addressing plus session effect of one admitted op: everything
/// needed, besides the outcome itself, to answer the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    pub client_id: u32,
    pub seq: u64,
    pub effect: SessionEffect,
}

/// A finished unit of work routed back to a reactor event loop. The
/// `(token, gen)` pair addresses the originating connection slot; a
/// stale `gen` means the client disconnected while the op was in
/// flight, in which case the reactor still completes the span but has
/// nowhere to write the reply.
pub struct Completion {
    pub token: usize,
    pub gen: u64,
    pub ticket: Ticket,
    pub resp: Response,
    pub data: Bytes,
    pub span: OpSpan,
}

/// Where a reactor-origin reply goes once a worker finishes the op.
/// Implemented by the reactor's completion queue; lives here (not in
/// the reactor module) so `WorkItem` does not depend on the reactor.
pub trait CompletionSink: Send + Sync {
    fn complete(&self, completion: Completion);
}

/// How a finished [`WorkItem::Sync`] finds its way back to the client:
/// either a blocked handler thread waiting on a channel (threaded
/// transport) or a reactor completion queue (event-loop transport).
pub enum ReplyTo {
    /// A per-connection handler thread parked on the receiving end.
    Handler(Sender<(Response, Bytes, OpSpan)>),
    /// A reactor connection slot; the sink wakes the owning event loop.
    Reactor {
        sink: Arc<dyn CompletionSink>,
        token: usize,
        gen: u64,
        ticket: Ticket,
    },
}

impl ReplyTo {
    /// Route the outcome to whoever is waiting. The handler path stamps
    /// `reply_ns` and folds telemetry on its own thread; the reactor
    /// path does both when the event loop drains its completion queue.
    pub fn deliver(self, resp: Response, data: Bytes, span: OpSpan) {
        match self {
            // A gone handler (client disconnected mid-op) is not an
            // error; the outcome is simply unobservable.
            ReplyTo::Handler(tx) => {
                let _ = tx.send((resp, data, span));
            }
            ReplyTo::Reactor {
                sink,
                token,
                gen,
                ticket,
            } => sink.complete(Completion {
                token,
                gen,
                ticket,
                resp,
                data,
                span,
            }),
        }
    }
}

/// A unit of work for the worker pool. Every op carries its lifecycle
/// span; the worker stamps dispatch/backend stages into it.
pub enum WorkItem {
    /// Execute a request and send the outcome back to the waiting client
    /// handler (the synchronous-scheduling path). `lane` is the
    /// descriptor lane it holds, in staged mode; running it completes
    /// that lane.
    Sync {
        req: Request,
        data: Bytes,
        reply: ReplyTo,
        span: OpSpan,
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
/// [`WorkItem::StagedWrite`], and one constituent of the batch a worker
/// harvests from a descriptor's lane and issues as a single vectored
/// write (`handlers::execute_coalesced`).
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
            WorkItem::Sync { span, .. } => span.client,
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
            WorkItem::Sync { span, .. } => span.enqueue_ns,
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

impl std::fmt::Display for QueueClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("work queue is closed")
    }
}

/// One work-queue shard: a FIFO deque behind its own lock, so pushers
/// and poppers touching different shards never contend.
struct Shard {
    state: Mutex<ShardState>,
    /// Depth cache maintained under the shard lock; read lock-free by
    /// the steal heuristic, the termination check, and `depth()`.
    depth: AtomicUsize,
    /// This shard's sleep/wake eventcount. Per-shard, not global, so a
    /// push wakes the shard's *home* worker — a global `notify_one`
    /// wakes an arbitrary sleeper, which on a sparse queue turns
    /// nearly every dispatch into a cross-shard steal plus an extra
    /// context switch.
    sleep: Sleep,
}

struct ShardState {
    items: VecDeque<WorkItem>,
    /// Set under this shard's lock by `close`/`abort`, so a push can
    /// never race past shutdown into a shard workers have abandoned.
    closed: bool,
}

/// Sleep/wake eventcount. A sleeper samples its shard's version,
/// re-scans, and blocks only if no push has bumped the version since
/// the sample — a push landing between scan and sleep is therefore
/// never a lost wakeup, without pushers and sleepers sharing the shard
/// locks.
struct Sleep {
    version: Mutex<u64>,
    cv: Condvar,
}

impl Sleep {
    fn wake_one(&self) {
        *self.version.lock() += 1;
        self.cv.notify_one();
    }

    fn wake_all(&self) {
        *self.version.lock() += 1;
        self.cv.notify_all();
    }
}

/// The pool's execution slots, one per worker: §IV's bound on how many
/// ops execute at once, whoever runs them. The lock and condvar are only
/// for a worker that finds none free.
struct Slots {
    free: AtomicUsize,
    /// Workers blocked in [`Slots::take`].
    waiting: AtomicUsize,
    lock: Mutex<()>,
    freed: Condvar,
}

impl Slots {
    fn try_take(&self) -> Option<Slot<'_>> {
        self.free
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .ok()
            .map(|_| Slot(self))
    }

    /// Take a slot, waiting while callers hold them all (workers only).
    /// A waiter is counted before it re-checks, and a release reads the
    /// count after it frees its slot, so either the waiter's re-check
    /// sees the freed slot or the release sees the waiter and wakes it.
    fn take(&self) -> Slot<'_> {
        if let Some(slot) = self.try_take() {
            return slot;
        }
        let mut guard = self.lock.lock();
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let slot = loop {
            if let Some(slot) = self.try_take() {
                break slot;
            }
            self.freed.wait(&mut guard);
        };
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        slot
    }
}

/// One held execution slot. A counter with an RAII release, not a lock
/// guard: nothing is locked while the op it admits runs. Dropping it
/// frees the slot and wakes a worker waiting for one.
pub struct Slot<'a>(&'a Slots);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let slots = self.0;
        slots.free.fetch_add(1, Ordering::SeqCst);
        if slots.waiting.load(Ordering::SeqCst) > 0 {
            let _guard = slots.lock.lock();
            slots.freed.notify_one();
        }
    }
}

/// Home-shard depth at which a push also wakes a sleeper on another
/// shard to come steal. Below this, waking only the home worker keeps
/// one client's stream on one core with no cross-shard traffic; at or
/// above it, the backlog is worth a thief's context switch. The helper
/// choice rotates with the depth so a sustained backlog recruits every
/// other shard in turn.
const HELP_DEPTH: usize = 4;

/// MPMC work queue with batch dequeue ("I/O multiplexing per thread").
///
/// One shard per worker, with client-affinity placement and
/// steal-half-from-deepest when a worker's own shard runs dry; one
/// worker (or one client id) is therefore a strict FIFO. All
/// cross-shard coordination (sleeping, fairness accounting) lives
/// outside the shard locks, so the hot push/pop path takes exactly one
/// uncontended mutex.
pub struct WorkQueue {
    shards: Vec<Shard>,
    slots: Slots,
    /// Items currently waiting in the pool per client — queued, or
    /// popped by a worker still waiting for an execution slot. The
    /// fairness signal the reactor uses to park a chatty connection
    /// instead of letting it flood the queue, and what keeps
    /// [`try_claim`](Self::try_claim) from overtaking a client's own
    /// waiting work. Entries are removed at zero so an idle client
    /// costs nothing. Charged *before* an item becomes visible in a
    /// shard, so `client_queued` never under-counts a pushed item.
    per_client: Mutex<HashMap<u64, usize>>,
    closed: AtomicBool,
    aborted: AtomicBool,
    telemetry: Arc<Telemetry>,
}

impl WorkQueue {
    pub fn new(workers: usize) -> Self {
        Self::with_telemetry(workers, Arc::new(Telemetry::disabled()))
    }

    pub fn with_telemetry(workers: usize, telemetry: Arc<Telemetry>) -> Self {
        assert!(workers > 0, "worker pool must be non-empty");
        WorkQueue {
            shards: (0..workers)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        items: VecDeque::new(),
                        closed: false,
                    }),
                    depth: AtomicUsize::new(0),
                    sleep: Sleep {
                        version: Mutex::new(0),
                        cv: Condvar::new(),
                    },
                })
                .collect(),
            slots: Slots {
                free: AtomicUsize::new(workers),
                waiting: AtomicUsize::new(0),
                lock: Mutex::new(()),
                freed: Condvar::new(),
            },
            per_client: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            telemetry,
        }
    }

    /// Home shard for a client: a Fibonacci multiplicative hash of the
    /// client id. Affinity — not round-robin — keeps one client's ops
    /// FIFO within a shard, so its fsync barriers sort behind its
    /// staged writes and adjacent writes stay coalescible; imbalance
    /// across clients is corrected by stealing, not placement.
    fn shard_of(&self, client: u64) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        (client.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.shards.len()
    }

    /// Enqueue a task; wakes one worker. Fails with [`QueueClosed`]
    /// (returning the item) once [`close`](Self::close) has been
    /// called — a handler racing daemon shutdown gets its work back to
    /// fail cleanly rather than a panic.
    pub fn push(&self, item: WorkItem) -> Result<(), QueueClosed> {
        let client = item.client();
        // Pre-charge the fairness budget before the item is visible in
        // any shard; un-charge if the shard turns out to be closed.
        self.client_inc(client);
        let shard_ix = self.shard_of(client);
        let shard = &self.shards[shard_ix];
        let mut s = shard.state.lock();
        if s.closed {
            drop(s);
            self.client_dec(client);
            return Err(QueueClosed(Box::new(item)));
        }
        s.items.push_back(item);
        let shard_depth = s.items.len();
        shard.depth.store(shard_depth, Ordering::Release);
        drop(s);
        if self.telemetry.enabled() {
            self.telemetry.queue_depth.add(1);
            self.telemetry.shard_depth.add(shard_ix, 1);
        }
        // Bump the home shard's eventcount after the item is visible so
        // a scanning worker that missed it re-checks instead of
        // sleeping.
        shard.sleep.wake_one();
        // A deep home shard is worth a thief: recruit a sleeper from
        // another shard, rotating the choice with the depth so a
        // sustained backlog reaches every potential helper.
        let nshards = self.shards.len();
        if shard_depth >= HELP_DEPTH && nshards > 1 {
            // The offset is in [1, nshards-1], so the helper is never
            // the home shard itself.
            let helper = (shard_ix + 1 + shard_depth % (nshards - 1)) % nshards;
            self.shards[helper].sleep.wake_one();
        }
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

    /// Dequeue up to `batch` tasks for `worker` into `out` (cleared
    /// first), blocking while empty, then wait for an execution slot to
    /// run them under; the worker holds the returned slot until the
    /// batch is done. Leaves `out` empty (and returns `None`) once the
    /// queue is closed and drained. The caller owns — and reuses — the
    /// buffer, so a long-lived worker allocates its batch storage once.
    pub fn pop_batch_into(
        &self,
        worker: usize,
        batch: usize,
        out: &mut Vec<WorkItem>,
    ) -> Option<Slot<'_>> {
        assert!(batch > 0);
        out.clear();
        let nshards = self.shards.len();
        let own_ix = worker % nshards;
        loop {
            if self.aborted.load(Ordering::Acquire) {
                // Degraded shutdown: remaining items belong to the
                // drain, not the workers.
                return None;
            }
            // Sample the home shard's eventcount before scanning: a
            // push landing after this sample bumps the version and
            // defeats the sleep at the bottom of the loop. Pushes to
            // *other* shards wake their own home workers (or recruit a
            // helper once deep), so missing them here strands nothing.
            let sampled = *self.shards[own_ix].sleep.version.lock();
            let from_own;
            {
                let shard = &self.shards[own_ix];
                let mut s = shard.state.lock();
                while out.len() < batch {
                    match s.items.pop_front() {
                        Some(it) => out.push(it),
                        None => break,
                    }
                }
                from_own = out.len();
                shard.depth.store(s.items.len(), Ordering::Release);
            }
            let mut stolen_from = None;
            if out.is_empty() && nshards > 1 {
                // Steal HALF the deepest other shard (capped at the
                // batch size) — the "simple load-balancing heuristic".
                // Half, not one: a steal then costs the same lock
                // round-trip as a batch drain but feeds a whole event
                // loop, instead of waking the thief once per item.
                // Depth caches are read lock-free; only the chosen
                // victim is locked.
                let victim = (0..nshards)
                    .filter(|&s| s != own_ix)
                    .max_by_key(|&s| self.shards[s].depth.load(Ordering::Acquire));
                if let Some(v) = victim {
                    let shard = &self.shards[v];
                    let mut s = shard.state.lock();
                    let take = s.items.len().div_ceil(2).min(batch);
                    for _ in 0..take {
                        match s.items.pop_front() {
                            Some(it) => out.push(it),
                            None => break,
                        }
                    }
                    if !out.is_empty() {
                        shard.depth.store(s.items.len(), Ordering::Release);
                        stolen_from = Some((v, out.len()));
                    }
                }
            }
            if !out.is_empty() {
                // The items leave their clients' accounts only once a
                // slot is held, so `try_claim` never runs a client's op
                // ahead of its work popped here and still waiting.
                let slot = self.slots.take();
                {
                    let mut clients = self.per_client.lock();
                    for it in out.iter() {
                        Self::client_dec_locked(&mut clients, it.client());
                    }
                }
                if self.telemetry.enabled() {
                    self.telemetry.queue_depth.add(-(out.len() as i64));
                    if from_own > 0 {
                        self.telemetry.shard_depth.add(own_ix, -(from_own as i64));
                    }
                    if let Some((v, n)) = stolen_from {
                        self.telemetry.steal_ops.inc();
                        self.telemetry.shard_depth.add(v, -(n as i64));
                    }
                    self.telemetry
                        .batch_size
                        .record_shard(worker, out.len() as u64);
                    self.telemetry.worker_dispatch.add(worker, out.len() as u64);
                }
                return Some(slot);
            }
            if self.closed.load(Ordering::Acquire) && self.depth() == 0 {
                // After close no push can land, so shard depths only
                // shrink: once the sum reads zero the queue is drained
                // for good and every worker can exit.
                return None;
            }
            let sleep = &self.shards[own_ix].sleep;
            let mut ver = sleep.version.lock();
            if *ver == sampled {
                sleep.cv.wait(&mut ver);
            }
        }
    }

    /// Claim an execution slot to run one of `client`'s synchronous ops
    /// on the calling thread instead of pushing it. Never blocks; fails
    /// — push instead — once the queue is closed, while the client has
    /// anything waiting in the pool (so its own earlier work is never
    /// overtaken), or while every slot is held.
    pub fn try_claim(&self, client: u64) -> Option<Slot<'_>> {
        if self.closed.load(Ordering::Acquire) || self.client_queued(client) > 0 {
            return None;
        }
        self.slots.try_take()
    }

    /// Close the queue: workers drain remaining items, then exit.
    pub fn close(&self) {
        for shard in &self.shards {
            shard.state.lock().closed = true;
        }
        self.closed.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.sleep.wake_all();
        }
    }

    /// Close *and* stop handing items to workers: subsequent
    /// `pop_batch` calls return empty even if items remain. Whatever
    /// is still parked belongs to [`drain_remaining`](Self::drain_remaining)
    /// — the deadline-bounded shutdown drain.
    pub fn abort(&self) {
        for shard in &self.shards {
            shard.state.lock().closed = true;
        }
        self.closed.store(true, Ordering::Release);
        self.aborted.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.sleep.wake_all();
        }
    }

    /// Take every item still parked in the queue (every shard, in
    /// shard order), in FIFO order per shard. Used by shutdown after
    /// workers have exited to guarantee no staged write — and no BML
    /// buffer — is silently dropped.
    pub fn drain_remaining(&self) -> Vec<WorkItem> {
        let mut out = Vec::new();
        for (ix, shard) in self.shards.iter().enumerate() {
            let mut s = shard.state.lock();
            let n = s.items.len();
            out.extend(s.items.drain(..));
            shard.depth.store(0, Ordering::Release);
            drop(s);
            if self.telemetry.enabled() && n > 0 {
                self.telemetry.shard_depth.add(ix, -(n as i64));
            }
        }
        self.per_client.lock().clear();
        if self.telemetry.enabled() && !out.is_empty() {
            self.telemetry.queue_depth.add(-(out.len() as i64));
        }
        out
    }

    pub fn depth(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.depth.load(Ordering::Acquire))
            .sum()
    }

    /// How many items `client` has waiting in the pool right now (queued,
    /// or popped and waiting for a slot) — the reactor's fair-admission
    /// signal (park the connection once this crosses its cap, resume as
    /// completions drain it).
    pub fn client_queued(&self, client: u64) -> usize {
        self.per_client.lock().get(&client).copied().unwrap_or(0)
    }

    fn client_inc(&self, client: u64) {
        *self.per_client.lock().entry(client).or_insert(0) += 1;
    }

    fn client_dec(&self, client: u64) {
        Self::client_dec_locked(&mut self.per_client.lock(), client);
    }

    fn client_dec_locked(map: &mut HashMap<u64, usize>, client: u64) {
        if let Some(n) = map.get_mut(&client) {
            if *n <= 1 {
                map.remove(&client);
            } else {
                *n -= 1;
            }
        }
    }

    /// Enqueue stamp of the oldest item still parked (the front of
    /// each shard — FIFO order makes the fronts the oldest
    /// candidates). `None` when the queue is empty or every front
    /// predates telemetry (stamp 0). This is the watchdog's
    /// head-of-line-age signal: one bounded scan over the shard locks,
    /// a few times per second, never on the data path.
    pub fn oldest_enqueue_ns(&self) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(|shard| shard.state.lock().items.front().map(WorkItem::enqueue_ns))
            .filter(|&ns| ns > 0)
            .min()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use std::sync::Arc;

    /// A queue counting into its own enabled registry.
    fn counted(workers: usize) -> (WorkQueue, Arc<Telemetry>) {
        let tel = Arc::new(Telemetry::new());
        (WorkQueue::with_telemetry(workers, tel.clone()), tel)
    }

    fn sync_item(tag: u64) -> WorkItem {
        sync_item_for_client(tag, 0)
    }

    fn sync_item_for_client(tag: u64, client: u64) -> WorkItem {
        let (tx, _rx) = unbounded();
        let span = OpSpan {
            client,
            ..OpSpan::default()
        };
        WorkItem::Sync {
            req: Request::Fsync { fd: Fd(tag as u32) },
            data: Bytes::new(),
            reply: ReplyTo::Handler(tx),
            span,
            lane: None,
        }
    }

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
    fn single_shard_preserves_fifo_order() {
        let (q, tel) = counted(1);
        let mut high_water = Vec::new();
        for i in 0..5 {
            q.push(sync_item(i)).unwrap();
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
        q.push(sync_item(9)).unwrap();
        assert_eq!(tel.queue_depth.peak(), 5);
    }

    #[test]
    fn pop_batch_into_reuses_and_clears_caller_buffer() {
        let q = WorkQueue::new(1);
        for i in 0..4 {
            q.push(sync_item(i)).unwrap();
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
        q.push(sync_item(1)).unwrap();
        q.close();
        assert_eq!(q.pop_batch(0, 10).len(), 1);
        assert!(q.pop_batch(0, 10).is_empty());
    }

    #[test]
    fn push_after_close_returns_queue_closed_with_item() {
        let (q, tel) = counted(1);
        q.push(sync_item(1)).unwrap();
        q.close();
        // A handler racing shutdown gets its item back, not a panic.
        let err = q.push(sync_item(2)).unwrap_err();
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
        q.push(sync_item(7)).unwrap();
        let got = t.join().unwrap();
        assert_eq!(tag_of(&got[0]), 7);
    }

    #[test]
    fn per_worker_affinity_placement_and_steal() {
        let (q, tel) = counted(2);
        // Clients 0 and 1 hash to different shards with two workers.
        assert_ne!(q.shard_of(0), q.shard_of(1));
        q.push(sync_item_for_client(0, 0)).unwrap();
        q.push(sync_item_for_client(1, 1)).unwrap();
        q.push(sync_item_for_client(2, 0)).unwrap();
        q.push(sync_item_for_client(3, 1)).unwrap();
        // Client 0's items land together, in order, on its home shard.
        let own = q.pop_batch(q.shard_of(0), 10);
        assert_eq!(own.iter().map(tag_of).collect::<Vec<_>>(), vec![0, 2]);
        // That shard is now dry; the worker steals half of client 1's
        // shard (two items -> one).
        let stolen = q.pop_batch(q.shard_of(0), 10);
        assert_eq!(stolen.iter().map(tag_of).collect::<Vec<_>>(), vec![1]);
        assert_eq!(tel.steal_ops.get(), 1);
    }

    #[test]
    fn per_worker_affinity_keeps_one_client_fifo_on_one_shard() {
        let (q, tel) = counted(4);
        for i in 0..6 {
            q.push(sync_item_for_client(i, 42)).unwrap();
        }
        // One client never spreads: its home worker drains everything
        // in push order, and no steal was needed to get there.
        let batch = q.pop_batch(q.shard_of(42), 10);
        assert_eq!(
            batch.iter().map(tag_of).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        assert_eq!(tel.steal_ops.get(), 0);
    }

    #[test]
    fn per_worker_steal_drains_other_queues_after_close() {
        // Satellite: under close(), a worker whose own queue is empty
        // must still drain the *other* workers' parked items (stealing
        // half the deepest victim per pass) before pop_batch returns
        // empty.
        let (q, tel) = counted(3);
        for i in 0..6 {
            q.push(sync_item_for_client(i, i)).unwrap(); // affinity spreads clients
        }
        // The spread must actually cross shards for the steal path to
        // be exercised.
        assert!((0..6).any(|c| q.shard_of(c) != q.shard_of(0)));
        q.close();
        // Worker 0 drains its own shard, then steals the rest.
        let mut got = Vec::new();
        loop {
            let batch = q.pop_batch(q.shard_of(0), 10);
            if batch.is_empty() {
                break;
            }
            got.extend(batch.iter().map(tag_of));
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(q.depth(), 0);
        assert!(tel.steal_ops.get() >= 1);
    }

    #[test]
    fn abort_parks_items_for_drain() {
        let q = WorkQueue::new(2);
        for i in 0..4 {
            q.push(sync_item(i)).unwrap();
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
            q.push(sync_item_for_client(i, 7)).unwrap();
        }
        q.push(sync_item_for_client(9, 8)).unwrap();
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
        let stamped = |tag: u64, ns: u64, client: u64| {
            let (tx, _rx) = unbounded();
            let span = OpSpan {
                client,
                enqueue_ns: ns,
                ..OpSpan::default()
            };
            WorkItem::Sync {
                req: Request::Fsync { fd: Fd(tag as u32) },
                data: Bytes::new(),
                reply: ReplyTo::Handler(tx),
                span,
                lane: None,
            }
        };
        // Clients 0 and 1 hash to different shards with two workers.
        assert_ne!(q.shard_of(0), q.shard_of(1));
        q.push(stamped(0, 900, 0)).unwrap();
        q.push(stamped(1, 500, 1)).unwrap();
        // The probe scans every queue front, not just one FIFO.
        assert_eq!(q.oldest_enqueue_ns(), Some(500));
        assert_eq!(q.pop_batch(q.shard_of(1), 1).len(), 1);
        assert_eq!(q.oldest_enqueue_ns(), Some(900));
        assert_eq!(q.pop_batch(q.shard_of(0), 1).len(), 1);
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
