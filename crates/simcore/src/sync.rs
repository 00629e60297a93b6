//! Simulation-aware synchronization primitives.
//!
//! These park simulated actors (futures) rather than OS threads. All of
//! them are single-threaded and deterministic: waiters are FIFO, and a
//! wakeup at virtual time *t* runs before the clock advances past *t*.
//!
//! * [`oneshot`] — a single-value channel (request/response completion).
//! * [`Queue`] — an optionally bounded FIFO queue; the paper's shared
//!   work queue (§IV) is exactly this.
//! * [`Semaphore`] — counting semaphore in arbitrary units (bytes for the
//!   buffer-management layer's staging memory cap).
//! * [`WaitGroup`] — barrier for "wait until N actors finish".

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

// ---------------------------------------------------------------------------
// Wait cells
// ---------------------------------------------------------------------------

struct WaitCell {
    ready: Cell<bool>,
    cancelled: Cell<bool>,
    waker: RefCell<Option<Waker>>,
}

impl WaitCell {
    fn new() -> Rc<Self> {
        Rc::new(WaitCell {
            ready: Cell::new(false),
            cancelled: Cell::new(false),
            waker: RefCell::new(None),
        })
    }

    fn fire(&self) {
        self.ready.set(true);
        if let Some(w) = self.waker.borrow_mut().take() {
            w.wake();
        }
    }
}

// ---------------------------------------------------------------------------
// Oneshot
// ---------------------------------------------------------------------------

struct OneshotInner<T> {
    value: RefCell<Option<T>>,
    closed: Cell<bool>,
    waker: RefCell<Option<Waker>>,
}

/// Sending half of a [`oneshot`] channel.
pub struct OneshotTx<T> {
    inner: Rc<OneshotInner<T>>,
}

/// Receiving half of a [`oneshot`] channel; a future resolving to
/// `Some(value)` or `None` if the sender was dropped without sending.
pub struct OneshotRx<T> {
    inner: Rc<OneshotInner<T>>,
}

/// Create a single-value channel. Used for request/response completion
/// notification between actors (e.g. a worker thread signalling the ZOID
/// handler thread that an I/O task finished).
pub fn oneshot<T>() -> (OneshotTx<T>, OneshotRx<T>) {
    let inner = Rc::new(OneshotInner {
        value: RefCell::new(None),
        closed: Cell::new(false),
        waker: RefCell::new(None),
    });
    (
        OneshotTx {
            inner: inner.clone(),
        },
        OneshotRx { inner },
    )
}

impl<T> OneshotTx<T> {
    /// Deliver the value, waking the receiver.
    pub fn send(self, value: T) {
        *self.inner.value.borrow_mut() = Some(value);
        self.inner.closed.set(true);
        if let Some(w) = self.inner.waker.borrow_mut().take() {
            w.wake();
        }
    }
}

impl<T> Drop for OneshotTx<T> {
    fn drop(&mut self) {
        if !self.inner.closed.get() {
            self.inner.closed.set(true);
            if let Some(w) = self.inner.waker.borrow_mut().take() {
                w.wake();
            }
        }
    }
}

impl<T> Future for OneshotRx<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        if let Some(v) = self.inner.value.borrow_mut().take() {
            return Poll::Ready(Some(v));
        }
        if self.inner.closed.get() {
            return Poll::Ready(None);
        }
        *self.inner.waker.borrow_mut() = Some(cx.waker().clone());
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------------

struct QueueInner<T> {
    items: VecDeque<T>,
    capacity: Option<usize>,
    closed: bool,
    pop_waiters: VecDeque<Rc<WaitCell>>,
    push_waiters: VecDeque<Rc<WaitCell>>,
    /// High-water mark of queue depth, for reports.
    max_depth: usize,
}

/// A FIFO queue connecting simulated actors. `Queue::clone` shares the
/// same queue.
pub struct Queue<T> {
    inner: Rc<RefCell<QueueInner<T>>>,
}

impl<T> Clone for Queue<T> {
    fn clone(&self) -> Self {
        Queue {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Queue<T> {
    /// Queue with no depth limit: `push` never blocks.
    pub fn unbounded() -> Self {
        Self::with_capacity(None)
    }

    /// Queue that blocks pushers once `cap` items are enqueued.
    pub fn bounded(cap: usize) -> Self {
        assert!(cap > 0, "bounded queue needs capacity >= 1");
        Self::with_capacity(Some(cap))
    }

    fn with_capacity(capacity: Option<usize>) -> Self {
        Queue {
            inner: Rc::new(RefCell::new(QueueInner {
                items: VecDeque::new(),
                capacity,
                closed: false,
                pop_waiters: VecDeque::new(),
                push_waiters: VecDeque::new(),
                max_depth: 0,
            })),
        }
    }

    pub fn len(&self) -> usize {
        self.inner.borrow().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deepest the queue has ever been.
    pub fn max_depth(&self) -> usize {
        self.inner.borrow().max_depth
    }

    /// Close the queue: pending and future `pop`s drain remaining items,
    /// then resolve to `None`; `push` panics.
    pub fn close(&self) {
        let mut q = self.inner.borrow_mut();
        q.closed = true;
        while let Some(w) = q.pop_waiters.pop_front() {
            w.fire();
        }
        while let Some(w) = q.push_waiters.pop_front() {
            w.fire();
        }
    }

    /// Push without blocking; panics on a full bounded queue (use
    /// [`Queue::push`] from actor context instead) or a closed queue.
    pub fn push_now(&self, item: T) {
        let mut q = self.inner.borrow_mut();
        assert!(!q.closed, "push on closed queue");
        if let Some(cap) = q.capacity {
            assert!(q.items.len() < cap, "push_now on full bounded queue");
        }
        q.items.push_back(item);
        q.max_depth = q.max_depth.max(q.items.len());
        if let Some(w) = q.pop_waiters.pop_front() {
            w.fire();
        }
    }

    /// Push, waiting for space on a bounded queue.
    pub fn push(&self, item: T) -> Push<'_, T> {
        Push {
            queue: self,
            item: Some(item),
            cell: None,
        }
    }

    /// Pop the next item, waiting if empty. Resolves to `None` once the
    /// queue is closed and drained.
    pub fn pop(&self) -> Pop<T> {
        Pop {
            queue: self.clone(),
            cell: None,
        }
    }

    /// Pop up to `max` items without waiting (the worker-thread
    /// "I/O multiplexing" path: dequeue several requests and service them
    /// in one event-loop pass).
    pub fn drain_now(&self, max: usize) -> Vec<T> {
        let mut q = self.inner.borrow_mut();
        let k = max.min(q.items.len());
        let out: Vec<T> = q.items.drain(..k).collect();
        for _ in 0..out.len() {
            match q.push_waiters.pop_front() {
                Some(w) => w.fire(),
                None => break,
            }
        }
        out
    }
}

/// Future returned by [`Queue::push`].
pub struct Push<'a, T> {
    queue: &'a Queue<T>,
    item: Option<T>,
    cell: Option<Rc<WaitCell>>,
}

// Safe: `Push` never pin-projects; all state is ordinary owned data.
impl<T> Unpin for Push<'_, T> {}

impl<T> Future for Push<'_, T> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let mut q = this.queue.inner.borrow_mut();
        assert!(!q.closed, "push on closed queue");
        let has_space = q.capacity.is_none_or(|cap| q.items.len() < cap);
        if has_space {
            q.items
                .push_back(this.item.take().expect("Push polled after completion"));
            let depth = q.items.len();
            q.max_depth = q.max_depth.max(depth);
            if let Some(w) = q.pop_waiters.pop_front() {
                w.fire();
            }
            return Poll::Ready(());
        }
        let cell = match &this.cell {
            Some(c) if !c.ready.get() => {
                *c.waker.borrow_mut() = Some(cx.waker().clone());
                return Poll::Pending;
            }
            _ => {
                let c = WaitCell::new();
                *c.waker.borrow_mut() = Some(cx.waker().clone());
                q.push_waiters.push_back(c.clone());
                c
            }
        };
        this.cell = Some(cell);
        Poll::Pending
    }
}

impl<T> Drop for Push<'_, T> {
    fn drop(&mut self) {
        if let Some(c) = &self.cell {
            c.cancelled.set(true);
        }
    }
}

/// Future returned by [`Queue::pop`].
pub struct Pop<T> {
    queue: Queue<T>,
    cell: Option<Rc<WaitCell>>,
}

impl<T> Future for Pop<T> {
    type Output = Option<T>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let this = &mut *self;
        let mut q = this.queue.inner.borrow_mut();
        if let Some(item) = q.items.pop_front() {
            if let Some(w) = q.push_waiters.pop_front() {
                w.fire();
            }
            return Poll::Ready(Some(item));
        }
        if q.closed {
            return Poll::Ready(None);
        }
        match &this.cell {
            Some(c) if !c.ready.get() => {
                *c.waker.borrow_mut() = Some(cx.waker().clone());
                return Poll::Pending;
            }
            _ => {
                // First poll, or woken but the item was taken by another
                // consumer: (re-)register at the back of the FIFO.
                let c = WaitCell::new();
                *c.waker.borrow_mut() = Some(cx.waker().clone());
                q.pop_waiters.push_back(c.clone());
                this.cell = Some(c);
            }
        }
        Poll::Pending
    }
}

impl<T> Drop for Pop<T> {
    fn drop(&mut self) {
        if let Some(c) = &self.cell {
            c.cancelled.set(true);
        }
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

const SEM_WAITING: u8 = 0;
const SEM_GRANTED: u8 = 1;
const SEM_DONE: u8 = 2;
const SEM_CANCELLED: u8 = 3;

struct SemWaiter {
    amount: u64,
    state: Cell<u8>,
    waker: RefCell<Option<Waker>>,
}

struct SemInner {
    available: u64,
    waiters: VecDeque<Rc<SemWaiter>>,
    /// Number of times an acquire had to wait (BML "blocked until memory
    /// available" events in the paper, §IV).
    blocked_acquires: u64,
}

/// Counting semaphore in arbitrary units (bytes, slots, ...). FIFO grant
/// order: a large request at the head blocks later small requests, which
/// prevents starvation of big staging buffers.
#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<RefCell<SemInner>>,
}

impl Semaphore {
    pub fn new(initial: u64) -> Self {
        Semaphore {
            inner: Rc::new(RefCell::new(SemInner {
                available: initial,
                waiters: VecDeque::new(),
                blocked_acquires: 0,
            })),
        }
    }

    pub fn available(&self) -> u64 {
        self.inner.borrow().available
    }

    /// How many acquisitions had to block so far.
    pub fn blocked_acquires(&self) -> u64 {
        self.inner.borrow().blocked_acquires
    }

    /// Acquire `amount` units, waiting FIFO if necessary.
    pub fn acquire(&self, amount: u64) -> Acquire {
        Acquire {
            sem: self.clone(),
            amount,
            waiter: None,
        }
    }

    /// Acquire without waiting.
    pub fn try_acquire(&self, amount: u64) -> bool {
        let mut s = self.inner.borrow_mut();
        if s.waiters.is_empty() && s.available >= amount {
            s.available -= amount;
            true
        } else {
            false
        }
    }

    /// Return `amount` units and hand them to queued waiters in order.
    pub fn release(&self, amount: u64) {
        let mut s = self.inner.borrow_mut();
        s.available += amount;
        Self::grant(&mut s);
    }

    fn grant(s: &mut SemInner) {
        while let Some(front) = s.waiters.front() {
            if front.state.get() == SEM_CANCELLED {
                s.waiters.pop_front();
                continue;
            }
            if front.amount <= s.available {
                let w = s.waiters.pop_front().unwrap();
                s.available -= w.amount;
                w.state.set(SEM_GRANTED);
                let wk = w.waker.borrow_mut().take();
                if let Some(wk) = wk {
                    wk.wake();
                }
            } else {
                break; // strict FIFO: do not let later waiters jump ahead
            }
        }
    }
}

/// Future returned by [`Semaphore::acquire`]. Dropping it after grant but
/// before completion returns the units.
pub struct Acquire {
    sem: Semaphore,
    amount: u64,
    waiter: Option<Rc<SemWaiter>>,
}

impl Future for Acquire {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        if let Some(w) = &this.waiter {
            match w.state.get() {
                SEM_GRANTED => {
                    w.state.set(SEM_DONE);
                    return Poll::Ready(());
                }
                SEM_DONE => return Poll::Ready(()),
                _ => {
                    *w.waker.borrow_mut() = Some(cx.waker().clone());
                    return Poll::Pending;
                }
            }
        }
        let mut s = this.sem.inner.borrow_mut();
        if s.waiters.is_empty() && s.available >= this.amount {
            s.available -= this.amount;
            let w = Rc::new(SemWaiter {
                amount: this.amount,
                state: Cell::new(SEM_DONE),
                waker: RefCell::new(None),
            });
            this.waiter = Some(w);
            return Poll::Ready(());
        }
        s.blocked_acquires += 1;
        let w = Rc::new(SemWaiter {
            amount: this.amount,
            state: Cell::new(SEM_WAITING),
            waker: RefCell::new(Some(cx.waker().clone())),
        });
        s.waiters.push_back(w.clone());
        this.waiter = Some(w);
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(w) = &self.waiter {
            match w.state.get() {
                SEM_WAITING => w.state.set(SEM_CANCELLED),
                SEM_GRANTED => {
                    // Granted but never observed: give the units back.
                    self.sem.release(w.amount);
                    w.state.set(SEM_CANCELLED);
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// join_all
// ---------------------------------------------------------------------------

/// Drive a set of futures concurrently to completion (a worker thread's
/// poll-based event loop over several in-flight I/O operations).
pub async fn join_all<F: Future<Output = ()>>(futs: Vec<F>) {
    let mut futs: Vec<Option<Pin<Box<F>>>> = futs.into_iter().map(|f| Some(Box::pin(f))).collect();
    std::future::poll_fn(move |cx| {
        let mut all_done = true;
        for slot in futs.iter_mut() {
            if let Some(f) = slot {
                match f.as_mut().poll(cx) {
                    std::task::Poll::Ready(()) => *slot = None,
                    std::task::Poll::Pending => all_done = false,
                }
            }
        }
        if all_done {
            std::task::Poll::Ready(())
        } else {
            std::task::Poll::Pending
        }
    })
    .await
}

// ---------------------------------------------------------------------------
// WaitGroup
// ---------------------------------------------------------------------------

struct WgInner {
    count: usize,
    waiters: Vec<Rc<WaitCell>>,
}

/// Wait for a set of actors to call [`WaitGroup::done`].
#[derive(Clone)]
pub struct WaitGroup {
    inner: Rc<RefCell<WgInner>>,
}

impl Default for WaitGroup {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitGroup {
    pub fn new() -> Self {
        WaitGroup {
            inner: Rc::new(RefCell::new(WgInner {
                count: 0,
                waiters: Vec::new(),
            })),
        }
    }

    pub fn add(&self, n: usize) {
        self.inner.borrow_mut().count += n;
    }

    pub fn done(&self) {
        let mut wg = self.inner.borrow_mut();
        assert!(wg.count > 0, "WaitGroup::done without matching add");
        wg.count -= 1;
        if wg.count == 0 {
            for w in wg.waiters.drain(..) {
                w.fire();
            }
        }
    }

    pub fn count(&self) -> usize {
        self.inner.borrow().count
    }

    /// Resolves when the count reaches zero (immediately if already zero).
    pub fn wait(&self) -> WgWait {
        WgWait {
            wg: self.clone(),
            cell: None,
        }
    }
}

/// Future returned by [`WaitGroup::wait`].
pub struct WgWait {
    wg: WaitGroup,
    cell: Option<Rc<WaitCell>>,
}

impl Future for WgWait {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let mut wg = this.wg.inner.borrow_mut();
        if wg.count == 0 {
            return Poll::Ready(());
        }
        match &this.cell {
            Some(c) => {
                if c.ready.get() {
                    return Poll::Ready(());
                }
                *c.waker.borrow_mut() = Some(cx.waker().clone());
            }
            None => {
                let c = WaitCell::new();
                *c.waker.borrow_mut() = Some(cx.waker().clone());
                wg.waiters.push(c.clone());
                this.cell = Some(c);
            }
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Sim;
    use crate::time::Duration as D;
    use std::rc::Rc;

    #[test]
    fn oneshot_delivers_value() {
        let mut sim = Sim::new();
        let (tx, rx) = oneshot::<u32>();
        let h = sim.handle();
        let got = Rc::new(Cell::new(0u32));
        let got2 = got.clone();
        sim.spawn(async move {
            got2.set(rx.await.unwrap());
        });
        sim.spawn(async move {
            h.sleep(D::from_millis(3)).await;
            tx.send(77);
        });
        sim.run_to_completion();
        assert_eq!(got.get(), 77);
    }

    #[test]
    fn oneshot_dropped_sender_yields_none() {
        let mut sim = Sim::new();
        let (tx, rx) = oneshot::<u32>();
        drop(tx);
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        sim.spawn(async move {
            ok2.set(rx.await.is_none());
        });
        sim.run_to_completion();
        assert!(ok.get());
    }

    #[test]
    fn queue_fifo_order() {
        let mut sim = Sim::new();
        let q: Queue<u32> = Queue::unbounded();
        let out = Rc::new(RefCell::new(Vec::new()));
        {
            let q = q.clone();
            let out = out.clone();
            sim.spawn(async move {
                for _ in 0..3 {
                    let v = q.pop().await.unwrap();
                    out.borrow_mut().push(v);
                }
            });
        }
        {
            let q = q.clone();
            let h = sim.handle();
            sim.spawn(async move {
                for i in 0..3 {
                    q.push(i).await;
                    h.sleep(D::from_micros(1)).await;
                }
            });
        }
        sim.run_to_completion();
        assert_eq!(*out.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn queue_multiple_consumers_each_get_items() {
        let mut sim = Sim::new();
        let q: Queue<u32> = Queue::unbounded();
        let total = Rc::new(Cell::new(0u32));
        for _ in 0..4 {
            let q = q.clone();
            let total = total.clone();
            sim.spawn(async move {
                while let Some(x) = q.pop().await {
                    total.set(total.get() + x);
                }
            });
        }
        {
            let q = q.clone();
            let h = sim.handle();
            sim.spawn(async move {
                for i in 1..=10 {
                    q.push(i).await;
                    h.sleep(D::from_micros(1)).await;
                }
                q.close();
            });
        }
        let quiesce = sim.run();
        assert_eq!(quiesce.parked_tasks, 0);
        assert_eq!(total.get(), 55);
    }

    #[test]
    fn bounded_queue_blocks_pusher() {
        let mut sim = Sim::new();
        let q: Queue<u32> = Queue::bounded(2);
        let h = sim.handle();
        let push_done_at = Rc::new(Cell::new(0u64));
        {
            let q = q.clone();
            let h = h.clone();
            let done = push_done_at.clone();
            sim.spawn(async move {
                q.push(1).await;
                q.push(2).await;
                q.push(3).await; // must wait for a pop
                done.set(h.now().as_millis());
            });
        }
        {
            let q = q.clone();
            let h = h.clone();
            sim.spawn(async move {
                h.sleep(D::from_millis(10)).await;
                assert_eq!(q.pop().await, Some(1));
            });
        }
        sim.run();
        assert_eq!(push_done_at.get(), 10);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn queue_drain_now_takes_batch() {
        let q: Queue<u32> = Queue::unbounded();
        for i in 0..5 {
            q.push_now(i);
        }
        assert_eq!(q.drain_now(3), vec![0, 1, 2]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.max_depth(), 5);
    }

    #[test]
    fn queue_close_wakes_waiters_with_none() {
        let mut sim = Sim::new();
        let q: Queue<u32> = Queue::unbounded();
        let h = sim.handle();
        let got_none = Rc::new(Cell::new(false));
        {
            let q = q.clone();
            let g = got_none.clone();
            sim.spawn(async move {
                g.set(q.pop().await.is_none());
            });
        }
        {
            let q = q.clone();
            sim.spawn(async move {
                h.sleep(D::from_millis(1)).await;
                q.close();
            });
        }
        sim.run_to_completion();
        assert!(got_none.get());
    }

    #[test]
    fn semaphore_fifo_grants() {
        let mut sim = Sim::new();
        let sem = Semaphore::new(10);
        let order = Rc::new(RefCell::new(Vec::new()));
        let h = sim.handle();
        // First actor takes everything for 5 ms.
        {
            let sem = sem.clone();
            let h = h.clone();
            sim.spawn(async move {
                sem.acquire(10).await;
                h.sleep(D::from_millis(5)).await;
                sem.release(10);
            });
        }
        // A large request arrives before a small one; FIFO means the small
        // one must NOT jump ahead.
        {
            let sem = sem.clone();
            let order = order.clone();
            let h = h.clone();
            sim.spawn(async move {
                h.sleep(D::from_micros(1)).await;
                sem.acquire(8).await;
                order.borrow_mut().push("big");
                sem.release(8);
            });
        }
        {
            let sem = sem.clone();
            let order = order.clone();
            let h = h.clone();
            sim.spawn(async move {
                h.sleep(D::from_micros(2)).await;
                sem.acquire(2).await;
                order.borrow_mut().push("small");
                sem.release(2);
            });
        }
        sim.run_to_completion();
        assert_eq!(*order.borrow(), vec!["big", "small"]);
        assert_eq!(sem.available(), 10);
        assert_eq!(sem.blocked_acquires(), 2);
    }

    #[test]
    fn semaphore_try_acquire_respects_waiters() {
        let mut sim = Sim::new();
        let sem = Semaphore::new(4);
        assert!(sem.try_acquire(3));
        // 1 unit left; a waiter queues for 2.
        {
            let sem = sem.clone();
            sim.spawn(async move {
                sem.acquire(2).await;
                sem.release(2);
            });
        }
        {
            let sem = sem.clone();
            let h = sim.handle();
            sim.spawn(async move {
                h.sleep(D::from_millis(1)).await;
                // try_acquire must fail while a FIFO waiter is queued even
                // though 1 unit is nominally available.
                assert!(!sem.try_acquire(1));
                sem.release(3);
            });
        }
        sim.run_to_completion();
        assert_eq!(sem.available(), 4);
    }

    #[test]
    fn waitgroup_waits_for_all() {
        let mut sim = Sim::new();
        let wg = WaitGroup::new();
        wg.add(3);
        let h = sim.handle();
        let done_at = Rc::new(Cell::new(0u64));
        for i in 1..=3u64 {
            let wg = wg.clone();
            let h = h.clone();
            sim.spawn(async move {
                h.sleep(D::from_millis(i * 10)).await;
                wg.done();
            });
        }
        {
            let wg = wg.clone();
            let h = h.clone();
            let done_at = done_at.clone();
            sim.spawn(async move {
                wg.wait().await;
                done_at.set(h.now().as_millis());
            });
        }
        sim.run_to_completion();
        assert_eq!(done_at.get(), 30);
    }

    #[test]
    fn join_all_runs_concurrently() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let done_at = Rc::new(Cell::new(0u64));
        let done_at2 = done_at.clone();
        sim.spawn(async move {
            let h1 = h.clone();
            let h2 = h.clone();
            let h3 = h.clone();
            super::join_all(vec![
                Box::pin(async move { h1.sleep(D::from_millis(10)).await })
                    as std::pin::Pin<Box<dyn std::future::Future<Output = ()>>>,
                Box::pin(async move { h2.sleep(D::from_millis(30)).await }),
                Box::pin(async move { h3.sleep(D::from_millis(20)).await }),
            ])
            .await;
            done_at2.set(h.now().as_millis());
        });
        sim.run_to_completion();
        // Concurrent: max, not sum.
        assert_eq!(done_at.get(), 30);
    }

    #[test]
    fn join_all_empty_is_immediate() {
        let mut sim = Sim::new();
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        sim.spawn(async move {
            super::join_all(Vec::<
                std::pin::Pin<Box<dyn std::future::Future<Output = ()>>>,
            >::new())
            .await;
            ok2.set(true);
        });
        sim.run_to_completion();
        assert!(ok.get());
    }

    #[test]
    fn waitgroup_wait_on_zero_is_immediate() {
        let mut sim = Sim::new();
        let wg = WaitGroup::new();
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        sim.spawn(async move {
            wg.wait().await;
            ok2.set(true);
        });
        sim.run_to_completion();
        assert!(ok.get());
    }
}
