//! Deterministic single-threaded async executor driven by virtual time.
//!
//! Simulation actors are ordinary `async fn`s. Awaiting a [`SimHandle::sleep`]
//! timer, a [`SimHandle::transfer`] fluid flow, or a [`crate::sync`]
//! primitive parks the actor; the executor then advances the virtual clock
//! directly to the next scheduled event. Wall-clock time never enters the
//! picture, so a simulated hour of I/O takes milliseconds to run and two
//! runs with the same inputs are bit-identical.
//!
//! ## Structure
//!
//! * [`Sim`] owns the reactor core (clock, timer heap, fluid system, task
//!   slab) and the run loop.
//! * [`SimHandle`] is a cheap clone handed to actors; all actor-side
//!   operations (spawn, sleep, transfer, resource creation) go through it.
//! * Wakers push task ids onto a shared ready queue; the run loop polls
//!   ready tasks to exhaustion before advancing time, which gives the
//!   usual "all events at time t complete before t+1" DES semantics.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use crate::fluid::{self, FlowCell, FlowId, FlowSpec, ResourceId};
use crate::time::{Duration, SimTime};

type TaskFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Shared ready-list; wakers (which must be `Send + Sync`) push into it.
/// The simulation itself is single-threaded, so the mutex is uncontended.
#[derive(Default)]
struct ReadyQueue {
    queue: Mutex<VecDeque<usize>>,
}

struct TaskWaker {
    id: usize,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.queue.lock().unwrap().push_back(self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.queue.lock().unwrap().push_back(self.id);
    }
}

/// A registered timer. `fired` is shared with the sleeping future.
struct TimerCell {
    fired: Cell<bool>,
    waker: RefCell<Waker>,
}

struct TimerEntry {
    at: SimTime,
    seq: u64,
    cell: Rc<TimerCell>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct Core {
    now: SimTime,
    seq: u64,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    tasks: Vec<Option<TaskFuture>>,
    free_ids: Vec<usize>,
    live_tasks: usize,
    fluid: fluid::System,
}

impl Core {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }
}

/// Outcome of [`Sim::run`]: the time at which the simulation quiesced and
/// how many actors were still parked (daemon actors blocked on queues are
/// normal; a nonzero count is only a bug if you expected all actors to
/// finish).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quiesce {
    pub at: SimTime,
    pub parked_tasks: usize,
}

/// The simulation reactor. Create one per experiment, spawn the root
/// actors, then [`Sim::run`] to completion.
pub struct Sim {
    core: Rc<RefCell<Core>>,
    ready: Arc<ReadyQueue>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    pub fn new() -> Self {
        Sim {
            core: Rc::new(RefCell::new(Core {
                now: SimTime::ZERO,
                seq: 0,
                timers: BinaryHeap::new(),
                tasks: Vec::new(),
                free_ids: Vec::new(),
                live_tasks: 0,
                fluid: fluid::System::new(),
            })),
            ready: Arc::new(ReadyQueue::default()),
        }
    }

    /// A cheap, clonable handle for use inside actors.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            core: self.core.clone(),
            ready: self.ready.clone(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// Spawn a root actor.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) {
        self.handle().spawn(fut);
    }

    /// Create a fluid resource (see [`crate::fluid`]).
    pub fn resource(&self, name: &str, capacity: f64) -> ResourceId {
        self.handle().resource(name, capacity)
    }

    /// Create a fluid resource whose effective capacity depends on the
    /// number of concurrently active flows (models scheduler/context-switch
    /// overhead).
    pub fn resource_scaled(
        &self,
        name: &str,
        capacity: f64,
        scale: impl Fn(usize) -> f64 + 'static,
    ) -> ResourceId {
        self.handle().resource_scaled(name, capacity, scale)
    }

    /// Run until no timer, no fluid flow, and no runnable task remains.
    ///
    /// Returns when the event calendar is empty. Actors still parked on
    /// queues/semaphores at that point are counted in
    /// [`Quiesce::parked_tasks`].
    pub fn run(&mut self) -> Quiesce {
        loop {
            self.drain_ready();

            let (next_timer, next_flow) = {
                let mut core = self.core.borrow_mut();
                let now = core.now;
                let nt = core.timers.peek().map(|Reverse(e)| e.at);
                let nf = core.fluid.next_completion(now);
                (nt, nf)
            };

            let next = match (next_timer, next_flow) {
                (None, None) => break,
                (Some(t), None) => t,
                (None, Some(f)) => f,
                (Some(t), Some(f)) => t.min(f),
            };

            {
                let mut core = self.core.borrow_mut();
                debug_assert!(next >= core.now, "time went backwards");
                core.now = next;
                // Fire due timers.
                while let Some(Reverse(e)) = core.timers.peek() {
                    if e.at > next {
                        break;
                    }
                    let Reverse(e) = core.timers.pop().unwrap();
                    e.cell.fired.set(true);
                    e.cell.waker.borrow().wake_by_ref();
                }
                // Complete due fluid flows.
                core.fluid.catch_up(next);
            }
        }
        let core = self.core.borrow();
        Quiesce {
            at: core.now,
            parked_tasks: core.live_tasks,
        }
    }

    /// Run, then assert every actor finished. Panics (with a diagnostic)
    /// if any actor is still parked — i.e. the simulation deadlocked.
    pub fn run_to_completion(&mut self) -> SimTime {
        let q = self.run();
        assert_eq!(
            q.parked_tasks, 0,
            "simulation quiesced at {} with {} parked task(s): deadlock or \
             daemon actors that were expected to finish",
            q.at, q.parked_tasks
        );
        q.at
    }

    fn drain_ready(&mut self) {
        loop {
            let id = { self.ready.queue.lock().unwrap().pop_front() };
            let Some(id) = id else { break };
            // Take the future out so actor code can re-borrow the core.
            let fut = {
                let mut core = self.core.borrow_mut();
                match core.tasks.get_mut(id) {
                    Some(slot) => slot.take(),
                    None => None,
                }
            };
            let Some(mut fut) = fut else { continue }; // finished or spurious
            let waker = Waker::from(Arc::new(TaskWaker {
                id,
                ready: self.ready.clone(),
            }));
            let mut cx = Context::from_waker(&waker);
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(()) => {
                    let mut core = self.core.borrow_mut();
                    core.free_ids.push(id);
                    core.live_tasks -= 1;
                }
                Poll::Pending => {
                    let mut core = self.core.borrow_mut();
                    core.tasks[id] = Some(fut);
                }
            }
        }
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Break Rc cycles: parked futures hold SimHandles which hold the
        // core. Move them out of the core first — their destructors (e.g.
        // Transfer cancellation) re-borrow the core.
        let tasks = {
            let mut core = self.core.borrow_mut();
            std::mem::take(&mut core.tasks)
        };
        drop(tasks);
    }
}

/// Actor-side handle to the reactor. Clone freely.
#[derive(Clone)]
pub struct SimHandle {
    core: Rc<RefCell<Core>>,
    ready: Arc<ReadyQueue>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// Spawn a new actor; it becomes runnable immediately (at the current
    /// virtual time).
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) {
        let mut core = self.core.borrow_mut();
        let id = match core.free_ids.pop() {
            Some(id) => {
                core.tasks[id] = Some(Box::pin(fut));
                id
            }
            None => {
                core.tasks.push(Some(Box::pin(fut)));
                core.tasks.len() - 1
            }
        };
        core.live_tasks += 1;
        drop(core);
        self.ready.queue.lock().unwrap().push_back(id);
    }

    /// Park the actor for `d` of virtual time.
    pub fn sleep(&self, d: Duration) -> SimSleep {
        let deadline = self.now() + d;
        self.sleep_until(deadline)
    }

    /// Park the actor until the given instant (no-op if already past).
    pub fn sleep_until(&self, deadline: SimTime) -> SimSleep {
        SimSleep {
            handle: self.clone(),
            deadline,
            cell: None,
        }
    }

    /// Create a fluid resource with a fixed capacity (units/second).
    pub fn resource(&self, name: &str, capacity: f64) -> ResourceId {
        self.core
            .borrow_mut()
            .fluid
            .add_resource(name, capacity, None)
    }

    /// Create a fluid resource whose effective capacity is
    /// `capacity * scale(active_flows)`; `scale` models contention overhead
    /// such as context-switch cost growing with oversubscription.
    pub fn resource_scaled(
        &self,
        name: &str,
        capacity: f64,
        scale: impl Fn(usize) -> f64 + 'static,
    ) -> ResourceId {
        self.core
            .borrow_mut()
            .fluid
            .add_resource(name, capacity, Some(Box::new(scale)))
    }

    /// Change a resource's base capacity (takes effect at the current time).
    pub fn set_capacity(&self, r: ResourceId, capacity: f64) {
        let mut core = self.core.borrow_mut();
        let now = core.now;
        core.fluid.set_capacity(now, r, capacity);
    }

    /// Start a fluid transfer and await its completion. The flow contends
    /// with every other active flow on the resources named in `spec`.
    pub fn transfer(&self, spec: FlowSpec) -> Transfer {
        Transfer {
            handle: self.clone(),
            spec: Some(spec),
            flow: None,
        }
    }

    /// Time-weighted utilization (0..=1) of a resource since simulation
    /// start, for reports.
    pub fn utilization(&self, r: ResourceId) -> f64 {
        let mut core = self.core.borrow_mut();
        let now = core.now;
        core.fluid.utilization(now, r)
    }

    /// Total work units served by a resource so far.
    pub fn served(&self, r: ResourceId) -> f64 {
        let mut core = self.core.borrow_mut();
        let now = core.now;
        core.fluid.served(now, r)
    }
}

/// Future returned by [`SimHandle::sleep`].
pub struct SimSleep {
    handle: SimHandle,
    deadline: SimTime,
    cell: Option<Rc<TimerCell>>,
}

impl Future for SimSleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if let Some(cell) = &self.cell {
            if cell.fired.get() {
                return Poll::Ready(());
            }
            *cell.waker.borrow_mut() = cx.waker().clone();
            return Poll::Pending;
        }
        let mut core = self.handle.core.borrow_mut();
        if core.now >= self.deadline {
            return Poll::Ready(());
        }
        let cell = Rc::new(TimerCell {
            fired: Cell::new(false),
            waker: RefCell::new(cx.waker().clone()),
        });
        let seq = core.next_seq();
        core.timers.push(Reverse(TimerEntry {
            at: self.deadline,
            seq,
            cell: cell.clone(),
        }));
        drop(core);
        self.cell = Some(cell);
        Poll::Pending
    }
}

/// Future returned by [`SimHandle::transfer`]. Dropping it before
/// completion cancels the flow and releases its resource shares.
pub struct Transfer {
    handle: SimHandle,
    spec: Option<FlowSpec>,
    flow: Option<(FlowId, Rc<FlowCell>)>,
}

impl Future for Transfer {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if let Some((_, cell)) = &self.flow {
            if cell.done.get() {
                return Poll::Ready(());
            }
            *cell.waker.borrow_mut() = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let spec = self.spec.take().expect("Transfer polled after completion");
        let cell = Rc::new(FlowCell {
            done: Cell::new(false),
            waker: RefCell::new(Some(cx.waker().clone())),
        });
        let mut core = self.handle.core.borrow_mut();
        let now = core.now;
        let id = core.fluid.add_flow(now, spec, cell.clone());
        drop(core);
        if cell.done.get() {
            // Zero-work flows complete synchronously.
            return Poll::Ready(());
        }
        self.flow = Some((id, cell));
        Poll::Pending
    }
}

impl Drop for Transfer {
    fn drop(&mut self) {
        if let Some((id, cell)) = self.flow.take() {
            if !cell.done.get() {
                let mut core = self.handle.core.borrow_mut();
                let now = core.now;
                core.fluid.cancel_flow(now, id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell as StdRefCell;
    use std::rc::Rc as StdRc;

    #[test]
    fn empty_sim_quiesces_at_zero() {
        let mut sim = Sim::new();
        let q = sim.run();
        assert_eq!(q.at, SimTime::ZERO);
        assert_eq!(q.parked_tasks, 0);
    }

    #[test]
    fn sleep_advances_clock() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let seen = StdRc::new(Cell::new(0u64));
        let seen2 = seen.clone();
        sim.spawn(async move {
            h.sleep(Duration::from_millis(10)).await;
            seen2.set(h.now().as_millis());
        });
        sim.run_to_completion();
        assert_eq!(seen.get(), 10);
        assert_eq!(sim.now().as_millis(), 10);
    }

    #[test]
    fn sleeps_fire_in_order() {
        let mut sim = Sim::new();
        let order = StdRc::new(StdRefCell::new(Vec::new()));
        for (i, ms) in [(0u32, 30u64), (1, 10), (2, 20)] {
            let h = sim.handle();
            let order = order.clone();
            sim.spawn(async move {
                h.sleep(Duration::from_millis(ms)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run_to_completion();
        assert_eq!(*order.borrow(), vec![1, 2, 0]);
    }

    #[test]
    fn same_deadline_fires_in_spawn_order() {
        let mut sim = Sim::new();
        let order = StdRc::new(StdRefCell::new(Vec::new()));
        for i in 0..5u32 {
            let h = sim.handle();
            let order = order.clone();
            sim.spawn(async move {
                h.sleep(Duration::from_millis(5)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run_to_completion();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_spawn_runs() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let hit = StdRc::new(Cell::new(false));
        let hit2 = hit.clone();
        sim.spawn(async move {
            let h2 = h.clone();
            h.sleep(Duration::from_micros(1)).await;
            h.spawn(async move {
                h2.sleep(Duration::from_micros(1)).await;
                hit2.set(true);
            });
        });
        sim.run_to_completion();
        assert!(hit.get());
        assert_eq!(sim.now().as_micros(), 2);
    }

    #[test]
    fn zero_sleep_is_immediate() {
        let mut sim = Sim::new();
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(Duration::ZERO).await;
            assert_eq!(h.now(), SimTime::ZERO);
        });
        sim.run_to_completion();
    }

    #[test]
    fn parked_task_reported() {
        let mut sim = Sim::new();
        sim.spawn(async move {
            // Park forever on a oneshot whose sender is kept alive but
            // never fired.
            let (tx, rx) = crate::sync::oneshot::<()>();
            rx.await;
            drop(tx);
        });
        let q = sim.run();
        assert_eq!(q.parked_tasks, 1);
    }

    #[test]
    fn deterministic_interleaving() {
        fn run_once() -> Vec<(u32, u64)> {
            let mut sim = Sim::new();
            let log = StdRc::new(StdRefCell::new(Vec::new()));
            for i in 0..8u32 {
                let h = sim.handle();
                let log = log.clone();
                sim.spawn(async move {
                    for k in 0..4u64 {
                        h.sleep(Duration::from_micros((i as u64 * 7 + k * 13) % 17 + 1))
                            .await;
                        log.borrow_mut().push((i, h.now().as_nanos()));
                    }
                });
            }
            sim.run_to_completion();
            let out = log.borrow().clone();
            out
        }
        assert_eq!(run_once(), run_once());
    }
}
