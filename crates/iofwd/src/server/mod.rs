//! The ION daemon: accept loop, per-client handlers, worker pool.
//!
//! [`ForwardingMode`] selects among the four architectures the paper
//! compares (Figure 9's four curves):
//!
//! | mode | handler | executor | client blocked for |
//! |------|---------|----------|--------------------|
//! | `Ciod` | rx thread + proxy per client | proxy (double copy) | whole operation |
//! | `Zoid` | thread per client | the handler itself | whole operation |
//! | `Sched` | thread per client | the handler when an execution slot is free, else the shared worker pool | whole operation |
//! | `AsyncStaged` | thread per client | writes: shared worker pool; every other op: as `Sched`, an op on a descriptor in its turn behind the descriptor's staged writes | staging copy only |
//!
//! Either way at most `workers` ops execute at once: the pool's
//! execution slots ([`WorkQueue::try_claim`]) bound the handlers that
//! run an op in place as well as the workers.

mod admit;
mod engine;
mod handlers;
pub mod introspect;
mod queue;
mod reactor;
mod staged;
pub mod watchdog;

pub use engine::Engine;
pub use introspect::IntrospectHandle;
pub use queue::{
    Completion, CompletionSink, ReplyTo, SessionEffect, StagedPart, Ticket, WorkItem, WorkQueue,
};
pub use reactor::{ReactorConfig, ReactorHandle};
pub use staged::FdSerializer;
pub use watchdog::{WatchdogConfig, WatchdogHandle};

use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iofwd_proto::{Errno, Fd};
use parking_lot::Mutex;

use crate::backend::Backend;
use crate::bml::Bml;
use crate::descdb::OpOutcome;
use crate::fault::RetryPolicy;
use crate::telemetry::{Disposition, Telemetry};
use crate::transport::Listener;

/// Which forwarding architecture the daemon runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardingMode {
    /// IBM's CIOD: per-client proxy with a shared-memory copy (§II-B1).
    Ciod,
    /// ZeptoOS ZOID baseline: thread per client executes its own I/O
    /// (§II-B2).
    Zoid,
    /// ZOID + I/O scheduling: shared FIFO work queue + worker pool (§IV).
    Sched { workers: usize },
    /// ZOID + I/O scheduling + asynchronous data staging via the BML
    /// (§IV).
    AsyncStaged { workers: usize, bml_capacity: u64 },
}

impl ForwardingMode {
    pub fn name(&self) -> &'static str {
        match self {
            ForwardingMode::Ciod => "ciod",
            ForwardingMode::Zoid => "zoid",
            ForwardingMode::Sched { .. } => "sched",
            ForwardingMode::AsyncStaged { .. } => "async-staged",
        }
    }

    fn workers(&self) -> usize {
        match self {
            ForwardingMode::Ciod | ForwardingMode::Zoid => 0,
            ForwardingMode::Sched { workers } => *workers,
            ForwardingMode::AsyncStaged { workers, .. } => *workers,
        }
    }
}

/// Write-coalescing budgets: how much a worker may merge into a single
/// vectored backend call when it finds offset-contiguous staged writes
/// parked behind the one it dequeued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceConfig {
    /// Upper bound on merged payload bytes per batch.
    pub max_bytes: usize,
    /// Upper bound on constituent ops per batch (including the lead).
    pub max_ops: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            max_bytes: 1 << 20,
            max_ops: 16,
        }
    }
}

/// Daemon configuration.
#[derive(Clone)]
pub struct ServerConfig {
    pub mode: ForwardingMode,
    /// Observability registry shared by every layer of the daemon.
    /// Enabled by default — recording is cheap enough to leave on; swap
    /// in `Telemetry::disabled()` for a zero-overhead null sink.
    pub telemetry: Arc<crate::telemetry::Telemetry>,
    /// Retry policy for transient backend errors (EAGAIN/EIO/ECONNRESET).
    /// Disabled by default: tests and benches see every backend error
    /// exactly once unless they opt in. `iofwdd` enables
    /// [`RetryPolicy::standard`] by default.
    pub retry: RetryPolicy,
    /// Staged-write coalescing budgets; `None` disables merging. On by
    /// default for the worker-pool modes (Sched/AsyncStaged) — the only
    /// modes with a queue for writes to park behind — and off (and
    /// meaningless) for Ciod/Zoid, which execute inline.
    pub coalesce: Option<CoalesceConfig>,
}

impl ServerConfig {
    pub fn new(mode: ForwardingMode) -> Self {
        ServerConfig {
            mode,
            telemetry: Arc::new(crate::telemetry::Telemetry::new()),
            retry: RetryPolicy::disabled(),
            coalesce: match mode {
                ForwardingMode::Sched { .. } | ForwardingMode::AsyncStaged { .. } => {
                    Some(CoalesceConfig::default())
                }
                ForwardingMode::Ciod | ForwardingMode::Zoid => None,
            },
        }
    }

    /// Replace the telemetry registry (e.g. with `Telemetry::disabled()`).
    pub fn with_telemetry(mut self, telemetry: Arc<crate::telemetry::Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Retry transient backend errors per `policy` before failing an op.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Override the write-coalescing budgets (`None` disables merging).
    pub fn with_coalescing(mut self, coalesce: Option<CoalesceConfig>) -> Self {
        self.coalesce = coalesce;
        self
    }
}

/// A running ION daemon. Dropping without [`IonServer::shutdown`] detaches
/// its threads; call `shutdown` for an orderly join (clients must have
/// disconnected or sent `Request::Shutdown` first).
pub struct IonServer {
    ctx: Arc<admit::AdmitCtx>,
    listener: Arc<dyn Listener>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
    handler_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    reactor: Option<ReactorHandle>,
    config: ServerConfig,
}

/// What the shutdown drain did with staged writes that were still parked
/// when the deadline forced the worker pool down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Staged writes executed during the drain (within the deadline).
    pub executed: usize,
    /// Staged writes failed with a recorded deferred error (deadline
    /// exhausted before they could run).
    pub deferred: usize,
}

/// Engine + worker-pool plumbing shared by both transports.
struct ServerCore {
    engine: Arc<Engine>,
    policy: admit::Policy,
    worker_threads: Vec<JoinHandle<()>>,
}

fn build_core(backend: Arc<dyn Backend>, config: &ServerConfig) -> ServerCore {
    let telemetry = config.telemetry.clone();
    let bml = match config.mode {
        ForwardingMode::AsyncStaged { bml_capacity, .. } => {
            Some(Bml::with_telemetry(bml_capacity, telemetry.clone()))
        }
        _ => None,
    };
    let mut engine = Engine::with_telemetry(backend, bml.clone(), telemetry.clone());
    engine.set_retry_policy(config.retry);
    let engine = Arc::new(engine);

    let workers = config.mode.workers();
    if workers == 0 {
        return ServerCore {
            engine,
            policy: admit::Policy::Inline,
            worker_threads: Vec::new(),
        };
    }
    let queue = Arc::new(WorkQueue::with_telemetry(workers, telemetry));
    let serializer = Arc::new(FdSerializer::new());
    let worker_threads = (0..workers)
        .map(|w| {
            let queue = queue.clone();
            let engine = engine.clone();
            let serializer = serializer.clone();
            let coalesce = config.coalesce;
            std::thread::Builder::new()
                .name(format!("iofwd-worker-{w}"))
                .spawn(move || handlers::worker_loop(w, queue, engine, serializer, coalesce))
                .expect("spawn worker")
        })
        .collect();
    let policy = match bml {
        Some(bml) => admit::Policy::Staged {
            queue,
            serializer,
            bml,
        },
        None => admit::Policy::Sched { queue },
    };
    ServerCore {
        engine,
        policy,
        worker_threads,
    }
}

/// Join (and discard) every handler thread that has already returned,
/// so a long-lived daemon's handle list tracks *live* clients instead
/// of growing monotonically across connection churn.
fn reap_finished(handles: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            let _ = handles.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Fail a staged write the shutdown drain ran out of time for: record
/// the deferred error, return the staging memory, and complete the span
/// — into the flight recorder and trace, not the void.
fn fail_staged(engine: &Engine, telemetry: &Telemetry, fd: Fd, part: StagedPart, errno: Errno) {
    engine
        .descriptor_db()
        .finish_op(fd, part.op, OpOutcome::Failed(errno));
    drop(part.buf);
    let mut span = part.span;
    span.ok = false;
    span.errno = errno.to_wire();
    span.disposition = Disposition::DrainDeferred;
    telemetry.complete(&span);
}

impl IonServer {
    /// Start the daemon on a listener (thread-per-connection transport).
    pub fn spawn(
        listener: Box<dyn Listener>,
        backend: Arc<dyn Backend>,
        config: ServerConfig,
    ) -> IonServer {
        let telemetry = config.telemetry.clone();
        let ServerCore {
            engine,
            policy,
            worker_threads,
        } = build_core(backend, &config);
        // A handler thread has one op in flight at a time, so the
        // per-client queue cap never binds on this transport.
        let ctx = Arc::new(admit::AdmitCtx {
            engine,
            policy,
            max_client_queued: usize::MAX,
        });
        let listener: Arc<dyn Listener> = Arc::from(listener);
        let handler_threads = Arc::new(Mutex::new(Vec::new()));

        let accept_thread = {
            let listener = listener.clone();
            let ctx = ctx.clone();
            let handler_threads = handler_threads.clone();
            let ciod = config.mode == ForwardingMode::Ciod;
            std::thread::Builder::new()
                .name("iofwd-accept".into())
                .spawn(move || {
                    // Transient accept failures (EMFILE, ECONNABORTED,
                    // EINTR, …) must not kill the listener: back off,
                    // count, retry. Only `shutdown()` (surfaced as
                    // `Ok(None)`) ends the loop.
                    let mut backoff = Duration::from_millis(1);
                    loop {
                        let conn = match listener.accept() {
                            Ok(Some(conn)) => conn,
                            Ok(None) => break,
                            Err(_) => {
                                if telemetry.enabled() {
                                    telemetry.accept_errors.inc();
                                }
                                std::thread::sleep(backoff);
                                backoff = (backoff * 2).min(Duration::from_millis(100));
                                continue;
                            }
                        };
                        backoff = Duration::from_millis(1);
                        reap_finished(&mut handler_threads.lock());
                        if let Some(bml) = ctx.engine.bml() {
                            conn.receive_into(bml);
                        }
                        let conn: Arc<dyn crate::transport::Conn> = if telemetry.enabled() {
                            Arc::new(crate::transport::Instrumented::new(conn, telemetry.clone()))
                        } else {
                            Arc::from(conn)
                        };
                        let ctx = ctx.clone();
                        if telemetry.enabled() {
                            telemetry.conns_open.add(1);
                        }
                        let telemetry = telemetry.clone();
                        let handle = std::thread::Builder::new()
                            .name("iofwd-handler".into())
                            .spawn(move || {
                                if ciod {
                                    handlers::handle_ciod(conn, ctx);
                                } else {
                                    handlers::serve_conn(conn, ctx);
                                }
                                if telemetry.enabled() {
                                    telemetry.conns_open.add(-1);
                                }
                            })
                            .expect("spawn handler");
                        handler_threads.lock().push(handle);
                    }
                })
                .expect("spawn accept loop")
        };

        IonServer {
            ctx,
            listener,
            accept_thread: Some(accept_thread),
            worker_threads,
            handler_threads,
            reactor: None,
            config,
        }
    }

    /// Start the daemon on a TCP listener using the poll-based reactor
    /// transport: a small fixed pool of event loops multiplexes every
    /// client socket instead of spawning a thread per connection.
    ///
    /// Requires a worker-pool mode (`Sched`/`AsyncStaged`) — the
    /// reactor has no per-client thread to execute inline on. Fails if
    /// the vendored poller does not support this target (the caller
    /// falls back to [`IonServer::spawn`]).
    pub fn spawn_reactor(
        acceptor: crate::transport::tcp::TcpAcceptor,
        backend: Arc<dyn Backend>,
        config: ServerConfig,
        reactor_cfg: ReactorConfig,
    ) -> io::Result<IonServer> {
        if config.mode.workers() == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "reactor transport requires a worker-pool mode (sched/async-staged)",
            ));
        }
        let ServerCore {
            engine,
            policy,
            worker_threads,
        } = build_core(backend, &config);
        let ctx = Arc::new(admit::AdmitCtx {
            engine,
            policy,
            max_client_queued: reactor_cfg.max_client_queued.max(1),
        });
        let acceptor = Arc::new(acceptor);
        match reactor::spawn(acceptor.clone(), ctx.clone(), reactor_cfg) {
            Ok(handle) => Ok(IonServer {
                ctx,
                listener: acceptor,
                accept_thread: None,
                worker_threads,
                handler_threads: Arc::new(Mutex::new(Vec::new())),
                reactor: Some(handle),
                config,
            }),
            Err(e) => {
                // Unwind the worker pool we just built; no client ever
                // connected, so there is nothing to drain.
                if let Some(queue) = ctx.queue() {
                    queue.close();
                    queue.abort();
                }
                for w in worker_threads {
                    let _ = w.join();
                }
                if let Some(bml) = ctx.engine.bml() {
                    bml.close();
                }
                Err(e)
            }
        }
    }

    /// Live handler threads (thread-per-connection transport only; the
    /// reactor spawns none). Finished handlers are reaped on the next
    /// accept, so across connection churn this tracks open clients, not
    /// historical ones.
    pub fn handler_thread_count(&self) -> usize {
        let mut handles = self.handler_threads.lock();
        reap_finished(&mut handles);
        handles.len()
    }

    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The daemon's telemetry registry (always present; a null sink if
    /// the config disabled it).
    pub fn telemetry(&self) -> Arc<crate::telemetry::Telemetry> {
        self.ctx.engine.telemetry().clone()
    }

    /// The shared work queue (None for Ciod/Zoid modes) — the watchdog
    /// samples its head-of-line age through this.
    pub fn work_queue(&self) -> Option<Arc<WorkQueue>> {
        self.ctx.queue().cloned()
    }

    /// Work-queue statistics (None for Ciod/Zoid modes).
    pub fn queue_stats(&self) -> Option<(u64, u64)> {
        self.ctx
            .queue()
            .map(|q| (q.total_enqueued(), q.depth_high_water()))
    }

    /// BML statistics (None unless AsyncStaged).
    pub fn bml_stats(&self) -> Option<crate::bml::BmlStats> {
        self.ctx.engine.bml().map(|b| b.stats())
    }

    /// Number of descriptors currently open on the daemon.
    pub fn open_descriptors(&self) -> usize {
        self.ctx.engine.descriptor_db().open_count()
    }

    /// Orderly shutdown: stop accepting, drain the work queue, join
    /// workers and client handlers. Delegates to
    /// [`shutdown_with_deadline`](Self::shutdown_with_deadline) with a
    /// generous budget; under normal load everything executes and the
    /// report is all-`executed`.
    pub fn shutdown(self) {
        self.shutdown_with_deadline(Duration::from_secs(30));
    }

    /// Deadline-bounded degraded shutdown.
    ///
    /// Ordering matters here, and every step exists to uphold one
    /// invariant: **no staged write is dropped without an outcome, and
    /// no BML buffer is stranded.**
    ///
    /// 1. Stop accepting connections and join the accept loop.
    /// 2. `close()` the work queue: new pushes fail with `QueueClosed`
    ///    (handlers translate that into a clean errno reply or an
    ///    inline execution), while workers keep draining what's queued.
    /// 3. Give workers half the budget to finish in order, then
    ///    `abort()`: remaining items stay parked for the drain instead
    ///    of being handed to workers that must now exit.
    /// 4. Join workers, then drain the queue *and* the serializer
    ///    lanes. Each parked staged write either executes now (while
    ///    budget remains) or records a deferred error via the
    ///    descriptor database — either way its op completes and its
    ///    BML buffer is returned. Each parked synchronous op is answered
    ///    `EAGAIN`, which wakes the handler waiting for it.
    /// 5. Join handlers. This must come *after* the drain: a handler
    ///    waiting for an op the drain answered returns only then.
    /// 6. Close the BML.
    pub fn shutdown_with_deadline(mut self, deadline: Duration) -> ShutdownReport {
        let started = Instant::now();
        self.listener.shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(q) = self.ctx.queue() {
            q.close();
            let soft = deadline / 2;
            while q.depth() > 0 && started.elapsed() < soft {
                std::thread::sleep(Duration::from_millis(1));
            }
            q.abort();
        }
        for w in std::mem::take(&mut self.worker_threads) {
            let _ = w.join();
        }

        let engine = &self.ctx.engine;
        let telemetry = engine.telemetry();
        let mut leftovers: Vec<WorkItem> = Vec::new();
        if let Some(q) = self.ctx.queue() {
            leftovers.extend(q.drain_remaining());
        }
        // Only staged mode ever parks an item on a serializer lane.
        if let admit::Policy::Staged { serializer, .. } = &self.ctx.policy {
            leftovers.extend(serializer.drain_all());
        }
        let mut report = ShutdownReport::default();
        for item in leftovers {
            let (fd, part) = match item {
                // Sync items carry no BML memory and no recorded op:
                // answer EAGAIN through the item's own reply route. The
                // handler (or the still-running event loop) delivers it
                // and closes the connection behind it.
                item @ WorkItem::Sync { .. } => {
                    admit::reject(item, Errno::Again, Disposition::QueueRejected);
                    continue;
                }
                WorkItem::Reclaim(fd) => {
                    engine.close_orphan(fd);
                    continue;
                }
                WorkItem::StagedWrite { fd, part } => (fd, part),
            };
            if started.elapsed() < deadline {
                handlers::execute_staged(
                    engine,
                    telemetry,
                    fd,
                    part,
                    0,
                    Disposition::DrainExecuted,
                );
                report.executed += 1;
                if telemetry.enabled() {
                    telemetry.drain_executed.inc();
                }
            } else {
                // Deadline exhausted: fail the op *explicitly* so the
                // client's deferred-error channel reports it on the
                // next op or close, and return the staging memory.
                fail_staged(engine, telemetry, fd, part, Errno::Io);
                report.deferred += 1;
                if telemetry.enabled() {
                    telemetry.drain_deferred.inc();
                }
            }
        }

        let handlers: Vec<_> = std::mem::take(&mut *self.handler_threads.lock());
        for h in handlers {
            let _ = h.join();
        }
        // Reactor transport: the event loops stayed up through the
        // drain so queue-rejected completions could still reach their
        // connections; now stop them (tears down remaining sockets and
        // reclaims descriptors) before closing the BML.
        if let Some(r) = self.reactor.take() {
            r.stop();
        }
        if let Some(bml) = self.ctx.engine.bml() {
            bml.close();
        }
        report
    }
}
