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
//! The shared worker pool is §IV's one FIFO under one lock, and its
//! execution slots ([`WorkQueue::try_claim`]) bound the handlers that
//! run an op in place as well as the workers: at most `workers` ops
//! execute at once, whichever thread runs them. Everything the daemon
//! knows about one open descriptor — its object, op ids, deferred error
//! and lane — is one entry of the descriptor table ([`crate::descdb`]).

mod admit;
mod engine;
mod handlers;
mod queue;
mod reactor;

pub use engine::{Engine, Written};
pub use queue::{ReplyTo, Route, StagedPart, WorkItem, WorkQueue};
pub use reactor::{ReactorConfig, ReactorHandle};

use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::backend::Backend;
use crate::bml::Bml;
use crate::fault::RetryPolicy;
use crate::sync::Mutex;
use crate::telemetry::{Disposition, MAX_WORKERS};
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
    /// Staged-write coalescing (budgets: `engine::COALESCE_MAX_OPS` and
    /// `handlers::COALESCE_MAX_BYTES`). On
    /// by default for the worker-pool modes (Sched/AsyncStaged) — the
    /// only modes with a queue for writes to park behind — and off (and
    /// meaningless) for Ciod/Zoid, which execute inline.
    pub coalesce: bool,
}

impl ServerConfig {
    pub fn new(mode: ForwardingMode) -> Self {
        ServerConfig {
            mode,
            telemetry: Arc::new(crate::telemetry::Telemetry::new()),
            retry: RetryPolicy::disabled(),
            coalesce: matches!(
                mode,
                ForwardingMode::Sched { .. } | ForwardingMode::AsyncStaged { .. }
            ),
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

    /// Turn write coalescing on or off.
    pub fn with_coalescing(mut self, coalesce: bool) -> Self {
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
    let worker_threads = (0..workers)
        .map(|w| {
            let queue = queue.clone();
            let engine = engine.clone();
            let coalesce = config.coalesce;
            std::thread::Builder::new()
                .name(format!("iofwd-worker-{w}"))
                .spawn(move || handlers::worker_loop(w, queue, engine, coalesce))
                .expect("spawn worker")
        })
        .collect();
    let policy = match bml {
        Some(bml) => admit::Policy::Staged { queue, bml },
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
        let ctx = Arc::new(admit::AdmitCtx { engine, policy });
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
                        let conn: Arc<dyn crate::transport::Conn> = Arc::from(conn);
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
    /// reactor has no per-client thread to execute inline on — and at
    /// most [`MAX_WORKERS`] event loops and workers, the rows telemetry
    /// keeps for them (loop 64 would share loop 0's heartbeat slot, and
    /// a stuck loop would hide behind a healthy one). Fails if the
    /// vendored poller does not support this target (the caller falls
    /// back to [`IonServer::spawn`]).
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
        if config.mode.workers() > MAX_WORKERS || reactor_cfg.threads > MAX_WORKERS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("at most {MAX_WORKERS} workers and {MAX_WORKERS} reactor threads"),
            ));
        }
        let ServerCore {
            engine,
            policy,
            worker_threads,
        } = build_core(backend, &config);
        let ctx = Arc::new(admit::AdmitCtx { engine, policy });
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
    /// 4. Join workers, then drain the queue *and* the descriptor
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
        leftovers.extend(engine.descriptor_db().drain_all());
        let mut report = ShutdownReport::default();
        for item in leftovers {
            // Each staged write runs alone, in lane order, while budget
            // remains, and past the deadline fails explicitly.
            let (late, count) = if started.elapsed() < deadline {
                (Disposition::DrainExecuted, &mut report.executed)
            } else {
                (Disposition::DrainDeferred, &mut report.deferred)
            };
            *count += usize::from(matches!(item, WorkItem::StagedWrite { .. }));
            admit::settle(&self.ctx, item, late);
        }
        if telemetry.enabled() {
            telemetry.drain_executed.add(report.executed as u64);
            telemetry.drain_deferred.add(report.deferred as u64);
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
