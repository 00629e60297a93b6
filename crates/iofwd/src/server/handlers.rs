//! The threaded transport's driver, and the worker pool.
//!
//! * [`serve_conn`] — one loop for every forwarding mode: receive a
//!   frame, hand it to the admission core (`server::admit`), and do what
//!   the returned [`Admission`] says, blocking in place wherever the
//!   core says "wait". The modes differ only in the core's policy: zoid
//!   runs everything on this thread (§II-B2); sched runs each op here
//!   under one of the pool's execution slots when one is free, and
//!   otherwise queues it and sleeps until a worker finishes it; staged
//!   acknowledges data writes as soon as they are in BML memory and
//!   pushes them to the pool after the ack (§IV), and any other op on a
//!   descriptor waits for its turn in the descriptor's lane (asleep on
//!   its reply, like a queued op) before it is dispatched as in sched.
//! * [`handle_ciod`] — the CIOD architecture (§II-B1): the daemon-side
//!   thread copies each request into a "shared-memory region" (an honest
//!   extra copy) and hands it to a dedicated per-client *proxy*, which
//!   drives it like `serve_conn` does.
//! * [`worker_loop`] — the shared worker pool of the sched/staged modes.

use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::unbounded;
use iofwd_proto::{Fd, Frame, OpId};

use super::admit::{
    self, Accepted, Admission, AdmitCtx, Dispatched, Need, Retry, Route, Session, Waiting,
};
use super::engine::Engine;
use super::queue::{StagedPart, WorkItem, WorkQueue};
use super::staged::{CompletionGuard, FdSerializer};
use crate::descdb::OpOutcome;
use crate::telemetry::{Disposition, Telemetry};
use crate::transport::Conn;

/// Carry one admission to its reply, blocking wherever the core says
/// to wait. Returns `false` once the connection should close.
fn drive(conn: &dyn Conn, ctx: &AdmitCtx, session: &mut Session, mut admission: Admission) -> bool {
    loop {
        admission = match admission {
            // A send failure means the client vanished; the caller
            // observes the closed connection on its next recv. A staged
            // write is pushed whatever the send did: ack, then push, so
            // the woken worker runs while the client turns round, not
            // in front of its reply.
            Admission::Reply { frame, staged } => {
                let _ = conn.send(frame);
                if let Some(item) = staged {
                    admit::push(ctx, item);
                }
                return true;
            }
            Admission::Close { after } => {
                let _ = conn.send(after);
                return false;
            }
            // Blocking is how a thread parks: "if there is insufficient
            // memory to stage the data, the I/O operation is blocked
            // until ... sufficient memory is available" (§IV).
            Admission::Park { op, need } => {
                let retry = match need {
                    Need::Bml => Retry::Adopted(
                        ctx.engine
                            .bml()
                            .and_then(|bml| bml.adopt(op.data.clone()).ok()),
                    ),
                    Need::QueueCredit => {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        Retry::Poll
                    }
                };
                admit::resume(ctx, op, retry)
            }
            Admission::Dispatch { lane, op } => {
                match admit::dispatch(ctx, &session.route, lane, op) {
                    Dispatched::Here(ticket, outcome) => {
                        admit::finish(ctx, session, ticket, outcome)
                    }
                    // The threaded route always hands back a channel; a
                    // dropped sender means the worker pool is gone
                    // (daemon shutting down).
                    Dispatched::Queued(Some(Waiting { ticket, rx })) => match rx.recv() {
                        Ok(outcome) => admit::finish(ctx, session, ticket, outcome),
                        Err(_) => return false,
                    },
                    Dispatched::Queued(None) => return false,
                }
            }
        };
    }
}

/// Serve one client connection on the calling thread.
pub(crate) fn serve_conn(conn: Arc<dyn Conn>, ctx: Arc<AdmitCtx>) {
    let mut session = Session::new(Route::Handler);
    while let Ok(Some(frame)) = conn.recv() {
        let admission = admit::admit(&ctx, frame);
        if !drive(conn.as_ref(), &ctx, &mut session, admission) {
            break;
        }
    }
    session.reclaim(&ctx);
}

/// CIOD: the daemon thread copies into "shared memory", a per-client
/// proxy executes. The copy is real — it is CIOD's architectural cost.
pub(crate) fn handle_ciod(conn: Arc<dyn Conn>, ctx: Arc<AdmitCtx>) {
    let (shm_tx, shm_rx) = unbounded::<Accepted>();
    let proxy_conn = conn.clone();
    let proxy_ctx = ctx.clone();
    let proxy = std::thread::Builder::new()
        .name("ciod-proxy".into())
        .spawn(move || {
            // The I/O proxy process: executes forwarded calls and returns
            // results directly to the compute node.
            let telemetry = proxy_ctx.engine.telemetry().clone();
            let mut session = Session::new(Route::Handler);
            while let Ok(accepted) = shm_rx.recv() {
                let admission = match accepted {
                    Accepted::Op(mut op) => {
                        // Queue wait = time the op sat in the shm channel.
                        op.span.dispatch_ns = telemetry.now_ns();
                        admit::resume(&proxy_ctx, op, Retry::Poll)
                    }
                    Accepted::Answered(answered) => answered,
                };
                if !drive(proxy_conn.as_ref(), &proxy_ctx, &mut session, admission) {
                    break;
                }
            }
            session.reclaim(&proxy_ctx);
        })
        .expect("spawn ciod proxy");

    let telemetry = ctx.engine.telemetry().clone();
    while let Ok(Some(frame)) = conn.recv() {
        // Copy the payload into the shared-memory region before the proxy
        // may touch it (CIOD's double copy, §II-B1).
        // HOTPATH: deliberate deep copy — paper fidelity, not an oversight.
        let copied = Bytes::from(frame.data.to_vec());
        let mut accepted = admit::accept(
            &ctx,
            Frame {
                data: copied,
                ..frame
            },
        );
        if let Accepted::Op(op) = &mut accepted {
            op.span.enqueue_ns = telemetry.now_ns();
        }
        let closing = matches!(accepted, Accepted::Answered(Admission::Close { .. }));
        if shm_tx.send(accepted).is_err() || closing {
            break;
        }
    }
    drop(shm_tx);
    let _ = proxy.join();
}

/// Execute one staged write: backend write and outcome recording (in
/// the engine, shared with the sync path), span
/// completion, and BML buffer return. `worker` is the 1-based pool
/// worker, 0 off the pool; `disposition` records why it ran where it did
/// (`Completed`, or `DrainExecuted` from the shutdown drain).
pub(crate) fn execute_staged(
    engine: &Engine,
    telemetry: &Telemetry,
    fd: Fd,
    part: StagedPart,
    worker: u32,
    disposition: Disposition,
) {
    let StagedPart {
        op,
        offset,
        buf,
        mut span,
    } = part;
    span.dispatch_ns = telemetry.now_ns();
    span.backend_start_ns = span.dispatch_ns;
    span.worker = worker;
    let outcome = engine.execute_staged_write(fd, op, offset, buf.as_slice());
    span.backend_done_ns = telemetry.now_ns();
    span.ok = matches!(outcome, OpOutcome::Ok);
    if let OpOutcome::Failed(errno) = outcome {
        span.errno = errno.to_wire();
    }
    span.disposition = disposition;
    drop(buf); // return staging memory before dispatching more
    telemetry.complete(&span);
}

/// Execute a coalesced batch of offset-contiguous staged writes as one
/// vectored backend call and fan the result back to every constituent
/// op: each part keeps its own `OpSpan` (dispatch/backend stamps are
/// shared, as the parts genuinely share the backend interval), its own
/// `finish_op` outcome in the DescDb, and its own BML buffer return.
/// A short vectored write credits full success to the parts it covered
/// and charges the error only to the parts (or tails) it did not.
fn execute_coalesced(
    engine: &Engine,
    telemetry: &Telemetry,
    fd: Fd,
    mut parts: Vec<StagedPart>,
    worker: u32,
) {
    let Some(first) = parts.first() else {
        return;
    };
    let base = first.offset;
    let now = telemetry.now_ns();
    let total: u64 = parts.iter().map(|p| p.buf.len() as u64).sum();
    for part in parts.iter_mut() {
        part.span.dispatch_ns = now;
        part.span.backend_start_ns = now;
        part.span.worker = worker;
    }
    if telemetry.enabled() {
        telemetry.coalesced_batches.inc();
        telemetry.coalesced_ops.add(parts.len() as u64);
        telemetry.coalesced_bytes.add(total);
        telemetry.coalesce_width.record(parts.len() as u64);
    }
    let outcomes = {
        // Inner scope: the borrows of `parts` end before the move-out
        // fan-out below.
        let descr: Vec<(OpId, &[u8])> = parts.iter().map(|p| (p.op, p.buf.as_slice())).collect();
        engine.execute_coalesced_write(fd, base, &descr)
    };
    let done = telemetry.now_ns();
    for (part, outcome) in parts.into_iter().zip(outcomes) {
        let mut span = part.span;
        span.backend_done_ns = done;
        span.ok = matches!(outcome, OpOutcome::Ok);
        if let OpOutcome::Failed(errno) = outcome {
            span.errno = errno.to_wire();
        }
        drop(part.buf); // return staging memory per constituent
        telemetry.complete(&span);
    }
}

/// Tasks a worker dequeues per scheduling pass (the paper's per-thread
/// I/O multiplexing; §IV uses a poll-based event loop).
const WORKER_BATCH: usize = 4;

/// Coalescing budgets: the most payload bytes, and the most ops (the
/// lead write included), a worker merges into one vectored backend call
/// when it finds offset-contiguous staged writes parked behind the one
/// it dequeued.
const COALESCE_MAX_BYTES: usize = 1 << 20;
const COALESCE_MAX_OPS: usize = 16;

/// Worker-pool loop: batch-dequeue ("I/O multiplexing per thread") and
/// execute. With `coalesce` on, a dequeued staged write additionally
/// harvests the offset-contiguous prefix parked behind it on its
/// serializer lane and executes the whole chain as one vectored write.
pub fn worker_loop(
    worker: usize,
    queue: Arc<WorkQueue>,
    engine: Arc<Engine>,
    serializer: Arc<FdSerializer>,
    coalesce: bool,
) {
    let telemetry = engine.telemetry().clone();
    let worker_id = worker as u32 + 1;
    // Execute one item; hands back the synchronous op its lane released,
    // if any.
    let run = |item: WorkItem| -> Option<WorkItem> {
        // Drop-safe lane release: on every exit path — normal completion
        // or an unwind — the lane is completed and the successor
        // re-enqueued (or parked for the shutdown drain if the queue
        // closed).
        let guard = item
            .lane()
            .map(|fd| serializer.completion_guard(fd, queue.clone()));
        match item {
            WorkItem::Sync {
                req,
                data,
                reply,
                mut span,
                ..
            } => {
                span.dispatch_ns = telemetry.now_ns();
                span.worker = worker_id;
                let (resp, out) = engine.execute_timed(&req, &data, &mut span);
                // The lane is released before the reply goes, so the
                // client's next op on the descriptor finds it free.
                let next = guard.and_then(CompletionGuard::release);
                // The handler stamps reply_ns and completes the span.
                reply.deliver(resp, out, span);
                next
            }
            WorkItem::StagedWrite { fd, part } => {
                // Coalescing: harvest the offset-contiguous prefix
                // parked behind this write on its lane and execute the
                // chain as one vectored backend call.
                let extra = if coalesce {
                    serializer.harvest_contiguous(
                        fd,
                        part.offset.map(|o| o + part.buf.len() as u64),
                        COALESCE_MAX_OPS - 1,
                        COALESCE_MAX_BYTES.saturating_sub(part.buf.len()),
                    )
                } else {
                    Vec::new()
                };
                if extra.is_empty() {
                    execute_staged(
                        &engine,
                        &telemetry,
                        fd,
                        part,
                        worker_id,
                        Disposition::Completed,
                    );
                } else {
                    let mut parts = Vec::with_capacity(extra.len() + 1);
                    parts.push(part);
                    parts.extend(extra);
                    execute_coalesced(&engine, &telemetry, fd, parts, worker_id);
                }
                guard.and_then(CompletionGuard::release)
            }
            WorkItem::Reclaim(fd) => {
                engine.close_orphan(fd);
                guard.and_then(CompletionGuard::release)
            }
        }
    };
    // Caller-owned batch buffer, reused across every scheduling pass so
    // the steady state allocates nothing per dequeue.
    let mut items: Vec<WorkItem> = Vec::new();
    loop {
        // The batch runs under one of the pool's execution slots.
        let Some(_slot) = queue.pop_batch_into(worker, WORKER_BATCH, &mut items) else {
            return; // queue closed and drained
        };
        // Utilization sampling: the gauge counts workers currently
        // executing a batch, and the per-worker busy-ns counter
        // accumulates the time between dequeue and batch completion —
        // idle fraction falls out against `uptime_ns` at snapshot time.
        let busy_from = telemetry.now_ns();
        if telemetry.enabled() {
            telemetry.workers_busy.add(1);
        }
        for item in items.drain(..) {
            // A synchronous op released from its lane by the item ahead
            // — a read or a barrier behind staged writes — runs right
            // here under this worker's slot, not via the queue.
            let mut next = run(item);
            while let Some(item) = next {
                if telemetry.enabled() {
                    telemetry.ops_in_place.inc();
                }
                next = run(item);
            }
        }
        if telemetry.enabled() {
            telemetry.workers_busy.add(-1);
            telemetry
                .worker_busy_ns
                .add(worker, telemetry.now_ns().saturating_sub(busy_from));
        }
    }
}
