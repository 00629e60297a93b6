//! The threaded transport's driver, and the worker pool.
//!
//! * [`serve_conn`] — one loop for every forwarding mode: receive a
//!   frame, hand it to the admission core (`server::admit`), and do what
//!   the returned [`Admission`] says. Staging memory is waited for in
//!   `recv`, where the transport charges a block for the payload before
//!   receiving it (§IV); the core never asks this thread to wait for it.
//!   The modes differ only in the core's policy: zoid
//!   runs everything on this thread (§II-B2); sched runs each op here
//!   under one of the pool's execution slots when one is free, and
//!   otherwise queues it and sleeps until a worker finishes it; staged
//!   acknowledges data writes as soon as they are in BML memory and
//!   pushes them to the pool after the ack (§IV), and any other op on a
//!   descriptor waits for its turn in the descriptor's lane (kept in its
//!   `DescDb` entry; asleep on its reply, like a queued op) before it is
//!   dispatched as in sched.
//!   A queued op's reply comes back on the connection's own completion
//!   sink, made once when the connection starts: the thread blocks on
//!   its receiver the way an event loop drains its own.
//! * [`handle_ciod`] — the CIOD architecture (§II-B1): the daemon-side
//!   thread copies each request into a "shared-memory region" (an honest
//!   extra copy) and hands it to a dedicated per-client *proxy*, which
//!   drives it like `serve_conn` does.
//! * [`worker_loop`] — the shared worker pool of the sched/staged modes.
//! * [`execute_staged`] — the one staged-write executor. A staged write
//!   is a batch of one; a worker that finds contiguous writes parked
//!   behind it on the descriptor's lane makes a batch of several, and
//!   either way the batch is one write of a list of buffers. A push after
//!   the queue closed and the shutdown drain run it too, a write at a
//!   time.

use std::sync::Arc;

use bytes::Bytes;
use iofwd_proto::{Fd, Frame};

use super::admit::{self, Accepted, Admission, AdmitCtx, Dispatched, Session};
use super::engine::{Engine, COALESCE_MAX_OPS};
use super::queue::{Completion, Route, StagedPart, WorkItem, WorkQueue};
use crate::descdb::{CompletionGuard, OpOutcome};
use crate::sync::{channel, Receiver};
use crate::telemetry::{Disposition, Telemetry};
use crate::transport::Conn;

/// A connection's session, on a completion sink of its own, and the
/// receiving end its thread waits on for a queued op's outcome.
fn session(ctx: &AdmitCtx) -> (Session, Receiver<Completion>) {
    let (route, rx) = Route::channel(None, ctx.engine.telemetry().clone());
    (Session::new(route), rx)
}

/// Carry one admission to its reply, blocking on the connection's sink
/// for a queued op's. Returns `false` once the connection should close.
fn drive(
    conn: &dyn Conn,
    ctx: &AdmitCtx,
    session: &mut Session,
    rx: &Receiver<Completion>,
    mut admission: Admission,
) -> bool {
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
            // A queued op is answered through this connection's sink —
            // exactly once, even if it is dropped unrun.
            Admission::Dispatch { lane, op } => {
                match admit::dispatch(ctx, &session.route, lane, op) {
                    Dispatched::Here(c) => admit::finish(ctx, session, c),
                    Dispatched::Queued => match rx.recv() {
                        Ok(c) => admit::finish(ctx, session, c),
                        Err(_) => return false,
                    },
                }
            }
        };
    }
}

/// Serve one client connection on the calling thread.
pub(crate) fn serve_conn(conn: Arc<dyn Conn>, ctx: Arc<AdmitCtx>) {
    let (mut session, rx) = session(&ctx);
    while let Ok(Some(frame)) = conn.recv() {
        let admission = admit::admit(&ctx, frame);
        if !drive(conn.as_ref(), &ctx, &mut session, &rx, admission) {
            break;
        }
    }
    session.reclaim(&ctx);
}

/// CIOD: the daemon thread copies into "shared memory", a per-client
/// proxy executes. The copy is real — it is CIOD's architectural cost.
pub(crate) fn handle_ciod(conn: Arc<dyn Conn>, ctx: Arc<AdmitCtx>) {
    let (shm_tx, shm_rx) = channel::<Accepted>();
    let proxy_conn = conn.clone();
    let proxy_ctx = ctx.clone();
    let proxy = std::thread::Builder::new()
        .name("ciod-proxy".into())
        .spawn(move || {
            // The I/O proxy process: executes forwarded calls and returns
            // results directly to the compute node.
            let telemetry = proxy_ctx.engine.telemetry().clone();
            let (mut session, rx) = session(&proxy_ctx);
            while let Ok(accepted) = shm_rx.recv() {
                let admission = match accepted {
                    Accepted::Op(mut op) => {
                        // Queue wait = time the op sat in the shm channel.
                        op.span.dispatch_ns = telemetry.now_ns();
                        admit::resume(&proxy_ctx, op)
                    }
                    Accepted::Answered(answered) => answered,
                };
                if !drive(
                    proxy_conn.as_ref(),
                    &proxy_ctx,
                    &mut session,
                    &rx,
                    admission,
                ) {
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

/// Execute staged writes on one descriptor — one, or the
/// offset-contiguous chain a worker harvested behind it — as one write of
/// their list of buffers, and fan the result back out per part: each
/// part's `finish_op` outcome (in the engine), its own `OpSpan`
/// (dispatch and backend stamps are shared, as the parts share the
/// backend interval) and its BML buffer, returned as `parts` is drained.
/// A short write credits full success to the parts it covered and
/// charges the error only to the parts it did not. `worker` is the
/// 1-based pool worker, 0 off the pool; `disposition` records why the
/// writes ran where they did (`Completed`, or `DrainExecuted` from the
/// shutdown drain). The `coalesced_*` counters count batches of two or
/// more.
pub(crate) fn execute_staged(
    engine: &Engine,
    telemetry: &Telemetry,
    fd: Fd,
    parts: &mut Vec<StagedPart>,
    worker: u32,
    disposition: Disposition,
) {
    let Some(first) = parts.first() else {
        return;
    };
    let base = first.offset;
    let dispatched = telemetry.now_ns();
    if parts.len() > 1 && telemetry.enabled() {
        telemetry.coalesced_batches.inc();
        telemetry.coalesced_ops.add(parts.len() as u64);
        telemetry
            .coalesced_bytes
            .add(parts.iter().map(|p| p.buf.len() as u64).sum());
        telemetry.coalesce_width.record(parts.len() as u64);
    }
    let written =
        engine.execute_coalesced_write(fd, base, parts.iter().map(|p| (p.op, p.buf.as_slice())));
    let done = telemetry.now_ns();
    let mut end = 0;
    for StagedPart { buf, mut span, .. } in parts.drain(..) {
        end += buf.len();
        let outcome = written.outcome(end);
        span.dispatch_ns = dispatched;
        span.backend_start_ns = dispatched;
        span.backend_done_ns = done;
        span.worker = worker;
        span.ok = matches!(outcome, OpOutcome::Ok);
        if let OpOutcome::Failed(errno) = outcome {
            span.errno = errno.to_wire();
        }
        span.disposition = disposition;
        drop(buf); // return staging memory before dispatching more
        telemetry.complete(&span);
    }
}

/// Tasks a worker dequeues per scheduling pass (the paper's per-thread
/// I/O multiplexing; §IV uses a poll-based event loop).
const WORKER_BATCH: usize = 4;

/// Coalescing budget: the most payload bytes a worker merges into one
/// backend write (with at most `COALESCE_MAX_OPS` writes, the lead write
/// included) when it finds offset-contiguous staged writes parked behind
/// the one it dequeued.
const COALESCE_MAX_BYTES: usize = 1 << 20;

/// Worker-pool loop: batch-dequeue ("I/O multiplexing per thread") and
/// execute. With `coalesce` on, a dequeued staged write additionally
/// harvests the offset-contiguous prefix parked behind it on its
/// descriptor's lane, and the whole chain is one write.
pub fn worker_loop(worker: usize, queue: Arc<WorkQueue>, engine: Arc<Engine>, coalesce: bool) {
    let telemetry = engine.telemetry().clone();
    let db = engine.descriptor_db();
    let worker_id = worker as u32 + 1;
    // The staged writes of one backend write, in a buffer reused across
    // every pass, like `items` below.
    let mut parts: Vec<StagedPart> = Vec::new();
    // Execute one item; hands back the synchronous op its lane released,
    // if any.
    let mut run = |item: WorkItem| -> Option<WorkItem> {
        // Drop-safe lane release: on every exit path — normal completion
        // or an unwind — the lane is completed and the successor
        // re-enqueued (or parked for the shutdown drain if the queue
        // closed).
        let guard = item.lane().map(|fd| db.completion_guard(fd, &queue));
        match item {
            WorkItem::Sync {
                req,
                data,
                mut reply,
                ..
            } => {
                reply.span.dispatch_ns = telemetry.now_ns();
                reply.span.worker = worker_id;
                let (resp, out) = engine.execute_timed(&req, &data, &mut reply.span);
                // The lane is released before the reply goes, so the
                // client's next op on the descriptor finds it free.
                let next = guard.and_then(CompletionGuard::release);
                // Whoever drains the sink stamps reply_ns and completes
                // the span.
                reply.deliver(resp, out);
                next
            }
            WorkItem::StagedWrite { fd, part } => {
                let chain_end = part.offset.map(|o| o + part.buf.len() as u64);
                let room = COALESCE_MAX_BYTES.saturating_sub(part.buf.len());
                parts.push(part);
                if coalesce {
                    db.harvest_contiguous(fd, chain_end, COALESCE_MAX_OPS - 1, room, &mut parts);
                }
                execute_staged(
                    &engine,
                    &telemetry,
                    fd,
                    &mut parts,
                    worker_id,
                    Disposition::Completed,
                );
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
