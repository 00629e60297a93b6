//! The admission core: the paper's §IV pipeline — classify (data op vs
//! metadata op), record the op on its descriptor, enqueue, acknowledge —
//! written once for both transports. Staging memory is not charged here:
//! the transport received the payload into a BML block, charged before
//! its first byte, and a write is staged if and only if its payload is in
//! one.
//!
//! [`admit`] ([`accept`], then [`resume`]) owns every protocol and
//! descriptor-database decision and **never blocks, never waits and
//! never touches a socket**. It returns an [`Admission`] that tells the
//! transport driver what to do next; the threaded driver
//! (`handlers::serve_conn`) obeys in place, the reactor by pushing the op
//! to the worker pool. Neither is named here: a queued op is answered
//! through its connection's completion sink ([`Route`]), one reply route
//! for both drivers — a handler blocks on its sink's receiver, an event
//! loop drains its own when woken — and a reply dropped unanswered still
//! arrives, as `EIO`, and closes the connection.
//!
//! [`dispatch`] (on a thread that may block) and [`enqueue`] (on an
//! event loop) carry out an [`Admission::Dispatch`]. In staged mode an op
//! on a descriptor first joins the descriptor's lane, in frame order,
//! behind its staged writes: a barrier is a place in the lane, and an op
//! waiting there is released by the completion of the item ahead, so no
//! thread ever waits for one. The lane is kept in the descriptor's
//! `DescDb` entry, under the table's one lock, so an op admitted after a
//! close of its descriptor is answered `EBADF` at once. An op free to go
//! is run by [`dispatch`] right there under a free execution slot of the
//! work queue, or pushed to the pool; it crosses threads only when that
//! buys something — every slot busy, or its client already has work
//! waiting in the pool.
//!
//! Three orderings are fixed here and nowhere else (DESIGN.md §15):
//!
//! * **Capacity, then `begin_op`.** A staged write's block was charged
//!   before it is recorded on its descriptor or joins its lane, so a
//!   client waiting for staging memory never leaves an op open.
//! * **A closed queue closes the connection.** A claim fails once the
//!   queue is closed, and a `Sync` push that loses the race with
//!   shutdown is answered `EAGAIN` through its normal reply route;
//!   [`finish`] turns that outcome into [`Admission::Close`].
//! * **Ack, then push.** The staging transaction ends at the ack: a
//!   staged write is recorded on its descriptor and its lane before the
//!   ack, and the driver pushes it ([`push`]) after writing the ack and
//!   before admitting the connection's next frame.

use std::collections::HashSet;
use std::sync::Arc;

use bytes::Bytes;
use iofwd_proto::{
    Errno, Fd, Frame, Request, Response, StageEcho, StatsQuery, TraceContext, TraceExt,
};

use super::engine::{op_kind, response_errno, Engine};
use super::handlers::execute_staged;
use super::queue::{
    Completion, ReplyTo, Route, SessionEffect, StagedPart, Ticket, WorkItem, WorkQueue,
};
use crate::bml::{Bml, BmlBuffer};
use crate::descdb::OpOutcome;
use crate::telemetry::{ring, Disposition, OpSpan, Telemetry};

/// Which of the paper's architectures admission implements.
pub(crate) enum Policy {
    /// ciod/zoid: the connection's own thread executes everything.
    Inline,
    /// sched: every op is dispatched under the pool's execution slots.
    Sched { queue: Arc<WorkQueue> },
    /// async-staged: data writes are staged and acknowledged at once;
    /// every other op is dispatched as in sched, an op on a descriptor
    /// only once its turn in the descriptor's lane comes.
    Staged { queue: Arc<WorkQueue>, bml: Bml },
}

/// Daemon-wide admission state, shared by every connection.
pub(crate) struct AdmitCtx {
    pub(crate) engine: Arc<Engine>,
    pub(crate) policy: Policy,
}

impl AdmitCtx {
    fn telemetry(&self) -> &Telemetry {
        self.engine.telemetry()
    }

    pub(crate) fn queue(&self) -> Option<&Arc<WorkQueue>> {
        match &self.policy {
            Policy::Inline => None,
            Policy::Sched { queue } | Policy::Staged { queue, .. } => Some(queue),
        }
    }
}

/// Wrap an op as a `Sync` work item holding `lane`, answered over
/// `route`.
fn sync_item(route: &Route, op: Op, lane: Option<Fd>) -> WorkItem {
    WorkItem::Sync {
        req: op.req,
        data: op.data,
        reply: ReplyTo::new(route.clone(), op.ticket, op.span),
        lane,
    }
}

/// Per-connection admission state: the reply route, and the descriptors
/// the client holds, so a vanished client's descriptors can be
/// reclaimed (a compute node that dies mid-job must not leak ION
/// resources).
pub(crate) struct Session {
    fds: HashSet<Fd>,
    pub(crate) route: Route,
}

impl Session {
    pub(crate) fn new(route: Route) -> Session {
        Session {
            fds: HashSet::new(),
            route,
        }
    }

    fn settle(&mut self, effect: SessionEffect, resp: &Response) {
        match effect {
            SessionEffect::None => {}
            SessionEffect::Opens => {
                if let Response::Ok { ret } = resp {
                    self.fds.insert(Fd(*ret as u32));
                }
            }
            SessionEffect::Closes(fd) => {
                if matches!(resp, Response::Ok { .. } | Response::DeferredErr { .. }) {
                    self.fds.remove(&fd);
                }
            }
        }
    }

    /// Close everything the departed client left open. Never blocks: in
    /// staged mode a descriptor with ops still in its lane is closed by a
    /// lane item behind them, so none of its staged writes is lost.
    pub(crate) fn reclaim(self, ctx: &AdmitCtx) {
        let staged = matches!(ctx.policy, Policy::Staged { .. });
        for fd in self.fds {
            if !staged || ctx.engine.descriptor_db().join_reclaim(fd) {
                ctx.engine.close_orphan(fd);
            }
        }
    }
}

/// How the data path treats a request: a data write may be staged; any
/// other op is synchronous, and one on a descriptor is ordered behind
/// that descriptor's staged writes.
#[derive(Clone, Copy)]
enum Shape {
    Write {
        fd: Fd,
        /// `Some` for pwrite, `None` for a cursor write.
        offset: Option<u64>,
        len: u64,
    },
    /// read, pread, fsync, close, lseek, fstat, ftruncate.
    OnFd(Fd),
    /// open, connect, stat, unlink, mkdir, readdir.
    Path,
}

enum Class {
    Stats(StatsQuery),
    Shutdown,
    Op(Shape, SessionEffect),
}

/// The one dispatch over the wire enum on the admission path.
fn classify(req: &Request) -> Class {
    match req {
        Request::Stats { query } => Class::Stats(*query),
        Request::Shutdown => Class::Shutdown,
        Request::Write { fd, len } => Class::Op(
            Shape::Write {
                fd: *fd,
                offset: None,
                len: *len,
            },
            SessionEffect::None,
        ),
        Request::Pwrite { fd, offset, len } => Class::Op(
            Shape::Write {
                fd: *fd,
                offset: Some(*offset),
                len: *len,
            },
            SessionEffect::None,
        ),
        Request::Close { fd } => Class::Op(Shape::OnFd(*fd), SessionEffect::Closes(*fd)),
        Request::Read { fd, .. }
        | Request::Pread { fd, .. }
        | Request::Lseek { fd, .. }
        | Request::Fsync { fd }
        | Request::Fstat { fd }
        | Request::Ftruncate { fd, .. } => Class::Op(Shape::OnFd(*fd), SessionEffect::None),
        Request::Open { .. } | Request::Connect { .. } => {
            Class::Op(Shape::Path, SessionEffect::Opens)
        }
        Request::Stat { .. }
        | Request::Unlink { .. }
        | Request::Mkdir { .. }
        | Request::Readdir { .. } => Class::Op(Shape::Path, SessionEffect::None),
    }
}

/// A decoded request with its lifecycle span begun, not yet executed.
pub(crate) struct Op {
    pub(crate) ticket: Ticket,
    pub(crate) req: Request,
    pub(crate) data: Bytes,
    pub(crate) span: OpSpan,
    shape: Shape,
}

/// What the driver must do next with a frame it handed to the core.
pub(crate) enum Admission {
    /// Send `frame`. If it answers an op, the op's span is folded. If it
    /// acks a staged write that heads its descriptor's lane, then hand
    /// `staged` to [`push`]: ack, then push.
    Reply {
        frame: Frame,
        staged: Option<WorkItem>,
    },
    /// Send this frame, then drop the connection.
    Close { after: Frame },
    /// A synchronous op — every op but a staged write — that joins
    /// `lane` (staged mode, an op on a descriptor) first: on a thread
    /// that may block, [`dispatch`] it; an event loop, which must not
    /// execute it, [`enqueue`]s it. The outcome goes to [`finish`].
    Dispatch { lane: Option<Fd>, op: Op },
}

impl Admission {
    fn reply(frame: Frame) -> Admission {
        Admission::Reply {
            frame,
            staged: None,
        }
    }
}

/// Server-side stage breakdown echoed back to a traced client. Built
/// from the same span `Telemetry::complete` folds into the histograms,
/// so a client summing echoes reproduces the daemon's own numbers.
fn stage_echo_of(span: &OpSpan) -> StageEcho {
    StageEcho {
        trace_id: span.trace_id,
        flags: if span.sampled {
            TraceContext::SAMPLED
        } else {
            0
        },
        queue_ns: span.queue_wait_ns(),
        dispatch_ns: span.dispatch_lag_ns(),
        backend_ns: span.service_ns(),
        // A staged ack goes out before the backend runs
        // (backend_done_ns == 0); its reply lag is not yet measurable.
        reply_ns: if span.backend_done_ns == 0 {
            0
        } else {
            span.reply_lag_ns()
        },
        total_ns: span.total_ns(),
    }
}

fn reply_frame(
    telemetry: &Telemetry,
    ticket: &Ticket,
    resp: &Response,
    data: Bytes,
    span: &OpSpan,
) -> Frame {
    let mut frame = Frame::response(ticket.client_id, ticket.seq, resp, data);
    if span.trace_id != 0 {
        frame = frame.with_ext(TraceExt::Echo(stage_echo_of(span)));
    }
    outbound(telemetry, frame)
}

/// Count a frame the core built for a driver to send — every frame the
/// daemon sends, on either transport, is built here — into the
/// registry's outbound totals and its client's row. The inbound half is
/// [`accept`]'s. Payload bytes only, so a write ack counts no bytes.
fn outbound(telemetry: &Telemetry, frame: Frame) -> Frame {
    if telemetry.enabled() {
        let bytes = frame.data.len() as u64;
        telemetry.frames_out.inc();
        telemetry.transport_bytes_out.add(bytes);
        if let Some(row) = telemetry.client_stats(u64::from(frame.client_id)) {
            row.bytes_out.add(bytes);
        }
    }
    frame
}

/// A decoded frame: an op to route, or control traffic already answered
/// (`Reply` or `Close`).
pub(crate) enum Accepted {
    Op(Op),
    Answered(Admission),
}

/// Decode a frame and begin its op. Every frame the daemon receives, on
/// either transport, passes through here once, and is counted here.
/// Control traffic is answered here, before any span, queue, or engine
/// involvement: a malformed request is rejected, `Shutdown` is
/// acknowledged, and a stats query is answered with the registry's JSON
/// snapshot or the flight recorder's spans, its length in
/// `Response::Ok::ret`. That answer is memory reads under no lock a
/// blocking data-path operation holds — never the BML or the descriptor
/// database, and of the work queue only a look at its front — made
/// before any credit check: it comes back while a stalled backend
/// wedges the data path, the moment introspection is for, to a client
/// over its queue credit (the reactor checks that after `accept`), and,
/// needing no BML block, on a fresh connection while every data
/// connection waits for staging memory.
pub(crate) fn accept(ctx: &AdmitCtx, frame: Frame) -> Accepted {
    let telemetry = ctx.telemetry();
    if telemetry.enabled() {
        let bytes = frame.data.len() as u64;
        telemetry.frames_in.inc();
        telemetry.transport_bytes_in.add(bytes);
        if let Some(row) = telemetry.client_stats(u64::from(frame.client_id)) {
            row.bytes_in.add(bytes);
        }
    }
    let control = |resp: Response, data: Bytes| {
        outbound(
            telemetry,
            Frame::response(frame.client_id, frame.seq, &resp, data),
        )
    };
    let Ok(req) = frame.decode_request() else {
        return Accepted::Answered(Admission::reply(control(
            Response::Err {
                errno: Errno::Inval,
            },
            Bytes::new(),
        )));
    };
    let (shape, effect) = match classify(&req) {
        Class::Stats(query) => {
            let data = Bytes::from(match query {
                StatsQuery::Snapshot => {
                    // Head-of-line age: the one gauge only admission sees.
                    let front = ctx.queue().and_then(|q| q.oldest_enqueue_ns());
                    let age = front.map_or(0, |t| telemetry.now_ns().saturating_sub(t));
                    let mut snap = telemetry.snapshot();
                    snap.push_derived("queue_head_age_ns", age);
                    snap.to_json().into_bytes()
                }
                StatsQuery::Spans { after } => ring::encode_spans(&telemetry.flight.since(after)),
            });
            let ret = data.len() as i64;
            return Accepted::Answered(Admission::reply(control(Response::Ok { ret }, data)));
        }
        Class::Shutdown => {
            return Accepted::Answered(Admission::Close {
                after: control(Response::Ok { ret: 0 }, Bytes::new()),
            });
        }
        Class::Op(shape, effect) => (shape, effect),
    };
    let mut span = OpSpan::begin(
        op_kind(&req),
        u64::from(frame.client_id),
        frame.seq,
        ctx.telemetry().now_ns(),
    );
    span.bytes = frame.data.len() as u64;
    // Adopt the client's trace context so the id survives queueing,
    // staging, and the worker pool.
    if let Some(trace) = frame.trace_ctx() {
        span.trace_id = trace.trace_id;
        span.sampled = trace.is_sampled();
    }
    Accepted::Op(Op {
        ticket: Ticket {
            client_id: frame.client_id,
            seq: frame.seq,
            effect,
        },
        req,
        data: frame.data,
        span,
        shape,
    })
}

/// Admit one frame: [`accept`] it, then route it per the policy.
pub(crate) fn admit(ctx: &AdmitCtx, frame: Frame) -> Admission {
    match accept(ctx, frame) {
        Accepted::Op(op) => resume(ctx, op),
        Accepted::Answered(answered) => answered,
    }
}

/// Route an accepted op: the policy decision and — for a write whose
/// payload was received into a BML block — the whole staging
/// transaction.
pub(crate) fn resume(ctx: &AdmitCtx, mut op: Op) -> Admission {
    let Policy::Staged { bml, .. } = &ctx.policy else {
        return Admission::Dispatch { lane: None, op };
    };
    // Every op on a descriptor but a staged write — a read, a barrier, an
    // unstaged write — takes its turn in the descriptor's lane, so it
    // never overtakes a staged write.
    match op.shape {
        Shape::Write { len, .. } if len != op.data.len() as u64 => {
            let resp = Response::Err {
                errno: Errno::Inval,
            };
            fail_inline(ctx, op, resp)
        }
        // Staged in the block it was received into, on the charge it has
        // held since before its first byte.
        Shape::Write { fd, offset, .. } => {
            match BmlBuffer::from_payload(std::mem::take(&mut op.data)) {
                Ok(buf) => stage_write(ctx, fd, offset, op, buf),
                // The pool closed under it: the daemon is shutting down.
                Err(_) if bml.is_closed() => {
                    let resp = Response::Err {
                        errno: Errno::NoMem,
                    };
                    fail_inline(ctx, op, resp)
                }
                // Left on the heap — empty, or its class is larger than
                // the pool: written synchronously.
                Err(data) => {
                    op.data = data;
                    Admission::Dispatch { lane: Some(fd), op }
                }
            }
        }
        Shape::OnFd(fd) => Admission::Dispatch { lane: Some(fd), op },
        Shape::Path => Admission::Dispatch { lane: None, op },
    }
}

/// Where [`dispatch`] left an op.
pub(crate) enum Dispatched {
    /// It ran on the calling thread; its outcome, addressed to the route.
    Here(Completion),
    /// It waits in its lane or on the work queue; the outcome comes back
    /// through the route's sink.
    Queued,
}

/// Carry out an [`Admission::Dispatch`] on a thread that may block. Once
/// the op may go — it has no lane, or heads it — run it right here
/// under one of the pool's execution slots if the queue is open, the
/// client has nothing waiting in the pool and a slot is free
/// ([`WorkQueue::try_claim`]), and push it otherwise; with no pool
/// (ciod/zoid) the connection's own thread runs everything. Either way
/// at most `workers` ops execute at once (§IV's bound), and an op
/// crosses threads only when that buys something.
pub(crate) fn dispatch(ctx: &AdmitCtx, route: &Route, lane: Option<Fd>, op: Op) -> Dispatched {
    let Some(mut op) = join_lane(ctx, route, lane, op) else {
        return Dispatched::Queued;
    };
    let slot = match ctx.queue() {
        None => None,
        Some(queue) => match queue.try_claim(op.span.client) {
            None => {
                push(ctx, sync_item(route, op, lane));
                return Dispatched::Queued;
            }
            slot => slot,
        },
    };
    // Off the pool: the span keeps worker 0, and unless ciod's shm hop
    // stamped it, dispatch is the moment execution starts.
    let telemetry = ctx.telemetry();
    if op.span.dispatch_ns == 0 {
        op.span.dispatch_ns = telemetry.now_ns();
    }
    let (resp, data) = ctx.engine.execute_timed(&op.req, &op.data, &mut op.span);
    if let Some(slot) = slot {
        drop(slot);
        if telemetry.enabled() {
            telemetry.ops_in_place.inc();
        }
    }
    if let Some(next) = lane.and_then(|fd| ctx.engine.descriptor_db().complete(fd)) {
        push(ctx, next);
    }
    Dispatched::Here(Completion {
        token: route.token,
        gen: route.gen,
        ticket: op.ticket,
        resp,
        data,
        span: op.span,
    })
}

/// Carry out an [`Admission::Dispatch`] on an event loop, which must not
/// execute it: join the op's lane, and push it to the pool once it may
/// go. Its outcome comes back through the route's sink.
pub(crate) fn enqueue(ctx: &AdmitCtx, route: &Route, lane: Option<Fd>, op: Op) {
    if let Some(op) = join_lane(ctx, route, lane, op) {
        push(ctx, sync_item(route, op, lane));
    }
}

/// Stamp the op enqueued (unless ciod's shm hop did) and, in staged
/// mode, put an op on a descriptor in the descriptor's lane, so time
/// spent behind its staged writes is queue wait. The op comes back when
/// it may go now — it heads its lane, or has none; otherwise it waits in
/// the lane, answered over the route, for the item ahead to release it,
/// or, admitted after a close of its descriptor, is answered `EBADF`
/// over the route at once.
fn join_lane(ctx: &AdmitCtx, route: &Route, lane: Option<Fd>, mut op: Op) -> Option<Op> {
    if op.span.enqueue_ns == 0 {
        op.span.enqueue_ns = ctx.telemetry().now_ns();
    }
    let (Some(fd), Policy::Staged { .. }) = (lane, &ctx.policy) else {
        return Some(op);
    };
    let closes = matches!(op.ticket.effect, SessionEffect::Closes(_));
    let db = ctx.engine.descriptor_db();
    match db.join(fd, op, closes, |op| sync_item(route, op, lane)) {
        Ok(go) => go,
        Err(op) => {
            reject(
                sync_item(route, op, None),
                Errno::BadF,
                Disposition::Completed,
            );
            None
        }
    }
}

/// Hand an item to the pool: a synchronous op, or the head of a lane
/// (after its ack, for a staged write). If the queue has closed, the
/// pool will never run it, so it is [`settle`]d here, and so is every
/// successor its lane then releases.
pub(crate) fn push(ctx: &AdmitCtx, item: WorkItem) {
    let mut next = match ctx.queue() {
        Some(queue) => queue.push(item).err().map(|closed| *closed.0),
        None => Some(item),
    };
    while let Some(item) = next {
        let lane = item.lane();
        settle(ctx, item, Disposition::Completed);
        next = lane.and_then(|fd| ctx.engine.descriptor_db().complete(fd));
    }
}

/// Settle an item the pool will never run — pushed after the queue
/// closed, or left to the shutdown drain. A synchronous op is answered
/// `EAGAIN` through its own reply route (both drivers see an ordinary
/// outcome, and [`finish`] closes the connection behind the reply), a
/// reclaim closes its descriptor, and a staged write runs here, as
/// `staged`, to keep its `Staged` ack truthful — or, `DrainDeferred`
/// (the drain is out of time), fails with a deferred `EIO` that its
/// client hears on its next op or close.
pub(crate) fn settle(ctx: &AdmitCtx, item: WorkItem, staged: Disposition) {
    let (engine, telemetry) = (&ctx.engine, ctx.telemetry());
    match item {
        WorkItem::Sync { .. } => reject(item, Errno::Again, Disposition::QueueRejected),
        WorkItem::StagedWrite { fd, part } if staged == Disposition::DrainDeferred => {
            let failed = OpOutcome::Failed(Errno::Io);
            engine.descriptor_db().finish_op(fd, part.op, failed);
            let mut span = part.span;
            drop(part.buf);
            span.ok = false;
            span.errno = Errno::Io.to_wire();
            span.disposition = staged;
            telemetry.complete(&span);
        }
        WorkItem::StagedWrite { fd, part } => {
            execute_staged(engine, telemetry, fd, &mut vec![part], 0, staged)
        }
        WorkItem::Reclaim(fd) => engine.close_orphan(fd),
    }
}

/// Answer a `Sync` item that will never execute.
fn reject(item: WorkItem, errno: Errno, disposition: Disposition) {
    if let WorkItem::Sync { mut reply, .. } = item {
        reply.span.ok = false;
        reply.span.errno = errno.to_wire();
        reply.span.disposition = disposition;
        reply.span.dispatch_ns = reply.span.enqueue_ns;
        reply.deliver(Response::Err { errno }, Bytes::new());
    }
}

/// The staging transaction, with `buf` already charged to the BML:
/// record the op on its descriptor and hand it to the descriptor's lane
/// in one step ([`DescDb::stage`](crate::descdb::DescDb::stage)), and
/// build the ack — carrying the write itself if it heads the lane, for
/// the driver to [`push`] once the ack is out.
fn stage_write(
    ctx: &AdmitCtx,
    fd: Fd,
    offset: Option<u64>,
    mut op: Op,
    buf: BmlBuffer,
) -> Admission {
    let engine = &ctx.engine;
    let telemetry = ctx.telemetry();
    // The ack is the client-visible reply; stamp it now (OpSpan is
    // Copy — the worker's copy keeps these stamps, adds the backend
    // ones, and completes the span after the write).
    op.span.enqueue_ns = telemetry.now_ns();
    op.span.reply_ns = op.span.enqueue_ns;
    let span = op.span;
    let (staged, head) = match engine.descriptor_db().stage(fd, |staged| StagedPart {
        op: staged,
        offset,
        buf,
        span,
    }) {
        Ok(staged) => staged,
        Err(refused) => {
            let resp = engine.begin_error_response(refused);
            return fail_inline(ctx, op, resp);
        }
    };
    if telemetry.enabled() {
        telemetry.ops_staged.inc();
    }
    let ack = reply_frame(
        telemetry,
        &op.ticket,
        &Response::Staged { op: staged },
        Bytes::new(),
        &op.span,
    );
    Admission::Reply {
        frame: ack,
        staged: head,
    }
}

/// Fail an op at admission: nothing ran, the span folds here.
fn fail_inline(ctx: &AdmitCtx, mut op: Op, resp: Response) -> Admission {
    let telemetry = ctx.telemetry();
    let now = telemetry.now_ns();
    op.span.enqueue_ns = now;
    op.span.dispatch_ns = now;
    op.span.ok = false;
    op.span.errno = response_errno(&resp);
    op.span.reply_ns = now;
    let frame = reply_frame(telemetry, &op.ticket, &resp, Bytes::new(), &op.span);
    telemetry.complete(&op.span);
    Admission::reply(frame)
}

/// Turn a finished op into its wire reply: apply the session effect,
/// stamp the reply, echo the stage breakdown to traced clients, and
/// fold the span — before the frame is returned, so once a client has
/// seen its response a stats snapshot already accounts for the op.
pub(crate) fn finish(ctx: &AdmitCtx, session: &mut Session, c: Completion) -> Admission {
    let telemetry = ctx.telemetry();
    let mut span = c.span;
    session.settle(c.ticket.effect, &c.resp);
    span.reply_ns = telemetry.now_ns();
    let frame = reply_frame(telemetry, &c.ticket, &c.resp, c.data, &span);
    telemetry.complete(&span);
    if span.disposition == Disposition::QueueRejected {
        Admission::Close { after: frame }
    } else {
        Admission::reply(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemSinkBackend;
    use crate::sync::Receiver;
    use iofwd_proto::{OpenFlags, StatsQuery, Storage, Whence};

    const BML_BYTES: u64 = 8192;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Mode {
        Inline,
        Sched,
        Staged,
    }

    /// A context over `MemSinkBackend` and a live registry, with no
    /// worker pool: queued items stay in the queue for the test to
    /// inspect.
    fn ctx(mode: Mode) -> AdmitCtx {
        let bml = (mode == Mode::Staged).then(|| Bml::new(BML_BYTES));
        let engine = Arc::new(Engine::with_telemetry(
            Arc::new(MemSinkBackend::new()),
            bml.clone(),
            Arc::new(Telemetry::new()),
        ));
        let queue = Arc::new(WorkQueue::new(1));
        let policy = match (mode, bml) {
            (Mode::Inline, _) => Policy::Inline,
            (Mode::Staged, Some(bml)) => Policy::Staged { queue, bml },
            _ => Policy::Sched { queue },
        };
        AdmitCtx { engine, policy }
    }

    fn open(ctx: &AdmitCtx, path: &str) -> Fd {
        let req = Request::Open {
            path: path.into(),
            flags: OpenFlags::RDWR | OpenFlags::CREATE,
            mode: 0o644,
        };
        match ctx.engine.execute(&req, &Bytes::new()).0 {
            Response::Ok { ret } => Fd(ret as u32),
            other => panic!("open failed: {other:?}"),
        }
    }

    fn frame(seq: u64, req: &Request) -> Frame {
        let data = Bytes::from(vec![7u8; req.expected_payload() as usize]);
        Frame::request(3, seq, req, data)
    }

    /// `frame` as a daemon transport hands it over: its payload copied
    /// into a block of the context's pool, where it has one to give.
    fn received(ctx: &AdmitCtx, mut frame: Frame) -> Frame {
        let pool = ctx.engine.bml().filter(|_| !frame.data.is_empty());
        if let Some(Storage::Block(mut block)) =
            pool.map(|bml| bml.receive_storage(frame.data.len(), false))
        {
            block.as_mut_slice().copy_from_slice(&frame.data);
            frame.data = block.freeze();
        }
        frame
    }

    fn response_of(frame: &Frame) -> Response {
        frame.decode_response().expect("well-formed reply")
    }

    fn kind(admission: &Admission) -> &'static str {
        match admission {
            Admission::Reply { .. } => "Reply",
            Admission::Close { .. } => "Close",
            Admission::Dispatch { lane: None, .. } => "Dispatch",
            Admission::Dispatch { lane: Some(_), .. } => "Lane+Dispatch",
        }
    }

    /// One request per wire variant; `ordinal` is exhaustive, so a new
    /// variant fails to compile here until the table below covers it.
    fn every_request(fd: Fd) -> Vec<Request> {
        vec![
            Request::Open {
                path: "/new".into(),
                flags: OpenFlags::RDWR | OpenFlags::CREATE,
                mode: 0o644,
            },
            Request::Connect {
                host: "da0".into(),
                port: 9,
            },
            Request::Close { fd },
            Request::Write { fd, len: 64 },
            Request::Pwrite {
                fd,
                offset: 8,
                len: 64,
            },
            Request::Read { fd, len: 8 },
            Request::Pread {
                fd,
                offset: 0,
                len: 8,
            },
            Request::Lseek {
                fd,
                offset: 0,
                whence: Whence::Set,
            },
            Request::Fsync { fd },
            Request::Stat { path: "/t".into() },
            Request::Fstat { fd },
            Request::Unlink { path: "/t".into() },
            Request::Ftruncate { fd, len: 0 },
            Request::Mkdir {
                path: "/d".into(),
                mode: 0o755,
            },
            Request::Readdir { path: "/".into() },
            Request::Shutdown,
            Request::Stats {
                query: StatsQuery::Snapshot,
            },
        ]
    }

    fn ordinal(req: &Request) -> usize {
        match req {
            Request::Open { .. } => 0,
            Request::Connect { .. } => 1,
            Request::Close { .. } => 2,
            Request::Write { .. } => 3,
            Request::Pwrite { .. } => 4,
            Request::Read { .. } => 5,
            Request::Pread { .. } => 6,
            Request::Lseek { .. } => 7,
            Request::Fsync { .. } => 8,
            Request::Stat { .. } => 9,
            Request::Fstat { .. } => 10,
            Request::Unlink { .. } => 11,
            Request::Ftruncate { .. } => 12,
            Request::Mkdir { .. } => 13,
            Request::Readdir { .. } => 14,
            Request::Shutdown => 15,
            Request::Stats { .. } => 16,
        }
    }

    #[test]
    fn every_request_variant_maps_to_its_admission_per_mode() {
        for mode in [Mode::Inline, Mode::Sched, Mode::Staged] {
            let ctx = ctx(mode);
            let fd = open(&ctx, "/t");
            let requests = every_request(fd);
            let covered: Vec<usize> = requests.iter().map(ordinal).collect();
            assert_eq!(covered, (0..17).collect::<Vec<_>>());
            for (seq, req) in requests.iter().enumerate() {
                let expect = match (req, mode) {
                    (Request::Stats { .. }, _) => "Reply",
                    (Request::Shutdown, _) => "Close",
                    (_, Mode::Inline | Mode::Sched) => "Dispatch",
                    // Staged mode: data writes are acknowledged from
                    // admission, every other op on a descriptor takes its
                    // turn in the descriptor's lane, path-addressed
                    // metadata is dispatched as in sched.
                    (Request::Write { .. } | Request::Pwrite { .. }, Mode::Staged) => "Reply",
                    (
                        Request::Open { .. }
                        | Request::Connect { .. }
                        | Request::Stat { .. }
                        | Request::Unlink { .. }
                        | Request::Mkdir { .. }
                        | Request::Readdir { .. },
                        Mode::Staged,
                    ) => "Dispatch",
                    (_, Mode::Staged) => "Lane+Dispatch",
                };
                let got = admit(&ctx, received(&ctx, frame(seq as u64, req)));
                assert_eq!(kind(&got), expect, "{mode:?}: {req:?}");
                if let Admission::Reply { frame, staged } = &got {
                    let staged_ack = matches!(response_of(frame), Response::Staged { .. });
                    // The first write heads its descriptor's lane and
                    // rides the ack out for the driver to push; the
                    // second waits in the lane behind it.
                    let (acked, heads) = match req {
                        Request::Write { .. } => (true, true),
                        Request::Pwrite { .. } => (true, false),
                        _ => (false, false),
                    };
                    assert_eq!((staged_ack, staged.is_some()), (acked, heads), "{req:?}");
                }
            }
        }
    }

    #[test]
    fn staged_mode_runs_writes_past_the_largest_bml_class_synchronously() {
        let ctx = ctx(Mode::Staged);
        let fd = open(&ctx, "/big");
        let req = Request::Write {
            fd,
            len: 2 * BML_BYTES,
        };
        let got = admit(&ctx, received(&ctx, frame(1, &req)));
        assert_eq!(kind(&got), "Lane+Dispatch");
        assert_eq!(ctx.engine.bml().unwrap().outstanding(), 0);
    }

    #[test]
    fn malformed_and_mismatched_requests_are_rejected_inline() {
        let ctx = ctx(Mode::Staged);
        let fd = open(&ctx, "/m");
        let mut garbage = frame(1, &Request::Fsync { fd });
        garbage.meta = Bytes::from_static(&[0xff, 0xff, 0xff]);
        let Admission::Reply { frame: reply, .. } = admit(&ctx, garbage) else {
            panic!("undecodable request must be answered inline");
        };
        assert_eq!(
            response_of(&reply),
            Response::Err {
                errno: Errno::Inval
            }
        );
        // Declared length disagrees with the payload: no op is begun,
        // no staging memory is charged.
        let mut short = frame(2, &Request::Write { fd, len: 64 });
        short.data = Bytes::from_static(b"short");
        let Admission::Reply { frame: reply, .. } = admit(&ctx, short) else {
            panic!("length mismatch must be answered inline");
        };
        assert_eq!(
            response_of(&reply),
            Response::Err {
                errno: Errno::Inval
            }
        );
        // A retired stats query byte (1 was `Rates`, 2 `Prometheus`) is
        // a malformed request like any other: no span, no op counted.
        let telemetry = ctx.telemetry();
        let ops_before = telemetry.ops_completed.get();
        let mut retired = frame(3, &Request::Shutdown);
        retired.meta = Bytes::from_static(&[17, 1]);
        let Accepted::Answered(Admission::Reply { frame: reply, .. }) = accept(&ctx, retired)
        else {
            panic!("a retired stats query must be answered inline");
        };
        assert_eq!(
            response_of(&reply),
            Response::Err {
                errno: Errno::Inval
            }
        );
        assert_eq!(
            ctx.engine.descriptor_db().status(fd).unwrap().in_progress,
            0
        );
        assert_eq!(ctx.engine.bml().unwrap().outstanding(), 0);
        assert_eq!(telemetry.frames_in.get(), 3);
        assert_eq!(telemetry.ops_completed.get(), ops_before);
        assert_eq!(telemetry.inflight_ops.get(), 0);
    }

    fn dispatched(admission: Admission) -> (Option<Fd>, Op) {
        match admission {
            Admission::Dispatch { lane, op } => (lane, op),
            other => panic!("expected a dispatch, got {}", kind(&other)),
        }
    }

    /// A route on a fresh sink, addressed `(4, 2)`, and its receiver.
    fn route() -> (Route, Receiver<Completion>) {
        let (mut route, rx) = Route::channel(None, Arc::new(Telemetry::disabled()));
        (route.token, route.gen) = (4, 2);
        (route, rx)
    }

    /// A staged context, a descriptor open on it, a session on a fresh
    /// route and that route's receiver, and a pread of the descriptor.
    fn staged_session() -> (AdmitCtx, Fd, Session, Receiver<Completion>, Request) {
        let ctx = ctx(Mode::Staged);
        let fd = open(&ctx, "/q");
        let (route, rx) = route();
        let pread = Request::Pread {
            fd,
            offset: 0,
            len: 8,
        };
        (ctx, fd, Session::new(route), rx, pread)
    }

    /// What a closed queue makes of op `seq` once it is handed over: an
    /// EAGAIN posted to the connection's sink at its address, which
    /// `finish` turns into a `Close`, and the op's lane given back.
    fn assert_closed_queue_rejected(
        ctx: &AdmitCtx,
        session: &mut Session,
        rx: &Receiver<Completion>,
        fd: Fd,
        seq: u64,
    ) {
        let c = rx.try_recv().expect("rejection is posted to the sink");
        assert_eq!((c.token, c.gen, c.ticket.seq), (4, 2, seq));
        let Admission::Close { after } = finish(ctx, session, c) else {
            panic!("a queue-rejected op must close the connection");
        };
        assert_eq!(
            response_of(&after),
            Response::Err {
                errno: Errno::Again
            }
        );
        assert_eq!(ctx.queue().unwrap().depth(), 0);
        let db = ctx.engine.descriptor_db();
        assert!(db.join_reclaim(fd), "the lane was given back");
        assert!(db.complete(fd).is_none());
    }

    /// Ordering (a), on a thread that may block: while the queue is open
    /// and a slot is free, `dispatch` runs an op on the calling thread —
    /// worker 0, nothing enqueued; once the queue is closed the claim
    /// fails, and the push that follows is answered EAGAIN through the
    /// connection's sink and closes the connection.
    #[test]
    fn closed_queue_answers_eagain_and_closes_the_connection() {
        let (ctx, fd, mut session, rx, pread) = staged_session();
        let queue = ctx.queue().unwrap();
        let (lane, op) = dispatched(admit(&ctx, frame(1, &pread)));
        assert_eq!(lane, Some(fd));
        let Dispatched::Here(c) = dispatch(&ctx, &session.route, lane, op) else {
            panic!("a free slot runs the op in place");
        };
        assert_eq!(c.span.worker, 0);
        assert_eq!(queue.depth(), 0);
        assert_eq!(kind(&finish(&ctx, &mut session, c)), "Reply");

        queue.close();
        let (lane, op) = dispatched(admit(&ctx, frame(2, &pread)));
        let Dispatched::Queued = dispatch(&ctx, &session.route, lane, op) else {
            panic!("a closed queue grants no claim");
        };
        assert_closed_queue_rejected(&ctx, &mut session, &rx, fd, 2);
    }

    /// Ordering (a), on an event loop: `enqueue` never executes an op,
    /// so a staged read heading its lane is pushed and a worker answers
    /// it through the same sink; once the queue is closed the push is
    /// answered with an EAGAIN completion, `finish` makes the same
    /// `Close` of it, and the read gives its lane back.
    #[test]
    fn closed_queue_closes_reactor_connections_too() {
        let (ctx, fd, mut session, rx, pread) = staged_session();
        let queue = ctx.queue().unwrap();
        let (lane, op) = dispatched(admit(&ctx, frame(8, &pread)));
        assert_eq!(lane, Some(fd));
        enqueue(&ctx, &session.route, lane, op);
        assert_eq!(queue.depth(), 1);
        assert!(rx.try_recv().is_err(), "the loop ran nothing");
        // A worker takes it, completes the lane and answers it.
        let Some(WorkItem::Sync { reply, .. }) = queue.pop_batch(0, 4).pop() else {
            panic!("the pread was queued");
        };
        assert!(ctx.engine.descriptor_db().complete(fd).is_none());
        reply.deliver(Response::Ok { ret: 0 }, Bytes::new());
        assert_eq!(rx.try_recv().map(|c| c.ticket.seq).ok(), Some(8));

        queue.close();
        let (lane, op) = dispatched(admit(&ctx, frame(9, &pread)));
        enqueue(&ctx, &session.route, lane, op);
        assert_closed_queue_rejected(&ctx, &mut session, &rx, fd, 9);
    }

    /// Exactly once, on the reactor's side of the route too: a queued op
    /// whose reply is dropped unanswered (a worker's unwind) reaches the
    /// loop as one `EIO`, and `finish` closes the connection behind it.
    #[test]
    fn a_reply_dropped_unanswered_closes_the_connection() {
        let ctx = ctx(Mode::Sched);
        let fd = open(&ctx, "/d");
        let (route, rx) = route();
        let mut session = Session::new(route);
        let (lane, op) = dispatched(admit(&ctx, frame(5, &Request::Fsync { fd })));
        enqueue(&ctx, &session.route, lane, op);
        drop(ctx.queue().unwrap().pop_batch(0, 4));
        let c = rx.try_recv().expect("a dropped reply is answered");
        assert!(rx.try_recv().is_err(), "answered once");
        assert_eq!((c.token, c.gen, c.ticket.seq), (4, 2, 5));
        let Admission::Close { after } = finish(&ctx, &mut session, c) else {
            panic!("an unanswered op must close the connection");
        };
        assert_eq!(response_of(&after), Response::Err { errno: Errno::Io });
    }

    /// Ordering (b): capacity, then `begin_op`. A write's block is charged
    /// as its payload is received, with no op open on its descriptor; the
    /// write is recorded on that one charge before its ack, and enqueued
    /// exactly once, after it.
    #[test]
    fn staged_write_charges_capacity_before_beginning_the_op() {
        let ctx = ctx(Mode::Staged);
        let fd = open(&ctx, "/s");
        let db = ctx.engine.descriptor_db();
        let bml = ctx.engine.bml().unwrap();
        let req = Request::Pwrite {
            fd,
            offset: 0,
            len: 64,
        };
        let write = received(&ctx, frame(1, &req));
        assert_eq!(bml.outstanding(), 4096, "charged on receipt");
        assert_eq!(db.status(fd).unwrap().in_progress, 0, "no op open yet");
        let Admission::Reply {
            frame: ack,
            staged: Some(head),
        } = admit(&ctx, write)
        else {
            panic!("a received payload must be staged, heading its lane");
        };
        assert!(matches!(response_of(&ack), Response::Staged { .. }));
        assert_eq!(db.status(fd).unwrap().in_progress, 1);
        assert_eq!(bml.outstanding(), 4096, "staged on the same charge");
        // Ack, then push: nothing is queued until the driver pushes.
        assert_eq!(ctx.queue().unwrap().depth(), 0);
        push(&ctx, head);
        assert_eq!(ctx.queue().unwrap().depth(), 1);
    }

    #[test]
    fn refused_begin_op_returns_the_staging_memory() {
        let ctx = ctx(Mode::Staged);
        let req = Request::Write {
            fd: Fd(77),
            len: 64,
        };
        let write = received(&ctx, frame(1, &req));
        assert_eq!(ctx.engine.bml().unwrap().outstanding(), 4096);
        let Admission::Reply { frame: reply, .. } = admit(&ctx, write) else {
            panic!("unknown descriptor is answered inline");
        };
        assert_eq!(response_of(&reply), Response::Err { errno: Errno::BadF });
        assert_eq!(ctx.engine.bml().unwrap().outstanding(), 0);
        // A payload left on the heap because the pool closed (daemon
        // shutdown).
        let fd = open(&ctx, "/c");
        let req = Request::Write { fd, len: 64 };
        let Accepted::Op(op) = accept(&ctx, frame(2, &req)) else {
            panic!("a write is an op");
        };
        ctx.engine.bml().unwrap().close();
        let Admission::Reply { frame: reply, .. } = resume(&ctx, op) else {
            panic!("closed BML is answered inline");
        };
        assert_eq!(
            response_of(&reply),
            Response::Err {
                errno: Errno::NoMem
            }
        );
        assert_eq!(
            ctx.engine.descriptor_db().status(fd).unwrap().in_progress,
            0
        );
    }

    #[test]
    fn finish_tracks_descriptors_for_reclaim() {
        let ctx = ctx(Mode::Inline);
        let mut session = Session::new(route().0);
        let open_req = Request::Open {
            path: "/r".into(),
            flags: OpenFlags::RDWR | OpenFlags::CREATE,
            mode: 0o644,
        };
        let (lane, op) = dispatched(admit(&ctx, frame(1, &open_req)));
        let Dispatched::Here(c) = dispatch(&ctx, &session.route, lane, op) else {
            panic!("inline mode runs everything in place");
        };
        assert_eq!(kind(&finish(&ctx, &mut session, c)), "Reply");
        assert_eq!(session.fds.len(), 1);
        assert_eq!(ctx.engine.descriptor_db().open_count(), 1);
        session.reclaim(&ctx);
        assert_eq!(ctx.engine.descriptor_db().open_count(), 0);
    }
}
