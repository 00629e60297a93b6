//! The admission core: the paper's §IV pipeline — receive, classify
//! (data op vs metadata op), charge staging memory, record the op on
//! its descriptor, enqueue, acknowledge — written once for both
//! transports.
//!
//! [`admit`] (and [`resume`], for a frame that had to wait) owns every
//! protocol and descriptor-database decision and **never blocks and
//! never touches a socket**. It returns an [`Admission`] that tells the
//! transport driver what to do next; the threaded driver
//! (`handlers::serve_conn`) obeys by blocking in place, the reactor by
//! parking the connection or pushing the op to the worker pool.
//!
//! [`dispatch`] (on a thread that may block) and [`enqueue`] (on an
//! event loop) carry out an [`Admission::Dispatch`]. In staged mode an op
//! on a descriptor first joins the descriptor's lane, in frame order,
//! behind its staged writes: a barrier is a place in the lane, and an op
//! waiting there is released by the completion of the item ahead, so no
//! thread ever waits for one. An op free to go is run by [`dispatch`]
//! right there under a free execution slot of the work queue, or pushed
//! to the pool; it crosses threads only when that buys something — every
//! slot busy, or its client already has work waiting in the pool.
//!
//! Three orderings are fixed here and nowhere else (DESIGN.md §15):
//!
//! * **Capacity, then `begin_op`.** A staged write charges the BML
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
use crossbeam::channel::{bounded, Receiver};
use iofwd_proto::{
    Errno, Fd, Frame, Request, Response, StageEcho, StatsQuery, TraceContext, TraceExt,
};

use super::engine::{op_kind, response_errno, Engine};
use super::handlers::execute_staged;
use super::queue::{
    CompletionSink, ReplyTo, SessionEffect, StagedPart, Ticket, WorkItem, WorkQueue,
};
use super::staged::FdSerializer;
use crate::bml::{Bml, BmlBuffer};
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
    Staged {
        queue: Arc<WorkQueue>,
        serializer: Arc<FdSerializer>,
        bml: Bml,
    },
}

/// Daemon-wide admission state, shared by every connection.
pub(crate) struct AdmitCtx {
    pub(crate) engine: Arc<Engine>,
    pub(crate) policy: Policy,
    /// Per-client cap on items in the work queue (the reactor's
    /// fairness gate); `usize::MAX` means uncapped.
    pub(crate) max_client_queued: usize,
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

    /// Complete `fd`'s lane after the item holding it ran (or was
    /// settled) off the pool; returns the successor it releases.
    fn complete_lane(&self, fd: Fd) -> Option<WorkItem> {
        match &self.policy {
            Policy::Staged { serializer, .. } => serializer.complete(fd),
            Policy::Inline | Policy::Sched { .. } => None,
        }
    }
}

/// How a finished op reaches the connection that admitted it.
#[derive(Clone)]
pub(crate) enum Route {
    /// Threaded driver: each queued op gets a rendezvous channel the
    /// handler thread waits on.
    Handler,
    /// Reactor: the outcome is posted to the owning event loop.
    Reactor {
        sink: Arc<dyn CompletionSink>,
        token: usize,
        gen: u64,
    },
}

/// What a worker hands back: response, reply payload, stamped span.
pub(crate) type Outcome = (Response, Bytes, OpSpan);

/// The threaded driver's claim on a queued op's outcome.
pub(crate) struct Waiting {
    pub(crate) ticket: Ticket,
    pub(crate) rx: Receiver<Outcome>,
}

impl Route {
    /// Wrap an op as a `Sync` work item holding `lane`, whose outcome
    /// comes back over this route; the threaded route also returns the
    /// receiving end the handler waits on.
    fn sync_item(&self, op: Op, lane: Option<Fd>) -> (WorkItem, Option<Waiting>) {
        let ticket = op.ticket;
        let (reply, waiting) = match self {
            Route::Handler => {
                let (tx, rx) = bounded(1);
                (ReplyTo::Handler(tx), Some(Waiting { ticket, rx }))
            }
            Route::Reactor { sink, token, gen } => (
                ReplyTo::Reactor {
                    sink: sink.clone(),
                    token: *token,
                    gen: *gen,
                    ticket,
                },
                None,
            ),
        };
        let item = WorkItem::Sync {
            req: op.req,
            data: op.data,
            reply,
            span: op.span,
            lane,
        };
        (item, waiting)
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
        for fd in self.fds {
            if let Policy::Staged { serializer, .. } = &ctx.policy {
                if serializer.admit(fd, WorkItem::Reclaim(fd)).is_none() {
                    continue;
                }
            }
            ctx.engine.close_orphan(fd);
            if let Some(next) = ctx.complete_lane(fd) {
                push(ctx, next);
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

/// What an op that cannot be admitted yet is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Need {
    /// Staging memory: "the I/O operation is blocked until sufficient
    /// memory is available" (§IV).
    Bml,
    /// The client's share of the work queue to drain.
    QueueCredit,
}

/// How a driver comes back to a parked op.
pub(crate) enum Retry {
    /// Try again without blocking.
    Poll,
    /// The threaded driver blocked in `Bml::adopt` on the op's payload;
    /// `None` means the BML closed under it.
    Adopted(Option<BmlBuffer>),
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
    /// Not admissible yet: hold the op, stop reading the connection,
    /// and [`resume`] when `need` may have been met.
    Park { op: Op, need: Need },
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
/// over its queue credit, and, needing no BML block, on a fresh
/// connection while every data connection is parked under backpressure.
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
        Accepted::Op(op) => resume(ctx, op, Retry::Poll),
        Accepted::Answered(answered) => answered,
    }
}

/// Route an accepted op: the policy decision, the fairness gate, and —
/// for a staged write — the whole staging transaction.
pub(crate) fn resume(ctx: &AdmitCtx, mut op: Op, retry: Retry) -> Admission {
    let (queue, staging) = match &ctx.policy {
        Policy::Inline => return Admission::Dispatch { lane: None, op },
        Policy::Sched { queue } => (queue, None),
        Policy::Staged {
            queue,
            serializer,
            bml,
        } => (queue, Some((serializer, bml))),
    };
    if ctx.max_client_queued != usize::MAX
        && queue.client_queued(op.span.client) >= ctx.max_client_queued
    {
        return Admission::Park {
            op,
            need: Need::QueueCredit,
        };
    }
    let Some((serializer, bml)) = staging else {
        return Admission::Dispatch { lane: None, op };
    };
    match op.shape {
        Shape::Write { fd, offset, len }
            if usize::try_from(len).is_ok_and(|l| l <= bml.max_request()) =>
        {
            if len != op.data.len() as u64 {
                return fail_inline(
                    ctx,
                    op,
                    Response::Err {
                        errno: Errno::Inval,
                    },
                );
            }
            // A payload the transport received into a BML block is
            // staged in it, on the charge taken before its first byte;
            // any other is adopted, and charged, here.
            let received = BmlBuffer::from_payload(std::mem::take(&mut op.data));
            let buf = match (received, retry) {
                (Ok(block), _) => block,
                (Err(data), Retry::Poll) => match bml.try_adopt(data.clone()) {
                    Some(buf) => buf,
                    None => {
                        op.data = data;
                        return Admission::Park {
                            op,
                            need: Need::Bml,
                        };
                    }
                },
                (Err(_), Retry::Adopted(Some(buf))) => buf,
                // BML closed: the daemon is shutting down.
                (Err(_), Retry::Adopted(None)) => {
                    return fail_inline(
                        ctx,
                        op,
                        Response::Err {
                            errno: Errno::NoMem,
                        },
                    )
                }
            };
            stage_write(ctx, serializer, fd, offset, op, buf)
        }
        // Every other op on a descriptor — a read, a barrier, a write
        // past the BML's largest size class — takes its turn in the
        // descriptor's lane, so it never overtakes a staged write.
        Shape::Write { fd, .. } | Shape::OnFd(fd) => Admission::Dispatch { lane: Some(fd), op },
        Shape::Path => Admission::Dispatch { lane: None, op },
    }
}

/// Where [`dispatch`] left an op.
pub(crate) enum Dispatched {
    /// It ran on the calling thread.
    Here(Ticket, Outcome),
    /// It waits in its lane or on the work queue; the outcome comes back
    /// over the route, on the `Waiting` channel for the threaded route.
    Queued(Option<Waiting>),
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
    let mut op = match join_lane(ctx, route, lane, op) {
        Ok(op) => op,
        Err(waiting) => return Dispatched::Queued(waiting),
    };
    let slot = match ctx.queue() {
        None => None,
        Some(queue) => match queue.try_claim(op.span.client) {
            None => {
                let (item, waiting) = route.sync_item(op, lane);
                push(ctx, item);
                return Dispatched::Queued(waiting);
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
    if let Some(next) = lane.and_then(|fd| ctx.complete_lane(fd)) {
        push(ctx, next);
    }
    Dispatched::Here(op.ticket, (resp, data, op.span))
}

/// Carry out an [`Admission::Dispatch`] on an event loop, which must not
/// execute it: join the op's lane, and push it to the pool once it may
/// go. The threaded route also returns the channel its outcome arrives
/// on.
pub(crate) fn enqueue(ctx: &AdmitCtx, route: &Route, lane: Option<Fd>, op: Op) -> Option<Waiting> {
    let op = match join_lane(ctx, route, lane, op) {
        Ok(op) => op,
        Err(waiting) => return waiting,
    };
    let (item, waiting) = route.sync_item(op, lane);
    push(ctx, item);
    waiting
}

/// Stamp the op enqueued (unless ciod's shm hop did) and, in staged
/// mode, put an op on a descriptor in the descriptor's lane, so time
/// spent behind its staged writes is queue wait. The op comes back when
/// it may go now — it heads its lane, or has none; otherwise it waits in
/// the lane for the item ahead to release it, and the threaded route's
/// claim on its outcome is returned instead.
fn join_lane(
    ctx: &AdmitCtx,
    route: &Route,
    lane: Option<Fd>,
    mut op: Op,
) -> Result<Op, Option<Waiting>> {
    if op.span.enqueue_ns == 0 {
        op.span.enqueue_ns = ctx.telemetry().now_ns();
    }
    let (Some(fd), Policy::Staged { serializer, .. }) = (lane, &ctx.policy) else {
        return Ok(op);
    };
    let mut waiting = None;
    let head = serializer.join(fd, op, |op| {
        let (item, claim) = route.sync_item(op, lane);
        waiting = claim;
        item
    });
    head.ok_or(waiting)
}

/// Hand an item to the pool: a synchronous op, or the head of a lane
/// (after its ack, for a staged write). If the queue has closed, the
/// pool will never run it, so it is settled here — a staged write is
/// executed to keep its `Staged` ack truthful, a reclaim closes its
/// descriptor, a synchronous op is answered `EAGAIN` through its own
/// reply route (both drivers see an ordinary outcome, and [`finish`]
/// closes the connection behind the reply) — and so is every successor
/// its lane then releases.
pub(crate) fn push(ctx: &AdmitCtx, item: WorkItem) {
    let mut next = match ctx.queue() {
        Some(queue) => queue.push(item).err().map(|closed| *closed.0),
        None => Some(item),
    };
    while let Some(item) = next {
        let lane = item.lane();
        match item {
            WorkItem::Sync { .. } => reject(item, Errno::Again, Disposition::QueueRejected),
            WorkItem::StagedWrite { fd, part } => execute_staged(
                &ctx.engine,
                ctx.telemetry(),
                fd,
                part,
                0,
                Disposition::Completed,
            ),
            WorkItem::Reclaim(fd) => ctx.engine.close_orphan(fd),
        }
        next = lane.and_then(|fd| ctx.complete_lane(fd));
    }
}

/// Answer a `Sync` item that will never execute.
pub(crate) fn reject(item: WorkItem, errno: Errno, disposition: Disposition) {
    if let WorkItem::Sync {
        reply, mut span, ..
    } = item
    {
        span.ok = false;
        span.errno = errno.to_wire();
        span.disposition = disposition;
        span.dispatch_ns = span.enqueue_ns;
        reply.deliver(Response::Err { errno }, Bytes::new(), span);
    }
}

/// The staging transaction, with `buf` already charged to the BML:
/// record the op on its descriptor, hand it to the descriptor's lane,
/// and build the ack — carrying the write itself if it heads the lane,
/// for the driver to [`push`] once the ack is out.
fn stage_write(
    ctx: &AdmitCtx,
    serializer: &FdSerializer,
    fd: Fd,
    offset: Option<u64>,
    mut op: Op,
    buf: BmlBuffer,
) -> Admission {
    let engine = &ctx.engine;
    let telemetry = ctx.telemetry();
    let staged = match engine.descriptor_db().begin_op(fd) {
        Ok((staged, _obj)) => staged,
        Err(refused) => {
            drop(buf);
            let resp = engine.begin_error_response(refused);
            return fail_inline(ctx, op, resp);
        }
    };
    if telemetry.enabled() {
        telemetry.ops_staged.inc();
    }
    // The ack is the client-visible reply; stamp it now (OpSpan is
    // Copy — the worker's copy keeps these stamps, adds the backend
    // ones, and completes the span after the write).
    op.span.enqueue_ns = telemetry.now_ns();
    op.span.reply_ns = op.span.enqueue_ns;
    let ack = reply_frame(
        telemetry,
        &op.ticket,
        &Response::Staged { op: staged },
        Bytes::new(),
        &op.span,
    );
    let part = StagedPart {
        op: staged,
        offset,
        buf,
        span: op.span,
    };
    Admission::Reply {
        frame: ack,
        staged: serializer.admit(fd, WorkItem::StagedWrite { fd, part }),
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
pub(crate) fn finish(
    ctx: &AdmitCtx,
    session: &mut Session,
    ticket: Ticket,
    (resp, data, mut span): Outcome,
) -> Admission {
    let telemetry = ctx.telemetry();
    session.settle(ticket.effect, &resp);
    span.reply_ns = telemetry.now_ns();
    let frame = reply_frame(telemetry, &ticket, &resp, data, &span);
    telemetry.complete(&span);
    if span.disposition == Disposition::QueueRejected {
        Admission::Close { after: frame }
    } else {
        Admission::reply(frame)
    }
}

/// Fold the span of an op whose connection is gone: the reply has no
/// destination, but the op still reaches the flight recorder.
pub(crate) fn abandon(telemetry: &Telemetry, mut span: OpSpan) {
    span.reply_ns = telemetry.now_ns();
    telemetry.complete(&span);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemSinkBackend;
    use crate::server::queue::Completion;
    use iofwd_proto::{OpenFlags, StatsQuery, Whence};
    use parking_lot::Mutex;

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
            (Mode::Staged, Some(bml)) => Policy::Staged {
                queue,
                serializer: Arc::new(FdSerializer::new()),
                bml,
            },
            _ => Policy::Sched { queue },
        };
        AdmitCtx {
            engine,
            policy,
            max_client_queued: usize::MAX,
        }
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

    fn response_of(frame: &Frame) -> Response {
        frame.decode_response().expect("well-formed reply")
    }

    fn kind(admission: &Admission) -> &'static str {
        match admission {
            Admission::Reply { .. } => "Reply",
            Admission::Close { .. } => "Close",
            Admission::Dispatch { lane: None, .. } => "Dispatch",
            Admission::Dispatch { lane: Some(_), .. } => "Lane+Dispatch",
            Admission::Park { .. } => "Park",
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
                let got = admit(&ctx, frame(seq as u64, req));
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
        let got = admit(&ctx, frame(1, &req));
        assert_eq!(kind(&got), "Lane+Dispatch");
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

    /// Ordering (a), threaded route: while the queue is open and a slot
    /// is free a `sched` op runs on the calling thread — no channel,
    /// nothing enqueued, worker 0; once the queue is closed the claim
    /// fails, and the push that follows is answered EAGAIN and closes
    /// the connection.
    #[test]
    fn closed_queue_answers_eagain_and_closes_the_connection() {
        let ctx = ctx(Mode::Sched);
        let fd = open(&ctx, "/q");
        let queue = ctx.queue().unwrap();
        let mut session = Session::new(Route::Handler);
        let (lane, op) = dispatched(admit(&ctx, frame(1, &Request::Fsync { fd })));
        assert_eq!(lane, None);
        let Dispatched::Here(ticket, outcome) = dispatch(&ctx, &session.route, lane, op) else {
            panic!("a free slot runs the op in place");
        };
        assert_eq!(outcome.2.worker, 0);
        assert_eq!(queue.depth(), 0);
        assert_eq!(kind(&finish(&ctx, &mut session, ticket, outcome)), "Reply");

        queue.close();
        let (lane, op) = dispatched(admit(&ctx, frame(2, &Request::Fsync { fd })));
        let Dispatched::Queued(Some(waiting)) = dispatch(&ctx, &session.route, lane, op) else {
            panic!("a closed queue grants no claim");
        };
        let outcome = waiting.rx.recv().expect("rejection is delivered");
        let Admission::Close { after } = finish(&ctx, &mut session, waiting.ticket, outcome) else {
            panic!("a queue-rejected op must close the connection");
        };
        assert_eq!(
            response_of(&after),
            Response::Err {
                errno: Errno::Again
            }
        );
        assert_eq!(queue.depth(), 0);
    }

    #[derive(Default)]
    struct CaptureSink(Mutex<Vec<Completion>>);

    impl CompletionSink for CaptureSink {
        fn complete(&self, completion: Completion) {
            self.0.lock().push(completion);
        }
    }

    /// Ordering (a), reactor route: an event loop never executes an op,
    /// so a staged read heading its lane is pushed; once the queue is
    /// closed the push is answered with an EAGAIN completion, `finish`
    /// makes the same `Close` of it, and the read gives its lane back.
    #[test]
    fn closed_queue_closes_reactor_connections_too() {
        let ctx = ctx(Mode::Staged);
        let fd = open(&ctx, "/q");
        let queue = ctx.queue().unwrap();
        let sink = Arc::new(CaptureSink::default());
        let mut session = Session::new(Route::Reactor {
            sink: sink.clone(),
            token: 4,
            gen: 2,
        });
        let pread = Request::Pread {
            fd,
            offset: 0,
            len: 8,
        };
        let (lane, op) = dispatched(admit(&ctx, frame(8, &pread)));
        assert_eq!(lane, Some(fd));
        assert!(enqueue(&ctx, &session.route, lane, op).is_none());
        assert_eq!(queue.depth(), 1);
        assert!(sink.0.lock().is_empty(), "the loop ran nothing");
        // A worker takes it and completes the lane.
        assert_eq!(queue.pop_batch(0, 4).len(), 1);
        assert!(ctx.complete_lane(fd).is_none());

        queue.close();
        let (lane, op) = dispatched(admit(&ctx, frame(9, &pread)));
        assert!(enqueue(&ctx, &session.route, lane, op).is_none());
        let c = sink
            .0
            .lock()
            .pop()
            .expect("rejection is posted to the sink");
        assert_eq!((c.token, c.gen, c.ticket.seq), (4, 2, 9));
        let answered = finish(&ctx, &mut session, c.ticket, (c.resp, c.data, c.span));
        assert_eq!(kind(&answered), "Close");
        let Policy::Staged { serializer, .. } = &ctx.policy else {
            unreachable!("a staged context");
        };
        assert!(serializer.admit(fd, WorkItem::Reclaim(fd)).is_some());
    }

    /// Ordering (b): capacity, then `begin_op`. A write waiting for
    /// staging memory leaves no op open on its descriptor; once admitted
    /// it is recorded and charged before its ack, and enqueued exactly
    /// once, after it.
    #[test]
    fn staged_write_charges_capacity_before_beginning_the_op() {
        let ctx = ctx(Mode::Staged);
        let fd = open(&ctx, "/s");
        let db = ctx.engine.descriptor_db();
        let bml = ctx.engine.bml().unwrap();
        let hog = bml.acquire(BML_BYTES as usize).expect("whole BML");
        let req = Request::Pwrite {
            fd,
            offset: 0,
            len: 64,
        };
        let Admission::Park { op, need } = admit(&ctx, frame(1, &req)) else {
            panic!("a full BML must park the write");
        };
        assert_eq!(need, Need::Bml);
        assert_eq!(
            db.status(fd).unwrap().in_progress,
            0,
            "no op open while parked"
        );
        // Still full: a retry parks again, still without an open op.
        let Admission::Park { op, .. } = resume(&ctx, op, Retry::Poll) else {
            panic!("still no memory");
        };
        assert_eq!(db.status(fd).unwrap().in_progress, 0);

        drop(hog);
        let Admission::Reply {
            frame: ack,
            staged: Some(head),
        } = resume(&ctx, op, Retry::Poll)
        else {
            panic!("memory is free: the write must be staged, heading its lane");
        };
        assert!(matches!(response_of(&ack), Response::Staged { .. }));
        assert_eq!(db.status(fd).unwrap().in_progress, 1);
        assert!(bml.outstanding() > 0);
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
        let Admission::Reply { frame: reply, .. } = admit(&ctx, frame(1, &req)) else {
            panic!("unknown descriptor is answered inline");
        };
        assert_eq!(response_of(&reply), Response::Err { errno: Errno::BadF });
        assert_eq!(ctx.engine.bml().unwrap().outstanding(), 0);
        // The threaded driver's blocking adopt failing (BML closed).
        let fd = open(&ctx, "/c");
        let req = Request::Write { fd, len: 64 };
        let Accepted::Op(op) = accept(&ctx, frame(2, &req)) else {
            panic!("a write is an op");
        };
        let Admission::Reply { frame: reply, .. } = resume(&ctx, op, Retry::Adopted(None)) else {
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

    /// Satellite 1: a client over its queue credit is parked — but its
    /// stats queries are still answered, because the intercept precedes
    /// the credit check.
    #[test]
    fn stats_are_answered_ahead_of_the_credit_check() {
        let mut ctx = ctx(Mode::Sched);
        ctx.max_client_queued = 1;
        let fd = open(&ctx, "/f");
        // The event loop pushes the first op: that is the client's credit.
        let (_, first) = dispatched(admit(&ctx, frame(1, &Request::Fsync { fd })));
        assert!(enqueue(&ctx, &Route::Handler, None, first).is_some());
        let Admission::Park { need, .. } = admit(&ctx, frame(2, &Request::Fsync { fd })) else {
            panic!("second op exceeds the credit");
        };
        assert_eq!(need, Need::QueueCredit);
        let stats = Request::Stats {
            query: StatsQuery::Snapshot,
        };
        assert_eq!(kind(&admit(&ctx, frame(3, &stats))), "Reply");
    }

    #[test]
    fn finish_tracks_descriptors_for_reclaim() {
        let ctx = ctx(Mode::Inline);
        let mut session = Session::new(Route::Handler);
        let open_req = Request::Open {
            path: "/r".into(),
            flags: OpenFlags::RDWR | OpenFlags::CREATE,
            mode: 0o644,
        };
        let (lane, op) = dispatched(admit(&ctx, frame(1, &open_req)));
        let Dispatched::Here(ticket, outcome) = dispatch(&ctx, &session.route, lane, op) else {
            panic!("inline mode runs everything in place");
        };
        assert_eq!(kind(&finish(&ctx, &mut session, ticket, outcome)), "Reply");
        assert_eq!(session.fds.len(), 1);
        assert_eq!(ctx.engine.descriptor_db().open_count(), 1);
        session.reclaim(&ctx);
        assert_eq!(ctx.engine.descriptor_db().open_count(), 0);
    }
}
