//! Poll-based reactor transport: the event-loop alternative to
//! thread-per-connection.
//!
//! The paper's ION serves on the order of a hundred compute nodes per
//! I/O node; at petascale fan-in (and in the `connection_scale`
//! experiment) a thread per client means thousands of stacks and a
//! scheduler meltdown on the ION's handful of cores. The reactor
//! multiplexes every client socket onto a small fixed pool of event
//! loops built on `epoll(7)` (vendored `polling` stub):
//!
//! - **Framed, non-blocking I/O.** Each connection owns a
//!   [`FrameReader`] — the partial-read state machine the threaded
//!   transport and the client also use, here fed by non-blocking reads —
//!   and a write buffer of reply segments that leave in one vectored
//!   write per flush; partial writes park the remainder and wait for
//!   `POLLOUT`.
//! - **Admission control as backpressure.** Every decoded frame goes to
//!   the admission core (`server::admit`), which never blocks. Where
//!   the threaded driver *blocks* in `recv` for the BML block a payload
//!   is received into, an event loop parks the connection: the frame's
//!   head stays in the reader, the socket drops out of the readable
//!   interest set, and a later lap resumes it. TCP flow control pushes
//!   the stall back to the compute node, exactly the §IV contract ("the
//!   I/O operation is blocked until sufficient memory is available"),
//!   minus the dedicated thread.
//! - **Per-client fairness.** The one gate only the reactor has, between
//!   [`admit::accept`] and [`admit::resume`]: a client with
//!   [`ReactorConfig::max_client_queued`] items in the shared work queue
//!   has its op stashed and is parked the same way, so one chatty compute
//!   node cannot monopolize the worker pool ahead of its neighbors.
//! - **Every op on the pool.** An event loop executes nothing: each op
//!   the core admits is pushed to the worker pool — in staged mode an op
//!   on a descriptor first joins the descriptor's lane, and the worker
//!   that completes the item ahead of it releases it. Nothing here ever
//!   waits for a barrier, so the daemon is the loops plus the workers.
//!
//! Completions come back on the reply route every queued op has, on
//! either driver: each loop owns one completion sink ([`Route`]), made
//! with its poller's [`Waker`]; a worker (or a reply dropped unanswered,
//! as `EIO`) sends a [`Completion`] on it and wakes the loop, which
//! drains it as a threaded handler drains its own. `(token, gen)` pairs
//! make stale completions (client disconnected mid-op) harmless: the
//! span still folds into telemetry, the reply is simply unaddressable.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use iofwd_proto::{Frame, FrameReader, Storage};
use polling::{Event, Interest, Poller, Waker};

use super::admit::{self, Accepted, Admission, AdmitCtx, Op, Session};
use super::queue::{abandon, Completion, Route};
use crate::sync::{channel, Receiver, Sender};
use crate::telemetry::{PerClientStats, Telemetry};
use crate::transport::tcp::TcpAcceptor;

/// Token reserved for the listening socket (registered on loop 0 only).
const LISTENER_TOKEN: usize = usize::MAX - 1;
/// `wbuf` segments handed to one vectored write.
const FLUSH_SEGMENTS: usize = 8;
/// Idle poll timeout; parked-connection retries ride on this tick.
const TICK: Duration = Duration::from_millis(20);
/// Backoff before re-touching a listener that just failed `accept(2)`.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(1);
/// Frames decoded per connection per loop lap before yielding to the
/// next connection (fairness between clients on one loop).
const FRAMES_PER_PASS: usize = 8;

/// Tuning knobs for [`spawn`].
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfig {
    /// Event-loop threads; client sockets are assigned round-robin.
    pub threads: usize,
    /// Park a client once it has this many items in the work queue.
    pub max_client_queued: usize,
    /// Park a client's read side once its un-flushed reply bytes
    /// exceed this (it is not reading its responses).
    pub max_write_buffer: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            threads: 2,
            max_client_queued: 32,
            max_write_buffer: 1 << 20,
        }
    }
}

/// Running reactor: its event-loop threads.
pub struct ReactorHandle {
    stop: Arc<AtomicBool>,
    wakers: Vec<Waker>,
    threads: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Stop every event loop and join all threads. Connections still
    /// open are torn down (descriptors reclaimed, spans completed).
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        for w in &self.wakers {
            w.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Per-connection state machine.
struct ConnState {
    stream: TcpStream,
    /// Inbound partial-frame state.
    reader: FrameReader,
    /// Encoded reply frames awaiting the socket.
    wbuf: VecDeque<Bytes>,
    /// Bytes of `wbuf.front()` already written (partial-write cursor).
    wbuf_off: usize,
    /// Total un-flushed bytes across `wbuf`.
    wbuf_bytes: usize,
    /// Admission state: reply route and the descriptors this client
    /// opened and has not closed.
    session: Session,
    /// Client id from the most recent frame.
    client: u64,
    /// Cached per-client attribution row for `client`, refreshed when
    /// the id changes — one shard lookup per id change, not per frame
    /// (lint R9: all mutations go through `Telemetry::client_stats`).
    stats: Option<Arc<PerClientStats>>,
    /// An op over its client's queue credit, waiting for it to drain.
    parked_op: Option<Op>,
    /// A frame's head is in `reader`, waiting for the BML block its
    /// payload will be received into.
    awaiting_block: bool,
    /// Ops handed to the pool with replies outstanding.
    inflight: usize,
    parked_wbuf: bool,
    peer_closed: bool,
    close_after_flush: bool,
    /// Interest set currently registered with the poller. `finish_conn`
    /// only issues an `epoll_ctl`-backed `modify` when the recomputed
    /// set differs — most service passes leave it untouched, and a
    /// syscall per pass is exactly the per-op overhead the reactor
    /// exists to avoid.
    interest: Interest,
    /// On the hot list (decoded frames may still be buffered).
    in_hot: bool,
    /// Wants a hot-list slot next lap (set when the per-pass frame
    /// budget ran out with bytes still buffered).
    want_hot: bool,
    dead: bool,
}

impl ConnState {
    fn new(stream: TcpStream, session: Session) -> ConnState {
        ConnState {
            stream,
            reader: FrameReader::default(),
            wbuf: VecDeque::new(),
            wbuf_off: 0,
            wbuf_bytes: 0,
            session,
            client: 0,
            stats: None,
            parked_op: None,
            awaiting_block: false,
            inflight: 0,
            parked_wbuf: false,
            peer_closed: false,
            close_after_flush: false,
            interest: Interest::READABLE,
            in_hot: false,
            want_hot: false,
            dead: false,
        }
    }

    fn parked(&self) -> bool {
        self.parked_op.is_some() || self.awaiting_block || self.parked_wbuf
    }

    /// A drained connection whose peer is done (or that acked
    /// `Shutdown`) dies once every reply has left the building.
    fn maybe_finished(&mut self) {
        if (self.peer_closed || self.close_after_flush)
            && self.inflight == 0
            && self.wbuf.is_empty()
            && self.parked_op.is_none()
        {
            self.dead = true;
        }
    }
}

/// Connection slot: `gen` increments on reuse so completions addressed
/// to a previous occupant are recognized as stale.
struct Slot {
    gen: u64,
    conn: Option<ConnState>,
}

/// One event loop.
struct ReactorThread {
    idx: usize,
    poller: Poller,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Connections with buffered-but-undecoded frames: serviced every
    /// lap with a zero poll timeout, since no new socket readiness
    /// will announce bytes we already hold.
    hot: VecDeque<usize>,
    events: Vec<Event>,
    conn_rx: Receiver<TcpStream>,
    comp_rx: Receiver<Completion>,
    /// This loop's reply route; a connection's is it at its slot.
    route: Route,
    ctx: Arc<AdmitCtx>,
    telemetry: Arc<Telemetry>,
    cfg: ReactorConfig,
    stop: Arc<AtomicBool>,
    /// Accept duty (loop 0 only): the listener plus the round-robin
    /// hand-off channels to every loop (self included).
    acceptor: Option<Arc<TcpAcceptor>>,
    assign: Vec<Sender<TcpStream>>,
    assign_wakers: Vec<Waker>,
    rr: usize,
    /// Accept backoff deadline after a transient accept failure.
    next_accept_at: Option<Instant>,
}

impl ReactorThread {
    fn run(mut self) {
        // Loop-health instrumentation: a heartbeat slot the snapshot
        // reads for worst-case lap lag (`loop_lag_max_ns`), plus lap-to-lap and poll-wait
        // timings. `poll_wait_ns` is time *voluntarily* parked in
        // `wait(2)`; `loop_lag_ns` minus it is time spent working — a
        // lap that stretches without polling means a blocking call
        // leaked onto the event loop.
        let instrumented = self.telemetry.enabled();
        let hb_slot = instrumented.then(|| {
            self.telemetry
                .loop_heartbeats
                .register(self.telemetry.now_ns())
        });
        let mut last_lap_ns = self.telemetry.now_ns();
        while !self.stop.load(Ordering::Acquire) {
            if instrumented {
                let now = self.telemetry.now_ns();
                self.telemetry
                    .loop_lag_ns
                    .record_shard(self.idx, now.saturating_sub(last_lap_ns));
                last_lap_ns = now;
                if let Some(slot) = hb_slot {
                    self.telemetry.loop_heartbeats.beat(slot, now);
                }
            }
            self.drain_incoming();
            self.drain_completions();
            self.retry_parked();
            let lap = self.hot.len();
            for _ in 0..lap {
                if let Some(tok) = self.hot.pop_front() {
                    if let Some(c) = self.slots.get_mut(tok).and_then(|s| s.conn.as_mut()) {
                        c.in_hot = false;
                    }
                    self.service_conn(tok);
                }
            }
            let timeout = if self.hot.is_empty() && self.next_accept_at.is_none() {
                TICK
            } else {
                Duration::ZERO
            };
            let mut events = std::mem::take(&mut self.events);
            let wait_from = self.telemetry.now_ns();
            let _ = self.poller.wait(&mut events, Some(timeout));
            if instrumented {
                self.telemetry
                    .poll_wait_ns
                    .record_shard(self.idx, self.telemetry.now_ns().saturating_sub(wait_from));
                self.telemetry
                    .ready_batch
                    .record_shard(self.idx, events.len() as u64);
            }
            for ev in events.drain(..) {
                if ev.token == LISTENER_TOKEN {
                    self.accept_burst();
                    continue;
                }
                if ev.writable {
                    self.flush_conn(ev.token);
                }
                if ev.readable {
                    self.service_conn(ev.token);
                }
            }
            self.events = events;
            if self.next_accept_at.is_some() {
                self.accept_burst();
            }
        }
        self.teardown();
    }

    // -- accept path --------------------------------------------------

    /// Accept everything the backlog holds, spreading connections
    /// round-robin across the loops. Transient failures (EMFILE,
    /// ECONNABORTED, injected faults) are counted and retried after a
    /// short backoff — the listener stays alive no matter what.
    fn accept_burst(&mut self) {
        let Some(acceptor) = self.acceptor.clone() else {
            return;
        };
        if let Some(at) = self.next_accept_at {
            if Instant::now() < at {
                return;
            }
            self.next_accept_at = None;
        }
        loop {
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            match acceptor.try_accept_stream() {
                Ok(Some(stream)) => {
                    let target = if self.assign.is_empty() {
                        self.idx
                    } else {
                        self.rr % self.assign.len()
                    };
                    self.rr = self.rr.wrapping_add(1);
                    if target == self.idx {
                        self.register_conn(stream);
                    } else if let (Some(tx), Some(w)) =
                        (self.assign.get(target), self.assign_wakers.get(target))
                    {
                        if tx.send(stream).is_ok() {
                            w.wake();
                        }
                    }
                }
                // Backlog drained, or the listener has shut down.
                Ok(None) => return,
                Err(_) => {
                    if self.telemetry.enabled() {
                        self.telemetry.accept_errors.inc();
                    }
                    self.next_accept_at = Some(Instant::now() + ACCEPT_BACKOFF);
                    return;
                }
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let tok = match self.free.pop() {
            Some(t) => t,
            None => {
                self.slots.push(Slot { gen: 0, conn: None });
                self.slots.len() - 1
            }
        };
        if self
            .poller
            .add(stream.as_raw_fd(), tok, Interest::READABLE)
            .is_err()
        {
            self.free.push(tok);
            return;
        }
        if let Some(slot) = self.slots.get_mut(tok) {
            let session = Session::new(Route {
                token: tok,
                gen: slot.gen,
                ..self.route.clone()
            });
            slot.conn = Some(ConnState::new(stream, session));
        }
        if self.telemetry.enabled() {
            self.telemetry.conns_open.add(1);
        }
        // The client may have written before registration; service once
        // now rather than waiting for the next readiness report.
        self.push_hot(tok);
    }

    fn push_hot(&mut self, tok: usize) {
        if let Some(c) = self.slots.get_mut(tok).and_then(|s| s.conn.as_mut()) {
            if !c.in_hot && !c.dead {
                c.in_hot = true;
                self.hot.push_back(tok);
            }
        }
    }

    // -- channel drains -----------------------------------------------

    fn drain_incoming(&mut self) {
        while let Ok(stream) = self.conn_rx.try_recv() {
            self.register_conn(stream);
        }
    }

    fn drain_completions(&mut self) {
        while let Ok(c) = self.comp_rx.try_recv() {
            self.on_completion(c);
        }
    }

    fn on_completion(&mut self, c: Completion) {
        let live = self
            .slots
            .get_mut(c.token)
            .filter(|slot| slot.gen == c.gen)
            .and_then(|slot| slot.conn.take());
        let Some(mut conn) = live else {
            // Stale: the client disconnected while the op ran.
            return abandon(&self.telemetry, c.span);
        };
        conn.inflight = conn.inflight.saturating_sub(1);
        let tok = c.token;
        let answered = admit::finish(&self.ctx, &mut conn.session, c);
        self.dispatch(&mut conn, answered);
        conn.maybe_finished();
        self.finish_conn(tok, conn);
    }

    /// Items `client` has waiting in the work queue.
    fn queued(&self, client: u64) -> usize {
        self.ctx.queue().map_or(0, |q| q.client_queued(client))
    }

    /// Resume parked connections. A payload waiting for the block it is
    /// received into retries every lap (buffers free continuously); an op
    /// over its client's credit once the client's backlog has drained to
    /// half the cap (hysteresis, so a parked client does not flap at the
    /// boundary).
    fn retry_parked(&mut self) {
        for tok in 0..self.slots.len() {
            let eligible = match self.slots.get(tok).and_then(|s| s.conn.as_ref()) {
                Some(ConnState {
                    awaiting_block: true,
                    dead: false,
                    ..
                }) => true,
                Some(ConnState {
                    parked_op: Some(op),
                    dead: false,
                    ..
                }) => self.queued(op.span.client) * 2 <= self.cfg.max_client_queued,
                _ => false,
            };
            if !eligible {
                continue;
            }
            let Some(mut conn) = self.slots.get_mut(tok).and_then(|s| s.conn.take()) else {
                continue;
            };
            if std::mem::take(&mut conn.awaiting_block) {
                self.pump(&mut conn, true);
                conn.maybe_finished();
            } else if let Some(op) = conn.parked_op.take() {
                let admission = admit::resume(&self.ctx, op);
                self.dispatch(&mut conn, admission);
            }
            if !conn.parked() {
                // Unparked: resume draining whatever piled up in rbuf.
                conn.want_hot = true;
            }
            self.finish_conn(tok, conn);
        }
    }

    // -- read path ----------------------------------------------------

    fn service_conn(&mut self, tok: usize) {
        let Some(mut conn) = self.slots.get_mut(tok).and_then(|s| s.conn.take()) else {
            return;
        };
        self.pump(&mut conn, false);
        conn.maybe_finished();
        self.finish_conn(tok, conn);
    }

    /// Receive-and-admit loop: up to `FRAMES_PER_PASS` frames, or until
    /// the socket has nothing more. `resumed`: the pass retries a frame
    /// that is parked for its receive block.
    fn pump(&mut self, conn: &mut ConnState, mut resumed: bool) {
        let mut budget = FRAMES_PER_PASS;
        loop {
            if conn.dead || conn.parked() || conn.peer_closed || conn.close_after_flush {
                return;
            }
            if budget == 0 {
                // Yield to other connections; come back next lap if
                // undecoded bytes remain.
                if !conn.reader.is_idle() {
                    conn.want_hot = true;
                }
                return;
            }
            // A payload is received into a BML block, charged before it
            // is read; with none to be had the frame waits in the reader,
            // as it does for the socket.
            let mut starved = false;
            let bml = self.ctx.engine.bml();
            let received = conn.reader.read_frame_with(&mut conn.stream, &mut |len| {
                let storage = bml.map_or(Storage::Heap, |bml| bml.receive_storage(len, false));
                starved = matches!(storage, Storage::NotYet);
                storage
            });
            let frame = match received {
                Ok(Some(frame)) => frame,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if starved {
                        // A re-park is one backpressure event, not two.
                        if !resumed {
                            self.count_backpressure(conn);
                        }
                        conn.awaiting_block = true;
                    }
                    return;
                }
                res => {
                    // The peer is done sending, between frames (`Ok(None)`)
                    // or inside one; anything else is undecodable garbage
                    // (the framing is unrecoverable) or a dead socket.
                    let eof = |e: io::Error| e.kind() == io::ErrorKind::UnexpectedEof;
                    conn.peer_closed = res.map_or_else(eof, |_| true);
                    conn.dead = !conn.peer_closed;
                    return;
                }
            };
            budget -= 1;
            resumed = false;
            // The admission core counts the frame; the row is cached
            // here for the parks and write-buffer levels only the
            // reactor sees.
            let client = u64::from(frame.client_id);
            if conn.client != client || conn.stats.is_none() {
                conn.client = client;
                conn.stats = self.telemetry.client_stats(client);
            }
            // The fairness gate sits behind decoding, so a stats query
            // is answered even over the credit.
            let admission = match admit::accept(&self.ctx, frame) {
                Accepted::Answered(answered) => answered,
                Accepted::Op(op)
                    if self.queued(op.span.client) >= self.cfg.max_client_queued.max(1) =>
                {
                    self.count_backpressure(conn);
                    conn.parked_op = Some(op);
                    continue;
                }
                Accepted::Op(op) => admit::resume(&self.ctx, op),
            };
            self.dispatch(conn, admission);
        }
    }

    // -- admission ----------------------------------------------------

    /// Do what the admission core asked.
    fn dispatch(&mut self, conn: &mut ConnState, admission: Admission) {
        match admission {
            // Ack, then push: the staged write goes to the pool once
            // its ack is on the wire (or in `wbuf`).
            Admission::Reply { frame, staged } => {
                self.enqueue_wire(conn, frame);
                if let Some(item) = staged {
                    admit::push(&self.ctx, item);
                }
            }
            Admission::Close { after } => {
                self.enqueue_wire(conn, after);
                conn.close_after_flush = true;
            }
            // An event loop must not execute an op; its outcome comes
            // back through this loop's sink.
            Admission::Dispatch { lane, op } => {
                conn.inflight += 1;
                admit::enqueue(&self.ctx, &conn.session.route, lane, op);
            }
        }
    }

    fn count_backpressure(&self, conn: &ConnState) {
        if self.telemetry.enabled() {
            self.telemetry.backpressure_events.inc();
            if let Some(stats) = &conn.stats {
                stats.backpressure_events.inc();
            }
        }
    }

    // -- write path ---------------------------------------------------

    fn enqueue_wire(&mut self, conn: &mut ConnState, frame: Frame) {
        if conn.dead {
            return;
        }
        // Large payloads ride the wbuf as their own segment, by
        // reference: a slab-backed read reply goes socket-ward without
        // ever being re-copied into a contiguous wire image, and `flush`
        // sends header and payload in one vectored write.
        let queued = if frame.data.len() >= Frame::SPLIT_SEND_MIN {
            let header = frame.encode_header();
            let total = header.len() + frame.data.len();
            conn.wbuf.push_back(header);
            conn.wbuf.push_back(frame.data);
            total
        } else {
            let wire = frame.encode();
            let total = wire.len();
            conn.wbuf.push_back(wire);
            total
        };
        conn.wbuf_bytes += queued;
        if self.telemetry.enabled() {
            self.telemetry.wbuf_bytes.add(queued as i64);
            if let Some(stats) = &conn.stats {
                stats.note_wbuf(conn.wbuf_bytes as u64);
            }
        }
        self.flush(conn);
        // Write-side backpressure: a client not reading its replies
        // stops being read from until the backlog halves.
        if conn.wbuf_bytes > self.cfg.max_write_buffer && !conn.parked_wbuf {
            conn.parked_wbuf = true;
            self.count_backpressure(conn);
        }
    }

    fn flush(&mut self, conn: &mut ConnState) {
        while !conn.wbuf.is_empty() {
            match write_segments(&mut &conn.stream, &mut conn.wbuf, &mut conn.wbuf_off) {
                Ok(n) => {
                    conn.wbuf_bytes = conn.wbuf_bytes.saturating_sub(n);
                    if self.telemetry.enabled() {
                        self.telemetry.wbuf_bytes.add(-(n as i64));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        if conn.parked_wbuf && conn.wbuf_bytes <= self.cfg.max_write_buffer / 2 {
            conn.parked_wbuf = false;
            // Read side resumes — on the hot list, not via poll
            // interest alone: the frames this park deferred are already
            // sitting in rbuf, so the (level-triggered) socket may never
            // signal readable again. Every flush path must do this, not
            // just the EPOLLOUT one; a completion's enqueue_wire can be
            // the flush that crosses the low-water mark, and if it
            // skips the hot list the buffered frames are stranded for
            // good (worker idle, loop parked on its tick).
            conn.want_hot = true;
        }
        conn.maybe_finished();
    }

    fn flush_conn(&mut self, tok: usize) {
        let Some(mut conn) = self.slots.get_mut(tok).and_then(|s| s.conn.take()) else {
            return;
        };
        self.flush(&mut conn);
        self.finish_conn(tok, conn);
    }

    // -- slot lifecycle -----------------------------------------------

    /// Put a connection back in its slot (recomputing poll interest),
    /// or tear it down if it died.
    fn finish_conn(&mut self, tok: usize, conn: ConnState) {
        if conn.dead {
            self.destroy(tok, conn);
            return;
        }
        let interest = Interest {
            readable: !conn.parked() && !conn.peer_closed && !conn.close_after_flush,
            writable: !conn.wbuf.is_empty(),
        };
        let want_hot = conn.want_hot;
        let fd_tok = {
            let mut conn = conn;
            if interest != conn.interest
                && self
                    .poller
                    .modify(conn.stream.as_raw_fd(), interest)
                    .is_ok()
            {
                conn.interest = interest;
            }
            conn.want_hot = false;
            if let Some(slot) = self.slots.get_mut(tok) {
                slot.conn = Some(conn);
                Some(tok)
            } else {
                None
            }
        };
        if want_hot {
            if let Some(tok) = fd_tok {
                self.push_hot(tok);
            }
        }
    }

    fn destroy(&mut self, tok: usize, conn: ConnState) {
        self.poller.delete(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        conn.session.reclaim(&self.ctx);
        if self.telemetry.enabled() {
            self.telemetry.conns_open.add(-1);
            // Release this connection's share of the un-flushed-bytes
            // gauge; its replies die with the socket.
            self.telemetry.wbuf_bytes.add(-(conn.wbuf_bytes as i64));
        }
        if let Some(slot) = self.slots.get_mut(tok) {
            slot.gen = slot.gen.wrapping_add(1);
            slot.conn = None;
        }
        self.free.push(tok);
    }

    fn teardown(&mut self) {
        for tok in 0..self.slots.len() {
            let conn = self.slots.get_mut(tok).and_then(|s| s.conn.take());
            if let Some(conn) = conn {
                self.destroy(tok, conn);
            }
        }
        // Late completions: nowhere to reply, but every span folds in.
        while let Ok(c) = self.comp_rx.try_recv() {
            abandon(&self.telemetry, c.span);
        }
    }
}

/// One vectored write over the first [`FLUSH_SEGMENTS`] segments of
/// `wbuf`, starting `off` bytes into the first; whatever the writer took
/// is popped and `off` moved to the first unsent byte.
fn write_segments(
    w: &mut impl Write,
    wbuf: &mut VecDeque<Bytes>,
    off: &mut usize,
) -> io::Result<usize> {
    let mut iov = [IoSlice::new(&[]); FLUSH_SEGMENTS];
    let mut skip = *off;
    let mut segments = 0;
    for (slot, seg) in iov.iter_mut().zip(wbuf.iter()) {
        *slot = IoSlice::new(&seg[skip..]);
        skip = 0;
        segments += 1;
    }
    let written = w.write_vectored(&iov[..segments])?;
    if written == 0 {
        return Err(io::ErrorKind::WriteZero.into());
    }
    let mut left = written;
    while let Some(front) = wbuf.front().filter(|f| left >= f.len() - *off) {
        left -= front.len() - *off;
        *off = 0;
        wbuf.pop_front();
    }
    *off += left;
    Ok(written)
}

/// Start the reactor: `cfg.threads` event loops (loop 0 owns the
/// listener).
///
/// Fails if the poller is unsupported on this target (caller falls back
/// to the threaded transport) or thread spawning fails.
pub(crate) fn spawn(
    acceptor: Arc<TcpAcceptor>,
    ctx: Arc<AdmitCtx>,
    cfg: ReactorConfig,
) -> io::Result<ReactorHandle> {
    let telemetry = ctx.engine.telemetry().clone();
    let n = cfg.threads.max(1);
    acceptor.set_nonblocking(true)?;

    let mut pollers = Vec::with_capacity(n);
    let mut wakers = Vec::with_capacity(n);
    for _ in 0..n {
        let poller = Poller::new()?;
        wakers.push(poller.waker());
        pollers.push(poller);
    }
    if let Some(p0) = pollers.first_mut() {
        p0.add(acceptor.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut conn_txs = Vec::with_capacity(n);
    let mut conn_rxs = VecDeque::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel::<TcpStream>();
        conn_txs.push(tx);
        conn_rxs.push_back(rx);
    }

    let mut threads = Vec::with_capacity(n);
    for (idx, poller) in pollers.into_iter().enumerate() {
        let Some(conn_rx) = conn_rxs.pop_front() else {
            break;
        };
        let (route, comp_rx) = Route::channel(Some(poller.waker()), telemetry.clone());
        let thread = ReactorThread {
            idx,
            poller,
            slots: Vec::new(),
            free: Vec::new(),
            hot: VecDeque::new(),
            events: Vec::new(),
            conn_rx,
            comp_rx,
            route,
            ctx: ctx.clone(),
            telemetry: telemetry.clone(),
            cfg,
            stop: stop.clone(),
            acceptor: (idx == 0).then(|| acceptor.clone()),
            assign: if idx == 0 {
                conn_txs.clone()
            } else {
                Vec::new()
            },
            assign_wakers: if idx == 0 { wakers.clone() } else { Vec::new() },
            rr: 0,
            next_accept_at: None,
        };
        match std::thread::Builder::new()
            .name(format!("iofwd-reactor-{idx}"))
            .spawn(move || thread.run())
        {
            Ok(h) => threads.push(h),
            Err(e) => {
                stop.store(true, Ordering::Release);
                for w in &wakers {
                    w.wake();
                }
                for t in threads {
                    let _ = t.join();
                }
                return Err(e);
            }
        }
    }
    Ok(ReactorHandle {
        stop,
        wakers,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemSinkBackend;
    use crate::client::Client;
    use crate::client::ClientError;
    use crate::server::{ForwardingMode, IonServer, ServerConfig};
    use crate::transport::tcp::{TcpAcceptor, TcpConn};
    use bytes::BytesMut;
    use iofwd_proto::{Errno, Fd, OpenFlags, Request, Response};
    use std::io::Read;

    fn reactor_server(
        mode: ForwardingMode,
        cfg: ReactorConfig,
    ) -> (IonServer, std::net::SocketAddr) {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
        let addr = acceptor.local_addr().expect("addr");
        let server = IonServer::spawn_reactor(
            acceptor,
            Arc::new(MemSinkBackend::new()),
            ServerConfig::new(mode),
            cfg,
        )
        .expect("spawn reactor");
        (server, addr)
    }

    /// Read frames off a raw socket until `n` responses have arrived.
    fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<Frame> {
        let mut buf = BytesMut::new();
        let mut out = Vec::new();
        while out.len() < n {
            match Frame::decode(&buf).expect("well-formed response stream") {
                Some((frame, used)) => {
                    let _ = buf.split_to(used);
                    out.push(frame);
                }
                None => {
                    let got = buf.read_from(stream, 4096).expect("read");
                    assert!(got > 0, "server hung up early ({}/{n} replies)", out.len());
                }
            }
        }
        out
    }

    #[test]
    fn more_loops_or_workers_than_telemetry_rows_are_refused() {
        let max = crate::telemetry::MAX_WORKERS;
        for (workers, threads) in [(max + 1, 1), (1, max + 1)] {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
            let config = ServerConfig::new(ForwardingMode::Sched { workers });
            let cfg = ReactorConfig {
                threads,
                ..ReactorConfig::default()
            };
            let backend = Arc::new(MemSinkBackend::new());
            let refused = IonServer::spawn_reactor(acceptor, backend, config, cfg).err();
            assert_eq!(refused.map(|e| e.kind()), Some(io::ErrorKind::InvalidInput));
        }
    }

    /// Answers `stat` by unwinding, as a worker hit by a bug would.
    struct PanicOnStat;

    impl crate::backend::Backend for PanicOnStat {
        fn open(
            &self,
            _: &str,
            _: OpenFlags,
            _: u32,
        ) -> Result<Box<dyn crate::backend::BackendObject>, Errno> {
            Err(Errno::NoSys)
        }
        fn stat(&self, _: &str) -> Result<iofwd_proto::FileStat, Errno> {
            panic!("the worker unwinds mid-op")
        }
        fn unlink(&self, _: &str) -> Result<(), Errno> {
            Err(Errno::NoSys)
        }
        fn mkdir(&self, _: &str, _: u32) -> Result<(), Errno> {
            Err(Errno::NoSys)
        }
        fn readdir(&self, _: &str) -> Result<Vec<String>, Errno> {
            Err(Errno::NoSys)
        }
    }

    /// Exactly once, end to end: an op whose worker unwinds is answered
    /// `EIO`, and its connection is closed and its slot reclaimed.
    #[test]
    fn an_op_whose_worker_unwinds_is_answered_and_closes_its_connection() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
        let addr = acceptor.local_addr().expect("addr");
        let config = ServerConfig::new(ForwardingMode::Sched { workers: 2 });
        let server = IonServer::spawn_reactor(
            acceptor,
            Arc::new(PanicOnStat),
            config,
            ReactorConfig::default(),
        )
        .expect("spawn reactor");
        // An unanswered op fails the test on the timeout, not by hanging.
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut client = Client::connect(Box::new(TcpConn::from_stream(stream).expect("conn")));
        let answered = client.stat("/x").err();
        assert!(matches!(answered, Some(ClientError::Remote(Errno::Io))));
        assert!(client.stat("/x").is_err(), "the connection is closed");
        let telemetry = server.telemetry();
        let deadline = Instant::now() + Duration::from_secs(5);
        while telemetry.conns_open.get() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(telemetry.conns_open.get(), 0, "the slot is reclaimed");
        server.shutdown();
    }

    #[test]
    fn partial_frame_reads_reassemble_across_many_small_writes() {
        let (server, addr) = reactor_server(
            ForwardingMode::Sched { workers: 1 },
            ReactorConfig::default(),
        );
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");

        // One open + one pwrite, dribbled onto the wire a few bytes at
        // a time: the reactor must hold partial frames across many
        // read(2)s and admit each frame exactly once.
        let payload = vec![0xabu8; 512];
        let open = Frame::request(
            7,
            1,
            &Request::Open {
                path: "/dribble".into(),
                flags: OpenFlags::CREATE | OpenFlags::WRONLY,
                mode: 0o644,
            },
            Bytes::new(),
        )
        .encode();
        for chunk in open.chunks(7) {
            stream.write_all(chunk).expect("write chunk");
            stream.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(1));
        }
        let open_reply = read_responses(&mut stream, 1).remove(0);
        assert_eq!(open_reply.seq, 1);
        let fd = match open_reply.decode_response().expect("open resp") {
            Response::Ok { ret } => Fd(ret as u32),
            other => panic!("open failed: {other:?}"),
        };
        let pwrite = Frame::request(
            7,
            2,
            &Request::Pwrite {
                fd,
                offset: 0,
                len: payload.len() as u64,
            },
            Bytes::copy_from_slice(&payload),
        )
        .encode();
        for chunk in pwrite.chunks(7) {
            stream.write_all(chunk).expect("write chunk");
            stream.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(1));
        }
        let reply = read_responses(&mut stream, 1).remove(0);
        assert_eq!(reply.seq, 2);
        match reply.decode_response().expect("pwrite resp") {
            Response::Ok { ret } => assert_eq!(ret, payload.len() as i64),
            other => panic!("pwrite failed: {other:?}"),
        }
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn write_backpressure_parks_the_reader_and_every_reply_still_arrives() {
        let cfg = ReactorConfig {
            // Tiny reply budget so pipelined 64 KiB pread responses
            // trip the write-side park immediately.
            max_write_buffer: 4096,
            ..ReactorConfig::default()
        };
        // One worker draining the FIFO then guarantees per-client
        // reply order, so the ordering assertion below is meaningful.
        let (server, addr) = reactor_server(ForwardingMode::Sched { workers: 1 }, cfg);
        let telemetry = server.telemetry();

        let mut setup = Client::connect(Box::new(TcpConn::connect(addr).expect("connect")));
        let fd = setup
            .open("/big", OpenFlags::CREATE | OpenFlags::WRONLY, 0o644)
            .expect("open");
        let block = vec![0x5au8; 64 * 1024];
        setup.pwrite(fd, 0, &block).expect("pwrite");
        setup.close(fd).expect("close");
        setup.shutdown().expect("shutdown req");

        // Pipeline 128 preads (8 MiB of replies) without reading any of
        // them: the socket fills, the reactor's write buffer exceeds its
        // cap, and the connection must be parked — not killed, not
        // replied to out of order.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .write_all(
                &Frame::request(
                    9,
                    0,
                    &Request::Open {
                        path: "/big".into(),
                        flags: OpenFlags::RDONLY,
                        mode: 0,
                    },
                    Bytes::new(),
                )
                .encode(),
            )
            .expect("open");
        let open_reply = read_responses(&mut stream, 1).remove(0);
        let fd = match open_reply.decode_response().expect("open resp") {
            Response::Ok { ret } => Fd(ret as u32),
            other => panic!("open failed: {other:?}"),
        };
        let total = 128u64;
        let replies = {
            let mut wire = Vec::new();
            for seq in 1..=total {
                wire.extend_from_slice(
                    &Frame::request(
                        9,
                        seq,
                        &Request::Pread {
                            fd,
                            offset: 0,
                            len: block.len() as u64,
                        },
                        Bytes::new(),
                    )
                    .encode(),
                );
            }
            stream.write_all(&wire).expect("pipeline");
            stream.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(100));
            read_responses(&mut stream, total as usize)
        };
        for (i, reply) in replies.iter().enumerate() {
            let i = i + 1;
            assert_eq!(reply.seq, i as u64, "replies must come back in order");
            match reply.decode_response().expect("pread resp") {
                Response::Ok { ret } => assert_eq!(ret, block.len() as i64),
                other => panic!("pread {i} failed: {other:?}"),
            }
            assert_eq!(reply.data.len(), block.len());
        }
        assert!(
            telemetry.backpressure_events.get() > 0,
            "8 MiB of unread replies against a 4 KiB budget must park"
        );
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn injected_accept_faults_do_not_kill_the_reactor_listener() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
        let addr = acceptor.local_addr().expect("addr");
        // Every second accept attempt fails with a synthetic EMFILE
        // *before* the kernel accept, so the pending client stays in
        // the backlog and is picked up on the post-backoff retry.
        acceptor.set_accept_fault(2);
        let server = IonServer::spawn_reactor(
            acceptor,
            Arc::new(MemSinkBackend::new()),
            ServerConfig::new(ForwardingMode::AsyncStaged {
                workers: 1,
                bml_capacity: 1 << 20,
            }),
            ReactorConfig::default(),
        )
        .expect("spawn reactor");
        let telemetry = server.telemetry();

        for i in 0..6 {
            let mut client = Client::connect(Box::new(TcpConn::connect(addr).expect("connect")));
            let fd = client
                .open(
                    &format!("/chaos-{i}"),
                    OpenFlags::CREATE | OpenFlags::WRONLY,
                    0o644,
                )
                .expect("open");
            client.pwrite(fd, 0, b"still alive").expect("pwrite");
            client.close(fd).expect("close");
            client.shutdown().expect("shutdown req");
        }
        assert!(
            telemetry.accept_errors.get() >= 3,
            "fault injection must have fired"
        );
        server.shutdown();
    }

    #[test]
    fn disconnect_mid_pipeline_reclaims_descriptors() {
        let (server, addr) = reactor_server(
            ForwardingMode::AsyncStaged {
                workers: 1,
                bml_capacity: 1 << 20,
            },
            ReactorConfig::default(),
        );
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let wire = Frame::request(
                3,
                1,
                &Request::Open {
                    path: "/abandoned".into(),
                    flags: OpenFlags::CREATE | OpenFlags::WRONLY,
                    mode: 0o644,
                },
                Bytes::new(),
            )
            .encode();
            stream.write_all(&wire).expect("write");
            // Wait for the open reply so the descriptor is definitely
            // allocated and session-tracked, then vanish without Close.
            let mut byte = [0u8; 1];
            assert!(stream.read(&mut byte).expect("reply") > 0);
            std::mem::drop(stream);
        }
        // The reactor notices the EOF, tears the slot down, and reclaims
        // the orphaned descriptor.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.open_descriptors() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            server.open_descriptors(),
            0,
            "orphaned fd must be reclaimed"
        );
        server.shutdown();
    }

    #[test]
    fn received_payloads_pin_no_more_than_their_bml_class() {
        // The reactor's receive is `ConnState::reader` fed from the
        // non-blocking socket; what `pump` admits is what this yields.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpConn::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nonblocking(true).expect("nonblocking");
        let (route, _) = Route::channel(None, Arc::new(Telemetry::disabled()));
        let mut conn = ConnState::new(stream, Session::new(route));
        for (seq, len) in [4096usize, 64 << 10, 1 << 20].into_iter().enumerate() {
            let req = Request::Write {
                fd: Fd(3),
                len: len as u64,
            };
            let sent = Frame::request(1, seq as u64, &req, Bytes::from(vec![9u8; len]));
            let got = std::thread::scope(|scope| {
                scope.spawn(|| crate::transport::Conn::send(&client, sent.clone()));
                loop {
                    match conn.reader.read_frame(&mut conn.stream) {
                        Ok(frame) => break frame.expect("frame before EOF"),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_micros(50));
                        }
                        Err(e) => panic!("receive failed: {e}"),
                    }
                }
            });
            assert!(got == sent);
            crate::transport::tests::assert_pins_at_most_its_bml_class(got.data);
        }
    }

    /// Takes the scripted number of bytes per call, then everything.
    struct ShortWriter {
        takes: VecDeque<usize>,
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.takes.pop_front().unwrap_or(usize::MAX);
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(room);
                self.out.extend_from_slice(&buf[..n]);
                room -= n;
                taken += n;
            }
            Ok(taken)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_anywhere_in_a_split_reply_resume_at_the_right_byte() {
        // Replies as `enqueue_wire` queues them: a small one whole, the
        // large ones as header and payload segments — 14 segments here,
        // more than one vectored write takes.
        let split = Frame::SPLIT_SEND_MIN;
        let replies: Vec<Frame> = [
            100usize,
            64 << 10,
            split,
            0,
            1 << 20,
            split + 1,
            32 << 10,
            20_000,
        ]
        .into_iter()
        .enumerate()
        .map(|(seq, len)| {
            let data: Vec<u8> = (0..len).map(|b| (b * 7 + seq) as u8).collect();
            let resp = Response::Ok { ret: len as i64 };
            Frame::response(4, seq as u64, &resp, Bytes::from(data))
        })
        .collect();
        let expect: Vec<u8> = replies.iter().flat_map(|f| f.encode().to_vec()).collect();
        let header = replies[1].encode_header().len();
        let small = replies[0].wire_len();
        // Stop inside the first large reply's header, exactly on its
        // header/payload boundary, inside its payload, exactly at its
        // end, one byte into the next header; then one byte at a time
        // for a while.
        let mut takes = vec![small + 5, header - 5, 1000, (64 << 10) - 1000, 1];
        takes.extend([1; 100]);
        let mut wbuf = VecDeque::new();
        for f in &replies {
            if f.data.len() >= Frame::SPLIT_SEND_MIN {
                wbuf.push_back(f.encode_header());
                wbuf.push_back(f.data.clone());
            } else {
                wbuf.push_back(f.encode());
            }
        }
        let mut w = ShortWriter {
            takes: takes.into(),
            out: Vec::new(),
            calls: 0,
        };
        let mut off = 0;
        let mut total = 0;
        while !wbuf.is_empty() {
            total += write_segments(&mut w, &mut wbuf, &mut off).expect("write");
        }
        assert_eq!((off, total), (0, expect.len()));
        assert!(w.out == expect, "replies must arrive intact and in order");
        // The ten segments left after the scripted short writes go out
        // in two calls, headers and payloads together, across frames.
        assert_eq!(w.calls, 5 + 100 + 2);
    }
}
