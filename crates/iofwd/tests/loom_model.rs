//! Model-checked concurrency tests for the BML, the work queue, the
//! descriptor lanes of the descriptor database, and the telemetry
//! flight recorder — the
//! protocols whose blocking/hand-off or lock-free publication logic
//! cannot be trusted to a handful of wall-clock interleavings.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p iofwd --test loom_model --release
//! ```
//!
//! (or `cargo xtask loom`). Under `--cfg loom` every lock and condvar
//! of the crate's sync seam (`iofwd::sync`) is `loomlite`'s, whose
//! cooperative scheduler exhaustively enumerates every thread
//! interleaving at lock/condvar granularity (channels stay `std`). An assertion failing in ANY schedule, or a
//! schedule with no runnable thread (lost wakeup / deadlock), fails the
//! test with a panic naming the schedule.
//!
//! Each model stays at 2–3 threads with short critical-section chains;
//! state-space growth is exponential.

#![cfg(loom)]

use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use iofwd::backend::{Backend, MemSinkBackend};
use iofwd::bml::Bml;
use iofwd::descdb::{BeginError, DescDb};
use iofwd::server::{Engine, ReplyTo, Route, StagedPart, WorkItem, WorkQueue};
use iofwd::telemetry::Telemetry;
use iofwd_proto::{Errno, Fd, OpId, OpenFlags, Request, Response};
use loomlite::sync::Arc;
use loomlite::thread;

const BLOCK: usize = 4096; // smallest BML class

/// A fresh registry for one schedule: the models read their witnesses
/// where the daemon counts.
fn registry() -> std::sync::Arc<Telemetry> {
    std::sync::Arc::new(Telemetry::new())
}

/// §IV: "the I/O operation is blocked until ... sufficient memory is
/// available". Three competing acquirers against a two-block budget:
/// in EVERY interleaving the cap holds, nobody is lost (all three
/// acquisitions complete — a lost wakeup would surface as a deadlock),
/// and all memory returns.
#[test]
fn bml_capacity_never_exceeded() {
    loomlite::model(|| {
        let tel = registry();
        let bml = Bml::with_telemetry(2 * BLOCK as u64, tel.clone());
        let mut handles = Vec::new();
        for _ in 0..2 {
            let bml = bml.clone();
            handles.push(thread::spawn(move || {
                let buf = bml.acquire(BLOCK).expect("BML never closes in this model");
                assert!(bml.outstanding() <= 2 * BLOCK as u64, "capacity exceeded");
                drop(buf);
            }));
        }
        let buf = bml.acquire(BLOCK).expect("BML never closes in this model");
        assert!(bml.outstanding() <= 2 * BLOCK as u64, "capacity exceeded");
        drop(buf);
        for h in handles {
            h.join().expect("acquirer panicked");
        }
        assert_eq!(bml.outstanding(), 0, "memory leaked");
        assert_eq!(tel.slab_hits.get() + tel.slab_misses.get(), 3);
        assert!(tel.bml_occupancy.peak() <= 2 * BLOCK as i64);
    });
}

/// FIFO hand-off, no barging: when a release finds a blocked waiter,
/// the freed capacity is reserved for that waiter *inside the release*
/// — a `try_acquire` racing in afterwards may only succeed once the
/// waiter has been fully served (acquired AND released). An
/// implementation that merely notifies without reserving lets
/// `try_acquire` win while the waiter is still blocked, which this
/// model catches. The cross-schedule counters prove both the
/// reservation path and the waiter-finished-first path are exercised.
#[test]
fn bml_release_hands_off_to_queued_waiter_fifo() {
    static TRY_LOST: AtomicUsize = AtomicUsize::new(0);
    static TRY_WON_AFTER_DONE: AtomicUsize = AtomicUsize::new(0);
    TRY_LOST.store(0, Ordering::SeqCst);
    TRY_WON_AFTER_DONE.store(0, Ordering::SeqCst);
    loomlite::model(|| {
        let bml = Bml::new(BLOCK as u64); // room for exactly one block
        let hold = bml.acquire(BLOCK).expect("open");
        // Set to true by the waiter BEFORE it releases its buffer, so
        // `done == false` while the waiter is queued, granted, or still
        // holding memory — in all those states try_acquire must fail.
        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let waiter = {
            let bml = bml.clone();
            let done = done.clone();
            thread::spawn(move || {
                let buf = bml.acquire(BLOCK).expect("open");
                done.store(true, Ordering::SeqCst);
                drop(buf);
            })
        };
        // Whether the waiter has queued yet is schedule-dependent; once
        // it HAS queued it can only leave by being granted, so observing
        // `queued` here is stable across the release below.
        let queued = bml.waiter_count() == 1;
        drop(hold); // release: must reserve the block for the waiter
        if queued {
            match bml.try_acquire(BLOCK) {
                Some(_) => {
                    assert!(
                        done.load(Ordering::SeqCst),
                        "try_acquire barged past a still-waiting queued acquirer"
                    );
                    TRY_WON_AFTER_DONE.fetch_add(1, Ordering::SeqCst);
                }
                None => {
                    TRY_LOST.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        waiter.join().expect("waiter panicked");
        assert_eq!(bml.outstanding(), 0);
    });
    assert!(
        TRY_LOST.load(Ordering::SeqCst) > 0,
        "no schedule exercised the reservation (try_acquire-fails) branch"
    );
    assert!(
        TRY_WON_AFTER_DONE.load(Ordering::SeqCst) > 0,
        "no schedule exercised the waiter-finished-first branch"
    );
}

/// Daemon shutdown: close() must wake every blocked acquisition (which
/// then fails with NoMem) and refuse new ones — a waiter sleeping
/// through close would deadlock the model.
#[test]
fn bml_close_wakes_all_blocked_waiters() {
    loomlite::model(|| {
        let bml = Bml::new(BLOCK as u64);
        let hold = bml.acquire(BLOCK).expect("open");
        let mut handles = Vec::new();
        for _ in 0..2 {
            let bml = bml.clone();
            handles.push(thread::spawn(move || bml.acquire(BLOCK).is_err()));
        }
        bml.close();
        for h in handles {
            assert!(
                h.join().expect("waiter panicked"),
                "acquire returned a buffer after close"
            );
        }
        drop(hold);
        assert_eq!(bml.outstanding(), 0);
        assert!(bml.try_acquire(BLOCK).is_none(), "try_acquire after close");
    });
}

/// A span whose every field carries the same tag, so any torn slot —
/// words from two different writers — is detectable field-by-field.
fn tag_span(tag: u64) -> iofwd::telemetry::OpSpan {
    let mut s = iofwd::telemetry::OpSpan::begin(iofwd::telemetry::OpKind::Write, tag, tag, tag);
    s.bytes = tag;
    s.enqueue_ns = tag;
    s.dispatch_ns = tag;
    s.backend_start_ns = tag;
    s.backend_done_ns = tag;
    s.reply_ns = tag;
    s
}

/// Read the ring from `after` and assert what comes back is whole
/// (un-torn: every field carries one writer's tag), in strictly
/// increasing ticket order, and never from before `after`.
fn read_whole(
    ring: &iofwd::telemetry::FlightRecorder,
    after: u64,
) -> Vec<(u64, iofwd::telemetry::OpSpan)> {
    let (oldest, next, held) = ring.since(after);
    assert!(oldest <= next);
    for (i, (ticket, rec)) in held.iter().enumerate() {
        let tag = rec.client;
        assert!(
            rec.seq == tag
                && rec.bytes == tag
                && rec.arrival_ns == tag
                && rec.enqueue_ns == tag
                && rec.dispatch_ns == tag
                && rec.backend_start_ns == tag
                && rec.backend_done_ns == tag
                && rec.reply_ns == tag,
            "torn flight-recorder slot: {rec:?}"
        );
        assert!(*ticket >= after.max(oldest) && *ticket < next);
        assert!(i == 0 || held[i - 1].0 < *ticket, "tickets out of order");
    }
    held
}

/// The telemetry flight recorder's seqlock slots: two writers race for a
/// one-slot ring while a reader reads through `since` mid-protocol. In
/// every explored interleaving the read observes only fully-written
/// records (each record's ten words all carry one writer's tag) in
/// strictly increasing ticket order, each under the ticket its writer
/// drew; no writer blocks, and every submission is either published or
/// counted as dropped. `chaos()` yield points inside `record`/`read_slot`
/// (see iofwd-telemetry's ring.rs) give the model scheduler its
/// preemption hooks mid-write and mid-read.
#[test]
fn flight_recorder_snapshot_never_tears() {
    loomlite::model(|| {
        let ring = Arc::new(iofwd::telemetry::FlightRecorder::new(1));
        let writers: Vec<_> = [1_111u64, 2_222]
            .into_iter()
            .map(|tag| {
                let ring = ring.clone();
                thread::spawn(move || (tag, ring.record(&tag_span(tag))))
            })
            .collect();
        // Concurrent reader: runs interleaved with the writers.
        let mut seen = read_whole(&ring, 0);
        let drawn: Vec<(u64, u64)> = writers
            .into_iter()
            .map(|w| w.join().expect("writer panicked"))
            .collect();
        // Quiescent: submissions are conserved across published + dropped.
        let published = read_whole(&ring, 0);
        assert_eq!(ring.recorded(), 2);
        assert!(
            published.len() as u64 + ring.dropped() >= 1,
            "both submissions vanished without a drop count"
        );
        // Every record came back under the ticket its writer drew.
        seen.extend(published);
        for (ticket, rec) in &seen {
            assert!(drawn.contains(&(rec.client, *ticket)), "{ticket}: {rec:?}");
        }
    });
}

fn tagged(tag: u32) -> WorkItem {
    // The reply receiver is dropped immediately: nothing executes these
    // items, and an item dropped unanswered folds its span into the
    // sink's disabled registry.
    let (route, _) = Route::channel(None, std::sync::Arc::new(Telemetry::disabled()));
    WorkItem::Sync {
        req: Request::Fsync { fd: Fd(tag) },
        data: Bytes::new(),
        reply: ReplyTo::new(route, Default::default(), Default::default()),
        lane: Some(Fd(1)),
    }
}

fn tag_of(item: &WorkItem) -> u32 {
    match item {
        WorkItem::Sync {
            req: Request::Fsync { fd },
            ..
        } => fd.0,
        _ => u32::MAX,
    }
}

/// One shard is the paper's shared FIFO: two producers racing to
/// enqueue; whatever the interleaving, each producer's items drain in
/// its program order and nothing is lost or duplicated.
#[test]
fn queue_preserves_per_producer_fifo_order() {
    loomlite::model(|| {
        let q = Arc::new(WorkQueue::new(1));
        let producers: Vec<_> = [(1u32, 2u32), (3, 4)]
            .into_iter()
            .map(|(a, b)| {
                let q = q.clone();
                thread::spawn(move || {
                    q.push(tagged(a)).expect("queue is open");
                    q.push(tagged(b)).expect("queue is open");
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer panicked");
        }
        let tags: Vec<u32> = q.pop_batch(0, 8).iter().map(tag_of).collect();
        assert_eq!(tags.len(), 4, "items lost or duplicated: {tags:?}");
        let pos = |t: u32| tags.iter().position(|&x| x == t).expect("missing item");
        assert!(pos(1) < pos(2), "producer A reordered: {tags:?}");
        assert!(pos(3) < pos(4), "producer B reordered: {tags:?}");
        assert_eq!(q.depth(), 0);
    });
}

/// Worker-pool shutdown: with workers blocked in `pop_batch`, a racing
/// push + close must deliver the item to exactly one worker and release
/// the other with an empty batch — never strand either (the classic
/// notify_one lost-wakeup shape).
#[test]
fn queue_close_releases_blocked_workers_exactly_once() {
    loomlite::model(|| {
        let q = Arc::new(WorkQueue::new(2));
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let q = q.clone();
                thread::spawn(move || {
                    let mut got = 0usize;
                    loop {
                        let batch = q.pop_batch(w, 4);
                        if batch.is_empty() {
                            return got; // closed and drained
                        }
                        got += batch.len();
                    }
                })
            })
            .collect();
        q.push(tagged(7)).expect("queue is open");
        q.close();
        let delivered: usize = workers
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .sum();
        assert_eq!(delivered, 1, "item lost or double-delivered");
        assert_eq!(q.depth(), 0);
    });
}

/// A push racing close: whichever order the model explores, the push
/// either lands (and the item drains) or comes back as `QueueClosed`
/// with the item intact — it must never panic and never leak the item.
/// Before this contract, `push` asserted `!closed`, so a handler racing
/// daemon shutdown took the whole process down. The cross-schedule
/// counters prove both outcomes are actually explored.
#[test]
fn queue_push_racing_close_returns_queue_closed() {
    static ACCEPTED: AtomicUsize = AtomicUsize::new(0);
    static REJECTED: AtomicUsize = AtomicUsize::new(0);
    ACCEPTED.store(0, Ordering::SeqCst);
    REJECTED.store(0, Ordering::SeqCst);
    loomlite::model(|| {
        let q = Arc::new(WorkQueue::new(1));
        let pusher = {
            let q = q.clone();
            thread::spawn(move || match q.push(tagged(9)) {
                Ok(()) => true,
                Err(closed) => {
                    assert_eq!(tag_of(&closed.0), 9, "rejected item mangled");
                    false
                }
            })
        };
        q.close();
        let accepted = pusher.join().expect("pusher panicked");
        let drained = q.pop_batch(0, 4).len();
        if accepted {
            ACCEPTED.fetch_add(1, Ordering::SeqCst);
            assert_eq!(drained, 1, "accepted item lost");
        } else {
            REJECTED.fetch_add(1, Ordering::SeqCst);
            assert_eq!(drained, 0, "rejected item still reached the queue");
        }
    });
    assert!(
        ACCEPTED.load(Ordering::SeqCst) > 0,
        "no schedule explored push-before-close"
    );
    assert!(
        REJECTED.load(Ordering::SeqCst) > 0,
        "no schedule explored push-after-close"
    );
}

/// Execution slots (§IV's bound, shared by workers and callers that run
/// an op in place): a one-worker queue has one slot. A worker pops a
/// client-0 item and takes the slot to run it while the main thread,
/// for another client, tries to claim the slot to run an op itself. In
/// EVERY interleaving at most one of them executes at a time; a worker
/// that popped while the caller held the slot is woken by its release
/// (a missed wakeup deadlocks the model); and client 0's popped item
/// counts as waiting until the worker holds the slot, so a claim for
/// client 0 never overtakes it. The cross-schedule counters prove both
/// the claim and the refusal are explored.
#[test]
fn execution_slots_never_exceed_workers_and_a_release_wakes_a_waiting_worker() {
    static CLAIMED: AtomicUsize = AtomicUsize::new(0);
    static REFUSED: AtomicUsize = AtomicUsize::new(0);
    CLAIMED.store(0, Ordering::SeqCst);
    REFUSED.store(0, Ordering::SeqCst);
    loomlite::model(|| {
        let q = Arc::new(WorkQueue::new(1));
        let running = std::sync::Arc::new(AtomicUsize::new(0));
        let started = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        q.push(tagged(1)).expect("queue is open"); // client 0
        let worker = {
            let (q, running, started) = (q.clone(), running.clone(), started.clone());
            thread::spawn(move || {
                let mut items = Vec::new();
                let slot = q
                    .pop_batch_into(0, 4, &mut items)
                    .expect("an item is queued");
                started.store(true, Ordering::SeqCst);
                assert_eq!(running.fetch_add(1, Ordering::SeqCst), 0, "two ops at once");
                let _ = q.client_queued(9); // yield point while executing
                running.fetch_sub(1, Ordering::SeqCst);
                drop(slot);
                items.len()
            })
        };
        match q.try_claim(7) {
            Some(slot) => {
                assert_eq!(running.fetch_add(1, Ordering::SeqCst), 0, "two ops at once");
                let _ = q.client_queued(9); // yield point while executing
                running.fetch_sub(1, Ordering::SeqCst);
                drop(slot);
                CLAIMED.fetch_add(1, Ordering::SeqCst);
            }
            None => {
                REFUSED.fetch_add(1, Ordering::SeqCst);
            }
        }
        if let Some(slot) = q.try_claim(0) {
            assert!(
                started.load(Ordering::SeqCst),
                "a claim overtook the client's own popped, still-waiting item"
            );
            drop(slot);
        }
        assert_eq!(worker.join().expect("worker panicked"), 1);
        assert!(q.try_claim(7).is_some(), "a slot was never given back");
    });
    assert!(
        CLAIMED.load(Ordering::SeqCst) > 0,
        "no schedule let the caller claim the slot"
    );
    assert!(
        REFUSED.load(Ordering::SeqCst) > 0,
        "no schedule refused the caller while the worker ran"
    );
}

/// A descriptor database with one descriptor open on `backend`.
fn open_descriptor(backend: &MemSinkBackend) -> (Arc<DescDb>, Fd) {
    let db = Arc::new(DescDb::new());
    let obj = backend
        .open("/lane", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
        .expect("open");
    let fd = db.insert(obj, "/lane").expect("insert");
    (db, fd)
}

/// Join `fd`'s lane with an op that does not close it.
fn admit(db: &DescDb, fd: Fd, item: WorkItem) -> Option<WorkItem> {
    db.join(fd, item, false, |i| i)
        .unwrap_or_else(|_| panic!("an open descriptor's lane refused an op"))
}

fn staged_item(bml: &Bml, fd: Fd, tag: u64, offset: Option<u64>, len: usize) -> WorkItem {
    let mut buf = bml.acquire(len).expect("BML open and under budget");
    buf.fill_from(&vec![tag as u8; len]);
    WorkItem::StagedWrite {
        fd,
        part: StagedPart {
            op: OpId(tag),
            offset,
            buf,
            span: iofwd::telemetry::OpSpan::default(),
        },
    }
}

fn staged_tag(item: &WorkItem) -> u64 {
    match item {
        WorkItem::StagedWrite { part, .. } => part.op.0,
        _ => u64::MAX,
    }
}

/// The PR 5 coalescing path racing shutdown: a worker holds fd 1's lane
/// (op 0 in flight), harvests the contiguous parked successor (op 1)
/// into its batch, and lets its drop-safe `CompletionGuard` re-enqueue
/// the non-contiguous remainder (op 2) — while another thread closes
/// the work queue. Depending on the schedule the re-enqueue either
/// lands on the queue (drained at shutdown) or loses to close and heads
/// its lane again (collected by `DescDb::drain_all`). In EVERY
/// interleaving each constituent op is *either* executed *or* deferred
/// to the shutdown drain — never both, never neither — and no BML
/// buffer is stranded. The cross-schedule counters prove both race
/// outcomes are actually explored.
#[test]
fn coalesce_harvest_racing_close_never_splits_or_strands_ops() {
    static ENQUEUED: AtomicUsize = AtomicUsize::new(0);
    static ORPHANED: AtomicUsize = AtomicUsize::new(0);
    ENQUEUED.store(0, Ordering::SeqCst);
    ORPHANED.store(0, Ordering::SeqCst);
    loomlite::model(|| {
        let bml = Bml::new(1 << 20);
        let queue = Arc::new(WorkQueue::new(1));
        let (db, fd) = open_descriptor(&MemSinkBackend::new());
        // Op 0 in flight on the lane; op 1 parked contiguous with it;
        // op 2 parked behind a gap (stays after the harvest, so the
        // completion guard has a successor to re-enqueue).
        let inflight = admit(&db, fd, staged_item(&bml, fd, 0, Some(0), 100))
            .expect("fresh lane admits the first item");
        assert!(admit(&db, fd, staged_item(&bml, fd, 1, Some(100), 50)).is_none());
        assert!(admit(&db, fd, staged_item(&bml, fd, 2, Some(999), 50)).is_none());

        let worker = {
            let db = db.clone();
            let queue = queue.clone();
            thread::spawn(move || {
                let guard = db.completion_guard(fd, &queue);
                let mut batch = Vec::new();
                db.harvest_contiguous(fd, Some(100), 16, 1 << 20, &mut batch);
                let mut executed: Vec<u64> = vec![staged_tag(&inflight)];
                executed.extend(batch.iter().map(|part| part.op.0));
                // "Execute": buffers return to the BML as items drop.
                drop(inflight);
                drop(batch);
                drop(guard); // completes the lane, re-enqueues op 2
                executed
            })
        };
        queue.close();
        let executed = worker.join().expect("worker panicked");

        // Shutdown drain: whatever landed on the queue before close
        // lost the race into it, plus every parked/orphaned item.
        let mut deferred: Vec<u64> = queue.pop_batch(0, 16).iter().map(staged_tag).collect();
        if !deferred.is_empty() {
            ENQUEUED.fetch_add(1, Ordering::SeqCst);
        }
        let drained = db.drain_all();
        if !drained.is_empty() {
            ORPHANED.fetch_add(1, Ordering::SeqCst);
        }
        deferred.extend(drained.iter().map(staged_tag));
        drop(drained);

        assert_eq!(
            executed,
            vec![0, 1],
            "harvest must take exactly the contiguous prefix"
        );
        assert_eq!(
            deferred,
            vec![2],
            "op 2 deferred exactly once: {deferred:?}"
        );
        for op in &executed {
            assert!(!deferred.contains(op), "op {op} both executed and deferred");
        }
        assert_eq!(db.parked(), 0);
        assert_eq!(bml.outstanding(), 0, "BML buffer stranded at shutdown");
    });
    assert!(
        ENQUEUED.load(Ordering::SeqCst) > 0,
        "no schedule explored re-enqueue-before-close"
    );
    assert!(
        ORPHANED.load(Ordering::SeqCst) > 0,
        "no schedule explored the orphan (close-won) path"
    );
}

/// Stand-in for executing one lane item: at most one item of a lane may
/// run at a time, and the lock taken in the middle is a yield point
/// while it runs.
fn run_lane_item(running: &AtomicUsize, db: &DescDb) {
    assert_eq!(
        running.fetch_add(1, Ordering::SeqCst),
        0,
        "two items of one lane ran at once"
    );
    let _ = db.parked();
    running.fetch_sub(1, Ordering::SeqCst);
}

/// Barriers as lane positions: every op on a descriptor joins its lane,
/// and completing the item ahead releases the next. A worker finishes
/// fd 1's lane head and releases the lane while a handler admits the
/// next op on it. In EVERY interleaving that op runs exactly once —
/// right away if it found the lane idle, else handed back to the worker
/// by the release — never while the head still runs, and the lane ends
/// idle. The cross-schedule counters prove both outcomes are explored.
#[test]
fn lane_release_racing_admission_never_strands_or_overlaps() {
    static HEADED: AtomicUsize = AtomicUsize::new(0);
    static RELEASED: AtomicUsize = AtomicUsize::new(0);
    HEADED.store(0, Ordering::SeqCst);
    RELEASED.store(0, Ordering::SeqCst);
    loomlite::model(|| {
        let queue = Arc::new(WorkQueue::new(1));
        let (db, fd) = open_descriptor(&MemSinkBackend::new());
        let running = std::sync::Arc::new(AtomicUsize::new(0));
        let head = admit(&db, fd, tagged(1)).expect("fresh lane admits the first item");
        let worker = {
            let (db, queue, running) = (db.clone(), queue.clone(), running.clone());
            thread::spawn(move || {
                let guard = db.completion_guard(fd, &queue);
                run_lane_item(&running, &db);
                drop(head);
                let released = guard.release()?;
                let again = db.completion_guard(fd, &queue);
                run_lane_item(&running, &db);
                assert!(again.release().is_none(), "a third item appeared");
                Some(tag_of(&released))
            })
        };
        let here = admit(&db, fd, tagged(2)).map(|item| {
            run_lane_item(&running, &db);
            assert!(db.complete(fd).is_none(), "a third item appeared");
            tag_of(&item)
        });
        let there = worker.join().expect("worker panicked");
        match (here, there) {
            (Some(2), None) => HEADED.fetch_add(1, Ordering::SeqCst),
            (None, Some(2)) => RELEASED.fetch_add(1, Ordering::SeqCst),
            other => panic!("op 2 stranded or run twice: {other:?}"),
        };
        assert_eq!(db.parked(), 0);
        assert_eq!(queue.depth(), 0, "a synchronous successor was pushed");
        assert!(
            admit(&db, fd, tagged(3)).is_some(),
            "the lane was left busy"
        );
    });
    assert!(
        HEADED.load(Ordering::SeqCst) > 0,
        "no schedule let the admission find the lane idle"
    );
    assert!(
        RELEASED.load(Ordering::SeqCst) > 0,
        "no schedule released the admitted op from the lane"
    );
}

/// Run a lane's items as a worker does, from `next` until its
/// completion releases nothing: a staged write lands through the engine,
/// a synchronous op is executed and answered.
fn run_lane(engine: &Engine, fd: Fd, mut next: Option<WorkItem>) {
    while let Some(item) = next {
        match item {
            WorkItem::StagedWrite { part, .. } => {
                let one = std::iter::once((part.op, part.buf.as_slice()));
                engine.execute_coalesced_write(fd, part.offset, one);
            }
            WorkItem::Sync {
                req, data, reply, ..
            } => {
                let (resp, out) = engine.execute(&req, &data);
                reply.deliver(resp, out);
            }
            WorkItem::Reclaim(_) => unreachable!("nothing reclaims here"),
        }
        next = engine.descriptor_db().complete(fd);
    }
}

/// The close race, under the descriptor table's one lock: one client's
/// staged write is admitted while another client's close of the same
/// descriptor joins its lane, and each runs what heads the lane or is
/// released to it. In EVERY interleaving the write either heads the lane
/// ahead of the close and lands before the close removes the
/// descriptor, or is refused `EBADF` at admission — it is never acked
/// `Staged` and then lost — and the close succeeds, the descriptor is
/// gone, and nothing is left in flight, parked or charged. The
/// cross-schedule counters prove both outcomes are explored.
#[test]
fn staged_write_racing_close_lands_or_is_refused_never_lost() {
    static LANDED: AtomicUsize = AtomicUsize::new(0);
    static REFUSED: AtomicUsize = AtomicUsize::new(0);
    LANDED.store(0, Ordering::SeqCst);
    REFUSED.store(0, Ordering::SeqCst);
    loomlite::model(|| {
        let tel = registry();
        let backend = std::sync::Arc::new(MemSinkBackend::new());
        let bml = Bml::new(1 << 20);
        let engine = Arc::new(Engine::with_telemetry(backend.clone(), None, tel.clone()));
        let fd = match engine.execute(
            &Request::Open {
                path: "/raced".into(),
                flags: OpenFlags::RDWR | OpenFlags::CREATE,
                mode: 0o644,
            },
            &Bytes::new(),
        ) {
            (Response::Ok { ret }, _) => Fd(ret as u32),
            (other, _) => panic!("open failed: {other:?}"),
        };
        let writer = {
            let (engine, bml) = (engine.clone(), bml.clone());
            thread::spawn(move || {
                let mut buf = bml.acquire(4096).expect("BML open and under budget");
                buf.fill_from(&[7u8; 4096]);
                let staged = engine.descriptor_db().stage(fd, |op| StagedPart {
                    op,
                    offset: Some(0),
                    buf,
                    span: Default::default(),
                });
                match staged {
                    Ok((_, head)) => {
                        run_lane(&engine, fd, head);
                        true
                    }
                    Err(refused) => {
                        assert_eq!(refused, BeginError::Sync(Errno::BadF));
                        false
                    }
                }
            })
        };
        let (route, replies) = Route::channel(None, registry());
        let close = WorkItem::Sync {
            req: Request::Close { fd },
            data: Bytes::new(),
            reply: ReplyTo::new(route, Default::default(), Default::default()),
            lane: Some(fd),
        };
        let head = engine
            .descriptor_db()
            .join(fd, close, true, |i| i)
            .unwrap_or_else(|_| panic!("the only close was refused"));
        run_lane(&engine, fd, head);
        let acked = writer.join().expect("writer panicked");
        let landed = backend.contents("/raced").map_or(0, |c| c.len());
        assert_eq!(landed, if acked { 4096 } else { 0 }, "acked={acked}");
        let closed = replies.try_recv().expect("the close was answered");
        assert_eq!(closed.resp, Response::Ok { ret: 0 });
        let db = engine.descriptor_db();
        assert_eq!((db.open_count(), db.parked()), (0, 0));
        assert_eq!(bml.outstanding(), 0, "a staged write's block stranded");
        assert_eq!(tel.inflight_ops.get(), 0);
        assert_eq!(tel.deferred_errors.get(), 0, "a write failed after its ack");
        if acked {
            LANDED.fetch_add(1, Ordering::SeqCst);
        } else {
            REFUSED.fetch_add(1, Ordering::SeqCst);
        }
    });
    assert!(
        LANDED.load(Ordering::SeqCst) > 0,
        "no schedule staged the write ahead of the close"
    );
    assert!(
        REFUSED.load(Ordering::SeqCst) > 0,
        "no schedule admitted the write after the close"
    );
}

/// The single lock's one new interleaving: a one-worker queue whose
/// only slot is held by a caller running an op in place, the worker
/// asleep on an empty FIFO, and a push racing the caller's release. If
/// the push lands first, the worker wakes to an item it has no slot
/// for and sleeps again, so only the release's notify can wake it; if
/// the release lands first, the push's notify does. In EVERY schedule
/// the item runs (a missed wakeup deadlocks the model). The
/// cross-schedule counters prove both orders are explored.
#[test]
fn slot_release_racing_push_wakes_the_sleeping_worker() {
    static PUSH_FIRST: AtomicUsize = AtomicUsize::new(0);
    static RELEASE_FIRST: AtomicUsize = AtomicUsize::new(0);
    PUSH_FIRST.store(0, Ordering::SeqCst);
    RELEASE_FIRST.store(0, Ordering::SeqCst);
    loomlite::model(|| {
        let q = Arc::new(WorkQueue::new(1));
        let slot = q.try_claim(7).expect("the only slot is free");
        // Witnesses outside the model's locks, so they add no choice
        // points: each is set after its side's critical section.
        let pushed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let released = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let worker = {
            let q = q.clone();
            thread::spawn(move || q.pop_batch(0, 4).iter().map(tag_of).collect::<Vec<_>>())
        };
        let pusher = {
            let (q, pushed, released) = (q.clone(), pushed.clone(), released.clone());
            thread::spawn(move || {
                if released.load(Ordering::SeqCst) {
                    RELEASE_FIRST.fetch_add(1, Ordering::SeqCst);
                }
                q.push(tagged(5)).expect("queue is open");
                pushed.store(true, Ordering::SeqCst);
            })
        };
        if pushed.load(Ordering::SeqCst) {
            PUSH_FIRST.fetch_add(1, Ordering::SeqCst);
        }
        drop(slot);
        released.store(true, Ordering::SeqCst);
        pusher.join().expect("pusher panicked");
        assert_eq!(worker.join().expect("worker panicked"), vec![5]);
    });
    assert!(
        PUSH_FIRST.load(Ordering::SeqCst) > 0,
        "no schedule pushed before the release"
    );
    assert!(
        RELEASE_FIRST.load(Ordering::SeqCst) > 0,
        "no schedule released before the push"
    );
}

/// The PR 10 slab: one recycled block sits on the class free list while
/// two acquirers race for it. Exactly one may pop it; the other must
/// get fresh memory. A double handout aliases two live buffers onto one
/// block, which the fill-then-verify pattern catches (the `outstanding`
/// call between them is a lock-granularity yield point, so the model
/// interleaves the two owners mid-hold).
#[test]
fn slab_recycle_vs_acquire_never_hands_block_twice() {
    loomlite::model(|| {
        let tel = registry();
        let bml = Bml::with_telemetry(2 * BLOCK as u64, tel.clone());
        // Prime the free list: acquire + drop recycles one block.
        drop(bml.acquire(BLOCK).expect("BML never closes in this model"));
        assert_eq!(tel.slab_recycled_bytes.get(), BLOCK as u64);
        let worker = {
            let bml = bml.clone();
            thread::spawn(move || {
                let mut buf = bml.acquire(BLOCK).expect("open");
                buf.fill_from(&[0xAA; 64]);
                let _ = bml.outstanding(); // yield point while holding
                assert!(
                    buf.as_slice()[..64].iter().all(|&b| b == 0xAA),
                    "another owner scribbled on a live slab block"
                );
            })
        };
        let mut buf = bml.acquire(BLOCK).expect("open");
        buf.fill_from(&[0xBB; 64]);
        let _ = bml.outstanding(); // yield point while holding
        assert!(
            buf.as_slice()[..64].iter().all(|&b| b == 0xBB),
            "another owner scribbled on a live slab block"
        );
        drop(buf);
        worker.join().expect("acquirer panicked");
        assert_eq!(bml.outstanding(), 0, "memory leaked");
        // Concurrent acquirers: one hit, one fresh miss. Serialized
        // schedules legally re-pop the block the first owner recycled
        // (two hits) — but the free list must always serve *some* of
        // the three acquisitions.
        let hits = tel.slab_hits.get();
        assert!(
            (1..=2).contains(&hits),
            "free list served {hits} of 2 racing acquires (expected 1 or 2)"
        );
    });
}

/// Receiving into the pool: a connection dies inside a payload (its
/// reader drops the block it was receiving into) while another waits in
/// `acquire` for a block of a different class. The release hands the
/// waiter its capacity and keeps the dead connection's block idle; the
/// waiter, finding no idle block of its own class, must evict that one
/// before it allocates — in every interleaving idle plus outstanding
/// memory is back within the capacity once the waiter holds its block.
#[test]
fn a_dropped_receive_block_makes_room_for_a_waiter_of_another_class() {
    loomlite::model(|| {
        const CAP: u64 = 2 * BLOCK as u64;
        let bml = Bml::new(CAP);
        let receiving = bml.acquire(2 * BLOCK).expect("open");
        let waiter = {
            let bml = bml.clone();
            thread::spawn(move || {
                let buf = bml.acquire(BLOCK).expect("open");
                assert!(
                    bml.idle_bytes() + bml.outstanding() <= CAP,
                    "an idle block of another class outlived the charge that needed its room"
                );
                drop(buf);
            })
        };
        drop(receiving);
        waiter.join().expect("waiter panicked");
        assert_eq!(bml.outstanding(), 0, "memory leaked");
        assert!(bml.idle_bytes() <= CAP);
    });
}
