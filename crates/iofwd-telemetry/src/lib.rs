//! # iofwd-telemetry — observability for the forwarding runtime
//!
//! The paper's argument is built on stage-by-stage measurement of the
//! forwarding pipeline (its Figs. 4–6 isolate the tree-network, ION,
//! and storage-side stages before composing them). This crate gives the
//! live runtime (`iofwd`, re-exporting this as `iofwd::telemetry`) the
//! same vocabulary:
//!
//! * a lock-light metrics registry — monotonic [`Counter`]s, peak-
//!   tracking [`Gauge`]s, and power-of-two-bucket [`Histogram`]s whose
//!   bucket math matches `simcore::stats::LogHistogram`, so simulator
//!   and daemon report comparably;
//! * per-op lifecycle [`OpSpan`]s stamping arrival → queue → dispatch →
//!   backend start → backend done → reply;
//! * a fixed-size lock-free [`FlightRecorder`] ring holding the last N
//!   completed spans under monotone tickets — the daemon's only span
//!   retention, read by ticket over the stats wire protocol.
//!
//! Recording is allocation-free and cheap enough to leave on (relaxed
//! atomics, per-thread histogram shards merged only at snapshot time).
//! [`Telemetry::disabled`] is a null sink: `now_ns` returns 0 and every
//! record call early-returns, for benches that want zero overhead.
//! Snapshot assembly and every view over it — text, JSON, Prometheus,
//! interval [`Rates`] and `top` — live in [`snapshot`]. The daemon ships
//! only the JSON snapshot; a reader derives every other view from the
//! snapshots it fetched. The workspace's one JSON parser and string
//! escaper live in [`json`] — the two modules allowed to allocate freely.

pub mod clients;
pub mod hist;
pub mod json;
pub mod ring;
pub mod snapshot;
pub mod span;

pub use clients::{ClientSnapshot, ClientTable, PerClientStats};
pub use hist::{HistCell, HistSnapshot, Histogram};
pub use ring::{FlightRecorder, SpanRead};
pub use snapshot::{GaugeValue, Rates, TelemetrySnapshot};
pub use span::{Disposition, OpKind, OpSpan};

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A consumer of completed spans, beyond the built-in histogram fold and
/// the flight recorder — an in-process observer such as a test's tally.
/// `on_complete` runs on the recording hot path: implementations must
/// be cheap and must never block for long.
pub trait SpanSink: Send + Sync {
    fn on_complete(&self, span: &OpSpan);
}

/// Monotonic event counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous level with a high-water mark (queue depth, BML
/// occupancy, in-flight ops, …).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
    peak: AtomicI64,
}

impl Gauge {
    pub const fn new() -> Gauge {
        Gauge {
            value: AtomicI64::new(0),
            peak: AtomicI64::new(0),
        }
    }

    /// Apply a delta (negative to decrement) and fold the new level
    /// into the peak.
    #[inline]
    pub fn add(&self, delta: i64) {
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    pub fn peak(&self) -> i64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Rows in [`PerWorker`] and [`Heartbeats`]. Slot indices wrap at this
/// bound, so `iofwdd` refuses more workers or event loops than it has.
pub const MAX_WORKERS: usize = 64;

/// Fixed-size per-worker dispatch counters (for the load-balancing
/// heuristic: how evenly does the queue spread work?).
pub struct PerWorker {
    counts: [Counter; MAX_WORKERS],
}

impl PerWorker {
    pub fn new() -> PerWorker {
        PerWorker {
            counts: std::array::from_fn(|_| Counter::new()),
        }
    }

    #[inline]
    pub fn inc(&self, worker: usize) {
        self.counts[worker % MAX_WORKERS].inc();
    }

    #[inline]
    pub fn add(&self, worker: usize, n: u64) {
        self.counts[worker % MAX_WORKERS].add(n);
    }

    pub fn get(&self, worker: usize) -> u64 {
        self.counts[worker % MAX_WORKERS].get()
    }

    /// The sum over every worker.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(Counter::get).sum()
    }
}

impl Default for PerWorker {
    fn default() -> Self {
        PerWorker::new()
    }
}

/// Liveness heartbeats for the reactor event loops. Each loop registers
/// once for a slot, then stores `now_ns` into it every iteration; a
/// snapshot exports the *worst* lag across registered slots as
/// `loop_lag_max_ns`, so one healthy loop cannot mask a stuck sibling.
pub struct Heartbeats {
    slots: [AtomicU64; MAX_WORKERS],
    registered: AtomicU64,
}

impl Heartbeats {
    pub fn new() -> Heartbeats {
        Heartbeats {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
            registered: AtomicU64::new(0),
        }
    }

    /// Claim a slot and seed it with `now_ns` (so a loop that registers
    /// and immediately blocks still shows lag from registration, not
    /// from epoch 0).
    pub fn register(&self, now_ns: u64) -> usize {
        let slot = (self.registered.fetch_add(1, Ordering::Relaxed) as usize) % MAX_WORKERS;
        self.slots[slot].store(now_ns.max(1), Ordering::Relaxed);
        slot
    }

    #[inline]
    pub fn beat(&self, slot: usize, now_ns: u64) {
        self.slots[slot % MAX_WORKERS].store(now_ns.max(1), Ordering::Relaxed);
    }

    pub fn registered(&self) -> usize {
        (self.registered.load(Ordering::Relaxed) as usize).min(MAX_WORKERS)
    }

    /// Worst (largest) lag across registered slots, nanoseconds.
    /// Zero when nothing has registered.
    pub fn max_lag_ns(&self, now_ns: u64) -> u64 {
        let n = self.registered();
        let mut worst = 0u64;
        for slot in self.slots.iter().take(n) {
            let beat = slot.load(Ordering::Relaxed);
            if beat != 0 {
                worst = worst.max(now_ns.saturating_sub(beat));
            }
        }
        worst
    }
}

impl Default for Heartbeats {
    fn default() -> Self {
        Heartbeats::new()
    }
}

/// Default flight-recorder capacity (completed spans retained).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// The registry's one declaration site. Each counter, gauge and
/// histogram is named below exactly once; this macro derives its
/// `Telemetry` field, its initialiser and its row in the name→metric
/// walks ([`Telemetry::counters`] and friends) that `snapshot::capture`
/// exports, so the exported name is the field name by construction.
macro_rules! registry {
    (
        counters { $($(#[$cdoc:meta])* $counter:ident,)* }
        gauges { $($(#[$gdoc:meta])* $gauge:ident,)* }
        hists { $($(#[$hdoc:meta])* $hist:ident,)* }
    ) => {
        /// The registry: one per daemon (or per bench harness), shared as
        /// `Arc<Telemetry>` by every layer of the request path.
        pub struct Telemetry {
            enabled: bool,
            origin: Instant,
            $($(#[$cdoc])* pub $counter: Counter,)*
            $($(#[$gdoc])* pub $gauge: Gauge,)*
            $($(#[$hdoc])* pub $hist: Histogram,)*
            pub worker_dispatch: PerWorker,
            /// Nanoseconds each worker spent executing batches (vs. parked in
            /// `pop_batch`); busy fraction = busy_ns / uptime_ns.
            pub worker_busy_ns: PerWorker,
            /// Event-loop liveness heartbeats (see [`Heartbeats`]).
            pub loop_heartbeats: Heartbeats,
            /// Per-client attribution table (see [`clients`]).
            pub clients: ClientTable,
            pub flight: FlightRecorder,
            sink: OnceLock<Arc<dyn SpanSink>>,
        }

        impl Telemetry {
            fn build(enabled: bool, flight: usize) -> Telemetry {
                Telemetry {
                    enabled,
                    origin: Instant::now(),
                    $($counter: Counter::new(),)*
                    $($gauge: Gauge::new(),)*
                    $($hist: Histogram::new(),)*
                    worker_dispatch: PerWorker::new(),
                    worker_busy_ns: PerWorker::new(),
                    loop_heartbeats: Heartbeats::new(),
                    clients: ClientTable::new(),
                    flight: FlightRecorder::new(flight),
                    sink: OnceLock::new(),
                }
            }

            /// Every declared counter under its exported name, in
            /// declaration (= export) order.
            pub fn counters(&self) -> [(&'static str, &Counter); [$(stringify!($counter)),*].len()] {
                [$((stringify!($counter), &self.$counter)),*]
            }

            /// Every declared gauge under its exported name.
            pub fn gauges(&self) -> [(&'static str, &Gauge); [$(stringify!($gauge)),*].len()] {
                [$((stringify!($gauge), &self.$gauge)),*]
            }

            /// Every declared histogram under its exported name.
            pub fn hists(&self) -> [(&'static str, &Histogram); [$(stringify!($hist)),*].len()] {
                [$((stringify!($hist), &self.$hist)),*]
            }
        }
    };
}

registry! {
    counters {
        /// Ops whose lifecycle completed (span recorded).
        ops_completed,
        /// Completed ops that returned an error to the client (or, for
        /// staged writes, recorded a deferred error).
        ops_failed,
        /// Writes acknowledged early and completed asynchronously (§IV).
        ops_staged,
        /// Synchronous ops run on the thread that dispatched them,
        /// instead of crossing the work queue: by a handler under a free
        /// execution slot, or by the worker whose lane completion
        /// released them, under the slot it holds.
        ops_in_place,
        /// Deferred errors recorded against a descriptor by the DescDb.
        deferred_errors,
        /// `DeferredErr` replies sent: a staged write's failure surfacing,
        /// once, on a later op on its descriptor (§IV).
        deferred_errors_reported,
        /// Deferred errors still pending when a vanished client's descriptor
        /// was reclaimed: recorded, never reported to anyone.
        deferred_errors_orphaned,
        /// Acquires that had to block for BML space.
        bml_blocked_acquires,
        /// Frames/payload bytes over the transport, per direction
        /// (server-relative: `in` = received from clients).
        frames_in,
        frames_out,
        transport_bytes_in,
        transport_bytes_out,
        /// Backend data-plane traffic.
        backend_write_ops,
        backend_read_ops,
        backend_bytes_written,
        backend_bytes_read,
        /// Backend flushes: one per successful `fsync`, the only request
        /// that reaches `BackendObject::sync`.
        backend_sync_ops,
        /// Faults injected by a `FaultBackend` chaos plan.
        faults_injected,
        /// Backend retries attempted on transient errors (one per re-issue).
        retries_attempted,
        /// Operations whose retry budget/deadline ran out; the last
        /// transient error surfaced as if retries were off.
        retries_exhausted,
        /// Staged writes executed by the shutdown drain (late, but done).
        drain_executed,
        /// Staged writes the shutdown drain abandoned past its deadline,
        /// recorded as deferred errors — never silently dropped.
        drain_deferred,
        /// Coalesced vectored-write batches dispatched (offset-contiguous
        /// staged writes merged into one backend call).
        coalesced_batches,
        /// Constituent staged writes covered by those batches.
        coalesced_ops,
        /// Payload bytes carried inside coalesced batches.
        coalesced_bytes,
        /// Transient `accept(2)` failures (EMFILE/ECONNABORTED/EINTR/…)
        /// survived by the accept path instead of killing the listener.
        accept_errors,
        /// Times the reactor parked a client (stopped polling it for
        /// readability) because BML, the work queue, or its write buffer
        /// pushed back.
        backpressure_events,
        /// BML block acquisitions served by recycling a slab free-list
        /// block (no allocator call).
        slab_hits,
        /// BML block acquisitions that had to allocate a fresh block.
        slab_misses,
        /// Bytes of staging blocks returned to the slab free lists for
        /// reuse instead of being freed.
        slab_recycled_bytes,
        /// Payload-sized allocations (and forced deep copies) on the
        /// forwarding hot path. Near-zero in steady state on the zero-copy
        /// path; the experiments harness divides this by ops for the
        /// allocation-regression guard.
        hotpath_alloc_bytes,
    }
    gauges {
        /// Client connections currently open (peak = worst concurrency).
        conns_open,
        queue_depth,
        bml_occupancy,
        bml_waiters,
        inflight_ops,
        open_descriptors,
        /// Workers currently executing a batch (peak = worst contention).
        workers_busy,
        /// Aggregate reactor write-buffer bytes across connections (peak =
        /// worst egress backlog).
        wbuf_bytes,
    }
    // Nanoseconds unless noted.
    hists {
        queue_wait_ns,
        service_ns,
        total_ns,
        /// Dispatch overhead per op (dequeue → backend call issued).
        dispatch_lag_ns,
        /// Reply marshalling lag per op (backend done → reply stamped).
        reply_lag_ns,
        bml_block_ns,
        /// Items per scheduling pass (unit: items, not ns).
        batch_size,
        /// Constituent ops per coalesced batch (unit: ops, not ns).
        coalesce_width,
        /// Time each reactor loop spent blocked in `poll`.
        poll_wait_ns,
        /// Full reactor loop iteration time (lap-to-lap), the event loop's
        /// responsiveness floor.
        loop_lag_ns,
        /// Events delivered per poll wake-up (unit: events, not ns).
        ready_batch,
    }
}

impl Telemetry {
    pub fn new() -> Telemetry {
        Telemetry::build(true, DEFAULT_FLIGHT_CAPACITY)
    }

    /// The null sink: `now_ns` returns 0, every record path
    /// early-returns. For benches that want zero overhead.
    pub fn disabled() -> Telemetry {
        Telemetry::build(false, 1)
    }

    /// Attach a [`SpanSink`] receiving every completed span. Write-once:
    /// returns `false` (and leaves the existing sink) if one is already
    /// attached.
    pub fn set_sink(&self, sink: Arc<dyn SpanSink>) -> bool {
        self.sink.set(sink).is_ok()
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since this registry's origin; 0 when disabled, so
    /// span stamping in a disabled daemon costs one branch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.origin.elapsed().as_nanos() as u64
    }

    /// Fold a finished span into the stage histograms, the per-client
    /// attribution table, and the flight recorder. Allocation-free in
    /// steady state (a client's first op allocates its table entry).
    pub fn complete(&self, span: &OpSpan) {
        if !self.enabled {
            return;
        }
        self.ops_completed.inc();
        if !span.ok {
            self.ops_failed.inc();
        }
        self.queue_wait_ns.record(span.queue_wait_ns());
        self.service_ns.record(span.service_ns());
        self.total_ns.record(span.total_ns());
        self.dispatch_lag_ns.record(span.dispatch_lag_ns());
        self.reply_lag_ns.record(span.reply_lag_ns());
        if let Some(c) = self.client_stats(span.client) {
            c.ops.inc();
            if !span.ok {
                c.ops_failed.inc();
            }
            c.queue_wait_ns.record(span.queue_wait_ns());
            c.backend_ns.record(span.service_ns());
        }
        self.flight.record(span);
        if let Some(sink) = self.sink.get() {
            sink.on_complete(span);
        }
    }

    /// The attribution entry for `client`, created on first touch —
    /// the sanctioned mutation path for the per-client table (lint
    /// R9): steady-state cost is one sharded read lock, and hot-path
    /// callers should cache the `Arc` per connection. `None` only when
    /// the registry is disabled.
    #[inline]
    pub fn client_stats(&self, client: u64) -> Option<Arc<PerClientStats>> {
        self.enabled.then(|| self.clients.entry(client))
    }

    /// Assemble a consistent-enough point-in-time view (see
    /// [`snapshot`] for rendering and the JSON codec).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        snapshot::capture(self)
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_a_null_sink() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        assert_eq!(t.now_ns(), 0);
        let span = OpSpan::begin(OpKind::Write, 1, 1, 0);
        t.complete(&span);
        assert_eq!(t.ops_completed.get(), 0);
        assert!(t.flight.since(0).2.is_empty());
    }

    #[test]
    fn complete_folds_stages() {
        let t = Telemetry::new();
        let mut span = OpSpan::begin(OpKind::Write, 3, 9, 100);
        span.enqueue_ns = 110;
        span.dispatch_ns = 150;
        span.backend_start_ns = 150;
        span.backend_done_ns = 350;
        span.reply_ns = 360;
        span.bytes = 4096;
        t.complete(&span);
        assert_eq!(t.ops_completed.get(), 1);
        assert_eq!(t.queue_wait_ns.snapshot().count, 1);
        assert_eq!(t.service_ns.snapshot().sum, 200);
        assert_eq!(t.flight.since(0).2, vec![(0, span)]);
    }

    #[test]
    fn complete_attributes_to_the_spans_client() {
        let t = Telemetry::new();
        let mut span = OpSpan::begin(OpKind::Write, 42, 1, 100);
        span.enqueue_ns = 100;
        span.dispatch_ns = 150;
        span.backend_start_ns = 150;
        span.backend_done_ns = 250;
        span.reply_ns = 260;
        span.ok = false;
        t.complete(&span);
        let c = t.clients.lookup(42).expect("client 42 attributed");
        assert_eq!(c.ops.get(), 1);
        assert_eq!(c.ops_failed.get(), 1);
        assert_eq!(c.queue_wait_ns.snapshot().sum, 50);
        assert_eq!(c.backend_ns.snapshot().sum, 100);
        assert!(t.clients.lookup(43).is_none());
    }

    #[test]
    fn enabled_registry_always_attributes() {
        // There is no switch: an enabled registry hands out a row for
        // any client id, the same row every time, and the table sees it.
        let t = Telemetry::new();
        let row = t.client_stats(7).expect("enabled registry");
        assert!(Arc::ptr_eq(&row, &t.client_stats(7).expect("same row")));
        assert!(Arc::ptr_eq(&row, &t.clients.lookup(7).expect("in table")));
        assert_eq!(t.clients.len(), 1);
    }

    #[test]
    fn disabled_registry_never_attributes() {
        let t = Telemetry::disabled();
        assert!(t.client_stats(7).is_none());
        t.complete(&OpSpan::begin(OpKind::Write, 7, 1, 0));
        assert!(t.clients.lookup(7).is_none());
    }

    #[test]
    fn heartbeats_report_worst_lag() {
        let h = Heartbeats::new();
        assert_eq!(h.max_lag_ns(1_000), 0);
        let a = h.register(100);
        let b = h.register(100);
        h.beat(a, 900);
        // Slot b last beat at 100: lag 900 at t=1000 dominates a's 100.
        assert_eq!(h.max_lag_ns(1_000), 900);
        h.beat(b, 990);
        assert_eq!(h.max_lag_ns(1_000), 100);
    }

    #[test]
    fn gauge_tracks_peak() {
        let g = Gauge::new();
        g.add(3);
        g.add(4);
        g.add(-6);
        assert_eq!(g.get(), 1);
        assert_eq!(g.peak(), 7);
    }

    #[test]
    fn now_ns_is_monotonic_when_enabled() {
        let t = Telemetry::new();
        let a = t.now_ns();
        let b = t.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn span_sink_sees_every_completion_and_is_write_once() {
        struct CountSink(Counter);
        impl SpanSink for CountSink {
            fn on_complete(&self, _span: &OpSpan) {
                self.0.inc();
            }
        }
        let t = Telemetry::new();
        let sink = Arc::new(CountSink(Counter::new()));
        assert!(t.set_sink(sink.clone()));
        assert!(!t.set_sink(Arc::new(CountSink(Counter::new()))));
        t.complete(&OpSpan::begin(OpKind::Write, 1, 1, 0));
        t.complete(&OpSpan::begin(OpKind::Read, 1, 2, 0));
        assert_eq!(sink.0.get(), 2);
    }
}
