//! Per-client attribution: who is doing what to this ION right now.
//!
//! The paper's diagnosis method attributes slowdowns to specific
//! compute nodes; this table gives the daemon the same lens live. One
//! [`PerClientStats`] per client id, held in a sharded map so the hot
//! path never serializes on one lock: a client id hashes to one of
//! [`CLIENT_SHARDS`] shards, and steady-state stamping takes only that
//! shard's read lock (or no lock at all once the caller has cached the
//! `Arc` — the reactor keeps it in its per-connection state, the
//! threaded transport inside its instrumented connection).
//!
//! The per-client histograms are *compact* (one bucket array, not the
//! 16-way sharded [`crate::Histogram`]): a busy daemon may track
//! thousands of clients, and 16 shards per client would be 8 KiB of
//! bucket state each for contention that per-client cardinality already
//! bounds.
//!
//! Everything here is on the recording hot path: no allocation after
//! the first touch of a client id, no formatting (lint R5), relaxed
//! atomics only.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::hist::{bucket_of, HistSnapshot, BUCKETS};
use crate::Counter;

/// Number of independent shards in the client table. Bounds write-lock
/// contention during client churn, not the number of clients.
pub const CLIENT_SHARDS: usize = 16;

/// Single-array atomic histogram: the per-client cousin of
/// [`crate::Histogram`] with identical bucket math but no shard fan-out.
pub struct CompactHist {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl CompactHist {
    pub fn new() -> CompactHist {
        CompactHist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistSnapshot {
        let mut out = HistSnapshot::default();
        for (o, b) in out.buckets.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out.count = self.count.load(Ordering::Relaxed);
        out.sum = self.sum.load(Ordering::Relaxed);
        out
    }
}

impl Default for CompactHist {
    fn default() -> Self {
        CompactHist::new()
    }
}

/// Live counters for one client id. Stamped by both transports (bytes,
/// backpressure, write-buffer high water) and by the central span fold
/// (ops and stage latencies), so one hot CN rank is visible whichever
/// path it arrives on.
pub struct PerClientStats {
    /// Ops whose lifecycle completed for this client.
    pub ops: Counter,
    /// Completed ops that failed (error reply or deferred error).
    pub ops_failed: Counter,
    /// Transport payload bytes received from / sent to this client.
    pub bytes_in: Counter,
    pub bytes_out: Counter,
    /// Times this client was parked (reactor) or stalled (threads) by
    /// queue, BML, or write-buffer backpressure — once per episode.
    pub backpressure_events: Counter,
    /// Queue wait per op (enqueue → dispatch), nanoseconds.
    pub queue_wait_ns: CompactHist,
    /// Backend service time per op, nanoseconds.
    pub backend_ns: CompactHist,
    wbuf_high_water: AtomicU64,
}

impl Default for PerClientStats {
    fn default() -> Self {
        PerClientStats::new()
    }
}

impl PerClientStats {
    pub fn new() -> PerClientStats {
        PerClientStats {
            ops: Counter::new(),
            ops_failed: Counter::new(),
            bytes_in: Counter::new(),
            bytes_out: Counter::new(),
            backpressure_events: Counter::new(),
            queue_wait_ns: CompactHist::new(),
            backend_ns: CompactHist::new(),
            wbuf_high_water: AtomicU64::new(0),
        }
    }

    /// Fold a write-buffer level into this client's high-water mark.
    #[inline]
    pub fn note_wbuf(&self, bytes: u64) {
        self.wbuf_high_water.fetch_max(bytes, Ordering::Relaxed);
    }

    pub fn wbuf_high_water(&self) -> u64 {
        self.wbuf_high_water.load(Ordering::Relaxed)
    }

    /// Owned point-in-time copy (for rendering and the JSON codec).
    pub fn snapshot(&self, id: u64) -> ClientSnapshot {
        ClientSnapshot {
            id,
            ops: self.ops.get(),
            ops_failed: self.ops_failed.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            backpressure_events: self.backpressure_events.get(),
            wbuf_high_water: self.wbuf_high_water(),
            queue_wait_ns: self.queue_wait_ns.snapshot(),
            backend_ns: self.backend_ns.snapshot(),
        }
    }
}

/// Owned view of one client's counters at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientSnapshot {
    pub id: u64,
    pub ops: u64,
    pub ops_failed: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub backpressure_events: u64,
    pub wbuf_high_water: u64,
    pub queue_wait_ns: HistSnapshot,
    pub backend_ns: HistSnapshot,
}

type Shard = RwLock<HashMap<u64, Arc<PerClientStats>>>;

fn read_shard(shard: &Shard) -> RwLockReadGuard<'_, HashMap<u64, Arc<PerClientStats>>> {
    shard.read().unwrap_or_else(|e| e.into_inner())
}

fn write_shard(shard: &Shard) -> RwLockWriteGuard<'_, HashMap<u64, Arc<PerClientStats>>> {
    shard.write().unwrap_or_else(|e| e.into_inner())
}

/// The sharded client table. `entry` is the *only* sanctioned mutation
/// path (lint R9): it takes one shard's read lock in steady state and
/// upgrades to the write lock only on a client's first appearance.
pub struct ClientTable {
    shards: Vec<Shard>,
}

impl ClientTable {
    pub fn new() -> ClientTable {
        ClientTable {
            shards: (0..CLIENT_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    #[inline]
    fn shard(&self, id: u64) -> &Shard {
        &self.shards[(id as usize) % CLIENT_SHARDS]
    }

    /// This client's stats, created on first touch. Callers on a hot
    /// path should cache the returned `Arc` per connection rather than
    /// re-resolving per frame.
    pub fn entry(&self, id: u64) -> Arc<PerClientStats> {
        let shard = self.shard(id);
        if let Some(c) = read_shard(shard).get(&id) {
            return c.clone();
        }
        write_shard(shard)
            .entry(id)
            .or_insert_with(|| Arc::new(PerClientStats::new()))
            .clone()
    }

    /// This client's stats if it has ever been seen; never inserts.
    pub fn lookup(&self, id: u64) -> Option<Arc<PerClientStats>> {
        read_shard(self.shard(id)).get(&id).cloned()
    }

    /// Distinct client ids ever seen.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read_shard(s).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owned snapshot of every client, sorted by id (stable rendering).
    pub fn snapshot(&self) -> Vec<ClientSnapshot> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (id, c) in read_shard(shard).iter() {
                out.push(c.snapshot(*id));
            }
        }
        out.sort_by_key(|c| c.id);
        out
    }
}

impl Default for ClientTable {
    fn default() -> Self {
        ClientTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_is_stable_and_shared() {
        let t = ClientTable::new();
        let a = t.entry(7);
        let b = t.entry(7);
        assert!(Arc::ptr_eq(&a, &b));
        a.ops.inc();
        assert_eq!(b.ops.get(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lookup_never_inserts() {
        let t = ClientTable::new();
        assert!(t.lookup(9).is_none());
        assert_eq!(t.len(), 0);
        t.entry(9);
        assert!(t.lookup(9).is_some());
    }

    #[test]
    fn snapshot_is_sorted_by_client_id() {
        let t = ClientTable::new();
        for id in [3u64, 1, 2] {
            t.entry(id);
        }
        let snap = t.snapshot();
        assert_eq!(snap.iter().map(|c| c.id).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn compact_hist_matches_sharded_bucket_math() {
        let h = CompactHist::new();
        for v in [1u64, 2, 4, 8, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1039);
        assert_eq!(s.quantile(1.0), 2048);
    }

    #[test]
    fn wbuf_high_water_is_monotonic() {
        let c = PerClientStats::new();
        c.note_wbuf(100);
        c.note_wbuf(40);
        assert_eq!(c.wbuf_high_water(), 100);
        c.note_wbuf(4096);
        assert_eq!(c.wbuf_high_water(), 4096);
    }

    #[test]
    fn shards_spread_ids() {
        let t = ClientTable::new();
        for id in 0..(CLIENT_SHARDS as u64 * 4) {
            t.entry(id);
        }
        assert_eq!(t.len(), CLIENT_SHARDS * 4);
        for shard in &t.shards {
            assert_eq!(read_shard(shard).len(), 4);
        }
    }
}
