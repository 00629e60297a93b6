//! Power-of-two-bucket latency histograms, sharded per worker thread.
//!
//! The bucket math is deliberately identical to
//! `simcore::stats::LogHistogram` — bucket `i` holds values in
//! `[2^i, 2^(i+1))` — so the live runtime and the discrete-event
//! simulator report latency breakdowns in one vocabulary. The live
//! variant differs in two ways required by the hot path: recording is
//! `&self` over relaxed atomics (no lock), and the buckets are sharded
//! per recording thread so concurrent workers do not bounce one cache
//! line; shards are merged into a [`HistSnapshot`] at snapshot time.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of buckets; bucket `i` holds values in `[2^i, 2^(i+1))`.
pub const BUCKETS: usize = 64;

/// Number of independent shards. Recording threads are striped across
/// shards by a thread-local id, so this bounds write contention, not
/// the number of threads.
pub const SHARDS: usize = 16;

/// Bucket index for a value — `LogHistogram`'s math exactly.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    63 - value.max(1).leading_zeros() as usize
}

/// One atomic bucket array: a histogram recorded through `&self`, each
/// sample three relaxed `fetch_add`s. A [`Histogram`] is [`SHARDS`] of
/// them; a per-client row (`clients.rs`) holds one.
pub struct HistCell {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistCell {
    pub fn new() -> Self {
        HistCell {
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

    /// Concurrent recording may straddle the reads (a sample's bucket
    /// counted but not yet its sum).
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

impl Default for HistCell {
    fn default() -> Self {
        HistCell::new()
    }
}

/// Lock-free sharded histogram. `record` is wait-free: one
/// [`HistCell::record`] on the caller's shard.
pub struct Histogram {
    shards: Box<[HistCell; SHARDS]>,
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn current_shard() -> usize {
    MY_SHARD.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            c.set(v);
        }
        v
    })
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            shards: Box::new(std::array::from_fn(|_| HistCell::new())),
        }
    }

    /// Record one sample on the calling thread's shard.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_shard(current_shard(), value);
    }

    /// Record on an explicit shard (worker index); used where the
    /// caller already has a stable small id.
    #[inline]
    pub fn record_shard(&self, shard: usize, value: u64) {
        self.shards[shard % SHARDS].record(value);
    }

    /// Merge all shards into one consistent-enough view; bucket totals
    /// are conserved per shard.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut out = HistSnapshot::default();
        for s in self.shards.iter() {
            out.merge(&s.snapshot());
        }
        out
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// An owned, mergeable point-in-time view of a [`Histogram`] (also
/// usable directly as a cheap single-threaded histogram, e.g. for
/// client-side latency stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistSnapshot {
    /// Single-threaded record (no shards; for client-side use).
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Merge: associative, commutative, conserves bucket counts.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound of the bucket containing
    /// the q-th sample — `LogHistogram::quantile`'s semantics exactly.
    pub fn quantile(&self, q: f64) -> u64 {
        let q = q.clamp(0.0, 1.0);
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }
}

/// Per-bucket/count/sum difference of two cumulative histogram
/// snapshots — the histogram of samples recorded *during* an interval.
/// Saturating: counters are monotonic, so any underflow means a torn
/// read straddled the capture and clamping to zero is the honest floor.
pub fn hist_delta(now: &HistSnapshot, prev: &HistSnapshot) -> HistSnapshot {
    let mut out = HistSnapshot::default();
    for (o, (a, b)) in out
        .buckets
        .iter_mut()
        .zip(now.buckets.iter().zip(prev.buckets.iter()))
    {
        *o = a.saturating_sub(*b);
    }
    out.count = now.count.saturating_sub(prev.count);
    out.sum = now.sum.saturating_sub(prev.sum);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_matches_simcore() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn record_and_quantile() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 8, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1039);
        assert_eq!(s.quantile(1.0), 2048); // upper bound of bucket 10
        assert_eq!(s.quantile(0.0), 2); // first sample's bucket upper bound
    }

    #[test]
    fn shard_striping_conserves_totals() {
        let h = Histogram::new();
        for shard in 0..SHARDS * 2 {
            h.record_shard(shard, 7);
        }
        let s = h.snapshot();
        assert_eq!(s.count, (SHARDS * 2) as u64);
        assert_eq!(s.buckets[bucket_of(7)], (SHARDS * 2) as u64);
    }

    #[test]
    fn hist_delta_subtracts_and_saturates() {
        let mut a = HistSnapshot::default();
        let mut b = HistSnapshot::default();
        for v in [1u64, 100, 100] {
            a.record(v);
        }
        b.record(1);
        let d = hist_delta(&a, &b);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 200);
        // Reversed operands saturate to zero instead of wrapping.
        let z = hist_delta(&b, &a);
        assert_eq!(z.count, 0);
        assert_eq!(z.sum, 0);
    }
}
