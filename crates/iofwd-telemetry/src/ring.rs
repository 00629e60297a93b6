//! The flight recorder: a fixed-size lock-free ring of the last N
//! completed spans — the daemon's only span retention, read over the
//! wire by the stats query `Spans { after }` ([`FlightRecorder::since`]).
//! Every record draws a ticket from one monotone counter; its slot is
//! `ticket % N`. A reader names the first ticket it wants and gets back
//! every held record from there, in ticket order, plus the oldest ticket
//! still held — so it knows exactly how many it missed.
//!
//! Each slot is a miniature seqlock: an `AtomicU64` sequence word plus
//! the record's ticket and its span as [`OpSpan::WORDS`] atomic words
//! (data as atomics keeps the whole structure free of `unsafe`). A
//! writer claims the slot by CASing the sequence from even to odd,
//! stores the words, then publishes by storing `seq + 2` (even again).
//! A reader validates that the sequence is even, non-zero, and unchanged
//! across its copy; anything else is a write in flight or an overwrite,
//! and the slot is retried a bounded number of times, then skipped. A
//! writer that finds its slot mid-write (another writer lapped the ring)
//! drops its record rather than spin — recording must never block the
//! hot path — and the drop is counted.
//!
//! Under `--cfg loom` the protocol is laced with scheduler yield points
//! so the loomlite model (`crates/iofwd/tests/loom_model.rs`) can
//! interleave writers and readers mid-protocol.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::span::OpSpan;

#[cfg(loom)]
fn chaos() {
    loomlite::thread::yield_now();
}

#[cfg(not(loom))]
#[inline(always)]
fn chaos() {}

const WORDS: usize = OpSpan::WORDS;

/// Bounded retries when a reader races a writer on one slot.
const READ_RETRIES: usize = 4;

struct Slot {
    /// 0 = never written; odd = write in flight; even ≥ 2 = published.
    seq: AtomicU64,
    ticket: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            ticket: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A read of the ring: `(oldest_held, next, [(ticket, span)])`.
pub type SpanRead = (u64, u64, Vec<(u64, OpSpan)>);

pub struct FlightRecorder {
    slots: Box<[Slot]>,
    /// Next ticket; `ticket % slots.len()` is the slot to write.
    head: AtomicU64,
    dropped: AtomicU64,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(1);
        FlightRecorder {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Total records ever submitted (including dropped ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records abandoned because their slot was mid-write.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Push a completed span and return the ticket it drew. Wait-free:
    /// on slot contention the record is dropped and counted, never
    /// retried.
    pub fn record(&self, span: &OpSpan) -> u64 {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq & 1 == 1 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return ticket;
        }
        if slot
            .seq
            .compare_exchange(seq, seq + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return ticket;
        }
        chaos();
        let words = span.encode();
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
            chaos();
        }
        // Relaxed like the words: the Release below publishes it.
        slot.ticket.store(ticket, Ordering::Relaxed);
        slot.seq.store(seq + 2, Ordering::Release);
        ticket
    }

    /// The held records with a ticket `>= after`, in ticket order, as
    /// `(oldest_held, next, records)`: `next` is the next ticket to be
    /// drawn and `oldest_held` is `next - N` (floored at 0), so a reader
    /// asking for `after` missed `oldest_held - after` records. Records
    /// mid-write or dropped are skipped: a read sees only whole ones.
    pub fn since(&self, after: u64) -> SpanRead {
        let len = self.slots.len() as u64;
        let next = self.head.load(Ordering::Acquire);
        let oldest = next.saturating_sub(len);
        let held = (after.max(oldest)..next)
            .filter_map(|t| read_slot(&self.slots[(t % len) as usize]).filter(|r| r.0 == t))
            .collect();
        (oldest, next, held)
    }
}

/// The `Spans` stats reply, the ring's own word codec on the wire: the
/// header `[oldest_held, next]`, then `[ticket, span words]` per
/// record, every word a little-endian `u64`.
pub fn encode_spans((oldest, next, held): &SpanRead) -> Vec<u8> {
    let records = held
        .iter()
        .flat_map(|(t, s)| std::iter::once(*t).chain(s.encode()));
    [*oldest, *next]
        .into_iter()
        .chain(records)
        .flat_map(u64::to_le_bytes)
        .collect()
}

/// Inverse of [`encode_spans`]; `None` unless the payload is a header
/// followed by whole records.
pub fn decode_spans(bytes: &[u8]) -> Option<SpanRead> {
    let words: Vec<u64> = bytes
        .chunks(8)
        .map(|c| c.try_into().ok().map(u64::from_le_bytes))
        .collect::<Option<_>>()?;
    let (&[oldest, next], records) = words.split_first_chunk::<2>()?;
    let held = records
        .chunks(1 + WORDS)
        .map(|r| Some((r[0], OpSpan::decode(r[1..].try_into().ok()?))))
        .collect::<Option<_>>()?;
    Some((oldest, next, held))
}

fn read_slot(slot: &Slot) -> Option<(u64, OpSpan)> {
    for _ in 0..READ_RETRIES {
        let before = slot.seq.load(Ordering::Acquire);
        if before == 0 {
            return None;
        }
        if before & 1 == 1 {
            chaos();
            continue;
        }
        let ticket = slot.ticket.load(Ordering::Relaxed);
        let mut words = [0u64; WORDS];
        for (w, s) in words.iter_mut().zip(slot.words.iter()) {
            *w = s.load(Ordering::Relaxed);
            chaos();
        }
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) == before {
            return Some((ticket, OpSpan::decode(&words)));
        }
    }
    None
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::span::OpKind;

    fn span(tag: u64) -> OpSpan {
        let mut s = OpSpan::begin(OpKind::Write, tag, tag, tag);
        s.bytes = tag;
        s.enqueue_ns = tag;
        s.dispatch_ns = tag;
        s.backend_start_ns = tag;
        s.backend_done_ns = tag;
        s.reply_ns = tag;
        s
    }

    #[test]
    fn keeps_last_n_oldest_first() {
        let ring = FlightRecorder::new(4);
        for tag in 1..=10u64 {
            assert_eq!(ring.record(&span(tag)), tag - 1);
        }
        let (oldest, next, got) = ring.since(0);
        let tags: Vec<(u64, u64)> = got.iter().map(|(t, s)| (*t, s.client)).collect();
        assert_eq!(tags, vec![(6, 7), (7, 8), (8, 9), (9, 10)]);
        assert_eq!((oldest, next), (6, 10));
        assert_eq!(ring.since(8).2.len(), 2);
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn empty_ring_snapshots_empty() {
        let ring = FlightRecorder::new(8);
        assert_eq!(ring.since(0), (0, 0, Vec::new()));
    }

    #[test]
    fn spans_payload_round_trips() {
        let held = vec![(6, span(7)), (9, span(10))];
        let wire = encode_spans(&(6, 10, held.clone()));
        assert_eq!(wire.len(), 8 * (2 + 2 * (1 + WORDS)));
        assert_eq!(decode_spans(&wire), Some((6, 10, held)));
        assert_eq!(decode_spans(&wire[..wire.len() - 8]), None);
        assert_eq!(decode_spans(&[0; 8]), None);
    }

    #[test]
    fn concurrent_writers_never_tear() {
        let ring = std::sync::Arc::new(FlightRecorder::new(2));
        let mut handles = Vec::new();
        for t in 1..=4u64 {
            let r = ring.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let tag = t * 10_000 + i;
                    r.record(&span(tag));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for (_, rec) in ring.since(0).2 {
            // Every word of a record carries the writer's tag; any mix
            // would mean a torn slot.
            let tag = rec.client;
            assert_eq!(rec.seq, tag);
            assert_eq!(rec.bytes, tag);
            assert_eq!(rec.arrival_ns, tag);
            assert_eq!(rec.reply_ns, tag);
        }
        assert_eq!(ring.recorded(), 2000);
    }
}
