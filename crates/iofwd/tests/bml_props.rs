//! Property-based tests of the buffer management layer: capacity is
//! never exceeded — by outstanding buffers, or by those plus the idle
//! blocks the pool keeps — size-class rounding is correct, and arbitrary
//! concurrent acquire/release interleavings terminate with everything
//! returned.

use iofwd::bml::{Bml, MAX_CLASS_SHIFT, MIN_CLASS_SHIFT};
use iofwd::telemetry::Telemetry;
use proptest::prelude::*;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// A BML counting into its own enabled registry.
fn counted(capacity: u64) -> (Bml, Arc<Telemetry>) {
    let tel = Arc::new(Telemetry::new());
    (Bml::with_telemetry(capacity, tel.clone()), tel)
}

/// Block acquisitions the registry saw: recycled plus fresh.
fn blocks_taken(tel: &Telemetry) -> u64 {
    tel.slab_hits.get() + tel.slab_misses.get()
}

proptest! {
    /// class_for returns the smallest power-of-two block >= len within
    /// [MIN, MAX] class bounds.
    #[test]
    fn class_rounding_is_minimal_power_of_two(len in 1usize..(1 << 26)) {
        let (_idx, block) = Bml::class_for(len);
        prop_assert!(block.is_power_of_two());
        prop_assert!(block >= len);
        prop_assert!(block >= 1 << MIN_CLASS_SHIFT);
        prop_assert!(block <= 1 << MAX_CLASS_SHIFT);
        // Minimality: half the block would not fit (unless at MIN class).
        if block > 1 << MIN_CLASS_SHIFT {
            prop_assert!(block / 2 < len);
        }
    }

    /// Sequential acquire/release with random sizes: outstanding bytes
    /// track exactly, and all memory returns.
    #[test]
    fn outstanding_accounting_is_exact(sizes in proptest::collection::vec(1usize..262_144, 1..40)) {
        let (bml, tel) = counted(1 << 30);
        let mut held = Vec::new();
        let mut expect = 0u64;
        for (i, &sz) in sizes.iter().enumerate() {
            let buf = bml.try_acquire(sz).expect("capacity is ample");
            expect += buf.block_size() as u64;
            held.push(buf);
            // Release about half as we go.
            if i % 2 == 1 {
                let b = held.remove(0);
                expect -= b.block_size() as u64;
            }
            prop_assert_eq!(bml.outstanding(), expect);
        }
        held.clear();
        prop_assert_eq!(bml.outstanding(), 0);
        // Every acquisition took a block, recycled or fresh.
        prop_assert_eq!(blocks_taken(&tel), sizes.len() as u64);
    }

    /// Buffer contents are exclusive: filling one buffer never corrupts
    /// another, even when blocks are freelist-recycled.
    #[test]
    fn buffers_are_exclusive(rounds in 1usize..20) {
        let bml = Bml::new(1 << 22);
        for round in 0..rounds {
            let mut a = bml.acquire(1000).expect("BML open");
            let mut b = bml.acquire(1000).expect("BML open");
            a.fill_from(&[round as u8; 1000]);
            b.fill_from(&[!(round as u8); 1000]);
            prop_assert!(a.as_slice().iter().all(|&x| x == round as u8));
            prop_assert!(b.as_slice().iter().all(|&x| x == !(round as u8)));
        }
    }

    /// The free lists are bounded by bytes, not blocks: a fill/drain
    /// workload is served from them however deep its bursts, a shift to
    /// another class evicts the old class's idle blocks to make room, and
    /// idle + outstanding never exceeds the capacity on the way.
    #[test]
    fn free_lists_hold_what_fits_across_a_class_shift(
        small_burst in 65usize..128,
        large_burst in 1usize..8,
        rounds in 4usize..12,
    ) {
        const CAP: u64 = 8 << 20;
        let (bml, tel) = counted(CAP);
        for (len, burst) in [(64usize << 10, small_burst), (1 << 20, large_burst)] {
            let mut held = Vec::new();
            let mut fill_and_drain = |bml: &Bml| {
                for _ in 0..burst {
                    held.push(bml.try_acquire(len).expect("the burst fits"));
                    assert!(bml.idle_bytes() + bml.outstanding() <= CAP);
                }
                held.clear();
                assert!(bml.idle_bytes() + bml.outstanding() <= CAP);
            };
            // The first burst of a phase warms the class's list ...
            fill_and_drain(&bml);
            prop_assert!(bml.idle_bytes() >= (burst * len) as u64);
            // ... and every later one comes out of it.
            let warm = (blocks_taken(&tel), tel.slab_hits.get());
            for _ in 0..rounds {
                fill_and_drain(&bml);
            }
            let (acquires, hits) = (
                blocks_taken(&tel) - warm.0,
                tel.slab_hits.get() - warm.1,
            );
            prop_assert_eq!(acquires, (rounds * burst) as u64);
            prop_assert!(hits * 100 >= acquires * 99, "{hits} hits of {acquires}");
        }
        prop_assert_eq!(bml.outstanding(), 0);
    }
}

/// Hammer the BML from many threads with a capacity that forces
/// blocking; assert the capacity invariant and clean termination.
/// Each thread holds exactly one buffer at a time (as the daemon's
/// handlers do — holding several while blocking would be the classic
/// hold-and-wait deadlock, which the staged design never does).
#[test]
fn concurrent_acquires_never_exceed_capacity() {
    // 8 threads × one 64 KiB buffer each, all started together against a
    // 256 KiB cap: at most 4 fit, the rest must take the blocking path.
    const CAP: u64 = 256 * 1024;
    const SZ: usize = 64 * 1024;
    let (bml, tel) = counted(CAP);
    let outstanding = Arc::new(AtomicI64::new(0));
    let peak = Arc::new(AtomicI64::new(0));
    let barrier = Arc::new(std::sync::Barrier::new(8));
    std::thread::scope(|s| {
        for _ in 0..8 {
            let bml = bml.clone();
            let outstanding = outstanding.clone();
            let peak = peak.clone();
            let barrier = barrier.clone();
            s.spawn(move || {
                barrier.wait();
                for _ in 0..200 {
                    let buf = bml.acquire(SZ).expect("BML open");
                    let held = buf.block_size() as i64;
                    let now = outstanding.fetch_add(held, Ordering::SeqCst) + held;
                    peak.fetch_max(now, Ordering::SeqCst);
                    // Hold long enough that peers pile up on the cap.
                    std::hint::black_box(buf.as_slice().first());
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    outstanding.fetch_sub(held, Ordering::SeqCst);
                    drop(buf);
                }
            });
        }
    });
    assert!(
        peak.load(Ordering::SeqCst) as u64 <= CAP,
        "peak {} > cap",
        peak.load(Ordering::SeqCst)
    );
    assert_eq!(bml.outstanding(), 0);
    assert_eq!(blocks_taken(&tel), 8 * 200);
    assert!(
        tel.bml_blocked_acquires.get() > 0,
        "8x64 KiB against 256 KiB must block"
    );
    assert!(tel.slab_hits.get() > 0, "recycling should occur");
}
