//! The Buffer Management Layer (BML).
//!
//! §IV of the paper:
//!
//! > To facilitate asynchronous data staging, we designed a custom buffer
//! > management layer (BML) in ZOID. [...] The total memory managed by
//! > BML can be controlled by an environment variable during the
//! > application launch. In the current implementation, the buffer
//! > management allocates buffers that are powers of 2 bytes. [...] The
//! > amount of data that can be buffered is limited by the available
//! > memory on the ION. If there is insufficient memory to stage the
//! > data, the I/O operation is blocked until a number of queued I/O
//! > operations complete and sufficient memory is available.
//!
//! This module implements exactly that: power-of-two size classes with
//! per-class free lists, a hard capacity on total outstanding buffer
//! memory, and *blocking* acquisition when the cap is reached. Blocks are
//! what the daemon receives every write payload into
//! ([`Bml::receive_storage`]), on either transport: the payload is charged
//! before it is received — the one place staging memory is waited for —
//! and staged in the block it landed in ([`BmlBuffer::from_payload`]). A
//! payload whose power-of-two class exceeds the pool stays on the heap and
//! is written synchronously. Idle blocks stay in the pool — idle plus
//! outstanding bytes never exceed the capacity — so a steady workload
//! never reaches the allocator (DESIGN.md §16).
//!
//! Blocked acquisitions are admitted in strict FIFO order via a ticket
//! queue: a release reserves capacity for the head waiter(s) *before*
//! waking them, so a late arrival can never barge past a handler that
//! blocked earlier (no starvation of large requests behind a stream of
//! small ones). This hand-off protocol is model-checked by the loom
//! suite (`tests/loom_model.rs`, run with `RUSTFLAGS="--cfg loom"`).
//!
//! Lifetime under write coalescing (DESIGN.md §12): a staged buffer is
//! normally released right after its own serial backend write. When the
//! worker harvests a contiguous chain into one vectored call, every
//! constituent's buffer is instead *lent* to the batch iovec (no copy)
//! and all of them are released together at fan-out, after the batch's
//! outcome has been attributed per op. Coalescing therefore never
//! extends occupancy past the batch it rode in — the gauge still reads
//! zero once the lane drains, which the drain contract and the staging
//! early-exit table (`tests/receive_pool.rs`) check.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use bytes::{ByteOwner, Bytes};
use iofwd_proto::{Errno, PayloadBuf, Storage};

use crate::sync::{Condvar, Mutex};
use crate::telemetry::Telemetry;

/// Smallest buffer class: 4 KiB (one BG/P page).
pub const MIN_CLASS_SHIFT: u32 = 12;
/// Largest buffer class: 64 MiB (the protocol's max frame payload).
pub const MAX_CLASS_SHIFT: u32 = 26;
const NUM_CLASSES: usize = (MAX_CLASS_SHIFT - MIN_CLASS_SHIFT + 1) as usize;

struct BmlInner {
    free: [Vec<Box<[u8]>>; NUM_CLASSES],
    /// Bytes in `free`.
    idle: u64,
    outstanding: u64,
    closed: bool,
    /// Blocked acquisitions in arrival order: (ticket, block size).
    waiters: VecDeque<(u64, u64)>,
    /// Tickets whose capacity a release has already reserved; the owner
    /// consumes the entry when it wakes.
    granted: HashMap<u64, u64>,
    next_ticket: u64,
}

impl BmlInner {
    /// Reserve capacity for as many head-of-queue waiters as now fit.
    /// Strict FIFO: stops at the first waiter that does not fit, even if
    /// a later (smaller) one would. Whether any waiter was granted.
    fn grant_from_front(&mut self, capacity: u64) -> bool {
        let before = self.waiters.len();
        while let Some(&(ticket, block)) = self.waiters.front() {
            if self.outstanding + block > capacity {
                break;
            }
            self.outstanding += block;
            self.granted.insert(ticket, block);
            self.waiters.pop_front();
        }
        self.waiters.len() < before
    }

    /// A block of `class` for a buffer whose capacity is already charged:
    /// recycled if the class has one idle, else from the allocator.
    fn take_block(&mut self, class: usize, block_size: usize, tel: &Telemetry) -> Box<[u8]> {
        match self.free[class].pop() {
            Some(block) => {
                self.idle -= block_size as u64;
                if tel.enabled() {
                    tel.slab_hits.inc();
                }
                block
            }
            None => {
                if tel.enabled() {
                    tel.slab_misses.inc();
                    tel.hotpath_alloc_bytes.add(block_size as u64);
                }
                vec![0u8; block_size].into_boxed_slice()
            }
        }
    }

    /// After a charge: bring idle + outstanding back within `capacity` by
    /// giving idle blocks up — other classes' (largest first) before
    /// `keep`'s own, which the workload is using now. The caller drops
    /// what comes back once the lock is released.
    fn evict_to_fit(&mut self, keep: usize, capacity: u64) -> Vec<Box<[u8]>> {
        let mut evicted = Vec::new();
        if self.idle + self.outstanding <= capacity {
            return evicted;
        }
        for class in (0..NUM_CLASSES).rev().filter(|&c| c != keep).chain([keep]) {
            while self.idle + self.outstanding > capacity {
                let Some(block) = self.free[class].pop() else {
                    break;
                };
                self.idle -= block.len() as u64;
                evicted.push(block);
            }
        }
        evicted
    }
}

/// The buffer manager. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Bml {
    shared: Arc<BmlShared>,
}

struct BmlShared {
    inner: Mutex<BmlInner>,
    cv: Condvar,
    capacity: u64,
    telemetry: Arc<Telemetry>,
}

/// Storage behind a [`BmlBuffer`].
enum BufRepr {
    /// A pool-owned power-of-two block; recycled into the class free
    /// list on drop. Empty only after `Drop` takes the block; all
    /// user-reachable methods see a full block.
    Owned(Box<[u8]>),
    /// A payload adopted by reference ([`Bml::adopt`], whose one caller
    /// is the benchmark's per-layer replay). Capacity is charged as if a
    /// block of the same class were held; drop releases the charge and
    /// the view.
    Adopted(Bytes),
}

/// A staged buffer: exclusive access to `len` usable bytes, either
/// backed by a pool block or adopting a shared payload by reference.
/// Returns its memory (or capacity charge) to the BML on drop.
pub struct BmlBuffer {
    repr: BufRepr,
    len: usize,
    class: usize,
    bml: Bml,
}

/// Keeps a slab block alive as the backing store of a shared [`Bytes`]
/// payload (e.g. a read reply). The block rejoins the free list when
/// the last view drops.
struct SlabPayload {
    buf: BmlBuffer,
}

impl ByteOwner for SlabPayload {
    fn as_slice(&self) -> &[u8] {
        self.buf.as_slice()
    }
}

impl Bml {
    /// Create a BML managing at most `capacity` bytes of staging memory.
    ///
    /// Panics if `capacity` cannot hold even one smallest-class block.
    pub fn new(capacity: u64) -> Self {
        Self::with_telemetry(capacity, Arc::new(Telemetry::disabled()))
    }

    /// Like [`Bml::new`], reporting occupancy/waiter gauges and block
    /// durations into a shared telemetry registry.
    pub fn with_telemetry(capacity: u64, telemetry: Arc<Telemetry>) -> Self {
        assert!(
            capacity >= (1 << MIN_CLASS_SHIFT),
            "BML capacity {capacity} smaller than one {} B block",
            1u64 << MIN_CLASS_SHIFT
        );
        Bml {
            shared: Arc::new(BmlShared {
                inner: Mutex::new(BmlInner {
                    free: std::array::from_fn(|_| Vec::new()),
                    idle: 0,
                    outstanding: 0,
                    closed: false,
                    waiters: VecDeque::new(),
                    granted: HashMap::new(),
                    next_ticket: 0,
                }),
                cv: Condvar::new(),
                capacity,
                telemetry,
            }),
        }
    }

    /// Size class (power-of-two block size) for a request of `len` bytes.
    pub fn class_for(len: usize) -> (usize, usize) {
        let len = len.max(1);
        let shift = (usize::BITS - (len - 1).leading_zeros()).max(MIN_CLASS_SHIFT);
        let shift = shift.min(MAX_CLASS_SHIFT);
        let block = 1usize << shift;
        assert!(block >= len, "request {len} exceeds max class {block}");
        ((shift - MIN_CLASS_SHIFT) as usize, block)
    }

    /// Acquire a buffer of at least `len` bytes, blocking while staging
    /// memory is exhausted (the paper's §IV behaviour). Fails with
    /// [`Errno::NoMem`] only when the BML has been closed for shutdown.
    pub fn acquire(&self, len: usize) -> Result<BmlBuffer, Errno> {
        self.admit(len, None).ok_or(Errno::NoMem)
    }

    /// Adopt `data` as a staged buffer by reference: the payload is not
    /// copied, and the charge for its size class goes through the same
    /// FIFO admission as [`Bml::acquire`]. The daemon stages only payloads
    /// received into blocks; this stays for the benchmark's per-layer
    /// replay (`bml.adopt_ns_per_op`). Fails with [`Errno::NoMem`] only
    /// when the BML has been closed.
    pub fn adopt(&self, data: Bytes) -> Result<BmlBuffer, Errno> {
        self.admit(data.len(), Some(data)).ok_or(Errno::NoMem)
    }

    /// Storage for a payload of `len` bytes that is about to be received
    /// (the `FrameReader` hook, asked for every write payload): a block of
    /// its class, charged now. With
    /// `wait` the caller blocks for one as in [`Bml::acquire`] (§IV);
    /// without, a full pool answers [`Storage::NotYet`]. A payload no
    /// block of this pool can hold goes to the heap, as does everything
    /// once the pool has closed.
    pub fn receive_storage(&self, len: usize, wait: bool) -> Storage {
        if Self::class_for(len).1 as u64 > self.shared.capacity {
            return Storage::Heap;
        }
        let block = if wait {
            self.acquire(len).ok()
        } else {
            self.try_acquire(len)
        };
        match block {
            Some(buf) => Storage::Block(Box::new(buf)),
            None if wait || self.is_closed() => Storage::Heap,
            None => Storage::NotYet,
        }
    }

    /// Shared admission path: charge capacity for `len`'s class (FIFO,
    /// blocking) and build a buffer — pool-backed when `source` is
    /// `None`, adopting `source` by reference otherwise. `None` once the
    /// BML has closed.
    fn admit(&self, len: usize, source: Option<Bytes>) -> Option<BmlBuffer> {
        let (class, block_size) = Self::class_for(len);
        assert!(
            block_size as u64 <= self.shared.capacity,
            "request {len} larger than BML capacity {}",
            self.shared.capacity
        );
        let mut inner = self.shared.inner.lock();
        if inner.closed {
            return None;
        }
        // Fast path: nobody queued ahead of us and the block fits.
        if inner.waiters.is_empty() && inner.outstanding + block_size as u64 <= self.shared.capacity
        {
            inner.outstanding += block_size as u64;
            return Some(self.finish_admit(inner, class, block_size, len, source));
        }
        // Slow path: join the FIFO admission queue and wait for a release
        // (or close) to hand us reserved capacity.
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        inner.waiters.push_back((ticket, block_size as u64));
        let tel = &self.shared.telemetry;
        let block_start = tel.now_ns();
        if tel.enabled() {
            tel.bml_blocked_acquires.inc();
            tel.bml_waiters.add(1);
        }
        loop {
            if inner.granted.remove(&ticket).is_some() {
                // Capacity already reserved on our behalf.
                if tel.enabled() {
                    tel.bml_waiters.add(-1);
                    tel.bml_block_ns
                        .record(tel.now_ns().saturating_sub(block_start));
                }
                return Some(self.finish_admit(inner, class, block_size, len, source));
            }
            if inner.closed {
                if tel.enabled() {
                    tel.bml_waiters.add(-1);
                }
                return None;
            }
            self.shared.cv.wait(&mut inner);
        }
    }

    /// Build the buffer once capacity has been charged: pop a
    /// free-listed (or freshly allocated) block, or wrap the adopted
    /// payload. `outstanding` has already been charged by the caller.
    fn finish_admit(
        &self,
        mut inner: crate::sync::MutexGuard<'_, BmlInner>,
        class: usize,
        block_size: usize,
        len: usize,
        source: Option<Bytes>,
    ) -> BmlBuffer {
        let tel = &self.shared.telemetry;
        if tel.enabled() {
            // `outstanding` was charged by the caller under this same
            // lock, so the gauge tracks the accounting exactly.
            tel.bml_occupancy.set(inner.outstanding as i64);
        }
        let repr = match source {
            Some(data) => BufRepr::Adopted(data),
            None => BufRepr::Owned(inner.take_block(class, block_size, tel)),
        };
        let evicted = inner.evict_to_fit(class, self.shared.capacity);
        drop(inner);
        drop(evicted);
        BmlBuffer {
            repr,
            len,
            class,
            bml: self.clone(),
        }
    }

    /// Try to acquire without blocking. Fails when closed, when capacity
    /// is exhausted, or when earlier acquisitions are queued (FIFO: a
    /// try-acquire must not barge past blocked handlers).
    pub fn try_acquire(&self, len: usize) -> Option<BmlBuffer> {
        let (class, block_size) = Self::class_for(len);
        let mut inner = self.shared.inner.lock();
        if inner.closed
            || !inner.waiters.is_empty()
            || inner.outstanding + block_size as u64 > self.shared.capacity
        {
            return None;
        }
        inner.outstanding += block_size as u64;
        Some(self.finish_admit(inner, class, block_size, len, None))
    }

    /// Wake all waiters and refuse further acquisitions (daemon shutdown).
    pub fn close(&self) {
        let mut inner = self.shared.inner.lock();
        inner.closed = true;
        // Un-reserve capacity granted to waiters that have not collected
        // it yet: they will observe `closed` before their grant.
        inner.waiters.clear();
        drop(inner);
        self.shared.cv.notify_all();
    }

    /// Whether [`close`](Self::close) has run: every acquisition fails
    /// from now on, so a refused `try_*` call is final, not "full".
    pub fn is_closed(&self) -> bool {
        self.shared.inner.lock().closed
    }

    /// Bytes currently held by live buffers (and reserved grants).
    pub fn outstanding(&self) -> u64 {
        self.shared.inner.lock().outstanding
    }

    /// Bytes of idle blocks kept for reuse.
    pub fn idle_bytes(&self) -> u64 {
        self.shared.inner.lock().idle
    }

    /// Acquisitions currently blocked in the FIFO admission queue
    /// (introspection for stats reports and the loom suite).
    pub fn waiter_count(&self) -> usize {
        self.shared.inner.lock().waiters.len()
    }

    /// Total managed capacity.
    pub fn capacity(&self) -> u64 {
        self.shared.capacity
    }

    /// Give back a buffer's charge for `class` and, unless it adopted its
    /// payload (whose storage belongs to its refcount), its block.
    fn release(&self, mut block: Option<Box<[u8]>>, class: usize) {
        let block_size = 1u64 << (class as u32 + MIN_CLASS_SHIFT);
        let mut inner = self.shared.inner.lock();
        inner.outstanding -= block_size;
        // Every block that comes back is the slab: the next acquisition
        // of this class reuses it without touching the allocator. What
        // was outstanding becomes idle, so the sum stays within the
        // capacity; a charge for another class evicts (`evict_to_fit`).
        if let Some(block) = block.take_if(|_| !inner.closed) {
            inner.idle += block_size;
            if self.shared.telemetry.enabled() {
                self.shared.telemetry.slab_recycled_bytes.add(block_size);
            }
            inner.free[class].push(block);
        }
        // FIFO hand-off: reserve the freed capacity for the head
        // waiter(s) before any new arrival can take it.
        let granted = inner.grant_from_front(self.shared.capacity);
        if self.shared.telemetry.enabled() {
            self.shared
                .telemetry
                .bml_occupancy
                .set(inner.outstanding as i64);
        }
        drop(inner);
        // Waiters wake only to a grant (or `close`): no grant, no futex call.
        if granted {
            self.shared.cv.notify_all();
        }
    }
}

impl BmlBuffer {
    /// Usable length (the requested size, not the rounded block size).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying block size (power of two) — for an adopted
    /// payload, the class charge it occupies.
    pub fn block_size(&self) -> usize {
        match &self.repr {
            BufRepr::Owned(block) => block.len(),
            BufRepr::Adopted(_) => 1usize << (self.class as u32 + MIN_CLASS_SHIFT),
        }
    }

    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            BufRepr::Owned(block) => &block[..self.len],
            BufRepr::Adopted(data) => &data[..self.len],
        }
    }

    /// Exclusive access to the usable bytes. An adopted payload is
    /// promoted copy-on-write to a private pool block on first call —
    /// the shared view it came from is never mutated through this.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        if let BufRepr::Adopted(data) = &self.repr {
            let data = data.clone();
            // Capacity for this class is already charged; only the
            // private storage itself is taken here.
            let block_size = 1usize << (self.class as u32 + MIN_CLASS_SHIFT);
            let shared = &self.bml.shared;
            let mut block =
                (shared.inner.lock()).take_block(self.class, block_size, &shared.telemetry);
            block[..self.len].copy_from_slice(&data[..self.len]);
            self.repr = BufRepr::Owned(block);
        }
        match &mut self.repr {
            BufRepr::Owned(block) => &mut block[..self.len],
            // Unreachable: the promotion above replaced any adopted repr.
            BufRepr::Adopted(_) => &mut [],
        }
    }

    /// Copy `src` into the buffer (must fit).
    pub fn fill_from(&mut self, src: &[u8]) {
        assert!(src.len() <= self.len, "fill_from overflow");
        self.as_mut_slice()[..src.len()].copy_from_slice(src);
    }

    /// Shrink the usable length (e.g. after a short backend read);
    /// never grows.
    pub fn truncate(&mut self, n: usize) {
        self.len = self.len.min(n);
    }

    /// Freeze into a shared refcounted payload without copying. The
    /// block — and its BML capacity charge — stays alive until the last
    /// view drops, then returns to the slab like any other release.
    pub fn into_bytes(self) -> Bytes {
        Bytes::from_owner(Arc::new(SlabPayload { buf: self }))
    }

    /// [`BmlBuffer::into_bytes`] undone: the buffer behind `data`, when
    /// `data` is the only view of one and spans it — a payload received
    /// into [`Bml::receive_storage`]'s block is staged where it landed, on
    /// the charge it has held since before its first byte. Any other
    /// payload comes back unchanged.
    pub fn from_payload(data: Bytes) -> Result<BmlBuffer, Bytes> {
        data.try_into_owner::<SlabPayload>().map(|owner| owner.buf)
    }
}

impl PayloadBuf for BmlBuffer {
    fn as_mut_slice(&mut self) -> &mut [u8] {
        BmlBuffer::as_mut_slice(self)
    }

    fn freeze(self: Box<Self>) -> Bytes {
        self.into_bytes()
    }
}

impl Drop for BmlBuffer {
    fn drop(&mut self) {
        match std::mem::replace(&mut self.repr, BufRepr::Owned(Box::new([]))) {
            BufRepr::Owned(block) => {
                // The empty sentinel is what `replace` left behind in a
                // buffer that already dropped; never release it.
                if !block.is_empty() {
                    self.bml.release(Some(block), self.class);
                }
            }
            BufRepr::Adopted(_) => self.bml.release(None, self.class),
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    /// A BML counting into its own enabled registry.
    fn counted(capacity: u64) -> (Bml, Arc<Telemetry>) {
        let tel = Arc::new(Telemetry::new());
        (Bml::with_telemetry(capacity, tel.clone()), tel)
    }

    #[test]
    fn class_rounding() {
        assert_eq!(Bml::class_for(1), (0, 4096));
        assert_eq!(Bml::class_for(4096), (0, 4096));
        assert_eq!(Bml::class_for(4097), (1, 8192));
        assert_eq!(Bml::class_for(1 << 20), ((20 - 12), 1 << 20));
        assert_eq!(Bml::class_for((1 << 20) + 1), ((21 - 12), 1 << 21));
    }

    #[test]
    #[should_panic]
    fn oversize_request_panics() {
        let _ = Bml::class_for((1 << 26) + 1);
    }

    #[test]
    fn acquire_release_accounting() {
        let (bml, tel) = counted(1 << 20);
        let b1 = bml.acquire(5000).unwrap(); // rounds to 8192
        assert_eq!(b1.block_size(), 8192);
        assert_eq!(b1.len(), 5000);
        assert_eq!(bml.outstanding(), 8192);
        drop(b1);
        assert_eq!(bml.outstanding(), 0);
        assert_eq!(tel.slab_misses.get(), 1);
        assert_eq!(tel.bml_occupancy.peak(), 8192);
    }

    #[test]
    fn freelist_reuse() {
        let (bml, tel) = counted(1 << 20);
        let b = bml.acquire(4096).unwrap();
        drop(b);
        let _b2 = bml.acquire(4096).unwrap();
        assert_eq!(tel.slab_hits.get(), 1);
    }

    #[test]
    fn blocking_acquire_waits_for_release() {
        let (bml, tel) = counted(8192);
        let b1 = bml.acquire(8192).unwrap();
        let bml2 = bml.clone();
        let got_it = Arc::new(AtomicBool::new(false));
        let got_it2 = got_it.clone();
        let t = std::thread::spawn(move || {
            let _b = bml2.acquire(8192).unwrap(); // must block until b1 drops
            got_it2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !got_it.load(Ordering::SeqCst),
            "acquire should still be blocked"
        );
        drop(b1);
        t.join().unwrap();
        assert!(got_it.load(Ordering::SeqCst));
        assert_eq!(tel.bml_blocked_acquires.get(), 1);
    }

    #[test]
    fn try_acquire_does_not_block() {
        let bml = Bml::new(8192);
        let _b1 = bml.acquire(8192).unwrap();
        let t0 = Instant::now();
        assert!(bml.try_acquire(4096).is_none());
        assert!(t0.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn close_releases_waiters() {
        let bml = Bml::new(4096);
        let _b = bml.acquire(4096).unwrap();
        let bml2 = bml.clone();
        let t = std::thread::spawn(move || bml2.acquire(4096));
        std::thread::sleep(Duration::from_millis(20));
        bml.close();
        assert!(t.join().unwrap().is_err());
        assert!(bml.try_acquire(1).is_none());
        assert!(bml.acquire(1).is_err());
    }

    #[test]
    fn fill_and_read_back() {
        let bml = Bml::new(1 << 16);
        let mut b = bml.acquire(11).unwrap();
        b.fill_from(b"hello world");
        assert_eq!(b.as_slice(), b"hello world");
    }

    #[test]
    fn adopt_shares_storage_and_charges_capacity() {
        let (bml, tel) = counted(1 << 20);
        let payload = Bytes::from(vec![7u8; 5000]);
        let ptr = payload.as_ref().as_ptr();
        let buf = bml.adopt(payload).unwrap();
        assert_eq!(buf.as_slice().as_ptr(), ptr, "adopt must not copy");
        assert_eq!(buf.block_size(), 8192);
        assert_eq!(bml.outstanding(), 8192);
        assert_eq!(tel.slab_misses.get(), 0, "adopt takes no block");
        drop(buf);
        assert_eq!(bml.outstanding(), 0);
    }

    #[test]
    fn adopted_buffer_backpressures_like_owned() {
        let bml = Bml::new(8192);
        let held = bml.adopt(Bytes::from(vec![0u8; 8192])).unwrap();
        assert!(bml.try_acquire(1).is_none());
        drop(held);
        assert!(bml.try_acquire(1).is_some());
    }

    #[test]
    fn as_mut_slice_promotes_adopted_copy_on_write() {
        let bml = Bml::new(1 << 20);
        let payload = Bytes::from(vec![1u8; 100]);
        let shared = payload.clone();
        let mut buf = bml.adopt(payload).unwrap();
        buf.as_mut_slice()[0] = 9;
        assert_eq!(buf.as_slice()[0], 9);
        assert_eq!(shared[0], 1, "original payload must be untouched");
        drop(buf);
        assert_eq!(bml.outstanding(), 0);
    }

    #[test]
    fn into_bytes_keeps_capacity_until_last_view_drops() {
        let (bml, tel) = counted(1 << 20);
        let mut buf = bml.acquire(4096).unwrap();
        buf.fill_from(b"abc");
        buf.truncate(3);
        let view = buf.into_bytes();
        let view2 = view.clone();
        assert_eq!(&view[..], b"abc");
        assert_eq!(bml.outstanding(), 4096);
        drop(view);
        assert_eq!(bml.outstanding(), 4096, "clone still holds the block");
        drop(view2);
        assert_eq!(bml.outstanding(), 0);
        // The block rejoined the slab free list on the final drop.
        assert_eq!(tel.slab_recycled_bytes.get(), 4096);
    }

    #[test]
    fn many_concurrent_holders_capped() {
        let bml = Bml::new(64 * 4096);
        let mut held = Vec::new();
        for _ in 0..64 {
            held.push(bml.acquire(4096).unwrap());
        }
        assert_eq!(bml.outstanding(), 64 * 4096);
        assert!(bml.try_acquire(1).is_none());
        held.clear();
        assert_eq!(bml.outstanding(), 0);
        assert!(bml.try_acquire(1).is_some());
    }
}
