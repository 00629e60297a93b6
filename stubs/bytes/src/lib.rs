//! Minimal, dependency-free stand-in for the `bytes` crate.
//!
//! The workspace builds hermetically (no registry access), so the handful
//! of external crates it uses are vendored as small local implementations
//! covering exactly the API surface the workspace exercises. `Bytes` is a
//! cheaply-clonable immutable *view* — a refcounted storage plus an
//! offset/length window — so `clone`, `slice` and `split_to` are O(1)
//! refcount bumps, never copies. That property is what makes the daemon's
//! zero-copy receive path work: a frame decoded out of a receive buffer
//! hands out sub-views of the same allocation all the way to the backend.
//! `BytesMut` is a growable buffer with the little-endian `BufMut`
//! putters the wire codec uses; `freeze` converts accumulated bytes into
//! a shared `Bytes` without copying them, and `Vec::from(Bytes)` gives the
//! storage back when the view is its only, whole owner.

use std::any::Any;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// External storage that a `Bytes` view can borrow from. Implementors
/// keep the backing memory alive (and may recycle it, e.g. back into a
/// buffer pool) when the last view drops. `Any`, so that the code that
/// made a view can take its owner back ([`Bytes::try_into_owner`]).
pub trait ByteOwner: Any + Send + Sync {
    fn as_slice(&self) -> &[u8];
}

/// The three kinds of storage a `Bytes` view can point into.
#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
    Owner(Arc<dyn ByteOwner>),
}

impl Repr {
    fn storage(&self) -> &[u8] {
        match self {
            Repr::Static(s) => s,
            Repr::Shared(v) => v.as_slice(),
            Repr::Owner(o) => o.as_slice(),
        }
    }
}

/// Immutable, cheaply clonable byte view: refcounted storage + window.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    off: usize,
    len: usize,
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Bytes {
    /// Empty view over static storage — no allocation.
    pub fn new() -> Self {
        Bytes {
            repr: Repr::Static(&[]),
            off: 0,
            len: 0,
        }
    }

    /// View over a static slice — no allocation, no copy.
    pub fn from_static(slice: &'static [u8]) -> Self {
        Bytes {
            repr: Repr::Static(slice),
            off: 0,
            len: slice.len(),
        }
    }

    /// The one constructor that deep-copies. Hot paths should prefer
    /// `From<Vec<u8>>`, `BytesMut::freeze`, or `slice` views.
    pub fn copy_from_slice(slice: &[u8]) -> Self {
        Bytes::from(slice.to_vec())
    }

    /// View backed by external storage; the owner is kept alive until
    /// the last derived view drops (see [`ByteOwner`]).
    pub fn from_owner(owner: Arc<dyn ByteOwner>) -> Self {
        let len = owner.as_slice().len();
        Bytes {
            repr: Repr::Owner(owner),
            off: 0,
            len,
        }
    }

    /// Take the owner back out: the [`Bytes::from_owner`] counterpart of
    /// `Vec::from(Bytes)`. Succeeds for a view that is the only reference
    /// to an owner of type `T` and spans all of it; any other view comes
    /// back unchanged.
    pub fn try_into_owner<T: ByteOwner>(self) -> Result<T, Bytes> {
        let Bytes { repr, off, len } = self;
        let repr = match repr {
            Repr::Owner(owner) if off == 0 && len == owner.as_slice().len() => {
                let any: Arc<dyn Any + Send + Sync> = owner.clone();
                match any.downcast::<T>() {
                    Ok(typed) => {
                        drop(owner);
                        match Arc::try_unwrap(typed) {
                            Ok(owner) => return Ok(owner),
                            Err(shared) => Repr::Owner(shared),
                        }
                    }
                    Err(_) => Repr::Owner(owner),
                }
            }
            repr => repr,
        };
        Err(Bytes { repr, off, len })
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn as_slice(&self) -> &[u8] {
        &self.repr.storage()[self.off..self.off + self.len]
    }

    /// O(1) sub-view sharing the same storage. Panics if the range is
    /// out of bounds, mirroring slice indexing.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {}..{} out of bounds of {}",
            range.start,
            range.end,
            self.len
        );
        Bytes {
            repr: self.repr.clone(),
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }

    /// O(1) split: returns the first `at` bytes as a view and advances
    /// `self` past them. Both halves share the same storage.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(0..at);
        self.off += at;
        self.len -= at;
        head
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        // Nothing to share: no refcount block for an empty view.
        if v.is_empty() {
            return Bytes::new();
        }
        let len = v.len();
        Bytes {
            repr: Repr::Shared(Arc::new(v)),
            off: 0,
            len,
        }
    }
}

/// Take the bytes out as a `Vec`. A view that is the only reference to
/// its storage and spans all of it gives the storage itself back — no
/// copy, as in the real `bytes` crate; any other view is copied.
impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        match b.repr {
            Repr::Shared(storage) if b.off == 0 && b.len == storage.len() => {
                Arc::try_unwrap(storage).unwrap_or_else(|shared| shared.as_slice().to_vec())
            }
            _ => b.as_slice().to_vec(),
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == &other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == &other[..]
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(64) {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        if self.len > 64 {
            write!(f, "…(+{})", self.len - 64)?;
        }
        write!(f, "\"")
    }
}

/// Growable byte buffer with little-endian putters.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Convert into an immutable shared view. Moves the Vec into the
    /// refcounted storage — no copy.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    pub fn extend_from_slice(&mut self, slice: &[u8]) {
        self.data.extend_from_slice(slice);
    }

    /// Split off and return the first `at` bytes, leaving the rest.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let rest = self.data.split_off(at);
        BytesMut {
            data: std::mem::replace(&mut self.data, rest),
        }
    }

    /// Drop the first `cnt` bytes; the rest moves to the front and the
    /// allocation is kept.
    pub fn advance(&mut self, cnt: usize) {
        self.data.drain(..cnt);
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn clear(&mut self) {
        self.data.clear();
    }

    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Read at most `max` bytes from `r` directly into this buffer's
    /// spare capacity — room for them is reserved first, which allocates
    /// nothing when the capacity is already there — and advance the
    /// length by however many bytes the reader produced. One syscall,
    /// zero intermediate copies.
    ///
    /// Returns the number of bytes read (0 on EOF, or when `max` is 0).
    /// Errors leave the buffer contents and length untouched.
    pub fn read_from<R: std::io::Read>(&mut self, r: &mut R, max: usize) -> std::io::Result<usize> {
        self.data.reserve(max);
        let len = self.data.len();
        let spare = &mut self.data.spare_capacity_mut()[..max];
        // SAFETY: `spare` is valid, exclusively-owned writable memory of
        // exactly `spare.len()` bytes inside the Vec's allocation.
        // `Read::read` implementations must not *read* from the buffer,
        // only write initialized bytes and report how many; every
        // reader used here (TcpStream, cursors over &[u8]) honors that.
        let uninit: &mut [u8] =
            unsafe { std::slice::from_raw_parts_mut(spare.as_mut_ptr().cast::<u8>(), spare.len()) };
        let n = r.read(uninit)?;
        let n = n.min(uninit.len());
        // SAFETY: the first `n` bytes of the spare region were just
        // initialized by the reader, so len + n is fully initialized.
        unsafe { self.data.set_len(len + n) };
        Ok(n)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut(len={})", self.data.len())
    }
}

/// Buffer-append trait: the subset of `bytes::BufMut` the wire codec uses.
pub trait BufMut {
    fn put_u8(&mut self, v: u8);
    fn put_u16_le(&mut self, v: u16);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    fn put_i64_le(&mut self, v: i64);
    fn put_slice(&mut self, slice: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }
    fn put_u16_le(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }
    fn put_i64_le(&mut self, v: i64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }
    fn put_slice(&mut self, slice: &[u8]) {
        self.data.extend_from_slice(slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn putters_are_little_endian() {
        let mut b = BytesMut::new();
        b.put_u8(1);
        b.put_u16_le(0x0203);
        b.put_u32_le(0x04050607);
        assert_eq!(&b[..], &[1, 3, 2, 7, 6, 5, 4]);
    }

    #[test]
    fn split_to_takes_prefix() {
        let mut b = BytesMut::new();
        b.extend_from_slice(b"abcdef");
        let head = b.split_to(2);
        assert_eq!(&head[..], b"ab");
        assert_eq!(&b[..], b"cdef");
    }

    #[test]
    fn read_from_appends_via_spare_capacity() {
        let mut b = BytesMut::with_capacity(4);
        b.extend_from_slice(b"ab");
        let mut src = std::io::Cursor::new(b"cdefgh".to_vec());
        let n = b.read_from(&mut src, 64).unwrap();
        assert_eq!(n, 6);
        assert_eq!(&b[..], b"abcdefgh");
        // EOF reads zero and leaves the buffer alone.
        assert_eq!(b.read_from(&mut src, 64).unwrap(), 0);
        assert_eq!(&b[..], b"abcdefgh");
        // The read is bounded by `max`, and a read that fits the capacity
        // does not move the buffer.
        let mut exact = BytesMut::with_capacity(5);
        let base = exact.as_ref().as_ptr();
        let mut src = std::io::Cursor::new(b"0123456789".to_vec());
        assert_eq!(exact.read_from(&mut src, 3).unwrap(), 3);
        assert_eq!(exact.read_from(&mut src, 2).unwrap(), 2);
        assert_eq!(&exact[..], b"01234");
        assert_eq!(exact.as_ref().as_ptr(), base);
    }

    #[test]
    fn bytes_round_trip() {
        let b = Bytes::from(vec![1, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b, [1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
    }

    #[test]
    fn slice_and_split_share_storage_without_copying() {
        let storage: Vec<u8> = (0u8..16).collect();
        let base = storage.as_ptr();
        let mut b = Bytes::from(storage);
        let mid = b.slice(4..12);
        assert_eq!(&mid[..], &(4u8..12).collect::<Vec<_>>()[..]);
        // The view points into the original allocation.
        assert_eq!(mid.as_slice().as_ptr(), unsafe { base.add(4) });
        let head = b.split_to(8);
        assert_eq!(head.as_slice().as_ptr(), base);
        assert_eq!(b.as_slice().as_ptr(), unsafe { base.add(8) });
        assert_eq!(&head[..], &(0u8..8).collect::<Vec<_>>()[..]);
        assert_eq!(&b[..], &(8u8..16).collect::<Vec<_>>()[..]);
        // Sub-slicing a view composes offsets.
        let inner = mid.slice(2..5);
        assert_eq!(&inner[..], &[6, 7, 8]);
    }

    #[test]
    fn freeze_moves_storage_without_copying() {
        let mut b = BytesMut::new();
        b.extend_from_slice(b"payload");
        let base = b.as_ref().as_ptr();
        let frozen = b.freeze();
        assert_eq!(frozen.as_slice().as_ptr(), base);
        assert_eq!(&frozen[..], b"payload");
    }

    #[test]
    fn advance_drops_the_front_and_keeps_the_allocation() {
        let mut b = BytesMut::with_capacity(64);
        b.extend_from_slice(b"frame-one|tail");
        let base = b.as_ref().as_ptr();
        b.advance(9);
        assert_eq!(&b[..], b"|tail");
        assert_eq!(b.as_ref().as_ptr(), base);
        b.extend_from_slice(b"-more");
        assert_eq!(&b[..], b"|tail-more");
    }

    #[test]
    fn vec_from_a_whole_unique_view_is_the_storage_itself() {
        let storage = vec![7u8; 100];
        let base = storage.as_ptr();
        let whole = Bytes::from(storage);
        let back = Vec::from(whole);
        assert_eq!(back.as_ptr(), base, "unique whole view: no copy");
        // A shared or partial view must copy and leave the others intact.
        let b = Bytes::from(back);
        let other = b.clone();
        let copied = Vec::from(b);
        assert_ne!(copied.as_ptr(), base);
        let part = other.slice(1..100);
        drop(other);
        let copied = Vec::from(part);
        assert_ne!(copied.as_ptr(), base);
        assert_eq!(copied, vec![7u8; 99]);
    }

    #[test]
    fn from_owner_keeps_owner_alive_and_views_its_bytes() {
        struct Block {
            data: Vec<u8>,
            dropped: Arc<std::sync::atomic::AtomicBool>,
        }
        impl ByteOwner for Block {
            fn as_slice(&self) -> &[u8] {
                &self.data
            }
        }
        impl Drop for Block {
            fn drop(&mut self) {
                self.dropped
                    .store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let owner = Arc::new(Block {
            data: b"owned-bytes".to_vec(),
            dropped: dropped.clone(),
        });
        let b = Bytes::from_owner(owner);
        let view = b.slice(6..11);
        drop(b);
        assert!(!dropped.load(std::sync::atomic::Ordering::SeqCst));
        assert_eq!(&view[..], b"bytes");
        drop(view);
        assert!(dropped.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn try_into_owner_gives_back_only_a_whole_unique_owner_of_that_type() {
        struct Block(Vec<u8>);
        impl ByteOwner for Block {
            fn as_slice(&self) -> &[u8] {
                &self.0
            }
        }
        struct Other;
        impl ByteOwner for Other {
            fn as_slice(&self) -> &[u8] {
                b"other"
            }
        }
        let whole = Bytes::from_owner(Arc::new(Block(b"block".to_vec())));
        let base = whole.as_ptr();
        // Shared, partial, or of another type: the view comes back as it was.
        let shared = whole.clone();
        let whole = whole.try_into_owner::<Block>().err().expect("shared");
        let part = shared.slice(1..5).try_into_owner::<Block>().err();
        assert_eq!(&part.expect("partial")[..], b"lock");
        drop(shared);
        let whole = whole.try_into_owner::<Other>().err().expect("other type");
        let heap = Bytes::from(vec![1u8; 4]).try_into_owner::<Block>().err();
        assert_eq!(heap.expect("not an owner view"), [1u8; 4]);
        let block = whole.try_into_owner::<Block>().expect("sole whole view");
        assert_eq!(block.0.as_ptr(), base);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1, 2, 3]);
        let _ = b.slice(1..5);
    }
}
