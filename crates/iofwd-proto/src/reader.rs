//! Streaming frame receive: the one partial-read state machine, shared by
//! the client and both daemon transports, two-step like the protocol
//! (§V-A2). Header, extension and parameters are read into a small `head`
//! buffer the reader keeps; once they have sized the frame, the caller's
//! [`Storage`] hook is asked where its payload lands (DESIGN.md §15): a
//! heap buffer of exactly its length, or storage the hook hands out — the
//! daemon's is a recycled BML block, charged before a byte of the payload
//! is read. [`Frame::SPLIT_SEND_MIN`] decides only how a payload is read:
//! a smaller one arrives with its head and is copied once, a larger one is
//! read straight into its storage.
//!
//! The reader owns no socket, no pool and no blocking policy: every read
//! goes to whatever the caller passes in, and `WouldBlock` — the socket's,
//! or the hook's [`Storage::NotYet`] — leaves the state intact.

use std::io::{self, Read};

use bytes::{Bytes, BytesMut};

use crate::error::DecodeError;
use crate::wire::{Frame, FrameHeader};

/// Caller-provided storage for one payload.
pub trait PayloadBuf: Send {
    /// All of it: exactly the length [`Storage::Block`] was asked for.
    fn as_mut_slice(&mut self) -> &mut [u8];
    /// The received payload as a shared view of this storage.
    fn freeze(self: Box<Self>) -> Bytes;
}

/// A storage hook's answer for a payload of the length it was given.
pub enum Storage {
    /// An exact-size heap buffer: what [`FrameReader::read_frame`] uses.
    Heap,
    Block(Box<dyn PayloadBuf>),
    /// Nothing to give now. `read_frame_with` returns `WouldBlock` having
    /// consumed nothing; the next call asks again.
    NotYet,
}

/// Where a frame's payload is accumulating.
enum Payload {
    Heap(BytesMut),
    /// The block and how much of it is filled.
    Block(Box<dyn PayloadBuf>, usize),
}

impl Payload {
    fn len(&self) -> usize {
        match self {
            Payload::Heap(data) => data.len(),
            Payload::Block(_, filled) => *filled,
        }
    }

    fn read_from<R: Read>(&mut self, r: &mut R, max: usize) -> io::Result<usize> {
        match self {
            Payload::Heap(data) => data.read_from(r, max),
            Payload::Block(block, filled) => {
                let n = r.read(&mut block.as_mut_slice()[*filled..][..max])?;
                *filled += n;
                Ok(n)
            }
        }
    }
}

/// What [`FrameReader::poll`] found in the bytes buffered so far.
enum Polled {
    Frame(Frame),
    /// Read up to this many bytes more.
    Want(usize),
    /// A frame's head is buffered and its storage is not there yet.
    NotYet,
}

/// Receive state of one connection.
#[derive(Default)]
pub struct FrameReader {
    head: BytesMut,
    /// Start of the undecoded bytes in `head`.
    pos: usize,
    /// A frame, its payload so far, and the payload's full length.
    body: Option<(Frame, Payload, usize)>,
}

impl FrameReader {
    /// True between frames: nothing buffered, no payload in flight.
    pub fn is_idle(&self) -> bool {
        self.body.is_none() && self.pos == self.head.len()
    }

    /// The next frame: `Ok(None)` when `r` ends between frames,
    /// `UnexpectedEof` when it ends inside one, `InvalidData` for a header
    /// that does not parse (checked before anything is allocated for it).
    /// Any other error is `r`'s own; after `WouldBlock` call again.
    pub fn read_frame<R: Read>(&mut self, r: &mut R) -> io::Result<Option<Frame>> {
        self.read_frame_with(r, &mut |_| Storage::Heap)
    }

    /// [`FrameReader::read_frame`], asking `storage` where each non-empty
    /// payload should land — once per payload, with its length, after its
    /// header has validated and before any of it is consumed.
    pub fn read_frame_with<R: Read>(
        &mut self,
        r: &mut R,
        storage: &mut dyn FnMut(usize) -> Storage,
    ) -> io::Result<Option<Frame>> {
        loop {
            let want = match self.poll(storage) {
                Ok(Polled::Frame(frame)) => return Ok(Some(frame)),
                Ok(Polled::Want(want)) => want,
                Ok(Polled::NotYet) => return Err(io::ErrorKind::WouldBlock.into()),
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            };
            let read = match &mut self.body {
                Some((_, data, _)) => data.read_from(r, want),
                None => {
                    self.head.advance(self.pos);
                    self.pos = 0;
                    self.head.read_from(r, want)
                }
            };
            match read {
                Ok(0) if self.is_idle() => return Ok(None),
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// A frame from what is buffered, or how many bytes to read next: the
    /// rest of a payload in flight, else up to the split threshold, or to
    /// the end of a small frame that is longer than that.
    fn poll(&mut self, storage: &mut dyn FnMut(usize) -> Storage) -> Result<Polled, DecodeError> {
        loop {
            if let Some((frame, data, _)) = self.body.take_if(|b| b.1.len() == b.2) {
                let data = match data {
                    Payload::Heap(data) => data.freeze(),
                    Payload::Block(block, _) => block.freeze(),
                };
                return Ok(Polled::Frame(Frame { data, ..frame }));
            }
            if let Some((_, data, len)) = &self.body {
                return Ok(Polled::Want(len - data.len()));
            }
            let buf = &self.head[self.pos..];
            let short = |need: usize| Ok(Polled::Want(need.max(Frame::SPLIT_SEND_MIN) - buf.len()));
            let Some(hdr) = FrameHeader::parse(buf)? else {
                return short(0);
            };
            let data_len = hdr.total - hdr.payload();
            let split = data_len >= Frame::SPLIT_SEND_MIN;
            let need = if split { hdr.payload() } else { hdr.total };
            if buf.len() < need {
                return short(need);
            }
            let ext = hdr.decode_ext(buf)?;
            let taken = hdr.total.min(buf.len());
            // < 16 KiB: a small frame's payload, or the part of a large one
            // that arrived with its head.
            let arrived = &buf[hdr.payload()..taken];
            let hooked = if data_len == 0 {
                Storage::Heap
            } else {
                storage(data_len)
            };
            let data = match hooked {
                // Nothing of this frame is consumed: the next call parses
                // its head again and asks again.
                Storage::NotYet => return Ok(Polled::NotYet),
                Storage::Block(mut block) => {
                    block.as_mut_slice()[..arrived.len()].copy_from_slice(arrived);
                    Payload::Block(block, arrived.len())
                }
                Storage::Heap => {
                    let mut data = BytesMut::with_capacity(data_len);
                    // HOTPATH: the < 16 KiB above.
                    data.extend_from_slice(arrived);
                    Payload::Heap(data)
                }
            };
            // HOTPATH: parameters (tens of bytes) are copied out so that
            // `head` stays with the reader.
            let meta = Bytes::copy_from_slice(&buf[hdr.body..hdr.payload()]);
            self.pos += taken;
            if self.pos == self.head.len() {
                self.head.clear();
                self.pos = 0;
            }
            // Complete already if the frame is small: the next lap says so.
            self.body = Some((hdr.into_frame(meta, Bytes::new(), ext), data, data_len));
        }
    }
}
