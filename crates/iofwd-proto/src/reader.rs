//! Streaming frame receive: the one partial-read state machine, shared by
//! the client and both daemon transports, two-step like the protocol
//! (§V-A2). Header, extension and parameters are read into a small `head`
//! buffer the reader keeps; once they have sized the frame, a payload of
//! at least [`Frame::SPLIT_SEND_MIN`] bytes is read straight into a buffer
//! of exactly its length, which becomes `frame.data` (DESIGN.md §15).
//!
//! The reader owns no socket and no blocking policy: every read goes to
//! whatever the caller passes in, and `WouldBlock` leaves the state intact.

use std::io::{self, Read};

use bytes::{Bytes, BytesMut};

use crate::error::DecodeError;
use crate::wire::{Frame, FrameHeader};

/// Receive state of one connection.
#[derive(Default)]
pub struct FrameReader {
    head: BytesMut,
    /// Start of the undecoded bytes in `head`.
    pos: usize,
    /// A large frame, its payload so far, and the payload's full length.
    body: Option<(Frame, BytesMut, usize)>,
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
        loop {
            let want = match self.poll() {
                Ok(Ok(frame)) => return Ok(Some(frame)),
                Ok(Err(want)) => want,
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
    fn poll(&mut self) -> Result<Result<Frame, usize>, DecodeError> {
        loop {
            if let Some((frame, data, _)) = self.body.take_if(|b| b.1.len() == b.2) {
                let data = data.freeze();
                return Ok(Ok(Frame { data, ..frame }));
            }
            if let Some((_, data, len)) = &self.body {
                return Ok(Err(len - data.len()));
            }
            let buf = &self.head[self.pos..];
            let short = |need: usize| Ok(Err(need.max(Frame::SPLIT_SEND_MIN) - buf.len()));
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
            // HOTPATH: parameters (tens of bytes) are copied out so that
            // `head` stays with the reader.
            let meta = Bytes::copy_from_slice(&buf[hdr.body..hdr.payload()]);
            let taken = hdr.total.min(buf.len());
            let mut data = BytesMut::with_capacity(data_len);
            // HOTPATH: < 16 KiB — a small frame's payload, or the part of a
            // large one that arrived with its head. Exact-size storage: a
            // staged write holds what its BML class charges, no more.
            data.extend_from_slice(&buf[hdr.payload()..taken]);
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
