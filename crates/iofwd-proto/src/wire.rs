//! Frame layout: the unit shipped over a transport.
//!
//! ```text
//! +--------+---------+------+-----------+---------+----------+----------+
//! | magic  | version | kind | client_id |   seq   | meta_len | data_len |
//! |  u16   |   u8    |  u8  |    u32    |   u64   |   u32    |   u32    |
//! +--------+---------+------+-----------+---------+----------+----------+
//! |                meta (encoded Request/Response)                      |
//! +---------------------------------------------------------------------+
//! |                        data (bulk payload)                          |
//! +---------------------------------------------------------------------+
//! ```
//!
//! The 24-byte header + separate meta/data sections carry the paper's
//! two-step protocol (§V-A2): a receiver reads the header and meta (the
//! "function parameters") first and only then consumes the bulk data,
//! straight into the buffer it stays in. [`crate::reader::FrameReader`]
//! is that receiver, for both ends of every stream transport; on the
//! send side [`Frame::encode_header`] lets the payload go to the socket
//! from wherever it already lives. On BG/P the 16-byte forwarding header
//! the paper describes plays the same role at packet granularity;
//! [`bgp_model`'s collective model] accounts for that per-packet
//! overhead when simulating.
//!
//! A frame may additionally carry a trace extension (see
//! [`crate::trace`]): the kind byte's high bit flags a fixed-size
//! extension between the header and the metadata section. Frames
//! without the extension are byte-identical to the pre-trace protocol.

use bytes::{Bytes, BytesMut};

use crate::dec::Reader;
use crate::enc::Writer;
use crate::error::DecodeError;
use crate::op::{Request, Response};
use crate::trace::{StageEcho, TraceContext, TraceExt, TRACE_EXT_FLAG};

/// Frame magic: "IF" little-endian.
pub const MAGIC: u16 = 0x4649;
/// Protocol version this crate speaks.
pub const VERSION: u8 = 1;
/// Fixed frame header size in bytes.
pub const FRAME_HEADER_BYTES: usize = 24;
/// Maximum metadata section size. Paths are ≤ 4 KiB; parameters are tiny.
pub const MAX_META_LEN: u64 = 64 * 1024;
/// Maximum bulk payload per frame: 64 MiB. Larger application I/O is
/// split by the client (as CIOD/ZOID segment large transfers when staging
/// memory is bounded, §IV).
pub const MAX_DATA_LEN: u64 = 64 * 1024 * 1024;

/// What the frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    Request = 1,
    Response = 2,
}

impl FrameKind {
    fn from_wire(v: u8) -> Result<FrameKind, DecodeError> {
        match v {
            1 => Ok(FrameKind::Request),
            2 => Ok(FrameKind::Response),
            _ => Err(DecodeError::BadFrameKind(v)),
        }
    }
}

/// One protocol frame. `data` is zero-copy (`Bytes`): servers route the
/// payload into staging buffers without re-serialising it.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub kind: FrameKind,
    /// Which compute-node client this belongs to (assigned at handshake).
    pub client_id: u32,
    /// Request sequence number; responses echo the request's.
    pub seq: u64,
    pub meta: Bytes,
    pub data: Bytes,
    /// Optional trace extension (trace context on requests, stage echo
    /// on responses). `None` keeps the frame byte-identical to the
    /// pre-trace protocol.
    pub ext: Option<TraceExt>,
}

impl Frame {
    /// Build a request frame.
    pub fn request(client_id: u32, seq: u64, req: &Request, data: Bytes) -> Frame {
        debug_assert_eq!(
            req.expected_payload(),
            data.len() as u64,
            "payload length must match the request's declared length"
        );
        Frame {
            data,
            ..Frame::request_head(client_id, seq, req)
        }
    }

    /// A request's header and parameters without its payload, for a
    /// sender whose payload stays in the caller's buffer and goes out
    /// beside the frame ([`Frame::encode_header_for`]).
    pub fn request_head(client_id: u32, seq: u64, req: &Request) -> Frame {
        let mut meta = BytesMut::new();
        req.encode(&mut meta);
        Frame {
            kind: FrameKind::Request,
            client_id,
            seq,
            meta: meta.freeze(),
            data: Bytes::new(),
            ext: None,
        }
    }

    /// Build a response frame.
    pub fn response(client_id: u32, seq: u64, resp: &Response, data: Bytes) -> Frame {
        let mut meta = BytesMut::new();
        resp.encode(&mut meta);
        Frame {
            kind: FrameKind::Response,
            client_id,
            seq,
            meta: meta.freeze(),
            data,
            ext: None,
        }
    }

    /// Attach a trace extension.
    pub fn with_ext(mut self, ext: TraceExt) -> Frame {
        self.ext = Some(ext);
        self
    }

    /// The trace context, if this frame carries one.
    pub fn trace_ctx(&self) -> Option<TraceContext> {
        match self.ext {
            Some(TraceExt::Ctx(c)) => Some(c),
            Some(TraceExt::Echo(_)) | None => None,
        }
    }

    /// The stage echo, if this frame carries one.
    pub fn stage_echo(&self) -> Option<StageEcho> {
        match self.ext {
            Some(TraceExt::Echo(e)) => Some(e),
            Some(TraceExt::Ctx(_)) | None => None,
        }
    }

    /// Decode this frame's metadata as a request.
    pub fn decode_request(&self) -> Result<Request, DecodeError> {
        Request::decode(&self.meta)
    }

    /// Decode this frame's metadata as a response.
    pub fn decode_response(&self) -> Result<Response, DecodeError> {
        Response::decode(&self.meta)
    }

    /// Total encoded size.
    pub fn wire_len(&self) -> usize {
        let ext_len = self.ext.as_ref().map_or(0, TraceExt::wire_len);
        FRAME_HEADER_BYTES + ext_len + self.meta.len() + self.data.len()
    }

    /// Payload size at which transports should stop re-copying the
    /// payload into a contiguous wire image and instead send
    /// [`Frame::encode_header`] and the payload `Bytes` as separate
    /// writes. Below this, one buffer and one syscall win; above it,
    /// the memcpy dominates the extra write bookkeeping. The same size
    /// decides the receive side: from here up
    /// [`crate::reader::FrameReader`] reads a payload into a buffer of
    /// its own instead of copying it out of the connection's.
    pub const SPLIT_SEND_MIN: usize = 16 * 1024;

    /// Serialise into a single buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        self.encode_prefix(&mut buf, self.data.len());
        Writer::new(&mut buf).raw(&self.data);
        buf.freeze()
    }

    /// Serialise everything *except* the payload: fixed header, trace
    /// extension, meta. Concatenated with `self.data` this is exactly
    /// the [`Frame::encode`] wire image. Transports use it to put a
    /// large payload on the wire by reference — the refcounted `Bytes`
    /// travels from the receive buffer or the BML slab straight to the
    /// socket without ever being re-copied into a wire buffer.
    pub fn encode_header(&self) -> Bytes {
        self.encode_header_for(self.data.len())
    }

    /// [`Frame::encode_header`] announcing a payload of `payload_len`
    /// bytes that is not in `self.data` (which must be empty): followed by
    /// those bytes it is the wire image of the frame that holds them.
    pub fn encode_header_for(&self, payload_len: usize) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len() - self.data.len());
        self.encode_prefix(&mut buf, payload_len);
        buf.freeze()
    }

    fn encode_prefix(&self, buf: &mut BytesMut, data_len: usize) {
        let mut w = Writer::new(buf);
        w.u16(MAGIC);
        w.u8(VERSION);
        let kind = self.kind as u8
            | if self.ext.is_some() {
                TRACE_EXT_FLAG
            } else {
                0
            };
        w.u8(kind);
        w.u32(self.client_id);
        w.u64(self.seq);
        w.u32(self.meta.len() as u32);
        w.u32(data_len as u32);
        if let Some(ext) = &self.ext {
            ext.encode(&mut w);
        }
        w.raw(&self.meta);
    }

    /// Parse one frame from the front of `buf`. Returns the frame and the
    /// number of bytes consumed, or `Ok(None)` if more bytes are needed
    /// (streaming decode). `meta`/`data` are deep copies of the input
    /// slice: this is the reference decoder tests compare against; the
    /// transports receive through [`crate::reader::FrameReader`].
    pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, DecodeError> {
        let Some(hdr) = FrameHeader::parse(buf)? else {
            return Ok(None);
        };
        if buf.len() < hdr.total {
            return Ok(None);
        }
        let ext = hdr.decode_ext(buf)?;
        // HOTPATH: the copying decoder by definition; no transport calls it.
        let meta = Bytes::copy_from_slice(&buf[hdr.body..hdr.payload()]);
        // HOTPATH: as above.
        let data = Bytes::copy_from_slice(&buf[hdr.payload()..hdr.total]);
        Ok(Some((hdr.into_frame(meta, data, ext), hdr.total)))
    }

    /// Decode exactly one frame from a shared buffer. `meta` and `data`
    /// are O(1) refcounted views into `bytes` — no payload copy. The
    /// buffer must hold the complete frame; fewer bytes is a
    /// [`DecodeError::Truncated`].
    pub fn decode_shared(bytes: &Bytes) -> Result<Frame, DecodeError> {
        let Some(hdr) = FrameHeader::parse(bytes)? else {
            return Err(DecodeError::Truncated {
                needed: FRAME_HEADER_BYTES,
                available: bytes.len(),
            });
        };
        if bytes.len() < hdr.total {
            return Err(DecodeError::Truncated {
                needed: hdr.total,
                available: bytes.len(),
            });
        }
        let ext = hdr.decode_ext(bytes)?;
        let meta = bytes.slice(hdr.body..hdr.payload());
        let data = bytes.slice(hdr.payload()..hdr.total);
        Ok(hdr.into_frame(meta, data, ext))
    }
}

/// Parsed, validated frame header: everything needed to size and slice
/// the frame body. Shared by the copying and the zero-copy decoders and
/// the streaming reader so the three cannot drift.
#[derive(Clone, Copy)]
pub(crate) struct FrameHeader {
    kind: FrameKind,
    client_id: u32,
    seq: u64,
    meta_len: usize,
    has_ext: bool,
    /// Offset where meta begins (header + trace extension).
    pub(crate) body: usize,
    /// Total wire length of the frame.
    pub(crate) total: usize,
}

impl FrameHeader {
    /// Offset where the payload begins (header + extension + meta).
    pub(crate) fn payload(&self) -> usize {
        self.body + self.meta_len
    }

    /// Validate the fixed header (and the ext tag byte, whose value sizes
    /// the extension). `Ok(None)` means more bytes are needed; all length
    /// caps are enforced before any allocation happens.
    pub(crate) fn parse(buf: &[u8]) -> Result<Option<FrameHeader>, DecodeError> {
        if buf.len() < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let mut r = Reader::new(buf);
        let magic = r.u16()?;
        if magic != MAGIC {
            return Err(DecodeError::BadMagic(magic));
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let kind_byte = r.u8()?;
        let has_ext = kind_byte & TRACE_EXT_FLAG != 0;
        let kind = FrameKind::from_wire(kind_byte & !TRACE_EXT_FLAG)?;
        let client_id = r.u32()?;
        let seq = r.u64()?;
        let meta_len = r.u32()? as u64;
        let data_len = r.u32()? as u64;
        if meta_len > MAX_META_LEN {
            return Err(DecodeError::TooLarge {
                what: "meta",
                len: meta_len,
                max: MAX_META_LEN,
            });
        }
        if data_len > MAX_DATA_LEN {
            return Err(DecodeError::TooLarge {
                what: "data",
                len: data_len,
                max: MAX_DATA_LEN,
            });
        }
        // The extension's length is determined by its tag byte, so a
        // streaming decoder needs that one byte before it can size the
        // rest of the frame.
        let ext_len = if has_ext {
            let Some(&tag) = buf.get(FRAME_HEADER_BYTES) else {
                return Ok(None);
            };
            match TraceExt::wire_len_of_tag(tag) {
                Some(n) => n,
                None => return Err(DecodeError::BadEnum("trace ext tag", u64::from(tag))),
            }
        } else {
            0
        };
        let body = FRAME_HEADER_BYTES + ext_len;
        let total = body + (meta_len + data_len) as usize;
        Ok(Some(FrameHeader {
            kind,
            client_id,
            seq,
            meta_len: meta_len as usize,
            has_ext,
            body,
            total,
        }))
    }

    pub(crate) fn decode_ext(&self, buf: &[u8]) -> Result<Option<TraceExt>, DecodeError> {
        if self.has_ext {
            Ok(Some(TraceExt::decode(&mut Reader::new(
                &buf[FRAME_HEADER_BYTES..self.body],
            ))?))
        } else {
            Ok(None)
        }
    }

    pub(crate) fn into_frame(self, meta: Bytes, data: Bytes, ext: Option<TraceExt>) -> Frame {
        Frame {
            kind: self.kind,
            client_id: self.client_id,
            seq: self.seq,
            meta,
            data,
            ext,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Fd;

    fn sample_frame() -> Frame {
        Frame::request(
            7,
            99,
            &Request::Write { fd: Fd(4), len: 5 },
            Bytes::from_static(b"hello"),
        )
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = sample_frame();
        let wire = f.encode();
        let (g, consumed) = Frame::decode(&wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(g, f);
        assert_eq!(
            g.decode_request().unwrap(),
            Request::Write { fd: Fd(4), len: 5 }
        );
    }

    #[test]
    fn split_encode_matches_contiguous_encode() {
        // With and without a trace extension: header ++ data must be
        // byte-identical to the single-buffer wire image, or a split
        // transport send would desync the stream.
        let plain = sample_frame();
        let traced = sample_frame().with_ext(crate::trace::TraceExt::Ctx(
            crate::trace::TraceContext::sampled(0xDEAD_BEEF),
        ));
        for f in [plain, traced] {
            let mut split = f.encode_header().to_vec();
            split.extend_from_slice(&f.data);
            assert_eq!(split, f.encode().to_vec());
        }
    }

    #[test]
    fn streaming_decode_needs_more_bytes() {
        let wire = sample_frame().encode();
        for cut in [
            0,
            1,
            FRAME_HEADER_BYTES - 1,
            FRAME_HEADER_BYTES,
            wire.len() - 1,
        ] {
            assert_eq!(Frame::decode(&wire[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn two_frames_back_to_back() {
        let f = sample_frame();
        let mut wire = f.encode().to_vec();
        wire.extend_from_slice(&f.encode());
        let (g1, used1) = Frame::decode(&wire).unwrap().unwrap();
        let (g2, used2) = Frame::decode(&wire[used1..]).unwrap().unwrap();
        assert_eq!(g1, g2);
        assert_eq!(used1 + used2, wire.len());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut wire = sample_frame().encode().to_vec();
        wire[0] = 0;
        assert!(matches!(
            Frame::decode(&wire),
            Err(DecodeError::BadMagic(_))
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut wire = sample_frame().encode().to_vec();
        wire[2] = 9;
        assert!(matches!(
            Frame::decode(&wire),
            Err(DecodeError::BadVersion(9))
        ));
    }

    #[test]
    fn oversized_data_len_rejected_without_allocating() {
        let mut wire = sample_frame().encode().to_vec();
        // Corrupt data_len (offset 20..24) to a huge value.
        wire[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&wire),
            Err(DecodeError::TooLarge { what: "data", .. })
        ));
    }

    #[test]
    fn response_frame_roundtrip() {
        let f = Frame::response(
            3,
            12,
            &Response::Ok { ret: 5 },
            Bytes::from_static(b"abcde"),
        );
        let wire = f.encode();
        let (g, _) = Frame::decode(&wire).unwrap().unwrap();
        assert_eq!(g.kind, FrameKind::Response);
        assert_eq!(g.decode_response().unwrap(), Response::Ok { ret: 5 });
        assert_eq!(&g.data[..], b"abcde");
    }

    #[test]
    fn header_is_24_bytes() {
        let f = Frame::request(0, 0, &Request::Shutdown, Bytes::new());
        assert_eq!(f.wire_len(), FRAME_HEADER_BYTES + 1 /* opcode byte */);
    }

    #[test]
    fn traced_request_roundtrip() {
        let f = sample_frame().with_ext(TraceExt::Ctx(TraceContext::sampled(0xABCD)));
        let wire = f.encode();
        // The flag lives in the kind byte; the base kind still decodes.
        assert_eq!(wire[3], FrameKind::Request as u8 | TRACE_EXT_FLAG);
        let (g, consumed) = Frame::decode(&wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(g, f);
        assert_eq!(g.trace_ctx(), Some(TraceContext::sampled(0xABCD)));
        assert_eq!(g.stage_echo(), None);
    }

    #[test]
    fn echoed_response_roundtrip() {
        let echo = StageEcho {
            trace_id: 42,
            flags: TraceContext::SAMPLED,
            queue_ns: 1,
            dispatch_ns: 2,
            backend_ns: 3,
            reply_ns: 4,
            total_ns: 11,
        };
        let f = Frame::response(3, 12, &Response::Ok { ret: 0 }, Bytes::new())
            .with_ext(TraceExt::Echo(echo));
        let (g, _) = Frame::decode(&f.encode()).unwrap().unwrap();
        assert_eq!(g.stage_echo(), Some(echo));
        assert_eq!(g.trace_ctx(), None);
    }

    #[test]
    fn untraced_frame_is_byte_identical_to_pre_trace_wire() {
        // Backward compatibility: an ext-less frame must not change by a
        // single byte — old peers keep working.
        let wire = sample_frame().encode();
        assert_eq!(wire[3], FrameKind::Request as u8);
        assert_eq!(wire.len(), sample_frame().wire_len());
        let (g, _) = Frame::decode(&wire).unwrap().unwrap();
        assert_eq!(g.ext, None);
    }

    #[test]
    fn traced_streaming_decode_waits_for_ext() {
        let f = sample_frame().with_ext(TraceExt::Ctx(TraceContext::sampled(9)));
        let wire = f.encode();
        // Cut inside the extension (including right at the tag byte):
        // decode must ask for more bytes, never misparse meta as ext.
        for cut in FRAME_HEADER_BYTES..wire.len() {
            assert_eq!(Frame::decode(&wire[..cut]).unwrap(), None, "cut at {cut}");
        }
        let (g, used) = Frame::decode(&wire).unwrap().unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(g, f);
    }

    #[test]
    fn decode_shared_returns_views_not_copies() {
        let f = sample_frame();
        let wire = f.encode();
        let total = wire.len();
        let base = wire.as_ref().as_ptr();
        let g = Frame::decode_shared(&wire).unwrap();
        assert_eq!(g, f);
        // meta and data point into the original wire buffer: zero-copy.
        let body = total - g.meta.len() - g.data.len();
        // SAFETY: both offsets are < total, which is wire.len(), so the
        // computed pointers stay inside the `wire` allocation.
        assert_eq!(g.meta.as_ref().as_ptr(), unsafe { base.add(body) });
        // SAFETY: as above — body + meta.len() < wire.len().
        assert_eq!(g.data.as_ref().as_ptr(), unsafe {
            base.add(body + g.meta.len())
        });
    }

    #[test]
    fn decode_shared_of_a_short_buffer_is_an_error() {
        // An explicit error, not a panic and not a silent None.
        let wire = sample_frame().encode();
        let short = wire.slice(0..wire.len() - 1);
        assert!(matches!(
            Frame::decode_shared(&short),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn header_for_a_beside_payload_is_the_same_wire_image() {
        let req = Request::Write { fd: Fd(4), len: 5 };
        for ext in [None, Some(TraceExt::Ctx(TraceContext::sampled(7)))] {
            let mut head = Frame::request_head(7, 99, &req);
            let mut whole = Frame::request(7, 99, &req, Bytes::from_static(b"hello"));
            head.ext = ext;
            whole.ext = ext;
            let mut wire = head.encode_header_for(5).to_vec();
            wire.extend_from_slice(b"hello");
            assert_eq!(wire, whole.encode().to_vec());
        }
    }

    #[test]
    fn unknown_ext_tag_rejected() {
        let f = sample_frame().with_ext(TraceExt::Ctx(TraceContext::sampled(9)));
        let mut wire = f.encode().to_vec();
        wire[FRAME_HEADER_BYTES] = 0x7E; // corrupt the ext tag
        assert!(matches!(
            Frame::decode(&wire),
            Err(DecodeError::BadEnum("trace ext tag", 0x7E))
        ));
    }
}
