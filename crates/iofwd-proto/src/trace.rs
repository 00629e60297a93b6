//! Trace-context propagation over the wire.
//!
//! The paper's argument is an *attribution* argument: it decomposes
//! client-observed latency into the server-side stages that produced it
//! (§III/§V). To reproduce that decomposition end-to-end, a request
//! frame may carry a [`TraceContext`] (trace id + sampling flag) and a
//! response frame may carry a [`StageEcho`]: the daemon's own stage
//! breakdown for the op, echoed back so the client can split observed
//! latency into network time vs. ION time.
//!
//! ## Wire format
//!
//! The extension is backward compatible. A frame without trace data is
//! byte-identical to the pre-trace protocol. A frame *with* trace data
//! sets the high bit ([`TRACE_EXT_FLAG`]) of the header's kind byte and
//! inserts the extension between the fixed header and the metadata
//! section:
//!
//! ```text
//! [24-byte header, kind |= 0x80] [tag u8] [ext fields] [meta] [data]
//! ```
//!
//! Every tag has a fixed field layout, so a streaming decoder learns the
//! extension's length from the tag byte alone:
//!
//! * tag 1 — [`TraceContext`]: `trace_id u64, flags u8` (9 bytes)
//! * tag 2 — [`StageEcho`]: `trace_id u64, flags u8`, then
//!   `queue_ns, dispatch_ns, backend_ns, reply_ns, total_ns` as `u64`
//!   (49 bytes)
//!
//! An old peer never sees the flag (new clients only attach contexts
//! when tracing is enabled by the operator), and a new peer rejects an
//! unknown tag with [`DecodeError::BadEnum`] rather than guessing a
//! length.

use crate::dec::Reader;
use crate::enc::Writer;
use crate::error::DecodeError;

/// High bit of the header's kind byte: a trace extension follows the
/// fixed header.
pub const TRACE_EXT_FLAG: u8 = 0x80;

/// Client-to-server trace context: which distributed trace this request
/// belongs to, and whether the daemon should retain its span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Nonzero trace identifier chosen by the client.
    pub trace_id: u64,
    /// Bit flags; see [`TraceContext::SAMPLED`].
    pub flags: u8,
}

impl TraceContext {
    /// The daemon should retain this op's span in its trace exporter.
    pub const SAMPLED: u8 = 0x01;

    /// A sampled context for `trace_id`.
    pub fn sampled(trace_id: u64) -> TraceContext {
        TraceContext {
            trace_id,
            flags: TraceContext::SAMPLED,
        }
    }

    pub fn is_sampled(&self) -> bool {
        self.flags & TraceContext::SAMPLED != 0
    }
}

/// Server-to-client stage breakdown, echoed on the reply to a traced
/// request. All durations are nanoseconds on the daemon's clock; the
/// client only ever sums and compares them against its own wall-clock
/// interval, so the clocks need not be synchronized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageEcho {
    /// The request's trace id, echoed back for correlation.
    pub trace_id: u64,
    /// The request's flags, echoed back.
    pub flags: u8,
    /// Time parked in the work queue (enqueue → dispatch).
    pub queue_ns: u64,
    /// Dispatch overhead (dispatch → backend start).
    pub dispatch_ns: u64,
    /// Backend execution time (backend start → backend done).
    pub backend_ns: u64,
    /// Reply marshalling lag (backend done → reply stamped).
    pub reply_ns: u64,
    /// Total server residency (arrival → last lifecycle stamp).
    pub total_ns: u64,
}

/// The frame extension: exactly one of the two trace payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceExt {
    /// Request direction: trace context.
    Ctx(TraceContext),
    /// Reply direction: stage breakdown echo.
    Echo(StageEcho),
}

const TAG_CTX: u8 = 1;
const TAG_ECHO: u8 = 2;
const CTX_BODY_BYTES: usize = 8 + 1;
const ECHO_BODY_BYTES: usize = 8 + 1 + 5 * 8;

impl TraceExt {
    /// Encoded size including the tag byte.
    pub fn wire_len(&self) -> usize {
        match self {
            TraceExt::Ctx(_) => 1 + CTX_BODY_BYTES,
            TraceExt::Echo(_) => 1 + ECHO_BODY_BYTES,
        }
    }

    /// Encoded size for a tag byte, or `None` for an unknown tag.
    /// Streaming decoders use this to learn how many bytes to wait for
    /// before the metadata section begins.
    pub fn wire_len_of_tag(tag: u8) -> Option<usize> {
        match tag {
            TAG_CTX => Some(1 + CTX_BODY_BYTES),
            TAG_ECHO => Some(1 + ECHO_BODY_BYTES),
            _ => None,
        }
    }

    pub fn encode(&self, w: &mut Writer<'_>) {
        match self {
            TraceExt::Ctx(c) => {
                w.u8(TAG_CTX);
                w.u64(c.trace_id);
                w.u8(c.flags);
            }
            TraceExt::Echo(e) => {
                w.u8(TAG_ECHO);
                w.u64(e.trace_id);
                w.u8(e.flags);
                w.u64(e.queue_ns);
                w.u64(e.dispatch_ns);
                w.u64(e.backend_ns);
                w.u64(e.reply_ns);
                w.u64(e.total_ns);
            }
        }
    }

    /// Decode one extension from `r` (positioned at the tag byte).
    pub fn decode(r: &mut Reader<'_>) -> Result<TraceExt, DecodeError> {
        let tag = r.u8()?;
        match tag {
            TAG_CTX => Ok(TraceExt::Ctx(TraceContext {
                trace_id: r.u64()?,
                flags: r.u8()?,
            })),
            TAG_ECHO => Ok(TraceExt::Echo(StageEcho {
                trace_id: r.u64()?,
                flags: r.u8()?,
                queue_ns: r.u64()?,
                dispatch_ns: r.u64()?,
                backend_ns: r.u64()?,
                reply_ns: r.u64()?,
                total_ns: r.u64()?,
            })),
            other => Err(DecodeError::BadEnum("trace ext tag", u64::from(other))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn roundtrip(ext: TraceExt) -> TraceExt {
        let mut buf = BytesMut::new();
        ext.encode(&mut Writer::new(&mut buf));
        assert_eq!(buf.len(), ext.wire_len());
        assert_eq!(TraceExt::wire_len_of_tag(buf[0]), Some(buf.len()));
        let mut r = Reader::new(&buf);
        let out = TraceExt::decode(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");
        out
    }

    #[test]
    fn ctx_roundtrip() {
        let ext = TraceExt::Ctx(TraceContext::sampled(0xDEAD_BEEF_0042_0001));
        assert_eq!(roundtrip(ext), ext);
        match ext {
            TraceExt::Ctx(c) => assert!(c.is_sampled()),
            TraceExt::Echo(_) => panic!("wrong variant"),
        }
    }

    #[test]
    fn echo_roundtrip() {
        let ext = TraceExt::Echo(StageEcho {
            trace_id: 7,
            flags: TraceContext::SAMPLED,
            queue_ns: 10,
            dispatch_ns: 20,
            backend_ns: 30,
            reply_ns: 40,
            total_ns: 110,
        });
        assert_eq!(roundtrip(ext), ext);
        match roundtrip(ext) {
            TraceExt::Echo(e) => {
                assert_eq!(e.queue_ns + e.dispatch_ns + e.backend_ns + e.reply_ns, 100)
            }
            TraceExt::Ctx(_) => panic!("wrong variant"),
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let buf = [9u8; 50];
        assert_eq!(
            TraceExt::decode(&mut Reader::new(&buf)),
            Err(DecodeError::BadEnum("trace ext tag", 9))
        );
        assert_eq!(TraceExt::wire_len_of_tag(9), None);
    }

    #[test]
    fn truncated_ext_is_error_not_panic() {
        let mut buf = BytesMut::new();
        TraceExt::Ctx(TraceContext::sampled(1)).encode(&mut Writer::new(&mut buf));
        for cut in 0..buf.len() {
            assert!(TraceExt::decode(&mut Reader::new(&buf[..cut])).is_err());
        }
    }
}
