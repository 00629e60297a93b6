//! # iofwd-proto — the I/O forwarding wire protocol
//!
//! I/O forwarding is "essentially a specialized form of RPC, where the I/O
//! function calls are sent to the I/O node for execution" (§VI). This
//! crate defines that RPC layer: the operation vocabulary, an errno-style
//! error model with support for *deferred* errors (asynchronous staging
//! reports failures on a later operation on the same descriptor, §IV),
//! descriptor and per-descriptor operation-counter types, and a compact
//! hand-rolled binary framing over [`bytes`].
//!
//! The same message types are used by the real [`iofwd`](../iofwd)
//! runtime over in-memory and TCP transports, and their sizes feed the
//! [`bgsim`](../bgsim) simulator's control-message accounting, so the
//! modeled and executable protocols cannot drift apart.
//!
//! Framing mirrors the paper's two-step structure (§V-A2): an operation's
//! *parameters* travel in the frame's metadata section, and bulk data
//! rides in a separate payload section, so a receiver sizes the frame from
//! the (small) metadata and then takes the (large) payload straight into
//! its final buffer ([`FrameReader`]).

pub mod dec;
pub mod descriptor;
pub mod enc;
pub mod error;
pub mod op;
pub mod reader;
pub mod trace;
pub mod wire;

pub use descriptor::{Fd, OpId};
pub use error::{DecodeError, Errno};
pub use op::{
    decode_dirents, encode_dirents, FileStat, OpenFlags, Request, Response, StatsQuery, Whence,
};
pub use reader::{FrameReader, PayloadBuf, Storage};
pub use trace::{StageEcho, TraceContext, TraceExt, TRACE_EXT_FLAG};
pub use wire::{Frame, FrameKind, FRAME_HEADER_BYTES, MAX_DATA_LEN, MAX_META_LEN};
