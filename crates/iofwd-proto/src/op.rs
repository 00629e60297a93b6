//! The operation vocabulary: requests a compute node ships to its ION
//! and the responses it gets back.
//!
//! Data-carrying operations (`Write`/`Pwrite`/`Read`/`Pread`) separate
//! *parameters* from *payload*: the parameters are encoded here, the
//! payload rides in the frame's data section (see [`crate::wire`]). That
//! is the paper's two-step protocol (§V-A2) expressed in the framing.
//!
//! §IV: "asynchronous data staging is used only for the data operations
//! such as reads and writes to sockets and files. Operations for opening
//! and closing files and sockets or querying their attributes are handled
//! synchronously." [`Request::is_data_op`] encodes that split.

use crate::dec::Reader;
use crate::descriptor::{Fd, OpId};
use crate::enc::Writer;
use crate::error::{DecodeError, Errno};
use bytes::BytesMut;

/// Open flags (a stable wire subset of POSIX `O_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags(pub u32);

impl OpenFlags {
    pub const RDONLY: OpenFlags = OpenFlags(0x0);
    pub const WRONLY: OpenFlags = OpenFlags(0x1);
    pub const RDWR: OpenFlags = OpenFlags(0x2);
    pub const CREATE: OpenFlags = OpenFlags(0x40);
    pub const TRUNC: OpenFlags = OpenFlags(0x200);
    pub const APPEND: OpenFlags = OpenFlags(0x400);

    pub fn contains(self, other: OpenFlags) -> bool {
        self.0 & other.0 == other.0
    }

    pub fn union(self, other: OpenFlags) -> OpenFlags {
        OpenFlags(self.0 | other.0)
    }

    /// Access mode bits only.
    pub fn access_mode(self) -> u32 {
        self.0 & 0x3
    }

    pub fn writable(self) -> bool {
        matches!(self.access_mode(), 1 | 2)
    }

    pub fn readable(self) -> bool {
        matches!(self.access_mode(), 0 | 2)
    }
}

impl std::ops::BitOr for OpenFlags {
    type Output = OpenFlags;
    fn bitor(self, rhs: OpenFlags) -> OpenFlags {
        self.union(rhs)
    }
}

/// Seek origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Whence {
    Set = 0,
    Cur = 1,
    End = 2,
}

impl Whence {
    fn from_wire(v: u8) -> Result<Whence, DecodeError> {
        match v {
            0 => Ok(Whence::Set),
            1 => Ok(Whence::Cur),
            2 => Ok(Whence::End),
            _ => Err(DecodeError::BadEnum("whence", v as u64)),
        }
    }
}

/// File metadata returned by `Stat`/`Fstat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FileStat {
    pub size: u64,
    pub mode: u32,
    pub mtime_ns: u64,
    pub is_dir: bool,
}

/// A forwarded I/O request. Bulk data for write ops travels in the frame
/// payload, not here.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open (or create) a file on the ION's filesystem.
    Open {
        path: String,
        flags: OpenFlags,
        mode: u32,
    },
    /// Connect a streaming socket to a remote sink (DA node, FSN) —
    /// the "memory-to-memory" path of §III-C.
    Connect { host: String, port: u16 },
    /// Close a descriptor (synchronous; flushes staged operations).
    Close { fd: Fd },
    /// Write at the descriptor's current position; payload in frame data.
    Write { fd: Fd, len: u64 },
    /// Positioned write; payload in frame data.
    Pwrite { fd: Fd, offset: u64, len: u64 },
    /// Read from current position; data returns in the response frame.
    Read { fd: Fd, len: u64 },
    /// Positioned read.
    Pread { fd: Fd, offset: u64, len: u64 },
    /// Reposition the descriptor.
    Lseek { fd: Fd, offset: i64, whence: Whence },
    /// Flush the descriptor (synchronous; barriers staged operations).
    Fsync { fd: Fd },
    /// Stat by path.
    Stat { path: String },
    /// Stat by descriptor.
    Fstat { fd: Fd },
    /// Remove a file.
    Unlink { path: String },
    /// Truncate (or extend with zeros) an open descriptor.
    Ftruncate { fd: Fd, len: u64 },
    /// Create a directory.
    Mkdir { path: String, mode: u32 },
    /// List a directory; entry names return in the response payload
    /// (see [`encode_dirents`]).
    Readdir { path: String },
    /// Orderly client disconnect.
    Shutdown,
    /// Introspection: ask the daemon for its live telemetry. Served
    /// off the data path (never enqueued), so it answers even when the
    /// work queue is wedged. The rendered bytes return in the response
    /// payload with `Ok { ret: payload_len }`.
    Stats { query: StatsQuery },
}

/// What a [`Request::Stats`] query wants back in the response payload.
/// There is one answer: the snapshot. Readers derive rates, Prometheus
/// text and `top` from the snapshots they fetched; bytes 1 and 2, once
/// daemon-rendered views, are malformed requests now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum StatsQuery {
    /// The full telemetry snapshot as JSON (counters, gauges,
    /// histograms, per-client attribution rows).
    Snapshot = 0,
}

impl StatsQuery {
    fn from_wire(v: u8) -> Result<StatsQuery, DecodeError> {
        match v {
            0 => Ok(StatsQuery::Snapshot),
            _ => Err(DecodeError::BadEnum("stats query", v as u64)),
        }
    }
}

impl Request {
    /// Opcode discriminant on the wire.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Open { .. } => 1,
            Request::Connect { .. } => 2,
            Request::Close { .. } => 3,
            Request::Write { .. } => 4,
            Request::Pwrite { .. } => 5,
            Request::Read { .. } => 6,
            Request::Pread { .. } => 7,
            Request::Lseek { .. } => 8,
            Request::Fsync { .. } => 9,
            Request::Stat { .. } => 10,
            Request::Fstat { .. } => 11,
            Request::Unlink { .. } => 12,
            Request::Shutdown => 13,
            Request::Ftruncate { .. } => 14,
            Request::Mkdir { .. } => 15,
            Request::Readdir { .. } => 16,
            Request::Stats { .. } => 17,
        }
    }

    /// Data operations are eligible for asynchronous staging; metadata
    /// operations are always synchronous (§IV).
    pub fn is_data_op(&self) -> bool {
        matches!(
            self,
            Request::Write { .. }
                | Request::Pwrite { .. }
                | Request::Read { .. }
                | Request::Pread { .. }
        )
    }

    /// Bytes of frame payload this request must be accompanied by.
    pub fn expected_payload(&self) -> u64 {
        match self {
            Request::Write { len, .. } | Request::Pwrite { len, .. } => *len,
            Request::Open { .. }
            | Request::Connect { .. }
            | Request::Close { .. }
            | Request::Read { .. }
            | Request::Pread { .. }
            | Request::Lseek { .. }
            | Request::Fsync { .. }
            | Request::Stat { .. }
            | Request::Fstat { .. }
            | Request::Unlink { .. }
            | Request::Shutdown
            | Request::Ftruncate { .. }
            | Request::Mkdir { .. }
            | Request::Readdir { .. }
            | Request::Stats { .. } => 0,
        }
    }

    /// Encode request parameters (not payload) into `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        let mut w = Writer::new(buf);
        w.u8(self.opcode());
        match self {
            Request::Open { path, flags, mode } => {
                w.str(path);
                w.u32(flags.0);
                w.u32(*mode);
            }
            Request::Connect { host, port } => {
                w.str(host);
                w.u16(*port);
            }
            Request::Close { fd } => w.u32(fd.0),
            Request::Write { fd, len } => {
                w.u32(fd.0);
                w.u64(*len);
            }
            Request::Pwrite { fd, offset, len } => {
                w.u32(fd.0);
                w.u64(*offset);
                w.u64(*len);
            }
            Request::Read { fd, len } => {
                w.u32(fd.0);
                w.u64(*len);
            }
            Request::Pread { fd, offset, len } => {
                w.u32(fd.0);
                w.u64(*offset);
                w.u64(*len);
            }
            Request::Lseek { fd, offset, whence } => {
                w.u32(fd.0);
                w.i64(*offset);
                w.u8(*whence as u8);
            }
            Request::Fsync { fd } => w.u32(fd.0),
            Request::Stat { path } => w.str(path),
            Request::Fstat { fd } => w.u32(fd.0),
            Request::Unlink { path } => w.str(path),
            Request::Shutdown => {}
            Request::Ftruncate { fd, len } => {
                w.u32(fd.0);
                w.u64(*len);
            }
            Request::Mkdir { path, mode } => {
                w.str(path);
                w.u32(*mode);
            }
            Request::Readdir { path } => w.str(path),
            Request::Stats { query } => w.u8(*query as u8),
        }
    }

    /// Decode request parameters; the whole buffer must be consumed.
    pub fn decode(buf: &[u8]) -> Result<Request, DecodeError> {
        const MAX_PATH: u64 = 4096;
        let mut r = Reader::new(buf);
        let op = r.u8()?;
        let req = match op {
            1 => Request::Open {
                path: r.str(MAX_PATH)?,
                flags: OpenFlags(r.u32()?),
                mode: r.u32()?,
            },
            2 => Request::Connect {
                host: r.str(MAX_PATH)?,
                port: r.u16()?,
            },
            3 => Request::Close { fd: Fd(r.u32()?) },
            4 => Request::Write {
                fd: Fd(r.u32()?),
                len: r.u64()?,
            },
            5 => Request::Pwrite {
                fd: Fd(r.u32()?),
                offset: r.u64()?,
                len: r.u64()?,
            },
            6 => Request::Read {
                fd: Fd(r.u32()?),
                len: r.u64()?,
            },
            7 => Request::Pread {
                fd: Fd(r.u32()?),
                offset: r.u64()?,
                len: r.u64()?,
            },
            8 => Request::Lseek {
                fd: Fd(r.u32()?),
                offset: r.i64()?,
                whence: Whence::from_wire(r.u8()?)?,
            },
            9 => Request::Fsync { fd: Fd(r.u32()?) },
            10 => Request::Stat {
                path: r.str(MAX_PATH)?,
            },
            11 => Request::Fstat { fd: Fd(r.u32()?) },
            12 => Request::Unlink {
                path: r.str(MAX_PATH)?,
            },
            13 => Request::Shutdown,
            14 => Request::Ftruncate {
                fd: Fd(r.u32()?),
                len: r.u64()?,
            },
            15 => Request::Mkdir {
                path: r.str(MAX_PATH)?,
                mode: r.u32()?,
            },
            16 => Request::Readdir {
                path: r.str(MAX_PATH)?,
            },
            17 => Request::Stats {
                query: StatsQuery::from_wire(r.u8()?)?,
            },
            _ => return Err(DecodeError::BadOpCode(op)),
        };
        r.finish()?;
        Ok(req)
    }
}

/// A response from the ION daemon. Read data rides in the frame payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Operation completed; `ret` is the POSIX-style return value
    /// (bytes written/read, new offset, new fd, 0 for success).
    Ok { ret: i64 },
    /// Data operation accepted for asynchronous staging (§IV): the CN may
    /// proceed. Completion status is reported on a later operation via
    /// `DeferredErr` if it fails.
    Staged { op: OpId },
    /// Operation failed synchronously.
    Err { errno: Errno },
    /// A previously staged operation on this descriptor failed; the
    /// daemon reports it "on subsequent operations on the descriptor"
    /// (§IV). The current operation did NOT run.
    DeferredErr { op: OpId, errno: Errno },
    /// Stat result.
    StatOk { st: FileStat },
}

impl Response {
    pub fn kind_code(&self) -> u8 {
        match self {
            Response::Ok { .. } => 1,
            Response::Staged { .. } => 2,
            Response::Err { .. } => 3,
            Response::DeferredErr { .. } => 4,
            Response::StatOk { .. } => 5,
        }
    }

    pub fn encode(&self, buf: &mut BytesMut) {
        let mut w = Writer::new(buf);
        w.u8(self.kind_code());
        match self {
            Response::Ok { ret } => w.i64(*ret),
            Response::Staged { op } => w.u64(op.0),
            Response::Err { errno } => w.u32(errno.to_wire()),
            Response::DeferredErr { op, errno } => {
                w.u64(op.0);
                w.u32(errno.to_wire());
            }
            Response::StatOk { st } => {
                w.u64(st.size);
                w.u32(st.mode);
                w.u64(st.mtime_ns);
                w.u8(st.is_dir as u8);
            }
        }
    }

    pub fn decode(buf: &[u8]) -> Result<Response, DecodeError> {
        let mut r = Reader::new(buf);
        let k = r.u8()?;
        let resp = match k {
            1 => Response::Ok { ret: r.i64()? },
            2 => Response::Staged { op: OpId(r.u64()?) },
            3 => {
                let e = r.u32()?;
                Response::Err {
                    errno: Errno::from_wire(e).ok_or(DecodeError::BadErrno(e))?,
                }
            }
            4 => {
                let op = OpId(r.u64()?);
                let e = r.u32()?;
                Response::DeferredErr {
                    op,
                    errno: Errno::from_wire(e).ok_or(DecodeError::BadErrno(e))?,
                }
            }
            5 => Response::StatOk {
                st: FileStat {
                    size: r.u64()?,
                    mode: r.u32()?,
                    mtime_ns: r.u64()?,
                    is_dir: r.u8()? != 0,
                },
            },
            _ => return Err(DecodeError::BadEnum("response kind", k as u64)),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Encode directory entries as a response payload: u32 count, then each
/// name length-prefixed.
pub fn encode_dirents(names: &[String]) -> bytes::Bytes {
    let mut buf = BytesMut::new();
    let mut w = Writer::new(&mut buf);
    w.u32(names.len() as u32);
    for n in names {
        w.str(n);
    }
    buf.freeze()
}

/// Decode a [`encode_dirents`] payload.
pub fn decode_dirents(buf: &[u8]) -> Result<Vec<String>, DecodeError> {
    const MAX_NAME: u64 = 4096;
    const MAX_ENTRIES: u32 = 1_000_000;
    let mut r = Reader::new(buf);
    let count = r.u32()?;
    if count > MAX_ENTRIES {
        return Err(DecodeError::TooLarge {
            what: "dirents",
            len: count as u64,
            max: MAX_ENTRIES as u64,
        });
    }
    let mut out = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        out.push(r.str(MAX_NAME)?);
    }
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let mut buf = BytesMut::new();
        req.encode(&mut buf);
        assert_eq!(Request::decode(&buf).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let mut buf = BytesMut::new();
        resp.encode(&mut buf);
        assert_eq!(Response::decode(&buf).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Open {
            path: "/gpfs/data.bin".into(),
            flags: OpenFlags::WRONLY | OpenFlags::CREATE,
            mode: 0o644,
        });
        roundtrip_req(Request::Connect {
            host: "eureka-17".into(),
            port: 9900,
        });
        roundtrip_req(Request::Close { fd: Fd(5) });
        roundtrip_req(Request::Write {
            fd: Fd(5),
            len: 1 << 20,
        });
        roundtrip_req(Request::Pwrite {
            fd: Fd(5),
            offset: 4096,
            len: 2 << 20,
        });
        roundtrip_req(Request::Read {
            fd: Fd(6),
            len: 65536,
        });
        roundtrip_req(Request::Pread {
            fd: Fd(6),
            offset: 1 << 30,
            len: 65536,
        });
        roundtrip_req(Request::Lseek {
            fd: Fd(5),
            offset: -100,
            whence: Whence::End,
        });
        roundtrip_req(Request::Fsync { fd: Fd(5) });
        roundtrip_req(Request::Stat {
            path: "/gpfs".into(),
        });
        roundtrip_req(Request::Fstat { fd: Fd(5) });
        roundtrip_req(Request::Unlink {
            path: "/tmp/x".into(),
        });
        roundtrip_req(Request::Ftruncate {
            fd: Fd(5),
            len: 1 << 30,
        });
        roundtrip_req(Request::Mkdir {
            path: "/a/b".into(),
            mode: 0o755,
        });
        roundtrip_req(Request::Readdir { path: "/a".into() });
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::Stats {
            query: StatsQuery::Snapshot,
        });
    }

    #[test]
    fn stats_is_control_not_data() {
        let req = Request::Stats {
            query: StatsQuery::Snapshot,
        };
        assert!(!req.is_data_op());
        assert_eq!(req.expected_payload(), 0);
        // Unknown and retired query tags fail cleanly rather than aliasing.
        for tag in [1u8, 2, 9] {
            assert_eq!(
                Request::decode(&[17, tag]),
                Err(DecodeError::BadEnum("stats query", u64::from(tag)))
            );
        }
    }

    #[test]
    fn dirents_roundtrip() {
        let names = vec![
            "a".to_string(),
            "sub dir".into(),
            "é☃".into(),
            String::new(),
        ];
        let wire = encode_dirents(&names);
        assert_eq!(decode_dirents(&wire).unwrap(), names);
        assert_eq!(
            decode_dirents(&encode_dirents(&[])).unwrap(),
            Vec::<String>::new()
        );
        // Truncated payloads fail cleanly.
        assert!(decode_dirents(&wire[..wire.len() - 1]).is_err());
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Ok { ret: 1048576 });
        roundtrip_resp(Response::Staged { op: OpId(42) });
        roundtrip_resp(Response::Err {
            errno: Errno::NoSpc,
        });
        roundtrip_resp(Response::DeferredErr {
            op: OpId(41),
            errno: Errno::Io,
        });
        roundtrip_resp(Response::StatOk {
            st: FileStat {
                size: 123,
                mode: 0o644,
                mtime_ns: 5,
                is_dir: false,
            },
        });
    }

    #[test]
    fn data_op_classification_matches_paper() {
        // §IV: data ops staged, metadata ops synchronous.
        assert!(Request::Write { fd: Fd(3), len: 1 }.is_data_op());
        assert!(Request::Pread {
            fd: Fd(3),
            offset: 0,
            len: 1
        }
        .is_data_op());
        assert!(!Request::Open {
            path: "x".into(),
            flags: OpenFlags::RDONLY,
            mode: 0
        }
        .is_data_op());
        assert!(!Request::Close { fd: Fd(3) }.is_data_op());
        assert!(!Request::Fsync { fd: Fd(3) }.is_data_op());
        assert!(!Request::Stat { path: "x".into() }.is_data_op());
    }

    #[test]
    fn expected_payload_only_for_writes() {
        assert_eq!(Request::Write { fd: Fd(3), len: 77 }.expected_payload(), 77);
        assert_eq!(
            Request::Pwrite {
                fd: Fd(3),
                offset: 0,
                len: 9
            }
            .expected_payload(),
            9
        );
        assert_eq!(Request::Read { fd: Fd(3), len: 77 }.expected_payload(), 0);
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert_eq!(Request::decode(&[200]), Err(DecodeError::BadOpCode(200)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = BytesMut::new();
        Request::Shutdown.encode(&mut buf);
        buf.extend_from_slice(&[0]);
        assert_eq!(Request::decode(&buf), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn open_flags_semantics() {
        let f = OpenFlags::WRONLY | OpenFlags::CREATE | OpenFlags::TRUNC;
        assert!(f.contains(OpenFlags::CREATE));
        assert!(f.writable());
        assert!(!f.readable());
        assert!(OpenFlags::RDWR.readable() && OpenFlags::RDWR.writable());
        assert!(OpenFlags::RDONLY.readable() && !OpenFlags::RDONLY.writable());
    }
}
