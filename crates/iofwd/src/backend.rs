//! I/O backends: where the ION daemon actually performs the forwarded
//! operations.
//!
//! On Intrepid the ION executes calls against GPFS (through the
//! file-server nodes) or streams to analysis nodes over sockets; here the
//! destination is a [`Backend`]:
//!
//! * [`FileBackend`] — a real filesystem subtree (the GPFS stand-in).
//! * [`NullBackend`] — `/dev/null` semantics, used by the paper's
//!   collective-network microbenchmark (§III-A: "read and write data to
//!   /dev/null").
//! * [`MemSinkBackend`] — named in-memory objects; `connect` gives a
//!   byte-counting socket sink, the "memory-to-memory transfer to a DA
//!   node" of §III-C.
//! * [`ThrottledBackend`] — wraps another backend behind a bandwidth
//!   limit and per-op latency, for demonstrating staging overlap on a
//!   workstation.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use iofwd_proto::{Errno, FileStat, OpenFlags, Whence};

use crate::fault::{FaultAction, FaultPlan, OpClass, PlanState};
use crate::sync::Mutex;
use crate::telemetry::Telemetry;

/// An open file or socket object on the ION side. One exists per open
/// descriptor; the server serialises access per descriptor.
///
/// A write is a list of buffers: [`Self::write_vectored_at`] is the one
/// write an object implements, and a single buffer is a list of one
/// ([`Self::write_at`]). Positional calls (`Some(offset)`) leave the
/// cursor where it was, as `pwrite`/`pread` do; cursor calls (`None`)
/// advance it.
pub trait BackendObject: Send {
    /// Write the buffers of `bufs` back-to-back starting at `offset`
    /// (or the current position), as one operation — `pwritev`
    /// semantics. Returns total bytes written; a short count is legal
    /// and means a prefix of the concatenated buffers went through.
    /// Empty buffers move nothing. An error after some bytes already
    /// landed is reported as that short count (the bytes moved; POSIX
    /// `writev` cannot report both), so callers resume from the new
    /// position and see the error only when no progress was made.
    fn write_vectored_at(&mut self, offset: Option<u64>, bufs: &[&[u8]]) -> Result<u64, Errno>;
    /// Write one buffer: a batch of one.
    fn write_at(&mut self, offset: Option<u64>, data: &[u8]) -> Result<u64, Errno> {
        self.write_vectored_at(offset, &[data])
    }
    /// Read up to `out.len()` bytes at `offset` (or current position)
    /// into a caller-supplied buffer. Returns bytes read; fewer than
    /// requested means EOF. The engine reads straight into a recycled
    /// BML slab block through it.
    fn read_into(&mut self, offset: Option<u64>, out: &mut [u8]) -> Result<u64, Errno>;
    /// One positional read that never blocks (`preadv2(RWF_NOWAIT)`):
    /// bytes read (a short count if only part is at hand, 0 at EOF), or an
    /// error — `EAGAIN` from every object that cannot promise it.
    fn read_nowait_at(&mut self, _offset: u64, _out: &mut [u8]) -> Result<u64, Errno> {
        Err(Errno::Again)
    }
    /// A read-only mapping of up to `len` bytes at `offset`, clamped to
    /// the object's size now; `None` from an object that cannot map one.
    /// Only the kernel may read it (`Conn::copies_in_kernel`).
    fn map_at(&mut self, _offset: u64, _len: u64) -> Option<bytes::Bytes> {
        None
    }
    /// Reposition; returns the new offset.
    fn seek(&mut self, offset: i64, whence: Whence) -> Result<u64, Errno>;
    /// Flush to stable storage / the socket.
    fn sync(&mut self) -> Result<(), Errno>;
    /// Metadata.
    fn fstat(&mut self) -> Result<FileStat, Errno>;
    /// Truncate (or zero-extend) to `len` bytes. Sockets refuse.
    fn truncate(&mut self, _len: u64) -> Result<(), Errno> {
        Err(Errno::Inval)
    }
}

/// A destination for forwarded I/O.
pub trait Backend: Send + Sync + 'static {
    fn open(
        &self,
        path: &str,
        flags: OpenFlags,
        mode: u32,
    ) -> Result<Box<dyn BackendObject>, Errno>;

    /// Open a streaming connection (DA-node sink). Backends without
    /// socket support refuse.
    fn connect(&self, _host: &str, _port: u16) -> Result<Box<dyn BackendObject>, Errno> {
        Err(Errno::NoSys)
    }

    fn stat(&self, path: &str) -> Result<FileStat, Errno>;

    fn unlink(&self, path: &str) -> Result<(), Errno>;

    /// Create a directory. Required, like [`Backend::readdir`]: a
    /// wrapper that forgets to forward either does not compile.
    fn mkdir(&self, path: &str, mode: u32) -> Result<(), Errno>;

    /// List the entries directly under `path`.
    fn readdir(&self, path: &str) -> Result<Vec<String>, Errno>;
}

// ---------------------------------------------------------------------------
// NullBackend
// ---------------------------------------------------------------------------

#[derive(Default)]
struct NullCounters {
    bytes: AtomicU64,
    ops: AtomicU64,
}

/// `/dev/null` semantics: writes are discarded (and counted), reads
/// return EOF. The paper's §III-A microbenchmark target.
#[derive(Default)]
pub struct NullBackend {
    counters: Arc<NullCounters>,
}

impl NullBackend {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total payload bytes accepted and discarded.
    pub fn bytes_written(&self) -> u64 {
        self.counters.bytes.load(Ordering::Relaxed)
    }

    /// Total data operations served.
    pub fn ops(&self) -> u64 {
        self.counters.ops.load(Ordering::Relaxed)
    }
}

struct NullObject {
    counters: Arc<NullCounters>,
}

impl BackendObject for NullObject {
    /// Every buffer is one data operation to the counters.
    fn write_vectored_at(&mut self, _offset: Option<u64>, bufs: &[&[u8]]) -> Result<u64, Errno> {
        let total = total_len(bufs);
        self.counters.bytes.fetch_add(total, Ordering::Relaxed);
        self.counters
            .ops
            .fetch_add(bufs.len() as u64, Ordering::Relaxed);
        Ok(total)
    }

    fn read_into(&mut self, _offset: Option<u64>, _out: &mut [u8]) -> Result<u64, Errno> {
        self.counters.ops.fetch_add(1, Ordering::Relaxed);
        Ok(0) // EOF, as /dev/null
    }

    fn seek(&mut self, _offset: i64, _whence: Whence) -> Result<u64, Errno> {
        Ok(0)
    }

    fn sync(&mut self) -> Result<(), Errno> {
        Ok(())
    }

    fn fstat(&mut self) -> Result<FileStat, Errno> {
        Ok(FileStat {
            size: 0,
            mode: 0o666,
            mtime_ns: 0,
            is_dir: false,
        })
    }

    fn truncate(&mut self, _len: u64) -> Result<(), Errno> {
        Ok(())
    }
}

impl Backend for NullBackend {
    fn open(
        &self,
        _path: &str,
        _flags: OpenFlags,
        _mode: u32,
    ) -> Result<Box<dyn BackendObject>, Errno> {
        Ok(Box::new(NullObject {
            counters: self.counters.clone(),
        }))
    }

    fn connect(&self, _host: &str, _port: u16) -> Result<Box<dyn BackendObject>, Errno> {
        Ok(Box::new(NullObject {
            counters: self.counters.clone(),
        }))
    }

    fn stat(&self, _path: &str) -> Result<FileStat, Errno> {
        Ok(FileStat {
            size: 0,
            mode: 0o666,
            mtime_ns: 0,
            is_dir: false,
        })
    }

    fn unlink(&self, _path: &str) -> Result<(), Errno> {
        Ok(())
    }

    /// No namespace: every directory already exists, as every path
    /// already opens.
    fn mkdir(&self, _path: &str, _mode: u32) -> Result<(), Errno> {
        Ok(())
    }

    /// No namespace: nothing is ever listed.
    fn readdir(&self, _path: &str) -> Result<Vec<String>, Errno> {
        Ok(Vec::new())
    }
}

// ---------------------------------------------------------------------------
// MemSinkBackend
// ---------------------------------------------------------------------------

struct MemStore {
    files: Mutex<HashMap<String, Arc<Mutex<Vec<u8>>>>>,
    dirs: Mutex<std::collections::BTreeSet<String>>,
    socket_bytes: AtomicU64,
}

impl Default for MemStore {
    fn default() -> Self {
        MemStore {
            files: Mutex::new(HashMap::new()),
            dirs: Mutex::new(Default::default()),
            socket_bytes: AtomicU64::new(0),
        }
    }
}

/// Normalise a path to `/a/b/c` form (single leading slash, no trailing).
fn norm(path: &str) -> String {
    let mut out = String::from("/");
    for seg in path.split('/').filter(|s| !s.is_empty()) {
        if out.len() > 1 {
            out.push('/');
        }
        out.push_str(seg);
    }
    out
}

/// Bytes in a list of buffers.
fn total_len(bufs: &[&[u8]]) -> u64 {
    bufs.iter().map(|b| b.len() as u64).sum()
}

/// In-memory backend: files are named byte vectors, `connect` yields a
/// byte-counting sink standing in for a DA-node socket.
#[derive(Default, Clone)]
pub struct MemSinkBackend {
    store: Arc<MemStore>,
}

impl MemSinkBackend {
    pub fn new() -> Self {
        Self::default()
    }

    /// Contents of a stored file, if it exists.
    pub fn contents(&self, path: &str) -> Option<Vec<u8>> {
        let files = self.store.files.lock();
        files.get(path).map(|f| f.lock().clone())
    }

    /// Bytes that have arrived over `connect` sinks — the DA node's
    /// received-byte counter in memory-to-memory benchmarks.
    pub fn socket_bytes(&self) -> u64 {
        self.store.socket_bytes.load(Ordering::Relaxed)
    }

    /// Number of stored files.
    pub fn file_count(&self) -> usize {
        self.store.files.lock().len()
    }
}

struct MemFileObject {
    data: Arc<Mutex<Vec<u8>>>,
    pos: u64,
    flags: OpenFlags,
}

impl BackendObject for MemFileObject {
    fn write_vectored_at(&mut self, offset: Option<u64>, bufs: &[&[u8]]) -> Result<u64, Errno> {
        if !self.flags.writable() {
            return Err(Errno::BadF);
        }
        let positional = offset.is_some();
        let mut at = offset.unwrap_or(self.pos) as usize;
        let total = total_len(bufs);
        let mut file = self.data.lock();
        if file.len() < at + total as usize {
            file.resize(at + total as usize, 0);
        }
        for buf in bufs {
            file[at..at + buf.len()].copy_from_slice(buf);
            at += buf.len();
        }
        drop(file);
        if !positional {
            self.pos += total;
        }
        Ok(total)
    }

    fn read_into(&mut self, offset: Option<u64>, out: &mut [u8]) -> Result<u64, Errno> {
        if !self.flags.readable() {
            return Err(Errno::BadF);
        }
        let positional = offset.is_some();
        let off = offset.unwrap_or(self.pos) as usize;
        let file = self.data.lock();
        // A read at or past EOF moves nothing (and `off` may lie beyond
        // the slice, so it must not be indexed).
        let n = file.len().saturating_sub(off).min(out.len());
        if n > 0 {
            out[..n].copy_from_slice(&file[off..off + n]);
        }
        drop(file);
        if !positional {
            self.pos += n as u64;
        }
        Ok(n as u64)
    }

    fn seek(&mut self, offset: i64, whence: Whence) -> Result<u64, Errno> {
        let len = self.data.lock().len() as i64;
        let base = match whence {
            Whence::Set => 0,
            Whence::Cur => self.pos as i64,
            Whence::End => len,
        };
        let target = base.checked_add(offset).ok_or(Errno::Inval)?;
        if target < 0 {
            return Err(Errno::Inval);
        }
        self.pos = target as u64;
        Ok(self.pos)
    }

    fn sync(&mut self) -> Result<(), Errno> {
        Ok(())
    }

    fn fstat(&mut self) -> Result<FileStat, Errno> {
        Ok(FileStat {
            size: self.data.lock().len() as u64,
            mode: 0o644,
            mtime_ns: 0,
            is_dir: false,
        })
    }

    fn truncate(&mut self, len: u64) -> Result<(), Errno> {
        if !self.flags.writable() {
            return Err(Errno::BadF);
        }
        self.data.lock().resize(len as usize, 0);
        Ok(())
    }
}

struct MemSocketObject {
    store: Arc<MemStore>,
    sent: u64,
}

impl BackendObject for MemSocketObject {
    fn write_vectored_at(&mut self, _offset: Option<u64>, bufs: &[&[u8]]) -> Result<u64, Errno> {
        let total = total_len(bufs);
        self.store.socket_bytes.fetch_add(total, Ordering::Relaxed);
        self.sent += total;
        Ok(total)
    }

    fn read_into(&mut self, _offset: Option<u64>, _out: &mut [u8]) -> Result<u64, Errno> {
        Ok(0)
    }

    fn seek(&mut self, _offset: i64, _whence: Whence) -> Result<u64, Errno> {
        Err(Errno::SPipe) // sockets do not seek
    }

    fn sync(&mut self) -> Result<(), Errno> {
        Ok(())
    }

    fn fstat(&mut self) -> Result<FileStat, Errno> {
        Ok(FileStat {
            size: self.sent,
            mode: 0o600,
            mtime_ns: 0,
            is_dir: false,
        })
    }
}

impl Backend for MemSinkBackend {
    fn open(
        &self,
        path: &str,
        flags: OpenFlags,
        _mode: u32,
    ) -> Result<Box<dyn BackendObject>, Errno> {
        let mut files = self.store.files.lock();
        let exists = files.contains_key(path);
        if !exists && !flags.contains(OpenFlags::CREATE) {
            return Err(Errno::NoEnt);
        }
        let data = files
            .entry(path.to_owned())
            .or_insert_with(|| Arc::new(Mutex::new(Vec::new())))
            .clone();
        drop(files);
        if flags.contains(OpenFlags::TRUNC) && flags.writable() {
            data.lock().clear();
        }
        let pos = if flags.contains(OpenFlags::APPEND) {
            data.lock().len() as u64
        } else {
            0
        };
        Ok(Box::new(MemFileObject { data, pos, flags }))
    }

    fn connect(&self, _host: &str, _port: u16) -> Result<Box<dyn BackendObject>, Errno> {
        Ok(Box::new(MemSocketObject {
            store: self.store.clone(),
            sent: 0,
        }))
    }

    fn stat(&self, path: &str) -> Result<FileStat, Errno> {
        let files = self.store.files.lock();
        let data = files.get(path).cloned().ok_or(Errno::NoEnt)?;
        drop(files);
        let size = data.lock().len() as u64;
        Ok(FileStat {
            size,
            mode: 0o644,
            mtime_ns: 0,
            is_dir: false,
        })
    }

    fn unlink(&self, path: &str) -> Result<(), Errno> {
        let mut files = self.store.files.lock();
        files.remove(path).map(|_| ()).ok_or(Errno::NoEnt)
    }

    fn mkdir(&self, path: &str, _mode: u32) -> Result<(), Errno> {
        let p = norm(path);
        let mut dirs = self.store.dirs.lock();
        if !dirs.insert(p) {
            return Err(Errno::Exist);
        }
        Ok(())
    }

    fn readdir(&self, path: &str) -> Result<Vec<String>, Errno> {
        let prefix = {
            let p = norm(path);
            if p == "/" {
                p
            } else {
                p + "/"
            }
        };
        let mut out = std::collections::BTreeSet::new();
        let child_of = |full: &str| -> Option<String> {
            let rest = full.strip_prefix(&prefix)?;
            if rest.is_empty() {
                return None;
            }
            rest.split('/').next().map(str::to_owned)
        };
        for name in self.store.files.lock().keys() {
            if let Some(c) = child_of(&norm(name)) {
                out.insert(c);
            }
        }
        for d in self.store.dirs.lock().iter() {
            if let Some(c) = child_of(d) {
                out.insert(c);
            }
        }
        Ok(out.into_iter().collect())
    }
}

// ---------------------------------------------------------------------------
// FileBackend
// ---------------------------------------------------------------------------

/// Backend over a real filesystem subtree. All forwarded paths are
/// resolved inside `root`; `..` components are rejected so a client
/// cannot escape the sandbox.
pub struct FileBackend {
    root: PathBuf,
}

impl FileBackend {
    pub fn new(root: impl Into<PathBuf>) -> Self {
        FileBackend { root: root.into() }
    }

    fn resolve(&self, path: &str) -> Result<PathBuf, Errno> {
        let rel = Path::new(path);
        let mut out = self.root.clone();
        for comp in rel.components() {
            match comp {
                Component::Normal(c) => out.push(c),
                Component::RootDir | Component::CurDir => {}
                Component::ParentDir | Component::Prefix(_) => return Err(Errno::Access),
            }
        }
        Ok(out)
    }
}

struct FileObject {
    file: File,
    /// A no-wait read on it was answered `EOPNOTSUPP` (tmpfs).
    nowait_unsupported: bool,
}

/// A no-wait read by `call`, unless one on this object was answered
/// `EOPNOTSUPP`: that answer and every later one are `EAGAIN`, so a
/// filesystem without no-wait reads costs one failed call per object.
fn latched_nowait(
    unsupported: &mut bool,
    call: impl FnOnce() -> std::io::Result<usize>,
) -> Result<u64, Errno> {
    const EOPNOTSUPP: i32 = 95;
    if !*unsupported {
        match call() {
            Ok(n) => return Ok(n as u64),
            Err(e) if e.raw_os_error() != Some(EOPNOTSUPP) => return Err(Errno::from_io(&e)),
            Err(_) => *unsupported = true,
        }
    }
    Err(Errno::Again)
}

/// Read-only windows of files ([`BackendObject::map_at`]).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod mapped {
    use std::ffi::c_void;
    use std::sync::Arc;

    use bytes::{ByteOwner, Bytes};

    extern "C" {
        fn mmap(a: *mut c_void, n: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn sysconf(name: i32) -> i64;
    }

    /// A mapping: its address, kept as an integer, and length. Unmapped
    /// when the last view of it drops.
    struct Mapping(usize, usize);

    /// Map `len` bytes of `fd` at `offset` as a payload; `None` for an
    /// empty window or one the kernel refuses (say, `fd` is write-only).
    pub(super) fn window(fd: i32, offset: u64, len: usize) -> Option<Bytes> {
        const PROT_READ: i32 = 1;
        const MAP_SHARED: i32 = 1;
        const SC_PAGESIZE: i32 = 30;
        // SAFETY: `sysconf` has no preconditions.
        let skip = offset % u64::try_from(unsafe { sysconf(SC_PAGESIZE) }).ok()?;
        let size = len.checked_add(skip as usize).filter(|_| len > 0)?;
        let at = i64::try_from(offset - skip).ok()?;
        // SAFETY: the declarations are libc's (a 64-bit `off_t`, as the cfg
        // requires); a new read-only mapping where the kernel chooses
        // overlaps no memory Rust owns, and `fd` is open for the call.
        let base = unsafe { mmap(std::ptr::null_mut(), size, PROT_READ, MAP_SHARED, fd, at) };
        // `MAP_FAILED` is `(void *) -1`.
        let base = Some(base as usize).filter(|&b| b != usize::MAX)?;
        Some(Bytes::from_owner(Arc::new(Mapping(base, size))).slice(skip as usize..size))
    }

    impl ByteOwner for Mapping {
        fn as_slice(&self) -> &[u8] {
            // Reading a page truncated away would raise `SIGBUS`: only the
            // kernel's copy in a send reads it, and fails `EFAULT` instead.
            // SAFETY: the mapping stays until `drop`; the slice reads nothing.
            unsafe { std::slice::from_raw_parts(self.0 as *const u8, self.1) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: the mapping is this owner's alone, and every view of
            // it holds the owner, so none outlives the unmap.
            unsafe { munmap(self.0 as *mut c_void, self.1) };
        }
    }
}

fn stat_of(meta: &std::fs::Metadata) -> FileStat {
    let mtime_ns = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    FileStat {
        size: meta.len(),
        mode: 0o644,
        mtime_ns,
        is_dir: meta.is_dir(),
    }
}

impl BackendObject for FileObject {
    /// Positional buffers go out with `pwrite`, each at the offset the
    /// ones before it end at, and leave the cursor alone; cursor buffers
    /// stream out on the advancing cursor.
    fn write_vectored_at(&mut self, offset: Option<u64>, bufs: &[&[u8]]) -> Result<u64, Errno> {
        let mut total = 0u64;
        for buf in bufs {
            let res = match offset {
                Some(off) => self.file.write_all_at(buf, off + total),
                None => self.file.write_all(buf),
            };
            match res {
                Ok(()) => total += buf.len() as u64,
                // Progress already made: report the short count, like
                // writev; the caller resumes from the new position.
                Err(_) if total > 0 => return Ok(total),
                Err(e) => return Err(Errno::from_io(&e)),
            }
        }
        Ok(total)
    }

    fn read_into(&mut self, offset: Option<u64>, out: &mut [u8]) -> Result<u64, Errno> {
        let mut filled = 0;
        while filled < out.len() {
            let res = match offset {
                Some(off) => self.file.read_at(&mut out[filled..], off + filled as u64),
                None => self.file.read(&mut out[filled..]),
            };
            match res {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) => return Err(Errno::from_io(&e)),
            }
        }
        Ok(filled as u64)
    }

    // Elsewhere, or with a 32-bit `off_t`, the trait's `EAGAIN` stands.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn read_nowait_at(&mut self, offset: u64, out: &mut [u8]) -> Result<u64, Errno> {
        use std::io::IoSliceMut;
        use std::os::fd::AsRawFd;
        extern "C" {
            fn preadv2(fd: i32, iov: *const IoSliceMut, n: i32, off: i64, flags: i32) -> isize;
        }
        const RWF_NOWAIT: i32 = 8;
        // An offset of -1 would mean the cursor.
        let off = i64::try_from(offset).map_err(|_| Errno::Inval)?;
        let (fd, iov) = (self.file.as_raw_fd(), [IoSliceMut::new(out)]);
        latched_nowait(&mut self.nowait_unsupported, || {
            // SAFETY: the declaration is libc's (a 64-bit `off_t`, as the
            // cfg requires); `IoSliceMut` is ABI-compatible with `iovec`,
            // `iov` lends one live buffer, and `self.file` keeps `fd` open.
            let n = unsafe { preadv2(fd, iov.as_ptr(), 1, off, RWF_NOWAIT) };
            usize::try_from(n).map_err(|_| std::io::Error::last_os_error())
        })
    }

    // Elsewhere, or with a 32-bit `off_t`, the trait's `None` stands.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn map_at(&mut self, offset: u64, len: u64) -> Option<bytes::Bytes> {
        use std::os::fd::AsRawFd;
        let size = self.file.metadata().ok()?.len();
        let len = usize::try_from(len.min(size.checked_sub(offset)?)).ok()?;
        mapped::window(self.file.as_raw_fd(), offset, len)
    }

    fn seek(&mut self, offset: i64, whence: Whence) -> Result<u64, Errno> {
        let pos = match whence {
            Whence::Set => {
                if offset < 0 {
                    return Err(Errno::Inval);
                }
                SeekFrom::Start(offset as u64)
            }
            Whence::Cur => SeekFrom::Current(offset),
            Whence::End => SeekFrom::End(offset),
        };
        self.file.seek(pos).map_err(|e| Errno::from_io(&e))
    }

    fn sync(&mut self) -> Result<(), Errno> {
        self.file.sync_all().map_err(|e| Errno::from_io(&e))
    }

    fn fstat(&mut self) -> Result<FileStat, Errno> {
        let meta = self.file.metadata().map_err(|e| Errno::from_io(&e))?;
        Ok(stat_of(&meta))
    }

    fn truncate(&mut self, len: u64) -> Result<(), Errno> {
        self.file.set_len(len).map_err(|e| Errno::from_io(&e))
    }
}

impl Backend for FileBackend {
    fn open(
        &self,
        path: &str,
        flags: OpenFlags,
        _mode: u32,
    ) -> Result<Box<dyn BackendObject>, Errno> {
        let full = self.resolve(path)?;
        let create = flags.contains(OpenFlags::CREATE);
        let mut opts = OpenOptions::new();
        opts.read(flags.readable())
            .write(flags.writable())
            .create(create)
            .truncate(flags.contains(OpenFlags::TRUNC) && flags.writable())
            .append(flags.contains(OpenFlags::APPEND));
        let file = match opts.open(&full) {
            // Only a creating open makes its missing parents, and only
            // after the plain open said they are missing: every other
            // open costs one syscall and leaves the root as it found it.
            Err(e) if create && e.kind() == std::io::ErrorKind::NotFound => {
                if let Some(parent) = full.parent() {
                    std::fs::create_dir_all(parent).map_err(|e| Errno::from_io(&e))?;
                }
                opts.open(&full)
            }
            other => other,
        }
        .map_err(|e| Errno::from_io(&e))?;
        Ok(Box::new(FileObject {
            file,
            nowait_unsupported: false,
        }))
    }

    fn stat(&self, path: &str) -> Result<FileStat, Errno> {
        let full = self.resolve(path)?;
        let meta = std::fs::metadata(&full).map_err(|e| Errno::from_io(&e))?;
        Ok(stat_of(&meta))
    }

    fn unlink(&self, path: &str) -> Result<(), Errno> {
        let full = self.resolve(path)?;
        std::fs::remove_file(&full).map_err(|e| Errno::from_io(&e))
    }

    fn mkdir(&self, path: &str, _mode: u32) -> Result<(), Errno> {
        let full = self.resolve(path)?;
        std::fs::create_dir(&full).map_err(|e| Errno::from_io(&e))
    }

    fn readdir(&self, path: &str) -> Result<Vec<String>, Errno> {
        let full = self.resolve(path)?;
        let mut out: Vec<String> = std::fs::read_dir(&full)
            .map_err(|e| Errno::from_io(&e))?
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        out.sort();
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// ThrottledBackend
// ---------------------------------------------------------------------------

/// Wraps a backend behind a bandwidth limit and a fixed per-operation
/// latency — a slow storage system or thin network for wall-clock
/// demonstrations of asynchronous staging overlap.
///
/// All objects opened through one `ThrottledBackend` share a single
/// token-bucket pacer, so concurrent descriptors contend for the device
/// as they would on real hardware.
pub struct ThrottledBackend<B> {
    inner: Arc<B>,
    pacer: Arc<dyn Fn(usize) + Send + Sync>,
}

impl<B: Backend> ThrottledBackend<B> {
    pub fn new(inner: Arc<B>, bytes_per_sec: f64, per_op: Duration) -> Self {
        assert!(bytes_per_sec > 0.0);
        let free_at = Mutex::new(Instant::now());
        let pacer = Arc::new(move |bytes: usize| {
            // The device is busy for `per_op + bytes/bandwidth`; callers
            // queue behind its next free instant.
            let wait = {
                let mut f = free_at.lock();
                let now = Instant::now();
                let start = (*f).max(now);
                let busy = per_op + Duration::from_secs_f64(bytes as f64 / bytes_per_sec);
                let done = start + busy;
                *f = done;
                done.saturating_duration_since(now)
            };
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        });
        ThrottledBackend { inner, pacer }
    }
}

struct ThrottledObject {
    inner: Box<dyn BackendObject>,
    pacer: Arc<dyn Fn(usize) + Send + Sync>,
}

impl BackendObject for ThrottledObject {
    fn write_vectored_at(&mut self, offset: Option<u64>, bufs: &[&[u8]]) -> Result<u64, Errno> {
        // The device pays `per_op` once per call plus bandwidth for
        // every byte — the per-op saving coalescing exists to win.
        (self.pacer)(total_len(bufs) as usize);
        self.inner.write_vectored_at(offset, bufs)
    }

    fn read_into(&mut self, offset: Option<u64>, out: &mut [u8]) -> Result<u64, Errno> {
        (self.pacer)(out.len());
        self.inner.read_into(offset, out)
    }

    fn seek(&mut self, offset: i64, whence: Whence) -> Result<u64, Errno> {
        self.inner.seek(offset, whence)
    }

    fn sync(&mut self) -> Result<(), Errno> {
        (self.pacer)(0);
        self.inner.sync()
    }

    fn fstat(&mut self) -> Result<FileStat, Errno> {
        self.inner.fstat()
    }

    fn truncate(&mut self, len: u64) -> Result<(), Errno> {
        self.inner.truncate(len)
    }
}

impl<B: Backend> Backend for ThrottledBackend<B> {
    fn open(
        &self,
        path: &str,
        flags: OpenFlags,
        mode: u32,
    ) -> Result<Box<dyn BackendObject>, Errno> {
        let inner = self.inner.open(path, flags, mode)?;
        Ok(Box::new(ThrottledObject {
            inner,
            pacer: self.pacer.clone(),
        }))
    }

    fn connect(&self, host: &str, port: u16) -> Result<Box<dyn BackendObject>, Errno> {
        let inner = self.inner.connect(host, port)?;
        Ok(Box::new(ThrottledObject {
            inner,
            pacer: self.pacer.clone(),
        }))
    }

    fn stat(&self, path: &str) -> Result<FileStat, Errno> {
        self.inner.stat(path)
    }

    fn unlink(&self, path: &str) -> Result<(), Errno> {
        self.inner.unlink(path)
    }

    fn mkdir(&self, path: &str, mode: u32) -> Result<(), Errno> {
        self.inner.mkdir(path, mode)
    }

    fn readdir(&self, path: &str) -> Result<Vec<String>, Errno> {
        self.inner.readdir(path)
    }
}

// ---------------------------------------------------------------------------
// FaultBackend (deterministic fault plans)
// ---------------------------------------------------------------------------

/// Wraps any backend and perturbs it according to a seeded
/// [`crate::fault::FaultPlan`]: errno injection, short writes/reads,
/// latency spikes, and open-time failures. The fault *sequence* is a
/// deterministic function of the plan seed and the operation order, so
/// chaos runs replay exactly. Injected faults are counted into the daemon's
/// `faults_injected` telemetry counter.
pub struct FaultBackend {
    inner: Arc<dyn Backend>,
    shared: Arc<FaultShared>,
}

impl FaultBackend {
    pub fn new(inner: Arc<dyn Backend>, plan: FaultPlan, telemetry: Arc<Telemetry>) -> Self {
        FaultBackend {
            inner,
            shared: Arc::new(FaultShared {
                state: Mutex::new(PlanState::new(plan.seed)),
                plan,
                telemetry,
            }),
        }
    }

    /// Open `name` through `open` under the plan: an injected errno
    /// fails it, and a successful one is wrapped to perturb its I/O.
    fn open_as(
        &self,
        name: String,
        open: impl FnOnce() -> Result<Box<dyn BackendObject>, Errno>,
    ) -> Result<Box<dyn BackendObject>, Errno> {
        if let Some(FaultAction::Errno(e)) = self.shared.decide(OpClass::Open, &name) {
            return Err(e);
        }
        Ok(Box::new(PlannedFaultObject {
            inner: open()?,
            path: name,
            shared: self.shared.clone(),
            pending_errno: None,
        }))
    }
}

/// The state a [`PlannedFaultObject`] shares with its parent backend:
/// the plan, and its one seeded rng stream and per-rule op counts.
struct FaultShared {
    plan: FaultPlan,
    state: Mutex<PlanState>,
    telemetry: Arc<Telemetry>,
}

impl FaultShared {
    /// The plan's verdict on the next op of `class` on `path`. A latency
    /// spike is served here and the op then runs normally, so callers
    /// see only an errno or a short transfer.
    fn decide(&self, class: OpClass, path: &str) -> Option<FaultAction> {
        let action = self.plan.decide(class, path, &mut self.state.lock());
        if action.is_some() && self.telemetry.enabled() {
            self.telemetry.faults_injected.inc();
        }
        if let Some(FaultAction::DelayUs(us)) = action {
            std::thread::sleep(Duration::from_micros(us as u64));
            return None;
        }
        action
    }
}

/// How much of a `len`-byte transfer a short fault lets through: at
/// least one byte.
fn short_len(len: usize, numerator: u8) -> usize {
    (len * numerator as usize / 256).max(1).min(len)
}

struct PlannedFaultObject {
    inner: Box<dyn BackendObject>,
    path: String,
    shared: Arc<FaultShared>,
    /// An errno drawn for a mid-batch buffer of a write.
    /// The call itself returns the clean prefix (POSIX short writev);
    /// the errno surfaces on the caller's continuation call, mirroring
    /// what a serial re-issue of that constituent would have seen.
    pending_errno: Option<Errno>,
}

impl BackendObject for PlannedFaultObject {
    fn write_vectored_at(&mut self, offset: Option<u64>, bufs: &[&[u8]]) -> Result<u64, Errno> {
        // Each buffer is one write op to the plan — one count, one draw
        // apiece — so the fault sequence is a function of *logical*
        // operation order, identical whether or not merging happened.
        if let Some(e) = self.pending_errno.take() {
            return Err(e);
        }
        for (i, buf) in bufs.iter().enumerate() {
            match self.shared.decide(OpClass::Write, &self.path) {
                Some(FaultAction::Errno(e)) => {
                    // Fault at buffer i: commit the clean prefix (a
                    // POSIX-legal short writev) and hold the errno for
                    // the continuation; with nothing written the errno
                    // surfaces immediately.
                    if i == 0 {
                        return Err(e);
                    }
                    self.pending_errno = Some(e);
                    return self.inner.write_vectored_at(offset, &bufs[..i]);
                }
                Some(FaultAction::Short { numerator }) => {
                    // Short write inside buffer i: the call ends with a
                    // prefix of it.
                    let n = short_len(buf.len(), numerator);
                    if i == 0 {
                        return self.inner.write_vectored_at(offset, &[&buf[..n]]);
                    }
                    let mut prefix: Vec<&[u8]> = bufs[..i].to_vec();
                    prefix.push(&buf[..n]);
                    return self.inner.write_vectored_at(offset, &prefix);
                }
                _ => {}
            }
        }
        self.inner.write_vectored_at(offset, bufs)
    }

    fn read_into(&mut self, offset: Option<u64>, out: &mut [u8]) -> Result<u64, Errno> {
        // One count per logical read; a short read serves a
        // prefix of the request (POSIX lets `read` return fewer bytes
        // than asked with no error).
        match self.shared.decide(OpClass::Read, &self.path) {
            Some(FaultAction::Errno(e)) => Err(e),
            Some(FaultAction::Short { numerator }) => {
                let n = short_len(out.len(), numerator);
                self.inner.read_into(offset, &mut out[..n])
            }
            _ => self.inner.read_into(offset, out),
        }
    }

    fn seek(&mut self, offset: i64, whence: Whence) -> Result<u64, Errno> {
        self.inner.seek(offset, whence)
    }

    fn sync(&mut self) -> Result<(), Errno> {
        match self.shared.decide(OpClass::Sync, &self.path) {
            Some(FaultAction::Errno(e)) => Err(e),
            // A "short" sync has no meaning; execute normally.
            _ => self.inner.sync(),
        }
    }

    fn fstat(&mut self) -> Result<FileStat, Errno> {
        self.inner.fstat()
    }

    fn truncate(&mut self, len: u64) -> Result<(), Errno> {
        self.inner.truncate(len)
    }
}

impl Backend for FaultBackend {
    fn open(
        &self,
        path: &str,
        flags: OpenFlags,
        mode: u32,
    ) -> Result<Box<dyn BackendObject>, Errno> {
        self.open_as(path.to_owned(), || self.inner.open(path, flags, mode))
    }

    /// Socket sinks participate under their `host:port` name.
    fn connect(&self, host: &str, port: u16) -> Result<Box<dyn BackendObject>, Errno> {
        self.open_as(format!("{host}:{port}"), || self.inner.connect(host, port))
    }

    fn stat(&self, path: &str) -> Result<FileStat, Errno> {
        self.inner.stat(path)
    }

    fn unlink(&self, path: &str) -> Result<(), Errno> {
        self.inner.unlink(path)
    }

    fn mkdir(&self, path: &str, mode: u32) -> Result<(), Errno> {
        self.inner.mkdir(path, mode)
    }

    fn readdir(&self, path: &str) -> Result<Vec<String>, Errno> {
        self.inner.readdir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRule;

    /// Read up to `len` bytes through `read_into`, as an owned vector.
    fn read_vec(obj: &mut dyn BackendObject, offset: Option<u64>, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        let n = obj.read_into(offset, &mut buf).unwrap() as usize;
        buf.truncate(n);
        buf
    }

    /// A filesystem without no-wait reads costs one failed call per
    /// object: the first `EOPNOTSUPP` latches, and every later read
    /// answers `EAGAIN` without a call. Other errors do not latch.
    #[test]
    fn eopnotsupp_latches_per_object_and_nothing_else_does() {
        let calls = std::cell::Cell::new(0);
        let answer = |raw: i32| {
            calls.set(calls.get() + 1);
            Err(std::io::Error::from_raw_os_error(raw))
        };
        let mut unsupported = false;
        assert_eq!(
            latched_nowait(&mut unsupported, || answer(11)),
            Err(Errno::Again)
        );
        assert_eq!(
            latched_nowait(&mut unsupported, || answer(5)),
            Err(Errno::Io)
        );
        assert_eq!(latched_nowait(&mut unsupported, || Ok(7)), Ok(7));
        assert_eq!((calls.get(), unsupported), (2, false));
        assert_eq!(
            latched_nowait(&mut unsupported, || answer(95)),
            Err(Errno::Again)
        );
        for _ in 0..3 {
            assert_eq!(
                latched_nowait(&mut unsupported, || answer(95)),
                Err(Errno::Again)
            );
            assert_eq!(
                latched_nowait(&mut unsupported, || Ok(7)),
                Err(Errno::Again)
            );
        }
        assert_eq!(calls.get(), 3, "one failed call, then none");
    }

    /// The objects that cannot promise a read will not block keep the
    /// default answer; a file answers from the page cache, or `EAGAIN`
    /// (`EOPNOTSUPP` on tmpfs, latched) — never a wrong byte.
    #[test]
    fn only_files_read_without_waiting() {
        let mut buf = [0u8; 4];
        let mem = MemSinkBackend::new();
        let mut f = mem
            .open("/m", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
            .unwrap();
        f.write_at(None, b"abcd").unwrap();
        assert_eq!(f.read_nowait_at(0, &mut buf), Err(Errno::Again));
        let mut sock = mem.connect("da0", 9).unwrap();
        assert_eq!(sock.read_nowait_at(0, &mut buf), Err(Errno::Again));
        let mut null = NullBackend::new().open("/n", OpenFlags::RDONLY, 0).unwrap();
        assert_eq!(null.read_nowait_at(0, &mut buf), Err(Errno::Again));

        let dir = std::env::temp_dir().join(format!("iofwd-nowait-{}", std::process::id()));
        let files = FileBackend::new(&dir);
        let mut f = files
            .open("/f", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
            .unwrap();
        f.write_at(Some(0), b"cached").unwrap();
        match f.read_nowait_at(2, &mut buf) {
            Ok(n) => assert_eq!(&buf[..n as usize], &b"ched"[..n as usize]),
            Err(e) => assert_eq!(e, Errno::Again),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn null_counts_and_discards() {
        let b = NullBackend::new();
        let mut obj = b.open("/dev/null", OpenFlags::WRONLY, 0).unwrap();
        assert_eq!(obj.write_at(None, b"abcdef").unwrap(), 6);
        assert_eq!(read_vec(&mut *obj, None, 100), Vec::<u8>::new());
        assert_eq!(b.bytes_written(), 6);
        assert_eq!(b.ops(), 2);
    }

    #[test]
    fn memsink_write_read_roundtrip() {
        let b = MemSinkBackend::new();
        let mut w = b
            .open("/f", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
            .unwrap();
        w.write_at(None, b"hello").unwrap();
        w.write_at(None, b" world").unwrap();
        let mut r = b.open("/f", OpenFlags::RDONLY, 0).unwrap();
        assert_eq!(read_vec(&mut *r, None, 64), b"hello world");
        assert_eq!(b.contents("/f").unwrap(), b"hello world");
    }

    #[test]
    fn memsink_positional_io() {
        let b = MemSinkBackend::new();
        let mut f = b
            .open("/p", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
            .unwrap();
        f.write_at(Some(4), b"abcd").unwrap();
        assert_eq!(f.fstat().unwrap().size, 8);
        assert_eq!(read_vec(&mut *f, Some(0), 8), b"\0\0\0\0abcd");
        // Positional ops must not disturb the cursor.
        f.write_at(None, b"XY").unwrap();
        assert_eq!(read_vec(&mut *f, Some(0), 2), b"XY");
        // Reads at and past EOF are empty.
        let mut slab = [0u8; 4];
        assert_eq!(f.read_into(Some(8), &mut slab).unwrap(), 0);
        assert_eq!(f.read_into(Some(100), &mut slab).unwrap(), 0);
        assert_eq!(f.read_into(Some(6), &mut slab).unwrap(), 2);
        assert!(read_vec(&mut *f, Some(100), 4).is_empty());
    }

    #[test]
    fn memsink_open_semantics() {
        let b = MemSinkBackend::new();
        assert_eq!(
            b.open("/missing", OpenFlags::RDONLY, 0).err(),
            Some(Errno::NoEnt)
        );
        b.open("/t", OpenFlags::WRONLY | OpenFlags::CREATE, 0)
            .unwrap()
            .write_at(None, b"12345")
            .unwrap();
        // TRUNC empties.
        let _ = b
            .open("/t", OpenFlags::WRONLY | OpenFlags::TRUNC, 0)
            .unwrap();
        assert_eq!(b.contents("/t").unwrap(), b"");
        // APPEND starts at end.
        b.open("/t", OpenFlags::WRONLY, 0)
            .unwrap()
            .write_at(None, b"ab")
            .unwrap();
        let mut a = b
            .open("/t", OpenFlags::WRONLY | OpenFlags::APPEND, 0)
            .unwrap();
        a.write_at(None, b"cd").unwrap();
        assert_eq!(b.contents("/t").unwrap(), b"abcd");
    }

    #[test]
    fn memsink_socket_counts() {
        let b = MemSinkBackend::new();
        let mut s = b.connect("da-node-3", 9000).unwrap();
        s.write_at(None, &[0u8; 1024]).unwrap();
        s.write_at(None, &[0u8; 1024]).unwrap();
        assert_eq!(b.socket_bytes(), 2048);
        assert_eq!(s.seek(0, Whence::Set).err(), Some(Errno::SPipe));
    }

    #[test]
    fn memsink_unlink_and_stat() {
        let b = MemSinkBackend::new();
        b.open("/u", OpenFlags::WRONLY | OpenFlags::CREATE, 0)
            .unwrap()
            .write_at(None, b"xyz")
            .unwrap();
        assert_eq!(b.stat("/u").unwrap().size, 3);
        b.unlink("/u").unwrap();
        assert_eq!(b.stat("/u").err(), Some(Errno::NoEnt));
        assert_eq!(b.unlink("/u").err(), Some(Errno::NoEnt));
    }

    #[test]
    fn memsink_readonly_rejects_write() {
        let b = MemSinkBackend::new();
        b.open("/r", OpenFlags::WRONLY | OpenFlags::CREATE, 0)
            .unwrap();
        let mut r = b.open("/r", OpenFlags::RDONLY, 0).unwrap();
        assert_eq!(r.write_at(None, b"no").err(), Some(Errno::BadF));
    }

    #[test]
    fn memsink_seek_whences() {
        let b = MemSinkBackend::new();
        let mut f = b
            .open("/s", OpenFlags::RDWR | OpenFlags::CREATE, 0)
            .unwrap();
        f.write_at(None, b"0123456789").unwrap();
        assert_eq!(f.seek(2, Whence::Set).unwrap(), 2);
        assert_eq!(f.seek(3, Whence::Cur).unwrap(), 5);
        assert_eq!(f.seek(-4, Whence::End).unwrap(), 6);
        assert_eq!(read_vec(&mut *f, None, 2), b"67");
        assert_eq!(f.seek(-100, Whence::Set).err(), Some(Errno::Inval));
    }

    #[test]
    fn file_backend_roundtrip() {
        let dir = std::env::temp_dir().join(format!("iofwd-test-{}", std::process::id()));
        let b = FileBackend::new(&dir);
        let mut f = b
            .open("sub/data.bin", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
            .unwrap();
        f.write_at(None, b"filedata").unwrap();
        f.sync().unwrap();
        assert_eq!(read_vec(&mut *f, Some(4), 4), b"data");
        assert_eq!(b.stat("sub/data.bin").unwrap().size, 8);
        b.unlink("sub/data.bin").unwrap();
        assert_eq!(b.stat("sub/data.bin").err(), Some(Errno::NoEnt));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_blocks_escape() {
        let b = FileBackend::new("/tmp/iofwd-root");
        assert_eq!(b.stat("../etc/passwd").err(), Some(Errno::Access));
        assert_eq!(
            b.open("../../x", OpenFlags::WRONLY | OpenFlags::CREATE, 0)
                .err(),
            Some(Errno::Access)
        );
    }

    #[test]
    fn file_backend_makes_parents_only_for_a_creating_open() {
        let dir = std::env::temp_dir().join(format!("iofwd-parents-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let b = FileBackend::new(&dir);
        // A failing open leaves nothing behind, whatever it asked for.
        for flags in [OpenFlags::RDONLY, OpenFlags::RDWR, OpenFlags::WRONLY] {
            assert_eq!(b.open("a/b/c", flags, 0).err(), Some(Errno::NoEnt));
        }
        assert_eq!(b.readdir("/").unwrap(), Vec::<String>::new());
        // A creating open still makes the path it needs.
        let mut f = b
            .open("a/b/c", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
            .unwrap();
        f.write_at(None, b"x").unwrap();
        assert_eq!(b.stat("a/b/c").unwrap().size, 1);
        assert!(b.open("a/b/c", OpenFlags::RDONLY, 0).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("iofwd-{tag}-{}", std::process::id()))
    }

    /// One backend of each kind a write reaches in the daemon, the file
    /// ones each in a fresh directory under `root`: a MemSink file, a
    /// real file, a throttled real file (no device cost), and a real
    /// file behind an empty fault plan.
    fn every_backend(root: &Path) -> [(&'static str, Arc<dyn Backend>); 4] {
        let _ = std::fs::remove_dir_all(root);
        let file = |kind| Arc::new(FileBackend::new(root.join(kind)));
        let throttled = ThrottledBackend::new(file("throttled"), 1e12, Duration::ZERO);
        let faulty = FaultBackend::new(file("fault"), FaultPlan::new(1), Arc::default());
        [
            ("MemSinkBackend", Arc::new(MemSinkBackend::new())),
            ("FileBackend", file("file")),
            ("ThrottledBackend", Arc::new(throttled)),
            ("FaultBackend", Arc::new(faulty)),
        ]
    }

    /// The first KiB of a stored file, read through a fresh descriptor.
    fn contents(b: &dyn Backend, path: &str) -> Vec<u8> {
        let mut f = b.open(path, OpenFlags::RDONLY, 0).unwrap();
        read_vec(&mut *f, Some(0), 1024)
    }

    /// Write `bufs` at `at` (or the cursor) in one `way`: as one batch,
    /// as batches of one, or through `write_at`. Returns the total.
    fn write(f: &mut dyn BackendObject, way: &str, at: Option<u64>, bufs: &[&[u8]]) -> u64 {
        if way == "batch" {
            return f.write_vectored_at(at, bufs).unwrap();
        }
        let mut n = 0;
        for buf in bufs {
            let at = at.map(|at| at + n);
            n += match way {
                "write_at" => f.write_at(at, buf),
                _ => f.write_vectored_at(at, &[buf]),
            }
            .unwrap();
        }
        n
    }

    #[test]
    fn default_write_vectored_matches_sequential_writes() {
        // On every object a batch lands what its buffers written one by
        // one land, and answers their sum; `write_at` is a batch of one;
        // empty buffers move nothing. Positionally, then on the cursor
        // (which the positional writes left at 0).
        let root = scratch("contract");
        let head: [&[u8]; 5] = [b"ab", b"", b"cde", b"", b"f"];
        let tail: [&[u8]; 3] = [b"gh", b"", b"ij"];
        let landed = b"\0\0abcdefghij".to_vec();
        for (name, b) in every_backend(&root) {
            for way in ["batch", "one by one", "write_at"] {
                let mut f = b.open(way, OpenFlags::RDWR | OpenFlags::CREATE, 0).unwrap();
                let f = &mut *f;
                let positional = write(f, way, Some(2), &head);
                let cursor = (f.seek(0, Whence::Cur), f.seek(8, Whence::Set));
                let streamed = (write(f, way, None, &tail), f.seek(0, Whence::Cur));
                let empty = write(f, way, Some(0), &[b"", b""]);
                let got = (positional, cursor, streamed, empty, contents(&*b, way));
                let want = (6, (Ok(0), Ok(8)), (4, Ok(12)), 0, landed.clone());
                assert_eq!(got, want, "{name} {way}");
            }
        }
        let _ = std::fs::remove_dir_all(root);
    }

    /// The largest offset at which `f` takes a one-byte positional
    /// write (the file-size limit of the filesystem under it, found by
    /// bisection): a byte lands there, and fails one further on.
    fn last_writable_offset(f: &mut dyn BackendObject) -> u64 {
        let (mut ok, mut bad) = (0u64, 1u64 << 63);
        while bad - ok > 1 {
            let mid = ok + (bad - ok) / 2;
            match f.write_at(Some(mid), b"z") {
                Ok(_) => ok = mid,
                Err(_) => bad = mid,
            }
        }
        f.truncate(0).unwrap();
        ok
    }

    #[test]
    fn default_write_vectored_reports_progress_before_error() {
        let root = scratch("progress");
        for (name, b) in every_backend(&root) {
            // No progress at all: the error surfaces.
            b.open("/ro", OpenFlags::WRONLY | OpenFlags::CREATE, 0)
                .unwrap();
            let mut r = b.open("/ro", OpenFlags::RDONLY, 0).unwrap();
            assert!(r.write_vectored_at(None, &[b"x", b"y"]).is_err(), "{name}");
            // A memory file's only write error (a read-only descriptor)
            // comes before any byte moves; a file fails part-way at the
            // filesystem's size limit. There, the byte that landed is a
            // short count, and the error is the continuation's.
            if name == "MemSinkBackend" {
                continue;
            }
            let mut f = b
                .open("/edge", OpenFlags::RDWR | OpenFlags::CREATE, 0)
                .unwrap();
            let last = last_writable_offset(&mut *f);
            assert_eq!(
                f.write_vectored_at(Some(last), &[b"a", b"b"]),
                Ok(1),
                "{name}"
            );
            assert!(f.write_at(Some(last + 1), b"b").is_err(), "{name}");
            f.truncate(0).unwrap();
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn positional_io_leaves_the_cursor_alone() {
        // pwrite and pread neither use nor move the cursor (POSIX), so a
        // cursor write after a pwrite lands at 0 on every backend, and a
        // cursor read after a pread continues where the write left it.
        let script = |b: &dyn Backend| {
            let mut f = b
                .open("/cursor", OpenFlags::RDWR | OpenFlags::CREATE, 0)
                .unwrap();
            let f = &mut *f;
            f.write_at(Some(100), b"PPPP").unwrap();
            let after_pwrite = f.seek(0, Whence::Cur);
            f.write_at(None, b"cc").unwrap();
            let after_write = f.seek(0, Whence::Cur);
            let pread = (read_vec(f, Some(0), 4), f.seek(0, Whence::Cur));
            let read = (read_vec(f, None, 4), f.seek(0, Whence::Cur));
            let landed = contents(b, "/cursor");
            (after_pwrite, after_write, pread, read, landed)
        };
        let reference = script(&MemSinkBackend::new());
        assert_eq!((reference.0, reference.1), (Ok(0), Ok(2)));
        let root = scratch("cursor");
        for (name, b) in every_backend(&root) {
            assert_eq!(script(&*b), reference, "{name}");
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn file_backend_write_vectored_at() {
        let dir = std::env::temp_dir().join(format!("iofwd-vec-test-{}", std::process::id()));
        let b = FileBackend::new(&dir);
        let mut f = b
            .open("vec.bin", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
            .unwrap();
        f.write_at(None, b"........").unwrap();
        let n = f
            .write_vectored_at(Some(2), &[b"AA", b"BBB", b"C"])
            .unwrap();
        assert_eq!(n, 6);
        assert_eq!(read_vec(&mut *f, Some(0), 8), b"..AABBBC");
        b.unlink("vec.bin").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn planned_fault_draws_per_constituent() {
        let inner = Arc::new(MemSinkBackend::new());
        // A rule on the 3rd logical write: the plain write is count 1,
        // the batch's buffers counts 2..4, so the fault lands inside the
        // batch's *second* buffer.
        let plan = FaultPlan::new(1).rule(FaultRule::on(OpClass::Write).nth(3).short(0.25));
        let tel = Arc::new(Telemetry::new());
        let b = FaultBackend::new(inner.clone(), plan, tel.clone());
        let mut f = b
            .open("/short", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
            .unwrap();
        assert_eq!(f.write_at(Some(0), &[7u8; 8]).unwrap(), 8);
        // The batch commits buffer 0 plus a short prefix of buffer 1.
        let n = f
            .write_vectored_at(Some(8), &[&[1u8; 1], &[2u8; 3], &[3u8; 4]])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(&inner.contents("/short").unwrap()[8..10], &[1, 2]);
        assert_eq!(tel.faults_injected.get(), 1);
    }

    #[test]
    fn planned_fault_mid_batch_errno_surfaces_on_continuation() {
        let inner = Arc::new(MemSinkBackend::new());
        // The 2nd logical write draws ENOSPC — mid-batch, so the call
        // commits the clean prefix and the errno lands on the caller's
        // continuation (the re-issue a serial path would have made).
        let plan = FaultPlan::new(1).rule(FaultRule::on(OpClass::Write).nth(2).errno(Errno::NoSpc));
        let tel = Arc::new(Telemetry::new());
        let b = FaultBackend::new(inner.clone(), plan, tel.clone());
        let mut f = b
            .open("/mid", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
            .unwrap();
        let n = f
            .write_vectored_at(Some(0), &[&[1u8; 4], &[2u8; 4]])
            .unwrap();
        assert_eq!(n, 4, "clean prefix commits");
        assert_eq!(
            f.write_vectored_at(Some(4), &[&[2u8; 4]]),
            Err(Errno::NoSpc),
            "held errno surfaces on the continuation call"
        );
        // The hold-over is one-shot: the next batch draws normally.
        assert_eq!(f.write_vectored_at(Some(4), &[&[2u8; 4]]).unwrap(), 4);
        assert_eq!(tel.faults_injected.get(), 1);
    }

    #[test]
    fn throttled_backend_paces() {
        let inner = Arc::new(MemSinkBackend::new());
        // 1 MiB/s: a 256 KiB write should take ≥ 200 ms.
        let b = ThrottledBackend::new(inner, (1 << 20) as f64, Duration::ZERO);
        let mut f = b
            .open("/slow", OpenFlags::WRONLY | OpenFlags::CREATE, 0)
            .unwrap();
        let t0 = Instant::now();
        f.write_at(None, &vec![0u8; 256 * 1024]).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(200));
    }

    /// Inner backend for the transparency test: logs every call with
    /// its arguments and answers with a value derived from them.
    #[derive(Clone)]
    struct Recorder(Arc<Mutex<Vec<String>>>);

    impl Recorder {
        fn note<T>(&self, call: String, answer: T) -> Result<T, Errno> {
            self.0.lock().push(call);
            Ok(answer)
        }
    }

    fn stat_of(size: u64) -> FileStat {
        FileStat {
            size,
            mode: 0o640,
            mtime_ns: 9,
            is_dir: false,
        }
    }

    impl BackendObject for Recorder {
        fn write_vectored_at(&mut self, offset: Option<u64>, bufs: &[&[u8]]) -> Result<u64, Errno> {
            let total = bufs.iter().map(|b| b.len() as u64).sum();
            self.note(format!("write_vectored_at {offset:?} {bufs:?}"), total)
        }
        fn read_into(&mut self, offset: Option<u64>, out: &mut [u8]) -> Result<u64, Errno> {
            out.fill(0x5a);
            self.note(
                format!("read_into {offset:?} {}", out.len()),
                out.len() as u64,
            )
        }
        fn seek(&mut self, offset: i64, whence: Whence) -> Result<u64, Errno> {
            self.note(format!("seek {offset} {whence:?}"), offset as u64 + 1)
        }
        fn sync(&mut self) -> Result<(), Errno> {
            self.note("sync".into(), ())
        }
        fn fstat(&mut self) -> Result<FileStat, Errno> {
            self.note("fstat".into(), stat_of(77))
        }
        fn truncate(&mut self, len: u64) -> Result<(), Errno> {
            self.note(format!("truncate {len}"), ())
        }
    }

    impl Backend for Recorder {
        fn open(
            &self,
            path: &str,
            flags: OpenFlags,
            mode: u32,
        ) -> Result<Box<dyn BackendObject>, Errno> {
            self.note(
                format!("open {path} {flags:?} {mode:o}"),
                Box::new(self.clone()),
            )
        }
        fn connect(&self, host: &str, port: u16) -> Result<Box<dyn BackendObject>, Errno> {
            self.note(format!("connect {host} {port}"), Box::new(self.clone()))
        }
        fn stat(&self, path: &str) -> Result<FileStat, Errno> {
            self.note(format!("stat {path}"), stat_of(path.len() as u64))
        }
        fn unlink(&self, path: &str) -> Result<(), Errno> {
            self.note(format!("unlink {path}"), ())
        }
        fn mkdir(&self, path: &str, mode: u32) -> Result<(), Errno> {
            self.note(format!("mkdir {path} {mode:o}"), ())
        }
        fn readdir(&self, path: &str) -> Result<Vec<String>, Errno> {
            self.note(format!("readdir {path}"), vec![format!("{path}/entry")])
        }
    }

    /// One call to every `Backend` and `BackendObject` method; returns
    /// what each answered.
    fn drive_every_method(b: &dyn Backend) -> Vec<String> {
        let mut o = b
            .open("/p/f", OpenFlags::RDWR | OpenFlags::CREATE, 0o600)
            .unwrap();
        let mut sock = b.connect("da-node", 7001).unwrap();
        let mut out = [0u8; 6];
        vec![
            format!("{:?}", sock.write_at(None, b"to-socket")),
            format!("{:?}", b.stat("/p/f")),
            format!("{:?}", b.unlink("/p/old")),
            format!("{:?}", b.mkdir("/p/d", 0o750)),
            format!("{:?}", b.readdir("/p")),
            format!("{:?}", o.write_at(Some(4096), b"abc")),
            format!("{:?}", o.write_vectored_at(Some(8), &[b"de", b"fgh"])),
            format!("{:?} {out:?}", o.read_into(Some(2), &mut out)),
            format!("{:?}", o.seek(40, Whence::Set)),
            format!("{:?}", o.sync()),
            format!("{:?}", o.fstat()),
            format!("{:?}", o.truncate(12)),
        ]
    }

    #[test]
    fn wrappers_are_transparent_for_every_backend_method() {
        // Reference: the recorder driven bare. A wrapper with nothing to
        // add (zero device cost, empty fault plan) must hand the inner
        // backend the same calls and hand back the same answers.
        let inner = Arc::new(Recorder(Arc::new(Mutex::new(Vec::new()))));
        let answers = drive_every_method(inner.as_ref());
        let calls = std::mem::take(&mut *inner.0.lock());
        assert_eq!(calls.len(), 14, "{calls:?}");
        let check = |name: &str, wrapper: &dyn Backend| {
            assert_eq!(drive_every_method(wrapper), answers, "{name}");
            assert_eq!(std::mem::take(&mut *inner.0.lock()), calls, "{name}");
        };
        let throttled = ThrottledBackend::new(inner.clone(), 1e12, Duration::ZERO);
        check("ThrottledBackend", &throttled);
        let telemetry = Arc::new(Telemetry::disabled());
        let plan = FaultPlan::new(1);
        check(
            "FaultBackend",
            &FaultBackend::new(inner.clone(), plan, telemetry),
        );
    }
}
