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
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use iofwd_proto::{Errno, FileStat, OpenFlags, Whence};
use parking_lot::Mutex;

/// An open file or socket object on the ION side. One exists per open
/// descriptor; the server serialises access per descriptor.
pub trait BackendObject: Send {
    /// Write at `offset` (or the current position if `None`). Returns
    /// bytes written.
    fn write_at(&mut self, offset: Option<u64>, data: &[u8]) -> Result<u64, Errno>;
    /// Write the buffers of `bufs` back-to-back starting at `offset`
    /// (or the current position), as one logical operation — `pwritev`
    /// semantics. Returns total bytes written; a short count is legal
    /// and means a prefix of the concatenated buffers went through.
    ///
    /// The default delegates buffer-by-buffer to [`Self::write_at`],
    /// stopping at the first short write. An error after some bytes
    /// already landed is reported as a short write (the bytes moved;
    /// POSIX `writev` cannot report both), so callers retry from the
    /// new position and see the error only when no progress was made.
    fn write_vectored_at(&mut self, offset: Option<u64>, bufs: &[&[u8]]) -> Result<u64, Errno> {
        let mut total = 0u64;
        for buf in bufs {
            let at = offset.map(|base| base + total);
            match self.write_at(at, buf) {
                Ok(n) => {
                    total += n;
                    if n < buf.len() as u64 {
                        return Ok(total);
                    }
                }
                Err(e) if total == 0 => return Err(e),
                Err(_) => return Ok(total),
            }
        }
        Ok(total)
    }
    /// Read up to `out.len()` bytes at `offset` (or current position)
    /// into a caller-supplied buffer. Returns bytes read; fewer than
    /// requested means EOF. The engine reads straight into a recycled
    /// BML slab block through it.
    fn read_into(&mut self, offset: Option<u64>, out: &mut [u8]) -> Result<u64, Errno>;
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
    fn write_at(&mut self, _offset: Option<u64>, data: &[u8]) -> Result<u64, Errno> {
        self.counters
            .bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.counters.ops.fetch_add(1, Ordering::Relaxed);
        Ok(data.len() as u64)
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

#[derive(Default)]
struct MemStore {
    files: Mutex<HashMap<String, Arc<Mutex<Vec<u8>>>>>,
    dirs: Mutex<std::collections::BTreeSet<String>>,
    socket_bytes: AtomicU64,
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

impl MemFileObject {
    fn effective_offset(&mut self, offset: Option<u64>) -> u64 {
        offset.unwrap_or(self.pos)
    }
}

impl BackendObject for MemFileObject {
    fn write_at(&mut self, offset: Option<u64>, data: &[u8]) -> Result<u64, Errno> {
        if !self.flags.writable() {
            return Err(Errno::BadF);
        }
        let positional = offset.is_some();
        let off = self.effective_offset(offset) as usize;
        let mut file = self.data.lock();
        if file.len() < off + data.len() {
            file.resize(off + data.len(), 0);
        }
        file[off..off + data.len()].copy_from_slice(data);
        drop(file);
        if !positional {
            self.pos += data.len() as u64;
        }
        Ok(data.len() as u64)
    }

    fn read_into(&mut self, offset: Option<u64>, out: &mut [u8]) -> Result<u64, Errno> {
        if !self.flags.readable() {
            return Err(Errno::BadF);
        }
        let positional = offset.is_some();
        let off = self.effective_offset(offset) as usize;
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
    fn write_at(&mut self, _offset: Option<u64>, data: &[u8]) -> Result<u64, Errno> {
        self.store
            .socket_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.sent += data.len() as u64;
        Ok(data.len() as u64)
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
        let data = files.entry(path.to_owned()).or_default().clone();
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
    fn write_at(&mut self, offset: Option<u64>, data: &[u8]) -> Result<u64, Errno> {
        let res = match offset {
            Some(off) => {
                self.file
                    .seek(SeekFrom::Start(off))
                    .map_err(|e| Errno::from_io(&e))?;
                self.file.write_all(data)
            }
            None => self.file.write_all(data),
        };
        res.map_err(|e| Errno::from_io(&e))?;
        Ok(data.len() as u64)
    }

    fn write_vectored_at(&mut self, offset: Option<u64>, bufs: &[&[u8]]) -> Result<u64, Errno> {
        // pwritev semantics: one seek positions the whole batch, then
        // the buffers stream out back-to-back on the advancing cursor —
        // the per-op seek+dispatch cost is paid once per batch instead
        // of once per forwarded request.
        if let Some(off) = offset {
            self.file
                .seek(SeekFrom::Start(off))
                .map_err(|e| Errno::from_io(&e))?;
        }
        let mut total = 0u64;
        for buf in bufs {
            match self.file.write_all(buf) {
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
        if let Some(off) = offset {
            self.file
                .seek(SeekFrom::Start(off))
                .map_err(|e| Errno::from_io(&e))?;
        }
        let mut filled = 0;
        while filled < out.len() {
            match self.file.read(&mut out[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) => return Err(Errno::from_io(&e)),
            }
        }
        Ok(filled as u64)
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
        Ok(Box::new(FileObject { file }))
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
    fn write_at(&mut self, offset: Option<u64>, data: &[u8]) -> Result<u64, Errno> {
        (self.pacer)(data.len());
        self.inner.write_at(offset, data)
    }

    fn write_vectored_at(&mut self, offset: Option<u64>, bufs: &[&[u8]]) -> Result<u64, Errno> {
        // The device pays `per_op` once for the batch plus bandwidth
        // for every byte — the per-op saving coalescing exists to win.
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        (self.pacer)(total);
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

/// Per-class operation counters driving `nth=` triggers. Shared by every
/// object opened through one [`FaultBackend`], so "the 7th write" means
/// the 7th write the *daemon* performs, not the 7th on one descriptor.
#[derive(Default)]
struct FaultSeq {
    write: AtomicU64,
    read: AtomicU64,
    open: AtomicU64,
    sync: AtomicU64,
}

impl FaultSeq {
    fn next(&self, class: crate::fault::OpClass) -> u64 {
        use crate::fault::OpClass;
        let c = match class {
            OpClass::Write => &self.write,
            OpClass::Read => &self.read,
            OpClass::Open => &self.open,
            OpClass::Sync => &self.sync,
            OpClass::Any => &self.write,
        };
        c.fetch_add(1, Ordering::Relaxed) + 1
    }
}

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
    pub fn new(
        inner: Arc<dyn Backend>,
        plan: crate::fault::FaultPlan,
        telemetry: Arc<crate::telemetry::Telemetry>,
    ) -> Self {
        let rng = simcore::rng::SimRng::new(plan.seed);
        FaultBackend {
            inner,
            shared: Arc::new(FaultShared {
                plan,
                rng: Mutex::new(rng),
                seq: FaultSeq::default(),
                injected: AtomicU64::new(0),
                telemetry,
            }),
        }
    }

    /// Total faults this backend has injected (for tests that do not
    /// run with telemetry enabled).
    pub fn faults_injected(&self) -> u64 {
        self.shared.injected.load(Ordering::Relaxed)
    }

    fn wrap(&self, obj: Box<dyn BackendObject>, path: String) -> Box<dyn BackendObject> {
        Box::new(PlannedFaultObject {
            inner: obj,
            path,
            shared: self.shared.clone(),
            pending_errno: None,
        })
    }
}

/// The state a [`PlannedFaultObject`] shares with its parent backend:
/// the plan, one seeded rng stream, and the per-class op counters.
struct FaultShared {
    plan: crate::fault::FaultPlan,
    rng: Mutex<simcore::rng::SimRng>,
    seq: FaultSeq,
    injected: AtomicU64,
    telemetry: Arc<crate::telemetry::Telemetry>,
}

impl FaultShared {
    fn decide(
        &self,
        class: crate::fault::OpClass,
        path: &str,
    ) -> Option<crate::fault::FaultAction> {
        self.decide_shaped(class, path, false)
    }

    fn decide_shaped(
        &self,
        class: crate::fault::OpClass,
        path: &str,
        vectored: bool,
    ) -> Option<crate::fault::FaultAction> {
        let seq = self.seq.next(class);
        let mut rng = self.rng.lock();
        let action = self
            .plan
            .decide_vectored(class, path, seq, &mut rng, vectored);
        drop(rng);
        if action.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
            if self.telemetry.enabled() {
                self.telemetry.faults_injected.inc();
            }
        }
        action
    }
}

struct PlannedFaultObject {
    inner: Box<dyn BackendObject>,
    path: String,
    shared: Arc<FaultShared>,
    /// An errno drawn for a mid-batch constituent of a vectored write.
    /// The call itself returns the clean prefix (POSIX short writev);
    /// the errno surfaces on the caller's continuation call, mirroring
    /// what a serial re-issue of that constituent would have seen.
    pending_errno: Option<Errno>,
}

impl BackendObject for PlannedFaultObject {
    fn write_at(&mut self, offset: Option<u64>, data: &[u8]) -> Result<u64, Errno> {
        use crate::fault::{FaultAction, OpClass};
        match self.shared.decide(OpClass::Write, &self.path) {
            Some(FaultAction::Errno(e)) => Err(e),
            Some(FaultAction::Short { numerator }) => {
                // POSIX-legal short write: some prefix goes through.
                let n = ((data.len() * numerator as usize) / 256)
                    .max(1)
                    .min(data.len());
                self.inner.write_at(offset, &data[..n])
            }
            Some(FaultAction::DelayUs(us)) => {
                std::thread::sleep(Duration::from_micros(us as u64));
                self.inner.write_at(offset, data)
            }
            None => self.inner.write_at(offset, data),
        }
    }

    fn write_vectored_at(&mut self, offset: Option<u64>, bufs: &[&[u8]]) -> Result<u64, Errno> {
        use crate::fault::{FaultAction, OpClass};
        // Each constituent of a coalesced batch is still one write op
        // to the plan — one sequence slot, one draw apiece — so the
        // fault sequence is a function of *logical* operation order,
        // identical whether or not merging happened. `vectored`-flagged
        // rules additionally match (only) these draws.
        if let Some(e) = self.pending_errno.take() {
            return Err(e);
        }
        for (i, buf) in bufs.iter().enumerate() {
            match self.shared.decide_shaped(OpClass::Write, &self.path, true) {
                Some(FaultAction::Errno(e)) => {
                    // Fault at constituent i: commit the clean prefix
                    // (a POSIX-legal short writev) and hold the errno
                    // for the continuation; with nothing written the
                    // errno surfaces immediately.
                    if i == 0 {
                        return Err(e);
                    }
                    self.pending_errno = Some(e);
                    return self.inner.write_vectored_at(offset, &bufs[..i]);
                }
                Some(FaultAction::Short { numerator }) => {
                    // Short write inside constituent i: the batch ends
                    // with a prefix of this buffer.
                    let n = ((buf.len() * numerator as usize) / 256)
                        .max(1)
                        .min(buf.len());
                    let mut prefix: Vec<&[u8]> = bufs[..i].to_vec();
                    prefix.push(&buf[..n]);
                    return self.inner.write_vectored_at(offset, &prefix);
                }
                Some(FaultAction::DelayUs(us)) => {
                    std::thread::sleep(Duration::from_micros(us as u64));
                }
                None => {}
            }
        }
        self.inner.write_vectored_at(offset, bufs)
    }

    fn read_into(&mut self, offset: Option<u64>, out: &mut [u8]) -> Result<u64, Errno> {
        use crate::fault::{FaultAction, OpClass};
        // One sequence slot per logical read; a short read serves a
        // prefix of the request (POSIX lets `read` return fewer bytes
        // than asked with no error).
        match self.shared.decide(OpClass::Read, &self.path) {
            Some(FaultAction::Errno(e)) => Err(e),
            Some(FaultAction::Short { numerator }) => {
                let n = ((out.len() * numerator as usize) / 256)
                    .max(1)
                    .min(out.len());
                self.inner.read_into(offset, &mut out[..n])
            }
            Some(FaultAction::DelayUs(us)) => {
                std::thread::sleep(Duration::from_micros(us as u64));
                self.inner.read_into(offset, out)
            }
            None => self.inner.read_into(offset, out),
        }
    }

    fn seek(&mut self, offset: i64, whence: Whence) -> Result<u64, Errno> {
        self.inner.seek(offset, whence)
    }

    fn sync(&mut self) -> Result<(), Errno> {
        use crate::fault::{FaultAction, OpClass};
        match self.shared.decide(OpClass::Sync, &self.path) {
            Some(FaultAction::Errno(e)) => Err(e),
            Some(FaultAction::DelayUs(us)) => {
                std::thread::sleep(Duration::from_micros(us as u64));
                self.inner.sync()
            }
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
        use crate::fault::{FaultAction, OpClass};
        match self.shared.decide(OpClass::Open, path) {
            Some(FaultAction::Errno(e)) => return Err(e),
            Some(FaultAction::DelayUs(us)) => {
                std::thread::sleep(Duration::from_micros(us as u64));
            }
            _ => {}
        }
        let obj = self.inner.open(path, flags, mode)?;
        Ok(self.wrap(obj, path.to_owned()))
    }

    fn connect(&self, host: &str, port: u16) -> Result<Box<dyn BackendObject>, Errno> {
        use crate::fault::{FaultAction, OpClass};
        // Socket sinks participate under their `host:port` name.
        let name = format!("{host}:{port}");
        match self.shared.decide(OpClass::Open, &name) {
            Some(FaultAction::Errno(e)) => return Err(e),
            Some(FaultAction::DelayUs(us)) => {
                std::thread::sleep(Duration::from_micros(us as u64));
            }
            _ => {}
        }
        let obj = self.inner.connect(host, port)?;
        Ok(self.wrap(obj, name))
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

    /// Read up to `len` bytes through `read_into`, as an owned vector.
    fn read_vec(obj: &mut dyn BackendObject, offset: Option<u64>, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        let n = obj.read_into(offset, &mut buf).unwrap() as usize;
        buf.truncate(n);
        buf
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

    #[test]
    fn default_write_vectored_matches_sequential_writes() {
        let b = MemSinkBackend::new();
        let mut f = b
            .open("/v", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
            .unwrap();
        // MemFileObject has no override, so this exercises the trait's
        // default delegate-per-buffer loop, positionally...
        let n = f
            .write_vectored_at(Some(2), &[b"ab", b"cde", b"", b"f"])
            .unwrap();
        assert_eq!(n, 6);
        assert_eq!(b.contents("/v").unwrap(), b"\0\0abcdef");
        // ...and on the cursor, which must advance across buffers.
        f.seek(8, Whence::Set).unwrap();
        assert_eq!(f.write_vectored_at(None, &[b"gh", b"ij"]).unwrap(), 4);
        assert_eq!(b.contents("/v").unwrap(), b"\0\0abcdefghij");
    }

    #[test]
    fn default_write_vectored_reports_progress_before_error() {
        let b = MemSinkBackend::new();
        b.open("/ro", OpenFlags::WRONLY | OpenFlags::CREATE, 0)
            .unwrap();
        let mut r = b.open("/ro", OpenFlags::RDONLY, 0).unwrap();
        // No progress at all: the error surfaces.
        assert_eq!(
            r.write_vectored_at(None, &[b"x", b"y"]).err(),
            Some(Errno::BadF)
        );
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
        use crate::fault::{FaultPlan, FaultRule, OpClass};
        use crate::telemetry::Telemetry;
        let inner = Arc::new(MemSinkBackend::new());
        // Vectored-only rule on the 3rd logical write: the plain write
        // consumes seq 1, the batch's constituents consume seq 2..4, so
        // the fault lands inside the batch's *second* buffer.
        let plan =
            FaultPlan::new(1).rule(FaultRule::on(OpClass::Write).vectored().nth(3).short(0.25));
        let b = FaultBackend::new(inner.clone(), plan, Arc::new(Telemetry::disabled()));
        let mut f = b
            .open("/short", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644)
            .unwrap();
        // Plain writes are untouched by the vectored-only rule.
        assert_eq!(f.write_at(Some(0), &[7u8; 8]).unwrap(), 8);
        // The batch commits buffer 0 plus a short prefix of buffer 1.
        let n = f
            .write_vectored_at(Some(8), &[&[1u8; 1], &[2u8; 3], &[3u8; 4]])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(&inner.contents("/short").unwrap()[8..10], &[1, 2]);
        assert_eq!(b.faults_injected(), 1);
    }

    #[test]
    fn planned_fault_mid_batch_errno_surfaces_on_continuation() {
        use crate::fault::{FaultPlan, FaultRule, OpClass};
        use crate::telemetry::Telemetry;
        let inner = Arc::new(MemSinkBackend::new());
        // The 2nd logical write draws ENOSPC — mid-batch, so the call
        // commits the clean prefix and the errno lands on the caller's
        // continuation (the re-issue a serial path would have made).
        let plan = FaultPlan::new(1).rule(FaultRule::on(OpClass::Write).nth(2).errno(Errno::NoSpc));
        let b = FaultBackend::new(inner.clone(), plan, Arc::new(Telemetry::disabled()));
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
        assert_eq!(b.faults_injected(), 1);
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
    #[derive(Default, Clone)]
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
        fn write_at(&mut self, offset: Option<u64>, data: &[u8]) -> Result<u64, Errno> {
            self.note(format!("write_at {offset:?} {data:?}"), data.len() as u64)
        }
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
        let inner = Arc::new(Recorder::default());
        let answers = drive_every_method(inner.as_ref());
        let calls = std::mem::take(&mut *inner.0.lock());
        assert_eq!(calls.len(), 14, "{calls:?}");
        let check = |name: &str, wrapper: &dyn Backend| {
            assert_eq!(drive_every_method(wrapper), answers, "{name}");
            assert_eq!(std::mem::take(&mut *inner.0.lock()), calls, "{name}");
        };
        let throttled = ThrottledBackend::new(inner.clone(), 1e12, Duration::ZERO);
        check("ThrottledBackend", &throttled);
        let telemetry = Arc::new(crate::telemetry::Telemetry::disabled());
        let plan = crate::fault::FaultPlan::new(1);
        check(
            "FaultBackend",
            &FaultBackend::new(inner.clone(), plan, telemetry),
        );
    }
}
