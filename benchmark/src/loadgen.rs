//! The load generator: closed-loop clients (a compute-node application
//! blocks in each forwarded call) driving a live daemon through
//! `iofwd::client::Client` over TCP, and one timed pass of a workload.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use iofwd::client::{Client, ClientError};
use iofwd::telemetry::TelemetrySnapshot;
use iofwd::transport::tcp::TcpConn;
use iofwd_proto::{Errno, Fd, OpenFlags, StatsQuery};

use crate::affinity::Split;
use crate::daemon::Daemon;
use crate::procfs;
use crate::stats::{Class, Sample};
use crate::trace::{ConnSpan, SpanLog, TimedConn};
use crate::workload::{self, File, Mode, Op, OpStream, Shape, Spec, READBACK_BYTES, TASK_BLOCKS};

/// Every this-many reads the whole block is compared, not just its stamp.
const FULL_CHECK_EVERY: u64 = 64;
/// A client whose calls keep failing stops instead of spinning.
const MAX_FAILURES: u64 = 64;

/// What a call was, the payload bytes it moved, and for reads what came
/// back with the block it should be.
type Called = (Class, u32, Option<(Vec<u8>, u32)>);

/// One closed-loop client: its connection, its payload block and what it
/// last wrote where.
pub struct Runner {
    client: Client,
    spec: &'static Spec,
    id: u32,
    tag: u32,
    origin: Instant,
    /// The client's seeded block; each write re-stamps its head.
    payload: Vec<u8>,
    open: Vec<(File, Fd, Mode)>,
    seq: u64,
    /// Stamp sequence last written per block.
    ring_w: Vec<u64>,
    ring_r: Vec<u64>,
    task: [u64; TASK_BLOCKS as usize],
    reads: u64,
    spans: Option<SpanLog>,
    pub samples: Vec<Sample>,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Runner {
    /// Connect client `id`, open its ring files and, for workloads that
    /// read one, populate it through the daemon.
    pub fn connect(
        daemon: &Daemon,
        spec: &'static Spec,
        seed: u64,
        id: u32,
        origin: Instant,
        traced: bool,
    ) -> io::Result<Runner> {
        let conn = TcpConn::connect(daemon.addr())?;
        let (client, spans) = if traced {
            let (conn, log) = TimedConn::new(conn, origin);
            let mut client = Client::with_id(Box::new(conn), id);
            client.enable_tracing();
            (client, Some(log))
        } else {
            (Client::with_id(Box::new(conn), id), None)
        };
        let ring = spec.ring_blocks as usize;
        let mut r = Runner {
            client,
            spec,
            id,
            tag: OpStream::new(spec, seed, id).tag,
            origin,
            payload: workload::payload(seed, id, spec.block),
            open: Vec::new(),
            seq: 0,
            ring_w: vec![0; ring],
            ring_r: vec![0; ring],
            task: [0; TASK_BLOCKS as usize],
            reads: 0,
            spans,
            samples: Vec::new(),
            failed: 0,
            errors: Vec::new(),
        };
        for &file in workload::ring_files(spec.shape) {
            r.exec(Op::Open {
                file,
                mode: Mode::Write,
            });
        }
        if matches!(spec.shape, Shape::Read | Shape::Mix) {
            for block in 0..spec.ring_blocks {
                r.exec(Op::Pwrite {
                    file: File::RingR,
                    block,
                });
            }
            // Drain the staged population before anything reads it.
            r.exec(Op::Readback {
                file: File::RingR,
                block: spec.ring_blocks - 1,
            });
        }
        Ok(r)
    }

    fn fd(&self, file: File) -> Result<(Fd, Mode), String> {
        self.open
            .iter()
            .find(|(f, ..)| *f == file)
            .map(|(_, fd, mode)| (*fd, *mode))
            .ok_or_else(|| format!("{file:?} is not open"))
    }

    fn seqs(&mut self, file: File) -> &mut [u64] {
        match file {
            File::RingW => &mut self.ring_w,
            File::RingR => &mut self.ring_r,
            File::Task(_) => &mut self.task,
        }
    }

    /// Issue one call, time it, and check what came back. The check runs
    /// after the clock stops: it is the harness's work, not the system's.
    pub fn exec(&mut self, op: Op) {
        let started = Instant::now();
        let outcome = self.call(op);
        let done = Instant::now();
        let (class, bytes) = match outcome {
            Ok((class, bytes, read_back)) => {
                if let Some((data, block)) = read_back {
                    self.check_read(op, &data, block);
                }
                (class, bytes)
            }
            Err(e) => {
                self.fail(format!("client {}: {op:?}: {e}", self.id));
                (Class::Meta, 0)
            }
        };
        self.samples.push(Sample {
            end_ns: (done - self.origin).as_nanos() as u64,
            lat_ns: (done - started).as_nanos() as u64,
            class,
            bytes,
        });
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(error);
        }
    }

    fn call(&mut self, op: Op) -> Result<Called, String> {
        let err = |e: ClientError| e.to_string();
        let block_len = self.spec.block as u64;
        match op {
            Op::Open { file, mode } => {
                let flags = match mode {
                    Mode::Write => OpenFlags::RDWR | OpenFlags::CREATE,
                    Mode::Read => OpenFlags::RDONLY,
                };
                let path = file.path(self.id, self.tag);
                let fd = self.client.open(&path, flags, 0o644).map_err(err)?;
                self.open.push((file, fd, mode));
                Ok((Class::Open, 0, None))
            }
            Op::Close { file } => {
                let (fd, mode) = self.fd(file)?;
                self.open.retain(|(f, ..)| *f != file);
                self.client.close(fd).map_err(err)?;
                // Closing a written descriptor is small_task's barrier:
                // staged writes and their deferred errors surface here.
                let barrier = mode == Mode::Write;
                Ok((if barrier { Class::Barrier } else { Class::Meta }, 0, None))
            }
            Op::Pwrite { file, block } => {
                let (fd, _) = self.fd(file)?;
                let offset = u64::from(block) * block_len;
                self.seq += 1;
                let seq = self.seq;
                workload::stamp(&mut self.payload, self.id, offset, seq);
                let n = self.client.pwrite(fd, offset, &self.payload).map_err(err)?;
                if n != block_len {
                    return Err(format!("short write: {n} of {block_len}"));
                }
                self.seqs(file)[block as usize] = seq;
                Ok((Class::Write, block_len as u32, None))
            }
            Op::Pread { file, block } => {
                let (fd, _) = self.fd(file)?;
                let offset = u64::from(block) * block_len;
                let data = self.client.pread(fd, offset, block_len).map_err(err)?;
                Ok((Class::Read, data.len() as u32, Some((data, block))))
            }
            Op::Readback { file, block } => {
                let (fd, _) = self.fd(file)?;
                let offset = u64::from(block) * block_len;
                let len = READBACK_BYTES.min(self.spec.block) as u64;
                let data = self.client.pread(fd, offset, len).map_err(err)?;
                if data.len() as u64 != len {
                    return Err(format!("short read-back: {} of {len}", data.len()));
                }
                Ok((Class::Barrier, 0, Some((data, block))))
            }
            Op::Stat { file, exists } => {
                let path = file.path(self.id, self.tag);
                match (self.client.stat(&path), exists) {
                    (Ok(st), true) if st.size == u64::from(TASK_BLOCKS) * block_len => {}
                    (Ok(st), true) => return Err(format!("size {} after 8 writes", st.size)),
                    (Err(ClientError::Remote(Errno::NoEnt)), false) => {}
                    (Ok(_), false) => return Err("still there after unlink".into()),
                    (Err(e), _) => return Err(err(e)),
                }
                Ok((Class::Meta, 0, None))
            }
            Op::Unlink { file } => {
                let path = file.path(self.id, self.tag);
                self.client.unlink(&path).map_err(err)?;
                Ok((Class::Meta, 0, None))
            }
        }
    }

    fn check_read(&mut self, op: Op, data: &[u8], block: u32) {
        let (file, head_only) = match op {
            Op::Pread { file, .. } => (file, false),
            Op::Readback { file, .. } => (file, true),
            _ => return,
        };
        self.reads += 1;
        let offset = u64::from(block) * self.spec.block as u64;
        let seq = self.seqs(file)[block as usize];
        let full = !head_only
            && (self.reads.is_multiple_of(FULL_CHECK_EVERY) || data.len() != self.spec.block);
        let body = full.then_some(&self.payload[..]);
        if let Err(e) = workload::check_block(data, self.id, offset, seq, body) {
            self.fail(format!("read-back: {e}"));
        }
    }

    /// Run the op stream until `until`, then on to the end of the lap, so
    /// no task is left half-done and the last writes have met a barrier.
    pub fn drive(&mut self, stream: &mut OpStream, until: Instant) {
        while !(stream.at_boundary() && Instant::now() >= until) && self.failed < MAX_FAILURES {
            let op = stream.next().expect("op streams are endless");
            self.exec(op);
        }
    }

    /// Close what is still open (the ring files).
    pub fn finish(&mut self) {
        for (file, ..) in self.open.clone() {
            self.exec(Op::Close { file });
        }
    }

    /// Compare every ring file this client wrote (populated ones too) in
    /// the daemon's root with the last stamp written per block and the
    /// full payload. Returns blocks checked.
    pub fn verify_root(&mut self, root: &Path) -> u64 {
        let mut checked = 0;
        for &file in workload::ring_files(self.spec.shape) {
            let path = root.join(file.path(self.id, self.tag));
            let seqs = self.seqs(file).to_vec();
            let (n, errors) = verify_ring(&path, self.id, &seqs, &self.payload);
            checked += n;
            for e in errors {
                self.fail(e);
            }
        }
        checked
    }

    pub fn take_spans(&mut self) -> Vec<ConnSpan> {
        self.spans
            .take()
            .map(|log| std::mem::take(&mut *log.lock().expect("span log poisoned")))
            .unwrap_or_default()
    }
}

/// Check every written block of a ring file on the backing store: the
/// stamp must be the last one the client wrote there and every other
/// byte the client's payload. Returns (blocks checked, mismatches).
pub fn verify_ring(path: &Path, client: u32, seqs: &[u64], payload: &[u8]) -> (u64, Vec<String>) {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) => return (0, vec![format!("{}: {e}", path.display())]),
    };
    let mut errors = Vec::new();
    let mut checked = 0;
    for (block, &seq) in seqs.iter().enumerate().filter(|(_, &seq)| seq != 0) {
        let offset = block * payload.len();
        let got = data.get(offset..offset + payload.len()).unwrap_or(&[]);
        checked += 1;
        if let Err(e) = workload::check_block(got, client, offset as u64, seq, Some(payload)) {
            errors.push(format!("{}: {e}", path.display()));
        }
    }
    (checked, errors)
}

/// A daemon with its clients connected and ring files populated, and how
/// long that took from spawn.
pub struct Ready {
    pub daemon: Daemon,
    pub runners: Vec<Runner>,
    pub stats: Client,
    pub setup_s: f64,
}

/// Start-up as a user sees it: `iofwdd` spawn, port file, connect, open,
/// read-file population. Must run on the main thread (see
/// `Daemon::spawn`'s parent-death signal).
pub fn set_up(
    bin: &Path,
    scratch: &Path,
    cpus: &Split,
    spec: &'static Spec,
    seed: u64,
    origin: Instant,
    traced: bool,
) -> io::Result<Ready> {
    let daemon = Daemon::spawn(bin, scratch, spec.daemon_flags, cpus.daemon_mask())?;
    let runners = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=spec.clients as u32)
            .map(|id| {
                let daemon = &daemon;
                s.spawn(move || Runner::connect(daemon, spec, seed, id, origin, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<io::Result<Vec<Runner>>>()
    })?;
    let stats = Client::with_id(Box::new(TcpConn::connect(daemon.addr())?), 0);
    let setup_s = daemon.spawned_at.elapsed().as_secs_f64();
    if let Some(r) = runners.iter().find(|r| r.failed > 0) {
        return Err(io::Error::other(format!("set-up failed: {}", r.errors[0])));
    }
    Ok(Ready {
        daemon,
        runners,
        stats,
        setup_s,
    })
}

/// What the sampler reads at a window boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mark {
    pub daemon: procfs::Stat,
    pub loadgen: procfs::Stat,
}

/// One uninterrupted stretch of load: its windows' boundaries.
pub struct Segment {
    /// First window's start, ns since the origin.
    pub start_ns: u64,
    /// One mark per window boundary (`windows + 1` of them).
    pub marks: Vec<Mark>,
}

/// Everything one timed pass produced, raw.
pub struct Pass {
    /// Per client, in call order.
    pub samples: Vec<Vec<Sample>>,
    pub spans: Vec<Vec<ConnSpan>>,
    pub segments: Vec<Segment>,
    pub window_ns: u64,
    /// Daemon counters at the first segment's start and the last one's
    /// end.
    pub snap_start: Option<TelemetrySnapshot>,
    pub snap_end: Option<TelemetrySnapshot>,
    /// Daemon context switches while load ran.
    pub ctx_switches: u64,
    pub rss_peak_kib: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub blocks_verified: u64,
    pub daemon_argv: Vec<String>,
    /// Hash of the head of every client's op stream and payload: equal
    /// between two runs exactly when they sent the same traffic.
    pub op_stream_hash: u64,
}

fn snapshot(stats: &mut Client) -> Option<TelemetrySnapshot> {
    let doc = stats.query_stats(StatsQuery::Snapshot).ok()?;
    TelemetrySnapshot::from_json(std::str::from_utf8(&doc).ok()?).ok()
}

/// The shape of a pass: `segments` stretches of load, each a warm-up
/// plus `windows` windows of `window`.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub segments: usize,
    /// Before the first segment: long enough for a lap of the ring files,
    /// whose pages the first lap allocates.
    pub first_warmup: Duration,
    /// Before every later segment.
    pub warmup: Duration,
    pub window: Duration,
    pub windows: usize,
}

/// Run the load in segments, calling `between` (clients idle at a lap
/// boundary) before each segment and after the last — the slot for the
/// ceiling probes that bracket each segment. Then close the ring files,
/// verify them in the daemon's root, and reap the daemon. `corrupt` flips
/// one byte of a written root file before verification (the self-test of
/// the verifier).
pub fn run_pass(
    ready: Ready,
    seed: u64,
    origin: Instant,
    timing: Timing,
    corrupt: bool,
    mut between: impl FnMut() -> io::Result<()>,
) -> io::Result<Pass> {
    let Ready {
        mut daemon,
        mut runners,
        mut stats,
        ..
    } = ready;
    let spec = runners[0].spec;
    let pid = daemon.pid();
    let me = std::process::id();
    let mut streams: Vec<OpStream> = runners
        .iter()
        .map(|r| OpStream::new(spec, seed, r.id))
        .collect();
    let mut segments = Vec::with_capacity(timing.segments);
    let (mut snap_start, mut snap_end) = (None, None);
    let mut ctx_switches = 0;
    for seg in 0..timing.segments {
        between()?;
        if seg == 0 {
            snap_start = snapshot(&mut stats);
        }
        let ctx_before = procfs::ctx_switches(pid)?;
        let warmup = if seg == 0 {
            timing.first_warmup
        } else {
            timing.warmup
        };
        let start = Instant::now() + warmup;
        let end = start + timing.window * timing.windows as u32;
        let mut marks = Vec::with_capacity(timing.windows + 1);
        std::thread::scope(|s| -> io::Result<()> {
            for (r, stream) in runners.iter_mut().zip(streams.iter_mut()) {
                s.spawn(move || r.drive(stream, end));
            }
            // The sampler: this thread sleeps to each window boundary
            // and reads the process clocks there.
            for w in 0..=timing.windows {
                let at = start + timing.window * w as u32;
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                marks.push(Mark {
                    daemon: procfs::stat(pid)?,
                    loadgen: procfs::stat(me)?,
                });
            }
            Ok(())
        })?;
        ctx_switches += procfs::ctx_switches(pid)?.saturating_sub(ctx_before);
        segments.push(Segment {
            start_ns: (start - origin).as_nanos() as u64,
            marks,
        });
        if seg + 1 == timing.segments {
            snap_end = snapshot(&mut stats);
        }
    }
    between()?;
    for r in runners.iter_mut() {
        r.finish();
    }
    let rss_peak_kib = procfs::rss_peak_kib(pid)?;
    if corrupt {
        let victim = daemon.root.join(File::RingW.path(1, 0));
        let mut bytes = std::fs::read(&victim)?;
        let at = bytes.len() / 2 + 77;
        bytes[at] ^= 0x01;
        std::fs::write(&victim, bytes)?;
    }
    let mut errors = Vec::new();
    let mut blocks_verified = 0;
    for r in runners.iter_mut() {
        blocks_verified += r.verify_root(&daemon.root);
    }
    if spec.shape == Shape::Task {
        // Every task unlinked its file; anything left is a lost unlink.
        let left = std::fs::read_dir(&daemon.root)?.count();
        if left != 0 {
            errors.push(format!("{left} task file(s) left in the root"));
        }
    }
    if !daemon.alive() {
        errors.push(format!("iofwdd died: {}", daemon.log_tail()));
    }
    let mut failed = errors.len() as u64;
    for r in &runners {
        failed += r.failed;
        errors.extend(r.errors.iter().cloned());
    }
    Ok(Pass {
        attempted: runners.iter().map(|r| r.samples.len() as u64).sum::<u64>() + blocks_verified,
        spans: runners.iter_mut().map(Runner::take_spans).collect(),
        samples: runners.into_iter().map(|r| r.samples).collect(),
        segments,
        window_ns: timing.window.as_nanos() as u64,
        snap_start,
        snap_end,
        ctx_switches,
        rss_peak_kib,
        failed,
        errors,
        blocks_verified,
        daemon_argv: daemon.argv.clone(),
        op_stream_hash: workload::stream_hash(spec, seed, 4096),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifier_catches_one_flipped_byte_in_a_root_file() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-verify-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w1.dat");
        let payload = workload::payload(5, 1, 4096);
        // Blocks 0 and 2 written (seq 9 and 4), block 1 never.
        let seqs = [9, 0, 4];
        let mut file = vec![0u8; 3 * 4096];
        for (block, seq) in [(0usize, 9u64), (2, 4)] {
            let mut b = payload.clone();
            workload::stamp(&mut b, 1, (block * 4096) as u64, seq);
            file[block * 4096..][..4096].copy_from_slice(&b);
        }
        std::fs::write(&path, &file).unwrap();
        assert_eq!(verify_ring(&path, 1, &seqs, &payload), (2, vec![]));

        file[2 * 4096 + 1234] ^= 0x01;
        std::fs::write(&path, &file).unwrap();
        let (checked, errors) = verify_ring(&path, 1, &seqs, &payload);
        assert_eq!((checked, errors.len()), (2, 1), "{errors:?}");

        // A truncated file and a missing file both fail.
        std::fs::write(&path, &file[..4096]).unwrap();
        assert_eq!(verify_ring(&path, 1, &seqs, &payload).1.len(), 1);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(verify_ring(&path, 1, &seqs, &payload).1.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
