//! Property-based equivalence of the write-coalescing layer (DESIGN.md
//! §12): for an arbitrary interleaving of cursor writes, positional
//! writes, preads, seeks and truncates — against a backend that injects
//! short writes (per-call byte cap) and position-sticky errnos — the
//! coalesced execution path must be *observably identical* to serial
//! staged execution:
//!
//! * the same per-constituent [`OpOutcome`] in the same staging order,
//! * the same deferred-error reports on the same ops,
//! * the same responses and payloads for every interleaved sync op,
//! * byte-identical final file contents.
//!
//! The harness drives [`Engine::execute_staged_write`] vs
//! [`Engine::execute_coalesced_write`] directly, mirroring the worker:
//! contiguous staged writes on one descriptor accumulate into a chain
//! (capped at the default 16 ops) that flushes as one vectored batch;
//! any non-contiguous write or barrier op (read/seek/truncate/fsync)
//! flushes first, exactly like the lane harvest in
//! `server::handlers::worker_loop`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use iofwd::backend::{Backend, BackendObject, FaultBackend, MemSinkBackend};
use iofwd::descdb::{BeginError, OpOutcome};
use iofwd::fault::FaultPlan;
use iofwd::server::Engine;
use iofwd::telemetry::Telemetry;
use iofwd_proto::{Errno, Fd, FileStat, OpId, OpenFlags, Request, Response, Whence};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// A deterministic faulty backend with positional semantics.
// ---------------------------------------------------------------------

#[derive(Default)]
struct FileState {
    data: Vec<u8>,
    cursor: u64,
}

/// In-memory backend whose write faults are a pure function of file
/// *position*, never of call count or batch shape — so merging calls
/// cannot change which logical bytes fail:
///
/// * `cap`: a call accepts at most this many bytes (short writes force
///   the engine's continuation loop in both arms);
/// * `fail_at`: any write starting at or past position `p` fails with
///   the errno; a call straddling `p` goes short at the boundary, so
///   the continuation surfaces the errno — identically for a serial
///   re-issue and a vectored re-issue.
struct StickyBackend {
    files: Mutex<HashMap<String, Arc<Mutex<FileState>>>>,
    cap: Option<usize>,
    fail_at: Option<(u64, Errno)>,
}

impl StickyBackend {
    fn new(cap: Option<usize>, fail_at: Option<(u64, Errno)>) -> StickyBackend {
        StickyBackend {
            files: Mutex::new(HashMap::new()),
            cap,
            fail_at,
        }
    }

    fn contents(&self, path: &str) -> Option<Vec<u8>> {
        let files = self.files.lock().unwrap();
        files.get(path).map(|f| f.lock().unwrap().data.clone())
    }
}

struct StickyObject {
    state: Arc<Mutex<FileState>>,
    cap: Option<usize>,
    fail_at: Option<(u64, Errno)>,
}

impl StickyObject {
    /// The one write primitive: positional fault check, byte cap, then
    /// copy across buffer boundaries (a genuinely vectored transfer, so
    /// short writes can split a constituent mid-buffer).
    fn write_span(&mut self, offset: Option<u64>, bufs: &[&[u8]]) -> Result<u64, Errno> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        let mut st = self.state.lock().unwrap();
        if total == 0 {
            return Ok(0);
        }
        let start = offset.unwrap_or(st.cursor);
        let mut allow = total;
        if let Some((p, e)) = self.fail_at {
            if start >= p {
                return Err(e);
            }
            allow = allow.min((p - start) as usize);
        }
        if let Some(cap) = self.cap {
            allow = allow.min(cap.max(1));
        }
        let end = start as usize + allow;
        if st.data.len() < end {
            st.data.resize(end, 0);
        }
        let mut at = start as usize;
        let mut left = allow;
        for b in bufs {
            if left == 0 {
                break;
            }
            let n = left.min(b.len());
            st.data[at..at + n].copy_from_slice(&b[..n]);
            at += n;
            left -= n;
        }
        if offset.is_none() {
            st.cursor = start + allow as u64;
        }
        Ok(allow as u64)
    }
}

impl BackendObject for StickyObject {
    fn write_at(&mut self, offset: Option<u64>, data: &[u8]) -> Result<u64, Errno> {
        self.write_span(offset, &[data])
    }

    fn write_vectored_at(&mut self, offset: Option<u64>, bufs: &[&[u8]]) -> Result<u64, Errno> {
        self.write_span(offset, bufs)
    }

    fn read_into(&mut self, offset: Option<u64>, out: &mut [u8]) -> Result<u64, Errno> {
        let mut st = self.state.lock().unwrap();
        let start = offset.unwrap_or(st.cursor) as usize;
        let n = st.data.len().saturating_sub(start).min(out.len());
        // `start` may lie past EOF, so it is only indexed when n > 0.
        if n > 0 {
            out[..n].copy_from_slice(&st.data[start..start + n]);
        }
        if offset.is_none() {
            st.cursor += n as u64;
        }
        Ok(n as u64)
    }

    fn seek(&mut self, offset: i64, whence: Whence) -> Result<u64, Errno> {
        let mut st = self.state.lock().unwrap();
        let base = match whence {
            Whence::Set => 0i64,
            Whence::Cur => st.cursor as i64,
            Whence::End => st.data.len() as i64,
        };
        let pos = base.checked_add(offset).filter(|p| *p >= 0);
        match pos {
            Some(p) => {
                st.cursor = p as u64;
                Ok(p as u64)
            }
            None => Err(Errno::Inval),
        }
    }

    fn sync(&mut self) -> Result<(), Errno> {
        Ok(())
    }

    fn fstat(&mut self) -> Result<FileStat, Errno> {
        let st = self.state.lock().unwrap();
        Ok(FileStat {
            size: st.data.len() as u64,
            mode: 0o644,
            mtime_ns: 0,
            is_dir: false,
        })
    }

    fn truncate(&mut self, len: u64) -> Result<(), Errno> {
        let mut st = self.state.lock().unwrap();
        st.data.resize(len as usize, 0);
        Ok(())
    }
}

impl Backend for StickyBackend {
    fn open(
        &self,
        path: &str,
        _flags: OpenFlags,
        _mode: u32,
    ) -> Result<Box<dyn BackendObject>, Errno> {
        let mut files = self.files.lock().unwrap();
        let state = files.entry(path.to_string()).or_default().clone();
        Ok(Box::new(StickyObject {
            state,
            cap: self.cap,
            fail_at: self.fail_at,
        }))
    }

    fn stat(&self, path: &str) -> Result<FileStat, Errno> {
        let files = self.files.lock().unwrap();
        match files.get(path) {
            Some(f) => Ok(FileStat {
                size: f.lock().unwrap().data.len() as u64,
                mode: 0o644,
                mtime_ns: 0,
                is_dir: false,
            }),
            None => Err(Errno::NoEnt),
        }
    }

    fn unlink(&self, path: &str) -> Result<(), Errno> {
        let mut files = self.files.lock().unwrap();
        match files.remove(path) {
            Some(_) => Ok(()),
            None => Err(Errno::NoEnt),
        }
    }

    // Flat namespace: the scripts never make or list a directory.
    fn mkdir(&self, _path: &str, _mode: u32) -> Result<(), Errno> {
        Err(Errno::NoSys)
    }

    fn readdir(&self, _path: &str) -> Result<Vec<String>, Errno> {
        Err(Errno::NoSys)
    }
}

// ---------------------------------------------------------------------
// Script generation.
// ---------------------------------------------------------------------

const NFDS: usize = 3;
/// Mirror of the default `CoalesceConfig::max_ops`.
const MAX_CHAIN_OPS: usize = 16;

#[derive(Clone, Debug)]
enum Act {
    Write { f: usize, len: usize },
    Pwrite { f: usize, at: u64, len: usize },
    Pread { f: usize, at: u64, len: u64 },
    Lseek { f: usize, to: u64 },
    Ftruncate { f: usize, len: u64 },
    Fsync { f: usize },
}

fn arb_act() -> impl Strategy<Value = Act> {
    // Cursor writes appear three times so contiguous chains actually
    // form; barriers and positional writes break them.
    prop_oneof![
        (0usize..NFDS, 1usize..48).prop_map(|(f, len)| Act::Write { f, len }),
        (0usize..NFDS, 1usize..48).prop_map(|(f, len)| Act::Write { f, len }),
        (0usize..NFDS, 1usize..48).prop_map(|(f, len)| Act::Write { f, len }),
        (0usize..NFDS, 0u64..96, 1usize..48).prop_map(|(f, at, len)| Act::Pwrite { f, at, len }),
        (0usize..NFDS, 0u64..128, 0u64..64).prop_map(|(f, at, len)| Act::Pread { f, at, len }),
        (0usize..NFDS, 0u64..128).prop_map(|(f, to)| Act::Lseek { f, to }),
        (0usize..NFDS, 0u64..96).prop_map(|(f, len)| Act::Ftruncate { f, len }),
        (0usize..NFDS).prop_map(|f| Act::Fsync { f }),
    ]
}

/// Deterministic payload for the `i`-th script action.
fn fill(i: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (i.wrapping_mul(131) + j.wrapping_mul(7) + 13) as u8)
        .collect()
}

// ---------------------------------------------------------------------
// The two execution arms.
// ---------------------------------------------------------------------

/// Everything an arm lets the outside observe.
#[derive(Debug, PartialEq)]
struct Observed {
    outcomes: Vec<OpOutcome>,
    reports: Vec<(OpId, Errno)>,
    responses: Vec<Response>,
    payloads: Vec<Bytes>,
    contents: Vec<Option<Vec<u8>>>,
}

/// One staged-but-unexecuted write: (op, per-part offset, payload).
type Part = (OpId, Option<u64>, Vec<u8>);

struct Arm {
    engine: Engine,
    coalesce: bool,
    fds: Vec<Fd>,
    /// Per-fd staged chain.
    pending: Vec<Vec<Part>>,
    outcomes: Vec<OpOutcome>,
    reports: Vec<(OpId, Errno)>,
    responses: Vec<Response>,
    payloads: Vec<Bytes>,
}

impl Arm {
    fn begin(&mut self, f: usize) -> OpId {
        match self.engine.descriptor_db().begin_op(self.fds[f]) {
            Ok((op, _)) => op,
            Err(BeginError::Deferred { op, errno }) => {
                self.reports.push((op, errno));
                match self.engine.descriptor_db().begin_op(self.fds[f]) {
                    Ok((op, _)) => op,
                    Err(e) => panic!("begin_op after a deferred report must succeed: {e:?}"),
                }
            }
            Err(BeginError::Sync(e)) => panic!("unexpected sync begin error: {e:?}"),
        }
    }

    /// Stage a write, flushing first when it cannot extend the chain —
    /// the same contiguity rule as `FdSerializer::harvest_contiguous`.
    fn stage(&mut self, f: usize, offset: Option<u64>, data: Vec<u8>) {
        let extends = match (self.pending[f].last(), offset) {
            (None, _) => true,
            (Some((_, None, _)), None) => true,
            (Some((_, Some(o), d)), Some(no)) => no == *o + d.len() as u64,
            _ => false,
        };
        if !extends || self.pending[f].len() >= MAX_CHAIN_OPS {
            self.flush(f);
        }
        let op = self.begin(f);
        self.pending[f].push((op, offset, data));
    }

    /// Execute the fd's staged chain: serially per part, or — in the
    /// coalescing arm, for chains of at least two — as one vectored
    /// batch whose outcomes fan back per constituent.
    fn flush(&mut self, f: usize) {
        let parts = std::mem::take(&mut self.pending[f]);
        if parts.is_empty() {
            return;
        }
        if self.coalesce && parts.len() > 1 {
            let base = parts[0].1;
            let descr: Vec<(OpId, &[u8])> =
                parts.iter().map(|(op, _, d)| (*op, d.as_slice())).collect();
            let out = self
                .engine
                .execute_coalesced_write(self.fds[f], base, &descr);
            self.outcomes.extend(out);
        } else {
            for (op, off, d) in &parts {
                let out = self.engine.execute_staged_write(self.fds[f], *op, *off, d);
                self.outcomes.push(out);
            }
        }
    }

    /// A barrier/sync op: flush the fd's chain (as the lane serializer
    /// would before letting the op pass), then execute and record.
    fn barrier(&mut self, f: usize, req: Request) {
        self.flush(f);
        let (resp, data) = self.engine.execute(&req, &Bytes::new());
        self.responses.push(resp);
        self.payloads.push(data);
    }
}

fn run(
    script: &[Act],
    coalesce: bool,
    cap: Option<usize>,
    fail_at: Option<(u64, Errno)>,
) -> Observed {
    let backend = Arc::new(StickyBackend::new(cap, fail_at));
    run_on(script, coalesce, backend.clone(), &|path| {
        backend.contents(path)
    })
}

/// The same arms over a `MemSinkBackend` behind a `FaultBackend` plan:
/// faults that are a function of *logical write count*.
fn run_planned(script: &[Act], coalesce: bool, plan: &str) -> Observed {
    let sink = Arc::new(MemSinkBackend::new());
    let plan = FaultPlan::parse(plan).expect("valid plan");
    let backend = Arc::new(FaultBackend::new(
        sink.clone(),
        plan,
        Arc::new(Telemetry::disabled()),
    ));
    run_on(script, coalesce, backend, &|path| sink.contents(path))
}

fn run_on(
    script: &[Act],
    coalesce: bool,
    backend: Arc<dyn Backend>,
    contents_of: &dyn Fn(&str) -> Option<Vec<u8>>,
) -> Observed {
    let engine = Engine::new(backend, None);
    let mut fds = Vec::with_capacity(NFDS);
    for i in 0..NFDS {
        let (resp, _) = engine.execute(
            &Request::Open {
                path: format!("/p{i}"),
                flags: OpenFlags::RDWR | OpenFlags::CREATE,
                mode: 0o644,
            },
            &Bytes::new(),
        );
        match resp {
            Response::Ok { ret } => fds.push(Fd(ret as u32)),
            other => panic!("open failed: {other:?}"),
        }
    }
    let mut arm = Arm {
        engine,
        coalesce,
        fds,
        pending: (0..NFDS).map(|_| Vec::new()).collect(),
        outcomes: Vec::new(),
        reports: Vec::new(),
        responses: Vec::new(),
        payloads: Vec::new(),
    };
    for (i, act) in script.iter().enumerate() {
        match *act {
            Act::Write { f, len } => arm.stage(f, None, fill(i, len)),
            Act::Pwrite { f, at, len } => arm.stage(f, Some(at), fill(i, len)),
            Act::Pread { f, at, len } => {
                let fd = arm.fds[f];
                arm.barrier(
                    f,
                    Request::Pread {
                        fd,
                        offset: at,
                        len,
                    },
                );
            }
            Act::Lseek { f, to } => {
                let fd = arm.fds[f];
                arm.barrier(
                    f,
                    Request::Lseek {
                        fd,
                        offset: to as i64,
                        whence: Whence::Set,
                    },
                );
            }
            Act::Ftruncate { f, len } => {
                let fd = arm.fds[f];
                arm.barrier(f, Request::Ftruncate { fd, len });
            }
            Act::Fsync { f } => {
                let fd = arm.fds[f];
                arm.barrier(f, Request::Fsync { fd });
            }
        }
    }
    // Drain: flush every chain, then fsync + close each fd so trailing
    // deferred errors surface in both arms.
    for f in 0..NFDS {
        let fd = arm.fds[f];
        arm.barrier(f, Request::Fsync { fd });
        arm.barrier(f, Request::Close { fd });
    }
    let contents = (0..NFDS).map(|i| contents_of(&format!("/p{i}"))).collect();
    Observed {
        outcomes: arm.outcomes,
        reports: arm.reports,
        responses: arm.responses,
        payloads: arm.payloads,
        contents,
    }
}

// ---------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline equivalence: any interleaving, any short-write cap,
    /// any sticky errno position — serial and coalesced execution are
    /// indistinguishable to every observer the daemon exposes.
    #[test]
    fn coalesced_execution_is_observably_serial(
        script in proptest::collection::vec(arb_act(), 1..80),
        cap_raw in 0usize..40,
        fail_pos in 0u64..768,
        fail_sel in 0u8..4,
    ) {
        let cap = if cap_raw == 0 { None } else { Some(cap_raw) };
        let fail_at = match fail_sel {
            0 => None,
            1 => Some((fail_pos, Errno::Io)),
            2 => Some((fail_pos, Errno::NoSpc)),
            _ => Some((fail_pos, Errno::Pipe)),
        };
        let serial = run(&script, false, cap, fail_at);
        let merged = run(&script, true, cap, fail_at);
        prop_assert_eq!(&serial.outcomes, &merged.outcomes);
        prop_assert_eq!(&serial.reports, &merged.reports);
        prop_assert_eq!(&serial.responses, &merged.responses);
        prop_assert_eq!(&serial.payloads, &merged.payloads);
        prop_assert_eq!(&serial.contents, &merged.contents);
    }

    /// Focused fan-out shape: a pure cursor chain on one descriptor with
    /// a sticky errno somewhere inside it. Beyond arm equivalence, the
    /// outcome vector must be an exact clean prefix — every op ending at
    /// or before the fault position succeeds, everything later fails
    /// with the injected errno — and exactly the prefix bytes land.
    #[test]
    fn cursor_chain_fans_out_as_clean_prefix(
        lens in proptest::collection::vec(1usize..64, 2..24),
        fail_pct in 0u64..110,
        cap_raw in 0usize..24,
    ) {
        let total: usize = lens.iter().sum();
        let fail_pos = (total as u64) * fail_pct / 100;
        let fail_at = Some((fail_pos, Errno::NoSpc));
        let cap = if cap_raw == 0 { None } else { Some(cap_raw) };
        let script: Vec<Act> = lens
            .iter()
            .map(|&len| Act::Write { f: 0, len })
            .collect();
        let serial = run(&script, false, cap, fail_at);
        let merged = run(&script, true, cap, fail_at);
        prop_assert_eq!(&serial, &merged);

        let mut end = 0u64;
        for (i, &len) in lens.iter().enumerate() {
            end += len as u64;
            let expect = if end <= fail_pos {
                OpOutcome::Ok
            } else {
                OpOutcome::Failed(Errno::NoSpc)
            };
            prop_assert_eq!(
                merged.outcomes[i], expect,
                "op {} (chain end {}, fault at {}): got {:?}",
                i, end, fail_pos, merged.outcomes[i]
            );
        }
        let landed = merged.contents[0].as_deref().map_or(0, <[u8]>::len);
        prop_assert_eq!(landed as u64, (total as u64).min(fail_pos));
    }

    /// Fault-plan semantics are coalescing-invariant for the open-ended
    /// trigger too: `nth>N` ("the device fills up after N writes")
    /// charges a vectored write once per constituent, so the failure
    /// lands on the same logical write whether or not merging happened.
    #[test]
    fn open_ended_fault_rule_charges_each_constituent(
        lens in proptest::collection::vec(1usize..64, 2..24),
        ok_writes in 0u64..26,
    ) {
        let script: Vec<Act> = lens
            .iter()
            .map(|&len| Act::Write { f: 0, len })
            .collect();
        let plan = format!("on write nth>{ok_writes} errno=ENOSPC");
        let serial = run_planned(&script, false, &plan);
        let merged = run_planned(&script, true, &plan);
        prop_assert_eq!(&serial, &merged);
        for (i, outcome) in merged.outcomes.iter().enumerate() {
            let expect = if (i as u64) < ok_writes {
                OpOutcome::Ok
            } else {
                OpOutcome::Failed(Errno::NoSpc)
            };
            prop_assert_eq!(*outcome, expect, "write {} with {} allowed", i, ok_writes);
        }
    }
}
