//! Transport-equivalence differential: the admission core's gate.
//!
//! For each seed, the same generated op streams are replayed in-process
//! against every (mode, transport) arm the daemon has — zoid, ciod,
//! sched and staged on the threaded driver, sched and staged on the
//! reactor — over a `MemSinkBackend`, and the arms must be observably
//! the same daemon:
//!
//! * **within a mode, across transports**: identical reply sequences
//!   (responses and payloads), identical deferred-error reports, equal
//!   schedule-independent telemetry;
//! * **across modes**: identical replies modulo `Staged` ↔ `Ok`,
//!   identical final file contents, equal op counts;
//! * **everywhere**: `open_descriptors`, `bml_occupancy` and
//!   `inflight_ops` back to 0 once the clients are gone.
//!
//! A fault arm runs one stream against a `FaultBackend` with
//! deterministic `nth=` rules. Every write is followed by a barrier, so
//! the point where a staged write's failure surfaces depends on the op
//! sequence, never on worker timing: an `fsync` reports it directly, an
//! `lseek` (which waits for the descriptor to go idle but leaves the
//! error pending) makes the *next* data op bounce with `DeferredErr` —
//! the client re-issues that op, as an application would. The failure
//! must be attributed to the same write, with the same errno, that the
//! synchronous modes fail in place.
//!
//! Three more workloads put every frame on one side or the other of the
//! transports' large-payload path (`Frame::SPLIT_SEND_MIN`): writes and
//! reads of 1 MiB and of one byte below and above the threshold, with a
//! BML of two 1 MiB blocks so that staged mode adopts them.
//!
//! Every stream ends by writing to the descriptor it just closed
//! (`EBADF` from `begin_op`, in admission for staged mode) and by
//! abandoning an open descriptor for the daemon to reclaim.
//!
//! A failure names the seed that reproduces it.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use experiments::workload::{generate, payload, ReplayOp, WorkloadKind, WorkloadSpec};
use iofwd::backend::{Backend, FaultBackend, MemSinkBackend};
use iofwd::fault::FaultPlan;
use iofwd::server::{ForwardingMode, IonServer, ReactorConfig, ServerConfig};
use iofwd::telemetry::{OpKind, OpSpan, SpanSink, Telemetry};
use iofwd::transport::tcp::{TcpAcceptor, TcpConn};
use iofwd::transport::Conn;
use iofwd_proto::{Errno, Fd, Frame, OpenFlags, Request, Response, Whence};

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];
const WORKERS: usize = 2;
/// Two 64 KiB size-class blocks: the mixed workload's 48 KiB stripes
/// exhaust it, so both drivers exercise the wait-for-staging-memory path.
const BML_BYTES: u64 = 128 << 10;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Transport {
    Threads,
    Reactor,
}

/// Two 1 MiB size-class blocks, for the large-frame workloads.
const LARGE_BML_BYTES: u64 = 2 << 20;

const SCHED: ForwardingMode = ForwardingMode::Sched { workers: WORKERS };

/// Every (mode, transport) pair the daemon supports.
fn arms(bml_capacity: u64) -> [(ForwardingMode, Transport); 6] {
    let staged = ForwardingMode::AsyncStaged {
        workers: WORKERS,
        bml_capacity,
    };
    [
        (ForwardingMode::Zoid, Transport::Threads),
        (ForwardingMode::Ciod, Transport::Threads),
        (SCHED, Transport::Threads),
        (SCHED, Transport::Reactor),
        (staged, Transport::Threads),
        (staged, Transport::Reactor),
    ]
}

fn mixed() -> WorkloadSpec {
    WorkloadSpec {
        op_bytes: 8 << 10,
        stripes: 6,
        stripe_bytes: 48 << 10,
        meta_files: 6,
        meta_bytes: 300,
        rereads: 5,
        ..WorkloadSpec::new(WorkloadKind::Mixed)
    }
}

fn manytask() -> WorkloadSpec {
    WorkloadSpec {
        tasks: 10,
        task_bytes: 700,
        ..WorkloadSpec::new(WorkloadKind::ManyTask)
    }
}

/// Write, read-and-overwrite, then re-read three chunks of `op_bytes`.
fn large_frames(op_bytes: u64) -> WorkloadSpec {
    WorkloadSpec {
        op_bytes,
        bins: 1,
        chunks_per_bin: 3,
        ..WorkloadSpec::new(WorkloadKind::Madbench)
    }
}

/// Errnos the fault plan injects into writes, in script order. With
/// the barriers `script` inserts, the third write's failure bounces the
/// fourth write (`lseek` barrier, then `begin_op` refuses in admission),
/// the sixth's rides on an `fsync` reply, and the ninth's on a `close`.
const WRITE_FAULTS: [Errno; 3] = [Errno::NoSpc, Errno::Io, Errno::Pipe];
const FAULT_PLAN: &str = "on write nth=3 errno=ENOSPC\n\
                          on write nth=6 errno=EIO\n\
                          on write nth=9 errno=EPIPE\n\
                          on read nth=3 errno=EIO\n\
                          on open nth=5 errno=EACCES\n";

// ---------------------------------------------------------------------
// The client side: raw frames, so every reply is seen verbatim.
// ---------------------------------------------------------------------

/// One step of a client's script.
enum Step<'a> {
    Op(&'a ReplayOp),
    /// `lseek(fd, 0, SEEK_CUR)`: waits for the descriptor's staged
    /// writes without consuming a pending error.
    Settle,
    Fsync,
    /// Write to the descriptor the stream closed last.
    StaleWrite,
    /// Open a file and never close it.
    Abandon(String),
}

/// The generated stream, with the stale write and the abandoned
/// descriptor appended; the fault arm also gets a barrier after every
/// write (alternating `fsync` and `lseek`).
fn script(ops: &[ReplayOp], client: usize, barriers: bool) -> Vec<Step<'_>> {
    let mut steps = Vec::new();
    let mut writes = 0;
    for op in ops {
        steps.push(Step::Op(op));
        if barriers && op.is_write() {
            writes += 1;
            steps.push(if writes % 2 == 0 {
                Step::Fsync
            } else {
                Step::Settle
            });
        }
    }
    steps.push(Step::StaleWrite);
    steps.push(Step::Abandon(format!("/abandoned/c{client}")));
    steps
}

/// One reply as the client saw it: which step it answers, the response
/// (an `Open`'s descriptor replaced by the open's ordinal, since
/// descriptor numbers depend on how concurrent clients interleave), and
/// the payload.
#[derive(Clone, Debug, PartialEq)]
struct Seen {
    step: usize,
    resp: Response,
    data: Vec<u8>,
}

#[derive(Debug, Default, PartialEq)]
struct ClientLog {
    seen: Vec<Seen>,
    /// Deferred errors, attributed to the step of the write that failed.
    deferred: Vec<(usize, Errno)>,
}

fn replay(addr: std::net::SocketAddr, client: u32, steps: &[Step<'_>]) -> ClientLog {
    let conn = TcpConn::connect(addr).expect("connect");
    let mut seq = 0u64;
    let mut call = |req: &Request, data: &[u8]| -> (Response, Vec<u8>) {
        seq += 1;
        conn.send(Frame::request(client, seq, req, data.to_vec().into()))
            .expect("send");
        let reply = conn.recv().expect("recv").expect("daemon hung up");
        assert_eq!(reply.seq, seq, "reply out of order");
        let resp = reply.decode_response().expect("well-formed response");
        (resp, reply.data.to_vec())
    };

    let mut log = ClientLog::default();
    let mut fd: Option<Fd> = None;
    let mut last_closed = Fd(u32::MAX);
    let mut opens = 0i64;
    // Steps of the data ops begun on the current descriptor, in OpId
    // order (ids start at 1 and an op bounced with `DeferredErr` does
    // not consume one).
    let mut begun: Vec<usize> = Vec::new();
    for (step, what) in steps.iter().enumerate() {
        let open = |path: &str, flags: u32| Request::Open {
            path: path.into(),
            flags: OpenFlags(flags),
            mode: 0o644,
        };
        let (req, data) = match (what, fd) {
            (Step::Op(ReplayOp::Open { path, flags }), _) => (open(path, *flags), Vec::new()),
            (Step::Abandon(path), _) => (open(path, experiments::replay::RDWR | 0x40), Vec::new()),
            (Step::Op(ReplayOp::Stat { path }), _) => {
                (Request::Stat { path: path.clone() }, Vec::new())
            }
            (Step::StaleWrite, _) => (
                Request::Write {
                    fd: last_closed,
                    len: 16,
                },
                vec![0xee; 16],
            ),
            // A failed open leaves no descriptor; an application would
            // not issue the file's remaining ops, and neither do we.
            (_, None) => continue,
            (Step::Op(ReplayOp::Write { len, fill }), Some(fd)) => (
                Request::Write { fd, len: *len },
                payload(*fill, *len as usize),
            ),
            (Step::Op(ReplayOp::Pwrite { offset, len, fill }), Some(fd)) => (
                Request::Pwrite {
                    fd,
                    offset: *offset,
                    len: *len,
                },
                payload(*fill, *len as usize),
            ),
            (Step::Op(ReplayOp::Read { len }), Some(fd)) => {
                (Request::Read { fd, len: *len }, Vec::new())
            }
            (Step::Op(ReplayOp::Pread { offset, len }), Some(fd)) => (
                Request::Pread {
                    fd,
                    offset: *offset,
                    len: *len,
                },
                Vec::new(),
            ),
            (Step::Op(ReplayOp::Fsync) | Step::Fsync, Some(fd)) => {
                (Request::Fsync { fd }, Vec::new())
            }
            (Step::Settle, Some(fd)) => (
                Request::Lseek {
                    fd,
                    offset: 0,
                    whence: Whence::Cur,
                },
                Vec::new(),
            ),
            (Step::Op(ReplayOp::Close), Some(fd)) => (Request::Close { fd }, Vec::new()),
        };
        let is_data = matches!(
            req,
            Request::Write { .. }
                | Request::Pwrite { .. }
                | Request::Read { .. }
                | Request::Pread { .. }
        ) && !matches!(what, Step::StaleWrite);
        let (mut resp, mut data_back) = call(&req, &data);
        if let Response::DeferredErr { op, errno } = resp {
            log.deferred.push((begun[op.0 as usize - 1], errno));
            log.seen.push(Seen {
                step,
                resp: resp.clone(),
                data: data_back,
            });
            if !is_data {
                // fsync/close: the barrier happened, the report rode
                // on its reply.
                if matches!(req, Request::Close { .. }) {
                    last_closed = fd.take().expect("close had a descriptor");
                    begun.clear();
                }
                continue;
            }
            (resp, data_back) = call(&req, &data);
        }
        if is_data {
            begun.push(step);
        }
        match (&req, &mut resp) {
            (Request::Open { .. }, Response::Ok { ret }) => {
                fd = Some(Fd(*ret as u32));
                begun.clear();
                opens += 1;
                *ret = opens;
            }
            (Request::Open { .. }, _) => fd = None,
            (Request::Close { .. }, _) => {
                last_closed = fd.take().expect("close had a descriptor");
                begun.clear();
            }
            _ => {}
        }
        log.seen.push(Seen {
            step,
            resp,
            data: data_back,
        });
    }
    let (bye, _) = call(&Request::Shutdown, &[]);
    assert_eq!(bye, Response::Ok { ret: 0 });
    log
}

// ---------------------------------------------------------------------
// The daemon side: one arm, one run.
// ---------------------------------------------------------------------

/// Completed spans per op kind: `[all, failed]`.
#[derive(Default)]
struct KindCounts([[AtomicU64; 2]; OpKind::ALL.len()]);

impl SpanSink for KindCounts {
    fn on_complete(&self, span: &OpSpan) {
        let row = &self.0[OpKind::ALL
            .iter()
            .position(|k| *k == span.kind)
            .expect("known kind")];
        row[0].fetch_add(1, Ordering::Relaxed);
        if !span.ok {
            row[1].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The telemetry that must not depend on scheduling. `ops_in_place` —
/// which thread ran an op, not what the op did — does, and is left out.
#[derive(Clone, Debug, PartialEq)]
struct Counters {
    ops_completed: u64,
    ops_failed: u64,
    ops_staged: u64,
    deferred_errors: u64,
    by_kind: Vec<[u64; 2]>,
    transport_bytes_in: u64,
    transport_bytes_out: u64,
}

struct ArmRun {
    logs: Vec<ClientLog>,
    files: BTreeMap<String, Vec<u8>>,
    counters: Counters,
}

fn run_arm(
    (mode, transport): (ForwardingMode, Transport),
    streams: &[Vec<ReplayOp>],
    plan: Option<&str>,
) -> Result<ArmRun, String> {
    let telemetry = Arc::new(Telemetry::new());
    let kinds = Arc::new(KindCounts::default());
    assert!(telemetry.set_sink(kinds.clone()));
    let sink = Arc::new(MemSinkBackend::new());
    let backend: Arc<dyn Backend> = match plan {
        Some(text) => Arc::new(FaultBackend::new(
            sink.clone(),
            FaultPlan::parse(text).expect("valid plan"),
            telemetry.clone(),
        )),
        None => sink.clone(),
    };
    let config = ServerConfig::new(mode).with_telemetry(telemetry.clone());
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("addr");
    let server = match transport {
        Transport::Threads => IonServer::spawn(Box::new(acceptor), backend, config),
        Transport::Reactor => {
            IonServer::spawn_reactor(acceptor, backend, config, ReactorConfig::default())
                .expect("spawn reactor")
        }
    };

    let scripts: Vec<Vec<Step<'_>>> = streams
        .iter()
        .enumerate()
        .map(|(c, ops)| script(ops, c, plan.is_some()))
        .collect();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(c, steps)| scope.spawn(move || replay(addr, c as u32 + 1, steps)))
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    // Abandoned descriptors are reclaimed when the daemon notices the
    // hang-up; shutdown then joins every handler, worker and executor,
    // so every span has been folded by the time it returns.
    let settle = std::time::Instant::now();
    while server.open_descriptors() > 0 && settle.elapsed().as_secs() < 10 {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    server.shutdown();

    let snap = telemetry.snapshot();
    for gauge in ["open_descriptors", "bml_occupancy", "inflight_ops"] {
        let left = snap.gauge(gauge).current;
        if left != 0 {
            return Err(format!(
                "{}: {gauge} = {left} after the run",
                arm_name((mode, transport))
            ));
        }
    }
    let mut files = BTreeMap::new();
    for (c, ops) in streams.iter().enumerate() {
        let opened = ops.iter().filter_map(|op| match op {
            ReplayOp::Open { path, .. } => Some(path.clone()),
            _ => None,
        });
        for path in opened.chain([format!("/abandoned/c{c}")]) {
            if let Some(bytes) = sink.contents(&path) {
                files.insert(path, bytes);
            }
        }
    }
    Ok(ArmRun {
        logs,
        files,
        counters: Counters {
            ops_completed: snap.counter("ops_completed"),
            ops_failed: snap.counter("ops_failed"),
            ops_staged: snap.counter("ops_staged"),
            deferred_errors: snap.counter("deferred_errors"),
            by_kind: kinds
                .0
                .iter()
                .map(|row| {
                    [
                        row[0].load(Ordering::Relaxed),
                        row[1].load(Ordering::Relaxed),
                    ]
                })
                .collect(),
            transport_bytes_in: snap.counter("transport_bytes_in"),
            transport_bytes_out: snap.counter("transport_bytes_out"),
        },
    })
}

// ---------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------

fn arm_name((mode, transport): (ForwardingMode, Transport)) -> String {
    format!("{}/{transport:?}", mode.name())
}

fn same<T: PartialEq + Debug>(what: &str, a: (&str, &T), b: (&str, &T)) -> Result<(), String> {
    if a.1 == b.1 {
        return Ok(());
    }
    let clip = |v: &T| format!("{v:?}").chars().take(600).collect::<String>();
    Err(format!(
        "{what} differ\n  {}: {}\n  {}: {}",
        a.0,
        clip(a.1),
        b.0,
        clip(b.1)
    ))
}

/// Like `same`, but for reply logs: names the first reply that differs.
fn same_replies(what: &str, a: (&str, &[Seen]), b: (&str, &[Seen])) -> Result<(), String> {
    let first = a.1.iter().zip(b.1).position(|(x, y)| x != y);
    match first {
        None if a.1.len() == b.1.len() => Ok(()),
        None => same(what, (a.0, &a.1.len()), (b.0, &b.1.len())),
        Some(i) => same(
            &format!("{what}, reply {i}"),
            (a.0, &a.1[i]),
            (b.0, &b.1[i]),
        ),
    }
}

/// Like `same`, but for backend contents: names the first file that
/// differs instead of dumping every byte.
fn same_files(
    a: (&str, &BTreeMap<String, Vec<u8>>),
    b: (&str, &BTreeMap<String, Vec<u8>>),
) -> Result<(), String> {
    same(
        "file sets",
        (a.0, &a.1.keys().collect::<Vec<_>>()),
        (b.0, &b.1.keys().collect::<Vec<_>>()),
    )?;
    for (path, bytes) in a.1 {
        let other = &b.1[path];
        if bytes != other {
            let at = bytes.iter().zip(other).position(|(x, y)| x != y);
            return Err(format!(
                "contents of {path} differ (first at byte {at:?}): {} has {} bytes, {} has {}",
                a.0,
                bytes.len(),
                b.0,
                other.len()
            ));
        }
    }
    Ok(())
}

/// What a client saw, with the mode taken out: a staged ack reads as
/// the synchronous write's `Ok`, a write failed in place reads as
/// accepted (and is returned separately, like a deferred report), a
/// bounced op's `DeferredErr` is dropped in favour of its re-issue, and
/// an `fsync`/`close` carrying a report reads as the plain success it
/// also was.
fn mode_free(log: &ClientLog, steps: &[Step<'_>]) -> (Vec<Seen>, Vec<(usize, Errno)>) {
    let mut failed = log.deferred.clone();
    let mut out = Vec::new();
    for (i, seen) in log.seen.iter().enumerate() {
        let written = match &steps[seen.step] {
            Step::Op(op) if op.is_write() => Some(op.write_len()),
            _ => None,
        };
        // A bounced data op is followed by its re-issue's reply.
        let reissued = log
            .seen
            .get(i + 1)
            .is_some_and(|next| next.step == seen.step);
        let resp = match (&seen.resp, written) {
            (Response::DeferredErr { .. }, _) if reissued => continue,
            (Response::DeferredErr { .. }, _) => Response::Ok { ret: 0 },
            (Response::Staged { .. }, Some(len)) => Response::Ok { ret: len as i64 },
            (Response::Err { errno }, Some(len)) if WRITE_FAULTS.contains(errno) => {
                failed.push((seen.step, *errno));
                Response::Ok { ret: len as i64 }
            }
            (other, _) => other.clone(),
        };
        out.push(Seen {
            step: seen.step,
            resp,
            data: seen.data.clone(),
        });
    }
    failed.sort_by_key(|(step, _)| *step);
    (out, failed)
}

fn compare(
    runs: &[((ForwardingMode, Transport), ArmRun)],
    streams: &[Vec<ReplayOp>],
    faulty: bool,
) -> Result<(), String> {
    let names: Vec<String> = runs.iter().map(|(arm, _)| arm_name(*arm)).collect();
    let scripts: Vec<Vec<Step<'_>>> = streams
        .iter()
        .enumerate()
        .map(|(c, ops)| script(ops, c, faulty))
        .collect();
    let (_, reference) = &runs[0];
    for (i, (arm, run)) in runs.iter().enumerate().skip(1) {
        let (a, b) = (names[0].as_str(), names[i].as_str());
        // Across modes.
        same_files((a, &reference.files), (b, &run.files))?;
        for (c, steps) in scripts.iter().enumerate() {
            let (want, want_failed) = mode_free(&reference.logs[c], steps);
            let (got, got_failed) = mode_free(&run.logs[c], steps);
            same_replies(
                &format!("client {c} mode-free replies"),
                (a, &want),
                (b, &got),
            )?;
            same("failed writes", (a, &want_failed), (b, &got_failed))?;
        }
        if !faulty {
            // A clean run completes the same ops in every mode; only
            // the staging counter tells the modes apart.
            let unstaged = |c: &Counters| Counters {
                ops_staged: 0,
                ..c.clone()
            };
            same(
                "mode-free telemetry",
                (a, &unstaged(&reference.counters)),
                (b, &unstaged(&run.counters)),
            )?;
        }
        // Within a mode, across transports: verbatim.
        let (twin_arm, twin) = &runs[i - 1];
        if twin_arm.0 == arm.0 && twin_arm.1 != arm.1 {
            let t = names[i - 1].as_str();
            for c in 0..streams.len() {
                same_replies(
                    &format!("client {c} replies"),
                    (t, &twin.logs[c].seen),
                    (b, &run.logs[c].seen),
                )?;
                same(
                    "deferred reports",
                    (t, &twin.logs[c].deferred),
                    (b, &run.logs[c].deferred),
                )?;
            }
            same("telemetry", (t, &twin.counters), (b, &run.counters))?;
        }
    }
    if faulty {
        // The plan must actually have bitten, and where it bit must be
        // the same write whether it failed in place or deferred.
        let (_, failed) = mode_free(&reference.logs[0], &scripts[0]);
        let errnos: Vec<Errno> = failed.iter().map(|(_, e)| *e).collect();
        same(
            "injected write faults",
            ("plan", &WRITE_FAULTS.to_vec()),
            (&names[0], &errnos),
        )?;
        let staged = runs
            .iter()
            .find(|(arm, _)| matches!(arm.0, ForwardingMode::AsyncStaged { .. }))
            .map(|(_, run)| run.logs[0].deferred.len());
        same(
            "deferred reports in staged mode",
            ("plan", &Some(WRITE_FAULTS.len())),
            ("staged", &staged),
        )?;
    }
    Ok(())
}

fn check_seed(seed: u64) -> Result<(), String> {
    let split = Frame::SPLIT_SEND_MIN as u64;
    for (label, spec, clients, plan, bml) in [
        ("mixed", mixed(), 2, None, BML_BYTES),
        ("manytask", manytask(), 2, None, BML_BYTES),
        // One client: `nth=` counts the daemon's ops, so which stream a
        // fault lands on must not depend on how two interleave.
        ("mixed+faults", mixed(), 1, Some(FAULT_PLAN), BML_BYTES),
        (
            "1 MiB frames",
            large_frames(1 << 20),
            2,
            None,
            LARGE_BML_BYTES,
        ),
        (
            "split-1 frames",
            large_frames(split - 1),
            2,
            None,
            LARGE_BML_BYTES,
        ),
        (
            "split+1 frames",
            large_frames(split + 1),
            2,
            None,
            LARGE_BML_BYTES,
        ),
    ] {
        let streams = generate(&spec, clients, seed);
        let mut runs = Vec::new();
        for arm in arms(bml) {
            let run = run_arm(arm, &streams, plan).map_err(|e| format!("{label}: {e}"))?;
            runs.push((arm, run));
        }
        compare(&runs, &streams, plan.is_some()).map_err(|e| format!("{label}: {e}"))?;
    }
    Ok(())
}

#[test]
fn every_arm_is_the_same_daemon() {
    for seed in SEEDS {
        if let Err(why) = check_seed(seed) {
            panic!("transport equivalence broken — reproduce with seed {seed}:\n{why}");
        }
    }
}
