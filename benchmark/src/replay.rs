//! Layer replays: the harness calls one layer's public functions
//! directly, single-threaded, at the workload's block size, and reports
//! ns per call. No transport, no queue, no other thread: the cost of the
//! layer's own code, which is what an optimisation of that layer moves.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use iofwd::backend::{Backend, FileBackend, NullBackend};
use iofwd::bml::Bml;
use iofwd::descdb::{DescDb, OpOutcome};
use iofwd::server::Engine;
use iofwd_proto::{Errno, Fd, Frame, OpenFlags, Request, Response};

/// Replay files are this many blocks, capped at the workloads' 64 MiB.
const RING_BLOCKS: u64 = 64;

/// ns per call of `step`, after a warm-up of a fifth of `total`.
fn ns_per_call(total: Duration, mut step: impl FnMut()) -> f64 {
    let warm = Instant::now();
    while warm.elapsed() < total / 5 {
        step();
    }
    let (t, mut calls) = (Instant::now(), 0u64);
    // Read the clock once per batch so cheap layers are not priced at
    // the clock's own cost.
    while t.elapsed() < total - total / 5 {
        for _ in 0..16 {
            step();
        }
        calls += 16;
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

fn errno(e: Errno) -> io::Error {
    io::Error::other(format!("replay backend call failed: {e}"))
}

/// Every replayed cost, ns per call, at one block size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Replays {
    pub proto_encode: f64,
    pub proto_decode: f64,
    pub bml_adopt: f64,
    pub bml_acquire: f64,
    pub descdb_begin_finish: f64,
    pub backend_write: f64,
    pub backend_read: f64,
    pub backend_open_close: f64,
    pub engine_execute: f64,
}

/// Replay each layer for `each` at `block` bytes; backend files live in
/// `dir`.
pub fn run(dir: &Path, block: usize, each: Duration) -> io::Result<Replays> {
    let payload = Bytes::from(vec![0x6bu8; block]);
    let len = block as u64;
    let request = |seq: u64| Request::Pwrite {
        fd: Fd(3),
        offset: seq % RING_BLOCKS * len,
        len,
    };

    // proto: what the sender does to put a write on the wire (request
    // frame, then the split header above the split-send threshold or the
    // whole contiguous image below it) ...
    let mut seq = 0u64;
    let proto_encode = ns_per_call(each, || {
        seq += 1;
        let frame = Frame::request(1, seq, &request(seq), payload.clone());
        if block >= Frame::SPLIT_SEND_MIN {
            black_box(frame.encode_header());
        } else {
            black_box(frame.encode());
        }
    });
    // ... and what the receiver does with it.
    let wire = Frame::request(1, 1, &request(1), payload.clone()).encode();
    let proto_decode = ns_per_call(each, || {
        let frame = Frame::decode_shared(black_box(&wire)).expect("own frame decodes");
        black_box(frame.decode_request().expect("own request decodes"));
    });

    let bml = Bml::new(64 << 20);
    let bml_adopt = ns_per_call(each, || {
        black_box(bml.adopt(payload.clone()).expect("bml open"));
    });
    // The first acquire allocates the block; every later one is the slab
    // path the read replies take.
    let bml_acquire = ns_per_call(each, || {
        black_box(bml.acquire(block).expect("bml open"));
    });

    let db = DescDb::new();
    let null = NullBackend::new();
    let obj = null.open("replay", OpenFlags::RDWR, 0o644).map_err(errno)?;
    let fd = db.insert(obj, "replay").map_err(errno)?;
    let descdb_begin_finish = ns_per_call(each, || {
        let (op, obj) = db.begin_op(fd).expect("descriptor is open");
        black_box(obj);
        db.finish_op(fd, op, OpOutcome::Ok);
    });

    let files = FileBackend::new(dir);
    let flags = OpenFlags::RDWR | OpenFlags::CREATE;
    let mut obj = files.open("replay.dat", flags, 0o644).map_err(errno)?;
    for b in 0..RING_BLOCKS {
        obj.write_at(Some(b * len), &payload).map_err(errno)?;
    }
    let mut at = 0;
    let backend_write = ns_per_call(each, || {
        obj.write_at(Some(at * len), &payload)
            .expect("replay write");
        at = (at + 1) % RING_BLOCKS;
    });
    let mut buf = vec![0u8; block];
    let backend_read = ns_per_call(each, || {
        obj.read_into(Some(at * len), &mut buf)
            .expect("replay read");
        at = (at + 1) % RING_BLOCKS;
    });
    drop(obj);
    let backend_open_close = ns_per_call(each, || {
        black_box(files.open("replay.dat", flags, 0o644).expect("replay open"));
    });

    // engine + descdb + backend for one write, no transport or queue.
    let engine = Engine::new(Arc::new(files), None);
    let open = Request::Open {
        path: "replay.dat".into(),
        flags,
        mode: 0o644,
    };
    let (Response::Ok { ret }, _) = engine.execute(&open, &Bytes::new()) else {
        return Err(io::Error::other("replay engine open failed"));
    };
    let fd = Fd(ret as u32);
    let mut seq = 0u64;
    let engine_execute = ns_per_call(each, || {
        seq += 1;
        let req = Request::Pwrite {
            fd,
            offset: seq % RING_BLOCKS * len,
            len,
        };
        black_box(engine.execute(&req, &payload));
    });

    Ok(Replays {
        proto_encode,
        proto_decode,
        bml_adopt,
        bml_acquire,
        descdb_begin_finish,
        backend_write,
        backend_read,
        backend_open_close,
        engine_execute,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_replays_at_both_shapes() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-replay-{}", std::process::id()));
        let _guard = crate::daemon::ScratchDir::create(&dir).unwrap();
        for block in [4096, 1 << 20] {
            let r = run(&dir, block, Duration::from_millis(10)).unwrap();
            for ns in [
                r.proto_encode,
                r.proto_decode,
                r.bml_adopt,
                r.bml_acquire,
                r.descdb_begin_finish,
                r.backend_write,
                r.backend_read,
                r.backend_open_close,
                r.engine_execute,
            ] {
                assert!(ns > 0.0 && ns.is_finite(), "{r:?}");
            }
        }
    }
}
