//! The five workloads: what each sends, as a seeded op stream, and the
//! block stamps that let every read-back and every root file be checked.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// Bytes at the head of every written block: who wrote it, where, and
/// which of that client's writes it was.
pub const STAMP_BYTES: usize = 24;
const STAMP_MAGIC: u32 = 0x10f_b3c4;

/// Blocks per small-task file.
pub const TASK_BLOCKS: u32 = 8;
/// Every this-many tasks, one extra `stat` checks the unlinked file is gone.
const TASK_GONE_CHECK_EVERY: u64 = 32;

/// What the data calls of a workload look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Contiguous `pwrite` round a ring file.
    Write,
    /// Contiguous `pread` round a pre-populated ring file.
    Read,
    /// Alternating `pwrite` (ring file W) and `pread` (pre-populated R).
    Mix,
    /// Create, write, close, stat, reopen, read back, close, unlink.
    Task,
}

/// The denominator of `efficiency`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ceiling {
    RelayWrite,
    RelayRead,
    /// Harmonic mean of the write and read relays (half the bytes go
    /// each way).
    RelayMix,
    /// Small-message round trips per second.
    PingPong,
    /// The configured device model's bandwidth, MiB/s.
    Device(f64),
}

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// One line, copied into BENCHMARK.json.
    pub why: &'static str,
    pub clients: usize,
    pub block: usize,
    /// Blocks per ring file.
    pub ring_blocks: u32,
    /// Data calls per ring file between read-back barriers.
    pub barrier_every: u32,
    pub shape: Shape,
    pub ceiling: Ceiling,
    /// `iofwdd` flags beyond `daemon::BASE_FLAGS`.
    pub daemon_flags: &'static [&'static str],
}

const MIB: usize = 1 << 20;

/// Ring files are 64 MiB per client: far beyond the 4 MiB L2, and small
/// enough that the dirty set (128 MiB) stays under the kernel's
/// background-writeback threshold when the backing directory is on a
/// disk filesystem rather than tmpfs, so the ring workloads do no device
/// I/O while measured.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "stream_write",
        why: "Byte-bound writes (2 clients, 1 MiB pwrite): socket receive, Bml::adopt and the backend write do the work; where copy, allocation and transport changes show.",
        clients: 2,
        block: MIB,
        ring_blocks: 64,
        barrier_every: 64,
        shape: Shape::Write,
        ceiling: Ceiling::RelayWrite,
        daemon_flags: &[],
    },
    Spec {
        name: "stream_read",
        why: "The same layers the other way (2 clients, 1 MiB pread: backend read, slab block, split send), so a write-path gain that costs reads shows here.",
        clients: 2,
        block: MIB,
        ring_blocks: 64,
        barrier_every: 64,
        shape: Shape::Read,
        ceiling: Ceiling::RelayRead,
        daemon_flags: &[],
    },
    Spec {
        name: "small_task",
        why: "Per-op-bound (1 client, 22-op create/write/stat/read/unlink tasks of 4 KiB blocks): codec, admission, queue hand-off, descdb; a copy optimisation must predict no change.",
        clients: 1,
        block: 4096,
        ring_blocks: TASK_BLOCKS,
        barrier_every: TASK_BLOCKS,
        shape: Shape::Task,
        ceiling: Ceiling::PingPong,
        daemon_flags: &[],
    },
    Spec {
        name: "device_bound",
        why: "Backend-bound, the paper's regime (2 clients, 64 KiB pwrite, 500 us/op + 200 MiB/s device model): staging overlap and coalescing decide it; CPU-path work must predict no throughput change.",
        clients: 2,
        block: 64 * 1024,
        ring_blocks: 1024,
        barrier_every: 256,
        shape: Shape::Write,
        ceiling: Ceiling::Device(200.0),
        daemon_flags: &["--throttle", "500,200"],
    },
    Spec {
        name: "reactor_mix",
        why: "The only workload on the reactor transport (2 clients, alternating 1 MiB pwrite and pread, 1 reactor thread): what a reactor change is claimed on.",
        clients: 2,
        block: MIB,
        ring_blocks: 64,
        barrier_every: 64,
        shape: Shape::Mix,
        ceiling: Ceiling::RelayMix,
        daemon_flags: &["--transport", "reactor", "--reactor-threads", "1"],
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// splitmix64: the benchmark's only randomness, all of it from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A file a client works on. Names are per client, so clients never
/// share a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum File {
    RingW,
    RingR,
    Task(u64),
}

impl File {
    pub fn path(&self, client: u32, tag: u32) -> String {
        match self {
            File::RingW => format!("w{client}.dat"),
            File::RingR => format!("r{client}.dat"),
            File::Task(n) => format!("task-{tag:08x}-{client}-{n}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// `RDWR | CREATE`.
    Write,
    /// `RDONLY`.
    Read,
}

/// Bytes a read-back barrier reads: the head of a block, stamp included.
pub const READBACK_BYTES: usize = 4096;

/// One forwarded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Open {
        file: File,
        mode: Mode,
    },
    Close {
        file: File,
    },
    Pwrite {
        file: File,
        block: u32,
    },
    Pread {
        file: File,
        block: u32,
    },
    /// `pread` of the head of `block`, the last one written (or read):
    /// the daemon orders it behind every write staged on the descriptor,
    /// so it is both the ring workloads' barrier and a check of the stamp.
    Readback {
        file: File,
        block: u32,
    },
    /// `exists: false` expects `ENOENT`.
    Stat {
        file: File,
        exists: bool,
    },
    Unlink {
        file: File,
    },
}

/// The ring files a client of this shape holds open from set-up to the
/// end of the pass. Ring workloads open nothing while measured: on a disk
/// filesystem the daemon's `close` is an `fsync`, and the device is not
/// what these workloads measure.
pub fn ring_files(shape: Shape) -> &'static [File] {
    match shape {
        Shape::Write => &[File::RingW],
        Shape::Read => &[File::RingR],
        Shape::Mix => &[File::RingW, File::RingR],
        Shape::Task => &[],
    }
}

/// One client's endless op stream, a pure function of (workload, seed,
/// client).
pub struct OpStream {
    spec: &'static Spec,
    pending: VecDeque<Op>,
    w_pos: u32,
    r_pos: u32,
    task: u64,
    /// Per-seed tag in small-task file names.
    pub tag: u32,
}

impl OpStream {
    pub fn new(spec: &'static Spec, seed: u64, client: u32) -> OpStream {
        let mut rng = Rng::new(seed ^ (u64::from(client) << 32) ^ 0x0b5e_55ed);
        OpStream {
            spec,
            pending: VecDeque::new(),
            w_pos: (rng.next() % u64::from(spec.ring_blocks)) as u32,
            r_pos: (rng.next() % u64::from(spec.ring_blocks)) as u32,
            task: 0,
            tag: seed_tag(seed),
        }
    }

    fn advance(pos: &mut u32, ring: u32) -> u32 {
        let block = *pos;
        *pos = (*pos + 1) % ring;
        block
    }

    /// One lap: `barrier_every` data calls per ring file, then the
    /// read-back barrier; or one small task.
    fn refill(&mut self) {
        let (n, ring) = (self.spec.barrier_every, self.spec.ring_blocks);
        let q = &mut self.pending;
        let mut last = 0;
        match self.spec.shape {
            Shape::Write | Shape::Read => {
                let write = self.spec.shape == Shape::Write;
                let (file, pos) = if write {
                    (File::RingW, &mut self.w_pos)
                } else {
                    (File::RingR, &mut self.r_pos)
                };
                for _ in 0..n {
                    last = Self::advance(pos, ring);
                    q.push_back(if write {
                        Op::Pwrite { file, block: last }
                    } else {
                        Op::Pread { file, block: last }
                    });
                }
                q.push_back(Op::Readback { file, block: last });
            }
            Shape::Mix => {
                for i in 0..n {
                    last = Self::advance(&mut self.w_pos, ring);
                    q.push_back(Op::Pwrite {
                        file: File::RingW,
                        block: last,
                    });
                    // The barrier follows the write it waits for, as on
                    // the write-only workloads; after the read that
                    // follows, that write may or may not have drained,
                    // and the barrier's latency would have two modes.
                    if i + 1 == n {
                        q.push_back(Op::Readback {
                            file: File::RingW,
                            block: last,
                        });
                    }
                    let block = Self::advance(&mut self.r_pos, ring);
                    q.push_back(Op::Pread {
                        file: File::RingR,
                        block,
                    });
                }
            }
            Shape::Task => {
                let file = File::Task(self.task);
                self.task += 1;
                q.push_back(Op::Open {
                    file,
                    mode: Mode::Write,
                });
                q.extend((0..TASK_BLOCKS).map(|block| Op::Pwrite { file, block }));
                q.push_back(Op::Close { file });
                q.push_back(Op::Stat { file, exists: true });
                q.push_back(Op::Open {
                    file,
                    mode: Mode::Read,
                });
                q.extend((0..TASK_BLOCKS).map(|block| Op::Pread { file, block }));
                q.push_back(Op::Close { file });
                q.push_back(Op::Unlink { file });
                if self.task.is_multiple_of(TASK_GONE_CHECK_EVERY) {
                    q.push_back(Op::Stat {
                        file,
                        exists: false,
                    });
                }
            }
        }
    }

    /// True between laps (and tasks): a client that stops here leaves no
    /// task half-done and no write unchecked by its barrier.
    pub fn at_boundary(&self) -> bool {
        self.pending.is_empty()
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.pending.is_empty() {
            self.refill();
        }
        self.pending.pop_front()
    }
}

fn seed_tag(seed: u64) -> u32 {
    (Rng::new(seed).next() >> 32) as u32
}

/// Hash of the first `n` ops of every client's stream plus the payload
/// heads: two runs with one seed send identical traffic.
pub fn stream_hash(spec: &'static Spec, seed: u64, n: usize) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for client in 1..=spec.clients as u32 {
        let stream = OpStream::new(spec, seed, client);
        stream.tag.hash(&mut h);
        for op in stream.take(n) {
            op.hash(&mut h);
        }
        payload(seed, client, 256).hash(&mut h);
    }
    h.finish()
}

/// A client's payload block: seeded bytes, the first [`STAMP_BYTES`] of
/// which are overwritten by each write's stamp.
pub fn payload(seed: u64, client: u32, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ u64::from(client).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next().to_le_bytes());
    }
    out.truncate(len);
    out
}

pub fn stamp(block: &mut [u8], client: u32, offset: u64, seq: u64) {
    block[0..4].copy_from_slice(&client.to_le_bytes());
    block[4..8].copy_from_slice(&STAMP_MAGIC.to_le_bytes());
    block[8..16].copy_from_slice(&offset.to_le_bytes());
    block[16..24].copy_from_slice(&seq.to_le_bytes());
}

/// Check a block read back (over the wire or from the root directory)
/// against the stamp its last write carried; `body` additionally compares
/// every byte after the stamp with the client's payload.
pub fn check_block(
    got: &[u8],
    client: u32,
    offset: u64,
    seq: u64,
    body: Option<&[u8]>,
) -> Result<(), String> {
    let mut want = [0u8; STAMP_BYTES];
    stamp(&mut want, client, offset, seq);
    if got.len() < STAMP_BYTES || got[..STAMP_BYTES] != want {
        return Err(format!(
            "block at offset {offset} of client {client}: stamp mismatch (want seq {seq})"
        ));
    }
    if let Some(body) = body {
        if got.len() != body.len() {
            return Err(format!(
                "block at offset {offset} of client {client}: {} bytes, want {}",
                got.len(),
                body.len()
            ));
        }
        if let Some(at) = (STAMP_BYTES..body.len()).find(|&i| got[i] != body[i]) {
            return Err(format!(
                "block at offset {offset} of client {client}: byte {at} differs"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in &SPECS {
            let a = stream_hash(spec, 7, 500);
            assert_eq!(a, stream_hash(spec, 7, 500), "{}", spec.name);
            assert_ne!(a, stream_hash(spec, 8, 500), "{}", spec.name);
        }
    }

    #[test]
    fn task_is_22_ops_and_balanced() {
        let spec = spec("small_task").unwrap();
        let ops: Vec<Op> = OpStream::new(spec, 1, 1).take(22).collect();
        assert!(matches!(
            ops[0],
            Op::Open {
                mode: Mode::Write,
                ..
            }
        ));
        assert!(matches!(ops[9], Op::Close { .. }));
        assert!(matches!(ops[10], Op::Stat { exists: true, .. }));
        assert!(matches!(ops[21], Op::Unlink { .. }));
        let count = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count();
        assert_eq!(count(|o| matches!(o, Op::Pwrite { .. })), 8);
        assert_eq!(count(|o| matches!(o, Op::Pread { .. })), 8);
        assert_eq!(count(|o| matches!(o, Op::Open { .. })), 2);
        assert_eq!(count(|o| matches!(o, Op::Close { .. })), 2);
    }

    #[test]
    fn rings_wrap_and_barrier_on_schedule() {
        let spec = spec("device_bound").unwrap();
        let ops: Vec<Op> = OpStream::new(spec, 3, 2).take(257 * 5).collect();
        let mut expect = None;
        for lap in ops.chunks(257) {
            for op in &lap[..256] {
                let Op::Pwrite {
                    file: File::RingW,
                    block,
                } = *op
                else {
                    panic!("{op:?}")
                };
                assert!(block < 1024);
                assert_eq!(block, expect.unwrap_or(block), "contiguous, wrapping");
                expect = Some((block + 1) % 1024);
            }
            let Op::Pwrite { block: last, .. } = lap[255] else {
                unreachable!()
            };
            assert_eq!(
                lap[256],
                Op::Readback {
                    file: File::RingW,
                    block: last
                }
            );
        }
    }

    #[test]
    fn mix_alternates_and_barriers_right_after_the_last_write() {
        let spec = spec("reactor_mix").unwrap();
        let mut lap: Vec<Op> = OpStream::new(spec, 3, 1).take(129).collect();
        let Op::Pwrite { block: last, .. } = lap[126] else {
            panic!("{:?}", lap[126])
        };
        assert_eq!(
            lap.remove(127),
            Op::Readback {
                file: File::RingW,
                block: last
            }
        );
        for pair in lap.chunks(2) {
            assert!(matches!(
                pair[0],
                Op::Pwrite {
                    file: File::RingW,
                    ..
                }
            ));
            assert!(matches!(
                pair[1],
                Op::Pread {
                    file: File::RingR,
                    ..
                }
            ));
        }
    }

    #[test]
    fn check_block_catches_one_flipped_byte() {
        let body = payload(9, 1, 4096);
        let mut block = body.clone();
        stamp(&mut block, 1, 8192, 77);
        assert_eq!(check_block(&block, 1, 8192, 77, Some(&body)), Ok(()));
        assert!(check_block(&block, 1, 8192, 78, None).is_err(), "stale seq");
        assert!(
            check_block(&block, 2, 8192, 77, None).is_err(),
            "wrong client"
        );
        assert!(
            check_block(&block, 1, 4096, 77, None).is_err(),
            "wrong place"
        );
        for at in [0, STAMP_BYTES - 1, STAMP_BYTES, 4095] {
            let mut bad = block.clone();
            bad[at] ^= 0x01;
            assert!(
                check_block(&bad, 1, 8192, 77, Some(&body)).is_err(),
                "byte {at}"
            );
        }
        let mut bad = block.clone();
        bad[100] ^= 0x80;
        assert_eq!(
            check_block(&bad, 1, 8192, 77, None),
            Ok(()),
            "stamp-only check"
        );
        assert!(check_block(&block[..4000], 1, 8192, 77, Some(&body)).is_err());
    }
}
