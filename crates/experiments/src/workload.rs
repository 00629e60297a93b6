//! Seeded workload generation: a scenario's `[workload]` section plus a
//! seed deterministically expands into per-client op streams.
//!
//! The determinism contract (DESIGN.md §14.3): for a fixed
//! `(WorkloadSpec, clients, seed)` triple, [`generate`] returns the
//! identical `Vec<Vec<ReplayOp>>` on every run, every host, every cell
//! of a sweep. The matrix axes change *daemon* configuration only — the
//! byte stream offered to the daemon is the same in every cell, which
//! is what makes paired-cell ratios meaningful.
//!
//! Three generators, mirroring the paper's evaluation workloads:
//!
//! - `madbench` — MADbench2-style out-of-core matrix phases (§V.B):
//!   sequential writes per bin (S), interleaved write+read (W),
//!   sequential re-reads (C).
//! - `mixed` — Blue Waters-style mixed trace: striped large-sequential
//!   writes, a metadata-heavy small-op phase (open/write/stat/close per
//!   tiny file), and a re-read phase.
//! - `manytask` — loosely-coupled many-task ensemble (§V.C): each task
//!   is open + write + close of its own output file.

use simcore::rng::SimRng;

/// Which generator shapes the op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    Madbench,
    Mixed,
    ManyTask,
}

impl WorkloadKind {
    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadKind::Madbench => "madbench",
            WorkloadKind::Mixed => "mixed",
            WorkloadKind::ManyTask => "manytask",
        }
    }
}

/// Parsed `[workload]` section. Fields irrelevant to the selected kind
/// keep their defaults and are ignored by the generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    pub kind: WorkloadKind,
    /// Transfer size of one write/read op (madbench, mixed re-reads).
    pub op_bytes: u64,
    /// madbench: number of bins (out-of-core matrices) per client.
    pub bins: u64,
    /// madbench: chunks written/read per bin and phase.
    pub chunks_per_bin: u64,
    /// madbench: phase string drawn from `s`, `w`, `c`.
    pub phases: String,
    /// mixed: stripe count for the large-sequential phase.
    pub stripes: u64,
    /// mixed: bytes per stripe write.
    pub stripe_bytes: u64,
    /// mixed: file count for the metadata-heavy phase.
    pub meta_files: u64,
    /// mixed: payload bytes per metadata-phase file.
    pub meta_bytes: u64,
    /// mixed: how many stripe chunks the re-read phase samples.
    pub rereads: u64,
    /// manytask: tasks per client.
    pub tasks: u64,
    /// manytask: bytes written by each task.
    pub task_bytes: u64,
}

impl WorkloadSpec {
    pub fn new(kind: WorkloadKind) -> WorkloadSpec {
        WorkloadSpec {
            kind,
            op_bytes: 64 * 1024,
            bins: 4,
            chunks_per_bin: 8,
            phases: "swc".into(),
            stripes: 4,
            stripe_bytes: 1 << 20,
            meta_files: 32,
            meta_bytes: 512,
            rereads: 16,
            tasks: 32,
            task_bytes: 4096,
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        const MAX_OP: u64 = 8 << 20; // keep single ops well under MAX_DATA_LEN
        let check = |name: &str, v: u64, max: u64| -> Result<(), String> {
            if v == 0 {
                return Err(format!("workload.{name} must be >= 1"));
            }
            if v > max {
                return Err(format!("workload.{name} = {v} exceeds limit {max}"));
            }
            Ok(())
        };
        match self.kind {
            WorkloadKind::Madbench => {
                check("op_bytes", self.op_bytes, MAX_OP)?;
                check("bins", self.bins, 64)?;
                check("chunks_per_bin", self.chunks_per_bin, 4096)?;
            }
            WorkloadKind::Mixed => {
                check("op_bytes", self.op_bytes, MAX_OP)?;
                check("stripes", self.stripes, 256)?;
                check("stripe_bytes", self.stripe_bytes, MAX_OP)?;
                check("meta_files", self.meta_files, 4096)?;
                check("meta_bytes", self.meta_bytes, MAX_OP)?;
                check("rereads", self.rereads, 4096)?;
            }
            WorkloadKind::ManyTask => {
                check("tasks", self.tasks, 65536)?;
                check("task_bytes", self.task_bytes, MAX_OP)?;
            }
        }
        Ok(())
    }

    /// Key/value description for report `config` sections.
    pub fn describe(&self) -> Vec<(String, String)> {
        let mut kv = vec![("kind".to_string(), self.kind.as_str().to_string())];
        let mut push = |k: &str, v: u64| kv.push((k.to_string(), v.to_string()));
        match self.kind {
            WorkloadKind::Madbench => {
                push("op_bytes", self.op_bytes);
                push("bins", self.bins);
                push("chunks_per_bin", self.chunks_per_bin);
                kv.push(("phases".to_string(), self.phases.clone()));
            }
            WorkloadKind::Mixed => {
                push("op_bytes", self.op_bytes);
                push("stripes", self.stripes);
                push("stripe_bytes", self.stripe_bytes);
                push("meta_files", self.meta_files);
                push("meta_bytes", self.meta_bytes);
                push("rereads", self.rereads);
            }
            WorkloadKind::ManyTask => {
                push("tasks", self.tasks);
                push("task_bytes", self.task_bytes);
            }
        }
        kv
    }
}

/// One operation of a client's replay stream. `fill` seeds the payload
/// pattern so written bytes are deterministic without storing them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOp {
    Open { path: String, flags: u32 },
    Write { len: u64, fill: u64 },
    Pwrite { offset: u64, len: u64, fill: u64 },
    Read { len: u64 },
    Pread { offset: u64, len: u64 },
    Stat { path: String },
    Fsync,
    Close,
}

impl ReplayOp {
    /// Canonical single-line encoding — the determinism contract is
    /// stated over these bytes (same seed ⇒ byte-identical streams).
    pub fn encode(&self) -> String {
        match self {
            ReplayOp::Open { path, flags } => format!("open {path} {flags:#x}"),
            ReplayOp::Write { len, fill } => format!("write {len} {fill:#x}"),
            ReplayOp::Pwrite { offset, len, fill } => {
                format!("pwrite {offset} {len} {fill:#x}")
            }
            ReplayOp::Read { len } => format!("read {len}"),
            ReplayOp::Pread { offset, len } => format!("pread {offset} {len}"),
            ReplayOp::Stat { path } => format!("stat {path}"),
            ReplayOp::Fsync => "fsync".to_string(),
            ReplayOp::Close => "close".to_string(),
        }
    }

    pub fn is_write(&self) -> bool {
        matches!(self, ReplayOp::Write { .. } | ReplayOp::Pwrite { .. })
    }

    pub fn write_len(&self) -> u64 {
        match self {
            ReplayOp::Write { len, .. } | ReplayOp::Pwrite { len, .. } => *len,
            _ => 0,
        }
    }
}

/// Deterministic payload bytes for a write op: a cheap xorshift stream
/// from the op's `fill` seed. Replay and any later verification produce
/// the same bytes from the same seed.
pub fn payload(fill: u64, len: usize) -> Vec<u8> {
    let mut x = fill | 1;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Expand a spec into one op stream per client. Client `i` derives its
/// private RNG by splitting the root `i + 1` times, so streams are
/// independent of each other and of the client count ordering.
pub fn generate(spec: &WorkloadSpec, clients: usize, seed: u64) -> Vec<Vec<ReplayOp>> {
    let mut root = SimRng::new(seed);
    (0..clients)
        .map(|c| {
            let mut rng = root.split();
            match spec.kind {
                WorkloadKind::Madbench => gen_madbench(spec, c, &mut rng),
                WorkloadKind::Mixed => gen_mixed(spec, c, &mut rng),
                WorkloadKind::ManyTask => gen_manytask(spec, c, &mut rng),
            }
        })
        .collect()
}

fn gen_madbench(spec: &WorkloadSpec, client: usize, rng: &mut SimRng) -> Vec<ReplayOp> {
    let mut ops = Vec::new();
    for phase in spec.phases.chars() {
        match phase {
            // S: write every chunk of every bin, sequentially.
            's' => {
                for bin in 0..spec.bins {
                    ops.push(ReplayOp::Open {
                        path: format!("/madbench/c{client}/bin{bin}.dat"),
                        flags: crate::replay::WRONLY_CREATE_TRUNC,
                    });
                    for chunk in 0..spec.chunks_per_bin {
                        ops.push(ReplayOp::Pwrite {
                            offset: chunk * spec.op_bytes,
                            len: spec.op_bytes,
                            fill: rng.next_u64(),
                        });
                    }
                    ops.push(ReplayOp::Fsync);
                    ops.push(ReplayOp::Close);
                }
            }
            // W: per bin, alternate read-back and overwrite of random chunks.
            'w' => {
                for bin in 0..spec.bins {
                    ops.push(ReplayOp::Open {
                        path: format!("/madbench/c{client}/bin{bin}.dat"),
                        flags: crate::replay::RDWR,
                    });
                    for _ in 0..spec.chunks_per_bin {
                        let chunk = rng.below(spec.chunks_per_bin);
                        ops.push(ReplayOp::Pread {
                            offset: chunk * spec.op_bytes,
                            len: spec.op_bytes,
                        });
                        let chunk = rng.below(spec.chunks_per_bin);
                        ops.push(ReplayOp::Pwrite {
                            offset: chunk * spec.op_bytes,
                            len: spec.op_bytes,
                            fill: rng.next_u64(),
                        });
                    }
                    ops.push(ReplayOp::Fsync);
                    ops.push(ReplayOp::Close);
                }
            }
            // C: sequential read-back of every bin.
            'c' => {
                for bin in 0..spec.bins {
                    ops.push(ReplayOp::Open {
                        path: format!("/madbench/c{client}/bin{bin}.dat"),
                        flags: crate::replay::RDONLY,
                    });
                    for chunk in 0..spec.chunks_per_bin {
                        ops.push(ReplayOp::Pread {
                            offset: chunk * spec.op_bytes,
                            len: spec.op_bytes,
                        });
                    }
                    ops.push(ReplayOp::Close);
                }
            }
            _ => unreachable!("phases validated at parse"),
        }
    }
    ops
}

fn gen_mixed(spec: &WorkloadSpec, client: usize, rng: &mut SimRng) -> Vec<ReplayOp> {
    let mut ops = Vec::new();
    // Phase 1: striped large-sequential writes into a shared-pattern file.
    ops.push(ReplayOp::Open {
        path: format!("/mixed/c{client}/stripe.dat"),
        flags: crate::replay::WRONLY_CREATE_TRUNC,
    });
    for s in 0..spec.stripes {
        ops.push(ReplayOp::Pwrite {
            offset: s * spec.stripe_bytes,
            len: spec.stripe_bytes,
            fill: rng.next_u64(),
        });
    }
    ops.push(ReplayOp::Fsync);
    ops.push(ReplayOp::Close);
    // Phase 2: metadata-heavy small ops — create, tiny write, stat, close.
    for f in 0..spec.meta_files {
        let path = format!("/mixed/c{client}/meta/f{f:04}.log");
        ops.push(ReplayOp::Open {
            path: path.clone(),
            flags: crate::replay::WRONLY_CREATE_TRUNC,
        });
        ops.push(ReplayOp::Write {
            len: spec.meta_bytes,
            fill: rng.next_u64(),
        });
        ops.push(ReplayOp::Close);
        ops.push(ReplayOp::Stat { path });
    }
    // Phase 3: re-read randomly sampled chunks of the striped file.
    ops.push(ReplayOp::Open {
        path: format!("/mixed/c{client}/stripe.dat"),
        flags: crate::replay::RDONLY,
    });
    let total = spec.stripes * spec.stripe_bytes;
    let chunk = spec.op_bytes.min(total);
    for _ in 0..spec.rereads {
        let max_off = total - chunk;
        let offset = if max_off == 0 {
            0
        } else {
            rng.below(max_off + 1)
        };
        ops.push(ReplayOp::Pread { offset, len: chunk });
    }
    ops.push(ReplayOp::Close);
    ops
}

fn gen_manytask(spec: &WorkloadSpec, client: usize, rng: &mut SimRng) -> Vec<ReplayOp> {
    let mut ops = Vec::new();
    for task in 0..spec.tasks {
        ops.push(ReplayOp::Open {
            path: format!("/tasks/c{client}/t{task:05}.out"),
            flags: crate::replay::WRONLY_CREATE_TRUNC,
        });
        ops.push(ReplayOp::Write {
            len: spec.task_bytes,
            fill: rng.next_u64(),
        });
        ops.push(ReplayOp::Close);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let spec = WorkloadSpec::new(WorkloadKind::Mixed);
        let a = generate(&spec, 3, 42);
        let b = generate(&spec, 3, 42);
        assert_eq!(a, b);
        let c = generate(&spec, 3, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn clients_get_distinct_streams() {
        let spec = WorkloadSpec::new(WorkloadKind::Madbench);
        let streams = generate(&spec, 2, 7);
        assert_ne!(streams[0], streams[1]);
        // Shape is identical (same op kinds in the same order), only
        // paths and fills differ.
        assert_eq!(streams[0].len(), streams[1].len());
    }

    #[test]
    fn payload_is_deterministic_and_sized() {
        assert_eq!(payload(9, 1000), payload(9, 1000));
        assert_eq!(payload(9, 1000).len(), 1000);
        assert_ne!(payload(9, 64), payload(10, 64));
    }

    #[test]
    fn manytask_is_open_write_close_triples() {
        let mut spec = WorkloadSpec::new(WorkloadKind::ManyTask);
        spec.tasks = 5;
        let ops = &generate(&spec, 1, 1)[0];
        assert_eq!(ops.len(), 15);
        for t in ops.chunks(3) {
            assert!(matches!(t[0], ReplayOp::Open { .. }));
            assert!(matches!(t[1], ReplayOp::Write { .. }));
            assert!(matches!(t[2], ReplayOp::Close));
        }
    }
}
