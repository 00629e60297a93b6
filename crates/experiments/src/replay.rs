//! Replay execution: drive generated op streams against a live daemon.
//!
//! One OS thread per simulated client, each with its own TCP
//! connection, tracing-enabled [`iofwd::client::Client`], and private
//! op stream. Per-op wall latencies feed pooled percentiles; per-client
//! [`TraceStats`] stage echoes are summed into the cell's stage
//! breakdown. Faulty cells are expected to fail *some* ops (that is
//! what the fault plan is for) — failures are counted, not fatal.

use std::time::{Duration, Instant};

use iofwd::client::{Client, TraceStats};
use iofwd::transport::tcp::TcpConn;
use iofwd_proto::OpenFlags;

use crate::workload::{payload, ReplayOp};

/// Raw flag words used by the workload generators.
pub const RDONLY: u32 = 0x0;
pub const RDWR: u32 = 0x2;
pub const WRONLY_CREATE_TRUNC: u32 = 0x1 | 0x40 | 0x200;

/// Merged measurement of one matrix cell's replay.
#[derive(Debug, Clone, Default)]
pub struct CellMeasurement {
    /// Slowest client's wall time — the cell "finishes" when the last
    /// client does, like an MPI job.
    pub wall: Duration,
    pub ops_attempted: u64,
    pub ops_ok: u64,
    pub ops_failed: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    /// Pooled per-op latencies across all clients, microseconds.
    pub p50_us: u64,
    pub p99_us: u64,
    /// Summed stage echoes across all clients.
    pub trace: TraceStats,
}

impl CellMeasurement {
    pub fn throughput_mib_s(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.bytes_written + self.bytes_read) as f64 / (1024.0 * 1024.0) / secs
    }

    pub fn completion_rate(&self) -> f64 {
        if self.ops_attempted == 0 {
            return 0.0;
        }
        self.ops_ok as f64 / self.ops_attempted as f64
    }
}

struct ClientOutcome {
    wall: Duration,
    ops_ok: u64,
    ops_failed: u64,
    bytes_written: u64,
    bytes_read: u64,
    latencies_us: Vec<u64>,
    trace: TraceStats,
}

/// Replay `streams` against the daemon at `addr`, one thread per
/// stream. Returns the merged cell measurement or the first connection
/// error (op-level failures do not error).
pub fn run(addr: &str, streams: &[Vec<ReplayOp>]) -> Result<CellMeasurement, String> {
    let outcomes: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(i, ops)| {
                let addr = addr.to_string();
                scope.spawn(move || run_client(&addr, i as u32 + 1, ops))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });

    let mut merged = CellMeasurement::default();
    let mut latencies = Vec::new();
    for outcome in outcomes {
        let o = outcome?;
        merged.wall = merged.wall.max(o.wall);
        merged.ops_ok += o.ops_ok;
        merged.ops_failed += o.ops_failed;
        merged.bytes_written += o.bytes_written;
        merged.bytes_read += o.bytes_read;
        merged.trace.client_ns += o.trace.client_ns;
        merged.trace.server.merge(&o.trace.server);
        latencies.extend(o.latencies_us);
    }
    merged.ops_attempted = merged.ops_ok + merged.ops_failed;
    latencies.sort_unstable();
    merged.p50_us = percentile(&latencies, 50.0);
    merged.p99_us = percentile(&latencies, 99.0);
    Ok(merged)
}

/// Nearest-rank percentile over an already-sorted slice, microseconds.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn run_client(addr: &str, id: u32, ops: &[ReplayOp]) -> Result<ClientOutcome, String> {
    let conn = TcpConn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut client = Client::with_id(Box::new(conn), id);
    client.enable_tracing();

    let mut out = ClientOutcome {
        wall: Duration::ZERO,
        ops_ok: 0,
        ops_failed: 0,
        bytes_written: 0,
        bytes_read: 0,
        latencies_us: Vec::with_capacity(ops.len()),
        trace: TraceStats::default(),
    };
    // The fd of the currently open file. A failed open leaves it None
    // and the file's remaining ops are counted failed without being
    // sent — mirroring what a real application would (not) do.
    let mut fd = None;
    let started = Instant::now();
    for op in ops {
        let t0 = Instant::now();
        let result = match op {
            ReplayOp::Open { path, flags } => match client.open(path, OpenFlags(*flags), 0o644) {
                Ok(new_fd) => {
                    fd = Some(new_fd);
                    Ok(0)
                }
                Err(e) => {
                    fd = None;
                    Err(e)
                }
            },
            ReplayOp::Write { len, fill } => match fd {
                Some(fd) => client
                    .write(fd, &payload(*fill, *len as usize))
                    .inspect(|n| out.bytes_written += n),
                None => {
                    out.ops_failed += 1;
                    continue;
                }
            },
            ReplayOp::Pwrite { offset, len, fill } => match fd {
                Some(fd) => client
                    .pwrite(fd, *offset, &payload(*fill, *len as usize))
                    .inspect(|n| out.bytes_written += n),
                None => {
                    out.ops_failed += 1;
                    continue;
                }
            },
            ReplayOp::Read { len } => match fd {
                Some(fd) => client.read(fd, *len).map(|data| {
                    out.bytes_read += data.len() as u64;
                    data.len() as u64
                }),
                None => {
                    out.ops_failed += 1;
                    continue;
                }
            },
            ReplayOp::Pread { offset, len } => match fd {
                Some(fd) => client.pread(fd, *offset, *len).map(|data| {
                    out.bytes_read += data.len() as u64;
                    data.len() as u64
                }),
                None => {
                    out.ops_failed += 1;
                    continue;
                }
            },
            ReplayOp::Stat { path } => client.stat(path).map(|_| 0),
            ReplayOp::Fsync => match fd {
                Some(fd) => client.fsync(fd).map(|()| 0),
                None => {
                    out.ops_failed += 1;
                    continue;
                }
            },
            ReplayOp::Close => match fd.take() {
                Some(fd) => client.close(fd).map(|()| 0),
                None => {
                    out.ops_failed += 1;
                    continue;
                }
            },
        };
        out.latencies_us
            .push(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
        match result {
            Ok(_) => out.ops_ok += 1,
            Err(_) => out.ops_failed += 1,
        }
    }
    out.wall = started.elapsed();
    out.trace = client.trace_stats();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 99.0), 99);
        assert_eq!(percentile(&xs, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn throughput_uses_wall_and_both_directions() {
        let m = CellMeasurement {
            wall: Duration::from_secs(2),
            bytes_written: 3 << 20,
            bytes_read: 1 << 20,
            ..Default::default()
        };
        assert!((m.throughput_mib_s() - 2.0).abs() < 1e-9);
    }
}
