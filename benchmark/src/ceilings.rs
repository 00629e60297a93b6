//! Host ceilings, measured by the harness itself in the same run as the
//! workload: std-only probes, each with its own warm-up. They are the
//! denominators of `efficiency` — what this host, right now, lets *any*
//! forwarder do — and move with the machine, never with the daemon.

use std::fs::{File, OpenOptions};
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::affinity::{self, CpuMask};

const MIB: usize = 1 << 20;
/// The daemon's frame header size: the least a request or reply carries.
const HEADER: usize = iofwd_proto::FRAME_HEADER_BYTES;
/// Probe files match the workloads' ring files.
const RING_BLOCKS: u64 = 64;
/// The memcpy probe's buffers: 16x the 4 MiB L2, so it measures memory,
/// not cache. (The L3 this VM reports, 260 MiB, is the host's and shared.)
const MEMCPY_BYTES: usize = 64 * MIB;
const SMALL: usize = 4096;

/// Run `step` for `warm` (discarded) and then `measure`; units per second
/// over the measured part.
fn rate(
    warm: Duration,
    measure: Duration,
    mut step: impl FnMut() -> io::Result<u64>,
) -> io::Result<f64> {
    let t = Instant::now();
    while t.elapsed() < warm {
        step()?;
    }
    let t = Instant::now();
    let mut units = 0;
    while t.elapsed() < measure {
        units += step()?;
    }
    Ok(units as f64 / t.elapsed().as_secs_f64())
}

/// A fifth of the probe's time warms it up.
fn split(total: Duration) -> (Duration, Duration) {
    (total / 5, total - total / 5)
}

/// `n` loopback connections, a server thread (on the daemon's CPUs) and
/// a client thread (on the load generator's, like the caller) each; the
/// clients' rates summed. A client ends by dropping its stream, which the
/// server sees as EOF.
fn pairs(
    n: usize,
    server_cpus: &CpuMask,
    server: impl Fn(TcpStream, usize) -> io::Result<()> + Sync,
    client: impl Fn(TcpStream, usize) -> io::Result<f64> + Sync,
) -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|s| {
        let servers: Vec<_> = (0..n)
            .map(|i| {
                let (listener, server) = (&listener, &server);
                s.spawn(move || {
                    affinity::pin(server_cpus)?;
                    let (stream, _) = listener.accept()?;
                    stream.set_nodelay(true)?;
                    match server(stream, i) {
                        // The client hanging up is how a probe ends.
                        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(()),
                        other => other,
                    }
                })
            })
            .collect();
        let clients: Vec<_> = (0..n)
            .map(|i| {
                let client = &client;
                s.spawn(move || {
                    let stream = TcpStream::connect(addr)?;
                    stream.set_nodelay(true)?;
                    client(stream, i)
                })
            })
            .collect();
        let mut total = 0.0;
        for c in clients {
            total += c.join().expect("probe client panicked")?;
        }
        for sv in servers {
            sv.join().expect("probe server panicked")?;
        }
        Ok(total)
    })
}

/// A probe's ring file, fully written when first created: on a VM that
/// backs memory lazily the first touch of a page costs far more than any
/// later use, and a probe must not time that. Probe files outlive the
/// probe (the directory is removed at the end of the run), so a probe
/// repeated within a run reuses its pages.
fn ring_file(dir: &Path, name: &str) -> io::Result<File> {
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(dir.join(name))?;
    if file.metadata()?.len() < RING_BLOCKS * MIB as u64 {
        let block = vec![0x5au8; MIB];
        for b in 0..RING_BLOCKS {
            file.write_all_at(&block, b * MIB as u64)?;
        }
    }
    Ok(file)
}

pub fn memcpy_mib_s(total: Duration) -> io::Result<f64> {
    let (warm, measure) = split(total);
    let src = vec![0xa5u8; MEMCPY_BYTES];
    let mut dst = vec![0u8; MEMCPY_BYTES];
    rate(warm, measure, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        Ok((MEMCPY_BYTES / MIB) as u64)
    })
}

/// nuttcp-style: 2 connections streaming 1 MiB writes one way (the
/// paper's Fig. 5 instrument, on this host's loopback).
pub fn loopback_mib_s(cpus: &CpuMask, total: Duration) -> io::Result<f64> {
    let (warm, measure) = split(total);
    pairs(
        2,
        cpus,
        |mut stream, _| {
            let mut buf = vec![0u8; MIB];
            while stream.read(&mut buf)? != 0 {}
            Ok(())
        },
        |mut stream, _| {
            let buf = vec![0x11u8; MIB];
            rate(warm, measure, || stream.write_all(&buf).map(|()| 1))
        },
    )
}

pub fn fs_pwrite_mib_s(dir: &Path, total: Duration) -> io::Result<f64> {
    let (warm, measure) = split(total);
    let file = ring_file(dir, "probe-pwrite")?;
    let block = vec![0x22u8; MIB];
    let mut at = 0;
    rate(warm, measure, || {
        file.write_all_at(&block, at * MIB as u64)?;
        at = (at + 1) % RING_BLOCKS;
        Ok(1)
    })
}

pub fn fs_pread_mib_s(dir: &Path, total: Duration) -> io::Result<f64> {
    let (warm, measure) = split(total);
    let file = ring_file(dir, "probe-pread")?;
    let mut block = vec![0u8; MIB];
    let mut at = 0;
    rate(warm, measure, || {
        file.read_exact_at(&mut block, at * MIB as u64)?;
        at = (at + 1) % RING_BLOCKS;
        Ok(1)
    })
}

/// The least any forwarder can do for a 1 MiB write: 2 connections, each
/// receiving header + 1 MiB, acknowledging with a header, and writing the
/// block to a file in the backing directory. Closed loop, like the
/// clients.
pub fn relay_write_mib_s(dir: &Path, cpus: &CpuMask, total: Duration) -> io::Result<f64> {
    let (warm, measure) = split(total);
    pairs(
        2,
        cpus,
        |mut stream, i| {
            let file = ring_file(dir, &format!("probe-relay-w{i}"))?;
            let mut buf = vec![0u8; HEADER + MIB];
            let mut at = 0;
            loop {
                stream.read_exact(&mut buf)?;
                stream.write_all(&buf[..HEADER])?;
                file.write_all_at(&buf[HEADER..], at * MIB as u64)?;
                at = (at + 1) % RING_BLOCKS;
            }
        },
        |mut stream, _| {
            let buf = vec![0x33u8; HEADER + MIB];
            let mut ack = [0u8; HEADER];
            rate(warm, measure, || {
                stream.write_all(&buf)?;
                stream.read_exact(&mut ack)?;
                Ok(1)
            })
        },
    )
}

/// The same for a 1 MiB read: header in, `pread` from a populated file,
/// header + 1 MiB out.
pub fn relay_read_mib_s(dir: &Path, cpus: &CpuMask, total: Duration) -> io::Result<f64> {
    let (warm, measure) = split(total);
    pairs(
        2,
        cpus,
        |mut stream, i| {
            let file = ring_file(dir, &format!("probe-relay-r{i}"))?;
            let mut buf = vec![0u8; HEADER + MIB];
            let mut req = [0u8; HEADER];
            let mut at = 0;
            loop {
                stream.read_exact(&mut req)?;
                file.read_exact_at(&mut buf[HEADER..], at * MIB as u64)?;
                stream.write_all(&buf)?;
                at = (at + 1) % RING_BLOCKS;
            }
        },
        |mut stream, _| {
            let req = [0x44u8; HEADER];
            let mut buf = vec![0u8; HEADER + MIB];
            rate(warm, measure, || {
                stream.write_all(&req)?;
                stream.read_exact(&mut buf)?;
                Ok(1)
            })
        },
    )
}

/// Small-message round trips: 1 connection, header + 4 KiB out, header
/// back — the floor under every forwarded small call.
pub fn pingpong_ops_s(cpus: &CpuMask, total: Duration) -> io::Result<f64> {
    let (warm, measure) = split(total);
    pairs(
        1,
        cpus,
        |mut stream, _| {
            let mut buf = vec![0u8; HEADER + SMALL];
            loop {
                stream.read_exact(&mut buf)?;
                stream.write_all(&buf[..HEADER])?;
            }
        },
        |mut stream, _| {
            let buf = vec![0x55u8; HEADER + SMALL];
            let mut ack = [0u8; HEADER];
            rate(warm, measure, || {
                stream.write_all(&buf)?;
                stream.read_exact(&mut ack)?;
                Ok(1)
            })
        },
    )
}

/// The seven host ceilings of a per-layer run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ceilings {
    pub memcpy: f64,
    pub loopback: f64,
    pub fs_pwrite: f64,
    pub fs_pread: f64,
    pub relay_write: f64,
    pub relay_read: f64,
    pub pingpong: f64,
}

/// Every probe once, `each` long, files in `dir`, servers on `cpus`.
pub fn measure_all(dir: &Path, cpus: &CpuMask, each: Duration) -> io::Result<Ceilings> {
    Ok(Ceilings {
        memcpy: memcpy_mib_s(each)?,
        loopback: loopback_mib_s(cpus, each)?,
        fs_pwrite: fs_pwrite_mib_s(dir, each)?,
        fs_pread: fs_pread_mib_s(dir, each)?,
        relay_write: relay_write_mib_s(dir, cpus, each)?,
        relay_read: relay_read_mib_s(dir, cpus, each)?,
        pingpong: pingpong_ops_s(cpus, each)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_run_and_report_positive_rates() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-probes-{}", std::process::id()));
        let dir = crate::daemon::ScratchDir::create(&dir).unwrap();
        let cpus = &affinity::Split::detect().unwrap().daemon_mask();
        let c = measure_all(&dir.0, cpus, Duration::from_millis(60)).unwrap();
        let all = [
            c.memcpy,
            c.loopback,
            c.fs_pwrite,
            c.fs_pread,
            c.relay_write,
            c.relay_read,
            c.pingpong,
        ];
        assert!(all.iter().all(|v| *v > 0.0 && v.is_finite()), "{c:?}");
    }
}
