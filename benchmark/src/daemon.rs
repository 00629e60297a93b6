//! The daemon under test: the release `iofwdd` binary as a child process
//! with its defaults, over a private scratch directory that holds its
//! root, port file and log. Dropping the guard kills and reaps the child
//! and removes the scratch directory, on success, failure and panic.

use std::ffi::c_int;
use std::fs;
use std::io;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::affinity::{self, CpuMask};

/// Flags every workload passes; everything else is the daemon's default,
/// so a later change of a default is measured, not compiled against.
pub const BASE_FLAGS: [&str; 6] = ["--mode", "staged", "--workers", "2", "--bml-mib", "64"];

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
}
const PR_SET_PDEATHSIG: c_int = 1;
const SIGKILL: c_int = 9;

pub struct Daemon {
    child: Child,
    pub port: u16,
    /// Where spawn started, for `setup_s`.
    pub spawned_at: Instant,
    /// The daemon's `--root`.
    pub root: PathBuf,
    /// The full command line, recorded in the results.
    pub argv: Vec<String>,
    scratch: PathBuf,
}

impl Daemon {
    /// Start `bin` on the CPUs in `cpus`, over a fresh `scratch` directory
    /// (which must not exist), and wait for its port file.
    pub fn spawn(
        bin: &Path,
        scratch: &Path,
        workload_flags: &[&str],
        cpus: CpuMask,
    ) -> io::Result<Daemon> {
        let spawned_at = Instant::now();
        fs::create_dir_all(scratch.parent().unwrap_or(Path::new(".")))?;
        fs::create_dir(scratch)?;
        let root = scratch.join("root");
        let port_file = scratch.join("port");
        let mut argv = vec![
            "--listen".to_string(),
            "127.0.0.1:0".to_string(),
            "--port-file".to_string(),
            port_file.display().to_string(),
            "--root".to_string(),
            root.display().to_string(),
        ];
        argv.extend(
            BASE_FLAGS
                .iter()
                .chain(workload_flags)
                .map(|s| s.to_string()),
        );
        let log = fs::File::create(scratch.join("iofwdd.log"))?;
        let mut cmd = Command::new(bin);
        cmd.args(&argv)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        // SAFETY: the closure runs in the forked child before exec and
        // makes two async-signal-safe system calls on plain integers and
        // a mask it owns. The first asks the kernel to SIGKILL the daemon
        // when the harness thread that spawned it dies, so a harness
        // killed by a timeout leaves no daemon behind; the second places
        // the daemon (see `affinity`).
        unsafe {
            cmd.pre_exec(move || {
                if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                    return Err(io::Error::last_os_error());
                }
                affinity::pin(&cpus)
            });
        }
        let child = cmd.spawn().map_err(|e| {
            let _ = fs::remove_dir_all(scratch);
            io::Error::new(e.kind(), format!("cannot start {}: {e}", bin.display()))
        })?;
        argv.insert(0, bin.display().to_string());
        let mut daemon = Daemon {
            child,
            port: 0,
            spawned_at,
            root,
            argv,
            scratch: scratch.to_path_buf(),
        };
        daemon.port = daemon.await_port(&port_file)?;
        Ok(daemon)
    }

    /// Poll the port file well under a millisecond apart, so `setup_s`
    /// is not quantised by the poll.
    fn await_port(&mut self, port_file: &Path) -> io::Result<u16> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(port) = fs::read_to_string(port_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                return Ok(port);
            }
            if let Some(status) = self.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "iofwdd exited at start-up ({status}): {}",
                    self.log_tail()
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("iofwdd wrote no port file within 10 s"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn addr(&self) -> (&'static str, u16) {
        ("127.0.0.1", self.port)
    }

    /// Whether the child is still running (a daemon that died mid-run
    /// fails the run even if every reply so far was good).
    pub fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    pub fn log_tail(&self) -> String {
        let log = fs::read_to_string(self.scratch.join("iofwdd.log")).unwrap_or_default();
        let lines: Vec<&str> = log.lines().collect();
        lines[lines.len().saturating_sub(8)..].join(" | ")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = fs::remove_dir_all(&self.scratch);
    }
}

/// A run's scratch directory (daemon roots, probe and replay files),
/// removed with everything in it when dropped: on success, failure and
/// panic nothing of a run stays behind but its result files.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn create(path: &Path) -> io::Result<ScratchDir> {
        fs::create_dir_all(path)?;
        Ok(ScratchDir(path.to_path_buf()))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The filesystem type holding `dir`, from `/proc/self/mountinfo`
/// (longest mount-point prefix wins). Recorded with the results because
/// every byte-bound number depends on it.
pub fn backing_fs(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let (left, right) = l.split_once(" - ")?;
            let mount_point = left.split_ascii_whitespace().nth(4)?;
            let fs_type = right.split_ascii_whitespace().next()?;
            dir.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, t)| t)
}
