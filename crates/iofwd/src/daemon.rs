//! Spawning and supervising an `iofwdd` *process* from test harnesses.
//!
//! Before this module every consumer that needed a live daemon — the
//! CLI smoke tests, the CI shell gates, the experiment harness — carried
//! its own copy of the same ad-hoc ritual: pick a port, spawn the
//! binary, poll something until it listens, remember to kill it.
//! [`DaemonHandle`] is that ritual once, correctly:
//!
//! * spawn `iofwdd --listen 127.0.0.1:0 --port-file …` so the kernel
//!   picks a free port (no bind races);
//! * wait for the port file with a timeout, then confirm the socket
//!   accepts;
//! * redirect stderr to a log file the caller can inspect (e.g. grep
//!   for `panicked` after a chaos run);
//! * kill + reap on [`DaemonHandle::shutdown`] or on drop, so an
//!   assertion failure in a test never leaks a daemon process.
//!
//! This is harness plumbing, not daemon code: it runs in test/bench
//! processes, never on the forwarding path.

use std::io;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Everything needed to launch one `iofwdd`.
///
/// `listen`/`--port-file` are managed by [`DaemonHandle::spawn`]; all
/// other daemon flags go through the typed fields or [`DaemonSpec::arg`].
#[derive(Debug, Clone)]
pub struct DaemonSpec {
    /// Path to the `iofwdd` binary.
    pub bin: PathBuf,
    /// `--root` sandbox directory (created if missing).
    pub root: PathBuf,
    /// `--mode` (ciod|zoid|sched|staged).
    pub mode: String,
    /// `--workers`.
    pub workers: usize,
    /// Extra raw arguments (e.g. `--coalesce=off`, `--fault-plan F`).
    pub extra_args: Vec<String>,
    /// Where to write the daemon's stderr (defaults to `ROOT/../daemon.log`
    /// when `None`).
    pub log: Option<PathBuf>,
    /// How long to wait for the daemon to come up.
    pub ready_timeout: Duration,
}

impl DaemonSpec {
    /// A spec with the same defaults the CI smoke tests use.
    pub fn new(bin: impl Into<PathBuf>, root: impl Into<PathBuf>) -> DaemonSpec {
        DaemonSpec {
            bin: bin.into(),
            root: root.into(),
            mode: "staged".to_string(),
            workers: 2,
            extra_args: Vec::new(),
            log: None,
            ready_timeout: Duration::from_secs(10),
        }
    }

    pub fn mode(mut self, mode: &str) -> DaemonSpec {
        self.mode = mode.to_string();
        self
    }

    pub fn workers(mut self, workers: usize) -> DaemonSpec {
        self.workers = workers;
        self
    }

    /// Append one raw daemon argument (call twice for `--flag value`).
    pub fn arg(mut self, arg: impl Into<String>) -> DaemonSpec {
        self.extra_args.push(arg.into());
        self
    }

    pub fn log_to(mut self, path: impl Into<PathBuf>) -> DaemonSpec {
        self.log = Some(path.into());
        self
    }
}

/// A live `iofwdd` process bound to a kernel-assigned port.
///
/// Dropping the handle kills and reaps the daemon; call
/// [`DaemonHandle::shutdown`] for an explicit, checked stop.
pub struct DaemonHandle {
    child: Option<Child>,
    port: u16,
    log_path: PathBuf,
}

impl DaemonHandle {
    /// Spawn the daemon described by `spec` and wait until it accepts
    /// connections (port file written *and* TCP connect succeeds), or
    /// fail with the tail of its log.
    pub fn spawn(spec: &DaemonSpec) -> io::Result<DaemonHandle> {
        std::fs::create_dir_all(&spec.root)?;
        let scratch = spec
            .root
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_else(|| spec.root.clone());
        let port_file = scratch.join(format!(
            "iofwdd-{}.port",
            spec.root
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("d")
        ));
        let _ = std::fs::remove_file(&port_file);
        let log_path = spec
            .log
            .clone()
            .unwrap_or_else(|| scratch.join("daemon.log"));
        let log = std::fs::File::create(&log_path)?;

        let mut cmd = Command::new(&spec.bin);
        cmd.arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--root")
            .arg(&spec.root)
            .arg("--mode")
            .arg(&spec.mode)
            .arg("--workers")
            .arg(spec.workers.to_string())
            .arg("--port-file")
            .arg(&port_file)
            .args(&spec.extra_args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        let child = cmd.spawn()?;
        let mut handle = DaemonHandle {
            child: Some(child),
            port: 0,
            log_path,
        };

        let deadline = Instant::now() + spec.ready_timeout;
        let port = loop {
            // A crashed daemon never writes the port file; surface its
            // log instead of timing out silently.
            if let Some(child) = handle.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(io::Error::other(format!(
                        "iofwdd exited during startup ({status}): {}",
                        handle.log_tail()
                    )));
                }
            }
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse::<u16>() {
                    break port;
                }
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "iofwdd did not write {} within {:?}: {}",
                        port_file.display(),
                        spec.ready_timeout,
                        handle.log_tail()
                    ),
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        handle.port = port;

        // Belt and braces: the port file exists, now prove the listener
        // actually accepts (the acceptor thread could still be warming).
        let addr = handle.addr();
        loop {
            if TcpStream::connect(&addr).is_ok() {
                break;
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("iofwdd wrote port {port} but never accepted on {addr}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = std::fs::remove_file(&port_file);
        Ok(handle)
    }

    /// `host:port` the daemon is listening on.
    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    pub fn port(&self) -> u16 {
        self.port
    }

    /// The daemon's process id, until it has been shut down.
    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Where the daemon's stderr is being captured.
    pub fn log_path(&self) -> &Path {
        &self.log_path
    }

    /// The last few KiB of the daemon's log (best effort).
    pub fn log_tail(&self) -> String {
        match std::fs::read_to_string(&self.log_path) {
            Ok(text) => {
                let tail: Vec<&str> = text.lines().rev().take(12).collect();
                tail.into_iter().rev().collect::<Vec<_>>().join("\n")
            }
            Err(_) => String::from("(no log captured)"),
        }
    }

    /// True if the captured log contains a panic line — chaos harnesses
    /// gate on this after tearing the daemon down.
    pub fn panicked(&self) -> bool {
        std::fs::read_to_string(&self.log_path)
            .map(|t| t.to_ascii_lowercase().contains("panicked"))
            .unwrap_or(false)
    }

    /// Kill the daemon and reap it. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) -> io::Result<()> {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            child.wait()?;
        }
        Ok(())
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Locate the `iofwdd` binary for the current build profile.
///
/// Resolution order:
/// 1. the `IOFWDD_BIN` environment variable (explicit override);
/// 2. `iofwdd` next to the current executable's target directory —
///    covers integration tests (`target/PROFILE/deps/test-…` →
///    `target/PROFILE/iofwdd`) and `cargo run` binaries.
///
/// Returns `None` when the binary has not been built yet; harnesses
/// that can afford it may fall back to invoking `cargo build`.
pub fn locate_iofwdd() -> Option<PathBuf> {
    if let Ok(explicit) = std::env::var("IOFWDD_BIN") {
        let p = PathBuf::from(explicit);
        if p.is_file() {
            return Some(p);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let bin_name = format!("iofwdd{}", std::env::consts::EXE_SUFFIX);
    // Walk up from the test/bench executable: deps/ → PROFILE/ → target/.
    for dir in exe.ancestors().skip(1).take(4) {
        let candidate = dir.join(&bin_name);
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}
