//! `iofwdd` — the I/O-forwarding daemon as a deployable binary.
//!
//! Plays the ION's role on any Linux box: listens on TCP, executes
//! forwarded I/O against a sandboxed directory tree.
//!
//! ```text
//! iofwdd --listen 0.0.0.0:9331 --root /srv/iofwd --mode staged --workers 4 --bml-mib 256
//! iofwdd --mode zoid --root /tmp/ion            # ZOID-style baseline
//! ```
//!
//! Observability (DESIGN.md §9). `iofwd::telemetry` is always compiled
//! in and on; every number is stamped once into its registry, every
//! completed span once into its flight-recorder ring, and both leave the
//! process one way, as the reply to a `Request::Stats` on any client
//! connection: the JSON snapshot, or the ring's spans after a ticket.
//! `iofwd-cp stats|top|trace|doctor ADDR` compute rates, Prometheus
//! text, `top`, Chrome traces and health verdicts from what they
//! fetched. A stats query needs no staging memory, so a fresh
//! connection is answered even when every data connection is parked
//! under backpressure. The daemon writes no stats or trace file, prints
//! no periodic dump, and keeps no timer or sampler thread of its own:
//! its main thread sleeps until killed.
//!
//! * `--port-file PATH` — write the bound port (for `--listen host:0`).
//!
//! Robustness (`iofwd::fault`):
//!
//! * `--fault-plan PATH` — wrap the backend in a deterministic, seeded
//!   fault injector driven by the plan file (chaos testing; see
//!   DESIGN.md §10 for the plan grammar).
//! * `--retry-attempts N` — max attempts for transient backend errors
//!   (EAGAIN/EIO/ECONNRESET). Default 4; `1` disables retries.
//!
//! Performance (DESIGN.md §12):
//!
//! * `--coalesce=off` — turn staged-write coalescing off. Coalescing
//!   merges offset-contiguous writes parked on one descriptor into a
//!   single vectored backend call of at most 1 MiB / 16 ops; it is on
//!   for the worker-pool modes (sched/staged), and off (and
//!   meaningless) for ciod/zoid.
//! * `--throttle PER_OP_US,BW_MIB_S` — wrap the file backend in the
//!   deterministic device model (`ThrottledBackend`): a fixed
//!   per-operation cost plus a bandwidth limit shared by all
//!   descriptors. The experiment harness (DESIGN.md §14) uses this to
//!   make backend-bound regimes reproducible on arbitrary hardware.

use std::sync::Arc;
use std::time::Duration;

use iofwd::backend::{FaultBackend, FileBackend, ThrottledBackend};
use iofwd::fault::{FaultPlan, RetryPolicy};
use iofwd::server::{ForwardingMode, IonServer, ServerConfig};
use iofwd::telemetry::{Telemetry, MAX_WORKERS};
use iofwd::transport::tcp::TcpAcceptor;

struct Options {
    listen: String,
    root: String,
    mode: String,
    workers: usize,
    bml_mib: u64,
    port_file: Option<String>,
    fault_plan: Option<String>,
    retry_attempts: u32,
    /// `--coalesce=off` given (else the mode default: on for
    /// sched/staged, off for ciod/zoid).
    coalesce_off: bool,
    /// Device model: `(per_op, bytes_per_sec)`.
    throttle: Option<(Duration, f64)>,
    /// `threads` (thread-per-connection) or `reactor` (poll-based
    /// event loops; requires a worker-pool mode).
    transport: String,
    /// Event-loop threads for `--transport reactor`.
    reactor_threads: usize,
    /// Inject a synthetic EMFILE on every Nth accept attempt (0 = off);
    /// the connection-churn chaos harness flips this on.
    accept_fault_every: u64,
}

impl Options {
    fn parse() -> Options {
        let mut opts = Options {
            listen: "127.0.0.1:9331".into(),
            root: "./iofwd-root".into(),
            mode: "staged".into(),
            workers: 4,
            bml_mib: 256,
            port_file: None,
            fault_plan: None,
            retry_attempts: 4,
            coalesce_off: false,
            throttle: None,
            transport: "threads".into(),
            reactor_threads: 2,
            accept_fault_every: 0,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut take = |name: &str| {
                args.next()
                    .unwrap_or_else(|| die(&format!("{name} needs a value")))
            };
            match a.as_str() {
                "--listen" => opts.listen = take("--listen"),
                "--root" => opts.root = take("--root"),
                "--mode" => opts.mode = take("--mode"),
                // Telemetry has MAX_WORKERS per-worker and per-loop rows:
                // past them two threads share one, and a healthy loop's
                // heartbeat masks a stuck one's.
                "--workers" => {
                    let n = take("--workers").parse().ok();
                    opts.workers = n.filter(|&n| n <= MAX_WORKERS).unwrap_or_else(|| {
                        die(&format!("--workers needs an integer up to {MAX_WORKERS}"))
                    })
                }
                "--bml-mib" => {
                    opts.bml_mib = take("--bml-mib").parse().unwrap_or_else(|_| {
                        die("--bml-mib needs an integer");
                    })
                }
                "--port-file" => opts.port_file = Some(take("--port-file")),
                "--fault-plan" => opts.fault_plan = Some(take("--fault-plan")),
                "--retry-attempts" => {
                    opts.retry_attempts = take("--retry-attempts").parse().unwrap_or_else(|_| {
                        die("--retry-attempts needs an integer (1 disables retries)");
                    })
                }
                "--coalesce=off" => opts.coalesce_off = true,
                s if s.starts_with("--coalesce=") => die("--coalesce only takes 'off'"),
                "--throttle" => {
                    let v = take("--throttle");
                    let (per_op, bw) = v
                        .split_once(',')
                        .unwrap_or_else(|| die("--throttle needs PER_OP_US,BW_MIB_S"));
                    let per_op_us: u64 = per_op
                        .parse()
                        .unwrap_or_else(|_| die("--throttle PER_OP_US must be an integer"));
                    let bw_mib: f64 = bw
                        .parse()
                        .unwrap_or_else(|_| die("--throttle BW_MIB_S must be a number"));
                    if !(bw_mib.is_finite() && bw_mib > 0.0) {
                        die("--throttle BW_MIB_S must be a finite positive number");
                    }
                    opts.throttle = Some((
                        Duration::from_micros(per_op_us),
                        bw_mib * (1u64 << 20) as f64,
                    ));
                }
                "--transport" => {
                    opts.transport = take("--transport");
                    if opts.transport != "threads" && opts.transport != "reactor" {
                        die("--transport must be 'threads' or 'reactor'");
                    }
                }
                "--reactor-threads" => {
                    let n = take("--reactor-threads").parse().ok();
                    opts.reactor_threads = n
                        .filter(|n| (1..=MAX_WORKERS).contains(n))
                        .unwrap_or_else(|| {
                            die(&format!("--reactor-threads needs 1 to {MAX_WORKERS}"))
                        })
                }
                "--accept-fault-every" => {
                    opts.accept_fault_every =
                        take("--accept-fault-every").parse().unwrap_or_else(|_| {
                            die("--accept-fault-every needs an integer (0 disables)");
                        })
                }
                "--help" | "-h" => {
                    println!(
                        "usage: iofwdd [--listen ADDR] [--root DIR] \
                         [--mode ciod|zoid|sched|staged] [--workers N] [--bml-mib N] \
                         [--port-file PATH] \
                         [--fault-plan PATH] [--retry-attempts N] \
                         [--coalesce=off] \
                         [--throttle PER_OP_US,BW_MIB_S] \
                         [--transport threads|reactor] [--reactor-threads N] \
                         [--accept-fault-every N]\n\n\
                         staged mode: a write is staged only if its power-of-two \
                         size class fits in the BML; a larger one runs synchronously"
                    );
                    std::process::exit(0);
                }
                other => die(&format!("unknown option '{other}' (try --help)")),
            }
        }
        // Zero pool workers would silently run the inline (zoid) policy.
        let mode = opts.forwarding_mode();
        if opts.workers == 0 && !matches!(mode, ForwardingMode::Ciod | ForwardingMode::Zoid) {
            die("--workers must be nonzero for --mode sched|staged");
        }
        // Only staged mode has a BML to size; zero MiB, or more bytes
        // than 64 bits hold, leaves it none.
        if let ForwardingMode::AsyncStaged {
            bml_capacity: 0, ..
        } = mode
        {
            die("--bml-mib needs 1 to 17592186044415 for --mode staged");
        }
        opts
    }

    fn forwarding_mode(&self) -> ForwardingMode {
        match self.mode.as_str() {
            "ciod" => ForwardingMode::Ciod,
            "zoid" => ForwardingMode::Zoid,
            "sched" => ForwardingMode::Sched {
                workers: self.workers,
            },
            "staged" => ForwardingMode::AsyncStaged {
                workers: self.workers,
                bml_capacity: self.bml_mib.checked_mul(1 << 20).unwrap_or(0),
            },
            other => die(&format!(
                "unknown mode '{other}' (--mode ciod|zoid|sched|staged)"
            )),
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("iofwdd: {msg}");
    std::process::exit(2);
}

/// Write `contents` to `path` atomically (same-directory tmp + rename),
/// so a concurrent reader never observes a half-written file.
fn write_atomic(path: &str, contents: &str) {
    let tmp = format!("{path}.tmp");
    let ok = std::fs::write(&tmp, contents).is_ok() && std::fs::rename(&tmp, path).is_ok();
    if !ok {
        eprintln!("iofwdd: failed to write {path}");
    }
}

fn main() {
    let opts = Options::parse();
    let mode = opts.forwarding_mode();
    std::fs::create_dir_all(&opts.root)
        .unwrap_or_else(|e| die(&format!("cannot create root {}: {e}", opts.root)));
    let acceptor = TcpAcceptor::bind(&opts.listen)
        .unwrap_or_else(|e| die(&format!("cannot bind {}: {e}", opts.listen)));
    let addr = acceptor.local_addr().expect("local addr");
    if let Some(pf) = &opts.port_file {
        write_atomic(pf, &addr.port().to_string());
    }
    // Build telemetry up front so the fault injector (outermost backend
    // wrapper) and the daemon share one registry.
    let telemetry = Arc::new(Telemetry::new());
    let file_backend = Arc::new(FileBackend::new(&opts.root));
    let mut backend: Arc<dyn iofwd::backend::Backend> = match opts.throttle {
        Some((per_op, bytes_per_sec)) => {
            eprintln!(
                "iofwdd: device model ON — {} us/op, {} MiB/s",
                per_op.as_micros(),
                (bytes_per_sec / (1u64 << 20) as f64).round()
            );
            Arc::new(ThrottledBackend::new(file_backend, bytes_per_sec, per_op))
        }
        None => file_backend,
    };
    if let Some(plan_path) = &opts.fault_plan {
        let text = std::fs::read_to_string(plan_path)
            .unwrap_or_else(|e| die(&format!("cannot read fault plan {plan_path}: {e}")));
        let plan = FaultPlan::parse(&text)
            .unwrap_or_else(|e| die(&format!("bad fault plan {plan_path}: {e}")));
        eprintln!(
            "iofwdd: fault injection ON — seed {}, {} rule(s) from {plan_path}",
            plan.seed,
            plan.rules.len()
        );
        backend = Arc::new(FaultBackend::new(backend, plan, telemetry.clone()));
    }
    let mut config = ServerConfig::new(mode)
        .with_telemetry(telemetry)
        .with_retry_policy(RetryPolicy::with_attempts(opts.retry_attempts));
    if opts.coalesce_off {
        config = config.with_coalescing(false);
    }
    let coalesce = config.coalesce;
    if opts.accept_fault_every > 0 {
        acceptor.set_accept_fault(opts.accept_fault_every);
    }
    let mut transport = opts.transport.clone();
    if transport == "reactor" {
        if matches!(mode, ForwardingMode::Ciod | ForwardingMode::Zoid) {
            die("--transport reactor requires a worker-pool mode (--mode sched|staged)");
        }
        if !polling::supported() {
            eprintln!(
                "iofwdd: warning: poller unsupported on this target, \
                 falling back to --transport threads"
            );
            transport = "threads".into();
        }
    }
    let _server = if transport == "reactor" {
        let reactor_cfg = iofwd::server::ReactorConfig {
            threads: opts.reactor_threads,
            ..Default::default()
        };
        IonServer::spawn_reactor(acceptor, backend, config, reactor_cfg)
            .unwrap_or_else(|e| die(&format!("cannot start reactor transport: {e}")))
    } else {
        IonServer::spawn(Box::new(acceptor), backend, config)
    };
    // The "listening" banner stays first on stderr: startup probes (and
    // the CLI smoke test) key on it.
    eprintln!(
        "iofwdd: listening on {addr}, mode {}, root {}, {} worker(s), {} MiB BML, {transport} transport",
        opts.mode, opts.root, opts.workers, opts.bml_mib
    );
    if opts.accept_fault_every > 0 {
        eprintln!(
            "iofwdd: accept-fault injection ON — synthetic EMFILE every {} accept(s)",
            opts.accept_fault_every
        );
    }
    eprintln!(
        "iofwdd: write coalescing {}",
        if coalesce { "ON" } else { "off" }
    );
    eprintln!("iofwdd: press Ctrl-C to stop");
    loop {
        std::thread::park();
    }
}
