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
//! in and on; every number is stamped once into its registry and leaves
//! the process one way, as the reply to a `Request::Stats` — answered
//! in-band on every data connection and on the listener below, read with
//! `iofwd-cp stats|top ADDR`. The daemon writes no stats file and prints
//! no periodic dump.
//!
//! * `--port-file PATH` — write the bound port (for `--listen host:0`).
//! * `--stats-addr HOST:PORT` — out-of-band stats listener speaking the
//!   framed protocol but accepting only stats queries; answers even
//!   when every data connection is parked under backpressure.
//! * `--stats-port-file PATH` — write the stats listener's bound port
//!   (for `--stats-addr host:0`).
//! * `--watchdog [k=v,...]` — event-loop/queue health watchdog
//!   (`interval_ms`, `queue_age_ms`, `loop_lag_ms`, `wbuf_bytes`,
//!   `wbuf_strikes`, `dump=PATH`): each SLO is a rising-edge latch
//!   that bumps `watchdog_trips`, logs one structured reason line, and
//!   appends a flight-recorder dump.
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
//! * `--coalesce=off|MAX_BYTES,MAX_OPS` — staged-write coalescing:
//!   offset-contiguous writes parked on one descriptor merge into a
//!   single vectored backend call. On by default for the worker-pool
//!   modes (sched/staged) with budgets 1 MiB / 16 ops; off (and
//!   meaningless) for ciod/zoid.
//! * `--throttle PER_OP_US,BW_MIB_S` — wrap the file backend in the
//!   deterministic device model (`ThrottledBackend`): a fixed
//!   per-operation cost plus a bandwidth limit shared by all
//!   descriptors. The experiment harness (DESIGN.md §14) uses this to
//!   make backend-bound regimes reproducible on arbitrary hardware.
//!
//! Tracing (`iofwd::trace`; see DESIGN.md §11):
//!
//! * `--trace-out PATH` — export retained op spans as Chrome
//!   trace-event JSON (Perfetto-loadable), rewritten atomically whenever
//!   new spans arrive. Spans flagged sampled by a tracing client
//!   (`iofwd-cp --trace`) are always retained.
//! * `--trace-sample N` — additionally self-sample every Nth completed
//!   op regardless of client flags (0 disables; default 0).

use std::sync::Arc;
use std::time::{Duration, Instant};

use iofwd::backend::{FaultBackend, FileBackend, ThrottledBackend};
use iofwd::fault::{FaultPlan, RetryPolicy};
use iofwd::server::{
    introspect, watchdog, CoalesceConfig, ForwardingMode, IonServer, ServerConfig, WatchdogConfig,
};
use iofwd::telemetry::Telemetry;
use iofwd::trace::TraceExporter;
use iofwd::transport::tcp::TcpAcceptor;

struct Options {
    listen: String,
    root: String,
    mode: String,
    workers: usize,
    bml_mib: u64,
    port_file: Option<String>,
    /// Out-of-band introspection listener (`iofwd-cp stats --addr`).
    stats_addr: Option<String>,
    /// Where to write the stats listener's bound port (for `:0`).
    stats_port_file: Option<String>,
    /// `--watchdog` spec (absent = watchdog off).
    watchdog: Option<WatchdogConfig>,
    fault_plan: Option<String>,
    retry_attempts: u32,
    trace_out: Option<String>,
    trace_sample: u64,
    /// `None` = mode default (on for sched/staged, off for ciod/zoid);
    /// `Some(None)` = forced off; `Some(Some(cfg))` = forced on.
    coalesce: Option<Option<CoalesceConfig>>,
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
            stats_addr: None,
            stats_port_file: None,
            watchdog: None,
            fault_plan: None,
            retry_attempts: 4,
            trace_out: None,
            trace_sample: 0,
            coalesce: None,
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
                "--workers" => {
                    opts.workers = take("--workers").parse().unwrap_or_else(|_| {
                        die("--workers needs an integer");
                    })
                }
                "--bml-mib" => {
                    opts.bml_mib = take("--bml-mib").parse().unwrap_or_else(|_| {
                        die("--bml-mib needs an integer");
                    })
                }
                "--stats-addr" => opts.stats_addr = Some(take("--stats-addr")),
                "--stats-port-file" => opts.stats_port_file = Some(take("--stats-port-file")),
                "--watchdog" => {
                    let spec = take("--watchdog");
                    opts.watchdog = Some(WatchdogConfig::parse(&spec).unwrap_or_else(|e| die(&e)));
                }
                "--port-file" => opts.port_file = Some(take("--port-file")),
                "--fault-plan" => opts.fault_plan = Some(take("--fault-plan")),
                "--retry-attempts" => {
                    opts.retry_attempts = take("--retry-attempts").parse().unwrap_or_else(|_| {
                        die("--retry-attempts needs an integer (1 disables retries)");
                    })
                }
                // --coalesce=off        disable merging
                // --coalesce=BYTES,OPS  enable with explicit budgets
                s if s.starts_with("--coalesce=") => {
                    let v = &s["--coalesce=".len()..];
                    opts.coalesce = if v == "off" {
                        Some(None)
                    } else {
                        let (bytes, ops) = v
                            .split_once(',')
                            .unwrap_or_else(|| die("--coalesce needs 'off' or MAX_BYTES,MAX_OPS"));
                        let max_bytes = bytes
                            .parse()
                            .unwrap_or_else(|_| die("--coalesce MAX_BYTES must be an integer"));
                        let max_ops = ops
                            .parse()
                            .unwrap_or_else(|_| die("--coalesce MAX_OPS must be an integer"));
                        if max_bytes == 0 || max_ops == 0 {
                            die("--coalesce budgets must be nonzero");
                        }
                        Some(Some(CoalesceConfig { max_bytes, max_ops }))
                    };
                }
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
                    if bw_mib <= 0.0 {
                        die("--throttle BW_MIB_S must be positive");
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
                    opts.reactor_threads = take("--reactor-threads").parse().unwrap_or_else(|_| {
                        die("--reactor-threads needs an integer");
                    });
                    if opts.reactor_threads == 0 {
                        die("--reactor-threads must be nonzero");
                    }
                }
                "--accept-fault-every" => {
                    opts.accept_fault_every =
                        take("--accept-fault-every").parse().unwrap_or_else(|_| {
                            die("--accept-fault-every needs an integer (0 disables)");
                        })
                }
                "--trace-out" => opts.trace_out = Some(take("--trace-out")),
                "--trace-sample" => {
                    opts.trace_sample = take("--trace-sample").parse().unwrap_or_else(|_| {
                        die("--trace-sample needs an integer (keep every Nth op; 0 disables)");
                    })
                }
                "--help" | "-h" => {
                    println!(
                        "usage: iofwdd [--listen ADDR] [--root DIR] \
                         [--mode ciod|zoid|sched|staged] [--workers N] [--bml-mib N] \
                         [--port-file PATH] \
                         [--stats-addr ADDR [--stats-port-file PATH]] \
                         [--watchdog SPEC] \
                         [--fault-plan PATH] [--retry-attempts N] \
                         [--coalesce=off|MAX_BYTES,MAX_OPS] \
                         [--throttle PER_OP_US,BW_MIB_S] \
                         [--transport threads|reactor] [--reactor-threads N] \
                         [--accept-fault-every N] \
                         [--trace-out PATH] [--trace-sample N]"
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
        if opts.stats_port_file.is_some() && opts.stats_addr.is_none() {
            die("--stats-port-file requires --stats-addr");
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
                bml_capacity: self.bml_mib << 20,
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
    // The trace exporter must be attached before any op completes so the
    // first traced request is already observable.
    let exporter = opts.trace_out.as_ref().map(|path| {
        let exporter = Arc::new(TraceExporter::new(opts.trace_sample));
        if !telemetry.set_sink(exporter.clone()) {
            die("telemetry span sink already attached");
        }
        eprintln!(
            "iofwdd: tracing ON — spans to {path} (self-sample every {} op(s))",
            opts.trace_sample
        );
        exporter
    });
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
        .with_telemetry(telemetry.clone())
        .with_retry_policy(RetryPolicy::with_attempts(opts.retry_attempts));
    if let Some(coalesce) = opts.coalesce {
        config = config.with_coalescing(coalesce);
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
    let server = if transport == "reactor" {
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
    match coalesce {
        Some(c) => eprintln!(
            "iofwdd: write coalescing ON — up to {} ops / {} KiB per vectored batch",
            c.max_ops,
            c.max_bytes >> 10
        ),
        None => eprintln!("iofwdd: write coalescing off"),
    }
    // Out-of-band introspection: a dedicated listener that answers only
    // Stats queries straight from telemetry memory — reachable even when
    // the data-path port is saturated with parked connections.
    let _introspect = opts.stats_addr.as_ref().map(|stats_addr| {
        let acceptor = TcpAcceptor::bind(stats_addr)
            .unwrap_or_else(|e| die(&format!("cannot bind stats listener {stats_addr}: {e}")));
        let handle = introspect::spawn(acceptor, telemetry.clone())
            .unwrap_or_else(|e| die(&format!("cannot start stats listener: {e}")));
        eprintln!("iofwdd: stats listener on {}", handle.addr());
        if let Some(pf) = &opts.stats_port_file {
            write_atomic(pf, &handle.addr().port().to_string());
        }
        handle
    });
    let _watchdog = opts.watchdog.clone().map(|cfg| {
        eprintln!(
            "iofwdd: watchdog ON — interval {:?}, queue age {:?}, loop lag {:?}, \
             wbuf {} B x{}",
            cfg.interval, cfg.max_queue_age, cfg.max_loop_lag, cfg.wbuf_limit, cfg.wbuf_strikes
        );
        watchdog::spawn(cfg, telemetry.clone(), server.work_queue())
            .unwrap_or_else(|e| die(&format!("cannot start watchdog: {e}")))
    });
    eprintln!("iofwdd: press Ctrl-C to stop");

    // Supervision loop. The time-series tick runs on *absolute*
    // deadlines advanced by whole periods from the start phase, so
    // neither sleep quantization nor the work itself accumulates drift.
    // With a trace export configured the sleep is also bounded by a short
    // poll tick, so fresh spans reach the file promptly.
    const POLL_TICK: Duration = Duration::from_millis(200);
    /// Time-series cadence: one deltified snapshot per second feeds the
    /// windowed rates served over the stats protocol.
    const TS_TICK: Duration = Duration::from_secs(1);
    let mut next_ts = Instant::now() + TS_TICK;
    let mut traced_spans = 0usize;
    loop {
        let now = Instant::now();
        let wake = match exporter {
            Some(_) => (now + POLL_TICK).min(next_ts),
            None => next_ts,
        };
        std::thread::sleep(wake.saturating_duration_since(now));
        // Rewrite the trace whenever new spans were retained, so a
        // short-lived traced run's spans land on disk within a poll tick.
        if let (Some(path), Some(exporter)) = (&opts.trace_out, &exporter) {
            let kept = exporter.kept();
            if kept != traced_spans {
                traced_spans = kept;
                write_atomic(path, &exporter.render());
            }
        }
        let now = Instant::now();
        if now >= next_ts {
            telemetry.tick_timeseries();
            while next_ts <= now {
                next_ts += TS_TICK;
            }
        }
    }
}
