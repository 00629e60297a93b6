//! `iofwd-cp` — copy files through an I/O-forwarding daemon.
//!
//! ```text
//! iofwd-cp put LOCAL  ADDR REMOTE     # upload through the daemon
//! iofwd-cp get ADDR REMOTE  LOCAL     # download through the daemon
//! iofwd-cp stat ADDR REMOTE           # forwarded stat
//! iofwd-cp stats ADDR [--json|--rates|--prom [--check]]   # live query
//! iofwd-cp stats ADDR ASSERT...       # live query, checked (CI gates)
//! iofwd-cp top ADDR [-n K] [--interval SECS] [--count N]  # live top-K
//! iofwd-cp trace FILE                 # validate an exported trace JSON
//! ```
//!
//! `stats` and `top` speak the stats wire protocol to a *running*
//! daemon — either the data-path port or a dedicated `--stats-addr`
//! listener. The daemon answers from telemetry memory without touching
//! the work queue, so both keep working while the data path is wedged.
//! `top` polls full snapshots and diffs them client-side into per-client
//! rates, ranked by bytes moved over the refresh window.
//!
//! `--stats` (before the subcommand) records the latency of every
//! forwarded call client-side and prints per-operation mean/p99 —
//! the compute-node's view of the daemon's stage breakdown:
//!
//! ```text
//! iofwdd --listen 127.0.0.1:9331 --root /tmp/ion &
//! iofwd-cp --stats put ./data.bin 127.0.0.1:9331 /incoming/data.bin
//! ```
//!
//! `--trace` (also before the subcommand) stamps every forwarded call
//! with a sampled trace context; the daemon echoes its stage breakdown
//! in each reply, and the transfer ends with a latency decomposition —
//! network vs. ION residency, and which server stage dominates.
//!
//! `stats ADDR ASSERT...` checks the live snapshot instead of rendering
//! it: it prints a digest and exits nonzero unless the daemon records
//! completed ops and every assertion holds. A bare name requires that
//! counter to be nonzero, and `p99:queue_wait_ns<2000` requires the
//! named histogram's 0.99 quantile to be below 2000 µs (the CI
//! latency-regression gate).
//!
//! `trace FILE` validates a `--trace-out` export against the Chrome
//! trace-event schema and exits nonzero if it is malformed or empty.

use std::io::{Read, Write};
use std::time::Instant;

use iofwd::client::Client;
use iofwd::telemetry::{
    snapshot::{fmt_ns, render_top, validate_prometheus},
    HistSnapshot, TelemetrySnapshot,
};
use iofwd::trace::validate_chrome_trace;
use iofwd::transport::tcp::TcpConn;
use iofwd_proto::{OpenFlags, StatsQuery};

const CHUNK: usize = 1 << 20;

fn die(msg: &str) -> ! {
    eprintln!("iofwd-cp: {msg}");
    std::process::exit(2);
}

fn connect(addr: &str) -> Client {
    let conn =
        TcpConn::connect(addr).unwrap_or_else(|e| die(&format!("cannot connect to {addr}: {e}")));
    Client::connect(Box::new(conn))
}

/// Client-side latency recorder: one histogram per forwarded-call kind.
#[derive(Default)]
struct CallStats {
    enabled: bool,
    ops: Vec<(&'static str, HistSnapshot)>,
}

impl CallStats {
    fn new(enabled: bool) -> CallStats {
        CallStats {
            enabled,
            ops: Vec::new(),
        }
    }

    /// Time `f` and charge it to `name`'s histogram.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        match self.ops.iter_mut().find(|(n, _)| *n == name) {
            Some((_, h)) => h.record(ns),
            None => {
                let mut h = HistSnapshot::default();
                h.record(ns);
                self.ops.push((name, h));
            }
        }
        out
    }

    fn print(&self) {
        if !self.enabled || self.ops.is_empty() {
            return;
        }
        eprintln!("iofwd-cp: client-side op latencies");
        eprintln!(
            "  {:<8} {:>8} {:>12} {:>12} {:>12}",
            "op", "count", "mean", "p50", "p99"
        );
        for (name, h) in &self.ops {
            eprintln!(
                "  {:<8} {:>8} {:>12} {:>12} {:>12}",
                name,
                h.count,
                fmt_ns(h.mean()),
                fmt_ns(h.quantile(0.50) as f64),
                fmt_ns(h.quantile(0.99) as f64),
            );
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut stats = false;
    let mut trace = false;
    while let Some(first) = args.first().map(|s| s.as_str()) {
        match first {
            "--stats" => stats = true,
            "--trace" => trace = true,
            _ => break,
        }
        args.remove(0);
    }
    match args.first().map(|s| s.as_str()) {
        Some("put") if args.len() == 4 => put(&args[1], &args[2], &args[3], stats, trace),
        Some("get") if args.len() == 4 => get(&args[1], &args[2], &args[3], stats, trace),
        Some("stat") if args.len() == 3 => stat(&args[1], &args[2]),
        Some("stats") if args.len() >= 2 => live_stats(&args[1], &args[2..]),
        Some("top") if args.len() >= 2 => live_top(&args[1], &args[2..]),
        Some("trace") if args.len() == 2 => check_trace(&args[1]),
        _ => die(
            "usage: iofwd-cp [--stats] [--trace] put LOCAL ADDR REMOTE | get ADDR REMOTE LOCAL \
             | stat ADDR REMOTE | stats ADDR [--json|--rates|--prom [--check] | ASSERTION...] \
             | top ADDR [-n K] [--interval SECS] [--count N] | trace FILE",
        ),
    }
}

/// `stats ADDR`: one live query over the stats wire protocol. Default
/// output is the daemon's registry rendered human-readable (fetched as
/// a JSON snapshot and formatted locally); `--json` prints the raw
/// snapshot, `--rates` the windowed-rates JSON, `--prom` the Prometheus
/// exposition (with `--check` additionally validating its format — the
/// CI live-scrape gate). Arguments that are not options are assertions
/// on the snapshot ([`check_snapshot`]).
fn live_stats(addr: &str, args: &[String]) {
    let mut query = StatsQuery::Snapshot;
    let mut raw_json = false;
    let mut check = false;
    let mut assertions = Vec::new();
    for a in args {
        match a.as_str() {
            "--json" => raw_json = true,
            "--rates" => query = StatsQuery::Rates,
            "--prom" => query = StatsQuery::Prometheus,
            "--check" => check = true,
            other if other.starts_with("--") => die(&format!("stats: unknown option '{other}'")),
            assertion => assertions.push(assertion),
        }
    }
    if check && query != StatsQuery::Prometheus {
        die("stats: --check requires --prom");
    }
    if !assertions.is_empty() && (query != StatsQuery::Snapshot || raw_json) {
        die("stats: assertions check the snapshot; drop --json/--rates/--prom");
    }
    let mut client = connect(addr);
    let data = client
        .query_stats(query)
        .unwrap_or_else(|e| die(&format!("stats query to {addr}: {e}")));
    let _ = client.shutdown();
    let text = String::from_utf8_lossy(&data);
    match query {
        StatsQuery::Snapshot if !raw_json => {
            let snap = TelemetrySnapshot::from_json(&text)
                .unwrap_or_else(|e| die(&format!("malformed snapshot from {addr}: {e}")));
            if assertions.is_empty() {
                print!("{}", snap.render_text());
            } else {
                check_snapshot(addr, &snap, &assertions);
            }
        }
        StatsQuery::Prometheus if check => {
            let samples =
                validate_prometheus(&text).unwrap_or_else(|e| die(&format!("bad exposition: {e}")));
            print!("{text}");
            eprintln!("iofwd-cp: exposition OK ({samples} samples)");
        }
        _ => println!("{}", text.trim_end()),
    }
}

/// `top ADDR`: poll snapshots and print the per-client rate table each
/// refresh. The first fetch is the baseline; every subsequent one diffs
/// against its predecessor, so the rates cover exactly one interval.
/// `--count N` stops after N refreshes (0 = until killed).
fn live_top(addr: &str, args: &[String]) {
    let mut k = 8usize;
    let mut interval = std::time::Duration::from_secs(1);
    let mut count = 0u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("top: {name} needs a value")))
        };
        match a.as_str() {
            "-n" => {
                k = take("-n")
                    .parse()
                    .unwrap_or_else(|_| die("top: -n needs an integer"));
            }
            "--interval" => {
                let secs: f64 = take("--interval")
                    .parse()
                    .unwrap_or_else(|_| die("top: --interval needs seconds"));
                if !secs.is_finite() || secs <= 0.0 {
                    die("top: --interval must be positive");
                }
                interval = std::time::Duration::from_secs_f64(secs);
            }
            "--count" => {
                count = take("--count")
                    .parse()
                    .unwrap_or_else(|_| die("top: --count needs an integer"));
            }
            other => die(&format!("top: unknown option '{other}'")),
        }
    }
    let mut client = connect(addr);
    let fetch = |client: &mut Client| -> TelemetrySnapshot {
        client
            .query_snapshot()
            .unwrap_or_else(|e| die(&format!("stats query to {addr}: {e}")))
    };
    let mut prev = fetch(&mut client);
    let mut refreshes = 0u64;
    loop {
        std::thread::sleep(interval);
        let now = fetch(&mut client);
        print!("{}", render_top(&prev, &now, k));
        prev = now;
        refreshes += 1;
        if count > 0 && refreshes >= count {
            break;
        }
    }
    let _ = client.shutdown();
}

/// Print the traced transfer's latency decomposition: how much of the
/// client-observed wall-clock the daemon accounts for, the per-stage
/// shares of that server residency, and the dominant stage.
fn print_trace_stats(client: &Client) {
    let t = client.trace_stats();
    if t.calls == 0 {
        eprintln!("iofwd-cp: trace: no replies carried a stage echo (old daemon?)");
        return;
    }
    eprintln!(
        "iofwd-cp: trace: {} calls, client {}, server {} ({:.1}%), network+client {}",
        t.calls,
        fmt_ns(t.client_ns as f64),
        fmt_ns(t.server_total_ns as f64),
        100.0 * t.server_total_ns as f64 / t.client_ns.max(1) as f64,
        fmt_ns(t.network_ns() as f64),
    );
    let mut line = String::from("iofwd-cp: stage shares of wall-clock:");
    for (name, share) in t.shares() {
        line.push_str(&format!(" {name} {:.1}%", share * 100.0));
    }
    eprintln!("{line}");
    let (stage, share) = t.dominant_server_stage();
    eprintln!(
        "iofwd-cp: dominant server stage: {stage} ({:.1}% of server residency)",
        share * 100.0
    );
}

fn put(local: &str, addr: &str, remote: &str, stats: bool, trace: bool) {
    let mut calls = CallStats::new(stats);
    let mut src = std::fs::File::open(local).unwrap_or_else(|e| die(&format!("open {local}: {e}")));
    let mut client = connect(addr);
    if trace {
        client.enable_tracing();
    }
    let fd = calls
        .timed("open", || {
            client.open(
                remote,
                OpenFlags::WRONLY | OpenFlags::CREATE | OpenFlags::TRUNC,
                0o644,
            )
        })
        .unwrap_or_else(|e| die(&format!("remote open {remote}: {e}")));
    let mut buf = vec![0u8; CHUNK];
    let mut total = 0u64;
    let t0 = Instant::now();
    loop {
        let n = src
            .read(&mut buf)
            .unwrap_or_else(|e| die(&format!("read {local}: {e}")));
        if n == 0 {
            break;
        }
        calls
            .timed("write", || client.write(fd, &buf[..n]))
            .unwrap_or_else(|e| die(&format!("forwarded write: {e}")));
        total += n as u64;
    }
    calls
        .timed("fsync", || client.fsync(fd))
        .unwrap_or_else(|e| die(&format!("fsync (staged writes): {e}")));
    calls
        .timed("close", || client.close(fd))
        .unwrap_or_else(|e| die(&format!("close: {e}")));
    let _ = client.shutdown();
    report("put", total, t0, client.stats().staged_writes);
    calls.print();
    if trace {
        print_trace_stats(&client);
    }
}

fn get(addr: &str, remote: &str, local: &str, stats: bool, trace: bool) {
    let mut calls = CallStats::new(stats);
    let mut client = connect(addr);
    if trace {
        client.enable_tracing();
    }
    let fd = calls
        .timed("open", || client.open(remote, OpenFlags::RDONLY, 0))
        .unwrap_or_else(|e| die(&format!("remote open {remote}: {e}")));
    let mut dst =
        std::fs::File::create(local).unwrap_or_else(|e| die(&format!("create {local}: {e}")));
    let mut total = 0u64;
    let t0 = Instant::now();
    loop {
        let data = calls
            .timed("read", || client.read(fd, CHUNK as u64))
            .unwrap_or_else(|e| die(&format!("forwarded read: {e}")));
        if data.is_empty() {
            break;
        }
        dst.write_all(&data)
            .unwrap_or_else(|e| die(&format!("write {local}: {e}")));
        total += data.len() as u64;
    }
    calls
        .timed("close", || client.close(fd))
        .unwrap_or_else(|e| die(&format!("close: {e}")));
    let _ = client.shutdown();
    report("get", total, t0, 0);
    calls.print();
    if trace {
        print_trace_stats(&client);
    }
}

fn stat(addr: &str, remote: &str) {
    let mut client = connect(addr);
    let st = client
        .stat(remote)
        .unwrap_or_else(|e| die(&format!("stat {remote}: {e}")));
    let _ = client.shutdown();
    println!(
        "{remote}: {} bytes, mode {:o}, mtime {} ns{}",
        st.size,
        st.mode,
        st.mtime_ns,
        if st.is_dir { ", directory" } else { "" }
    );
}

/// A `pQQ:HIST<USEC` percentile assertion from the `stats` argv:
/// require `HIST`'s `QQ/100` quantile to be below `USEC` microseconds.
struct PercentileAssert {
    quantile: f64,
    hist: String,
    max_usec: u64,
}

/// Parse `p99:queue_wait_ns<2000` (also `p50`, `p99.9`, ...). Returns
/// `None` for arguments that are plain counter names.
fn parse_percentile_assert(arg: &str) -> Option<Result<PercentileAssert, String>> {
    let rest = arg.strip_prefix('p')?;
    let (pct, rest) = rest.split_once(':')?;
    let Ok(pct) = pct.parse::<f64>() else {
        return Some(Err(format!("bad percentile in '{arg}'")));
    };
    if !(0.0..=100.0).contains(&pct) {
        return Some(Err(format!("percentile out of range in '{arg}'")));
    }
    let Some((hist, bound)) = rest.split_once('<') else {
        return Some(Err(format!(
            "'{arg}' needs a '<USEC' bound (e.g. p99:queue_wait_ns<2000)"
        )));
    };
    let Ok(max_usec) = bound.parse::<u64>() else {
        return Some(Err(format!("bad microsecond bound in '{arg}'")));
    };
    Some(Ok(PercentileAssert {
        quantile: pct / 100.0,
        hist: hist.to_string(),
        max_usec,
    }))
}

/// Verify that the snapshot fetched from the daemon at `addr`
/// shows activity. Exit status is the CI contract: 0 iff it records at
/// least one completed op and every assertion holds. A bare name
/// requires that counter to be nonzero (a chaos run passes e.g.
/// `faults_injected retries_attempted` to prove the fault plan actually
/// fired); a `p99:HIST<USEC` argument bounds a stage-latency percentile
/// (the CI latency-regression gate).
fn check_snapshot(addr: &str, snap: &TelemetrySnapshot, assertions: &[&str]) {
    let ops = snap.counter("ops_completed");
    let frames_in = snap.counter("frames_in");
    let bytes_in = snap.counter("transport_bytes_in");
    println!(
        "{addr}: {ops} ops completed, {frames_in} frames in, {bytes_in} bytes in, \
         {} counters / {} gauges / {} histograms",
        snap.counters.len(),
        snap.gauges.len(),
        snap.hists.len(),
    );
    if ops == 0 {
        die("snapshot records zero completed ops");
    }
    for arg in assertions {
        if let Some(parsed) = parse_percentile_assert(arg) {
            let a = parsed.unwrap_or_else(|e| die(&e));
            let Some((_, h)) = snap.hists.iter().find(|(n, _)| *n == a.hist) else {
                die(&format!("snapshot has no histogram named '{}'", a.hist));
            };
            if h.count == 0 {
                die(&format!("histogram '{}' recorded no samples", a.hist));
            }
            let got_ns = h.quantile(a.quantile);
            println!(
                "{addr}: {arg}: p{} of {} = {} (bound {} µs)",
                a.quantile * 100.0,
                a.hist,
                fmt_ns(got_ns as f64),
                a.max_usec
            );
            if got_ns >= a.max_usec * 1_000 {
                die(&format!(
                    "percentile assertion failed: {arg} (got {})",
                    fmt_ns(got_ns as f64)
                ));
            }
            continue;
        }
        if !snap.counters.iter().any(|(n, _)| n == arg) {
            die(&format!("snapshot has no counter named '{arg}'"));
        }
        let v = snap.counter(arg);
        println!("{addr}: {arg} = {v}");
        if v == 0 {
            die(&format!("required counter '{arg}' is zero"));
        }
    }
}

/// Validate a `--trace-out` export: well-formed Chrome trace-event JSON
/// with at least one duration slice. Prints the track/slice digest that
/// the CI gate (and a curious operator) wants to see.
fn check_trace(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    let summary =
        validate_chrome_trace(&text).unwrap_or_else(|e| die(&format!("invalid trace {path}: {e}")));
    println!(
        "{path}: {} events ({} slices, {} counter samples), \
         {} client track(s), {} worker track(s), {:.1} ms span",
        summary.events,
        summary.slices,
        summary.counter_events,
        summary.client_tracks,
        summary.worker_tracks,
        summary.span_us / 1_000.0,
    );
    if summary.slices == 0 {
        die("trace contains no op slices");
    }
}

fn report(verb: &str, bytes: u64, t0: Instant, staged: u64) {
    let secs = t0.elapsed().as_secs_f64();
    let mib = bytes as f64 / (1 << 20) as f64;
    eprintln!(
        "iofwd-cp: {verb} {mib:.1} MiB in {secs:.2}s ({:.1} MiB/s{})",
        mib / secs.max(1e-9),
        if staged > 0 {
            format!(", {staged} staged ops")
        } else {
            String::new()
        }
    );
}

#[cfg(test)]
mod tests {
    use super::parse_percentile_assert;

    #[test]
    fn percentile_grammar_parses() {
        let a = parse_percentile_assert("p99:queue_wait_ns<2000")
            .expect("recognized")
            .expect("valid");
        assert!((a.quantile - 0.99).abs() < 1e-9);
        assert_eq!(a.hist, "queue_wait_ns");
        assert_eq!(a.max_usec, 2000);

        let a = parse_percentile_assert("p99.9:total_ns<500000")
            .expect("recognized")
            .expect("valid");
        assert!((a.quantile - 0.999).abs() < 1e-9);
    }

    #[test]
    fn plain_counter_names_are_not_percentiles() {
        assert!(parse_percentile_assert("faults_injected").is_none());
        assert!(parse_percentile_assert("ops_completed").is_none());
        // 'p'-prefixed counters without a ':' stay counters too.
        assert!(parse_percentile_assert("pool_hits").is_none());
    }

    #[test]
    fn malformed_assertions_are_errors_not_counters() {
        assert!(parse_percentile_assert("p99:queue_wait_ns")
            .unwrap()
            .is_err());
        assert!(parse_percentile_assert("pxx:queue_wait_ns<5")
            .unwrap()
            .is_err());
        assert!(parse_percentile_assert("p150:queue_wait_ns<5")
            .unwrap()
            .is_err());
        assert!(parse_percentile_assert("p99:queue_wait_ns<abc")
            .unwrap()
            .is_err());
    }
}
