//! Snapshot assembly and the views over it: text, JSON, Prometheus,
//! rates, top, and the doctor's verdicts.
//!
//! The JSON snapshot is the only thing the daemon ships besides the
//! flight recorder's spans; every other view is computed here, by the
//! reader, from the snapshots it fetched. Rates are one derivation over
//! two of them ([`Rates::between`]): counter deltas over the uptime
//! delta, so a reader picks its own window and the daemon keeps no
//! history. [`Doctor`] runs the health probes over successive
//! snapshots, so the daemon runs no sampler of its own.
//!
//! This and [`crate::json`] are the telemetry modules allowed to
//! allocate and format (lint rule R5 exempts them): everything here runs
//! at snapshot time, never on the request hot path. The JSON view is a
//! writer over `format!` and a reader over [`crate::json::Json`], and
//! round-trips [`TelemetrySnapshot`] exactly (see the proptests in
//! `tests/telemetry_props.rs`).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use crate::clients::ClientSnapshot;
use crate::hist::{hist_delta, HistSnapshot};
use crate::json::{quote, Json};
use crate::span::OpSpan;
use crate::{Telemetry, MAX_WORKERS};

const MIB: f64 = 1024.0 * 1024.0;

/// Current level + high-water mark of one gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GaugeValue {
    pub current: i64,
    pub peak: i64,
}

/// A named, ordered, mergeable-at-rest view of a [`Telemetry`]
/// registry. Generic name→value vectors (rather than fixed fields)
/// keep the JSON codec and renderers independent of the metric set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, GaugeValue)>,
    pub hists: Vec<(String, HistSnapshot)>,
    /// Per-client attribution rows, sorted by client id.
    pub clients: Vec<ClientSnapshot>,
}

impl TelemetrySnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> GaugeValue {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(GaugeValue::default(), |(_, v)| *v)
    }

    /// Add a gauge computed when the snapshot is taken: a level with no
    /// history, so its peak is itself.
    pub fn push_derived(&mut self, name: &str, level: u64) {
        let v = i64::try_from(level).unwrap_or(i64::MAX);
        let g = GaugeValue {
            current: v,
            peak: v,
        };
        self.gauges.push((name.to_string(), g));
    }

    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    pub fn client(&self, id: u64) -> Option<&ClientSnapshot> {
        self.clients.iter().find(|c| c.id == id)
    }

    /// The `k` clients moving the most bytes, busiest first.
    pub fn top_clients(&self, k: usize) -> Vec<&ClientSnapshot> {
        let mut all: Vec<&ClientSnapshot> = self.clients.iter().collect();
        all.sort_by(|a, b| {
            let wa = a.bytes_in + a.bytes_out;
            let wb = b.bytes_in + b.bytes_out;
            wb.cmp(&wa).then(b.ops.cmp(&a.ops)).then(a.id.cmp(&b.id))
        });
        all.truncate(k);
        all
    }

    // -- JSON ---------------------------------------------------------

    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", quote(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, g)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"current\":{},\"peak\":{}}}",
                quote(name),
                g.current,
                g.peak
            );
        }
        out.push_str("},\"hists\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:", quote(name));
            write_hist_json(&mut out, h);
        }
        out.push_str("},\"clients\":{");
        for (i, c) in self.clients.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"ops\":{},\"ops_failed\":{},\"bytes_in\":{},\"bytes_out\":{},\
                 \"backpressure_events\":{},\"wbuf_high_water\":{},\"queue_wait_ns\":",
                c.id,
                c.ops,
                c.ops_failed,
                c.bytes_in,
                c.bytes_out,
                c.backpressure_events,
                c.wbuf_high_water
            );
            write_hist_json(&mut out, &c.queue_wait_ns);
            out.push_str(",\"backend_ns\":");
            write_hist_json(&mut out, &c.backend_ns);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    pub fn from_json(text: &str) -> Result<TelemetrySnapshot, String> {
        let root = Json::parse(text)?;
        let sections = root.as_obj().ok_or("top level is not an object")?;
        let mut snap = TelemetrySnapshot::default();
        for (key, value) in sections {
            match key.as_str() {
                "counters" => {
                    for (name, v) in obj_of(value)? {
                        snap.counters.push((name.clone(), u64_of(v)?));
                    }
                }
                "gauges" => {
                    for (name, v) in obj_of(value)? {
                        let mut g = GaugeValue::default();
                        for (k, fv) in obj_of(v)? {
                            match k.as_str() {
                                "current" => g.current = i64_of(fv)?,
                                "peak" => g.peak = i64_of(fv)?,
                                other => return Err(format!("unknown gauge field `{other}`")),
                            }
                        }
                        snap.gauges.push((name.clone(), g));
                    }
                }
                "hists" => {
                    for (name, v) in obj_of(value)? {
                        snap.hists.push((name.clone(), parse_hist(v)?));
                    }
                }
                "clients" => {
                    for (key, v) in obj_of(value)? {
                        let id: u64 = key
                            .parse()
                            .map_err(|_| format!("client id `{key}` is not a u64"))?;
                        let mut c = ClientSnapshot {
                            id,
                            ops: 0,
                            ops_failed: 0,
                            bytes_in: 0,
                            bytes_out: 0,
                            backpressure_events: 0,
                            wbuf_high_water: 0,
                            queue_wait_ns: HistSnapshot::default(),
                            backend_ns: HistSnapshot::default(),
                        };
                        for (k, fv) in obj_of(v)? {
                            match k.as_str() {
                                "ops" => c.ops = u64_of(fv)?,
                                "ops_failed" => c.ops_failed = u64_of(fv)?,
                                "bytes_in" => c.bytes_in = u64_of(fv)?,
                                "bytes_out" => c.bytes_out = u64_of(fv)?,
                                "backpressure_events" => c.backpressure_events = u64_of(fv)?,
                                "wbuf_high_water" => c.wbuf_high_water = u64_of(fv)?,
                                "queue_wait_ns" => c.queue_wait_ns = parse_hist(fv)?,
                                "backend_ns" => c.backend_ns = parse_hist(fv)?,
                                other => return Err(format!("unknown client field `{other}`")),
                            }
                        }
                        snap.clients.push(c);
                    }
                }
                other => return Err(format!("unknown top-level key `{other}`")),
            }
        }
        Ok(snap)
    }

    // -- text ---------------------------------------------------------

    /// The human-readable view (`iofwd-cp stats ADDR`).
    pub fn render_text(&self) -> String {
        // Zero usually means "nothing to say", but these answer
        // questions an operator actively asks ("is anything connected?
        // is the transport pushing back? is accept healthy?") — for
        // them, zero is the answer, so they render unconditionally.
        const ALWAYS_COUNTERS: [&str; 2] = ["accept_errors", "backpressure_events"];
        const ALWAYS_GAUGES: [&str; 1] = ["conns_open"];
        let mut out = String::with_capacity(2048);
        out.push_str("== iofwd telemetry ==\n");
        out.push_str("counters:\n");
        for (name, v) in &self.counters {
            if *v == 0 && !ALWAYS_COUNTERS.contains(&name.as_str()) {
                continue;
            }
            let _ = writeln!(out, "  {name:<24} {v}");
        }
        out.push_str("gauges (current / peak):\n");
        for (name, g) in &self.gauges {
            if g.current == 0 && g.peak == 0 && !ALWAYS_GAUGES.contains(&name.as_str()) {
                continue;
            }
            let _ = writeln!(out, "  {name:<24} {} / {}", g.current, g.peak);
        }
        out.push_str("histograms (count · mean · p50 · p99):\n");
        for (name, h) in &self.hists {
            if h.is_empty() {
                continue;
            }
            if name.ends_with("_ns") {
                let _ = writeln!(
                    out,
                    "  {name:<24} {:>8} · {:>9} · {:>9} · {:>9}",
                    h.count,
                    fmt_ns(h.mean()),
                    fmt_ns(h.quantile(0.5) as f64),
                    fmt_ns(h.quantile(0.99) as f64),
                );
            } else {
                let _ = writeln!(
                    out,
                    "  {name:<24} {:>8} · {:>9.1} · {:>9} · {:>9}",
                    h.count,
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                );
            }
        }
        if !self.clients.is_empty() {
            let top = self.top_clients(8);
            let _ = writeln!(
                out,
                "clients ({} total, top {} by bytes):",
                self.clients.len(),
                top.len()
            );
            let _ = writeln!(
                out,
                "  {:>8} {:>8} {:>5} {:>12} {:>12} {:>5} {:>10} {:>9} {:>9}",
                "client",
                "ops",
                "fail",
                "bytes_in",
                "bytes_out",
                "bp",
                "wbuf_hw",
                "p99_qw",
                "p99_be"
            );
            for c in top {
                let _ = writeln!(
                    out,
                    "  {:>8} {:>8} {:>5} {:>12} {:>12} {:>5} {:>10} {:>9} {:>9}",
                    c.id,
                    c.ops,
                    c.ops_failed,
                    c.bytes_in,
                    c.bytes_out,
                    c.backpressure_events,
                    c.wbuf_high_water,
                    fmt_ns(c.queue_wait_ns.quantile(0.99) as f64),
                    fmt_ns(c.backend_ns.quantile(0.99) as f64),
                );
            }
        }
        out
    }

    /// Prometheus text-exposition rendering of the whole snapshot:
    /// counters and gauges verbatim, histograms with cumulative `le`
    /// buckets, and per-client rows as labelled samples, each metric's
    /// samples for every client in one group. Rates are the scraper's
    /// `rate()` over the counters. Every line validates against
    /// [`validate_prometheus`].
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE iofwd_{name} counter\niofwd_{name} {v}");
        }
        for (name, g) in &self.gauges {
            let _ = writeln!(
                out,
                "# TYPE iofwd_{name} gauge\niofwd_{name} {}\niofwd_{name}_peak {}",
                g.current, g.peak
            );
        }
        for (name, h) in &self.hists {
            let _ = writeln!(out, "# TYPE iofwd_{name} histogram");
            let mut cum = 0u64;
            for (b, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cum += c;
                let le = 1u128 << (b + 1);
                let _ = writeln!(out, "iofwd_{name}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "iofwd_{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(
                out,
                "iofwd_{name}_sum {}\niofwd_{name}_count {}",
                h.sum, h.count
            );
        }
        type ClientMetric = (&'static str, &'static str, fn(&ClientSnapshot) -> u64);
        let client_metrics: [ClientMetric; 6] = [
            ("ops", "counter", |c| c.ops),
            ("ops_failed", "counter", |c| c.ops_failed),
            ("bytes_in", "counter", |c| c.bytes_in),
            ("bytes_out", "counter", |c| c.bytes_out),
            ("backpressure_events", "counter", |c| c.backpressure_events),
            ("wbuf_high_water", "gauge", |c| c.wbuf_high_water),
        ];
        if !self.clients.is_empty() {
            for (name, kind, v) in client_metrics {
                let _ = writeln!(out, "# TYPE iofwd_client_{name} {kind}");
                for c in &self.clients {
                    let _ = writeln!(out, "iofwd_client_{name}{{client=\"{}\"}} {}", c.id, v(c));
                }
            }
        }
        out
    }
}

/// Interval rates between two snapshots of one registry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rates {
    /// Uptime between the two snapshots, nanoseconds.
    pub window_ns: u64,
    pub ops_per_s: f64,
    pub fail_per_s: f64,
    pub in_mib_s: f64,
    pub out_mib_s: f64,
    pub backend_write_mib_s: f64,
    pub backend_read_mib_s: f64,
    /// p99 end-to-end latency of the ops completed in the window, ns.
    pub p99_total_ns: u64,
}

impl Rates {
    /// Counter deltas over the uptime delta, and the p99 of the
    /// `total_ns` delta. Deltas saturate at zero, so `prev` may be the
    /// default (empty) snapshot — the rates are then since-boot
    /// averages — and identical snapshots give zero rates.
    pub fn between(prev: &TelemetrySnapshot, now: &TelemetrySnapshot) -> Rates {
        let window_ns = now
            .counter("uptime_ns")
            .saturating_sub(prev.counter("uptime_ns"));
        let secs = (window_ns as f64 / 1e9).max(1e-9);
        let per_s = |name: &str| now.counter(name).saturating_sub(prev.counter(name)) as f64 / secs;
        let total = |s: &TelemetrySnapshot| s.hist("total_ns").copied().unwrap_or_default();
        Rates {
            window_ns,
            ops_per_s: per_s("ops_completed"),
            fail_per_s: per_s("ops_failed"),
            in_mib_s: per_s("transport_bytes_in") / MIB,
            out_mib_s: per_s("transport_bytes_out") / MIB,
            backend_write_mib_s: per_s("backend_bytes_written") / MIB,
            backend_read_mib_s: per_s("backend_bytes_read") / MIB,
            p99_total_ns: hist_delta(&total(now), &total(prev)).quantile(0.99),
        }
    }
}

/// Interval rates as a small JSON object (floats included, so this is
/// *not* parseable by [`TelemetrySnapshot::from_json`] — consumers
/// read the fields they need).
pub fn render_rates_json(r: &Rates) -> String {
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"window_ns\":{},\"ops_per_s\":{:.3},\"fail_per_s\":{:.3},\
         \"in_mib_s\":{:.3},\"out_mib_s\":{:.3},\"backend_write_mib_s\":{:.3},\
         \"backend_read_mib_s\":{:.3},\"p99_total_ns\":{}}}",
        r.window_ns,
        r.ops_per_s,
        r.fail_per_s,
        r.in_mib_s,
        r.out_mib_s,
        r.backend_write_mib_s,
        r.backend_read_mib_s,
        r.p99_total_ns
    );
    out
}

/// `iofwd-cp doctor`'s thresholds, parsed from its SPEC argument by
/// [`DoctorConfig::parse`]. A zero limit disables its probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoctorConfig {
    /// Time between snapshots.
    pub interval: Duration,
    /// Limit on `queue_head_age_ns`, the oldest queued item's wait.
    pub max_queue_age: Duration,
    /// Limit on `loop_lag_max_ns`, the slowest event loop's time since
    /// its last lap, and on the wait for a query's answer.
    pub max_loop_lag: Duration,
    /// Limit on `wbuf_bytes`, held for `wbuf_strikes` snapshots in a row.
    pub wbuf_limit: u64,
    pub wbuf_strikes: u32,
    /// Where each trip line and a flight-recorder dump are appended.
    pub dump_path: Option<PathBuf>,
}

impl Default for DoctorConfig {
    fn default() -> DoctorConfig {
        DoctorConfig {
            interval: Duration::from_millis(100),
            max_queue_age: Duration::from_secs(2),
            max_loop_lag: Duration::from_secs(1),
            wbuf_limit: 0,
            wbuf_strikes: 5,
            dump_path: None,
        }
    }
}

impl DoctorConfig {
    /// Comma-separated `key=value` pairs over the defaults. Keys:
    /// `interval_ms`, `queue_age_ms`, `loop_lag_ms`, `wbuf_bytes`,
    /// `wbuf_strikes`, `dump=<path>`. The literal `on` (or an empty
    /// string) takes every default.
    pub fn parse(spec: &str) -> Result<DoctorConfig, String> {
        let mut cfg = DoctorConfig::default();
        let pairs = spec.split(',').map(str::trim);
        for pair in pairs.filter(|p| !p.is_empty() && *p != "on") {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("doctor: expected key=value, got {pair:?}"))?;
            let num = |what: &str| {
                let n = value.trim().parse::<u64>();
                n.map_err(|_| format!("doctor: bad {what} in {pair:?}"))
            };
            let ms = || num("milliseconds").map(Duration::from_millis);
            match key.trim() {
                "interval_ms" => cfg.interval = ms()?.max(Duration::from_millis(1)),
                "queue_age_ms" => cfg.max_queue_age = ms()?,
                "loop_lag_ms" => cfg.max_loop_lag = ms()?,
                "wbuf_bytes" => cfg.wbuf_limit = num("byte count")?,
                "wbuf_strikes" => cfg.wbuf_strikes = num("strike count")?.clamp(1, 1 << 31) as u32,
                "dump" => cfg.dump_path = Some(PathBuf::from(value.trim())),
                other => return Err(format!("doctor: unknown key {other:?}")),
            }
        }
        Ok(cfg)
    }
}

/// One SLO trip; displays as `trip reason=... observed=... limit=...`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trip {
    pub reason: &'static str,
    pub observed: u64,
    pub limit: u64,
}

impl std::fmt::Display for Trip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (reason, observed, limit) = (self.reason, self.observed, self.limit);
        write!(f, "trip reason={reason} observed={observed} limit={limit}")
    }
}

/// The three stall probes over successive snapshots: queue head-of-line
/// age (a hung backend shows here first, while throughput counters just
/// flatline), event-loop lag (a loop stuck in a blocking call stops
/// beating even with the queue empty), and write-buffer bytes held over
/// the limit for `wbuf_strikes` snapshots in a row (one is normal
/// backpressure). Each probe is a latch that fires on its rising edge
/// and re-arms once its signal drops back under the limit, so a wedged
/// daemon yields one trip per stall, not one per snapshot.
#[derive(Debug, Default)]
pub struct Doctor {
    pub cfg: DoctorConfig,
    /// Latched state of the queue, loop and wbuf probes.
    tripped: [bool; 3],
    wbuf_over: u32,
}

impl Doctor {
    pub fn new(cfg: DoctorConfig) -> Doctor {
        Doctor {
            cfg,
            ..Doctor::default()
        }
    }

    fn edge(&mut self, probe: usize, firing: bool) -> bool {
        let rising = firing && !self.tripped[probe];
        self.tripped[probe] = firing;
        rising
    }

    /// Run the probes over the next snapshot; the trips that fired.
    pub fn observe(&mut self, snap: &TelemetrySnapshot) -> Vec<Trip> {
        let level = |name: &str| snap.gauge(name).current.max(0) as u64;
        let (age, lag) = (level("queue_head_age_ns"), level("loop_lag_max_ns"));
        let age_max = self.cfg.max_queue_age.as_nanos() as u64;
        let lag_max = self.cfg.max_loop_lag.as_nanos() as u64;
        let (wbuf, wbuf_max) = (level("wbuf_bytes"), self.cfg.wbuf_limit);
        let wbuf_high = wbuf_max > 0 && wbuf > wbuf_max;
        self.wbuf_over = if wbuf_high {
            self.wbuf_over.saturating_add(1)
        } else {
            0
        };
        let wbuf_stuck = wbuf_high && self.wbuf_over >= self.cfg.wbuf_strikes;
        let probes = [
            ("queue_stall", age, age_max, age_max > 0 && age > age_max),
            ("loop_stall", lag, lag_max, lag_max > 0 && lag > lag_max),
            ("wbuf_high_water", wbuf, wbuf_max, wbuf_stuck),
        ];
        (0..3)
            .zip(probes)
            .filter(|&(i, (.., firing))| self.edge(i, firing))
            .map(|(_, (reason, observed, limit, _))| Trip {
                reason,
                observed,
                limit,
            })
            .collect()
    }

    /// A snapshot query that went `waited_ns` without an answer: the loop
    /// serving that connection is stalled, as far as any reader can tell.
    pub fn no_answer(&mut self, waited_ns: u64) -> Option<Trip> {
        let limit = self.cfg.max_loop_lag.as_nanos() as u64;
        self.edge(1, true).then_some(Trip {
            reason: "loop_stall",
            observed: waited_ns,
            limit,
        })
    }
}

/// Structural validation of Prometheus text-exposition output: every
/// line is a comment or `name[{labels}] value`, and the lines of one
/// metric form a single group — a name may not reappear once another
/// metric's lines have started. Returns the number of sample lines.
/// Used by `iofwd-cp stats --prom --check` and the renderer's own tests.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut samples = 0usize;
    let mut grouped: Vec<&str> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (metric, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator", lineno + 1))?;
        let name = match metric.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {}: unterminated label set", lineno + 1));
                }
                name
            }
            None => metric,
        };
        if !valid_name(name) {
            return Err(format!("line {}: bad metric name `{name}`", lineno + 1));
        }
        if value.parse::<f64>().is_err() {
            return Err(format!("line {}: bad sample value `{value}`", lineno + 1));
        }
        if grouped.last() != Some(&name) {
            if grouped.contains(&name) {
                return Err(format!("line {}: `{name}` is split", lineno + 1));
            }
            grouped.push(name);
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples".into());
    }
    Ok(samples)
}

/// `iofwd-cp top`'s screen: interval values from two successive
/// snapshots — [`Rates::between`] them, and per-client counter and
/// backend-latency deltas — plus the top-`k` clients by interval
/// traffic. `prev` may be the default (empty) snapshot on the first
/// refresh; the screen then reads as since-boot averages. Only
/// `wbuf_hw`, a high-water mark, and the status line are not deltas.
pub fn render_top(prev: &TelemetrySnapshot, now: &TelemetrySnapshot, k: usize) -> String {
    let rates = Rates::between(prev, now);
    let secs = (rates.window_ns as f64 / 1e9).max(1e-9);
    let delta = |name: &str| now.counter(name).saturating_sub(prev.counter(name));
    let mut out = String::with_capacity(2048);
    let _ = writeln!(
        out,
        "iofwd top — uptime {} · conns {} · clients {}",
        fmt_ns(now.counter("uptime_ns") as f64),
        now.gauge("conns_open").current,
        now.clients.len(),
    );
    let _ = writeln!(
        out,
        "rates: {:>8.1} op/s · in {:>8.2} MiB/s · out {:>8.2} MiB/s · p99 {}",
        rates.ops_per_s,
        rates.in_mib_s,
        rates.out_mib_s,
        fmt_ns(rates.p99_total_ns as f64),
    );
    let _ = writeln!(
        out,
        "queue depth {} · backpressure {} · accept_errors {}",
        now.gauge("queue_depth").current,
        delta("backpressure_events"),
        now.counter("accept_errors"),
    );
    // Per-client interval deltas; clients absent from `prev` delta
    // against zero (their whole history happened "recently").
    struct Row {
        id: u64,
        ops_s: f64,
        in_s: f64,
        out_s: f64,
        bp: u64,
        wbuf: u64,
        p99_be: u64,
    }
    let mut rows: Vec<Row> = now
        .clients
        .iter()
        .map(|c| {
            let p = prev.client(c.id);
            let d = |field: fn(&ClientSnapshot) -> u64| field(c).saturating_sub(p.map_or(0, field));
            Row {
                id: c.id,
                ops_s: d(|c| c.ops) as f64 / secs,
                in_s: d(|c| c.bytes_in) as f64 / secs,
                out_s: d(|c| c.bytes_out) as f64 / secs,
                bp: d(|c| c.backpressure_events),
                wbuf: c.wbuf_high_water,
                p99_be: p
                    .map_or(c.backend_ns, |p| hist_delta(&c.backend_ns, &p.backend_ns))
                    .quantile(0.99),
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        (b.in_s + b.out_s)
            .partial_cmp(&(a.in_s + a.out_s))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.id.cmp(&b.id))
    });
    rows.truncate(k);
    let _ = writeln!(
        out,
        "  {:>8} {:>9} {:>11} {:>11} {:>5} {:>10} {:>9}",
        "client", "op/s", "in MiB/s", "out MiB/s", "bp", "wbuf_hw", "p99_be"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "  {:>8} {:>9.1} {:>11.2} {:>11.2} {:>5} {:>10} {:>9}",
            r.id,
            r.ops_s,
            r.in_s / MIB,
            r.out_s / MIB,
            r.bp,
            r.wbuf,
            fmt_ns(r.p99_be as f64),
        );
    }
    out
}

/// Build a snapshot from a live registry. Lives here (not in `lib.rs`)
/// because naming metrics means allocating strings — snapshot-time
/// work, kept out of the hot-path module.
pub fn capture(t: &Telemetry) -> TelemetrySnapshot {
    // The declared registry entries come from the one table in `lib.rs`;
    // the rows added here are derived at snapshot time, not stored. The
    // daemon's stats answer adds one more derived gauge,
    // `queue_head_age_ns`, from the work queue this registry cannot see.
    // `uptime_ns` is the denominator for per-worker busy fractions.
    let now = t.now_ns();
    let mut counters: Vec<(String, u64)> = t
        .counters()
        .iter()
        .map(|(name, c)| (name.to_string(), c.get()))
        .collect();
    counters.extend([
        ("flight_recorded".to_string(), t.flight.recorded()),
        ("flight_dropped".to_string(), t.flight.dropped()),
        ("uptime_ns".to_string(), now),
    ]);
    for w in 0..MAX_WORKERS {
        let c = t.worker_dispatch.get(w);
        if c > 0 {
            counters.push((format!("worker_dispatch_{w}"), c));
        }
    }
    for w in 0..MAX_WORKERS {
        let busy = t.worker_busy_ns.get(w);
        if busy > 0 {
            counters.push((format!("worker_busy_ns_{w}"), busy));
        }
    }
    let gauges: Vec<(String, GaugeValue)> = t
        .gauges()
        .iter()
        .map(|(name, g)| {
            let value = GaugeValue {
                current: g.get(),
                peak: g.peak(),
            };
            (name.to_string(), value)
        })
        .collect();
    let mut snap = TelemetrySnapshot {
        counters,
        gauges,
        hists: t
            .hists()
            .iter()
            .map(|(name, h)| (name.to_string(), h.snapshot()))
            .collect(),
        clients: t.clients.snapshot(),
    };
    snap.push_derived("loop_lag_max_ns", t.loop_heartbeats.max_lag_ns(now));
    snap
}

/// Render the flight recorder's tail as a stage-breakdown table. Failed
/// and drain-path ops show their wire errno and disposition so a
/// post-mortem read can tell what was dropped during degraded shutdown.
pub fn render_flight(held: &[(u64, OpSpan)]) -> String {
    let mut out = String::with_capacity(256 + held.len() * 120);
    out.push_str("flight recorder (oldest first):\n");
    let _ = writeln!(
        out,
        "  {:>8} {:<8} {:>6} {:>8} {:>10} {:>3} {:>5} {:<8}  {:>9} {:>9} {:>9}",
        "ticket",
        "kind",
        "client",
        "seq",
        "bytes",
        "ok",
        "errno",
        "disp",
        "queue",
        "service",
        "total"
    );
    for (ticket, s) in held {
        let errno = if s.errno == 0 {
            "-".to_string()
        } else {
            s.errno.to_string()
        };
        let _ = writeln!(
            out,
            "  {:>8} {:<8} {:>6} {:>8} {:>10} {:>3} {:>5} {:<8}  {:>9} {:>9} {:>9}",
            ticket,
            s.kind.name(),
            s.client,
            s.seq,
            s.bytes,
            if s.ok { "y" } else { "n" },
            errno,
            s.disposition.name(),
            fmt_ns(s.queue_wait_ns() as f64),
            fmt_ns(s.service_ns() as f64),
            fmt_ns(s.total_ns() as f64),
        );
    }
    out
}

/// Human-scale duration formatting.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn write_hist_json(out: &mut String, h: &HistSnapshot) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"buckets\":[",
        h.count, h.sum
    );
    let mut first = true;
    for (b, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "[{b},{c}]");
    }
    out.push_str("]}");
}

fn parse_hist(v: &Json) -> Result<HistSnapshot, String> {
    let mut h = HistSnapshot::default();
    for (k, fv) in obj_of(v)? {
        match k.as_str() {
            "count" => h.count = u64_of(fv)?,
            "sum" => h.sum = u64_of(fv)?,
            "buckets" => {
                for pair in fv.as_arr().ok_or("`buckets` is not an array")? {
                    let Some([idx, count]) = pair.as_arr() else {
                        return Err("bucket pair is not [idx,count]".into());
                    };
                    let idx = u64_of(idx)? as usize;
                    if idx >= h.buckets.len() {
                        return Err(format!("bucket index {idx} out of range"));
                    }
                    h.buckets[idx] = u64_of(count)?;
                }
            }
            other => return Err(format!("unknown hist field `{other}`")),
        }
    }
    Ok(h)
}

fn obj_of(v: &Json) -> Result<&[(String, Json)], String> {
    v.as_obj().ok_or_else(|| "expected an object".to_string())
}

fn u64_of(v: &Json) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("expected an integer in u64 range, got {v:?}"))
}

fn i64_of(v: &Json) -> Result<i64, String> {
    v.as_i64()
        .ok_or_else(|| format!("expected an integer in i64 range, got {v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::OpKind;

    #[test]
    fn capture_and_round_trip() {
        let t = Telemetry::new();
        t.ops_staged.add(3);
        t.transport_bytes_in.add(12345);
        t.queue_depth.add(5);
        t.queue_depth.add(-2);
        t.worker_dispatch.inc(2);
        t.queue_wait_ns.record(1500);
        let mut span = OpSpan::begin(OpKind::Write, 1, 1, 10);
        span.backend_start_ns = 20;
        span.backend_done_ns = 40;
        span.reply_ns = 41;
        t.complete(&span);

        let snap = t.snapshot();
        assert_eq!(snap.counter("ops_completed"), 1);
        assert_eq!(snap.counter("ops_staged"), 3);
        assert_eq!(snap.counter("worker_dispatch_2"), 1);
        assert_eq!(snap.gauge("queue_depth").current, 3);
        assert_eq!(snap.gauge("queue_depth").peak, 5);
        assert_eq!(snap.hist("queue_wait_ns").map(|h| h.count), Some(2));

        let json = snap.to_json();
        let back = TelemetrySnapshot::from_json(&json).expect("parse back");
        assert_eq!(back, snap);
    }

    #[test]
    fn capture_exports_exactly_the_declared_set() {
        let t = Telemetry::new();
        // Distinct values, so a row wired to the wrong field would show.
        for (i, (_, c)) in t.counters().iter().enumerate() {
            c.add(i as u64 + 1);
        }
        for (i, (_, g)) in t.gauges().iter().enumerate() {
            g.set(i as i64 + 1);
        }
        for (i, (_, h)) in t.hists().iter().enumerate() {
            h.record(i as u64 + 1);
        }
        let snap = t.snapshot();

        let declared: Vec<&str> = t.counters().iter().map(|(n, _)| *n).collect();
        let derived = ["flight_recorded", "flight_dropped", "uptime_ns"];
        let exported: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(exported, [&declared[..], &derived[..]].concat());
        for (i, name) in declared.iter().enumerate() {
            assert_eq!(snap.counter(name), i as u64 + 1, "{name}");
        }

        let declared: Vec<&str> = t.gauges().iter().map(|(n, _)| *n).collect();
        let exported: Vec<&str> = snap.gauges.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(exported, [&declared[..], &["loop_lag_max_ns"]].concat());
        for (i, name) in declared.iter().enumerate() {
            assert_eq!(snap.gauge(name).current, i as i64 + 1, "{name}");
        }

        let declared: Vec<&str> = t.hists().iter().map(|(n, _)| *n).collect();
        let exported: Vec<&str> = snap.hists.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(exported, declared);
        for (i, name) in declared.iter().enumerate() {
            assert_eq!(snap.hist(name).map(|h| h.sum), Some(i as u64 + 1), "{name}");
        }

        // The names the repo benchmark reads stay spelled as they were.
        for name in ["ops_completed", "hotpath_alloc_bytes", "backend_sync_ops"] {
            assert!(snap.counters.iter().any(|(n, _)| n == name), "{name}");
        }
        assert!(snap.gauges.iter().any(|(n, _)| n == "bml_occupancy"));
        assert!(snap.hist("coalesce_width").is_some());
    }

    #[test]
    fn renderers_do_not_panic() {
        let t = Telemetry::new();
        let mut span = OpSpan::begin(OpKind::Read, 2, 7, 0);
        span.bytes = 1 << 20;
        span.backend_done_ns = 2_500_000;
        t.complete(&span);
        let snap = t.snapshot();
        let text = snap.render_text();
        assert!(text.contains("ops_completed"));
        let flight = render_flight(&t.flight.since(0).2);
        assert!(flight.contains("read"));
    }

    #[test]
    fn reactor_counters_render_even_at_zero() {
        // Satellite fix: `conns_open`, `backpressure_events`, and
        // `accept_errors` must be visible in the human-readable dump
        // even when zero — "nothing connected, no pushback" is an
        // answer, not noise.
        let t = Telemetry::new();
        let text = t.snapshot().render_text();
        assert!(text.contains("conns_open"), "{text}");
        assert!(text.contains("backpressure_events"), "{text}");
        assert!(text.contains("accept_errors"), "{text}");
    }

    #[test]
    fn clients_round_trip_and_render() {
        let t = Telemetry::new();
        for id in [3u64, 11] {
            let c = t.client_stats(id).expect("enabled registry");
            c.ops.add(id);
            c.bytes_in.add(id * 100);
            c.bytes_out.add(id * 10);
            c.queue_wait_ns.record(1000 * id);
            c.note_wbuf(id * 7);
        }
        let snap = t.snapshot();
        assert_eq!(snap.clients.len(), 2);
        assert_eq!(snap.client(11).map(|c| c.bytes_in), Some(1100));
        let back = TelemetrySnapshot::from_json(&snap.to_json()).expect("parse back");
        assert_eq!(back, snap);
        let text = snap.render_text();
        assert!(text.contains("clients (2 total"), "{text}");
        // Busiest (id 11) listed before id 3. Search the clients table
        // only: `uptime_ns` above it is right-aligned too, and matches
        // the id-3 pattern whenever its leading digit is a 3.
        let table = &text[text.find("clients (").expect("clients table")..];
        let pos11 = table.find("      11").expect("row for 11");
        let pos3 = table.find("       3").expect("row for 3");
        assert!(pos11 < pos3, "{text}");
        assert_eq!(snap.top_clients(1)[0].id, 11);
    }

    #[test]
    fn prometheus_rendering_validates() {
        let t = Telemetry::new();
        t.ops_completed.add(3);
        t.total_ns.record(1500);
        t.total_ns.record(90_000);
        t.queue_depth.add(4);
        let client = |id| t.client_stats(id).expect("enabled registry");
        client(5).bytes_in.add(5 << 10);
        client(6).bytes_in.add(6 << 10);
        let text = t.snapshot().render_prometheus();
        let samples = validate_prometheus(&text).expect("valid exposition");
        assert!(samples > 20, "only {samples} samples");
        assert!(text.contains("iofwd_ops_completed 3"), "{text}");
        assert!(
            text.contains("iofwd_total_ns_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        // Each client metric is one group: both clients' lines together.
        assert!(
            text.contains(
                "iofwd_client_bytes_in{client=\"5\"} 5120\n\
                 iofwd_client_bytes_in{client=\"6\"} 6144\n"
            ),
            "{text}"
        );
        assert!(validate_prometheus("garbage line with spaces but no number x").is_err());
        assert!(validate_prometheus("").is_err());
        let split = validate_prometheus("a{c=\"1\"} 1\nb 1\na{c=\"2\"} 2\n");
        assert!(
            split.is_err_and(|e| e.contains("line 3")),
            "a split group passes"
        );
    }

    /// A snapshot holding just the given counters.
    fn snap(counters: &[(&str, u64)]) -> TelemetrySnapshot {
        let counters = counters.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        TelemetrySnapshot {
            counters,
            ..TelemetrySnapshot::default()
        }
    }

    #[test]
    fn rates_between_are_deltas_over_the_uptime_delta() {
        let prev = snap(&[("uptime_ns", 1_000_000_000), ("ops_completed", 5)]);
        let now = snap(&[
            ("uptime_ns", 3_000_000_000),
            ("ops_completed", 25),
            ("transport_bytes_in", 4 << 20),
        ]);
        let r = Rates::between(&prev, &now);
        assert_eq!(
            (r.window_ns, r.ops_per_s, r.in_mib_s),
            (2_000_000_000, 10.0, 2.0)
        );
        assert_eq!(r.out_mib_s, 0.0);
        // Against the empty snapshot: since-boot averages.
        let boot = Rates::between(&TelemetrySnapshot::default(), &now);
        assert_eq!((boot.window_ns, boot.in_mib_s), (3_000_000_000, 4.0 / 3.0));
    }

    #[test]
    fn rates_between_identical_snapshots_are_zero() {
        let t = Telemetry::new();
        t.ops_completed.add(42);
        t.total_ns.record(1 << 20);
        let snap = t.snapshot();
        assert_eq!(Rates::between(&snap, &snap), Rates::default());
    }

    #[test]
    fn rates_between_take_p99_from_the_total_ns_delta() {
        let (mut prev, mut now) = (snap(&[("uptime_ns", 1)]), snap(&[("uptime_ns", 2)]));
        let mut total = HistSnapshot::default();
        (0..100).for_each(|_| total.record(1 << 30));
        prev.hists.push(("total_ns".to_string(), total));
        (0..10).for_each(|_| total.record(1 << 20));
        now.hists.push(("total_ns".to_string(), total));
        // The window's ten fast ops, not the since-boot slow ones.
        assert_eq!(total.quantile(0.99), 1 << 31);
        assert_eq!(Rates::between(&prev, &now).p99_total_ns, 1 << 21);
    }

    #[test]
    fn rates_json_has_the_advertised_fields() {
        let r = Rates {
            window_ns: 1_000_000_000,
            ops_per_s: 10.0,
            in_mib_s: 2.5,
            p99_total_ns: 4096,
            ..Default::default()
        };
        let json = render_rates_json(&r);
        for field in [
            "\"window_ns\":1000000000",
            "\"ops_per_s\":10.000",
            "\"in_mib_s\":2.500",
            "\"p99_total_ns\":4096",
        ] {
            assert!(json.contains(field), "{json} missing {field}");
        }
    }

    #[test]
    fn top_screen_shows_interval_rates() {
        let t = Telemetry::new();
        let c = t.client_stats(9).expect("enabled registry");
        c.ops.add(100);
        c.bytes_in.add(1 << 20);
        // Client 4's since-boot values differ from its interval values:
        // 7 backpressure events and ~1 s backend calls before `prev`,
        // 2 events and ~1 us calls after it.
        let slow = t.client_stats(4).expect("enabled registry");
        slow.backpressure_events.add(7);
        t.backpressure_events.add(7);
        (0..100).for_each(|_| slow.backend_ns.record(1 << 30));
        let prev = t.snapshot();
        c.ops.add(50);
        c.bytes_in.add(10 << 20);
        slow.backpressure_events.add(2);
        t.backpressure_events.add(2);
        (0..10).for_each(|_| slow.backend_ns.record(1000));
        std::thread::sleep(std::time::Duration::from_millis(5));
        let now = t.snapshot();
        let screen = render_top(&prev, &now, 4);
        assert!(screen.contains("iofwd top"), "{screen}");
        assert!(screen.contains("op/s"), "{screen}");
        let row = screen
            .lines()
            .find(|l| l.trim_start().starts_with('9'))
            .expect("client row");
        // Interval ops/s reflects the 50-op delta over ~5 ms, far above
        // the 100-op cumulative total.
        let ops_s: f64 = row
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("ops/s cell");
        assert!(ops_s > 150.0, "{screen}");
        assert!(screen.contains("backpressure 2 "), "{screen}");
        let row: Vec<&str> = screen
            .lines()
            .find(|l| l.trim_start().starts_with('4'))
            .expect("client 4 row")
            .split_whitespace()
            .collect();
        assert_eq!(row[4], "2", "interval bp: {screen}");
        assert_eq!(row[6], fmt_ns(1024.0), "interval p99_be: {screen}");
        // First refresh (empty prev) must not panic and rates against
        // full uptime.
        let first = render_top(&TelemetrySnapshot::default(), &now, 4);
        assert!(first.contains("iofwd top"), "{first}");
    }

    #[test]
    fn parse_accepts_defaults_and_overrides() {
        assert_eq!(DoctorConfig::parse("on"), Ok(DoctorConfig::default()));
        assert_eq!(DoctorConfig::parse(""), Ok(DoctorConfig::default()));
        let cfg = DoctorConfig::parse(
            "interval_ms=50, queue_age_ms=250,loop_lag_ms=500,wbuf_bytes=1048576,\
             wbuf_strikes=3,dump=/tmp/wd.txt",
        )
        .expect("full spec");
        assert_eq!(cfg.interval, Duration::from_millis(50));
        assert_eq!(cfg.max_queue_age, Duration::from_millis(250));
        assert_eq!(cfg.max_loop_lag, Duration::from_millis(500));
        assert_eq!(cfg.wbuf_limit, 1 << 20);
        assert_eq!(cfg.wbuf_strikes, 3);
        assert_eq!(cfg.dump_path, Some(PathBuf::from("/tmp/wd.txt")));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(DoctorConfig::parse("queue_age_ms").is_err());
        assert!(DoctorConfig::parse("queue_age_ms=soon").is_err());
        assert!(DoctorConfig::parse("blink=1").is_err());
    }

    /// A snapshot holding just one gauge at `level`.
    fn gauge_at(name: &str, level: u64) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        snap.push_derived(name, level);
        snap
    }

    /// Only the probe under test is armed.
    fn doctor(spec: &str) -> Doctor {
        let base = "queue_age_ms=0,loop_lag_ms=0,";
        Doctor::new(DoctorConfig::parse(&format!("{base}{spec}")).expect("spec"))
    }

    #[test]
    fn latch_fires_on_rising_edge_only() {
        let mut d = doctor("queue_age_ms=1");
        let mut probe = |age_ms: u64| d.observe(&gauge_at("queue_head_age_ns", age_ms * 1_000_000));
        assert!(probe(0).is_empty());
        let trip = probe(5);
        assert_eq!(
            trip[0].to_string(),
            "trip reason=queue_stall observed=5000000 limit=1000000"
        );
        assert!(probe(5).is_empty(), "held condition must not re-fire");
        assert!(probe(0).is_empty(), "falling edge re-arms silently");
        assert_eq!(probe(5).len(), 1, "re-armed latch fires again");
    }

    #[test]
    fn loop_stall_trips_and_recovers() {
        let mut d = doctor("loop_lag_ms=1");
        let stalled = gauge_at("loop_lag_max_ns", 5_000_000);
        let beating = gauge_at("loop_lag_max_ns", 10_000);
        assert_eq!(d.observe(&stalled)[0].reason, "loop_stall");
        assert!(d.observe(&stalled).is_empty(), "latched while stalled");
        // The loop beats again: the latch re-arms, a second stall trips.
        assert!(d.observe(&beating).is_empty());
        assert_eq!(d.observe(&stalled).len(), 1);
        // An unanswered query is the same stall, seen from outside.
        assert!(d.observe(&beating).is_empty());
        let trip = d.no_answer(3_000_000).expect("no answer trips");
        assert_eq!((trip.reason, trip.observed), ("loop_stall", 3_000_000));
        assert_eq!(d.no_answer(9_000_000), None, "latched while unanswered");
    }

    #[test]
    fn wbuf_trip_requires_consecutive_strikes() {
        let mut d = doctor("wbuf_bytes=100,wbuf_strikes=3");
        let (high, low) = (gauge_at("wbuf_bytes", 500), gauge_at("wbuf_bytes", 0));
        assert!(d.observe(&high).is_empty());
        assert!(d.observe(&high).is_empty(), "two strikes is not out");
        // An intervening clean snapshot resets the streak.
        assert!(d.observe(&low).is_empty());
        assert!(d.observe(&high).is_empty());
        assert!(d.observe(&high).is_empty());
        let trip = d.observe(&high);
        assert_eq!(
            trip,
            [Trip {
                reason: "wbuf_high_water",
                observed: 500,
                limit: 100
            }]
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(TelemetrySnapshot::from_json("").is_err());
        assert!(TelemetrySnapshot::from_json("[]").is_err());
        assert!(TelemetrySnapshot::from_json("{\"counters\":{\"a\":}}").is_err());
        assert!(TelemetrySnapshot::from_json("{\"bogus\":{}}").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut snap = TelemetrySnapshot::default();
        snap.counters
            .push(("weird \"name\"\\\n\u{1}µ".to_string(), 9));
        let back = TelemetrySnapshot::from_json(&snap.to_json()).expect("parse");
        assert_eq!(back, snap);
    }
}
