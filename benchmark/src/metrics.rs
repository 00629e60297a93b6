//! The metric registry — names, units, directions, bounds, and what each
//! per-layer metric is expected to move — and the arithmetic that turns
//! a raw [`Pass`] into metric values. `BENCHMARK.json` is generated from
//! this table (`iofwd-bench manifest`) and a test keeps the two equal.

use iofwd::telemetry::TelemetrySnapshot;

use crate::ceilings::Ceilings;
use crate::json::Value;
use crate::loadgen::Pass;
use crate::procfs::TICKS_PER_SEC;
use crate::replay::Replays;
use crate::stats::{self, Window, Windowed};
use crate::trace::Ledger;
use crate::workload::SPECS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric(s) and workload(s) it should move.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "throughput_mib_s",
        unit: "MiB/s",
        better: Higher,
        bound: 0.25,
        what: "payload MiB moved per second",
    },
    EndToEnd {
        name: "ops_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        what: "client calls completed per second (the headline on small_task)",
    },
    EndToEnd {
        name: "efficiency",
        unit: "ratio",
        better: Higher,
        bound: 0.25,
        what: "throughput (ops_s on small_task) over the workload's same-run ceiling",
    },
    EndToEnd {
        name: "data_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        what: "client-observed median latency of data calls, averaged over the classes (pwrite, pread) the workload has",
    },
    EndToEnd {
        name: "daemon_cpu_s_per_gib",
        unit: "s/GiB",
        better: Lower,
        bound: 0.25,
        what: "iofwdd utime+stime per payload GiB",
    },
    EndToEnd {
        name: "daemon_cpu_us_per_op",
        unit: "us/op",
        better: Lower,
        bound: 0.25,
        what: "iofwdd utime+stime per client call",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "iofwdd spawn to clients ready: start-up, port file, connect, read-file population",
    },
];

macro_rules! layer {
    ($name:literal, $unit:literal, $better:ident, $moves:literal) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: $better,
            moves: $moves,
        }
    };
}

pub const PER_LAYER: [PerLayer; 50] = [
    // Host ceilings: they move nothing, they are efficiency's denominators.
    layer!(
        "ceiling.memcpy_mib_s",
        "MiB/s",
        Higher,
        "nothing: host memory bandwidth"
    ),
    layer!(
        "ceiling.loopback_mib_s",
        "MiB/s",
        Higher,
        "nothing: 2-connection loopback stream"
    ),
    layer!(
        "ceiling.fs_pwrite_mib_s",
        "MiB/s",
        Higher,
        "nothing: 1 MiB pwrite to the backing fs"
    ),
    layer!(
        "ceiling.fs_pread_mib_s",
        "MiB/s",
        Higher,
        "nothing: 1 MiB pread from the backing fs"
    ),
    layer!(
        "ceiling.relay_write_mib_s",
        "MiB/s",
        Higher,
        "denominator of efficiency on stream_write, reactor_mix"
    ),
    layer!(
        "ceiling.relay_read_mib_s",
        "MiB/s",
        Higher,
        "denominator of efficiency on stream_read, reactor_mix"
    ),
    layer!(
        "ceiling.pingpong_ops_s",
        "1/s",
        Higher,
        "denominator of efficiency on small_task"
    ),
    // Layer replays at the workload's block size.
    layer!(
        "proto.encode_ns_per_op",
        "ns/op",
        Lower,
        "ops_s, data_p50_us on small_task"
    ),
    layer!(
        "proto.decode_ns_per_op",
        "ns/op",
        Lower,
        "ops_s, data_p50_us on small_task"
    ),
    layer!(
        "bml.adopt_ns_per_op",
        "ns/op",
        Lower,
        "daemon_cpu_s_per_gib on stream_write"
    ),
    layer!(
        "bml.acquire_ns_per_op",
        "ns/op",
        Lower,
        "data_p50_us on stream_read"
    ),
    layer!(
        "descdb.begin_finish_ns_per_op",
        "ns/op",
        Lower,
        "daemon_cpu_us_per_op on small_task"
    ),
    layer!(
        "backend.write_ns_per_op",
        "ns/op",
        Lower,
        "throughput_mib_s on stream_write, ops_s on small_task"
    ),
    layer!(
        "backend.read_ns_per_op",
        "ns/op",
        Lower,
        "throughput_mib_s on stream_read, ops_s on small_task"
    ),
    layer!(
        "backend.open_close_ns_per_op",
        "ns/op",
        Lower,
        "ops_s on small_task"
    ),
    layer!(
        "engine.execute_ns_per_op",
        "ns/op",
        Lower,
        "daemon_cpu_us_per_op on small_task"
    ),
    // Traced pass.
    layer!(
        "client.send_ns_per_op",
        "ns/op",
        Lower,
        "data_p50_us on stream_write"
    ),
    layer!(
        "client.recv_ns_per_op",
        "ns/op",
        Lower,
        "data_p50_us on stream_read"
    ),
    layer!(
        "client.marshal_ns_per_op",
        "ns/op",
        Lower,
        "data_p50_us on the stream workloads"
    ),
    layer!(
        "transport.network_ns_per_op",
        "ns/op",
        Lower,
        "throughput_mib_s on stream_write, stream_read, reactor_mix"
    ),
    layer!(
        "server.residency_ns_per_op",
        "ns/op",
        Lower,
        "data_p50_us on stream_read, ops_s on small_task"
    ),
    layer!(
        "queue.wait_ns_per_op",
        "ns/op",
        Lower,
        "data_p50_us on stream_read, ops_s on small_task"
    ),
    layer!(
        "engine.dispatch_ns_per_op",
        "ns/op",
        Lower,
        "ops_s on small_task"
    ),
    layer!(
        "backend.echo_ns_per_op",
        "ns/op",
        Lower,
        "data_p50_us on stream_read, client.barrier_p50_us on device_bound"
    ),
    layer!(
        "handlers.reply_ns_per_op",
        "ns/op",
        Lower,
        "data_p50_us on stream_read"
    ),
    layer!(
        "ledger.residual_share",
        "ratio",
        Lower,
        "nothing: client wall time no named stage owns"
    ),
    layer!(
        "ledger.replay_share",
        "ratio",
        Higher,
        "nothing: client wall time the replayed layer costs explain"
    ),
    layer!(
        "trace.overhead_pct",
        "%",
        Lower,
        "nothing: traced vs untraced throughput of the same run"
    ),
    // Per-class latency of the untraced pass.
    layer!(
        "client.write_p50_us",
        "us",
        Lower,
        "data_p50_us wherever the workload writes"
    ),
    layer!(
        "client.write_p99_us",
        "us",
        Lower,
        "nothing gated: the write tail (it does not repeat within a bound on device_bound)"
    ),
    layer!(
        "client.read_p50_us",
        "us",
        Lower,
        "data_p50_us wherever the workload reads"
    ),
    layer!(
        "client.read_p99_us",
        "us",
        Lower,
        "nothing gated: the read tail"
    ),
    layer!(
        "client.barrier_p50_us",
        "us",
        Lower,
        "nothing gated: where a change that acks sooner by deferring more shows"
    ),
    // Counts over the stats wire protocol.
    layer!(
        "bml.blocked_acquires_per_kop",
        "count",
        Lower,
        "client.write_p99_us, then data_p50_us on device_bound"
    ),
    layer!(
        "bml.occupancy_peak_mib",
        "MiB",
        Lower,
        "client.write_p99_us, then data_p50_us on device_bound"
    ),
    layer!(
        "bml.slab_hit_ratio",
        "ratio",
        Higher,
        "daemon_cpu_s_per_gib on stream_read"
    ),
    layer!(
        "queue.depth_peak",
        "count",
        Lower,
        "client.barrier_p50_us on device_bound"
    ),
    layer!(
        "queue.steals_per_kop",
        "count",
        Lower,
        "data_p50_us on small_task"
    ),
    layer!(
        "queue.wait_mean_us",
        "us",
        Lower,
        "client.barrier_p50_us on device_bound, data_p50_us on small_task"
    ),
    layer!(
        "backend.service_mean_us",
        "us",
        Lower,
        "throughput_mib_s on device_bound"
    ),
    layer!(
        "backend.write_calls_per_op",
        "ratio",
        Lower,
        "throughput_mib_s, efficiency on device_bound"
    ),
    layer!(
        "staged.coalesce_width_mean",
        "count",
        Higher,
        "throughput_mib_s, efficiency on device_bound"
    ),
    layer!(
        "staged.coalesced_share",
        "ratio",
        Higher,
        "throughput_mib_s, efficiency on device_bound"
    ),
    layer!(
        "telemetry.hotpath_alloc_bytes_per_op",
        "count",
        Lower,
        "daemon_cpu_s_per_gib on stream_write"
    ),
    // Process cost from /proc.
    layer!(
        "daemon.rss_peak_mib",
        "MiB",
        Lower,
        "nothing gated: memory moved into the daemon shows here"
    ),
    layer!(
        "daemon.ctx_switches_per_op",
        "count",
        Lower,
        "ops_s on small_task, data_p50_us on reactor_mix"
    ),
    layer!(
        "daemon.cpu_util",
        "cores",
        Lower,
        "daemon_cpu_s_per_gib, daemon_cpu_us_per_op"
    ),
    layer!(
        "daemon.user_cpu_share",
        "ratio",
        Lower,
        "nothing: user share of daemon CPU"
    ),
    layer!(
        "daemon.threads_peak",
        "count",
        Lower,
        "daemon.ctx_switches_per_op"
    ),
    layer!(
        "loadgen.cpu_util",
        "cores",
        Lower,
        "nothing: near the core count, the generator is the bottleneck"
    ),
];

/// How long one run measures (`--seconds`), as BENCHMARK.json states it.
pub const RUN_SECONDS: u64 = 10;

impl EndToEnd {
    /// The metric's entry in `BENCHMARK.json`.
    fn json(&self) -> Value {
        Value::obj()
            .with("name", self.name)
            .with("unit", self.unit)
            .with("better", self.better.as_str())
            .with("bound", self.bound)
    }
}

impl PerLayer {
    fn json(&self) -> Value {
        Value::obj()
            .with("name", self.name)
            .with("unit", self.unit)
            .with("better", self.better.as_str())
    }
}

/// `BENCHMARK.json`, from the tables above.
pub fn manifest() -> Value {
    let workloads: Vec<Value> = SPECS
        .iter()
        .map(|s| Value::obj().with("name", s.name).with("why", s.why))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END.iter().map(EndToEnd::json).collect();
    let per_layer: Vec<Value> = PER_LAYER.iter().map(PerLayer::json).collect();
    Value::obj()
        .with("command", vec!["bash", "benchmark/run.sh"])
        .with("paths", vec!["benchmark"])
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

/// What every metric means, for `results.json`: the manifest entries plus
/// what each end-to-end metric is and what each per-layer one should move.
pub fn definitions() -> Value {
    let mut out = Value::obj();
    for m in &END_TO_END {
        out.set(m.name, m.json().with("what", m.what));
    }
    for m in &PER_LAYER {
        out.set(m.name, m.json().with("moves", m.moves));
    }
    out
}

/// A computed metric: its value, plus its spread over the windows where
/// it has windows.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub spread: Option<f64>,
    /// The per-window (or per-segment, per-set-up) values behind `value`.
    pub windows: Vec<f64>,
}

const MIB: f64 = (1u64 << 20) as f64;
const GIB: f64 = (1u64 << 30) as f64;

/// The client-side windows of a pass, per segment.
pub fn pass_windows(pass: &Pass) -> Vec<Vec<Window>> {
    pass.segments
        .iter()
        .map(|seg| {
            let n = seg.marks.len() - 1;
            stats::windows(&pass.samples, seg.start_ns, pass.window_ns, n)
        })
        .collect()
}

fn segment_ns(pass: &Pass, seg: &crate::loadgen::Segment) -> u64 {
    pass.window_ns * (seg.marks.len() as u64 - 1)
}

fn window_s(pass: &Pass) -> f64 {
    pass.window_ns as f64 / 1e9
}

pub fn throughput_mib_s(pass: &Pass, windows: &[Vec<Window>]) -> Windowed {
    let s = window_s(pass);
    Windowed::of(
        windows
            .iter()
            .flatten()
            .map(|w| w.bytes as f64 / MIB / s)
            .collect(),
    )
}

pub fn ops_s(pass: &Pass, windows: &[Vec<Window>]) -> Windowed {
    let s = window_s(pass);
    Windowed::of(windows.iter().flatten().map(|w| w.ops as f64 / s).collect())
}

/// Ticks between a segment's first and last mark.
fn segment_ticks(pass: &Pass, pick: fn(&crate::loadgen::Mark) -> u64) -> Vec<f64> {
    pass.segments
        .iter()
        .map(|seg| {
            let first = seg.marks.first().expect("a segment has marks");
            let last = seg.marks.last().expect("a segment has marks");
            (pick(last) - pick(first)) as f64
        })
        .collect()
}

/// A window with no sample of an op class the metric needs has no value
/// for it; such windows are left out of the median rather than read as 0.
fn over_windows(values: impl Iterator<Item = Option<f64>>) -> Option<Windowed> {
    let v: Vec<f64> = values.flatten().collect();
    (!v.is_empty()).then(|| Windowed::of(v))
}

/// The seven end-to-end metrics of an untraced pass. `ceilings` holds the
/// workload's denominator as probed before each segment and after the
/// last, in the unit of its numerator (MiB/s, or ops/s on small_task,
/// where `per_op` is set). The probes sample the host across the whole
/// pass; `efficiency` is taken against their median, because a single
/// short probe is noisier than the drift it would cancel. CPU time comes
/// in 10 ms ticks, too coarse for a window, so the two CPU metrics are
/// per segment. Two specified metrics are not here because they do not
/// repeat within any allowed bound: the 99th percentile of data calls (on
/// `device_bound`) and the barrier latency (two modes on `reactor_mix`);
/// they are per-layer metrics (`client.*_p99_us`, `client.barrier_p50_us`).
pub fn end_to_end(
    pass: &Pass,
    setup_s: &[f64],
    ceilings: &[f64],
    per_op: bool,
) -> Result<Vec<Metric>, String> {
    let windows = pass_windows(pass);
    let thr = throughput_mib_s(pass, &windows);
    let ops = ops_s(pass, &windows);
    let ceiling = stats::median(ceilings);
    let numerator = if per_op { &ops } else { &thr };
    let efficiency = Windowed::of(numerator.windows.iter().map(|v| v / ceiling).collect());
    let flat = || windows.iter().flatten();
    let data_p50 = over_windows(flat().map(Window::data_p50_us))
        .ok_or("no data call completed in the measured interval")?;
    let cpu_s = segment_ticks(pass, |m| m.daemon.cpu_ticks());
    let seg_total = |pick: fn(&Window) -> u64| -> Vec<f64> {
        windows
            .iter()
            .map(|seg| seg.iter().map(pick).sum::<u64>() as f64)
            .collect()
    };
    let cpu_per_gib = over_windows(
        cpu_s
            .iter()
            .zip(seg_total(|w| w.bytes))
            .map(|(ticks, bytes)| (bytes > 0.0).then(|| ticks / TICKS_PER_SEC / (bytes / GIB))),
    )
    .ok_or("no payload moved in the measured interval")?;
    let cpu_per_op = over_windows(
        cpu_s
            .iter()
            .zip(seg_total(|w| w.ops))
            .map(|(ticks, ops)| (ops > 0.0).then(|| ticks / TICKS_PER_SEC * 1e6 / ops)),
    )
    .ok_or("no call completed in the measured interval")?;
    let windowed = |name, w: Windowed| Metric {
        name,
        value: w.median,
        spread: Some(w.spread),
        windows: w.windows,
    };
    Ok(vec![
        windowed("throughput_mib_s", thr),
        windowed("ops_s", ops),
        windowed("efficiency", efficiency),
        windowed("data_p50_us", data_p50),
        windowed("daemon_cpu_s_per_gib", cpu_per_gib),
        windowed("daemon_cpu_us_per_op", cpu_per_op),
        windowed("setup_s", Windowed::of(setup_s.to_vec())),
    ])
}

/// Counter delta over the measured interval; a name the daemon no longer
/// exports reads 0 and is reported on stderr.
fn delta(start: &TelemetrySnapshot, end: &TelemetrySnapshot, name: &str) -> f64 {
    if !end.counters.iter().any(|(n, _)| n == name) {
        eprintln!("warning: iofwdd exports no counter '{name}'; reporting 0");
    }
    end.counter(name).saturating_sub(start.counter(name)) as f64
}

/// Mean of a histogram over the measured interval, in its own unit.
fn hist_mean(start: &TelemetrySnapshot, end: &TelemetrySnapshot, name: &str) -> f64 {
    let (Some(a), Some(b)) = (start.hist(name), end.hist(name)) else {
        eprintln!("warning: iofwdd exports no histogram '{name}'; reporting 0");
        return 0.0;
    };
    let count = b.count.saturating_sub(a.count);
    if count == 0 {
        return 0.0;
    }
    b.sum.saturating_sub(a.sum) as f64 / count as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The 50 per-layer metrics of a traced run: ceilings and replays as
/// measured, the ledger from the traced pass, everything else from the
/// untraced pass of the same run. The counts cover that pass from its
/// first segment's warm-up to its last segment's end.
pub fn per_layer(
    ceilings: &Ceilings,
    replays: &Replays,
    untraced: &Pass,
    traced: &Pass,
    ledger: &Ledger,
) -> Vec<Metric> {
    let windows = pass_windows(untraced);
    let flat = || windows.iter().flatten();
    let seconds = window_s(untraced) * flat().count() as f64;
    let class = |pick: fn(&Window) -> Option<(u64, u64)>, p: fn((u64, u64)) -> u64| {
        over_windows(flat().map(|w| pick(w).map(|c| p(c) as f64 / 1e3))).map_or(0.0, |w| w.median)
    };
    let first = &untraced.segments[0];
    let barrier = stats::barrier_p50_us(
        &untraced.samples,
        first.start_ns,
        segment_ns(untraced, first),
    );
    let thr = throughput_mib_s(untraced, &windows).median;
    let traced_thr = throughput_mib_s(traced, &pass_windows(traced)).median;

    // Layer cost the replays explain, over the traced calls: every call
    // is encoded and decoded once each way; writes adopt a buffer, pass
    // descdb and hit the backend; reads acquire, pass descdb, read; opens
    // pair with a close.
    let explained = ledger.ops as f64 * 2.0 * (replays.proto_encode + replays.proto_decode)
        + ledger.writes as f64
            * (replays.bml_adopt + replays.descdb_begin_finish + replays.backend_write)
        + ledger.reads as f64
            * (replays.bml_acquire + replays.descdb_begin_finish + replays.backend_read)
        + ledger.opens as f64 * replays.backend_open_close;

    let empty = TelemetrySnapshot::default();
    let (a, b) = match (&untraced.snap_start, &untraced.snap_end) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            eprintln!("warning: no stats snapshot from iofwdd; count metrics read 0");
            (&empty, &empty)
        }
    };
    // The daemon's counters run from the first snapshot (before warm-up)
    // to the last, so they are set against its own count of ops.
    let ops = delta(a, b, "ops_completed");
    let kops = ops / 1e3;
    let slab_hits = delta(a, b, "slab_hits");
    let staged = delta(a, b, "ops_staged");
    let daemon_ticks: f64 = segment_ticks(untraced, |m| m.daemon.cpu_ticks())
        .iter()
        .sum();
    let user_ticks: f64 = segment_ticks(untraced, |m| m.daemon.utime_ticks)
        .iter()
        .sum();
    let loadgen_ticks: f64 = segment_ticks(untraced, |m| m.loadgen.cpu_ticks())
        .iter()
        .sum();
    let threads_peak = untraced
        .segments
        .iter()
        .flat_map(|seg| &seg.marks)
        .map(|m| m.daemon.threads)
        .max()
        .unwrap_or(0);

    let values = [
        ("ceiling.memcpy_mib_s", ceilings.memcpy),
        ("ceiling.loopback_mib_s", ceilings.loopback),
        ("ceiling.fs_pwrite_mib_s", ceilings.fs_pwrite),
        ("ceiling.fs_pread_mib_s", ceilings.fs_pread),
        ("ceiling.relay_write_mib_s", ceilings.relay_write),
        ("ceiling.relay_read_mib_s", ceilings.relay_read),
        ("ceiling.pingpong_ops_s", ceilings.pingpong),
        ("proto.encode_ns_per_op", replays.proto_encode),
        ("proto.decode_ns_per_op", replays.proto_decode),
        ("bml.adopt_ns_per_op", replays.bml_adopt),
        ("bml.acquire_ns_per_op", replays.bml_acquire),
        ("descdb.begin_finish_ns_per_op", replays.descdb_begin_finish),
        ("backend.write_ns_per_op", replays.backend_write),
        ("backend.read_ns_per_op", replays.backend_read),
        ("backend.open_close_ns_per_op", replays.backend_open_close),
        ("engine.execute_ns_per_op", replays.engine_execute),
        ("client.send_ns_per_op", ledger.per_op(ledger.send_ns)),
        ("client.recv_ns_per_op", ledger.per_op(ledger.recv_ns)),
        (
            "client.marshal_ns_per_op",
            ledger.per_op(ledger.marshal_ns()),
        ),
        (
            "transport.network_ns_per_op",
            ledger.per_op(ledger.network_ns()),
        ),
        (
            "server.residency_ns_per_op",
            ledger.per_op(ledger.server_total_ns),
        ),
        ("queue.wait_ns_per_op", ledger.per_op(ledger.queue_ns)),
        (
            "engine.dispatch_ns_per_op",
            ledger.per_op(ledger.dispatch_ns),
        ),
        ("backend.echo_ns_per_op", ledger.per_op(ledger.backend_ns)),
        ("handlers.reply_ns_per_op", ledger.per_op(ledger.reply_ns)),
        ("ledger.residual_share", ledger.residual_share()),
        (
            "ledger.replay_share",
            ratio(explained, ledger.call_ns as f64),
        ),
        ("trace.overhead_pct", ratio(thr - traced_thr, thr) * 100.0),
        ("client.write_p50_us", class(|w| w.write, |c| c.0)),
        ("client.write_p99_us", class(|w| w.write, |c| c.1)),
        ("client.read_p50_us", class(|w| w.read, |c| c.0)),
        ("client.read_p99_us", class(|w| w.read, |c| c.1)),
        ("client.barrier_p50_us", barrier.unwrap_or(0.0)),
        (
            "bml.blocked_acquires_per_kop",
            ratio(delta(a, b, "bml_blocked_acquires"), kops),
        ),
        (
            "bml.occupancy_peak_mib",
            b.gauge("bml_occupancy").peak as f64 / MIB,
        ),
        (
            "bml.slab_hit_ratio",
            ratio(slab_hits, slab_hits + delta(a, b, "slab_misses")),
        ),
        ("queue.depth_peak", b.gauge("queue_depth").peak as f64),
        (
            "queue.steals_per_kop",
            ratio(delta(a, b, "steal_ops"), kops),
        ),
        ("queue.wait_mean_us", hist_mean(a, b, "queue_wait_ns") / 1e3),
        (
            "backend.service_mean_us",
            hist_mean(a, b, "service_ns") / 1e3,
        ),
        (
            "backend.write_calls_per_op",
            ratio(delta(a, b, "backend_write_ops"), staged),
        ),
        (
            "staged.coalesce_width_mean",
            hist_mean(a, b, "coalesce_width"),
        ),
        (
            "staged.coalesced_share",
            ratio(delta(a, b, "coalesced_ops"), staged),
        ),
        (
            "telemetry.hotpath_alloc_bytes_per_op",
            ratio(delta(a, b, "hotpath_alloc_bytes"), ops),
        ),
        ("daemon.rss_peak_mib", untraced.rss_peak_kib as f64 / 1024.0),
        (
            "daemon.ctx_switches_per_op",
            ratio(untraced.ctx_switches as f64, ops),
        ),
        ("daemon.cpu_util", daemon_ticks / TICKS_PER_SEC / seconds),
        ("daemon.user_cpu_share", ratio(user_ticks, daemon_ticks)),
        ("daemon.threads_peak", threads_peak as f64),
        ("loadgen.cpu_util", loadgen_ticks / TICKS_PER_SEC / seconds),
    ];
    // The registry fixes the order BENCHMARK.json lists; a value filed
    // under another metric's name is a harness bug.
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "a per-layer metric has no value"
    );
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(m, (name, value))| {
            assert_eq!(m.name, name, "per-layer values out of registry order");
            Metric {
                name,
                value,
                spread: None,
                windows: Vec::new(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(SPECS.iter().map(|s| (s.name, "count")));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
    }

    #[test]
    fn committed_manifest_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = Value::parse(&text).unwrap();
        assert!(
            committed == manifest(),
            "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh manifest`"
        );
    }
}
