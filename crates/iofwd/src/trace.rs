//! Distributed tracing & bottleneck attribution.
//!
//! The paper's 66 % → 83 % efficiency argument rests on *attributing*
//! client-observed latency to the server-side stage that produced it
//! (§III/§V): ION resource contention shows up as queue wait under the
//! thread-per-CN strategies and moves into backend service time once a
//! scheduled worker pool owns the I/O. This module turns that analysis
//! into a first-class artifact, in three pieces:
//!
//! 1. [`render_chrome_trace`] — Chrome trace-event JSON over the
//!    flight recorder's spans, loadable in Perfetto / `chrome://tracing`
//!    (`iofwd-cp trace ADDR OUT` polls them over the stats wire protocol
//!    and writes it). Client tracks (pid 1) show per-op residency and
//!    queue wait; worker tracks (pid 2) show which pool worker executed
//!    the backend call, so worker contention is visible on a timeline; a
//!    `queue_depth` counter track shows scheduler backlog over time.
//! 2. [`validate_chrome_trace`] — a schema check over the exported JSON
//!    (used by `iofwd-cp trace FILE` and the CI gate), read through
//!    the workspace's one JSON parser (`telemetry::json`).
//! 3. [`StageBreakdown`] — per-strategy stage attribution (queue-wait /
//!    dispatch / backend / reply / other shares of total residency),
//!    computed either from a telemetry snapshot's histogram sums or
//!    from raw spans; `experiments figures bottleneck` and `iofwd-cp --trace`
//!    print its verdict.
//!
//! Sampling is a flag, not a buffer: the daemon retains every completed
//! span in its one ring, and a span a tracing client flagged carries
//! `sampled` into its slice's args, for a consumer to filter on.
//!
//! Coalesced writes (DESIGN.md §12): when the staged pipeline merges a
//! contiguous chain into one vectored backend call, each constituent op
//! still completes its *own* span — on a timeline the chain renders as
//! stacked per-op slices sharing one `dispatch_ns`/backend interval
//! (the batch genuinely occupied the backend once, on behalf of all of
//! them), while `enqueue_ns` stays per-op, so queue-wait attribution
//! remains correct per constituent.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::telemetry::json::{quote, Json};
use crate::telemetry::{OpSpan, TelemetrySnapshot};

// ---------------------------------------------------------------------
// Chrome trace-event rendering
// ---------------------------------------------------------------------

/// Client tracks live in this synthetic process.
const PID_CLIENTS: u64 = 1;
/// Worker tracks live in this synthetic process.
const PID_WORKERS: u64 = 2;

struct Event {
    ts_ns: u64,
    json: String,
}

/// Render spans as a Chrome trace-event JSON document (the `{"traceEvents":
/// [...]}` object form), loadable in Perfetto. Tracks:
///
/// * pid 1 / tid `client+1` — one track per client: an `X` slice per op
///   (arrival → end of residency) plus a nested `queue` slice while the
///   op sat in the scheduling stage;
/// * pid 2 / tid `worker` — one track per pool worker: an `X` slice per
///   backend execution, making worker contention visible;
/// * a `queue_depth` `C` (counter) series derived from enqueue/dispatch
///   edges.
///
/// Timestamps are microseconds (Chrome's unit) with nanosecond
/// fractions, relative to the daemon telemetry origin. Non-metadata
/// events are emitted in non-decreasing `ts` order.
pub fn render_chrome_trace(spans: &[OpSpan]) -> String {
    let mut meta: Vec<String> = Vec::new();
    let mut clients = BTreeSet::new();
    let mut workers = BTreeSet::new();
    for s in spans {
        clients.insert(s.client);
        if s.worker > 0 {
            workers.insert(u64::from(s.worker));
        }
    }
    meta.push(meta_event("process_name", PID_CLIENTS, 0, "iofwd clients"));
    for &c in &clients {
        meta.push(meta_event(
            "thread_name",
            PID_CLIENTS,
            c + 1,
            &format!("cn {c}"),
        ));
    }
    if !workers.is_empty() {
        meta.push(meta_event("process_name", PID_WORKERS, 0, "iofwd workers"));
        for &w in &workers {
            meta.push(meta_event(
                "thread_name",
                PID_WORKERS,
                w,
                &format!("worker {}", w - 1),
            ));
        }
    }

    let mut events: Vec<Event> = Vec::with_capacity(spans.len() * 3);
    let mut depth_edges: Vec<(u64, i64)> = Vec::new();
    for s in spans {
        let tid = s.client + 1;
        let mut args = String::new();
        let _ = write!(
            args,
            "\"seq\":{},\"bytes\":{},\"ok\":{},\"errno\":{},\"disposition\":{},\
             \"trace_id\":{},\"worker\":{},\"sampled\":{}",
            s.seq,
            s.bytes,
            s.ok,
            s.errno,
            quote(s.disposition.name()),
            quote(&format!("{:#x}", s.trace_id)),
            s.worker,
            s.sampled,
        );
        events.push(slice_event(
            s.kind.name(),
            "op",
            PID_CLIENTS,
            tid,
            s.arrival_ns,
            s.total_ns(),
            &args,
        ));
        if s.queue_wait_ns() > 0 {
            events.push(slice_event(
                "queue",
                "queue",
                PID_CLIENTS,
                tid,
                s.enqueue_ns,
                s.queue_wait_ns(),
                "",
            ));
        }
        if s.worker > 0 && s.service_ns() > 0 {
            events.push(slice_event(
                s.kind.name(),
                "backend",
                PID_WORKERS,
                u64::from(s.worker),
                s.backend_start_ns,
                s.service_ns(),
                &format!("\"client\":{},\"seq\":{}", s.client, s.seq),
            ));
        }
        if s.enqueue_ns > 0 && s.dispatch_ns >= s.enqueue_ns {
            depth_edges.push((s.enqueue_ns, 1));
            depth_edges.push((s.dispatch_ns, -1));
        }
    }
    depth_edges.sort_unstable();
    let mut depth: i64 = 0;
    for (ts_ns, delta) in depth_edges {
        depth += delta;
        events.push(Event {
            ts_ns,
            json: format!(
                "{{\"name\":\"queue_depth\",\"ph\":\"C\",\"pid\":{PID_CLIENTS},\"tid\":0,\
                 \"ts\":{},\"args\":{{\"depth\":{}}}}}",
                us(ts_ns),
                depth.max(0)
            ),
        });
    }
    events.sort_by_key(|e| e.ts_ns);

    let mut out = String::with_capacity(64 + meta.len() * 80 + events.len() * 160);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for e in meta
        .iter()
        .map(String::as_str)
        .chain(events.iter().map(|e| e.json.as_str()))
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(e);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Microseconds with nanosecond fractions, Chrome's `ts`/`dur` unit.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn meta_event(name: &str, pid: u64, tid: u64, value: &str) -> String {
    format!(
        "{{\"name\":{},\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
        quote(name),
        quote(value)
    )
}

fn slice_event(
    name: &str,
    cat: &str,
    pid: u64,
    tid: u64,
    ts_ns: u64,
    dur_ns: u64,
    args: &str,
) -> Event {
    let mut json = format!(
        "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{}",
        quote(name),
        quote(cat),
        us(ts_ns),
        us(dur_ns)
    );
    if args.is_empty() {
        json.push('}');
    } else {
        let _ = write!(json, ",\"args\":{{{args}}}}}");
    }
    Event { ts_ns, json }
}

// ---------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------

/// What a valid exported trace contained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    pub events: usize,
    /// `ph:"X"` duration slices.
    pub slices: usize,
    /// `ph:"C"` counter samples.
    pub counter_events: usize,
    /// Distinct client tracks (pid 1 tids with slices).
    pub client_tracks: usize,
    /// Distinct worker tracks (pid 2 tids with slices).
    pub worker_tracks: usize,
    /// Latest slice end (`ts + dur`), microseconds.
    pub span_us: f64,
}

/// Validate an exported Chrome trace-event document against the schema
/// [`render_chrome_trace`] emits: a `traceEvents` array whose events
/// carry `name`/`ph`/`pid`/`tid`, with non-negative `ts`/`dur` on
/// slices, positive (non-zero) slice track ids, and non-decreasing
/// timestamps across non-metadata events.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let root = Json::parse(text)?;
    let events = root
        .get("traceEvents")
        .ok_or_else(|| "missing `traceEvents`".to_string())?
        .as_arr()
        .ok_or_else(|| "`traceEvents` is not an array".to_string())?;
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    let mut client_tids = BTreeSet::new();
    let mut worker_tids = BTreeSet::new();
    let mut last_ts = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string `name`"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string `ph`"))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric `pid`"))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric `tid`"))?;
        if pid < 1.0 || tid < 0.0 {
            return Err(format!("event {i} (`{name}`): bad track id {pid}/{tid}"));
        }
        match ph {
            "M" => continue, // metadata carries no timestamp
            "X" | "C" => {}
            other => return Err(format!("event {i} (`{name}`): unknown ph `{other}`")),
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} (`{name}`): missing numeric `ts`"))?;
        if ts < 0.0 {
            return Err(format!("event {i} (`{name}`): negative ts"));
        }
        if ts < last_ts {
            return Err(format!(
                "event {i} (`{name}`): timestamps not monotone ({ts} after {last_ts})"
            ));
        }
        last_ts = ts;
        if ph == "C" {
            summary.counter_events += 1;
            continue;
        }
        let dur = ev
            .get("dur")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} (`{name}`): slice missing numeric `dur`"))?;
        if dur < 0.0 {
            return Err(format!("event {i} (`{name}`): negative dur"));
        }
        if tid < 1.0 {
            return Err(format!("event {i} (`{name}`): slice on reserved tid 0"));
        }
        summary.slices += 1;
        summary.span_us = summary.span_us.max(ts + dur);
        if pid == PID_CLIENTS as f64 {
            client_tids.insert(tid as u64);
        } else if pid == PID_WORKERS as f64 {
            worker_tids.insert(tid as u64);
        }
    }
    summary.client_tracks = client_tids.len();
    summary.worker_tracks = worker_tids.len();
    Ok(summary)
}

// ---------------------------------------------------------------------
// Bottleneck attribution
// ---------------------------------------------------------------------

/// Aggregate stage attribution: how total server residency splits
/// across the lifecycle stages, per strategy. The paper's contention
/// argument in one struct: thread-per-CN strategies put the dominant
/// share in queue wait (ops parked behind contended handler threads),
/// worker-pool strategies move it into backend service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    pub ops: u64,
    pub queue_ns: u64,
    pub dispatch_ns: u64,
    pub backend_ns: u64,
    pub reply_ns: u64,
    pub total_ns: u64,
}

impl StageBreakdown {
    /// From a telemetry snapshot's histogram sums (covers every
    /// completed op, not just the flight recorder's last N).
    pub fn from_snapshot(snap: &TelemetrySnapshot) -> StageBreakdown {
        let sum = |name: &str| snap.hist(name).map_or(0, |h| h.sum);
        StageBreakdown {
            ops: snap.hist("total_ns").map_or(0, |h| h.count),
            queue_ns: sum("queue_wait_ns"),
            dispatch_ns: sum("dispatch_lag_ns"),
            backend_ns: sum("service_ns"),
            reply_ns: sum("reply_lag_ns"),
            total_ns: sum("total_ns"),
        }
    }

    /// From raw spans (a flight-recorder read).
    pub fn from_spans(spans: &[OpSpan]) -> StageBreakdown {
        let mut b = StageBreakdown::default();
        for s in spans {
            b.ops += 1;
            b.queue_ns += s.queue_wait_ns();
            b.dispatch_ns += s.dispatch_lag_ns();
            b.backend_ns += s.service_ns();
            b.reply_ns += s.reply_lag_ns();
            b.total_ns += s.total_ns();
        }
        b
    }

    /// Server time not attributed to a named stage (handler overhead
    /// between stamps).
    pub fn other_ns(&self) -> u64 {
        self.total_ns
            .saturating_sub(self.queue_ns + self.dispatch_ns + self.backend_ns + self.reply_ns)
    }

    /// `(stage name, share of total)` for every stage, fixed order.
    pub fn shares(&self) -> [(&'static str, f64); 5] {
        let total = self.total_ns.max(1) as f64;
        [
            ("queue-wait", self.queue_ns as f64 / total),
            ("dispatch", self.dispatch_ns as f64 / total),
            ("backend", self.backend_ns as f64 / total),
            ("reply", self.reply_ns as f64 / total),
            ("other", self.other_ns() as f64 / total),
        ]
    }

    /// The stage with the largest share of total residency.
    pub fn dominant(&self) -> (&'static str, f64) {
        let mut best = ("other", 0.0);
        for (name, share) in self.shares() {
            if share > best.1 {
                best = (name, share);
            }
        }
        best
    }

    /// Multi-line report: one row per stage plus the dominant verdict.
    pub fn render(&self, label: &str) -> String {
        let mut out = String::with_capacity(256);
        let _ = writeln!(
            out,
            "{label}: {} ops, {:.2} ms total server residency",
            self.ops,
            self.total_ns as f64 / 1e6
        );
        for (name, share) in self.shares() {
            let ns = match name {
                "queue-wait" => self.queue_ns,
                "dispatch" => self.dispatch_ns,
                "backend" => self.backend_ns,
                "reply" => self.reply_ns,
                _ => self.other_ns(),
            };
            let _ = writeln!(
                out,
                "  {name:<12} {:>10.3} ms  {:>5.1}%",
                ns as f64 / 1e6,
                share * 100.0
            );
        }
        let (stage, share) = self.dominant();
        let _ = writeln!(
            out,
            "  dominant stage: {stage} ({:.1}% of server residency)",
            share * 100.0
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Disposition, OpKind};

    fn span(client: u64, seq: u64, worker: u32) -> OpSpan {
        let mut s = OpSpan::begin(OpKind::Write, client, seq, 1_000 * seq);
        s.bytes = 4096;
        s.trace_id = (client << 32) | seq;
        s.sampled = true;
        s.worker = worker;
        s.enqueue_ns = s.arrival_ns + 100;
        s.dispatch_ns = s.enqueue_ns + 400;
        s.backend_start_ns = s.dispatch_ns + 50;
        s.backend_done_ns = s.backend_start_ns + 2_000;
        s.reply_ns = s.backend_done_ns + 150;
        s
    }

    #[test]
    fn rendered_trace_validates_with_expected_tracks() {
        let spans = [span(0, 1, 1), span(0, 2, 2), span(3, 3, 1)];
        let doc = render_chrome_trace(&spans);
        let summary = validate_chrome_trace(&doc).expect("valid trace");
        // 3 op slices + 3 queue slices + 3 backend slices.
        assert_eq!(summary.slices, 9);
        assert_eq!(summary.client_tracks, 2); // clients 0 and 3
        assert_eq!(summary.worker_tracks, 2); // workers 1 and 2
        assert_eq!(summary.counter_events, 6); // enqueue+dispatch per span
        assert!(summary.span_us > 0.0);
    }

    #[test]
    fn empty_trace_is_still_well_formed() {
        let doc = render_chrome_trace(&[]);
        let summary = validate_chrome_trace(&doc).expect("valid");
        assert_eq!(summary.slices, 0);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
        // Slice without a duration.
        let doc = "{\"traceEvents\":[{\"name\":\"w\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0}]}";
        assert!(validate_chrome_trace(doc).is_err());
        // Non-monotone timestamps.
        let doc = "{\"traceEvents\":[\
                   {\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":5,\"dur\":1},\
                   {\"name\":\"b\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":4,\"dur\":1}]}";
        assert!(validate_chrome_trace(doc).is_err());
        // Slice on the reserved counter tid.
        let doc = "{\"traceEvents\":[{\"name\":\"w\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0,\"dur\":1}]}";
        assert!(validate_chrome_trace(doc).is_err());
    }

    #[test]
    fn breakdown_attributes_dominant_stage() {
        let b = StageBreakdown::from_spans(&[span(1, 1, 1), span(1, 2, 1)]);
        assert_eq!(b.ops, 2);
        assert_eq!(b.backend_ns, 4_000);
        assert_eq!(b.queue_ns, 800);
        let (stage, share) = b.dominant();
        assert_eq!(stage, "backend");
        assert!(share > 0.5);
        let report = b.render("sched");
        assert!(report.contains("dominant stage: backend"));
    }

    #[test]
    fn disposition_names_appear_in_trace_args() {
        let mut s = span(1, 1, 0);
        s.disposition = Disposition::DrainDeferred;
        s.ok = false;
        s.errno = 5;
        let doc = render_chrome_trace(&[s]);
        assert!(doc.contains("\"disposition\":\"deferred\""));
        assert!(doc.contains("\"errno\":5"));
        validate_chrome_trace(&doc).expect("valid");
    }
}
