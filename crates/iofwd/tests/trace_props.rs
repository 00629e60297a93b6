//! Property tests of the tracing layer (DESIGN.md §11): the trace-event
//! renderer emits schema-valid JSON with monotone timestamps and
//! well-formed track ids for *any* lifecycle the server can produce;
//! the JSON reader inverts the writer's escaping rules; the flight
//! recorder's ticketed reads return exactly the held records and count
//! exactly the ones a reader missed; and the wire trace extension round-trips at frame level
//! while ext-less frames stay byte-identical to the pre-trace protocol.

use bytes::Bytes;
use iofwd::telemetry::json::{quote, Json};
use iofwd::telemetry::{Disposition, FlightRecorder, OpKind, OpSpan};
use iofwd::trace::{render_chrome_trace, validate_chrome_trace};
use iofwd_proto::{
    Errno, Fd, Frame, Request, Response, StageEcho, TraceContext, TraceExt, TRACE_EXT_FLAG,
};
use proptest::prelude::*;

const DISPOSITIONS: [Disposition; 4] = [
    Disposition::Completed,
    Disposition::QueueRejected,
    Disposition::DrainExecuted,
    Disposition::DrainDeferred,
];

/// One generated lifecycle: identity fields plus the five stage delays
/// accumulated from `arrival_ns`, so stamps are always ordered the way
/// real handlers stamp them (each delay may be zero — a stage can be
/// skipped, e.g. inline ops never park in a queue).
type SpanSpec = (
    (u64, u64, u32, u64),            // client, seq, worker, bytes
    (u64, u64, u64, u64, u64), // stage delays: enqueue, queue-wait, dispatch-lag, backend, reply
    (u64, bool, bool, usize, usize), // arrival, ok, sampled, kind idx, disposition idx
);

fn arb_span_spec() -> impl Strategy<Value = SpanSpec> {
    (
        (0u64..5, 0u64..1_000_000, 0u32..4, 0u64..(1 << 30)),
        (
            0u64..100_000,
            0u64..100_000,
            0u64..100_000,
            0u64..100_000,
            0u64..100_000,
        ),
        (
            0u64..(1 << 32),
            any::<bool>(),
            any::<bool>(),
            0usize..8,
            0usize..4,
        ),
    )
}

fn span_of(spec: &SpanSpec) -> OpSpan {
    let ((client, seq, worker, bytes), (d1, d2, d3, d4, d5), (arrival, ok, sampled, k, d)) = *spec;
    let mut s = OpSpan::begin(OpKind::ALL[k], client, seq, arrival);
    s.bytes = bytes;
    s.ok = ok;
    s.sampled = sampled;
    s.worker = worker;
    s.errno = if ok { 0 } else { Errno::Io.to_wire() };
    s.disposition = DISPOSITIONS[d];
    s.trace_id = (client << 32) | seq;
    s.enqueue_ns = arrival + d1;
    s.dispatch_ns = s.enqueue_ns + d2;
    s.backend_start_ns = s.dispatch_ns + d3;
    s.backend_done_ns = s.backend_start_ns + d4;
    s.reply_ns = s.backend_done_ns + d5;
    s
}

proptest! {
    /// Any batch of well-ordered lifecycles renders to a trace the
    /// schema validator accepts, with exactly the slice, counter, and
    /// track population the renderer's contract promises: one op slice
    /// per span, a queue slice iff the op waited, a worker slice iff a
    /// pool worker spent time on it, and two queue-depth counter edges
    /// per enqueued op.
    #[test]
    fn rendered_traces_validate_with_expected_shape(
        specs in proptest::collection::vec(arb_span_spec(), 0..40),
    ) {
        let spans: Vec<OpSpan> = specs.iter().map(span_of).collect();
        let text = render_chrome_trace(&spans);
        let summary = validate_chrome_trace(&text)
            .map_err(|e| TestCaseError::fail(format!("trace rejected: {e}")))?;

        let queue_slices = spans.iter().filter(|s| s.queue_wait_ns() > 0).count();
        let worker_slices = spans
            .iter()
            .filter(|s| s.worker > 0 && s.service_ns() > 0)
            .count();
        prop_assert_eq!(summary.slices, spans.len() + queue_slices + worker_slices);

        let enqueued = spans.iter().filter(|s| s.enqueue_ns > 0).count();
        prop_assert_eq!(summary.counter_events, 2 * enqueued);

        let clients: std::collections::BTreeSet<u64> =
            spans.iter().map(|s| s.client).collect();
        prop_assert_eq!(summary.client_tracks, clients.len());
        let workers: std::collections::BTreeSet<u32> = spans
            .iter()
            .filter(|s| s.worker > 0 && s.service_ns() > 0)
            .map(|s| s.worker)
            .collect();
        prop_assert_eq!(summary.worker_tracks, workers.len());

        // Metadata (process/thread names) accounts for every remaining
        // event: worker thread names follow executing workers whether
        // or not their slice had nonzero duration.
        let named_workers: std::collections::BTreeSet<u32> = spans
            .iter()
            .filter(|s| s.worker > 0)
            .map(|s| s.worker)
            .collect();
        let meta = 1 + clients.len()
            + if named_workers.is_empty() { 0 } else { 1 + named_workers.len() };
        prop_assert_eq!(summary.events, meta + summary.slices + summary.counter_events);
    }

    /// The JSON reader inverts the writer's escaping rules over
    /// arbitrary strings — quotes, backslashes, control characters, and
    /// non-ASCII code points all survive a parse.
    #[test]
    fn json_reader_inverts_string_escaping(
        codes in proptest::collection::vec(0u32..0xD7FF, 0..60),
    ) {
        let original: String = codes
            .iter()
            .filter_map(|&c| char::from_u32(c))
            .collect();
        let doc = format!("{{\"k\":{}}}", quote(&original));
        let parsed = Json::parse(&doc)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
        prop_assert_eq!(parsed.get("k").and_then(Json::as_str), Some(original.as_str()));
    }

    /// The flight recorder is the only span retention, so its reads carry
    /// the retention contract: for any record count, capacity and
    /// `after`, `since(after)` returns exactly the held tickets `>= after`
    /// (the last `capacity` drawn), in order, each with the span its
    /// writer recorded; `oldest_held - after` is exactly the number of
    /// tickets from `after` on that were overwritten before the read;
    /// and every submission is counted. The reader's `sampled` filter
    /// sees each span's flag as recorded.
    #[test]
    fn exporter_retention_matches_policy(
        capacity in 1usize..8,
        flags in proptest::collection::vec(any::<bool>(), 0..40),
        after in 0u64..48,
    ) {
        let ring = FlightRecorder::new(capacity);
        for (i, &sampled) in flags.iter().enumerate() {
            let mut s = OpSpan::begin(OpKind::Write, 0, i as u64, i as u64 * 1_000);
            s.sampled = sampled;
            prop_assert_eq!(ring.record(&s), i as u64);
        }
        let n = flags.len() as u64;
        let (oldest, next, held) = ring.since(after);
        prop_assert_eq!((oldest, next), (n.saturating_sub(capacity as u64), n));
        let expected: Vec<u64> = (after.max(oldest)..n).collect();
        let tickets: Vec<u64> = held.iter().map(|(t, _)| *t).collect();
        prop_assert_eq!(&tickets, &expected);
        for (t, s) in &held {
            prop_assert_eq!(s.seq, *t);
            prop_assert_eq!(s.sampled, flags[*t as usize]);
        }
        let missed = (after..n).filter(|t| !tickets.contains(t)).count() as u64;
        prop_assert_eq!(missed, oldest.saturating_sub(after));
        prop_assert_eq!((ring.recorded(), ring.dropped()), (n, 0));
    }

    /// The trace extension round-trips at frame level in both
    /// directions: a request's context and a reply's stage echo come
    /// back field-for-field, the kind byte carries the ext flag, and
    /// the streaming decoder consumes exactly the encoded bytes.
    #[test]
    fn trace_ext_round_trips_at_frame_level(
        ids in (any::<u32>(), any::<u64>(), 1u64..u64::MAX, 0u8..4),
        stages in (0u64..(1 << 40), 0u64..(1 << 40), 0u64..(1 << 40), 0u64..(1 << 40), 0u64..(1 << 40)),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        ret in any::<i64>(),
    ) {
        let (client, seq, trace_id, flags) = ids;
        let ctx = TraceContext { trace_id, flags };
        let req = Request::Write { fd: Fd(3), len: payload.len() as u64 };
        let frame = Frame::request(client, seq, &req, Bytes::from(payload.clone()))
            .with_ext(TraceExt::Ctx(ctx));
        let bytes = frame.encode();
        prop_assert_eq!(bytes[3] & TRACE_EXT_FLAG, TRACE_EXT_FLAG);
        let (decoded, consumed) = Frame::decode(&bytes)
            .map_err(|e| TestCaseError::fail(format!("request decode failed: {e}")))?
            .ok_or_else(|| TestCaseError::fail("request decode wanted more bytes".into()))?;
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded.trace_ctx(), Some(ctx));
        prop_assert_eq!(decoded.stage_echo(), None);
        prop_assert_eq!(
            decoded.decode_request()
                .map_err(|e| TestCaseError::fail(format!("meta decode failed: {e}")))?,
            req
        );
        prop_assert_eq!(&decoded.data[..], &payload[..]);

        let (queue_ns, dispatch_ns, backend_ns, reply_ns, total_ns) = stages;
        let echo = StageEcho {
            trace_id, flags, queue_ns, dispatch_ns, backend_ns, reply_ns, total_ns,
        };
        let reply = Frame::response(client, seq, &Response::Ok { ret }, Bytes::new())
            .with_ext(TraceExt::Echo(echo));
        let bytes = reply.encode();
        let (decoded, consumed) = Frame::decode(&bytes)
            .map_err(|e| TestCaseError::fail(format!("reply decode failed: {e}")))?
            .ok_or_else(|| TestCaseError::fail("reply decode wanted more bytes".into()))?;
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded.stage_echo(), Some(echo));
        prop_assert_eq!(
            decoded.stage_echo().map(|e| e.stage_sum_ns()),
            Some(queue_ns + dispatch_ns + backend_ns + reply_ns)
        );
    }

    /// Backward compatibility: a frame without trace data is
    /// byte-identical to the pre-trace protocol (flag bit clear), and
    /// attaching an extension grows the encoding by exactly the
    /// extension's wire length without disturbing meta or payload.
    #[test]
    fn extless_frames_stay_byte_identical(
        client in any::<u32>(),
        seq in any::<u64>(),
        trace_id in 1u64..u64::MAX,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let req = Request::Write { fd: Fd(9), len: payload.len() as u64 };
        let plain = Frame::request(client, seq, &req, Bytes::from(payload.clone()));
        let plain_bytes = plain.encode();
        prop_assert_eq!(plain_bytes[3] & TRACE_EXT_FLAG, 0);

        let ext = TraceExt::Ctx(TraceContext::sampled(trace_id));
        let traced = plain.clone().with_ext(ext);
        let traced_bytes = traced.encode();
        prop_assert_eq!(traced_bytes.len(), plain_bytes.len() + ext.wire_len());
        // Header apart from the kind byte, meta, and data are untouched.
        prop_assert_eq!(&traced_bytes[..3], &plain_bytes[..3]);
        prop_assert_eq!(&traced_bytes[4..24], &plain_bytes[4..24]);
        prop_assert_eq!(&traced_bytes[24 + ext.wire_len()..], &plain_bytes[24..]);

        let (decoded, _) = Frame::decode(&plain_bytes)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?
            .ok_or_else(|| TestCaseError::fail("decode wanted more bytes".into()))?;
        prop_assert_eq!(decoded.ext, None);
        prop_assert_eq!(decoded.encode(), plain_bytes);
    }
}
