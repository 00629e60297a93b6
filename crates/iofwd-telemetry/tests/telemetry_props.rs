//! Property-based tests of the telemetry primitives: histogram merge
//! is a commutative monoid that conserves bucket counts (so sharded
//! recording and cross-snapshot aggregation cannot lose samples), and
//! the JSON codec round-trips every snapshot the writer can emit,
//! integers exactly.

use iofwd_telemetry::hist::{bucket_of, Histogram, BUCKETS, SHARDS};
use iofwd_telemetry::json::Json;
use iofwd_telemetry::{ClientSnapshot, GaugeValue, HistSnapshot, TelemetrySnapshot};
use proptest::prelude::*;

/// Build a snapshot-at-rest from raw samples.
fn hist_of(samples: &[u64]) -> HistSnapshot {
    let mut h = HistSnapshot::default();
    for &s in samples {
        h.record(s);
    }
    h
}

fn merged(a: &HistSnapshot, b: &HistSnapshot) -> HistSnapshot {
    let mut out = *a;
    out.merge(b);
    out
}

proptest! {
    /// merge is associative and commutative with the empty snapshot as
    /// identity — the algebra that lets shards, workers, and periodic
    /// dumps be combined in any grouping or order.
    #[test]
    fn merge_is_a_commutative_monoid(
        xs in proptest::collection::vec(0u64..(1 << 40), 0..50),
        ys in proptest::collection::vec(0u64..(1 << 40), 0..50),
        zs in proptest::collection::vec(0u64..(1 << 40), 0..50),
    ) {
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        prop_assert_eq!(merged(&a, &HistSnapshot::default()), a);
    }

    /// Bucket-count conservation: however samples are striped across a
    /// live histogram's shards, the merged snapshot holds exactly the
    /// recorded population — per bucket, in total, and in sum.
    #[test]
    fn shard_merge_conserves_bucket_counts(
        samples in proptest::collection::vec(
            (0usize..SHARDS * 3, 1u64..(1 << 40)),
            1..200,
        ),
    ) {
        let live = Histogram::new();
        let mut expect = [0u64; BUCKETS];
        let mut sum = 0u64;
        for &(shard, v) in &samples {
            live.record_shard(shard, v);
            expect[bucket_of(v)] += 1;
            sum += v;
        }
        let snap = live.snapshot();
        prop_assert_eq!(snap.buckets, expect);
        prop_assert_eq!(snap.count, samples.len() as u64);
        prop_assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
        prop_assert_eq!(snap.sum, sum);
    }

    /// The JSON writer and reader are exact inverses over the codec's
    /// whole domain: any mix of counters, negative-valued gauges, and
    /// sparse histograms — with names needing every escape the writer
    /// knows — survives a round trip unchanged.
    #[test]
    fn json_snapshot_round_trips(
        counters in proptest::collection::vec((0usize..8, 0u64..u64::MAX), 0..8),
        gauges in proptest::collection::vec(
            (0usize..8, i64::MIN..i64::MAX, i64::MIN..i64::MAX),
            0..6,
        ),
        hists in proptest::collection::vec(
            (0usize..8, proptest::collection::vec(0u64..(1 << 40), 0..30)),
            0..4,
        ),
        clients in proptest::collection::vec(
            (
                0u64..u64::MAX,
                proptest::collection::vec(0u64..u64::MAX, 6..7),
                proptest::collection::vec(0u64..(1 << 40), 0..10),
                proptest::collection::vec(0u64..(1 << 40), 0..10),
            ),
            0..4,
        ),
    ) {
        // Names exercise the quote()/unescape paths: quotes,
        // backslashes, control chars, and non-ASCII.
        let name = |i: usize| {
            ["ops", "a\"b", "c\\d", "e\nf", "g\th", "\r\u{1}", "µops", ""][i].to_string()
        };
        let snap = TelemetrySnapshot {
            counters: counters.iter().map(|&(i, v)| (name(i), v)).collect(),
            gauges: gauges
                .iter()
                .map(|&(i, current, peak)| (name(i), GaugeValue { current, peak }))
                .collect(),
            hists: hists
                .iter()
                .map(|(i, samples)| (name(*i), hist_of(samples)))
                .collect(),
            clients: {
                // The capture path emits rows sorted by unique id; give
                // the codec the same shape.
                let mut rows: Vec<ClientSnapshot> = clients
                    .iter()
                    .map(|(id, c, qw, be)| ClientSnapshot {
                        id: *id,
                        ops: c[0],
                        ops_failed: c[1],
                        bytes_in: c[2],
                        bytes_out: c[3],
                        backpressure_events: c[4],
                        wbuf_high_water: c[5],
                        queue_wait_ns: hist_of(qw),
                        backend_ns: hist_of(be),
                    })
                    .collect();
                rows.sort_by_key(|c| c.id);
                rows.dedup_by_key(|c| c.id);
                rows
            },
        };
        let parsed = TelemetrySnapshot::from_json(&snap.to_json())
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
        prop_assert_eq!(parsed, snap);
    }

    /// Integers never pass through `f64`: counters and gauges at and
    /// around the type limits (and just past 2^53, where a double
    /// starts dropping odd values) come back bit-for-bit, from the
    /// parser and through the snapshot codec.
    #[test]
    fn json_integers_round_trip_exactly_at_the_limits(
        picks in proptest::collection::vec((0usize..6, 0usize..6, 0usize..6), 1..8),
    ) {
        const COUNTERS: [u64; 6] = [
            0,
            (1 << 53) + 1,
            i64::MAX as u64,
            i64::MAX as u64 + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        const LEVELS: [i64; 6] = [
            i64::MIN,
            i64::MIN + 1,
            -(1 << 53) - 1,
            -1,
            (1 << 53) + 1,
            i64::MAX,
        ];
        let snap = TelemetrySnapshot {
            counters: picks
                .iter()
                .enumerate()
                .map(|(n, &(c, _, _))| (format!("c{n}"), COUNTERS[c]))
                .collect(),
            gauges: picks
                .iter()
                .enumerate()
                .map(|(n, &(_, cur, peak))| {
                    (format!("g{n}"), GaugeValue { current: LEVELS[cur], peak: LEVELS[peak] })
                })
                .collect(),
            ..TelemetrySnapshot::default()
        };
        let text = snap.to_json();
        let doc = Json::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
        for (name, v) in &snap.counters {
            let got = doc.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64);
            prop_assert_eq!(got, Some(*v));
        }
        for (name, g) in &snap.gauges {
            let field = |f: &str| {
                doc.get("gauges")
                    .and_then(|gs| gs.get(name))
                    .and_then(|g| g.get(f))
                    .and_then(Json::as_i64)
            };
            prop_assert_eq!(field("current"), Some(g.current));
            prop_assert_eq!(field("peak"), Some(g.peak));
        }
        let parsed = TelemetrySnapshot::from_json(&text)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
        prop_assert_eq!(parsed, snap);
    }
}
