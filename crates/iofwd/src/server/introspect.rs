//! Live introspection plane: answers [`Request::Stats`] queries.
//!
//! A stats query never touches the work queue, the BML, or the
//! descriptor database — [`answer`] is pure memory reads against the
//! telemetry registry — so the daemon keeps answering `iofwd-cp stats`
//! even when the data path is wedged behind a stalled backend. That is
//! the whole point: the moment you most need introspection is the
//! moment the work queue stops moving.
//!
//! Queries arrive in-band, as a `Request::Stats` frame on any client
//! connection: the admission core intercepts it right after decode
//! (`admit::accept`, both transports) and replies before any credit
//! check or enqueue. A frame that needs no payload needs no BML block,
//! so a fresh connection is answered even when every data connection
//! is parked under backpressure.
//!
//! [`Request::Stats`]: iofwd_proto::Request::Stats

use bytes::Bytes;
use iofwd_proto::{Response, StatsQuery};

use crate::telemetry::{snapshot, Telemetry};

/// Ring points folded into a rates reply: at the daemon's 1 s
/// time-series tick this is a ~10 s window — long enough to smooth
/// scheduling jitter, short enough to track a phase change.
const RATES_WINDOW_POINTS: usize = 10;

/// Render the reply for one stats query. Reads counters, gauges,
/// histogram shards, the per-client table, and the time-series ring;
/// takes no lock any data-path operation ever holds while blocking.
/// The payload length rides in `Response::Ok::ret` so existing clients
/// need no new response variant.
pub(crate) fn answer(telemetry: &Telemetry, query: StatsQuery) -> (Response, Bytes) {
    let text = match query {
        StatsQuery::Snapshot => snapshot::capture(telemetry).to_json(),
        StatsQuery::Rates => {
            snapshot::render_rates_json(&telemetry.timeseries.rates(RATES_WINDOW_POINTS))
        }
        StatsQuery::Prometheus => {
            let rates = telemetry.timeseries.rates(RATES_WINDOW_POINTS);
            snapshot::capture(telemetry).render_prometheus(Some(&rates))
        }
    };
    let data = Bytes::from(text.into_bytes());
    (
        Response::Ok {
            ret: data.len() as i64,
        },
        data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetrySnapshot;

    #[test]
    fn answer_renders_all_three_queries() {
        let telemetry = Telemetry::new();
        telemetry.ops_completed.add(41);
        telemetry.tick_timeseries();
        telemetry.ops_completed.add(1);
        telemetry.tick_timeseries();

        let (resp, data) = answer(&telemetry, StatsQuery::Snapshot);
        assert!(matches!(resp, Response::Ok { ret } if ret == data.len() as i64));
        let snap = TelemetrySnapshot::from_json(std::str::from_utf8(&data).expect("utf8"))
            .expect("snapshot json parses");
        assert_eq!(snap.counter("ops_completed"), 42);

        let (resp, data) = answer(&telemetry, StatsQuery::Rates);
        assert!(matches!(resp, Response::Ok { .. }));
        let text = std::str::from_utf8(&data).expect("utf8");
        assert!(text.contains("\"ops_per_s\""), "rates json: {text}");

        let (resp, data) = answer(&telemetry, StatsQuery::Prometheus);
        assert!(matches!(resp, Response::Ok { .. }));
        let text = std::str::from_utf8(&data).expect("utf8");
        snapshot::validate_prometheus(text).expect("prometheus text parses");
    }
}
