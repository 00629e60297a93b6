//! Live introspection plane: answers [`Request::Stats`] queries.
//!
//! A stats query never touches the work queue, the BML, or the
//! descriptor database — [`answer`] is pure memory reads against the
//! telemetry registry — so the daemon keeps answering `iofwd-cp stats`
//! even when the data path is wedged behind a stalled backend. That is
//! the whole point: the moment you most need introspection is the
//! moment the work queue stops moving.
//!
//! Queries arrive on two paths:
//!
//! - **In-band**: a `Request::Stats` frame on a normal client
//!   connection. The admission core intercepts it right after decode
//!   (`admit::accept`, both transports) and replies before any credit
//!   check or enqueue.
//! - **Out-of-band**: a dedicated `--stats-addr` TCP listener served by
//!   [`spawn`]. This port speaks the same framed protocol but accepts
//!   *only* stats queries, so an operator can always get a socket even
//!   when every data connection is parked under backpressure.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use iofwd_proto::{Errno, Frame, Request, Response, StatsQuery};

use crate::telemetry::{snapshot, Telemetry};
use crate::transport::tcp::TcpAcceptor;
use crate::transport::{Conn, Listener};

/// Ring points folded into a rates reply: at the daemon's 1 s
/// time-series tick this is a ~10 s window — long enough to smooth
/// scheduling jitter, short enough to track a phase change.
pub const RATES_WINDOW_POINTS: usize = 10;

/// Render the reply for one stats query. Reads counters, gauges,
/// histogram shards, the per-client table, and the time-series ring;
/// takes no lock any data-path operation ever holds while blocking.
/// The payload length rides in `Response::Ok::ret` so existing clients
/// need no new response variant.
pub fn answer(telemetry: &Telemetry, query: StatsQuery) -> (Response, Bytes) {
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

/// The out-of-band stats listener. Dropping without
/// [`shutdown`](IntrospectHandle::shutdown) detaches the accept thread.
pub struct IntrospectHandle {
    acceptor: Arc<TcpAcceptor>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl IntrospectHandle {
    /// The bound address (useful with a `:0` bind in tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread. Per-connection
    /// threads exit when their client hangs up.
    pub fn shutdown(mut self) {
        self.acceptor.shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Serve one stats connection: only `Request::Stats` is honored;
/// anything else (including data ops aimed at the wrong port) gets
/// `Errno::Inval`. `if let` rather than a `match` over `Request` so the
/// wire enum keeps exactly one exhaustive dispatch site (lint R3).
fn serve_conn(conn: Box<dyn Conn>, telemetry: &Telemetry) {
    while let Ok(Some(frame)) = conn.recv() {
        let (resp, data) = if let Ok(Request::Stats { query }) = frame.decode_request() {
            answer(telemetry, query)
        } else {
            (
                Response::Err {
                    errno: Errno::Inval,
                },
                Bytes::new(),
            )
        };
        if conn
            .send(Frame::response(frame.client_id, frame.seq, &resp, data))
            .is_err()
        {
            return;
        }
    }
}

/// Bind-and-serve for the `--stats-addr` flag: a thread-per-connection
/// accept loop answering framed stats queries. Connection counts here
/// are tiny (operators and harnesses, not compute nodes), so threads
/// are the simple, correct tool.
pub fn spawn(acceptor: TcpAcceptor, telemetry: Arc<Telemetry>) -> io::Result<IntrospectHandle> {
    let addr = acceptor.local_addr()?;
    let acceptor = Arc::new(acceptor);
    let accept_thread = {
        let acceptor = acceptor.clone();
        std::thread::Builder::new()
            .name("iofwd-stats".into())
            .spawn(move || {
                // Transient accept failures must not kill the stats
                // port; only shutdown() (Ok(None)) ends the loop.
                loop {
                    match acceptor.accept() {
                        Ok(Some(conn)) => {
                            let telemetry = telemetry.clone();
                            let spawned = std::thread::Builder::new()
                                .name("iofwd-stats-conn".into())
                                .spawn(move || serve_conn(conn, &telemetry));
                            // Thread exhaustion: drop the connection;
                            // the client sees EOF and can retry.
                            drop(spawned);
                        }
                        Ok(None) => return,
                        Err(_) => {
                            std::thread::sleep(std::time::Duration::from_millis(10));
                        }
                    }
                }
            })?
    };
    Ok(IntrospectHandle {
        acceptor,
        addr,
        accept_thread: Some(accept_thread),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetrySnapshot;
    use crate::transport::tcp::TcpConn;

    fn query(conn: &TcpConn, seq: u64, q: StatsQuery) -> (Response, Bytes) {
        conn.send(Frame::request(
            0,
            seq,
            &Request::Stats { query: q },
            Bytes::new(),
        ))
        .expect("send");
        let frame = conn.recv().expect("recv").expect("open stream");
        (frame.decode_response().expect("response"), frame.data)
    }

    #[test]
    fn stats_listener_answers_all_three_queries() {
        let telemetry = Arc::new(Telemetry::new());
        telemetry.ops_completed.add(41);
        telemetry.tick_timeseries();
        telemetry.ops_completed.add(1);
        telemetry.tick_timeseries();
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
        let handle = spawn(acceptor, telemetry).expect("spawn stats listener");

        let conn = TcpConn::connect(handle.addr()).expect("connect");
        let (resp, data) = query(&conn, 1, StatsQuery::Snapshot);
        assert!(matches!(resp, Response::Ok { ret } if ret == data.len() as i64));
        let snap = TelemetrySnapshot::from_json(std::str::from_utf8(&data).expect("utf8"))
            .expect("snapshot json parses");
        assert_eq!(snap.counter("ops_completed"), 42);

        let (resp, data) = query(&conn, 2, StatsQuery::Rates);
        assert!(matches!(resp, Response::Ok { .. }));
        let text = std::str::from_utf8(&data).expect("utf8");
        assert!(text.contains("\"ops_per_s\""), "rates json: {text}");

        let (resp, data) = query(&conn, 3, StatsQuery::Prometheus);
        assert!(matches!(resp, Response::Ok { .. }));
        let text = std::str::from_utf8(&data).expect("utf8");
        snapshot::validate_prometheus(text).expect("prometheus text parses");

        handle.shutdown();
    }

    #[test]
    fn non_stats_requests_on_the_stats_port_get_inval() {
        let telemetry = Arc::new(Telemetry::new());
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
        let handle = spawn(acceptor, telemetry).expect("spawn stats listener");
        let conn = TcpConn::connect(handle.addr()).expect("connect");
        conn.send(Frame::request(0, 1, &Request::Shutdown, Bytes::new()))
            .expect("send");
        let frame = conn.recv().expect("recv").expect("open stream");
        assert!(matches!(
            frame.decode_response().expect("response"),
            Response::Err {
                errno: Errno::Inval
            }
        ));
        handle.shutdown();
    }
}
