//! Tracing from the benchmark's side of each layer boundary: a [`Conn`]
//! decorator that spans every `send` and `recv` of the client's
//! transport and keeps the daemon's echoed stage breakdown, all in memory
//! until the pass ends. Spans inside the daemon are the daemon's
//! business; these are recorded from the benchmark's own files.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use iofwd::transport::Conn;
use iofwd_proto::{Frame, StageEcho};

use crate::json::Value;
use crate::stats::{Class, Sample};

/// One request's trip through the client's transport, keyed by the
/// frame's `(client_id, seq)`. Times are ns since the pass origin.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnSpan {
    pub client_id: u32,
    pub seq: u64,
    pub send_start_ns: u64,
    pub send_end_ns: u64,
    pub recv_start_ns: u64,
    pub recv_end_ns: u64,
    /// The daemon's own stage breakdown for the op, echoed on the reply.
    pub echo: Option<StageEcho>,
}

/// Shared so the spans outlive the `Client` that owns the connection.
pub type SpanLog = Arc<Mutex<Vec<ConnSpan>>>;

pub struct TimedConn<C> {
    inner: C,
    origin: Instant,
    log: SpanLog,
}

impl<C: Conn> TimedConn<C> {
    pub fn new(inner: C, origin: Instant) -> (TimedConn<C>, SpanLog) {
        let log = SpanLog::default();
        (
            TimedConn {
                inner,
                origin,
                log: log.clone(),
            },
            log,
        )
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl<C: Conn> Conn for TimedConn<C> {
    fn send(&self, frame: Frame) -> io::Result<()> {
        let (client_id, seq) = (frame.client_id, frame.seq);
        let send_start_ns = self.now_ns();
        let res = self.inner.send(frame);
        let send_end_ns = self.now_ns();
        self.log.lock().expect("span log poisoned").push(ConnSpan {
            client_id,
            seq,
            send_start_ns,
            send_end_ns,
            ..ConnSpan::default()
        });
        res
    }

    fn recv(&self) -> io::Result<Option<Frame>> {
        let recv_start_ns = self.now_ns();
        let res = self.inner.recv();
        let recv_end_ns = self.now_ns();
        if let Ok(Some(frame)) = &res {
            // Closed loop: the reply belongs to the last request sent.
            let mut log = self.log.lock().expect("span log poisoned");
            if let Some(span) = log.last_mut().filter(|s| s.seq == frame.seq) {
                span.recv_start_ns = recv_start_ns;
                span.recv_end_ns = recv_end_ns;
                span.echo = frame.stage_echo();
            }
        }
        res
    }

    fn close(&self) {
        self.inner.close();
    }
}

/// Where the client-observed time of the traced calls went, summed over
/// the measured interval. `call` is the wall time of the `Client` method;
/// `send`/`recv` the time inside the transport; the rest of `call` is
/// client-side marshalling. The echoed stages are the daemon's.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    pub ops: u64,
    pub writes: u64,
    pub reads: u64,
    pub opens: u64,
    pub call_ns: u64,
    pub send_ns: u64,
    pub recv_ns: u64,
    pub server_total_ns: u64,
    pub queue_ns: u64,
    pub dispatch_ns: u64,
    pub backend_ns: u64,
    pub reply_ns: u64,
}

impl Ledger {
    /// Fold one client's call samples and transport spans. Both are in
    /// call order, one span per call, so they pair up by position; calls
    /// completing outside `[start_ns, end_ns)` are skipped.
    pub fn add_client(
        &mut self,
        samples: &[Sample],
        spans: &[ConnSpan],
        start_ns: u64,
        end_ns: u64,
    ) {
        for (s, span) in samples.iter().zip(spans) {
            if s.end_ns < start_ns || s.end_ns >= end_ns {
                continue;
            }
            let Some(echo) = span.echo else { continue };
            self.ops += 1;
            match s.class {
                Class::Write => self.writes += 1,
                Class::Read => self.reads += 1,
                Class::Open => self.opens += 1,
                Class::Barrier | Class::Meta => {}
            }
            self.call_ns += s.lat_ns;
            self.send_ns += span.send_end_ns - span.send_start_ns;
            self.recv_ns += span.recv_end_ns - span.recv_start_ns;
            self.server_total_ns += echo.total_ns;
            self.queue_ns += echo.queue_ns;
            self.dispatch_ns += echo.dispatch_ns;
            self.backend_ns += echo.backend_ns;
            self.reply_ns += echo.reply_ns;
        }
    }

    /// `ns` summed over the traced calls, per call.
    pub fn per_op(&self, ns: u64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            ns as f64 / self.ops as f64
        }
    }

    /// Client time outside the transport: building the request frame,
    /// copying the payload in and out, decoding the reply.
    pub fn marshal_ns(&self) -> u64 {
        self.call_ns.saturating_sub(self.send_ns + self.recv_ns)
    }

    /// Time in the transport that the daemon does not account for: the
    /// kernel socket path both ways plus wake-ups.
    pub fn network_ns(&self) -> u64 {
        (self.send_ns + self.recv_ns).saturating_sub(self.server_total_ns)
    }

    /// Share of client wall time that no named stage owns: daemon
    /// residency outside its four echoed stages.
    pub fn residual_share(&self) -> f64 {
        if self.call_ns == 0 {
            return 0.0;
        }
        let stages = self.queue_ns + self.dispatch_ns + self.backend_ns + self.reply_ns;
        self.server_total_ns.saturating_sub(stages) as f64 / self.call_ns as f64
    }
}

/// The spans of one traced pass as JSON: per call a `client.call` span
/// with its `client.send` and `client.recv` children and the echoed
/// stages. At most `cap` calls are written (the first ones measured).
pub fn spans_json(
    samples: &[Vec<Sample>],
    spans: &[Vec<ConnSpan>],
    start_ns: u64,
    end_ns: u64,
    cap: usize,
) -> Value {
    let mut out = Vec::new();
    let mut total = 0usize;
    for (samples, spans) in samples.iter().zip(spans) {
        for (s, span) in samples.iter().zip(spans) {
            if s.end_ns < start_ns || s.end_ns >= end_ns {
                continue;
            }
            total += 1;
            if out.len() >= cap {
                continue;
            }
            let id = format!("{}:{}", span.client_id, span.seq);
            let child = |name: &str, start: u64, end: u64| {
                Value::obj()
                    .with("name", name)
                    .with("parent", "client.call")
                    .with("start_ns", start)
                    .with("end_ns", end)
            };
            let mut call = Value::obj()
                .with("id", id)
                .with("name", "client.call")
                .with("class", format!("{:?}", s.class))
                .with("start_ns", s.end_ns - s.lat_ns)
                .with("end_ns", s.end_ns)
                .with(
                    "children",
                    Value::Arr(vec![
                        child("client.send", span.send_start_ns, span.send_end_ns),
                        child("client.recv", span.recv_start_ns, span.recv_end_ns),
                    ]),
                );
            if let Some(e) = span.echo {
                call.set(
                    "server",
                    Value::obj()
                        .with("total_ns", e.total_ns)
                        .with("queue_ns", e.queue_ns)
                        .with("dispatch_ns", e.dispatch_ns)
                        .with("backend_ns", e.backend_ns)
                        .with("reply_ns", e.reply_ns),
                );
            }
            out.push(call);
        }
    }
    Value::obj()
        .with("calls_measured", total)
        .with("calls_written", out.len())
        .with("spans", Value::Arr(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64, send: (u64, u64), recv: (u64, u64), total: u64, backend: u64) -> ConnSpan {
        ConnSpan {
            client_id: 1,
            seq,
            send_start_ns: send.0,
            send_end_ns: send.1,
            recv_start_ns: recv.0,
            recv_end_ns: recv.1,
            echo: Some(StageEcho {
                total_ns: total,
                backend_ns: backend,
                ..StageEcho::default()
            }),
        }
    }

    #[test]
    fn ledger_accounts_for_every_nanosecond_of_the_call() {
        let samples = [
            Sample {
                end_ns: 1_000,
                lat_ns: 100,
                class: Class::Write,
                bytes: 8,
            },
            Sample {
                end_ns: 5_000, // outside the interval
                lat_ns: 100,
                class: Class::Read,
                bytes: 8,
            },
        ];
        let spans = [
            span(1, (910, 940), (940, 990), 40, 25),
            span(2, (0, 0), (0, 0), 0, 0),
        ];
        let mut l = Ledger::default();
        l.add_client(&samples, &spans, 500, 2_000);
        assert_eq!((l.ops, l.writes, l.reads), (1, 1, 0));
        assert_eq!(l.per_op(l.marshal_ns()), 20.0);
        assert_eq!(l.per_op(l.network_ns()), 40.0);
        assert_eq!(l.per_op(l.server_total_ns), 40.0);
        // marshal 20 + network 40 + backend 25 + unowned 15 = 100.
        assert_eq!(l.residual_share(), 0.15);
    }
}
