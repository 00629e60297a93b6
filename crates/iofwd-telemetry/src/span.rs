//! Per-op lifecycle spans.
//!
//! A span timestamps one forwarded operation at each pipeline stage —
//! arrival → queue → dispatch → backend start → backend done → reply —
//! mirroring the paper's stage-by-stage decomposition (tree network /
//! ION processing / storage hop). Spans are plain `Copy` structs of
//! `u64` nanoseconds; recording one never allocates. Timestamps are
//! relative to the owning [`crate::Telemetry`]'s origin; a stage that
//! never happened is 0 (stage durations saturate to 0 around it).

/// Coarse operation class a span belongs to. Deliberately coarser than
/// the wire `Request` enum: the stages of interest (queue wait, backend
/// service) behave the same for all metadata ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OpKind {
    Open,
    Write,
    Read,
    Fsync,
    Close,
    /// stat/fstat/seek/truncate/unlink/mkdir/readdir — cheap metadata.
    Meta,
    /// Streaming-socket connect (DA-node sink).
    Connect,
    /// Session control (shutdown and anything non-I/O).
    #[default]
    Control,
}

impl OpKind {
    pub const ALL: [OpKind; 8] = [
        OpKind::Open,
        OpKind::Write,
        OpKind::Read,
        OpKind::Fsync,
        OpKind::Close,
        OpKind::Meta,
        OpKind::Connect,
        OpKind::Control,
    ];

    pub fn code(self) -> u64 {
        match self {
            OpKind::Open => 0,
            OpKind::Write => 1,
            OpKind::Read => 2,
            OpKind::Fsync => 3,
            OpKind::Close => 4,
            OpKind::Meta => 5,
            OpKind::Connect => 6,
            OpKind::Control => 7,
        }
    }

    pub fn from_code(code: u64) -> OpKind {
        match code {
            0 => OpKind::Open,
            1 => OpKind::Write,
            2 => OpKind::Read,
            3 => OpKind::Fsync,
            4 => OpKind::Close,
            5 => OpKind::Meta,
            6 => OpKind::Connect,
            _ => OpKind::Control,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Open => "open",
            OpKind::Write => "write",
            OpKind::Read => "read",
            OpKind::Fsync => "fsync",
            OpKind::Close => "close",
            OpKind::Meta => "meta",
            OpKind::Connect => "connect",
            OpKind::Control => "control",
        }
    }
}

/// How an op's lifecycle ended. `Completed` covers the normal path
/// (including ops that *failed with a reply* — `ok`/`errno` carry the
/// outcome); the other variants mark the degraded paths a post-mortem
/// flight-recorder read needs to distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Disposition {
    /// Normal lifecycle: executed (or failed) and replied.
    #[default]
    Completed,
    /// Never answered by its executor: rejected at enqueue time because
    /// the work queue had closed (shutdown race; the client saw EAGAIN),
    /// or its reply route dropped unanswered (a worker's unwind; EIO).
    /// Either way the connection is closed behind the reply.
    QueueRejected,
    /// Picked up by the shutdown drain and executed late.
    DrainExecuted,
    /// Abandoned by the shutdown drain: never executed, failure parked
    /// as a deferred error.
    DrainDeferred,
}

impl Disposition {
    pub fn code(self) -> u64 {
        match self {
            Disposition::Completed => 0,
            Disposition::QueueRejected => 1,
            Disposition::DrainExecuted => 2,
            Disposition::DrainDeferred => 3,
        }
    }

    pub fn from_code(code: u64) -> Disposition {
        match code & 0b11 {
            1 => Disposition::QueueRejected,
            2 => Disposition::DrainExecuted,
            3 => Disposition::DrainDeferred,
            _ => Disposition::Completed,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Disposition::Completed => "done",
            Disposition::QueueRejected => "rejected",
            Disposition::DrainExecuted => "drained",
            Disposition::DrainDeferred => "deferred",
        }
    }
}

/// One op's lifecycle. All timestamps are nanoseconds since the owning
/// `Telemetry`'s origin; 0 means "stage not reached / not applicable".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpSpan {
    pub kind: OpKind,
    pub client: u64,
    pub seq: u64,
    /// Payload bytes moved (in for writes, out for reads).
    pub bytes: u64,
    pub ok: bool,
    /// Distributed-trace id propagated from the client; 0 = untraced.
    pub trace_id: u64,
    /// A tracing client flagged this op sampled; trace readers filter on it.
    pub sampled: bool,
    /// Pool worker that executed the op, 1-based; 0 = not executed by a
    /// pool worker (inline handler, proxy thread, or never executed).
    pub worker: u32,
    /// Wire errno of the failure (`Errno::to_wire`); 0 = no error.
    pub errno: u32,
    /// How the lifecycle ended (normal / rejected / drain paths).
    pub disposition: Disposition,
    pub arrival_ns: u64,
    pub enqueue_ns: u64,
    pub dispatch_ns: u64,
    pub backend_start_ns: u64,
    pub backend_done_ns: u64,
    pub reply_ns: u64,
}

impl OpSpan {
    /// Words in the fixed flight-recorder encoding.
    pub const WORDS: usize = 11;

    pub fn begin(kind: OpKind, client: u64, seq: u64, arrival_ns: u64) -> OpSpan {
        OpSpan {
            kind,
            client,
            seq,
            bytes: 0,
            ok: true,
            trace_id: 0,
            sampled: false,
            worker: 0,
            errno: 0,
            disposition: Disposition::Completed,
            arrival_ns,
            enqueue_ns: 0,
            dispatch_ns: 0,
            backend_start_ns: 0,
            backend_done_ns: 0,
            reply_ns: 0,
        }
    }

    /// Time spent parked in the scheduling stage (work queue or shm
    /// channel) before a worker picked the op up.
    pub fn queue_wait_ns(&self) -> u64 {
        self.dispatch_ns.saturating_sub(self.enqueue_ns)
    }

    /// Backend service time.
    pub fn service_ns(&self) -> u64 {
        self.backend_done_ns.saturating_sub(self.backend_start_ns)
    }

    /// Dispatch overhead: picked off the queue → backend call issued.
    pub fn dispatch_lag_ns(&self) -> u64 {
        self.backend_start_ns.saturating_sub(self.dispatch_ns)
    }

    /// Reply marshalling lag: backend done → reply stamped. 0 for
    /// staged writes, whose ack precedes backend completion.
    pub fn reply_lag_ns(&self) -> u64 {
        self.reply_ns.saturating_sub(self.backend_done_ns)
    }

    /// Arrival-to-last-stamp latency. For staged writes the reply
    /// precedes backend completion, so the later of the two wins.
    pub fn total_ns(&self) -> u64 {
        let end = self.reply_ns.max(self.backend_done_ns);
        end.saturating_sub(self.arrival_ns)
    }

    /// Fixed-width encoding for the flight-recorder ring. Word 2 packs
    /// the small fields: bits 0–7 kind, 8 ok, 9 sampled, 10–11
    /// disposition, 16–23 worker (saturated), 32–63 errno.
    pub fn encode(&self) -> [u64; Self::WORDS] {
        let packed = self.kind.code()
            | (u64::from(self.ok) << 8)
            | (u64::from(self.sampled) << 9)
            | (self.disposition.code() << 10)
            | (u64::from(self.worker.min(0xff) as u8) << 16)
            | (u64::from(self.errno) << 32);
        [
            self.client,
            self.seq,
            packed,
            self.bytes,
            self.arrival_ns,
            self.enqueue_ns,
            self.dispatch_ns,
            self.backend_start_ns,
            self.backend_done_ns,
            self.reply_ns,
            self.trace_id,
        ]
    }

    pub fn decode(words: &[u64; Self::WORDS]) -> OpSpan {
        OpSpan {
            client: words[0],
            seq: words[1],
            kind: OpKind::from_code(words[2] & 0xff),
            ok: (words[2] >> 8) & 1 == 1,
            sampled: (words[2] >> 9) & 1 == 1,
            disposition: Disposition::from_code(words[2] >> 10),
            worker: ((words[2] >> 16) & 0xff) as u32,
            errno: (words[2] >> 32) as u32,
            bytes: words[3],
            arrival_ns: words[4],
            enqueue_ns: words[5],
            dispatch_ns: words[6],
            backend_start_ns: words[7],
            backend_done_ns: words[8],
            reply_ns: words[9],
            trace_id: words[10],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        for kind in OpKind::ALL {
            let mut s = OpSpan::begin(kind, 7, 42, 100);
            s.bytes = 4096;
            s.ok = kind != OpKind::Fsync;
            s.trace_id = 0xAB00_0000_0000_0001 | kind.code();
            s.sampled = kind == OpKind::Write;
            s.worker = kind.code() as u32;
            s.errno = if s.ok { 0 } else { 5 };
            s.disposition = Disposition::from_code(kind.code());
            s.enqueue_ns = 110;
            s.dispatch_ns = 150;
            s.backend_start_ns = 151;
            s.backend_done_ns = 300;
            s.reply_ns = 310;
            assert_eq!(OpSpan::decode(&s.encode()), s);
        }
    }

    #[test]
    fn stage_durations() {
        let mut s = OpSpan::begin(OpKind::Write, 1, 1, 100);
        s.enqueue_ns = 120;
        s.dispatch_ns = 200;
        s.backend_start_ns = 210;
        s.backend_done_ns = 400;
        s.reply_ns = 250; // staged: ack precedes backend completion
        assert_eq!(s.queue_wait_ns(), 80);
        assert_eq!(s.dispatch_lag_ns(), 10);
        assert_eq!(s.service_ns(), 190);
        assert_eq!(s.reply_lag_ns(), 0); // ack before completion saturates
        assert_eq!(s.total_ns(), 300);
    }

    #[test]
    fn disposition_codes_round_trip() {
        for d in [
            Disposition::Completed,
            Disposition::QueueRejected,
            Disposition::DrainExecuted,
            Disposition::DrainDeferred,
        ] {
            assert_eq!(Disposition::from_code(d.code()), d);
        }
    }

    #[test]
    fn oversized_worker_saturates_in_ring_encoding() {
        let mut s = OpSpan::begin(OpKind::Write, 1, 1, 0);
        s.worker = 1000;
        assert_eq!(OpSpan::decode(&s.encode()).worker, 0xff);
    }

    #[test]
    fn kind_codes_round_trip() {
        for kind in OpKind::ALL {
            assert_eq!(OpKind::from_code(kind.code()), kind);
        }
    }
}
