//! Property tests for `FrameReader`, the partial-read state machine the
//! client and both daemon transports share: whatever the frame sequence
//! and however the stream is cut into reads, it must yield exactly the
//! frames the reference decoder `Frame::decode` yields from the same
//! bytes, never hand out a payload buffer larger than the frame declared,
//! and turn every malformed or truncated stream into an error, not a
//! panic — with its own heap storage, and with a storage hook that hands
//! out BML blocks, late. Seeds are fixed: a failure names the seed that
//! replays it.

use std::io::{self, Read};

use bytes::Bytes;
use iofwd::bml::{Bml, BmlBuffer};
use iofwd_proto::{
    Fd, Frame, FrameReader, Request, Response, StageEcho, Storage, TraceContext, TraceExt,
    FRAME_HEADER_BYTES, MAX_DATA_LEN,
};
use proptest::rng::TestRng;

const SPLIT: usize = Frame::SPLIT_SEND_MIN;
const MIB: usize = 1 << 20;

/// A byte stream served in reads of the given sizes (cycled), with a
/// `WouldBlock` in front of every `block_every`-th read, as a
/// non-blocking socket would.
struct Chunked<'a> {
    data: &'a [u8],
    sizes: Vec<usize>,
    calls: usize,
    block_every: usize,
    blocked: bool,
}

impl<'a> Chunked<'a> {
    fn new(data: &'a [u8], sizes: Vec<usize>, block_every: usize) -> Chunked<'a> {
        Chunked {
            data,
            sizes,
            calls: 0,
            block_every,
            blocked: false,
        }
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        assert!(!buf.is_empty(), "the reader must never issue an empty read");
        if self.block_every > 0 && self.calls.is_multiple_of(self.block_every) && !self.blocked {
            self.blocked = true;
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.blocked = false;
        let size = self.sizes[self.calls % self.sizes.len()];
        self.calls += 1;
        let n = size.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Everything the reader yields from `r`, retrying through `WouldBlock`.
fn read_all(r: &mut impl Read) -> io::Result<Vec<Frame>> {
    read_all_with(r, &mut |_| Storage::Heap)
}

/// [`read_all`] with large payloads landing where `storage` says.
fn read_all_with(
    r: &mut impl Read,
    storage: &mut dyn FnMut(usize) -> Storage,
) -> io::Result<Vec<Frame>> {
    let mut reader = FrameReader::default();
    let mut frames = Vec::new();
    loop {
        match reader.read_frame_with(r, storage) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return Ok(frames),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(e),
        }
    }
}

/// The reference: `Frame::decode` over the contiguous stream.
fn decode_all(mut wire: &[u8]) -> Vec<Frame> {
    let mut frames = Vec::new();
    while let Some((frame, used)) = Frame::decode(wire).expect("reference decode") {
        frames.push(frame);
        wire = &wire[used..];
    }
    assert!(wire.is_empty(), "generated stream ends on a frame boundary");
    frames
}

fn payload(rng: &mut TestRng, len: usize) -> Bytes {
    let mut v = vec![0u8; len];
    let mut word = rng.next_u64();
    for (i, b) in v.iter_mut().enumerate() {
        if i % 4096 == 0 {
            word = rng.next_u64();
        }
        *b = (word >> (8 * (i % 8))) as u8 ^ i as u8;
    }
    Bytes::from(v)
}

fn frame(rng: &mut TestRng, data_len: usize) -> Frame {
    let data = payload(rng, data_len);
    let (client, seq) = (rng.below(1 << 20) as u32, rng.next_u64());
    let ext = rng.below(2) == 0;
    if rng.below(2) == 0 {
        let req = Request::Pwrite {
            fd: Fd(rng.below(64) as u32),
            offset: rng.next_u64(),
            len: data_len as u64,
        };
        let f = Frame::request(client, seq, &req, data);
        if ext {
            f.with_ext(TraceExt::Ctx(TraceContext::sampled(rng.next_u64())))
        } else {
            f
        }
    } else {
        let resp = Response::Ok {
            ret: data_len as i64,
        };
        let f = Frame::response(client, seq, &resp, data);
        if ext {
            let echo = StageEcho {
                trace_id: rng.next_u64(),
                flags: TraceContext::SAMPLED,
                queue_ns: rng.below(1 << 30),
                dispatch_ns: rng.below(1 << 30),
                backend_ns: rng.below(1 << 30),
                reply_ns: rng.below(1 << 30),
                total_ns: rng.below(1 << 32),
            };
            f.with_ext(TraceExt::Echo(echo))
        } else {
            f
        }
    }
}

/// Payload sizes on and around every branch of the reader.
fn data_len(rng: &mut TestRng, allow_mib: bool) -> usize {
    match rng.below(if allow_mib { 10 } else { 9 }) {
        0 | 1 => 0,
        2 => 1,
        3 => SPLIT - 1,
        4 => SPLIT,
        5 => SPLIT + 1,
        6 => rng.below(SPLIT as u64) as usize,
        7 => 4096,
        8 => SPLIT + rng.below(4 * SPLIT as u64) as usize,
        _ => MIB,
    }
}

fn stream(rng: &mut TestRng, frames: usize, allow_mib: bool) -> Vec<u8> {
    let mut wire = Vec::new();
    for _ in 0..frames {
        let len = data_len(rng, allow_mib);
        wire.extend_from_slice(&frame(rng, len).encode());
    }
    wire
}

fn chunking(rng: &mut TestRng, total: usize) -> Vec<usize> {
    match rng.below(5) {
        0 => vec![total.max(1)],
        1 => vec![1 + rng.below(64) as usize],
        2 => (0..7).map(|_| 1 + rng.below(300) as usize).collect(),
        3 => (0..5).map(|_| 1 + rng.below(70_000) as usize).collect(),
        _ => vec![
            FRAME_HEADER_BYTES,
            1,
            1 + rng.below(SPLIT as u64 * 2) as usize,
        ],
    }
}

/// The pool-backed arm: a hook that answers "not yet" `refusals` times
/// per large payload and then hands out a BML block must yield the same
/// frames, each large payload in a block of its own charged once, each
/// small one on the heap — and be asked exactly that often, per payload,
/// in stream order.
fn check_pooled(label: &str, wire: &[u8], sizes: Vec<usize>, block_every: usize, refusals: usize) {
    let expect = decode_all(wire);
    let bml = Bml::new(64 << 20);
    let (mut asked, mut refused) = (Vec::new(), 0);
    let got = read_all_with(&mut Chunked::new(wire, sizes, block_every), &mut |len| {
        asked.push(len);
        if refused < refusals {
            refused += 1;
            return Storage::NotYet;
        }
        refused = 0;
        bml.receive_storage(len, false)
    })
    .unwrap_or_else(|e| panic!("{label}, pooled: {e}"));
    assert!(got == expect, "{label}: the pooled arm's frames differ");
    let large = expect.iter().map(|f| f.data.len()).filter(|&l| l >= SPLIT);
    let asks: Vec<usize> = large
        .flat_map(|l| std::iter::repeat_n(l, refusals + 1))
        .collect();
    assert_eq!(asked, asks, "{label}: storage asked for");
    let charged: usize = asks
        .iter()
        .step_by(refusals + 1)
        .map(|&l| Bml::class_for(l).1)
        .sum();
    assert_eq!(
        bml.outstanding(),
        charged as u64,
        "{label}: one charge each"
    );
    for (i, frame) in got.into_iter().enumerate() {
        let (len, at) = (frame.data.len(), frame.data.as_ptr());
        match BmlBuffer::from_payload(frame.data) {
            Ok(block) => {
                assert!(len >= SPLIT, "{label}: small frame {i} took a block");
                assert_eq!((block.len(), block.as_slice().as_ptr()), (len, at));
            }
            Err(_) => assert!(len < SPLIT, "{label}: large frame {i} missed the pool"),
        }
    }
    assert_eq!(bml.outstanding(), 0, "{label}: every block returned");
}

/// The two properties every delivered frame must have, and the pooled
/// arm's agreement with them.
fn check(seed: u64, wire: &[u8], sizes: Vec<usize>, block_every: usize) {
    let expect = decode_all(wire);
    let label = format!("seed {seed}, reads of {sizes:?}, WouldBlock every {block_every}");
    check_pooled(&label, wire, sizes.clone(), block_every, seed as usize % 4);
    let got = read_all(&mut Chunked::new(wire, sizes, block_every))
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(got.len(), expect.len(), "{label}: frame count");
    for (i, (g, e)) in got.into_iter().zip(expect).enumerate() {
        assert!(
            g == e,
            "{label}: frame {i} differs (seq {} vs {})",
            g.seq,
            e.seq
        );
        let declared = g.data.len();
        if declared > 0 {
            let at = g.data.as_ptr();
            let storage = Vec::from(g.data);
            assert_eq!(
                storage.as_ptr(),
                at,
                "{label}: frame {i} shares its payload storage"
            );
            assert_eq!(
                storage.capacity(),
                declared,
                "{label}: frame {i} payload buffer"
            );
        }
    }
}

#[test]
fn any_frame_sequence_under_any_chunking_decodes_like_the_reference() {
    for seed in 0..120u64 {
        let mut rng = TestRng::new(0xF0A4_0000 + seed);
        let frames = 1 + rng.below(12) as usize;
        let wire = stream(&mut rng, frames, false);
        let sizes = chunking(&mut rng, wire.len());
        let block_every = rng.below(4) as usize;
        check(seed, &wire, sizes, block_every);
    }
}

#[test]
fn one_byte_reads_and_whole_stream_reads_agree() {
    for seed in 0..12u64 {
        let mut rng = TestRng::new(0xB17E_0000 + seed);
        let wire = stream(&mut rng, 6, false);
        check(seed, &wire, vec![1], 0);
        check(seed, &wire, vec![wire.len()], 0);
        check(seed, &wire, vec![1], 3);
    }
}

#[test]
fn small_pipelined_frames_directly_behind_a_large_one() {
    for seed in 0..16u64 {
        let mut rng = TestRng::new(0x1A46_E000 + seed);
        let mut wire = Vec::new();
        let large = if seed % 2 == 0 { MIB } else { SPLIT + 1 };
        wire.extend_from_slice(&frame(&mut rng, 0).encode());
        wire.extend_from_slice(&frame(&mut rng, large).encode());
        for _ in 0..(1 + rng.below(40)) {
            let len = rng.below(200) as usize;
            wire.extend_from_slice(&frame(&mut rng, len).encode());
        }
        wire.extend_from_slice(&frame(&mut rng, MIB).encode());
        wire.extend_from_slice(&stream(&mut rng, 3, true));
        let sizes = chunking(&mut rng, wire.len());
        check(seed, &wire, sizes, seed as usize % 3);
        check(seed, &wire, vec![wire.len()], 0);
    }
}

fn kind_of(wire: &[u8], sizes: Vec<usize>) -> io::ErrorKind {
    read_all(&mut Chunked::new(wire, sizes, 0))
        .expect_err("stream must be rejected")
        .kind()
}

#[test]
fn bad_headers_are_rejected_from_the_header_alone() {
    let mut rng = TestRng::new(0xBAD0_4EAD);
    let good = frame(&mut rng, SPLIT).encode().to_vec();
    // Only the fixed header is ever offered: the verdict cannot depend on
    // (or allocate for) anything the lengths in it announce.
    let header = &good[..FRAME_HEADER_BYTES];
    let corrupt = |at: std::ops::Range<usize>, with: &[u8]| {
        let mut h = header.to_vec();
        h[at].copy_from_slice(with);
        h
    };
    let too_long = (MAX_DATA_LEN as u32 + 1).to_le_bytes();
    for (what, bad) in [
        ("magic", corrupt(0..2, &[0, 0])),
        ("version", corrupt(2..3, &[9])),
        ("kind", corrupt(3..4, &[7])),
        ("meta_len", corrupt(16..20, &u32::MAX.to_le_bytes())),
        ("data_len", corrupt(20..24, &too_long)),
        ("data_len max", corrupt(20..24, &u32::MAX.to_le_bytes())),
    ] {
        for sizes in [vec![bad.len()], vec![1], vec![5, 19]] {
            assert_eq!(kind_of(&bad, sizes), io::ErrorKind::InvalidData, "{what}");
        }
    }
    // An unknown trace-extension tag is the one verdict that needs a 25th
    // byte.
    let mut traced = Frame::request(1, 1, &Request::Shutdown, Bytes::new())
        .with_ext(TraceExt::Ctx(TraceContext::sampled(1)))
        .encode()
        .to_vec();
    traced[FRAME_HEADER_BYTES] = 0x7E;
    traced.truncate(FRAME_HEADER_BYTES + 1);
    assert_eq!(kind_of(&traced, vec![1]), io::ErrorKind::InvalidData);
}

#[test]
fn eof_between_frames_is_clean_and_inside_a_frame_is_unexpected_eof() {
    let mut rng = TestRng::new(0xE0F0_E0F0);
    for data_len in [0, 100, SPLIT - 1, SPLIT, MIB] {
        let first = frame(&mut rng, 7).encode();
        let second = frame(&mut rng, data_len).encode();
        let mut wire = first.to_vec();
        wire.extend_from_slice(&second);
        assert_eq!(read_all(&mut &wire[..]).expect("whole stream").len(), 2);
        assert_eq!(read_all(&mut &first[..]).expect("one frame").len(), 1);
        assert!(read_all(&mut &[][..]).expect("empty stream").is_empty());
        // Every cut inside the head, and a spread of cuts inside the
        // payload, including one byte short of complete.
        let head = second.len() - data_len;
        let cuts = (1..=head)
            .chain((1..=8).map(|k| head + data_len * k / 9))
            .chain([second.len() - 1])
            .filter(|&c| c > 0 && c < second.len());
        for cut in cuts {
            let short = &wire[..first.len() + cut];
            for sizes in [vec![short.len()], vec![1 + rng.below(5000) as usize]] {
                assert_eq!(
                    kind_of(short, sizes),
                    io::ErrorKind::UnexpectedEof,
                    "payload {data_len}, cut at {cut} of {}",
                    second.len()
                );
            }
        }
    }
}

#[test]
fn garbage_and_corrupted_streams_never_panic() {
    for seed in 0..200u64 {
        let mut rng = TestRng::new(0x6A4B_A6E0 + seed);
        let mut wire = if seed % 4 == 0 {
            (0..rng.below(4096)).map(|_| rng.next_u64() as u8).collect()
        } else {
            let frames = 1 + rng.below(6) as usize;
            stream(&mut rng, frames, false)
        };
        for _ in 0..rng.below(4) {
            // Flip a byte, mostly inside the first frame's head.
            let span = if rng.below(3) == 0 {
                wire.len()
            } else {
                wire.len().min(64)
            };
            if span > 0 {
                let at = rng.below(span as u64) as usize;
                wire[at] ^= 1 << rng.below(8);
            }
        }
        if rng.below(3) == 0 {
            wire.truncate(rng.below(wire.len() as u64 + 1) as usize);
        }
        let sizes = chunking(&mut rng, wire.len());
        // Frames or an error — and if the reference can decode the whole
        // stream, so can the reader, to the same frames.
        let got = read_all(&mut Chunked::new(&wire, sizes, seed as usize % 3));
        let mut rest = &wire[..];
        let mut expect = Vec::new();
        while let Ok(Some((f, used))) = Frame::decode(rest) {
            expect.push(f);
            rest = &rest[used..];
        }
        match got {
            Ok(frames) => {
                assert!(
                    rest.is_empty(),
                    "seed {seed}: reader accepted an undecodable tail"
                );
                assert!(
                    frames == expect,
                    "seed {seed}: frames differ from the reference"
                );
            }
            Err(e) => {
                assert!(
                    !rest.is_empty(),
                    "seed {seed}: reader rejected a valid stream: {e}"
                );
                assert!(
                    matches!(
                        e.kind(),
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    ),
                    "seed {seed}: {e}"
                );
            }
        }
    }
}
