//! The invariant rules. Each works on the masked source from
//! [`crate::lexer::strip`], so comments and string literals are
//! invisible; `SAFETY:` comment detection (R4) reads the raw source.

use std::path::{Path, PathBuf};

use crate::lexer::{find_words, line_of, strip, word_at};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Sim crates must not touch the host clock.
    R1,
    /// Daemon-path modules must not unwrap/expect/panic.
    R2,
    /// Wire-enum matches must be exhaustive (no catch-all arms).
    R3,
    /// `unsafe` requires a `// SAFETY:` comment.
    R4,
    /// Telemetry-recording hot paths must not format or print.
    R5,
    /// Every runtime `OpSpan::begin` site must stamp the full lifecycle
    /// (enqueue/dispatch/reply) and complete the span.
    R6,
    /// Every file running the staged executor `execute_staged` must
    /// fan completion out per constituent: stamp a disposition and
    /// reach `Telemetry::complete` on every exit path.
    R7,
    /// Per-client attribution in daemon code must go through the
    /// sharded `client_stats(...)` accessor — no raw `.clients.` table
    /// access on the hot path.
    R9,
    /// Decoded `Bytes` views on the forwarding hot path must not be
    /// deep-copied with `.to_vec()` — slice or adopt instead.
    R10,
    /// The engine must not discard a backend call's result with
    /// `let _ =`: the errno belongs to the client.
    R11,
    /// The admission core names no driver primitive: no channel,
    /// thread, socket or blocking BML call.
    R12,
    /// Daemon locks, condvars and channels come from `crate::sync` only.
    R13,
}

impl Rule {
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "R1" => Some(Rule::R1),
            "R2" => Some(Rule::R2),
            "R3" => Some(Rule::R3),
            "R4" => Some(Rule::R4),
            "R5" => Some(Rule::R5),
            "R6" => Some(Rule::R6),
            "R7" => Some(Rule::R7),
            "R9" => Some(Rule::R9),
            "R10" => Some(Rule::R10),
            "R11" => Some(Rule::R11),
            "R12" => Some(Rule::R12),
            "R13" => Some(Rule::R13),
            _ => None,
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
            Rule::R7 => "R7",
            Rule::R9 => "R9",
            Rule::R10 => "R10",
            Rule::R11 => "R11",
            Rule::R12 => "R12",
            Rule::R13 => "R13",
        })
    }
}

pub struct Violation {
    pub rule: Rule,
    pub path: PathBuf,
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Crates whose `src/` trees must use the simulated clock only.
const SIM_CRATES: &[&str] = &["simcore", "bgsim", "bgp-model", "madbench"];

/// `iofwd` modules on the daemon data path: errors must reach the
/// client as `iofwd_proto::error` values, never a panic.
const NO_PANIC_MODULES: &[&str] = &[
    "backend",
    "transport",
    "client",
    "bml",
    "descdb",
    "fault",
    "server/admit",
    "server/queue",
    "server/reactor",
];

/// Wire-format enums (`iofwd_proto::op` / `wire`): matches over these
/// must list variants explicitly so protocol changes surface at every
/// dispatch site.
const WIRE_ENUMS: &[&str] = &["Request", "Response", "FrameKind", "Whence"];

/// Per-op hot paths where telemetry is recorded: `format!` / `println!`
/// / `eprintln!` mean a heap allocation or stderr lock per forwarded
/// op, defeating the "cheap enough to leave on" contract. Rendering
/// belongs in `iofwd-telemetry/src/snapshot.rs` and `json.rs` (exempt
/// below).
const NO_FMT_FILES: &[&str] = &[
    "crates/iofwd/src/bml.rs",
    "crates/iofwd/src/descdb.rs",
    "crates/iofwd/src/server/queue.rs",
];

/// Files on the client→socket→decode→stage→backend forwarding path.
/// Payloads travel here by reference: the application's slice to the
/// socket, the receive buffer as a refcounted `Bytes` to the backend.
/// `.to_vec()` and `Bytes::copy_from_slice(` deep-copy the payload and
/// silently reintroduce the per-op copy and allocation that path exists
/// to remove. A deliberate copy (paper-fidelity CIOD staging, small
/// frames leaving the receive buffer) must carry a `// HOTPATH:` comment
/// in the three lines above it.
const HOT_BYTES_FILES: &[&str] = &[
    "crates/iofwd-proto/src/reader.rs",
    "crates/iofwd-proto/src/wire.rs",
    "crates/iofwd/src/bml.rs",
    "crates/iofwd/src/client.rs",
    "crates/iofwd/src/transport.rs",
    "crates/iofwd/src/server/admit.rs",
    "crates/iofwd/src/server/engine.rs",
    "crates/iofwd/src/server/handlers.rs",
    "crates/iofwd/src/server/queue.rs",
    "crates/iofwd/src/server/reactor.rs",
];

/// Where the daemon calls its backend, and the `Backend` /
/// `BackendObject` methods it calls there. `let _ =` on one of them
/// drops an errno the client was owed — how a failed close-time flush
/// went unreported for fifteen PRs.
const ENGINE_FILE: &str = "crates/iofwd/src/server/engine.rs";
const BACKEND_CALLS: &[&str] = &[
    "open",
    "connect",
    "stat",
    "unlink",
    "mkdir",
    "readdir",
    "write_at",
    "write_vectored_at",
    "read_into",
    "seek",
    "sync",
    "fstat",
    "truncate",
];

/// The admission core, which "never blocks and never touches a socket",
/// and the driver primitives it may therefore not name: the drivers own
/// channels, threads, sockets and the blocking BML calls (`try_acquire`
/// stays allowed).
const ADMIT_FILE: &str = "crates/iofwd/src/server/admit.rs";
const DRIVER_NAMES: &[&str] = &[
    "Sender",
    "Receiver",
    "channel(",
    "std::thread",
    "sleep(",
    ".recv(",
    "Condvar",
    "std::net",
    "TcpStream",
    ".acquire(",
    ".adopt(",
];

/// The daemon's one source of locks, condvars and channels, so that the
/// loom build sees every lock. Elsewhere in `crates/iofwd/src` these
/// crates and `std::sync` items may not be named.
const SYNC_SEAM: &str = "crates/iofwd/src/sync.rs";
const SEAM_CRATES: &[&str] = &["parking_lot", "crossbeam"];
const SEAM_STD_ITEMS: &[&str] = &["Mutex", "MutexGuard", "Condvar", "mpsc"];

pub fn check_file(rel: &Path, source: &str) -> Vec<Violation> {
    let masked = strip(source);
    let mut out = Vec::new();
    let unix = rel.to_string_lossy().replace('\\', "/");

    if SIM_CRATES
        .iter()
        .any(|c| unix.starts_with(&format!("crates/{c}/src/")))
    {
        check_r1(rel, &masked, &mut out);
    }
    if NO_PANIC_MODULES.iter().any(|m| {
        unix == format!("crates/iofwd/src/{m}.rs")
            || unix.starts_with(&format!("crates/iofwd/src/{m}/"))
    }) {
        check_r2(rel, &masked, &mut out);
    }
    // R3 guards *runtime* dispatch sites; a test asserting one expected
    // variant (`other => panic!`) already fails loudly when the protocol
    // changes, so test code is out of scope.
    if !is_test_file(&unix) {
        check_r3(rel, &masked, &mut out);
    }
    check_r4(rel, source, &masked, &mut out);
    if !is_test_file(&unix) {
        check_r6(rel, &masked, &mut out);
        check_r7(rel, &masked, &mut out);
        if unix.starts_with("crates/iofwd/src/") {
            check_r9(rel, &masked, &mut out);
        }
    }
    if NO_FMT_FILES.contains(&unix.as_str())
        || (unix.starts_with("crates/iofwd-telemetry/src/")
            && unix != "crates/iofwd-telemetry/src/snapshot.rs"
            && unix != "crates/iofwd-telemetry/src/json.rs")
    {
        check_r5(rel, &masked, &mut out);
    }
    if HOT_BYTES_FILES.contains(&unix.as_str()) {
        check_r10(rel, source, &masked, &mut out);
    }
    if unix == ENGINE_FILE {
        check_r11(rel, &masked, &mut out);
    }
    if unix == ADMIT_FILE {
        check_r12(rel, &masked, &mut out);
    }
    if unix.starts_with("crates/iofwd/src/") && unix != SYNC_SEAM {
        check_r13(rel, &masked, &mut out);
    }
    out
}

/// Integration-test and bench sources (whole file is test code).
fn is_test_file(unix: &str) -> bool {
    unix.starts_with("tests/") || unix.contains("/tests/") || unix.contains("/benches/")
}

// ---------------------------------------------------------------- R1

fn check_r1(rel: &Path, masked: &str, out: &mut Vec<Violation>) {
    for word in ["Instant", "SystemTime"] {
        for pos in find_words(masked, word) {
            out.push(Violation {
                rule: Rule::R1,
                path: rel.to_path_buf(),
                line: line_of(masked, pos),
                message: format!(
                    "`{word}` in a simulation crate — use the virtual clock (simcore::time)"
                ),
            });
        }
    }
    let mut start = 0;
    while let Some(off) = masked[start..].find("thread::sleep") {
        let pos = start + off;
        out.push(Violation {
            rule: Rule::R1,
            path: rel.to_path_buf(),
            line: line_of(masked, pos),
            message: "`thread::sleep` in a simulation crate — advance the virtual clock instead"
                .to_string(),
        });
        start = pos + "thread::sleep".len();
    }
}

// ---------------------------------------------------------------- R2

/// Byte ranges covered by `#[cfg(test)]`-gated items (whole item body).
pub(crate) fn test_regions(masked: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    for marker in ["#[cfg(test)]", "#[cfg(all(test"] {
        let mut start = 0;
        while let Some(off) = masked[start..].find(marker) {
            let attr_at = start + off;
            start = attr_at + marker.len();
            // Find the gated item's opening brace (or `;` for an
            // out-of-line `mod foo;`, which has no body here).
            let bytes = masked.as_bytes();
            let mut i = start;
            let mut open = None;
            while i < bytes.len() {
                match bytes[i] {
                    b'{' => {
                        open = Some(i);
                        break;
                    }
                    b';' => break,
                    _ => i += 1,
                }
            }
            let Some(open) = open else { continue };
            if let Some(close) = matching_brace(bytes, open) {
                regions.push((attr_at, close));
            }
        }
    }
    regions
}

/// Index of the `}` matching the `{` at `open`.
pub(crate) fn matching_brace(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn check_r2(rel: &Path, masked: &str, out: &mut Vec<Violation>) {
    let tests = test_regions(masked);
    let in_tests = |pos: usize| tests.iter().any(|&(a, b)| pos >= a && pos <= b);
    for (needle, what) in [
        (".unwrap()", "`.unwrap()`"),
        (".expect(", "`.expect(...)`"),
        ("panic!(", "`panic!`"),
    ] {
        let mut start = 0;
        while let Some(off) = masked[start..].find(needle) {
            let pos = start + off;
            start = pos + needle.len();
            if in_tests(pos) {
                continue;
            }
            out.push(Violation {
                rule: Rule::R2,
                path: rel.to_path_buf(),
                line: line_of(masked, pos),
                message: format!(
                    "{what} on the daemon path — return an iofwd_proto::error value instead"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- R3

fn check_r3(rel: &Path, masked: &str, out: &mut Vec<Violation>) {
    let bytes = masked.as_bytes();
    let tests = test_regions(masked);
    let in_tests = |pos: usize| tests.iter().any(|&(a, b)| pos >= a && pos <= b);
    for match_at in find_words(masked, "match") {
        if in_tests(match_at) {
            continue;
        }
        // Opening brace of the match body: first `{` at paren/bracket
        // depth 0 (struct literals are not legal in a bare scrutinee).
        let mut i = match_at + "match".len();
        let mut depth = 0i32;
        let mut open = None;
        while i < bytes.len() {
            match bytes[i] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => {
                    open = Some(i);
                    break;
                }
                b';' if depth == 0 => break, // `match` in an ident-free spot
                _ => {}
            }
            i += 1;
        }
        let (Some(open),) = (open,) else { continue };
        let Some(close) = matching_brace(bytes, open) else {
            continue;
        };

        let arms = split_arms(masked, open, close);
        let qualifies = arms
            .iter()
            .any(|&(s, e)| WIRE_ENUMS.iter().any(|en| has_enum_path(&masked[s..e], en)));
        if !qualifies {
            continue;
        }
        for &(s, e) in &arms {
            let pat = pattern_without_guard(&masked[s..e]);
            if is_catch_all(pat) {
                out.push(Violation {
                    rule: Rule::R3,
                    path: rel.to_path_buf(),
                    line: line_of(masked, s + leading_ws(pat, &masked[s..e])),
                    message: format!(
                        "catch-all arm `{} =>` in a match over a wire-format enum — list the \
                         remaining variants explicitly",
                        pat.trim()
                    ),
                });
            }
        }
    }
}

/// Byte offset of the first non-whitespace char of `pat` within `arm`.
fn leading_ws(pat: &str, arm: &str) -> usize {
    let trimmed = pat.trim_start();
    arm.find(trimmed.split_whitespace().next().unwrap_or(""))
        .unwrap_or(0)
}

/// Pattern spans (start, end) of each arm between `open` and `close`:
/// the text before each top-level `=>`.
fn split_arms(masked: &str, open: usize, close: usize) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let mut arms = Vec::new();
    let mut i = open + 1;
    let mut pat_start = i;
    while i < close {
        match bytes[i] {
            b'(' | b'[' | b'{' => {
                // Nested group inside a pattern or guard: skip it whole.
                let Some(end) = matching_group(bytes, i, close) else {
                    break;
                };
                i = end + 1;
            }
            b'=' if i + 1 < close && bytes[i + 1] == b'>' => {
                arms.push((pat_start, i));
                i += 2;
                // Skip the arm body: a block, or everything up to the
                // next top-level `,`.
                while i < close && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                if i < close && bytes[i] == b'{' {
                    let Some(end) = matching_brace(bytes, i) else {
                        break;
                    };
                    i = end + 1;
                } else {
                    let mut d = 0i32;
                    while i < close {
                        match bytes[i] {
                            b'(' | b'[' | b'{' => d += 1,
                            b')' | b']' | b'}' => d -= 1,
                            b',' if d == 0 => break,
                            _ => {}
                        }
                        i += 1;
                    }
                }
                if i < close && bytes[i] == b',' {
                    i += 1;
                }
                pat_start = i;
            }
            _ => i += 1,
        }
    }
    arms
}

/// Matching close delimiter for the open delimiter at `i`, bounded.
fn matching_group(bytes: &[u8], i: usize, limit: usize) -> Option<usize> {
    let (open, closec) = match bytes[i] {
        b'(' => (b'(', b')'),
        b'[' => (b'[', b']'),
        b'{' => (b'{', b'}'),
        _ => return None,
    };
    let mut depth = 0usize;
    let mut j = i;
    while j <= limit && j < bytes.len() {
        if bytes[j] == open {
            depth += 1;
        } else if bytes[j] == closec {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j += 1;
    }
    None
}

fn pattern_without_guard(arm: &str) -> &str {
    // A guard is ` if ` at paren depth 0.
    let bytes = arm.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'i' if depth == 0 && word_at(arm, i, "if") => return &arm[..i],
            _ => {}
        }
        i += 1;
    }
    arm
}

fn has_enum_path(pat: &str, en: &str) -> bool {
    let mut start = 0;
    while let Some(off) = pat[start..].find(en) {
        let pos = start + off;
        start = pos + en.len();
        if word_at(pat, pos, en) && pat[pos + en.len()..].trim_start().starts_with("::") {
            return true;
        }
    }
    false
}

/// A catch-all pattern: matches anything without naming a variant,
/// literal, or Option/Result constructor — `_`, `other`, `(x, _)`, ...
fn is_catch_all(pat: &str) -> bool {
    let pat = pat.trim();
    if pat.is_empty() {
        return false;
    }
    // Any path segment (Foo::..., Ok, Err, Some, None, a literal, or a
    // range) makes the arm selective.
    if pat.contains("::")
        || pat.contains("..=")
        || pat
            .bytes()
            .any(|b| b.is_ascii_digit() || b == b'"' || b == b'\'')
    {
        return false;
    }
    for word in ["Ok", "Err", "Some", "None", "true", "false"] {
        let mut start = 0;
        while let Some(off) = pat[start..].find(word) {
            let pos = start + off;
            if word_at(pat, pos, word) {
                return false;
            }
            start = pos + word.len();
        }
    }
    // What's left is built only from `_`, lowercase bindings, tuples,
    // refs, and `|` — all catch-alls.
    true
}

// ---------------------------------------------------------------- R5

fn check_r5(rel: &Path, masked: &str, out: &mut Vec<Violation>) {
    let tests = test_regions(masked);
    let in_tests = |pos: usize| tests.iter().any(|&(a, b)| pos >= a && pos <= b);
    for name in ["format", "println", "eprintln"] {
        for pos in find_words(masked, name) {
            if in_tests(pos) || !masked[pos + name.len()..].starts_with('!') {
                continue;
            }
            out.push(Violation {
                rule: Rule::R5,
                path: rel.to_path_buf(),
                line: line_of(masked, pos),
                message: format!(
                    "`{name}!` on a telemetry-recording hot path — recording must stay \
                     allocation-free; move rendering to the snapshot/dump layer"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- R6

/// Does the masked source assign to `.{field}` anywhere? (`=`, not `==`
/// — a comparison is not a stamp.)
fn has_stamp(masked: &str, field: &str) -> bool {
    let needle = format!(".{field}");
    let mut start = 0;
    while let Some(off) = masked[start..].find(&needle) {
        let pos = start + off;
        start = pos + needle.len();
        let rest = masked[pos + needle.len()..].trim_start();
        if rest.starts_with('=') && !rest.starts_with("==") {
            return true;
        }
    }
    false
}

/// An op type that constructs an `OpSpan` owns its full lifecycle: the
/// file must stamp `enqueue_ns`, `dispatch_ns`, and `reply_ns`, and
/// hand the span to `Telemetry::complete`, or the flight recorder /
/// trace exporter silently report half-timed ops. File-granular on
/// purpose: spans legitimately cross functions (handler → worker), but
/// an op whose span escapes the *file* without all its stamps is a
/// telemetry hole.
fn check_r6(rel: &Path, masked: &str, out: &mut Vec<Violation>) {
    let tests = test_regions(masked);
    let in_tests = |pos: usize| tests.iter().any(|&(a, b)| pos >= a && pos <= b);
    let mut begin_at = None;
    let mut start = 0;
    while let Some(off) = masked[start..].find("OpSpan::begin") {
        let pos = start + off;
        start = pos + "OpSpan::begin".len();
        if !in_tests(pos) {
            begin_at = Some(pos);
            break;
        }
    }
    let Some(pos) = begin_at else { return };
    let mut missing: Vec<&str> = ["enqueue_ns", "dispatch_ns", "reply_ns"]
        .into_iter()
        .filter(|f| !has_stamp(masked, f))
        .collect();
    if !masked.contains(".complete(") {
        missing.push("a `.complete(...)` call");
    }
    if !missing.is_empty() {
        out.push(Violation {
            rule: Rule::R6,
            path: rel.to_path_buf(),
            line: line_of(masked, pos),
            message: format!(
                "`OpSpan::begin` without {} in this file — every op span must stamp its \
                 full lifecycle and reach `Telemetry::complete`",
                missing.join(", ")
            ),
        });
    }
}

// ---------------------------------------------------------------- R7

/// A staged batch carries one `OpSpan` per constituent; losing any of
/// them silently halves the flight recorder. File-granular like R6
/// (batches legitimately cross functions): any non-test file that
/// defines or calls the staged executor `execute_staged` must both
/// stamp a `.disposition` and reach a `.complete(...)` call, or some
/// exit path drops constituent spans. (The engine's
/// `execute_coalesced_write` is a different word: it sees op ids and
/// byte slices, never a span.)
fn check_r7(rel: &Path, masked: &str, out: &mut Vec<Violation>) {
    let tests = test_regions(masked);
    let in_tests = |pos: usize| tests.iter().any(|&(a, b)| pos >= a && pos <= b);
    let mut site = None;
    for pos in find_words(masked, "execute_staged") {
        if !in_tests(pos) {
            site = Some(pos);
            break;
        }
    }
    let Some(pos) = site else { return };
    let mut missing: Vec<&str> = Vec::new();
    if !has_stamp(masked, "disposition") {
        missing.push("a `.disposition` stamp");
    }
    if !masked.contains(".complete(") {
        missing.push("a `.complete(...)` call");
    }
    if !missing.is_empty() {
        out.push(Violation {
            rule: Rule::R7,
            path: rel.to_path_buf(),
            line: line_of(masked, pos),
            message: format!(
                "`execute_staged` run without {} in this file — every constituent's \
                 span must be dispositioned and completed on all exit paths",
                missing.join(" or ")
            ),
        });
    }
}

// ---------------------------------------------------------------- R9

/// Per-client attribution lives in a sharded table; the one accessor
/// that encapsulates shard choice, the disabled-registry check and the
/// entry upsert is `Telemetry::client_stats`. Daemon code reaching
/// into `.clients.` directly (entry/lookup/snapshot/...) re-implements
/// that locking on the hot path and stamps rows in a disabled
/// registry, so nothing behind `.clients.` is legal outside
/// `iofwd-telemetry` itself.
fn check_r9(rel: &Path, masked: &str, out: &mut Vec<Violation>) {
    let tests = test_regions(masked);
    let in_tests = |pos: usize| tests.iter().any(|&(a, b)| pos >= a && pos <= b);
    const NEEDLE: &str = ".clients.";
    let mut start = 0;
    while let Some(off) = masked[start..].find(NEEDLE) {
        let pos = start + off;
        start = pos + NEEDLE.len();
        if in_tests(pos) {
            continue;
        }
        out.push(Violation {
            rule: Rule::R9,
            path: rel.to_path_buf(),
            line: line_of(masked, pos),
            message: "raw `.clients.` table access — per-client mutations must go through \
                      the sharded `client_stats(...)` accessor"
                .to_string(),
        });
    }
}

// ---------------------------------------------------------------- R10

fn check_r10(rel: &Path, source: &str, masked: &str, out: &mut Vec<Violation>) {
    let tests = test_regions(masked);
    let in_tests = |pos: usize| tests.iter().any(|&(a, b)| pos >= a && pos <= b);
    let lines: Vec<&str> = source.lines().collect();
    let hits = [".to_vec()", "Bytes::copy_from_slice("]
        .into_iter()
        .flat_map(|needle| {
            masked
                .match_indices(needle)
                .map(move |(pos, _)| (pos, needle))
        });
    for (pos, needle) in hits {
        if in_tests(pos) {
            continue;
        }
        // A deliberate copy carries a HOTPATH: comment on its line or
        // the three above (same shape as R4's SAFETY: annotation).
        let line = line_of(masked, pos);
        let lo = line.saturating_sub(4); // lines[] is 0-based
        let annotated = lines[lo..line.min(lines.len())]
            .iter()
            .any(|l| l.contains("HOTPATH:"));
        if annotated {
            continue;
        }
        out.push(Violation {
            rule: Rule::R10,
            path: rel.to_path_buf(),
            line,
            message: format!(
                "`{needle}` on a zero-copy hot path — keep the borrowed slice or the refcounted \
                 `Bytes` view (slice/adopt); a deliberate copy needs a `// HOTPATH:` comment \
                 in the preceding 3 lines"
            ),
        });
    }
}

// ---------------------------------------------------------------- R11

fn check_r11(rel: &Path, masked: &str, out: &mut Vec<Violation>) {
    let tests = test_regions(masked);
    let in_tests = |pos: usize| tests.iter().any(|&(a, b)| pos >= a && pos <= b);
    const NEEDLE: &str = "let _ =";
    for (pos, _) in masked.match_indices(NEEDLE) {
        if in_tests(pos) {
            continue;
        }
        // The discarded expression: up to the statement's `;`.
        let rest = &masked[pos + NEEDLE.len()..];
        let stmt = &rest[..rest.find(';').unwrap_or(rest.len())];
        let call = BACKEND_CALLS
            .iter()
            .find(|m| stmt.contains(&format!(".{m}(")));
        if let Some(call) = call {
            out.push(Violation {
                rule: Rule::R11,
                path: rel.to_path_buf(),
                line: line_of(masked, pos),
                message: format!(
                    "`let _ =` discards the result of backend call `.{call}(...)` — \
                     report the errno to the client (or record it as a deferred error)"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- R12

fn check_r12(rel: &Path, masked: &str, out: &mut Vec<Violation>) {
    let tests = test_regions(masked);
    let in_tests = |pos: usize| tests.iter().any(|&(a, b)| pos >= a && pos <= b);
    for name in DRIVER_NAMES {
        for (pos, _) in masked.match_indices(name) {
            if in_tests(pos) {
                continue;
            }
            out.push(Violation {
                rule: Rule::R12,
                path: rel.to_path_buf(),
                line: line_of(masked, pos),
                message: format!(
                    "`{name}` in the admission core — it never blocks and never touches a \
                     socket; waiting belongs to the drivers (`handlers`, `reactor`)"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- R13

fn check_r13(rel: &Path, masked: &str, out: &mut Vec<Violation>) {
    let mut hits: Vec<(usize, String)> = SEAM_CRATES
        .iter()
        .flat_map(|c| {
            find_words(masked, c)
                .into_iter()
                .map(|p| (p, c.to_string()))
        })
        .collect();
    for (pos, _) in masked.match_indices("std::sync::") {
        // The rest of the statement: a path or a `use std::sync::{Arc, Mutex};` group.
        let item = masked[pos..].split(';').next().unwrap_or_default();
        for name in SEAM_STD_ITEMS {
            if !find_words(item, name).is_empty() {
                hits.push((pos, format!("std::sync::{name}")));
            }
        }
    }
    for (pos, name) in hits {
        out.push(Violation {
            rule: Rule::R13,
            path: rel.to_path_buf(),
            line: line_of(masked, pos),
            message: format!(
                "`{name}` outside `crate::sync` — take locks, condvars and channels from \
                 the seam, so the loom build sees every lock"
            ),
        });
    }
}

// ---------------------------------------------------------------- R4

fn check_r4(rel: &Path, source: &str, masked: &str, out: &mut Vec<Violation>) {
    let lines: Vec<&str> = source.lines().collect();
    for pos in find_words(masked, "unsafe") {
        let line = line_of(masked, pos);
        // Look for a SAFETY: comment on this line or the three above.
        let lo = line.saturating_sub(4); // lines[] is 0-based
        let annotated = lines[lo..line.min(lines.len())]
            .iter()
            .any(|l| l.contains("SAFETY:"));
        if !annotated {
            out.push(Violation {
                rule: Rule::R4,
                path: rel.to_path_buf(),
                line,
                message: "`unsafe` without a `// SAFETY:` comment in the preceding 3 lines"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Violation> {
        check_file(Path::new(path), src)
    }

    #[test]
    fn r1_flags_host_clock_in_sim_crates_only() {
        let src = "use std::time::{Duration, Instant};\nfn f() { std::thread::sleep(d); }\n";
        let v = check("crates/simcore/src/lib.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == Rule::R1).count(), 2);
        assert!(check("crates/iofwd/src/daemon.rs", src)
            .iter()
            .all(|v| v.rule != Rule::R1));
    }

    #[test]
    fn r1_ignores_comments_and_strings() {
        let src = "// Instant is banned\nlet s = \"SystemTime\";\n";
        assert!(check("crates/bgsim/src/lib.rs", src).is_empty());
    }

    #[test]
    fn r2_flags_unwrap_outside_tests() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn g() { y.unwrap(); } }\n";
        let v = check("crates/iofwd/src/bml.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == Rule::R2).count(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn r2_only_in_daemon_modules() {
        let src = "fn f() { x.unwrap(); }";
        assert!(check("crates/iofwd/src/server/engine.rs", src)
            .iter()
            .all(|v| v.rule != Rule::R2));
        assert!(!check("crates/iofwd/src/transport/tcp.rs", src).is_empty());
    }

    #[test]
    fn r11_flags_discarded_backend_results_in_the_engine_only() {
        let src = "fn close(o: &mut Obj) {\n    let _ = o.sync();\n    let _ = obj\n        .lock()\n        .truncate(0);\n    \
                   let _ = tx.send(1);\n    let _ = o.fsync_later();\n    let r = o.sync();\n}\n\
                   #[cfg(test)]\nmod tests { fn t(o: &mut Obj) { let _ = o.sync(); } }\n";
        let v = check("crates/iofwd/src/server/engine.rs", src);
        let lines: Vec<usize> = v
            .iter()
            .filter(|v| v.rule == Rule::R11)
            .map(|v| v.line)
            .collect();
        assert_eq!(lines, vec![2, 3]);
        assert!(check("crates/iofwd/src/server/queue.rs", src)
            .iter()
            .all(|v| v.rule != Rule::R11));
    }

    #[test]
    fn r3_flags_wildcard_over_wire_enum() {
        let src = "fn f(r: Response) -> u8 { match r { Response::Ok => 1, other => 0 } }";
        let v = check("crates/iofwd/src/daemon.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::R3);
    }

    #[test]
    fn r3_accepts_exhaustive_and_ignores_other_enums() {
        let ok = "fn f(r: Response) -> u8 { match r { Response::Ok => 1, Response::Err(e) => 0 } }";
        assert!(check("crates/iofwd/src/daemon.rs", ok).is_empty());
        let other = "fn f(x: Foo) -> u8 { match x { Foo::A => 1, _ => 0 } }";
        assert!(check("crates/iofwd/src/daemon.rs", other).is_empty());
    }

    #[test]
    fn r3_guarded_and_nested_arms() {
        let src = "fn f(r: Request) { match r { Request::Write { fd, .. } if fd.0 > 0 => {}\n\
                   Request::Read { .. } => { match q { _ => {} } }\n_ => {} } }";
        let v = check("crates/iofwd/src/daemon.rs", src);
        // Only the outer `_` arm is over a wire enum; inner match on `q`
        // has no wire arms.
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("catch-all"));
    }

    #[test]
    fn r5_flags_fmt_macros_in_hot_modules_only() {
        let src = "fn f() { let s = format!(\"x\"); eprintln!(\"{s}\"); }\n\
                   #[cfg(test)]\nmod tests { fn g() { println!(\"ok\"); } }\n";
        let v = check("crates/iofwd/src/server/queue.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == Rule::R5).count(), 2);
        let v = check("crates/iofwd-telemetry/src/ring.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == Rule::R5).count(), 2);
        // The rendering layer and non-hot-path modules are exempt.
        assert!(check("crates/iofwd-telemetry/src/snapshot.rs", src)
            .iter()
            .all(|v| v.rule != Rule::R5));
        assert!(check("crates/iofwd/src/server/engine.rs", src)
            .iter()
            .all(|v| v.rule != Rule::R5));
    }

    #[test]
    fn r5_ignores_comments_and_non_macro_idents() {
        let src = "// format! is banned here\nfn format(x: u8) -> u8 { x }\n";
        assert!(check("crates/iofwd/src/bml.rs", src)
            .iter()
            .all(|v| v.rule != Rule::R5));
    }

    #[test]
    fn r6_requires_full_lifecycle_stamping() {
        let bad = "fn f(t: &Telemetry) { let mut s = OpSpan::begin(k, 1, 1, 0);\n\
                   s.enqueue_ns = 1; s.dispatch_ns = 2; }\n";
        let v = check("crates/iofwd/src/server/handlers.rs", bad);
        let r6: Vec<_> = v.iter().filter(|v| v.rule == Rule::R6).collect();
        assert_eq!(r6.len(), 1);
        assert!(r6[0].message.contains("reply_ns"));
        assert!(r6[0].message.contains("complete"));
    }

    #[test]
    fn r6_accepts_complete_lifecycles_and_ignores_tests() {
        let good = "fn f(t: &Telemetry) { let mut s = OpSpan::begin(k, 1, 1, 0);\n\
                    s.enqueue_ns = 1; s.dispatch_ns = 2; s.reply_ns = 3; t.complete(&s); }\n";
        assert!(check("crates/iofwd/src/server/handlers.rs", good)
            .iter()
            .all(|v| v.rule != Rule::R6));
        // Comparisons are not stamps.
        let cmp = "fn f() { let s = OpSpan::begin(k, 1, 1, 0);\n\
                   if s.enqueue_ns == 0 && s.dispatch_ns == 0 && s.reply_ns == 0 { t.complete(&s); } }\n";
        assert!(!check("crates/iofwd/src/server/handlers.rs", cmp)
            .iter()
            .all(|v| v.rule != Rule::R6));
        // Test modules and integration tests are out of scope.
        let in_tests =
            "#[cfg(test)]\nmod tests { fn g() { let s = OpSpan::begin(k, 1, 1, 0); } }\n";
        assert!(check("crates/iofwd/src/server/handlers.rs", in_tests)
            .iter()
            .all(|v| v.rule != Rule::R6));
        let bare = "fn g() { let s = OpSpan::begin(k, 1, 1, 0); }";
        assert!(check("crates/iofwd/tests/trace_e2e.rs", bare)
            .iter()
            .all(|v| v.rule != Rule::R6));
    }

    #[test]
    fn r7_requires_constituent_completion() {
        let bad = "fn f(fd: Fd, parts: Vec<StagedPart>) { execute_staged(e, t, fd, parts, 1); } \
                   fn execute_staged(e: &Engine, t: &Telemetry, fd: Fd, \
                   parts: Vec<StagedPart>, w: u32) { e.execute_coalesced_write(fd, None, &[]); }";
        let v = check("crates/iofwd/src/server/handlers.rs", bad);
        let r7: Vec<_> = v.iter().filter(|v| v.rule == Rule::R7).collect();
        assert_eq!(r7.len(), 1);
        assert!(r7[0].message.contains("disposition"));
        assert!(r7[0].message.contains("complete"));
    }

    #[test]
    fn r7_accepts_completion_and_exempts_the_engine_and_tests() {
        let good = "fn execute_staged(t: &Telemetry, parts: Vec<StagedPart>) \
                    { for p in parts { let mut s = p.span; \
                    s.disposition = d; t.complete(&s); } }";
        assert!(check("crates/iofwd/src/server/handlers.rs", good)
            .iter()
            .all(|v| v.rule != Rule::R7));
        // The engine's batch write handles no span.
        let engine = "impl Engine { pub fn execute_coalesced_write(&self) {} }";
        assert!(check("crates/iofwd/src/server/engine.rs", engine)
            .iter()
            .all(|v| v.rule != Rule::R7));
        // Test code is out of scope.
        let in_tests = "#[cfg(test)]\nmod tests { fn g() { execute_staged(e, t, fd, parts, 1); } }";
        assert!(check("crates/iofwd/src/server/mod.rs", in_tests)
            .iter()
            .all(|v| v.rule != Rule::R7));
    }

    #[test]
    fn r9_flags_raw_client_table_access_in_iofwd() {
        let bad = "fn f(t: &Telemetry, id: u64) { t.clients.entry(id).ops.inc(); \
                   let _ = t.clients.lookup(id); }";
        let v = check("crates/iofwd/src/server/reactor.rs", bad);
        assert_eq!(v.iter().filter(|v| v.rule == Rule::R9).count(), 2);
        // The telemetry crate implements the table; it is out of scope.
        assert!(check("crates/iofwd-telemetry/src/lib.rs", bad)
            .iter()
            .all(|v| v.rule != Rule::R9));
    }

    #[test]
    fn r9_allows_accessor_and_tests() {
        let good = "fn f(t: &Telemetry, id: u64) { \
                    if let Some(c) = t.client_stats(id) { c.ops.inc(); } }";
        assert!(check("crates/iofwd/src/bin/iofwdd.rs", good)
            .iter()
            .all(|v| v.rule != Rule::R9));
        let in_tests = "#[cfg(test)]\nmod tests { fn g(t: &Telemetry) { \
                        let _ = t.clients.lookup(1); } }";
        assert!(check("crates/iofwd/src/transport.rs", in_tests)
            .iter()
            .all(|v| v.rule != Rule::R9));
        let e2e = "fn g(t: &Telemetry) { let _ = t.clients.snapshot(); }";
        assert!(check("crates/iofwd/tests/introspection_e2e.rs", e2e)
            .iter()
            .all(|v| v.rule != Rule::R9));
    }

    #[test]
    fn r10_flags_to_vec_on_hot_path_files_only() {
        let src = "fn f(data: &Bytes) -> Vec<u8> { data.to_vec() }";
        let v = check("crates/iofwd/src/server/handlers.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == Rule::R10).count(), 1);
        // The client's marshal copy and a copy in the frame reader are
        // the same defect.
        let marshal = "fn f(data: &[u8]) -> Bytes { Bytes::copy_from_slice(data) }";
        for file in [
            "crates/iofwd/src/client.rs",
            "crates/iofwd-proto/src/reader.rs",
        ] {
            for bad in [src, marshal] {
                let v = check(file, bad);
                assert_eq!(v.iter().filter(|v| v.rule == Rule::R10).count(), 1);
            }
        }
        // Off the hot path, copies are fine.
        assert!(check("crates/iofwd/src/daemon.rs", src)
            .iter()
            .chain(&check("crates/iofwd/src/daemon.rs", marshal))
            .all(|v| v.rule != Rule::R10));
    }

    #[test]
    fn r10_accepts_annotated_copies_and_tests() {
        let annotated = "fn f(data: &Bytes) -> Vec<u8> {\n\
                         // HOTPATH: deliberate deep copy — paper fidelity.\n\
                         data.to_vec()\n}";
        assert!(check("crates/iofwd/src/server/handlers.rs", annotated)
            .iter()
            .all(|v| v.rule != Rule::R10));
        let in_tests = "#[cfg(test)]\nmod tests { fn g(d: &Bytes) { let _ = d.to_vec(); } }";
        assert!(check("crates/iofwd/src/transport.rs", in_tests)
            .iter()
            .all(|v| v.rule != Rule::R10));
    }

    #[test]
    fn r12_flags_each_driver_primitive_in_admission_only() {
        for name in DRIVER_NAMES {
            let src = format!("fn f() {{ let x = {name}; }}\n");
            let v = check("crates/iofwd/src/server/admit.rs", &src);
            let r12: Vec<_> = v.iter().filter(|v| v.rule == Rule::R12).collect();
            assert_eq!(r12.len(), 1, "{name}");
            assert_eq!(r12[0].line, 1);
            // The drivers own these primitives.
            assert!(check("crates/iofwd/src/server/handlers.rs", &src)
                .iter()
                .all(|v| v.rule != Rule::R12));
        }
    }

    #[test]
    fn r12_allows_non_blocking_bml_calls_comments_and_tests() {
        let src = "// a handler blocks in Bml::adopt; a Receiver carries the reply\n\
                   fn f(b: &Bml) { b.try_acquire(1); }\n\
                   #[cfg(test)]\nmod tests { use crate::sync::Receiver; \
                   fn g(rx: &Receiver<u8>) { rx.recv(); b.acquire(1); } }\n";
        assert!(check("crates/iofwd/src/server/admit.rs", src)
            .iter()
            .all(|v| v.rule != Rule::R12));
    }

    #[test]
    fn r13_keeps_locks_and_channels_in_the_sync_seam() {
        let r13 = |path: &str, src: &str| -> Vec<usize> {
            let v = check(path, src);
            v.iter()
                .filter(|v| v.rule == Rule::R13)
                .map(|v| v.line)
                .collect()
        };
        let planted = "use std::sync::Arc;\nuse std::sync::Mutex;\n";
        assert_eq!(r13("crates/iofwd/src/descdb.rs", planted), [2]);
        for (src, hits) in [
            (
                "use std::sync::{atomic::{AtomicBool, Ordering}, Condvar};",
                1,
            ),
            ("use std::sync::mpsc::channel;", 1),
            (
                "fn f() -> crossbeam::channel::Receiver<parking_lot::Mutex<u8>> { g() }",
                2,
            ),
        ] {
            assert_eq!(
                r13("crates/iofwd/src/server/reactor.rs", src).len(),
                hits,
                "{src}"
            );
        }
        // The seam itself, other crates and comments are out of scope.
        assert!(r13("crates/iofwd/src/sync.rs", planted).is_empty());
        assert!(r13("crates/simcore/src/exec.rs", planted).is_empty());
        let commented =
            "// was a parking_lot std::sync::Mutex\nuse std::sync::atomic::AtomicBool;\n";
        assert!(r13("crates/iofwd/src/descdb.rs", commented).is_empty());
    }

    #[test]
    fn r4_requires_safety_comment() {
        let bad = "fn f() { unsafe { g() } }";
        let v = check("crates/iofwd/src/daemon.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::R4);
        let good = "// SAFETY: g has no preconditions.\nfn f() { unsafe { g() } }";
        assert!(check("crates/iofwd/src/daemon.rs", good).is_empty());
    }
}
