//! Per-function concurrency summaries for `cargo xtask analyze`.
//!
//! This module turns one masked source file (see [`crate::lexer::strip`])
//! into a list of [`FnSummary`] values — one per `fn` item outside
//! `#[cfg(test)]` regions — recording, with byte positions intact:
//!
//! * lock acquisitions (`.lock()`, plus `.read()`/`.write()` on
//!   receivers declared `RwLock` in the same file), each with an
//!   approximate *identity*, the guard binding if `let`-bound, and the
//!   guard's live extent;
//! * every call site (name, `Type::` qualifier, `.receiver` chain,
//!   argument text) so the interprocedural pass can resolve callees and
//!   classify condvar waits and blocking primitives;
//! * BML buffer acquisitions (`acquire`/`try_acquire` and their `adopt`
//!   twins on a `bml`-named receiver, and `BmlBuffer::from_payload`,
//!   which takes a received payload's block back out of its frame) with
//!   binding and scope, for the A3 leak-path rule.
//!
//! Everything here is name-driven approximation over the token stream —
//! the known false-positive/negative sources are catalogued in
//! DESIGN.md §13.

use crate::lexer::{find_words, line_of, strip, word_at};
use crate::rules::{matching_brace, test_regions};

/// One lock acquisition and the extent over which its guard is live.
#[derive(Debug, Clone)]
pub struct LockAcquire {
    /// Approximate lock identity: `Type::field` when the receiver chain
    /// is rooted at `self` inside an impl, else `filestem::name`.
    pub lock: String,
    /// Guard binding from `let [mut] g = <recv>.lock();`, if any.
    pub binding: Option<String>,
    /// Receiver chain text, e.g. `self.shared.inner`.
    pub receiver: String,
    /// Byte position of the `lock`/`read`/`write` method name.
    pub pos: usize,
    /// Byte position where the guard dies (drop/`;`/end of block).
    pub end: usize,
    pub line: usize,
}

/// One call site in a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    /// `T` in `T::name(...)`, if path-qualified.
    pub qualifier: Option<String>,
    /// Receiver chain text in `<chain>.name(...)`, if method-style.
    pub receiver: Option<String>,
    /// Byte position where the receiver chain starts (== `pos` when
    /// there is no receiver).
    pub recv_start: usize,
    /// Masked argument text between the parentheses.
    pub args: String,
    /// Byte position of the method/function name.
    pub pos: usize,
    pub line: usize,
}

/// One BML buffer acquisition (A3 tracking).
#[derive(Debug, Clone)]
pub struct BufAcquire {
    pub binding: String,
    /// Byte position where uses of the binding may begin (after the
    /// acquire statement / the match-arm pattern).
    pub start: usize,
    /// End of the binding's scope (enclosing block / match close).
    pub end: usize,
    pub line: usize,
}

/// Summary of one `fn` item.
#[derive(Debug, Clone)]
pub struct FnSummary {
    /// `Type::name` inside an impl/trait, else `filestem::name`.
    pub qname: String,
    pub name: String,
    pub file: String,
    pub line: usize,
    /// Body byte range in the masked source (used for scoping only).
    pub body: (usize, usize),
    pub acquires: Vec<LockAcquire>,
    /// Parameters typed `...MutexGuard...` — treated as guards held for
    /// the whole function.
    pub guard_params: Vec<String>,
    pub calls: Vec<CallSite>,
    pub buf_acquires: Vec<BufAcquire>,
    /// The masked source of the whole file (shared for use scanning).
    pub masked: std::rc::Rc<String>,
}

/// Extract summaries for every non-test `fn` in `source`.
pub fn extract_file(rel: &str, source: &str) -> Vec<FnSummary> {
    let masked = std::rc::Rc::new(strip(source));
    let tests = test_regions(&masked);
    let in_tests = |pos: usize| tests.iter().any(|&(a, b)| pos >= a && pos <= b);
    let stem = file_stem(rel);
    let containers = container_spans(&masked);
    let rwlocks = rwlock_names(&masked);

    let mut fns = collect_fns(&masked, &containers, &stem, rel);
    fns.retain(|f| !in_tests(f.header));
    // Child `fn` items nested inside another `fn` body own their events.
    let spans: Vec<(usize, usize)> = fns.iter().map(|f| f.body).collect();
    let mut out = Vec::new();
    for f in &fns {
        let children: Vec<(usize, usize)> = spans
            .iter()
            .filter(|&&(a, b)| a > f.body.0 && b < f.body.1)
            .copied()
            .collect();
        let own = |pos: usize| {
            pos > f.body.0 && pos < f.body.1 && !children.iter().any(|&(a, b)| pos >= a && pos <= b)
        };
        let calls = collect_calls(&masked, f.body, &own);
        let acquires = collect_acquires(&masked, &calls, &rwlocks, f.impl_type.as_deref(), &stem);
        let buf_acquires = collect_buf_acquires(&masked, &calls);
        out.push(FnSummary {
            qname: f.qname.clone(),
            name: f.name.clone(),
            file: rel.to_string(),
            line: line_of(&masked, f.header),
            body: f.body,
            acquires,
            guard_params: guard_params(&masked, f.params),
            calls,
            buf_acquires,
            masked: masked.clone(),
        });
    }
    out
}

fn file_stem(rel: &str) -> String {
    let unix = rel.replace('\\', "/");
    let base = unix.rsplit('/').next().unwrap_or(&unix);
    base.strip_suffix(".rs").unwrap_or(base).to_string()
}

struct RawFn {
    name: String,
    qname: String,
    impl_type: Option<String>,
    header: usize,
    params: (usize, usize),
    body: (usize, usize),
}

/// `impl`/`trait` item spans with the type name they attach to.
fn container_spans(masked: &str) -> Vec<(usize, usize, String)> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for kw in ["impl", "trait"] {
        for pos in find_words(masked, kw) {
            // Find the body `{` at angle-depth 0 after the header.
            let mut i = pos + kw.len();
            let mut angle = 0i32;
            let mut open = None;
            while i < bytes.len() {
                match bytes[i] {
                    b'<' => angle += 1,
                    b'>' => {
                        if i > 0 && bytes[i - 1] == b'-' {
                            // `->` arrow inside a bound, not a closer.
                        } else {
                            angle -= 1;
                        }
                    }
                    b'{' if angle <= 0 => {
                        open = Some(i);
                        break;
                    }
                    b';' if angle <= 0 => break,
                    _ => {}
                }
                i += 1;
            }
            let Some(open) = open else { continue };
            let Some(close) = matching_brace(bytes, open) else {
                continue;
            };
            let header = &masked[pos + kw.len()..open];
            let ty = if kw == "impl" {
                impl_type_name(header)
            } else {
                first_ident(header)
            };
            if let Some(ty) = ty {
                out.push((open, close, ty));
            }
        }
    }
    out
}

/// `Foo` from `impl Foo {`, `impl<T> Foo<T> {`, `impl Trait for Foo {`.
fn impl_type_name(header: &str) -> Option<String> {
    let target = match split_top_level_for(header) {
        Some(after_for) => after_for,
        None => skip_leading_generics(header),
    };
    first_ident(target)
}

/// Text after a top-level ` for ` (angle-depth 0), if present.
fn split_top_level_for(s: &str) -> Option<&str> {
    let bytes = s.as_bytes();
    let mut angle = 0i32;
    for pos in find_words(s, "for") {
        for &b in &bytes[..pos] {
            match b {
                b'<' => angle += 1,
                b'>' => angle -= 1,
                _ => {}
            }
        }
        if angle == 0 {
            return Some(&s[pos + 3..]);
        }
        angle = 0;
    }
    None
}

fn skip_leading_generics(s: &str) -> &str {
    let t = s.trim_start();
    if let Some(rest) = t.strip_prefix('<') {
        let mut depth = 1i32;
        for (i, b) in rest.bytes().enumerate() {
            match b {
                b'<' => depth += 1,
                b'>' => {
                    depth -= 1;
                    if depth == 0 {
                        return &rest[i + 1..];
                    }
                }
                _ => {}
            }
        }
    }
    t
}

/// First identifier in `s`, skipping `&`, `mut`, `dyn`, whitespace.
fn first_ident(s: &str) -> Option<String> {
    let mut t = s.trim_start();
    loop {
        let before = t;
        t = t.trim_start_matches(['&', '*', ' ', '\n', '\t']);
        for kw in ["mut", "dyn"] {
            if t.starts_with(kw)
                && t[kw.len()..]
                    .chars()
                    .next()
                    .is_none_or(|c| !c.is_alphanumeric() && c != '_')
            {
                t = t[kw.len()..].trim_start();
            }
        }
        if t == before {
            break;
        }
    }
    let end = t
        .char_indices()
        .find(|&(_, c)| !c.is_alphanumeric() && c != '_')
        .map_or(t.len(), |(i, _)| i);
    if end == 0 {
        None
    } else {
        Some(t[..end].to_string())
    }
}

fn collect_fns(
    masked: &str,
    containers: &[(usize, usize, String)],
    stem: &str,
    _rel: &str,
) -> Vec<RawFn> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for pos in find_words(masked, "fn") {
        let mut i = pos + 2;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        if i == name_start {
            continue; // `fn(..)` pointer type
        }
        let name = masked[name_start..i].to_string();
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        // Generics between name and params.
        if i < bytes.len() && bytes[i] == b'<' {
            let mut depth = 1i32;
            i += 1;
            while i < bytes.len() && depth > 0 {
                match bytes[i] {
                    b'<' => depth += 1,
                    b'>' if bytes[i - 1] != b'-' => depth -= 1,
                    _ => {}
                }
                i += 1;
            }
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
        }
        if i >= bytes.len() || bytes[i] != b'(' {
            continue;
        }
        let params_open = i;
        let Some(params_close) = matching_group(bytes, params_open, b'(', b')') else {
            continue;
        };
        // Body `{` (skipping return type / where clause), or `;`.
        let mut j = params_close + 1;
        let mut open = None;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    open = Some(j);
                    break;
                }
                b';' => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else { continue };
        let Some(close) = matching_brace(bytes, open) else {
            continue;
        };
        let container = containers
            .iter()
            .filter(|&&(a, b, _)| pos > a && pos < b)
            .min_by_key(|&&(a, b, _)| b - a)
            .map(|(_, _, ty)| ty.clone());
        let qname = match &container {
            Some(ty) => format!("{ty}::{name}"),
            None => format!("{stem}::{name}"),
        };
        out.push(RawFn {
            name,
            qname,
            impl_type: container,
            header: pos,
            params: (params_open, params_close),
            body: (open, close),
        });
    }
    out
}

/// Match `open` (a `(` or `[`) to its closing delimiter.
pub(crate) fn matching_group(bytes: &[u8], open: usize, o: u8, c: u8) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = open;
    while i < bytes.len() {
        if bytes[i] == o {
            depth += 1;
        } else if bytes[i] == c {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "fn", "let", "else",
    "unsafe", "pub", "where", "impl", "dyn", "ref", "mut", "box", "use", "mod", "crate",
];

fn collect_calls(masked: &str, body: (usize, usize), own: &dyn Fn(usize) -> bool) -> Vec<CallSite> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    let mut i = body.0 + 1;
    while i < body.1 {
        if bytes[i] != b'(' {
            i += 1;
            continue;
        }
        let open = i;
        i += 1;
        if !own(open) {
            continue;
        }
        // Identifier directly before the `(` (whitespace allowed).
        let mut k = open;
        while k > body.0 && bytes[k - 1].is_ascii_whitespace() {
            k -= 1;
        }
        if k == body.0 || bytes[k - 1] == b'!' {
            continue; // not a call, or a macro invocation
        }
        let name_end = k;
        while k > body.0 && (bytes[k - 1].is_ascii_alphanumeric() || bytes[k - 1] == b'_') {
            k -= 1;
        }
        if k == name_end || bytes[k].is_ascii_digit() {
            continue;
        }
        let name = masked[k..name_end].to_string();
        if KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        // Skip declarations: `fn name(` .
        let mut p = k;
        while p > body.0 && bytes[p - 1].is_ascii_whitespace() {
            p -= 1;
        }
        if p >= 2 && word_at(masked, p - 2, "fn") {
            continue;
        }
        let (qualifier, receiver, recv_start) =
            if p >= 2 && bytes[p - 1] == b':' && bytes[p - 2] == b':' {
                let mut q = p - 2;
                let q_end = q;
                while q > body.0 && (bytes[q - 1].is_ascii_alphanumeric() || bytes[q - 1] == b'_') {
                    q -= 1;
                }
                ((q < q_end).then(|| masked[q..q_end].to_string()), None, k)
            } else if p > body.0 && bytes[p - 1] == b'.' {
                let (start, chain) = receiver_chain(masked, body.0, p - 1);
                (None, Some(chain), start)
            } else {
                (None, None, k)
            };
        let close = matching_group(bytes, open, b'(', b')').unwrap_or(body.1);
        out.push(CallSite {
            name,
            qualifier,
            receiver,
            recv_start,
            args: masked[open + 1..close].to_string(),
            pos: k,
            line: line_of(masked, k),
        });
    }
    out.sort_by_key(|c| c.pos);
    out
}

/// Best-effort receiver expression ending at the `.` at `dot`: walks
/// back over identifiers, `.`, `::`, `?`, balanced `(..)` / `[..]`
/// groups, and intra-chain whitespace (rustfmt splits long chains
/// across lines). Leading statement keywords swallowed by the walk
/// (`match x.lock()`, `return x.lock()`) are stripped off again.
/// Returns (start position, chain text).
fn receiver_chain(masked: &str, lo: usize, dot: usize) -> (usize, String) {
    let bytes = masked.as_bytes();
    let mut i = dot;
    while i > lo {
        let b = bytes[i - 1];
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'?' {
            i -= 1;
        } else if b == b':' && i >= 2 && bytes[i - 2] == b':' {
            i -= 2;
        } else if b.is_ascii_whitespace() {
            // Skip whitespace only when it joins two chain tokens
            // (`expr\n    .method()`); stop at statement boundaries.
            let mut j = i;
            while j > lo && bytes[j - 1].is_ascii_whitespace() {
                j -= 1;
            }
            let prev = if j > lo { bytes[j - 1] } else { 0 };
            if prev.is_ascii_alphanumeric()
                || prev == b'_'
                || prev == b'.'
                || prev == b'?'
                || prev == b')'
                || prev == b']'
            {
                i = j;
            } else {
                break;
            }
        } else if b == b')' || b == b']' {
            let (o, c) = if b == b')' {
                (b'(', b')')
            } else {
                (b'[', b']')
            };
            let mut depth = 0i32;
            let mut j = i;
            while j > lo {
                j -= 1;
                if bytes[j] == c {
                    depth += 1;
                } else if bytes[j] == o {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            i = j;
        } else {
            break;
        }
    }
    // Strip leading keywords the whitespace rule may have pulled in.
    loop {
        let text = masked[i..dot].trim_start();
        let start = dot - text.len();
        let word_end = text
            .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .unwrap_or(text.len());
        let first = &text[..word_end];
        if !first.is_empty()
            && KEYWORDS.contains(&first)
            && text[word_end..].starts_with(char::is_whitespace)
        {
            i = start + word_end;
        } else {
            i = start;
            break;
        }
    }
    (i, masked[i..dot].trim().to_string())
}

/// Last identifier segment of a receiver chain (`self.shared.inner` →
/// `inner`; `files.get(k)` → strips the call → `get`).
pub(crate) fn last_segment(chain: &str) -> String {
    let t = chain.trim_end_matches(['?', ')', '(', ']', '[']);
    let end = t.len();
    let start = t
        .rfind(|c: char| !c.is_alphanumeric() && c != '_')
        .map_or(0, |i| i + c_len(t, i));
    t[start..end].to_string()
}

fn c_len(s: &str, i: usize) -> usize {
    s[i..].chars().next().map_or(1, char::len_utf8)
}

/// Identifiers `name` declared `RwLock` in this file (field `name:
/// RwLock<..>` or binding `name = RwLock::new(..)`).
fn rwlock_names(masked: &str) -> Vec<String> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for pos in find_words(masked, "RwLock") {
        let mut i = pos;
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        if i == 0 || (bytes[i - 1] != b':' && bytes[i - 1] != b'=') {
            continue;
        }
        i -= 1;
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        let end = i;
        while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
            i -= 1;
        }
        if i < end {
            out.push(masked[i..end].to_string());
        }
    }
    out
}

/// Turn the relevant `CallSite`s into `LockAcquire`s with identity,
/// binding, and extent.
fn collect_acquires(
    masked: &str,
    calls: &[CallSite],
    rwlocks: &[String],
    impl_type: Option<&str>,
    stem: &str,
) -> Vec<LockAcquire> {
    let mut out = Vec::new();
    for c in calls {
        let Some(recv) = &c.receiver else { continue };
        if !c.args.trim().is_empty() {
            continue;
        }
        let is_lock = c.name == "lock";
        let is_rw = (c.name == "read" || c.name == "write")
            && rwlocks.iter().any(|n| *n == last_segment(recv));
        if !is_lock && !is_rw {
            continue;
        }
        let lock = lock_identity(recv, impl_type, stem);
        let (binding, end) = guard_extent(masked, c);
        out.push(LockAcquire {
            lock,
            binding,
            receiver: recv.clone(),
            pos: c.pos,
            end,
            line: c.line,
        });
    }
    out
}

fn lock_identity(chain: &str, impl_type: Option<&str>, stem: &str) -> String {
    let last = last_segment(chain);
    let root = chain
        .split(['.', ':'])
        .next()
        .unwrap_or("")
        .trim_matches(['&', '*', ' ']);
    if root == "self" {
        if let Some(ty) = impl_type {
            return format!("{ty}::{last}");
        }
    }
    format!("{stem}::{last}")
}

/// For `let [mut] g = [match] <recv>.lock()...`, return the binding and
/// guard-death position; otherwise treat the guard as a temporary that
/// dies at the end of the statement.
fn guard_extent(masked: &str, c: &CallSite) -> (Option<String>, usize) {
    let bytes = masked.as_bytes();
    if let Some((binding, let_pos)) = let_binding_before(masked, c.recv_start) {
        let block = enclosing_block(bytes, let_pos);
        let let_depth = depth_at(bytes, let_pos);
        let close = block.map_or(bytes.len(), |(_, b)| b);
        // `drop(g)` at the same nesting depth as the `let` ends the
        // guard early; a drop inside a nested branch does not (the
        // guard is still live on the other branch).
        for dp in find_words(masked, "drop") {
            if dp <= c.pos || dp >= close || depth_at(bytes, dp) != let_depth {
                continue;
            }
            let mut i = dp + 4;
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'(' && word_at(masked, i + 1, &binding) {
                return (Some(binding), dp);
            }
        }
        (Some(binding), close)
    } else {
        // Temporary guard: lives to the `;` ending this statement. A
        // top-level `{` also ends it — `if`/`while` conditions are
        // terminating scopes, so `if *self.x.lock() { .. }` drops the
        // guard before the body runs. (`match` scrutinees actually keep
        // their temporaries through the arms — a documented false
        // negative.)
        let mut i = c.pos;
        let mut depth = 0i32;
        while i < bytes.len() {
            match bytes[i] {
                b'{' if depth == 0 => break,
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                b';' if depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        (None, i)
    }
}

/// Walk back from `recv_start` over `= [match]` to a `let [mut] NAME`.
fn let_binding_before(masked: &str, recv_start: usize) -> Option<(String, usize)> {
    let bytes = masked.as_bytes();
    let mut i = recv_start;
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    // Optional `match` / `Some(..)`-free simple forms only.
    if i >= 5 && word_at(masked, i - 5, "match") {
        i -= 5;
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
    }
    if i == 0 || bytes[i - 1] != b'=' {
        return None;
    }
    i -= 1;
    if i > 0 && matches!(bytes[i - 1], b'=' | b'!' | b'<' | b'>' | b'+' | b'-') {
        return None; // comparison or compound assignment
    }
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    let name_end = i;
    while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        i -= 1;
    }
    if i == name_end {
        return None;
    }
    let name = masked[i..name_end].to_string();
    if name == "_" {
        return None; // `let _ = ..` drops the value at statement end
    }
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    if i >= 3 && word_at(masked, i - 3, "mut") {
        i -= 3;
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
    }
    if i >= 3 && word_at(masked, i - 3, "let") {
        Some((name, i - 3))
    } else {
        None
    }
}

/// Innermost `{..}` pair containing `pos` (the first *closed* pair that
/// contains it — outer candidates only close later).
fn enclosing_block(bytes: &[u8], pos: usize) -> Option<(usize, usize)> {
    let mut stack = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'{' => stack.push(i),
            b'}' => {
                if let Some(open) = stack.pop() {
                    if open < pos && i > pos {
                        return Some((open, i));
                    }
                }
            }
            _ => {}
        }
    }
    None
}

/// Brace depth at byte `pos`.
fn depth_at(bytes: &[u8], pos: usize) -> i32 {
    let mut d = 0i32;
    for &b in &bytes[..pos.min(bytes.len())] {
        match b {
            b'{' => d += 1,
            b'}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// BML acquisitions: `acquire`/`try_acquire` and the zero-copy
/// `adopt`/`try_adopt` twins on a `bml`-named handle, and
/// `BmlBuffer::from_payload` (the block a payload was received into,
/// taken back out of its frame), bound either via `let` or a `Some(buf)`
/// / `Ok(buf)` match arm.
fn collect_buf_acquires(masked: &str, calls: &[CallSite]) -> Vec<BufAcquire> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for c in calls {
        let expr_start = match (c.name.as_str(), &c.receiver, &c.qualifier) {
            ("acquire" | "try_acquire" | "adopt" | "try_adopt", Some(recv), _)
                if last_segment(recv).to_ascii_lowercase().contains("bml") =>
            {
                c.recv_start
            }
            ("from_payload", None, Some(q)) if q == "BmlBuffer" => {
                c.pos.saturating_sub(q.len() + 2)
            }
            _ => continue,
        };
        if let Some((binding, let_pos)) = let_binding_before(masked, expr_start) {
            // Uses start after the end of the let statement.
            let (_, stmt_end) = guard_extent_stmt(bytes, c.pos);
            let close = enclosing_block(bytes, let_pos).map_or(bytes.len(), |(_, b)| b);
            out.push(BufAcquire {
                binding,
                start: stmt_end,
                end: close,
                line: c.line,
            });
            continue;
        }
        // `match bml.acquire(..) { .. Some(buf) => {..} .. }`
        let mut i = expr_start;
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        if i < 5 || !word_at(masked, i - 5, "match") {
            continue;
        }
        let close = matching_group(bytes, c.pos, b'(', b')').unwrap_or(c.pos);
        let mut j = close + 1;
        while j < bytes.len() && bytes[j] != b'{' {
            j += 1;
        }
        let Some(match_close) = matching_brace(bytes, j) else {
            continue;
        };
        for pat in ["Some(", "Ok("] {
            let mut s = j;
            while let Some(off) = masked[s..match_close].find(pat) {
                let at = s + off;
                s = at + pat.len();
                let inner_close = match matching_group(bytes, at + pat.len() - 1, b'(', b')') {
                    Some(p) => p,
                    None => continue,
                };
                let inner = masked[at + pat.len()..inner_close].trim();
                let inner = inner.strip_prefix("mut ").unwrap_or(inner).trim();
                if inner.is_empty()
                    || !inner
                        .chars()
                        .all(|ch| ch.is_ascii_alphanumeric() || ch == '_')
                {
                    continue;
                }
                out.push(BufAcquire {
                    binding: inner.to_string(),
                    start: inner_close + 1,
                    end: match_close,
                    line: c.line,
                });
            }
        }
    }
    out
}

/// End of the statement containing the call at `pos`.
fn guard_extent_stmt(bytes: &[u8], pos: usize) -> (usize, usize) {
    let mut i = pos;
    let mut depth = 0i32;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            b';' if depth == 0 => break,
            _ => {}
        }
        i += 1;
    }
    (pos, i)
}

/// Parameter names typed `MutexGuard` (guards passed in by value/ref).
fn guard_params(masked: &str, params: (usize, usize)) -> Vec<String> {
    let text = &masked[params.0 + 1..params.1];
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let bytes = text.as_bytes();
    let mut parts = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'<' | b'(' | b'[' => depth += 1,
            b'>' | b')' | b']' => depth -= 1,
            b',' if depth == 0 => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    for p in parts {
        let Some((pat, ty)) = p.split_once(':') else {
            continue;
        };
        if !ty.contains("MutexGuard") {
            continue;
        }
        let pat = pat.trim().trim_start_matches("mut ").trim();
        if !pat.is_empty()
            && pat
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || ch == '_')
        {
            out.push(pat.to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(src: &str) -> FnSummary {
        let fns = extract_file("crates/iofwd/src/demo.rs", src);
        assert_eq!(fns.len(), 1, "expected one fn in fixture");
        fns.into_iter().next().unwrap()
    }

    #[test]
    fn extracts_self_rooted_lock_identity_and_binding() {
        let f = one(
            "impl Bml { fn acquire(&self) { let mut inner = self.shared.inner.lock(); \
             inner.touch(); } }",
        );
        assert_eq!(f.qname, "Bml::acquire");
        assert_eq!(f.acquires.len(), 1);
        assert_eq!(f.acquires[0].lock, "Bml::inner");
        assert_eq!(f.acquires[0].binding.as_deref(), Some("inner"));
    }

    #[test]
    fn temp_guard_dies_at_statement_end() {
        let f = one("impl E { fn s(&self) { self.obj.lock().seek(); self.after(); } }");
        let acq = &f.acquires[0];
        assert!(acq.binding.is_none());
        // Extent must not cover the `after` call in the next statement.
        let after = f.calls.iter().find(|c| c.name == "after").unwrap();
        assert!(acq.end < after.pos);
    }

    #[test]
    fn same_depth_drop_ends_guard_nested_drop_does_not() {
        let f = one(
            "impl D { fn f(&self) { let g = self.inner.lock(); if x { drop(g); } \
             let h = self.inner.lock(); drop(h); self.tail(); } }",
        );
        let tail = f.calls.iter().find(|c| c.name == "tail").unwrap().pos;
        // `g`'s drop is nested — guard runs to end of block.
        assert!(f.acquires[0].end > tail);
        // `h`'s drop is same-depth — guard ends before `tail`.
        assert!(f.acquires[1].end < tail);
    }

    #[test]
    fn block_expression_scopes_guard() {
        let f = one(
            "impl E { fn r(&self) { let b = { let mut rng = self.retry_rng.lock(); \
             rng.next() }; sleep(b); } }",
        );
        let sleep = f.calls.iter().find(|c| c.name == "sleep").unwrap().pos;
        assert!(f.acquires[0].end < sleep, "guard must die at block end");
    }

    #[test]
    fn finds_bml_acquire_match_binding() {
        let f = one(
            "impl H { fn w(&self, bml: &Bml) { match bml.try_acquire(n) { \
             None => {} Some(mut buf) => { use_it(buf); } } } }",
        );
        assert_eq!(f.buf_acquires.len(), 1);
        assert_eq!(f.buf_acquires[0].binding, "buf");
    }

    #[test]
    fn rwlock_read_is_an_acquire_plain_read_is_not() {
        let f =
            one("impl S { fn f(&self) { let g = self.map.read(); let n = self.stream.read(); } }");
        // Neither receiver is declared RwLock in this file.
        assert!(f.acquires.is_empty());
        let f2 =
            one("impl S { fn f(&self) { let g = self.map.read(); } } struct S { map: RwLock<u8> }");
        assert_eq!(f2.acquires.len(), 1);
    }

    #[test]
    fn skips_test_regions_and_macros() {
        let src = "impl T { fn f(&self) { println!(\"x\"); self.g(); } }\n\
                   #[cfg(test)] mod tests { fn hidden() { a.lock(); } }";
        let fns = extract_file("crates/iofwd/src/demo.rs", src);
        assert_eq!(fns.len(), 1);
        assert!(fns[0].calls.iter().all(|c| c.name != "println"));
        assert!(fns[0].calls.iter().any(|c| c.name == "g"));
    }
}
