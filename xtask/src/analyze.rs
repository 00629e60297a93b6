//! `cargo xtask analyze` — interprocedural concurrency analysis.
//!
//! Consumes the per-function summaries from [`crate::summary`], links
//! them over an approximate name-resolution call graph, and reports:
//!
//! * **A1** — lock-order cycles: pairs/cycles of lock identities that
//!   are acquired in inconsistent orders anywhere in the workspace
//!   (deadlock candidates), with a witness acquisition chain per edge.
//! * **A2** — blocking calls (condvar waits, backend I/O, transport
//!   send/recv, sleeps, thread joins — directly or via any call chain)
//!   made while a lock guard is live, excluding the guard's own paired
//!   condvar wait and operations *on* the guarded data itself.
//! * **A3** — BML buffer leak paths: an acquired buffer that can exit
//!   the function via `?` or `return` before its first hand-off
//!   (queueing, release, or any consuming use).
//!
//! Findings can be suppressed three ways, all audited:
//! per-line source annotations (`// analyze: allow(A2)` on the finding
//! line or the line above, `// analyze: nonblocking` on a function
//! header), or per-file entries in `xtask/analyze.allow` (same shape as
//! `lint.allow`; stale entries fail the build).
//!
//! The approximations and their known false-positive/negative sources
//! are documented in DESIGN.md §13.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::Path;
use std::process::ExitCode;

use iofwd_telemetry::json::quote;

use crate::lexer::{find_words, line_of, word_at};
use crate::summary::{extract_file, last_segment, CallSite, FnSummary};

/// Analysis rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ARule {
    /// Lock-order cycle / inconsistent pairwise acquisition order.
    A1,
    /// Blocking call while a lock guard is live.
    A2,
    /// BML buffer may leak via `?`/early return before hand-off.
    A3,
}

impl ARule {
    pub fn parse(s: &str) -> Option<ARule> {
        match s {
            "A1" => Some(ARule::A1),
            "A2" => Some(ARule::A2),
            "A3" => Some(ARule::A3),
            _ => None,
        }
    }
}

impl std::fmt::Display for ARule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ARule::A1 => "A1",
            ARule::A2 => "A2",
            ARule::A3 => "A3",
        })
    }
}

/// One reported finding, with provenance and a witness call chain.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: ARule,
    pub file: String,
    pub line: usize,
    pub message: String,
    /// Witness chain, outermost first (`Type::fn (file:line)` hops
    /// ending at the blocking primitive / lock acquisition).
    pub chain: Vec<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        for hop in &self.chain {
            write!(f, "\n    via {hop}")?;
        }
        Ok(())
    }
}

/// One ordered lock-acquisition edge observed anywhere in the graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: usize,
    /// Call chain when the inner acquisition happens in a callee.
    pub via: Vec<String>,
}

/// Full analysis result for one run.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub edges: Vec<LockEdge>,
    pub files: usize,
    pub functions: usize,
}

// ---------------------------------------------------------------------
// classification tables
// ---------------------------------------------------------------------

/// Method/function names that are blocking primitives wherever they
/// appear: backend I/O, filesystem metadata, transport, time.
const BLOCKING: &[&str] = &[
    "write_at",
    "write_vectored_at",
    "read_into",
    "read_exact",
    "write_all",
    "flush",
    "fstat",
    "truncate",
    "readdir",
    "unlink",
    "mkdir",
    "stat",
    "seek",
    "sync",
    "open",
    "connect",
    "accept",
    "send",
    "recv",
    "recv_timeout",
    "sleep",
];

/// Condvar wait methods; blocking, but paired with (and releasing) the
/// guard passed as `&mut g`.
const CV_WAITS: &[&str] = &["wait", "wait_for", "wait_timeout", "wait_while"];

/// Method names too generic to resolve by name alone when the receiver
/// does not look like any candidate impl type (`out.push(..)` must not
/// resolve to `WorkQueue::push`).
const COMMON_METHODS: &[&str] = &[
    "push", "pop", "get", "set", "insert", "remove", "clear", "drain", "take", "next", "iter",
    "len", "write", "read", "close", "new", "clone", "run", "complete", "abort",
];

fn is_cv_wait(c: &CallSite) -> Option<String> {
    if !CV_WAITS.contains(&c.name.as_str()) || c.receiver.is_none() {
        return None;
    }
    // Paired guard: the identifier after the first `&mut` in the args.
    let args = &c.args;
    let at = args.find("&mut")?;
    let rest = args[at + 4..].trim_start();
    let end = rest
        .find(|ch: char| !ch.is_ascii_alphanumeric() && ch != '_')
        .unwrap_or(rest.len());
    (end > 0).then(|| rest[..end].to_string())
}

fn is_blocking_prim(c: &CallSite) -> bool {
    if c.name == "join" && c.args.trim().is_empty() {
        return true; // thread join; `Path::join(..)` always has args
    }
    BLOCKING.contains(&c.name.as_str())
}

// ---------------------------------------------------------------------
// call resolution
// ---------------------------------------------------------------------

struct Graph {
    fns: Vec<FnSummary>,
    by_name: HashMap<String, Vec<usize>>,
    by_qname: HashMap<String, Vec<usize>>,
}

impl Graph {
    fn build(fns: Vec<FnSummary>) -> Graph {
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_qname: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
            by_qname.entry(f.qname.clone()).or_default().push(i);
        }
        Graph {
            fns,
            by_name,
            by_qname,
        }
    }

    fn impl_type_of(&self, idx: usize) -> Option<&str> {
        let f = &self.fns[idx];
        f.qname
            .strip_suffix(&format!("::{}", f.name))
            .filter(|t| !t.is_empty())
    }

    /// Resolve a call site to candidate workspace functions. Unresolved
    /// calls (std, closures) return empty — assumed neither blocking
    /// nor lock-acquiring (a documented under-approximation).
    fn resolve(&self, caller: usize, c: &CallSite) -> Vec<usize> {
        if let Some(q) = &c.qualifier {
            let ty = if q == "Self" {
                self.impl_type_of(caller).unwrap_or(q).to_string()
            } else {
                q.clone()
            };
            return self
                .by_qname
                .get(&format!("{ty}::{}", c.name))
                .cloned()
                .unwrap_or_default();
        }
        let Some(cands) = self.by_name.get(&c.name) else {
            return Vec::new();
        };
        if let Some(recv) = &c.receiver {
            let last = last_segment(recv).to_ascii_lowercase();
            if recv.trim_start().starts_with("self") && (recv.trim() == "self" || last == "self") {
                // `self.helper()` — same impl type wins if present.
                if let Some(ty) = self.impl_type_of(caller) {
                    let own: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&i| self.impl_type_of(i) == Some(ty))
                        .collect();
                    if !own.is_empty() {
                        return own;
                    }
                }
            }
            // Receiver name must look like a candidate's impl type
            // (`queue.push` → WorkQueue, `bml.acquire` → Bml).
            if last.len() >= 2 {
                let related: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| {
                        self.impl_type_of(i).is_some_and(|ty| {
                            let ty = ty.to_ascii_lowercase();
                            ty.contains(&last) || last.contains(&ty)
                        })
                    })
                    .collect();
                if !related.is_empty() {
                    return related;
                }
            }
            // A unique, distinctive name is a strong signal on its own.
            if cands.len() == 1 && !COMMON_METHODS.contains(&c.name.as_str()) {
                return cands.clone();
            }
            return Vec::new();
        }
        // Bare call: same file first, else any candidate.
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| self.fns[i].file == self.fns[caller].file)
            .collect();
        if !same_file.is_empty() {
            same_file
        } else {
            cands.clone()
        }
    }
}

// ---------------------------------------------------------------------
// fixpoints: may-block / may-lock, with witness links
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Why {
    Prim { desc: String, line: usize },
    Call { callee: usize, line: usize },
}

fn may_block_fixpoint(g: &Graph, nonblocking: &HashSet<usize>) -> Vec<Option<Why>> {
    let mut why: Vec<Option<Why>> = vec![None; g.fns.len()];
    loop {
        let mut changed = false;
        for i in 0..g.fns.len() {
            if why[i].is_some() || nonblocking.contains(&i) {
                continue;
            }
            let mut found = None;
            for c in &g.fns[i].calls {
                if is_cv_wait(c).is_some() {
                    found = Some(Why::Prim {
                        desc: format!("condvar `{}`", c.name),
                        line: c.line,
                    });
                    break;
                }
                if is_blocking_prim(c) {
                    found = Some(Why::Prim {
                        desc: format!("`{}`", c.name),
                        line: c.line,
                    });
                    break;
                }
                if let Some(&callee) = g
                    .resolve(i, c)
                    .iter()
                    .find(|&&k| k != i && why[k].is_some())
                {
                    found = Some(Why::Call {
                        callee,
                        line: c.line,
                    });
                    break;
                }
            }
            if found.is_some() {
                why[i] = found;
                changed = true;
            }
        }
        if !changed {
            return why;
        }
    }
}

#[derive(Debug, Clone)]
enum LockWhy {
    Direct { line: usize },
    Via { callee: usize, line: usize },
}

fn may_lock_fixpoint(g: &Graph) -> Vec<BTreeMap<String, LockWhy>> {
    let mut sets: Vec<BTreeMap<String, LockWhy>> = vec![BTreeMap::new(); g.fns.len()];
    loop {
        let mut changed = false;
        for i in 0..g.fns.len() {
            let mut add: Vec<(String, LockWhy)> = Vec::new();
            for a in &g.fns[i].acquires {
                if !sets[i].contains_key(&a.lock) {
                    add.push((a.lock.clone(), LockWhy::Direct { line: a.line }));
                }
            }
            for c in &g.fns[i].calls {
                for &callee in &g.resolve(i, c) {
                    if callee == i {
                        continue;
                    }
                    for lock in sets[callee].keys() {
                        if !sets[i].contains_key(lock) && !add.iter().any(|(l, _)| l == lock) {
                            add.push((
                                lock.clone(),
                                LockWhy::Via {
                                    callee,
                                    line: c.line,
                                },
                            ));
                        }
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                sets[i].extend(add);
            }
        }
        if !changed {
            return sets;
        }
    }
}

/// `Type::fn (file:line)` chain from `start`'s blocking witness.
fn block_chain(g: &Graph, why: &[Option<Why>], start: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut cur = start;
    while seen.insert(cur) && out.len() < 8 {
        match &why[cur] {
            Some(Why::Call { callee, line }) => {
                out.push(format!(
                    "{} ({}:{})",
                    g.fns[*callee].qname, g.fns[cur].file, line
                ));
                cur = *callee;
            }
            Some(Why::Prim { desc, line }) => {
                out.push(format!("{} ({}:{})", desc, g.fns[cur].file, line));
                break;
            }
            None => break,
        }
    }
    out
}

/// Chain from `start` to its acquisition of `lock`.
fn lock_chain(
    g: &Graph,
    sets: &[BTreeMap<String, LockWhy>],
    start: usize,
    lock: &str,
) -> Vec<String> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut cur = start;
    while seen.insert(cur) && out.len() < 8 {
        match sets[cur].get(lock) {
            Some(LockWhy::Via { callee, line }) => {
                out.push(format!(
                    "{} ({}:{})",
                    g.fns[*callee].qname, g.fns[cur].file, line
                ));
                cur = *callee;
            }
            Some(LockWhy::Direct { line }) => {
                out.push(format!("acquires `{lock}` ({}:{})", g.fns[cur].file, line));
                break;
            }
            None => break,
        }
    }
    out
}

// ---------------------------------------------------------------------
// the three rules
// ---------------------------------------------------------------------

/// A live guard within one function, however it came to be held.
struct LiveGuard {
    lock: String,
    binding: Option<String>,
    receiver: Option<String>,
    start: usize,
    end: usize,
    line: usize,
}

fn live_guards(f: &FnSummary) -> Vec<LiveGuard> {
    let mut out: Vec<LiveGuard> = f
        .acquires
        .iter()
        .map(|a| LiveGuard {
            lock: a.lock.clone(),
            binding: a.binding.clone(),
            receiver: Some(a.receiver.clone()),
            start: a.pos,
            end: a.end,
            line: a.line,
        })
        .collect();
    for p in &f.guard_params {
        out.push(LiveGuard {
            lock: format!("param({p})"),
            binding: Some(p.clone()),
            receiver: None,
            start: f.body.0,
            end: f.body.1,
            line: f.line,
        });
    }
    out
}

/// An event on/with the guarded data is that lock's serialized
/// operation by design: exempt from A1/A2 with respect to this guard.
fn involves_guard(gd: &LiveGuard, c: &CallSite) -> bool {
    if let Some(b) = &gd.binding {
        let hit = |s: &str| !find_words(s, b).is_empty();
        if c.receiver.as_deref().is_some_and(hit) || hit(&c.args) {
            return true;
        }
    }
    // Temp guard: events chained off the very lock expression.
    if gd.binding.is_none() {
        if let (Some(gr), Some(er)) = (&gd.receiver, &c.receiver) {
            if er.contains(gr.as_str()) {
                return true;
            }
        }
    }
    false
}

fn check_fn(
    g: &Graph,
    idx: usize,
    block_why: &[Option<Why>],
    may_lock: &[BTreeMap<String, LockWhy>],
    edges: &mut BTreeSet<LockEdge>,
    findings: &mut Vec<Finding>,
) {
    let f = &g.fns[idx];
    let acquire_positions: HashSet<usize> = f.acquires.iter().map(|a| a.pos).collect();
    for gd in live_guards(f) {
        // Direct nested acquisitions → ordered edges.
        for a in &f.acquires {
            if a.pos <= gd.start || a.pos > gd.end || (a.pos == gd.start && a.line == gd.line) {
                continue;
            }
            let as_call = CallSite {
                name: "lock".into(),
                qualifier: None,
                receiver: Some(a.receiver.clone()),
                recv_start: a.pos,
                args: String::new(),
                pos: a.pos,
                line: a.line,
            };
            if involves_guard(&gd, &as_call) {
                continue;
            }
            if a.lock == gd.lock {
                findings.push(Finding {
                    rule: ARule::A1,
                    file: f.file.clone(),
                    line: a.line,
                    message: format!(
                        "`{}` re-acquired while already held (acquired line {}) — self-deadlock",
                        gd.lock, gd.line
                    ),
                    chain: vec![format!("{} ({}:{})", f.qname, f.file, gd.line)],
                });
            } else {
                edges.insert(LockEdge {
                    from: gd.lock.clone(),
                    to: a.lock.clone(),
                    file: f.file.clone(),
                    line: a.line,
                    via: vec![format!("{} ({}:{})", f.qname, f.file, a.line)],
                });
            }
        }
        // Calls inside the guard extent.
        for c in &f.calls {
            if c.pos <= gd.start || c.pos > gd.end || acquire_positions.contains(&c.pos) {
                continue;
            }
            if involves_guard(&gd, c) {
                continue;
            }
            if let Some(paired) = is_cv_wait(c) {
                if Some(&paired) == gd.binding.as_ref() {
                    continue; // the guard's own paired wait releases it
                }
                findings.push(Finding {
                    rule: ARule::A2,
                    file: f.file.clone(),
                    line: c.line,
                    message: format!(
                        "condvar wait (paired with `{paired}`) while holding `{}` (acquired line {})",
                        gd.lock, gd.line
                    ),
                    chain: Vec::new(),
                });
                continue;
            }
            if is_blocking_prim(c) {
                findings.push(Finding {
                    rule: ARule::A2,
                    file: f.file.clone(),
                    line: c.line,
                    message: format!(
                        "blocking call `{}` while holding `{}` (acquired line {})",
                        c.name, gd.lock, gd.line
                    ),
                    chain: Vec::new(),
                });
                continue;
            }
            let callees = g.resolve(idx, c);
            if let Some(&b) = callees.iter().find(|&&k| block_why[k].is_some()) {
                let mut chain = vec![format!("{} ({}:{})", g.fns[b].qname, f.file, c.line)];
                chain.extend(block_chain(g, block_why, b));
                findings.push(Finding {
                    rule: ARule::A2,
                    file: f.file.clone(),
                    line: c.line,
                    message: format!(
                        "call to blocking `{}` while holding `{}` (acquired line {})",
                        g.fns[b].qname, gd.lock, gd.line
                    ),
                    chain,
                });
            }
            for &callee in &callees {
                for lock in may_lock[callee].keys() {
                    if *lock == gd.lock || lock.starts_with("param(") {
                        continue;
                    }
                    let mut via = vec![format!("{} ({}:{})", g.fns[callee].qname, f.file, c.line)];
                    via.extend(lock_chain(g, may_lock, callee, lock));
                    edges.insert(LockEdge {
                        from: gd.lock.clone(),
                        to: lock.clone(),
                        file: f.file.clone(),
                        line: c.line,
                        via,
                    });
                }
            }
        }
    }
}

/// A3: acquired BML buffers must reach a hand-off before any `?` /
/// `return` can exit the function.
fn check_buffers(f: &FnSummary, findings: &mut Vec<Finding>) {
    let masked: &str = &f.masked;
    let bytes = masked.as_bytes();
    for ba in &f.buf_acquires {
        let lo = ba.start.min(masked.len());
        let hi = ba.end.min(masked.len());
        let consume = first_consuming_use(masked, &ba.binding, lo, hi);
        // Escapes in ascending order: `?` bytes and `return` words.
        let mut escapes: Vec<(usize, &str)> = bytes[lo..hi]
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'?')
            .map(|(i, _)| (lo + i, "?"))
            .collect();
        escapes.extend(
            find_words(masked, "return")
                .into_iter()
                .filter(|&p| p >= lo && p < hi)
                .map(|p| (p, "return")),
        );
        escapes.sort();
        // Only the first escape matters: anything later is either past
        // the hand-off or past this (reported) leak point.
        if let Some((pos, kind)) = escapes.into_iter().next() {
            if consume.is_some_and(|cp| cp < pos) {
                continue; // handed off before the exit point
            }
            if kind == "return" && statement_consumes(masked, &ba.binding, pos, hi) {
                continue; // `return Some(buf)` is itself the hand-off
            }
            findings.push(Finding {
                rule: ARule::A3,
                file: f.file.clone(),
                line: line_of(masked, pos),
                message: format!(
                    "BML buffer `{}` (acquired line {}) can leak: `{kind}` exit at this line \
                     before the buffer is released or handed off",
                    ba.binding, ba.line
                ),
                chain: vec![format!("{} ({}:{})", f.qname, f.file, f.line)],
            });
        }
    }
}

/// First position where `binding` is used by value: the whole word
/// followed by `,` `)` `}` `;`, not preceded by `&` / `.`, not followed
/// by `.` / `:`.
fn first_consuming_use(masked: &str, binding: &str, lo: usize, hi: usize) -> Option<usize> {
    let bytes = masked.as_bytes();
    for pos in find_words(masked, binding) {
        if pos < lo || pos >= hi {
            continue;
        }
        // Preceding context: borrow / projection / pattern?
        let mut p = pos;
        while p > 0 && bytes[p - 1].is_ascii_whitespace() {
            p -= 1;
        }
        if p > 0 && (bytes[p - 1] == b'&' || bytes[p - 1] == b'.') {
            continue;
        }
        if p >= 3 && word_at(masked, p - 3, "mut") {
            let mut q = p - 3;
            while q > 0 && bytes[q - 1].is_ascii_whitespace() {
                q -= 1;
            }
            if q > 0 && bytes[q - 1] == b'&' {
                continue; // `&mut binding`
            }
        }
        // Following context.
        let mut n = pos + binding.len();
        while n < bytes.len() && bytes[n].is_ascii_whitespace() {
            n += 1;
        }
        if n < bytes.len() && matches!(bytes[n], b',' | b')' | b'}' | b';') {
            return Some(pos);
        }
    }
    None
}

/// Does the statement starting at `from` (a `return`) consume `binding`
/// before its terminating `;` / block end?
fn statement_consumes(masked: &str, binding: &str, from: usize, hi: usize) -> bool {
    let bytes = masked.as_bytes();
    let mut end = from;
    let mut depth = 0i32;
    while end < hi {
        match bytes[end] {
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
        end += 1;
    }
    first_consuming_use(masked, binding, from, end).is_some()
}

// ---------------------------------------------------------------------
// annotations
// ---------------------------------------------------------------------

#[derive(Default)]
struct Annotations {
    /// (file, line) → rules allowed at that line and the next.
    allow: HashMap<(String, usize), Vec<ARule>>,
    /// (file, line) of `analyze: nonblocking` markers.
    nonblocking: HashSet<(String, usize)>,
}

fn collect_annotations(files: &[(String, String)]) -> Annotations {
    let mut out = Annotations::default();
    for (rel, src) in files {
        for (i, line) in src.lines().enumerate() {
            let lno = i + 1;
            if let Some(at) = line.find("analyze: allow(") {
                let rest = &line[at + "analyze: allow(".len()..];
                if let Some(close) = rest.find(')') {
                    let rules: Vec<ARule> = rest[..close]
                        .split(',')
                        .filter_map(|s| ARule::parse(s.trim()))
                        .collect();
                    if !rules.is_empty() {
                        out.allow.insert((rel.clone(), lno), rules);
                    }
                }
            }
            if line.contains("analyze: nonblocking") {
                out.nonblocking.insert((rel.clone(), lno));
            }
        }
    }
    out
}

impl Annotations {
    fn allows(&self, file: &str, rule: ARule, line: usize) -> bool {
        for probe in [line, line.saturating_sub(1)] {
            if let Some(rules) = self.allow.get(&(file.to_string(), probe)) {
                if rules.contains(&rule) {
                    return true;
                }
            }
        }
        false
    }
}

// ---------------------------------------------------------------------
// entry points
// ---------------------------------------------------------------------

/// Analyze in-memory `(relative path, source)` pairs. This is the
/// library entry used by the fixture tests; [`run`] feeds it the real
/// workspace.
pub fn analyze_sources(files: &[(String, String)]) -> Report {
    let ann = collect_annotations(files);
    let mut fns = Vec::new();
    for (rel, src) in files {
        fns.extend(extract_file(rel, src));
    }
    let functions = fns.len();
    let g = Graph::build(fns);
    let nonblocking: HashSet<usize> = (0..g.fns.len())
        .filter(|&i| {
            let f = &g.fns[i];
            ann.nonblocking.contains(&(f.file.clone(), f.line))
                || ann
                    .nonblocking
                    .contains(&(f.file.clone(), f.line.saturating_sub(1)))
        })
        .collect();
    let block_why = may_block_fixpoint(&g, &nonblocking);
    let may_lock = may_lock_fixpoint(&g);

    let mut findings = Vec::new();
    let mut edges: BTreeSet<LockEdge> = BTreeSet::new();
    for i in 0..g.fns.len() {
        check_fn(&g, i, &block_why, &may_lock, &mut edges, &mut findings);
        check_buffers(&g.fns[i], &mut findings);
    }
    findings.extend(cycle_findings(&edges));
    findings.retain(|f| !ann.allows(&f.file, f.rule, f.line));
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    Report {
        findings,
        edges: edges.into_iter().collect(),
        files: files.len(),
        functions,
    }
}

/// Detect cycles in the ordered-edge graph (Tarjan SCC; direct 2-cycles
/// are the common "inconsistent pairwise order" case).
fn cycle_findings(edges: &BTreeSet<LockEdge>) -> Vec<Finding> {
    let mut nodes: Vec<&str> = Vec::new();
    let mut index: HashMap<&str, usize> = HashMap::new();
    for e in edges {
        for n in [e.from.as_str(), e.to.as_str()] {
            if !index.contains_key(n) {
                index.insert(n, nodes.len());
                nodes.push(n);
            }
        }
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for e in edges {
        adj[index[e.from.as_str()]].push(index[e.to.as_str()]);
    }
    let sccs = tarjan(&adj);
    let mut out = Vec::new();
    for scc in sccs {
        if scc.len() < 2 {
            continue;
        }
        let set: HashSet<usize> = scc.iter().copied().collect();
        let mut members: Vec<&str> = scc.iter().map(|&i| nodes[i]).collect();
        members.sort();
        let witness: Vec<&LockEdge> = edges
            .iter()
            .filter(|e| {
                set.contains(&index[e.from.as_str()]) && set.contains(&index[e.to.as_str()])
            })
            .collect();
        let mut chain = Vec::new();
        for e in &witness {
            let via = if e.via.is_empty() {
                String::new()
            } else {
                format!(" [{}]", e.via.join(" -> "))
            };
            chain.push(format!(
                "`{}` then `{}` ({}:{}){via}",
                e.from, e.to, e.file, e.line
            ));
        }
        let first = witness.first();
        out.push(Finding {
            rule: ARule::A1,
            file: first.map_or_else(String::new, |e| e.file.clone()),
            line: first.map_or(0, |e| e.line),
            message: format!(
                "lock-order cycle between {} — acquisition orders are inconsistent",
                members
                    .iter()
                    .map(|m| format!("`{m}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            chain,
        });
    }
    out
}

fn tarjan(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    struct State<'a> {
        adj: &'a [Vec<usize>],
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        out: Vec<Vec<usize>>,
    }
    fn strongconnect(s: &mut State, v: usize) {
        s.index[v] = Some(s.next);
        s.low[v] = s.next;
        s.next += 1;
        s.stack.push(v);
        s.on_stack[v] = true;
        for i in 0..s.adj[v].len() {
            let w = s.adj[v][i];
            if s.index[w].is_none() {
                strongconnect(s, w);
                s.low[v] = s.low[v].min(s.low[w]);
            } else if s.on_stack[w] {
                s.low[v] = s.low[v].min(s.index[w].unwrap_or(usize::MAX));
            }
        }
        if Some(s.low[v]) == s.index[v] {
            let mut scc = Vec::new();
            while let Some(w) = s.stack.pop() {
                s.on_stack[w] = false;
                scc.push(w);
                if w == v {
                    break;
                }
            }
            s.out.push(scc);
        }
    }
    let n = adj.len();
    let mut s = State {
        adj,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    for v in 0..n {
        if s.index[v].is_none() {
            strongconnect(&mut s, v);
        }
    }
    s.out
}

// ---------------------------------------------------------------------
// CLI: allowlist, JSON, exit code
// ---------------------------------------------------------------------

/// Same shape and cap as `lint.allow`: `A<n> <path> -- <justification>`.
pub struct AllowEntry {
    pub rule: ARule,
    pub path: String,
    pub line_no: usize,
}

const MAX_ALLOW: usize = 10;

pub fn parse_allow(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, justification) = line
            .split_once("--")
            .ok_or_else(|| format!("analyze.allow:{line_no}: missing `-- <justification>`"))?;
        if justification.trim().is_empty() {
            return Err(format!("analyze.allow:{line_no}: empty justification"));
        }
        let mut parts = head.split_whitespace();
        let rule = parts
            .next()
            .and_then(ARule::parse)
            .ok_or_else(|| format!("analyze.allow:{line_no}: expected A1..A3"))?;
        let path = parts
            .next()
            .ok_or_else(|| format!("analyze.allow:{line_no}: expected a file path"))?
            .to_string();
        if parts.next().is_some() {
            return Err(format!(
                "analyze.allow:{line_no}: trailing tokens before `--`"
            ));
        }
        entries.push(AllowEntry {
            rule,
            path,
            line_no,
        });
    }
    if entries.len() > MAX_ALLOW {
        return Err(format!(
            "analyze.allow has {} entries; the cap is {MAX_ALLOW} — fix code instead of \
             allowlisting",
            entries.len()
        ));
    }
    Ok(entries)
}

/// Source trees the analyzer covers (the daemon and its protocol /
/// telemetry crates; sim crates and test code are out of scope).
const SCOPE: &[&str] = &[
    "crates/iofwd/src",
    "crates/iofwd-proto/src",
    "crates/iofwd-telemetry/src",
];

/// The lock and condvar primitives themselves: their `.lock()` and
/// `.wait(&mut g)` are what the summaries model, so the file that
/// implements them is not summarised as a caller.
const PRIMITIVES: &str = "crates/iofwd/src/sync.rs";

pub fn collect_analysis_files(root: &Path) -> Vec<(String, String)> {
    let mut paths = Vec::new();
    for dir in SCOPE {
        crate::collect_rs_files(&root.join(dir), &mut paths);
    }
    paths.sort();
    let mut out = Vec::new();
    for p in paths {
        let Ok(src) = std::fs::read_to_string(&p) else {
            continue;
        };
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        if rel != PRIMITIVES {
            out.push((rel, src));
        }
    }
    out
}

fn to_json(report: &Report, reported: &[&Finding], allowlisted: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"files\": {},\n  \"functions\": {},\n  \"allowlisted\": {},\n",
        report.files, report.functions, allowlisted
    ));
    s.push_str("  \"findings\": [\n");
    for (i, f) in reported.iter().enumerate() {
        let chain = f
            .chain
            .iter()
            .map(|c| quote(c))
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": {}, \"line\": {}, \"message\": {}, \
             \"chain\": [{}]}}{}\n",
            f.rule,
            quote(&f.file),
            f.line,
            quote(&f.message),
            chain,
            if i + 1 < reported.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"edges\": [\n");
    for (i, e) in report.edges.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"from\": {}, \"to\": {}, \"file\": {}, \"line\": {}}}{}\n",
            quote(&e.from),
            quote(&e.to),
            quote(&e.file),
            e.line,
            if i + 1 < report.edges.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// CLI entry: analyze the workspace, apply `xtask/analyze.allow`, print
/// findings (JSON on stdout with `--json`), fail on findings or stale
/// allowlist entries.
pub fn run(root: &Path, json: bool) -> ExitCode {
    let allow_path = root.join("xtask/analyze.allow");
    let allow_text = std::fs::read_to_string(&allow_path).unwrap_or_default();
    let allow = match parse_allow(&allow_text) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("xtask analyze: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let files = collect_analysis_files(root);
    let report = analyze_sources(&files);

    let mut used: HashSet<usize> = HashSet::new();
    let mut reported: Vec<&Finding> = Vec::new();
    for f in &report.findings {
        match allow
            .iter()
            .position(|a| a.rule == f.rule && a.path == f.file)
        {
            Some(i) => {
                used.insert(i);
            }
            None => reported.push(f),
        }
    }
    let stale: Vec<&AllowEntry> = allow
        .iter()
        .enumerate()
        .filter(|(i, _)| !used.contains(i))
        .map(|(_, a)| a)
        .collect();

    if json {
        println!("{}", to_json(&report, &reported, used.len()));
    }
    for f in &reported {
        eprintln!("{f}");
    }
    let mut failed = !reported.is_empty();
    for a in &stale {
        eprintln!(
            "xtask analyze: stale allowlist entry (analyze.allow:{}): {} {} — remove it",
            a.line_no, a.rule, a.path
        );
        failed = true;
    }
    if failed {
        eprintln!(
            "xtask analyze: {} finding(s), {} stale allowlist entr(ies) in {} file(s) / {} fn(s)",
            reported.len(),
            stale.len(),
            report.files,
            report.functions
        );
        ExitCode::FAILURE
    } else {
        if !json {
            println!(
                "xtask analyze: ok ({} files, {} functions, {} edges, {} allowlisted)",
                report.files,
                report.functions,
                report.edges.len(),
                used.len()
            );
        }
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_one(src: &str) -> Report {
        analyze_sources(&[("crates/iofwd/src/fix.rs".to_string(), src.to_string())])
    }

    #[test]
    fn paired_condvar_wait_is_exempt_other_guard_is_not() {
        let r = analyze_one(
            "impl Q { fn pop(&self) { let mut s = self.state.lock(); \
             while s.empty { self.cv.wait(&mut s); } } }",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        let r2 = analyze_one(
            "impl Q { fn bad(&self) { let g = self.other.lock(); \
             let mut s = self.state.lock(); self.cv.wait(&mut s); } }",
        );
        assert!(r2
            .findings
            .iter()
            .any(|f| f.rule == ARule::A2 && f.message.contains("condvar")));
    }

    #[test]
    fn allow_annotation_suppresses() {
        let r = analyze_one(
            "impl E { fn f(&self) { let g = self.m.lock();\n\
             // analyze: allow(A2)\n\
             self.backend.fstat(g.fd); } }",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn nonblocking_annotation_stops_propagation() {
        let r = analyze_one(
            "impl E { // analyze: nonblocking\n\
             fn fast(&self) { self.x.flush(); }\n\
             fn f(&self) { let g = self.m.lock(); self.fast(); } }",
        );
        assert!(
            !r.findings.iter().any(|f| f.message.contains("fast")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn allowlist_parses_and_caps() {
        let ok = parse_allow("# c\nA2 crates/iofwd/src/engine.rs -- by design\n").unwrap();
        assert_eq!(ok.len(), 1);
        assert!(parse_allow("A9 x -- y").is_err());
        assert!(parse_allow("A1 x\n").is_err());
        let many: String = (0..11).map(|i| format!("A1 f{i} -- j\n")).collect();
        assert!(parse_allow(&many).is_err());
    }
}
