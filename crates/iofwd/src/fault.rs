//! Fault injection and retry policy — the robustness subsystem.
//!
//! The ION is a shared chokepoint: when its backend (GPFS through the
//! file-server nodes, or a DA-node socket) hiccups, every compute node
//! behind the daemon feels it. This module gives the daemon a *story*
//! for those hiccups:
//!
//! * [`FaultPlan`] — a deterministic, seeded description of backend
//!   misbehaviour (errnos, short transfers, latency spikes, open-time
//!   failures), consumed by [`crate::backend::FaultBackend`]. The same
//!   plan text + seed always produces the same fault sequence, so a
//!   chaos run is exactly reproducible.
//! * [`RetryPolicy`] — bounded retry with exponential backoff and
//!   deterministic jitter (drawn from `simcore::rng::SimRng`), applied
//!   by the [`crate::server::Engine`] to *transient* errnos only;
//!   permanent errors keep flowing into the descriptor database's
//!   deferred-error channel (§IV's error model).
//!
//! The split between transient and permanent errors is the module's
//! load-bearing decision; see [`is_transient`].

use std::time::Duration;

use iofwd_proto::Errno;
use simcore::rng::SimRng;

/// Errors worth re-attempting: the backend may succeed if asked again.
/// Everything else (no space, no entry, bad descriptor, ...) describes
/// a state that a retry cannot change and must surface to the client —
/// immediately on the sync path, via the descdb deferred-error channel
/// on the staged path.
pub fn is_transient(e: Errno) -> bool {
    matches!(e, Errno::Again | Errno::Io | Errno::ConnReset)
}

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

/// Bounded-retry policy for transient backend errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 disables retrying.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Backoff never exceeds this, jitter included.
    pub max_backoff: Duration,
    /// Give up retrying once an operation has spent this long in the
    /// retry loop, even with attempts left (per-op deadline).
    pub op_deadline: Duration,
}

impl RetryPolicy {
    /// No retrying: every backend error surfaces on the first attempt.
    /// The engine default, so embedders opt in explicitly.
    pub fn disabled() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            op_deadline: Duration::ZERO,
        }
    }

    /// The daemon's default when retrying is enabled: a few quick
    /// attempts, capped well below client RPC patience.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(50),
            op_deadline: Duration::from_secs(2),
        }
    }

    /// `standard()` scaled to `attempts` total attempts (0 and 1 both
    /// mean disabled).
    pub fn with_attempts(attempts: u32) -> RetryPolicy {
        if attempts <= 1 {
            return RetryPolicy::disabled();
        }
        RetryPolicy {
            max_attempts: attempts,
            ..RetryPolicy::standard()
        }
    }

    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Backoff before retry number `retry` (1-based), with multiplicative
    /// jitter in `[0.5, 1.5)` drawn from the caller's deterministic rng.
    pub fn backoff(&self, retry: u32, rng: &mut SimRng) -> Duration {
        let exp = retry.saturating_sub(1).min(20);
        let base = self.base_backoff.saturating_mul(1u32 << exp);
        let jittered = base.mul_f64(rng.uniform(0.5, 1.5));
        jittered.min(self.max_backoff)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::disabled()
    }
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

/// Which backend operations a fault rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Write,
    Read,
    Open,
    Sync,
    /// Any data-plane or open operation.
    Any,
}

impl OpClass {
    fn parse(s: &str) -> Option<OpClass> {
        Some(match s {
            "write" => OpClass::Write,
            "read" => OpClass::Read,
            "open" => OpClass::Open,
            "sync" => OpClass::Sync,
            "any" => OpClass::Any,
            _ => return None,
        })
    }

    fn matches(self, op: OpClass) -> bool {
        self == OpClass::Any || self == op
    }
}

/// What an armed rule does to the operation it hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail with an errno; the operation does not reach the backend.
    Errno(Errno),
    /// Truncate the transfer: only `numerator/256` of the requested
    /// length goes through (at least one byte). Writes stay POSIX-legal
    /// short writes; reads become short reads.
    Short { numerator: u8 },
    /// Latency spike: stall the operation, then execute it normally.
    DelayUs(u32),
}

/// One trigger: op-class selector, optional path glob, and either a
/// probability (fires on a seeded coin flip), an nth-op trigger (fires
/// on exactly the nth matching operation, 1-based), or an open-ended
/// one (fires on every matching operation past the first N).
#[derive(Debug, Clone)]
pub struct FaultRule {
    pub class: OpClass,
    /// Glob over the path (or `host:port`) the object was opened with;
    /// `*` matches any run, `?` one byte. `None` matches everything.
    pub path_glob: Option<String>,
    /// Probability in `[0, 1]` that a matching op trips this rule.
    /// Ignored when `nth` is set.
    pub probability: f64,
    /// Fire on exactly the nth op this rule has seen (1-based).
    pub nth: Option<u64>,
    /// Fire on every op past the first N (`nth>N`): "the device fills
    /// up and stays full". Ignored when `nth` is set.
    pub after: Option<u64>,
    /// Only match *vectored* (coalesced) writes — batches the daemon
    /// merged from several forwarded ops and issued as one
    /// `write_vectored_at`. Lets a plan aim at the coalescing path
    /// specifically; plain rules match both shapes.
    pub vectored: bool,
    pub action: FaultAction,
}

impl FaultRule {
    /// A rule matching every op of `class`, with probability 1 and no
    /// path filter; refine with the builder methods below.
    pub fn on(class: OpClass) -> FaultRule {
        FaultRule {
            class,
            path_glob: None,
            probability: 1.0,
            nth: None,
            after: None,
            vectored: false,
            action: FaultAction::Errno(Errno::Io),
        }
    }

    pub fn path(mut self, glob: &str) -> FaultRule {
        self.path_glob = Some(glob.to_owned());
        self
    }

    /// Restrict the rule to vectored (coalesced) writes.
    pub fn vectored(mut self) -> FaultRule {
        self.vectored = true;
        self
    }

    pub fn probability(mut self, p: f64) -> FaultRule {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    pub fn nth(mut self, n: u64) -> FaultRule {
        self.nth = Some(n);
        self
    }

    /// Let the first `n` matching ops through, then fire on every one.
    pub fn after(mut self, n: u64) -> FaultRule {
        self.after = Some(n);
        self
    }

    pub fn errno(mut self, e: Errno) -> FaultRule {
        self.action = FaultAction::Errno(e);
        self
    }

    /// Short transfer passing roughly `fraction` of each request.
    pub fn short(mut self, fraction: f64) -> FaultRule {
        let num = (fraction.clamp(0.0, 1.0) * 256.0) as u16;
        self.action = FaultAction::Short {
            numerator: num.min(255) as u8,
        };
        self
    }

    pub fn delay_us(mut self, us: u32) -> FaultRule {
        self.action = FaultAction::DelayUs(us);
        self
    }
}

/// A seeded set of fault rules. First matching armed rule wins.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    pub seed: u64,
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    pub fn rule(mut self, r: FaultRule) -> FaultPlan {
        self.rules.push(r);
        self
    }

    /// Parse the `--fault-plan` file format. Line-oriented; `#` starts
    /// a comment. One `seed N` line (optional, default 0) and any
    /// number of rule lines:
    ///
    /// ```text
    /// seed 42
    /// on write p=0.05 errno=EAGAIN
    /// on write nth=7 errno=ENOSPC
    /// on any nth>100 errno=EIO              # every op past the first 100
    /// on read p=0.1 short=0.5
    /// on open path=/scratch/* errno=EIO
    /// on any p=0.01 delay_us=500
    /// on write vectored p=0.5 short=0.25   # coalesced batches only
    /// ```
    ///
    /// The bare `vectored` token restricts a rule to coalesced
    /// (vectored) writes; without it a `write` rule hits both single
    /// and coalesced writes, each constituent of a batch counting as one
    /// op. `nth>N` is a trigger of its own and cannot be combined with
    /// `p=` or `nth=`.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut tokens = line.split_whitespace();
            match tokens.next() {
                Some("seed") => {
                    let v = tokens
                        .next()
                        .ok_or_else(|| format!("line {line_no}: seed needs a value"))?;
                    plan.seed = v
                        .parse()
                        .map_err(|_| format!("line {line_no}: bad seed '{v}'"))?;
                }
                Some("on") => {
                    let class = tokens.next().and_then(OpClass::parse).ok_or_else(|| {
                        format!("line {line_no}: expected write|read|open|sync|any")
                    })?;
                    let mut rule = FaultRule::on(class);
                    let mut action = None;
                    let mut coin = false;
                    for tok in tokens {
                        if tok == "vectored" {
                            if class != OpClass::Write {
                                return Err(format!(
                                    "line {line_no}: 'vectored' only applies to write rules"
                                ));
                            }
                            rule.vectored = true;
                            continue;
                        }
                        if let Some(val) = tok.strip_prefix("nth>") {
                            let n: u64 = val
                                .parse()
                                .map_err(|_| format!("line {line_no}: bad nth>N '{val}'"))?;
                            rule.after = Some(n);
                            continue;
                        }
                        let (key, val) = tok.split_once('=').ok_or_else(|| {
                            format!("line {line_no}: expected key=value, got '{tok}'")
                        })?;
                        match key {
                            "path" => rule.path_glob = Some(val.to_owned()),
                            "p" => {
                                let p: f64 = val.parse().map_err(|_| {
                                    format!("line {line_no}: bad probability '{val}'")
                                })?;
                                if !(0.0..=1.0).contains(&p) {
                                    return Err(format!(
                                        "line {line_no}: probability {p} outside [0,1]"
                                    ));
                                }
                                rule.probability = p;
                                coin = true;
                            }
                            "nth" => {
                                let n: u64 = val
                                    .parse()
                                    .map_err(|_| format!("line {line_no}: bad nth '{val}'"))?;
                                if n == 0 {
                                    return Err(format!("line {line_no}: nth is 1-based"));
                                }
                                rule.nth = Some(n);
                            }
                            "errno" => {
                                let e = parse_errno(val).ok_or_else(|| {
                                    format!("line {line_no}: unknown errno '{val}'")
                                })?;
                                action = Some(FaultAction::Errno(e));
                            }
                            "short" => {
                                let f: f64 = val.parse().map_err(|_| {
                                    format!("line {line_no}: bad short fraction '{val}'")
                                })?;
                                let num = (f.clamp(0.0, 1.0) * 256.0) as u16;
                                action = Some(FaultAction::Short {
                                    numerator: num.min(255) as u8,
                                });
                            }
                            "delay_us" => {
                                let us: u32 = val
                                    .parse()
                                    .map_err(|_| format!("line {line_no}: bad delay_us '{val}'"))?;
                                action = Some(FaultAction::DelayUs(us));
                            }
                            other => {
                                return Err(format!("line {line_no}: unknown key '{other}'"));
                            }
                        }
                    }
                    if rule.after.is_some() && (coin || rule.nth.is_some()) {
                        return Err(format!(
                            "line {line_no}: nth>N cannot be combined with p= or nth="
                        ));
                    }
                    rule.action = action.ok_or_else(|| {
                        format!("line {line_no}: rule needs errno=|short=|delay_us=")
                    })?;
                    plan.rules.push(rule);
                }
                Some(other) => {
                    return Err(format!(
                        "line {line_no}: expected 'seed' or 'on', got '{other}'"
                    ));
                }
                None => {}
            }
        }
        Ok(plan)
    }

    /// Decide what (if anything) happens to the `seq`-th op (1-based,
    /// per class) of `class` on `path`. First matching armed rule wins.
    pub fn decide(
        &self,
        class: OpClass,
        path: &str,
        seq: u64,
        rng: &mut SimRng,
    ) -> Option<FaultAction> {
        self.decide_vectored(class, path, seq, rng, false)
    }

    /// [`FaultPlan::decide`] with the op's *vectored* shape made
    /// explicit, so `vectored`-flagged rules can single out coalesced
    /// batches. A coalesced batch consumes exactly one draw per rule,
    /// like any other op.
    pub fn decide_vectored(
        &self,
        class: OpClass,
        path: &str,
        seq: u64,
        rng: &mut SimRng,
        vectored: bool,
    ) -> Option<FaultAction> {
        for rule in &self.rules {
            if !rule.class.matches(class) {
                continue;
            }
            if rule.vectored && !vectored {
                continue;
            }
            if let Some(glob) = &rule.path_glob {
                if !glob_match(glob, path) {
                    continue;
                }
            }
            let armed = match (rule.nth, rule.after) {
                (Some(n), _) => seq == n,
                (None, Some(n)) => seq > n,
                // Every candidate op consumes a draw, so the fault
                // sequence depends only on the op sequence, not on
                // which rules happen to fire.
                (None, None) => rng.chance(rule.probability),
            };
            if armed {
                return Some(rule.action);
            }
        }
        None
    }
}

/// Errno spellings accepted in plan files (the injectable subset).
fn parse_errno(s: &str) -> Option<Errno> {
    Some(match s {
        "EIO" => Errno::Io,
        "ENOSPC" => Errno::NoSpc,
        "EAGAIN" => Errno::Again,
        "ECONNRESET" => Errno::ConnReset,
        "ENOENT" => Errno::NoEnt,
        "EACCES" => Errno::Access,
        "ENOMEM" => Errno::NoMem,
        "EPIPE" => Errno::Pipe,
        _ => return None,
    })
}

/// Minimal glob: `*` matches any (possibly empty) run, `?` any single
/// byte, everything else literal. Classic two-pointer backtracking.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let p = pattern.as_bytes();
    let t = text.as_bytes();
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == b'?' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = pi;
            mark = ti;
            pi += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            mark += 1;
            ti = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_basics() {
        assert!(glob_match("*", "/anything/at/all"));
        assert!(glob_match("/a/*", "/a/b/c"));
        assert!(glob_match("*.bin", "/data/x.bin"));
        assert!(!glob_match("*.bin", "/data/x.txt"));
        assert!(glob_match("/d?ta", "/data"));
        assert!(!glob_match("/d?ta", "/dta"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
    }

    #[test]
    fn parse_full_plan() {
        let plan = FaultPlan::parse(
            "# chaos\nseed 42\non write p=0.05 errno=EAGAIN\n\
             on write nth=7 errno=ENOSPC\non read p=0.1 short=0.5\n\
             on open path=/scratch/* errno=EIO\non any p=0.01 delay_us=500\n",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 5);
        assert_eq!(plan.rules[0].action, FaultAction::Errno(Errno::Again));
        assert_eq!(plan.rules[1].nth, Some(7));
        assert!(matches!(plan.rules[2].action, FaultAction::Short { .. }));
        assert_eq!(plan.rules[3].path_glob.as_deref(), Some("/scratch/*"));
        assert_eq!(plan.rules[4].action, FaultAction::DelayUs(500));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(FaultPlan::parse("on write").is_err()); // no action
        assert!(FaultPlan::parse("on write errno=EWHAT").is_err());
        assert!(FaultPlan::parse("on frobnicate errno=EIO").is_err());
        assert!(FaultPlan::parse("on write p=1.5 errno=EIO").is_err());
        assert!(FaultPlan::parse("on write nth=0 errno=EIO").is_err());
        assert!(FaultPlan::parse("bogus line").is_err());
        assert!(FaultPlan::parse("# only comments\n\n").is_ok());
        // `nth>N` is its own trigger.
        assert!(FaultPlan::parse("on any nth>x errno=EIO").is_err());
        assert!(FaultPlan::parse("on any nth>3 p=0.5 errno=EIO").is_err());
        assert!(FaultPlan::parse("on any nth>3 nth=5 errno=EIO").is_err());
        // `vectored` is a write-rule refinement, not a general key.
        assert!(FaultPlan::parse("on read vectored errno=EIO").is_err());
        assert!(FaultPlan::parse("on write vectored errno=EIO").is_ok());
    }

    #[test]
    fn vectored_rules_target_coalesced_writes_only() {
        let plan = FaultPlan::parse("on write vectored errno=ENOSPC\n").unwrap();
        assert!(plan.rules[0].vectored);
        let mut rng = SimRng::new(0);
        // Plain writes slip past a vectored-only rule...
        assert!(plan
            .decide_vectored(OpClass::Write, "/f", 1, &mut rng, false)
            .is_none());
        assert!(plan.decide(OpClass::Write, "/f", 2, &mut rng).is_none());
        // ...coalesced batches are hit.
        assert_eq!(
            plan.decide_vectored(OpClass::Write, "/f", 3, &mut rng, true),
            Some(FaultAction::Errno(Errno::NoSpc))
        );
        // An unflagged rule hits both shapes.
        let both = FaultPlan::new(0).rule(FaultRule::on(OpClass::Write).errno(Errno::Io));
        assert!(both
            .decide_vectored(OpClass::Write, "/f", 1, &mut rng, true)
            .is_some());
        assert!(both.decide(OpClass::Write, "/f", 2, &mut rng).is_some());
    }

    #[test]
    fn decide_is_deterministic() {
        let plan = FaultPlan::new(7).rule(
            FaultRule::on(OpClass::Write)
                .probability(0.3)
                .errno(Errno::Again),
        );
        let run = |seed| {
            let mut rng = SimRng::new(seed);
            (1..=64)
                .map(|seq| plan.decide(OpClass::Write, "/f", seq, &mut rng).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same fault sequence");
        assert_ne!(run(7), run(8), "different seed, different sequence");
        assert!(run(7).iter().any(|&b| b), "p=0.3 over 64 ops fires");
        assert!(!run(7).iter().all(|&b| b), "p=0.3 over 64 ops also misses");
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let plan = FaultPlan::new(0).rule(FaultRule::on(OpClass::Read).nth(3).errno(Errno::Io));
        let mut rng = SimRng::new(0);
        let hits: Vec<u64> = (1..=10)
            .filter(|&seq| plan.decide(OpClass::Read, "/f", seq, &mut rng).is_some())
            .collect();
        assert_eq!(hits, vec![3]);
    }

    #[test]
    fn open_ended_trigger_fires_on_every_op_past_n() {
        let plan = FaultPlan::parse("on any nth>3 errno=ENOSPC\n").unwrap();
        assert_eq!(plan.rules[0].after, Some(3));
        let mut rng = SimRng::new(0);
        let hits: Vec<u64> = (1..=6)
            .filter(|&seq| plan.decide(OpClass::Write, "/f", seq, &mut rng).is_some())
            .collect();
        assert_eq!(hits, vec![4, 5, 6]);
        // N = 0 fails from the first op on.
        let plan = FaultPlan::new(0).rule(FaultRule::on(OpClass::Read).after(0));
        assert!(plan.decide(OpClass::Read, "/f", 1, &mut rng).is_some());
    }

    #[test]
    fn class_and_path_select() {
        let plan = FaultPlan::new(0).rule(
            FaultRule::on(OpClass::Write)
                .path("/hot/*")
                .errno(Errno::NoSpc),
        );
        let mut rng = SimRng::new(0);
        assert!(plan.decide(OpClass::Write, "/hot/a", 1, &mut rng).is_some());
        assert!(plan
            .decide(OpClass::Write, "/cold/a", 1, &mut rng)
            .is_none());
        assert!(plan.decide(OpClass::Read, "/hot/a", 1, &mut rng).is_none());
    }

    #[test]
    fn transient_taxonomy() {
        for e in [Errno::Again, Errno::Io, Errno::ConnReset] {
            assert!(is_transient(e), "{e} should be transient");
        }
        for e in [
            Errno::NoSpc,
            Errno::NoEnt,
            Errno::BadF,
            Errno::Access,
            Errno::Inval,
            Errno::NoMem,
            Errno::Pipe,
        ] {
            assert!(!is_transient(e), "{e} should be permanent");
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy::standard();
        let mut rng = SimRng::new(1);
        let b1 = p.backoff(1, &mut rng);
        assert!(b1 <= p.max_backoff);
        // With jitter in [0.5, 1.5), retry 10's base (500us << 9) far
        // exceeds the 50ms cap.
        let b10 = p.backoff(10, &mut rng);
        assert_eq!(b10, p.max_backoff);
        assert!(!RetryPolicy::disabled().enabled());
        assert!(RetryPolicy::with_attempts(3).enabled());
        assert!(!RetryPolicy::with_attempts(1).enabled());
        assert!(!RetryPolicy::with_attempts(0).enabled());
    }
}
