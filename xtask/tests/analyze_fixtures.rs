//! Fixture suite for `cargo xtask analyze`: known-bad snippets that
//! each rule must flag (with the right witness chain), the matching
//! known-good variants that must stay clean, and a clean-tree run over
//! the real workspace mirroring the ci.sh gate.

use xtask::analyze::{analyze_sources, parse_allow, ARule, Finding, Report};

fn analyze(files: &[(&str, &str)]) -> Report {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    analyze_sources(&owned)
}

fn rules(r: &Report) -> Vec<ARule> {
    r.findings.iter().map(|f| f.rule).collect()
}

fn chain_text(f: &Finding) -> String {
    f.chain.join(" | ")
}

// ------------------------------------------------------------- A1

const QUEUE_SIDE: &str = r#"
pub struct Queue;
impl Queue {
    fn push(&self, stats: &Stats) {
        let g = self.state.lock();
        stats.bump();
        drop(g);
    }
    fn touch_state(&self) {
        let g = self.state.lock();
        drop(g);
    }
}
"#;

const STATS_SIDE: &str = r#"
pub struct Stats;
impl Stats {
    fn bump(&self) {
        let g = self.inner.lock();
        drop(g);
    }
    fn snapshot(&self, q: &Queue) {
        let g = self.inner.lock();
        q.touch_state();
        drop(g);
    }
}
"#;

#[test]
fn ab_ba_lock_cycle_across_files_is_a1() {
    let r = analyze(&[
        ("crates/iofwd/src/fix_queue.rs", QUEUE_SIDE),
        ("crates/iofwd/src/fix_stats.rs", STATS_SIDE),
    ]);
    let cycles: Vec<&Finding> = r
        .findings
        .iter()
        .filter(|f| f.rule == ARule::A1 && f.message.contains("cycle"))
        .collect();
    assert_eq!(cycles.len(), 1, "findings: {:?}", r.findings);
    let c = cycles[0];
    assert!(c.message.contains("Queue::state"), "{}", c.message);
    assert!(c.message.contains("Stats::inner"), "{}", c.message);
    // Witness chain names both interprocedural acquisition paths.
    let chain = chain_text(c);
    assert!(chain.contains("Stats::bump"), "chain: {chain}");
    assert!(chain.contains("Queue::touch_state"), "chain: {chain}");
    // Both orderings are recorded as edges.
    assert!(r
        .edges
        .iter()
        .any(|e| e.from == "Queue::state" && e.to == "Stats::inner"));
    assert!(r
        .edges
        .iter()
        .any(|e| e.from == "Stats::inner" && e.to == "Queue::state"));
}

#[test]
fn consistent_lock_order_is_clean() {
    // Same nesting, one direction only: an edge, but no cycle.
    let r = analyze(&[("crates/iofwd/src/fix_queue.rs", QUEUE_SIDE)]);
    assert!(rules(&r).is_empty(), "findings: {:?}", r.findings);
}

#[test]
fn direct_self_reacquire_is_a1() {
    let r = analyze(&[(
        "crates/iofwd/src/fix.rs",
        r#"
impl Bank {
    fn transfer(&self) {
        let a = self.accounts.lock();
        let b = self.accounts.lock();
        drop(b);
        drop(a);
    }
}
"#,
    )]);
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == ARule::A1 && f.message.contains("re-acquired")),
        "findings: {:?}",
        r.findings
    );
}

// ------------------------------------------------------------- A2

#[test]
fn backend_call_under_held_guard_is_a2() {
    let r = analyze(&[(
        "crates/iofwd/src/fix.rs",
        r#"
impl Engine {
    fn flush_all(&self) {
        let tbl = self.table.lock();
        self.backend.write_at(0, b);
    }
}
"#,
    )]);
    assert_eq!(rules(&r), vec![ARule::A2], "findings: {:?}", r.findings);
    let f = &r.findings[0];
    assert!(f.message.contains("write_at"), "{}", f.message);
    assert!(f.message.contains("Engine::table"), "{}", f.message);
    assert_eq!(f.line, 5);
}

#[test]
fn blocking_op_on_the_guarded_data_is_exempt() {
    // I/O *on* the locked object is that lock's serialized operation.
    let r = analyze(&[(
        "crates/iofwd/src/fix.rs",
        r#"
impl Engine {
    fn flush_obj(&self) {
        let mut o = self.obj.lock();
        o.write_at(0, b);
        write_fully(&mut *o, b);
    }
    fn seek_obj(&self) {
        self.obj.lock().seek(4);
    }
}
fn write_fully(o: &mut Obj, b: &[u8]) {}
"#,
    )]);
    assert!(rules(&r).is_empty(), "findings: {:?}", r.findings);
}

#[test]
fn interprocedural_blocking_chain_is_a2_with_witness() {
    let r = analyze(&[(
        "crates/iofwd/src/fix.rs",
        r#"
impl Engine {
    fn retry_pause(&self) {
        std::thread::sleep(d);
    }
    fn commit(&self) {
        let g = self.journal.lock();
        self.retry_pause();
    }
}
"#,
    )]);
    let a2: Vec<&Finding> = r.findings.iter().filter(|f| f.rule == ARule::A2).collect();
    assert_eq!(a2.len(), 1, "findings: {:?}", r.findings);
    let f = a2[0];
    assert!(f.message.contains("Engine::retry_pause"), "{}", f.message);
    assert!(f.message.contains("Engine::journal"), "{}", f.message);
    // The witness chain walks to the primitive: commit -> retry_pause -> sleep.
    let chain = chain_text(f);
    assert!(chain.contains("retry_pause"), "chain: {chain}");
    assert!(chain.contains("sleep"), "chain: {chain}");
}

#[test]
fn paired_condvar_wait_is_exempt_but_foreign_guard_is_not() {
    let clean = analyze(&[(
        "crates/iofwd/src/fix.rs",
        r#"
impl Q {
    fn pop(&self) {
        let mut s = self.state.lock();
        while s.is_empty() {
            self.cv.wait(&mut s);
        }
    }
}
"#,
    )]);
    assert!(rules(&clean).is_empty(), "findings: {:?}", clean.findings);

    let bad = analyze(&[(
        "crates/iofwd/src/fix.rs",
        r#"
impl Q {
    fn pop_two(&self) {
        let held = self.other.lock();
        let mut s = self.state.lock();
        self.cv.wait(&mut s);
    }
}
"#,
    )]);
    assert!(
        bad.findings
            .iter()
            .any(|f| f.rule == ARule::A2 && f.message.contains("condvar")),
        "findings: {:?}",
        bad.findings
    );
}

// ------------------------------------------------------------- A3

#[test]
fn question_mark_before_handoff_leaks_buffer() {
    let r = analyze(&[(
        "crates/iofwd/src/fix.rs",
        r#"
impl H {
    fn stage(&self, bml: &Bml, q: &Q) -> Result<(), Errno> {
        let buf = bml.acquire(len)?;
        self.validate(op)?;
        q.submit(buf);
        Ok(())
    }
}
"#,
    )]);
    let a3: Vec<&Finding> = r.findings.iter().filter(|f| f.rule == ARule::A3).collect();
    assert_eq!(a3.len(), 1, "findings: {:?}", r.findings);
    assert!(a3[0].message.contains("`buf`"), "{}", a3[0].message);
    assert_eq!(a3[0].line, 5, "the `?` after validate, not the acquire");
    assert!(chain_text(a3[0]).contains("H::stage"));
}

#[test]
fn handoff_before_fallible_op_is_clean() {
    let r = analyze(&[(
        "crates/iofwd/src/fix.rs",
        r#"
impl H {
    fn stage(&self, bml: &Bml, q: &Q) -> Result<(), Errno> {
        let buf = bml.acquire(len)?;
        q.submit(buf);
        self.validate(op)?;
        Ok(())
    }
    fn stage_ret(&self, bml: &Bml) -> Option<Buf> {
        let buf = bml.acquire(len)?;
        return Some(buf);
    }
}
"#,
    )]);
    assert!(rules(&r).is_empty(), "findings: {:?}", r.findings);
}

#[test]
fn match_bound_buffer_with_early_return_leaks() {
    let r = analyze(&[(
        "crates/iofwd/src/fix.rs",
        r#"
impl H {
    fn stage(&self, bml: &Bml, q: &Q) -> Result<(), Errno> {
        match bml.acquire_timeout(len, None) {
            None => {}
            Some(mut buf) => {
                buf.fill_from(body);
                if q.closed() {
                    return Err(Errno::EIO);
                }
                q.submit(buf);
            }
        }
        Ok(())
    }
}
"#,
    )]);
    let a3: Vec<&Finding> = r.findings.iter().filter(|f| f.rule == ARule::A3).collect();
    assert_eq!(a3.len(), 1, "findings: {:?}", r.findings);
    assert_eq!(a3[0].line, 9, "the early return inside the Some arm");
}

#[test]
fn a_received_block_taken_out_of_its_frame_is_tracked_like_an_acquire() {
    let r = analyze(&[(
        "crates/iofwd/src/fix.rs",
        r#"
impl H {
    fn stage(&self, op: &mut Op, q: &Q) -> Result<(), Errno> {
        match BmlBuffer::from_payload(take(&mut op.data)) {
            Err(data) => op.data = data,
            Ok(block) => {
                if q.closed() {
                    return Err(Errno::EIO);
                }
                q.submit(block);
            }
        }
        Ok(())
    }
    fn hand_off(&self, op: &mut Op, q: &Q) -> Result<(), Errno> {
        let received = BmlBuffer::from_payload(take(&mut op.data));
        q.submit(received);
        q.flush()?;
        Ok(())
    }
}
"#,
    )]);
    let a3: Vec<&Finding> = r.findings.iter().filter(|f| f.rule == ARule::A3).collect();
    assert_eq!(a3.len(), 1, "findings: {:?}", r.findings);
    assert_eq!(a3[0].line, 8, "the early return inside the Ok arm");
}

// ------------------------------------------------------------- gate

/// The real tree must be clean modulo `xtask/analyze.allow` — the same
/// contract ci.sh enforces.
#[test]
fn real_tree_has_no_unallowlisted_findings() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits in the workspace root")
        .to_path_buf();
    let files = xtask::analyze::collect_analysis_files(&root);
    assert!(
        files.len() > 20,
        "expected the full workspace, got {} files",
        files.len()
    );
    let report = analyze_sources(&files);
    let allow_text = std::fs::read_to_string(root.join("xtask/analyze.allow")).unwrap_or_default();
    let allow = parse_allow(&allow_text).expect("analyze.allow parses");
    let unallowed: Vec<&Finding> = report
        .findings
        .iter()
        .filter(|f| !allow.iter().any(|a| a.rule == f.rule && a.path == f.file))
        .collect();
    assert!(
        unallowed.is_empty(),
        "unallowlisted analyzer findings:\n{}",
        unallowed
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
