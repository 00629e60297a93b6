//! Property-based tests of the descriptor database's deferred-error
//! protocol (§IV): a staged failure is passed to the application on the
//! NEXT operation on the descriptor — exactly once — and when several
//! operations fail before the client comes back, the FIRST failure is
//! the one reported.

use iofwd::backend::{Backend, MemSinkBackend};
use iofwd::descdb::{BeginError, DescDb, OpOutcome};
use iofwd_proto::{Errno, Fd, OpId, OpenFlags};
use proptest::prelude::*;

fn open_one(db: &DescDb) -> Fd {
    let be = MemSinkBackend::new();
    let obj = be
        .open("/x", OpenFlags::RDWR | OpenFlags::CREATE, 0)
        .expect("mem sink open");
    db.insert(obj, "/x").expect("fd space")
}

fn errno_for(code: u8) -> Errno {
    match code % 3 {
        0 => Errno::Io,
        1 => Errno::NoSpc,
        _ => Errno::Pipe,
    }
}

/// Begin an op, collecting any deferred report into `reports`. A second
/// begin_op immediately after a deferred report must succeed (the error
/// was cleared by being reported).
fn begin_reporting(db: &DescDb, fd: Fd, reports: &mut Vec<(OpId, Errno)>) -> OpId {
    match db.begin_op(fd) {
        Ok((op, _)) => op,
        Err(BeginError::Deferred { op, errno }) => {
            reports.push((op, errno));
            match db.begin_op(fd) {
                Ok((op, _)) => op,
                Err(e) => panic!("begin_op after a deferred report must succeed, got {e:?}"),
            }
        }
        Err(BeginError::Sync(e)) => panic!("unexpected sync error {e:?}"),
    }
}

proptest! {
    /// Drive a random sequence of staged operations, some failing, and
    /// compare the deferred reports against a reference model of §IV:
    /// keep the first unreported failure, surface it on the next
    /// begin_op, clear it — so every report happens exactly once and in
    /// first-failure order.
    #[test]
    fn deferred_errors_reported_exactly_once(outcomes in proptest::collection::vec(0u8..8, 1..60)) {
        let db = DescDb::new();
        let fd = open_one(&db);

        let mut reports = Vec::new();
        let mut model_pending: Option<(OpId, Errno)> = None;
        let mut model_reports = Vec::new();

        for &code in &outcomes {
            // Model: begin_op surfaces (and clears) the pending error.
            if let Some(r) = model_pending.take() {
                model_reports.push(r);
            }
            let op = begin_reporting(&db, fd, &mut reports);
            // Codes 0..=2 fail with a rotating errno; the rest succeed.
            let outcome = if code <= 2 {
                let errno = errno_for(code);
                if model_pending.is_none() {
                    model_pending = Some((op, errno));
                }
                OpOutcome::Failed(errno)
            } else {
                OpOutcome::Ok
            };
            db.finish_op(fd, op, outcome);
        }

        // Drain: one more begin_op surfaces a trailing failure, and the
        // one after that must be clean — the report is never repeated.
        if let Some(r) = model_pending.take() {
            model_reports.push(r);
        }
        let op = begin_reporting(&db, fd, &mut reports);
        db.finish_op(fd, op, OpOutcome::Ok);
        let (op, _) = db.begin_op(fd).expect("no error may be reported twice");
        db.finish_op(fd, op, OpOutcome::Ok);

        prop_assert_eq!(&reports, &model_reports);
        // Exactly-once, globally: number of reports == number of
        // distinct first-failures, and no duplicates by op id.
        let mut ids: Vec<OpId> = reports.iter().map(|&(op, _)| op).collect();
        ids.dedup();
        prop_assert_eq!(ids.len(), reports.len(), "an op's error was reported twice");
        prop_assert!(!db.status(fd).expect("fd open").has_pending_error);
    }

    /// Failures racing in from worker threads: whatever the completion
    /// order, the client sees exactly one deferred report per
    /// begin/finish round, and it is one of the errors actually staged
    /// in that round.
    #[test]
    fn concurrent_failures_yield_single_report(fail_mask in 1u8..16) {
        let db = std::sync::Arc::new(DescDb::new());
        let fd = open_one(&db);

        // Stage four concurrent ops, a non-empty subset failing.
        let ops: Vec<OpId> = (0..4)
            .map(|_| db.begin_op(fd).expect("clean descriptor").0)
            .collect();
        let failing: Vec<OpId> = ops
            .iter()
            .enumerate()
            .filter(|&(i, _)| fail_mask & (1 << i) != 0)
            .map(|(_, &op)| op)
            .collect();
        std::thread::scope(|s| {
            for &op in &ops {
                let db = db.clone();
                let failed = failing.contains(&op);
                s.spawn(move || {
                    let outcome =
                        if failed { OpOutcome::Failed(Errno::Io) } else { OpOutcome::Ok };
                    db.finish_op(fd, op, outcome);
                });
            }
        });
        prop_assert_eq!(db.status(fd).expect("fd open").in_progress, 0);

        match db.begin_op(fd) {
            Err(BeginError::Deferred { op, errno }) => {
                prop_assert!(failing.contains(&op), "reported op {op} never failed");
                prop_assert_eq!(errno, Errno::Io);
            }
            _ => prop_assert!(false, "staged failure was never reported"),
        }
        // ... and exactly once.
        let (op, _) = db.begin_op(fd).expect("error already reported");
        db.finish_op(fd, op, OpOutcome::Ok);
        prop_assert!(!db.status(fd).expect("fd open").has_pending_error);
    }
}
