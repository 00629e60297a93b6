//! `cargo xtask flakes N`: the flake hunter. It runs the tier-1 tests N
//! times in one session and names every test that failed in any run,
//! with how often and what it printed. This module reads one run's
//! console output; `main.rs` runs the commands.

use std::collections::BTreeMap;

/// One failed test of one run: its name as the suite prints it
/// (`<test source>::<test path>`) and what it printed.
#[derive(Debug, PartialEq, Eq)]
pub struct Failure {
    pub name: String,
    pub output: String,
}

/// The tests that failed in one `cargo test` run, from its console
/// output (stderr merged into stdout, so each `Running` line comes
/// before its binary's results; `-q` drops them). A test binary that
/// died without reporting a failed test (a signal, an abort) counts as
/// one failure named after its source.
pub fn failures(console: &str) -> Vec<Failure> {
    let mut found: Vec<Failure> = Vec::new();
    let (mut source, mut reported) = (String::from("?"), 0);
    let mut open: Option<usize> = None;
    for line in console.lines() {
        // Cargo's status lines, right-aligned to 12 columns: a test's own
        // output can say "Running" too, but not with that indent.
        if let Some(rest) = line.strip_prefix("     Running ") {
            // `Running unittests src/lib.rs (…)` or `Running tests/x.rs (…)`.
            let path = rest.trim_start_matches("unittests ");
            let path = path.split(" (").next().unwrap_or(path);
            source = path.strip_prefix("tests/").unwrap_or(path).to_string();
            (reported, open) = (found.len(), None);
        } else if line.starts_with("   Doc-tests ") {
            (source, reported, open) = ("doc".into(), found.len(), None);
        } else if let Some(name) = line
            .strip_prefix("---- ")
            .and_then(|l| l.strip_suffix(" stdout ----"))
        {
            found.push(Failure {
                name: format!("{source}::{name}"),
                output: String::new(),
            });
            open = Some(found.len() - 1);
        } else if line == "failures:" {
            open = None;
        } else if line.starts_with("error: test failed") {
            // A binary with no failed test of its own died: what follows
            // (cargo's "Caused by", the signal) is its output.
            open = None;
            if found.len() == reported {
                found.push(Failure {
                    name: format!("{source} (the test binary died)"),
                    output: String::new(),
                });
                (reported, open) = (found.len(), Some(found.len() - 1));
            }
        } else if let Some(i) = open {
            found[i].output.push_str(line);
            found[i].output.push('\n');
        }
    }
    found
}

/// Every test that failed in any of `runs` (1-based run numbers), with
/// each failing run's output, sorted by name.
pub fn tally(runs: &[Vec<Failure>]) -> BTreeMap<&str, Vec<(usize, &str)>> {
    let mut table: BTreeMap<&str, Vec<(usize, &str)>> = BTreeMap::new();
    for (run, failed) in runs.iter().enumerate() {
        for f in failed {
            let seen = table.entry(&f.name).or_default();
            if seen.last().is_none_or(|&(r, _)| r != run + 1) {
                seen.push((run + 1, f.output.trim_end()));
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONSOLE: &str = "     Running unittests src/lib.rs (target/debug/deps/iofwd-0123)

running 2 tests
.F
failures:

---- backend::tests::one stdout ----
thread 'backend::tests::one' panicked at src/backend.rs:1:1:
boom

failures:
    backend::tests::one

test result: FAILED. 1 passed; 1 failed
     Running tests/lock_check.rs (target/debug/deps/lock_check-4567)

running 3 tests
error: test failed, to rerun pass `-p iofwd --test lock_check`

Caused by:
  process didn't exit successfully: `target/debug/deps/lock_check-4567` (signal: 6, SIGABRT: process abort signal)
     Running tests/mapped_reads.rs (target/debug/deps/mapped_reads-89ab)

running 1 test
F
failures:

---- a_read stdout ----
wrong bytes
Running is not this test's job

failures:
    a_read

test result: FAILED. 0 passed; 1 failed
error: test failed, to rerun pass `-p iofwd --test mapped_reads`

Caused by:
  process didn't exit successfully: `target/debug/deps/mapped_reads-89ab` (exit status: 101)
   Doc-tests iofwd
";

    #[test]
    fn names_each_failed_test_by_source_and_keeps_its_output() {
        let found = failures(CONSOLE);
        let names: Vec<&str> = found.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "src/lib.rs::backend::tests::one",
                "lock_check.rs (the test binary died)",
                "mapped_reads.rs::a_read",
            ]
        );
        assert!(found[0].output.contains("boom"));
        assert!(!found[0].output.contains("failures:"));
        assert!(found[1].output.contains("SIGABRT"));
        assert!(found[2].output.starts_with("wrong bytes\n"));
    }

    #[test]
    fn a_clean_run_has_no_failures() {
        let clean = "     Running tests/x.rs (t)\n\nrunning 1 test\n.\ntest result: ok.\n";
        assert!(failures(clean).is_empty());
    }

    #[test]
    fn tally_counts_each_run_once_per_test() {
        let fail = |name: &str, output: &str| Failure {
            name: name.into(),
            output: output.into(),
        };
        let runs = vec![
            vec![fail("a", "first"), fail("a", "again")],
            vec![],
            vec![fail("a", "third"), fail("b", "only")],
        ];
        let table = tally(&runs);
        assert_eq!(table["a"], [(1, "first"), (3, "third")]);
        assert_eq!(table["b"], [(3, "only")]);
        assert_eq!(table.len(), 2);
    }
}
