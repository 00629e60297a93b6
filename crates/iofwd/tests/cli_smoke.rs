//! End-to-end smoke test of the shipped binaries: `iofwdd` (the daemon)
//! and `iofwd-cp` (the transfer tool), as real processes over real TCP
//! and a real filesystem root. Daemon lifecycle goes through
//! [`iofwd::daemon::DaemonHandle`] — the same supervisor the experiment
//! harness and CI gates use.

use std::io::{Read, Write};
use std::process::Command;

use iofwd::daemon::{DaemonHandle, DaemonSpec};

#[test]
fn daemon_and_cp_roundtrip() {
    let dir = std::env::temp_dir().join(format!("iofwd-cli-{}", std::process::id()));
    let root = dir.join("ion-root");
    std::fs::create_dir_all(&dir).unwrap();

    // Source file with non-trivial contents.
    let src = dir.join("src.bin");
    let payload: Vec<u8> = (0..3_000_000u32).map(|i| (i % 251) as u8).collect();
    std::fs::File::create(&src)
        .unwrap()
        .write_all(&payload)
        .unwrap();

    let spec = DaemonSpec::new(env!("CARGO_BIN_EXE_iofwdd"), &root).mode("staged");
    let mut daemon = DaemonHandle::spawn(&spec).expect("spawn iofwdd");
    let addr = daemon.addr();
    // The startup banner must land in the captured log. The daemon
    // writes its port file before the banner, so poll briefly.
    let bannered = (0..100).any(|_| {
        let seen = std::fs::read_to_string(daemon.log_path())
            .map(|t| t.contains("listening"))
            .unwrap_or(false);
        if !seen {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        seen
    });
    assert!(bannered, "{}", daemon.log_tail());

    let cp = env!("CARGO_BIN_EXE_iofwd-cp");
    // put
    let st = Command::new(cp)
        .args(["put", src.to_str().unwrap(), &addr, "/in/data.bin"])
        .status()
        .unwrap();
    assert!(st.success(), "put failed");
    // The daemon's sandboxed root must now contain the file.
    assert_eq!(
        std::fs::metadata(root.join("in/data.bin")).unwrap().len(),
        payload.len() as u64
    );
    // stat
    let out = Command::new(cp)
        .args(["stat", &addr, "/in/data.bin"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains(&format!("{} bytes", payload.len())), "{text}");
    // get
    let back = dir.join("back.bin");
    let st = Command::new(cp)
        .args(["get", &addr, "/in/data.bin", back.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(st.success(), "get failed");
    let mut got = Vec::new();
    std::fs::File::open(&back)
        .unwrap()
        .read_to_end(&mut got)
        .unwrap();
    assert_eq!(got, payload);

    // The live registry, checked over the stats wire protocol: the
    // transfers above completed ops and left queue-wait samples.
    let stats = |assertions: &[&str]| {
        let out = Command::new(cp)
            .args(["stats", &addr])
            .args(assertions)
            .output()
            .unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (code, text, err) = stats(&["ops_completed", "p99:queue_wait_ns<60000000"]);
    assert_eq!(code, Some(0), "{text}{err}");
    assert!(text.contains("ops_completed = "), "{text}");
    assert!(text.contains("p99 of queue_wait_ns"), "{text}");
    let (code, _, err) = stats(&["p99:queue_wait_ns<0"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("percentile assertion failed"), "{err}");
    let (code, _, err) = stats(&["no_such_counter"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("no counter named"), "{err}");

    // Errors are clean, not panics.
    let out = Command::new(cp)
        .args(["stat", &addr, "/no/such/file"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("ENOENT"));

    assert!(!daemon.panicked(), "{}", daemon.log_tail());
    daemon.shutdown().expect("daemon shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cp_usage_errors_are_clean() {
    let out = Command::new(env!("CARGO_BIN_EXE_iofwd-cp"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    // Snapshots are read from a live daemon (`stats ADDR`), not a file.
    let out = Command::new(env!("CARGO_BIN_EXE_iofwd-cp"))
        .args(["snapshot", "/tmp/stats.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn daemon_rejects_bad_mode() {
    let out = Command::new(env!("CARGO_BIN_EXE_iofwdd"))
        .args(["--mode", "bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown mode"));
}

/// Option combinations that used to start a daemon doing something other
/// than what was asked: each is a usage error naming the option.
#[test]
fn daemon_rejects_contradictory_options() {
    for (args, names) in [
        ("--mode sched --workers 0", "--workers"),
        ("--mode staged --workers 0 --transport reactor", "--workers"),
        ("--stats-port-file /tmp/p", "--stats-port-file"),
        ("--mode async", "--mode"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_iofwdd"))
            .args(args.split(' '))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(names), "{args:?}: {err}");
    }
    // The inline modes have no pool, so zero workers is not a conflict.
    let root = std::env::temp_dir().join(format!("iofwd-cli-w0-{}", std::process::id()));
    let spec = DaemonSpec::new(env!("CARGO_BIN_EXE_iofwdd"), &root)
        .mode("zoid")
        .workers(0);
    let mut daemon = DaemonHandle::spawn(&spec).expect("zoid starts with --workers 0");
    daemon.shutdown().expect("daemon shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

/// Retired flags are gone, not silently ignored: the zero-copy control
/// arm (BENCH_PR10.json is its frozen measurement), the file/stderr
/// stats exits the stats wire protocol replaced, the per-client
/// attribution switch (attribution is simply on) and the bare
/// `--coalesce` form (`--coalesce=off|BYTES,OPS` are the forms left).
#[test]
fn daemon_rejects_retired_flags() {
    let hotpath = ["--hot", "path"].concat();
    for (flag, value) in [
        (hotpath.as_str(), "seed"),
        ("--stats-json", "x"),
        ("--stats-interval", "1"),
        ("--dump-trigger", "x"),
        ("--attribution", "on"),
        ("--coalesce", "on"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_iofwdd"))
            .args([flag, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown option"), "{flag}: {err}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_iofwdd"))
        .arg("--help")
        .output()
        .unwrap();
    let help = String::from_utf8_lossy(&out.stdout);
    assert_eq!(help.matches("--").count(), 18, "{help}");
}
