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

/// Minor faults the process has taken so far: field 10 of
/// `/proc/PID/stat`, counted from behind the parenthesised command name.
fn minor_faults(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after_comm = &stat[stat.rfind(')')? + 1..];
    after_comm.split_whitespace().nth(7)?.parse().ok()
}

/// Staging in steady state never reaches the allocator: the paper's
/// regime (bursts of 64 KiB writes staged, drained, repeated) lands every
/// payload in a recycled BML block, so once the pool is warm the daemon
/// takes no page faults for it. Received into fresh heap buffers, which
/// the allocator trims after every drain and faults back in on the next
/// burst, the same traffic costs 6–8 minor faults per op.
#[test]
fn steady_state_staging_takes_no_page_faults() {
    const BLOCK: usize = 64 * 1024;
    const BURST: usize = 256;
    const CLIENTS: usize = 2;
    let dir = std::env::temp_dir().join(format!("iofwd-cli-faults-{}", std::process::id()));
    let spec = DaemonSpec::new(env!("CARGO_BIN_EXE_iofwdd"), dir.join("ion-root"))
        .mode("staged")
        .workers(2)
        .arg("--bml-mib")
        .arg("64")
        .arg("--throttle")
        .arg("500,200");
    let mut daemon = DaemonHandle::spawn(&spec).expect("spawn iofwdd");
    let pid = daemon.pid().expect("daemon is running");
    if minor_faults(pid).is_none() {
        eprintln!("skipped: no /proc/{pid}/stat to read minor faults from");
        daemon.shutdown().expect("daemon shutdown");
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    // Main reads the counter between cycles 2 and 3 and after cycle 4,
    // with both clients idle on the barrier.
    let cycle = std::sync::Barrier::new(CLIENTS + 1);
    let addr = daemon.addr();
    let faults = std::thread::scope(|scope| {
        for id in 0..CLIENTS {
            let (cycle, addr) = (&cycle, &addr);
            scope.spawn(move || {
                let conn = iofwd::transport::tcp::TcpConn::connect(addr.as_str()).expect("connect");
                let mut c = iofwd::client::Client::with_id(Box::new(conn), id as u32);
                let flags = iofwd_proto::OpenFlags::RDWR | iofwd_proto::OpenFlags::CREATE;
                let fd = c.open(&format!("/ring-{id}"), flags, 0o644).expect("open");
                let block = vec![id as u8 + 1; BLOCK];
                for _ in 0..4 {
                    for i in 0..BURST {
                        c.pwrite(fd, (i * BLOCK) as u64, &block).expect("pwrite");
                    }
                    c.fsync(fd).expect("drain");
                    assert_eq!(c.pread(fd, 0, 4096).expect("read back"), block[..4096]);
                    cycle.wait();
                }
                c.close(fd).expect("close");
            });
        }
        cycle.wait();
        cycle.wait();
        let warm = minor_faults(pid).expect("read while the daemon runs");
        cycle.wait();
        cycle.wait();
        minor_faults(pid).expect("read while the daemon runs") - warm
    });
    let ops = (CLIENTS * 2 * (BURST + 2)) as f64;
    let per_op = faults as f64 / ops;
    assert!(
        per_op < 0.5,
        "{faults} minor faults over {ops} steady-state ops = {per_op:.2} per op"
    );
    assert!(!daemon.panicked(), "{}", daemon.log_tail());
    daemon.shutdown().expect("daemon shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Context switches the process has made so far: `voluntary_ctxt_switches`
/// plus `nonvoluntary_ctxt_switches`, summed over `/proc/PID/task/*/status`.
fn context_switches(pid: u32) -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let status = std::fs::read_to_string(task.ok()?.path().join("status")).ok()?;
        for line in status.lines() {
            let count = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"));
            if let Some(n) = count {
                total += n.trim().parse::<u64>().ok()?;
            }
        }
    }
    Some(total)
}

/// An uncontended read runs on the handler thread that received it,
/// under a free execution slot of the work queue, instead of crossing to
/// a worker and back: one client's back-to-back 4 KiB `pread`s cost the
/// daemon about one context switch each (the handler sleeping in `recv`
/// for the next request). Handed to a worker, each also costs the
/// handler's sleep on the reply and the worker's own — about three.
#[test]
fn an_uncontended_read_does_not_cross_threads() {
    const READS: usize = 2000;
    let dir = std::env::temp_dir().join(format!("iofwd-cli-ctxsw-{}", std::process::id()));
    let spec = DaemonSpec::new(env!("CARGO_BIN_EXE_iofwdd"), dir.join("ion-root"))
        .mode("staged")
        .workers(2);
    let mut daemon = DaemonHandle::spawn(&spec).expect("spawn iofwdd");
    let pid = daemon.pid().expect("daemon is running");
    if context_switches(pid).is_none() {
        eprintln!("skipped: no /proc/{pid}/task/*/status to read context switches from");
        daemon.shutdown().expect("daemon shutdown");
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    let conn = iofwd::transport::tcp::TcpConn::connect(daemon.addr().as_str()).expect("connect");
    let mut c = iofwd::client::Client::connect(Box::new(conn));
    let flags = iofwd_proto::OpenFlags::RDWR | iofwd_proto::OpenFlags::CREATE;
    let fd = c.open("/read-me", flags, 0o644).expect("open");
    let block: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    c.pwrite(fd, 0, &block).expect("pwrite");
    c.fsync(fd).expect("fsync");
    for _ in 0..100 {
        c.pread(fd, 0, 4096).expect("warm-up pread");
    }
    let before = context_switches(pid).expect("read while the daemon runs");
    for _ in 0..READS {
        assert_eq!(c.pread(fd, 0, 4096).expect("pread"), block);
    }
    let switches = context_switches(pid).expect("read while the daemon runs") - before;
    c.close(fd).expect("close");
    let per_op = switches as f64 / READS as f64;
    assert!(
        per_op < 2.0,
        "{switches} daemon context switches over {READS} reads = {per_op:.2} per read"
    );
    assert!(!daemon.panicked(), "{}", daemon.log_tail());
    daemon.shutdown().expect("daemon shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reactor daemon is its event loops, its workers and the main
/// (supervision) thread, with traffic in flight or not: no op waits for
/// a barrier, so there is no executor pool beside the workers for one to
/// wait in.
#[test]
fn a_reactor_daemon_is_its_loops_and_its_workers() {
    const LOOPS: usize = 1;
    const WORKERS: usize = 2;
    let dir = std::env::temp_dir().join(format!("iofwd-cli-threads-{}", std::process::id()));
    let spec = DaemonSpec::new(env!("CARGO_BIN_EXE_iofwdd"), dir.join("ion-root"))
        .mode("staged")
        .workers(WORKERS)
        .arg("--transport")
        .arg("reactor")
        .arg("--reactor-threads")
        .arg(LOOPS.to_string());
    let mut daemon = DaemonHandle::spawn(&spec).expect("spawn iofwdd");
    let pid = daemon.pid().expect("daemon is running");
    let threads = || {
        std::fs::read_dir(format!("/proc/{pid}/task"))
            .ok()
            .map(|tasks| tasks.count())
    };
    if threads().is_none() {
        eprintln!("skipped: no /proc/{pid}/task to count threads in");
        daemon.shutdown().expect("daemon shutdown");
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    let conn = iofwd::transport::tcp::TcpConn::connect(daemon.addr().as_str()).expect("connect");
    let mut c = iofwd::client::Client::connect(Box::new(conn));
    let flags = iofwd_proto::OpenFlags::RDWR | iofwd_proto::OpenFlags::CREATE;
    let fd = c.open("/counted", flags, 0o644).expect("open");
    for i in 0..64u64 {
        c.pwrite(fd, i * 4096, &[1u8; 4096]).expect("pwrite");
    }
    assert_eq!(c.fstat(fd).expect("fstat").size, 64 * 4096);
    assert_eq!(c.stat("/counted").expect("stat").size, 64 * 4096);
    let busy = threads().expect("count while the daemon runs");
    c.close(fd).expect("close");
    let idle = threads().expect("count while the daemon runs");
    assert_eq!((busy, idle), (1 + LOOPS + WORKERS, 1 + LOOPS + WORKERS));
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
