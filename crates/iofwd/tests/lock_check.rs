//! The lock checker in `iofwd::sync`: each planted hazard is reported
//! with both of its witness sites, each matching correct pattern stays
//! silent, and the daemon's own lock graph is pinned. Hazards are
//! planted inside `catch_violations`, which collects the report instead
//! of aborting; their locks are made here, so their classes are this
//! file's lines and meet no daemon lock.
#![cfg(all(debug_assertions, not(loom)))]

use std::sync::Arc;

use bytes::Bytes;
use iofwd::backend::MemSinkBackend;
use iofwd::client::Client;
use iofwd::server::{Engine, ForwardingMode, IonServer, ReactorConfig, ServerConfig};
use iofwd::sync::{self, catch_violations, BlockingGuard, Condvar, Mutex};
use iofwd::transport::tcp::{TcpAcceptor, TcpConn};
use iofwd_proto::{OpenFlags, Request};

/// `file:line:` of the line above the caller's.
#[track_caller]
fn here() -> String {
    let at = std::panic::Location::caller();
    format!("{}:{}:", at.file(), at.line() - 1)
}

fn assert_one(violations: &[String], sites: &[&str]) {
    assert_eq!(violations.len(), 1, "{violations:#?}");
    for site in sites {
        assert!(violations[0].contains(site), "{site} in {}", violations[0]);
    }
}

/// Take `first` then `second` on a thread of its own, inside
/// `catch_violations`: where the second was taken, and the reports.
fn nest(first: &Arc<Mutex<()>>, second: &Arc<Mutex<()>>) -> (String, Vec<String>) {
    let (first, second) = (first.clone(), second.clone());
    let nested = move || {
        let _first = first.lock();
        let _second = second.lock();
        here()
    };
    std::thread::spawn(|| catch_violations(nested))
        .join()
        .unwrap()
}

#[test]
fn a_consistent_order_is_silent() {
    let (a, b) = (Arc::new(Mutex::new(())), Arc::new(Mutex::new(())));
    for _ in 0..2 {
        assert!(nest(&a, &b).1.is_empty());
    }
}

/// The two orders run one after the other, so nothing deadlocks: the
/// class graph remembers the first.
#[test]
fn an_ab_ba_inversion_across_two_threads_is_reported_with_both_sites() {
    let (a, b) = (Arc::new(Mutex::new(())), Arc::new(Mutex::new(())));
    let (first, silent) = nest(&a, &b);
    assert!(silent.is_empty());
    let inverted = move || {
        let _b = b.lock();
        let _a = a.lock();
        here()
    };
    let (second, caught) = std::thread::spawn(|| catch_violations(inverted))
        .join()
        .unwrap();
    assert_one(&caught, &["lock order inversion", &first, &second]);
}

#[test]
fn a_class_reacquired_while_held_is_reported() {
    // Two locks made at one site are one class, as in lockdep.
    let locks: Vec<Mutex<u8>> = (0..2).map(|_| Mutex::new(0)).collect();
    let (sites, caught) = catch_violations(|| {
        let _first = locks[0].lock();
        let held_at = here();
        let _second = locks[1].lock();
        (held_at, here())
    });
    assert_one(&caught, &["same class", &sites.0, &sites.1]);
}

#[test]
fn a_backend_call_under_a_foreign_guard_is_reported() {
    let engine = Engine::new(Arc::new(MemSinkBackend::new()), None);
    let foreign = Mutex::new(());
    let (held_at, caught) = catch_violations(|| {
        let _g = foreign.lock();
        let held_at = here();
        engine.execute(&Request::Stat { path: "/x".into() }, &Bytes::new());
        held_at
    });
    assert_one(&caught, &["a backend call", "engine.rs", &held_at]);
}

/// The blocking call sits frames below the function holding the guard:
/// the report names both ends, the guard's site and the call's.
#[test]
fn a_blocking_call_frames_below_a_foreign_guard_is_reported_with_both_sites() {
    fn retry_pause() -> String {
        sync::blocking("a retry pause");
        here()
    }
    fn commit(depth: u32) -> String {
        match depth {
            0 => retry_pause(),
            _ => commit(depth - 1),
        }
    }
    let journal = Mutex::new(());
    let (sites, caught) = catch_violations(|| {
        let _g = journal.lock();
        let held_at = here();
        (held_at, commit(2))
    });
    assert_one(&caught, &["a retry pause", &sites.0, &sites.1]);
}

/// Silent on the daemon's own paths too: the graph test below runs
/// every mode's backend calls and socket I/O under their own guards.
#[test]
fn blocking_io_through_the_guarded_objects_own_guard_is_silent() {
    let (obj, conn) = (Mutex::new(()), Mutex::new(()));
    let ((), caught) = catch_violations(|| obj.lock().blocking("a backend call on its object"));
    assert!(caught.is_empty(), "{caught:#?}");
    // A guard that declared its blocking I/O may wait inside it on a
    // condvar of its own (a read waiting for staging memory).
    assert!(wait_once(Some(conn), true).1.is_empty());
}

/// Park a thread in `Condvar::wait`, holding `other` if given (declared
/// as guarding the blocking I/O with `declare`), and wake it: the waiter
/// marks its turn and waits in one critical section, so the waker sees
/// the mark only once the waiter is waiting.
fn wait_once(other: Option<Mutex<()>>, declare: bool) -> (String, Vec<String>) {
    let turn = Arc::new((Mutex::new(0), Condvar::new()));
    let waiter = {
        let turn = turn.clone();
        std::thread::spawn(move || {
            catch_violations(move || {
                let other = other.as_ref().map(|m| m.lock());
                let held_at = here();
                if let Some(g) = other.as_ref().filter(|_| declare) {
                    g.blocking("a socket read");
                }
                let mut s = turn.0.lock();
                *s = 1;
                turn.1.notify_all();
                while *s != 2 {
                    turn.1.wait(&mut s);
                }
                held_at
            })
        })
    };
    let mut s = turn.0.lock();
    while *s != 1 {
        turn.1.wait(&mut s);
    }
    *s = 2;
    turn.1.notify_all();
    drop(s);
    waiter.join().unwrap()
}

#[test]
fn a_condvar_wait_holding_a_second_lock_is_reported() {
    let (held_at, caught) = wait_once(Some(Mutex::new(())), false);
    assert_one(&caught, &["a condvar wait", &held_at]);
    // Paired: the wait holds its own mutex only.
    assert!(wait_once(None, false).1.is_empty());
}

#[test]
fn guards_dropped_out_of_order_or_by_a_panic_leave_nothing_held() {
    let (a, b) = (Mutex::new(()), Mutex::new(()));
    let ((), caught) = catch_violations(|| {
        let (ga, gb) = (a.lock(), b.lock());
        drop(ga);
        gb.blocking("I/O under its own lock");
        drop(gb);
        let unwound = std::panic::catch_unwind(|| {
            let _held = a.lock();
            panic!("unwinds holding a lock");
        });
        assert!(unwound.is_err());
        sync::blocking("I/O under no lock");
    });
    assert!(caught.is_empty(), "{caught:#?}");
}

/// Run in a child by the test below: the violation is on a worker that
/// catches its own unwind, as a daemon worker might.
#[test]
#[ignore = "aborts its process; run in a child by the test below"]
fn plant_an_uncaught_violation_on_a_worker() {
    let _ = std::thread::spawn(|| {
        std::panic::catch_unwind(|| {
            let foreign = Mutex::new(());
            let _g = foreign.lock();
            sync::blocking("a planted backend call");
        })
    })
    .join();
}

#[test]
fn a_violation_on_an_unwinding_worker_aborts_the_process() {
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "--ignored",
            "--exact",
            "plant_an_uncaught_violation_on_a_worker",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "the child survived: {stderr}");
    assert!(
        stderr.contains("iofwd lock check: a planted backend call"),
        "{stderr}"
    );
}

/// The daemon's lock graph, held class → taken class, each class named
/// by the file and source line of its `Mutex::new`. A new nesting is a
/// reviewed edit here.
const DAEMON_GRAPH: &[(&str, &str)] = &[
    // A backend call on an object runs under the object's lock; the
    // memory backend's file data has its own.
    (
        "descdb.rs: obj: Arc::new(Mutex::new(obj)),",
        "backend.rs: .or_insert_with(|| Arc::new(Mutex::new(Vec::new())))",
    ),
    // A payload is received into a BML block under the connection's
    // read half (and waits there for staging memory, §IV).
    (
        "transport.rs: read: Mutex::new((read, FrameReader::default(), None)),",
        "bml.rs: inner: Mutex::new(BmlInner {",
    ),
];

/// `file.rs: <source line>` for a daemon class; `None` for any other.
fn daemon_class(site: &std::panic::Location<'_>) -> Option<String> {
    let file = site.file().strip_prefix("crates/iofwd/src/")?;
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let text = std::fs::read_to_string(format!("{root}/{}", site.file())).ok()?;
    let line = text.lines().nth(site.line() as usize - 1)?;
    Some(format!("{}: {}", file.rsplit('/').next()?, line.trim()))
}

fn drive(mode: ForwardingMode, reactor: bool) {
    let backend = Arc::new(MemSinkBackend::new());
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let config = ServerConfig::new(mode);
    let server = if reactor {
        IonServer::spawn_reactor(acceptor, backend, config, ReactorConfig::default()).unwrap()
    } else {
        IonServer::spawn(Box::new(acceptor), backend, config)
    };
    let mut c = Client::connect(Box::new(TcpConn::connect(addr).unwrap()));
    let fd = c
        .open("/g", OpenFlags::RDWR | OpenFlags::CREATE, 0o644)
        .unwrap();
    let payload = vec![7u8; 256 << 10];
    for chunk in payload.chunks(64 << 10) {
        c.write(fd, chunk).unwrap();
    }
    c.fsync(fd).unwrap();
    assert_eq!(c.pread(fd, 0, payload.len() as u64).unwrap(), payload);
    assert_eq!(c.stat("/g").unwrap().size, payload.len() as u64);
    c.close(fd).unwrap();
    c.unlink("/g").unwrap();
    c.shutdown().unwrap();
    server.shutdown();
}

/// Every mode over TCP — ciod, zoid, sched and staged on handler
/// threads, sched and staged on the reactor — then the graph's daemon
/// edges (the checker aborts on a cycle, so it is acyclic). Print it
/// with `cargo test -p iofwd --test lock_check -- --nocapture graph`.
#[test]
fn the_daemons_lock_graph_is_acyclic_and_pinned() {
    let sched = ForwardingMode::Sched { workers: 2 };
    let staged = ForwardingMode::AsyncStaged {
        workers: 2,
        bml_capacity: 4 << 20,
    };
    for mode in [ForwardingMode::Ciod, ForwardingMode::Zoid, sched, staged] {
        drive(mode, false);
    }
    for mode in [sched, staged] {
        drive(mode, true);
    }
    let edges = sync::lock_graph().into_iter();
    let named = edges.filter_map(|(held, taken)| Some((daemon_class(held)?, daemon_class(taken)?)));
    let mut graph: Vec<(String, String)> = named.collect();
    graph.sort();
    println!("observed lock graph ({} edges):", graph.len());
    for (held, taken) in &graph {
        println!("  {held}  ->  {taken}");
    }
    let pinned = DAEMON_GRAPH
        .iter()
        .map(|&(a, b)| (a.to_string(), b.to_string()));
    assert_eq!(graph, pinned.collect::<Vec<_>>());
}
