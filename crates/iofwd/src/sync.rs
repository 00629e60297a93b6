//! The daemon's one source of locks, condvars and channels (lint R13).
//!
//! A normal build gets a poison-free `Mutex`/`Condvar` over `std::sync`:
//! a lock whose holder panicked is taken again as it was left, because a
//! worker that unwinds inside a backend call holds its object's lock and
//! daemon paths may not `unwrap` (R2). Under `RUSTFLAGS="--cfg loom"`
//! every lock and condvar is `loomlite`'s, so `tests/loom_model.rs`
//! explores every interleaving of every daemon lock. Channels are
//! `std::sync::mpsc` in both builds: loom does not model them.
//!
//! Debug builds outside loom check every lock as it is taken, as Linux
//! lockdep does: a lock-order cycle between lock classes (creation
//! sites), or blocking under a lock other than the one guarding what
//! blocks, prints both witness sites and aborts the process, so no unwind
//! can swallow it (DESIGN.md §8). Release builds compile none of it.

#[cfg(all(debug_assertions, not(loom)))]
pub use lockcheck::{catch_violations, lock_graph};
#[cfg(loom)]
pub use loomlite::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub use poison_free::{Condvar, Mutex, MutexGuard};
pub use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};

/// The calling thread is about to block on `what` (a backend call, a
/// socket) and may hold no lock while it does.
#[cfg_attr(all(debug_assertions, not(loom)), track_caller)]
pub fn blocking(_what: &'static str) {
    #[cfg(all(debug_assertions, not(loom)))]
    lockcheck::blocked(None, _what, std::panic::Location::caller(), false);
}

/// A guard whose lock guards blocking I/O (a connection half, an object).
pub trait BlockingGuard {
    /// The thread is about to block on `what`, which this lock guards, and
    /// may hold no other. The lock stays exempt while the guard lives: a
    /// wait inside that I/O (a read waiting for staging memory) is part of it.
    fn blocking(&self, _what: &'static str) {}
}

#[cfg(loom)]
impl<T: ?Sized> BlockingGuard for MutexGuard<'_, T> {}

#[cfg(not(loom))]
mod poison_free {
    #[cfg(debug_assertions)]
    use super::lockcheck::{self, Held};
    #[cfg(debug_assertions)]
    use std::panic::Location;
    use std::sync::PoisonError;

    /// No `Default`: a lock's class is the site of its `Mutex::new` call.
    pub struct Mutex<T: ?Sized> {
        #[cfg(debug_assertions)]
        class: &'static Location<'static>,
        inner: std::sync::Mutex<T>,
    }

    pub struct MutexGuard<'a, T: ?Sized> {
        /// The `std` guard; `None` only while [`Condvar::wait`] has lent it out.
        g: Option<std::sync::MutexGuard<'a, T>>,
        /// Dropped after `g`, once the lock is released.
        #[cfg(debug_assertions)]
        held: Held,
    }

    impl<T> Mutex<T> {
        #[cfg_attr(debug_assertions, track_caller)]
        pub fn new(value: T) -> Self {
            Mutex {
                #[cfg(debug_assertions)]
                class: Location::caller(),
                inner: std::sync::Mutex::new(value),
            }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        #[cfg_attr(debug_assertions, track_caller)]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            #[cfg(debug_assertions)]
            let held = lockcheck::acquire(self.class, Location::caller());
            MutexGuard {
                g: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
                #[cfg(debug_assertions)]
                held,
            }
        }
    }

    impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.g.as_deref().expect("guard lent to a condvar wait")
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.g.as_deref_mut().expect("guard lent to a condvar wait")
        }
    }

    impl<T: ?Sized> super::BlockingGuard for MutexGuard<'_, T> {
        #[cfg_attr(debug_assertions, track_caller)]
        fn blocking(&self, _what: &'static str) {
            #[cfg(debug_assertions)]
            lockcheck::blocked(Some(&self.held), _what, Location::caller(), true);
        }
    }

    #[derive(Default)]
    pub struct Condvar(std::sync::Condvar);

    impl Condvar {
        pub fn new() -> Self {
            Self::default()
        }

        /// Blocks holding `guard`'s lock and no other.
        #[cfg_attr(debug_assertions, track_caller)]
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            #[cfg(debug_assertions)]
            lockcheck::blocked(
                Some(&guard.held),
                "a condvar wait",
                Location::caller(),
                false,
            );
            if let Some(g) = guard.g.take() {
                guard.g = Some(self.0.wait(g).unwrap_or_else(PoisonError::into_inner));
            }
        }

        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }
}

#[cfg(all(debug_assertions, not(loom)))]
mod lockcheck {
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::io::Write;
    use std::panic::Location;
    use std::sync::PoisonError;

    type Site = &'static Location<'static>;

    /// Class → the classes taken while it was held → the site that first did.
    static GRAPH: std::sync::Mutex<BTreeMap<Site, BTreeMap<Site, Site>>> =
        std::sync::Mutex::new(BTreeMap::new());

    /// A held lock: id, class, the site that took it, and whether its
    /// guard declared the blocking I/O the lock guards.
    struct Entry(u64, Site, Site, bool);

    /// A thread's held locks (guards may drop out of order), the edges
    /// it has checked (no shared lock for them again) and what it caught.
    struct Thread {
        next_id: u64,
        held: Vec<Entry>,
        seen: BTreeSet<(Site, Site)>,
        caught: Option<Vec<String>>,
    }

    thread_local! {
        static THREAD: RefCell<Thread> = const {
            RefCell::new(Thread { next_id: 0, held: Vec::new(), seen: BTreeSet::new(), caught: None })
        };
    }

    fn with<R: Default>(f: impl FnOnce(&mut Thread) -> R) -> R {
        let r = THREAD.try_with(|t| f(&mut t.borrow_mut()));
        r.unwrap_or_default()
    }

    /// A guard's entry in its thread's held stack, removed on drop
    /// (unwinding included).
    pub struct Held(u64);

    impl Drop for Held {
        fn drop(&mut self) {
            with(|t| t.held.retain(|e| e.0 != self.0));
        }
    }

    /// A lock of `class` is about to be taken at `taken_at`: check each
    /// held → `class` edge before the thread can block on the lock.
    pub fn acquire(class: Site, taken_at: Site) -> Held {
        Held(with(|t| {
            for i in 0..t.held.len() {
                let edge = (t.held[i].1, class);
                if !t.seen.contains(&edge) {
                    match violation(&t.held[i], class, taken_at) {
                        Some(v) => report(t, v),
                        None => _ = t.seen.insert(edge),
                    }
                }
            }
            t.next_id += 1;
            t.held.push(Entry(t.next_id, class, taken_at, false));
            t.next_id
        }))
    }

    /// Check `held` → `class` against the shared graph; add it unless
    /// it closes a cycle.
    fn violation(held: &Entry, class: Site, taken_at: Site) -> Option<String> {
        let mut graph = GRAPH.lock().unwrap_or_else(PoisonError::into_inner);
        let (from, held_at) = (held.1, held.2);
        if from == class {
            return Some(format!(
                "lock class made at {class} taken at {taken_at} while a lock of the same class \
                 is held, taken at {held_at}"
            ));
        }
        // A path class → … → held is the reverse order.
        let (mut stack, mut visited) = (vec![(class, String::new())], BTreeSet::new());
        while let Some((c, path)) = stack.pop() {
            if c == from {
                return Some(format!(
                    "lock order inversion: lock class made at {class} taken at {taken_at} \
                     while holding the class made at {from} (taken at {held_at}); the reverse \
                     order was taken at{path}"
                ));
            }
            if visited.insert(c) {
                for (&next, &at) in graph.get(c).into_iter().flatten() {
                    stack.push((next, format!("{path} {at}")));
                }
            }
        }
        let edges = graph.entry(from).or_default();
        edges.entry(class).or_insert(taken_at);
        None
    }

    /// The thread is about to block on `what` at `at`; `own` is the
    /// entry of the lock that guards it, if any, and `declare` exempts it
    /// from here on.
    pub fn blocked(own: Option<&Held>, what: &str, at: Site, declare: bool) {
        with(|t| {
            let own = own.map(|h| h.0);
            for e in t.held.iter_mut().filter(|e| declare && Some(e.0) == own) {
                e.3 = true;
            }
            let foreign = t.held.iter().filter(|e| Some(e.0) != own && !e.3);
            let found: Vec<_> = foreign.map(|e| (e.1, e.2)).collect();
            for (class, taken) in found {
                let v = format!(
                    "{what} at {at} while holding the class made at {class}, taken at {taken}"
                );
                report(t, v);
            }
        });
    }

    fn report(t: &mut Thread, violation: String) {
        match &mut t.caught {
            Some(caught) => caught.push(violation),
            None => {
                // Straight to the descriptor: a test harness's capture
                // of `eprintln!` would die with the process.
                let _ = writeln!(std::io::stderr(), "iofwd lock check: {violation}");
                std::process::abort();
            }
        }
    }

    /// Run `f`, collecting the violations it causes on this thread
    /// instead of aborting (a test that plants a hazard).
    pub fn catch_violations<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
        let outer = with(|t| t.caught.replace(Vec::new()));
        let r = f();
        let caught = with(|t| std::mem::replace(&mut t.caught, outer));
        (r, caught.unwrap_or_default())
    }

    /// Every held → taken class edge this process has seen.
    pub fn lock_graph() -> Vec<(Site, Site)> {
        let graph = GRAPH.lock().unwrap_or_else(PoisonError::into_inner);
        (graph.iter())
            .flat_map(|(&from, to)| to.keys().map(move |&to| (from, to)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::{Condvar, Mutex};

    #[test]
    fn a_lock_whose_holder_panicked_is_taken_again_as_it_was_left() {
        let m = Mutex::new(0);
        let unwound = std::panic::catch_unwind(|| {
            let mut held = m.lock();
            *held = 7;
            panic!("unwinds holding the lock");
        });
        assert!(unwound.is_err());
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn a_condvar_waiter_wakes_on_notify_one() {
        let (m, cv) = (Mutex::new(false), Condvar::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut ready = m.lock();
                while !*ready {
                    cv.wait(&mut ready);
                }
            });
            *m.lock() = true;
            cv.notify_one();
        });
    }
}
