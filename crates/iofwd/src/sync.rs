//! The daemon's one source of locks, condvars and channels (lint R13).
//!
//! A normal build gets a poison-free `Mutex`/`Condvar` over `std::sync`:
//! a lock whose holder panicked is taken again as it was left, because a
//! worker that unwinds inside a backend call holds its object's lock and
//! daemon paths may not `unwrap` (R2). Under `RUSTFLAGS="--cfg loom"`
//! every lock and condvar is `loomlite`'s, so `tests/loom_model.rs`
//! explores every interleaving of every daemon lock. Channels are
//! `std::sync::mpsc` in both builds: loom does not model them.

#[cfg(loom)]
pub use loomlite::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub use poison_free::{Condvar, Mutex, MutexGuard};
pub use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};

#[cfg(not(loom))]
mod poison_free {
    use std::sync::PoisonError;

    #[derive(Default)]
    pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

    /// `None` only while [`Condvar::wait`] has lent the `std` guard out.
    pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

    impl<T> Mutex<T> {
        pub fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }
    }

    impl<T: ?Sized> Mutex<T> {
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
        }
    }

    impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.0.as_deref().expect("guard lent to a condvar wait")
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.0.as_deref_mut().expect("guard lent to a condvar wait")
        }
    }

    #[derive(Default)]
    pub struct Condvar(std::sync::Condvar);

    impl Condvar {
        pub fn new() -> Self {
            Self::default()
        }

        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            if let Some(g) = guard.0.take() {
                guard.0 = Some(self.0.wait(g).unwrap_or_else(PoisonError::into_inner));
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
