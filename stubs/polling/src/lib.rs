//! Minimal local `polling`-style readiness API for this workspace.
//!
//! Implements exactly the surface the `iofwd` reactor transport needs:
//! a level-triggered [`Poller`] over `epoll(7)` plus a thread-safe
//! [`Waker`] built on a `UnixStream` self-pipe. Like every other crate
//! under `stubs/`, it exists so the workspace builds hermetically with
//! no registry access — and like the real `polling`/`mio` crates it is
//! *transport plumbing*, not forwarding logic.
//!
//! Design constraints, in order:
//!
//! * **No `libc`.** The only kernel interface needed is the epoll
//!   syscall family (`epoll_create1`, `epoll_ctl`, `epoll_pwait`,
//!   `close`), entered directly via `core::arch::asm!` on the two
//!   Linux targets this repo is built on (x86_64, aarch64). Everything
//!   else (sockets, fcntl) goes through `std`.
//! * **O(ready), not O(registered).** The first cut of this crate
//!   rebuilt a `pollfd` array and called `ppoll(2)` — O(n) kernel work
//!   per wait, which the `connection_scale` experiment showed dominating
//!   the event loop at 1000 connections (each wait scanned every
//!   registered fd to report a handful). The registration set now lives
//!   in the kernel; each wait costs only the ready fds it reports. The
//!   public API did not change.
//! * **Level-triggered, poll(2) semantics.** No `EPOLLET`: a fd stays
//!   ready until drained, and an [`Interest::NONE`] registration still
//!   reports errors/hangup (epoll, like poll, always delivers
//!   `EPOLLERR`/`EPOLLHUP`).
//! * **Wakeable.** [`Poller::waker`] hands out a cloneable handle that
//!   any thread may use to force an in-flight [`Poller::wait`] to
//!   return early (completion queues, shutdown). The wake pipe is a
//!   `UnixStream` pair registered internally; it never surfaces as a
//!   user event.
//!
//! On unsupported targets [`supported`] returns `false` and
//! [`Poller::new`] fails with `ErrorKind::Unsupported`; callers fall
//! back to their threaded path.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// Readiness interest for one registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Registered but not polled for anything (parked connection —
    /// `EPOLLERR`/`EPOLLHUP` are still reported, per poll(2) semantics).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: usize,
    /// Readable — includes `EPOLLHUP`/`EPOLLERR`, so a closed peer
    /// surfaces as a readable event whose read returns 0/error.
    pub readable: bool,
    /// Writable — includes `EPOLLERR`.
    pub writable: bool,
    /// Peer hung up or the fd is in an error state.
    pub hangup: bool,
}

struct Registration {
    fd: RawFd,
    token: usize,
}

/// Whether this target has a working epoll backend.
pub const fn supported() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

// -- the epoll syscall family ------------------------------------------

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;

/// Kernel `struct epoll_event`. Packed on x86_64 (12 bytes), naturally
/// aligned everywhere else — mirror the UAPI header's `EPOLL_PACKED`.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `data` value reserved for the internal wake pipe; never a user token.
const WAKE_DATA: u64 = u64::MAX;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use super::EpollEvent;

    /// Raw 4-argument syscall returning the kernel's `isize` (negative
    /// errno on failure).
    ///
    /// # Safety
    /// Arguments must satisfy the invoked syscall's contract: pointers
    /// valid for the access the kernel performs, for the whole call.
    unsafe fn syscall4(nr: isize, a: usize, b: usize, c: usize, d: usize) -> isize {
        let ret: isize;
        // SAFETY: caller upholds the per-syscall contract; rcx/r11 are
        // declared clobbered as the syscall ABI requires.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                out("rcx") _,
                out("r11") _,
                options(nostack)
            );
        }
        ret
    }

    pub fn epoll_create1(flags: i32) -> isize {
        // SAFETY: no pointers.
        unsafe { syscall4(291, flags as usize, 0, 0, 0) }
    }

    /// # Safety
    /// `ev` must be null (DEL) or point to a valid `EpollEvent`.
    pub unsafe fn epoll_ctl(epfd: i32, op: i32, fd: i32, ev: *const EpollEvent) -> isize {
        // SAFETY: caller upholds the `ev` contract.
        unsafe { syscall4(233, epfd as usize, op as usize, fd as usize, ev as usize) }
    }

    /// # Safety
    /// `events` must point to `max` writable `EpollEvent` slots.
    pub unsafe fn epoll_wait(
        epfd: i32,
        events: *mut EpollEvent,
        max: i32,
        timeout_ms: i32,
    ) -> isize {
        // epoll_pwait (nr 281) with a null sigmask == epoll_wait; the
        // plain epoll_wait nr is absent on aarch64, so use pwait on
        // both targets for symmetry.
        let ret: isize;
        // SAFETY: caller upholds the `events` contract; null sigmask
        // keeps the caller's signal mask.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") 281isize => ret,
                in("rdi") epfd,
                in("rsi") events,
                in("rdx") max,
                in("r10") timeout_ms,
                in("r8") 0usize,  // sigmask: null
                in("r9") 8usize,  // sigsetsize
                out("rcx") _,
                out("r11") _,
                options(nostack)
            );
        }
        ret
    }

    pub fn close(fd: i32) -> isize {
        // SAFETY: no pointers.
        unsafe { syscall4(3, fd as usize, 0, 0, 0) }
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod sys {
    use super::EpollEvent;

    /// # Safety
    /// Arguments must satisfy the invoked syscall's contract.
    unsafe fn syscall6(
        nr: isize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: caller upholds the per-syscall contract; `svc 0`
        // clobbers nothing beyond the declared x0.
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") nr,
                inlateout("x0") a as isize => ret,
                in("x1") b,
                in("x2") c,
                in("x3") d,
                in("x4") e,
                in("x5") f,
                options(nostack)
            );
        }
        ret
    }

    pub fn epoll_create1(flags: i32) -> isize {
        // SAFETY: no pointers.
        unsafe { syscall6(20, flags as usize, 0, 0, 0, 0, 0) }
    }

    /// # Safety
    /// `ev` must be null (DEL) or point to a valid `EpollEvent`.
    pub unsafe fn epoll_ctl(epfd: i32, op: i32, fd: i32, ev: *const EpollEvent) -> isize {
        // SAFETY: caller upholds the `ev` contract.
        unsafe {
            syscall6(
                21,
                epfd as usize,
                op as usize,
                fd as usize,
                ev as usize,
                0,
                0,
            )
        }
    }

    /// # Safety
    /// `events` must point to `max` writable `EpollEvent` slots.
    pub unsafe fn epoll_wait(
        epfd: i32,
        events: *mut EpollEvent,
        max: i32,
        timeout_ms: i32,
    ) -> isize {
        // SAFETY: caller upholds the `events` contract; null sigmask.
        unsafe {
            syscall6(
                22, // epoll_pwait
                epfd as usize,
                events as usize,
                max as usize,
                timeout_ms as usize,
                0,
                8,
            )
        }
    }

    pub fn close(fd: i32) -> isize {
        // SAFETY: no pointers.
        unsafe { syscall6(57, fd as usize, 0, 0, 0, 0, 0) }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use super::EpollEvent;

    // ENOSYS stubs; unreachable in practice because Poller::new fails
    // first on unsupported targets.
    pub fn epoll_create1(_flags: i32) -> isize {
        -38
    }
    pub unsafe fn epoll_ctl(_epfd: i32, _op: i32, _fd: i32, _ev: *const EpollEvent) -> isize {
        -38
    }
    pub unsafe fn epoll_wait(
        _epfd: i32,
        _events: *mut EpollEvent,
        _max: i32,
        _timeout_ms: i32,
    ) -> isize {
        -38
    }
    pub fn close(_fd: i32) -> isize {
        -38
    }
}

fn check(rc: isize) -> io::Result<isize> {
    if rc < 0 {
        Err(io::Error::from_raw_os_error(-rc as i32))
    } else {
        Ok(rc)
    }
}

fn epoll_mask(interest: Interest) -> u32 {
    let mut ev = 0u32;
    if interest.readable {
        ev |= EPOLLIN;
    }
    if interest.writable {
        ev |= EPOLLOUT;
    }
    ev
}

// -- waker -------------------------------------------------------------

struct WakePipe {
    tx: UnixStream,
}

/// Wakes a blocked [`Poller::wait`] from any thread. Cloneable and
/// cheap; coalesces (N wakes before the poller drains count as one).
#[derive(Clone)]
pub struct Waker {
    pipe: Arc<WakePipe>,
}

impl Waker {
    pub fn wake(&self) {
        // One byte is enough: the poller drains the pipe on every lap.
        // A full pipe means a wake is already pending — same outcome.
        let _ = (&self.pipe.tx).write(&[1u8]);
    }
}

// -- poller ------------------------------------------------------------

/// Kernel events harvested per wait; more ready fds than this simply
/// surface on the next wait (level-triggered).
const EVENT_BATCH: usize = 256;

/// A level-triggered readiness poller. Not `Sync`: each reactor thread
/// owns one; cross-thread signalling goes through [`Waker`].
pub struct Poller {
    epfd: RawFd,
    /// Shadow of the kernel's interest list, for `len` and for mapping
    /// `modify`/`delete` errors to poll-style ones. Token delivery does
    /// not consult this — tokens ride in the kernel's `epoll_data`.
    regs: Vec<Registration>,
    buf: Vec<EpollEvent>,
    wake_rx: UnixStream,
    waker: Waker,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        if !supported() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "polling stub: no epoll backend for this target",
            ));
        }
        let epfd = check(sys::epoll_create1(EPOLL_CLOEXEC))? as RawFd;
        let pipe = UnixStream::pair().and_then(|(tx, rx)| {
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok((tx, rx))
        });
        let (tx, rx) = match pipe {
            Ok(p) => p,
            Err(e) => {
                sys::close(epfd);
                return Err(e);
            }
        };
        let ev = EpollEvent {
            events: EPOLLIN,
            data: WAKE_DATA,
        };
        // SAFETY: `ev` is a valid EpollEvent for the duration of the call.
        if let Err(e) = check(unsafe { sys::epoll_ctl(epfd, EPOLL_CTL_ADD, rx.as_raw_fd(), &ev) }) {
            sys::close(epfd);
            return Err(e);
        }
        Ok(Poller {
            epfd,
            regs: Vec::new(),
            buf: vec![EpollEvent { events: 0, data: 0 }; EVENT_BATCH],
            wake_rx: rx,
            waker: Waker {
                pipe: Arc::new(WakePipe { tx }),
            },
        })
    }

    /// A handle other threads can use to interrupt [`Poller::wait`].
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Register `fd` under `token`. The caller keeps the fd open for
    /// the lifetime of the registration and must [`Poller::delete`] it
    /// before closing. Re-registering a live fd is an error.
    pub fn add(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if self.regs.iter().any(|r| r.fd == fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        let ev = EpollEvent {
            events: epoll_mask(interest),
            data: token as u64,
        };
        // SAFETY: `ev` is a valid EpollEvent for the duration of the call.
        check(unsafe { sys::epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &ev) })?;
        self.regs.push(Registration { fd, token });
        Ok(())
    }

    /// Change the interest set of a registered fd.
    pub fn modify(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
        match self.regs.iter().find(|r| r.fd == fd) {
            Some(reg) => {
                let ev = EpollEvent {
                    events: epoll_mask(interest),
                    data: reg.token as u64,
                };
                // SAFETY: `ev` is a valid EpollEvent for the call.
                check(unsafe { sys::epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &ev) })?;
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    /// Remove a registration. Idempotent.
    pub fn delete(&mut self, fd: RawFd) {
        // SAFETY: DEL takes no event; a stale/unknown fd is a no-op
        // (ENOENT/EBADF), preserving idempotence.
        let _ = unsafe { sys::epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, std::ptr::null()) };
        self.regs.retain(|r| r.fd != fd);
    }

    pub fn len(&self) -> usize {
        self.regs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Block until at least one registered fd is ready, the timeout
    /// elapses, or a [`Waker`] fires. Ready fds are appended to
    /// `events` (cleared first); returns the number appended. A wake or
    /// timeout returns `Ok(0)`. `EINTR` is treated as a zero-event
    /// wake, not an error.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        // Millisecond timeout, rounding *up* so a sub-ms positive
        // timeout does not become a busy-spin 0.
        let timeout_ms = match timeout {
            None => -1i32,
            Some(d) if d.is_zero() => 0,
            Some(d) => i64::from(d.subsec_nanos() > 0)
                .saturating_add(d.as_millis().min(i32::MAX as u128 - 1) as i64)
                .min(i32::MAX as i64) as i32,
        };
        // SAFETY: `buf` holds EVENT_BATCH initialized, writable slots.
        let rc = unsafe {
            sys::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                timeout_ms,
            )
        };
        let n = match check(rc) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(0),
            Err(e) => return Err(e),
        };
        for slot in &self.buf[..n.min(self.buf.len())] {
            let (re, data) = (slot.events, slot.data);
            if data == WAKE_DATA {
                // Drain the wake pipe so level-triggering doesn't spin.
                let mut sink = [0u8; 64];
                while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                continue;
            }
            events.push(Event {
                token: data as usize,
                readable: re & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0,
                writable: re & (EPOLLOUT | EPOLLERR) != 0,
                hangup: re & (EPOLLHUP | EPOLLERR) != 0,
            });
        }
        Ok(events.len())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close(self.epfd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn supported_on_this_ci_target() {
        assert!(supported());
    }

    #[test]
    fn timeout_returns_zero_events() {
        let mut p = Poller::new().unwrap();
        let mut events = Vec::new();
        let t0 = Instant::now();
        let n = p
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn readiness_is_reported_with_the_token() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut p = Poller::new().unwrap();
        p.add(b.as_raw_fd(), 7, Interest::READABLE).unwrap();
        a.write_all(b"x").unwrap();
        let mut events = Vec::new();
        let n = p.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(!events[0].hangup);
    }

    #[test]
    fn hangup_surfaces_as_readable() {
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut p = Poller::new().unwrap();
        p.add(b.as_raw_fd(), 1, Interest::READABLE).unwrap();
        drop(a);
        let mut events = Vec::new();
        let n = p.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable);
        assert!(events[0].hangup);
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let mut p = Poller::new().unwrap();
        let waker = p.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        let t0 = Instant::now();
        let n = p.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(n, 0);
        assert!(t0.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }

    #[test]
    fn wakes_coalesce_and_drain() {
        let mut p = Poller::new().unwrap();
        let waker = p.waker();
        for _ in 0..100 {
            waker.wake();
        }
        let mut events = Vec::new();
        assert_eq!(
            p.wait(&mut events, Some(Duration::from_secs(1))).unwrap(),
            0
        );
        // Pipe drained: the next wait times out instead of spinning.
        let t0 = Instant::now();
        assert_eq!(
            p.wait(&mut events, Some(Duration::from_millis(30)))
                .unwrap(),
            0
        );
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn modify_and_delete_change_the_interest_set() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut p = Poller::new().unwrap();
        p.add(b.as_raw_fd(), 3, Interest::NONE).unwrap();
        a.write_all(b"x").unwrap();
        let mut events = Vec::new();
        // NONE interest: data pending but not reported.
        assert_eq!(
            p.wait(&mut events, Some(Duration::from_millis(30)))
                .unwrap(),
            0
        );
        p.modify(b.as_raw_fd(), Interest::READABLE).unwrap();
        assert_eq!(
            p.wait(&mut events, Some(Duration::from_secs(2))).unwrap(),
            1
        );
        p.delete(b.as_raw_fd());
        assert!(p.is_empty());
        assert_eq!(
            p.wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );
        // Double-add is rejected, delete is idempotent.
        p.add(b.as_raw_fd(), 3, Interest::BOTH).unwrap();
        assert!(p.add(b.as_raw_fd(), 4, Interest::BOTH).is_err());
        p.delete(b.as_raw_fd());
        p.delete(b.as_raw_fd());
    }

    #[test]
    fn writable_reported_for_fresh_socket() {
        let (_a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut p = Poller::new().unwrap();
        p.add(b.as_raw_fd(), 9, Interest::BOTH).unwrap();
        let mut events = Vec::new();
        assert_eq!(
            p.wait(&mut events, Some(Duration::from_secs(2))).unwrap(),
            1
        );
        assert!(events[0].writable);
    }

    #[test]
    fn sub_millisecond_timeout_rounds_up_not_to_spin() {
        let mut p = Poller::new().unwrap();
        let mut events = Vec::new();
        // Must block ~1ms, not return instantly with a 0 timeout.
        let t0 = Instant::now();
        for _ in 0..5 {
            p.wait(&mut events, Some(Duration::from_micros(300)))
                .unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }
}
