//! Readiness polling for the `tpm-serve` reactor: raw `epoll`/`eventfd`
//! syscalls where the shim exists, a portable tick poller elsewhere.
//!
//! The workspace builds offline with no `libc` (same discipline as
//! [`crate::affinity`]'s `sched_setaffinity`), so on Linux x86-64
//! [`Epoll::new`] and [`EventFd::new`] are kernel objects driven by direct
//! syscalls — only the subset the reactor needs is bound: `epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd2`, and `read` / `write` / `close` on
//! the eventfd. Every other target gets the tick poller from the same
//! constructors: it keeps the interest list and reports *every* armed token
//! once per ≤ 1 ms tick, or at once when the wake is signalled. That is a
//! legal (if wasteful) implementation of this interface because the
//! interface is level-triggered: a caller already reads, accepts and writes
//! until `WouldBlock` on each report, so a spurious report costs one failed
//! syscall and a missed edge cannot exist. Which one runs is decided by
//! `cfg`, never by a caller.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Readiness: the fd has bytes to read (or a pending accept).
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the fd can accept bytes without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Condition: the fd is in an error state (always reported, never armed).
pub const EPOLLERR: u32 = 0x008;
/// Condition: the peer hung up (always reported, never armed).
pub const EPOLLHUP: u32 = 0x010;
/// Readiness: the peer closed its write half (half-close detection).
pub const EPOLLRDHUP: u32 = 0x2000;

/// One readiness report. Matches the kernel's `struct epoll_event` layout
/// on x86-64 (packed to 12 bytes); accessed through methods because packed
/// fields cannot be borrowed.
#[repr(C, packed)]
#[derive(Clone, Copy, Default)]
pub struct Event {
    events: u32,
    data: u64,
}

impl Event {
    /// An empty slot for a [`Epoll::wait`] buffer.
    #[must_use]
    pub fn zeroed() -> Self {
        Self::default()
    }

    /// The readiness bits (`EPOLLIN | …`).
    #[must_use]
    pub fn events(&self) -> u32 {
        self.events
    }

    /// The caller token registered with the fd.
    #[must_use]
    pub fn data(&self) -> u64 {
        self.data
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("events", &self.events())
            .field("data", &self.data())
            .finish()
    }
}

/// A readiness poller. The kernel instance is closed on drop.
#[derive(Debug)]
pub struct Epoll(Poller);

#[derive(Debug)]
enum Poller {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Kernel(i32),
    Tick(Tick),
}

impl Epoll {
    /// Creates the platform's poller: an epoll instance (`EPOLL_CLOEXEC`)
    /// on Linux x86-64, the tick poller elsewhere.
    pub fn new() -> io::Result<Self> {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        return sys::epoll_create1().map(|fd| Self(Poller::Kernel(fd)));
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        return Ok(Self::tick());
    }

    /// The tick poller on any target. Exists only so Linux CI can run the
    /// reactor over the poller other platforms get from [`new`](Self::new);
    /// pair it with [`EventFd::tick`].
    #[doc(hidden)]
    #[must_use]
    pub fn tick() -> Self {
        Self(Poller::Tick(Tick::default()))
    }

    /// Registers `fd` for `events`, reporting `token` back on readiness.
    pub fn add(&self, fd: i32, token: u64, events: u32) -> io::Result<()> {
        match &self.0 {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Poller::Kernel(ep) => sys::epoll_ctl(*ep, sys::EPOLL_CTL_ADD, fd, events, token),
            Poller::Tick(t) => t.arm(fd, Some((token, events))),
        }
    }

    /// Registers `wake` as readable-interest under `token`: a
    /// [`signal`](EventFd::signal) ends a [`wait`](Self::wait) early.
    /// `wake` must come from the same kind of constructor as `self`.
    pub fn add_wake(&self, wake: &EventFd, token: u64) -> io::Result<()> {
        match (&self.0, &wake.0) {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            (Poller::Kernel(_), Wake::Kernel(fd)) => self.add(*fd, token, EPOLLIN),
            (Poller::Tick(t), Wake::Tick(w)) => t
                .wake
                .set((token, Arc::clone(w)))
                .map_err(|_| io::Error::new(io::ErrorKind::AlreadyExists, "wake already set")),
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "kernel and tick pollers do not mix",
            )),
        }
    }

    /// Changes the armed event set for an already-registered `fd`.
    pub fn modify(&self, fd: i32, token: u64, events: u32) -> io::Result<()> {
        match &self.0 {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Poller::Kernel(ep) => sys::epoll_ctl(*ep, sys::EPOLL_CTL_MOD, fd, events, token),
            Poller::Tick(t) => t.arm(fd, Some((token, events))),
        }
    }

    /// Deregisters `fd`. Closing the fd removes it implicitly from the
    /// kernel's list; an explicit delete keeps the interest list honest
    /// while the fd is still open (and is the only removal the tick poller
    /// sees).
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        match &self.0 {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Poller::Kernel(ep) => sys::epoll_ctl(*ep, sys::EPOLL_CTL_DEL, fd, 0, 0),
            Poller::Tick(t) => t.arm(fd, None),
        }
    }

    /// Blocks up to `timeout_ms` (-1 = forever) for readiness; fills
    /// `events` and returns how many entries are valid. Interruption by a
    /// signal returns `ErrorKind::Interrupted` — callers retry. The tick
    /// poller never blocks longer than its tick.
    pub fn wait(&self, events: &mut [Event], timeout_ms: i32) -> io::Result<usize> {
        match &self.0 {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Poller::Kernel(ep) => sys::epoll_wait(*ep, events, timeout_ms),
            Poller::Tick(t) => Ok(t.wait(events, timeout_ms)),
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Poller::Kernel(fd) = self.0 {
            let _ = sys::close(fd);
        }
    }
}

/// A wakeup handle: any thread [`signal`](Self::signal)s it, the poller's
/// wait reports it readable, and [`drain`](Self::drain) resets it. The
/// kernel eventfd is created nonblocking so a drain of an unsignalled fd
/// never hangs.
#[derive(Debug)]
pub struct EventFd(Wake);

#[derive(Debug)]
enum Wake {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Kernel(i32),
    Tick(Arc<TickWake>),
}

impl EventFd {
    /// Creates the platform's wake: an eventfd (`EFD_CLOEXEC |
    /// EFD_NONBLOCK`, counter 0) on Linux x86-64, the tick poller's
    /// counter elsewhere.
    pub fn new() -> io::Result<Self> {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        return sys::eventfd2().map(|fd| Self(Wake::Kernel(fd)));
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        return Ok(Self::tick());
    }

    /// The tick poller's wake on any target; see [`Epoll::tick`].
    #[doc(hidden)]
    #[must_use]
    pub fn tick() -> Self {
        Self(Wake::Tick(Arc::default()))
    }

    /// Wakes any waiter: adds 1 to the counter. Safe from any thread; a
    /// full kernel counter (never in practice) is ignored — the fd is
    /// already readable, which is all a wake needs.
    pub fn signal(&self) {
        match &self.0 {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Wake::Kernel(fd) => {
                let one: u64 = 1;
                let _ = sys::write(*fd, &one.to_ne_bytes());
            }
            Wake::Tick(w) => {
                *w.signals.lock().expect("tick wake poisoned") += 1;
                w.cv.notify_one();
            }
        }
    }

    /// Resets the counter so the wake stops reporting readable. Returns how
    /// many signals had accumulated (0 when none — nonblocking).
    pub fn drain(&self) -> u64 {
        match &self.0 {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Wake::Kernel(fd) => {
                let mut buf = [0u8; 8];
                match sys::read(*fd, &mut buf) {
                    Ok(8) => u64::from_ne_bytes(buf),
                    _ => 0,
                }
            }
            Wake::Tick(w) => std::mem::take(&mut *w.signals.lock().expect("tick wake poisoned")),
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Wake::Kernel(fd) = self.0 {
            let _ = sys::close(fd);
        }
    }
}

/// The tick poller's wake state: a signal count and the condvar a tick
/// sleeps on.
#[derive(Debug, Default)]
struct TickWake {
    signals: Mutex<u64>,
    cv: Condvar,
}

/// The portable poller: an interest list and a clock, nothing else. It
/// never looks at a socket — it reports every armed token each tick and
/// lets the level-triggered caller find out what is actually ready.
#[derive(Debug, Default)]
struct Tick {
    /// `(fd, token, events)` in registration order.
    armed: Mutex<Vec<(i32, u64, u32)>>,
    /// Where in `armed` the next report starts: rotated so a full `events`
    /// buffer starves no one. Only the waiting thread touches it.
    cursor: AtomicUsize,
    wake: OnceLock<(u64, Arc<TickWake>)>,
}

impl Tick {
    /// The longest one `wait` sleeps.
    const PERIOD: Duration = Duration::from_millis(1);

    /// Sets (`Some`) or clears (`None`) the interest registered for `fd`.
    fn arm(&self, fd: i32, interest: Option<(u64, u32)>) -> io::Result<()> {
        let mut list = self.armed.lock().expect("tick poller poisoned");
        list.retain(|(f, ..)| *f != fd);
        if let Some((token, events)) = interest {
            list.push((fd, token, events));
        }
        Ok(())
    }

    fn wait(&self, events: &mut [Event], timeout_ms: i32) -> usize {
        let nap = if timeout_ms == 0 {
            Duration::ZERO
        } else {
            Self::PERIOD
        };
        let mut n = 0;
        match self.wake.get() {
            Some((token, wake)) => {
                let mut signals = wake.signals.lock().expect("tick wake poisoned");
                if *signals == 0 {
                    let woken = wake.cv.wait_timeout(signals, nap);
                    signals = woken.expect("tick wake poisoned").0;
                }
                if *signals > 0 && n < events.len() {
                    events[n] = Event {
                        events: EPOLLIN,
                        data: *token,
                    };
                    n += 1;
                }
            }
            None => std::thread::sleep(nap),
        }
        let list = self.armed.lock().expect("tick poller poisoned");
        let start = self.cursor.load(Ordering::Relaxed);
        for i in 0..list.len() {
            let at = (start + i) % list.len();
            let (_, token, armed) = list[at];
            let ready = armed & (EPOLLIN | EPOLLOUT);
            if ready == 0 {
                continue;
            }
            if n == events.len() {
                self.cursor.store(at, Ordering::Relaxed);
                break;
            }
            events[n] = Event {
                events: ready,
                data: token,
            };
            n += 1;
        }
        n
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    //! Direct x86-64 Linux syscalls. Numbers from `asm/unistd_64.h`;
    //! negative returns are `-errno` per the raw syscall ABI (no libc errno
    //! translation happens here).

    use super::Event;
    use std::io;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    const SYS_READ: usize = 0;
    const SYS_WRITE: usize = 1;
    const SYS_CLOSE: usize = 3;
    const SYS_EPOLL_WAIT: usize = 232;
    const SYS_EPOLL_CTL: usize = 233;
    const SYS_EVENTFD2: usize = 290;
    const SYS_EPOLL_CREATE1: usize = 291;

    const EPOLL_CLOEXEC: usize = 0o2000000;
    const EFD_CLOEXEC: usize = 0o2000000;
    const EFD_NONBLOCK: usize = 0o4000;

    /// Issues a 4-argument syscall. SAFETY: the caller guarantees the
    /// argument registers are valid for the specific syscall (pointers live
    /// and sized correctly); rcx/r11 are declared clobbered per the ABI.
    unsafe fn syscall4(nr: usize, a: usize, b: usize, c: usize, d: usize) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    pub fn epoll_create1() -> io::Result<i32> {
        // SAFETY: no pointer arguments.
        check(unsafe { syscall4(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0) }).map(|fd| fd as i32)
    }

    pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let ev = Event {
            events,
            data: token,
        };
        // SAFETY: `ev` lives across the call and matches the kernel layout;
        // the kernel only reads it (and ignores it entirely for DEL).
        check(unsafe {
            syscall4(
                SYS_EPOLL_CTL,
                epfd as usize,
                op as usize,
                fd as usize,
                std::ptr::addr_of!(ev) as usize,
            )
        })
        .map(|_| ())
    }

    pub fn epoll_wait(epfd: i32, events: &mut [Event], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `events` is valid for `len` entries of the kernel layout
        // and the kernel writes at most that many.
        check(unsafe {
            syscall4(
                SYS_EPOLL_WAIT,
                epfd as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
            )
        })
    }

    pub fn eventfd2() -> io::Result<i32> {
        // SAFETY: no pointer arguments.
        check(unsafe { syscall4(SYS_EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0) })
            .map(|fd| fd as i32)
    }

    pub fn read(fd: i32, buf: &mut [u8]) -> io::Result<usize> {
        // SAFETY: `buf` is valid for writes of its length.
        check(unsafe {
            syscall4(
                SYS_READ,
                fd as usize,
                buf.as_mut_ptr() as usize,
                buf.len(),
                0,
            )
        })
    }

    pub fn write(fd: i32, buf: &[u8]) -> io::Result<usize> {
        // SAFETY: `buf` is valid for reads of its length.
        check(unsafe { syscall4(SYS_WRITE, fd as usize, buf.as_ptr() as usize, buf.len(), 0) })
    }

    pub fn close(fd: i32) -> io::Result<usize> {
        // SAFETY: no pointer arguments; the caller owns the fd.
        check(unsafe { syscall4(SYS_CLOSE, fd as usize, 0, 0, 0) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both implementations honour the same wake contract.
    fn signal_wakes_wait_and_drain_resets(ep: &Epoll, ev: &EventFd) {
        ep.add_wake(ev, 7).unwrap();

        let mut buf = [Event::zeroed(); 4];
        // Unsignalled: a zero-timeout wait reports nothing.
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);

        ev.signal();
        ev.signal();
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(buf[0].data(), 7);
        assert_ne!(buf[0].events() & EPOLLIN, 0);

        assert_eq!(ev.drain(), 2, "two signals accumulated");
        assert_eq!(ev.drain(), 0, "drained fd reads empty, nonblocking");
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0, "no longer readable");
    }

    #[test]
    fn signal_wakes_the_platform_poller() {
        signal_wakes_wait_and_drain_resets(&Epoll::new().unwrap(), &EventFd::new().unwrap());
    }

    #[test]
    fn signal_wakes_the_tick_poller() {
        signal_wakes_wait_and_drain_resets(&Epoll::tick(), &EventFd::tick());
    }

    #[test]
    fn tick_poller_reports_every_armed_token_each_tick_in_rotation() {
        let ep = Epoll::tick();
        // Fds are only keys to the tick poller; nothing is ever read.
        ep.add(10, 100, EPOLLIN | EPOLLRDHUP).unwrap();
        ep.add(11, 101, EPOLLIN).unwrap();
        ep.add(12, 102, 0).unwrap(); // armed for nothing: never reported
        let seen = |buf: &[Event]| -> Vec<(u64, u32)> {
            buf.iter().map(|e| (e.data(), e.events())).collect()
        };
        let mut buf = [Event::zeroed(); 4];
        let n = ep.wait(&mut buf, 100).unwrap();
        assert_eq!(seen(&buf[..n]), [(100, EPOLLIN), (101, EPOLLIN)]);

        ep.modify(11, 101, EPOLLIN | EPOLLOUT).unwrap();
        ep.delete(10).unwrap();
        let n = ep.wait(&mut buf, 0).unwrap();
        assert_eq!(seen(&buf[..n]), [(101, EPOLLIN | EPOLLOUT)]);

        // A buffer smaller than the interest list: the next wait resumes
        // where this one stopped, so nobody starves.
        ep.add(13, 103, EPOLLOUT).unwrap();
        ep.add(14, 104, EPOLLIN).unwrap();
        let mut two = [Event::zeroed(); 2];
        let n = ep.wait(&mut two, 0).unwrap();
        let first: Vec<u64> = seen(&two[..n]).iter().map(|e| e.0).collect();
        let n = ep.wait(&mut two, 0).unwrap();
        let second: Vec<u64> = seen(&two[..n]).iter().map(|e| e.0).collect();
        assert_eq!((first, second), (vec![101, 103], vec![104, 101]));
    }

    #[test]
    fn kernel_and_tick_objects_do_not_mix() {
        assert!(Epoll::tick().add_wake(&EventFd::tick(), 1).is_ok());
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            assert!(Epoll::new().unwrap().add_wake(&EventFd::tick(), 1).is_err());
            assert!(Epoll::tick().add_wake(&EventFd::new().unwrap(), 1).is_err());
        }
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn socket_readiness_add_modify_delete() {
        use std::io::{Read, Write};
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(listener.as_raw_fd(), 1, EPOLLIN).unwrap();

        let mut buf = [Event::zeroed(); 4];
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0, "no pending accept yet");

        let mut client = TcpStream::connect(addr).unwrap();
        let n = ep.wait(&mut buf, 2000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(buf[0].data(), 1, "listener readable: pending accept");

        let (mut server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        ep.add(server_side.as_raw_fd(), 2, EPOLLIN | EPOLLRDHUP)
            .unwrap();
        client.write_all(b"hi").unwrap();
        let n = ep.wait(&mut buf, 2000).unwrap();
        assert!((1..=2).contains(&n));
        assert!(
            (0..n).any(|i| buf[i].data() == 2 && buf[i].events() & EPOLLIN != 0),
            "connection readable after client write"
        );
        let mut b = [0u8; 8];
        assert_eq!(server_side.read(&mut b).unwrap(), 2);

        // Writable interest via modify: an idle socket is instantly ready.
        ep.modify(server_side.as_raw_fd(), 2, EPOLLOUT).unwrap();
        let n = ep.wait(&mut buf, 2000).unwrap();
        assert!((0..n).any(|i| buf[i].data() == 2 && buf[i].events() & EPOLLOUT != 0));

        ep.delete(server_side.as_raw_fd()).unwrap();
        drop(client);
        // Deleted fd no longer reports, even after peer close.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let n = ep.wait(&mut buf, 0).unwrap();
        assert!(
            (0..n).all(|i| buf[i].data() != 2),
            "deleted fd must not report"
        );
    }
}
