//! One-shot completion latches.
//!
//! Latches are the completion-signalling building block of both runtimes'
//! join points: a `cilk_sync`/`taskwait` is "wait until the latch of every
//! outstanding child is set". Two flavors:
//!
//! * [`SpinLatch`] — a single boolean, set once.
//! * [`CountLatch`] — counts down from `n`; becomes set at zero. Supports
//!   *incrementing* while unset, which is what nested spawns need.
//!
//! A latch has no waiter list, so its own [`wait`](SpinLatch::wait) spins
//! with backoff and then yields forever. The stealing runtimes never call
//! it: a worker probes a latch between steal attempts, and an outside
//! thread waits through the pool's idle window and then parks on a
//! `Sleepers` that the setter wakes (see `Sleepers::wait_until`), which is
//! why [`CountLatch::decrement`] reports the decrement that sets the latch.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::Backoff;

/// A boolean latch: starts unset, can be set exactly once, never resets.
///
/// # Examples
///
/// ```
/// use tpm_sync::SpinLatch;
///
/// let latch = SpinLatch::new();
/// std::thread::scope(|s| {
///     s.spawn(|| latch.set());
///     latch.wait();
/// });
/// assert!(latch.probe());
/// ```
/// Aligned to a cache line: one side spins on the word while the other
/// writes it once; a neighbour's writes on the same line would turn the
/// spin into MESI ping-pong (false-sharing audit, ISSUE 8).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct SpinLatch {
    set: AtomicUsize, // usize to share the CountLatch fast path shape
}

crate::assert_line_aligned!(SpinLatch);

impl SpinLatch {
    /// Creates an unset latch.
    pub const fn new() -> Self {
        Self {
            set: AtomicUsize::new(0),
        }
    }

    /// Sets the latch, releasing all current and future waiters.
    ///
    /// All memory writes before `set` happen-before anything after a
    /// successful [`probe`](Self::probe)/[`wait`](Self::wait).
    pub fn set(&self) {
        self.set.store(1, Ordering::Release);
    }

    /// Non-blocking check.
    pub fn probe(&self) -> bool {
        self.set.load(Ordering::Acquire) == 1
    }

    /// Spins (with backoff, then yielding) until set.
    pub fn wait(&self) {
        let backoff = Backoff::new();
        while !self.probe() {
            backoff.snooze();
        }
    }
}

/// A counting latch: set whenever the count is zero.
///
/// Unlike a one-shot latch, the count may be *re-armed* (incremented from
/// zero): task scopes use this — `probe()` then means "no task spawned so
/// far is still outstanding", which is exactly the `taskwait`/`cilk_sync`
/// condition. Waiters must therefore only rely on `probe()` at points where
/// no concurrent increments can occur (e.g. after the spawning phase).
/// Aligned like [`SpinLatch`], and for the same reason: the join counter
/// is decremented by every finishing task while the owner polls it.
#[derive(Debug)]
#[repr(align(64))]
pub struct CountLatch {
    count: AtomicUsize,
}

crate::assert_line_aligned!(CountLatch);

impl CountLatch {
    /// Creates a latch that requires `count` decrements.
    pub const fn new(count: usize) -> Self {
        Self {
            count: AtomicUsize::new(count),
        }
    }

    /// Registers `n` additional required decrements (may re-arm a latch
    /// whose count had reached zero).
    pub fn increment(&self, n: usize) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one completion; the latch becomes set when the count hits
    /// zero. Returns whether this decrement set it: only that caller should
    /// wake a parked waiter, and, as the waiter may then free the latch,
    /// without touching the latch again.
    pub fn decrement(&self) -> bool {
        let prev = self.count.fetch_sub(1, Ordering::Release);
        debug_assert!(prev > 0, "CountLatch underflow");
        prev == 1
    }

    /// Non-blocking check.
    pub fn probe(&self) -> bool {
        if self.count.load(Ordering::Acquire) == 0 {
            return true;
        }
        false
    }

    /// Current outstanding count (approximate under concurrency; exact once
    /// quiescent). Intended for diagnostics and tests.
    pub fn outstanding(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// Spins (with backoff, then yielding) until the count reaches zero.
    pub fn wait(&self) {
        let backoff = Backoff::new();
        while !self.probe() {
            backoff.snooze();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn spin_latch_basic() {
        let l = SpinLatch::new();
        assert!(!l.probe());
        l.set();
        assert!(l.probe());
        l.wait(); // returns immediately
    }

    #[test]
    fn spin_latch_publishes_writes() {
        let l = SpinLatch::new();
        let data = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                data.store(99, Ordering::Relaxed);
                l.set();
            });
            l.wait();
            assert_eq!(data.load(Ordering::Relaxed), 99);
        });
    }

    #[test]
    fn count_latch_counts_down() {
        let l = CountLatch::new(3);
        assert!(!l.probe());
        assert!(!l.decrement());
        assert!(!l.decrement());
        assert!(!l.probe());
        assert_eq!(l.outstanding(), 1);
        assert!(
            l.decrement(),
            "the last decrement reports setting the latch"
        );
        assert!(l.probe());
    }

    #[test]
    fn count_latch_concurrent_decrements() {
        const N: usize = 8;
        const PER: usize = 1000;
        let l = CountLatch::new(N * PER);
        std::thread::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    for _ in 0..PER {
                        l.decrement();
                    }
                });
            }
            l.wait();
        });
        assert!(l.probe());
    }

    #[test]
    fn count_latch_increment_before_zero() {
        let l = CountLatch::new(1);
        l.increment(2);
        l.decrement();
        l.decrement();
        assert!(!l.probe());
        l.decrement();
        assert!(l.probe());
    }

    #[test]
    fn zero_count_latch_starts_set() {
        let l = CountLatch::new(0);
        assert!(l.probe());
        l.wait();
    }
}
