//! A spin-then-park mutex built from scratch (Chapter 9 of *Rust Atomics and
//! Locks*, with the futex replaced by an explicit parked-thread queue, since
//! we stay inside `std`).
//!
//! The three-state protocol is the classic futex one:
//!
//! * `0` — unlocked
//! * `1` — locked, no waiters
//! * `2` — locked, possibly contended (an unlocker must wake someone)
//!
//! `futex_wait` is emulated by pushing the current thread handle onto a
//! spin-locked queue and parking; `futex_wake` pops one handle and unparks it.
//! Spurious wakeups are tolerated everywhere by re-checking the state.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU8, Ordering};
use std::thread::{self, Thread};

use crate::{Backoff, SpinLock};

const UNLOCKED: u8 = 0;
const LOCKED: u8 = 1;
const CONTENDED: u8 = 2;

/// How many acquisition attempts to spin before parking. Spinning covers the
/// common short-critical-section case without a syscall.
const SPIN_TRIES: u32 = 32;

/// A mutual-exclusion lock with parking, analogous to `omp_lock_t` /
/// `std::mutex` in the paper's Table III row for mutual exclusion.
///
/// Unlike `std::sync::Mutex` there is no poisoning: the paper's runtimes
/// (OpenMP, Cilk) treat a panic inside a critical section as program error,
/// and the runtimes in this workspace propagate panics separately.
///
/// # Examples
///
/// ```
/// use tpm_sync::Mutex;
///
/// let m = Mutex::new(Vec::new());
/// std::thread::scope(|s| {
///     for i in 0..4 {
///         let m = &m;
///         s.spawn(move || m.lock().push(i));
///     }
/// });
/// assert_eq!(m.into_inner().len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    state: AtomicU8,
    /// Parked waiters. The spin lock is held only for queue manipulation.
    waiters: SpinLock<VecDeque<Thread>>,
    data: UnsafeCell<T>,
}

// SAFETY: exclusive access is mediated by the lock protocol.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}

/// RAII guard for [`Mutex`]; releases the lock on drop.
#[must_use = "dropping the guard immediately unlocks the Mutex"]
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates an unlocked mutex.
    pub const fn new(data: T) -> Self {
        Self {
            state: AtomicU8::new(UNLOCKED),
            waiters: SpinLock::new(VecDeque::new()),
            data: UnsafeCell::new(data),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking (parking) if necessary.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if self
            .state
            .compare_exchange(UNLOCKED, LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return MutexGuard { lock: self };
        }
        self.lock_contended();
        MutexGuard { lock: self }
    }

    #[cold]
    fn lock_contended(&self) {
        let backoff = Backoff::new();
        let mut tries = 0u32;
        // Phase 1: optimistic spinning.
        while tries < SPIN_TRIES {
            if self.state.load(Ordering::Relaxed) == UNLOCKED
                && self
                    .state
                    .compare_exchange(UNLOCKED, LOCKED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            backoff.snooze();
            tries += 1;
        }
        // Phase 2: announce contention and park. `swap(CONTENDED)` both
        // attempts the acquisition (previous == UNLOCKED) and forces the
        // current owner's unlock onto the wake path.
        while self.state.swap(CONTENDED, Ordering::Acquire) != UNLOCKED {
            // Emulated futex_wait(state, CONTENDED):
            {
                let mut q = self.waiters.lock();
                // Re-check under the queue lock; if the state changed we must
                // not park (the wakeup may already have happened).
                if self.state.load(Ordering::Relaxed) != CONTENDED {
                    continue;
                }
                q.push_back(thread::current());
            }
            // Park until some unlock unparks us (or spuriously; the outer
            // loop re-checks).
            thread::park();
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if self
            .state
            .compare_exchange(UNLOCKED, LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(MutexGuard { lock: self })
        } else {
            None
        }
    }

    /// Returns a mutable reference without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    fn unlock(&self) {
        if self.state.swap(UNLOCKED, Ordering::Release) == CONTENDED {
            // Emulated futex_wake(1).
            let waiter = self.waiters.lock().pop_front();
            if let Some(t) = waiter {
                t.unpark();
            }
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard proves the lock is held.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counts_correctly_under_heavy_contention() {
        let m = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for _ in 0..20_000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 160_000);
    }

    #[test]
    fn try_lock_semantics() {
        let m = Mutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn waiters_are_eventually_woken() {
        // One thread holds the lock long enough to force parkers, then
        // releases; all parked threads must complete.
        let m = Arc::new(Mutex::new(0u32));
        let g = m.lock();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                *m.lock() += 1;
            }));
        }
        thread::sleep(std::time::Duration::from_millis(50));
        drop(g);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4);
    }

    #[test]
    fn no_poisoning_after_panic() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("intentional");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
