//! A test-and-test-and-set spin lock (the Chapter-4 lock of *Rust Atomics and
//! Locks*), used where critical sections are a handful of instructions:
//! the wait queue of [`crate::Sleepers`], and the lock-based task deque
//! that models the Intel OpenMP runtime's tasking path.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::Backoff;

/// A spin lock protecting a `T`.
///
/// # Examples
///
/// ```
/// use tpm_sync::SpinLock;
///
/// let lock = SpinLock::new(0u32);
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| {
///             for _ in 0..1000 {
///                 *lock.lock() += 1;
///             }
///         });
///     }
/// });
/// assert_eq!(lock.into_inner(), 4000);
/// ```
#[derive(Debug, Default)]
pub struct SpinLock<T: ?Sized> {
    locked: AtomicBool,
    data: UnsafeCell<T>,
}

// SAFETY: the lock provides exclusive access to `T`, so sharing the lock is
// safe whenever sending `T` is.
unsafe impl<T: ?Sized + Send> Sync for SpinLock<T> {}
unsafe impl<T: ?Sized + Send> Send for SpinLock<T> {}

/// RAII guard: the lock is released on drop.
#[must_use = "dropping the guard immediately unlocks the SpinLock"]
pub struct SpinGuard<'a, T: ?Sized> {
    lock: &'a SpinLock<T>,
}

impl<T> SpinLock<T> {
    /// Creates an unlocked spin lock.
    pub const fn new(data: T) -> Self {
        Self {
            locked: AtomicBool::new(false),
            data: UnsafeCell::new(data),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> SpinLock<T> {
    /// Acquires the lock, spinning (with backoff and eventual yielding) until
    /// it is available.
    pub fn lock(&self) -> SpinGuard<'_, T> {
        let backoff = Backoff::new();
        loop {
            // Test-and-test-and-set: spin on a plain load so contended waiting
            // stays in the local cache, attempting the RMW only when the lock
            // looks free.
            if !self.locked.swap(true, Ordering::Acquire) {
                return SpinGuard { lock: self };
            }
            while self.locked.load(Ordering::Relaxed) {
                backoff.snooze();
            }
        }
    }

    /// Returns a mutable reference without locking (requires `&mut self`,
    /// which already proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: ?Sized> Deref for SpinGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard proves the lock is held, so access is exclusive.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for SpinGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for SpinGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_increment_under_contention() {
        let lock = SpinLock::new(0usize);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        *lock.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(lock.into_inner(), 80_000);
    }

    #[test]
    fn guard_releases_on_panic() {
        let lock = SpinLock::new(5);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = lock.lock();
            panic!("poisoning is not a thing here");
        }));
        assert!(r.is_err());
        assert_eq!(*lock.lock(), 5); // still acquirable
    }

    #[test]
    fn get_mut_bypasses_locking() {
        let mut lock = SpinLock::new(1);
        *lock.get_mut() = 2;
        assert_eq!(*lock.lock(), 2);
    }
}
