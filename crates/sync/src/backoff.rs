//! Exponential backoff for spin loops.
//!
//! Contended CAS loops and spin-wait conditions burn bus bandwidth if they
//! retry back-to-back. The standard remedy is exponential backoff: a few
//! `spin_loop` hints first (cheap, keeps the thread on-core), then yields to
//! the OS scheduler once the wait looks long. On this crate's oversubscribed
//! single-core CI hosts the yield phase is what makes spin-based primitives
//! usable at all, so `Backoff` is deliberately yield-happy compared to
//! server-tuned implementations.

use std::hint;
use std::thread;

/// Maximum exponent for the pure-spin phase: up to `2^SPIN_LIMIT` spin
/// hints, after which [`Backoff::snooze`] yields to the OS.
const SPIN_LIMIT: u32 = 6;

/// Exponential backoff helper for spin loops.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use tpm_sync::Backoff;
///
/// let flag = AtomicBool::new(true); // already set; loop exits immediately
/// let backoff = Backoff::new();
/// while !flag.load(Ordering::Acquire) {
///     backoff.snooze();
/// }
/// ```
#[derive(Debug)]
pub struct Backoff {
    step: std::cell::Cell<u32>,
}

impl Backoff {
    /// Creates a backoff counter at the cheapest (pure spin) stage.
    pub const fn new() -> Self {
        Self {
            step: std::cell::Cell::new(0),
        }
    }

    /// Backs off while waiting for a condition owned by another thread:
    /// spins first, then yields to the OS scheduler.
    pub fn snooze(&self) {
        let step = self.step.get();
        if step <= SPIN_LIMIT {
            for _ in 0..(1u32 << step) {
                hint::spin_loop();
            }
            self.step.set(step + 1);
        } else {
            thread::yield_now();
        }
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snooze_escalates_to_yielding_and_stays_there() {
        let b = Backoff::new();
        for _ in 0..=SPIN_LIMIT {
            assert!(b.step.get() <= SPIN_LIMIT, "still spinning");
            b.snooze();
        }
        // Far past the spin phase: every further snooze yields, and the
        // step never grows into an overflowing shift.
        for _ in 0..100 {
            b.snooze();
            assert_eq!(b.step.get(), SPIN_LIMIT + 1);
        }
    }
}
