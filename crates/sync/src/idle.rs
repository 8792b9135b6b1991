//! The shared idle protocol for runtime worker loops.
//!
//! Before this existed, each runtime hand-rolled its own escalation sequence
//! (spin counts, yield thresholds, park timings) in its worker loop; the
//! sequences drifted apart and their constants were tuned independently.
//! [`IdleStrategy`] centralizes the policy: **spin** briefly (cheapest
//! wakeup, for work that arrives within nanoseconds), then **yield** the
//! timeslice (for work that arrives within a scheduler quantum), then tell
//! the caller to **park** (so a long-idle worker consumes no CPU).
//!
//! [`Sleepers`] is the park: a worker whose window ran out parks without a
//! timeout, and whoever publishes work for it unparks it. The hand-off
//! cannot lose a wake-up, so no runtime needs a timed poll to cover one.
//! An outside thread waiting for its submission to complete (a pool's
//! `install` or loop entry, a future's `wait`) goes through the same window
//! and the same park ([`Sleepers::wait_until`]); whoever completes the
//! submission wakes it. A stealing pool's caller that sits in the pool's
//! seat works as worker 0 instead, and parks among the workers; whoever
//! completes its submission wakes that one thread
//! ([`Sleepers::wake_thread`]). Waiters without a wakeup path (a join point
//! inside a job, which helps with work while it waits) treat the park
//! signal as another yield ([`IdleStrategy::snooze_no_park`]).

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::thread::{self, Thread, ThreadId};

use crate::SpinLock;

/// Escalating spin → yield → park idle policy for a worker's idle loop.
///
/// Not `Sync` — one instance belongs to one worker thread.
///
/// # Examples
///
/// ```
/// use tpm_sync::IdleStrategy;
///
/// let idle = IdleStrategy::runtime_default();
/// // In a worker loop: found work → reset; found nothing → snooze, and
/// // park through `Sleepers` once snooze says so.
/// if idle.snooze() {
///     // sleepers.sleep_unless(|| work_available())
/// }
/// idle.reset();
/// ```
#[derive(Debug)]
pub struct IdleStrategy {
    spin_rounds: u32,
    yield_rounds: u32,
    rounds: Cell<u32>,
}

impl IdleStrategy {
    /// A policy that spins for `spin_rounds` rounds (exponentially longer
    /// each round), yields for `yield_rounds`, then signals parking.
    pub const fn new(spin_rounds: u32, yield_rounds: u32) -> Self {
        Self {
            spin_rounds,
            yield_rounds,
            rounds: Cell::new(0),
        }
    }

    /// Spin rounds of [`runtime_default`](Self::runtime_default) (exposed so
    /// [`PoolConfig::from_env`](crate::PoolConfig::from_env) can use the
    /// shared policy as its default).
    pub const RUNTIME_DEFAULT_SPIN: u32 = 6;
    /// Yield rounds of [`runtime_default`](Self::runtime_default).
    pub const RUNTIME_DEFAULT_YIELD: u32 = 58;

    /// The policy worker loops share: a short spin phase and a yield phase
    /// totalling 64 idle rounds before parking — the same budget the
    /// runtimes used before the policy was centralized.
    pub const fn runtime_default() -> Self {
        Self::new(Self::RUNTIME_DEFAULT_SPIN, Self::RUNTIME_DEFAULT_YIELD)
    }

    /// Restarts the escalation; call when work was found.
    pub fn reset(&self) {
        self.rounds.set(0);
    }

    /// One idle episode. Spins or yields according to the current phase and
    /// returns `false`; once both phases are exhausted, does nothing and
    /// returns `true` — the caller's cue to park (or to yield, for waiters
    /// with no wakeup path). Stays `true` until [`reset`](Self::reset).
    pub fn snooze(&self) -> bool {
        self.snooze_until(|| false)
    }

    /// [`snooze`](Self::snooze) for a waiter whose condition is one cheap
    /// load: the spin phase checks `done` between pauses and ends the round
    /// once it holds, so a hot waiter sees the event within one pause, not
    /// at the end of the round (round `r` spins 2^`r` pauses).
    pub fn snooze_until(&self, done: impl Fn() -> bool) -> bool {
        let r = self.rounds.get();
        if r < self.spin_rounds {
            self.rounds.set(r + 1);
            for _ in 0..(1u32 << r.min(16)) {
                if done() {
                    break;
                }
                std::hint::spin_loop();
            }
            false
        } else if r < self.spin_rounds + self.yield_rounds {
            self.rounds.set(r + 1);
            std::thread::yield_now();
            false
        } else {
            true
        }
    }

    /// Like [`snooze`](Self::snooze), for waiters that cannot park (no one
    /// would unpark them): the park phase degrades to yielding.
    pub fn snooze_no_park(&self) {
        if self.snooze() {
            std::thread::yield_now();
        }
    }

    /// True once the next [`snooze`](Self::snooze) would signal parking.
    pub fn is_parking(&self) -> bool {
        self.rounds.get() >= self.spin_rounds + self.yield_rounds
    }
}

/// Parked idle workers, and the loss-free wake-up that releases them.
///
/// A waiter calls [`sleep_unless`](Self::sleep_unless) with the condition
/// it waits for; a waker publishes that condition, then calls
/// [`wake_one`](Self::wake_one) or [`wake_all`](Self::wake_all). With
/// nobody asleep a wake is one fence plus one load.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use tpm_sync::Sleepers;
///
/// let sleepers = Sleepers::new(1);
/// let ready = AtomicBool::new(false);
/// std::thread::scope(|s| {
///     s.spawn(|| {
///         while !ready.load(Ordering::Acquire) {
///             sleepers.sleep_unless(|| ready.load(Ordering::Acquire));
///         }
///     });
///     ready.store(true, Ordering::Release);
///     sleepers.wake_all();
/// });
/// ```
/// Aligned to a cache line: every waker reads `count`, so a neighbour's
/// writes on the same line would cost each publish a miss.
#[derive(Debug)]
#[repr(align(64))]
pub struct Sleepers {
    /// Length of `parked`, readable without the lock; changed only under it.
    count: AtomicUsize,
    parked: SpinLock<Vec<Thread>>,
}

crate::assert_line_aligned!(Sleepers);

impl Sleepers {
    /// No sleepers, with room for `threads` of them: neither parking nor
    /// waking allocates while at most that many threads park at once (an
    /// idle thread that first allocates would cost the process an
    /// allocator arena).
    pub fn new(threads: usize) -> Self {
        Self {
            count: AtomicUsize::new(0),
            parked: SpinLock::new(Vec::with_capacity(threads)),
        }
    }

    /// Parks the calling thread until a wake call picks it, unless `ready()`
    /// holds once the thread is announced as a sleeper. Returns whether it
    /// parked. A spurious return from `park` re-checks `ready` and parks
    /// again, so one call is at most one park episode.
    pub fn sleep_unless(&self, ready: impl Fn() -> bool) -> bool {
        let me = thread::current();
        {
            let mut parked = self.parked.lock();
            parked.push(me.clone());
            self.count.fetch_add(1, Ordering::Relaxed);
        }
        // ORDERING: pairs with the fence in `wake`. Both fences are in the
        // single SeqCst order. If ours comes first, the waker's `count`
        // load sees our increment or a later value, and every later value
        // counts us until we leave the list (only we, or a waker that then
        // unparks us, take us out), so it goes on to unpark a sleeper. If
        // the waker's comes first, the `ready()` loads below see the work
        // it published before its fence. Either way the wake-up is not lost.
        fence(Ordering::SeqCst);
        let mut slept = false;
        while !ready() {
            slept = true;
            thread::park();
            if !self.parked.lock().iter().any(|t| t.id() == me.id()) {
                // A waker removed us: that is the wake-up.
                return true;
            }
        }
        let mut parked = self.parked.lock();
        if let Some(pos) = parked.iter().position(|t| t.id() == me.id()) {
            parked.swap_remove(pos);
            self.count.fetch_sub(1, Ordering::Relaxed);
        }
        slept
    }

    /// Blocks until `done()` holds, as an idle worker waits: `idle`'s spin
    /// and yield window first (a short wait never pays a futex wake-up),
    /// then parked here until a [`wake_all`](Self::wake_all) issued after
    /// `done()` became true.
    pub fn wait_until(&self, idle: &IdleStrategy, done: impl Fn() -> bool) {
        while !done() {
            if idle.snooze_until(&done) {
                self.sleep_unless(&done);
            }
        }
    }

    /// Unparks one sleeper, if any. Call after publishing the work.
    pub fn wake_one(&self) {
        self.wake(1);
    }

    /// Unparks every sleeper. Call after publishing the work.
    pub fn wake_all(&self) {
        self.wake(usize::MAX);
    }

    /// Unparks `who`, if it is parked here. Call after publishing what it
    /// waits for: the same loss-free hand-off as [`wake_one`](Self::wake_one),
    /// aimed at one thread.
    pub fn wake_thread(&self, who: ThreadId) {
        // ORDERING: as in `wake`.
        fence(Ordering::SeqCst);
        if self.count.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut parked = self.parked.lock();
        if let Some(pos) = parked.iter().position(|t| t.id() == who) {
            parked.swap_remove(pos).unpark();
            self.count.store(parked.len(), Ordering::Relaxed);
        }
    }

    fn wake(&self, most: usize) {
        // ORDERING: pairs with the fence in `sleep_unless`: the caller's
        // publish is sequenced before this fence, so a waiter whose fence
        // follows it sees the work, and a waiter whose fence precedes it
        // has its `count` increment seen by the load below.
        fence(Ordering::SeqCst);
        if self.count.load(Ordering::Relaxed) == 0 {
            return;
        }
        // Take from the list as it is now, not from the count just read:
        // a thread that registered since may stand where an older sleeper
        // stood in that count, and `wake_all` must reach the older one too.
        let mut parked = self.parked.lock();
        let keep = parked.len().saturating_sub(most);
        for t in parked.drain(keep..) {
            t.unpark();
        }
        self.count.store(keep, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_through_phases_and_resets() {
        let idle = IdleStrategy::new(2, 3);
        for round in 0..5 {
            assert!(!idle.snooze(), "round {round} should not park yet");
        }
        assert!(idle.is_parking());
        assert!(idle.snooze(), "phase exhausted: park signal");
        assert!(idle.snooze(), "park signal is sticky");
        idle.reset();
        assert!(!idle.is_parking());
        assert!(!idle.snooze());
    }

    #[test]
    fn no_park_variant_never_signals() {
        let idle = IdleStrategy::new(1, 1);
        for _ in 0..10 {
            idle.snooze_no_park(); // must not hang or panic past the phases
        }
        assert!(idle.is_parking());
    }

    #[test]
    fn wait_until_parks_then_returns_on_wake() {
        use std::sync::atomic::AtomicBool;
        let sleepers = Sleepers::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                sleepers.wait_until(&IdleStrategy::new(1, 1), || done.load(Ordering::Acquire));
            });
            // Let the waiter run out its two-round window and park.
            while sleepers.count.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
            sleepers.wake_all();
        });
        assert_eq!(sleepers.count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn wake_thread_releases_only_that_sleeper() {
        use std::sync::atomic::AtomicBool;
        let sleepers = Sleepers::new(2);
        let done = [AtomicBool::new(false), AtomicBool::new(false)];
        std::thread::scope(|s| {
            let waiters: Vec<_> = done
                .iter()
                .map(|d| {
                    s.spawn(|| {
                        while !d.load(Ordering::Acquire) {
                            sleepers.sleep_unless(|| d.load(Ordering::Acquire));
                        }
                    })
                })
                .collect();
            while sleepers.count.load(Ordering::Relaxed) < 2 {
                std::thread::yield_now();
            }
            done[1].store(true, Ordering::Release);
            sleepers.wake_thread(waiters[1].thread().id());
            while !waiters[1].is_finished() {
                std::thread::yield_now();
            }
            // The other sleeper is still parked.
            assert_eq!(sleepers.count.load(Ordering::Relaxed), 1);
            done[0].store(true, Ordering::Release);
            sleepers.wake_all();
        });
    }

    #[test]
    fn runtime_default_parks_after_64_rounds() {
        let idle = IdleStrategy::runtime_default();
        let mut rounds = 0;
        while !idle.snooze() {
            rounds += 1;
        }
        assert_eq!(rounds, 64);
    }
}
