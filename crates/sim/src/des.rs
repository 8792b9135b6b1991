//! Generic discrete-event-simulation machinery: a virtual clock and a
//! deterministic event queue, the substrate `tpm-desim` simulates the
//! *whole service* on. Nothing here reads the wall clock — time only
//! advances when the driver pops an event.
//!
//! Determinism contract: two events scheduled for the same virtual time pop
//! in scheduling order (FIFO per timestamp), enforced by a monotonically
//! increasing sequence number in the heap key. A service event has no
//! natural rank, so the order it was caused in is the stable one.
//!
//! The scheduler simulations in the rest of this crate are event-driven
//! too, but keep a different contract on their own `(time, worker)` heap:
//! each worker has exactly one pending event, and ties pop by worker index.
//! That is the order every published figure was produced under; with this
//! queue's FIFO ties instead, 105 of the 559 figure points move, by up to
//! 4.7 % (Fig. 4 `cilk_for` at 8 threads). The two contracts are kept
//! apart on purpose.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A source of "now" in nanoseconds. Simulated components take time from
/// this trait so the same state machine runs against [`VirtualClock`] in
/// tests/simulation and against a wall-clock adapter in production code.
pub trait Clock {
    /// Current time in nanoseconds since an arbitrary epoch.
    fn now_ns(&self) -> u64;
}

/// A manually advanced clock: `now` is whatever the event loop set it to
/// when it popped the most recent event. Fast-forwarding hours of idle
/// virtual time costs one assignment.
#[derive(Debug, Default, Clone)]
pub struct VirtualClock {
    now_ns: u64,
}

impl VirtualClock {
    /// A clock at t = 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Jumps the clock to `t_ns`. Time never moves backwards; attempts to
    /// rewind are ignored (an event popped at time T may schedule work "now"
    /// while a later event is already in flight).
    pub fn advance_to(&mut self, t_ns: u64) {
        if t_ns > self.now_ns {
            self.now_ns = t_ns;
        }
    }
}

impl Clock for VirtualClock {
    fn now_ns(&self) -> u64 {
        self.now_ns
    }
}

/// Heap entry: min-order by `(at_ns, seq)`.
struct Scheduled<E> {
    at_ns: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at_ns == other.at_ns && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        (other.at_ns, other.seq).cmp(&(self.at_ns, self.seq))
    }
}

/// A deterministic future-event list. `pop` yields events in `(time,
/// scheduling order)` — ties at the same virtual time resolve to whichever
/// was scheduled first, so a run is a pure function of the schedule calls.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to pop at virtual time `at_ns`.
    pub fn schedule(&mut self, at_ns: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at_ns, seq, event });
    }

    /// Removes and returns the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|s| (s.at_ns, s.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.schedule(50, "c");
        q.schedule(10, "a1");
        q.schedule(10, "a2");
        q.schedule(30, "b");
        q.schedule(10, "a3");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(10, "a1"), (10, "a2"), (10, "a3"), (30, "b"), (50, "c")]
        );
    }

    #[test]
    fn virtual_clock_never_rewinds() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance_to(100);
        c.advance_to(40);
        assert_eq!(c.now_ns(), 100);
        c.advance_to(3_600_000_000_000); // one virtual hour, one assignment
        assert_eq!(c.now_ns(), 3_600_000_000_000);
    }
}
