//! Scheduler statistics: cheap relaxed counters, cache-padded per worker.
//!
//! The paper's analysis is phrased in terms of runtime events — steals,
//! failed steals, tasks created/executed, barrier episodes. Instrumenting the
//! runtimes with these counters lets the benches report *why* one model wins
//! (e.g. Fig. 1: `cilk_for`'s steal count grows with thread count while
//! `omp for`'s chunk dispatch does not).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::CachePadded;

/// A relaxed monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (exact once the system is quiescent).
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Per-worker scheduler event counters.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Tasks pushed by this worker.
    pub spawned: Counter,
    /// Tasks this worker executed (own or stolen).
    pub executed: Counter,
    /// Successful steals by this worker.
    pub steals: Counter,
    /// Steal attempts that found nothing (or lost a race).
    pub failed_steals: Counter,
    /// Worksharing loop chunks this worker claimed and ran.
    pub chunks: Counter,
    /// Shared-counter claim transactions (CAS/fetch-add grabs) this worker
    /// made against a dynamic/guided loop counter. With batched grabs one
    /// claim can serve many chunks, so `loop_claims` ≤ `chunks` measures the
    /// contention reduction directly.
    pub loop_claims: Counter,
    /// Barrier episodes this worker waited in.
    pub barrier_waits: Counter,
    /// Total nanoseconds this worker spent waiting at barriers.
    pub barrier_wait_ns: Counter,
    /// Times this worker gave up spinning/yielding and parked until woken
    /// ([`crate::Sleepers`]). A high park rate with steady throughput means
    /// the pool is over-provisioned; a high rate with poor throughput means
    /// work arrives in bursts the idle policy keeps missing.
    pub parks: Counter,
    /// Nanoseconds this worker spent executing work (top-level tasks or
    /// parallel-region bodies — not idle loops). `busy_ns / wall_ns` is the
    /// worker's utilization.
    pub busy_ns: Counter,
}

/// Counters for a whole scheduler instance: one padded [`WorkerStats`] per
/// worker plus totals helpers.
#[derive(Debug)]
pub struct SchedulerStats {
    workers: Box<[CachePadded<WorkerStats>]>,
}

/// Aggregated totals across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Total tasks pushed.
    pub spawned: u64,
    /// Total tasks executed.
    pub executed: u64,
    /// Total successful steals.
    pub steals: u64,
    /// Total failed steal attempts.
    pub failed_steals: u64,
    /// Total worksharing chunks dispatched.
    pub chunks: u64,
    /// Total shared-counter claim transactions for dynamic/guided loops.
    pub loop_claims: u64,
    /// Total barrier episodes waited in (across workers).
    pub barrier_waits: u64,
    /// Total nanoseconds spent waiting at barriers (across workers).
    pub barrier_wait_ns: u64,
    /// Total park episodes (across workers).
    pub parks: u64,
    /// Total nanoseconds spent executing work (across workers).
    pub busy_ns: u64,
}

impl std::ops::Sub for StatsSnapshot {
    type Output = StatsSnapshot;

    /// Events between two snapshots of the same scheduler (`later - earlier`).
    /// Saturating, so a racing reset yields zeros instead of wrap-around.
    fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            spawned: self.spawned.saturating_sub(rhs.spawned),
            executed: self.executed.saturating_sub(rhs.executed),
            steals: self.steals.saturating_sub(rhs.steals),
            failed_steals: self.failed_steals.saturating_sub(rhs.failed_steals),
            chunks: self.chunks.saturating_sub(rhs.chunks),
            loop_claims: self.loop_claims.saturating_sub(rhs.loop_claims),
            barrier_waits: self.barrier_waits.saturating_sub(rhs.barrier_waits),
            barrier_wait_ns: self.barrier_wait_ns.saturating_sub(rhs.barrier_wait_ns),
            parks: self.parks.saturating_sub(rhs.parks),
            busy_ns: self.busy_ns.saturating_sub(rhs.busy_ns),
        }
    }
}

impl std::ops::Add for StatsSnapshot {
    type Output = StatsSnapshot;

    /// Combines two schedulers' event counts into a cross-runtime total.
    fn add(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            spawned: self.spawned.saturating_add(rhs.spawned),
            executed: self.executed.saturating_add(rhs.executed),
            steals: self.steals.saturating_add(rhs.steals),
            failed_steals: self.failed_steals.saturating_add(rhs.failed_steals),
            chunks: self.chunks.saturating_add(rhs.chunks),
            loop_claims: self.loop_claims.saturating_add(rhs.loop_claims),
            barrier_waits: self.barrier_waits.saturating_add(rhs.barrier_waits),
            barrier_wait_ns: self.barrier_wait_ns.saturating_add(rhs.barrier_wait_ns),
            parks: self.parks.saturating_add(rhs.parks),
            busy_ns: self.busy_ns.saturating_add(rhs.busy_ns),
        }
    }
}

impl SchedulerStats {
    /// Creates stats for `num_workers` workers.
    pub fn new(num_workers: usize) -> Self {
        Self {
            workers: (0..num_workers.max(1))
                .map(|_| CachePadded::new(WorkerStats::default()))
                .collect(),
        }
    }

    /// The counters for worker `index`.
    pub fn worker(&self, index: usize) -> &WorkerStats {
        &self.workers[index]
    }

    /// Number of workers tracked.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Sums all workers' counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        for w in self.workers.iter() {
            s.spawned += w.spawned.get();
            s.executed += w.executed.get();
            s.steals += w.steals.get();
            s.failed_steals += w.failed_steals.get();
            s.chunks += w.chunks.get();
            s.loop_claims += w.loop_claims.get();
            s.barrier_waits += w.barrier_waits.get();
            s.barrier_wait_ns += w.barrier_wait_ns.get();
            s.parks += w.parks.get();
            s.busy_ns += w.busy_ns.get();
        }
        s
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        for w in self.workers.iter() {
            w.spawned.reset();
            w.executed.reset();
            w.steals.reset();
            w.failed_steals.reset();
            w.chunks.reset();
            w.loop_claims.reset();
            w.barrier_waits.reset();
            w.barrier_wait_ns.reset();
            w.parks.reset();
            w.busy_ns.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_ops() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn snapshot_sums_workers() {
        let s = SchedulerStats::new(3);
        s.worker(0).spawned.add(2);
        s.worker(1).spawned.add(3);
        s.worker(2).steals.inc();
        s.worker(0).chunks.add(7);
        s.worker(0).loop_claims.add(2);
        s.worker(1).barrier_waits.inc();
        s.worker(1).barrier_wait_ns.add(1_234);
        let snap = s.snapshot();
        assert_eq!(snap.spawned, 5);
        assert_eq!(snap.steals, 1);
        assert_eq!(snap.chunks, 7);
        assert_eq!(snap.loop_claims, 2);
        assert_eq!(snap.barrier_waits, 1);
        assert_eq!(snap.barrier_wait_ns, 1_234);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn snapshot_subtraction_is_per_field_and_saturating() {
        let s = SchedulerStats::new(2);
        s.worker(0).executed.add(5);
        s.worker(1).parks.add(2);
        let before = s.snapshot();
        s.worker(0).executed.add(3);
        s.worker(0).busy_ns.add(1_000);
        let after = s.snapshot();
        let d = after - before;
        assert_eq!(d.executed, 3);
        assert_eq!(d.parks, 0);
        assert_eq!(d.busy_ns, 1_000);
        // Reversed operands saturate instead of wrapping.
        assert_eq!((before - after).executed, 0);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let s = SchedulerStats::new(4);
        std::thread::scope(|scope| {
            for w in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        s.worker(w).executed.inc();
                    }
                });
            }
        });
        assert_eq!(s.snapshot().executed, 40_000);
    }
}
