//! Scheduler statistics: cheap relaxed counters, cache-padded per worker.
//!
//! The paper's analysis is phrased in terms of runtime events — steals,
//! failed steals, tasks created/executed, barrier episodes. Instrumenting the
//! runtimes with these counters lets the benches report *why* one model wins
//! (e.g. Fig. 1: `cilk_for`'s steal count grows with thread count while
//! `omp for`'s chunk dispatch does not).
//!
//! A [`WorkerStats`] holds one counter per [counted](EventKind::counted)
//! [`EventKind`], indexed by [`EventKind::slot`], plus two duration sums. The
//! runtimes never bump a counter directly: `tpm_trace::emit` counts an event
//! and traces it in one call, so the counters and the trace ring agree.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{CachePadded, EventKind};

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

/// One worker's scheduler event counters: one per counted [`EventKind`],
/// plus the nanoseconds spent waiting at barriers (summed from
/// [`EventKind::BarrierRelease`] payloads) and executing work.
#[derive(Debug, Default)]
pub struct WorkerStats {
    events: [Counter; EventKind::COUNTED.len()],
    barrier_wait_ns: Counter,
    busy_ns: Counter,
}

impl WorkerStats {
    /// Zeroed counters (`const`, so a process-global instance can be a
    /// `static`).
    pub const fn new() -> Self {
        Self {
            events: [const { Counter::new() }; EventKind::COUNTED.len()],
            barrier_wait_ns: Counter::new(),
            busy_ns: Counter::new(),
        }
    }

    /// Counts one `kind` event with payload `a` (a no-op for traced-only
    /// kinds). Runtimes call `tpm_trace::emit`, which also traces it.
    #[inline]
    pub fn count(&self, kind: EventKind, a: u64) {
        if let Some(slot) = kind.slot() {
            self.events[slot].inc();
        }
        if kind == EventKind::BarrierRelease {
            self.barrier_wait_ns.add(a);
        }
    }

    /// Adds `ns` of work execution (top-level tasks or parallel-region
    /// bodies, not idle loops); `busy_ns / wall_ns` is utilization.
    #[inline]
    pub fn add_busy_ns(&self, ns: u64) {
        self.busy_ns.add(ns);
    }

    /// How many `kind` events were counted (0 for traced-only kinds).
    pub fn get(&self, kind: EventKind) -> u64 {
        kind.slot().map_or(0, |slot| self.events[slot].get())
    }

    /// This worker's totals.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut s = StatsSnapshot {
            barrier_wait_ns: self.barrier_wait_ns.get(),
            busy_ns: self.busy_ns.get(),
            ..StatsSnapshot::default()
        };
        for kind in EventKind::COUNTED {
            *s.field(kind) = self.get(kind);
        }
        s
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        let durations = [&self.barrier_wait_ns, &self.busy_ns];
        self.events.iter().chain(durations).for_each(Counter::reset);
    }
}

/// Counters for a whole scheduler instance: one padded [`WorkerStats`] per
/// worker plus totals helpers.
#[derive(Debug)]
pub struct SchedulerStats {
    workers: Box<[CachePadded<WorkerStats>]>,
}

/// Aggregated totals across workers (or a difference of two such totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// [`EventKind::TaskSpawn`]: tasks created.
    pub spawned: u64,
    /// [`EventKind::TaskExec`]: tasks executed.
    pub executed: u64,
    /// [`EventKind::Steal`]: successful steals.
    pub steals: u64,
    /// [`EventKind::FailedSteal`]: steal attempts that found nothing.
    pub failed_steals: u64,
    /// [`EventKind::ChunkDispatch`]: loop chunks dispatched.
    pub chunks: u64,
    /// [`EventKind::LoopClaim`]: shared-counter claim transactions.
    pub loop_claims: u64,
    /// [`EventKind::BarrierRelease`]: barrier episodes waited in.
    pub barrier_waits: u64,
    /// Nanoseconds spent waiting at barriers.
    pub barrier_wait_ns: u64,
    /// [`EventKind::Park`]: park episodes.
    pub parks: u64,
    /// Nanoseconds spent executing work.
    pub busy_ns: u64,
    /// [`EventKind::ThreadSpawn`]: OS threads created by the runtime.
    pub thread_spawns: u64,
}

impl StatsSnapshot {
    /// The count for a counted `kind` (0 for traced-only kinds).
    pub fn get(mut self, kind: EventKind) -> u64 {
        if kind.counted() {
            *self.field(kind)
        } else {
            0
        }
    }

    /// The field holding counted `kind`'s total.
    fn field(&mut self, kind: EventKind) -> &mut u64 {
        match kind {
            EventKind::TaskSpawn => &mut self.spawned,
            EventKind::TaskExec => &mut self.executed,
            EventKind::Steal => &mut self.steals,
            EventKind::FailedSteal => &mut self.failed_steals,
            EventKind::ChunkDispatch => &mut self.chunks,
            EventKind::LoopClaim => &mut self.loop_claims,
            EventKind::BarrierRelease => &mut self.barrier_waits,
            EventKind::Park => &mut self.parks,
            EventKind::ThreadSpawn => &mut self.thread_spawns,
            _ => unreachable!("{kind:?} is not counted"),
        }
    }

    /// Combines `self` and `rhs` field by field.
    fn zip(mut self, mut rhs: StatsSnapshot, op: fn(u64, u64) -> u64) -> StatsSnapshot {
        for kind in EventKind::COUNTED {
            *self.field(kind) = op(*self.field(kind), *rhs.field(kind));
        }
        self.barrier_wait_ns = op(self.barrier_wait_ns, rhs.barrier_wait_ns);
        self.busy_ns = op(self.busy_ns, rhs.busy_ns);
        self
    }
}

impl std::ops::Sub for StatsSnapshot {
    type Output = StatsSnapshot;

    /// Events between two snapshots of the same scheduler (`later - earlier`).
    /// Saturating, so a racing reset yields zeros instead of wrap-around.
    fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
        self.zip(rhs, u64::saturating_sub)
    }
}

impl std::ops::Add for StatsSnapshot {
    type Output = StatsSnapshot;

    /// Combines two schedulers' event counts into a cross-runtime total.
    fn add(self, rhs: StatsSnapshot) -> StatsSnapshot {
        self.zip(rhs, u64::saturating_add)
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
        self.workers
            .iter()
            .fold(StatsSnapshot::default(), |acc, w| acc + w.snapshot())
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        for w in self.workers.iter() {
            w.reset();
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

    fn count_n(w: &WorkerStats, kind: EventKind, n: usize) {
        for _ in 0..n {
            w.count(kind, 0);
        }
    }

    #[test]
    fn snapshot_sums_workers() {
        let s = SchedulerStats::new(3);
        count_n(s.worker(0), EventKind::TaskSpawn, 2);
        count_n(s.worker(1), EventKind::TaskSpawn, 3);
        s.worker(2).count(EventKind::Steal, 9);
        count_n(s.worker(0), EventKind::ChunkDispatch, 7);
        count_n(s.worker(0), EventKind::LoopClaim, 2);
        s.worker(1).count(EventKind::BarrierRelease, 1_234);
        s.worker(1).count(EventKind::ThreadJoin, 5);
        let snap = s.snapshot();
        assert_eq!(snap.spawned, 5);
        assert_eq!(snap.steals, 1);
        assert_eq!(snap.chunks, 7);
        assert_eq!(snap.loop_claims, 2);
        assert_eq!(snap.barrier_waits, 1);
        assert_eq!(snap.barrier_wait_ns, 1_234);
        for kind in EventKind::ALL {
            let per_worker: u64 = (0..3).map(|w| s.worker(w).get(kind)).sum();
            assert_eq!(snap.get(kind), per_worker, "{kind:?}");
        }
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn snapshot_subtraction_is_per_field_and_saturating() {
        let s = SchedulerStats::new(2);
        count_n(s.worker(0), EventKind::TaskExec, 5);
        count_n(s.worker(1), EventKind::Park, 2);
        let before = s.snapshot();
        count_n(s.worker(0), EventKind::TaskExec, 3);
        s.worker(0).add_busy_ns(1_000);
        let after = s.snapshot();
        let d = after - before;
        assert_eq!(d.executed, 3);
        assert_eq!(d.parks, 0);
        assert_eq!(d.busy_ns, 1_000);
        // Reversed operands saturate instead of wrapping.
        assert_eq!((before - after).executed, 0);
        assert_eq!((before + after).parks, 4);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let s = SchedulerStats::new(4);
        std::thread::scope(|scope| {
            for w in 0..4 {
                let s = &s;
                scope.spawn(move || count_n(s.worker(w), EventKind::TaskExec, 10_000));
            }
        });
        assert_eq!(s.snapshot().executed, 40_000);
    }
}
