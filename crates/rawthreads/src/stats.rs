//! Global event counters for the no-runtime model.
//!
//! The other models own a pool, so their counters live on the scheduler
//! instance. This model has no instance — every region spawns fresh OS
//! threads — so its counters are one process-global
//! [`WorkerStats`], fed through `tpm_trace::emit` like every pool's. The
//! interesting signal is exactly that: *how many threads this model keeps
//! creating* ([`EventKind::ThreadSpawn`](tpm_sync::EventKind::ThreadSpawn),
//! the overhead the paper charges against the C++11 versions), which a
//! service exporting metrics wants visible next to the pooled runtimes'
//! steal/chunk counts.

use tpm_sync::{CachePadded, WorkerStats};

/// The process-global counters. Never reset on the live path; consumers
/// that need intervals take snapshot deltas.
pub fn stats() -> &'static WorkerStats {
    // Padded: every region thread writes these, and a neighbouring static
    // (the trace switch every event site reads) must not share their line.
    static STATS: CachePadded<WorkerStats> = CachePadded::new(WorkerStats::new());
    &STATS
}

/// Reports one event on the global counters and the calling thread's trace.
#[inline]
pub(crate) fn emit(kind: tpm_sync::EventKind, a: u64) {
    tpm_trace::emit(stats(), kind, a, 0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_bump_global_counters() {
        let before = stats().snapshot();
        crate::threads_for(4, 0..100, |_, _| {});
        let d = stats().snapshot() - before;
        assert!(d.thread_spawns >= 4);
        assert!(d.chunks >= 4);
    }
}
