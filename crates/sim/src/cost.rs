//! The calibrated cost model: what each runtime mechanism costs, in
//! (virtual) nanoseconds.
//!
//! The constants are order-of-magnitude calibrations for the paper's era of
//! hardware (Haswell Xeon, icc 13 runtimes), chosen so the *relative* costs
//! match the paper's analysis: lock-based deque ops cost ~2× the lock-free
//! protocol; a steal costs several cache-miss round trips; an OS thread
//! spawn costs ~3 orders of magnitude more than a task push; a fork-join
//! region dispatch sits in between.

/// Per-mechanism costs in nanoseconds of virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Creating + later joining one OS thread (C++11 versions pay this per
    /// thread per region).
    pub thread_spawn_ns: f64,
    /// Waking one pooled worker for a fork-join region (per thread).
    pub region_fork_per_thread_ns: f64,
    /// One barrier episode, per participating thread.
    pub barrier_per_thread_ns: f64,
    /// Computing a static chunk assignment (purely local arithmetic).
    pub static_dispatch_ns: f64,
    /// One fetch on the shared dynamic-loop counter (exclusive resource).
    pub dynamic_fetch_ns: f64,
    /// A failed steal attempt (empty or lost race): cache miss + check.
    pub steal_attempt_ns: f64,
    /// The serialized window a successful steal holds on the victim's deque
    /// top (the paper's "serialize the distributions of loop chunks").
    pub steal_success_ns: f64,
    /// Pushing a task onto a lock-free (Chase–Lev) deque.
    pub push_lockfree_ns: f64,
    /// Popping a task from one's own lock-free deque.
    pub pop_lockfree_ns: f64,
    /// Pushing a task onto a lock-based deque (takes the lock).
    pub push_locked_ns: f64,
    /// Popping a task from a lock-based deque (takes the lock).
    pub pop_locked_ns: f64,
    /// Splitting a range in the recursive `cilk_for` decomposition.
    pub split_ns: f64,
    /// Per-node bookkeeping of a spawned task (frame setup, latch).
    pub task_frame_ns: f64,
    /// Streaming-efficiency multiplier (≤ 1) on the memory bandwidth of
    /// chunks that reached their executor through fine-grained steals.
    /// Lazy `cilk_for` splitting scatters small, random chunks across
    /// workers, breaking hardware-prefetch streams and page affinity that
    /// coarse static chunking preserves — the paper's "workstealing
    /// operations in Cilk Plus serialize the distributions of loop chunks"
    /// penalty is largest for bandwidth-bound kernels (Axpy ~2×, Sum ~5×)
    /// and smallest for compute-bound ones (Matmul ~10%), exactly the
    /// signature of a bandwidth-side effect.
    pub steal_locality_derate: f64,
    /// Multiplier (≥ 1) on steal costs when thief and victim sit on
    /// different NUMA nodes: the victim's deque top lives in the remote
    /// socket's cache hierarchy, so every CAS round trip crosses QPI
    /// (~2× the latency of an on-socket snoop on the testbed).
    pub steal_remote_penalty: f64,
}

impl CostModel {
    /// Calibrated defaults (see module docs).
    pub fn calibrated() -> Self {
        Self {
            thread_spawn_ns: 15_000.0,
            region_fork_per_thread_ns: 600.0,
            barrier_per_thread_ns: 150.0,
            static_dispatch_ns: 60.0,
            dynamic_fetch_ns: 120.0,
            steal_attempt_ns: 200.0,
            steal_success_ns: 450.0,
            push_lockfree_ns: 35.0,
            pop_lockfree_ns: 30.0,
            push_locked_ns: 50.0,
            pop_locked_ns: 45.0,
            split_ns: 45.0,
            task_frame_ns: 55.0,
            steal_locality_derate: 0.5,
            steal_remote_penalty: 2.0,
        }
    }

    /// A zero-overhead model (for "pure work" baselines in tests: makespan
    /// must then equal work/p exactly for uniform loads).
    pub fn free() -> Self {
        Self {
            thread_spawn_ns: 0.0,
            region_fork_per_thread_ns: 0.0,
            barrier_per_thread_ns: 0.0,
            static_dispatch_ns: 0.0,
            dynamic_fetch_ns: 0.0,
            steal_attempt_ns: 0.0,
            steal_success_ns: 0.0,
            push_lockfree_ns: 0.0,
            pop_lockfree_ns: 0.0,
            push_locked_ns: 0.0,
            pop_locked_ns: 0.0,
            split_ns: 0.0,
            task_frame_ns: 0.0,
            steal_locality_derate: 1.0,
            steal_remote_penalty: 1.0,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// Which deque implementation a task policy uses — the paper's Fig. 5
/// explanatory variable (Intel OpenMP: locked; Cilk Plus: lock-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DequeKind {
    /// Chase–Lev protocol: owner ops are cheap, only steals serialize on the
    /// victim's top.
    LockFree,
    /// Mutex-protected deque: *every* operation serializes on the lock.
    Locked,
}

impl CostModel {
    /// Push cost for a deque kind.
    pub fn push_cost(&self, kind: DequeKind) -> f64 {
        match kind {
            DequeKind::LockFree => self.push_lockfree_ns,
            DequeKind::Locked => self.push_locked_ns,
        }
    }

    /// Pop cost for a deque kind.
    pub fn pop_cost(&self, kind: DequeKind) -> f64 {
        match kind {
            DequeKind::LockFree => self.pop_lockfree_ns,
            DequeKind::Locked => self.pop_locked_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locked_ops_cost_more_than_lockfree() {
        let c = CostModel::calibrated();
        assert!(c.push_cost(DequeKind::Locked) > c.push_cost(DequeKind::LockFree));
        assert!(c.pop_cost(DequeKind::Locked) > c.pop_cost(DequeKind::LockFree));
    }

    #[test]
    fn thread_spawn_dominates_task_push() {
        let c = CostModel::calibrated();
        assert!(c.thread_spawn_ns > 100.0 * c.push_lockfree_ns);
    }

    #[test]
    fn remote_steals_cost_more_than_local() {
        let c = CostModel::calibrated();
        assert!(c.steal_remote_penalty > 1.0);
        assert!(c.steal_success_ns * c.steal_remote_penalty > c.steal_success_ns);
        // The free model must not smuggle a NUMA penalty into baselines.
        assert_eq!(CostModel::free().steal_remote_penalty, 1.0);
    }

    #[test]
    fn free_model_is_all_zero() {
        let c = CostModel::free();
        assert_eq!(c.thread_spawn_ns, 0.0);
        assert_eq!(c.push_cost(DequeKind::Locked), 0.0);
    }
}
