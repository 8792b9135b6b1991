//! Discrete-event simulation of recursive fork-join task trees (Fibonacci,
//! Fig. 5) under the two deque disciplines.
//!
//! The paper's Fig. 5 finding — `cilk_spawn` ≈ 20% faster than `omp_task`
//! except at 1 thread — is driven entirely by per-task deque-protocol cost:
//! the tree shape, steal pattern and leaf work are identical across the two.
//! This simulator executes the *same* truncated Fibonacci tree under both
//! cost regimes.

use crate::cost::DequeKind;
use crate::loop_sim::Simulator;
use crate::placement::VictimPolicy;
use crate::result::SimResult;
use crate::steal::{hold, Owner, Stealing};
use crate::trace::Activity;
use crate::workload::{fib_value, FibWorkload};

impl Simulator {
    /// Per-task deque overhead (push + pop + frame) for the aggregate
    /// accounting of sub-cutoff tasks. The paper's fib versions spawn a task
    /// at *every* node ("for problem size 40"), so the per-node protocol
    /// cost — not the leaf arithmetic — dominates. Lock-based deque ops only
    /// exceed lock-free ones under contention, i.e. with more than one
    /// worker generating steal traffic; at one thread the lock is always
    /// uncontended (the paper: cilk_spawn leads "except for 1 core").
    fn per_task_overhead(&self, kind: DequeKind, threads: usize) -> f64 {
        let lockfree =
            self.cost.push_lockfree_ns + self.cost.pop_lockfree_ns + self.cost.task_frame_ns;
        match kind {
            DequeKind::LockFree => lockfree,
            DequeKind::Locked if threads == 1 => lockfree * 1.05,
            DequeKind::Locked => {
                self.cost.push_locked_ns + self.cost.pop_locked_ns + self.cost.task_frame_ns
            }
        }
    }

    /// Simulates `fib(n)` with child-stealing tasks on `threads` workers
    /// using deque discipline `kind`, all on one NUMA node.
    pub fn run_fib(&self, kind: DequeKind, fw: &FibWorkload, threads: usize) -> SimResult {
        self.sim_fib(kind, fw, &vec![0; threads.max(1)], VictimPolicy::Random)
            .0
    }

    /// The fib task tree over the stealing core, worker `w` on NUMA node
    /// `nodes[w]`. Returns the result and the number of cross-node steals.
    pub(crate) fn sim_fib(
        &self,
        kind: DequeKind,
        fw: &FibWorkload,
        nodes: &[usize],
        policy: VictimPolicy,
    ) -> (SimResult, u64) {
        let p = nodes.len();
        // A locked deque serializes owner ops with thieves on its lock.
        let locked = kind == DequeKind::Locked;
        let pop = self.cost.pop_cost(kind);
        let push = self.cost.push_cost(kind) + self.cost.task_frame_ns;
        let per_task = self.per_task_overhead(kind, p);
        let stealing = Stealing {
            nodes,
            policy,
            seed: 0xF1B ^ ((p as u64) << 6) ^ fw.n,
            steal_ns: match kind {
                DequeKind::LockFree => self.cost.steal_success_ns,
                DequeKind::Locked => self.cost.steal_success_ns + self.cost.pop_locked_ns,
            },
        };
        let run = |o: &mut Owner<'_, u64>, node: u64, time: f64| {
            let begin = if locked {
                hold(o.window, time, pop)
            } else {
                time
            };
            o.r.overhead_ns += pop;
            let mut t = begin + pop;
            // Descend the (n-2) spine, spawning (n-1) children, until the
            // leaf cutoff; then run the leaf sequentially.
            let mut n = node;
            while n > fw.leaf_cutoff && n >= 2 {
                t = if locked { hold(o.window, t, push) } else { t } + push;
                o.push(n - 1);
                o.r.tasks += 1;
                o.r.overhead_ns += push;
                // The internal node's own arithmetic.
                t += fw.call_ns;
                o.r.busy_ns += fw.call_ns;
                n -= 2;
            }
            // Leaf: the sub-cutoff subtree still spawns a task per node in
            // the paper's (cutoff-free) codes. Charging its aggregate
            // protocol cost here is exact for time while keeping the event
            // count tractable at fib(40) scale.
            let leaf = fw.leaf_work_ns(n);
            let sub_overhead = fib_value(n + 1).saturating_sub(1) as f64 * per_task;
            t += leaf + sub_overhead;
            o.r.busy_ns += leaf;
            o.r.overhead_ns += sub_overhead;
            (Activity::Work, begin, t)
        };
        let (mut r, remote) = self.run_stealing(stealing, fw.n, run, |n| n, None);
        let barrier = self.cost.barrier_per_thread_ns * p as f64;
        r.makespan_ns += barrier;
        r.overhead_ns += barrier;
        (r, remote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::machine::Machine;

    fn fw(n: u64, cutoff: u64) -> FibWorkload {
        FibWorkload {
            n,
            leaf_cutoff: cutoff,
            call_ns: 2.0,
        }
    }

    #[test]
    fn all_work_is_executed() {
        let sim = Simulator::paper_testbed();
        let w = fw(25, 12);
        for kind in [DequeKind::LockFree, DequeKind::Locked] {
            let r = sim.run_fib(kind, &w, 8);
            // busy = internal-node arithmetic + leaves; must be within a few
            // percent of the sequential total (internal accounting differs
            // slightly from the closed form).
            let total = w.total_work_ns();
            assert!(
                (r.busy_ns - total).abs() / total < 0.05,
                "{kind:?}: busy {} vs total {total}",
                r.busy_ns
            );
        }
    }

    #[test]
    fn lockfree_beats_locked_on_many_threads() {
        let sim = Simulator::paper_testbed();
        let w = fw(30, 16);
        let lf = sim.run_fib(DequeKind::LockFree, &w, 16);
        let lk = sim.run_fib(DequeKind::Locked, &w, 16);
        assert!(
            lf.makespan_ns < lk.makespan_ns,
            "lock-free {} vs locked {}",
            lf.makespan_ns,
            lk.makespan_ns
        );
    }

    #[test]
    fn tree_scales_with_threads() {
        let sim = Simulator::paper_testbed();
        let w = fw(30, 16);
        let r1 = sim.run_fib(DequeKind::LockFree, &w, 1);
        let r8 = sim.run_fib(DequeKind::LockFree, &w, 8);
        let speedup = r1.makespan_ns / r8.makespan_ns;
        assert!(speedup > 3.0, "speedup {speedup}");
    }

    #[test]
    fn deterministic() {
        let sim = Simulator::paper_testbed();
        let w = fw(24, 12);
        let a = sim.run_fib(DequeKind::Locked, &w, 8);
        let b = sim.run_fib(DequeKind::Locked, &w, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn single_thread_has_no_steals() {
        let sim = Simulator::paper_testbed();
        let w = fw(20, 10);
        let r = sim.run_fib(DequeKind::LockFree, &w, 1);
        assert_eq!(r.steals, 0);
    }

    #[test]
    fn leaf_only_tree() {
        // n below the cutoff: a single leaf, no spawns.
        let sim = Simulator {
            machine: Machine::small(4),
            cost: CostModel::calibrated(),
        };
        let w = fw(8, 12);
        let r = sim.run_fib(DequeKind::LockFree, &w, 4);
        assert_eq!(r.tasks, 0);
        assert!(r.busy_ns > 0.0);
    }
}
