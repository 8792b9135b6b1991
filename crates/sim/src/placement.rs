//! NUMA placement-policy simulation: where workers sit and whom they rob.
//!
//! The paper's testbed has two sockets, and the native runtimes scan
//! victims in one neighbour-first order, so node-aware victim ordering is
//! studied here, on the simulated testbed: this module predicts when it
//! matters. It runs the Fig. 5 fib task tree under
//! [`Simulator::run_fib`]'s charges, plus the two degrees of freedom
//! `run_fib` leaves out (it puts every worker on one node):
//!
//! * [`Placement`] — how software threads map onto physical cores: `Packed`
//!   fills socket 0 before touching socket 1 (Linux's default `taskset`
//!   order); `Scatter` round-robins sockets (OpenMP's `KMP_AFFINITY=scatter`).
//! * [`VictimPolicy`] — whom a starving worker robs: `Random` picks
//!   uniformly (the classic Blumofe–Leiserson choice); `NodeAware`
//!   alternates same-socket attempts with uniform fallback rounds.
//!
//! Cross-node steals pay [`CostModel::steal_remote_penalty`] on every deque
//! round trip — the thief's CAS on a victim whose deque top lives in the
//! other socket's cache crosses the interconnect. [`placement_sweep`]
//! tabulates all four combinations for the figure pipeline.

use crate::cost::DequeKind;
use crate::loop_sim::Simulator;
use crate::result::SimResult;
use crate::workload::FibWorkload;

/// How software threads are pinned onto physical cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Fill socket 0 completely before spilling onto socket 1.
    Packed,
    /// Round-robin threads across sockets (scatter/spread affinity).
    Scatter,
}

impl Placement {
    /// Physical core assigned to worker `tid` on `machine`.
    pub fn core_of_worker(&self, machine: &crate::Machine, tid: usize) -> usize {
        let cores = machine.cores.max(1);
        match self {
            Placement::Packed => tid % cores,
            Placement::Scatter => {
                let sockets = machine.sockets.max(1);
                let per = machine.cores_per_socket().max(1);
                ((tid % sockets) * per + (tid / sockets) % per) % cores
            }
        }
    }

    /// Stable lowercase name for JSON rows.
    pub fn name(&self) -> &'static str {
        match self {
            Placement::Packed => "packed",
            Placement::Scatter => "scatter",
        }
    }
}

/// How a starving worker chooses its steal victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimPolicy {
    /// Uniform random over all other workers.
    Random,
    /// Alternate same-node attempts with uniform fallback rounds.
    NodeAware,
}

impl VictimPolicy {
    /// Stable lowercase name for JSON rows.
    pub fn name(&self) -> &'static str {
        match self {
            VictimPolicy::Random => "random",
            VictimPolicy::NodeAware => "node_aware",
        }
    }
}

/// One cell of the placement × victim-policy sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementRow {
    /// Thread→core mapping used.
    pub placement: Placement,
    /// Victim-selection discipline used.
    pub policy: VictimPolicy,
    /// Worker count.
    pub threads: usize,
    /// Simulated makespan in virtual nanoseconds.
    pub makespan_ns: f64,
    /// Successful steals, total.
    pub steals: u64,
    /// Successful steals whose thief and victim sat on different nodes.
    pub remote_steals: u64,
    /// Scheduling overhead paid, virtual nanoseconds.
    pub overhead_ns: f64,
}

impl Simulator {
    /// [`Simulator::run_fib`] with explicit thread placement and victim
    /// policy; cross-node steal traffic pays
    /// [`CostModel::steal_remote_penalty`] per deque round trip. Returns the
    /// usual result plus the count of cross-node successful steals.
    pub fn run_fib_placed(
        &self,
        kind: DequeKind,
        fw: &FibWorkload,
        threads: usize,
        placement: Placement,
        policy: VictimPolicy,
    ) -> (SimResult, u64) {
        let m = &self.machine;
        let nodes: Vec<usize> = (0..threads.max(1))
            .map(|tid| m.node_of_core(placement.core_of_worker(m, tid)))
            .collect();
        self.sim_fib(kind, fw, &nodes, policy)
    }
}

/// Runs every placement × victim-policy combination of `fw` at each thread
/// count, using lock-free deques (the discipline both real runtimes use).
pub fn placement_sweep(sim: &Simulator, fw: &FibWorkload, threads: &[usize]) -> Vec<PlacementRow> {
    let mut rows = Vec::new();
    for &t in threads {
        for placement in [Placement::Packed, Placement::Scatter] {
            for policy in [VictimPolicy::Random, VictimPolicy::NodeAware] {
                let (r, remote) = sim.run_fib_placed(DequeKind::LockFree, fw, t, placement, policy);
                rows.push(PlacementRow {
                    placement,
                    policy,
                    threads: t,
                    makespan_ns: r.makespan_ns,
                    steals: r.steals,
                    remote_steals: remote,
                    overhead_ns: r.overhead_ns,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn fw(n: u64, cutoff: u64) -> FibWorkload {
        FibWorkload {
            n,
            leaf_cutoff: cutoff,
            call_ns: 2.0,
        }
    }

    #[test]
    fn packed_fills_socket_zero_first_scatter_alternates() {
        let m = Machine::xeon_e5_2699v3();
        for tid in 0..18 {
            assert_eq!(m.node_of_core(Placement::Packed.core_of_worker(&m, tid)), 0);
        }
        assert_eq!(m.node_of_core(Placement::Packed.core_of_worker(&m, 18)), 1);
        assert_eq!(m.node_of_core(Placement::Scatter.core_of_worker(&m, 0)), 0);
        assert_eq!(m.node_of_core(Placement::Scatter.core_of_worker(&m, 1)), 1);
        assert_eq!(m.node_of_core(Placement::Scatter.core_of_worker(&m, 2)), 0);
        // Scatter never assigns two of the first `cores` workers to one core.
        let mut seen = vec![false; m.cores];
        for tid in 0..m.cores {
            let c = Placement::Scatter.core_of_worker(&m, tid);
            assert!(!seen[c], "core {c} double-assigned");
            seen[c] = true;
        }
    }

    #[test]
    fn node_aware_cuts_remote_steals_on_two_sockets() {
        let sim = Simulator::paper_testbed();
        let w = fw(28, 14);
        let (rand, rand_remote) = sim.run_fib_placed(
            DequeKind::LockFree,
            &w,
            24,
            Placement::Packed,
            VictimPolicy::Random,
        );
        let (na, na_remote) = sim.run_fib_placed(
            DequeKind::LockFree,
            &w,
            24,
            Placement::Packed,
            VictimPolicy::NodeAware,
        );
        assert!(rand.steals > 0 && na.steals > 0);
        let rand_frac = rand_remote as f64 / rand.steals as f64;
        let na_frac = na_remote as f64 / na.steals as f64;
        assert!(
            na_frac < rand_frac,
            "node-aware remote fraction {na_frac:.3} !< random {rand_frac:.3}"
        );
        assert!(
            na.makespan_ns <= rand.makespan_ns * 1.02,
            "node-aware {} should not trail random {} meaningfully",
            na.makespan_ns,
            rand.makespan_ns
        );
    }

    #[test]
    fn remote_penalty_slows_cross_socket_stealing() {
        let mut sim = Simulator::paper_testbed();
        let w = fw(28, 14);
        sim.cost.steal_remote_penalty = 1.0;
        let (flat, _) = sim.run_fib_placed(
            DequeKind::LockFree,
            &w,
            24,
            Placement::Scatter,
            VictimPolicy::Random,
        );
        sim.cost.steal_remote_penalty = 4.0;
        let (steep, _) = sim.run_fib_placed(
            DequeKind::LockFree,
            &w,
            24,
            Placement::Scatter,
            VictimPolicy::Random,
        );
        assert!(
            steep.makespan_ns > flat.makespan_ns,
            "penalty 4× {} !> 1× {}",
            steep.makespan_ns,
            flat.makespan_ns
        );
    }

    #[test]
    fn single_socket_is_invariant_to_penalty_and_placement() {
        // One node ⇒ no steal is ever remote, so the penalty constant and the
        // placement must be unobservable, bit for bit.
        let mut sim = Simulator {
            machine: Machine::small(8),
            cost: crate::CostModel::calibrated(),
        };
        let w = fw(24, 12);
        let base = sim.run_fib_placed(
            DequeKind::LockFree,
            &w,
            8,
            Placement::Packed,
            VictimPolicy::Random,
        );
        assert_eq!(base.1, 0, "no remote steals on one socket");
        sim.cost.steal_remote_penalty = 7.5;
        let steep = sim.run_fib_placed(
            DequeKind::LockFree,
            &w,
            8,
            Placement::Packed,
            VictimPolicy::Random,
        );
        assert_eq!(base, steep);
        sim.cost.steal_remote_penalty = 2.0;
        let scattered = sim.run_fib_placed(
            DequeKind::LockFree,
            &w,
            8,
            Placement::Scatter,
            VictimPolicy::Random,
        );
        assert_eq!(base, scattered);
    }

    #[test]
    fn packed_random_on_one_socket_is_run_fib() {
        // numasim and Fig. 5 simulate the same tree under the same charge;
        // packed workers that fit one socket never steal remotely, so the
        // two entry points agree on every field, bit for bit.
        let sim = Simulator::paper_testbed();
        let w = fw(28, 14);
        for kind in [DequeKind::LockFree, DequeKind::Locked] {
            for p in [1, 2, 8, 18] {
                let placed =
                    sim.run_fib_placed(kind, &w, p, Placement::Packed, VictimPolicy::Random);
                assert_eq!(placed, (sim.run_fib(kind, &w, p), 0), "{kind:?} p={p}");
            }
        }
    }

    #[test]
    fn deterministic() {
        let sim = Simulator::paper_testbed();
        let w = fw(24, 12);
        let a = sim.run_fib_placed(
            DequeKind::Locked,
            &w,
            16,
            Placement::Packed,
            VictimPolicy::NodeAware,
        );
        let b = sim.run_fib_placed(
            DequeKind::Locked,
            &w,
            16,
            Placement::Packed,
            VictimPolicy::NodeAware,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_covers_every_cell() {
        let sim = Simulator::paper_testbed();
        let rows = placement_sweep(&sim, &fw(24, 12), &[8, 24]);
        assert_eq!(rows.len(), 2 * 2 * 2);
        assert!(rows.iter().all(|r| r.makespan_ns > 0.0));
        // Names are stable (the figure pipeline keys on them).
        assert!(rows.iter().any(|r| r.placement.name() == "packed"));
        assert!(rows.iter().any(|r| r.policy.name() == "node_aware"));
    }
}
