//! # tpm-sim — a deterministic discrete-event multicore simulator
//!
//! The hardware substitute of the `threadcmp` workspace (see DESIGN.md §2):
//! the paper's evaluation ran on a two-socket, 36-core Xeon E5-2699v3; this
//! workspace's CI host has 2 vCPUs, so real 36-core speedup curves are
//! impossible. The simulator reproduces the *shape* of every figure by
//! modeling the scheduling mechanisms explicitly:
//!
//! * [`Machine`] — cores, sockets, memory-bandwidth roofline, NUMA de-rating.
//! * [`CostModel`] — calibrated per-mechanism costs (steal windows, deque
//!   ops, thread spawns, barriers); [`DequeKind`] selects lock-free vs
//!   lock-based task deques (the Fig. 5 variable).
//! * [`LoopWorkload`] / [`PhasedWorkload`] / [`FibWorkload`] — the inputs,
//!   described by iteration counts, per-iteration compute and traffic, and
//!   imbalance shape.
//! * [`Simulator::run_loop`] — the six loop-distribution policies
//!   ([`LoopPolicy`]); [`Simulator::run_phased`] — dependent phase
//!   sequences (BFS levels, HotSpot steps, LUD eliminations);
//!   [`Simulator::run_fib`] — recursive task trees.
//! * [`Simulator::run_fib_placed`] / [`placement_sweep`] — NUMA placement
//!   ([`Placement`]) × victim policy ([`VictimPolicy`]) sweeps; cross-node
//!   steals pay [`CostModel::steal_remote_penalty`].
//!
//! Everything is deterministic: same inputs, same [`SimResult`], bit for bit.
//!
//! ```
//! use tpm_sim::{LoopPolicy, LoopWorkload, Simulator};
//!
//! let sim = Simulator::paper_testbed();
//! let axpy = LoopWorkload::uniform(100_000_000, 0.35).with_bytes(24.0);
//! let t1 = sim.run_loop(LoopPolicy::WorksharingStatic, &axpy, 1);
//! let t16 = sim.run_loop(LoopPolicy::WorksharingStatic, &axpy, 16);
//! assert!(t16.makespan_ns < t1.makespan_ns);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cost;
pub mod des;
mod loop_sim;
mod machine;
mod placement;
mod result;
mod steal;
pub mod trace;
mod tree_sim;
mod workload;

pub use cost::{CostModel, DequeKind};
pub use des::{Clock, EventQueue, VirtualClock};
pub use loop_sim::{LoopPolicy, Simulator};
pub use machine::Machine;
pub use placement::{placement_sweep, Placement, PlacementRow, VictimPolicy};
pub use result::SimResult;
pub use trace::{Activity, Span, Trace};
pub use workload::{fib_value, FibWorkload, Imbalance, LoopWorkload, PhasedWorkload};

impl Simulator {
    /// Simulates a sequence of dependent parallel loops: each phase starts
    /// only when the previous finished (makespans add).
    pub fn run_phased(
        &self,
        policy: LoopPolicy,
        workload: &PhasedWorkload,
        threads: usize,
    ) -> SimResult {
        let mut total = SimResult::default();
        for phase in &workload.phases {
            let r = self.run_loop(policy, phase, threads);
            total.accumulate(&r);
        }
        total
    }
}

#[cfg(test)]
mod phased_tests {
    use super::*;

    #[test]
    fn phased_makespan_is_sum_of_phases() {
        let sim = Simulator::paper_testbed();
        let w = PhasedWorkload::new(vec![
            LoopWorkload::uniform(1000, 10.0),
            LoopWorkload::uniform(500, 10.0),
        ]);
        let a = sim.run_loop(LoopPolicy::WorksharingStatic, &w.phases[0], 4);
        let b = sim.run_loop(LoopPolicy::WorksharingStatic, &w.phases[1], 4);
        let both = sim.run_phased(LoopPolicy::WorksharingStatic, &w, 4);
        assert!((both.makespan_ns - (a.makespan_ns + b.makespan_ns)).abs() < 1e-9);
    }

    #[test]
    fn many_phases_amplify_per_region_overhead() {
        // 100 tiny phases: thread-per-region pays 100× spawn costs; the
        // pooled fork-join pays far less — the HotSpot phenomenon.
        let sim = Simulator::paper_testbed();
        let w = PhasedWorkload::new(vec![LoopWorkload::uniform(1000, 5.0); 100]);
        let omp = sim.run_phased(LoopPolicy::WorksharingStatic, &w, 8);
        let cxx = sim.run_phased(LoopPolicy::ThreadPerChunk, &w, 8);
        assert!(cxx.makespan_ns > 2.0 * omp.makespan_ns);
    }
}
