//! Rodinia BFS (Fig. 6): level-synchronized breadth-first search.
//!
//! The paper: "There are two parallel phases ... Each phase must enumerate
//! all the nodes in the array, determine if the particular node is of
//! interest for the phase and then process the node. ... This algorithm does
//! not have contiguous memory access, and it might have high cache miss
//! rates. ... Overall, this algorithm scales well up to 8 cores. ...
//! cilk_for has the worst performance."
//!
//! Both phases are full-array sweeps (Rodinia's formulation), parallelized
//! under every [`Model`]; neighbor updates go through relaxed atomics, which
//! is sound here because all writers in a level write the same level value.

use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

use tpm_core::{ExecError, Executor, Model};
use tpm_sim::{Imbalance, LoopWorkload, PhasedWorkload};
use tpm_sync::CancelToken;

use crate::graph::Graph;

/// BFS problem instance.
#[derive(Debug, Clone, Copy)]
pub struct Bfs {
    /// Node count (paper: 16 M).
    pub nodes: usize,
    /// Degree range of the synthetic graph.
    pub degree: (usize, usize),
    /// Source node.
    pub source: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Bfs {
    /// The paper's configuration: "a graph consisting of 16 million
    /// inter-connected nodes".
    pub fn paper() -> Self {
        Self {
            nodes: 16_000_000,
            degree: (2, 7),
            source: 0,
            seed: 0xBF5,
        }
    }

    /// A scaled-down instance for native runs.
    pub fn native(nodes: usize) -> Self {
        Self {
            nodes,
            degree: (2, 7),
            source: 0,
            seed: 0xBF5,
        }
    }

    /// Generates the input graph.
    pub fn generate(&self) -> Graph {
        Graph::random(self.nodes, self.degree.0, self.degree.1, self.seed)
    }

    /// [`Self::generate`] under a cancellation token.
    pub fn try_generate(&self, token: &CancelToken) -> Result<Graph, ExecError> {
        Graph::try_random(self.nodes, self.degree.0, self.degree.1, self.seed, token)
            .map_err(ExecError::from)
    }

    /// Upper bound on the generated graph's heap bytes (every node at the
    /// maximum degree), known before generating.
    pub fn max_input_bytes(&self) -> usize {
        (self.nodes + 1) * std::mem::size_of::<usize>()
            + self.nodes * self.degree.1 * std::mem::size_of::<u32>()
    }

    /// Sequential reference: cost (level) per node, `-1` if unreachable.
    pub fn seq(&self, g: &Graph) -> Vec<i32> {
        let mut cost = vec![-1i32; g.num_nodes()];
        let mut queue = std::collections::VecDeque::new();
        cost[self.source] = 0;
        queue.push_back(self.source);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                let v = v as usize;
                if cost[v] < 0 {
                    cost[v] = cost[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        cost
    }

    /// Parallel BFS under `model`, un-cancellable. Returns per-node levels
    /// and the number of level iterations executed.
    pub fn run(&self, exec: &Executor, model: Model, g: &Graph) -> (Vec<i32>, usize) {
        tpm_kernels::util::infallible(model, self.try_run(exec, model, g, &CancelToken::new()))
    }

    /// [`Self::run`] under `token`: each phase of each level is one
    /// cancellable region, so a fired token stops the search at the next
    /// chunk boundary.
    pub fn try_run(
        &self,
        exec: &Executor,
        model: Model,
        g: &Graph,
        token: &CancelToken,
    ) -> Result<(Vec<i32>, usize), ExecError> {
        let n = g.num_nodes();
        let cost: Vec<AtomicI32> = (0..n).map(|_| AtomicI32::new(-1)).collect();
        let frontier: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let updating: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let visited: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        cost[self.source].store(0, Ordering::Relaxed);
        frontier[self.source].store(true, Ordering::Relaxed);
        visited[self.source].store(true, Ordering::Relaxed);
        let mut levels = 0;
        loop {
            // Phase 1: expand the frontier.
            exec.try_parallel_for(model, 0..n, token, &|chunk| {
                for i in chunk {
                    if frontier[i].load(Ordering::Relaxed) {
                        frontier[i].store(false, Ordering::Relaxed);
                        let ci = cost[i].load(Ordering::Relaxed);
                        for &j in g.neighbors(i) {
                            let j = j as usize;
                            if !visited[j].load(Ordering::Relaxed) {
                                // Benign same-value race: every writer in
                                // this level stores ci + 1.
                                cost[j].store(ci + 1, Ordering::Relaxed);
                                updating[j].store(true, Ordering::Relaxed);
                            }
                        }
                    }
                }
            })?;
            // Phase 2: commit newly discovered nodes.
            let stop = AtomicBool::new(true);
            exec.try_parallel_for(model, 0..n, token, &|chunk| {
                for j in chunk {
                    if updating[j].load(Ordering::Relaxed) {
                        updating[j].store(false, Ordering::Relaxed);
                        visited[j].store(true, Ordering::Relaxed);
                        frontier[j].store(true, Ordering::Relaxed);
                        stop.store(false, Ordering::Relaxed);
                    }
                }
            })?;
            levels += 1;
            if stop.load(Ordering::Relaxed) {
                break;
            }
        }
        Ok((
            cost.into_iter().map(AtomicI32::into_inner).collect(),
            levels,
        ))
    }

    /// Simulator descriptor: `2 × levels` full-array phases with irregular
    /// per-chunk work and cache-hostile access (high bytes per iteration).
    pub fn sim_workload(&self, levels: usize) -> PhasedWorkload {
        let phase = LoopWorkload {
            iters: self.nodes as u64,
            work_ns_per_iter: 1.8,
            bytes_per_iter: 20.0,
            imbalance: Imbalance::Random {
                seed: self.seed,
                spread: 0.6,
            },
        };
        let commit = LoopWorkload {
            iters: self.nodes as u64,
            work_ns_per_iter: 0.8,
            bytes_per_iter: 8.0,
            imbalance: Imbalance::Uniform,
        };
        let mut phases = Vec::with_capacity(2 * levels);
        for _ in 0..levels {
            phases.push(phase);
            phases.push(commit);
        }
        PhasedWorkload::new(phases)
    }

    /// Expected level count for the paper-scale graph (diameter of a random
    /// graph with mean degree 4.5 on 16 M nodes ≈ log-degree diameter).
    pub fn paper_levels() -> usize {
        12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_six_versions_match_sequential() {
        let b = Bfs::native(2_000);
        let g = b.generate();
        let expected = b.seq(&g);
        let exec = Executor::new(3);
        for model in Model::ALL {
            let (got, levels) = b.run(&exec, model, &g);
            assert_eq!(got, expected, "{model}");
            assert!(levels >= 1);
        }
    }

    #[test]
    fn unreachable_nodes_stay_minus_one() {
        // A graph where node 0 has no outgoing edges reaching everyone:
        // build tiny custom graph: 0 -> 1, 2 isolated.
        let g = Graph {
            offsets: vec![0, 1, 1, 1],
            edges: vec![1],
        };
        let b = Bfs::native(3);
        let seq = b.seq(&g);
        assert_eq!(seq, vec![0, 1, -1]);
        let exec = Executor::new(2);
        let (par, _) = b.run(&exec, Model::OmpFor, &g);
        assert_eq!(par, seq);
    }

    #[test]
    fn levels_match_max_cost() {
        let b = Bfs::native(1_000);
        let g = b.generate();
        let exec = Executor::new(2);
        let (cost, levels) = b.run(&exec, Model::CilkSpawn, &g);
        let max_cost = cost.iter().copied().max().unwrap();
        // One level iteration per BFS depth, plus the final empty round.
        assert!(levels as i32 >= max_cost);
    }

    #[test]
    fn sim_workload_has_two_phases_per_level() {
        let w = Bfs::paper().sim_workload(5);
        assert_eq!(w.phases.len(), 10);
        assert!(w.total_work_ns() > 0.0);
    }
}
