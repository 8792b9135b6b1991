//! Synthetic graph generation for BFS (substitute for Rodinia's
//! `graph16M.txt` input, which is not distributable offline).
//!
//! Rodinia's BFS inputs are random graphs with uniform out-degree in a small
//! range; the generator reproduces that shape deterministically in CSR form.

use tpm_sync::{CancelReason, CancelToken, SplitMix64};

/// Nodes generated between cancellation polls in [`Graph::try_random`].
const POLL_EVERY_NODES: usize = 1024;

/// A directed graph in CSR (compressed sparse row) form.
#[derive(Debug, Clone)]
pub struct Graph {
    /// `offsets[i]..offsets[i+1]` indexes node `i`'s out-edges in `edges`.
    pub offsets: Vec<usize>,
    /// Flattened adjacency lists.
    pub edges: Vec<u32>,
}

impl Graph {
    /// Generates a random graph: each node gets a uniform out-degree in
    /// `[min_deg, max_deg]` with uniformly random neighbors (Rodinia's
    /// generator shape). Deterministic in `seed`.
    pub fn random(nodes: usize, min_deg: usize, max_deg: usize, seed: u64) -> Self {
        Self::try_random(nodes, min_deg, max_deg, seed, &CancelToken::new())
            .expect("a fresh token never fires")
    }

    /// [`Self::random`] under a cancellation token, polled every
    /// `POLL_EVERY_NODES` (1024) nodes. Generation is sequential by nature:
    /// each node's degree decides where the next node's draws start in the
    /// stream.
    pub fn try_random(
        nodes: usize,
        min_deg: usize,
        max_deg: usize,
        seed: u64,
        token: &CancelToken,
    ) -> Result<Self, CancelReason> {
        assert!(nodes > 0);
        assert!(min_deg <= max_deg);
        let mut rng = SplitMix64::new(seed);
        let mut offsets = Vec::with_capacity(nodes + 1);
        let mut edges = Vec::new();
        offsets.push(0);
        for node in 0..nodes {
            if node % POLL_EVERY_NODES == 0 {
                token.check()?;
            }
            let deg = min_deg + rng.next_bounded((max_deg - min_deg + 1) as u64) as usize;
            for _ in 0..deg {
                edges.push(rng.next_bounded(nodes as u64) as u32);
            }
            offsets.push(edges.len());
        }
        Ok(Self { offsets, edges })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Node `i`'s neighbors.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.edges[self.offsets[i]..self.offsets[i + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a = Graph::random(100, 2, 7, 42);
        let b = Graph::random(100, 2, 7, 42);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn cancelled_generation_stops_and_sizes_stay_under_the_bound() {
        let token = CancelToken::new();
        token.cancel();
        let r = Graph::try_random(5_000, 2, 7, 42, &token);
        assert_eq!(r.unwrap_err(), CancelReason::Cancelled);
        let b = crate::Bfs::native(5_000);
        let g = b.try_generate(&CancelToken::new()).unwrap();
        assert_eq!(g.edges, b.generate().edges);
        let bytes = g.offsets.len() * 8 + g.edges.len() * 4;
        assert!(bytes <= b.max_input_bytes());
    }

    #[test]
    fn degrees_respect_bounds() {
        let g = Graph::random(500, 2, 7, 1);
        assert_eq!(g.num_nodes(), 500);
        for i in 0..500 {
            let d = g.neighbors(i).len();
            assert!((2..=7).contains(&d), "node {i} degree {d}");
        }
    }

    #[test]
    fn edge_targets_are_valid() {
        let g = Graph::random(300, 1, 4, 9);
        assert!(g.edges.iter().all(|&e| (e as usize) < 300));
        assert_eq!(*g.offsets.last().unwrap(), g.num_edges());
    }
}
