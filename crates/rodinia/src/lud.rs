//! Rodinia LUD (Fig. 8): LU decomposition.
//!
//! "LU Decomposition accelerates solving linear equation by using upper and
//! lower triangular products of a matrix. Each sub-equation is handled in
//! separate parallel region, so the algorithm has two parallel loops with
//! dependency to an outer loop. In each parallel loop, thread receives the
//! same number of tasks with possible different amount of workload."
//!
//! Doolittle elimination without pivoting (Rodinia's formulation): per pivot
//! `k`, a parallel column-scale loop then a parallel trailing-submatrix
//! update — `2(n-1)` shrinking phases, so per-phase overhead grows relative
//! to work as the factorization proceeds.

use tpm_core::{ExecError, Executor, Model};
use tpm_sim::{Imbalance, LoopWorkload, PhasedWorkload};
use tpm_sync::CancelToken;

use tpm_kernels::util::UnsafeSlice;

/// LUD problem instance.
#[derive(Debug, Clone, Copy)]
pub struct Lud {
    /// Matrix dimension (paper/Rodinia default: 2048).
    pub n: usize,
    /// Input seed.
    pub seed: u64,
}

impl Lud {
    /// The paper's configuration (Rodinia 3.1 default size 2048).
    pub fn paper() -> Self {
        Self {
            n: 2048,
            seed: 0x14D,
        }
    }

    /// A scaled-down instance for native runs.
    pub fn native(n: usize) -> Self {
        Self { n, seed: 0x14D }
    }

    /// Generates a diagonally dominant matrix (guarantees a pivot-free LU
    /// factorization exists — Rodinia's inputs have the same property).
    pub fn generate(&self) -> Vec<f64> {
        let n = self.n;
        let mut a = tpm_kernels::util::random_vec(n * n, self.seed);
        for i in 0..n {
            a[i * n + i] += n as f64;
        }
        a
    }

    /// Sequential in-place Doolittle factorization: returns the combined
    /// L\U matrix (unit lower diagonal implicit).
    pub fn seq(&self, a: &[f64]) -> Vec<f64> {
        let n = self.n;
        let mut m = a.to_vec();
        for k in 0..n {
            let pivot = m[k * n + k];
            for i in (k + 1)..n {
                m[i * n + k] /= pivot;
            }
            for i in (k + 1)..n {
                let lik = m[i * n + k];
                for j in (k + 1)..n {
                    m[i * n + j] -= lik * m[k * n + j];
                }
            }
        }
        m
    }

    /// Runs under `model`: per pivot, a parallel scale loop and a parallel
    /// trailing update loop (rows are the parallel dimension);
    /// un-cancellable.
    pub fn run(&self, exec: &Executor, model: Model, a: &[f64]) -> Vec<f64> {
        tpm_kernels::util::infallible(model, self.try_run(exec, model, a, &CancelToken::new()))
    }

    /// [`Self::run`] under `token`, stopping at the first chunk boundary
    /// after it fires.
    pub fn try_run(
        &self,
        exec: &Executor,
        model: Model,
        a: &[f64],
        token: &CancelToken,
    ) -> Result<Vec<f64>, ExecError> {
        let n = self.n;
        let mut m = a.to_vec();
        for k in 0..n {
            let pivot = m[k * n + k];
            if n - k - 1 == 0 {
                break;
            }
            {
                let grid = UnsafeSlice::new(&mut m);
                exec.try_parallel_for(model, (k + 1)..n, token, &|rows| {
                    for i in rows {
                        // SAFETY: disjoint rows.
                        let row = unsafe { grid.slice_mut(i * n..(i + 1) * n) };
                        row[k] /= pivot;
                    }
                })?;
            }
            {
                // Copy the pivot row up front: the update phase then only
                // writes disjoint rows below it (race-free by construction).
                let pivot_row: Vec<f64> = m[k * n + k + 1..(k + 1) * n].to_vec();
                let grid = UnsafeSlice::new(&mut m);
                exec.try_parallel_for(model, (k + 1)..n, token, &|rows| {
                    for i in rows {
                        // SAFETY: disjoint rows.
                        let row = unsafe { grid.slice_mut(i * n..(i + 1) * n) };
                        let lik = row[k];
                        for (off, j) in ((k + 1)..n).enumerate() {
                            row[j] -= lik * pivot_row[off];
                        }
                    }
                })?;
            }
        }
        Ok(m)
    }

    /// Multiplies the factorization back: `L·U`, for verification.
    pub fn reconstruct(&self, lu: &[f64]) -> Vec<f64> {
        let n = self.n;
        let mut out = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                let kmax = i.min(j);
                for k in 0..=kmax {
                    let l = if k == i { 1.0 } else { lu[i * n + k] };
                    let u = lu[k * n + j];
                    if k < i {
                        s += l * u;
                    } else {
                        s += u; // l == 1 on the diagonal
                    }
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    /// Simulator descriptor: `2(n-1)` shrinking phases. To keep event counts
    /// tractable at paper scale, pivots are grouped by `stride` (costs are
    /// aggregated exactly; only phase boundaries coarsen).
    pub fn sim_workload(&self, stride: usize) -> PhasedWorkload {
        let n = self.n as u64;
        let stride = stride.max(1) as u64;
        let mut phases = Vec::new();
        let mut k = 0u64;
        while k + 1 < n {
            let span = stride.min(n - 1 - k);
            let rows = n - k - 1;
            // Scale loop: one division per row (span pivots' worth).
            phases.push(LoopWorkload {
                iters: rows,
                work_ns_per_iter: 1.2 * span as f64,
                bytes_per_iter: 8.0 * span as f64,
                imbalance: Imbalance::Uniform,
            });
            // Update loop: (n-k-1) mul-adds per row.
            phases.push(LoopWorkload {
                iters: rows,
                work_ns_per_iter: 0.5 * rows as f64 * span as f64,
                bytes_per_iter: 8.0 * rows as f64 * span as f64,
                imbalance: Imbalance::Uniform,
            });
            k += span;
        }
        PhasedWorkload::new(phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpm_kernels::util::max_abs_diff;

    #[test]
    fn all_six_versions_match_sequential() {
        let l = Lud::native(24);
        let a = l.generate();
        let expected = l.seq(&a);
        let exec = Executor::new(3);
        for model in Model::ALL {
            let got = l.run(&exec, model, &a);
            assert!(max_abs_diff(&got, &expected) < 1e-8, "{model}");
        }
    }

    #[test]
    fn factorization_reconstructs_the_input() {
        let l = Lud::native(16);
        let a = l.generate();
        let lu = l.seq(&a);
        let back = l.reconstruct(&lu);
        assert!(max_abs_diff(&back, &a) < 1e-8);
    }

    #[test]
    fn one_by_one_matrix() {
        let l = Lud::native(1);
        let a = vec![3.5];
        let exec = Executor::new(2);
        assert_eq!(l.run(&exec, Model::OmpFor, &a), vec![3.5]);
    }

    #[test]
    fn sim_phases_shrink() {
        let w = Lud::native(64).sim_workload(8);
        assert!(!w.phases.is_empty());
        let first = w.phases[1].work_ns_per_iter * w.phases[1].iters as f64;
        let last = w.phases[w.phases.len() - 1].work_ns_per_iter
            * w.phases[w.phases.len() - 1].iters as f64;
        assert!(first > last);
    }
}
