//! Matvec: `y = A·x` (Fig. 3).
//!
//! "Matvec is matrix vector multiplication of problem size 40k ... cilk_for
//! performs around 25% worse than the other versions" — more arithmetic per
//! iteration than Axpy, so scheduling overhead matters less.

use tpm_core::{ExecError, Executor, KernelVariant, Model};
use tpm_sim::{Imbalance, LoopWorkload};
use tpm_sync::CancelToken;

use crate::util::UnsafeSlice;

/// Accumulator lanes of the optimized dot product — 8 independent partials
/// break the serial addition chain of `iter().sum()` so the row·x loop
/// vectorizes.
const LANES: usize = 8;

/// Optimized dot product with split accumulators (reassociates; verified
/// against the reference with the relative-epsilon/ULP helper).
fn dot_opt(row: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(row.len(), x.len());
    let mut lanes = [0.0f64; LANES];
    let mut rc = row.chunks_exact(LANES);
    let mut xc = x.chunks_exact(LANES);
    for (rv, xv) in (&mut rc).zip(&mut xc) {
        for j in 0..LANES {
            lanes[j] += rv[j] * xv[j];
        }
    }
    let mut tail = 0.0;
    for (ri, xi) in rc.remainder().iter().zip(xc.remainder()) {
        tail += ri * xi;
    }
    tail + ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]))
}

/// Matvec problem instance (row-major dense `n×n`).
#[derive(Debug, Clone, Copy)]
pub struct Matvec {
    /// Matrix dimension (paper: 40 k).
    pub n: usize,
}

impl Matvec {
    /// The paper's configuration: n = 40 k.
    pub fn paper() -> Self {
        Self { n: 40_000 }
    }

    /// A scaled-down instance for native runs.
    pub fn native(n: usize) -> Self {
        Self { n }
    }

    /// Allocates `(A, x)` deterministically.
    pub fn alloc(&self) -> (Vec<f64>, Vec<f64>) {
        (
            crate::util::random_vec(self.n * self.n, 0x3A7),
            crate::util::random_vec(self.n, 0x9E1),
        )
    }

    /// [`Self::alloc`] with parallel first-touch under `model`.
    pub fn alloc_on(&self, exec: &Executor, model: Model) -> (Vec<f64>, Vec<f64>) {
        crate::util::infallible(model, self.try_alloc_on(exec, model, &CancelToken::new()))
    }

    /// Cancellable [`Self::alloc_on`] (see
    /// [`try_random_vec_on`](crate::util::try_random_vec_on)): the service's
    /// input-cache miss path.
    pub fn try_alloc_on(
        &self,
        exec: &Executor,
        model: Model,
        token: &CancelToken,
    ) -> Result<(Vec<f64>, Vec<f64>), ExecError> {
        Ok((
            crate::util::try_random_vec_on(exec, model, self.n * self.n, 0x3A7, token)?,
            crate::util::try_random_vec_on(exec, model, self.n, 0x9E1, token)?,
        ))
    }

    /// Sequential reference.
    pub fn seq(&self, a: &[f64], x: &[f64]) -> Vec<f64> {
        let n = self.n;
        (0..n)
            .map(|i| {
                let row = &a[i * n..(i + 1) * n];
                row.iter().zip(x).map(|(aij, xj)| aij * xj).sum()
            })
            .collect()
    }

    /// Runs under `model`: the parallel loop is over rows (paper-faithful
    /// [`KernelVariant::Reference`] body), un-cancellable.
    pub fn run(&self, exec: &Executor, model: Model, a: &[f64], x: &[f64]) -> Vec<f64> {
        let token = CancelToken::new();
        let r = self.try_run_v(exec, model, KernelVariant::Reference, a, x, &token);
        crate::util::infallible(model, r)
    }

    /// Runs under `model` with the selected data-path `variant`, polling
    /// `token` once per row.
    pub fn try_run_v(
        &self,
        exec: &Executor,
        model: Model,
        variant: KernelVariant,
        a: &[f64],
        x: &[f64],
        token: &CancelToken,
    ) -> Result<Vec<f64>, ExecError> {
        let n = self.n;
        let mut y = vec![0.0; n];
        let out = UnsafeSlice::new(&mut y);
        exec.try_parallel_for(model, 0..n, token, &|chunk| {
            for i in chunk {
                if token.is_cancelled() {
                    return;
                }
                let row = &a[i * n..(i + 1) * n];
                let dot = match variant {
                    KernelVariant::Reference => row.iter().zip(x).map(|(aij, xj)| aij * xj).sum(),
                    KernelVariant::Optimized => dot_opt(row, x),
                };
                // SAFETY: disjoint chunks ⇒ disjoint rows.
                unsafe { out.write(i, dot) };
            }
        })?;
        Ok(y)
    }

    /// Simulator descriptor: one iteration = one row dot product
    /// (`n` mul-adds, `8n` bytes of matrix row streamed; `x` stays cached).
    pub fn sim_workload(&self) -> LoopWorkload {
        LoopWorkload {
            iters: self.n as u64,
            work_ns_per_iter: self.n as f64 * 0.4,
            bytes_per_iter: self.n as f64 * 8.0,
            imbalance: Imbalance::Uniform,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::max_abs_diff;

    #[test]
    fn all_six_versions_match_sequential() {
        let k = Matvec::native(97);
        let (a, x) = k.alloc();
        let expected = k.seq(&a, &x);
        let exec = Executor::new(3);
        for model in Model::ALL {
            let y = k.run(&exec, model, &a, &x);
            assert!(max_abs_diff(&y, &expected) < 1e-9, "{model}");
        }
    }

    #[test]
    fn optimized_variant_matches_reference_within_tolerance() {
        let k = Matvec::native(101); // odd: tail lanes exercised every row
        let (a, x) = k.alloc();
        let expected = k.seq(&a, &x);
        let exec = Executor::new(3);
        for model in Model::ALL {
            let y = k
                .try_run_v(
                    &exec,
                    model,
                    KernelVariant::Optimized,
                    &a,
                    &x,
                    &CancelToken::new(),
                )
                .unwrap();
            tpm_core::approx::slices_close(&y, &expected, 1e-12)
                .unwrap_or_else(|e| panic!("{model}: {e}"));
        }
    }

    #[test]
    fn single_row_matrix() {
        let k = Matvec::native(1);
        let (a, x) = k.alloc();
        let exec = Executor::new(2);
        let y = k.run(&exec, Model::OmpFor, &a, &x);
        assert_eq!(y.len(), 1);
        assert!((y[0] - a[0] * x[0]).abs() < 1e-12);
    }
}
