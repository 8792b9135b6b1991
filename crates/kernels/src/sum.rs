//! Sum: `Σ a·x[i]` (Fig. 2).
//!
//! "Sum is the combination of worksharing and reduction, showing that
//! workstealing for worksharing+reduction is not the right choice" —
//! `omp_task` wins, `cilk_for` loses by ~5×.

use tpm_core::{ExecError, Executor, KernelVariant, Model};
use tpm_sim::{Imbalance, LoopWorkload};
use tpm_sync::CancelToken;

use crate::util::POLL_EVERY;

/// Accumulator lanes of the optimized body: 8 independent partial sums break
/// the loop-carried addition chain so the compiler can vectorize and the
/// FMA units pipeline; the lanes combine pairwise at the end.
const LANES: usize = 8;

/// Optimized chunk body: `Σ a·x[i]` with [`LANES`] split accumulators.
/// Reassociates the sum, so results differ from the scalar body in the low
/// bits — verified against it with the relative-epsilon/ULP helper.
fn sum_chunk_opt(a: f64, xs: &[f64]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let mut it = xs.chunks_exact(LANES);
    for xv in &mut it {
        for j in 0..LANES {
            lanes[j] += a * xv[j];
        }
    }
    let mut tail = 0.0;
    for &xi in it.remainder() {
        tail += a * xi;
    }
    // Pairwise combine: ((0+4)+(2+6)) + ((1+5)+(3+7)).
    let mut acc = tail;
    acc += ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
    acc
}

/// Sum problem instance.
#[derive(Debug, Clone, Copy)]
pub struct Sum {
    /// Vector length (paper: 100 M).
    pub n: usize,
    /// Scalar multiplier.
    pub a: f64,
}

impl Sum {
    /// The paper's configuration: N = 100 M.
    pub fn paper() -> Self {
        Self {
            n: 100_000_000,
            a: 1.5,
        }
    }

    /// A scaled-down instance for native runs.
    pub fn native(n: usize) -> Self {
        Self { n, a: 1.5 }
    }

    /// Allocates the deterministic input vector.
    pub fn alloc(&self) -> Vec<f64> {
        crate::util::random_vec(self.n, 0x50AD)
    }

    /// [`Self::alloc`] with parallel first-touch under `model`.
    pub fn alloc_on(&self, exec: &Executor, model: Model) -> Vec<f64> {
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
    ) -> Result<Vec<f64>, ExecError> {
        crate::util::try_random_vec_on(exec, model, self.n, 0x50AD, token)
    }

    /// Sequential reference.
    pub fn seq(&self, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for &xi in x {
            acc += self.a * xi;
        }
        acc
    }

    /// Runs the reduction under `model` (paper-faithful
    /// [`KernelVariant::Reference`] body), un-cancellable.
    pub fn run(&self, exec: &Executor, model: Model, x: &[f64]) -> f64 {
        let token = CancelToken::new();
        let r = self.try_run_v(exec, model, KernelVariant::Reference, x, &token);
        crate::util::infallible(model, r)
    }

    /// Runs the reduction under `model` with the selected data-path
    /// `variant`, polling `token` once per [`POLL_EVERY`] block of each
    /// chunk. Each block's partial sum is added into the chunk's
    /// accumulator, so the association is fixed by the chunking alone.
    pub fn try_run_v(
        &self,
        exec: &Executor,
        model: Model,
        variant: KernelVariant,
        x: &[f64],
        token: &CancelToken,
    ) -> Result<f64, ExecError> {
        let a = self.a;
        exec.try_parallel_reduce(
            model,
            0..self.n,
            token,
            || 0.0f64,
            |l, r| l + r,
            |chunk, acc| {
                for block in x[chunk].chunks(POLL_EVERY) {
                    if token.is_cancelled() {
                        return;
                    }
                    *acc += match variant {
                        KernelVariant::Reference => {
                            let mut local = 0.0;
                            for &xi in block {
                                local += a * xi;
                            }
                            local
                        }
                        KernelVariant::Optimized => sum_chunk_opt(a, block),
                    };
                }
            },
        )
    }

    /// Simulator descriptor: one flop-ish and 8 bytes per iteration.
    pub fn sim_workload(&self) -> LoopWorkload {
        LoopWorkload {
            iters: self.n as u64,
            work_ns_per_iter: 0.3,
            bytes_per_iter: 8.0,
            imbalance: Imbalance::Uniform,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_six_versions_match_sequential() {
        let k = Sum::native(30_011);
        let x = k.alloc();
        let expected = k.seq(&x);
        let exec = Executor::new(4);
        for model in Model::ALL {
            let got = k.run(&exec, model, &x);
            // Floating-point reassociation: partials differ in order, so
            // allow a relative tolerance.
            let rel = (got - expected).abs() / expected.abs();
            assert!(rel < 1e-10, "{model}: {got} vs {expected}");
        }
    }

    #[test]
    fn optimized_variant_matches_reference_within_tolerance() {
        let k = Sum::native(30_013); // not a multiple of the lane width
        let x = k.alloc();
        let expected = k.seq(&x);
        let exec = Executor::new(4);
        for model in Model::ALL {
            let got = k
                .try_run_v(
                    &exec,
                    model,
                    KernelVariant::Optimized,
                    &x,
                    &CancelToken::new(),
                )
                .unwrap();
            tpm_core::approx::scalar_close(got, expected, 1e-10)
                .unwrap_or_else(|e| panic!("{model}: {e}"));
        }
    }

    #[test]
    fn statically_partitioned_models_are_bit_deterministic() {
        // Models with a fixed chunk→thread mapping reduce in a reproducible
        // order; work-stealing models may place chunks differently per run.
        let k = Sum::native(5_000);
        let x = k.alloc();
        let exec = Executor::new(3);
        for model in [Model::OmpFor, Model::CxxThread, Model::CxxAsync] {
            let a = k.run(&exec, model, &x);
            let b = k.run(&exec, model, &x);
            assert_eq!(a.to_bits(), b.to_bits(), "{model}");
        }
    }
}
