//! Axpy: `y = a·x + y` (Fig. 1).
//!
//! "The vector size used in evaluation is 100 Million" — the paper's
//! memory-bandwidth-bound streaming kernel, where `cilk_for`'s steal-based
//! chunk distribution costs ~2× against every other variant.

use tpm_core::{ExecError, Executor, KernelVariant, Model};
use tpm_sim::{Imbalance, LoopWorkload};
use tpm_sync::CancelToken;

use crate::util::{UnsafeSlice, POLL_EVERY};

/// Unroll width of the optimized body: 8 independent f64 lanes per
/// iteration, two AVX2 vectors' worth, enough for the compiler to
/// auto-vectorize and keep the load/FMA pipes busy.
const LANES: usize = 8;

/// Optimized chunk body: `ys[j] += a·xs[j]`, unrolled over [`LANES`]
/// independent lanes. No reassociation happens (each element is an
/// independent FMA), so results are bitwise-identical to the scalar body.
fn axpy_chunk_opt(a: f64, xs: &[f64], ys: &mut [f64]) {
    debug_assert_eq!(xs.len(), ys.len());
    let mut yc = ys.chunks_exact_mut(LANES);
    let mut xc = xs.chunks_exact(LANES);
    for (yv, xv) in (&mut yc).zip(&mut xc) {
        for j in 0..LANES {
            yv[j] += a * xv[j];
        }
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += a * xi;
    }
}

/// Axpy problem instance.
#[derive(Debug, Clone, Copy)]
pub struct Axpy {
    /// Vector length (paper: 100 M).
    pub n: usize,
    /// Scalar multiplier.
    pub a: f64,
}

impl Axpy {
    /// The paper's configuration: N = 100 M.
    pub fn paper() -> Self {
        Self {
            n: 100_000_000,
            a: 2.5,
        }
    }

    /// A scaled-down instance for native runs on small hosts.
    pub fn native(n: usize) -> Self {
        Self { n, a: 2.5 }
    }

    /// Allocates deterministic input vectors `(x, y)`.
    pub fn alloc(&self) -> (Vec<f64>, Vec<f64>) {
        (
            crate::util::random_vec(self.n, 0xA11),
            crate::util::random_vec(self.n, 0xB22),
        )
    }

    /// [`Self::alloc`] with parallel first-touch under `model` (same values,
    /// pages placed by the threads that will stream them).
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
            crate::util::try_random_vec_on(exec, model, self.n, 0xA11, token)?,
            crate::util::try_random_vec_on(exec, model, self.n, 0xB22, token)?,
        ))
    }

    /// Sequential reference.
    pub fn seq(&self, x: &[f64], y: &mut [f64]) {
        for i in 0..self.n {
            y[i] += self.a * x[i];
        }
    }

    /// Runs the kernel under `model` on `exec`, updating `y` in place
    /// (paper-faithful [`KernelVariant::Reference`] body), un-cancellable.
    pub fn run(&self, exec: &Executor, model: Model, x: &[f64], y: &mut [f64]) {
        let token = CancelToken::new();
        let r = self.try_run_v(exec, model, KernelVariant::Reference, x, y, &token);
        crate::util::infallible(model, r);
    }

    /// Runs the kernel under `model` with the selected data-path `variant`,
    /// polling `token` once per [`POLL_EVERY`] block of each chunk. On `Err`
    /// a prefix of each chunk of `y` may already be updated.
    pub fn try_run_v(
        &self,
        exec: &Executor,
        model: Model,
        variant: KernelVariant,
        x: &[f64],
        y: &mut [f64],
        token: &CancelToken,
    ) -> Result<(), ExecError> {
        let a = self.a;
        let out = UnsafeSlice::new(y);
        exec.try_parallel_for(model, 0..self.n, token, &|chunk| {
            // SAFETY: the executor hands out disjoint chunks.
            let ys = unsafe { out.slice_mut(chunk.clone()) };
            for (ys, xs) in ys.chunks_mut(POLL_EVERY).zip(x[chunk].chunks(POLL_EVERY)) {
                if token.is_cancelled() {
                    return;
                }
                match variant {
                    KernelVariant::Reference => {
                        for (yi, xi) in ys.iter_mut().zip(xs) {
                            *yi += a * xi;
                        }
                    }
                    KernelVariant::Optimized => axpy_chunk_opt(a, xs, ys),
                }
            }
        })
    }

    /// Simulator descriptor: ~2 flops and 24 bytes (two reads + one write)
    /// per iteration — firmly bandwidth-bound.
    pub fn sim_workload(&self) -> LoopWorkload {
        LoopWorkload {
            iters: self.n as u64,
            work_ns_per_iter: 0.35,
            bytes_per_iter: 24.0,
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
        let k = Axpy::native(10_001);
        let (x, y0) = k.alloc();
        let mut expected = y0.clone();
        k.seq(&x, &mut expected);
        let exec = Executor::new(3);
        for model in Model::ALL {
            let mut y = y0.clone();
            k.run(&exec, model, &x, &mut y);
            assert!(
                max_abs_diff(&y, &expected) < 1e-12,
                "{model} diverged from sequential"
            );
        }
    }

    #[test]
    fn optimized_variant_is_bitwise_identical() {
        // Axpy never reassociates: both variants must agree exactly.
        let k = Axpy::native(4_099); // not a multiple of the lane width
        let (x, y0) = k.alloc();
        let mut expected = y0.clone();
        k.seq(&x, &mut expected);
        let exec = Executor::new(3);
        for model in Model::ALL {
            let mut y = y0.clone();
            k.try_run_v(
                &exec,
                model,
                KernelVariant::Optimized,
                &x,
                &mut y,
                &CancelToken::new(),
            )
            .unwrap();
            assert_eq!(y, expected, "{model}");
        }
    }

    #[test]
    fn sim_workload_is_bandwidth_bound() {
        let wl = Axpy::paper().sim_workload();
        assert_eq!(wl.iters, 100_000_000);
        // mem time at full BW exceeds compute time per iteration.
        assert!(wl.bytes_per_iter / 29.5 > wl.work_ns_per_iter);
    }
}
