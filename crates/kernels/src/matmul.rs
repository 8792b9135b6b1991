//! Matmul: `C = A·B` (Fig. 4).
//!
//! "Matmul is matrix multiplication of 2k problem size ... other versions
//! perform around 10% better than cilk_for" — the most compute-intense
//! kernel, where "we see less impact of runtime scheduling to the
//! performance".

use std::ops::Range;

use tpm_core::{ExecError, Executor, KernelVariant, Model};
use tpm_sim::{Imbalance, LoopWorkload};
use tpm_sync::CancelToken;

use crate::util::UnsafeSlice;

/// Rows of `C` per parallel block (the optimized parallel grain): small
/// enough that A's block (`MB×KB`) and C's block stay cache-resident, large
/// enough to amortize dispatch.
const MB: usize = 32;
/// Depth of a k-panel: `KB×JB` of B (256 KiB) is the L2-resident tile every
/// row in the block re-reads.
const KB: usize = 64;
/// Width of a j-panel: one C-row segment (4 KiB) fits L1 alongside four
/// B-row segments.
const JB: usize = 512;
/// k-unroll of the register-blocked micro-kernel: four B rows are folded
/// into each C-row segment per pass, quartering C load/store traffic.
const KU: usize = 4;

/// Register-blocked micro-kernel:
/// `crow[j0..j1] += Σ_{k∈k0..k1} arow[k]·B[k][j0..j1]`.
///
/// Unrolls k by [`KU`]: each inner-loop element folds four multiplies into
/// one C element, so C traffic drops 4× and the compiler vectorizes over
/// `j` with independent element updates (no reassociation across `j`; the
/// k-order within a row changes, covered by the tolerance checks).
fn mm_row_tile(
    crow: &mut [f64],
    arow: &[f64],
    b: &[f64],
    n: usize,
    ks: Range<usize>,
    js: Range<usize>,
) {
    let w = js.len();
    let cr = &mut crow[js.start..js.end];
    let mut k = ks.start;
    while k + KU <= ks.end {
        let (a0, a1, a2, a3) = (arow[k], arow[k + 1], arow[k + 2], arow[k + 3]);
        let b0 = &b[k * n + js.start..][..w];
        let b1 = &b[(k + 1) * n + js.start..][..w];
        let b2 = &b[(k + 2) * n + js.start..][..w];
        let b3 = &b[(k + 3) * n + js.start..][..w];
        for j in 0..w {
            cr[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
        k += KU;
    }
    while k < ks.end {
        let ak = arow[k];
        let bk = &b[k * n + js.start..][..w];
        for j in 0..w {
            cr[j] += ak * bk[j];
        }
        k += 1;
    }
}

/// Cache-blocked multiply of one row-block: for each `(k, j)` panel, every
/// row of the block streams through the same L2-resident B tile.
/// `c_rows` holds the block's rows of C contiguously (`rows.len() × n`).
fn mm_block(c_rows: &mut [f64], rows: Range<usize>, a: &[f64], b: &[f64], n: usize) {
    for k0 in (0..n).step_by(KB) {
        let k1 = (k0 + KB).min(n);
        for j0 in (0..n).step_by(JB) {
            let j1 = (j0 + JB).min(n);
            for i in rows.clone() {
                let crow = &mut c_rows[(i - rows.start) * n..][..n];
                let arow = &a[i * n..][..n];
                mm_row_tile(crow, arow, b, n, k0..k1, j0..j1);
            }
        }
    }
}

/// Matmul problem instance (row-major dense `n×n`).
#[derive(Debug, Clone, Copy)]
pub struct Matmul {
    /// Matrix dimension (paper: 2 k).
    pub n: usize,
}

impl Matmul {
    /// The paper's configuration: n = 2 k.
    pub fn paper() -> Self {
        Self { n: 2_000 }
    }

    /// A scaled-down instance for native runs.
    pub fn native(n: usize) -> Self {
        Self { n }
    }

    /// Allocates `(A, B)` deterministically.
    pub fn alloc(&self) -> (Vec<f64>, Vec<f64>) {
        (
            crate::util::random_vec(self.n * self.n, 0xAB),
            crate::util::random_vec(self.n * self.n, 0xCD),
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
            crate::util::try_random_vec_on(exec, model, self.n * self.n, 0xAB, token)?,
            crate::util::try_random_vec_on(exec, model, self.n * self.n, 0xCD, token)?,
        ))
    }

    /// Sequential reference (i-k-j loop order for cache behaviour).
    pub fn seq(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let n = self.n;
        let mut c = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                let aik = a[i * n + k];
                let brow = &b[k * n..(k + 1) * n];
                let crow = &mut c[i * n..(i + 1) * n];
                for (cij, bkj) in crow.iter_mut().zip(brow) {
                    *cij += aik * bkj;
                }
            }
        }
        c
    }

    /// Sequential cache-blocked reference (same blocking as the optimized
    /// parallel path, single thread).
    pub fn seq_blocked(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let n = self.n;
        let mut c = vec![0.0; n * n];
        if n > 0 {
            mm_block(&mut c, 0..n, a, b, n);
        }
        c
    }

    /// Runs under `model`: the parallel loop is over rows of `C`
    /// (paper-faithful [`KernelVariant::Reference`] body), un-cancellable.
    pub fn run(&self, exec: &Executor, model: Model, a: &[f64], b: &[f64]) -> Vec<f64> {
        let token = CancelToken::new();
        let r = self.try_run_v(exec, model, KernelVariant::Reference, a, b, &token);
        crate::util::infallible(model, r)
    }

    /// Runs under `model` with the selected data-path `variant`, polling
    /// `token` once per row of `C`, or once per block in the optimized
    /// variant, which parallelizes over 32-row blocks of `C` and runs the
    /// cache-blocked, register-blocked multiply on each block.
    pub fn try_run_v(
        &self,
        exec: &Executor,
        model: Model,
        variant: KernelVariant,
        a: &[f64],
        b: &[f64],
        token: &CancelToken,
    ) -> Result<Vec<f64>, ExecError> {
        let n = self.n;
        let mut c = vec![0.0; n * n];
        let out = UnsafeSlice::new(&mut c);
        match variant {
            KernelVariant::Reference => exec.try_parallel_for(model, 0..n, token, &|chunk| {
                for i in chunk {
                    if token.is_cancelled() {
                        return;
                    }
                    // SAFETY: disjoint chunks ⇒ disjoint C rows.
                    let crow = unsafe { out.slice_mut(i * n..(i + 1) * n) };
                    for k in 0..n {
                        let aik = a[i * n + k];
                        let brow = &b[k * n..(k + 1) * n];
                        for (cij, bkj) in crow.iter_mut().zip(brow) {
                            *cij += aik * bkj;
                        }
                    }
                }
            }),
            KernelVariant::Optimized => {
                exec.try_parallel_for(model, 0..n.div_ceil(MB), token, &|chunk| {
                    for bi in chunk {
                        if token.is_cancelled() {
                            return;
                        }
                        let rows = bi * MB..((bi + 1) * MB).min(n);
                        // SAFETY: disjoint block chunks ⇒ disjoint C row
                        // blocks.
                        let c_rows = unsafe { out.slice_mut(rows.start * n..rows.end * n) };
                        mm_block(c_rows, rows, a, b, n);
                    }
                })
            }
        }?;
        Ok(c)
    }

    /// Simulator descriptor: one iteration = one row of `C` (`n²` mul-adds);
    /// high arithmetic intensity, light effective traffic (B is reused).
    pub fn sim_workload(&self) -> LoopWorkload {
        let n = self.n as f64;
        LoopWorkload {
            iters: self.n as u64,
            work_ns_per_iter: n * n * 0.45,
            bytes_per_iter: n * 16.0,
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
        let k = Matmul::native(33);
        let (a, b) = k.alloc();
        let expected = k.seq(&a, &b);
        let exec = Executor::new(3);
        for model in Model::ALL {
            let c = k.run(&exec, model, &a, &b);
            assert!(max_abs_diff(&c, &expected) < 1e-9, "{model}");
        }
    }

    #[test]
    fn blocked_variants_match_sequential_within_tolerance() {
        // 67 rows: 3 row-blocks (last one 3 rows), k/j tiles hit the matrix
        // edge, and the micro-kernel's k-tail (67 % 4 = 3) is exercised.
        let k = Matmul::native(67);
        let (a, b) = k.alloc();
        let expected = k.seq(&a, &b);
        tpm_core::approx::slices_close(&k.seq_blocked(&a, &b), &expected, 1e-12)
            .unwrap_or_else(|e| panic!("seq_blocked: {e}"));
        let exec = Executor::new(3);
        for model in Model::ALL {
            let c = k
                .try_run_v(
                    &exec,
                    model,
                    KernelVariant::Optimized,
                    &a,
                    &b,
                    &CancelToken::new(),
                )
                .unwrap();
            tpm_core::approx::slices_close(&c, &expected, 1e-12)
                .unwrap_or_else(|e| panic!("{model}: {e}"));
        }
    }

    #[test]
    fn identity_times_identity() {
        let k = Matmul::native(4);
        let mut a = vec![0.0; 16];
        for i in 0..4 {
            a[i * 4 + i] = 1.0;
        }
        let exec = Executor::new(2);
        let c = k.run(&exec, Model::CilkFor, &a, &a);
        assert_eq!(c, a);
    }
}
