//! Rodinia SRAD (Fig. 10): speckle-reducing anisotropic diffusion.
//!
//! An ultrasound-image denoising stencil: each iteration computes a
//! diffusion-coefficient field from local gradients (loop 1) and then
//! applies the divergence update (loop 2). Uniform, reasonably heavy
//! per-pixel work with regular access — the paper's "equal workload" class
//! where all six variants converge. One pair of full-row loop bodies serves
//! `seq` and every model.

use std::ops::Range;

use tpm_core::{ExecError, Executor, Model};
use tpm_sim::{Imbalance, LoopWorkload, PhasedWorkload};
use tpm_sync::CancelToken;

use tpm_kernels::util::UnsafeSlice;

/// SRAD problem instance.
#[derive(Debug, Clone, Copy)]
pub struct Srad {
    /// Image dimension (Rodinia default 2048 for CPU runs).
    pub n: usize,
    /// Diffusion iterations.
    pub iterations: usize,
    /// Update rate λ.
    pub lambda: f64,
    /// Input seed.
    pub seed: u64,
}

impl Srad {
    /// The paper's configuration (Rodinia 3.1 defaults).
    pub fn paper() -> Self {
        Self {
            n: 2048,
            iterations: 100,
            lambda: 0.5,
            seed: 0x5AD,
        }
    }

    /// A scaled-down instance for native runs.
    pub fn native(n: usize, iterations: usize) -> Self {
        Self {
            n,
            iterations,
            lambda: 0.5,
            seed: 0x5AD,
        }
    }

    /// Generates the noisy input image (positive intensities).
    pub fn generate(&self) -> Vec<f64> {
        tpm_kernels::util::random_vec(self.n * self.n, self.seed)
            .into_iter()
            .map(|v| (v * 255.0).exp_m1().max(1.0) / 255.0 + 0.05)
            .collect()
    }

    fn clamp(&self, i: isize) -> usize {
        i.clamp(0, self.n as isize - 1) as usize
    }

    /// One full diffusion pass, writing coefficient then updating `img`:
    /// sequentially (`par` is `None`), or as two row-parallel loops under
    /// the caller's model and token.
    fn step(
        &self,
        par: Option<(&Executor, Model, &CancelToken)>,
        img: &mut [f64],
        c: &mut [f64],
        q0sqr: f64,
    ) -> Result<(), ExecError> {
        let n = self.n;
        // Loop 1: diffusion coefficient per pixel.
        let compute_c = |rows: Range<usize>, c_out: &UnsafeSlice<'_, f64>, img: &[f64]| {
            for i in rows {
                for j in 0..n {
                    let idx = i * n + j;
                    let p = img[idx];
                    let dn = img[self.clamp(i as isize - 1) * n + j] - p;
                    let ds = img[self.clamp(i as isize + 1) * n + j] - p;
                    let dw = img[i * n + self.clamp(j as isize - 1)] - p;
                    let de = img[i * n + self.clamp(j as isize + 1)] - p;
                    let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (p * p);
                    let l = (dn + ds + dw + de) / p;
                    let num = 0.5 * g2 - (l * l) / 16.0;
                    let den = 1.0 + 0.25 * l;
                    let qsqr = num / (den * den);
                    let coeff = 1.0 / (1.0 + (qsqr - q0sqr) / (q0sqr * (1.0 + q0sqr)));
                    // SAFETY: disjoint rows.
                    unsafe { c_out.write(idx, coeff.clamp(0.0, 1.0)) };
                }
            }
        };
        // Loop 2: divergence update.
        let update =
            |rows: Range<usize>, img_out: &UnsafeSlice<'_, f64>, img: &[f64], c: &[f64]| {
                for i in rows {
                    for j in 0..n {
                        let idx = i * n + j;
                        let p = img[idx];
                        let cn = c[idx];
                        let cs = c[self.clamp(i as isize + 1) * n + j];
                        let ce = c[i * n + self.clamp(j as isize + 1)];
                        let dn = img[self.clamp(i as isize - 1) * n + j] - p;
                        let ds = img[self.clamp(i as isize + 1) * n + j] - p;
                        let dw = img[i * n + self.clamp(j as isize - 1)] - p;
                        let de = img[i * n + self.clamp(j as isize + 1)] - p;
                        let div = cn * (dn + dw) + cs * ds + ce * de;
                        // SAFETY: disjoint rows.
                        unsafe { img_out.write(idx, p + 0.25 * self.lambda * div) };
                    }
                }
            };
        let sweep = |body: &(dyn Fn(Range<usize>) + Sync)| match par {
            None => {
                body(0..n);
                Ok(())
            }
            Some((exec, model, token)) => {
                exec.try_parallel_for(model, 0..n, token, &|rows| body(rows))
            }
        };
        let img_snapshot = img.to_vec();
        let c_out = UnsafeSlice::new(c);
        sweep(&|rows| compute_c(rows, &c_out, &img_snapshot))?;
        let c: &[f64] = c;
        let img_out = UnsafeSlice::new(img);
        sweep(&|rows| update(rows, &img_out, &img_snapshot, c))
    }

    fn q0sqr(&self, img: &[f64]) -> f64 {
        // Rodinia computes speckle statistics over a corner ROI.
        let r = (self.n / 8).max(1);
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for i in 0..r {
            for j in 0..r {
                let v = img[i * self.n + j];
                sum += v;
                sum2 += v * v;
            }
        }
        let count = (r * r) as f64;
        let mean = sum / count;
        let var = (sum2 / count - mean * mean).max(1e-12);
        var / (mean * mean)
    }

    fn iterate(
        &self,
        par: Option<(&Executor, Model, &CancelToken)>,
        img: &[f64],
    ) -> Result<Vec<f64>, ExecError> {
        let mut img = img.to_vec();
        let mut c = vec![0.0; self.n * self.n];
        for _ in 0..self.iterations {
            let q0 = self.q0sqr(&img);
            self.step(par, &mut img, &mut c, q0)?;
        }
        Ok(img)
    }

    /// Sequential reference: the denoised image.
    pub fn seq(&self, img: &[f64]) -> Vec<f64> {
        self.iterate(None, img)
            .expect("a sequential sweep polls no token")
    }

    /// Runs under `model`, un-cancellable.
    pub fn run(&self, exec: &Executor, model: Model, img: &[f64]) -> Vec<f64> {
        let token = CancelToken::new();
        let r = self.try_run(exec, model, img, &token);
        tpm_kernels::util::infallible(model, r)
    }

    /// [`Self::run`], stopping at the first chunk boundary after `token`
    /// fires.
    pub fn try_run(
        &self,
        exec: &Executor,
        model: Model,
        img: &[f64],
        token: &CancelToken,
    ) -> Result<Vec<f64>, ExecError> {
        self.iterate(Some((exec, model, token)), img)
    }

    /// Simulator descriptor: `2 × iterations` row-parallel phases of uniform
    /// stencil work. The 2048² image (32 MB) fits the testbed's 45 MB LLC,
    /// so DRAM traffic is light and the kernel is compute-bound — which is
    /// why the paper sees all variants converge on SRAD.
    pub fn sim_workload(&self) -> PhasedWorkload {
        let n = self.n as f64;
        let coeff = LoopWorkload {
            iters: self.n as u64,
            work_ns_per_iter: n * 4.0,
            bytes_per_iter: n * 3.0,
            imbalance: Imbalance::Uniform,
        };
        let update = LoopWorkload {
            iters: self.n as u64,
            work_ns_per_iter: n * 3.0,
            bytes_per_iter: n * 3.0,
            imbalance: Imbalance::Uniform,
        };
        let mut phases = Vec::with_capacity(2 * self.iterations);
        for _ in 0..self.iterations {
            phases.push(coeff);
            phases.push(update);
        }
        PhasedWorkload::new(phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_six_versions_match_sequential() {
        let s = Srad::native(24, 3);
        let img = s.generate();
        let expected = s.seq(&img);
        let exec = Executor::new(3);
        for model in Model::ALL {
            let got = s.run(&exec, model, &img);
            assert_eq!(got, expected, "{model}");
        }
    }

    #[test]
    fn diffusion_reduces_local_variance() {
        let s = Srad::native(32, 20);
        let img = s.generate();
        let out = s.seq(&img);
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
        };
        assert!(var(&out) < var(&img), "diffusion must smooth the image");
    }

    #[test]
    fn output_stays_finite_positive() {
        let s = Srad::native(16, 10);
        let img = s.generate();
        let out = s.seq(&img);
        assert!(out.iter().all(|v| v.is_finite() && *v > 0.0));
    }
}
