//! Rodinia HotSpot (Fig. 7): thermal simulation on a chip floorplan.
//!
//! "HotSpot is a tool to estimate processor temperature based on an
//! architectural floorplan and simulated power measurements using a series
//! of differential equations solver. It includes two parallel loops with
//! dependency to the row and column of grids." The paper's finding: both
//! data-parallel versions perform poorly; `omp_task` starts weak but "as
//! more threads are added, the task parallel implementations are gaining
//! more than the worksharing parallel implementations".
//!
//! Each time step runs two dependent parallel loops (compute the new grid
//! from the 5-point stencil, then commit it), `steps` times — many small
//! phases, which is what punishes per-region overhead.
//!
//! One row body, `step_row`, serves `seq` and every model: as in
//! Rodinia 3.1's OpenMP HotSpot, the grid boundary is handled apart and the
//! interior runs branch-free, so the stencil runs at hardware speed and the
//! comparison between models measures the models.

use tpm_core::{ExecError, Executor, Model};
use tpm_sim::{Imbalance, LoopWorkload, PhasedWorkload};
use tpm_sync::CancelToken;

use tpm_kernels::util::UnsafeSlice;

/// Physical/model constants (Rodinia's defaults, simplified).
const T_AMB: f64 = 80.0;
/// Effective Δt/C: must keep the explicit Euler step stable
/// (Σ neighbor weights = CAP·(2/RX + 2/RY + 1/RZ) < 1).
const CAP: f64 = 0.05;
const RX: f64 = 1.0;
const RY: f64 = 1.0;
const RZ: f64 = 4.0;

/// HotSpot problem instance.
#[derive(Debug, Clone, Copy)]
pub struct HotSpot {
    /// Grid dimension (paper: 8192).
    pub n: usize,
    /// Number of simulated time steps.
    pub steps: usize,
    /// Input seed.
    pub seed: u64,
}

impl HotSpot {
    /// The paper's configuration: "the problem size used for the evaluation
    /// was 8192".
    pub fn paper() -> Self {
        Self {
            n: 8192,
            steps: 100,
            seed: 0x407,
        }
    }

    /// A scaled-down instance for native runs.
    pub fn native(n: usize, steps: usize) -> Self {
        Self {
            n,
            steps,
            seed: 0x407,
        }
    }

    /// Generates `(temperature, power)` grids (the synthetic floorplan).
    pub fn generate(&self) -> (Vec<f64>, Vec<f64>) {
        let temp: Vec<f64> = tpm_kernels::util::random_vec(self.n * self.n, self.seed)
            .into_iter()
            .map(|v| 320.0 + 10.0 * v)
            .collect();
        let power: Vec<f64> = tpm_kernels::util::random_vec(self.n * self.n, self.seed ^ 0xF00)
            .into_iter()
            .map(|v| 0.01 * v)
            .collect();
        (temp, power)
    }

    /// [`Self::generate`] — same bits — filled by a cancellable parallel
    /// first-touch sweep under `model` (see
    /// [`tpm_kernels::util::try_random_vec_on`]).
    pub fn try_generate_on(
        &self,
        exec: &Executor,
        model: Model,
        token: &CancelToken,
    ) -> Result<(Vec<f64>, Vec<f64>), ExecError> {
        use tpm_kernels::util::try_random_vec_map_on;
        let cells = self.n * self.n;
        Ok((
            try_random_vec_map_on(exec, model, cells, self.seed, token, &|v| 320.0 + 10.0 * v)?,
            try_random_vec_map_on(exec, model, cells, self.seed ^ 0xF00, token, &|v| 0.01 * v)?,
        ))
    }

    fn step_cell(&self, temp: &[f64], power: &[f64], i: usize, j: usize) -> f64 {
        let n = self.n;
        let idx = i * n + j;
        let t = temp[idx];
        let up = if i > 0 { temp[idx - n] } else { t };
        let down = if i + 1 < n { temp[idx + n] } else { t };
        let left = if j > 0 { temp[idx - 1] } else { t };
        let right = if j + 1 < n { temp[idx + 1] } else { t };
        t + CAP
            * (power[idx]
                + (up + down - 2.0 * t) / RY
                + (left + right - 2.0 * t) / RX
                + (T_AMB - t) / RZ)
    }

    /// Row `i` of the next grid. Boundary rows and the two edge columns go
    /// through [`Self::step_cell`]'s clamped path; interior cells use direct
    /// neighbour indexing with the same expression, so the results are
    /// bitwise identical, in a branch-free loop the compiler vectorizes.
    fn step_row(&self, temp: &[f64], power: &[f64], i: usize, out_row: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(out_row.len(), n);
        if i == 0 || i + 1 == n {
            for (j, cell) in out_row.iter_mut().enumerate() {
                *cell = self.step_cell(temp, power, i, j);
            }
            return;
        }
        // An interior row exists only for n >= 3, so columns 0 and n - 1
        // are distinct and the interior `1..n - 1` is not empty.
        out_row[0] = self.step_cell(temp, power, i, 0);
        out_row[n - 1] = self.step_cell(temp, power, i, n - 1);
        let w = n - 2;
        let base = i * n + 1;
        let cur = &temp[base..][..w];
        let up = &temp[base - n..][..w];
        let down = &temp[base + n..][..w];
        let left = &temp[base - 1..][..w];
        let right = &temp[base + 1..][..w];
        let pw = &power[base..][..w];
        let dst = &mut out_row[1..][..w];
        for j in 0..w {
            let t = cur[j];
            dst[j] = t + CAP
                * (pw[j]
                    + (up[j] + down[j] - 2.0 * t) / RY
                    + (left[j] + right[j] - 2.0 * t) / RX
                    + (T_AMB - t) / RZ);
        }
    }

    /// Sequential reference: returns the final temperature grid.
    pub fn seq(&self, temp: &[f64], power: &[f64]) -> Vec<f64> {
        let n = self.n;
        let mut cur = temp.to_vec();
        let mut next = vec![0.0; n * n];
        for _ in 0..self.steps {
            for i in 0..n {
                self.step_row(&cur, power, i, &mut next[i * n..(i + 1) * n]);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Runs under `model`: per step, a row-parallel stencil loop then a
    /// row-parallel commit loop (the two dependent phases), un-cancellable.
    pub fn run(&self, exec: &Executor, model: Model, temp: &[f64], power: &[f64]) -> Vec<f64> {
        let token = CancelToken::new();
        let r = self.try_run(exec, model, temp, power, &token);
        tpm_kernels::util::infallible(model, r)
    }

    /// [`Self::run`], stopping at the first chunk boundary after `token`
    /// fires.
    pub fn try_run(
        &self,
        exec: &Executor,
        model: Model,
        temp: &[f64],
        power: &[f64],
        token: &CancelToken,
    ) -> Result<Vec<f64>, ExecError> {
        let n = self.n;
        let mut cur = temp.to_vec();
        let mut next = vec![0.0; n * n];
        for _ in 0..self.steps {
            {
                let out = UnsafeSlice::new(&mut next);
                let cur_ref = &cur;
                exec.try_parallel_for(model, 0..n, token, &|rows| {
                    for i in rows {
                        // SAFETY: disjoint row chunks.
                        let row = unsafe { out.slice_mut(i * n..(i + 1) * n) };
                        self.step_row(cur_ref, power, i, row);
                    }
                })?;
            }
            // Commit phase: copy back (Rodinia keeps two grids and swaps;
            // the explicit copy preserves the paper's two-loop structure).
            let out = UnsafeSlice::new(&mut cur);
            let next_ref = &next;
            exec.try_parallel_for(model, 0..n, token, &|rows| {
                for i in rows {
                    // SAFETY: disjoint row chunks.
                    let row = unsafe { out.slice_mut(i * n..(i + 1) * n) };
                    row.copy_from_slice(&next_ref[i * n..(i + 1) * n]);
                }
            })?;
        }
        Ok(cur)
    }

    /// Simulator descriptor: `2 × steps` row-parallel phases.
    pub fn sim_workload(&self) -> PhasedWorkload {
        let n = self.n as f64;
        let stencil = LoopWorkload {
            iters: self.n as u64,
            work_ns_per_iter: n * 2.2,
            bytes_per_iter: n * 32.0,
            imbalance: Imbalance::Uniform,
        };
        let commit = LoopWorkload {
            iters: self.n as u64,
            work_ns_per_iter: n * 0.3,
            bytes_per_iter: n * 16.0,
            imbalance: Imbalance::Uniform,
        };
        let mut phases = Vec::with_capacity(2 * self.steps);
        for _ in 0..self.steps {
            phases.push(stencil);
            phases.push(commit);
        }
        PhasedWorkload::new(phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_generation_is_bitwise_identical_and_cancellable() {
        let h = HotSpot::native(37, 1);
        let expected = h.generate();
        let exec = Executor::new(3);
        for model in Model::ALL {
            let got = h.try_generate_on(&exec, model, &CancelToken::new());
            assert_eq!(got.as_ref(), Ok(&expected), "{model}");
            let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
            let err = h.try_generate_on(&exec, model, &expired).unwrap_err();
            assert_eq!(err, ExecError::Deadline, "{model}");
        }
    }

    #[test]
    fn all_six_versions_match_sequential() {
        let exec = Executor::new(3);
        // 1–3: grids with no interior row or a one-cell interior.
        for n in [1, 2, 3, 32] {
            let h = HotSpot::native(n, 4);
            let (t, p) = h.generate();
            let expected = h.seq(&t, &p);
            for model in Model::ALL {
                let got = h.run(&exec, model, &t, &p);
                assert_eq!(got, expected, "n={n} {model}");
            }
        }
    }

    /// `seq` shares `step_row` with every model, so it is pinned here to
    /// an independent oracle: the per-cell clamped sweep, bit for bit.
    #[test]
    fn seq_matches_the_per_cell_sweep_bitwise() {
        for n in [1, 2, 3, 37, 130] {
            let h = HotSpot::native(n, 3);
            let (t, p) = h.generate();
            let mut cur = t.clone();
            let mut next = vec![0.0; n * n];
            for _ in 0..h.steps {
                for i in 0..n {
                    for j in 0..n {
                        next[i * n + j] = h.step_cell(&cur, &p, i, j);
                    }
                }
                std::mem::swap(&mut cur, &mut next);
            }
            assert_eq!(h.seq(&t, &p), cur, "n={n}");
        }
    }

    #[test]
    fn temperatures_stay_finite_and_bounded() {
        let h = HotSpot::native(16, 20);
        let (t, p) = h.generate();
        let out = h.seq(&t, &p);
        assert!(out.iter().all(|v| v.is_finite()));
        // The ambient sink keeps temperatures from blowing up.
        assert!(out.iter().all(|&v| (0.0..1000.0).contains(&v)));
    }

    #[test]
    fn zero_steps_is_identity() {
        let h = HotSpot::native(8, 0);
        let (t, p) = h.generate();
        let exec = Executor::new(2);
        assert_eq!(h.run(&exec, Model::OmpFor, &t, &p), t);
    }

    #[test]
    fn sim_has_two_phases_per_step() {
        assert_eq!(HotSpot::native(64, 7).sim_workload().phases.len(), 14);
    }
}
