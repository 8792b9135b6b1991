//! Rodinia LavaMD (Fig. 9): N-body particle interactions within a 3-D box
//! neighborhood.
//!
//! Heavy, uniform per-box compute (each box's particles interact with the
//! particles of its ≤27-box neighborhood). The paper groups LavaMD with SRAD
//! as the applications where "threads work on tasks with equal workload and
//! the behavior of different implementations perform more closely".

use tpm_core::{ExecError, Executor, Model};
use tpm_sim::{Imbalance, LoopWorkload, PhasedWorkload};
use tpm_sync::CancelToken;

use tpm_kernels::util::UnsafeSlice;

/// A particle: position and charge.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Particle {
    /// Position.
    pub x: f64,
    /// Position.
    pub y: f64,
    /// Position.
    pub z: f64,
    /// Charge.
    pub q: f64,
}

/// LavaMD problem instance.
#[derive(Debug, Clone, Copy)]
pub struct LavaMd {
    /// Boxes per dimension (paper/Rodinia `-boxes1d 10` ⇒ 1000 boxes).
    pub boxes1d: usize,
    /// Particles per box (Rodinia: 100).
    pub par_per_box: usize,
    /// Interaction cutoff scale.
    pub alpha: f64,
    /// Input seed.
    pub seed: u64,
}

impl LavaMd {
    /// The paper's configuration (Rodinia default `boxes1d = 10`).
    pub fn paper() -> Self {
        Self {
            boxes1d: 10,
            par_per_box: 100,
            alpha: 0.5,
            seed: 0x1ADA,
        }
    }

    /// A scaled-down instance for native runs.
    pub fn native(boxes1d: usize, par_per_box: usize) -> Self {
        Self {
            boxes1d,
            par_per_box,
            alpha: 0.5,
            seed: 0x1ADA,
        }
    }

    /// Total boxes.
    pub fn num_boxes(&self) -> usize {
        self.boxes1d * self.boxes1d * self.boxes1d
    }

    /// Generates all particles, box-major.
    pub fn generate(&self) -> Vec<Particle> {
        let raw = tpm_kernels::util::random_vec(self.num_boxes() * self.par_per_box * 4, self.seed);
        raw.chunks_exact(4)
            .map(|c| Particle {
                x: c[0],
                y: c[1],
                z: c[2],
                q: c[3],
            })
            .collect()
    }

    /// Neighbor boxes (including self) of box `(bx, by, bz)`.
    fn neighbors(&self, b: usize) -> Vec<usize> {
        let d = self.boxes1d as isize;
        let bz = (b / (self.boxes1d * self.boxes1d)) as isize;
        let by = ((b / self.boxes1d) % self.boxes1d) as isize;
        let bx = (b % self.boxes1d) as isize;
        let mut out = Vec::with_capacity(27);
        for dz in -1..=1 {
            for dy in -1..=1 {
                for dx in -1..=1 {
                    let (nx, ny, nz) = (bx + dx, by + dy, bz + dz);
                    if (0..d).contains(&nx) && (0..d).contains(&ny) && (0..d).contains(&nz) {
                        out.push(((nz * d + ny) * d + nx) as usize);
                    }
                }
            }
        }
        out
    }

    fn box_potential(&self, particles: &[Particle], b: usize, out: &mut [f64]) {
        let m = self.par_per_box;
        let home = &particles[b * m..(b + 1) * m];
        let a2 = 2.0 * self.alpha * self.alpha;
        for (pi, p) in home.iter().enumerate() {
            let mut v = 0.0;
            for nb in self.neighbors(b) {
                let other = &particles[nb * m..(nb + 1) * m];
                for o in other {
                    let dx = p.x - o.x;
                    let dy = p.y - o.y;
                    let dz = p.z - o.z;
                    let r2 = dx * dx + dy * dy + dz * dz;
                    v += o.q * (-r2 / a2).exp();
                }
            }
            out[pi] = v;
        }
    }

    /// Sequential reference: per-particle potentials.
    pub fn seq(&self, particles: &[Particle]) -> Vec<f64> {
        let m = self.par_per_box;
        let mut out = vec![0.0; self.num_boxes() * m];
        for b in 0..self.num_boxes() {
            let (_, tail) = out.split_at_mut(b * m);
            self.box_potential(particles, b, &mut tail[..m]);
        }
        out
    }

    /// Runs under `model`: the parallel loop is over boxes; un-cancellable.
    pub fn run(&self, exec: &Executor, model: Model, particles: &[Particle]) -> Vec<f64> {
        let r = self.try_run(exec, model, particles, &CancelToken::new());
        tpm_kernels::util::infallible(model, r)
    }

    /// [`Self::run`] under `token`, stopping at the first chunk boundary
    /// after it fires.
    pub fn try_run(
        &self,
        exec: &Executor,
        model: Model,
        particles: &[Particle],
        token: &CancelToken,
    ) -> Result<Vec<f64>, ExecError> {
        let m = self.par_per_box;
        let mut out = vec![0.0; self.num_boxes() * m];
        let slots = UnsafeSlice::new(&mut out);
        exec.try_parallel_for(model, 0..self.num_boxes(), token, &|boxes| {
            for b in boxes {
                // SAFETY: disjoint box chunks ⇒ disjoint output slots.
                let dst = unsafe { slots.slice_mut(b * m..(b + 1) * m) };
                self.box_potential(particles, b, dst);
            }
        })?;
        Ok(out)
    }

    /// Simulator descriptor: one uniform heavy loop over boxes
    /// (`27·m²` exp-interactions per box).
    pub fn sim_workload(&self) -> PhasedWorkload {
        let m = self.par_per_box as f64;
        PhasedWorkload::new(vec![LoopWorkload {
            iters: self.num_boxes() as u64,
            work_ns_per_iter: 27.0 * m * m * 3.0,
            bytes_per_iter: 27.0 * m * 32.0,
            imbalance: Imbalance::Uniform,
        }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpm_kernels::util::max_abs_diff;

    #[test]
    fn all_six_versions_match_sequential() {
        let l = LavaMd::native(3, 8);
        let particles = l.generate();
        let expected = l.seq(&particles);
        let exec = Executor::new(3);
        for model in Model::ALL {
            let got = l.run(&exec, model, &particles);
            assert!(max_abs_diff(&got, &expected) < 1e-10, "{model}");
        }
    }

    #[test]
    fn corner_box_has_8_neighbors_inner_has_27() {
        let l = LavaMd::native(3, 1);
        assert_eq!(l.neighbors(0).len(), 8);
        let center = 1 + 3 + 9; // (1,1,1)
        assert_eq!(l.neighbors(center).len(), 27);
    }

    #[test]
    fn potential_includes_self_interaction() {
        // A single particle interacts with itself: exp(0) * q = q.
        let l = LavaMd::native(1, 1);
        let particles = vec![Particle {
            x: 0.0,
            y: 0.0,
            z: 0.0,
            q: 3.0,
        }];
        assert!((l.seq(&particles)[0] - 3.0).abs() < 1e-12);
    }
}
