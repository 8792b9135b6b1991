//! # tpm-kernels — the paper's §IV-A micro-kernels
//!
//! Five computational kernels, each runnable under all six [`tpm_core::Model`]
//! variants and each carrying a calibrated simulator descriptor for the
//! paper-scale runs (Figs. 1–5):
//!
//! | Kernel | Paper size | Figure | Paper finding |
//! |---|---|---|---|
//! | [`Axpy`] | N = 100 M | Fig. 1 | `cilk_for` worst (~2×), others tie |
//! | [`Sum`] | N = 100 M | Fig. 2 | `omp_task` best, `cilk_for` ~5× worst |
//! | [`Matvec`] | n = 40 k | Fig. 3 | `cilk_for` ~25% worse |
//! | [`Matmul`] | n = 2 k | Fig. 4 | `cilk_for` ~10% worse |
//! | [`Fib`] | n = 40 | Fig. 5 | `cilk_spawn` ~20% over `omp_task`; naive C++ explodes |
//!
//! The data-parallel kernels carry two data paths selected by
//! [`tpm_core::KernelVariant`]: the *reference* bodies reproduce the paper's
//! scalar loops exactly, while the *optimized* bodies (`run_v`) use
//! unrolled multi-accumulator inner loops (Axpy/Sum/Matvec) and a
//! cache-blocked, register-blocked multiply (Matmul) so the per-iteration
//! compute floor sits at hardware speed. Inputs can be allocated with
//! parallel first-touch via each kernel's `alloc_on` / `try_alloc_on`
//! ([`util::try_random_vec_on`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod axpy;
mod fib;
mod matmul;
mod matvec;
mod sum;
pub mod util;
mod uts;

pub use axpy::Axpy;
pub use fib::Fib;
pub use matmul::Matmul;
pub use matvec::Matvec;
pub use sum::Sum;
pub use uts::Uts;
