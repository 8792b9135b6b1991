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
//! scalar loops exactly, while the *optimized* bodies use unrolled
//! multi-accumulator inner loops (Axpy/Sum/Matvec) and a cache-blocked,
//! register-blocked multiply (Matmul) so the per-iteration compute floor
//! sits at hardware speed.
//!
//! Each data-parallel kernel's parallel body exists once, as
//! `try_run_v(exec, model, variant, …, token) -> Result<_, ExecError>`: its
//! loops run through [`tpm_core::Executor::try_parallel_for`] /
//! [`try_parallel_reduce`](tpm_core::Executor::try_parallel_reduce) under
//! the caller's token, and the body polls it too — Sum and Axpy once per
//! [`util::POLL_EVERY`] block, Matvec and Matmul once per row (per row
//! block in the optimized Matmul). A fired token or a panicking body comes
//! back as an `Err`. `run(exec, model, …)` is the one infallible wrapper:
//! the reference body under a fresh token, panicking on a failure
//! ([`util::infallible`]). The figures time these bodies and the job
//! service runs them under each job's token. Inputs follow the same pair:
//! `try_alloc_on` fills them with cancellable parallel first-touch
//! ([`util::try_random_vec_on`]) and `alloc_on` wraps it.

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
