//! # tpm-core — the unified comparison API
//!
//! The comparison framework of the `threadcmp` workspace (after *Comparison
//! of Threading Programming Models*, 2017): a single interface over the
//! four runtimes so each benchmark can be expressed once and measured under
//! all eight variants.
//!
//! * [`Family`] / [`Model`] — the registry: four families (OpenMP,
//!   Cilk Plus, C++11, Actors), two variants each (omp_for, omp_task,
//!   cilk_for, cilk_spawn, cxx_thread, cxx_async, actor_for, actor_task),
//!   with family and pattern metadata. This is the *single* enumeration
//!   point — call sites derive their lists from [`Family::ALL`] /
//!   [`Family::variants`] / [`Model::ALL`] / [`Model::parse_list`].
//! * [`Executor`] — one runtime per pooled family (`team`, `worksteal`,
//!   `actors`), built by [`Executor::new`] from one shared
//!   `tpm_sync::PoolConfig` at a common thread count.
//! * [`timing`] — median-of-N wall-clock measurement.
//! * [`Series`] / [`Figure`] — the paper's figure data (time vs threads per
//!   variant), with winner/loser queries used by the reproduction checks.
//! * [`KernelVariant`] — reference (paper-faithful scalar) vs optimized
//!   (vectorization-friendly / cache-blocked) kernel data paths.
//! * [`approx`] — relative-epsilon/ULP comparison used by the kernel claim
//!   checks once optimized bodies reassociate floating-point sums.
//! * [`ExecError`] + [`Executor::try_parallel_for`] /
//!   [`Executor::try_parallel_reduce`] — the fallible, cancellable execution
//!   path; [`job`] — named job dispatch ([`JobSpec`] → [`JobResult`]) used by
//!   the `tpm-serve` frontend.
//!
//! ```
//! use tpm_core::{Executor, Model};
//! use tpm_sync::CancelToken;
//!
//! let exec = Executor::new(2);
//! let sum = exec.try_parallel_reduce(
//!     Model::OmpFor,
//!     0..100,
//!     &CancelToken::new(),
//!     || 0u64,
//!     |a, b| a + b,
//!     |chunk, acc| for i in chunk { *acc += i as u64 },
//! );
//! assert_eq!(sum, Ok(4950));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod approx;
mod error;
mod executor;
pub mod job;
mod model;
pub mod report;
pub mod sweep;
pub mod timing;
mod variant;

pub use error::{panic_message, ExecError};
pub use executor::Executor;
pub use job::{JobCtx, JobRegistry, JobResult, JobSpec};
pub use model::{Family, Model, Pattern};
pub use report::{Figure, ProfileRow, ProfileTable, Series};
pub use sweep::Sweep;
pub use variant::KernelVariant;
