//! # tpm-forkjoin — an OpenMP-like fork-join runtime
//!
//! One of the three threading runtimes compared by the `threadcmp` workspace
//! (after *Comparison of Threading Programming Models*, 2017). It reproduces
//! the mechanisms the paper attributes to OpenMP implementations:
//!
//! * **Fork-join execution**: a persistent [`Team`] of workers; a master
//!   thread forks parallel regions and joins them ([`Team::parallel`]).
//! * **Worksharing loops** with the `static` and `dynamic` [`Schedule`]s
//!   and the implicit trailing barrier ([`Ctx::ws_for`]).
//! * **Reductions** over per-thread views ([`Team::parallel_for_reduce`]).
//! * **Explicit tasks** on *lock-based* per-thread deques with work-first
//!   scheduling ([`Ctx::task_scope`]) — the design the paper contrasts with
//!   Cilk Plus's lock-free protocol.
//! * **Synchronization**: [`Ctx::barrier`] and [`Ctx::single`], plus
//!   cooperative cancellation ([`Ctx::cancel`]). Locks, `critical`,
//!   `sections` and task dependences are not implemented: no figure runs
//!   them, and the paper's feature tables (`tpm-features`) list them.
//!
//! ```
//! use tpm_forkjoin::{Schedule, Team};
//!
//! let team = Team::new(4);
//! let total = team.parallel_for_reduce(
//!     4,
//!     Schedule::Static,
//!     0..1_000,
//!     || 0u64,
//!     |a, b| a + b,
//!     |chunk, acc| for i in chunk { *acc += i as u64 },
//! );
//! assert_eq!(total, 499_500);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod tasking;
mod team;
mod worksharing;

pub use tasking::TaskScope;
pub use team::{Ctx, Team};
pub use worksharing::{static_chunks, LoopCounter, Schedule};
