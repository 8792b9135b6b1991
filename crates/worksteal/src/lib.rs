//! # tpm-worksteal — a Cilk-Plus-like randomized work-stealing runtime
//!
//! One of the three threading runtimes compared by the `threadcmp` workspace
//! (after *Comparison of Threading Programming Models*, 2017). It reproduces
//! the mechanisms the paper attributes to Cilk Plus:
//!
//! * **Per-worker lock-free deques** (Chase–Lev, from `tpm-sync`) with
//!   randomized victim selection — the protocol the paper credits for
//!   `cilk_spawn` beating `omp task` by ~20% (Fig. 5).
//! * **`spawn`/`sync`** as [`join`] (two-way) and [`scope`] (n-way).
//! * **`cilk_for`** as [`par_for`]: recursive lazy splitting, so loop chunks
//!   reach other workers only through steals — the serialization effect
//!   behind `cilk_for`'s poor data-parallel showing (Figs. 1–4, 6).
//! * **Reducer hyperobjects** for parallel reductions ([`par_for_reduce`]).
//!
//! Child stealing is used in place of Cilk's continuation stealing (not
//! expressible in safe Rust); DESIGN.md §2 argues why the measured phenomena
//! are preserved.
//!
//! ```
//! use tpm_worksteal::{join, Runtime};
//!
//! let rt = Runtime::new(4);
//! let (a, b) = rt.install(|ctx| join(ctx, |_| 6 * 7, |_| "hi"));
//! assert_eq!((a, b), (42, "hi"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod job;
mod join;
mod par_for;
mod par_iter;
#[doc(hidden)]
pub mod pool;
mod runtime;
mod scope;

pub use join::join;
pub use par_for::{par_for, par_for_cancel, par_for_ctx, par_for_ctx_cancel, Grain};
pub use par_iter::{join3, par_map};
pub use runtime::{Runtime, WorkerCtx};
pub use scope::{scope, Scope};

use std::ops::Range;
use tpm_sync::Reducer;

/// Data-parallel reduction over the work-stealing scheduler using a reducer
/// hyperobject: each worker accumulates into a private view (keyed by the
/// executing worker), and views merge in worker order.
///
/// # Examples
///
/// ```
/// use tpm_worksteal::{par_for_reduce, Grain, Runtime};
///
/// let rt = Runtime::new(4);
/// let total = rt.install(|ctx| {
///     par_for_reduce(ctx, 0..1000, Grain::Auto, || 0u64, |a, b| a + b, |chunk, acc| {
///         for i in chunk { *acc += i as u64 }
///     })
/// });
/// assert_eq!(total, (0..1000).sum());
/// ```
pub fn par_for_reduce<T, Id, Op, F>(
    ctx: &WorkerCtx<'_>,
    range: Range<usize>,
    grain: Grain,
    identity: Id,
    combine: Op,
    body: F,
) -> T
where
    T: Send,
    Id: Fn() -> T + Send + Sync,
    Op: Fn(T, T) -> T + Send + Sync,
    F: Fn(Range<usize>, &mut T) + Sync,
{
    let reducer = Reducer::new(ctx.num_workers(), identity, combine);
    par_for_ctx(
        ctx,
        range,
        grain,
        &|c: &WorkerCtx<'_>, chunk: Range<usize>| {
            reducer.with(c.index(), |acc| body(chunk.clone(), acc));
        },
    );
    reducer.finish()
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn par_for_reduce_matches_sequential() {
        let rt = Runtime::new(4);
        let total = rt.install(|ctx| {
            par_for_reduce(
                ctx,
                0..10_000,
                Grain::Fixed(64),
                || 0u64,
                |a, b| a + b,
                |chunk, acc| {
                    for i in chunk {
                        *acc += (i as u64) * 3;
                    }
                },
            )
        });
        assert_eq!(total, (0..10_000u64).map(|i| i * 3).sum());
    }

    #[test]
    fn par_for_reduce_non_copy_accumulator() {
        let rt = Runtime::new(2);
        let mut all = rt.install(|ctx| {
            par_for_reduce(
                ctx,
                0..100,
                Grain::Fixed(10),
                Vec::new,
                |mut a, b| {
                    a.extend(b);
                    a
                },
                |chunk, acc: &mut Vec<usize>| acc.extend(chunk),
            )
        });
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }
}
