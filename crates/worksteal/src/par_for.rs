//! `par_for` — the `cilk_for` analogue: a data-parallel loop executed by
//! recursive binary splitting over the work-stealing scheduler.
//!
//! This is the construct whose behaviour drives the paper's headline finding
//! (Figs. 1–4, 6): "workstealing operations in Cilk Plus serialize the
//! distributions of loop chunks among threads, thus incurring more overhead
//! than worksharing". The mechanism: a `cilk_for` loop body reaches other
//! workers only by being *stolen*, one split at a time, so distributing `p`
//! chunks costs a chain of `O(log p)` (and under contention effectively
//! serialized) steal transactions — where OpenMP static worksharing costs
//! zero coordination. The recursive splitting below reproduces exactly that
//! distribution path.

use std::ops::Range;

use tpm_sync::{CancelReason, CancelToken};

use crate::join::join;
use crate::runtime::WorkerCtx;

/// Grain-size policy for [`par_for`] (cilk_for's grainsize pragma).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grain {
    /// Adaptive: `max(1, ceil(N / 8P))` — about eight leaves per worker, so
    /// there is enough parallel slack for stealing but the leaf count (and
    /// with it spawn/steal traffic) stays proportional to `P`, not `N`.
    Auto,
    /// Fixed iterations per leaf (a *minimum*: the depth cap below can make
    /// leaves coarser on huge ranges).
    Fixed(usize),
}

impl Grain {
    /// Resolves to a concrete leaf size for a loop of `len` on `workers`.
    pub fn resolve(self, len: usize, workers: usize) -> usize {
        match self {
            Grain::Auto => len.div_ceil(8 * workers.max(1)).max(1),
            Grain::Fixed(g) => g.max(1),
        }
    }
}

/// Recursion budget for splitting: allows ~256·P leaves before splitting
/// stops regardless of grain, so a tiny `Fixed` grain on a huge range cannot
/// explode into millions of tasks (or exhaust the stack).
fn depth_cap(workers: usize) -> u32 {
    (usize::BITS - workers.max(1).leading_zeros()) + 8
}

/// Data-parallel loop over `range`: recursively splits until chunks reach the
/// grain size, running `body` on each chunk.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use tpm_worksteal::{par_for, Grain, Runtime};
///
/// let rt = Runtime::new(4);
/// let sum = AtomicU64::new(0);
/// rt.install(|ctx| {
///     par_for(ctx, 0..1000, Grain::Auto, &|chunk| {
///         sum.fetch_add(chunk.map(|i| i as u64).sum(), Ordering::Relaxed);
///     });
/// });
/// assert_eq!(sum.into_inner(), (0..1000).sum());
/// ```
pub fn par_for<F>(ctx: &WorkerCtx<'_>, range: Range<usize>, grain: Grain, body: &F)
where
    F: Fn(Range<usize>) + Sync,
{
    split_run(ctx, range, grain, None, &|_: &WorkerCtx<'_>, chunk| {
        body(chunk)
    });
}

/// Chunk-level loop with cooperative cancellation, where the body also
/// receives the executing worker's context (reductions key their views off
/// it). `token` is polled before every split and every leaf, on whichever
/// worker picked the piece up — so once the token fires (explicit cancel or
/// deadline), no further leaf starts and the loop returns within one grain
/// of work per worker. Leaves that already ran are not undone; the error
/// reports why the loop stopped.
///
/// # Examples
///
/// ```
/// use tpm_sync::{CancelReason, CancelToken};
/// use tpm_worksteal::{par_for_ctx_cancel, Grain, Runtime, WorkerCtx};
///
/// let rt = Runtime::new(2);
/// let token = CancelToken::new();
/// let r = rt.install(|ctx| {
///     par_for_ctx_cancel(ctx, 0..1_000_000, Grain::Fixed(1), &token, &|_: &WorkerCtx<'_>, _| {
///         token.cancel(); // first leaf gives up
///     })
/// });
/// assert_eq!(r, Err(CancelReason::Cancelled));
/// assert_eq!(rt.install(|_| 1), 1); // runtime fully usable afterwards
/// ```
pub fn par_for_ctx_cancel<F>(
    ctx: &WorkerCtx<'_>,
    range: Range<usize>,
    grain: Grain,
    token: &CancelToken,
    body: &F,
) -> Result<(), CancelReason>
where
    F: for<'c> Fn(&WorkerCtx<'c>, Range<usize>) + Sync,
{
    split_run(ctx, range, grain, Some(token), body);
    token.check()
}

/// The one loop path under every entry above and `par_for_reduce`:
/// resolves `grain` for this pool and splits from the root.
pub(crate) fn split_run<F>(
    ctx: &WorkerCtx<'_>,
    range: Range<usize>,
    grain: Grain,
    cancel: Option<&CancelToken>,
    body: &F,
) where
    F: for<'c> Fn(&WorkerCtx<'c>, Range<usize>) + Sync,
{
    let workers = ctx.num_workers();
    let leaf = grain.resolve(range.len(), workers);
    split(ctx, range, leaf, depth_cap(workers), cancel, body);
}

fn split<F>(
    ctx: &WorkerCtx<'_>,
    range: Range<usize>,
    grain: usize,
    depth: u32,
    cancel: Option<&CancelToken>,
    body: &F,
) where
    F: for<'c> Fn(&WorkerCtx<'c>, Range<usize>) + Sync,
{
    // Polled on the executing worker at every node of the splitting tree:
    // leaves stop within one grain, and interior nodes stop spawning — the
    // whole remaining subtree is abandoned in O(depth) checks.
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return;
    }
    if range.len() <= grain || depth == 0 {
        // An injected panic here unwinds into the enclosing join's
        // containment (StackJob stores the payload and completes its latch),
        // so faults surface as the scope's re-raised panic, never a hang.
        match tpm_fault::probe(tpm_fault::Site::ChunkClaim) {
            tpm_fault::Action::Panic => tpm_fault::injected_panic(tpm_fault::Site::ChunkClaim),
            tpm_fault::Action::TaskDrop => tpm_fault::injected_drop(tpm_fault::Site::ChunkClaim),
            _ => {}
        }
        ctx.core
            .emit(tpm_trace::EventKind::ChunkDispatch, range.len() as u64, 0);
        body(ctx, range);
        return;
    }
    let mid = range.start + range.len() / 2;
    let (left, right) = (range.start..mid, mid..range.end);
    join(
        ctx,
        move |c| split(c, left, grain, depth - 1, cancel, body),
        move |c| split(c, right, grain, depth - 1, cancel, body),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn grain_resolution() {
        assert_eq!(Grain::Fixed(10).resolve(1000, 4), 10);
        assert_eq!(Grain::Fixed(0).resolve(1000, 4), 1);
        assert_eq!(Grain::Auto.resolve(64, 4), 2);
        // Uncapped: leaf size scales with N so the leaf *count* stays ~8P.
        assert_eq!(Grain::Auto.resolve(10_000_000, 4), 312_500);
        assert_eq!(Grain::Auto.resolve(0, 4), 1);
    }

    #[test]
    fn depth_cap_bounds_leaf_count() {
        let rt = Runtime::new(2);
        rt.stats().reset();
        let total = AtomicU64::new(0);
        rt.install(|ctx| {
            // Grain 1 over 100k iterations would be 100k leaves without the
            // depth cap; the cap bounds it to 2^depth_cap(2) = 1024.
            par_for(ctx, 0..100_000, Grain::Fixed(1), &|chunk| {
                total.fetch_add(chunk.len() as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.into_inner(), 100_000, "still covers every iteration");
        let chunks = rt.stats().snapshot().chunks;
        assert!(chunks <= 1 << depth_cap(2), "chunks = {chunks}");
        assert!(chunks >= 512, "cap should not over-coarsen: {chunks}");
    }

    #[test]
    fn covers_every_iteration_exactly_once() {
        let rt = Runtime::new(4);
        let flags: Vec<AtomicU64> = (0..1003).map(|_| AtomicU64::new(0)).collect();
        rt.install(|ctx| {
            par_for(ctx, 0..1003, Grain::Fixed(16), &|chunk| {
                for i in chunk {
                    flags[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        for (i, f) in flags.iter().enumerate() {
            assert_eq!(f.load(Ordering::Relaxed), 1, "iteration {i}");
        }
    }

    #[test]
    fn empty_and_tiny_ranges() {
        let rt = Runtime::new(2);
        let hits = AtomicU64::new(0);
        rt.install(|ctx| {
            par_for(ctx, 5..5, Grain::Auto, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            par_for(ctx, 7..8, Grain::Auto, &|chunk| {
                assert_eq!(chunk, 7..8);
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        // The empty range still invokes the body once with an empty chunk.
        assert!(hits.into_inner() >= 1);
    }
}
