//! Data-parallel entry points over activations.
//!
//! How a message-driven runtime runs a loop: decompose the range into
//! independent one-shot activations ("parcels"), let work stealing balance
//! them, join on a count latch. Two decompositions, mirroring the paper's
//! loop-vs-task split inside the other families:
//!
//! * [`scatter_for_indexed_cancel`] — flat scatter of `N/chunk` activations
//!   (the `actor_for` model): cheapest decomposition, one injector pass.
//! * [`recursive_for_indexed_cancel`] — binary splitting down to `base`,
//!   children pushed to the splitting worker's own deque (the `actor_task`
//!   model): thieves get big subtrees, the classic many-tasking shape.
//!
//! Both hand the body the executing worker's index (a loop ignores it, a
//! reduction keys its per-worker views by it), poll the [`CancelToken`] per
//! activation, probe the shared `TaskExec` fault site, and contain panics
//! in a first-panic-wins slot so the join latch *always* reaches zero — a
//! dropped or panicked chunk is a contained, observable error at the
//! caller, never a hang.

use std::any::Any;
use std::ops::Range;
use std::panic::resume_unwind;

use tpm_fault::{Action as FaultAction, Site as FaultSite};
use tpm_sync::{CancelToken, CountLatch, SpinLock};
use tpm_worksteal::pool::harness_panic;

use crate::runtime::{Activation, ActorRuntime, WorkerCtx};

type PanicSlot = SpinLock<Option<Box<dyn Any + Send>>>;
type ErasedTask = Box<dyn FnOnce(&WorkerCtx<'_>) + Send + 'static>;

/// Erases a task's borrow lifetime so it can enter the `'static` deques.
///
/// # Safety
///
/// The caller must not let the borrowed frame end until every erased task
/// has completed — i.e. it must wait on a latch the task decrements as its
/// very last action (after the panic harness, so even a panicking task
/// counts down).
unsafe fn erase<'env>(f: Box<dyn FnOnce(&WorkerCtx<'_>) + Send + 'env>) -> ErasedTask {
    std::mem::transmute(f)
}

/// The shared frame every activation of one loop borrows.
struct ForEnv<'e, F> {
    latch: &'e CountLatch,
    slot: &'e PanicSlot,
    token: &'e CancelToken,
    body: &'e F,
    base: usize,
}

/// Flat scatter (the `actor_for` data-parallel model): one activation per
/// `chunk` iterations, joined on a latch. The body receives the executing
/// worker's index (reduction accumulators key off it).
pub fn scatter_for_indexed_cancel<F>(
    rt: &ActorRuntime,
    range: Range<usize>,
    chunk: usize,
    token: &CancelToken,
    body: F,
) where
    F: Fn(usize, Range<usize>) + Sync,
{
    if range.is_empty() {
        return;
    }
    let chunk = chunk.max(1);
    let end = range.end;
    let pieces = range.step_by(chunk).map(|lo| lo..(lo + chunk).min(end));
    // Every piece is at most `chunk` long, so each activation is a leaf.
    run_pieces(rt, pieces, chunk, token, &body);
}

/// Builds the activation for `range`: a leaf runs the body, a longer range
/// splits in two, its children going to the splitting worker's own deque
/// (so thieves steal whole subtrees).
fn split_task<'e, F>(
    env: &'e ForEnv<'e, F>,
    range: Range<usize>,
) -> Box<dyn FnOnce(&WorkerCtx<'_>) + Send + 'e>
where
    F: Fn(usize, Range<usize>) + Sync,
{
    Box::new(move |ctx| {
        harness_panic(env.slot, || {
            match tpm_fault::probe(FaultSite::TaskExec) {
                FaultAction::Panic => tpm_fault::injected_panic(FaultSite::TaskExec),
                FaultAction::TaskDrop => tpm_fault::injected_drop(FaultSite::TaskExec),
                _ => {}
            }
            if env.token.is_cancelled() {
                return;
            }
            if range.len() <= env.base {
                ctx.core
                    .emit(tpm_trace::EventKind::ChunkDispatch, range.len() as u64, 0);
                (env.body)(ctx.index(), range.clone());
            } else {
                let mid = range.start + range.len() / 2;
                // Register the children before they can possibly complete
                // (the increment-then-spawn protocol keeps the latch from
                // transiting zero early).
                env.latch.increment(2);
                // SAFETY: same latch contract as the caller's.
                ctx.core.push(Activation::Task(unsafe {
                    erase(split_task(env, range.start..mid))
                }));
                ctx.core.push(Activation::Task(unsafe {
                    erase(split_task(env, mid..range.end))
                }));
            }
        });
        // The decrement that completes the loop wakes its caller, parked in
        // `run_pieces`; the caller may then free `env`, but not the pool.
        if env.latch.decrement() {
            ctx.core.shared().wake_external();
        }
    })
}

/// Recursive binary splitting down to `base` (the `actor_task` model). The
/// body receives the executing worker's index.
pub fn recursive_for_indexed_cancel<F>(
    rt: &ActorRuntime,
    range: Range<usize>,
    base: usize,
    token: &CancelToken,
    body: F,
) where
    F: Fn(usize, Range<usize>) + Sync,
{
    if range.is_empty() {
        return;
    }
    run_pieces(rt, std::iter::once(range), base.max(1), token, &body);
}

/// Injects one activation per piece, joins them all, and re-raises the
/// first panic. A piece longer than `base` splits on whichever worker runs
/// it (see [`split_task`]).
fn run_pieces<F>(
    rt: &ActorRuntime,
    pieces: impl ExactSizeIterator<Item = Range<usize>>,
    base: usize,
    token: &CancelToken,
    body: &F,
) where
    F: Fn(usize, Range<usize>) + Sync,
{
    let latch = CountLatch::new(pieces.len());
    let slot: PanicSlot = SpinLock::new(None);
    let env = ForEnv {
        latch: &latch,
        slot: &slot,
        token,
        body,
        base,
    };
    for piece in pieces {
        // SAFETY: the latch wait below outlives every erased task (each
        // split increments before pushing its children).
        rt.pool
            .inject(Activation::Task(unsafe { erase(split_task(&env, piece)) }));
    }
    rt.pool.wait_external(|| latch.probe());
    let payload = slot.lock().take();
    if let Some(p) = payload {
        resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn scatter_covers_every_index_once() {
        let rt = ActorRuntime::new(4);
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let token = CancelToken::new();
        scatter_for_indexed_cancel(&rt, 0..n, 64, &token, |w, r| {
            assert!(w < rt.num_workers(), "worker index {w}");
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn recursive_covers_every_index_once() {
        let rt = ActorRuntime::new(4);
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let token = CancelToken::new();
        recursive_for_indexed_cancel(&rt, 0..n, 32, &token, |w, r| {
            assert!(w < rt.num_workers(), "worker index {w}");
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn awkward_sizes_and_chunks() {
        let rt = ActorRuntime::new(3);
        let token = CancelToken::new();
        for n in [1usize, 2, 7, 63, 64, 65, 1023] {
            for chunk in [1usize, 3, 64, 4096] {
                let total = AtomicU64::new(0);
                scatter_for_indexed_cancel(&rt, 0..n, chunk, &token, |_, r| {
                    total.fetch_add(r.len() as u64, Ordering::Relaxed);
                });
                assert_eq!(
                    total.load(Ordering::Relaxed),
                    n as u64,
                    "scatter n={n} chunk={chunk}"
                );
                let total = AtomicU64::new(0);
                recursive_for_indexed_cancel(&rt, 0..n, chunk, &token, |_, r| {
                    total.fetch_add(r.len() as u64, Ordering::Relaxed);
                });
                assert_eq!(
                    total.load(Ordering::Relaxed),
                    n as u64,
                    "recursive n={n} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn cancellation_skips_pending_chunks() {
        let rt = ActorRuntime::new(2);
        let token = CancelToken::new();
        let ran = AtomicU64::new(0);
        token.cancel();
        scatter_for_indexed_cancel(&rt, 0..100_000, 64, &token, |_, _r| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        // Pre-cancelled: every activation observes the token and skips.
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn panic_in_body_is_contained_and_rethrown() {
        let rt = ActorRuntime::new(2);
        let token = CancelToken::new();
        let r = catch_unwind(AssertUnwindSafe(|| {
            scatter_for_indexed_cancel(&rt, 0..1000, 16, &token, |_, r| {
                if r.contains(&500) {
                    panic!("chunk boom");
                }
            });
        }));
        assert!(r.is_err(), "the body panic must reach the caller");
        // The pool survives and runs the next loop.
        let total = AtomicU64::new(0);
        scatter_for_indexed_cancel(&rt, 0..100, 10, &token, |_, r| {
            total.fetch_add(r.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn panic_in_recursive_body_is_contained_and_rethrown() {
        let rt = ActorRuntime::new(2);
        let token = CancelToken::new();
        let r = catch_unwind(AssertUnwindSafe(|| {
            recursive_for_indexed_cancel(&rt, 0..1000, 16, &token, |_, r| {
                if r.contains(&500) {
                    panic!("split boom");
                }
            });
        }));
        assert!(r.is_err());
        let total = AtomicU64::new(0);
        recursive_for_indexed_cancel(&rt, 0..100, 10, &token, |_, r| {
            total.fetch_add(r.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }
}
