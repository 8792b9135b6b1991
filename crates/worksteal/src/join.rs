//! `join` — the `cilk_spawn` / `cilk_sync` pair, fused.
//!
//! `join(ctx, a, b)` makes `b` stealable, runs `a` inline, then either pops
//! `b` back (the common, steal-free case: two function calls and two deque
//! operations) or — if a thief took `b` — helps by working while waiting.
//!
//! This is child stealing: the spawned child is queued and the parent
//! continues. Real Cilk uses continuation stealing (the *parent's
//! continuation* is queued), which cannot be expressed in safe Rust; the
//! scheduling-order difference does not affect the overhead phenomena the
//! paper measures (deque protocol cost, steal serialization), which is what
//! this workspace reproduces. See DESIGN.md §2.

use crate::job::StackJob;
use crate::runtime::WorkerCtx;

/// Runs `a` and `b` potentially in parallel, returning both results.
///
/// Must be called from inside the runtime (i.e. with a [`WorkerCtx`]).
/// If either closure panics, the panic is re-raised after both finished or
/// the other was reclaimed (no task is leaked).
///
/// # Examples
///
/// ```
/// use tpm_worksteal::{join, Runtime};
///
/// let rt = Runtime::new(2);
/// let (a, b) = rt.install(|ctx| join(ctx, |_| 1 + 1, |_| 2 + 2));
/// assert_eq!((a, b), (2, 4));
/// ```
pub fn join<RA, RB, A, B>(ctx: &WorkerCtx<'_>, a: A, b: B) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    A: FnOnce(&WorkerCtx<'_>) -> RA + Send,
    B: FnOnce(&WorkerCtx<'_>) -> RB + Send,
{
    // The spawned side is a task-exec fault site: an injected panic unwinds
    // out of the job (contained by the StackJob's panic capture) and an
    // injected drop surfaces the same way — observable, never silent.
    let job_b = StackJob::new(move |ctx: &WorkerCtx<'_>| {
        match tpm_fault::probe(tpm_fault::Site::TaskExec) {
            tpm_fault::Action::Panic => tpm_fault::injected_panic(tpm_fault::Site::TaskExec),
            tpm_fault::Action::TaskDrop => tpm_fault::injected_drop(tpm_fault::Site::TaskExec),
            _ => {}
        }
        b(ctx)
    });
    // SAFETY: this frame blocks (below) until job_b's latch is set, so the
    // stack storage outlives the queued reference.
    unsafe {
        ctx.core.push(job_b.as_job_ref());
    }

    // Run `a` inline. If it panics we must still reclaim or wait out `b`
    // before unwinding through the frame that owns it.
    let ra = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a(ctx))) {
        Ok(ra) => ra,
        Err(p) => {
            reclaim_or_wait(ctx, &job_b);
            std::panic::resume_unwind(p);
        }
    };

    reclaim_or_wait(ctx, &job_b);
    let rb = job_b.take_result();
    (ra, rb)
}

/// Pops `job_b` back and runs it inline if it was not stolen; otherwise
/// works until the thief completes it.
fn reclaim_or_wait<RB: Send, B: FnOnce(&WorkerCtx<'_>) -> RB + Send>(
    ctx: &WorkerCtx<'_>,
    job_b: &StackJob<B, RB>,
) {
    if job_b.latch.probe() {
        return;
    }
    if let Some(job) = ctx.core.pop() {
        if job_b.is(&job) {
            // Not stolen: execute inline on our own stack.
            ctx.core.execute(job);
            return;
        }
        // A job pushed during `a` that nobody consumed yet (possible when a
        // scope inside `a` left work we help with here). Execute it, then
        // fall through to the waiting loop.
        ctx.core.execute(job);
    }
    ctx.core.wait_until(|| job_b.latch.probe());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn both_sides_run() {
        let rt = Runtime::new(2);
        let (a, b) = rt.install(|ctx| join(ctx, |_| "left", |_| "right"));
        assert_eq!((a, b), ("left", "right"));
    }

    #[test]
    fn recursive_joins_compute_fib() {
        fn fib(ctx: &WorkerCtx<'_>, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(ctx, |c| fib(c, n - 1), |c| fib(c, n - 2));
            a + b
        }
        let rt = Runtime::new(4);
        assert_eq!(rt.install(|ctx| fib(ctx, 20)), 6765);
    }

    #[test]
    fn join_returns_borrowed_computation() {
        let rt = Runtime::new(2);
        let data: Vec<u64> = (0..1000).collect();
        let (lo, hi) = rt.install(|ctx| {
            let (l, r) = data.split_at(500);
            join(ctx, |_| l.iter().sum::<u64>(), |_| r.iter().sum::<u64>())
        });
        assert_eq!(lo + hi, (0..1000).sum());
    }

    #[test]
    fn panic_in_a_propagates_without_leaking_b() {
        let rt = Runtime::new(2);
        let ran_b = std::sync::atomic::AtomicBool::new(false);
        let r = catch_unwind(AssertUnwindSafe(|| {
            rt.install(|ctx| {
                join(
                    ctx,
                    |_| panic!("a boom"),
                    |_| ran_b.store(true, std::sync::atomic::Ordering::Relaxed),
                );
            })
        }));
        assert!(r.is_err());
        assert!(ran_b.load(std::sync::atomic::Ordering::Relaxed));
    }

    #[test]
    fn panic_in_b_propagates() {
        let rt = Runtime::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            rt.install(|ctx| {
                join(ctx, |_| 1, |_| -> u32 { panic!("b boom") });
            })
        }));
        assert!(r.is_err());
    }

    #[test]
    fn deep_join_tree_on_one_worker() {
        // Everything must run inline without stealing.
        fn depth(ctx: &WorkerCtx<'_>, n: u64) -> u64 {
            if n == 0 {
                return 0;
            }
            let (a, b) = join(ctx, |c| depth(c, n - 1), |_| 1);
            a + b
        }
        let rt = Runtime::new(1);
        assert_eq!(rt.install(|ctx| depth(ctx, 200)), 200);
    }
}
