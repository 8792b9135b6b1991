//! Explicit tasks over lock-based deques — the `omp task` / `taskwait`
//! analogue.
//!
//! The paper singles out this design point: "the workstealing for omp task in
//! Intel compiler uses lock-based deque for pushing, popping and stealing
//! tasks in the deque, which increases more contention and overhead than the
//! workstealing protocol in Cilk Plus". Accordingly, every deque operation
//! here goes through [`tpm_sync::LockedDeque`]'s lock; the lock-free
//! counterpart lives in `tpm-worksteal`. The benchmark's per-layer metrics
//! `sync.locked_deque.push_pop_ns` and `sync.chase_lev.push_pop_ns` compare
//! the two directly.
//!
//! Scheduling is *work-first* (the paper's §III-B): at a scheduling point a
//! thread runs its own newest task (depth-first LIFO), and thieves take the
//! oldest.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use tpm_sync::CountLatch;

use crate::team::Ctx;

/// A raw pointer made `Send` for captured completion latches. Validity is
/// guaranteed by the scope protocol (the referent outlives every task).
struct SendPtr<T>(*const T);
// SAFETY: see above; the pointee is a sync latch.
unsafe impl<T: Sync> Send for SendPtr<T> {}

/// An erased, queued task. The closure receives the *executing* thread's
/// region context, so tasks can spawn nested tasks from whichever thread
/// steals them.
pub(crate) struct TaskRef {
    func: Box<dyn for<'b> FnOnce(&Ctx<'b>) + Send>,
}

impl TaskRef {
    pub(crate) fn execute(self, ctx: &Ctx<'_>) {
        (self.func)(ctx);
    }
}

/// A structured task scope: spawned tasks are guaranteed complete when the
/// scope returns (the `taskwait` at scope end is implicit).
pub struct TaskScope<'c, 'a> {
    ctx: &'c Ctx<'a>,
    latch: CountLatch,
}

impl<'c, 'a> TaskScope<'c, 'a> {
    /// Spawns a task (`#pragma omp task`). It may execute on any thread of
    /// the region, and may borrow anything that outlives the scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: for<'b> FnOnce(&Ctx<'b>) + Send + 'c,
    {
        self.latch.increment(1);
        let latch = SendPtr::<CountLatch>(&self.latch);
        let wrapper = move |ctx: &Ctx<'_>| {
            // Capture the whole SendPtr, not the raw pointer field (2021
            // disjoint capture would otherwise defeat the Send wrapper).
            let latch = latch;
            // Injected task faults run inside this containment layer, so the
            // latch below always completes: a dropped task surfaces as a
            // contained panic (observable, never silent), not a hang.
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
                match tpm_fault::probe(tpm_fault::Site::TaskExec) {
                    tpm_fault::Action::Panic => {
                        tpm_fault::injected_panic(tpm_fault::Site::TaskExec)
                    }
                    tpm_fault::Action::TaskDrop => {
                        tpm_fault::injected_drop(tpm_fault::Site::TaskExec)
                    }
                    _ => {}
                }
                f(ctx)
            })) {
                ctx.store_region_panic(p);
            }
            // SAFETY: the scope (and its latch) cannot be dropped until this
            // decrement: `run_task_scope` blocks on the latch.
            unsafe { &*latch.0 }.decrement();
        };
        let boxed: Box<dyn for<'b> FnOnce(&Ctx<'b>) + Send + 'c> = Box::new(wrapper);
        // SAFETY: lifetime erasure, justified by the latch protocol above —
        // no task outlives the scope that borrowed its environment.
        let boxed: Box<dyn for<'b> FnOnce(&Ctx<'b>) + Send + 'static> =
            unsafe { std::mem::transmute(boxed) };
        self.ctx.push_task(TaskRef { func: boxed });
    }

    /// Explicit `taskwait`: blocks until every task spawned so far in this
    /// scope has completed, executing queued tasks while waiting.
    pub fn wait_all(&self) {
        drain(self.ctx, &self.latch);
    }

    /// The context of the thread that opened the scope.
    pub fn ctx(&self) -> &'c Ctx<'a> {
        self.ctx
    }
}

fn drain(ctx: &Ctx<'_>, latch: &CountLatch) {
    // Latch completion has no unpark path, so the shared idle policy runs in
    // its no-park mode.
    let idle = ctx.idle_strategy();
    while !latch.probe() {
        if ctx.execute_one_task() {
            idle.reset();
        } else {
            idle.snooze_no_park();
        }
    }
}

pub(crate) fn run_task_scope<'c, 'a, R>(
    ctx: &'c Ctx<'a>,
    f: impl FnOnce(&TaskScope<'c, 'a>) -> R,
) -> R {
    let scope = TaskScope {
        ctx,
        latch: CountLatch::new(0),
    };
    // Even if `f` panics, spawned tasks still borrow the enclosing stack and
    // must finish before we unwind through it.
    let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
    drain(ctx, &scope.latch);
    // A panic from a *task* stays parked in the region and is re-raised by
    // `Team::parallel*` after the join — unwinding it here, mid-region, would
    // strand sibling threads at the region's barriers (the OpenMP equivalent
    // is undefined behaviour; deferring is the well-defined version).
    match result {
        Ok(r) => r,
        Err(p) => resume_unwind(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::Team;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn tasks_all_execute() {
        let team = Team::new(4);
        let hits = AtomicU64::new(0);
        team.parallel(|ctx| {
            ctx.single(|| {
                ctx.task_scope(|s| {
                    for _ in 0..100 {
                        s.spawn(|_| {
                            hits.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            });
        });
        assert_eq!(hits.into_inner(), 100);
    }

    #[test]
    fn tasks_can_borrow_and_mutate_disjoint_stack_data() {
        let team = Team::new(4);
        let mut results = vec![0u64; 16];
        {
            // Hand the &mut slots into the region through a take-once cell
            // (the region closure itself is `Fn`, so it cannot hold `&mut`).
            let slots = std::sync::Mutex::new(Some(results.iter_mut().collect::<Vec<_>>()));
            team.parallel_with(4, |ctx| {
                ctx.single(|| {
                    let slots = slots.lock().unwrap().take().unwrap();
                    ctx.task_scope(|s| {
                        for (i, slot) in slots.into_iter().enumerate() {
                            s.spawn(move |_| *slot = i as u64 * 2);
                        }
                    });
                });
            });
        }
        assert_eq!(results, (0..16).map(|i| i * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn nested_task_spawning() {
        // fib(12) via recursive tasks spawned from whichever thread executes.
        fn fib(ctx: &Ctx<'_>, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let mut a = 0;
            let mut b = 0;
            ctx.task_scope(|s| {
                s.spawn(|c| a = fib(c, n - 1));
                b = fib(ctx, n - 2);
            });
            a + b
        }
        let team = Team::new(4);
        let out = AtomicU64::new(0);
        team.parallel(|ctx| {
            ctx.single(|| {
                out.store(fib(ctx, 12), Ordering::Relaxed);
            });
        });
        assert_eq!(out.into_inner(), 144);
    }

    #[test]
    fn wait_all_is_a_scheduling_point() {
        let team = Team::new(2);
        let stage1 = AtomicU64::new(0);
        let stage2 = AtomicU64::new(0);
        team.parallel(|ctx| {
            ctx.single(|| {
                ctx.task_scope(|s| {
                    for _ in 0..10 {
                        s.spawn(|_| {
                            stage1.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    s.wait_all();
                    assert_eq!(stage1.load(Ordering::Relaxed), 10);
                    for _ in 0..5 {
                        s.spawn(|_| {
                            stage2.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            });
        });
        assert_eq!(stage1.into_inner(), 10);
        assert_eq!(stage2.into_inner(), 5);
    }

    #[test]
    fn task_panic_propagates_out_of_region() {
        let team = Team::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            team.parallel(|ctx| {
                ctx.single(|| {
                    ctx.task_scope(|s| {
                        s.spawn(|_| panic!("task boom"));
                    });
                });
            });
        }));
        assert!(r.is_err());
    }

    #[test]
    fn tasks_are_stolen_by_idle_threads() {
        // All tasks spawned by thread 0; with 4 threads and slow tasks, the
        // stats must show at least one steal.
        let team = Team::new(4);
        team.parallel(|ctx| {
            ctx.single(|| {
                ctx.task_scope(|s| {
                    for _ in 0..64 {
                        s.spawn(|_| {
                            std::hint::black_box((0..5_000).sum::<u64>());
                        });
                    }
                });
            });
        });
        let snap = team.stats().snapshot();
        assert_eq!(snap.spawned, 64);
        assert_eq!(snap.executed, 64);
    }

    #[test]
    fn work_first_runs_own_tasks_lifo() {
        // Single-threaded team: spawn a, b, c; they must run c, b, a.
        let team = Team::new(1);
        let order = std::sync::Mutex::new(Vec::new());
        team.parallel(|ctx| {
            ctx.task_scope(|s| {
                for i in 0..3 {
                    let order = &order;
                    s.spawn(move |_| order.lock().unwrap().push(i));
                }
            });
        });
        assert_eq!(order.into_inner().unwrap(), vec![2, 1, 0]);
    }
}
