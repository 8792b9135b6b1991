//! Structured task scopes — the general `cilk_spawn`…`cilk_sync` form for an
//! arbitrary number of children.

use std::any::Any;
use std::panic::resume_unwind;

use tpm_sync::{CountLatch, SpinLock};

use crate::job::HeapJob;
use crate::pool::harness_panic;
use crate::runtime::WorkerCtx;

/// A spawn scope: every task spawned through it completes before
/// [`scope`] returns (the implicit `cilk_sync`).
pub struct Scope<'s, 'w> {
    ctx: &'s WorkerCtx<'w>,
    latch: CountLatch,
    panic: SpinLock<Option<Box<dyn Any + Send>>>,
}

/// A raw pointer made `Send`; validity guaranteed by the scope protocol.
struct SendPtr<T>(*const T);
// SAFETY: the referent is Sync and outlives all users (latch protocol).
unsafe impl<T: Sync> Send for SendPtr<T> {}

impl<'s, 'w> Scope<'s, 'w> {
    /// Spawns a task. It may run on any worker and borrow anything that
    /// outlives the scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: for<'c> FnOnce(&WorkerCtx<'c>) + Send + 's,
    {
        self.latch.increment(1);
        let latch = SendPtr::<CountLatch>(&self.latch);
        let panic = SendPtr::<SpinLock<Option<Box<dyn Any + Send>>>>(&self.panic);
        let wrapper = move |ctx: &WorkerCtx<'_>| {
            let latch = latch;
            let panic = panic;
            // SAFETY: scope waits on the latch before dropping, so both
            // referents are alive here.
            harness_panic(unsafe { &*panic.0 }, || {
                // Injected task faults run inside the harness: the latch
                // below always decrements, so a dropped task is a contained,
                // observable panic — never a hang or silent omission.
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
            });
            unsafe { &*latch.0 }.decrement();
        };
        let boxed: Box<dyn for<'c> FnOnce(&WorkerCtx<'c>) + Send + 's> = Box::new(wrapper);
        // SAFETY: lifetime erasure backed by the latch protocol — the scope
        // cannot end (and the borrowed environment cannot drop) before every
        // spawned task decremented the latch.
        let boxed: Box<dyn for<'c> FnOnce(&WorkerCtx<'c>) + Send + 'static> =
            unsafe { std::mem::transmute(boxed) };
        self.ctx
            .core
            .push(HeapJob::into_job_ref(move |ctx: &WorkerCtx<'_>| boxed(ctx)));
    }

    /// The spawning worker's context.
    pub fn ctx(&self) -> &'s WorkerCtx<'w> {
        self.ctx
    }

    /// Explicit mid-scope sync: waits for all tasks spawned so far,
    /// executing queued work while waiting.
    pub fn wait_all(&self) {
        self.ctx.core.wait_until(|| self.latch.probe());
    }
}

/// Opens a scope on the current worker: `f` may spawn tasks through it; all
/// of them (including transitively spawned ones) complete before `scope`
/// returns. The first panic from any task is re-raised here.
///
/// # Examples
///
/// ```
/// use tpm_worksteal::{scope, Runtime};
/// use std::sync::atomic::{AtomicU32, Ordering};
///
/// let rt = Runtime::new(4);
/// let hits = AtomicU32::new(0);
/// rt.install(|ctx| {
///     scope(ctx, |s| {
///         for _ in 0..16 {
///             s.spawn(|_| { hits.fetch_add(1, Ordering::Relaxed); });
///         }
///     });
/// });
/// assert_eq!(hits.into_inner(), 16);
/// ```
pub fn scope<'w, R>(ctx: &WorkerCtx<'w>, f: impl FnOnce(&Scope<'_, 'w>) -> R) -> R {
    let s = Scope {
        ctx,
        latch: CountLatch::new(0),
        panic: SpinLock::new(None),
    };
    // If `f` itself panics, spawned tasks still borrow this frame: drain
    // before unwinding.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&s)));
    ctx.core.wait_until(|| s.latch.probe());
    if let Some(p) = s.panic.lock().take() {
        resume_unwind(p);
    }
    match result {
        Ok(r) => r,
        Err(p) => resume_unwind(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn spawned_tasks_all_run() {
        let rt = Runtime::new(4);
        let hits = AtomicU64::new(0);
        rt.install(|ctx| {
            scope(ctx, |s| {
                for _ in 0..200 {
                    s.spawn(|_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(hits.into_inner(), 200);
    }

    #[test]
    fn tasks_mutate_disjoint_borrowed_slots() {
        let rt = Runtime::new(4);
        let mut data = vec![0u64; 64];
        rt.install(|ctx| {
            let slots: Vec<&mut u64> = data.iter_mut().collect();
            scope(ctx, |s| {
                for (i, slot) in slots.into_iter().enumerate() {
                    s.spawn(move |_| *slot = i as u64 + 1);
                }
            });
        });
        assert_eq!(data, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn nested_scopes() {
        let rt = Runtime::new(4);
        let hits = AtomicU64::new(0);
        rt.install(|ctx| {
            scope(ctx, |s| {
                for _ in 0..4 {
                    s.spawn(|ctx2| {
                        scope(ctx2, |s2| {
                            for _ in 0..8 {
                                s2.spawn(|_| {
                                    hits.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    });
                }
            });
        });
        assert_eq!(hits.into_inner(), 32);
    }

    #[test]
    fn wait_all_synchronizes_mid_scope() {
        let rt = Runtime::new(2);
        let stage = AtomicU64::new(0);
        rt.install(|ctx| {
            scope(ctx, |s| {
                for _ in 0..10 {
                    s.spawn(|_| {
                        stage.fetch_add(1, Ordering::Relaxed);
                    });
                }
                s.wait_all();
                assert_eq!(stage.load(Ordering::Relaxed), 10);
            });
        });
    }

    #[test]
    fn task_panic_propagates_from_scope() {
        let rt = Runtime::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            rt.install(|ctx| {
                scope(ctx, |s| {
                    s.spawn(|_| panic!("scope task boom"));
                });
            })
        }));
        assert!(r.is_err());
        assert_eq!(rt.install(|_| 9), 9);
    }

    #[test]
    fn scope_body_panic_still_drains_tasks() {
        let rt = Runtime::new(2);
        let ran = AtomicU64::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            rt.install(|ctx| {
                scope(ctx, |s| {
                    for _ in 0..8 {
                        s.spawn(|_| {
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    panic!("body boom");
                });
            })
        }));
        assert!(r.is_err());
        assert_eq!(ran.into_inner(), 8);
    }
}
