//! Erased job representations for the work-stealing scheduler.
//!
//! A [`JobRef`] is a fat-pointer-free `(data, exec)` pair so it can live in
//! the Chase–Lev deque as a small POD. Two concrete job kinds:
//!
//! * [`StackJob`] — lives on the spawning thread's stack (used by `join` and
//!   `Runtime::install`, whose protocols guarantee the frame outlives the
//!   job), carrying a result slot and a completion latch. The root job of an
//!   `install` also wakes its parked caller (see [`StackJob::external`]).
//! * [`HeapJob`] — boxed, fire-and-forget (used by `Scope::spawn`, which
//!   tracks completion with the scope's own counting latch).

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use tpm_sync::SpinLatch;

use crate::runtime::WorkerCtx;

/// A type-erased, queueable job.
pub(crate) struct JobRef {
    data: *const (),
    exec: unsafe fn(*const (), &WorkerCtx<'_>),
}

// SAFETY: jobs are either heap-owned or stack frames kept alive by a latch
// protocol; the pointer is valid until executed exactly once.
unsafe impl Send for JobRef {}

impl JobRef {
    /// # Safety
    /// `data` must stay valid until the job executes, and must be executed
    /// at most once.
    pub(crate) unsafe fn new<J: Job>(data: *const J) -> Self {
        Self {
            data: data as *const (),
            exec: J::execute_erased,
        }
    }

    /// Runs the job on the calling worker.
    pub(crate) fn execute(self, ctx: &WorkerCtx<'_>) {
        // SAFETY: contract upheld at creation.
        unsafe { (self.exec)(self.data, ctx) }
    }

    /// Identity for "did I pop my own job back" checks.
    pub(crate) fn data_ptr(&self) -> *const () {
        self.data
    }
}

/// A job kind that can be erased into a [`JobRef`].
pub(crate) trait Job {
    /// # Safety
    /// `this` must be the pointer a [`JobRef::new`] was created with.
    unsafe fn execute_erased(this: *const (), ctx: &WorkerCtx<'_>);
}

/// A job whose storage is a stack frame of the spawning thread.
pub(crate) struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
    /// Set after the result is written.
    pub(crate) latch: SpinLatch,
    /// Whether an outside thread waits for `latch` in
    /// `Shared::wait_external`, so completion must wake it.
    external: bool,
}

// SAFETY: access is phased — the spawner writes `func` before publishing the
// JobRef; exactly one executor takes `func` and writes `result`; the spawner
// reads `result` only after `latch` is set.
unsafe impl<F: Send, R: Send> Sync for StackJob<F, R> {}

impl<F, R> StackJob<F, R>
where
    F: FnOnce(&WorkerCtx<'_>) -> R + Send,
    R: Send,
{
    /// A job a worker waits for (a `join`'s spawned side).
    pub(crate) fn new(func: F) -> Self {
        Self {
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
            latch: SpinLatch::new(),
            external: false,
        }
    }

    /// A job an outside thread waits for through the pool's
    /// `wait_external` (the root job of `Runtime::install`).
    pub(crate) fn external(func: F) -> Self {
        Self {
            external: true,
            ..Self::new(func)
        }
    }

    /// # Safety
    /// The caller must keep `self` alive until `latch` is set, and must not
    /// create more than one outstanding `JobRef`.
    pub(crate) unsafe fn as_job_ref(&self) -> JobRef {
        JobRef::new(self as *const Self)
    }

    /// True if `job` refers to this stack job.
    pub(crate) fn is(&self, job: &JobRef) -> bool {
        std::ptr::eq(job.data_ptr() as *const Self, self)
    }

    /// Takes the result after completion, re-raising the job's panic on the
    /// joining thread.
    ///
    /// # Panics
    /// Re-raises the executed closure's panic, if any.
    pub(crate) fn take_result(&self) -> R {
        debug_assert!(self.latch.probe(), "take_result before completion");
        // SAFETY: latch set ⇒ executor finished writing and will not touch
        // the slot again.
        let res = unsafe { (*self.result.get()).take() }.expect("result taken twice");
        match res {
            Ok(r) => r,
            Err(p) => resume_unwind(p),
        }
    }
}

impl<F, R> Job for StackJob<F, R>
where
    F: FnOnce(&WorkerCtx<'_>) -> R + Send,
    R: Send,
{
    unsafe fn execute_erased(this: *const (), ctx: &WorkerCtx<'_>) {
        let this = &*(this as *const Self);
        // Read before the set: once the latch is set the waiter may return
        // and free the frame `this` lives in.
        let external = this.external;
        let func = (*this.func.get()).take().expect("StackJob executed twice");
        let result = catch_unwind(AssertUnwindSafe(|| func(ctx)));
        *this.result.get() = Some(result);
        this.latch.set();
        if external {
            // Touches only the pool, which outlives every region run on it.
            ctx.core.shared().wake_external();
        }
    }
}

/// A boxed job; completion/panic bookkeeping is the wrapper closure's
/// responsibility.
pub(crate) struct HeapJob<F> {
    func: F,
}

impl<F> HeapJob<F>
where
    F: FnOnce(&WorkerCtx<'_>) + Send,
{
    /// Boxes `func` and returns an owning [`JobRef`].
    pub(crate) fn into_job_ref(func: F) -> JobRef {
        let boxed = Box::new(HeapJob { func });
        // SAFETY: the raw box is reconstituted exactly once in
        // `execute_erased`.
        unsafe { JobRef::new(Box::into_raw(boxed)) }
    }
}

impl<F> Job for HeapJob<F>
where
    F: FnOnce(&WorkerCtx<'_>) + Send,
{
    unsafe fn execute_erased(this: *const (), ctx: &WorkerCtx<'_>) {
        let boxed = Box::from_raw(this as *mut Self);
        (boxed.func)(ctx);
    }
}
