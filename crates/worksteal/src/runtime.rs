//! The randomized work-stealing runtime (the Cilk Plus analogue).
//!
//! Per the paper (§III-B): "each worker thread has a double-ended queue
//! (deque) to keep list of the tasks. The work-stealing scheduler of a worker
//! pushes and pops tasks from one end of the queue and a thief worker steals
//! tasks from the other end". Here the deque is the lock-free Chase–Lev
//! implementation from `tpm-sync` (contrast with `tpm-forkjoin`'s lock-based
//! task deques), and idle workers back off to parking until woken so an
//! idle runtime consumes no CPU.
//!
//! The scheduler is [`crate::pool`], shared with `tpm-actors`; this module is
//! its front end for erased `join`/`scope` jobs. Two hot-path choices of the
//! pool keep steal traffic low:
//!
//! * Thieves steal in *batches* (up to half the victim's visible work via
//!   [`Stealer::steal_batch_into`]), so one successful probe feeds several
//!   task executions from the thief's own deque.
//! * Victims are scanned round-robin from a per-worker offset that rotates
//!   every episode, so simultaneous thieves fan out across victims instead
//!   of herding onto the same one (which shows up as `failed` steals in the
//!   profile tables).
//!
//! [`Stealer::steal_batch_into`]: tpm_sync::chase_lev::Stealer::steal_batch_into

use tpm_sync::{PoolConfig, SchedulerStats};

use crate::job::{JobRef, StackJob};
use crate::pool::{self, Pool};

impl pool::Task for JobRef {
    const NAME: &'static str = "tpm-worksteal";
    type State = ();

    fn run(self, core: &pool::Ctx<'_, Self>) {
        self.execute(&WorkerCtx { core });
    }
}

/// A work-stealing runtime with a fixed set of workers.
///
/// A runtime of P ≥ 2 workers is P − 1 threads plus the thread that waits
/// on it: the caller of [`install`](Runtime::install) works as worker 0
/// until its region completes, as Cilk Plus counts the user thread among
/// its `CILK_NWORKERS`. A 1-worker runtime is one spawned thread.
///
/// External threads submit work with [`install`](Runtime::install); inside,
/// code composes with [`join`](crate::join), [`scope`](crate::scope) and
/// [`par_for`](crate::par_for).
///
/// # Examples
///
/// ```
/// use tpm_worksteal::Runtime;
///
/// let rt = Runtime::new(4);
/// let sum = rt.install(|ctx| {
///     let (a, b) = tpm_worksteal::join(
///         ctx,
///         |_| (0..500u64).sum::<u64>(),
///         |_| (500..1000u64).sum::<u64>(),
///     );
///     a + b
/// });
/// assert_eq!(sum, (0..1000).sum());
/// ```
pub struct Runtime {
    pool: Pool<JobRef>,
}

impl Runtime {
    /// Creates a runtime with `num_workers` workers and the
    /// [`PoolConfig::from_env`] defaults (pinning from `TPM_PIN`).
    pub fn new(num_workers: usize) -> Self {
        Self::with_config(PoolConfig {
            threads: num_workers,
            ..PoolConfig::from_env()
        })
    }

    /// Creates a runtime of `cfg.threads` workers, `cfg.threads − 1` of them
    /// spawned (one when `cfg.threads` is 1): spawned worker `i` is pinned
    /// to core `i % cores` when `cfg.pin` (a no-op on platforms without
    /// `sched_setaffinity`), thieves scan same-node victims first when
    /// `cfg.numa`, and `cfg.idle` is the spin → yield budget before a
    /// worker parks.
    ///
    /// # Examples
    ///
    /// ```
    /// use tpm_sync::PoolConfig;
    /// use tpm_worksteal::Runtime;
    ///
    /// let rt = Runtime::with_config(PoolConfig { threads: 2, pin: false, ..PoolConfig::from_env() });
    /// assert_eq!(rt.num_workers(), 2);
    /// ```
    pub fn with_config(cfg: PoolConfig) -> Self {
        Runtime {
            pool: Pool::new(cfg),
        }
    }

    /// Number of workers, the caller's seat included.
    pub fn num_workers(&self) -> usize {
        self.pool.num_workers()
    }

    /// Workers currently alive, the caller's seat counted as one. Briefly
    /// below [`num_workers`] while a dead worker's replacement is starting;
    /// equal again once self-healing completes.
    ///
    /// [`num_workers`]: Runtime::num_workers
    pub fn live_workers(&self) -> usize {
        self.pool.live_workers()
    }

    /// Total workers lost to escaped panics since construction (each one is
    /// replaced by a respawned thread on the same index).
    pub fn worker_deaths(&self) -> usize {
        self.pool.worker_deaths()
    }

    /// Scheduler event counters.
    pub fn stats(&self) -> &SchedulerStats {
        self.pool.stats()
    }

    /// Whether node-aware victim ordering is active (see
    /// [`PoolConfig::numa`]).
    pub fn numa_enabled(&self) -> bool {
        self.pool.numa_enabled()
    }

    /// Runs `f` in the runtime, blocking the calling (external) thread until
    /// it — and everything it joined/spawned-and-waited — completes. The
    /// root job is injected, and the caller then takes the seat and works
    /// as worker 0 until the region completes, so `f` and its children may
    /// run on the calling thread. When out of work it waits as an idle
    /// worker does (the pool's spin → yield window, then a park until a
    /// push or the region's completion wakes it). A caller that finds the
    /// seat taken — a second concurrent caller, a nested `install`, or any
    /// caller of a 1-worker runtime — only waits, in the same window and
    /// park. Panics inside are re-raised here.
    pub fn install<R, F>(&self, f: F) -> R
    where
        R: Send,
        F: FnOnce(&WorkerCtx<'_>) -> R + Send,
    {
        let job = StackJob::external(f);
        // SAFETY: we block on the latch below, so the stack frame outlives
        // the job; the JobRef is queued exactly once.
        unsafe {
            self.pool.inject(job.as_job_ref());
        }
        self.pool.wait_external(|| job.latch.probe());
        job.take_result()
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("num_workers", &self.num_workers())
            .finish()
    }
}

/// The per-worker execution context, passed to every job. All scheduling
/// operations ([`crate::join`], [`crate::scope`], [`crate::par_for`]) take it
/// as their first argument — it identifies the deque to push to.
pub struct WorkerCtx<'w> {
    pub(crate) core: &'w pool::Ctx<'w, JobRef>,
}

impl WorkerCtx<'_> {
    /// This worker's index in `0..num_workers`.
    pub fn index(&self) -> usize {
        self.core.index()
    }

    /// Total number of workers in the runtime.
    pub fn num_workers(&self) -> usize {
        self.core.num_workers()
    }
}

impl std::fmt::Debug for WorkerCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.core.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_runs_on_a_worker_and_returns() {
        let rt = Runtime::new(2);
        let r = rt.install(|ctx| {
            assert!(ctx.index() < 2);
            assert_eq!(ctx.num_workers(), 2);
            21 * 2
        });
        assert_eq!(r, 42);
    }

    #[test]
    fn install_is_reusable() {
        let rt = Runtime::new(3);
        for i in 0..100u64 {
            assert_eq!(rt.install(move |_| i + 1), i + 1);
        }
    }

    #[test]
    fn install_propagates_panics() {
        let rt = Runtime::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.install(|_| panic!("install boom"));
        }));
        assert!(r.is_err());
        // Runtime still alive.
        assert_eq!(rt.install(|_| 5), 5);
    }

    #[test]
    fn nested_install_waits_without_the_seat() {
        let rt = Runtime::new(2);
        let r = rt.install(|_| rt.install(|ctx| ctx.index() + 40));
        assert!(r == 40 || r == 41);
    }

    #[test]
    fn single_worker_runtime_works() {
        let rt = Runtime::new(1);
        assert_eq!(rt.install(|_| "ok"), "ok");
    }

    #[test]
    fn drop_terminates_workers() {
        let rt = Runtime::new(4);
        rt.install(|_| ());
        drop(rt); // must not hang
    }

    #[test]
    fn numa_enabled_runtime_still_schedules_and_steals() {
        let rt = Runtime::with_config(PoolConfig {
            threads: 4,
            pin: false,
            numa: true,
            ..PoolConfig::from_env()
        });
        assert!(rt.numa_enabled());
        let total = rt.install(|ctx| {
            let mut sum = 0u64;
            crate::par_for(
                ctx,
                0..10_000usize,
                crate::par_for::Grain::Fixed(16),
                &|i| {
                    std::hint::black_box(i);
                },
            );
            crate::join(ctx, |_| sum += 1, |_| ());
            sum
        });
        assert_eq!(total, 1);
    }

    #[test]
    fn stats_count_installed_jobs() {
        let rt = Runtime::new(2);
        rt.stats().reset();
        for _ in 0..10 {
            rt.install(|_| ());
        }
        assert_eq!(rt.stats().snapshot().executed, 10);
    }
}
