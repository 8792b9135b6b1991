//! The activation scheduler: work stealing of actor activations.
//!
//! Charm++ and HPX schedule *activations* — "run this actor against its
//! mailbox", "run this one-shot task" — rather than loop chunks, but the
//! load-balancing substrate is the same randomized work stealing the Cilk
//! runtime uses (Kulkarni–Lumsdaine §4). Here it is not merely the same
//! shape but the same code: [`ActorRuntime`] is a front end over
//! `tpm-worksteal`'s pool (per-worker Chase–Lev deques, batch stealing from
//! rotating victims, spin → yield → park until woken,
//! self-healing workers, external submissions through a locked injector),
//! queueing `Activation`s where `tpm-worksteal` queues erased jobs. Every chaos
//! plan and profile recipe that runs against the Cilk analogue therefore
//! runs against the actor runtime, and the figures compare schedulers, not
//! harness plumbing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tpm_sync::{PoolConfig, SchedulerStats, SpinLatch, SpinLock};
use tpm_worksteal::pool::{self, Pool, Shared};

use crate::mailbox::{ActorCell, Runnable};
use crate::Future;

/// One unit of schedulable work: a one-shot task (the many-tasking
/// "parcel") or a scheduled actor draining its mailbox.
pub(crate) enum Activation {
    /// Run-once closure. The `'static` bound is real for public spawns and
    /// erased (latch-protected) for the parallel-loop entry points.
    Task(Box<dyn FnOnce(&WorkerCtx<'_>) + Send + 'static>),
    /// An actor with a non-empty mailbox (at most one outstanding
    /// activation per actor — the mailbox state machine enforces that).
    Cell(Arc<dyn Runnable>),
}

impl pool::Task for Activation {
    const NAME: &'static str = "tpm-actors";
    /// Panics that escaped a *fire-and-forget* activation (contained here —
    /// the worker survives; structured entry points carry their own panic
    /// slots instead and never hit this).
    type State = AtomicUsize;

    /// Runs one activation, containing any escaped panic (fire-and-forget
    /// work must not kill the worker).
    fn run(self, core: &pool::Ctx<'_, Self>) {
        let ctx = WorkerCtx { core };
        let contained = catch_unwind(AssertUnwindSafe(|| match self {
            Activation::Task(f) => f(&ctx),
            Activation::Cell(cell) => cell.run(&ctx),
        }));
        if contained.is_err() {
            ctx.note_task_panic();
        }
    }
}

/// The scheduler state actor cells hold (weakly) to enqueue activations.
pub(crate) type RuntimeInner = Shared<Activation>;

/// The message-driven runtime: a fixed pool of workers executing
/// activations. As with `tpm_worksteal::Runtime`, P ≥ 2 workers are P − 1
/// spawned threads plus a seat that the thread waiting on a loop entry or
/// in [`block_on`](ActorRuntime::block_on) works as worker 0; activations
/// no one waits for run on the spawned workers.
///
/// # Examples
///
/// ```
/// use tpm_actors::ActorRuntime;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let rt = ActorRuntime::new(2);
/// let hits = Arc::new(AtomicU64::new(0));
/// let h = Arc::clone(&hits);
/// rt.spawn(move |_| {
///     h.fetch_add(1, Ordering::Relaxed);
/// });
/// while hits.load(Ordering::Relaxed) == 0 {
///     std::thread::yield_now();
/// }
/// ```
pub struct ActorRuntime {
    pub(crate) pool: Pool<Activation>,
}

impl ActorRuntime {
    /// Creates a runtime with `num_workers` workers and the
    /// [`PoolConfig::from_env`] defaults.
    pub fn new(num_workers: usize) -> Self {
        Self::with_config(PoolConfig {
            threads: num_workers,
            ..PoolConfig::from_env()
        })
    }

    /// Creates a runtime of `cfg.threads` workers on the shared stealing
    /// pool, with the same pinning and idle policy semantics as
    /// `tpm_worksteal::Runtime::with_config`: `cfg.threads − 1` spawned
    /// threads plus the waiting caller's seat, or one spawned
    /// thread when `cfg.threads` is 1 (fire-and-forget activations always
    /// have a thread that runs them with no caller waiting).
    ///
    /// # Examples
    ///
    /// ```
    /// use tpm_actors::ActorRuntime;
    /// use tpm_sync::PoolConfig;
    ///
    /// let rt = ActorRuntime::with_config(PoolConfig { threads: 2, pin: false, ..PoolConfig::from_env() });
    /// assert_eq!(rt.num_workers(), 2);
    /// ```
    pub fn with_config(cfg: PoolConfig) -> Self {
        ActorRuntime {
            pool: Pool::new(cfg),
        }
    }

    /// Number of workers, the caller's seat included.
    pub fn num_workers(&self) -> usize {
        self.pool.num_workers()
    }

    /// Workers currently alive, the caller's seat counted as one (briefly
    /// below [`num_workers`] while a replacement for a dead worker is
    /// starting).
    ///
    /// [`num_workers`]: ActorRuntime::num_workers
    pub fn live_workers(&self) -> usize {
        self.pool.live_workers()
    }

    /// Total workers lost to escaped panics since construction.
    pub fn worker_deaths(&self) -> usize {
        self.pool.worker_deaths()
    }

    /// Panics contained from fire-and-forget activations (spawned tasks or
    /// actor message handlers; the worker survives each one).
    pub fn task_panics(&self) -> usize {
        self.pool.state().load(Ordering::Acquire)
    }

    /// Scheduler event counters.
    pub fn stats(&self) -> &SchedulerStats {
        self.pool.stats()
    }

    /// Spawns a fire-and-forget task activation. A panic in `f` is
    /// contained (counted in [`task_panics`](ActorRuntime::task_panics));
    /// use [`crate::future`] to observe completion or failure.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&WorkerCtx<'_>) + Send + 'static,
    {
        self.pool.inject(Activation::Task(Box::new(f)));
    }

    /// Blocks the calling (external) thread until `future` completes and
    /// returns its value. The caller waits through the pool: it takes the
    /// seat and runs activations as worker 0 meanwhile (see
    /// `tpm_worksteal::pool::Shared::wait_external`). [`Future::wait`]
    /// is for waits with no runtime at hand.
    pub fn block_on<T: Send + 'static>(&self, future: Future<T>) -> T {
        let cell = Arc::new((SpinLatch::new(), SpinLock::new(None)));
        let (slot, pool) = (Arc::clone(&cell), self.pool.downgrade());
        future.on_ready(move |v| {
            *slot.1.lock() = Some(v);
            slot.0.set();
            if let Some(pool) = pool.upgrade() {
                pool.wake_external();
            }
        });
        self.pool.wait_external(|| cell.0.probe());
        let value = cell.1.lock().take();
        value.expect("a set latch follows the stored value")
    }

    /// Spawns an actor, returning its address. The actor runs on the pool's
    /// workers, one activation at a time, whenever its mailbox is non-empty.
    pub fn spawn_actor<A: crate::Actor>(&self, actor: A) -> crate::Addr<A> {
        ActorCell::spawn(actor, self.pool.downgrade())
    }
}

impl std::fmt::Debug for ActorRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorRuntime")
            .field("num_workers", &self.num_workers())
            .finish()
    }
}

/// The per-worker execution context, passed to every activation.
pub struct WorkerCtx<'w> {
    pub(crate) core: &'w pool::Ctx<'w, Activation>,
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

    /// Spawns a fire-and-forget task onto this worker's own deque (it
    /// becomes stealable immediately).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&WorkerCtx<'_>) + Send + 'static,
    {
        self.core.push(Activation::Task(Box::new(f)));
    }

    /// Works (pop own, then steal) until `probe()` turns true — lets a
    /// worker blocked on a [`Future`](crate::Future) keep executing
    /// activations instead of stalling its deque.
    pub fn wait_until(&self, probe: impl Fn() -> bool) {
        self.core.wait_until(probe);
    }

    /// Counts one contained fire-and-forget panic.
    pub(crate) fn note_task_panic(&self) {
        self.core.shared().state().fetch_add(1, Ordering::AcqRel);
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
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    fn wait_for(cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out");
            std::thread::yield_now();
        }
    }

    #[test]
    fn spawned_tasks_run() {
        let rt = ActorRuntime::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let h = Arc::clone(&hits);
            rt.spawn(move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            });
        }
        wait_for(|| hits.load(Ordering::Relaxed) == 100);
    }

    #[test]
    fn worker_spawns_are_stealable() {
        let rt = ActorRuntime::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        rt.spawn(move |ctx| {
            for _ in 0..64 {
                let h = Arc::clone(&h);
                ctx.spawn(move |_| {
                    h.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        wait_for(|| hits.load(Ordering::Relaxed) == 64);
        // At least one other worker should have taken part under load, but
        // on a single-CPU host all 64 may run on one — only assert totals.
        assert!(rt.stats().snapshot().executed >= 65);
    }

    #[test]
    fn task_panics_are_contained() {
        let rt = ActorRuntime::new(2);
        rt.spawn(|_| panic!("boom"));
        wait_for(|| rt.task_panics() == 1);
        // Pool still works.
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        rt.spawn(move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        wait_for(|| hits.load(Ordering::Relaxed) == 1);
        assert_eq!(rt.live_workers(), 2);
        assert_eq!(rt.worker_deaths(), 0);
    }

    #[test]
    fn drop_terminates_workers() {
        let rt = ActorRuntime::new(4);
        rt.spawn(|_| ());
        drop(rt); // must not hang
    }

    #[test]
    fn block_on_returns_the_value_from_a_worker_or_the_seat() {
        for threads in [1, 2, 3] {
            let rt = ActorRuntime::new(threads);
            for i in 0..100u64 {
                let (f, p) = crate::future();
                rt.spawn(move |_| p.set(i * 2));
                assert_eq!(rt.block_on(f), i * 2);
            }
            // Already complete: the continuation runs on the caller.
            let (f, p) = crate::future();
            p.set(7u64);
            assert_eq!(rt.block_on(f), 7);
        }
    }

    #[test]
    fn single_worker_runtime_works() {
        let rt = ActorRuntime::new(1);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        rt.spawn(move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        wait_for(|| hits.load(Ordering::Relaxed) == 1);
    }
}
