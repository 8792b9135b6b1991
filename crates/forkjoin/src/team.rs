//! The fork-join thread team.
//!
//! Mirrors the execution model the paper describes for OpenMP: "a master
//! thread ... begins execution until it reaches a parallel region. Then, the
//! master thread forks a team of worker threads and all threads execute the
//! parallel region concurrently. Upon exiting parallel region, all threads
//! synchronize and join". The team is persistent — workers are created once
//! and wait between regions, hot for the team's idle window and then parked
//! until the next region wakes them — so the per-region cost is a dispatch
//! handshake, not thread creation (the contrast with `tpm-rawthreads`).

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use tpm_fault::{Action as FaultAction, Site as FaultSite};
use tpm_sync::topology::NumaTopology;
use tpm_sync::EventKind;
use tpm_sync::{
    Barrier, CachePadded, CancelReason, CancelToken, CountLatch, IdleStrategy, LockedDeque, Mutex,
    PoolConfig, Reducer, SchedulerStats, Sleepers, SpinLock,
};

use crate::tasking::{TaskRef, TaskScope};
use crate::worksharing::{static_chunks, LoopCounter, Schedule};

/// Most chunks one dynamic-schedule claim may batch (see
/// [`LoopCounter::next_dynamic_batch`]); bounds the work a stalled thread
/// can sit on to `DYNAMIC_BATCH_CHUNKS · chunk` iterations.
const DYNAMIC_BATCH_CHUNKS: usize = 8;

/// A persistent fork-join thread team (the OpenMP analogue's runtime object).
///
/// # Examples
///
/// ```
/// use tpm_forkjoin::{Schedule, Team};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let team = Team::new(4);
/// let sum = AtomicU64::new(0);
/// team.parallel(|ctx| {
///     ctx.ws_for(Schedule::static_default(), 0..1000, |i| {
///         sum.fetch_add(i as u64, Ordering::Relaxed);
///     });
/// });
/// assert_eq!(sum.into_inner(), (0..1000).sum());
/// ```
pub struct Team {
    inner: Arc<TeamInner>,
    handles: Vec<JoinHandle<()>>,
}

pub(crate) struct TeamInner {
    num_threads: usize,
    /// Bumped once per region (and once at shutdown) after `job` or
    /// `shutdown` is set. The bump is `Release` and the waiting workers'
    /// loads are `Acquire`, so a worker that sees a new epoch sees both.
    epoch: CachePadded<AtomicU64>,
    job: SpinLock<Option<Job>>,
    shutdown: AtomicBool,
    /// Workers parked after their idle window ran out.
    sleepers: Sleepers,
    in_region: AtomicBool,
    pub(crate) stats: SchedulerStats,
    idle: (u32, u32),
    /// The probed topology when node-aware task stealing is on
    /// ([`PoolConfig::numa`]), else `None`.
    topology: Option<NumaTopology>,
}

/// An erased parallel-region job: `func(tid)` plus a completion latch.
#[derive(Clone, Copy)]
struct Job {
    func: *const (dyn Fn(usize) + Sync),
    done: *const CountLatch,
}

// SAFETY: the master keeps the referents alive until `done` completes, and
// workers only dereference between receiving the job and decrementing `done`.
unsafe impl Send for Job {}

/// Per-region shared state: barrier, worksharing slot, task deques, panic.
pub(crate) struct Region {
    active: usize,
    pub(crate) barrier: Barrier,
    /// Last worksharing construct sequence claimed for initialization.
    ws_claim: AtomicUsize,
    /// Last worksharing construct sequence whose counter is initialized.
    ws_init: AtomicUsize,
    /// The single in-flight dynamic/guided loop counter (constructs are
    /// separated by their implicit trailing barrier, so one slot suffices).
    ws_counter: UnsafeCell<Option<LoopCounter>>,
    /// Claim word for `single` constructs.
    single_claim: AtomicUsize,
    critical: Mutex<()>,
    pub(crate) deques: Box<[LockedDeque<TaskRef>]>,
    panic: SpinLock<Option<Box<dyn Any + Send>>>,
    /// Cheap flag mirroring `panic.is_some()`, checked per chunk.
    panicked: std::sync::atomic::AtomicBool,
    /// Cooperative cancellation flag (`omp cancel parallel/for`).
    cancelled: std::sync::atomic::AtomicBool,
    /// External cancellation token attached to this region (job-service
    /// path): worksharing loops poll it at every chunk boundary alongside
    /// the region-local flag, so a deadline or a client disconnect stops the
    /// region within one chunk of work.
    token: Option<CancelToken>,
}

// SAFETY: `ws_counter` is written only by the claim-CAS winner and read by
// others only after the Release store to `ws_init` (Acquire-matched).
unsafe impl Sync for Region {}

impl Region {
    fn new(active: usize, token: Option<CancelToken>) -> Self {
        Self {
            active,
            barrier: Barrier::new(active),
            ws_claim: AtomicUsize::new(0),
            ws_init: AtomicUsize::new(0),
            ws_counter: UnsafeCell::new(None),
            single_claim: AtomicUsize::new(0),
            critical: Mutex::new(()),
            deques: (0..active).map(|_| LockedDeque::new()).collect(),
            panic: SpinLock::new(None),
            panicked: std::sync::atomic::AtomicBool::new(false),
            cancelled: std::sync::atomic::AtomicBool::new(false),
            token,
        }
    }

    pub(crate) fn store_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
        self.panicked.store(true, Ordering::Release);
    }

    /// True once any thread/task of the region has panicked.
    fn poisoned(&self) -> bool {
        self.panicked.load(Ordering::Relaxed)
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic.lock().take()
    }

    /// A thread's region body panicked past every containment layer: it
    /// will never participate in another phase of this region. Resign it
    /// from the barrier so the survivors' phases complete at reduced width
    /// instead of deadlocking, and record the death in the trace.
    fn desert(&self, tid: usize) {
        tpm_trace::record(EventKind::WorkerDeath, tid as u64, 0);
        self.barrier.leave();
        tpm_trace::record(
            EventKind::DegradedWidth,
            self.barrier.num_threads() as u64,
            0,
        );
    }
}

/// The per-thread view of an executing parallel region (OpenMP's implicit
/// "current team" state, made explicit).
pub struct Ctx<'a> {
    team: &'a TeamInner,
    pub(crate) region: &'a Region,
    tid: usize,
    /// Per-thread worksharing construct sequence number.
    ws_seq: Cell<usize>,
    /// Per-thread `single` construct sequence number (independent of
    /// worksharing loops, which keep their own sequence).
    single_seq: Cell<usize>,
    /// XorShift state for steal victim selection.
    rng: Cell<u64>,
    /// Same-NUMA-node steal victims (empty when node-aware stealing is
    /// off — see [`PoolConfig::numa`] — or no same-node peer exists). The
    /// steal loop spends its first sweep on these before falling back to
    /// uniform victims.
    local_victims: Vec<usize>,
}

/// Same-node peers of `tid` under the worker→CPU mapping `tid % cpus`
/// (matching `affinity::pin_current_thread`).
fn local_victims_for(topo: &NumaTopology, tid: usize, active: usize) -> Vec<usize> {
    let cpus = topo.num_cpus().max(1);
    let node = topo.node_of_cpu(tid % cpus);
    (0..active)
        .filter(|&v| v != tid && topo.node_of_cpu(v % cpus) == node)
        .collect()
}

impl<'a> Ctx<'a> {
    fn new(team: &'a TeamInner, region: &'a Region, tid: usize) -> Self {
        Self {
            team,
            region,
            tid,
            ws_seq: Cell::new(0),
            single_seq: Cell::new(0),
            rng: Cell::new(0x9E37_79B9_7F4A_7C15 ^ (tid as u64 + 1)),
            local_victims: team
                .topology
                .as_ref()
                .map_or_else(Vec::new, |topo| local_victims_for(topo, tid, region.active)),
        }
    }

    /// This thread's index within the region (`omp_get_thread_num`).
    pub fn thread_num(&self) -> usize {
        self.tid
    }

    /// Number of threads executing the region (`omp_get_num_threads`).
    pub fn num_threads(&self) -> usize {
        self.region.active
    }

    /// Reports one scheduler event on this thread's counters and trace.
    #[inline]
    fn emit(&self, kind: EventKind, a: u64) {
        tpm_trace::emit(self.team.stats.worker(self.tid), kind, a, 0);
    }

    /// The team's configured idle policy, for in-region wait loops.
    pub(crate) fn idle_strategy(&self) -> IdleStrategy {
        IdleStrategy::new(self.team.idle.0, self.team.idle.1)
    }

    /// Synchronizes all threads of the region (`#pragma omp barrier`).
    ///
    /// Waiting is timed: each episode emits a
    /// [`tpm_trace::EventKind::BarrierRelease`] carrying the wait, which
    /// bumps this worker's `barrier_waits` and `barrier_wait_ns` counters;
    /// a traced `BarrierArrive` marks the start.
    pub fn barrier(&self) {
        // Injected barrier-entry faults exercise the desertion path: the
        // panic unwinds out of the region body, and `Region::desert` repairs
        // the barrier so siblings are not stranded.
        match tpm_fault::probe(FaultSite::BarrierEntry) {
            FaultAction::Panic => tpm_fault::injected_panic(FaultSite::BarrierEntry),
            FaultAction::TaskDrop => tpm_fault::injected_drop(FaultSite::BarrierEntry),
            _ => {}
        }
        tpm_trace::record(EventKind::BarrierArrive, 0, 0);
        let start = std::time::Instant::now();
        self.region.barrier.wait();
        let wait_ns = start.elapsed().as_nanos() as u64;
        self.emit(EventKind::BarrierRelease, wait_ns);
    }

    /// Runs `body` once per chunk of `range` assigned to this thread under
    /// `schedule`, then joins the implicit trailing barrier (as OpenMP's
    /// worksharing `for` does without `nowait`).
    ///
    /// All threads of the region must call this with the same `range` and
    /// `schedule`, in the same construct order — the OpenMP worksharing
    /// rules.
    ///
    /// A panic in `body` is recorded, remaining chunks are skipped on every
    /// thread, all threads still join the barrier, and the panic is
    /// re-raised by `Team::parallel*` after the region (unwinding mid-loop
    /// would strand siblings at the barrier — the OpenMP equivalent is
    /// undefined behaviour; this is the well-defined version).
    pub fn ws_for_chunks(
        &self,
        schedule: Schedule,
        range: Range<usize>,
        body: impl Fn(Range<usize>),
    ) {
        let n = self.region.active;
        let guarded = |c: Range<usize>| -> bool {
            if self.region.poisoned() || self.is_cancelled() {
                return false;
            }
            match tpm_fault::probe(FaultSite::ChunkClaim) {
                // Unwinds out of the region body; `Region::desert` repairs
                // the barrier and the panic surfaces as ExecError::Panic.
                FaultAction::Panic => tpm_fault::injected_panic(FaultSite::ChunkClaim),
                FaultAction::TaskDrop => {
                    // Dropping a chunk silently would corrupt the result:
                    // poison the region so the drop is observable.
                    self.region.store_panic(Box::new(format!(
                        "injected task-drop at {}",
                        FaultSite::ChunkClaim
                    )));
                    return false;
                }
                _ => {}
            }
            self.emit(EventKind::ChunkDispatch, c.len() as u64);
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| body(c))) {
                self.region.store_panic(p);
                return false;
            }
            true
        };
        // `Auto` is resolved here, where the loop shape and team width are
        // both known; every arm below sees a concrete schedule.
        match schedule.resolve(range.len(), n) {
            Schedule::Static { chunk } => {
                for c in static_chunks(range, self.tid, n, chunk) {
                    if !guarded(c) {
                        break;
                    }
                }
            }
            Schedule::Dynamic { chunk } => {
                let counter = self.ws_counter_for(range);
                let chunk = chunk.max(1);
                // Each shared-counter transaction claims up to
                // DYNAMIC_BATCH_CHUNKS chunks at once; the batch is served
                // thread-locally so the counter is touched once per batch,
                // not once per chunk (and the exhausted probe is a plain
                // load, not an RMW).
                'claims: loop {
                    self.emit(EventKind::LoopClaim, 0);
                    match counter.next_dynamic_batch(chunk, n, DYNAMIC_BATCH_CHUNKS) {
                        Some(batch) => {
                            let mut start = batch.start;
                            while start < batch.end {
                                let c = start..(start + chunk).min(batch.end);
                                start = c.end;
                                if !guarded(c) {
                                    break 'claims;
                                }
                            }
                        }
                        None => break,
                    }
                }
            }
            Schedule::Guided { min_chunk } => {
                let counter = self.ws_counter_for(range);
                loop {
                    self.emit(EventKind::LoopClaim, 0);
                    match counter.next_guided(n, min_chunk) {
                        Some(c) => {
                            if !guarded(c) {
                                break;
                            }
                        }
                        None => break,
                    }
                }
            }
            Schedule::Auto => unreachable!("Auto resolved to a concrete schedule above"),
        }
        self.barrier();
    }

    /// Per-iteration form of [`ws_for_chunks`](Self::ws_for_chunks).
    pub fn ws_for(&self, schedule: Schedule, range: Range<usize>, body: impl Fn(usize)) {
        self.ws_for_chunks(schedule, range, |chunk| {
            for i in chunk {
                body(i);
            }
        });
    }

    /// Claims/locates the shared loop counter for this thread's next
    /// worksharing construct.
    fn ws_counter_for(&self, range: Range<usize>) -> &LoopCounter {
        let seq = self.ws_seq.get() + 1;
        self.ws_seq.set(seq);
        if self
            .region
            .ws_claim
            .compare_exchange(seq - 1, seq, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            // We initialize the counter for everyone.
            // SAFETY: claim winner has exclusive write access; readers wait
            // for ws_init below.
            unsafe { *self.region.ws_counter.get() = Some(LoopCounter::new(range)) };
            self.region.ws_init.store(seq, Ordering::Release);
        } else {
            let idle = self.idle_strategy();
            while self.region.ws_init.load(Ordering::Acquire) < seq {
                idle.snooze_no_park();
            }
        }
        // SAFETY: initialized (ws_init >= seq) and not replaced until after
        // the construct's trailing barrier.
        unsafe { (*self.region.ws_counter.get()).as_ref().unwrap() }
    }

    /// Executes `body` on exactly one thread of the region
    /// (`#pragma omp single`), with the implicit trailing barrier. Returns
    /// `Some(result)` on the executing thread, `None` elsewhere.
    pub fn single<R>(&self, body: impl FnOnce() -> R) -> Option<R> {
        let seq = self.single_seq.get() + 1;
        self.single_seq.set(seq);
        let won = self
            .region
            .single_claim
            .compare_exchange(seq - 1, seq, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        // A panicking `single` body must not skip the implicit barrier
        // (siblings would deadlock); record and defer to the region end.
        let result = if won {
            match catch_unwind(AssertUnwindSafe(body)) {
                Ok(r) => Some(r),
                Err(p) => {
                    self.region.store_panic(p);
                    None
                }
            }
        } else {
            None
        };
        self.barrier();
        result
    }

    /// Executes each of `sections` exactly once, distributed across the
    /// region's threads (`#pragma omp sections`), with the implicit trailing
    /// barrier. All threads must call this together.
    pub fn sections(&self, sections: &[&(dyn Fn() + Sync)]) {
        self.ws_for(Schedule::Dynamic { chunk: 1 }, 0..sections.len(), |i| {
            sections[i]();
        });
    }

    /// Requests cancellation of the current region (`#pragma omp cancel`):
    /// worksharing loops stop handing out chunks at their next chunk
    /// boundary on every thread; explicit tasks observe it through
    /// [`is_cancelled`](Self::is_cancelled) (cooperatively, as in OpenMP,
    /// where cancellation takes effect at cancellation points).
    pub fn cancel(&self) {
        self.region
            .cancelled
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// True once any thread has called [`cancel`](Self::cancel) in this
    /// region (`omp cancellation point`), or once the region's attached
    /// [`CancelToken`] (if any — see [`Team::parallel_with_token`]) has been
    /// cancelled or passed its deadline.
    pub fn is_cancelled(&self) -> bool {
        self.cancel_reason().is_some()
    }

    /// Why this region is cancelled, if it is: a region-local
    /// [`cancel`](Self::cancel) reports [`CancelReason::Cancelled`]; an
    /// attached token reports its own reason (distinguishing deadline
    /// expiry from explicit cancellation).
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        if self
            .region
            .cancelled
            .load(std::sync::atomic::Ordering::Relaxed)
        {
            return Some(CancelReason::Cancelled);
        }
        self.region.token.as_ref().and_then(|t| t.reason())
    }

    /// Executes `body` on thread 0 only (`#pragma omp master`); no barrier.
    pub fn master<R>(&self, body: impl FnOnce() -> R) -> Option<R> {
        if self.tid == 0 {
            Some(body())
        } else {
            None
        }
    }

    /// Runs `body` under the region-wide mutual-exclusion lock
    /// (`#pragma omp critical`).
    pub fn critical<R>(&self, body: impl FnOnce() -> R) -> R {
        let _g = self.region.critical.lock();
        tpm_trace::record(EventKind::LockAcquire, 0, 0);
        body()
    }

    /// Opens an explicit-task scope (`task` + `taskwait`): tasks spawned via
    /// [`TaskScope::spawn`] may run on any thread of the region; the scope
    /// does not return until all of them (transitively) completed.
    pub fn task_scope<'c, R>(&'c self, f: impl FnOnce(&TaskScope<'c, 'a>) -> R) -> R {
        crate::tasking::run_task_scope(self, f)
    }

    /// Queues a task on this thread's deque.
    pub(crate) fn push_task(&self, task: TaskRef) {
        self.emit(EventKind::TaskSpawn, 0);
        self.region.deques[self.tid].push_bottom(task);
    }

    /// Records a panic payload for the region (first panic wins).
    pub(crate) fn store_region_panic(&self, payload: Box<dyn Any + Send>) {
        self.region.store_panic(payload);
    }

    /// Advances the XorShift stream one step.
    fn rng_next(&self) -> u64 {
        let mut x = self.rng.get();
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng.set(x);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next steal victim (uniform over the other threads).
    pub(crate) fn next_victim(&self) -> usize {
        let r = (self.rng_next() >> 33) as usize;
        let n = self.region.active;
        if n <= 1 {
            return 0;
        }
        // Map to [0, n-1) then skip self.
        let v = r % (n - 1);
        if v >= self.tid {
            v + 1
        } else {
            v
        }
    }

    /// Pops or steals one task and executes it. Returns false if none found.
    pub(crate) fn execute_one_task(&self) -> bool {
        let task = self.region.deques[self.tid].pop_bottom().or_else(|| {
            // Randomized stealing from the FIFO end, a few rounds. With
            // node-aware stealing active, the first sweep's worth of
            // probes draws from same-node victims only (a remote steal
            // drags the task's working set across the interconnect);
            // later rounds go uniform so remote work is still found.
            let n = self.region.active;
            for round in 0..(2 * n) {
                let v = if round < n && !self.local_victims.is_empty() {
                    self.local_victims[(self.rng_next() >> 33) as usize % self.local_victims.len()]
                } else {
                    self.next_victim()
                };
                if v == self.tid {
                    continue;
                }
                // Task-steal probes may not unwind (the caller can be a
                // latch-wait loop); panics are downgraded to misses.
                if tpm_fault::probe_no_panic(FaultSite::StealAttempt) != FaultAction::None {
                    self.emit(EventKind::FailedSteal, v as u64);
                    continue;
                }
                if let Some(t) = self.region.deques[v].steal_top() {
                    self.emit(EventKind::Steal, v as u64);
                    return Some(t);
                }
                self.emit(EventKind::FailedSteal, v as u64);
            }
            None
        });
        match task {
            Some(t) => {
                self.emit(EventKind::TaskExec, 0);
                t.execute(self);
                true
            }
            None => false,
        }
    }
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("tid", &self.tid)
            .field("active", &self.region.active)
            .finish()
    }
}

impl Team {
    /// Creates a team of `num_threads` (master + `num_threads - 1` workers)
    /// with the [`PoolConfig::from_env`] defaults.
    pub fn new(num_threads: usize) -> Self {
        Self::with_config(PoolConfig {
            threads: num_threads,
            ..PoolConfig::from_env()
        })
    }

    /// Creates a team of `cfg.threads`: worker `tid` is pinned to core
    /// `tid % cores` when `cfg.pin` (OpenMP's `OMP_PROC_BIND` analogue; the
    /// master is the caller's thread and is never pinned), task steals try
    /// same-node victims first when `cfg.numa`, and `cfg.idle` bounds the
    /// wait loops — in-region (worksharing-counter init, task-scope drains)
    /// and between regions, before a worker parks.
    ///
    /// # Examples
    ///
    /// ```
    /// use tpm_forkjoin::Team;
    /// use tpm_sync::PoolConfig;
    ///
    /// let team = Team::with_config(PoolConfig { threads: 2, pin: false, ..PoolConfig::from_env() });
    /// assert_eq!(team.num_threads(), 2);
    /// ```
    pub fn with_config(cfg: PoolConfig) -> Self {
        let num_threads = cfg.threads;
        assert!(num_threads >= 1, "team needs at least one thread");
        let inner = Arc::new(TeamInner {
            num_threads,
            epoch: CachePadded::new(AtomicU64::new(0)),
            job: SpinLock::new(None),
            shutdown: AtomicBool::new(false),
            sleepers: Sleepers::new(num_threads - 1),
            in_region: AtomicBool::new(false),
            stats: SchedulerStats::new(num_threads),
            idle: cfg.idle,
            topology: cfg.numa.then(NumaTopology::probe),
        });
        let pin = cfg.pin;
        let handles = (1..num_threads)
            .map(|tid| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("tpm-forkjoin-{tid}"))
                    .spawn(move || {
                        if pin {
                            tpm_sync::affinity::pin_current_thread(tid);
                        }
                        worker_loop(&inner, tid)
                    })
                    .expect("failed to spawn team worker")
            })
            .collect();
        Self { inner, handles }
    }

    /// Team size (the maximum number of threads a region can use).
    pub fn num_threads(&self) -> usize {
        self.inner.num_threads
    }

    /// Scheduler event counters (tasks spawned/executed, steals).
    pub fn stats(&self) -> &SchedulerStats {
        &self.inner.stats
    }

    /// Forks a parallel region on all team threads; joins before returning.
    /// Panics from any thread of the region are re-raised here.
    pub fn parallel<F: Fn(&Ctx<'_>) + Sync>(&self, f: F) {
        self.parallel_with(self.inner.num_threads, f);
    }

    /// Forks a parallel region on `active ≤ num_threads` threads
    /// (`num_threads` clause).
    pub fn parallel_with<F: Fn(&Ctx<'_>) + Sync>(&self, active: usize, f: F) {
        self.parallel_region(active, None, f);
    }

    /// Forks a parallel region with `token` attached: every worksharing
    /// loop of the region polls the token at its chunk boundaries (alongside
    /// the region-local [`Ctx::cancel`] flag), and explicit tasks observe it
    /// through [`Ctx::is_cancelled`] — so cancelling the token, or its
    /// deadline passing, stops the region within one chunk of work per
    /// thread. Inspect [`Ctx::cancel_reason`] (or the token itself) after
    /// the region to learn whether and why it stopped early.
    pub fn parallel_with_token<F: Fn(&Ctx<'_>) + Sync>(
        &self,
        active: usize,
        token: &CancelToken,
        f: F,
    ) {
        self.parallel_region(active, Some(token.clone()), f);
    }

    fn parallel_region<F: Fn(&Ctx<'_>) + Sync>(
        &self,
        active: usize,
        token: Option<CancelToken>,
        f: F,
    ) {
        assert!(
            (1..=self.inner.num_threads).contains(&active),
            "active thread count {active} outside 1..={}",
            self.inner.num_threads
        );
        assert!(
            !self.inner.in_region.swap(true, Ordering::Acquire),
            "nested parallel regions are not supported"
        );
        let region = Region::new(active, token);
        let run = |tid: usize| {
            if tid < active {
                let _span = tpm_trace::span("forkjoin-region");
                // Busy time covers the whole region body on this thread;
                // barrier waits inside are counted separately and can be
                // subtracted by consumers that want pure compute time.
                let started = std::time::Instant::now();
                let ctx = Ctx::new(&self.inner, &region, tid);
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
                    region.store_panic(p);
                    region.desert(tid);
                }
                self.inner
                    .stats
                    .worker(tid)
                    .add_busy_ns(started.elapsed().as_nanos() as u64);
            }
        };
        if self.inner.num_threads == 1 {
            run(0);
        } else {
            let done = CountLatch::new(self.inner.num_threads - 1);
            {
                let wide: &(dyn Fn(usize) + Sync) = &run;
                // SAFETY: lifetime erasure — we block on `done` (decremented
                // by every worker after it finishes with the job) before
                // `run`, `region` or `done` go out of scope.
                let job = Job {
                    func: unsafe {
                        std::mem::transmute::<
                            *const (dyn Fn(usize) + Sync),
                            *const (dyn Fn(usize) + Sync + 'static),
                        >(wide as *const _)
                    },
                    done: &done,
                };
                *self.inner.job.lock() = Some(job);
                self.inner.epoch.fetch_add(1, Ordering::Release);
                self.inner.sleepers.wake_all();
                run(0);
                done.wait();
                *self.inner.job.lock() = None;
            }
        }
        self.inner.in_region.store(false, Ordering::Release);
        if let Some(p) = region.take_panic() {
            resume_unwind(p);
        }
    }

    /// One-shot data-parallel loop over `range` on `active` threads.
    pub fn parallel_for(
        &self,
        active: usize,
        schedule: Schedule,
        range: Range<usize>,
        body: impl Fn(usize) + Sync,
    ) {
        self.parallel_with(active, |ctx| {
            ctx.ws_for(schedule, range.clone(), &body);
        });
    }

    /// Data-parallel reduction (`reduction` clause): each thread accumulates
    /// into a private view per chunk; views merge in thread order.
    pub fn parallel_for_reduce<T, Id, Op>(
        &self,
        active: usize,
        schedule: Schedule,
        range: Range<usize>,
        identity: Id,
        combine: Op,
        body: impl Fn(Range<usize>, &mut T) + Sync,
    ) -> T
    where
        T: Send,
        Id: Fn() -> T + Sync + Send,
        Op: Fn(T, T) -> T + Sync + Send,
    {
        let reducer = Reducer::new(active, identity, combine);
        self.parallel_with(active, |ctx| {
            ctx.ws_for_chunks(schedule, range.clone(), |chunk| {
                reducer.with(ctx.thread_num(), |acc| body(chunk, acc));
            });
        });
        reducer.finish()
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner.epoch.fetch_add(1, Ordering::Release);
        self.inner.sleepers.wake_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("num_threads", &self.inner.num_threads)
            .finish()
    }
}

fn worker_loop(inner: &TeamInner, tid: usize) {
    let idle = IdleStrategy::new(inner.idle.0, inner.idle.1);
    let mut seen = 0u64;
    loop {
        let epoch = inner.epoch.load(Ordering::Acquire);
        if epoch == seen {
            // Between regions a worker stays hot for the idle window, so a
            // back-to-back region costs no wake-up, then parks until the
            // master publishes the next epoch.
            let next = || inner.epoch.load(Ordering::Acquire) != seen;
            if idle.snooze_until(next) && inner.sleepers.sleep_unless(next) {
                tpm_trace::emit(inner.stats.worker(tid), EventKind::Park, 0, 0);
            }
            continue;
        }
        // The master waits for every worker before the next region, so
        // epochs arrive one at a time and `job` is this epoch's.
        seen = epoch;
        idle.reset();
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let job = *inner.job.lock();
        if let Some(job) = job {
            // SAFETY: the master keeps `func` alive until we decrement `done`.
            let func = unsafe { &*job.func };
            // The region wrapper already catches panics from user code; this
            // outer catch only guards runtime bugs from killing the worker.
            let _ = catch_unwind(AssertUnwindSafe(|| func(tid)));
            unsafe { &*job.done }.decrement();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn local_victims_follow_the_worker_to_cpu_mapping() {
        // Two nodes of two CPUs each; workers map to CPUs as tid % cpus.
        let topo = NumaTopology::parse_spec("0-1;2-3").unwrap();
        assert_eq!(local_victims_for(&topo, 0, 4), vec![1]);
        assert_eq!(local_victims_for(&topo, 2, 4), vec![3]);
        // Oversubscription wraps: tid 4 lands on CPU 0 (node 0) alongside
        // workers 0, 1, and 5.
        assert_eq!(local_victims_for(&topo, 4, 6), vec![0, 1, 5]);
        // A worker with no same-node peer gets an empty list (the steal
        // loop then falls back to uniform selection).
        assert_eq!(local_victims_for(&topo, 2, 3), Vec::<usize>::new());
    }

    /// Each thread's same-node victim list in a region of `active` threads
    /// on a team built with NUMA ordering `numa`.
    fn victim_lists(numa: bool, active: usize) -> Vec<Vec<usize>> {
        let team = Team::with_config(PoolConfig {
            threads: active,
            numa,
            ..PoolConfig::from_env()
        });
        let lists = std::sync::Mutex::new(vec![Vec::new(); active]);
        team.parallel(|ctx| {
            lists.lock().unwrap()[ctx.thread_num()] = ctx.local_victims.clone();
        });
        lists.into_inner().unwrap()
    }

    #[test]
    fn team_honours_the_configured_numa_flag() {
        // Forced on, every worker has a same-node peer whatever the host
        // (a single-node host puts every peer on the one node); forced off,
        // none has, even on a multi-node host or under TPM_NUMA=1.
        for (tid, list) in victim_lists(true, 3).iter().enumerate() {
            assert!(!list.is_empty(), "numa on: thread {tid} has no victims");
            assert!(!list.contains(&tid), "thread {tid} lists itself");
        }
        assert!(victim_lists(false, 3).iter().all(Vec::is_empty));
    }

    #[test]
    fn region_runs_on_all_threads() {
        let team = Team::new(4);
        let hits = AtomicU64::new(0);
        team.parallel(|ctx| {
            assert!(ctx.thread_num() < 4);
            assert_eq!(ctx.num_threads(), 4);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.into_inner(), 4);
    }

    #[test]
    fn regions_are_reusable() {
        let team = Team::new(3);
        let hits = AtomicU64::new(0);
        for _ in 0..50 {
            team.parallel(|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.into_inner(), 150);
    }

    #[test]
    fn subset_regions() {
        let team = Team::new(4);
        for active in 1..=4 {
            let hits = AtomicU64::new(0);
            team.parallel_with(active, |ctx| {
                assert_eq!(ctx.num_threads(), active);
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.into_inner(), active as u64);
        }
    }

    #[test]
    fn single_thread_team_runs_inline() {
        let team = Team::new(1);
        let mut x = 0; // captured by reference: proves inline execution
        team.parallel(|_| {
            // Fn closure: use interior mutability.
        });
        x += 1;
        assert_eq!(x, 1);
    }

    #[test]
    fn ws_for_covers_all_iterations_all_schedules() {
        let team = Team::new(4);
        for schedule in [
            Schedule::Static { chunk: None },
            Schedule::Static { chunk: Some(3) },
            Schedule::Dynamic { chunk: 5 },
            Schedule::Guided { min_chunk: 2 },
            Schedule::Auto,
        ] {
            let flags: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
            team.parallel(|ctx| {
                ctx.ws_for(schedule, 0..257, |i| {
                    flags[i].fetch_add(1, Ordering::Relaxed);
                });
            });
            for (i, f) in flags.iter().enumerate() {
                assert_eq!(
                    f.load(Ordering::Relaxed),
                    1,
                    "iteration {i} under {schedule:?}"
                );
            }
        }
    }

    #[test]
    fn consecutive_dynamic_loops_in_one_region() {
        let team = Team::new(4);
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        team.parallel(|ctx| {
            ctx.ws_for(Schedule::Dynamic { chunk: 3 }, 0..100, |_| {
                a.fetch_add(1, Ordering::Relaxed);
            });
            ctx.ws_for(Schedule::Dynamic { chunk: 7 }, 0..50, |_| {
                b.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(a.into_inner(), 100);
        assert_eq!(b.into_inner(), 50);
    }

    #[test]
    fn barrier_orders_phases() {
        let team = Team::new(4);
        let phase1 = AtomicU64::new(0);
        team.parallel(|ctx| {
            phase1.fetch_add(1, Ordering::Relaxed);
            ctx.barrier();
            assert_eq!(phase1.load(Ordering::Relaxed), 4);
        });
    }

    #[test]
    fn single_runs_once_with_barrier() {
        let team = Team::new(4);
        let runs = AtomicU64::new(0);
        let observers = AtomicU64::new(0);
        team.parallel(|ctx| {
            let r = ctx.single(|| {
                runs.fetch_add(1, Ordering::Relaxed);
                42
            });
            // After the implicit barrier, everyone sees the single done.
            assert_eq!(runs.load(Ordering::Relaxed), 1);
            if r == Some(42) {
                observers.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(runs.into_inner(), 1);
        assert_eq!(observers.into_inner(), 1);
    }

    #[test]
    fn single_still_elects_after_dynamic_loops() {
        // Regression: `single` must keep its own construct sequence; a
        // preceding dynamic worksharing loop advances the loop sequence and
        // previously starved every `single` claimant.
        let team = Team::new(3);
        let runs = AtomicU64::new(0);
        team.parallel(|ctx| {
            ctx.ws_for(Schedule::Dynamic { chunk: 4 }, 0..40, |_| {});
            ctx.single(|| {
                runs.fetch_add(1, Ordering::Relaxed);
            });
            ctx.ws_for(Schedule::Guided { min_chunk: 2 }, 0..40, |_| {});
            ctx.single(|| {
                runs.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(runs.into_inner(), 2);
    }

    #[test]
    fn master_runs_on_thread_zero() {
        let team = Team::new(3);
        let who = AtomicU64::new(u64::MAX);
        team.parallel(|ctx| {
            ctx.master(|| who.store(ctx.thread_num() as u64, Ordering::Relaxed));
        });
        assert_eq!(who.into_inner(), 0);
    }

    #[test]
    fn critical_is_mutually_exclusive() {
        struct Wrap(std::cell::UnsafeCell<u64>);
        unsafe impl Sync for Wrap {}
        let team = Team::new(4);
        let w = Wrap(std::cell::UnsafeCell::new(0u64));
        let w = &w; // capture the Sync wrapper, not the cell field
        team.parallel(|ctx| {
            for _ in 0..1000 {
                ctx.critical(|| unsafe { *w.0.get() += 1 });
            }
        });
        assert_eq!(unsafe { *w.0.get() }, 4000);
    }

    #[test]
    fn parallel_for_reduce_sums() {
        let team = Team::new(4);
        let total = team.parallel_for_reduce(
            4,
            Schedule::static_default(),
            0..10_000,
            || 0u64,
            |a, b| a + b,
            |chunk, acc| {
                for i in chunk {
                    *acc += i as u64;
                }
            },
        );
        assert_eq!(total, (0..10_000u64).sum());
    }

    #[test]
    fn panic_in_region_propagates() {
        let team = Team::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            team.parallel(|ctx| {
                if ctx.thread_num() == 1 {
                    panic!("boom in region");
                }
            });
        }));
        assert!(r.is_err());
        // Team still usable afterwards.
        let hits = AtomicU64::new(0);
        team.parallel(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.into_inner(), 2);
    }

    #[test]
    fn panic_before_barrier_does_not_deadlock_region() {
        // Regression: a thread panicking *before* it arrives at a barrier
        // used to strand its siblings in `Barrier::wait` forever (the panic
        // was recorded, but the barrier still expected its arrival).
        // `Region::desert` resigns the dead thread so survivors' phases
        // complete at reduced width.
        let team = Team::new(4);
        let survivors = AtomicU64::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            team.parallel(|ctx| {
                if ctx.thread_num() == 1 {
                    panic!("dies before the barrier");
                }
                ctx.barrier();
                ctx.barrier();
                survivors.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(r.is_err());
        assert_eq!(survivors.into_inner(), 3, "survivors finish the region");
        // The team is reusable at full width afterwards.
        let hits = AtomicU64::new(0);
        team.parallel(|ctx| {
            hits.fetch_add(1, Ordering::Relaxed);
            ctx.barrier();
        });
        assert_eq!(hits.into_inner(), 4);
    }

    #[test]
    fn panic_outside_loop_does_not_strand_ws_siblings() {
        // Same desertion path, but the survivors are inside a worksharing
        // loop's implicit trailing barrier when the death happens.
        let team = Team::new(3);
        let done = AtomicU64::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            team.parallel(|ctx| {
                if ctx.thread_num() == 2 {
                    panic!("dies without ever joining the loop");
                }
                ctx.ws_for(Schedule::Dynamic { chunk: 8 }, 0..100, |_| {
                    done.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(r.is_err());
        // Fail-fast semantics: once the region is poisoned, survivors skip
        // remaining chunks — the point is that they *return* (no deadlock),
        // not that they finish the loop.
        assert!(done.into_inner() <= 100);
    }

    #[test]
    #[should_panic(expected = "nested parallel regions")]
    fn nested_parallel_panics() {
        let team = Team::new(2);
        team.parallel(|_| {
            team.parallel(|_| {});
        });
    }

    #[test]
    fn parallel_for_helper() {
        let team = Team::new(3);
        let flags: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        team.parallel_for(3, Schedule::static_default(), 0..100, |i| {
            flags[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }
}

#[cfg(test)]
mod cancel_tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sections_each_run_once() {
        let team = Team::new(3);
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        let c = AtomicU64::new(0);
        team.parallel(|ctx| {
            ctx.sections(&[
                &|| {
                    a.fetch_add(1, Ordering::Relaxed);
                },
                &|| {
                    b.fetch_add(1, Ordering::Relaxed);
                },
                &|| {
                    c.fetch_add(1, Ordering::Relaxed);
                },
            ]);
        });
        assert_eq!(a.into_inner(), 1);
        assert_eq!(b.into_inner(), 1);
        assert_eq!(c.into_inner(), 1);
    }

    #[test]
    fn cancel_stops_worksharing_early() {
        // A dynamic loop where the first chunk cancels: far fewer than all
        // iterations run, and the region exits cleanly.
        let team = Team::new(2);
        let executed = AtomicU64::new(0);
        team.parallel(|ctx| {
            ctx.ws_for_chunks(Schedule::Dynamic { chunk: 1 }, 0..1_000_000, |chunk| {
                executed.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                ctx.cancel();
            });
            assert!(ctx.is_cancelled());
        });
        // Each thread runs at most one chunk past the flag.
        assert!(executed.into_inner() <= 4);
    }

    #[test]
    fn token_cancel_stops_worksharing_and_reports_reason() {
        let team = Team::new(2);
        let token = CancelToken::new();
        let executed = AtomicU64::new(0);
        team.parallel_with_token(2, &token, |ctx| {
            ctx.ws_for_chunks(Schedule::Dynamic { chunk: 1 }, 0..1_000_000, |chunk| {
                executed.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                token.cancel();
            });
            assert_eq!(ctx.cancel_reason(), Some(CancelReason::Cancelled));
        });
        assert!(executed.into_inner() <= 4);
        // The team is fully reusable afterwards; a fresh region sees a fresh
        // (absent) token.
        let done = AtomicU64::new(0);
        team.parallel(|ctx| {
            assert!(!ctx.is_cancelled());
            ctx.ws_for(Schedule::static_default(), 0..10, |_| {
                done.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(done.into_inner(), 10);
    }

    #[test]
    fn expired_deadline_token_skips_the_loop() {
        let team = Team::new(2);
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let executed = AtomicU64::new(0);
        team.parallel_with_token(2, &token, |ctx| {
            ctx.ws_for(Schedule::static_default(), 0..1000, |_| {
                executed.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(
                ctx.cancel_reason(),
                Some(CancelReason::DeadlineExpired),
                "deadline expiry must be distinguishable from explicit cancel"
            );
        });
        assert_eq!(
            executed.into_inner(),
            0,
            "no chunk may start past the deadline"
        );
    }

    #[test]
    fn cancellation_is_per_region() {
        let team = Team::new(2);
        team.parallel(|ctx| {
            ctx.cancel();
        });
        let done = AtomicU64::new(0);
        team.parallel(|ctx| {
            assert!(!ctx.is_cancelled(), "fresh region must not be cancelled");
            ctx.ws_for(Schedule::static_default(), 0..10, |_| {
                done.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(done.into_inner(), 10);
    }
}
