//! The work-stealing pool both stealing runtimes run on.
//!
//! `tpm-worksteal`'s [`Runtime`](crate::Runtime) queues erased `join`/`scope`
//! jobs and `tpm-actors`' `ActorRuntime` queues actor activations; the
//! scheduler underneath is this one module, generic over the queued item
//! ([`Task`]) and monomorphised per front end:
//!
//! * per-worker Chase–Lev deques plus a locked injector for external
//!   submissions;
//! * batch stealing over a per-worker `VictimPlan` (same-NUMA-node victims
//!   first), scanned round-robin from an offset that rotates every episode;
//! * idle escalation spin → yield → park until woken: a worker parks
//!   through [`Sleepers`], and every push, injection and multi-item steal
//!   wakes one sleeper, so no idle worker polls;
//! * self-healing workers: an escaped panic kills the thread, and a
//!   replacement takes over the same index and the same deque;
//! * a draining shutdown that also joins every replacement.
//!
//! Front ends keep only what differs: how an item runs ([`Task::run`]),
//! the worker thread-name prefix ([`Task::NAME`]) and any per-pool state of
//! their own ([`Task::State`]).
//!
//! **Event rule.** A `TaskSpawn` trace event and the `spawned` counter mean
//! one push onto a worker's own deque ([`Ctx::push`]). An external
//! [`Shared::inject`] is neither — the submitting thread is not a worker —
//! and, like every item, is counted once, as `TaskExec`/`executed`, when it
//! runs.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use tpm_fault::{Action as FaultAction, Site as FaultSite};
use tpm_sync::chase_lev::{self, Stealer, Worker};
use tpm_sync::topology::NumaTopology;
use tpm_sync::{
    EventKind, IdleStrategy, LockedDeque, PoolConfig, SchedulerStats, Sleepers, SpinLock,
    WorkerStats,
};

/// Initial deque capacity per worker.
const DEQUE_CAPACITY: usize = 256;
/// Most items one steal episode may transfer (the half-of-victim rule caps
/// it further); bounds how much work a single thief can hoard.
const STEAL_BATCH_LIMIT: usize = 32;

/// An item a [`Pool`] schedules.
pub trait Task: Send + Sized + 'static {
    /// Worker thread-name prefix: worker `i` is `{NAME}-{i}` (trace worker
    /// labels read it).
    const NAME: &'static str;
    /// Front-end state kept once per pool ([`Shared::state`]).
    type State: Default + Send + Sync;
    /// Runs the item on the worker `ctx` belongs to.
    fn run(self, ctx: &Ctx<'_, Self>);
}

/// The owning handle: spawns the workers, and on drop stops and joins them
/// (replacements included).
pub struct Pool<T: Task> {
    shared: Arc<Shared<T>>,
    handles: Vec<JoinHandle<()>>,
}

/// What every worker shares.
pub struct Shared<T: Task> {
    stealers: Vec<Stealer<T>>,
    injector: LockedDeque<T>,
    /// Idle policy (spin rounds, yield rounds) for worker and waiter loops.
    idle: (u32, u32),
    shutdown: AtomicBool,
    /// Workers parked after their idle window ran out.
    sleepers: Sleepers,
    stats: SchedulerStats,
    /// Per-worker victim scan order (see [`build_victim_plans`]).
    victim_plans: Vec<VictimPlan>,
    /// Whether node-aware victim ordering is active (for introspection).
    numa: bool,
    /// Whether workers pin to cores (needed again when respawning).
    pin: bool,
    /// Workers currently alive (shrinks on a death, restored on respawn).
    live: AtomicUsize,
    /// Total workers lost to escaped panics over the pool's lifetime.
    deaths: AtomicUsize,
    /// Join handles of respawned replacement workers (drained on drop).
    replacements: SpinLock<Vec<JoinHandle<()>>>,
    /// Self-reference, so front ends can hand out handles that do not keep
    /// the pool alive.
    me: Weak<Shared<T>>,
    state: T::State,
}

impl<T: Task> Pool<T> {
    /// Spawns `cfg.threads` workers, with NUMA-aware victim ordering when
    /// `cfg.numa`.
    pub fn new(cfg: PoolConfig) -> Self {
        let num_workers = cfg.threads;
        assert!(num_workers >= 1, "runtime needs at least one worker");
        let (workers, stealers): (Vec<_>, Vec<_>) = (0..num_workers)
            .map(|_| chase_lev::deque(DEQUE_CAPACITY))
            .unzip();
        let topo = NumaTopology::probe();
        let shared = Arc::new_cyclic(|me| Shared {
            stealers,
            injector: LockedDeque::new(),
            idle: cfg.idle,
            shutdown: AtomicBool::new(false),
            sleepers: Sleepers::new(num_workers),
            stats: SchedulerStats::new(num_workers),
            victim_plans: build_victim_plans(&topo, num_workers, cfg.numa),
            numa: cfg.numa,
            pin: cfg.pin,
            live: AtomicUsize::new(num_workers),
            deaths: AtomicUsize::new(0),
            replacements: SpinLock::new(Vec::new()),
            me: me.clone(),
            state: T::State::default(),
        });
        let handles: Vec<JoinHandle<()>> = workers
            .into_iter()
            .enumerate()
            .map(|(index, deque)| {
                spawn_worker(&shared, index, deque, false).expect("failed to spawn worker")
            })
            .collect();
        Self { shared, handles }
    }
}

impl<T: Task> std::ops::Deref for Pool<T> {
    type Target = Shared<T>;

    fn deref(&self) -> &Shared<T> {
        &self.shared
    }
}

impl<T: Task> Drop for Pool<T> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.sleepers.wake_all();
        for h in self.handles.drain(..) {
            // A worker that died and was replaced exited cleanly (its panic
            // was caught in `worker_entry`), so this cannot hang on a dead
            // worker's arrival.
            let _ = h.join();
        }
        // Replacement workers spawned by the self-healing path. A
        // replacement can itself die and push a further replacement, so
        // drain until empty rather than iterating once (and never join
        // while holding the lock).
        loop {
            let handle = self.shared.replacements.lock().pop();
            let Some(h) = handle else { break };
            let _ = h.join();
        }
    }
}

impl<T: Task> Shared<T> {
    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.stealers.len()
    }

    /// Workers currently alive: briefly below [`num_workers`] while a dead
    /// worker's replacement is starting.
    ///
    /// [`num_workers`]: Shared::num_workers
    pub fn live_workers(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    /// Total workers lost to escaped panics since construction.
    pub fn worker_deaths(&self) -> usize {
        self.deaths.load(Ordering::Acquire)
    }

    /// Scheduler event counters.
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// Whether node-aware victim ordering is active.
    pub fn numa_enabled(&self) -> bool {
        self.numa
    }

    /// The front end's per-pool state.
    pub fn state(&self) -> &T::State {
        &self.state
    }

    /// A handle that does not keep the pool alive.
    pub fn downgrade(&self) -> Weak<Shared<T>> {
        self.me.clone()
    }

    /// Queues an item from outside the pool and wakes a sleeping worker if
    /// any (no spawn event: see the module docs' event rule).
    pub fn inject(&self, item: T) {
        self.injector.push_bottom(item);
        self.sleepers.wake_one();
    }

    /// What a parking worker re-checks after announcing itself: anything
    /// queued anywhere, or shutdown.
    fn has_work(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
            || self.stealers.iter().any(|s| !s.is_empty())
            || !self.injector.is_empty()
    }
}

/// One worker's precomputed steal-scan order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VictimPlan {
    /// Victims on this worker's NUMA node, neighbour-first.
    local: Vec<usize>,
    /// Victims on remote nodes, neighbour-first (empty when NUMA-unaware
    /// or single-node: then *every* victim is "local").
    remote: Vec<usize>,
}

/// Precomputes each worker's victim order. Worker `w` notionally occupies
/// CPU `w % cpus` (the same mapping `affinity::pin_current_thread` uses),
/// and scans victims starting from its right neighbour — so `p`
/// simultaneous thieves start at `p` distinct victims — visiting same-node
/// victims before crossing the interconnect. With NUMA off, or one node,
/// every victim lands in the local segment and the scan is the classic
/// neighbour-first round-robin.
fn build_victim_plans(topo: &NumaTopology, workers: usize, numa: bool) -> Vec<VictimPlan> {
    let cpus = topo.num_cpus().max(1);
    (0..workers)
        .map(|w| {
            let my_node = topo.node_of_cpu(w % cpus);
            let mut local = Vec::new();
            let mut remote = Vec::new();
            for v in (w + 1..workers).chain(0..w) {
                if numa && topo.node_of_cpu(v % cpus) != my_node {
                    remote.push(v);
                } else {
                    local.push(v);
                }
            }
            VictimPlan { local, remote }
        })
        .collect()
}

/// One worker's view of the pool, handed to every item it runs.
pub struct Ctx<'w, T: Task> {
    shared: &'w Shared<T>,
    index: usize,
    deque: &'w Worker<T>,
    /// First victim of the next steal episode; advances every episode so
    /// concurrent thieves starting from different indices stay fanned out.
    victim_offset: Cell<usize>,
}

impl<'w, T: Task> Ctx<'w, T> {
    /// This worker's index in `0..num_workers`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total number of workers in the pool.
    pub fn num_workers(&self) -> usize {
        self.shared.num_workers()
    }

    /// The pool this worker belongs to.
    pub fn shared(&self) -> &'w Shared<T> {
        self.shared
    }

    /// This worker's event counters.
    pub fn stats(&self) -> &WorkerStats {
        self.shared.stats.worker(self.index)
    }

    /// Reports one scheduler event on this worker's counters and trace.
    #[inline]
    pub fn emit(&self, kind: EventKind, a: u64, b: u64) {
        tpm_trace::emit(self.stats(), kind, a, b);
    }

    /// Pushes an item onto this worker's deque (it becomes stealable).
    pub fn push(&self, item: T) {
        self.deque.push(item);
        self.emit(EventKind::TaskSpawn, 0, 0);
        self.shared.sleepers.wake_one();
    }

    /// Pops this worker's newest item, if any.
    pub fn pop(&self) -> Option<T> {
        self.deque.pop()
    }

    /// Runs `item` here, counting it.
    pub fn execute(&self, item: T) {
        self.emit(EventKind::TaskExec, 0, 0);
        item.run(self);
    }

    /// Works (pop own, then steal) until `probe()` turns true — the heart of
    /// every blocking point.
    pub fn wait_until(&self, probe: impl Fn() -> bool) {
        // No one unparks a waiter, so the shared idle policy runs in its
        // no-park mode (the park phase degrades to yielding).
        let idle = IdleStrategy::new(self.shared.idle.0, self.shared.idle.1);
        while !probe() {
            if let Some(item) = self.pop().or_else(|| self.steal_work()) {
                self.execute(item);
                idle.reset();
            } else {
                idle.snooze_no_park();
            }
        }
    }

    /// One steal episode: scan every other worker once — same-NUMA-node
    /// victims first, then remote nodes, each segment round-robin from this
    /// worker's rotating offset — then the injector. `None` if nothing
    /// was found (callers loop, with escalating idle backoff between
    /// episodes — re-sweeping immediately here would only re-probe deques
    /// observed empty microseconds ago).
    ///
    /// A hit transfers a *batch* — up to half the victim's visible items, at
    /// most [`STEAL_BATCH_LIMIT`] — into our own deque and returns one of
    /// them; the rest are served by local pops (or stolen onward by others),
    /// so one episode can feed many executions.
    fn steal_work(&self) -> Option<T> {
        // Steal probes can run inside `wait_until` while an unfinished stack
        // job is still queued: unwinding here would free a job a thief may
        // yet execute, so panic rules are inert at this probe (they fire at
        // the worker-loop top level instead, where no such frame exists).
        if tpm_fault::probe_no_panic(FaultSite::StealAttempt) != FaultAction::None {
            self.emit(EventKind::FailedSteal, self.index as u64, 0);
            return None;
        }
        let plan = &self.shared.victim_plans[self.index];
        let start = self.victim_offset.get();
        self.victim_offset.set(start.wrapping_add(1));
        for segment in [&plan.local, &plan.remote] {
            let m = segment.len();
            for k in 0..m {
                let v = segment[(start + k) % m];
                let got = self.shared.stealers[v].steal_batch_into(self.deque, STEAL_BATCH_LIMIT);
                if got > 0 {
                    self.emit(EventKind::Steal, v as u64, got as u64);
                    // The rest of the batch is stealable from our deque:
                    // hand it to a sleeper rather than serving it alone.
                    if got > 1 {
                        self.shared.sleepers.wake_one();
                    }
                    // The batch went through our own deque, so the item cannot
                    // be `None` unless another thief raced it away — then the
                    // episode still counts as a hit and the caller retries.
                    if let Some(item) = self.pop() {
                        return Some(item);
                    }
                } else {
                    self.emit(EventKind::FailedSteal, v as u64, 0);
                }
            }
        }
        self.shared.injector.steal_top()
    }
}

impl<T: Task> std::fmt::Debug for Ctx<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerCtx")
            .field("index", &self.index)
            .finish()
    }
}

/// Starts worker `index` on `deque` (a replacement first records its
/// respawn).
fn spawn_worker<T: Task>(
    shared: &Arc<Shared<T>>,
    index: usize,
    deque: Worker<T>,
    respawn: bool,
) -> std::io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("{}-{index}", T::NAME))
        .spawn(move || {
            if respawn {
                tpm_trace::record(EventKind::WorkerRespawn, index as u64, 0);
            }
            worker_entry(shared, index, deque)
        })
}

/// Worker thread entry: pins, then runs [`worker_loop`] under a top-level
/// `catch_unwind`. An escaped panic (nothing in normal operation reaches
/// here — item execution has its own containment — but an injected
/// worker-loop fault does) marks the worker dead and respawns a replacement
/// thread on the same index with the same deque, so queued items survive the
/// death and the pool heals back to full width.
fn worker_entry<T: Task>(shared: Arc<Shared<T>>, index: usize, deque: Worker<T>) {
    if shared.pin {
        tpm_sync::affinity::pin_current_thread(index);
    }
    let result = catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, index, &deque)));
    if result.is_ok() || shared.shutdown.load(Ordering::Acquire) {
        return;
    }
    // Died mid-panic (never while parked: `sleep_unless` deregisters before
    // returning): account the death, and respawn.
    shared.live.fetch_sub(1, Ordering::AcqRel);
    shared.deaths.fetch_add(1, Ordering::AcqRel);
    tpm_trace::record(EventKind::WorkerDeath, index as u64, 0);
    tpm_trace::record(
        EventKind::DegradedWidth,
        shared.live.load(Ordering::Relaxed) as u64,
        0,
    );
    // A failed spawn leaves the pool degraded but alive: the remaining
    // workers still drain every queue, this deque included (a parking
    // worker re-checks every deque first).
    if let Ok(h) = spawn_worker(&shared, index, deque, true) {
        shared.live.fetch_add(1, Ordering::AcqRel);
        shared.replacements.lock().push(h);
    }
}

fn worker_loop<T: Task>(shared: &Shared<T>, index: usize, deque: &Worker<T>) {
    let ctx = Ctx {
        shared,
        index,
        deque,
        // The victim plan is already neighbour-first per worker; the offset
        // rotates the scan start within each (local/remote) segment across
        // episodes so repeat thieves fan out.
        victim_offset: Cell::new(0),
    };
    let idle = IdleStrategy::new(shared.idle.0, shared.idle.1);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // The one panic-safe steal-site probe: no item-owning frame is on
        // the stack here, so an injected panic exercises the full
        // worker-death + respawn path (caught in `worker_entry`).
        if tpm_fault::probe(FaultSite::StealAttempt) == FaultAction::Panic {
            tpm_fault::injected_panic(FaultSite::StealAttempt);
        }
        if let Some(item) = ctx.pop().or_else(|| ctx.steal_work()) {
            // Busy time is measured around top-level items only: nested
            // items run inside this span (via waits), so timing them again
            // would double-count — and per-item clocks would be too hot.
            let started = std::time::Instant::now();
            ctx.execute(item);
            ctx.stats().add_busy_ns(started.elapsed().as_nanos() as u64);
            idle.reset();
            continue;
        }
        if idle.snooze() && shared.sleepers.sleep_unless(|| shared.has_work()) {
            ctx.emit(EventKind::Park, 0, 0);
        }
    }
}

/// Runs `f` with panic containment, recording any payload into `slot` (first
/// panic wins). Shared by the scope and scatter machinery of both front
/// ends.
pub fn harness_panic(slot: &SpinLock<Option<Box<dyn std::any::Any + Send>>>, f: impl FnOnce()) {
    if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
        let mut guard = slot.lock();
        if guard.is_none() {
            *guard = Some(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_plans_prefer_same_node_then_remote() {
        let topo = NumaTopology::parse_spec("0-1;2-3").unwrap();
        let plans = build_victim_plans(&topo, 4, true);
        assert_eq!(plans[0].local, vec![1]);
        assert_eq!(plans[0].remote, vec![2, 3]);
        assert_eq!(plans[1].local, vec![0]);
        assert_eq!(plans[1].remote, vec![2, 3]);
        // Neighbour-first within each segment: worker 2 scans 3, then 0, 1.
        assert_eq!(plans[2].local, vec![3]);
        assert_eq!(plans[2].remote, vec![0, 1]);
        assert_eq!(plans[3].local, vec![2]);
        assert_eq!(plans[3].remote, vec![0, 1]);
    }

    #[test]
    fn victim_plans_wrap_oversubscribed_workers_onto_cpus() {
        let topo = NumaTopology::parse_spec("0-1;2-3").unwrap();
        let plans = build_victim_plans(&topo, 6, true);
        // Worker 4 wraps to CPU 0 (node 0): workers 0, 1, 5 are local.
        assert_eq!(plans[4].local, vec![5, 0, 1]);
        assert_eq!(plans[4].remote, vec![2, 3]);
    }

    #[test]
    fn numa_unaware_plans_scan_every_victim_neighbour_first() {
        let topo = NumaTopology::parse_spec("0-1;2-3").unwrap();
        let plans = build_victim_plans(&topo, 4, false);
        for (w, plan) in plans.iter().enumerate() {
            assert!(plan.remote.is_empty());
            let expected: Vec<usize> = (w + 1..4).chain(0..w).collect();
            assert_eq!(plan.local, expected);
        }
    }
}
