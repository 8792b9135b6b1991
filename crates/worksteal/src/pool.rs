//! The work-stealing pool both stealing runtimes run on.
//!
//! `tpm-worksteal`'s [`Runtime`](crate::Runtime) queues erased `join`/`scope`
//! jobs and `tpm-actors`' `ActorRuntime` queues actor activations; the
//! scheduler underneath is this one module, generic over the queued item
//! ([`Task`]) and monomorphised per front end:
//!
//! * per-worker Chase–Lev deques plus a locked injector for external
//!   submissions;
//! * batch stealing: each episode scans every other worker once,
//!   neighbour-first from an offset that rotates every episode;
//! * idle escalation spin → yield → park until woken: a worker parks
//!   through [`Sleepers`], and every push, injection and multi-item steal
//!   wakes one sleeper, so no idle worker polls;
//! * the submitting thread is worker 0 ([`Shared::wait_external`]): a pool
//!   of P ≥ 2 spawns workers `1..P` and keeps deque 0 as a *seat*. An
//!   outside thread that waits on the pool takes the seat and works as
//!   worker 0 (pop, steal, park among the workers) until its submission
//!   completes, as Cilk Plus counts the user thread among its workers and
//!   OpenMP's master is thread 0. A second concurrent caller, or a nested
//!   one, finds the seat taken and only waits: the same idle window, then a
//!   park on a second [`Sleepers`]. Either way the thread that completes
//!   the submission wakes it ([`Shared::wake_external`]);
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
//! [`Shared::inject`] is neither — it is queued before the submitting
//! thread takes the seat — and, like every item, is counted once, as
//! `TaskExec`/`executed`, when it runs.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::{JoinHandle, ThreadId};

use tpm_fault::{Action as FaultAction, Site as FaultSite};
use tpm_sync::chase_lev::{self, Stealer, Worker};
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
    /// Worker thread-name prefix: spawned worker `i` is `{NAME}-{i}` (trace
    /// worker labels read it; a seated caller keeps its own name).
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
    /// Outside threads parked in [`Shared::wait_external`] without the seat.
    waiters: Sleepers,
    /// Deque 0 and the outside thread working on it.
    seat: SpinLock<Seat<T>>,
    stats: SchedulerStats,
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

/// Deque 0 of a pool of P ≥ 2: free while `deque` is there, taken while an
/// outside thread works on it.
struct Seat<T> {
    deque: Option<Worker<T>>,
    /// The seated thread, so that [`Shared::wake_external`] can wake it
    /// among the parked workers.
    holder: Option<ThreadId>,
}

impl<T: Task> Pool<T> {
    /// A pool of `cfg.threads` workers. With two or more it spawns workers
    /// `1..threads` and keeps deque 0 as the seat a waiting caller works
    /// on; with one it spawns worker 0 and has no seat, so a one-thread
    /// pool is one thread and work submitted with no waiter still runs.
    pub fn new(cfg: PoolConfig) -> Self {
        let num_workers = cfg.threads;
        assert!(num_workers >= 1, "runtime needs at least one worker");
        let (mut workers, stealers): (Vec<_>, Vec<_>) = (0..num_workers)
            .map(|_| chase_lev::deque(DEQUE_CAPACITY))
            .unzip();
        let seat = (num_workers >= 2).then(|| workers.remove(0));
        let first_spawned = num_workers - workers.len();
        let shared = Arc::new_cyclic(|me| Shared {
            stealers,
            injector: LockedDeque::new(),
            idle: cfg.idle,
            shutdown: AtomicBool::new(false),
            sleepers: Sleepers::new(num_workers),
            waiters: Sleepers::new(0),
            seat: SpinLock::new(Seat {
                deque: seat,
                holder: None,
            }),
            stats: SchedulerStats::new(num_workers),
            pin: cfg.pin,
            live: AtomicUsize::new(num_workers),
            deaths: AtomicUsize::new(0),
            replacements: SpinLock::new(Vec::new()),
            me: me.clone(),
            state: T::State::default(),
        });
        let handles: Vec<JoinHandle<()>> = workers
            .into_iter()
            .zip(first_spawned..)
            .map(|(deque, index)| {
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
    /// Number of workers, the seat included.
    pub fn num_workers(&self) -> usize {
        self.stealers.len()
    }

    /// Workers currently alive: briefly below [`num_workers`] while a dead
    /// worker's replacement is starting. The seat counts as alive: it is
    /// worked by whichever caller waits, and a caller does not die in the
    /// pool.
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

    /// Blocks an outside thread until `done()` holds. If the seat is free
    /// the caller takes it and works as worker 0 — pops, steals and takes
    /// from the injector, counted on worker 0's stats — until `done()`,
    /// then runs what is left in deque 0 and gives the seat back (on unwind
    /// too). Out of work, it runs the pool's idle window and parks among the
    /// workers, where a push or a multi-item steal wakes it as it wakes
    /// them. A caller that finds the seat taken (a second concurrent
    /// caller, a nested one, or any caller of a one-thread pool) runs the
    /// same window and parks on its own. Whatever makes `done()` true must
    /// then call [`wake_external`](Self::wake_external).
    pub fn wait_external(&self, done: impl Fn() -> bool) {
        let idle = IdleStrategy::new(self.idle.0, self.idle.1);
        match self.take_seat() {
            Some(seat) => seat.work_until(&idle, done),
            None => self.waiters.wait_until(&idle, done),
        }
    }

    /// Releases the outside threads parked in
    /// [`wait_external`](Self::wait_external). Call after publishing what
    /// they wait for; with none parked it is a fence and a load per park
    /// list, and the seat's lock. All are woken, since each may wait on a
    /// different region: one whose region is still running parks again.
    pub fn wake_external(&self) {
        self.waiters.wake_all();
        if let Some(seated) = self.seat.lock().holder {
            self.sleepers.wake_thread(seated);
        }
    }

    /// Takes the seat for the calling thread, if it is free.
    fn take_seat(&self) -> Option<SeatGuard<'_, T>> {
        let mut seat = self.seat.lock();
        let deque = seat.deque.take()?;
        seat.holder = Some(std::thread::current().id());
        Some(SeatGuard {
            shared: self,
            deque: Some(deque),
        })
    }

    /// What a parking worker re-checks after announcing itself: anything
    /// queued anywhere, or shutdown.
    fn has_work(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
            || self.stealers.iter().any(|s| !s.is_empty())
            || !self.injector.is_empty()
    }
}

/// The seat while a caller holds it; dropping it gives the seat back.
struct SeatGuard<'s, T: Task> {
    shared: &'s Shared<T>,
    /// `Some` until the drop hands it back.
    deque: Option<Worker<T>>,
}

impl<T: Task> SeatGuard<'_, T> {
    /// The seated loop: worker 0's [`worker_loop`] until `done()`, with the
    /// seated thread parked among the workers once its window runs out.
    fn work_until(self, idle: &IdleStrategy, done: impl Fn() -> bool) {
        let shared = self.shared;
        let ctx = Ctx {
            shared,
            index: 0,
            deque: self.deque.as_ref().expect("seat deque present until drop"),
            victim_offset: Cell::new(0),
        };
        while !done() {
            if let Some(item) = ctx.pop().or_else(|| ctx.steal_work()) {
                ctx.run_top(item);
                idle.reset();
            } else if idle.snooze_until(&done)
                && shared.sleepers.sleep_unless(|| done() || shared.has_work())
            {
                ctx.emit(EventKind::Park, 0, 0);
            }
        }
        // Only the seat pushes to deque 0: what is left there now is ours
        // to finish before the seat is free.
        while let Some(item) = ctx.pop() {
            ctx.run_top(item);
        }
    }
}

impl<T: Task> Drop for SeatGuard<'_, T> {
    fn drop(&mut self) {
        let deque = self.deque.take();
        // Only an unwind leaves items behind; they stay stealable, and a
        // parked worker must hear of them.
        let left = deque.as_ref().is_some_and(|d| !d.is_empty());
        {
            let mut seat = self.shared.seat.lock();
            seat.deque = deque;
            seat.holder = None;
        }
        if left {
            self.shared.sleepers.wake_one();
        }
    }
}

/// The victims of one steal episode of worker `index` in a pool of
/// `workers`: every other worker once, neighbour-first (`index + 1`, then
/// onward, wrapping) and rotated by `offset`, so `p` simultaneous thieves
/// start at `p` distinct victims and a repeat thief fans out.
fn victims(index: usize, offset: usize, workers: usize) -> impl Iterator<Item = usize> {
    let others = workers - 1;
    (0..others).map(move |k| (index + 1 + (offset + k) % others) % workers)
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

    /// Runs a top-level item of a worker or seat loop and adds its busy
    /// time. Busy time is measured around top-level items only: nested
    /// items run inside this span (via waits), so timing them again would
    /// double-count — and per-item clocks would be too hot.
    fn run_top(&self, item: T) {
        let started = std::time::Instant::now();
        self.execute(item);
        self.stats()
            .add_busy_ns(started.elapsed().as_nanos() as u64);
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

    /// One steal episode: scan every other worker once in [`victims`]
    /// order from this worker's rotating offset, then the injector. `None`
    /// if nothing was found (callers loop, with escalating idle backoff
    /// between episodes — re-sweeping immediately here would only re-probe
    /// deques observed empty microseconds ago).
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
        let offset = self.victim_offset.get();
        self.victim_offset.set(offset.wrapping_add(1));
        for v in victims(self.index, offset, self.num_workers()) {
            let got = self.shared.stealers[v].steal_batch_into(self.deque, STEAL_BATCH_LIMIT);
            if got > 0 {
                self.emit(EventKind::Steal, v as u64, got as u64);
                // The rest of the batch is stealable from our deque: hand it
                // to a sleeper rather than serving it alone.
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
            ctx.run_top(item);
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
    fn steal_scan_probes_every_other_worker_once_neighbour_first() {
        for workers in [1, 2, 3, 5] {
            for index in 0..workers {
                for offset in [0, 1, 2, 7, 12] {
                    let scan: Vec<usize> = victims(index, offset, workers).collect();
                    let mut sorted = scan.clone();
                    sorted.sort_unstable();
                    let others: Vec<usize> = (0..workers).filter(|&v| v != index).collect();
                    assert_eq!(sorted, others, "P={workers} w={index} offset={offset}");
                    // Neighbour-first from the offset: each probe is the
                    // next worker round the ring, skipping the thief.
                    if workers > 1 {
                        let first = (index + 1 + offset % (workers - 1)) % workers;
                        assert_eq!(scan[0], first, "P={workers} w={index} offset={offset}");
                    }
                    for pair in scan.windows(2) {
                        let mut next = (pair[0] + 1) % workers;
                        if next == index {
                            next = (next + 1) % workers;
                        }
                        assert_eq!(
                            pair[1], next,
                            "P={workers} w={index} offset={offset}: {scan:?}"
                        );
                    }
                }
            }
        }
        // Offset 0 is the plain neighbour-first order.
        assert_eq!(victims(2, 0, 5).collect::<Vec<_>>(), [3, 4, 0, 1]);
        assert_eq!(victims(2, 1, 5).collect::<Vec<_>>(), [4, 0, 1, 3]);
    }
}
