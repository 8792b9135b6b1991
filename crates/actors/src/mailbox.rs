//! Typed actor mailboxes and the serialization state machine.
//!
//! Every actor owns a lock-free MPSC mailbox ([`tpm_sync::MpscQueue`]).
//! Senders are wait-free; delivery is exactly-once and per-sender FIFO.
//! The scheduler runs at most one *activation* of an actor at a time, so
//! message handlers never race with themselves — the actor-model guarantee
//! — enforced by a two-state machine per cell:
//!
//! ```text
//!        push + swap(SCHEDULED)==IDLE            drain, then store(IDLE)
//! IDLE ───────────────────────────────▶ SCHEDULED ─────────────────────▶ IDLE
//!        (exactly one sender wins                 (re-check mailbox:
//!         and enqueues the activation)             non-empty ⇒ try to win
//!                                                  the IDLE→SCHEDULED race
//!                                                  back and requeue)
//! ```
//!
//! The post-drain re-check closes the race where a message lands between
//! the last `pop` and the `IDLE` store: either the drainer sees it and
//! reschedules, or a concurrent sender wins the swap and schedules — never
//! both (the swap returns `IDLE` to exactly one of them), and never
//! neither.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Weak};

use tpm_sync::{MpscQueue, SpinLock};

use crate::runtime::{Activation, RuntimeInner, WorkerCtx};

/// Messages one activation processes before voluntarily yielding the
/// worker (the fairness bound: a flooded mailbox cannot starve its
/// siblings).
const MAILBOX_BATCH: usize = 64;

const IDLE: u8 = 0;
const SCHEDULED: u8 = 1;

/// A message-driven entity: state plus a handler, run serially per actor.
///
/// # Examples
///
/// ```
/// use tpm_actors::{Actor, ActorCtx, ActorRuntime};
///
/// struct Counter(u64);
/// impl Actor for Counter {
///     type Msg = u64;
///     fn on_message(&mut self, msg: u64, _ctx: &ActorCtx<'_, '_>) {
///         self.0 += msg;
///     }
/// }
///
/// let rt = ActorRuntime::new(2);
/// let addr = rt.spawn_actor(Counter(0));
/// addr.send(5);
/// ```
pub trait Actor: Send + 'static {
    /// The mailbox's message type.
    type Msg: Send + 'static;

    /// Handles one message. Called serially — `&mut self` is honest — on
    /// whichever worker runs this actor's current activation. A panic here
    /// drops the offending message; the actor and its mailbox survive.
    fn on_message(&mut self, msg: Self::Msg, ctx: &ActorCtx<'_, '_>);
}

/// What a running actor can see of the scheduler: spawn more work, find out
/// where it is running.
pub struct ActorCtx<'a, 'w> {
    worker: &'a WorkerCtx<'w>,
}

impl ActorCtx<'_, '_> {
    /// Index of the worker currently running this activation.
    pub fn worker_index(&self) -> usize {
        self.worker.index()
    }

    /// Total workers in the runtime.
    pub fn num_workers(&self) -> usize {
        self.worker.num_workers()
    }

    /// Spawns a fire-and-forget task onto the current worker's deque.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&WorkerCtx<'_>) + Send + 'static,
    {
        self.worker.spawn(f);
    }

    /// Spawns a sibling actor on the same runtime.
    pub fn spawn_actor<A: Actor>(&self, actor: A) -> Addr<A> {
        ActorCell::spawn(actor, self.worker.core.shared().downgrade())
    }
}

impl std::fmt::Debug for ActorCtx<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorCtx")
            .field("worker_index", &self.worker_index())
            .finish()
    }
}

/// Type-erased handle the scheduler runs (see [`Activation::Cell`]).
pub(crate) trait Runnable: Send + Sync {
    fn run(self: Arc<Self>, ctx: &WorkerCtx<'_>);
}

/// The heap part of one actor: mailbox + scheduling state + behavior.
pub(crate) struct ActorCell<A: Actor> {
    mailbox: MpscQueue<A::Msg>,
    /// IDLE/SCHEDULED (the serialization state machine in the module docs).
    state: AtomicU8,
    /// The actor itself. The state machine guarantees no two activations
    /// run concurrently, so this lock is uncontended by construction — it
    /// exists to make `ActorCell: Sync` and as a belt-and-braces guard.
    behavior: SpinLock<A>,
    /// Scheduler to enqueue activations on (weak: an address must not keep
    /// the worker pool alive).
    rt: Weak<RuntimeInner>,
}

impl<A: Actor> ActorCell<A> {
    pub(crate) fn spawn(actor: A, rt: Weak<RuntimeInner>) -> Addr<A> {
        Addr {
            cell: Arc::new(ActorCell {
                mailbox: MpscQueue::new(),
                state: AtomicU8::new(IDLE),
                behavior: SpinLock::new(actor),
                rt,
            }),
        }
    }

    /// The sender half of the state machine: enqueue, then schedule if this
    /// send observed the cell idle.
    fn notify(self: &Arc<Self>, msg: A::Msg) {
        self.mailbox.push(msg);
        if self.state.swap(SCHEDULED, Ordering::AcqRel) == IDLE {
            match self.rt.upgrade() {
                Some(rt) => rt.inject(Activation::Cell(Arc::clone(self) as Arc<dyn Runnable>)),
                // Runtime gone: park the cell back to idle so the message
                // sits in the mailbox (dead-letter) instead of wedging the
                // state machine.
                None => self.state.store(IDLE, Ordering::Release),
            }
        }
    }
}

impl<A: Actor> Runnable for ActorCell<A> {
    fn run(self: Arc<Self>, ctx: &WorkerCtx<'_>) {
        let mut processed = 0;
        {
            let mut behavior = self.behavior.lock();
            while processed < MAILBOX_BATCH {
                match self.mailbox.pop() {
                    Some(msg) => {
                        processed += 1;
                        let actx = ActorCtx { worker: ctx };
                        // A panicking handler poisons only its own message.
                        if catch_unwind(AssertUnwindSafe(|| behavior.on_message(msg, &actx)))
                            .is_err()
                        {
                            ctx.note_task_panic();
                        }
                    }
                    None => break,
                }
            }
        }
        if processed == MAILBOX_BATCH && !self.mailbox.is_empty() {
            // Fairness yield: stay SCHEDULED (senders must not double-
            // schedule us) and requeue at the back of our worker's deque.
            ctx.core.push(Activation::Cell(self));
            return;
        }
        self.state.store(IDLE, Ordering::Release);
        // Close the push-vs-drain race (module docs): a message that landed
        // after our last pop but before the IDLE store has a sender that
        // lost the swap — so the re-schedule is on us.
        if !self.mailbox.is_empty() && self.state.swap(SCHEDULED, Ordering::AcqRel) == IDLE {
            ctx.core.push(Activation::Cell(self));
        }
    }
}

/// A cloneable address for sending messages to one actor.
pub struct Addr<A: Actor> {
    cell: Arc<ActorCell<A>>,
}

impl<A: Actor> Addr<A> {
    /// Sends a message: wait-free enqueue, exactly-once delivery, FIFO with
    /// respect to this sender's other sends.
    pub fn send(&self, msg: A::Msg) {
        self.cell.notify(msg);
    }

    /// Whether the mailbox currently looks empty (approximate — for tests
    /// and diagnostics).
    pub fn mailbox_is_empty(&self) -> bool {
        self.cell.mailbox.is_empty()
    }
}

impl<A: Actor> Clone for Addr<A> {
    fn clone(&self) -> Self {
        Addr {
            cell: Arc::clone(&self.cell),
        }
    }
}

impl<A: Actor> std::fmt::Debug for Addr<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Addr")
            .field("mailbox_empty", &self.mailbox_is_empty())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ActorRuntime;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    fn wait_for(cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out");
            std::thread::yield_now();
        }
    }

    struct Summer {
        total: Arc<AtomicU64>,
        seen: u64,
    }

    impl Actor for Summer {
        type Msg = u64;
        fn on_message(&mut self, msg: u64, _ctx: &ActorCtx<'_, '_>) {
            // Serial execution makes the unsynchronized field update safe.
            self.seen += 1;
            self.total.fetch_add(msg, Ordering::Relaxed);
        }
    }

    #[test]
    fn messages_are_delivered() {
        let rt = ActorRuntime::new(2);
        let total = Arc::new(AtomicU64::new(0));
        let addr = rt.spawn_actor(Summer {
            total: Arc::clone(&total),
            seen: 0,
        });
        for i in 1..=100u64 {
            addr.send(i);
        }
        wait_for(|| total.load(Ordering::Relaxed) == 5050);
    }

    #[test]
    fn concurrent_senders_deliver_exactly_once() {
        let rt = ActorRuntime::new(4);
        let total = Arc::new(AtomicU64::new(0));
        let addr = rt.spawn_actor(Summer {
            total: Arc::clone(&total),
            seen: 0,
        });
        std::thread::scope(|s| {
            for _ in 0..4 {
                let addr = addr.clone();
                s.spawn(move || {
                    for _ in 0..10_000u64 {
                        addr.send(1);
                    }
                });
            }
        });
        wait_for(|| total.load(Ordering::Relaxed) == 40_000);
        // Settled: no stragglers beyond exactly-once.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(total.load(Ordering::Relaxed), 40_000);
    }

    struct Recorder {
        order: Arc<SpinLock<Vec<u64>>>,
    }

    impl Actor for Recorder {
        type Msg = u64;
        fn on_message(&mut self, msg: u64, _ctx: &ActorCtx<'_, '_>) {
            self.order.lock().push(msg);
        }
    }

    #[test]
    fn single_sender_order_is_fifo() {
        let rt = ActorRuntime::new(4);
        let order = Arc::new(SpinLock::new(Vec::new()));
        let addr = rt.spawn_actor(Recorder {
            order: Arc::clone(&order),
        });
        for i in 0..1_000u64 {
            addr.send(i);
        }
        wait_for(|| order.lock().len() == 1_000);
        let got = order.lock().clone();
        assert_eq!(got, (0..1_000).collect::<Vec<_>>());
    }

    struct PingPong {
        peer: Option<Addr<PingPong>>,
        bounces: Arc<AtomicU64>,
    }

    impl Actor for PingPong {
        type Msg = (u64, Option<Addr<PingPong>>);
        fn on_message(&mut self, (n, peer): Self::Msg, _ctx: &ActorCtx<'_, '_>) {
            if let Some(p) = peer {
                self.peer = Some(p);
            }
            self.bounces.fetch_add(1, Ordering::Relaxed);
            if n > 0 {
                if let Some(p) = &self.peer {
                    p.send((n - 1, None));
                }
            }
        }
    }

    #[test]
    fn actors_can_message_each_other() {
        let rt = ActorRuntime::new(2);
        let bounces = Arc::new(AtomicU64::new(0));
        let a = rt.spawn_actor(PingPong {
            peer: None,
            bounces: Arc::clone(&bounces),
        });
        let b = rt.spawn_actor(PingPong {
            peer: Some(a.clone()),
            bounces: Arc::clone(&bounces),
        });
        a.send((200, Some(b.clone())));
        wait_for(|| bounces.load(Ordering::Relaxed) == 201);
    }

    struct Faulty {
        survived: Arc<AtomicU64>,
    }

    impl Actor for Faulty {
        type Msg = bool;
        fn on_message(&mut self, poison: bool, _ctx: &ActorCtx<'_, '_>) {
            if poison {
                panic!("poison message");
            }
            self.survived.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn panicking_handler_poisons_only_its_message() {
        let rt = ActorRuntime::new(2);
        let survived = Arc::new(AtomicU64::new(0));
        let addr = rt.spawn_actor(Faulty {
            survived: Arc::clone(&survived),
        });
        addr.send(false);
        addr.send(true); // dropped by the panic
        addr.send(false);
        wait_for(|| survived.load(Ordering::Relaxed) == 2);
        assert_eq!(rt.task_panics(), 1);
        assert_eq!(rt.worker_deaths(), 0);
    }

    struct Spawner {
        hits: Arc<AtomicU64>,
    }

    impl Actor for Spawner {
        type Msg = u64;
        fn on_message(&mut self, n: u64, ctx: &ActorCtx<'_, '_>) {
            let hits = Arc::clone(&self.hits);
            // An actor can spawn plain tasks and sibling actors.
            ctx.spawn(move |_| {
                hits.fetch_add(n, Ordering::Relaxed);
            });
            let child = ctx.spawn_actor(Summer {
                total: Arc::clone(&self.hits),
                seen: 0,
            });
            child.send(n);
        }
    }

    #[test]
    fn actors_spawn_tasks_and_children() {
        let rt = ActorRuntime::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        let addr = rt.spawn_actor(Spawner {
            hits: Arc::clone(&hits),
        });
        addr.send(7);
        wait_for(|| hits.load(Ordering::Relaxed) == 14);
    }
}
