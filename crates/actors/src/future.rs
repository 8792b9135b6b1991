//! Futures and continuations for task dependencies.
//!
//! The many-tasking dependency primitive (HPX futures, Charm++ callbacks):
//! a [`Promise`] is the write-once producer half, a [`Future`] the consumer
//! half. Consumers either block (`ActorRuntime::block_on`, which waits
//! through the runtime as its worker 0, or [`Future::wait`] where there is
//! no runtime) or attach a *continuation*
//! ([`Future::on_ready`]) that the completing worker runs inline — the
//! non-blocking composition style the actor kernels use, so no worker ever
//! parks on a dependency.

use std::sync::Arc;

use tpm_sync::{IdleStrategy, Sleepers, SpinLatch, SpinLock};

enum State<T> {
    /// Neither value nor continuation yet.
    Empty,
    /// Completed; value parked for `wait`/late `on_ready`.
    Value(T),
    /// Continuation registered before completion.
    Waiting(Box<dyn FnOnce(T) + Send>),
    /// Value already handed to a continuation or waiter.
    Done,
}

struct Shared<T> {
    state: SpinLock<State<T>>,
    ready: SpinLatch,
    /// A thread parked in [`Future::wait`]; empty, it allocates nothing.
    waiters: Sleepers,
}

impl<T> Shared<T> {
    fn new(state: State<T>) -> Self {
        Self {
            state: SpinLock::new(state),
            ready: SpinLatch::new(),
            waiters: Sleepers::new(0),
        }
    }
}

/// Creates a linked future/promise pair.
///
/// # Examples
///
/// ```
/// let (f, p) = tpm_actors::future::<u32>();
/// p.set(42);
/// assert_eq!(f.wait(), 42);
/// ```
pub fn future<T: Send + 'static>() -> (Future<T>, Promise<T>) {
    let shared = Arc::new(Shared::new(State::Empty));
    (
        Future {
            shared: Arc::clone(&shared),
        },
        Promise { shared },
    )
}

/// The write-once producer half of a future (see [`future`]).
pub struct Promise<T: Send + 'static> {
    shared: Arc<Shared<T>>,
}

impl<T: Send + 'static> Promise<T> {
    /// Creates a promise whose completion runs `cont` directly on the
    /// completing thread — a bare continuation, no [`Future`] handle. This
    /// is the join-tree building block: the last child to complete combines
    /// and propagates upward without any thread blocking.
    pub fn on_complete(cont: impl FnOnce(T) + Send + 'static) -> Promise<T> {
        Promise {
            shared: Arc::new(Shared::new(State::Waiting(Box::new(cont)))),
        }
    }

    /// Completes the future. If a continuation is attached it runs here, on
    /// the completing thread, before `set` returns.
    pub fn set(self, value: T) {
        let run = {
            let mut state = self.shared.state.lock();
            match std::mem::replace(&mut *state, State::Done) {
                State::Empty => {
                    *state = State::Value(value);
                    None
                }
                State::Waiting(cont) => Some((cont, value)),
                // Write-once: a second completion is a logic error.
                State::Value(_) | State::Done => unreachable!("promise completed twice"),
            }
        };
        self.shared.ready.set();
        match run {
            Some((cont, value)) => cont(value),
            // The value was parked for a `wait`: release a parked waiter.
            // (With a continuation attached no `Future` is left to wait.)
            None => self.shared.waiters.wake_all(),
        }
    }
}

impl<T: Send + 'static> std::fmt::Debug for Promise<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Promise")
    }
}

/// The consumer half of a future (see [`future`]).
pub struct Future<T: Send + 'static> {
    shared: Arc<Shared<T>>,
}

impl<T: Send + 'static> Future<T> {
    /// Whether the value has been produced.
    pub fn is_ready(&self) -> bool {
        self.shared.ready.probe()
    }

    /// Blocks until the value arrives, then returns it: the runtimes'
    /// default idle window (spin, then yield), then parked until
    /// [`Promise::set`] wakes it. Meant for threads with no runtime at hand:
    /// a caller of a runtime waits through `ActorRuntime::block_on`, so it
    /// works meanwhile, and workers compose with
    /// [`on_ready`](Future::on_ready) instead.
    pub fn wait(self) -> T {
        let ready = || self.shared.ready.probe();
        self.shared
            .waiters
            .wait_until(&IdleStrategy::runtime_default(), ready);
        let mut state = self.shared.state.lock();
        match std::mem::replace(&mut *state, State::Done) {
            State::Value(v) => v,
            _ => panic!("future value already consumed"),
        }
    }

    /// Attaches a continuation: runs immediately (on this thread) if the
    /// value is already there, otherwise on whichever thread completes the
    /// promise.
    pub fn on_ready(self, cont: impl FnOnce(T) + Send + 'static) {
        let mut cont = Some(cont);
        let run = {
            let mut state = self.shared.state.lock();
            match std::mem::replace(&mut *state, State::Done) {
                State::Empty => {
                    *state = State::Waiting(Box::new(cont.take().expect("unconsumed")));
                    None
                }
                State::Value(v) => Some(v),
                State::Waiting(_) => panic!("future already has a continuation"),
                State::Done => panic!("future value already consumed"),
            }
        };
        if let Some(v) = run {
            (cont.take().expect("continuation not stored"))(v);
        }
    }
}

impl<T: Send + 'static> std::fmt::Debug for Future<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Future")
            .field("ready", &self.is_ready())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn set_then_wait() {
        let (f, p) = future::<u32>();
        assert!(!f.is_ready());
        p.set(7);
        assert!(f.is_ready());
        assert_eq!(f.wait(), 7);
    }

    #[test]
    fn wait_blocks_until_set() {
        let (f, p) = future::<String>();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                p.set("done".to_string());
            });
            assert_eq!(f.wait(), "done");
        });
    }

    #[test]
    fn continuation_runs_on_completion() {
        let (f, p) = future::<u64>();
        let got = Arc::new(AtomicU64::new(0));
        let g = Arc::clone(&got);
        f.on_ready(move |v| g.store(v, Ordering::Relaxed));
        p.set(99);
        assert_eq!(got.load(Ordering::Relaxed), 99);
    }

    #[test]
    fn late_continuation_runs_immediately() {
        let (f, p) = future::<u64>();
        p.set(5);
        let got = Arc::new(AtomicU64::new(0));
        let g = Arc::clone(&got);
        f.on_ready(move |v| g.store(v, Ordering::Relaxed));
        assert_eq!(got.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn bare_continuation_promise() {
        let got = Arc::new(AtomicU64::new(0));
        let g = Arc::clone(&got);
        let p = Promise::on_complete(move |v: u64| g.store(v, Ordering::Relaxed));
        p.set(1234);
        assert_eq!(got.load(Ordering::Relaxed), 1234);
    }
}
