//! `std::async` / `std::future` analogues.
//!
//! The paper's task-parallel C++11 versions use `std::async`; its two launch
//! policies are reproduced here: [`Launch::Async`] creates a fresh OS thread
//! per task (the cost the paper measures — there is *no* pool and *no*
//! scheduler), and [`Launch::Deferred`] runs the closure lazily on
//! [`Future::get`].

use std::panic::resume_unwind;
use std::thread::JoinHandle;

use tpm_sync::{oneshot, EventKind};

use crate::stats::emit;

/// Launch policy for [`async_task`] (C++ `std::launch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Launch {
    /// Run on a freshly created OS thread, immediately.
    Async,
    /// Run on the calling thread, at `get()` time.
    Deferred,
}

enum Inner<T> {
    Async {
        rx: oneshot::Receiver<T>,
        handle: JoinHandle<()>,
    },
    Deferred(Box<dyn FnOnce() -> T + Send>),
    /// Transitional state during `get`.
    Taken,
}

/// A one-shot result handle (C++ `std::future`).
///
/// Like `std::future` from `std::async`, dropping an un-gotten `Async`
/// future blocks until the task finishes (the thread is joined).
pub struct Future<T> {
    inner: Inner<T>,
}

impl<T: Send + 'static> Future<T> {
    /// Blocks until the task completes and returns its result.
    /// Re-raises the task's panic on the calling thread.
    pub fn get(mut self) -> T {
        match std::mem::replace(&mut self.inner, Inner::Taken) {
            Inner::Async { rx, handle } => {
                let value = rx.recv();
                let joined = handle.join();
                emit(EventKind::ThreadJoin, 0);
                match (value, joined) {
                    (Ok(v), _) => v,
                    // Task panicked before sending; re-raise its payload.
                    (Err(_), Err(p)) => resume_unwind(p),
                    (Err(_), Ok(())) => unreachable!("sender dropped without panic"),
                }
            }
            Inner::Deferred(f) => {
                emit(EventKind::TaskExec, 0);
                f()
            }
            Inner::Taken => unreachable!("future consumed twice"),
        }
    }

    /// True once an `Async` task has produced its value (a `Deferred` task is
    /// never ready before `get`).
    pub fn is_ready(&self) -> bool {
        match &self.inner {
            Inner::Async { rx, .. } => rx.is_ready(),
            Inner::Deferred(_) => false,
            Inner::Taken => true,
        }
    }

    /// Continuation chaining (the data/event-driven pattern the paper's
    /// Table I attributes to `std::future`): produces a future for
    /// `f(self.get())`, launched per `policy`. The dependency is expressed
    /// by the chain, not by shared state.
    ///
    /// # Examples
    ///
    /// ```
    /// use tpm_rawthreads::{async_task, Launch};
    ///
    /// let pipeline = async_task(Launch::Async, || 20)
    ///     .and_then(Launch::Async, |x| x * 2)
    ///     .and_then(Launch::Deferred, |x| x + 2);
    /// assert_eq!(pipeline.get(), 42);
    /// ```
    pub fn and_then<U, F>(self, policy: Launch, f: F) -> Future<U>
    where
        U: Send + 'static,
        F: FnOnce(T) -> U + Send + 'static,
    {
        async_task(policy, move || f(self.get()))
    }
}

impl<T> Drop for Future<T> {
    fn drop(&mut self) {
        if let Inner::Async { handle, .. } = std::mem::replace(&mut self.inner, Inner::Taken) {
            // std::future semantics: the destructor of an async future blocks.
            let _ = handle.join();
            emit(EventKind::ThreadJoin, 0);
        }
    }
}

impl<T> std::fmt::Debug for Future<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Future").finish_non_exhaustive()
    }
}

/// Launches `f` per `policy` and returns its future (C++ `std::async`).
///
/// # Examples
///
/// ```
/// use tpm_rawthreads::{async_task, Launch};
///
/// let fut = async_task(Launch::Async, || 6 * 7);
/// assert_eq!(fut.get(), 42);
///
/// let lazy = async_task(Launch::Deferred, || 1 + 1);
/// assert_eq!(lazy.get(), 2); // runs here, on the calling thread
/// ```
pub fn async_task<T, F>(policy: Launch, f: F) -> Future<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    emit(EventKind::TaskSpawn, 0);
    match policy {
        Launch::Async => {
            let (tx, rx) = oneshot::channel();
            emit(EventKind::ThreadSpawn, 0);
            let handle = std::thread::Builder::new()
                .name("tpm-async".into())
                .spawn(move || {
                    emit(EventKind::TaskExec, 0);
                    tx.send(f())
                })
                .expect("failed to spawn async task thread");
            Future {
                inner: Inner::Async { rx, handle },
            }
        }
        Launch::Deferred => Future {
            inner: Inner::Deferred(Box::new(f)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn async_runs_eagerly() {
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        let fut = async_task(Launch::Async, move || {
            r2.store(true, Ordering::Release);
            5
        });
        // Eventually ready without get().
        while !fut.is_ready() {
            std::thread::yield_now();
        }
        assert!(ran.load(Ordering::Acquire));
        assert_eq!(fut.get(), 5);
    }

    #[test]
    fn deferred_runs_lazily_on_get() {
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        let fut = async_task(Launch::Deferred, move || {
            r2.store(true, Ordering::Release);
            7
        });
        assert!(!fut.is_ready());
        assert!(!ran.load(Ordering::Acquire));
        assert_eq!(fut.get(), 7);
        assert!(ran.load(Ordering::Acquire));
    }

    #[test]
    fn panic_propagates_through_get() {
        let fut = async_task(Launch::Async, || -> u32 { panic!("task panic") });
        let r = catch_unwind(AssertUnwindSafe(|| fut.get()));
        assert!(r.is_err());
    }

    #[test]
    fn drop_joins_the_thread() {
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        {
            let _fut = async_task(Launch::Async, move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                r2.store(true, Ordering::Release);
            });
            // dropped here: must block until the task ran
        }
        assert!(ran.load(Ordering::Acquire));
    }

    #[test]
    fn and_then_chains_and_propagates_panics() {
        let v = async_task(Launch::Async, || 3)
            .and_then(Launch::Async, |x| x + 1)
            .and_then(Launch::Async, |x| x * 10)
            .get();
        assert_eq!(v, 40);
        let fut = async_task(Launch::Async, || 1u32)
            .and_then(Launch::Async, |_| -> u32 { panic!("stage 2") });
        assert!(catch_unwind(AssertUnwindSafe(|| fut.get())).is_err());
    }

    #[test]
    fn deferred_chain_runs_entirely_on_get() {
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        let fut = async_task(Launch::Deferred, move || {
            r2.store(true, Ordering::Release);
            5
        })
        .and_then(Launch::Deferred, |x| x * 2);
        assert!(!ran.load(Ordering::Acquire));
        assert_eq!(fut.get(), 10);
        assert!(ran.load(Ordering::Acquire));
    }

    #[test]
    fn many_futures() {
        let futs: Vec<_> = (0..32u64)
            .map(|i| async_task(Launch::Async, move || i * i))
            .collect();
        let total: u64 = futs.into_iter().map(Future::get).sum();
        assert_eq!(total, (0..32u64).map(|i| i * i).sum());
    }
}
