//! Recursive task decomposition with raw threads — the paper's "recursive"
//! C++11 versions, including both its findings:
//!
//! * With a cutoff `BASE = N / num_threads`, recursion "helps to control task
//!   creation and to avoid oversubscription of tasks over hardware threads".
//! * Without a cutoff, "when problem size increases to 20 or above, the
//!   system hangs because huge number of threads is created" — reproduced
//!   here as a *guarded* failure via [`ThreadBudget`], which turns the
//!   thread explosion into a deterministic error instead of an OS lockup.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

use tpm_sync::{CancelToken, EventKind};

use crate::stats::emit;

/// The split every recursive version makes: runs `left` on a new OS thread
/// and `right` on this one, joins the thread, and returns both results. A
/// panic on the new thread is re-raised here with its original payload.
fn split<A: Send, B>(left: impl FnOnce() -> A + Send, right: impl FnOnce() -> B) -> (A, B) {
    std::thread::scope(|s| {
        emit(EventKind::ThreadSpawn, 0);
        let h = s.spawn(left);
        let b = right();
        let a = h.join();
        emit(EventKind::ThreadJoin, 0);
        (a.unwrap_or_else(|p| resume_unwind(p)), b)
    })
}

/// Computes the paper's recursion cutoff: `BASE = ⌈N / num_threads⌉`, at
/// least 1 (ceiling, so chunk count equals thread count).
pub fn base_cutoff(n: usize, num_threads: usize) -> usize {
    n.div_ceil(num_threads.max(1)).max(1)
}

/// Recursive thread-per-split reduction (the C++ `std::async` recursive
/// pattern): halves the range, runs the left half on a new OS thread and the
/// right half inline, until chunks reach `base`, then combines each pair of
/// halves left to right. A loop is the reduction over `T = ()`.
///
/// Cancellation is cooperative: the token is polled before every split and
/// every leaf, so once it fires (explicit cancel or deadline) no further
/// leaf starts and each live thread returns within one `base`-sized grain.
/// Subtrees that observe a fired token contribute `identity()` instead of
/// running, so the combine tree (and with it the merge order —
/// bit-reproducible for floats) is unchanged when the token never fires.
/// Callers detect cancellation from the token afterwards; the partial value
/// is then meaningless.
///
/// # Examples
///
/// ```
/// use tpm_sync::{CancelReason, CancelToken};
/// use tpm_rawthreads::recursive_reduce_cancel;
///
/// let sum = |chunk: std::ops::Range<usize>| chunk.map(|i| i as u64).sum::<u64>();
/// let token = CancelToken::new();
/// let total = recursive_reduce_cancel(0..1_000, 250, &token, &|| 0, &sum, &|a, b| a + b);
/// assert_eq!(total, 499_500);
///
/// token.cancel();
/// recursive_reduce_cancel(0..1_000, 10, &token, &|| 0, &|_| unreachable!(), &|a, b| a + b);
/// assert_eq!(token.check(), Err(CancelReason::Cancelled));
/// ```
pub fn recursive_reduce_cancel<T, Id, F, Op>(
    range: Range<usize>,
    base: usize,
    token: &CancelToken,
    identity: &Id,
    body: &F,
    combine: &Op,
) -> T
where
    T: Send,
    Id: Fn() -> T + Sync,
    F: Fn(Range<usize>) -> T + Sync,
    Op: Fn(T, T) -> T + Sync,
{
    if token.is_cancelled() {
        return identity();
    }
    let base = base.max(1);
    if range.len() <= base {
        // Leaf claim: an injected panic unwinds through the split scopes
        // below (each re-raises the original payload) up to the executor.
        match tpm_fault::probe(tpm_fault::Site::ChunkClaim) {
            tpm_fault::Action::Panic => tpm_fault::injected_panic(tpm_fault::Site::ChunkClaim),
            tpm_fault::Action::TaskDrop => tpm_fault::injected_drop(tpm_fault::Site::ChunkClaim),
            _ => {}
        }
        return body(range);
    }
    let mid = range.start + range.len() / 2;
    let (left, right) = (range.start..mid, mid..range.end);
    let (l, r) = split(
        || recursive_reduce_cancel(left, base, token, identity, body, combine),
        || recursive_reduce_cancel(right, base, token, identity, body, combine),
    );
    combine(l, r)
}

/// A live-thread budget used to reproduce the paper's C++ Fibonacci failure
/// mode safely: exceeding the budget reports [`ThreadExplosion`] instead of
/// exhausting the OS.
#[derive(Debug)]
pub struct ThreadBudget {
    live: AtomicUsize,
    peak: AtomicUsize,
    max: usize,
}

/// Error: the computation tried to hold more live threads than budgeted —
/// the condition under which the paper reports "the system hangs".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadExplosion {
    /// The budget that was exceeded.
    pub max: usize,
}

impl std::fmt::Display for ThreadExplosion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "thread explosion: more than {} simultaneous threads required",
            self.max
        )
    }
}

impl std::error::Error for ThreadExplosion {}

impl ThreadBudget {
    /// Creates a budget of at most `max` simultaneously live threads.
    pub fn new(max: usize) -> Self {
        Self {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            max,
        }
    }

    /// Highest simultaneous live-thread count observed.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    fn acquire(&self) -> Result<(), ThreadExplosion> {
        let n = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(n, Ordering::Relaxed);
        if n > self.max {
            self.live.fetch_sub(1, Ordering::Relaxed);
            Err(ThreadExplosion { max: self.max })
        } else {
            Ok(())
        }
    }

    fn release(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Fibonacci with one new OS thread per left child and *no cutoff* — the
/// paper's naive recursive C++ version. Returns `Err(ThreadExplosion)` when
/// the budget is exceeded (which, for `n ≳ 16` and any realistic budget, it
/// is — this models "the system hangs" finding).
pub fn fib_thread_per_call(n: u64, budget: &ThreadBudget) -> Result<u64, ThreadExplosion> {
    if n < 2 {
        return Ok(n);
    }
    budget.acquire()?;
    let (a, b) = split(
        || fib_thread_per_call(n - 1, budget),
        || fib_thread_per_call(n - 2, budget),
    );
    budget.release();
    Ok(a? + b?)
}

/// Fibonacci with a sequential cutoff: threads are only created above
/// `cutoff`, bounding the live-thread count — the paper's workable C++
/// recursive pattern.
pub fn fib_with_cutoff(n: u64, cutoff: u64) -> u64 {
    fn seq(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            seq(n - 1) + seq(n - 2)
        }
    }
    if n < 2 || n <= cutoff {
        return seq(n);
    }
    let (a, b) = split(
        || fib_with_cutoff(n - 1, cutoff),
        || fib_with_cutoff(n - 2, cutoff),
    );
    a + b
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn base_cutoff_formula() {
        assert_eq!(base_cutoff(100, 4), 25);
        assert_eq!(base_cutoff(3, 8), 1);
        assert_eq!(base_cutoff(0, 4), 1);
        assert_eq!(base_cutoff(100, 0), 100);
    }

    #[test]
    fn recursive_for_covers_range() {
        let flags: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        let token = CancelToken::new();
        let visit = |chunk: Range<usize>| {
            for i in chunk {
                flags[i].fetch_add(1, Ordering::Relaxed);
            }
        };
        recursive_reduce_cancel(0..100, 25, &token, &|| (), &visit, &|(), ()| ());
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn recursive_reduce_sums() {
        let total = recursive_reduce_cancel(
            0..10_000,
            2_500,
            &CancelToken::new(),
            &|| 0,
            &|chunk| chunk.map(|i| i as u64).sum::<u64>(),
            &|a, b| a + b,
        );
        assert_eq!(total, (0..10_000u64).sum());
    }

    #[test]
    fn fib_with_cutoff_is_correct() {
        assert_eq!(fib_with_cutoff(20, 12), 6765);
        assert_eq!(fib_with_cutoff(10, 0), 55);
        assert_eq!(fib_with_cutoff(1, 5), 1);
    }

    #[test]
    fn naive_fib_explodes_for_moderate_n() {
        // The paper: "when problem size increases to 20 or above, the system
        // hangs". With a budget standing in for the OS limit, the failure is
        // a clean error.
        let budget = ThreadBudget::new(64);
        let r = fib_thread_per_call(18, &budget);
        assert_eq!(r, Err(ThreadExplosion { max: 64 }));
    }

    #[test]
    fn naive_fib_small_n_fits_in_budget() {
        // fib(10)'s call tree has 177 nodes total, so 1000 live threads can
        // never be exceeded regardless of scheduling.
        let budget = ThreadBudget::new(1000);
        assert_eq!(fib_thread_per_call(10, &budget), Ok(55));
        assert!(budget.peak() >= 1);
        assert!(budget.peak() <= 1000);
    }
}
