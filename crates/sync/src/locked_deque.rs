//! A mutex-protected work-stealing deque.
//!
//! The paper attributes `omp task`'s deficit against `cilk_spawn` (Fig. 5,
//! ~20%) to the Intel OpenMP runtime using "lock-based deque for pushing,
//! popping and stealing tasks in the deque, which increases more contention
//! and overhead than the workstealing protocol in Cilk Plus". This module is
//! that lock-based deque: same owner-LIFO/thief-FIFO discipline as
//! [`crate::chase_lev`], but every operation takes a [`crate::SpinLock`].
//! The benchmark's per-layer metrics `sync.locked_deque.push_pop_ns` and
//! `sync.chase_lev.push_pop_ns` measure the two against each other.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::SpinLock;

/// A lock-based deque handle. Cloneable; all clones share the deque.
///
/// Owner operations ([`push_bottom`](Self::push_bottom),
/// [`pop_bottom`](Self::pop_bottom)) and thief operations
/// ([`steal_top`](Self::steal_top)) may be called from any thread — the lock
/// serializes everything, which is precisely the overhead being modeled.
///
/// # Examples
///
/// ```
/// use tpm_sync::LockedDeque;
///
/// let d = LockedDeque::new();
/// d.push_bottom(1);
/// d.push_bottom(2);
/// assert_eq!(d.pop_bottom(), Some(2));   // LIFO for the owner
/// assert_eq!(d.steal_top(), Some(1));    // FIFO for thieves
/// ```
#[derive(Debug)]
pub struct LockedDeque<T> {
    inner: Arc<SpinLock<VecDeque<T>>>,
}

impl<T> Clone for LockedDeque<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send> LockedDeque<T> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(SpinLock::new(VecDeque::new())),
        }
    }

    /// Creates an empty deque with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            inner: Arc::new(SpinLock::new(VecDeque::with_capacity(cap))),
        }
    }

    /// Owner push (newest end).
    pub fn push_bottom(&self, value: T) {
        self.inner.lock().push_back(value);
    }

    /// Owner pop (newest end, LIFO — depth-first execution order).
    pub fn pop_bottom(&self) -> Option<T> {
        self.inner.lock().pop_back()
    }

    /// Thief steal (oldest end, FIFO — steals the largest remaining subtree
    /// under recursive decomposition).
    pub fn steal_top(&self) -> Option<T> {
        self.inner.lock().pop_front()
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

impl<T: Send> Default for LockedDeque<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ends_behave_as_documented() {
        let d = LockedDeque::new();
        for i in 0..4 {
            d.push_bottom(i);
        }
        assert_eq!(d.steal_top(), Some(0));
        assert_eq!(d.pop_bottom(), Some(3));
        assert_eq!(d.steal_top(), Some(1));
        assert_eq!(d.pop_bottom(), Some(2));
        assert!(d.is_empty());
    }

    #[test]
    fn concurrent_producers_and_thieves_conserve_elements() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const N: usize = 20_000;
        let d = LockedDeque::new();
        let consumed = AtomicUsize::new(0);
        let collected = SpinLock::new(Vec::new());
        std::thread::scope(|s| {
            {
                let d = d.clone();
                s.spawn(move || {
                    for i in 0..N {
                        d.push_bottom(i);
                    }
                });
            }
            for _ in 0..4 {
                let d = d.clone();
                let consumed = &consumed;
                let collected = &collected;
                s.spawn(move || {
                    let mut local = Vec::new();
                    while consumed.load(Ordering::Relaxed) < N {
                        if let Some(v) = d.steal_top() {
                            consumed.fetch_add(1, Ordering::Relaxed);
                            local.push(v);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    collected.lock().extend(local);
                });
            }
        });
        let all = collected.into_inner();
        let set: HashSet<usize> = all.iter().copied().collect();
        assert_eq!(all.len(), N);
        assert_eq!(set.len(), N);
    }
}
