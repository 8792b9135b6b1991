//! Hierarchical, lock-free cancellation tokens with deadline support.
//!
//! The paper's Table III singles out error handling as the axis where the
//! threading models diverge most — and none of them has *cancellation*: once
//! a parallel loop is dispatched, it runs to completion. A request-serving
//! system needs the opposite guarantee: a job must stop within one grain of
//! work once its client gives up or its deadline passes. [`CancelToken`] is
//! the primitive the three runtimes check at their chunk boundaries
//! (fork-join worksharing loops, work-stealing `par_for` leaves, rawthreads
//! recursive chunks) to provide that guarantee.
//!
//! Tokens form a tree: [`CancelToken::child`] derives a token that observes
//! its parent's cancellation (and deadline) but can be cancelled
//! independently, so one server-wide shutdown token fans out to per-request
//! tokens. All operations are lock-free: a token is an `Arc` chain of
//! atomic flags plus immutable deadlines, so checking one
//! from a hot loop costs a few relaxed loads (plus one clock read when a
//! deadline is set).
//!
//! ```
//! use tpm_sync::{CancelToken, CancelReason};
//!
//! let root = CancelToken::new();
//! let req = root.child();
//! assert!(req.check().is_ok());
//! root.cancel();
//! assert_eq!(req.check(), Err(CancelReason::Cancelled));
//!
//! let timed = CancelToken::with_deadline(std::time::Duration::ZERO);
//! assert_eq!(timed.check(), Err(CancelReason::DeadlineExpired));
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`CancelToken`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called on the token or an ancestor.
    Cancelled,
    /// The token's (or an ancestor's) deadline passed.
    DeadlineExpired,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::Cancelled => f.write_str("cancelled"),
            CancelReason::DeadlineExpired => f.write_str("deadline expired"),
        }
    }
}

/// Aligned to a cache line: every task on the runtime polls `cancelled`
/// on its hot path, so the flag word must not share a line with whatever
/// the allocator places next to this node (false-sharing audit, ISSUE 8).
#[derive(Debug)]
#[repr(align(64))]
struct Inner {
    /// Set once by [`CancelToken::cancel`]; never cleared.
    cancelled: AtomicBool,
    /// Latched once a check observes the deadline in the past, so later
    /// checks skip the clock read.
    expired: AtomicBool,
    /// Immutable after construction.
    deadline: Option<Instant>,
    /// Parent link; checks walk to the root.
    parent: Option<Arc<Inner>>,
}

crate::assert_line_aligned!(Inner);

impl Inner {
    fn new(deadline: Option<Instant>, parent: Option<Arc<Inner>>) -> Arc<Self> {
        Arc::new(Self {
            cancelled: AtomicBool::new(false),
            expired: AtomicBool::new(false),
            deadline,
            parent,
        })
    }

    /// This node's own state (not ancestors'), latching deadline expiry.
    fn own_reason(&self, now: &mut Option<Instant>) -> Option<CancelReason> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Some(CancelReason::Cancelled);
        }
        if self.expired.load(Ordering::Relaxed) {
            return Some(CancelReason::DeadlineExpired);
        }
        if let Some(d) = self.deadline {
            let t = *now.get_or_insert_with(Instant::now);
            if t >= d {
                self.expired.store(true, Ordering::Relaxed);
                return Some(CancelReason::DeadlineExpired);
            }
        }
        None
    }
}

/// A cooperative cancellation token: hierarchical, lock-free, with optional
/// deadlines. Cloning shares the token (both clones observe and trigger the
/// same state); [`child`](CancelToken::child) derives a dependent token.
///
/// # Examples
///
/// ```
/// use tpm_sync::CancelToken;
///
/// let token = CancelToken::new();
/// let worker = token.clone();
/// assert!(!worker.is_cancelled());
/// token.cancel();
/// assert!(worker.is_cancelled());
/// ```
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A root token with no deadline.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Inner::new(None, None),
        }
    }

    /// A root token that expires `timeout` from now.
    #[must_use]
    pub fn with_deadline(timeout: Duration) -> Self {
        Self::with_deadline_at(Instant::now() + timeout)
    }

    /// A root token that expires at `deadline`.
    #[must_use]
    pub fn with_deadline_at(deadline: Instant) -> Self {
        Self {
            inner: Inner::new(Some(deadline), None),
        }
    }

    /// Derives a child token: it observes this token's cancellation and
    /// deadline, and can additionally be cancelled on its own without
    /// affecting the parent.
    #[must_use]
    pub fn child(&self) -> Self {
        Self {
            inner: Inner::new(None, Some(Arc::clone(&self.inner))),
        }
    }

    /// Requests cancellation: this token and every descendant observe it at
    /// their next check. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Why this token has fired, if it has: walks the ancestor chain
    /// checking flags and deadlines. The nearest tripped node wins, with
    /// explicit cancellation taking precedence over deadline expiry at the
    /// same node.
    #[must_use]
    pub fn reason(&self) -> Option<CancelReason> {
        // One clock read serves every deadline on the chain.
        let mut now = None;
        let mut node = Some(&self.inner);
        while let Some(n) = node {
            if let Some(r) = n.own_reason(&mut now) {
                return Some(r);
            }
            node = n.parent.as_ref();
        }
        None
    }

    /// True once this token or any ancestor has been cancelled or has passed
    /// its deadline.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.reason().is_some()
    }

    /// `Err(reason)` once fired — the form chunk loops use:
    /// `token.check()?`.
    pub fn check(&self) -> Result<(), CancelReason> {
        match self.reason() {
            None => Ok(()),
            Some(r) => Err(r),
        }
    }

    /// The effective deadline: the earliest on the ancestor chain, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        let mut best: Option<Instant> = None;
        let mut node = Some(&self.inner);
        while let Some(n) = node {
            if let Some(d) = n.deadline {
                best = Some(match best {
                    Some(b) => b.min(d),
                    None => d,
                });
            }
            node = n.parent.as_ref();
        }
        best
    }

    /// Time until the effective deadline (`None` when no deadline is set;
    /// `Some(ZERO)` once passed).
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline()
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.check(), Ok(()));
        assert_eq!(t.reason(), None);
        assert_eq!(t.deadline(), None);
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn cancel_is_observed_and_idempotent() {
        let t = CancelToken::new();
        t.cancel();
        t.cancel();
        assert_eq!(t.reason(), Some(CancelReason::Cancelled));
        assert_eq!(t.check(), Err(CancelReason::Cancelled));
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn parent_cancel_reaches_children_not_vice_versa() {
        let root = CancelToken::new();
        let a = root.child();
        let b = root.child();
        let grandchild = a.child();
        a.cancel();
        assert!(a.is_cancelled());
        assert!(grandchild.is_cancelled());
        assert!(!root.is_cancelled(), "child cancel must not reach the root");
        assert!(!b.is_cancelled(), "siblings are independent");
        root.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn deadline_expiry_reports_deadline_reason() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExpired));
        // Latched: still expired on re-check.
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExpired));
        // Explicit cancel takes precedence at the same node.
        t.cancel();
        assert_eq!(t.reason(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn future_deadline_is_live_until_it_passes() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn child_inherits_parent_deadline() {
        let parent = CancelToken::with_deadline(Duration::ZERO);
        let child = parent.child();
        assert_eq!(child.reason(), Some(CancelReason::DeadlineExpired));
        assert_eq!(child.deadline(), parent.deadline());
    }

    #[test]
    fn concurrent_checkers_observe_cancel() {
        let t = CancelToken::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    while !t.is_cancelled() {
                        std::hint::spin_loop();
                    }
                });
            }
            t.cancel();
        });
        // All threads exited their loops (scope joined) — no hang.
    }
}
