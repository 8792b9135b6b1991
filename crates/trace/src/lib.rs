//! `tpm-trace`: unified low-overhead scheduler tracing for the three
//! `threadcmp` runtimes.
//!
//! Every worker thread that records an event gets a thread-local,
//! single-producer ring buffer (see [`ring::Ring`]) registered in a global
//! registry. Recording is wait-free and allocation-free; capture is always
//! compiled in, and while no [`session::TraceSession`] is active a recording
//! call costs one relaxed atomic load.
//!
//! A [`session::TraceSession`] turns capture on, runs the workload, then
//! drains all rings at quiescence into a [`session::Trace`], which can be
//! exported as Chrome-trace (Perfetto-loadable) JSON, aggregated into
//! per-worker/per-region metrics, or rendered as a plain-text timeline.
//!
//! Kinds are [`EventKind`], the workspace's one event vocabulary. A runtime
//! reports a scheduler event once, with [`emit`], which also bumps the
//! worker's [`WorkerStats`] counter; [`record`] is for traced-only kinds.
//!
//! ```
//! let stats = tpm_sync::WorkerStats::new();
//! let session = tpm_trace::TraceSession::start();
//! tpm_trace::emit(&stats, tpm_trace::EventKind::TaskSpawn, 0, 0);
//! let trace = session.stop();
//! assert!(trace.total_events() >= 1);
//! assert_eq!(stats.get(tpm_trace::EventKind::TaskSpawn), 1);
//! ```

pub mod chrome;
pub mod event;
pub mod ring;
pub mod session;
pub mod summary;

pub use event::{Event, EventKind};
pub use session::{Trace, TraceSession, WorkerTrace};
pub use summary::{KindCounts, TraceSummary, WorkerSummary};

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ring::Ring;
use tpm_sync::WorkerStats;

/// Runtime on/off switch. Off by default; flipped by [`TraceSession`].
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Default per-worker ring capacity in events.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Is event capture currently live (a [`TraceSession`] switched it on)?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub(crate) fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Nanoseconds since the process trace epoch (first use).
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One worker thread's event log: its name plus its ring.
#[derive(Debug)]
pub(crate) struct ThreadLog {
    pub(crate) name: String,
    pub(crate) ring: Ring,
}

/// All thread logs ever registered, in registration order.
pub(crate) fn registry() -> &'static Mutex<Vec<Arc<ThreadLog>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadLog>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Ring capacity used for threads registering their log (set per session).
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

pub(crate) fn ring_capacity() -> usize {
    RING_CAPACITY.load(Ordering::Relaxed)
}

pub(crate) fn set_ring_capacity(cap: usize) {
    RING_CAPACITY.store(cap, Ordering::Relaxed);
}

thread_local! {
    static LOCAL_LOG: Arc<ThreadLog> = {
        let name = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{:?}", std::thread::current().id()));
        let log = Arc::new(ThreadLog {
            name,
            ring: Ring::new(ring_capacity()),
        });
        registry().lock().unwrap().push(Arc::clone(&log));
        log
    };
}

/// Reports one scheduler event: counts it on `stats` (if `kind` is
/// [counted](EventKind::counted)) and records it on the calling thread's log
/// (if capture is live), so the counters and the trace cannot disagree.
#[inline]
pub fn emit(stats: &WorkerStats, kind: EventKind, a: u64, b: u64) {
    stats.count(kind, a);
    trace(kind, a, b);
}

/// Records one event of a traced-only kind (spans, locks, worker death and
/// respawn) on the calling thread's log. Counted kinds go through [`emit`].
///
/// With no active session it is a single relaxed load.
#[inline]
pub fn record(kind: EventKind, a: u64, b: u64) {
    debug_assert!(!kind.counted(), "{kind:?} is counted: use tpm_trace::emit");
    trace(kind, a, b);
}

#[inline]
fn trace(kind: EventKind, a: u64, b: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let ts_ns = now_ns();
    LOCAL_LOG.with(|log| log.ring.push(Event { ts_ns, kind, a, b }));
}

/// Interns a region name, returning a stable id usable as an event payload.
///
/// Cheap for repeat calls on small name sets (linear scan of a static table);
/// region names are `'static` by construction.
pub fn intern(name: &'static str) -> u64 {
    let names = interner();
    let mut guard = names.lock().unwrap();
    if let Some(idx) = guard.iter().position(|n| *n == name) {
        return idx as u64;
    }
    guard.push(name);
    (guard.len() - 1) as u64
}

/// Resolves an id returned by [`intern`].
pub fn resolve(id: u64) -> Option<&'static str> {
    interner().lock().unwrap().get(id as usize).copied()
}

fn interner() -> &'static Mutex<Vec<&'static str>> {
    static INTERNER: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(Vec::new()))
}

/// RAII span: records [`EventKind::RegionBegin`] now and
/// [`EventKind::RegionEnd`] on drop. Nest freely; spans close innermost-first
/// on each worker, which is what the Chrome-trace B/E phases require.
#[must_use = "the span closes when this guard drops"]
pub struct SpanGuard {
    name_id: u64,
}

/// Opens a named span on the calling thread.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if enabled() {
        let name_id = intern(name);
        record(EventKind::RegionBegin, name_id, 0);
        SpanGuard { name_id }
    } else {
        SpanGuard { name_id: u64::MAX }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.name_id != u64::MAX {
            record(EventKind::RegionEnd, self.name_id, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_without_session_is_a_no_op() {
        // Hold the session lock so no concurrently running test has capture
        // switched on while we check the disabled path.
        let _guard = session::SESSION_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        record(EventKind::ThreadJoin, 1, 2);
        assert!(!enabled());
    }

    #[test]
    fn intern_is_stable_and_resolvable() {
        let a = intern("alpha-region");
        let b = intern("beta-region");
        assert_ne!(a, b);
        assert_eq!(intern("alpha-region"), a);
        assert_eq!(resolve(a), Some("alpha-region"));
        assert_eq!(resolve(u64::MAX - 1), None);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let t0 = now_ns();
        let t1 = now_ns();
        assert!(t1 >= t0);
    }
}
