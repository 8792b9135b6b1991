//! Trace sessions: turn capture on, run the workload, drain at quiescence.

use std::sync::{Mutex, MutexGuard};

use crate::event::Event;
use crate::{registry, set_enabled, set_ring_capacity, DEFAULT_RING_CAPACITY};

/// Serializes sessions: event rings are process-global, so only one session
/// may own them at a time.
pub(crate) static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// An active tracing window. Created by [`TraceSession::start`]; while alive,
/// [`crate::record`] calls land in per-worker rings. [`TraceSession::stop`]
/// turns capture off, waits for every ring to go quiet, and drains them into
/// a [`Trace`].
pub struct TraceSession {
    _guard: MutexGuard<'static, ()>,
    started_ns: u64,
}

impl TraceSession {
    /// Starts a session with the default per-worker ring capacity
    /// ([`DEFAULT_RING_CAPACITY`] events). Blocks if another session is
    /// active.
    pub fn start() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Starts a session whose newly registered workers get rings of
    /// `capacity` events. Workers registered by an earlier session keep
    /// their existing rings (cleared here).
    pub fn with_capacity(capacity: usize) -> Self {
        let guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_ring_capacity(capacity);
        for log in registry().lock().unwrap().iter() {
            log.ring.clear();
        }
        let started_ns = crate::now_ns();
        set_enabled(true);
        TraceSession {
            _guard: guard,
            started_ns,
        }
    }

    /// Stops capture and collects everything recorded since start.
    pub fn stop(self) -> Trace {
        set_enabled(false);
        let stopped_ns = crate::now_ns();
        // Quiescence: a worker that loaded ENABLED=true just before the store
        // above may still be completing one `push`. Wait until every ring's
        // head stops advancing before reading slots.
        let logs: Vec<_> = registry().lock().unwrap().iter().cloned().collect();
        let mut heads: Vec<u64> = logs.iter().map(|l| l.ring.recorded()).collect();
        loop {
            std::thread::yield_now();
            let again: Vec<u64> = logs.iter().map(|l| l.ring.recorded()).collect();
            if again == heads {
                break;
            }
            heads = again;
        }
        let workers = logs
            .iter()
            .map(|log| {
                let mut events: Vec<Event> = log
                    .ring
                    .drain()
                    .into_iter()
                    .filter(|e| e.ts_ns >= self.started_ns)
                    .collect();
                events.sort_by_key(|e| e.ts_ns);
                WorkerTrace {
                    name: log.name.clone(),
                    dropped: log.ring.dropped(),
                    events,
                }
            })
            .filter(|w| !w.events.is_empty() || w.dropped > 0)
            .collect();
        Trace {
            workers,
            started_ns: self.started_ns,
            stopped_ns,
        }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        // `stop` consumes self; reaching Drop with capture still on means the
        // session was abandoned — switch capture off so later code isn't
        // unknowingly traced.
        set_enabled(false);
    }
}

/// One worker's slice of a collected [`Trace`].
#[derive(Debug, Clone)]
pub struct WorkerTrace {
    /// The worker's thread name (e.g. `tpm-worksteal-3`) or a fallback id.
    pub name: String,
    /// Events recorded in this session, oldest first.
    pub events: Vec<Event>,
    /// Events lost to ring wraparound.
    pub dropped: u64,
}

/// Everything collected by one [`TraceSession`].
#[derive(Debug, Clone)]
pub struct Trace {
    /// Per-worker event logs, in worker registration order.
    pub workers: Vec<WorkerTrace>,
    /// Session start, nanoseconds since the trace epoch.
    pub started_ns: u64,
    /// Session stop, nanoseconds since the trace epoch.
    pub stopped_ns: u64,
}

impl Trace {
    /// Total events across all workers.
    pub fn total_events(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// Number of workers that recorded at least one event.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Session wall time in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.stopped_ns.saturating_sub(self.started_ns)
    }

    /// Chrome-trace (Perfetto-loadable) JSON. See [`crate::chrome`].
    pub fn chrome_json(&self) -> String {
        crate::chrome::to_chrome_json(self)
    }

    /// Aggregated per-worker metrics. See [`crate::summary`].
    pub fn summary(&self) -> crate::summary::TraceSummary {
        crate::summary::TraceSummary::from_trace(self)
    }

    /// Plain-text per-worker activity timeline, `width` columns wide.
    pub fn timeline(&self, width: usize) -> String {
        crate::summary::render_timeline(self, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;
    use tpm_sync::WorkerStats;

    #[test]
    fn session_captures_and_isolates() {
        let stats = WorkerStats::new();
        // Pre-session events must not appear in the trace (they are still
        // counted).
        crate::emit(&stats, EventKind::Steal, 7, 0);
        let s = TraceSession::with_capacity(64);
        crate::emit(&stats, EventKind::TaskSpawn, 1, 0);
        crate::emit(&stats, EventKind::TaskExec, 0, 0);
        let trace = s.stop();
        let me = std::thread::current().name().unwrap_or("").to_string();
        let mine: Vec<_> = trace.workers.iter().filter(|w| w.name == me).collect();
        assert_eq!(mine.len(), 1);
        let kinds: Vec<_> = mine[0].events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EventKind::TaskSpawn, EventKind::TaskExec]);
        // After stop, recording is off again.
        crate::emit(&stats, EventKind::Steal, 7, 0);
        assert_eq!(stats.get(EventKind::Steal), 2);
        let s2 = TraceSession::with_capacity(64);
        let trace2 = s2.stop();
        assert!(!trace2.workers.iter().any(|w| w.name == me));
    }

    #[test]
    fn concurrent_record_then_drain() {
        let s = TraceSession::with_capacity(1 << 12);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::Builder::new()
                    .name(format!("trace-test-{t}"))
                    .spawn(move || {
                        let stats = WorkerStats::new();
                        for i in 0..500u64 {
                            crate::emit(&stats, EventKind::TaskExec, t, i);
                        }
                    })
                    .unwrap()
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let trace = s.stop();
        let test_workers: Vec<_> = trace
            .workers
            .iter()
            .filter(|w| w.name.starts_with("trace-test-"))
            .collect();
        assert_eq!(test_workers.len(), 4);
        for w in &test_workers {
            assert_eq!(w.events.len(), 500, "worker {} lost events", w.name);
            // Per-worker payloads arrive in program order.
            let bs: Vec<u64> = w.events.iter().map(|e| e.b).collect();
            assert!(bs.windows(2).all(|p| p[0] < p[1]));
        }
    }
}
