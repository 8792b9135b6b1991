//! Aggregated metrics and plain-text rendering for collected traces.

use std::fmt::Write as _;

use crate::event::EventKind;
use crate::session::Trace;

/// Event counts bucketed by [`EventKind`].
#[derive(Debug, Clone, Default)]
pub struct KindCounts {
    counts: [u64; EventKind::END],
}

impl KindCounts {
    /// Count for one kind.
    pub fn get(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    fn bump(&mut self, kind: EventKind) {
        self.counts[kind as usize] += 1;
    }

    /// Total events across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Aggregated metrics for one worker.
#[derive(Debug, Clone)]
pub struct WorkerSummary {
    /// Worker thread name.
    pub name: String,
    /// Per-kind event counts.
    pub counts: KindCounts,
    /// Total nanoseconds spent waiting at barriers (from
    /// [`EventKind::BarrierRelease`] payloads).
    pub barrier_wait_ns: u64,
    /// Total loop iterations dispatched to this worker (from
    /// [`EventKind::ChunkDispatch`] payloads).
    pub chunk_iters: u64,
    /// Nanoseconds inside open regions (from begin/end span pairing; spans
    /// cut by the session window are clipped to it).
    pub busy_ns: u64,
    /// Events lost to ring wraparound.
    pub dropped: u64,
}

impl WorkerSummary {
    /// This worker's share of "work units": chunk iterations if it ran
    /// worksharing loops, else executed tasks, else raw event count.
    fn work_units(&self) -> u64 {
        if self.chunk_iters > 0 {
            self.chunk_iters
        } else {
            let tasks = self.counts.get(EventKind::TaskExec);
            if tasks > 0 {
                tasks
            } else {
                self.counts.total()
            }
        }
    }
}

/// Aggregated metrics for a whole [`Trace`].
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Per-worker rollups, in trace order.
    pub workers: Vec<WorkerSummary>,
    /// Session wall time in nanoseconds.
    pub duration_ns: u64,
}

impl TraceSummary {
    /// Builds the rollup from a collected trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let workers = trace
            .workers
            .iter()
            .map(|w| {
                let mut counts = KindCounts::default();
                let mut barrier_wait_ns = 0u64;
                let mut chunk_iters = 0u64;
                let mut busy_ns = 0u64;
                let mut span_starts: Vec<u64> = Vec::new();
                for ev in &w.events {
                    counts.bump(ev.kind);
                    match ev.kind {
                        EventKind::BarrierRelease => barrier_wait_ns += ev.a,
                        EventKind::ChunkDispatch => chunk_iters += ev.a,
                        EventKind::RegionBegin => span_starts.push(ev.ts_ns),
                        EventKind::RegionEnd => {
                            // Only the outermost open span accrues busy time;
                            // nested spans lie inside it.
                            if let Some(begin) = span_starts.pop() {
                                if span_starts.is_empty() {
                                    busy_ns += ev.ts_ns.saturating_sub(begin);
                                }
                            }
                        }
                        _ => {}
                    }
                }
                if let Some(begin) = span_starts.first() {
                    busy_ns += trace.stopped_ns.saturating_sub(*begin);
                }
                WorkerSummary {
                    name: w.name.clone(),
                    counts,
                    barrier_wait_ns,
                    chunk_iters,
                    busy_ns,
                    dropped: w.dropped,
                }
            })
            .collect();
        TraceSummary {
            workers,
            duration_ns: trace.duration_ns(),
        }
    }

    /// Total count of one kind across all workers.
    pub fn total(&self, kind: EventKind) -> u64 {
        self.workers.iter().map(|w| w.counts.get(kind)).sum()
    }

    /// Fraction of steal attempts that succeeded, or `None` if no attempts.
    pub fn steal_success_rate(&self) -> Option<f64> {
        let ok = self.total(EventKind::Steal);
        let attempts = ok + self.total(EventKind::FailedSteal);
        (attempts > 0).then(|| ok as f64 / attempts as f64)
    }

    /// Mean iterations per dispatched chunk, or `None` without worksharing.
    pub fn mean_chunk_iters(&self) -> Option<f64> {
        let chunks = self.total(EventKind::ChunkDispatch);
        let iters: u64 = self.workers.iter().map(|w| w.chunk_iters).sum();
        (chunks > 0).then(|| iters as f64 / chunks as f64)
    }

    /// Mean busy nanoseconds per executed task, or `None` without tasks.
    ///
    /// A coarse task-grain estimate: per-worker busy region time divided by
    /// tasks executed there.
    pub fn task_grain_ns(&self) -> Option<f64> {
        let tasks = self.total(EventKind::TaskExec);
        let busy: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
        (tasks > 0 && busy > 0).then(|| busy as f64 / tasks as f64)
    }

    /// Load imbalance as `(max - mean) / mean * 100` over per-worker work
    /// units; zero for a single worker or an empty trace.
    pub fn load_imbalance_pct(&self) -> f64 {
        let units: Vec<u64> = self.workers.iter().map(|w| w.work_units()).collect();
        if units.len() < 2 {
            return 0.0;
        }
        let max = *units.iter().max().unwrap() as f64;
        let mean = units.iter().sum::<u64>() as f64 / units.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            (max - mean) / mean * 100.0
        }
    }

    /// Renders a per-worker metrics table plus trace-wide derived rates.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8}",
            "worker", "events", "chunks", "tasks", "steals", "failed", "barrier", "busy", "dropped"
        );
        for w in &self.workers {
            let _ = writeln!(
                out,
                "{:<22} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8}",
                truncate(&w.name, 22),
                w.counts.total(),
                w.counts.get(EventKind::ChunkDispatch),
                w.counts.get(EventKind::TaskExec),
                w.counts.get(EventKind::Steal),
                w.counts.get(EventKind::FailedSteal),
                fmt_ns(w.barrier_wait_ns),
                fmt_ns(w.busy_ns),
                w.dropped,
            );
        }
        let _ = writeln!(out, "wall time: {}", fmt_ns(self.duration_ns));
        if let Some(rate) = self.steal_success_rate() {
            let _ = writeln!(out, "steal success rate: {:.1}%", rate * 100.0);
        }
        if let Some(iters) = self.mean_chunk_iters() {
            let _ = writeln!(out, "mean chunk size: {iters:.1} iters");
        }
        if let Some(grain) = self.task_grain_ns() {
            let _ = writeln!(out, "task grain: {}", fmt_ns(grain as u64));
        }
        let _ = writeln!(out, "load imbalance: {:.1}%", self.load_imbalance_pct());
        out
    }
}

/// Renders a fixed-width per-worker activity timeline: one row per worker,
/// event density per time bucket shown as ` .:*#`.
pub fn render_timeline(trace: &Trace, width: usize) -> String {
    let width = width.max(10);
    let dur = trace.duration_ns().max(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} |{}| {}",
        "worker",
        "-".repeat(width),
        fmt_ns(trace.duration_ns())
    );
    for w in &trace.workers {
        let mut buckets = vec![0u64; width];
        for ev in &w.events {
            let off = ev.ts_ns.saturating_sub(trace.started_ns).min(dur - 1);
            let idx = (off as u128 * width as u128 / dur as u128) as usize;
            buckets[idx.min(width - 1)] += 1;
        }
        let max = *buckets.iter().max().unwrap_or(&0);
        let row: String = buckets.iter().map(|&n| density_char(n, max)).collect();
        let _ = writeln!(
            out,
            "{:<22} |{}| {} ev",
            truncate(&w.name, 22),
            row,
            w.events.len()
        );
    }
    out
}

fn density_char(n: u64, max: u64) -> char {
    if n == 0 || max == 0 {
        return ' ';
    }
    const RAMP: [char; 4] = ['.', ':', '*', '#'];
    let idx = (n * RAMP.len() as u64).div_ceil(max.max(1)) as usize;
    RAMP[idx.clamp(1, RAMP.len()) - 1]
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max - 1).collect();
        format!("{cut}~")
    }
}

/// Human-scale nanosecond formatting (`ns`, `µs`, `ms`, `s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::session::WorkerTrace;

    fn ev(ts: u64, kind: EventKind, a: u64) -> Event {
        Event {
            ts_ns: ts,
            kind,
            a,
            b: 0,
        }
    }

    fn two_worker_trace() -> Trace {
        Trace {
            workers: vec![
                WorkerTrace {
                    name: "w0".into(),
                    dropped: 0,
                    events: vec![
                        ev(0, EventKind::RegionBegin, 0),
                        ev(10, EventKind::ChunkDispatch, 100),
                        ev(20, EventKind::Steal, 1),
                        ev(30, EventKind::BarrierRelease, 500),
                        ev(1_000, EventKind::RegionEnd, 0),
                    ],
                },
                WorkerTrace {
                    name: "w1".into(),
                    dropped: 2,
                    events: vec![
                        ev(5, EventKind::ChunkDispatch, 300),
                        ev(15, EventKind::FailedSteal, 0),
                        ev(25, EventKind::FailedSteal, 0),
                        ev(35, EventKind::FailedSteal, 0),
                    ],
                },
            ],
            started_ns: 0,
            stopped_ns: 2_000,
        }
    }

    #[test]
    fn rollup_counts_and_payload_sums() {
        let s = TraceSummary::from_trace(&two_worker_trace());
        assert_eq!(s.total(EventKind::ChunkDispatch), 2);
        assert_eq!(s.workers[0].barrier_wait_ns, 500);
        assert_eq!(s.workers[0].busy_ns, 1_000);
        assert_eq!(s.workers[0].chunk_iters, 100);
        assert_eq!(s.workers[1].chunk_iters, 300);
        assert_eq!(s.workers[1].dropped, 2);
    }

    #[test]
    fn derived_rates() {
        let s = TraceSummary::from_trace(&two_worker_trace());
        assert_eq!(s.steal_success_rate(), Some(0.25));
        assert_eq!(s.mean_chunk_iters(), Some(200.0));
        // units: w0=100, w1=300 → mean 200, max 300 → 50%
        assert!((s.load_imbalance_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn unclosed_span_clips_to_window() {
        let mut t = two_worker_trace();
        t.workers[0]
            .events
            .retain(|e| e.kind != EventKind::RegionEnd);
        let s = TraceSummary::from_trace(&t);
        assert_eq!(s.workers[0].busy_ns, 2_000);
    }

    #[test]
    fn render_and_timeline_mention_every_worker() {
        let t = two_worker_trace();
        let s = TraceSummary::from_trace(&t);
        let table = s.render();
        assert!(table.contains("w0") && table.contains("w1"));
        assert!(table.contains("steal success rate: 25.0%"));
        let tl = render_timeline(&t, 40);
        assert!(tl.contains("w0") && tl.contains("w1"));
        assert_eq!(tl.lines().count(), 3);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(42), "42ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
