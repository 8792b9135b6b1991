//! Execution traces: optional per-worker busy/steal interval recording with
//! an ASCII Gantt renderer — the visual form of the paper's scheduling
//! analysis (e.g. *seeing* `cilk_for`'s serialized chunk distribution ramp).

/// What a worker was doing during an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Executing chunk/leaf work.
    Work,
    /// Scheduling overhead (splits, pushes, pops, dispatch).
    Overhead,
    /// Stealing (successful transaction window).
    Steal,
    /// Idle / failed steal attempts.
    Idle,
}

/// Gantt glyph of each [`Activity`], indexed by `activity as usize`.
const GLYPHS: [char; 4] = ['#', '+', 's', '.'];

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Worker index.
    pub worker: usize,
    /// Interval start (virtual ns).
    pub start: f64,
    /// Interval end (virtual ns).
    pub end: f64,
    /// Activity kind.
    pub activity: Activity,
}

/// A recorded execution trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    spans: Vec<Span>,
    workers: usize,
}

impl Trace {
    /// Creates an empty trace for `workers` workers.
    pub fn new(workers: usize) -> Self {
        Self {
            spans: Vec::new(),
            workers,
        }
    }

    /// Records an interval (ignored if empty or inverted).
    pub fn record(&mut self, worker: usize, start: f64, end: f64, activity: Activity) {
        if end > start {
            self.workers = self.workers.max(worker + 1);
            self.spans.push(Span {
                worker,
                start,
                end,
                activity,
            });
        }
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of workers seen.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Latest end time.
    pub fn horizon(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Total time per activity for one worker.
    pub fn worker_total(&self, worker: usize, activity: Activity) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.worker == worker && s.activity == activity)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Renders an ASCII Gantt chart: one row per worker, `width` columns
    /// over `[0, horizon]`. For each cell the dominant activity wins;
    /// untouched cells print as spaces.
    pub fn gantt(&self, width: usize) -> String {
        let width = width.max(1);
        let horizon = self.horizon();
        if horizon <= 0.0 {
            return String::new();
        }
        let cell = horizon / width as f64;
        let mut out = String::new();
        for w in 0..self.workers {
            // Per-cell dominant activity by accumulated time.
            let mut cells = vec![[0.0f64; 4]; width];
            for s in self.spans.iter().filter(|s| s.worker == w) {
                let first = ((s.start / cell) as usize).min(width - 1);
                let last = ((s.end / cell).ceil() as usize).clamp(first + 1, width);
                for (c, cell_acc) in cells.iter_mut().enumerate().take(last).skip(first) {
                    let lo = (c as f64) * cell;
                    let hi = lo + cell;
                    let overlap = (s.end.min(hi) - s.start.max(lo)).max(0.0);
                    cell_acc[s.activity as usize] += overlap;
                }
            }
            out.push_str(&format!("w{w:<3}|"));
            for acc in &cells {
                let total: f64 = acc.iter().sum();
                if total <= 0.0 {
                    out.push(' ');
                    continue;
                }
                let (idx, _) = acc
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .unwrap();
                out.push(GLYPHS[idx]);
            }
            out.push_str("|\n");
        }
        out.push_str("legend: #=work +=overhead s=steal .=idle\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut t = Trace::new(2);
        t.record(0, 0.0, 10.0, Activity::Work);
        t.record(0, 10.0, 12.0, Activity::Steal);
        t.record(1, 0.0, 4.0, Activity::Idle);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.worker_total(0, Activity::Work), 10.0);
        assert_eq!(t.worker_total(0, Activity::Steal), 2.0);
        assert_eq!(t.horizon(), 12.0);
    }

    #[test]
    fn empty_and_inverted_spans_ignored() {
        let mut t = Trace::new(1);
        t.record(0, 5.0, 5.0, Activity::Work);
        t.record(0, 6.0, 2.0, Activity::Work);
        assert!(t.spans().is_empty());
        assert_eq!(t.gantt(10), "");
    }

    #[test]
    fn gantt_shape() {
        let mut t = Trace::new(2);
        t.record(0, 0.0, 50.0, Activity::Work);
        t.record(1, 25.0, 50.0, Activity::Steal);
        let g = t.gantt(20);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3); // 2 workers + legend
        assert!(lines[0].contains('#'));
        assert!(lines[1].contains('s'));
        assert!(lines[2].contains("legend"));
        // Worker 1's first half is blank (no activity recorded).
        let row1 = lines[1].trim_start_matches("w1").trim_start_matches("  |");
        assert!(row1.starts_with(' ') || lines[1].contains("| "));
    }

    #[test]
    fn workers_grow_on_demand() {
        let mut t = Trace::new(0);
        t.record(3, 0.0, 1.0, Activity::Work);
        assert_eq!(t.workers(), 4);
    }
}
