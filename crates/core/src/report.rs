//! Figure/series reporting: the harness prints the same rows the paper's
//! figures plot (execution time vs. thread count per variant).

use tpm_sync::StatsSnapshot;

/// One curve of a figure: `(threads, seconds)` points for one variant.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label (usually a `Model` name).
    pub label: String,
    /// `(thread count, execution time in seconds)` samples (the median when
    /// the point was measured with repetitions).
    pub points: Vec<(usize, f64)>,
    /// `(thread count, stddev in seconds)` spread of the repetitions behind
    /// each point. Empty when only medians were recorded.
    pub stddevs: Vec<(usize, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
            stddevs: Vec::new(),
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, threads: usize, seconds: f64) {
        self.points.push((threads, seconds));
    }

    /// Appends a sample with its repetition spread.
    pub fn push_with_stddev(&mut self, threads: usize, median_s: f64, stddev_s: f64) {
        self.points.push((threads, median_s));
        self.stddevs.push((threads, stddev_s));
    }

    /// Stddev at a specific thread count, if recorded.
    pub fn stddev_at(&self, threads: usize) -> Option<f64> {
        self.stddevs
            .iter()
            .find(|(t, _)| *t == threads)
            .map(|&(_, s)| s)
    }

    /// Time at a specific thread count, if sampled.
    pub fn at(&self, threads: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|(t, _)| *t == threads)
            .map(|&(_, s)| s)
    }

    /// Speedup curve relative to this series' own 1-thread point.
    pub fn speedup(&self) -> Vec<(usize, f64)> {
        let base = self
            .at(1)
            .unwrap_or_else(|| self.points.first().map(|&(_, s)| s).unwrap_or(f64::NAN));
        self.points.iter().map(|&(t, s)| (t, base / s)).collect()
    }
}

/// A figure: a titled bundle of per-variant series over a common thread axis.
#[derive(Debug, Clone, Default)]
pub struct Figure {
    /// Figure title, e.g. `"Fig.1 Axpy (N=100M)"`.
    pub title: String,
    /// One series per variant.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            series: Vec::new(),
        }
    }

    /// The sorted union of thread counts across series.
    pub fn thread_axis(&self) -> Vec<usize> {
        let mut t: Vec<usize> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(t, _)| t))
            .collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// The label of the fastest variant at `threads`.
    pub fn winner_at(&self, threads: usize) -> Option<&str> {
        self.series
            .iter()
            .filter_map(|s| s.at(threads).map(|v| (s.label.as_str(), v)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(l, _)| l)
    }

    /// The label of the slowest variant at `threads`.
    pub fn loser_at(&self, threads: usize) -> Option<&str> {
        self.series
            .iter()
            .filter_map(|s| s.at(threads).map(|v| (s.label.as_str(), v)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(l, _)| l)
    }

    /// Renders the figure as an aligned text table (threads down, variants
    /// across), in seconds.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = write!(out, "{:>8}", "threads");
        for s in &self.series {
            let _ = write!(out, "{:>14}", s.label);
        }
        let _ = writeln!(out);
        for t in self.thread_axis() {
            let _ = write!(out, "{t:>8}");
            for s in &self.series {
                match s.at(t) {
                    Some(v) => {
                        let _ = write!(out, "{v:>14.6}");
                    }
                    None => {
                        let _ = write!(out, "{:>14}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// One model's row in a [`ProfileTable`]: wall time plus the scheduler-event
/// counts observed while it ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileRow {
    /// Variant label (a `Model` name).
    pub model: String,
    /// Wall time of the profiled run, in seconds.
    pub seconds: f64,
    /// Scheduler-event counts over the run, across every runtime.
    pub stats: StatsSnapshot,
    /// Trace events captured (0 when tracing was off).
    pub trace_events: u64,
    /// Distinct workers that recorded trace events.
    pub trace_workers: usize,
}

/// A side-by-side scheduler-behavior comparison across models for one kernel
/// (the `profile` experiment's output).
#[derive(Debug, Clone, Default)]
pub struct ProfileTable {
    /// Table title, e.g. `"profile: sum (4 threads)"`.
    pub title: String,
    /// One row per profiled model.
    pub rows: Vec<ProfileRow>,
}

impl ProfileTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: ProfileRow) {
        self.rows.push(row);
    }

    /// Renders the table as aligned text (models down, metrics across).
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(
            out,
            "{:>12} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>9} {:>11} {:>8} {:>7}",
            "model",
            "seconds",
            "spawned",
            "executed",
            "steals",
            "failed",
            "chunks",
            "claims",
            "barriers",
            "barrier_ms",
            "events",
            "workers"
        );
        for r in &self.rows {
            let s = &r.stats;
            let _ = writeln!(
                out,
                "{:>12} {:>10.6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>9} {:>11.3} {:>8} {:>7}",
                r.model,
                r.seconds,
                s.spawned,
                s.executed,
                s.steals,
                s.failed_steals,
                s.chunks,
                s.loop_claims,
                s.barrier_waits,
                s.barrier_wait_ns as f64 / 1e6,
                r.trace_events,
                r.trace_workers,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_figure() -> Figure {
        let mut f = Figure::new("test");
        let mut a = Series::new("a");
        a.push(1, 4.0);
        a.push(2, 2.0);
        let mut b = Series::new("b");
        b.push(1, 8.0);
        b.push(2, 1.0);
        f.series = vec![a, b];
        f
    }

    #[test]
    fn speedup_is_relative_to_one_thread() {
        let f = sample_figure();
        assert_eq!(f.series[0].speedup(), vec![(1, 1.0), (2, 2.0)]);
        assert_eq!(f.series[1].speedup(), vec![(1, 1.0), (2, 8.0)]);
    }

    #[test]
    fn winners_and_losers() {
        let f = sample_figure();
        assert_eq!(f.winner_at(1), Some("a"));
        assert_eq!(f.loser_at(1), Some("b"));
        assert_eq!(f.winner_at(2), Some("b"));
        assert_eq!(f.loser_at(2), Some("a"));
    }

    #[test]
    fn table_contains_all_labels_and_counts() {
        let f = sample_figure();
        let t = f.to_table();
        assert!(t.contains("test"));
        assert!(t.contains('a') && t.contains('b'));
        assert_eq!(f.thread_axis(), vec![1, 2]);
    }

    #[test]
    fn profile_table_renders_rows() {
        let mut t = ProfileTable::new("profile: sum");
        t.push(ProfileRow {
            model: "omp_for".into(),
            seconds: 0.001,
            stats: StatsSnapshot {
                chunks: 12,
                barrier_waits: 4,
                barrier_wait_ns: 2_000_000,
                ..Default::default()
            },
            trace_events: 40,
            trace_workers: 4,
        });
        let s = t.to_table();
        assert!(s.contains("profile: sum"));
        assert!(s.contains("omp_for"));
        assert!(s.contains("barrier_ms"));
        assert!(s.contains("2.000"));
    }

    #[test]
    fn missing_points_render_as_dash() {
        let mut f = Figure::new("gap");
        let mut a = Series::new("a");
        a.push(1, 1.0);
        let mut b = Series::new("b");
        b.push(2, 1.0);
        f.series = vec![a, b];
        assert!(f.to_table().contains('-'));
    }
}
