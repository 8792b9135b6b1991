//! `compare`: two or more result sets of the same benchmark, one verdict per
//! (end-to-end metric, workload).
//!
//! The first set is the base. A later set *regressed* on a metric when its
//! median is worse than the base's by more than the metric's bound, and
//! *improved* when it is better by more than the bound; otherwise it is
//! *unchanged*. When the run-to-run spread of either side is wider than the
//! bound and the two sides' runs overlap, the runs cannot tell — the verdict
//! is *unresolved*, not unchanged.

use std::collections::BTreeMap;

use crate::report::Row;
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{quartiles, spread};

/// What the runs say about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the base by more than the bound.
    Regressed,
    /// Better than the base by more than the bound.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Spread wider than the bound and the runs overlap.
    Unresolved,
}

impl Verdict {
    /// Lower-case name, as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of a set's runs (all three equal the value for a
/// single run).
fn summary(values: &[f64]) -> [f64; 3] {
    quartiles(values).unwrap_or([values[0]; 3])
}

/// The verdict for `other` against `base` on `metric`, and by what share of
/// the base's median `other`'s median is worse (negative: better).
pub fn verdict(metric: &EndToEnd, base: &[f64], other: &[f64]) -> (Verdict, f64) {
    let (b, o) = (summary(base)[1], summary(other)[1]);
    let worse_by = match metric.better {
        Better::Lower => (o - b) / b.abs(),
        Better::Higher => (b - o) / b.abs(),
    };
    let wide = [base, other]
        .iter()
        .any(|v| spread(v).is_some_and(|s| s > metric.bound));
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let overlap = min(base) <= max(other) && min(other) <= max(base);
    let v = if wide && overlap {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regressed
    } else if worse_by < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (v, worse_by)
}

/// Untraced values per (workload, metric), in run order.
fn index(rows: &[Row]) -> BTreeMap<(&str, &str), Vec<f64>> {
    let mut map: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for r in rows.iter().filter(|r| !r.traced) {
        map.entry((&r.workload, &r.metric))
            .or_default()
            .push(r.value);
    }
    map
}

/// Renders the comparison of `sets` (name, rows); the first is the base.
/// Returns the text and whether any pair regressed.
pub fn render(sets: &[(String, Vec<Row>)]) -> (String, bool) {
    use std::fmt::Write as _;
    let indexed: Vec<_> = sets.iter().map(|(_, rows)| index(rows)).collect();
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "base: {} — each change is a share of the base's median; quartiles are of the runs in a set",
        sets[0].0
    );
    let _ = writeln!(
        out,
        "{:<14} {:<15} {:>5} {:>3} {:>12} {:>12} {:>12} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "set", "n", "q1", "median", "q3", "spread", "change", "bound"
    );
    for (workload, _) in WORKLOADS {
        for metric in &END_TO_END {
            let Some(base) = indexed[0].get(&(workload, metric.name)) else {
                continue;
            };
            let line = |out: &mut String, set: usize, v: &[f64], tail: String| {
                let [q1, q2, q3] = summary(v);
                let _ = writeln!(
                    out,
                    "{:<14} {:<15} {:>5} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>7.1}% {tail}",
                    workload,
                    metric.name,
                    set,
                    v.len(),
                    q1,
                    q2,
                    q3,
                    spread(v).unwrap_or(0.0) * 100.0,
                );
            };
            line(&mut out, 0, base, String::new());
            for (i, other) in indexed.iter().enumerate().skip(1) {
                let Some(other) = other.get(&(workload, metric.name)) else {
                    continue;
                };
                let (v, worse_by) = verdict(metric, base, other);
                regressed |= v == Verdict::Regressed;
                let signed = match metric.better {
                    Better::Lower => worse_by,
                    Better::Higher => -worse_by,
                };
                line(
                    &mut out,
                    i,
                    other,
                    format!(
                        "{:>+8.1}% {:>5.0}%  {} ({} is better; base median {:.4} {})",
                        signed * 100.0,
                        metric.bound * 100.0,
                        v.name(),
                        metric.better.name(),
                        summary(base)[1],
                        metric.unit
                    ),
                );
            }
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    fn around(center: f64, half_width: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + half_width * (f64::from(i) / 4.5 - 1.0))
            .collect()
    }

    #[test]
    fn tight_runs_within_the_bound_are_unchanged() {
        let (v, by) = verdict(&LOWER, &around(100.0, 1.0), &around(103.0, 1.0));
        assert_eq!(v, Verdict::Unchanged);
        assert!((by - 0.03).abs() < 1e-9);
    }

    #[test]
    fn a_worse_median_beyond_the_bound_regresses_in_the_metrics_direction() {
        assert_eq!(
            verdict(&LOWER, &around(100.0, 1.0), &around(115.0, 1.0)).0,
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&LOWER, &around(100.0, 1.0), &around(85.0, 1.0)).0,
            Verdict::Improved
        );
        // For a rate, lower is the regression.
        assert_eq!(
            verdict(&HIGHER, &around(100.0, 1.0), &around(85.0, 1.0)).0,
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&HIGHER, &around(100.0, 1.0), &around(115.0, 1.0)).0,
            Verdict::Improved
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        // Spread ~36% of the median, bound 10%: a 3% shift cannot be read.
        assert_eq!(
            verdict(&LOWER, &around(100.0, 30.0), &around(103.0, 30.0)).0,
            Verdict::Unresolved
        );
        // Also when the medians differ by more than the bound but runs overlap.
        assert_eq!(
            verdict(&LOWER, &around(100.0, 30.0), &around(120.0, 30.0)).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn wide_but_separated_runs_still_get_a_verdict() {
        // Every run of the other side is worse than every run of the base.
        assert_eq!(
            verdict(&LOWER, &around(100.0, 12.0), &around(200.0, 12.0)).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn single_runs_compare_by_their_values() {
        assert_eq!(verdict(&LOWER, &[100.0], &[150.0]).0, Verdict::Regressed);
        assert_eq!(verdict(&LOWER, &[100.0], &[101.0]).0, Verdict::Unchanged);
    }
}
