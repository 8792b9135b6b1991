//! Machine-readable benchmark output (`--json-out`).
//!
//! Serializes figure results as JSON — per kernel, per model, per thread
//! count, with the median and stddev over the timed repetitions — so a
//! figure run can be kept and diffed. Strings and numbers are written by
//! the workspace's one JSON codec, [`tpm_sync::json`]; seconds carry nine
//! decimals.

use tpm_core::Figure;
use tpm_sync::json;

use crate::native::NativeConfig;

/// Renders a benchmark run — a set of figures measured under one
/// configuration — as a JSON object. `numa` is always `"off"`: the native
/// runtimes have one victim order (NUMA placement is `numasim`'s), and the
/// key stays so the schema does not change.
///
/// Schema:
/// ```json
/// {
///   "experiment": "figures", "native": true,
///   "threads": [1, 2], "reps": 3, "scale": 1, "pinned": false,
///   "numa": "off", "kernel_variant": "reference",
///   "figures": [
///     { "title": "Fig.1 Axpy (native)",
///       "series": [
///         { "model": "omp_for",
///           "points": [ {"threads": 1, "median_s": ..., "stddev_s": ...} ] }
///       ] }
///   ]
/// }
/// ```
pub fn run_json(
    experiment: &str,
    native: bool,
    pinned: bool,
    cfg: &NativeConfig,
    figures: &[Figure],
) -> String {
    let threads: Vec<String> = cfg.threads.iter().map(usize::to_string).collect();
    let mut out = format!(
        "{{\n  \"experiment\": \"{}\",\n  \"native\": {native},\n  \"pinned\": {pinned},\n  \
         \"numa\": \"off\",\n  \"kernel_variant\": \"{}\",\n  \"threads\": [{}],\n  \
         \"reps\": {},\n  \"scale\": {},\n  \"figures\": [\n",
        json::escape(experiment),
        cfg.variant.name(),
        threads.join(", "),
        cfg.reps,
        cfg.scale
    );
    for (fi, fig) in figures.iter().enumerate() {
        let title = json::escape(&fig.title);
        out.push_str(&format!(
            "    {{\n      \"title\": \"{title}\",\n      \"series\": [\n"
        ));
        for (si, s) in fig.series.iter().enumerate() {
            let points: Vec<String> = s
                .points
                .iter()
                .map(|&(t, median)| {
                    format!(
                        "{{\"threads\": {t}, \"median_s\": {}, \"stddev_s\": {}}}",
                        json::fixed(median, 9),
                        json::fixed(s.stddev_at(t).unwrap_or(0.0), 9)
                    )
                })
                .collect();
            out.push_str(&format!(
                "        {{ \"model\": \"{}\", \"points\": [{}] }}{}\n",
                json::escape(&s.label),
                points.join(", "),
                if si + 1 < fig.series.len() { "," } else { "" }
            ));
        }
        let sep = if fi + 1 < figures.len() { "," } else { "" };
        out.push_str(&format!("      ]\n    }}{sep}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpm_core::Series;

    fn sample() -> Vec<Figure> {
        let mut f = Figure::new("Fig.X \"quoted\"");
        let mut s = Series::new("omp_for");
        s.push_with_stddev(1, 0.5, 0.01);
        s.push_with_stddev(2, 0.25, 0.02);
        f.series.push(s);
        vec![f]
    }

    #[test]
    fn renders_valid_shape_with_escapes_and_stats() {
        let cfg = NativeConfig {
            threads: vec![1, 2],
            scale: 1,
            reps: 3,
            variant: tpm_core::KernelVariant::Optimized,
            models: tpm_core::Model::ALL.to_vec(),
        };
        let j = run_json("figures", true, false, &cfg, &sample());
        assert!(j.contains("\"experiment\": \"figures\""));
        assert!(j.contains("\"numa\": \"off\""));
        assert!(j.contains("\"kernel_variant\": \"optimized\""));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"median_s\": 0.250000000"));
        assert!(j.contains("\"stddev_s\": 0.020000000"));
        assert!(j.contains("\"threads\": [1, 2]"));
        let mut r = json::Reader::new(&j);
        r.skip_value().and_then(|()| r.end()).expect("valid JSON");
    }

    #[test]
    fn non_finite_values_become_null() {
        let mut f = Figure::new("nan");
        let mut s = Series::new("omp_for");
        s.push_with_stddev(1, f64::NAN, f64::INFINITY);
        f.series.push(s);
        let cfg = NativeConfig {
            threads: vec![1],
            scale: 1,
            reps: 1,
            variant: tpm_core::KernelVariant::Reference,
            models: tpm_core::Model::ALL.to_vec(),
        };
        let j = run_json("figures", true, false, &cfg, &[f]);
        assert!(j.contains("\"median_s\": null, \"stddev_s\": null"), "{j}");
    }
}
