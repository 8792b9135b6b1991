//! Machine-readable benchmark output (`--json-out`).
//!
//! Serializes figure results as JSON — per kernel, per model, per thread
//! count, with the median and stddev over the timed repetitions — so a
//! figure run can be kept and diffed. Hand-rolled (like the
//! Chrome-trace writer in `tpm-trace`): this workspace builds offline with
//! no serde.

use tpm_core::Figure;

use crate::native::NativeConfig;

/// Escapes a string for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as JSON (finite values only; NaN/inf become null).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9}")
    } else {
        "null".to_string()
    }
}

/// Renders a benchmark run — a set of figures measured under one
/// configuration — as a JSON object.
///
/// Schema:
/// ```json
/// {
///   "experiment": "figures", "native": true,
///   "threads": [1, 2], "reps": 3, "scale": 1, "pinned": false,
///   "numa": "auto", "kernel_variant": "reference",
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
    numa: &str,
    cfg: &NativeConfig,
    figures: &[Figure],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"experiment\": \"{}\",\n", esc(experiment)));
    out.push_str(&format!("  \"native\": {native},\n"));
    out.push_str(&format!("  \"pinned\": {pinned},\n"));
    out.push_str(&format!("  \"numa\": \"{}\",\n", esc(numa)));
    out.push_str(&format!(
        "  \"kernel_variant\": \"{}\",\n",
        cfg.variant.name()
    ));
    out.push_str(&format!(
        "  \"threads\": [{}],\n",
        cfg.threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!("  \"reps\": {},\n", cfg.reps));
    out.push_str(&format!("  \"scale\": {},\n", cfg.scale));
    out.push_str("  \"figures\": [\n");
    for (fi, fig) in figures.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"title\": \"{}\",\n", esc(&fig.title)));
        out.push_str("      \"series\": [\n");
        for (si, s) in fig.series.iter().enumerate() {
            out.push_str("        { ");
            out.push_str(&format!("\"model\": \"{}\", \"points\": [", esc(&s.label)));
            let pts: Vec<String> = s
                .points
                .iter()
                .map(|&(t, median)| {
                    let sd = s.stddev_at(t).unwrap_or(0.0);
                    format!(
                        "{{\"threads\": {t}, \"median_s\": {}, \"stddev_s\": {}}}",
                        num(median),
                        num(sd)
                    )
                })
                .collect();
            out.push_str(&pts.join(", "));
            out.push_str("] }");
            out.push_str(if si + 1 < fig.series.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("      ]\n");
        out.push_str(if fi + 1 < figures.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
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
        let j = run_json("figures", true, false, "on", &cfg, &sample());
        assert!(j.contains("\"experiment\": \"figures\""));
        assert!(j.contains("\"numa\": \"on\""));
        assert!(j.contains("\"kernel_variant\": \"optimized\""));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"median_s\": 0.250000000"));
        assert!(j.contains("\"stddev_s\": 0.020000000"));
        assert!(j.contains("\"threads\": [1, 2]"));
        // Balanced braces/brackets (cheap structural sanity check).
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn non_finite_values_become_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }
}
