//! The result file: a JSON array with one flat object per line — a header,
//! then one row per (run, workload, metric). Flat rows keep the file valid
//! JSON for any tool while the `compare` subcommand reads it back line by
//! line with the workspace's own flat-object parser.

use std::path::Path;

use tpm_serve::json::{self, Json};

use crate::run::Outcome;

/// One measured value of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// `true` for a per-layer metric of a traced run.
    pub traced: bool,
    /// Workload seed of the run.
    pub seed: u64,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// Samples behind it.
    pub samples: u64,
}

/// Where and on what the results were measured.
pub fn header_line(seeds: &str, seconds: f64) -> String {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    format!(
        "{{\"kind\":\"header\",\"host\":\"{}\",\"cpu\":\"{}\",\"nproc\":{},\"commit\":\"{}\",\
         \"rustc\":\"{}\",\"seeds\":\"{}\",\"seconds\":{}}}",
        json::escape(read("/proc/sys/kernel/hostname").trim()),
        json::escape(&cpu),
        crate::proc::nproc(),
        json::escape(&run("git", &["rev-parse", "HEAD"])),
        json::escape(&run("rustc", &["--version"])),
        json::escape(seeds),
        json::num(seconds),
    )
}

fn row_line(r: &Row) -> String {
    format!(
        "{{\"kind\":\"value\",\"workload\":\"{}\",\"metric\":\"{}\",\"traced\":{},\"seed\":{},\
         \"value\":{},\"unit\":\"{}\",\"samples\":{}}}",
        json::escape(&r.workload),
        json::escape(&r.metric),
        r.traced,
        r.seed,
        json::num(r.value),
        json::escape(&r.unit),
        r.samples
    )
}

/// Writes `header` and `rows` as the result file.
pub fn write(path: &Path, header: &str, rows: &[Row]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::from("[\n");
    text.push_str(header);
    for r in rows {
        text.push_str(",\n");
        text.push_str(&row_line(r));
    }
    text.push_str("\n]\n");
    std::fs::write(path, text)
}

/// Reads a result file back: the header line and the value rows.
pub fn read(path: &Path) -> Result<(String, Vec<Row>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut header = String::new();
    let mut rows = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "[" || line == "]" {
            continue;
        }
        let obj =
            json::parse_object(line).map_err(|e| format!("{}:{}: {e}", path.display(), no + 1))?;
        let field = |k: &str| {
            obj.get(k)
                .ok_or_else(|| format!("{}:{}: no {k:?}", path.display(), no + 1))
        };
        if field("kind")?.as_str() == Some("header") {
            header = line.to_string();
            continue;
        }
        let text_of = |k: &str| field(k).map(|v| v.as_str().unwrap_or_default().to_string());
        rows.push(Row {
            workload: text_of("workload")?,
            metric: text_of("metric")?,
            traced: field("traced")? == &Json::Bool(true),
            seed: field("seed")?.as_u64().unwrap_or(0),
            value: field("value")?.as_f64().unwrap_or(f64::NAN),
            unit: text_of("unit")?,
            samples: field("samples")?.as_u64().unwrap_or(0),
        });
    }
    Ok((header, rows))
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn driver_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .values
        .iter()
        .map(|v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.name,
                json::num(v.value),
                v.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_file_round_trips() {
        let rows = vec![
            Row {
                workload: "serve_small".into(),
                metric: "ops_per_s".into(),
                traced: false,
                seed: 7,
                value: 61234.5678,
                unit: "1/s".into(),
                samples: 5,
            },
            Row {
                workload: "sim".into(),
                metric: "sim.figure_pass_ms".into(),
                traced: true,
                seed: 8,
                value: 0.000123,
                unit: "ms".into(),
                samples: 1,
            },
        ];
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("results.json");
        write(&path, &header_line("7..8", 2.0), &rows).unwrap();
        let (header, back) = read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(header.contains("\"nproc\""));
        assert_eq!(back, rows);
    }
}
