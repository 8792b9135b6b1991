//! `tpm-benchmark` — the repository's benchmark. See `README.md` beside the
//! manifest for the workloads, the metrics and how to read them.
//!
//! ```text
//! tpm-benchmark --workload W --seed N --seconds S --trace 0|1   one run
//! tpm-benchmark all [--seed N] [--runs R] [--seconds S] [--out FILE]
//! tpm-benchmark compare BASE.json OTHER.json [...]
//! tpm-benchmark manifest                                        BENCHMARK.json
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod client;
mod compare;
mod gen;
mod layers;
mod native;
mod proc;
mod report;
mod run;
mod serve;
mod sim;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::Row;

const USAGE: &str = "usage:
  tpm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  tpm-benchmark all [--seed <n>] [--runs <r>] [--seconds <s>] [--out <file>]
  tpm-benchmark compare <base.json> <other.json> [...]
  tpm-benchmark manifest";

/// Where result files and span logs go: `out/` beside the manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: not a number: {v:?}")),
        }
    }
}

/// One run of one workload, as the driver invokes it. Prints one `value`
/// line per metric and the driver's JSON object last.
fn one_run(flags: &Flags) -> Result<bool, String> {
    let workload = flags.get("workload").ok_or("--workload is required")?;
    let seed: u64 = flags.num("seed", 1)?;
    let seconds: f64 = flags.num("seconds", spec::RUN_SECONDS as f64)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let outcome = match flags.get("trace").unwrap_or("0") {
        "0" => run::untraced(workload, seed, seconds)?,
        "1" => run::traced(workload, seed, seconds, &out_dir())?,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    for v in &outcome.values {
        println!(
            "value {workload} {} {} {} {}",
            v.name, v.value, v.unit, v.samples
        );
    }
    for note in &outcome.notes {
        eprintln!("{workload}: {note}");
    }
    println!("{}", report::driver_line(&outcome));
    Ok(outcome.failed == 0)
}

/// Runs this binary again for one workload (its own process, so peak memory
/// is the workload's own) and collects its `value` lines.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Vec<Row>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut rows = Vec::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let ["value", w, metric, value, unit, samples] = f[..] {
            println!("{w} {metric} {value} {unit} n={samples}");
            rows.push(Row {
                workload: w.to_string(),
                metric: metric.to_string(),
                traced,
                seed,
                value: value
                    .parse()
                    .map_err(|_| format!("bad value in {line:?}"))?,
                unit: unit.to_string(),
                samples: samples.parse().unwrap_or(0),
            });
        } else if line.starts_with("span ") {
            println!("{line}");
        }
    }
    if rows.is_empty() {
        return Err(format!(
            "{workload} printed no result (exit {})",
            output.status
        ));
    }
    Ok((rows, output.status.success()))
}

/// Every workload untraced (`--runs` times, consecutive seeds), then every
/// workload traced once; writes the result file.
fn all(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.num("seed", 1)?;
    let runs: u64 = flags.num("runs", 1)?;
    let seconds: f64 = flags.num("seconds", spec::RUN_SECONDS as f64)?;
    let out = flags
        .get("out")
        .map_or_else(|| out_dir().join("results.json"), PathBuf::from);
    run::check_host()?;
    let mut rows = Vec::new();
    let mut ok = true;
    for traced in [false, true] {
        for run in 0..if traced { 1 } else { runs } {
            for (workload, _) in spec::WORKLOADS {
                let (r, good) = child_run(workload, seed + run, seconds, traced)?;
                rows.extend(r);
                if !good {
                    eprintln!(
                        "{workload} (seed {}): FAILED its correctness gate",
                        seed + run
                    );
                    ok = false;
                }
            }
        }
    }
    let header = report::header_line(&format!("{seed}..{}", seed + runs - 1), seconds);
    report::write(&out, &header, &rows).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(ok)
}

fn compare(files: &[String]) -> Result<bool, String> {
    if files.len() < 2 {
        return Err("compare needs a base and at least one other result file".to_string());
    }
    let mut sets = Vec::new();
    for f in files {
        let (header, rows) = report::read(Path::new(f))?;
        println!("{f}: {header}");
        sets.push((f.clone(), rows));
    }
    let (text, regressed) = compare::render(&sets);
    print!("{text}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => Flags::parse(&args[1..]).and_then(|f| all(&f)),
        Some("compare") => compare(&args[1..]),
        Some("manifest") => {
            print!("{}", spec::manifest_json());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => Flags::parse(&args).and_then(|f| one_run(&f)),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
