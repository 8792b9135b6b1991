//! The `tpm-harness` binary driven as a user runs it: `--json-out` either
//! writes its file or is refused, never silently ignored, a removed flag is
//! a usage error, the `chaos` matrix passes, `profile` shows the loop
//! schedulers' event mix, and the native figure sweeps write every figure
//! with its `kernel_variant`.
//!
//! `chaos` installs process-global fault plans, so it runs here, in a
//! process of its own, and no other test's runtime can take its faults.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use tpm_sync::json::Reader;

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tpm-harness"))
        .args(args)
        .output()
        .expect("tpm-harness starts")
}

/// Like [`harness`], but kills the run and fails if it outlives `limit`:
/// a deadlocked region must fail the test, not hang the suite. For
/// commands whose output fits in a pipe buffer.
fn harness_within(args: &[&str], limit: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tpm-harness"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tpm-harness starts");
    let deadline = Instant::now() + limit;
    while child
        .try_wait()
        .expect("tpm-harness can be polled")
        .is_none()
    {
        if Instant::now() >= deadline {
            let _ = child.kill();
            let out = child
                .wait_with_output()
                .expect("killed tpm-harness is reaped");
            panic!(
                "tpm-harness {args:?} still running after {limit:?}\n{}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("tpm-harness output")
}

const CHAOS_LIMIT: Duration = Duration::from_secs(120);

/// Bound on one native figure or profile run (each takes under ten seconds
/// on a 2-vCPU host, even from the unoptimized test build).
const SMOKE_LIMIT: Duration = Duration::from_secs(120);

/// A per-process path under the temp dir, absent on return.
fn out_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tpm-harness-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn ht_json_out_writes_the_figure() {
    let path = out_path("ht.json");
    let out = harness(&["ht", "--json-out", path.to_str().unwrap()]);
    assert!(out.status.success(), "ht exited {:?}", out.status);
    let body = std::fs::read_to_string(&path).expect("ht --json-out wrote its file");
    let _ = std::fs::remove_file(&path);
    let mut doc = tpm_sync::json::Reader::new(&body);
    doc.skip_value()
        .and_then(|()| doc.end())
        .expect("one well-formed JSON document");
    assert!(body.contains("\"experiment\": \"ht\""), "{body}");
    assert!(
        body.contains("\"native\": false"),
        "ht is simulated: {body}"
    );
    assert!(body.contains("Extension: hyperthread sweep"), "{body}");
    for series in ["matmul_2k", "axpy_100m"] {
        assert!(body.contains(&format!("\"model\": \"{series}\"")), "{body}");
    }
}

#[test]
fn check_json_out_is_a_usage_error() {
    let path = out_path("check.json");
    let out = harness(&["check", "--json-out", path.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "check --json-out must be refused"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: "), "{err}");
    assert!(err.contains("usage:"), "{err}");
    assert!(!path.exists(), "a refused run writes nothing");
}

#[test]
fn numa_flag_is_a_usage_error() {
    // The runtimes have one victim order; NUMA placement is simulated
    // (`numasim`), so `--numa` is an unknown flag.
    let out = harness(&["table1", "--numa", "on"]);
    assert_eq!(out.status.code(), Some(2), "--numa must be refused");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: unknown flag"), "{err}");
    assert!(err.contains("--numa") && err.contains("usage:"), "{err}");
}

#[test]
fn chaos_passes_every_builtin_plan_with_identical_replay() {
    let out = harness_within(&["chaos"], CHAOS_LIMIT);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "chaos exited {:?}\n{stdout}",
        out.status
    );
    for plan in [
        "chunk-panic",
        "task-panic",
        "steal-storm",
        "slow-chunks",
        "task-drop",
    ] {
        assert!(
            stdout
                .lines()
                .any(|line| line.starts_with(&format!("[chaos] {plan}: ok"))
                    && line.ends_with("replay identical, recovery exact")),
            "{plan}\n{stdout}"
        );
    }
    assert!(stdout.contains("[chaos] all 5 plan(s) passed"), "{stdout}");
}

#[test]
fn chaos_runs_a_user_plan() {
    let path = out_path("plan.json");
    std::fs::write(
        &path,
        r#"{"seed": 7, "rules": [{"site": "chunk-claim", "kind": "panic", "nth": 3, "max_fires": 1}]}"#,
    )
    .unwrap();
    let out = harness_within(
        &["chaos", "--fault-plan", path.to_str().unwrap()],
        CHAOS_LIMIT,
    );
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "chaos exited {:?}\n{stdout}",
        out.status
    );
    assert!(stdout.contains("[chaos] user-plan: ok"), "{stdout}");
}

#[test]
fn malformed_fault_plan_is_a_usage_error_naming_its_line() {
    let path = out_path("bad.json");
    std::fs::write(&path, "{\"rules\": [}").unwrap();
    let path = path.to_str().unwrap();
    let out = harness(&["chaos", "--fault-plan", path]);
    let _ = std::fs::remove_file(path);
    assert_eq!(out.status.code(), Some(2), "a malformed plan must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(&format!("{path}:1:")), "{err}");
}

/// Runs `tpm-harness <command> --json-out <file>` within [`SMOKE_LIMIT`],
/// requires success and returns the document it wrote.
fn figures_json(name: &str, command: &str) -> FigureDoc {
    let path = out_path(name);
    let mut args: Vec<&str> = command.split_whitespace().collect();
    args.extend(["--json-out", path.to_str().unwrap()]);
    let out = harness_within(&args, SMOKE_LIMIT);
    assert!(
        out.status.success(),
        "{args:?} exited {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = FigureDoc::read(&path);
    let _ = std::fs::remove_file(&path);
    doc
}

/// What the smoke tests read of a native figure run's `--json-out`
/// document.
#[derive(Default)]
struct FigureDoc {
    kernel_variant: String,
    /// Per figure: how many points its series carry between them.
    points: Vec<usize>,
}

impl FigureDoc {
    fn read(path: &Path) -> FigureDoc {
        let body = std::fs::read_to_string(path).expect("--json-out wrote its file");
        let mut doc = FigureDoc::default();
        let mut r = Reader::new(&body);
        r.object(|r, key| match key.as_str() {
            "kernel_variant" => {
                doc.kernel_variant = r.string()?;
                Ok(())
            }
            "figures" => r.array(|r| {
                let mut points = 0;
                r.object(|r, key| match key.as_str() {
                    "series" => r.array(|r| {
                        r.object(|r, key| match key.as_str() {
                            "points" => r.array(|r| {
                                points += 1;
                                r.skip_value()
                            }),
                            _ => r.skip_value(),
                        })
                    }),
                    _ => r.skip_value(),
                })?;
                doc.points.push(points);
                Ok(())
            }),
            _ => r.skip_value(),
        })
        .and_then(|()| r.end())
        .unwrap_or_else(|e| panic!("{}: not a figures document: {e}\n{body}", path.display()));
        doc
    }
}

/// The optimized loop schedulers' event mix: batched dynamic claims well
/// below one CAS per chunk, and adaptive grain well below one spawn per
/// fixed-size chunk.
#[test]
fn profile_shows_batched_claims_and_adaptive_grain() {
    let out = harness_within(&["profile", "sum", "--threads", "2"], SMOKE_LIMIT);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "profile exited {:?}\n{stdout}",
        out.status
    );
    // Columns: model seconds spawned executed steals failed chunks claims ...
    let column = |model: &str, col: usize| -> u64 {
        let line = stdout
            .lines()
            .find(|line| line.split_whitespace().next() == Some(model))
            .unwrap_or_else(|| panic!("no {model} row\n{stdout}"));
        let cell = line.split_whitespace().nth(col);
        cell.and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{model} column {col}: {cell:?}\n{stdout}"))
    };
    let (chunks, claims) = (column("omp_dyn", 6), column("omp_dyn", 7));
    assert!(
        claims < chunks / 2,
        "dynamic batching regressed: {claims} claims for {chunks} chunks\n{stdout}"
    );
    let spawned = column("cilk_for", 2);
    assert!(
        spawned < 64,
        "adaptive grain regressed: {spawned} spawns\n{stdout}"
    );
}

#[test]
fn native_figures_json_has_data_points() {
    let doc = figures_json(
        "figures.json",
        "figures --native --threads 2 --reps 1 --scale 2",
    );
    assert!(!doc.points.is_empty(), "no figures in JSON");
    assert!(doc.points.iter().sum::<usize>() > 0, "no data points");
}

/// The JSON names the data path it ran, and the optimized sweep produces
/// all ten figures.
#[test]
fn kernel_variant_runs_carry_their_variant() {
    let all = figures_json(
        "figs_opt.json",
        "figures --native --threads 2 --reps 1 --scale 1 --kernel-variant optimized",
    );
    assert_eq!(all.kernel_variant, "optimized");
    assert_eq!(
        all.points.len(),
        10,
        "optimized sweep must produce all figures"
    );
    for variant in ["reference", "optimized"] {
        let fig4 = figures_json(
            &format!("mm_{variant}.json"),
            &format!("fig4 --native --threads 2 --reps 3 --scale 2 --kernel-variant {variant}"),
        );
        assert_eq!(fig4.kernel_variant, variant);
    }
}
