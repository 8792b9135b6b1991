//! The `tpm-harness` binary driven as a user runs it: `--json-out` either
//! writes its file or is refused, never silently ignored, a removed flag is
//! a usage error, and the `chaos` matrix passes.
//!
//! `chaos` installs process-global fault plans, so it runs here, in a
//! process of its own, and no other test's runtime can take its faults.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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
