//! The `tpm-harness` binary driven as a user runs it: `--json-out` either
//! writes its file or is refused, never silently ignored.

use std::path::PathBuf;
use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tpm-harness"))
        .args(args)
        .output()
        .expect("tpm-harness starts")
}

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
