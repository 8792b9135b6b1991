//! The `chaos` subcommand: a deterministic fault-injection matrix over the
//! selected threading models (default: the whole registry).
//!
//! Each round installs one seeded [`FaultPlan`], runs a small kernel set
//! (data-parallel sum and an element-touch loop) under every model through
//! the fallible executor API, and checks the robustness invariants:
//!
//! * **no deadlock** — every run returns (the matrix completing *is* the
//!   check; a wedged barrier or lost latch count would hang the command);
//! * **containment** — injected panics surface as [`ExecError::Panic`] with
//!   the injected marker in the message, never as a process abort;
//! * **correctness** — when no fault fired, results are bitwise-identical
//!   to the expected value;
//! * **recovery** — after a fault round, the same executor runs a clean
//!   workload and produces the exact expected result;
//! * **replay** — running the whole matrix twice under the same plan fires
//!   the identical fault sequence ([`FaultReport::fired_sorted`]).

use tpm_core::{ExecError, Executor, Model};
use tpm_fault::{FaultKind, FaultPlan, FaultSession, FiredFault, Site, SiteRule};

/// Reads and parses a fault plan, prefixing parse errors with
/// `path:line:column` so the failing token is one click away.
pub fn load_plan(path: &std::path::Path) -> Result<FaultPlan, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read fault plan {}: {e}", path.display()))?;
    FaultPlan::parse_json(&text)
        .map_err(|e| format!("{}:{}:{}: {}", path.display(), e.line, e.col, e.message))
}

/// The fixed-seed plans the matrix cycles through when the user didn't
/// supply one: each exercises a different site/kind pair.
fn builtin_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "chunk-panic",
            FaultPlan {
                seed: 7,
                rules: vec![SiteRule {
                    max_fires: 1,
                    ..SiteRule::nth(Site::ChunkClaim, FaultKind::Panic, 3)
                }],
            },
        ),
        (
            "task-panic",
            FaultPlan {
                seed: 11,
                rules: vec![SiteRule {
                    max_fires: 2,
                    ..SiteRule::prob(Site::TaskExec, FaultKind::Panic, 0.5)
                }],
            },
        ),
        (
            "steal-storm",
            FaultPlan {
                seed: 42,
                rules: vec![SiteRule::prob(
                    Site::StealAttempt,
                    FaultKind::StealMiss,
                    0.3,
                )],
            },
        ),
        (
            "slow-chunks",
            FaultPlan {
                seed: 23,
                rules: vec![SiteRule {
                    delay_us: 200,
                    ..SiteRule::prob(Site::ChunkClaim, FaultKind::Delay, 0.2)
                }],
            },
        ),
        (
            "task-drop",
            FaultPlan {
                seed: 5,
                rules: vec![SiteRule {
                    max_fires: 1,
                    ..SiteRule::prob(Site::TaskExec, FaultKind::TaskDrop, 0.5)
                }],
            },
        ),
    ]
}

const SUM_N: usize = 50_000;

fn expected_sum() -> u64 {
    (0..SUM_N as u64).sum()
}

/// One model × kernel cell: returns `Err(reason)` on an invariant violation,
/// `Ok(faulted)` otherwise (`faulted` = an injected fault surfaced).
fn run_cell(exec: &Executor, model: Model) -> Result<bool, String> {
    let mut faulted = false;

    // Data-parallel reduction.
    let token = tpm_sync::CancelToken::new();
    match exec.try_parallel_reduce(
        model,
        0..SUM_N,
        &token,
        || 0u64,
        |a, b| a + b,
        |chunk, acc| {
            for i in chunk {
                *acc += i as u64;
            }
        },
    ) {
        Ok(v) if v == expected_sum() => {}
        Ok(v) => {
            return Err(format!(
                "{model} sum: wrong result {v} with no error surfaced"
            ))
        }
        Err(ExecError::Panic(msg)) if tpm_fault::is_injected_message(&msg) => faulted = true,
        Err(ExecError::Cancelled | ExecError::Deadline) => faulted = true,
        Err(e) => return Err(format!("{model} sum: unexpected error {e}")),
    }

    // Element-touch loop: every index visited exactly once, or a contained
    // injected failure.
    use std::sync::atomic::{AtomicU8, Ordering};
    let touched: Vec<AtomicU8> = (0..4096).map(|_| AtomicU8::new(0)).collect();
    let token = tpm_sync::CancelToken::new();
    match exec.try_parallel_for(
        model,
        0..touched.len(),
        &token,
        &|chunk: std::ops::Range<usize>| {
            for i in chunk {
                touched[i].fetch_add(1, Ordering::Relaxed);
            }
        },
    ) {
        Ok(()) => {
            if let Some(i) = touched.iter().position(|t| t.load(Ordering::Relaxed) != 1) {
                return Err(format!(
                    "{model} touch: index {i} visited {} times",
                    touched[i].load(Ordering::Relaxed)
                ));
            }
        }
        Err(ExecError::Panic(msg)) if tpm_fault::is_injected_message(&msg) => faulted = true,
        Err(ExecError::Cancelled | ExecError::Deadline) => faulted = true,
        Err(e) => return Err(format!("{model} touch: unexpected error {e}")),
    }

    Ok(faulted)
}

/// Runs the matrix once under `plan` and returns the fired-fault sequence,
/// or the first invariant violation.
fn run_matrix(
    plan: &FaultPlan,
    threads: usize,
    models: &[Model],
) -> Result<(Vec<FiredFault>, u64), String> {
    let session = FaultSession::install(plan);
    let exec = Executor::new(threads);
    let mut faults = 0u64;
    for &model in models {
        if run_cell(&exec, model)? {
            faults += 1;
        }
    }
    let report = session.report();

    // Recovery: with the plan uninstalled, the same executor (its teams
    // possibly freshly healed) must produce exact results.
    let clean = exec
        .try_parallel_reduce(
            Model::OmpFor,
            0..SUM_N,
            &tpm_sync::CancelToken::new(),
            || 0u64,
            |a, b| a + b,
            |chunk, acc| {
                for i in chunk {
                    *acc += i as u64;
                }
            },
        )
        .map_err(|e| format!("post-fault recovery run failed: {e}"))?;
    if clean != expected_sum() {
        return Err(format!("post-fault recovery run returned {clean}"));
    }
    Ok((report.fired_sorted(), faults))
}

/// Runs the chaos matrix over `models` (from `--model`, default the whole
/// registry); `user_plan` (from `--fault-plan`) replaces the built-in plan
/// set when given. Returns the process exit code.
pub fn run(user_plan: Option<FaultPlan>, threads: usize, models: &[Model]) -> i32 {
    // Injected panics are the *expected* outcome of half the matrix; keep
    // them off stderr (backtraces and all) while leaving every organic
    // panic's report intact. Installed once, delegating onward, so the
    // previous hook (libtest's, under `cargo test`) keeps working.
    static QUIET_INJECTED: std::sync::Once = std::sync::Once::new();
    QUIET_INJECTED.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str));
            if msg.is_some_and(tpm_fault::is_injected_message) {
                return;
            }
            prev(info);
        }));
    });
    let plans = match user_plan {
        Some(p) => vec![("user-plan", p)],
        None => builtin_plans(),
    };
    let mut failures = 0usize;
    for (name, plan) in &plans {
        let first = match run_matrix(plan, threads, models) {
            Ok(r) => r,
            Err(msg) => {
                println!("[chaos] {name}: FAIL {msg}");
                println!("{}", plan.describe());
                failures += 1;
                continue;
            }
        };
        // Replay: same plan, same decisions. Every decision is a pure
        // function of (seed, site, hit), so two runs must agree on every
        // hit index both reached. Hit *counts* at wait-path sites
        // (steal-attempt) legitimately vary with timing, so the check is
        // per-hit consistency, not equal length.
        let second = match run_matrix(plan, threads, models) {
            Ok(r) => r,
            Err(msg) => {
                println!("[chaos] {name}: FAIL (replay) {msg}");
                println!("{}", plan.describe());
                failures += 1;
                continue;
            }
        };
        let (longer, shorter) = if first.0.len() >= second.0.len() {
            (&first.0, &second.0)
        } else {
            (&second.0, &first.0)
        };
        if let Some(diverged) = shorter.iter().find(|f| !longer.contains(f)) {
            println!("[chaos] {name}: FAIL replay diverged at {diverged:?}");
            println!("{}", plan.describe());
            failures += 1;
            continue;
        }
        println!(
            "[chaos] {name}: ok — {} fired fault(s), {} model run(s) saw an injected failure, \
             replay identical, recovery exact",
            first.0.len(),
            first.1
        );
    }
    if failures == 0 {
        println!("[chaos] all {} plan(s) passed", plans.len());
        0
    } else {
        println!("[chaos] {failures} of {} plan(s) FAILED", plans.len());
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn malformed_plan_reports_file_line_and_column() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tpm-chaos-bad-{}.json", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(
            f,
            "{{\n  \"rules\": [{{\"site\": \"nowhere\", \"kind\": \"panic\"}}]\n}}"
        )
        .unwrap();
        let err = load_plan(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("tpm-chaos-bad"), "{err}");
        assert!(err.contains(":2:"), "{err}");
        assert!(err.contains("nowhere"), "{err}");
    }

    #[test]
    fn missing_plan_file_is_a_readable_error() {
        let err = load_plan(std::path::Path::new("/nonexistent/plan.json")).unwrap_err();
        assert!(err.contains("cannot read fault plan"), "{err}");
    }

    #[test]
    fn valid_plan_loads() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tpm-chaos-ok-{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"{"seed": 9, "rules": [{"site": "chunk-claim", "kind": "panic", "nth": 2}]}"#,
        )
        .unwrap();
        let plan = load_plan(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.rules.len(), 1);
        assert_eq!(plan.rules[0].site, Site::ChunkClaim);
    }
}
