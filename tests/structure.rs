//! Structural guards: each one greps the source tree for a shape of code the
//! workspace deleted on purpose and fails if it comes back. They run `grep`
//! from the workspace root, so they cover every crate whatever `cargo test`
//! selects; this file's own lines (the patterns themselves) never count.

use std::path::Path;
use std::process::Command;

use threadcmp::sync::json;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// `crates/*/src src tests examples`: every crate's library code plus the
/// root package's code, tests and examples.
fn code_dirs() -> Vec<String> {
    let mut dirs = member_dirs("crates", "src");
    dirs.extend(["src", "tests", "examples"].map(String::from));
    dirs
}

/// `<parent>/*/<sub>` under the workspace root, sorted.
fn member_dirs(parent: &str, sub: &str) -> Vec<String> {
    let mut dirs: Vec<String> = std::fs::read_dir(Path::new(ROOT).join(parent))
        .expect("workspace directory exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .map(|name| format!("{parent}/{name}/{sub}"))
        .filter(|dir| Path::new(ROOT).join(dir).is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// The lines `grep -rnE <opts> <pattern> <paths>` prints from the
/// workspace root, without this file's own.
fn grep(pattern: &str, opts: &[&str], paths: &[String]) -> Vec<String> {
    let out = Command::new("grep")
        .current_dir(ROOT)
        .arg("-rnE")
        .args(opts)
        .arg("-e")
        .arg(pattern)
        .arg("--")
        .args(paths)
        .output()
        .expect("grep runs");
    // grep exits 0 on a match, 1 on none, and 2 on an error.
    assert!(
        out.status.code().is_some_and(|c| c < 2),
        "grep {pattern:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("UTF-8 source")
        .lines()
        .filter(|line| !line.starts_with("tests/structure.rs:"))
        .map(String::from)
        .collect()
}

fn paths(dirs: &[&str]) -> Vec<String> {
    dirs.iter().map(|d| d.to_string()).collect()
}

/// Fails with every hit of `pattern` (after dropping lines that start with
/// `allowed`, if given).
fn forbid(what: &str, pattern: &str, opts: &[&str], dirs: &[String], allowed: Option<&str>) {
    let hits: Vec<String> = grep(pattern, opts, dirs)
        .into_iter()
        .filter(|line| !allowed.is_some_and(|prefix| line.starts_with(prefix)))
        .collect();
    assert!(
        hits.is_empty(),
        "{what}: {} hit(s)\n{}",
        hits.len(),
        hits.join("\n")
    );
}

/// No data-path or arena switch may come back.
#[test]
fn one_data_path() {
    forbid(
        "data-path switch",
        r"DataPath|unpooled\(\)",
        &[],
        &paths(&["crates/serve", "crates/harness"]),
        None,
    );
}

/// tpm-sim has one work-stealing loop: victim draws and per-worker deque
/// arrays live in steal.rs and nowhere else.
#[test]
fn one_simulated_stealing_loop() {
    forbid(
        "second simulated stealing loop",
        r"next_bounded|Vec<VecDeque",
        &["--exclude=steal.rs"],
        &paths(&["crates/sim/src"]),
        None,
    );
}

/// One native work-stealing pool: tpm-worksteal and tpm-actors both run on
/// crates/worksteal/src/pool.rs; no second worker entry or victim plan may
/// appear anywhere else under crates/.
#[test]
fn one_native_pool() {
    forbid(
        "second stealing pool",
        r"fn worker_entry|struct VictimPlan|fn build_victim_plans",
        &["--include=*.rs"],
        &paths(&["crates"]),
        Some("crates/worksteal/src/pool.rs:"),
    );
}

/// One park path: idle runtime workers park only through tpm_sync::Sleepers,
/// whose wake-up cannot be lost, so no runtime polls on a timer or keeps a
/// condvar of its own. An outside thread waiting on a stealing pool and a
/// team's master at the region join park through the same Sleepers, and a
/// production kernel waits through its runtime, so that the caller works as
/// worker 0.
#[test]
fn one_park_path() {
    let runtimes = paths(&[
        "crates/forkjoin/src",
        "crates/worksteal/src",
        "crates/actors/src",
    ]);
    forbid(
        "timed or condvar park",
        r"park_timeout|PARK_INTERVAL|Condvar",
        &[],
        &runtimes,
        None,
    );
    forbid(
        "spin-then-yield wait",
        r"Backoff|latch\.wait\(\)|\.ready\.wait\(\)|done\.wait\(\)",
        &[],
        &runtimes,
        None,
    );
    forbid(
        "bare wait in a kernel",
        r"\.wait\(\)",
        &[],
        &paths(&["crates/kernels/src"]),
        None,
    );
}

/// One JSON codec: the only string escaper and the only tokenizer live in
/// crates/sync/src/json.rs (Prometheus' escape_label is a different format
/// and does not match).
#[test]
fn one_json_codec() {
    forbid(
        "second JSON escaper or tokenizer",
        r"fn esc\b|fn json_string|fn escape\b|struct Parser\b",
        &["--include=*.rs"],
        &paths(&["crates"]),
        Some("crates/sync/src/json.rs:"),
    );
}

/// One event vocabulary: a runtime reports a scheduler event with one
/// tpm_trace::emit call, which counts and traces it, so no event site bumps
/// a named counter itself, and the rawthreads model has no counter set of
/// its own.
#[test]
fn one_event_vocabulary() {
    forbid(
        "hand-bumped event counter",
        r"\.(spawned|executed|steals|failed_steals|chunks|loop_claims|barrier_waits|parks|threads_spawned|joins)\.(inc|add)\(",
        &[],
        &paths(&[
            "crates/forkjoin/src",
            "crates/worksteal/src",
            "crates/actors/src",
            "crates/rawthreads/src",
        ]),
        None,
    );
    forbid(
        "rawthreads counter set",
        "RawStats",
        &["--include=*.rs"],
        &paths(&["benchmark", "crates", "examples", "shims", "src", "tests"]),
        None,
    );
}

/// One pool configuration: every pooled runtime is built by new(threads) or
/// with_config(PoolConfig), and the executor by Executor::new, so no
/// builder, second config type, task-mode knob or per-family runtime enum
/// may come back.
#[test]
fn one_pool_configuration() {
    forbid(
        "second runtime configuration",
        r"struct \w+Builder|TeamConfig|TaskMode|FamilyRuntime|fn build_runtime|with_pinning|fn pop_top",
        &["--include=*.rs"],
        &code_dirs(),
        None,
    );
}

/// One loop path per model: Executor dispatches each model once (in
/// `chunks`), for loops and reductions alike, and each runtime keeps one
/// cancellable loop entry per decomposition, so no second dispatch, no
/// wrapper that only drops the worker index or passes a token that never
/// fires, and no dead loop entry may come back.
#[test]
fn one_loop_path_per_model() {
    forbid(
        "second loop path",
        r"fn dispatch_for|fn dispatch_reduce|fn par_for_cancel|fn par_for_ctx\b|fn scatter_for_cancel|fn recursive_for_cancel|fn recursive_for\b|fn recursive_reduce\b|fn parallel_for_chunks|fn child_with_deadline\b|fn all_native",
        &["--include=*.rs"],
        &code_dirs(),
        None,
    );
}

/// One body per kernel: each kernel's parallel body is its try_run* under
/// the caller's token, `run` its one infallible wrapper, and every service
/// job a call to that body, so no token-dropping loop helper, second entry
/// point, dead slice helper or second poll constant may come back, and
/// jobs.rs runs no loop of its own.
#[test]
fn one_body_per_kernel() {
    forbid(
        "second kernel body",
        r"fn pfor\b|fn preduce\b|fn run_v\b|fn join3\b|fn par_map\b|FILL_POLL_EVERY",
        &["--include=*.rs"],
        &code_dirs(),
        None,
    );
    forbid(
        "loop in a service job",
        r"try_parallel_(for|reduce)",
        &[],
        &paths(&["crates/harness/src/jobs.rs"]),
        None,
    );
}

/// No dead OpenMP surface: locks, task dependences, sections, master and
/// critical ran in no figure, job or claim and were deleted, and with them
/// tpm_sync's second spin-then-park lock.
#[test]
fn no_dead_openmp_surface() {
    forbid(
        "deleted OpenMP construct",
        r"OmpLock|OmpNestLock|DepTracker|DepToken|fn sections\b|fn master\b|fn critical\b|mod mutex",
        &["--include=*.rs"],
        &code_dirs(),
        None,
    );
}

/// One victim order and two loop schedules: the native runtimes' NUMA
/// victim ordering (NUMA placement is the simulator's `numasim`), the
/// guided and auto schedules, and the lock events no runtime emitted were
/// deleted.
#[test]
fn no_native_numa_ordering_or_unused_schedules() {
    forbid(
        "deleted scheduling policy",
        r"NumaTopology|TPM_NUMA|numa_enabled|VictimPlan|local_victims|Schedule::Guided|Schedule::Auto|next_guided|LockAcquire|LockContended",
        &["--include=*.rs"],
        &code_dirs(),
        None,
    );
}

/// The workspace stays at 18 member crates or fewer (the root package is
/// not one).
#[test]
fn at_most_eighteen_member_crates() {
    let out = Command::new(env!("CARGO"))
        .current_dir(ROOT)
        .args([
            "metadata",
            "--format-version",
            "1",
            "--no-deps",
            "--offline",
        ])
        .output()
        .expect("cargo metadata runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("UTF-8 metadata");
    let mut members = Vec::new();
    let mut r = json::Reader::new(&text);
    r.object(|r, key| match key.as_str() {
        "packages" => r.array(|r| {
            r.object(|r, key| match key.as_str() {
                "name" => r.string().map(|name| members.push(name)),
                _ => r.skip_value(),
            })
        }),
        _ => r.skip_value(),
    })
    .and_then(|()| r.end())
    .expect("cargo metadata prints one JSON object");
    members.retain(|name| name != "threadcmp");
    members.sort();
    assert!(
        members.len() <= 18,
        "{} workspace members: {members:?}",
        members.len()
    );
}
