//! The `profile` experiment: run one kernel under every applicable model
//! version with tracing on, and report side-by-side scheduler-event
//! summaries (steals, chunk dispatches, barrier waits) per model.
//!
//! Where the figures answer *which* model wins, this answers *why*: the same
//! kernel's model versions produce visibly different event mixes (e.g. chunk
//! dispatches for worksharing vs. steals for work stealing vs. thread spawns
//! for C++11 vs. mailbox activations for actors). The model set comes from
//! `--model` (default: the whole registry).

use std::path::Path;

use tpm_core::{Executor, ProfileRow, ProfileTable};
use tpm_kernels::util::infallible;
use tpm_kernels::{Axpy, Fib, Sum};
use tpm_sync::CancelToken;
use tpm_trace::TraceSession;

use crate::native::NativeConfig;

/// Kernel names accepted by [`run`].
pub const KERNELS: [&str; 3] = ["sum", "axpy", "fib"];

/// One profiled run: a row label and the closure that executes its version.
type ModelRun = (String, Box<dyn Fn(&Executor)>);

/// Runs `kernel` under every applicable model on the largest thread count in
/// `cfg.threads`, returning the per-model comparison table. When `trace_dir`
/// is given, each model's Chrome-trace JSON is written next to it as
/// `<stem>-<model>.json`.
pub fn run(
    cfg: &NativeConfig,
    kernel: &str,
    trace_out: Option<&Path>,
) -> Result<ProfileTable, String> {
    let threads = cfg.threads.iter().copied().max().unwrap_or(2);
    let exec = Executor::new(threads);
    let mut table = ProfileTable::new(format!("profile: {kernel} ({threads} threads)"));
    let runs: Vec<ModelRun> = match kernel {
        "sum" => {
            let k = Sum::native(200_000 * cfg.scale);
            let x = k.alloc();
            let variant = cfg.variant;
            let mut runs: Vec<ModelRun> = cfg
                .models
                .iter()
                .copied()
                .map(|m| {
                    let x = x.clone();
                    let f: Box<dyn Fn(&Executor)> = Box::new(move |e: &Executor| {
                        let r = k.try_run_v(e, m, variant, &x, &CancelToken::new());
                        std::hint::black_box(infallible(m, r));
                    });
                    (m.name().to_string(), f)
                })
                .collect();
            // An extra worksharing row under the *dynamic* schedule, so the
            // table also shows shared-counter claim traffic (the `claims`
            // column) next to the static schedule's zero-coordination row.
            let n = k.n;
            let a = k.a;
            runs.push((
                "omp_dyn".to_string(),
                Box::new(move |e: &Executor| {
                    let x = &x;
                    let total = e.team().parallel_for_reduce(
                        e.threads(),
                        tpm_forkjoin::Schedule::Dynamic { chunk: 64 },
                        0..n,
                        || 0.0f64,
                        |l, r| l + r,
                        |chunk, acc| {
                            let mut local = 0.0;
                            for &xi in &x[chunk] {
                                local += a * xi;
                            }
                            *acc += local;
                        },
                    );
                    std::hint::black_box(total);
                }),
            ));
            runs
        }
        "axpy" => {
            let k = Axpy::native(200_000 * cfg.scale);
            let (x, y0) = k.alloc();
            let variant = cfg.variant;
            cfg.models
                .iter()
                .copied()
                .map(|m| {
                    let x = x.clone();
                    let y0 = y0.clone();
                    let f: Box<dyn Fn(&Executor)> = Box::new(move |e: &Executor| {
                        // Fresh output each run; the kernel only reads x.
                        let mut y = y0.clone();
                        let r = k.try_run_v(e, m, variant, &x, &mut y, &CancelToken::new());
                        infallible(m, r);
                        std::hint::black_box(&y);
                    });
                    (m.name().to_string(), f)
                })
                .collect()
        }
        "fib" => {
            let n = 20 + (cfg.scale.min(10) as u64);
            let k = Fib::native(n);
            // One row per selected task-pattern variant; the spawn mechanism
            // follows the model's family, so a new family profiles for free.
            cfg.models
                .iter()
                .copied()
                .filter(|m| m.pattern() == tpm_core::Pattern::Task)
                .map(|m| {
                    let f: Box<dyn Fn(&Executor)> = Box::new(move |e: &Executor| {
                        std::hint::black_box(k.run(e, m));
                    });
                    (m.name().to_string(), f)
                })
                .collect()
        }
        other => {
            return Err(format!(
                "unknown profile kernel '{other}' (expected one of {})",
                KERNELS.join("|")
            ))
        }
    };

    for (label, body) in runs {
        // Warm every runtime's pool so the profiled run measures scheduling,
        // not first-touch effects.
        body(&exec);
        exec.reset_stats();
        let raw_before = tpm_rawthreads::stats().snapshot();

        let session = TraceSession::start();
        let t0 = std::time::Instant::now();
        body(&exec);
        let seconds = t0.elapsed().as_secs_f64();
        let trace = session.stop();

        // Sum over every runtime (the pools plus the rawthreads model's
        // global counters); only the one the model ran on moved.
        let stats = exec.pooled_stats().into_iter().fold(
            tpm_rawthreads::stats().snapshot() - raw_before,
            |acc, (_, s)| acc + s,
        );
        let summary = trace.summary();
        table.push(ProfileRow {
            model: label.clone(),
            seconds,
            stats,
            trace_events: summary.workers.iter().map(|w| w.counts.total()).sum(),
            trace_workers: summary.workers.len(),
        });

        if let Some(path) = trace_out {
            let out = sibling_with_model(path, &label);
            std::fs::write(&out, trace.chrome_json())
                .map_err(|e| format!("cannot write trace file {}: {e}", out.display()))?;
        }
    }
    Ok(table)
}

/// `/tmp/run.json` + `omp_for` → `/tmp/run-omp_for.json`.
fn sibling_with_model(path: &Path, model: &str) -> std::path::PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("json");
    path.with_file_name(format!("{stem}-{model}.{ext}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpm_core::Model;

    fn cfg2() -> NativeConfig {
        NativeConfig {
            threads: vec![2],
            reps: 1,
            ..NativeConfig::default()
        }
    }

    #[test]
    fn unknown_kernel_is_an_error() {
        assert!(run(&cfg2(), "nope", None).unwrap_err().contains("nope"));
    }

    #[test]
    fn fib_profile_reports_task_models() {
        let cfg = cfg2();
        let table = run(&cfg, "fib", None).unwrap();
        // One row per task-pattern registry variant, family-major order.
        let labels: Vec<&str> = table.rows.iter().map(|r| r.model.as_str()).collect();
        assert_eq!(
            labels,
            ["omp_task", "cilk_spawn", "cxx_async", "actor_task"]
        );
        let omp = &table.rows[0];
        assert!(omp.stats.spawned > 0, "omp_task must spawn tasks: {omp:?}");
        let cilk = &table.rows[1];
        assert!(
            cilk.stats.executed > 0,
            "cilk_spawn must execute jobs: {cilk:?}"
        );
        let actor = &table.rows[3];
        assert!(
            actor.stats.spawned > 0,
            "actors must spawn activations: {actor:?}"
        );
        // Tracing was live during each run.
        assert!(table.rows.iter().all(|r| r.trace_events > 0));
    }

    #[test]
    fn model_selection_narrows_the_profile() {
        let mut cfg = cfg2();
        cfg.models = vec![Model::ActorFor, Model::ActorTask];
        let table = run(&cfg, "sum", None).unwrap();
        // The dynamic-schedule extra row rides along for sum.
        let labels: Vec<&str> = table.rows.iter().map(|r| r.model.as_str()).collect();
        assert_eq!(labels, ["actor_for", "actor_task", "omp_dyn"]);
        let table = run(&cfg, "fib", None).unwrap();
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.rows[0].model, "actor_task");
    }

    #[test]
    fn sibling_path_keeps_directory_and_extension() {
        let p = sibling_with_model(Path::new("/tmp/run.json"), "omp_for");
        assert_eq!(p, Path::new("/tmp/run-omp_for.json"));
    }
}
