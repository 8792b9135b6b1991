//! Chaos matrix: seeded fault plans against all four runtimes.
//!
//! Fault plans are process-global, so every test here holds
//! [`fault::session_serial`] for its whole body: no test's runtime is alive
//! while another test's plan is installed.
//!
//! The invariants: no deadlock under any plan (the tests
//! finishing *is* the check), injected panics surface as
//! [`ExecError::Panic`] with the injected marker, results are
//! bitwise-correct whenever no fault fired, teams/runtimes stay usable
//! after recovery, and the same seeded plan replays the same per-hit
//! decisions.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use threadcmp::fault::{self, FaultKind, FaultPlan, FaultSession, Site, SiteRule};
use threadcmp::forkjoin::Team;
use threadcmp::kernels::{Fib, Matvec};
use threadcmp::worksteal::Runtime;
use threadcmp::{ExecError, Executor, Model};

const SUM_N: usize = 40_000;

fn expected_sum() -> u64 {
    (0..SUM_N as u64).sum()
}

fn run_sum(exec: &Executor, model: Model) -> Result<u64, ExecError> {
    let token = threadcmp::sync::CancelToken::new();
    exec.try_parallel_reduce(
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
    )
}

/// Asserts the outcome of one faulted run: either it completed exactly, or
/// it surfaced a contained injected failure.
fn assert_contained(model: Model, result: Result<u64, ExecError>) -> bool {
    match result {
        Ok(v) => {
            assert_eq!(v, expected_sum(), "{model}: wrong result, no error");
            false
        }
        Err(ExecError::Panic(msg)) => {
            assert!(
                fault::is_injected_message(&msg),
                "{model}: organic panic {msg:?}"
            );
            true
        }
        Err(e) => panic!("{model}: unexpected error {e}"),
    }
}

#[test]
fn injected_chunk_panic_surfaces_and_executor_recovers_for_every_model() {
    let _serial = fault::session_serial();
    let exec = Executor::new(3);
    for model in Model::ALL {
        let session = FaultSession::install(&FaultPlan::single(SiteRule {
            max_fires: 1,
            ..SiteRule::nth(Site::ChunkClaim, FaultKind::Panic, 2)
        }));
        let faulted = assert_contained(model, run_sum(&exec, model));
        let report = session.report();
        assert_eq!(
            faulted,
            !report.fired.is_empty(),
            "{model}: error surfaced iff a fault fired ({report:?})"
        );
        // Recovery: the very same executor, clean plan, exact result.
        assert_eq!(run_sum(&exec, model), Ok(expected_sum()), "{model} reuse");
    }
}

/// A model's for loop and its reduction run one loop path, so under an
/// inert plan both drive the same chunk-claim and task-exec probe hits; in
/// the models that claim chunk by chunk, each body call is one claim.
#[test]
fn for_and_reduce_drive_the_same_probes_for_every_model() {
    let _serial = fault::session_serial();
    let exec = Executor::new(2);
    let token = threadcmp::sync::CancelToken::new();
    let inert = FaultPlan::single(SiteRule::nth(
        Site::ChunkClaim,
        FaultKind::Panic,
        1_000_000_000,
    ));
    let hits = |session: FaultSession| {
        let report = session.report();
        [Site::ChunkClaim, Site::TaskExec].map(|s| report.hits[s as usize])
    };
    for model in Model::ALL {
        let calls = AtomicU64::new(0);
        let session = FaultSession::install(&inert);
        exec.try_parallel_for(model, 0..10_000, &token, &|_| {
            calls.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        let for_hits = hits(session);
        let session = FaultSession::install(&inert);
        let n = exec.try_parallel_reduce(
            model,
            0..10_000,
            &token,
            || 0u64,
            |a, b| a + b,
            |chunk, acc| *acc += chunk.len() as u64,
        );
        let reduce_hits = hits(session);
        assert_eq!(n, Ok(10_000), "{model}");
        assert_eq!(
            for_hits, reduce_hits,
            "{model}: [chunk-claim, task-exec] hits, for vs reduce"
        );
        if matches!(
            model,
            Model::OmpFor | Model::CilkFor | Model::CxxThread | Model::CxxAsync
        ) {
            assert_eq!(
                for_hits[0],
                calls.into_inner(),
                "{model}: chunk-claim hits vs body calls"
            );
        }
    }
}

#[test]
fn steal_miss_storm_and_delays_never_corrupt_or_deadlock() {
    let _serial = fault::session_serial();
    let plan = FaultPlan {
        seed: 42,
        rules: vec![
            SiteRule::prob(Site::StealAttempt, FaultKind::StealMiss, 0.5),
            SiteRule {
                delay_us: 100,
                ..SiteRule::prob(Site::ChunkClaim, FaultKind::Delay, 0.1)
            },
        ],
    };
    let session = FaultSession::install(&plan);
    let exec = Executor::new(4);
    for model in Model::ALL {
        // Steal misses and delays perturb scheduling, never results.
        assert_eq!(run_sum(&exec, model), Ok(expected_sum()), "{model}");
    }
    session.report();
}

#[test]
fn matvec_is_bitwise_identical_when_no_fault_fires() {
    let _serial = fault::session_serial();
    let mv = Matvec::native(96);
    let exec = Executor::new(3);
    let (a, x) = mv.alloc();
    let baseline = mv.run(&exec, Model::OmpFor, &a, &x);

    // A plan whose only rule can never fire (hit 10^9 of a small run).
    let session = FaultSession::install(&FaultPlan::single(SiteRule::nth(
        Site::ChunkClaim,
        FaultKind::Panic,
        1_000_000_000,
    )));
    for model in Model::ALL {
        let y = mv.run(&exec, model, &a, &x);
        // Same model → bitwise-identical; across models the split differs
        // but OmpFor must match its own baseline bit for bit.
        if model == Model::OmpFor {
            assert!(
                y.iter()
                    .zip(&baseline)
                    .all(|(p, q)| p.to_bits() == q.to_bits()),
                "OmpFor drifted under an inert plan"
            );
        } else {
            assert_eq!(y.len(), baseline.len());
        }
    }
    let report = session.report();
    assert!(report.fired.is_empty(), "{:?}", report.fired);
}

#[test]
fn fib_survives_injected_task_panics_and_runtimes_stay_usable() {
    let _serial = fault::session_serial();
    let fib = Fib::native(18);
    let want = Fib::seq(18);

    // omp_task: recursive tasks on the fork-join runtime.
    let team = Team::new(3);
    {
        let session = FaultSession::install(&FaultPlan::single(SiteRule {
            max_fires: 1,
            ..SiteRule::prob(Site::TaskExec, FaultKind::Panic, 1.0)
        }));
        let r = catch_unwind(AssertUnwindSafe(|| fib.run_omp_task(&team)));
        let report = session.report();
        match r {
            Err(p) => {
                let msg = tpm_core::panic_message(p);
                assert!(fault::is_injected_message(&msg), "{msg}");
                assert_eq!(report.fired.len(), 1);
            }
            Ok(v) => {
                // Cutoff may have kept the run below the task threshold.
                assert_eq!(v, want);
            }
        }
    }
    assert_eq!(fib.run_omp_task(&team), want, "team reuse after recovery");

    // cilk_spawn: recursive join on the work-stealing runtime.
    let rt = Runtime::new(3);
    {
        let session = FaultSession::install(&FaultPlan::single(SiteRule {
            max_fires: 1,
            ..SiteRule::prob(Site::TaskExec, FaultKind::Panic, 1.0)
        }));
        let r = catch_unwind(AssertUnwindSafe(|| fib.run_cilk_spawn(&rt)));
        let report = session.report();
        match r {
            Err(p) => {
                let msg = tpm_core::panic_message(p);
                assert!(fault::is_injected_message(&msg), "{msg}");
                assert_eq!(report.fired.len(), 1);
            }
            Ok(v) => assert_eq!(v, want),
        }
    }
    assert_eq!(
        fib.run_cilk_spawn(&rt),
        want,
        "runtime reuse after recovery"
    );
}

#[test]
fn task_drops_are_observable_not_silent() {
    let _serial = fault::session_serial();
    let exec = Executor::new(2);
    for model in Model::ALL {
        let session = FaultSession::install(&FaultPlan::single(SiteRule {
            max_fires: 1,
            ..SiteRule::nth(Site::ChunkClaim, FaultKind::TaskDrop, 1)
        }));
        // A dropped chunk MUST NOT produce a silently-short result: either
        // the drop surfaced as a contained panic, or nothing fired.
        match run_sum(&exec, model) {
            Ok(v) => {
                assert_eq!(v, expected_sum(), "{model}: silent drop!");
                assert!(session.report().fired.is_empty(), "{model}");
            }
            Err(ExecError::Panic(msg)) => {
                assert!(fault::is_injected_message(&msg), "{model}: {msg}");
                session.report();
            }
            Err(e) => panic!("{model}: {e}"),
        }
    }
}

#[test]
fn seeded_plans_replay_the_same_decisions() {
    let _serial = fault::session_serial();
    let plan = FaultPlan {
        seed: 1234,
        rules: vec![
            SiteRule::prob(Site::ChunkClaim, FaultKind::StealMiss, 0.0), // inert
            SiteRule::prob(Site::StealAttempt, FaultKind::StealMiss, 0.25),
        ],
    };
    let run_once = || {
        let session = FaultSession::install(&plan);
        let exec = Executor::new(4);
        for model in Model::ALL {
            assert_eq!(run_sum(&exec, model), Ok(expected_sum()), "{model}");
        }
        session.report().fired_sorted()
    };
    let first = run_once();
    let second = run_once();
    // Decisions are a pure function of (seed, site, hit): every hit index
    // both runs reached must agree. Hit counts at wait-path sites vary
    // with timing, so the shorter run must be contained in the longer.
    let (longer, shorter) = if first.len() >= second.len() {
        (&first, &second)
    } else {
        (&second, &first)
    };
    for f in shorter {
        assert!(longer.contains(f), "replay diverged at {f:?}");
    }
}

/// An input generation that panics under an injected `task-exec` fault
/// comes back as a contained error and inserts nothing into the registry's
/// input cache; the next request for the same key generates, succeeds and
/// is cached.
#[test]
fn injected_panic_during_input_generation_leaves_the_cache_empty() {
    let _serial = fault::session_serial();
    let exec = Executor::new(2);
    let spec = |model| threadcmp::JobSpec {
        kernel: "sum".to_string(),
        model,
        variant: threadcmp::KernelVariant::Reference,
        size: 1 << 18,
        threads: 2,
    };
    let token = threadcmp::sync::CancelToken::new();
    // The models whose chunks are spawned tasks, where `task-exec` probes.
    for model in [Model::OmpTask, Model::CilkSpawn] {
        let reg = threadcmp::harness::jobs::registry();
        let session = FaultSession::install(&FaultPlan::single(SiteRule {
            max_fires: 1,
            ..SiteRule::nth(Site::TaskExec, FaultKind::Panic, 1)
        }));
        let err = reg.run(&exec, &spec(model), &token).unwrap_err();
        assert_eq!(session.report().fired.len(), 1, "{model}");
        match err {
            ExecError::Panic(msg) => assert!(fault::is_injected_message(&msg), "{model}: {msg}"),
            other => panic!("{model}: {other:?}"),
        }
        assert!(reg.inputs().resident().is_empty(), "{model}");

        let ok = reg.run(&exec, &spec(model), &token).unwrap();
        let k = threadcmp::kernels::Sum::native(1 << 18);
        threadcmp::approx::scalar_close(ok.value, k.seq(&k.alloc()), 1e-9).unwrap();
        assert_eq!(reg.inputs().resident().len(), 1, "{model}");
    }
}
