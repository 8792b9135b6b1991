//! End-to-end tests for the tracing subsystem against the real runtimes:
//! events recorded concurrently by worker threads during `join`/`par_for`
//! and forkjoin worksharing must survive the drain, the Chrome-trace JSON
//! must be structurally valid, and tracing must be free when off.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use std::time::Instant;

use tpm_core::{Executor, Family, Model};
use tpm_forkjoin::{Schedule, Team};
use tpm_kernels::{Fib, Sum};
use tpm_sync::StatsSnapshot;
use tpm_trace::{EventKind, TraceSession};
use tpm_worksteal::{join, par_for, Grain, Runtime};

/// Serializes the tests in this binary. Sessions already serialize against
/// each other, but a concurrently-running test here would otherwise record
/// into another test's session (or, for the overhead test, find tracing
/// unexpectedly enabled).
static GATE: Mutex<()> = Mutex::new(());

/// How long the first chunk waits for a chunk to run on another worker.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(10);

fn fib(ctx: &tpm_worksteal::WorkerCtx<'_>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(ctx, |c| fib(c, n - 1), |c| fib(c, n - 2));
    a + b
}

#[test]
fn worksteal_join_and_par_for_record_from_multiple_workers() {
    let _gate = GATE.lock().unwrap();
    let rt = Runtime::new(4);
    // On a small host one worker can drain the whole run inside its OS
    // timeslice before any sibling wakes. So the first chunk to run yields
    // until a chunk has run on another thread: a second worker always
    // participates, and a lost wake-up fails the deadline instead of
    // hanging.
    let session = TraceSession::start();
    let hits = AtomicUsize::new(0);
    let first = Mutex::new(None);
    let joined = AtomicBool::new(false);
    let timed_out = AtomicBool::new(false);
    rt.install(|ctx| {
        par_for(ctx, 0..10_000, Grain::Fixed(64), &|chunk| {
            hits.fetch_add(chunk.len(), Ordering::Relaxed);
            let me = std::thread::current().id();
            if *first.lock().unwrap().get_or_insert(me) != me {
                joined.store(true, Ordering::Release);
            }
            // Only the first chunk's thread waits; it runs no other chunk
            // while it does, and after a timeout no chunk waits again.
            let deadline = Instant::now() + RENDEZVOUS_TIMEOUT;
            while !joined.load(Ordering::Acquire) && !timed_out.load(Ordering::Relaxed) {
                if Instant::now() > deadline {
                    timed_out.store(true, Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        });
        fib(ctx, 16)
    });
    let trace = session.stop();
    assert!(
        !timed_out.load(Ordering::Relaxed),
        "no second worker ran a chunk within {RENDEZVOUS_TIMEOUT:?} (lost wake-up?)"
    );
    assert_eq!(hits.load(Ordering::Relaxed), 10_000);
    // The caller works as worker 0, so count threads by what they ran, not
    // by the pool's thread names.
    let ws_workers = trace
        .workers
        .iter()
        .filter(|w| w.events.iter().any(|e| e.kind == EventKind::ChunkDispatch))
        .count();
    assert!(
        ws_workers >= 2,
        "chunks from {ws_workers} thread(s), want >= 2"
    );
    let summary = trace.summary();
    assert!(
        summary.total(EventKind::ChunkDispatch) > 0,
        "par_for chunks"
    );
    assert!(summary.total(EventKind::TaskSpawn) > 0, "join spawns");
    assert!(summary.total(EventKind::TaskExec) > 0, "executed jobs");
    // Timestamps within each worker must be monotone (drain preserves order).
    for w in &trace.workers {
        assert!(
            w.events.windows(2).all(|p| p[0].ts_ns <= p[1].ts_ns),
            "worker {} events out of order",
            w.name
        );
    }
}

/// Both stealing runtimes run on one pool core, so an external submission
/// is counted the same way in both: it is not a spawn (no `TaskSpawn`, no
/// `spawned` — those mean a push onto a worker's own deque) and it is one
/// `TaskExec` when it runs.
#[test]
fn external_submissions_record_the_same_events_in_both_stealing_runtimes() {
    let _gate = GATE.lock().unwrap();
    let traced = |submit: &dyn Fn()| {
        let session = TraceSession::start();
        submit();
        let summary = session.stop().summary();
        (
            summary.total(EventKind::TaskSpawn),
            summary.total(EventKind::TaskExec),
        )
    };
    let rt = Runtime::new(2);
    let actors = tpm_actors::ActorRuntime::new(2);
    let install = traced(&|| rt.install(|_| ()));
    let spawn = traced(&|| {
        let (ran, done) = tpm_actors::future();
        actors.spawn(move |_| done.set(()));
        ran.wait();
    });
    assert_eq!(install, spawn, "(TaskSpawn, TaskExec) per submission");
    assert_eq!(install, (0, 1));
    assert_eq!(rt.stats().snapshot().spawned, 0);
    assert_eq!(actors.stats().snapshot().spawned, 0);
}

#[test]
fn forkjoin_worksharing_records_chunks_and_barriers() {
    let _gate = GATE.lock().unwrap();
    let team = Team::new(4);
    let session = TraceSession::start();
    team.parallel(|ctx| {
        ctx.ws_for(Schedule::Dynamic { chunk: 16 }, 0..4_096, |i| {
            std::hint::black_box(i);
        });
        ctx.barrier();
    });
    let trace = session.stop();
    let summary = trace.summary();
    assert!(summary.total(EventKind::ChunkDispatch) > 0, "chunk events");
    assert!(
        summary.total(EventKind::BarrierRelease) > 0,
        "barrier events"
    );
    assert!(summary.total(EventKind::RegionBegin) > 0, "region span");
    assert!(trace.worker_count() >= 2, "parallel region uses the team");
}

#[test]
fn chrome_json_is_structurally_valid() {
    let _gate = GATE.lock().unwrap();
    let rt = Runtime::new(3);
    let session = TraceSession::start();
    rt.install(|ctx| fib(ctx, 14));
    let trace = session.stop();
    let json = trace.chrome_json();

    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"displayTimeUnit\":\"ns\""));
    assert!(json.contains("\"traceEvents\":["));
    assert!(json.contains("thread_name"), "worker name metadata");
    assert_eq!(
        json.matches("\"ph\":\"B\"").count(),
        json.matches("\"ph\":\"E\"").count(),
        "duration begin/end events must pair up"
    );
    let mut r = threadcmp::sync::json::Reader::new(&json);
    r.skip_value()
        .and_then(|()| r.end())
        .expect("the trace is one valid JSON document");
}

#[test]
fn disabled_record_is_nearly_free() {
    let _gate = GATE.lock().unwrap();
    // No session is active (the gate guarantees it), so every record() call
    // short-circuits on the enabled check. One million calls should cost
    // single-digit milliseconds; the 100ms budget leaves room for a loaded CI
    // machine while still catching an accidental always-on slow path.
    let t0 = Instant::now();
    for i in 0..1_000_000u64 {
        tpm_trace::record(EventKind::LockAcquire, i, 0);
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed.as_millis() < 100,
        "1M disabled record() calls took {elapsed:?}"
    );
}

#[test]
fn tracing_overhead_on_fib_is_bounded() {
    let _gate = GATE.lock().unwrap();
    let rt = Runtime::new(4);
    let run = |rt: &Runtime| {
        let t0 = Instant::now();
        let v = rt.install(|ctx| fib(ctx, 20));
        (t0.elapsed(), v)
    };
    // Warm up the pool, then time with tracing off and on. The bound is
    // deliberately loose — this is a smoke test against pathological
    // regressions (e.g. taking a lock per event), not a benchmark.
    let _ = run(&rt);
    let (off, v_off) = run(&rt);
    let session = TraceSession::start();
    let (on, v_on) = run(&rt);
    let trace = session.stop();
    assert_eq!(v_off, v_on);
    assert!(trace.total_events() > 0);
    let budget = off * 25 + std::time::Duration::from_millis(250);
    assert!(
        on < budget,
        "tracing-on fib took {on:?}, tracing-off {off:?} (budget {budget:?})"
    );
}

/// Every counter the runtimes keep, summed: the executor's pools plus the
/// process-global rawthreads counters.
fn all_counters(exec: &Executor) -> StatsSnapshot {
    exec.pooled_stats()
        .into_iter()
        .fold(tpm_rawthreads::stats().snapshot(), |acc, (_, s)| acc + s)
}

/// Waits until no runtime emits anything (idle workers have parked), so a
/// counter snapshot and a session edge see the same events.
fn settle(exec: &Executor) {
    let mut last = all_counters(exec);
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(20));
        let now = all_counters(exec);
        if now == last {
            return;
        }
        last = now;
    }
    panic!("runtimes never went quiet");
}

/// One event vocabulary: for every model, each counted kind's trace total
/// equals its counter delta, so counters, trace and scrape agree.
#[test]
fn every_counted_event_is_traced_exactly_once_per_model() {
    let _gate = GATE.lock().unwrap();
    let exec = Executor::new(2);
    let sum = Sum::native(20_000);
    let x = sum.alloc();
    // Few enough splits above the cutoff that the C++11 model's
    // thread-per-split recursion stays small.
    let fib = Fib { n: 16, cutoff: 11 };
    let run = |model: Model| {
        std::hint::black_box(sum.run(&exec, model, &x));
        let v = match model.family() {
            Family::OpenMp => fib.run_omp_task(exec.team()),
            Family::CilkPlus => fib.run_cilk_spawn(exec.worksteal()),
            Family::Cxx11 => fib.run_cxx_async(),
            Family::Actors => fib.run_actor_task(exec.actors()),
        };
        assert_eq!(v, 987, "{model}");
    };
    for model in Model::ALL {
        run(model); // warm up: first-touch, thread creation, rings
        settle(&exec);
        let before = all_counters(&exec);
        let session = TraceSession::with_capacity(1 << 14);
        run(model);
        settle(&exec);
        let trace = session.stop();
        let counted = all_counters(&exec) - before;
        assert!(
            trace.workers.iter().all(|w| w.dropped == 0),
            "{model}: ring drops"
        );
        let summary = trace.summary();
        for kind in EventKind::COUNTED {
            assert_eq!(
                summary.total(kind),
                counted.get(kind),
                "{model}: {kind:?} traced vs counted"
            );
        }
        let events: u64 = EventKind::COUNTED.iter().map(|&k| counted.get(k)).sum();
        assert!(events > 0, "{model}: nothing counted");
    }
}
