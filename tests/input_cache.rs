//! The registry's shared input cache, driven through the real job registry:
//! a cached input must be indistinguishable from a freshly generated one
//! under every model, the cache must stay inside its budget and evict in
//! LRU order, concurrent cold misses must converge on one entry, and a
//! cancelled generation must leave nothing behind. (The injected-fault case
//! lives in `tests/chaos.rs`: a fault plan is process-global, and only that
//! binary serialises every test against it.)

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use threadcmp::harness::jobs;
use threadcmp::job::{InputCache, INPUT_CACHE_BUDGET_BYTES, MIN_CACHED_BYTES};
use threadcmp::kernels::Sum;
use threadcmp::sync::CancelToken;
use threadcmp::{ExecError, Executor, JobRegistry, JobSpec, KernelVariant, Model};

fn spec(job: &str, model: Model, size: usize, threads: usize) -> JobSpec {
    JobSpec {
        kernel: job.to_string(),
        model,
        variant: KernelVariant::Reference,
        size,
        threads,
    }
}

/// The harness suite over a cache of `budget` bytes.
fn suite_with_budget(budget: usize) -> JobRegistry {
    let mut reg = JobRegistry::with_inputs(InputCache::with_budget(budget));
    jobs::register_all(&mut reg);
    reg
}

/// A size at which each job's input is 128–150 KiB: above the caching
/// floor, small enough to run 8 models × 2 thread counts quickly (`fib` has
/// no input and rides along).
fn cacheable_size(job: &str) -> usize {
    match job {
        "sum" => 16 * 1024,
        "axpy" => 8 * 1024,
        "matvec" => 128,
        "matmul" | "hotspot" => 96,
        "bfs" => 4096,
        "fib" => 10,
        other => panic!("no size chosen for new job {other}"),
    }
}

/// (a) Cold miss, warm hit and over-budget bypass compute the same value
/// for every job under every model. On one thread the reduction order is
/// fixed, so equality is bitwise; on two, dynamic schedules may combine
/// partials in a different order and only the last few ulps are free.
#[test]
fn cold_warm_and_bypass_values_agree_for_every_job_and_model() {
    for threads in [1, 2] {
        let exec = Executor::new(threads);
        for job in jobs::registry().names() {
            let has_input = job != "fib";
            for model in Model::ALL {
                let cached = jobs::registry();
                // Everything over the floor is over half of this budget.
                let bypassing = suite_with_budget(2 * MIN_CACHED_BYTES);
                let s = spec(job, model, cacheable_size(job), threads);
                let run =
                    |reg: &JobRegistry| reg.run(&exec, &s, &CancelToken::new()).unwrap().value;
                let (cold, warm, bypass) = (run(&cached), run(&cached), run(&bypassing));

                let stats = cached.inputs().stats();
                let want = u64::from(has_input);
                assert_eq!((stats.misses, stats.hits), (want, want), "{job} {model}");
                assert_eq!(cached.inputs().resident().len() as u64, want, "{job}");
                assert!(bypassing.inputs().resident().is_empty(), "{job} {model}");
                assert_eq!(bypassing.inputs().stats().misses, want, "{job} {model}");

                if threads == 1 {
                    assert_eq!(cold.to_bits(), warm.to_bits(), "{job} {model}");
                    assert_eq!(cold.to_bits(), bypass.to_bits(), "{job} {model}");
                } else {
                    let tol = 1e-12 * cold.abs().max(1.0);
                    assert!((cold - warm).abs() <= tol, "{job} {model}: {cold} {warm}");
                    assert!(
                        (cold - bypass).abs() <= tol,
                        "{job} {model}: {cold} {bypass}"
                    );
                }
            }
        }
    }
}

/// The resident input itself — generated in parallel under whichever model
/// missed first — is bit for bit the sequential generator's.
#[test]
fn resident_input_is_bitwise_the_sequential_one() {
    let n = 100_003;
    let want = Sum::native(n).alloc();
    let exec = Executor::new(2);
    for model in Model::ALL {
        let reg = jobs::registry();
        reg.run(&exec, &spec("sum", model, n, 2), &CancelToken::new())
            .unwrap();
        let resident = reg
            .inputs()
            .get_or_try_build::<Vec<f64>, ()>("sum", n, n * 8, || panic!("{model}: not resident"))
            .unwrap();
        assert!(*resident == want, "{model}");
    }
}

/// Inputs under the floor never touch the cache: no lookup, no entry.
#[test]
fn small_inputs_stay_on_the_per_request_path() {
    let reg = jobs::registry();
    let exec = Executor::new(1);
    for _ in 0..3 {
        reg.run(
            &exec,
            &spec("sum", Model::OmpFor, 4096, 1),
            &CancelToken::new(),
        )
        .unwrap();
    }
    assert_eq!(reg.inputs().stats(), Default::default());
    assert!(reg.inputs().resident().is_empty());
}

/// `elapsed` is the body alone: on a warm hit the prepare phase is a lookup,
/// on the cold miss it holds the generation.
#[test]
fn prepare_time_is_reported_apart_from_the_body() {
    let reg = jobs::registry();
    let exec = Executor::new(2);
    let s = spec("sum", Model::OmpFor, 1 << 20, 2);
    let cold = reg.run(&exec, &s, &CancelToken::new()).unwrap();
    // Best of a few warm runs, so one preempted lookup cannot fail this.
    let warm = (0..5)
        .map(|_| reg.run(&exec, &s, &CancelToken::new()).unwrap())
        .min_by_key(|r| r.prepare)
        .unwrap();
    assert!(cold.prepare > warm.prepare, "{cold:?} vs {warm:?}");
    assert!(warm.prepare < warm.elapsed, "{warm:?}");
}

const KERNELS: [&str; 3] = ["a", "b", "c"];
const BUDGET: usize = 1 << 20;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (b) Against a reference LRU: after every request the resident set
    /// and its coldest-first order match the model, resident bytes stay
    /// within the budget, and nothing under the floor or over half the
    /// budget is ever resident. Jobs charge `size` KiB for `(kernel, size)`.
    #[test]
    fn cache_matches_a_reference_lru_on_any_request_sequence(
        requests in proptest::collection::vec((0..KERNELS.len(), 1usize..700), 1..60)
    ) {
        let mut reg = JobRegistry::with_inputs(InputCache::with_budget(BUDGET));
        for kernel in KERNELS {
            reg.register_prepared(
                kernel,
                "charges size KiB",
                1 << 20,
                move |ctx| {
                    let size = ctx.spec.size;
                    ctx.inputs.get_or_try_build(kernel, size, size << 10, || Ok(size))
                },
                |ctx, input| {
                    assert_eq!(**input, ctx.spec.size);
                    Ok(0.0)
                },
            );
        }
        let exec = Executor::new(1);
        // Coldest first, like `InputCache::resident`.
        let mut model: Vec<(&str, usize, usize)> = Vec::new();
        let (mut hits, mut evictions) = (0, 0);
        for (i, &(k, size)) in requests.iter().enumerate() {
            let kernel = KERNELS[k];
            reg.run(&exec, &spec(kernel, Model::OmpFor, size, 1), &CancelToken::new()).unwrap();

            let bytes = size << 10;
            if let Some(at) = model.iter().position(|&(mk, ms, _)| (mk, ms) == (kernel, size)) {
                let entry = model.remove(at);
                model.push(entry);
                hits += 1;
            } else if (MIN_CACHED_BYTES..=BUDGET / 2).contains(&bytes) {
                while model.iter().map(|e| e.2).sum::<usize>() + bytes > BUDGET {
                    model.remove(0);
                    evictions += 1;
                }
                model.push((kernel, size, bytes));
            }

            let cache = reg.inputs();
            prop_assert_eq!(cache.resident(), model.clone(), "after request {}", i);
            let stats = cache.stats();
            let resident: usize = model.iter().map(|e| e.2).sum();
            prop_assert!(resident <= BUDGET);
            prop_assert_eq!(stats.resident_bytes, resident as u64);
            prop_assert_eq!((stats.hits, stats.evictions), (hits, evictions));
            prop_assert_eq!(stats.hits + stats.misses, i as u64 + 1);
        }
    }
}

/// (c) Four workers cold-miss one key at once. The barrier sits *inside*
/// generation, so all four have missed before any can insert: each
/// generates, the first insert wins, the rest adopt it, nobody waits on the
/// lock while generating.
#[test]
fn concurrent_cold_misses_converge_on_one_entry() {
    const THREADS: usize = 4;
    let generating = Arc::new(Barrier::new(THREADS));
    let mut reg = JobRegistry::new();
    let in_build = Arc::clone(&generating);
    reg.register_prepared(
        "shared",
        "all threads generate together",
        1 << 20,
        move |ctx| {
            ctx.inputs
                .get_or_try_build("shared", ctx.spec.size, MIN_CACHED_BYTES, || {
                    in_build.wait();
                    Ok(vec![ctx.spec.size as f64; 8])
                })
        },
        |_, input| Ok(Arc::as_ptr(input) as usize as f64),
    );
    let s = spec("shared", Model::OmpFor, 77, 1);
    let addresses: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let exec = Executor::new(1);
                    reg.run(&exec, &s, &CancelToken::new()).unwrap().value
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Every worker ended up computing on the same shared allocation.
    assert!(
        addresses.iter().all(|&a| a == addresses[0]),
        "{addresses:?}"
    );
    assert_eq!(reg.inputs().resident(), [("shared", 77, MIN_CACHED_BYTES)]);
    let stats = reg.inputs().stats();
    assert_eq!((stats.misses, stats.hits), (THREADS as u64, 0));
    assert_eq!(stats.resident_bytes, MIN_CACHED_BYTES as u64);

    // The same through the real suite: equal values, one entry.
    let reg = jobs::registry();
    let start = Barrier::new(THREADS);
    let s = spec("sum", Model::CilkFor, 1 << 17, 1);
    let values: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let exec = Executor::new(1);
                    start.wait();
                    let r = reg.run(&exec, &s, &CancelToken::new());
                    r.unwrap().value.to_bits()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(values.iter().all(|&v| v == values[0]), "{values:?}");
    assert_eq!(reg.inputs().resident().len(), 1);
}

/// Satellite regression: `sum` polls its token *during* input generation.
/// A 1 ms deadline on a 2²⁴-element request (128 MiB of RNG output) comes
/// back as `Deadline` in a fraction of the time generation alone takes, and
/// (d) a cancelled generation — here also at a size the cache would admit —
/// inserts nothing; the next request for the key succeeds and is cached.
#[test]
fn deadline_fires_during_generation_and_leaves_the_cache_empty() {
    let reg = jobs::registry();
    let exec = Executor::new(2);
    let t = Instant::now();
    drop(std::hint::black_box(Sum::native(1 << 24).alloc()));
    let generation = t.elapsed();

    for size in [1 << 24, 1 << 22] {
        let s = spec("sum", Model::OmpFor, size, 2);
        assert_eq!(size * 8 <= INPUT_CACHE_BUDGET_BYTES / 2, size == 1 << 22);
        let t = Instant::now();
        let token = CancelToken::with_deadline(Duration::from_millis(1));
        let err = reg.run(&exec, &s, &token).unwrap_err();
        let took = t.elapsed();
        assert_eq!(err, ExecError::Deadline, "size {size}");
        assert!(
            took < generation / 2,
            "size {size}: {took:?} to observe a 1 ms deadline; generating 2^24 takes {generation:?}"
        );
        assert!(reg.inputs().resident().is_empty(), "size {size}");
        assert_eq!(reg.inputs().stats().resident_bytes, 0, "size {size}");
    }

    let s = spec("sum", Model::OmpFor, 1 << 22, 2);
    let ok = reg.run(&exec, &s, &CancelToken::new()).unwrap();
    let k = Sum::native(1 << 22);
    threadcmp::approx::scalar_close(ok.value, k.seq(&k.alloc()), 1e-9).unwrap();
    assert_eq!(reg.inputs().resident(), [("sum", 1 << 22, 8 << 22)]);
}
