//! Property-based tests over the core invariants: loop distribution covers
//! each index exactly once, reductions equal their sequential folds, deques
//! conserve elements, and the simulator respects work-conservation bounds.

use proptest::prelude::*;

use threadcmp::forkjoin::{static_chunks, LoopCounter, Schedule, Team};
use threadcmp::sim::{
    CostModel, DequeKind, Imbalance, LoopPolicy, LoopWorkload, Machine, Simulator,
};
use threadcmp::sync::{chase_lev, CancelToken, Reducer};
use threadcmp::{Executor, Model};

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::Static),
        (1usize..64).prop_map(|c| Schedule::Dynamic { chunk: c }),
    ]
}

fn model_strategy() -> impl Strategy<Value = Model> {
    // Registry-driven: every variant of every family, present and future.
    (0..Model::ALL.len()).prop_map(|i| Model::ALL[i])
}

fn policy_strategy() -> impl Strategy<Value = LoopPolicy> {
    prop_oneof![
        Just(LoopPolicy::WorksharingStatic),
        (1u64..256).prop_map(|chunk| LoopPolicy::WorksharingDynamic { chunk }),
        (0u64..512).prop_map(|grain| LoopPolicy::WorkstealingSplit { grain }),
        Just(LoopPolicy::TaskChunks {
            kind: DequeKind::Locked
        }),
        Just(LoopPolicy::TaskChunks {
            kind: DequeKind::LockFree
        }),
        Just(LoopPolicy::ThreadPerChunk),
        Just(LoopPolicy::RecursiveSpawn),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `static_chunks` tiles any range exactly, for any thread count.
    #[test]
    fn static_chunks_tile_exactly(
        len in 0usize..500,
        start in 0usize..100,
        threads in 1usize..9,
    ) {
        let range = start..start + len;
        let mut covered = vec![0u32; len];
        for tid in 0..threads {
            for i in static_chunks(range.clone(), tid, threads) {
                covered[i - start] += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
    }

    /// The shared dynamic counter hands out each index exactly once, in
    /// batches of any size.
    #[test]
    fn loop_counter_partitions(len in 1u64..2000, chunk in 1usize..64, max_batch in 1usize..9) {
        let len = len as usize;
        let counter = LoopCounter::new(0..len);
        let mut covered = vec![0u32; len];
        while let Some(r) = counter.next_dynamic_batch(chunk, 4, max_batch) {
            for i in r {
                covered[i] += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
    }

    /// Every model × any range: `parallel_for` visits each index once.
    #[test]
    fn executor_covers_any_range(
        model in model_strategy(),
        len in 0usize..300,
        threads in 1usize..5,
    ) {
        use std::sync::atomic::{AtomicU32, Ordering};
        let exec = Executor::new(threads);
        let flags: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
        exec.try_parallel_for(model, 0..len, &CancelToken::new(), &|chunk| {
            for i in chunk {
                flags[i].fetch_add(1, Ordering::Relaxed);
            }
        }).unwrap();
        prop_assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }

    /// Every model's reduction equals the sequential fold.
    #[test]
    fn executor_reduces_correctly(
        model in model_strategy(),
        values in proptest::collection::vec(0u64..1000, 0..300),
        threads in 1usize..5,
    ) {
        let exec = Executor::new(threads);
        let expected: u64 = values.iter().sum();
        let got = exec.try_parallel_reduce(
            model,
            0..values.len(),
            &CancelToken::new(),
            || 0u64,
            |a, b| a + b,
            |chunk, acc| for i in chunk { *acc += values[i]; },
        ).unwrap();
        prop_assert_eq!(got, expected);
    }

    /// Team worksharing covers every index under any schedule.
    #[test]
    fn team_worksharing_covers(
        schedule in schedule_strategy(),
        len in 0usize..400,
        threads in 1usize..5,
    ) {
        use std::sync::atomic::{AtomicU32, Ordering};
        let team = Team::new(threads);
        let flags: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
        team.parallel_for(threads, schedule, 0..len, |i| {
            flags[i].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }

    /// The Chase–Lev deque in single-owner use behaves like a stack, and
    /// never loses or duplicates values.
    #[test]
    fn chase_lev_matches_vec_model(ops in proptest::collection::vec(0u8..3, 1..200)) {
        let (w, s) = chase_lev::deque::<u32>(2);
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let mut next = 0u32;
        for op in ops {
            match op {
                0 => {
                    w.push(next);
                    model.push_back(next);
                    next += 1;
                }
                1 => {
                    prop_assert_eq!(w.pop(), model.pop_back());
                }
                _ => {
                    let got = s.steal().success();
                    prop_assert_eq!(got, model.pop_front());
                }
            }
            prop_assert_eq!(w.len(), model.len());
        }
    }

    /// Reducer: for any values and slot assignment, the merged result equals
    /// the plain sum.
    #[test]
    fn reducer_equals_sequential_fold(
        values in proptest::collection::vec((0usize..8, 0u64..1_000), 0..200),
    ) {
        let r = Reducer::new(8, || 0u64, |a, b| a + b);
        let expected: u64 = values.iter().map(|&(_, v)| v).sum();
        for (slot, v) in &values {
            r.with(*slot, |acc| *acc += v);
        }
        prop_assert_eq!(r.finish(), expected);
    }

    /// Simulator: work conservation. For any policy, thread count and
    /// uniform compute-only workload: busy time equals total work, and
    /// makespan is bounded below by work/p and above by work + overhead
    /// (single-worker worst case, plus slack for idle waiting).
    #[test]
    fn simulator_work_conservation(
        policy in policy_strategy(),
        iters in 1u64..50_000,
        work_ns in 1u32..64,
        threads in 1usize..37,
    ) {
        let sim = Simulator { machine: Machine::xeon_e5_2699v3(), cost: CostModel::calibrated() };
        let wl = LoopWorkload::uniform(iters, work_ns as f64);
        let r = sim.run_loop(policy, &wl, threads);
        let total = wl.total_work_ns();
        prop_assert!((r.busy_ns - total).abs() < total * 1e-9 + 1e-6,
            "busy {} vs total {}", r.busy_ns, total);
        prop_assert!(r.makespan_ns >= total / threads as f64 * (1.0 - 1e-9),
            "makespan {} below work/p {}", r.makespan_ns, total / threads as f64);
        prop_assert!(r.makespan_ns.is_finite() && r.makespan_ns > 0.0);
    }

    /// Simulator determinism for arbitrary workloads.
    #[test]
    fn simulator_is_deterministic(
        policy in policy_strategy(),
        iters in 1u64..20_000,
        bytes in 0u32..64,
        spread in 0u32..90,
        threads in 1usize..17,
    ) {
        let sim = Simulator::paper_testbed();
        let wl = LoopWorkload::uniform(iters, 4.0)
            .with_bytes(bytes as f64)
            .with_imbalance(Imbalance::Random { seed: 7, spread: spread as f64 / 100.0 });
        let a = sim.run_loop(policy, &wl, threads);
        let b = sim.run_loop(policy, &wl, threads);
        prop_assert_eq!(a, b);
    }
}
