//! Integration + property tests for the extended features: task
//! dependencies, `sections`, cancellation, and future chaining.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

use threadcmp::forkjoin::{DepTracker, Schedule, Team};
use threadcmp::rawthreads::{async_task, Launch};

#[test]
fn dependencies_order_a_diamond() {
    // top -> (left, right) -> bottom, checked via a sequence log.
    let team = Team::new(4);
    let log = std::sync::Mutex::new(Vec::new());
    team.parallel(|ctx| {
        ctx.single(|| {
            ctx.task_scope(|s| {
                let mut deps = DepTracker::new();
                let t = deps.slot();
                let l = deps.slot();
                let r = deps.slot();
                let log = &log;
                deps.spawn_dep(s, &[], &[t], move |_| log.lock().unwrap().push("top"));
                deps.spawn_dep(s, &[t], &[l], move |_| log.lock().unwrap().push("left"));
                deps.spawn_dep(s, &[t], &[r], move |_| log.lock().unwrap().push("right"));
                deps.spawn_dep(s, &[l, r], &[], move |_| log.lock().unwrap().push("bottom"));
            });
        });
    });
    let log = log.into_inner().unwrap();
    assert_eq!(log.len(), 4);
    assert_eq!(log[0], "top");
    assert_eq!(log[3], "bottom");
}

#[test]
fn sections_and_cancel_via_public_api() {
    let team = Team::new(2);
    let ran = AtomicU64::new(0);
    team.parallel(|ctx| {
        ctx.sections(&[
            &|| {
                ran.fetch_add(1, Ordering::Relaxed);
            },
            &|| {
                ran.fetch_add(10, Ordering::Relaxed);
            },
        ]);
        ctx.ws_for(Schedule::Dynamic { chunk: 1 }, 0..100, |i| {
            if i == 0 {
                ctx.cancel();
            }
        });
    });
    assert_eq!(ran.into_inner(), 11);
}

#[test]
fn future_chain_crosses_policies() {
    let v = async_task(Launch::Deferred, || 10)
        .and_then(Launch::Async, |x| x + 5)
        .and_then(Launch::Deferred, |x| x * 2)
        .get();
    assert_eq!(v, 30);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A random chain of dependent inout tasks applies its operations in
    /// spawn order (the OpenMP `depend` guarantee).
    #[test]
    fn dependent_chain_is_ordered(ops in proptest::collection::vec(1u64..5, 1..12)) {
        let team = Team::new(3);
        let value = AtomicU64::new(1);
        let expected: u64 = ops.iter().fold(1, |acc, &k| acc * 10 + k);
        team.parallel(|ctx| {
            ctx.single(|| {
                ctx.task_scope(|s| {
                    let mut deps = DepTracker::new();
                    let x = deps.slot();
                    for &k in &ops {
                        let value = &value;
                        deps.spawn_dep(s, &[x], &[x], move |_| {
                            let v = value.load(Ordering::Acquire);
                            value.store(v * 10 + k, Ordering::Release);
                        });
                    }
                });
            });
        });
        prop_assert_eq!(value.into_inner(), expected);
    }
}
