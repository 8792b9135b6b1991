//! Stress and property tests for the scheduler hot-path optimizations:
//! batched stealing on the Chase–Lev deque, the batched dynamic-loop claims
//! of the worksharing schedule, and the adaptive `par_for` grain. These run with trace capture compiled in (the workspace root's
//! dev profile), so the hot paths are exercised with their instrumentation.

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

use threadcmp::forkjoin::{Schedule, Team};
use threadcmp::sync::chase_lev;
use threadcmp::worksteal::{par_for, Grain, Runtime};

/// N thieves batch-steal from one owner that concurrently pushes and pops;
/// every pushed item must be consumed exactly once, whether it left through
/// the owner's pop or through a thief's transferred batch.
#[test]
fn steal_batch_delivers_every_item_exactly_once_under_contention() {
    const ITEMS: usize = 100_000;
    const THIEVES: usize = 4;
    let (owner, stealer) = chase_lev::deque::<usize>(8);
    let done = AtomicUsize::new(0);
    let sink: Vec<Mutex<Vec<usize>>> = (0..THIEVES).map(|_| Mutex::new(Vec::new())).collect();
    let mut kept = Vec::new();
    std::thread::scope(|s| {
        for slot in &sink {
            let stealer = stealer.clone();
            let done = &done;
            s.spawn(move || {
                // Each thief drains batches through its own deque, exactly
                // like a runtime worker, popping everything it transferred.
                let (mine, _mine_stealer) = chase_lev::deque::<usize>(8);
                let mut got = Vec::new();
                loop {
                    let n = stealer.steal_batch_into(&mine, 32);
                    if n == 0 {
                        if done.load(Ordering::Acquire) == 1 && stealer.is_empty() {
                            break;
                        }
                        std::thread::yield_now();
                    } else {
                        while let Some(v) = mine.pop() {
                            got.push(v);
                        }
                    }
                }
                *slot.lock().unwrap() = got;
            });
        }
        // The owner interleaves pushes with occasional pops (the LIFO fast
        // path the batch CAS must not double-consume against).
        for i in 0..ITEMS {
            owner.push(i);
            if i % 5 == 0 {
                if let Some(v) = owner.pop() {
                    kept.push(v);
                }
            }
        }
        while let Some(v) = owner.pop() {
            kept.push(v);
        }
        done.store(1, Ordering::Release);
    });
    let mut all = kept;
    for slot in &sink {
        all.extend(slot.lock().unwrap().iter().copied());
    }
    assert_eq!(all.len(), ITEMS, "every item consumed exactly once");
    let distinct: HashSet<usize> = all.iter().copied().collect();
    assert_eq!(distinct.len(), ITEMS, "no duplicates");
}

/// Same protocol, but the items are drop-counted: a lost race inside the
/// batch loop must neither leak nor double-drop.
#[test]
fn steal_batch_neither_leaks_nor_double_drops() {
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Tracked;
    impl Drop for Tracked {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }
    const ITEMS: usize = 20_000;
    {
        let (owner, stealer) = chase_lev::deque::<Tracked>(8);
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let stealer = stealer.clone();
                let done = &done;
                s.spawn(move || {
                    let (mine, _ms) = chase_lev::deque::<Tracked>(8);
                    loop {
                        if stealer.steal_batch_into(&mine, 16) == 0 {
                            if done.load(Ordering::Acquire) == 1 && stealer.is_empty() {
                                break;
                            }
                            std::thread::yield_now();
                        } else {
                            while let Some(v) = mine.pop() {
                                drop(v);
                            }
                        }
                    }
                });
            }
            for _ in 0..ITEMS {
                owner.push(Tracked);
            }
            while let Some(v) = owner.pop() {
                drop(v);
            }
            done.store(1, Ordering::Release);
        });
    }
    assert_eq!(DROPS.load(Ordering::Relaxed), ITEMS);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The batched dynamic-claim path covers exactly for any chunk size.
    #[test]
    fn batched_dynamic_covers_any_range(
        len in 1usize..5000,
        chunk in 1usize..64,
        threads in 1usize..5,
    ) {
        let team = Team::new(threads);
        let flags: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
        team.parallel_for(threads, Schedule::Dynamic { chunk }, 0..len, |i| {
            flags[i].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }

    /// `Grain::Auto` (uncapped leaf size + splitting depth cap) still
    /// covers every iteration exactly once.
    #[test]
    fn auto_grain_covers_any_range(len in 0usize..3000, threads in 1usize..5) {
        let rt = Runtime::new(threads);
        let flags: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
        rt.install(|ctx| {
            par_for(ctx, 0..len, Grain::Auto, &|chunk| {
                for i in chunk {
                    flags[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        prop_assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }
}
