//! A tour of the three runtimes' native APIs — the constructs behind the
//! unified `Executor` interface, used directly.
//!
//! ```sh
//! cargo run --example runtime_tour
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use threadcmp::forkjoin::{Schedule, Team};
use threadcmp::rawthreads::{self, Launch};
use threadcmp::worksteal::{self, Grain, Runtime};

fn main() {
    // ---- OpenMP analogue: fork-join team, worksharing, tasks -------------
    println!("== tpm-forkjoin (OpenMP-like) ==");
    let team = Team::new(4);
    let hits = AtomicU64::new(0);
    team.parallel(|ctx| {
        // Worksharing loop with dynamic schedule + implicit barrier.
        ctx.ws_for(Schedule::Dynamic { chunk: 16 }, 0..100, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        // One thread prints; others wait at the implicit barrier.
        ctx.single(|| {
            println!(
                "  worksharing visited {} iterations",
                hits.load(Ordering::Relaxed)
            )
        });
        // Explicit tasks with a taskwait.
        ctx.single(|| {
            ctx.task_scope(|s| {
                for i in 0..4 {
                    s.spawn(move |c| {
                        println!("  task {i} executed by thread {}", c.thread_num());
                    });
                }
            });
        });
    });
    let reduced = team.parallel_for_reduce(
        4,
        Schedule::Static,
        0..1000,
        || 0u64,
        |a, b| a + b,
        |chunk, acc| {
            for i in chunk {
                *acc += i as u64;
            }
        },
    );
    println!("  reduction over the team: {reduced}");

    // ---- Cilk Plus analogue: join, scope, par_for, reducers --------------
    println!("== tpm-worksteal (Cilk-Plus-like) ==");
    let rt = Runtime::new(4);
    let (left, right) = rt.install(|ctx| {
        worksteal::join(
            ctx,
            |_| (0..500u64).sum::<u64>(),
            |_| (500..1000u64).sum::<u64>(),
        )
    });
    println!("  join: {left} + {right} = {}", left + right);
    let total = rt.install(|ctx| {
        worksteal::par_for_reduce(
            ctx,
            0..1000,
            Grain::Auto,
            || 0u64,
            |a, b| a + b,
            |chunk, acc| {
                for i in chunk {
                    *acc += i as u64;
                }
            },
        )
    });
    println!("  par_for_reduce (reducer hyperobject): {total}");
    println!("  steals so far: {}", rt.stats().snapshot().steals);

    // ---- C++11 analogue: raw threads and futures --------------------------
    println!("== tpm-rawthreads (C++11-like) ==");
    let sum = rawthreads::threads_for_reduce(
        4,
        0..1000,
        |_tid, chunk| chunk.map(|i| i as u64).sum::<u64>(),
        |a, b| a + b,
        0,
    );
    println!("  threads_for_reduce (4 fresh OS threads): {sum}");
    let fut = rawthreads::async_task(Launch::Async, || 21 * 2);
    let lazy = rawthreads::async_task(Launch::Deferred, || "deferred ran on get()");
    println!("  std::async analogue: {} / {}", fut.get(), lazy.get());
    // The paper's Fibonacci failure mode, contained by a thread budget:
    let budget = rawthreads::ThreadBudget::new(128);
    match rawthreads::fib_thread_per_call(20, &budget) {
        Ok(v) => println!("  naive fib(20) unexpectedly finished: {v}"),
        Err(e) => {
            println!("  naive thread-per-call fib(20): {e} (the paper: \"the system hangs\")")
        }
    }
    println!(
        "  fib(20) with BASE cutoff: {}",
        rawthreads::fib_with_cutoff(20, 12)
    );
}
