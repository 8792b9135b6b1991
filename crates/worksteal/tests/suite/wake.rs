// The idle-wait suite of the runtimes' one park path (`tpm_sync::Sleepers`),
// written once and run against each front end that parks through it:
// `tests/wake.rs` here includes it for `Runtime`, `tpm-actors`'
// `tests/wake.rs` for `ActorRuntime`, and `tpm-forkjoin`'s `tests/wake.rs`
// for `Team`.
//
// `wake_tests!(new, submit, sizes)`: `new(n, (spin, yield))` builds a
// runtime of `n` threads with that idle window; `submit(&rt, body)` runs one
// item that calls `body` (a team runs `body` on each of its workers, so its
// master only waits, as a pool's caller does) and returns once the item
// ran; `rt.stats()` is its scheduler counters. `sizes` are the two thread
// counts that give the runtime one and two spawned workers that can park (a
// team's master is the caller's thread, and so is a stealing pool's worker 0
// once it has two or more workers).

/// The suite's tests run one at a time: `submitter_sleeps_through_a_long_region`
/// reads CPU time, which shows a spinning or yielding caller only while the
/// test's own threads have the CPUs to themselves (a yield that hands the
/// CPU to another test's thread costs the yielder nothing).
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Holds the suite's CPUs for one test (a failed test does not block the
/// rest).
fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

macro_rules! wake_tests {
    ($new:expr, $submit:expr, $sizes:expr) => {
        use std::sync::mpsc;
        use std::time::{Duration, Instant};
        use tpm_sync::rng::SplitMix64;

        /// The idle window every runtime starts from.
        const DEFAULT_IDLE: (u32, u32) = (
            tpm_sync::IdleStrategy::RUNTIME_DEFAULT_SPIN,
            tpm_sync::IdleStrategy::RUNTIME_DEFAULT_YIELD,
        );

        /// Runs `f` on a thread of its own and fails if it has not returned
        /// within `limit`: with no timed poll behind the wake-up, a lost
        /// wake-up hangs instead of costing latency.
        fn within(limit: Duration, f: impl FnOnce() + Send + 'static) {
            let (tx, rx) = mpsc::channel();
            let h = std::thread::spawn(move || {
                f();
                let _ = tx.send(());
            });
            if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(limit) {
                panic!("no progress within {limit:?}: a wake-up was lost");
            }
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }

        #[test]
        fn seeded_random_gaps_lose_no_wake_up() {
            let _cpus = serial();
            within(Duration::from_secs(120), || {
                // A lost wake-up needs the submission to land while a worker
                // is between its last look for work and its announcement as
                // a sleeper, that is, at the end of its idle window. Gaps
                // are log-uniform over 0.5 µs..0.5 ms and busy-waited (a
                // sleep oversleeps by tens of µs), so they straddle the end
                // of both a one-round window and the default one.
                // With one parking worker no other worker can cover for a
                // lost wake-up; with two, wake_one must pick a sleeper.
                for (threads, idle) in $sizes
                    .into_iter()
                    .flat_map(|n| [(n, (1, 1)), (n, DEFAULT_IDLE)])
                {
                    let rt = $new(threads, idle);
                    let mut rng = SplitMix64::new(0x5EED_0031);
                    for _ in 0..1000 {
                        $submit(&rt, || {});
                        let gap_ns = (500.0 * 1000f64.powf(rng.next_f64())) as u64;
                        let until = Instant::now() + Duration::from_nanos(gap_ns);
                        while Instant::now() < until {
                            std::hint::spin_loop();
                        }
                    }
                }
            });
        }

        #[test]
        fn idle_runtime_parks_once_per_worker() {
            let _cpus = serial();
            let rt = $new($sizes[1], DEFAULT_IDLE);
            $submit(&rt, || {});
            let before = rt.stats().snapshot().parks;
            std::thread::sleep(Duration::from_millis(100));
            let grown = rt.stats().snapshot().parks - before;
            // Each worker may finish its window and park once in here; a
            // worker that polls would count a park per poll.
            assert!(
                grown <= rt.stats().num_workers() as u64,
                "{grown} parks in 100 ms of idleness"
            );
        }

        #[test]
        fn back_to_back_submissions_stay_hot() {
            let _cpus = serial();
            // One worker: with two, each submission would also wake the
            // idle one, which finds nothing and parks again.
            let rt = $new($sizes[0], DEFAULT_IDLE);
            $submit(&rt, || {});
            let before = rt.stats().snapshot().parks;
            for _ in 0..1000 {
                $submit(&rt, || {});
            }
            let parks = rt.stats().snapshot().parks - before;
            // The next submission lands inside the idle window, so almost
            // none of them should cost a park and a wake-up.
            assert!(parks < 100, "{parks} parks over 1000 back-to-back submissions");
        }

        /// CPU time the calling thread has run, from the scheduler's own
        /// accounting (user and system time, yields included).
        #[cfg(target_os = "linux")]
        fn thread_cpu() -> Duration {
            let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
                .expect("schedstat is readable");
            let ns = stat.split_whitespace().next().and_then(|f| f.parse().ok());
            Duration::from_nanos(ns.expect("schedstat starts with the run time in ns"))
        }

        /// Busy for 200 ms.
        #[cfg(target_os = "linux")]
        fn long_region() {
            let until = Instant::now() + Duration::from_millis(200);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }

        #[cfg(target_os = "linux")]
        #[test]
        fn submitter_sleeps_through_a_long_region() {
            let _cpus = serial();
            let rt = $new($sizes[0], DEFAULT_IDLE);
            $submit(&rt, || {});
            let cpu = thread_cpu();
            let started = Instant::now();
            $submit(&rt, long_region);
            let wall = started.elapsed();
            let waiting = thread_cpu() - cpu;
            // The submitting thread must leave the CPUs to the workers: a
            // caller that spins or yields for the whole region runs a third
            // thread beside them.
            assert!(
                waiting < wall / 10,
                "the submitting thread ran {waiting:?} of a {wall:?} region"
            );
        }
    };
}
