// The caller's seat of the pool core (`src/pool.rs`), written once and run
// against each front end: `tests/seat.rs` here includes it for `Runtime`,
// and `tpm-actors`' `tests/seat.rs` for `ActorRuntime`. A pool of P ≥ 2
// workers spawns P − 1 threads and the thread that waits on it works as
// worker 0; a pool of one spawns one.
//
// `seat_tests!(Rt, new, prefix, region)`: `new(n)` builds an `Rt` of `n`
// workers whose spawned threads are named `{prefix}-{i}`; `region(&rt,
// pieces, body)` submits `pieces` (1 or 2) items that each call `body`, and
// returns once they all ran, re-raising a panic of `body`.
//
// The tests run one at a time: they count the process's threads by name and
// add up their CPU time, which another test's runtime would disturb.

static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

macro_rules! seat_tests {
    ($rt:ty, $new:expr, $prefix:expr, $region:expr) => {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::sync::mpsc;
        use std::time::{Duration, Instant};

        /// How long a test that waits on the pool may take.
        const LIMIT: Duration = Duration::from_secs(60);

        /// Runs `f` on a thread of its own and fails if it has not returned
        /// within `limit`, so a lost wake-up fails instead of hanging.
        fn within(limit: Duration, f: impl FnOnce() + Send + 'static) {
            let (tx, rx) = mpsc::channel();
            let h = std::thread::spawn(move || {
                f();
                let _ = tx.send(());
            });
            if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(limit) {
                panic!("no progress within {limit:?}");
            }
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }

        /// The process's threads whose name starts with the pool's prefix
        /// (a name is at most 15 bytes in `comm`, enough for `{prefix}-9`).
        #[cfg(target_os = "linux")]
        fn pool_threads() -> Vec<std::path::PathBuf> {
            std::fs::read_dir("/proc/self/task")
                .expect("/proc/self/task is readable")
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|task| {
                    std::fs::read_to_string(task.join("comm"))
                        .is_ok_and(|comm| comm.starts_with($prefix))
                })
                .collect()
        }

        #[cfg(target_os = "linux")]
        fn settles_at(threads: usize) -> bool {
            let end = Instant::now() + Duration::from_secs(10);
            while pool_threads().len() != threads {
                if Instant::now() > end {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            // A thread names itself once it runs: give a late one the time
            // to show up.
            std::thread::sleep(Duration::from_millis(50));
            pool_threads().len() == threads
        }

        /// The run time of a thread, in ns, from the scheduler's accounting.
        #[cfg(target_os = "linux")]
        fn run_ns(task: &std::path::Path) -> u64 {
            std::fs::read_to_string(task.join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse().ok())
                .unwrap_or(0)
        }

        /// CPU time the calling thread and the pool's threads have run.
        #[cfg(target_os = "linux")]
        fn caller_and_pool_cpu() -> Duration {
            let caller = run_ns(std::path::Path::new("/proc/thread-self"));
            let pool: u64 = pool_threads().iter().map(|t| run_ns(t)).sum();
            Duration::from_nanos(caller + pool)
        }

        /// Whether the calling thread works on the pool during a region:
        /// of two items, one that runs elsewhere holds its worker until one
        /// has run here, which only a seated caller can do.
        fn runs_seated(rt: &$rt) -> bool {
            let caller = std::thread::current().id();
            let here = AtomicBool::new(false);
            $region(rt, 2, &|| {
                if std::thread::current().id() == caller {
                    here.store(true, Ordering::Release);
                    return;
                }
                let end = Instant::now() + Duration::from_secs(10);
                while !here.load(Ordering::Acquire) && Instant::now() < end {
                    std::hint::spin_loop();
                }
            });
            here.load(Ordering::Acquire)
        }

        #[cfg(target_os = "linux")]
        #[test]
        fn a_pool_spawns_one_thread_fewer_than_its_workers() {
            let _cpus = serial();
            assert!(settles_at(0), "a previous test's pool is still alive");
            for (workers, spawned) in [(1, 1), (2, 1), (3, 2)] {
                let rt = $new(workers);
                assert_eq!(rt.num_workers(), workers);
                assert_eq!(rt.live_workers(), workers);
                assert!(
                    settles_at(spawned),
                    "{workers} workers: {} pool threads, want {spawned}",
                    pool_threads().len()
                );
                drop(rt);
                assert!(settles_at(0), "dropped pool left threads behind");
            }
        }

        #[test]
        fn the_caller_works_as_worker_zero() {
            let _cpus = serial();
            within(LIMIT, || {
                let rt = $new(2);
                assert!(runs_seated(&rt));
                // A one-worker pool has no seat: its one spawned worker runs
                // everything.
                let one = $new(1);
                let caller = std::thread::current().id();
                let on_caller = AtomicUsize::new(0);
                $region(&one, 2, &|| {
                    if std::thread::current().id() == caller {
                        on_caller.fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert_eq!(on_caller.load(Ordering::Relaxed), 0);
            });
        }

        #[test]
        fn two_outside_callers_share_the_seat() {
            let _cpus = serial();
            within(Duration::from_secs(120), || {
                let rt = $new(2);
                std::thread::scope(|s| {
                    for _ in 0..2 {
                        s.spawn(|| {
                            let ran = AtomicUsize::new(0);
                            for i in 1..=1000 {
                                $region(&rt, 2, &|| {
                                    ran.fetch_add(1, Ordering::Relaxed);
                                });
                                assert_eq!(ran.load(Ordering::Relaxed), 2 * i);
                            }
                        });
                    }
                });
            });
        }

        #[test]
        fn a_panicking_seated_region_gives_the_seat_back() {
            let _cpus = serial();
            within(LIMIT, || {
                let rt = $new(2);
                assert!(runs_seated(&rt));
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    $region(&rt, 1, &|| panic!("seated boom"));
                }));
                assert!(r.is_err(), "the region's panic must reach the caller");
                assert!(runs_seated(&rt), "the next region must run seated");
            });
        }

        #[cfg(target_os = "linux")]
        #[test]
        fn a_seated_long_region_costs_one_thread_of_cpu() {
            let _cpus = serial();
            within(LIMIT, || {
                let rt = $new(2);
                $region(&rt, 1, &|| {});
                // Let the spawned worker run out its window and park.
                std::thread::sleep(Duration::from_millis(20));
                let cpu = caller_and_pool_cpu();
                let started = Instant::now();
                $region(&rt, 1, &|| {
                    let until = Instant::now() + Duration::from_millis(200);
                    while Instant::now() < until {
                        std::hint::spin_loop();
                    }
                });
                let wall = started.elapsed();
                let used = caller_and_pool_cpu() - cpu;
                // One thread runs the item; the other (the seated caller or
                // the spawned worker) parks once its idle window runs out.
                assert!(
                    used < wall + wall / 4,
                    "caller and pool ran {used:?} over a {wall:?} one-item region"
                );
            });
        }
    };
}
