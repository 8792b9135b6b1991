//! The caller's seat on the pool core, driven through an
//! [`ActorRuntime`]'s loop entry.

use tpm_actors::{scatter_for_indexed_cancel, ActorRuntime};
use tpm_sync::CancelToken;

include!("../../worksteal/tests/suite/seat.rs");

seat_tests!(
    ActorRuntime,
    ActorRuntime::new,
    "tpm-actors",
    |rt: &ActorRuntime, pieces: usize, body: &(dyn Fn() + Sync)| {
        scatter_for_indexed_cancel(rt, 0..pieces, 1, &CancelToken::new(), |_, _| body())
    }
);

/// A loop's caller whose own piece is done while a worker still runs the
/// other: back in the seat with nothing to run, it must park, not spin or
/// yield beside the worker. (A `Runtime` caller that runs the root job
/// waits inside it, at the join, so this shape is the actor loops'.)
#[cfg(target_os = "linux")]
#[test]
fn a_seated_caller_parks_while_a_worker_finishes_the_loop() {
    let _cpus = serial();
    within(LIMIT, || {
        let rt = ActorRuntime::new(2);
        let caller = std::thread::current().id();
        let elsewhere = AtomicBool::new(false);
        let self_cpu = || run_ns(std::path::Path::new("/proc/thread-self"));
        let cpu = self_cpu();
        let started = Instant::now();
        scatter_for_indexed_cancel(&rt, 0..2, 1, &CancelToken::new(), |_, _| {
            if std::thread::current().id() == caller {
                // Hand the other piece to the worker.
                let end = Instant::now() + Duration::from_secs(10);
                while !elsewhere.load(Ordering::Acquire) && Instant::now() < end {
                    std::hint::spin_loop();
                }
            } else {
                elsewhere.store(true, Ordering::Release);
                let until = Instant::now() + Duration::from_millis(200);
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
        });
        let wall = started.elapsed();
        let waiting = Duration::from_nanos(self_cpu() - cpu);
        assert!(
            elsewhere.load(Ordering::Acquire),
            "no piece ran on the worker"
        );
        assert!(
            waiting < wall / 10,
            "the seated caller ran {waiting:?} of a {wall:?} loop"
        );
    });
}
