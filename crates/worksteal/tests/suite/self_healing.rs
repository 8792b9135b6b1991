// The self-healing suite of the pool core (`src/pool.rs`), written once
// and run against each front end: `tests/self_healing.rs` here includes it
// for `Runtime`, and `tpm-actors`' `tests/self_healing.rs` for
// `ActorRuntime`. Each includer is a test binary of its own holding only
// these tests, and each test holds `tpm_fault::session_serial()`: fault
// plans are process-global, so no other test's runtime may be alive to
// take a planned fire.
//
// `self_healing_tests!(new, width)`: `new(n)` builds a runtime of `n`
// workers (with `live_workers`/`worker_deaths`); `width(&rt)` runs one item
// on it and returns the worker count that item saw.

macro_rules! self_healing_tests {
    ($new:expr, $width:expr) => {
        use std::time::{Duration, Instant};
        use tpm_fault::{FaultKind, FaultPlan, FaultSession, Site, SiteRule};

        /// Kills `deaths` workers: panic rules are inert at the wait-path
        /// steal probes, so each fire lands at a worker-loop top-level probe,
        /// where death + respawn containment exists.
        fn death_plan(deaths: u64) -> FaultPlan {
            FaultPlan::single(SiteRule {
                max_fires: deaths,
                ..SiteRule::prob(Site::StealAttempt, FaultKind::Panic, 1.0)
            })
        }

        fn wait_for(cond: impl Fn() -> bool) -> bool {
            let end = Instant::now() + Duration::from_secs(10);
            while Instant::now() < end {
                if cond() {
                    return true;
                }
                std::thread::yield_now();
            }
            cond()
        }

        #[test]
        fn injected_worker_death_respawns_and_runtime_stays_usable() {
            let _serial = tpm_fault::session_serial();
            let rt = $new(3);
            assert_eq!($width(&rt), 3);
            assert_eq!(rt.live_workers(), 3);
            let session = FaultSession::install(&death_plan(1));
            assert!(
                wait_for(|| rt.worker_deaths() == 1 && rt.live_workers() == 3),
                "worker should die exactly once and be replaced (deaths={}, live={})",
                rt.worker_deaths(),
                rt.live_workers()
            );
            let report = session.report();
            assert_eq!(report.fired.len(), 1);
            assert_eq!(report.fired[0].site, Site::StealAttempt);
            assert_eq!(report.fired[0].kind, FaultKind::Panic);
            // The healed pool runs new work at full width.
            assert_eq!($width(&rt), 3);
            drop(rt); // must join the replacement thread without hanging
        }

        #[test]
        fn drop_immediately_after_worker_death_does_not_hang() {
            let _serial = tpm_fault::session_serial();
            let rt = $new(2);
            let session = FaultSession::install(&death_plan(1));
            assert!(
                wait_for(|| rt.worker_deaths() == 1),
                "injected death should land"
            );
            // Drop races the respawn: whether or not the replacement got
            // spawned before shutdown, neither path may hang.
            drop(rt);
            drop(session);
        }

        #[test]
        fn runtime_survives_repeated_deaths() {
            let _serial = tpm_fault::session_serial();
            let rt = $new(2);
            let session = FaultSession::install(&death_plan(3));
            assert!(
                wait_for(|| rt.worker_deaths() == 3 && rt.live_workers() == 2),
                "three deaths, each healed (deaths={}, live={})",
                rt.worker_deaths(),
                rt.live_workers()
            );
            drop(session);
            assert_eq!($width(&rt), 2);
        }
    };
}

