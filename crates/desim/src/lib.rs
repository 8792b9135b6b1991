//! # tpm-desim — deterministic whole-service simulation
//!
//! FoundationDB-style simulation testing for the `tpm-serve` job service:
//! simulated clients, a seeded virtual network (delay, jitter, drop,
//! duplication, partition), and a simulated server node built on the code
//! the real server runs — [`tpm_serve::engine`]'s session pump, admission
//! decision, reply gate, watchdog arithmetic and reply vocabulary — all on
//! the virtual clock from [`tpm_sim`], so a run is a pure function of its
//! seed. What the node says in each reply and which counter it lands in is
//! `engine`'s code; *when* things happen (queueing, workers, the watchdog's
//! scan, worker death) is this crate's model of the server's threads (the
//! header of `src/sim.rs` spells out the split).
//!
//! What that buys:
//!
//! * **Reproducibility** — `run` with the same [`DesimConfig`] produces a
//!   byte-identical event log every time. A failure seed from a
//!   thousand-seed sweep replays exactly, faults and all.
//! * **Unified faults** — one seeded [`FaultPlan`] drives both in-process
//!   probes (worker panics at pickup, wedged jobs at exec, admission
//!   faults) and network faults (drops, duplicates, partitions, delayed
//!   replies) through [`tpm_fault::PlanEval`]. One seed reproduces the
//!   whole interleaving.
//! * **Invariants, not assertions-by-example** — every run is audited
//!   against a ground-truth message ledger ([`invariants`]):
//!   exactly-one-reply, reply/network conservation, drain completeness,
//!   deadline monotonicity, and metrics conservation
//!   (`admitted == completed + failed + watchdog_shed`).
//! * **Virtual time** — hours of idle traffic simulate in milliseconds;
//!   the wall-clock quarantine in [`clock`] keeps the timeline honest.
//!
//! ```
//! use tpm_core::JobRegistry;
//! use tpm_desim::{run, DesimConfig};
//!
//! let mut reg = JobRegistry::new();
//! reg.register("sum", "echoes the size", 1 << 20, |ctx| Ok(ctx.spec.size as f64));
//! let cfg = DesimConfig { seed: 42, kernel: "sum".into(), ..DesimConfig::default() };
//! let report = run(&cfg, &reg);
//! assert!(report.violations.is_empty(), "{}", report.render_failure());
//! // Same seed → byte-identical log.
//! assert_eq!(report.log, run(&cfg, &reg).log);
//! ```
//!
//! [`FaultPlan`]: tpm_fault::FaultPlan

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod invariants;
pub mod net;
mod sim;

#[allow(unused_imports)]
use crate::clock::Instant; // shadows the std wall-clock type; see clock.rs
use tpm_core::JobRegistry;
use tpm_fault::FaultPlan;
use tpm_serve::Protocol;

/// Deliberately planted service bugs, used to prove the invariant checker
/// has teeth: a clean run must pass, a planted-bug run must fail, and the
/// failing seed is committed as a regression test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Bug {
    /// No planted bug: the production logic, faithfully simulated.
    #[default]
    None,
    /// Skip the drop backstop when a worker dies at pickup: the picked job
    /// vanishes without a reply. Caught by exactly-one-reply,
    /// drain-completeness, and metrics-conservation.
    LoseJobOnWorkerDeath,
    /// The watchdog replies without claiming the [`ReplyGate`], so the
    /// wedged worker answers a second time later. Caught by
    /// exactly-one-reply and metrics-conservation.
    ///
    /// [`ReplyGate`]: tpm_serve::engine::ReplyGate
    WatchdogIgnoresGate,
}

/// One simulation's shape: workload, server sizing, fault plan, seed.
#[derive(Debug, Clone)]
pub struct DesimConfig {
    /// Master seed: drives fault decisions, network jitter, job durations,
    /// and client pacing. Same seed, same run.
    pub seed: u64,
    /// Number of simulated client connections.
    pub clients: usize,
    /// Requests each client sends before the run shuts down.
    pub requests_per_client: usize,
    /// Virtual worker slots on the simulated node.
    pub workers: usize,
    /// Admission queue capacity (beyond it: shed).
    pub queue_capacity: usize,
    /// Server-side cap on `spec.threads`.
    pub max_threads: usize,
    /// Per-request deadline budget; two of three requests carry it.
    pub deadline_ms: Option<u64>,
    /// Watchdog grace multiplier (kill at `deadline + (grace−1)·budget`).
    pub deadline_grace: f64,
    /// Virtual watchdog scan interval.
    pub watchdog_interval_ms: u64,
    /// Wire protocol all simulated clients speak.
    pub protocol: Protocol,
    /// Registered kernel every request runs.
    pub kernel: String,
    /// Problem size per request.
    pub size: usize,
    /// Threads per request (1 keeps kernel outputs bit-deterministic).
    pub threads: usize,
    /// Virtual gap between a client's consecutive requests.
    pub gap_us: u64,
    /// Fault plan; `None` installs a broad default mix. The plan's own
    /// seed is ignored — `seed` above is used, so sweeps reuse one rule
    /// set across thousands of seeds.
    pub plan: Option<FaultPlan>,
    /// Planted bug for invariant-checker validation.
    pub bug: Bug,
}

impl Default for DesimConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            clients: 4,
            requests_per_client: 25,
            workers: 2,
            queue_capacity: 8,
            max_threads: 4,
            deadline_ms: Some(5),
            deadline_grace: 2.0,
            watchdog_interval_ms: 1,
            protocol: Protocol::Json,
            kernel: "sum".to_string(),
            size: 64,
            threads: 1,
            gap_us: 500,
            plan: None,
            bug: Bug::None,
        }
    }
}

/// Counters the simulated node keeps about itself (the "metrics" side of
/// the metrics-conservation invariant) plus network fault tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Requests clients sent (logical sends, not network copies).
    pub requests: u64,
    /// Jobs admitted to the queue.
    pub admitted: u64,
    /// Admitted jobs that completed and replied `ok`.
    pub completed: u64,
    /// Admitted jobs that ended in an error reply (job error, deadline,
    /// injected failure, drop backstop).
    pub failed: u64,
    /// Requests refused before the queue (validation, injected admission
    /// faults).
    pub refused: u64,
    /// Requests shed for load (queue full, queue closed, injected shed).
    pub shed: u64,
    /// Wedged jobs the watchdog killed past their grace.
    pub watchdog_shed: u64,
    /// Frames that failed to parse.
    pub parse_errors: u64,
    /// Worker deaths (injected panics at pickup).
    pub worker_deaths: u64,
    /// Worker slots respawned after a death.
    pub worker_respawns: u64,
    /// Messages the network dropped (drop faults + severed-link losses).
    pub net_dropped: u64,
    /// Messages the network duplicated.
    pub net_duplicated: u64,
    /// Messages the network delayed beyond base latency.
    pub net_delayed: u64,
    /// Partition events (each severs one link for a while).
    pub partitions: u64,
    /// Replies clients successfully decoded.
    pub replies_decoded: u64,
    /// Request copies that arrived after the server finished draining.
    pub delivered_after_stop: u64,
    /// Total fault-plan rule firings across all sites.
    pub faults_fired: u64,
}

/// What one simulation run produced.
#[derive(Debug)]
pub struct DesimReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Virtual time at which the last event fired.
    pub virtual_ns: u64,
    /// The canonical event log — byte-identical for identical configs.
    pub log: String,
    /// Invariant violations; empty means the run passed.
    pub violations: Vec<String>,
    /// The node's own counters plus network tallies.
    pub stats: SimStats,
    /// Every reply a simulated client decoded, as `(client, reply)` in
    /// arrival order — what the node *said*, next to what it counted.
    pub replies: Vec<(usize, tpm_serve::Response)>,
    /// Human-readable dump of the fault plan that shaped the run
    /// ([`FaultPlan::describe`]), for failure reports.
    pub plan_summary: String,
}

impl DesimReport {
    /// True when at least one invariant was violated.
    #[must_use]
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }

    /// A self-contained failure report: seed, the fault plan that shaped
    /// the run, every violation, and the tail of the event log.
    #[must_use]
    pub fn render_failure(&self) -> String {
        let mut out = format!("desim seed {} failed\n{}", self.seed, self.plan_summary);
        out.push_str("violations:\n");
        for v in &self.violations {
            out.push_str("  - ");
            out.push_str(v);
            out.push('\n');
        }
        let lines: Vec<&str> = self.log.lines().collect();
        let tail = 40.min(lines.len());
        out.push_str(&format!("log tail ({tail} of {} events):\n", lines.len()));
        for line in &lines[lines.len() - tail..] {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Runs one simulation to completion and audits it against the invariant
/// suite. Deterministic: the returned [`DesimReport::log`] is a pure
/// function of `(cfg, registry)`.
pub fn run(cfg: &DesimConfig, registry: &JobRegistry) -> DesimReport {
    sim::Sim::new(cfg, registry).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpm_fault::{FaultKind, FaultPlan, Site, SiteRule};

    fn test_registry() -> JobRegistry {
        let mut r = JobRegistry::new();
        r.register("sum", "echoes the size", 1 << 20, |ctx| {
            Ok(ctx.spec.size as f64)
        });
        r
    }

    fn small(seed: u64) -> DesimConfig {
        DesimConfig {
            seed,
            clients: 3,
            requests_per_client: 8,
            ..DesimConfig::default()
        }
    }

    #[test]
    fn same_seed_replays_byte_identically() {
        let reg = test_registry();
        let cfg = small(7);
        let a = run(&cfg, &reg);
        let b = run(&cfg, &reg);
        assert_eq!(a.log, b.log, "same seed must replay byte-identically");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.virtual_ns, b.virtual_ns);
    }

    #[test]
    fn different_seeds_diverge() {
        let reg = test_registry();
        let a = run(&small(1), &reg);
        let b = run(&small(2), &reg);
        assert_ne!(a.log, b.log);
    }

    #[test]
    fn invariants_hold_across_a_seed_sweep() {
        let reg = test_registry();
        for seed in 1..=25 {
            let report = run(&small(seed), &reg);
            assert!(report.violations.is_empty(), "{}", report.render_failure());
            assert!(report.stats.requests > 0);
        }
    }

    #[test]
    fn one_plan_injects_in_process_and_network_faults_in_one_run() {
        let reg = test_registry();
        let plan = FaultPlan {
            seed: 0,
            rules: vec![
                SiteRule::nth(Site::WorkerPickup, FaultKind::Panic, 2),
                SiteRule::nth(Site::NetDeliver, FaultKind::TaskDrop, 3),
            ],
        };
        let cfg = DesimConfig {
            plan: Some(plan),
            ..small(5)
        };
        let report = run(&cfg, &reg);
        assert!(report.violations.is_empty(), "{}", report.render_failure());
        assert_eq!(report.stats.worker_deaths, 1, "in-process fault fired");
        assert_eq!(report.stats.net_dropped, 1, "network fault fired");
        assert_eq!(report.stats.worker_respawns, 1, "death healed by respawn");
    }

    /// Regression: seed 11 with the lost-job bug planted. The worker-death
    /// drop backstop is skipped, and the invariant checker must notice the
    /// job that vanished without a reply. (This is the "deliberately
    /// introduced bug" demonstration: the same seed with `Bug::None`
    /// passes.)
    #[test]
    fn planted_lost_job_bug_is_caught() {
        let reg = test_registry();
        let plan = FaultPlan {
            seed: 0,
            rules: vec![SiteRule::nth(Site::WorkerPickup, FaultKind::Panic, 2)],
        };
        let clean = DesimConfig {
            seed: 11,
            plan: Some(plan.clone()),
            ..small(11)
        };
        assert!(!run(&clean, &reg).failed(), "clean run must pass");
        let buggy = DesimConfig {
            bug: Bug::LoseJobOnWorkerDeath,
            ..clean
        };
        let report = run(&buggy, &reg);
        assert!(report.failed(), "planted bug must be caught");
        let text = report.violations.join("\n");
        assert!(text.contains("exactly-one-reply"), "{text}");
        assert!(text.contains("metrics-conservation"), "{text}");
    }

    /// Regression: a watchdog that replies without claiming the gate
    /// double-answers a wedged job; exactly-one-reply must catch it.
    #[test]
    fn planted_watchdog_gate_bug_is_caught() {
        let reg = test_registry();
        let mut wedge = SiteRule::nth(Site::TaskExec, FaultKind::Delay, 1);
        wedge.delay_us = 25_000;
        let plan = FaultPlan {
            seed: 0,
            rules: vec![wedge],
        };
        let clean = DesimConfig {
            seed: 3,
            plan: Some(plan),
            ..small(3)
        };
        let clean_report = run(&clean, &reg);
        assert!(!clean_report.failed(), "{}", clean_report.render_failure());
        assert_eq!(clean_report.stats.watchdog_shed, 1, "the wedge must wedge");
        let buggy = DesimConfig {
            bug: Bug::WatchdogIgnoresGate,
            ..clean
        };
        let report = run(&buggy, &reg);
        assert!(report.failed(), "planted bug must be caught");
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("exactly-one-reply")),
            "{}",
            report.violations.join("\n")
        );
    }

    #[test]
    fn binary_protocol_runs_clean_too() {
        let reg = test_registry();
        let cfg = DesimConfig {
            protocol: Protocol::Binary,
            ..small(9)
        };
        let report = run(&cfg, &reg);
        assert!(report.violations.is_empty(), "{}", report.render_failure());
        assert!(report.stats.replies_decoded > 0);
    }

    #[test]
    fn idle_heavy_run_fast_forwards_virtual_time() {
        let reg = test_registry();
        let cfg = DesimConfig {
            gap_us: 1_000_000, // 1 s between requests: idle-heavy
            requests_per_client: 10,
            clients: 2,
            ..small(4)
        };
        let report = run(&cfg, &reg);
        assert!(report.violations.is_empty(), "{}", report.render_failure());
        // ~9 s of virtual idle time must actually appear on the virtual
        // clock (the wall cost is a few ms — the harness measures that).
        assert!(
            report.virtual_ns > 8_000_000_000,
            "virtual_ns = {}",
            report.virtual_ns
        );
    }

    /// The deflake guard's second half (the first is the `compile_fail`
    /// doctest in `clock`): no simulator source reaches for the wall
    /// clock. Banned tokens are assembled at runtime so this test's own
    /// source doesn't trip itself.
    #[test]
    fn sim_sources_never_touch_the_wall_clock() {
        let sources = [
            ("lib.rs", include_str!("lib.rs")),
            ("sim.rs", include_str!("sim.rs")),
            ("net.rs", include_str!("net.rs")),
            ("invariants.rs", include_str!("invariants.rs")),
        ];
        let banned = [
            format!("std::{}::Instant", "time"),
            format!("{}::now", "Instant"),
            format!("System{}", "Time"),
        ];
        for (name, src) in sources {
            for b in &banned {
                assert!(
                    !src.contains(b.as_str()),
                    "{name} reaches for the wall clock via {b}"
                );
            }
        }
    }
}
