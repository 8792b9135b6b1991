//! # tpm-fault — deterministic fault injection for the threadcmp runtimes
//!
//! The paper's Table II singles out *error handling* as the weakest feature
//! dimension across threading models; this crate makes it a measurable axis
//! of ours. The runtimes call [`probe`] at a handful of well-defined
//! injection points ([`Site`]); an installed [`FaultPlan`] decides — purely
//! from `(seed, site, hit index)` — whether that probe fires a fault
//! ([`FaultKind`]): a panic, a delay, a forced steal miss, or a dropped unit
//! of work.
//!
//! The probes are always compiled in. With no plan installed, a [`probe`]
//! is one atomic load of an inline flag; the plan lookup is a cold,
//! out-of-line call made only while a [`FaultSession`] is live. Drive it
//! with:
//!
//! ```text
//! cargo test --test chaos
//! cargo run -p tpm-harness -- chaos --fault-plan plan.json
//! ```
//!
//! ## Determinism
//!
//! Each site keeps a global hit counter; a rule's decision for hit `h` is a
//! pure function of the plan seed, the site, the rule index, and `h`
//! (a SplitMix64-style avalanche hash compared against the rule's
//! probability, or an exact `nth == h + 1` match). Two runs of a workload
//! that drive the same number of hits per site therefore fire the identical
//! fault set — which is the case for chunk claims, barrier entries, and
//! task executions of a fixed workload. Every chunk-claiming model probes
//! `chunk-claim` once per chunk it claims, and a model's for loop and its
//! reduction claim the same chunks, so the same plan fires at the same
//! chunk in both. Steal-attempt hit counts are
//! timing-dependent, so probabilistic steal rules are deterministic *per
//! hit* but the total fired count can vary with interleaving; use `nth`
//! rules when exact replay matters.
//!
//! ## Safety contract for `Panic` faults
//!
//! A `panic` fault is only honored where the enclosing runtime guarantees
//! containment (a `catch_unwind` layer that keeps latches and barriers
//! sound). Call sites that cannot tolerate an unwind — e.g. a steal probe
//! made while an unfinished stack job is still queued — must call
//! [`probe_no_panic`], at which panic rules are inert (left armed for the
//! next panic-safe probe of the same site).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod eval;
mod plan;

pub use eval::{Decision, PlanEval};
pub use plan::{FaultKind, FaultPlan, PlanError, Site, SiteRule};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What the caller of [`probe`] must do. `Delay` faults are handled inside
/// the probe (it sleeps), so callers only see the three actionable kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an injected fault action must be acted on"]
pub enum Action {
    /// No fault fired; continue normally.
    None,
    /// Panic now. Use [`injected_panic`] so payloads are uniform.
    Panic,
    /// Report this steal attempt as a miss.
    StealMiss,
    /// Drop this unit of work (runtimes surface the drop as a contained
    /// panic so it is observable, never silent).
    TaskDrop,
}

/// One fault that actually fired, as recorded in a [`FaultReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFault {
    /// Where it fired.
    pub site: Site,
    /// What fired.
    pub kind: FaultKind,
    /// Zero-based hit index at that site.
    pub hit: u64,
}

/// Everything a finished [`FaultSession`] observed.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Faults that fired, in firing order (per-site order is deterministic;
    /// cross-site interleaving follows execution).
    pub fired: Vec<FiredFault>,
    /// Total probe hits per site, indexed like [`Site::ALL`].
    pub hits: [u64; Site::ALL.len()],
}

impl FaultReport {
    /// The fired faults sorted `(site, hit)` — the canonical form for
    /// replay-identity comparisons, independent of thread interleaving.
    pub fn fired_sorted(&self) -> Vec<FiredFault> {
        let mut v = self.fired.clone();
        v.sort_by_key(|f| (f.site as u8, f.hit));
        v
    }
}

/// The uniform injected-fault payload for `kind` at `site`.
///
/// It always starts with `"injected"`, which tests and operators use to
/// tell injected faults from genuine bugs. Public so a driver that only
/// *decides* a fault (the `tpm-desim` simulator) reports the very message a
/// driver that really unwinds would carry.
pub fn injected_payload(kind: FaultKind, site: Site) -> String {
    format!("injected {} at {}", kind.name(), site.name())
}

/// Panics with the uniform injected-fault payload for `site`.
pub fn injected_panic(site: Site) -> ! {
    panic!("{}", injected_payload(FaultKind::Panic, site))
}

/// Panics with the uniform task-drop payload for `site` (the runtimes turn
/// `TaskDrop` into a contained panic so dropped work is observable).
pub fn injected_drop(site: Site) -> ! {
    panic!("{}", injected_payload(FaultKind::TaskDrop, site))
}

/// True if a panic payload (as formatted into an error message) came from
/// this crate's injected faults.
pub fn is_injected_message(message: &str) -> bool {
    message.starts_with("injected")
}

/// Fast-path gate: true only while a plan is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed plan, if any.
static SLOT: Mutex<Option<Arc<ActivePlan>>> = Mutex::new(None);

struct CompiledRule {
    kind: FaultKind,
    nth: Option<u64>,
    /// Probability threshold in hash-output space (top bits compared
    /// directly, avoiding per-probe float conversion).
    threshold: u64,
    max_fires: u64,
    delay_us: u64,
    fires: AtomicU64,
}

struct ActivePlan {
    seed: u64,
    /// Rules grouped per site, preserving plan order.
    by_site: [Vec<(usize, CompiledRule)>; Site::ALL.len()],
    hits: [AtomicU64; Site::ALL.len()],
    fired: Mutex<Vec<FiredFault>>,
}

/// Asks the installed plan whether a fault fires at `site` for this hit.
///
/// With no plan installed this is one atomic load that returns
/// [`Action::None`]; the plan lookup sits behind it, out of line. `Delay`
/// faults sleep inside the probe and then return `Action::None`.
#[inline]
pub fn probe(site: Site) -> Action {
    if !ENABLED.load(Ordering::Acquire) {
        return Action::None;
    }
    decide(site, true)
}

/// Like [`probe`], but for call sites where unwinding is not safe (e.g. a
/// steal probe made while an unfinished stack job is queued): `Panic` rules
/// are skipped without being consumed, so they stay armed for the next
/// panic-safe probe of the same site.
#[inline]
pub fn probe_no_panic(site: Site) -> Action {
    if !ENABLED.load(Ordering::Acquire) {
        return Action::None;
    }
    decide(site, false)
}

/// The slow path of a probe made while a plan is installed.
#[cold]
#[inline(never)]
fn decide(site: Site, allow_panic: bool) -> Action {
    let Some(active) = SLOT.lock().unwrap().clone() else {
        return Action::None;
    };
    let hit = active.hits[site as usize].fetch_add(1, Ordering::Relaxed);
    for (rule_idx, rule) in &active.by_site[site as usize] {
        let decides = match rule.nth {
            Some(n) => hit + 1 == n,
            None => {
                rule.threshold > 0
                    && plan::mix(active.seed, site as u64, *rule_idx as u64, hit) <= rule.threshold
            }
        };
        if !decides {
            continue;
        }
        // A panic rule is inert at probes that cannot tolerate an unwind: it
        // is neither consumed nor logged, so it stays armed for the next
        // panic-safe probe of this site (e.g. the worksteal worker-loop top
        // level).
        if rule.kind == FaultKind::Panic && !allow_panic {
            continue;
        }
        // Network-only kinds have no in-process meaning; they are evaluated
        // by the simulator's `PlanEval`, never by the global prober.
        if matches!(rule.kind, FaultKind::Duplicate | FaultKind::Partition) {
            continue;
        }
        if rule.max_fires > 0 && rule.fires.fetch_add(1, Ordering::Relaxed) >= rule.max_fires {
            continue;
        }
        active.fired.lock().unwrap().push(FiredFault {
            site,
            kind: rule.kind,
            hit,
        });
        return match rule.kind {
            FaultKind::Panic => Action::Panic,
            FaultKind::Delay => {
                if rule.delay_us > 0 {
                    std::thread::sleep(std::time::Duration::from_micros(rule.delay_us));
                }
                Action::None
            }
            FaultKind::StealMiss => Action::StealMiss,
            FaultKind::TaskDrop => Action::TaskDrop,
            // Filtered out above before the rule can fire.
            FaultKind::Duplicate | FaultKind::Partition => Action::None,
        };
    }
    Action::None
}

/// RAII guard over an installed [`FaultPlan`]. Installing replaces any
/// previously active plan process-wide; [`FaultSession::report`] (or drop)
/// uninstalls it and returns what fired.
///
/// Sessions are process-global — tests that install plans must serialize
/// (the chaos suite holds a lock across each session).
#[derive(Debug)]
pub struct FaultSession {
    done: bool,
}

impl FaultSession {
    /// Installs `plan` as the process-wide active plan: from here on every
    /// probe takes the slow path and asks it.
    pub fn install(plan: &FaultPlan) -> Self {
        let mut by_site: [Vec<(usize, CompiledRule)>; Site::ALL.len()] = Default::default();
        for (idx, r) in plan.rules.iter().enumerate() {
            by_site[r.site as usize].push((
                idx,
                CompiledRule {
                    kind: r.kind,
                    nth: r.nth,
                    threshold: plan::prob_threshold(r.probability),
                    max_fires: r.max_fires,
                    delay_us: r.delay_us,
                    fires: AtomicU64::new(0),
                },
            ));
        }
        let active = Arc::new(ActivePlan {
            seed: plan.seed,
            by_site,
            hits: Default::default(),
            fired: Mutex::new(Vec::new()),
        });
        *SLOT.lock().unwrap() = Some(active);
        ENABLED.store(true, Ordering::Release);
        FaultSession { done: false }
    }

    /// Uninstalls the plan and returns everything that fired.
    pub fn report(mut self) -> FaultReport {
        self.done = true;
        Self::take_report()
    }

    fn take_report() -> FaultReport {
        ENABLED.store(false, Ordering::Release);
        let taken = SLOT.lock().unwrap().take();
        match taken {
            Some(active) => FaultReport {
                fired: std::mem::take(&mut active.fired.lock().unwrap()),
                hits: std::array::from_fn(|i| active.hits[i].load(Ordering::Relaxed)),
            },
            None => FaultReport::default(),
        }
    }
}

impl Drop for FaultSession {
    fn drop(&mut self) {
        if !self.done {
            let _ = Self::take_report();
        }
    }
}

/// Acquires the process-wide fault-session serialization lock.
///
/// Plans are process-global, so concurrently running tests that each install
/// a session would stomp each other's plans and mis-attribute fired faults.
/// Every test (here and in downstream runtime crates) that installs a plan
/// holds this guard for the whole session. Poisoning is ignored: a panicking
/// chaos test is expected, not a reason to fail the next one.
pub fn session_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    match LOCK.get_or_init(|| std::sync::Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poison) => poison.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Plans are process-global; serialize the tests that install them.
    fn session_lock() -> MutexGuard<'static, ()> {
        session_serial()
    }

    #[test]
    fn no_plan_means_no_action() {
        let _g = session_lock();
        assert_eq!(probe(Site::ChunkClaim), Action::None);
        assert_eq!(probe_no_panic(Site::StealAttempt), Action::None);
    }

    mod injecting {
        use super::*;

        #[test]
        fn nth_rule_fires_exactly_once_on_the_nth_hit() {
            let _g = session_lock();
            let plan = FaultPlan::single(SiteRule::nth(Site::ChunkClaim, FaultKind::Panic, 3));
            let session = FaultSession::install(&plan);
            let actions: Vec<Action> = (0..5).map(|_| probe(Site::ChunkClaim)).collect();
            let report = session.report();
            assert_eq!(
                actions,
                vec![
                    Action::None,
                    Action::None,
                    Action::Panic,
                    Action::None,
                    Action::None
                ]
            );
            assert_eq!(
                report.fired,
                vec![FiredFault {
                    site: Site::ChunkClaim,
                    kind: FaultKind::Panic,
                    hit: 2
                }]
            );
            assert_eq!(report.hits[Site::ChunkClaim as usize], 5);
        }

        #[test]
        fn probability_one_always_fires_and_zero_point_never() {
            let _g = session_lock();
            let plan = FaultPlan {
                seed: 9,
                rules: vec![SiteRule::prob(Site::TaskExec, FaultKind::TaskDrop, 1.0)],
            };
            let session = FaultSession::install(&plan);
            for _ in 0..10 {
                assert_eq!(probe(Site::TaskExec), Action::TaskDrop);
            }
            assert_eq!(session.report().fired.len(), 10);
        }

        #[test]
        fn decisions_replay_identically_for_the_same_seed() {
            let _g = session_lock();
            let plan = FaultPlan {
                seed: 1234,
                rules: vec![SiteRule::prob(
                    Site::StealAttempt,
                    FaultKind::StealMiss,
                    0.3,
                )],
            };
            let run = |plan: &FaultPlan| {
                let session = FaultSession::install(plan);
                for _ in 0..200 {
                    let _ = probe(Site::StealAttempt);
                }
                session.report().fired_sorted()
            };
            let a = run(&plan);
            let b = run(&plan);
            assert_eq!(a, b);
            assert!(!a.is_empty(), "p=0.3 over 200 hits should fire");
            let other = FaultPlan { seed: 77, ..plan };
            assert_ne!(run(&other), a, "a different seed should differ");
        }

        #[test]
        fn max_fires_caps_a_probability_rule() {
            let _g = session_lock();
            let mut rule = SiteRule::prob(Site::JobAdmission, FaultKind::StealMiss, 1.0);
            rule.max_fires = 2;
            let session = FaultSession::install(&FaultPlan::single(rule));
            let hits: Vec<Action> = (0..5).map(|_| probe(Site::JobAdmission)).collect();
            assert_eq!(
                hits.iter().filter(|a| **a == Action::StealMiss).count(),
                2,
                "{hits:?}"
            );
            assert_eq!(session.report().fired.len(), 2);
        }

        #[test]
        fn panic_rules_are_inert_at_no_panic_probes() {
            let _g = session_lock();
            let mut rule = SiteRule::prob(Site::StealAttempt, FaultKind::Panic, 1.0);
            rule.max_fires = 1;
            let session = FaultSession::install(&FaultPlan::single(rule));
            // Unwind-unsafe probes neither fire nor consume the rule…
            assert_eq!(probe_no_panic(Site::StealAttempt), Action::None);
            assert_eq!(probe_no_panic(Site::StealAttempt), Action::None);
            // …so it stays armed for the next panic-safe probe.
            assert_eq!(probe(Site::StealAttempt), Action::Panic);
            let report = session.report();
            assert_eq!(report.fired.len(), 1);
            assert_eq!(report.fired[0].kind, FaultKind::Panic);
        }

        #[test]
        fn delay_is_absorbed_inside_the_probe() {
            let _g = session_lock();
            let mut rule = SiteRule::nth(Site::BarrierEntry, FaultKind::Delay, 1);
            rule.delay_us = 100;
            let session = FaultSession::install(&FaultPlan::single(rule));
            let t0 = std::time::Instant::now();
            assert_eq!(probe(Site::BarrierEntry), Action::None);
            assert!(t0.elapsed() >= std::time::Duration::from_micros(100));
            assert_eq!(session.report().fired.len(), 1);
        }

        #[test]
        fn sessions_are_replaceable_and_report_uninstalls() {
            let _g = session_lock();
            let p1 = FaultPlan::single(SiteRule::nth(Site::ChunkClaim, FaultKind::Panic, 1));
            let s1 = FaultSession::install(&p1);
            let _ = s1.report();
            // After report the plan is gone.
            assert_eq!(probe(Site::ChunkClaim), Action::None);
        }
    }

    #[test]
    fn injected_payloads_are_recognizable() {
        let msg = format!("injected panic at {}", Site::ChunkClaim);
        assert!(is_injected_message(&msg));
        assert!(!is_injected_message("index out of bounds"));
    }
}
