//! Per-instance plan evaluation, independent of the installed global plan.
//!
//! The process-global prober ([`crate::probe`]) is the right shape for the
//! real runtimes: probes are sprinkled through hot paths, and the active
//! plan is ambient state. The deterministic simulator needs the opposite:
//! an *owned* evaluator it can instantiate per run (thousands of seeds in
//! one process, no global installs) that still makes
//! byte-identical decisions to the global prober for the same plan and hit
//! sequence — one plan file drives both the chaos harness and `tpm-desim`.

use crate::plan::{mix, prob_threshold};
use crate::{FaultKind, FaultPlan, FiredFault, Site};

/// What a rule decided for one hit, as returned by [`PlanEval::decide`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The fault that fired.
    pub kind: FaultKind,
    /// The rule's `delay_us` (delay length, or partition duration for
    /// [`FaultKind::Partition`]).
    pub delay_us: u64,
    /// Index of the firing rule in the plan.
    pub rule: usize,
    /// Zero-based hit index at the site.
    pub hit: u64,
}

struct EvalRule {
    site: Site,
    kind: FaultKind,
    nth: Option<u64>,
    threshold: u64,
    max_fires: u64,
    delay_us: u64,
    fires: u64,
}

/// An owned, single-threaded evaluator over a [`FaultPlan`].
///
/// Unlike the global prober it needs no installation: callers ask [`decide`](PlanEval::decide) at their own
/// injection points and interpret the returned [`Decision`] themselves.
/// Decisions are the same pure function of `(seed, site, rule index, hit
/// index)` the prober uses, so replaying a workload replays its faults.
pub struct PlanEval {
    seed: u64,
    rules: Vec<EvalRule>,
    hits: [u64; Site::ALL.len()],
    fired: Vec<FiredFault>,
}

impl PlanEval {
    /// An evaluator over `plan`, using the plan's own seed.
    #[must_use]
    pub fn new(plan: &FaultPlan) -> Self {
        Self::with_seed(plan, plan.seed)
    }

    /// An evaluator over `plan`'s rules with `seed` overriding the plan
    /// seed — how a seed sweep reuses one rule set across thousands of
    /// runs.
    #[must_use]
    pub fn with_seed(plan: &FaultPlan, seed: u64) -> Self {
        Self {
            seed,
            rules: plan
                .rules
                .iter()
                .map(|r| EvalRule {
                    site: r.site,
                    kind: r.kind,
                    nth: r.nth,
                    threshold: prob_threshold(r.probability),
                    max_fires: r.max_fires,
                    delay_us: r.delay_us,
                    fires: 0,
                })
                .collect(),
            hits: [0; Site::ALL.len()],
            fired: Vec::new(),
        }
    }

    /// Counts one hit at `site` and returns the first rule that fires for
    /// it, if any. First-match semantics, hit counting, `nth`, probability
    /// hashing, and `max_fires` all match the global prober.
    pub fn decide(&mut self, site: Site) -> Option<Decision> {
        let hit = self.hits[site as usize];
        self.hits[site as usize] += 1;
        for (rule_idx, rule) in self.rules.iter_mut().enumerate() {
            if rule.site != site {
                continue;
            }
            let decides = match rule.nth {
                Some(n) => hit + 1 == n,
                None => {
                    rule.threshold > 0
                        && mix(self.seed, site as u64, rule_idx as u64, hit) <= rule.threshold
                }
            };
            if !decides {
                continue;
            }
            if rule.max_fires > 0 && rule.fires >= rule.max_fires {
                continue;
            }
            rule.fires += 1;
            self.fired.push(FiredFault {
                site,
                kind: rule.kind,
                hit,
            });
            return Some(Decision {
                kind: rule.kind,
                delay_us: rule.delay_us,
                rule: rule_idx,
                hit,
            });
        }
        None
    }

    /// Every fault that fired so far, in firing order.
    #[must_use]
    pub fn fired(&self) -> &[FiredFault] {
        &self.fired
    }

    /// Total hits counted at `site`.
    #[must_use]
    pub fn hits(&self, site: Site) -> u64 {
        self.hits[site as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SiteRule;

    #[test]
    fn nth_rule_fires_on_exactly_that_hit() {
        let plan = FaultPlan::single(SiteRule::nth(Site::NetDeliver, FaultKind::TaskDrop, 3));
        let mut eval = PlanEval::new(&plan);
        let fired: Vec<bool> = (0..5)
            .map(|_| eval.decide(Site::NetDeliver).is_some())
            .collect();
        assert_eq!(fired, vec![false, false, true, false, false]);
        assert_eq!(eval.hits(Site::NetDeliver), 5);
        assert_eq!(eval.fired().len(), 1);
        assert_eq!(eval.fired()[0].hit, 2);
    }

    #[test]
    fn same_seed_replays_identically_and_seeds_differ() {
        let plan = FaultPlan {
            seed: 99,
            rules: vec![SiteRule::prob(Site::NetDeliver, FaultKind::Duplicate, 0.3)],
        };
        let run = |seed: u64| {
            let mut eval = PlanEval::with_seed(&plan, seed);
            (0..200)
                .map(|_| eval.decide(Site::NetDeliver).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(7), "different seeds should diverge");
        assert!(run(99).iter().any(|&f| f), "p=0.3 over 200 hits must fire");
        assert!(
            run(99).iter().filter(|&&f| f).count() < 200,
            "p=0.3 must also miss"
        );
    }

    #[test]
    fn max_fires_caps_and_first_match_wins() {
        let mut capped = SiteRule::prob(Site::WorkerPickup, FaultKind::Panic, 1.0);
        capped.max_fires = 2;
        let fallback = SiteRule::prob(Site::WorkerPickup, FaultKind::Delay, 1.0);
        let plan = FaultPlan {
            seed: 0,
            rules: vec![capped, fallback],
        };
        let mut eval = PlanEval::new(&plan);
        let kinds: Vec<FaultKind> = (0..4)
            .map(|_| eval.decide(Site::WorkerPickup).unwrap().kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::Panic,
                FaultKind::Panic,
                FaultKind::Delay,
                FaultKind::Delay
            ]
        );
    }

    #[test]
    fn matches_the_global_prober_decision_for_decision() {
        use crate::{probe, Action, FaultSession};
        let _g = crate::session_serial();
        let plan = FaultPlan {
            seed: 4242,
            rules: vec![SiteRule::prob(
                Site::JobAdmission,
                FaultKind::StealMiss,
                0.2,
            )],
        };
        let session = FaultSession::install(&plan);
        let global: Vec<bool> = (0..300)
            .map(|_| probe(Site::JobAdmission) == Action::StealMiss)
            .collect();
        drop(session.report());
        let mut eval = PlanEval::new(&plan);
        let local: Vec<bool> = (0..300)
            .map(|_| eval.decide(Site::JobAdmission).is_some())
            .collect();
        assert_eq!(global, local);
    }
}
