//! Fault-plan model and its JSON representation.
//!
//! A [`FaultPlan`] is a seed plus a list of [`SiteRule`]s. Rules are matched
//! against probe *hit indices* (the per-site count of times execution passed
//! the injection point), so a plan's decisions depend only on
//! `(seed, site, hit index)` — never on wall-clock time or thread
//! interleaving. Replaying the same workload under the same plan fires the
//! same faults.
//!
//! Plans are read with the workspace's one JSON reader,
//! [`tpm_sync::json::Reader`], walked in the plan's schema, so every error —
//! a syntax error or a semantic one like an unknown site name — is reported
//! at the `line:column` where the reader met it.

use std::fmt;

use tpm_sync::json::{self, Reader};

/// An injection point in the runtimes or the service path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Site {
    /// A worksharing/splitting loop chunk is about to run its body
    /// (forkjoin `ws_for` chunks, worksteal split leaves, rawthreads
    /// sub-chunks).
    ChunkClaim = 0,
    /// A worker is about to probe a victim deque (worksteal `steal_work`,
    /// forkjoin task stealing, and the worksteal worker-loop top level —
    /// the only place a `panic` fault is honored for this site).
    StealAttempt = 1,
    /// A thread is about to arrive at a region barrier (forkjoin
    /// `Ctx::barrier`).
    BarrierEntry = 2,
    /// A spawned task body is about to execute (forkjoin task scope,
    /// worksteal scope spawns).
    TaskExec = 3,
    /// The job service is about to admit a parsed request to its queue.
    JobAdmission = 4,
    /// A service worker just picked a job off the admission queue and is
    /// about to run it. A `panic` here escapes the job's `catch_unwind`
    /// layer, so it kills the worker thread itself (exercising the
    /// death/respawn path and the reply backstop), unlike `task-exec`
    /// which is contained by the runtimes.
    WorkerPickup = 5,
    /// A message is about to be delivered across the (virtual) network —
    /// only probed by the `tpm-desim` simulator, where `drop`/`delay`/
    /// `duplicate`/`partition` faults act on the in-flight message.
    NetDeliver = 6,
}

impl Site {
    /// Every site, in discriminant order.
    pub const ALL: [Site; 7] = [
        Site::ChunkClaim,
        Site::StealAttempt,
        Site::BarrierEntry,
        Site::TaskExec,
        Site::JobAdmission,
        Site::WorkerPickup,
        Site::NetDeliver,
    ];

    /// Stable kebab-case name (used in plan JSON and reports).
    pub fn name(self) -> &'static str {
        match self {
            Site::ChunkClaim => "chunk-claim",
            Site::StealAttempt => "steal-attempt",
            Site::BarrierEntry => "barrier-entry",
            Site::TaskExec => "task-exec",
            Site::JobAdmission => "job-admission",
            Site::WorkerPickup => "worker-pickup",
            Site::NetDeliver => "net-deliver",
        }
    }

    /// Inverse of [`Site::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Site::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happens when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Panic at the injection point (payload starts with `"injected"`).
    Panic,
    /// Sleep for the rule's `delay_us` before continuing normally.
    Delay,
    /// Report the steal attempt as a miss (only meaningful at
    /// [`Site::StealAttempt`]; elsewhere it is a no-op for runtimes and a
    /// load-shed for [`Site::JobAdmission`]).
    StealMiss,
    /// Drop the unit of work instead of running it. Runtimes surface the
    /// drop as a contained panic with an `"injected task-drop"` payload so
    /// it can never silently corrupt a result. At [`Site::NetDeliver`] the
    /// dropped unit is the in-flight message (a lost packet).
    TaskDrop,
    /// Deliver the in-flight message twice (only meaningful at
    /// [`Site::NetDeliver`]; inert at in-process probes).
    Duplicate,
    /// Sever the link both ways for `delay_us` microseconds of virtual
    /// time: messages already in flight and messages sent while severed
    /// are lost (only meaningful at [`Site::NetDeliver`]; inert at
    /// in-process probes).
    Partition,
}

impl FaultKind {
    /// Every kind, in a stable order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Panic,
        FaultKind::Delay,
        FaultKind::StealMiss,
        FaultKind::TaskDrop,
        FaultKind::Duplicate,
        FaultKind::Partition,
    ];

    /// Stable kebab-case name (used in plan JSON and reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Delay => "delay",
            FaultKind::StealMiss => "steal-miss",
            FaultKind::TaskDrop => "task-drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Partition => "partition",
        }
    }

    /// Inverse of [`FaultKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        FaultKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One injection rule: where, what, and when it triggers.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteRule {
    /// Injection point this rule applies to.
    pub site: Site,
    /// Fault raised when the rule fires.
    pub kind: FaultKind,
    /// Fire on exactly the `nth` probe hit at this site (1-based). When set,
    /// `probability` is ignored — this is the fully deterministic trigger.
    pub nth: Option<u64>,
    /// Per-hit fire probability in `[0, 1]`, decided by a seeded hash of the
    /// hit index (so a given `(seed, hit)` always decides the same way).
    pub probability: f64,
    /// Cap on how many times this rule may fire (`0` = unlimited).
    pub max_fires: u64,
    /// Sleep duration for [`FaultKind::Delay`], in microseconds.
    pub delay_us: u64,
}

impl SiteRule {
    /// A rule that fires once, on the `nth` hit of `site`.
    pub fn nth(site: Site, kind: FaultKind, nth: u64) -> Self {
        Self {
            site,
            kind,
            nth: Some(nth.max(1)),
            probability: 0.0,
            max_fires: 1,
            delay_us: 0,
        }
    }

    /// A rule that fires with `probability` on every hit of `site`.
    pub fn prob(site: Site, kind: FaultKind, probability: f64) -> Self {
        Self {
            site,
            kind,
            nth: None,
            probability: probability.clamp(0.0, 1.0),
            max_fires: 0,
            delay_us: 0,
        }
    }
}

/// A complete, installable fault plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for all probabilistic decisions.
    pub seed: u64,
    /// The injection rules; several rules may target the same site.
    pub rules: Vec<SiteRule>,
}

impl FaultPlan {
    /// A plan with one rule.
    pub fn single(rule: SiteRule) -> Self {
        Self {
            seed: 0,
            rules: vec![rule],
        }
    }

    /// Serializes the plan to the same JSON shape [`FaultPlan::parse_json`]
    /// accepts.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{{\"seed\": {}, \"rules\": [", self.seed));
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"site\": \"{}\", \"kind\": \"{}\"",
                r.site.name(),
                r.kind.name()
            ));
            if let Some(n) = r.nth {
                out.push_str(&format!(", \"nth\": {n}"));
            }
            if r.probability > 0.0 {
                out.push_str(&format!(", \"probability\": {}", json::num(r.probability)));
            }
            if r.max_fires > 0 {
                out.push_str(&format!(", \"max_fires\": {}", r.max_fires));
            }
            if r.delay_us > 0 {
                out.push_str(&format!(", \"delay_us\": {}", r.delay_us));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// A human-readable dump: one line per rule, preceded by the seed.
    /// Chaos and desim failure reports embed this so a failing seed is
    /// diagnosable from the log alone.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "fault plan: seed {}, {} rule{}\n",
            self.seed,
            self.rules.len(),
            if self.rules.len() == 1 { "" } else { "s" }
        );
        for (i, r) in self.rules.iter().enumerate() {
            out.push_str(&format!("  [{i}] {} at {}", r.kind.name(), r.site.name()));
            match r.nth {
                Some(n) => out.push_str(&format!(" on hit {n}")),
                None => out.push_str(&format!(" with p={}", r.probability)),
            }
            if r.delay_us > 0 {
                let what = match r.kind {
                    FaultKind::Partition => "severed for",
                    _ => "delay",
                };
                out.push_str(&format!(", {what} {}us", r.delay_us));
            }
            if r.max_fires > 0 {
                let plural = if r.max_fires == 1 { "" } else { "s" };
                out.push_str(&format!(", max {} fire{plural}", r.max_fires));
            }
            out.push('\n');
        }
        out
    }

    /// Parses a plan from JSON like:
    ///
    /// ```json
    /// {
    ///   "seed": 42,
    ///   "rules": [
    ///     {"site": "chunk-claim", "kind": "panic", "nth": 3},
    ///     {"site": "steal-attempt", "kind": "steal-miss", "probability": 0.25},
    ///     {"site": "task-exec", "kind": "delay", "probability": 0.1, "delay_us": 500}
    ///   ]
    /// }
    /// ```
    ///
    /// Unknown keys, unknown site/kind names, and malformed syntax are all
    /// rejected with the `line:column` where the problem sits.
    pub fn parse_json(text: &str) -> Result<Self, PlanError> {
        let mut r = Reader::new(text);
        let mut plan = FaultPlan::default();
        let mut saw_rules = false;
        r.object(|r, key| match key.as_str() {
            "seed" => r.u64().map(|seed| plan.seed = seed),
            "rules" => {
                saw_rules = true;
                r.array(|r| parse_rule(r).map(|rule| plan.rules.push(rule)))
            }
            other => Err(r.error(format!("unknown plan key \"{other}\""))),
        })
        .and_then(|()| r.end())
        .and_then(|()| match saw_rules {
            true => Ok(()),
            false => Err(r.error("plan is missing the \"rules\" array")),
        })
        .map_err(|e| PlanError::at(text, e))?;
        Ok(plan)
    }
}

/// Reads one rule object of a plan.
fn parse_rule(r: &mut Reader<'_>) -> Result<SiteRule, json::Error> {
    let (mut site, mut kind, mut nth) = (None, None, None);
    let (mut probability, mut max_fires, mut delay_us) = (0.0, 0, 0);
    r.object(|r, key| {
        match key.as_str() {
            "site" => {
                let name = r.string()?;
                let found = Site::from_name(&name);
                site = Some(found.ok_or_else(|| r.error(format!("unknown site \"{name}\"")))?);
            }
            "kind" => {
                let name = r.string()?;
                let found = FaultKind::from_name(&name);
                kind =
                    Some(found.ok_or_else(|| r.error(format!("unknown fault kind \"{name}\"")))?);
            }
            "nth" => match r.u64()? {
                0 => return Err(r.error("nth is 1-based and must be >= 1")),
                n => nth = Some(n),
            },
            "probability" => {
                probability = r.f64()?;
                if !(0.0..=1.0).contains(&probability) {
                    return Err(r.error("probability must be within [0, 1]"));
                }
            }
            "max_fires" => max_fires = r.u64()?,
            "delay_us" => delay_us = r.u64()?,
            other => return Err(r.error(format!("unknown rule key \"{other}\""))),
        }
        Ok(())
    })?;
    let site = site.ok_or_else(|| r.error("rule is missing \"site\""))?;
    let kind = kind.ok_or_else(|| r.error("rule is missing \"kind\""))?;
    if nth.is_none() && probability == 0.0 {
        return Err(r.error("rule needs \"nth\" or a non-zero \"probability\" to ever fire"));
    }
    Ok(SiteRule {
        site,
        kind,
        nth,
        probability,
        max_fires,
        delay_us,
    })
}

/// SplitMix64 finalizer over the (seed, site, rule, hit) tuple: a cheap
/// avalanche hash whose output is uniform enough for per-hit coin flips.
/// Shared by the process-global prober and [`crate::PlanEval`] so both
/// make identical decisions for the same plan and hit sequence.
pub(crate) fn mix(seed: u64, site: u64, rule: u64, hit: u64) -> u64 {
    let mut z = seed
        ^ site.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ rule.wrapping_mul(0xD1B5_4A32_D192_ED03)
        ^ hit.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `probability` mapped into hash-output space (top bits compared
/// directly, avoiding per-probe float conversion). `p == 1.0` must always
/// fire; saturate instead of rounding.
pub(crate) fn prob_threshold(probability: f64) -> u64 {
    if probability >= 1.0 {
        u64::MAX
    } else {
        (probability * (u64::MAX as f64)) as u64
    }
}

/// A fault-plan parse error with its position in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// 1-based line of the error.
    pub line: usize,
    /// 1-based column of the error.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for PlanError {}

impl PlanError {
    /// Locates a reader error's byte offset in `text` as `line:col`
    /// (the column counts characters).
    fn at(text: &str, e: json::Error) -> Self {
        let before = &text[..e.offset];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        PlanError {
            line: 1 + before.matches('\n').count(),
            col: before[line_start..].chars().count() + 1,
            message: e.message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_and_kind_names_round_trip() {
        for s in Site::ALL {
            assert_eq!(Site::from_name(s.name()), Some(s));
        }
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(k.name()), Some(k));
        }
        assert_eq!(Site::from_name("nope"), None);
        assert_eq!(FaultKind::from_name("nope"), None);
    }

    #[test]
    fn parses_a_full_plan() {
        let text = r#"{
  "seed": 42,
  "rules": [
    {"site": "chunk-claim", "kind": "panic", "nth": 3},
    {"site": "steal-attempt", "kind": "steal-miss", "probability": 0.25, "max_fires": 10},
    {"site": "task-exec", "kind": "delay", "probability": 0.1, "delay_us": 500}
  ]
}"#;
        let plan = FaultPlan::parse_json(text).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].site, Site::ChunkClaim);
        assert_eq!(plan.rules[0].nth, Some(3));
        assert_eq!(plan.rules[1].probability, 0.25);
        assert_eq!(plan.rules[1].max_fires, 10);
        assert_eq!(plan.rules[2].delay_us, 500);
    }

    #[test]
    fn json_round_trips() {
        let plan = FaultPlan {
            seed: 7,
            rules: vec![
                SiteRule::nth(Site::BarrierEntry, FaultKind::Panic, 2),
                SiteRule::prob(Site::StealAttempt, FaultKind::Delay, 0.5),
            ],
        };
        let round = FaultPlan::parse_json(&plan.to_json()).unwrap();
        assert_eq!(round, plan);
    }

    #[test]
    fn unknown_site_reports_position() {
        let text = "{\"seed\": 1,\n  \"rules\": [{\"site\": \"warp-core\", \"kind\": \"panic\", \"nth\": 1}]}";
        let err = FaultPlan::parse_json(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("warp-core"), "{err}");
    }

    #[test]
    fn non_ascii_names_are_echoed_intact() {
        let text = "{\"rules\": [\n  {\"site\": \"caf\u{e9}\", \"kind\": \"panic\", \"nth\": 1}]}";
        let err = FaultPlan::parse_json(text).unwrap_err();
        assert_eq!((err.line, err.col), (2, 18), "{err}");
        assert!(err.message.contains("\"caf\u{e9}\""), "{err}");
    }

    #[test]
    fn standard_escapes_are_accepted() {
        let text = r#"{"rules": [{"site": "task-exec", "kind": "\u0070anic", "nth": 2}]}"#;
        let plan = FaultPlan::parse_json(text).unwrap();
        assert_eq!(plan.rules[0].kind, FaultKind::Panic);
        let text = r#"{"rules": [{"site": "a\r\b\f", "kind": "panic", "nth": 2}]}"#;
        let err = FaultPlan::parse_json(text).unwrap_err();
        assert!(err.message.contains("a\r\u{8}\u{c}"), "{err}");
    }

    #[test]
    fn syntax_error_reports_line_and_col() {
        let err = FaultPlan::parse_json("{\n\"rules\": [}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.col > 1);
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        assert!(FaultPlan::parse_json("{\"rules\": [], \"extra\": 1}")
            .unwrap_err()
            .message
            .contains("unknown plan key"));
        let never = "{\"rules\": [{\"site\": \"chunk-claim\", \"kind\": \"panic\"}]}";
        assert!(FaultPlan::parse_json(never)
            .unwrap_err()
            .message
            .contains("to ever fire"));
        let zeroth = "{\"rules\": [{\"site\": \"chunk-claim\", \"kind\": \"panic\", \"nth\": 0}]}";
        assert!(FaultPlan::parse_json(zeroth)
            .unwrap_err()
            .message
            .contains("1-based"));
        let badp =
            "{\"rules\": [{\"site\": \"chunk-claim\", \"kind\": \"panic\", \"probability\": 1.5}]}";
        assert!(FaultPlan::parse_json(badp)
            .unwrap_err()
            .message
            .contains("[0, 1]"));
    }

    #[test]
    fn missing_rules_is_an_error() {
        let err = FaultPlan::parse_json("{\"seed\": 1}").unwrap_err();
        assert!(err.message.contains("rules"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let err = FaultPlan::parse_json("{\"rules\": []} x").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }
}
