//! Shared worker-pool configuration.
//!
//! Every pooled runtime in the workspace (`tpm-forkjoin`'s `Team`,
//! `tpm-worksteal`'s `Runtime`, `tpm-actors`' `ActorRuntime`) is built from
//! one [`PoolConfig`] — worker count, core pinning and the idle escalation
//! policy — through its `with_config`
//! constructor (`new(threads)` is `with_config` over [`PoolConfig::from_env`]).
//! This is the one place those knobs and their environment-variable defaults
//! live, and [`env_flag`] the one parser of the boolean environment knobs.

use crate::IdleStrategy;

/// Parses a boolean environment knob: `1`/`true`/`on`/`yes` is `Some(true)`,
/// `0`/`false`/`off`/`no` is `Some(false)`, anything else (including unset)
/// is `None`, leaving the caller's default in force.
///
/// # Examples
///
/// ```
/// use tpm_sync::env_flag;
///
/// assert_eq!(env_flag(Some("yes")), Some(true));
/// assert_eq!(env_flag(Some("off")), Some(false));
/// assert_eq!(env_flag(None), None);
/// ```
pub fn env_flag(value: Option<&str>) -> Option<bool> {
    match value? {
        "1" | "true" | "on" | "yes" => Some(true),
        "0" | "false" | "off" | "no" => Some(false),
        _ => None,
    }
}

/// Construction knobs common to every pooled runtime.
///
/// # Examples
///
/// ```
/// use tpm_sync::PoolConfig;
///
/// let cfg = PoolConfig { threads: 4, pin: false, ..PoolConfig::from_env() };
/// assert_eq!(cfg.threads, 4);
/// assert!(!cfg.pin);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolConfig {
    /// Number of worker threads (>= 1).
    pub threads: usize,
    /// Pin worker `i` to core `i % cores` (no-op without
    /// `sched_setaffinity`).
    pub pin: bool,
    /// Idle escalation `(spin_rounds, yield_rounds)` before parking (see
    /// [`IdleStrategy::new`]).
    pub idle: (u32, u32),
}

impl PoolConfig {
    /// The defaults every runtime starts from: one worker, pinning from
    /// `TPM_PIN`, the shared runtime idle budget.
    pub fn from_env() -> Self {
        PoolConfig {
            threads: 1,
            pin: crate::affinity::pin_from_env(),
            idle: (
                IdleStrategy::RUNTIME_DEFAULT_SPIN,
                IdleStrategy::RUNTIME_DEFAULT_YIELD,
            ),
        }
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_flag_accepts_every_spelling_and_nothing_else() {
        for on in ["1", "true", "on", "yes"] {
            assert_eq!(env_flag(Some(on)), Some(true), "{on}");
        }
        for off in ["0", "false", "off", "no"] {
            assert_eq!(env_flag(Some(off)), Some(false), "{off}");
        }
        for other in ["", "2", "TRUE", "y", " on", "auto"] {
            assert_eq!(env_flag(Some(other)), None, "{other:?}");
        }
        assert_eq!(env_flag(None), None);
    }

    #[test]
    fn default_matches_from_env() {
        assert_eq!(PoolConfig::default(), PoolConfig::from_env());
    }
}
