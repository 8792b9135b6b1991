//! The trace event model: compact fixed-size records of scheduler activity.
//!
//! The kinds are the workspace's one event vocabulary, [`EventKind`], which
//! lives in `tpm-sync` next to the counters it indexes.

pub use tpm_sync::EventKind;

/// One recorded event. `a` and `b` are kind-specific payload words (see the
/// [`EventKind`] variant docs); unused payloads are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}
