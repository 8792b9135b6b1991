//! Execution errors for the fallible (`try_`) executor API.
//!
//! A server cannot afford a panic (or a wedged loop) per bad request, so
//! the [`Executor`](crate::Executor)'s `try_` entry points fold every way an
//! execution can stop early into one value the caller can match on:
//! cooperative cancellation, deadline expiry, a panicking body, or a request
//! that was wrong before any thread started.

use tpm_sync::CancelReason;

/// Why an execution returned without completing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "an ExecError says the work did NOT complete"]
pub enum ExecError {
    /// The [`CancelToken`](tpm_sync::CancelToken) was cancelled explicitly.
    Cancelled,
    /// The token's deadline passed before the work finished.
    Deadline,
    /// The loop body (or a task) panicked; the payload's message, when it
    /// was a string. The runtimes remain usable afterwards.
    Panic(String),
    /// The request could not be started at all (unknown kernel/model/variant
    /// name, zero size, threads out of range, …).
    BadConfig(String),
}

impl ExecError {
    /// The wire/CLI error code (`deadline`, `cancelled`, `panic`,
    /// `bad_config`) used by the serve protocol and reports.
    pub fn code(&self) -> &'static str {
        match self {
            ExecError::Cancelled => "cancelled",
            ExecError::Deadline => "deadline",
            ExecError::Panic(_) => "panic",
            ExecError::BadConfig(_) => "bad_config",
        }
    }
}

impl From<CancelReason> for ExecError {
    fn from(r: CancelReason) -> Self {
        match r {
            CancelReason::Cancelled => ExecError::Cancelled,
            CancelReason::DeadlineExpired => ExecError::Deadline,
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Cancelled => f.write_str("cancelled"),
            ExecError::Deadline => f.write_str("deadline expired"),
            ExecError::Panic(msg) => write!(f, "execution panicked: {msg}"),
            ExecError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Extracts a human-readable message from a `catch_unwind` payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_reasons_convert() {
        assert_eq!(
            ExecError::from(CancelReason::Cancelled),
            ExecError::Cancelled
        );
        assert_eq!(
            ExecError::from(CancelReason::DeadlineExpired),
            ExecError::Deadline
        );
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(ExecError::Deadline.code(), "deadline");
        assert_eq!(ExecError::Cancelled.code(), "cancelled");
        assert_eq!(ExecError::Panic(String::new()).code(), "panic");
        assert_eq!(ExecError::BadConfig(String::new()).code(), "bad_config");
    }

    #[test]
    fn panic_messages_extract() {
        let p = std::panic::catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(panic_message(p), "boom 7");
        let p = std::panic::catch_unwind(|| panic!("static")).unwrap_err();
        assert_eq!(panic_message(p), "static");
    }
}
