//! Typed trial failures and the failure policy built on them.
//!
//! The executor layer used to signal failure as a bare `Option<String>`,
//! which forced everything downstream (techniques, traces, reports) to
//! treat "the JVM crashed", "the heap was too small" and "these flags
//! conflict" as the same event. [`TrialError`] keeps the human-readable
//! message but adds a stable failure *kind*, so search techniques and
//! trace consumers can distinguish a configuration that can never start
//! (flag conflict — no point proposing neighbours) from one that ran out
//! of memory (a bigger heap may fix it) from an opaque crash.
//!
//! On top of the kind, [`TrialError::is_transient`] splits failures into
//! *transient* (an external cause — a hung launch killed by the watchdog,
//! a signal from the host, an injected fault — that a repeat run may not
//! hit again) and *deterministic* (the configuration itself is bad; no
//! repeat will fix it). The retry policy only re-runs transient failures,
//! the trial cache only memoizes deterministic ones, and the
//! [`QuarantinePolicy`] circuit-breaker counts only deterministic
//! streaks.

/// Why a trial run failed.
///
/// Every variant carries the human-readable message the executor
/// observed; [`TrialError::kind`] gives the stable machine-readable tag
/// serialised into traces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrialError {
    /// The process died for an unclassified reason (non-zero exit,
    /// launch failure, simulator-internal fault).
    Crash(String),
    /// The configured heap could not hold the workload's live set.
    Oom(String),
    /// The run exceeded the executor's time limit.
    Timeout(String),
    /// The flag combination is invalid — the VM refused to start.
    FlagConflict(String),
}

impl TrialError {
    /// Stable machine-readable tag (the `error_kind` trace field).
    pub fn kind(&self) -> &'static str {
        match self {
            TrialError::Crash(_) => "crash",
            TrialError::Oom(_) => "oom",
            TrialError::Timeout(_) => "timeout",
            TrialError::FlagConflict(_) => "flag-conflict",
        }
    }

    /// The variant [`TrialError::kind`] tags `kind`, carrying `message`;
    /// `None` for a tag outside the closed set.
    pub fn from_kind(kind: &str, message: impl Into<String>) -> Option<TrialError> {
        let variant: fn(String) -> TrialError = match kind {
            "crash" => TrialError::Crash,
            "oom" => TrialError::Oom,
            "timeout" => TrialError::Timeout,
            "flag-conflict" => TrialError::FlagConflict,
            _ => return None,
        };
        Some(variant(message.into()))
    }

    /// The human-readable message, exactly as the executor reported it.
    pub fn message(&self) -> &str {
        match self {
            TrialError::Crash(m)
            | TrialError::Oom(m)
            | TrialError::Timeout(m)
            | TrialError::FlagConflict(m) => m,
        }
    }

    /// Classify a raw failure message by content. Executors that observe
    /// structured failures (the simulator) construct variants directly;
    /// this heuristic covers executors that only see opaque text (a real
    /// `java` process's stderr or exit status).
    pub fn classify(message: impl Into<String>) -> TrialError {
        let message = message.into();
        let lower = message.to_lowercase();
        if lower.contains("outofmemory") || lower.contains("out of memory") {
            TrialError::Oom(message)
        } else if lower.contains("invalid configuration")
            || lower.contains("conflict")
            || lower.contains("unrecognized")
            || lower.contains("could not create the java virtual machine")
        {
            TrialError::FlagConflict(message)
        } else if lower.contains("timed out") || lower.contains("timeout") {
            TrialError::Timeout(message)
        } else {
            TrialError::Crash(message)
        }
    }

    /// Could a repeat run of the same configuration plausibly succeed?
    ///
    /// Transient failures have an *external* cause: a hang killed by the
    /// watchdog (host wedged, not the flags), a launch that failed to
    /// spawn (resource exhaustion), a process killed by a signal (OOM
    /// killer, operator), or an injected fault. Deterministic failures —
    /// a non-zero exit status, a heap that cannot hold the live set, a
    /// flag conflict — are properties of the configuration and will
    /// recur on every run.
    ///
    /// This is a content heuristic over the message (like
    /// [`classify`](TrialError::classify)) rather than extra enum
    /// variants, so the `error_kind` tags serialised into traces stay
    /// stable.
    pub fn is_transient(&self) -> bool {
        match self {
            TrialError::Timeout(_) => true,
            TrialError::Crash(m) => {
                let lower = m.to_lowercase();
                lower.contains("signal")
                    || lower.contains("failed to launch")
                    || lower.contains("transient")
            }
            TrialError::Oom(_) | TrialError::FlagConflict(_) => false,
        }
    }
}

/// Crash-streak circuit-breaker: after `streak` deterministic-failure
/// runs of one canonical fingerprint, the tuner stops re-proposing it
/// (the cache-reuse path skips it and falls back to a random probe).
///
/// Transient failures never count toward the streak, and a successful
/// run resets it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// Deterministic-failure runs before the fingerprint is quarantined.
    pub streak: u32,
}

impl Default for QuarantinePolicy {
    /// Three strikes: one failed evaluation under `fail_fast` contributes
    /// one run, so the default tolerates a couple of re-proposals before
    /// the breaker opens.
    fn default() -> Self {
        QuarantinePolicy { streak: 3 }
    }
}

impl std::fmt::Display for TrialError {
    /// Renders the message only (no kind prefix), so log lines and JSON
    /// traces carry the same bytes the executor produced.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for TrialError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_recognises_common_failures() {
        assert_eq!(
            TrialError::classify("java.lang.OutOfMemoryError: Java heap space").kind(),
            "oom"
        );
        assert_eq!(
            TrialError::classify("invalid configuration: zero heap").kind(),
            "flag-conflict"
        );
        assert_eq!(
            TrialError::classify("Unrecognized VM option 'UseFoo'").kind(),
            "flag-conflict"
        );
        assert_eq!(
            TrialError::classify("benchmark timed out after 600 s").kind(),
            "timeout"
        );
        assert_eq!(TrialError::classify("java exited with 134").kind(), "crash");
    }

    #[test]
    fn display_preserves_the_raw_message() {
        let e = TrialError::classify("java.lang.OutOfMemoryError: Java heap space");
        assert_eq!(e.to_string(), "java.lang.OutOfMemoryError: Java heap space");
        assert_eq!(e.message(), e.to_string());
    }

    #[test]
    fn classify_maps_process_executor_messages() {
        // The exact message shapes ProcessExecutor produces.
        assert_eq!(
            TrialError::classify("java exited with exit status: 1").kind(),
            "crash"
        );
        assert_eq!(
            TrialError::classify("java exited with signal: 9 (SIGKILL)").kind(),
            "crash"
        );
        assert_eq!(
            TrialError::classify("failed to launch java: No such file or directory").kind(),
            "crash"
        );
        assert_eq!(
            TrialError::classify("run timed out after 120.0s (killed by watchdog)").kind(),
            "timeout"
        );
        assert_eq!(
            TrialError::classify("Error: Could not create the Java Virtual Machine.").kind(),
            "flag-conflict"
        );
    }

    #[test]
    fn transient_vs_deterministic_classification() {
        // Transient: external causes a retry may dodge.
        assert!(TrialError::Timeout("run timed out after 120.0s".into()).is_transient());
        assert!(TrialError::classify("java exited with signal: 9 (SIGKILL)").is_transient());
        assert!(
            TrialError::classify("failed to launch java: Resource temporarily unavailable")
                .is_transient()
        );
        assert!(
            TrialError::Crash("injected transient fault: java killed by signal 9".into())
                .is_transient()
        );
        // Deterministic: properties of the configuration.
        assert!(!TrialError::classify("java exited with exit status: 134").is_transient());
        assert!(!TrialError::Oom("java.lang.OutOfMemoryError".into()).is_transient());
        assert!(
            !TrialError::FlagConflict("conflict: UseG1GC with UseParallelGC".into()).is_transient()
        );
    }

    #[test]
    fn every_kind_round_trips_through_from_kind() {
        for error in [
            TrialError::Crash("exit 134".into()),
            TrialError::Oom("heap space".into()),
            TrialError::Timeout("timed out".into()),
            TrialError::FlagConflict("conflict".into()),
        ] {
            assert_eq!(
                TrialError::from_kind(error.kind(), error.message()),
                Some(error.clone())
            );
        }
        assert_eq!(TrialError::from_kind("martian", "?"), None);
    }

    #[test]
    fn quarantine_default_is_three_strikes() {
        assert_eq!(QuarantinePolicy::default().streak, 3);
    }
}
