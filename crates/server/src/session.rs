//! Session specs, the lifecycle state machine, and progress probing.

use std::sync::atomic::{AtomicU64, Ordering};

use autotuner_core::{ModelPolicy, TunerOptions};
use jtune_harness::ExecutorSpec;
use jtune_telemetry::{TraceEvent, TuningObserver};
use jtune_util::cli::{self, Opt};
use jtune_util::json_rows;
use jtune_util::rows;
use jtune_util::SimDuration;

json_rows! {
    /// What a client submits: the session-defining knobs of a tuning run.
    /// The same row is the persisted `spec.json` and, flattened after
    /// `"op"`, the body of a `submit` frame.
    ///
    /// A spec maps to [`TunerOptions`] exactly the way the one-shot
    /// `jtune tune` command line does, so a daemon session with a given
    /// `(program, budget, seed)` produces a trace byte-identical to
    /// `jtune tune <program> --budget <mins> --seed <seed> --checkpoint ...`.
    #[derive(Clone, Debug, PartialEq)]
    pub struct SessionSpec: lenient {
        /// Workload name (`compress`, `dacapo:h2`, ...).
        pub program: String,
        /// Tuning budget in virtual minutes (the paper used 200).
        pub budget_mins: u64 = SessionSpec::new("").budget_mins,
        /// Master seed: the session is a pure function of it.
        pub seed: u64 = SessionSpec::new("").seed,
        /// Optional hard cap on evaluations (small smoke sessions).
        pub max_evaluations as "max_evals": Option<u64> => IfSome,
        /// Surrogate screening over-proposal factor; `Some` enables
        /// model-guided screening (the one-shot `--screen-ratio` /
        /// `--model`). `None` keeps the legacy byte-stable pipeline, and the
        /// field is omitted from spec JSON so old `spec.json` files and
        /// clients round-trip unchanged.
        pub screen_ratio: Option<f64> => IfSome,
        /// Search technique override (e.g. `portfolio`, `model:ensemble`);
        /// `None` means the default ensemble and is omitted from spec JSON.
        pub technique: Option<String> => IfSome,
    }
}

impl SessionSpec {
    /// A spec with the same defaults as one-shot `jtune tune <program>`.
    pub fn new(program: impl Into<String>) -> SessionSpec {
        let defaults = TunerOptions::default();
        SessionSpec {
            program: program.into(),
            budget_mins: defaults.budget.as_mins_f64() as u64,
            seed: defaults.seed,
            max_evaluations: None,
            screen_ratio: None,
            technique: None,
        }
    }

    /// Render as a standalone JSON object (the `spec.json` format).
    pub fn to_json(&self) -> String {
        rows::encode(self)
    }

    /// Parse a standalone `spec.json` document.
    pub fn parse(text: &str) -> Result<SessionSpec, String> {
        let spec: SessionSpec = rows::decode(text)?;
        if spec.program.is_empty() {
            return Err("'program' must not be empty".to_string());
        }
        Ok(spec)
    }

    /// The [`TunerOptions`] this spec denotes — identical to what
    /// `jtune tune` builds for the equivalent flags. The caller wires in
    /// the server-side extras (checkpoint path, resume path, stop flag),
    /// none of which affect the trial stream.
    pub fn tuner_options(&self) -> TunerOptions {
        let mut opts = TunerOptions {
            budget: SimDuration::from_mins(self.budget_mins),
            seed: self.seed,
            ..TunerOptions::default()
        };
        opts.max_evaluations = self.max_evaluations;
        if let Some(ratio) = self.screen_ratio {
            opts.model = Some(ModelPolicy {
                screen_ratio: ratio,
                ..ModelPolicy::default()
            });
        }
        if let Some(name) = &self.technique {
            opts.technique = name.clone();
        }
        opts
    }

    /// The [`ExecutorSpec`] this session measures on — the same
    /// description the one-shot CLI and remote workers build from, so
    /// the executor tag (and with it the memo key and journal resume
    /// signature) is identical wherever a trial runs. Daemon sessions
    /// are simulator-backed, so this resolves `sim:<program>`.
    pub fn executor_spec(&self) -> Result<ExecutorSpec, String> {
        ExecutorSpec::named(&format!("sim:{}", self.program))
    }
}

/// The options of `jtune client submit`. Like the spec JSON keys, these
/// are spelled out rather than derived from the tuner's rows: the keys
/// are a persisted format, and a spec keeps an explicit `--technique`
/// even when it names the default.
#[rustfmt::skip]
pub const SESSION_OPTIONS: &[Opt<SessionSpec>] = &[
    Opt::new("--budget MIN", "200", "virtual tuning budget in minutes",
        |s, v| cli::parse(v, "a whole number of minutes").map(|m| s.budget_mins = m)),
    Opt::new("--seed N", "319242456645", "master seed: the session is a pure function of it",
        |s, v| cli::int(v).map(|seed| s.seed = seed)),
    Opt::new("--max-evals N", "none", "hard cap on evaluations",
        |s, v| cli::int(v).map(|n| s.max_evaluations = Some(n))),
    Opt::new("--screen-ratio F", "off", "surrogate screen over-proposing by F (the one-shot --model)",
        |s, v| cli::number(v).map(|r| s.screen_ratio = Some(r))),
    Opt::new("--technique NAME", "ensemble", "search technique, as for `jtune tune`",
        |s, v| { s.technique = Some(v.to_string()); Ok(()) }),
];

/// Where a session is in its life. Terminal states keep their dirs (and
/// results) on disk; `Suspended` sessions resume on daemon restart.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionState {
    /// Accepted, thread not yet running.
    Queued,
    /// Tuning loop in flight.
    Running,
    /// Stopped at a batch boundary by a drain; resumable from its
    /// journal.
    Suspended,
    /// Finished; `result.json` holds the session record.
    Completed,
    /// Cancelled by a client; never resumed.
    Cancelled,
    /// Died on a session error (bad spec surfaced late, unreadable
    /// journal, ...). The message says why.
    Failed(String),
}

impl SessionState {
    /// Stable label for status payloads.
    pub fn label(&self) -> &'static str {
        match self {
            SessionState::Queued => "queued",
            SessionState::Running => "running",
            SessionState::Suspended => "suspended",
            SessionState::Completed => "completed",
            SessionState::Cancelled => "cancelled",
            SessionState::Failed(_) => "failed",
        }
    }

    /// Terminal states never change again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            SessionState::Completed | SessionState::Cancelled | SessionState::Failed(_)
        )
    }
}

/// A cheap observer that tracks a session's live progress for `status`
/// replies: trials evaluated, budget spent, screens and refits.
#[derive(Debug, Default)]
pub struct ProgressProbe {
    trials: AtomicU64,
    spent_secs_bits: AtomicU64,
    screened: AtomicU64,
    model_fits: AtomicU64,
}

impl ProgressProbe {
    /// Fresh probe.
    pub fn new() -> ProgressProbe {
        ProgressProbe::default()
    }

    /// Evaluations observed so far.
    pub fn trials(&self) -> u64 {
        self.trials.load(Ordering::Relaxed)
    }

    /// Budget spent so far, virtual seconds.
    pub fn spent_secs(&self) -> f64 {
        f64::from_bits(self.spent_secs_bits.load(Ordering::Relaxed))
    }

    /// Proposals the surrogate screened out before measurement.
    pub fn screened(&self) -> u64 {
        self.screened.load(Ordering::Relaxed)
    }

    /// Surrogate refits observed so far.
    pub fn model_fits(&self) -> u64 {
        self.model_fits.load(Ordering::Relaxed)
    }
}

impl TuningObserver for ProgressProbe {
    fn on_event(&self, event: &TraceEvent) {
        match event {
            TraceEvent::TrialEvaluated {
                index,
                budget_spent_secs,
                ..
            } => {
                self.trials.store(index + 1, Ordering::Relaxed);
                self.spent_secs_bits
                    .store(budget_spent_secs.to_bits(), Ordering::Relaxed);
            }
            TraceEvent::CandidateScreened { .. } => {
                self.screened.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::ModelFit { refit: true, .. } => {
                self.model_fits.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_and_defaults_match_the_one_shot_cli() {
        let spec = SessionSpec {
            program: "compress".into(),
            budget_mins: 2,
            seed: 7,
            max_evaluations: Some(10),
            screen_ratio: None,
            technique: None,
        };
        assert_eq!(SessionSpec::parse(&spec.to_json()).unwrap(), spec);

        let defaults = SessionSpec::new("avrora");
        let opts = defaults.tuner_options();
        let baseline = TunerOptions::default();
        assert_eq!(opts.budget, baseline.budget);
        assert_eq!(opts.seed, baseline.seed);
        assert_eq!(opts.signature(), baseline.signature());
    }

    #[test]
    fn model_spec_fields_round_trip_and_reach_the_tuner() {
        let mut spec = SessionSpec::new("compress");
        // Legacy specs (no model fields) serialize without the new keys,
        // so pre-model daemons and spec.json files stay compatible.
        assert!(!spec.to_json().contains("screen_ratio"));
        assert!(!spec.to_json().contains("technique"));

        spec.screen_ratio = Some(6.0);
        spec.technique = Some("portfolio".to_string());
        let parsed = SessionSpec::parse(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
        let opts = parsed.tuner_options();
        assert_eq!(opts.model.map(|m| m.screen_ratio), Some(6.0));
        assert_eq!(opts.technique, "portfolio");
    }

    #[test]
    fn spec_parsing_rejects_malformed_fields() {
        assert!(SessionSpec::parse("{}").is_err());
        assert!(SessionSpec::parse("{\"program\":\"\"}").is_err());
        assert!(SessionSpec::parse("{\"program\":\"c\",\"seed\":\"x\"}").is_err());
        assert!(SessionSpec::parse("{\"program\":\"c\",\"budget_mins\":-1}").is_err());
    }

    #[test]
    fn probe_tracks_trials_and_completion() {
        let probe = ProgressProbe::new();
        probe.on_event(&TraceEvent::TrialEvaluated {
            index: 4,
            technique: "t".into(),
            delta: vec![],
            repeat_secs: vec![],
            score_secs: Some(1.0),
            cost_secs: 2.0,
            budget_spent_secs: 12.5,
            gc_pause_total_ms: None,
            gc_collections: None,
            jit_compile_ms: None,
            jit_compiles: None,
            error: None,
            error_kind: None,
        });
        assert_eq!(probe.trials(), 5);
        assert!((probe.spent_secs() - 12.5).abs() < 1e-12);
        probe.on_event(&TraceEvent::ModelFit {
            round: 1,
            samples: 16,
            refit: true,
        });
        probe.on_event(&TraceEvent::ModelFit {
            round: 2,
            samples: 16,
            refit: false,
        });
        probe.on_event(&TraceEvent::CandidateScreened {
            round: 2,
            fingerprint: 9,
            predicted_secs: 1.5,
            acquisition: 1.2,
        });
        assert_eq!(probe.model_fits(), 1, "cached fits are not refits");
        assert_eq!(probe.screened(), 1);
    }
}
