//! The analytics model: one [`SessionSummary`] per tuning session,
//! built by replaying a serialised JSONL trace
//! ([`SessionSummary::from_trace`]).
//!
//! Every derivation here is a pure function of the input bytes —
//! grouping uses `BTreeMap`, floats are carried as parsed — so the same
//! input directory always yields the same summary, and the renderers on
//! top of it the same report bytes.

use std::collections::BTreeMap;

use jtune_harness::{TechniqueFold, TraceEvent};

pub use jtune_harness::TechniqueStats;

/// One point of a session's convergence curve: the best score known
/// after an evaluation finished.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvergencePoint {
    /// Evaluation index (0 = the default configuration).
    pub index: u64,
    /// Virtual tuning-clock seconds spent when the evaluation finished.
    pub spent_secs: f64,
    /// Best score found so far, seconds.
    pub best_secs: f64,
}

/// Pipeline and fault-tolerance counters aggregated over a session.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SessionCounters {
    /// Candidates evaluated (trials charged, including cache hits).
    pub evaluations: u64,
    /// Trials served from the trial cache.
    pub cache_hits: u64,
    /// Within-batch duplicate proposals suppressed.
    pub suppressed: u64,
    /// Trials abandoned early by racing.
    pub aborted: u64,
    /// Transient-failure repeats recovered by the retry policy.
    pub retried: u64,
    /// Configurations quarantined for failing deterministically.
    pub quarantined: u64,
    /// Over-proposed candidates the surrogate screened out.
    pub screened: u64,
    /// Surrogate refits performed.
    pub model_fits: u64,
    /// Journal checkpoints written.
    pub checkpoints: u64,
    /// Failed evaluations.
    pub failures: u64,
    /// Budget the cache, dedup and racing avoided spending, seconds.
    pub saved_secs: f64,
}

/// Aggregated effect of one JVM flag across a session's trials.
#[derive(Clone, Debug, PartialEq)]
pub struct FlagImpact {
    /// Flag name (parsed out of `-XX:±Name` / `-XX:Name=value`).
    pub flag: String,
    /// Trials whose delta touched the flag.
    pub trials: u64,
    /// Successful trials among those.
    pub successes: u64,
    /// Best score among the successful trials, seconds.
    pub best_secs: Option<f64>,
    /// Mean score among the successful trials, seconds.
    pub mean_secs: Option<f64>,
    /// Appearances in the final best configuration's delta (0 or 1).
    pub in_best: u64,
}

/// Everything the report knows about one tuning session.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionSummary {
    /// Display label (trace file stem, session ID, or program name).
    pub label: String,
    /// Program tuned.
    pub program: String,
    /// Search technique option the session ran with.
    pub technique: String,
    /// Tuning budget, virtual seconds.
    pub budget_secs: f64,
    /// Master seed.
    pub seed: u64,
    /// Default-configuration score, seconds.
    pub default_secs: f64,
    /// Best score found, seconds.
    pub best_secs: f64,
    /// Headline improvement, percent.
    pub improvement_percent: f64,
    /// Budget spent, virtual seconds.
    pub spent_secs: f64,
    /// Best configuration's flag delta.
    pub best_delta: Vec<String>,
    /// Best-so-far curve, one point per scored evaluation.
    pub convergence: Vec<ConvergencePoint>,
    /// Per-technique statistics, sorted by technique name.
    pub techniques: Vec<TechniqueStats>,
    /// Pipeline counters.
    pub counters: SessionCounters,
    /// Per-flag impact rows, sorted by flag name.
    pub flags: Vec<FlagImpact>,
}

/// Parse the flag name out of a `-XX:` command-line argument:
/// `-XX:+UseG1GC` / `-XX:-UseG1GC` → `UseG1GC`,
/// `-XX:MaxHeapSize=4g` → `MaxHeapSize`. Returns `None` for anything
/// else.
pub fn flag_name(arg: &str) -> Option<&str> {
    let rest = arg.strip_prefix("-XX:")?;
    let rest = rest.strip_prefix(['+', '-']).unwrap_or(rest);
    let name = rest.split('=').next()?;
    (!name.is_empty()).then_some(name)
}

/// Streaming accumulator the trace replay folds trials into.
#[derive(Default)]
struct Accumulator {
    convergence: Vec<ConvergencePoint>,
    techniques: TechniqueFold,
    flags: BTreeMap<String, FlagImpact>,
    counters: SessionCounters,
    default_secs: Option<f64>,
}

impl Accumulator {
    /// Fold one scored trial in evaluation order.
    fn trial(
        &mut self,
        index: u64,
        spent_secs: f64,
        score_secs: Option<f64>,
        technique: &str,
        delta: &[String],
    ) {
        self.counters.evaluations += 1;
        let improved = self.techniques.trial(technique, score_secs);
        match score_secs {
            None => self.counters.failures += 1,
            Some(s) => {
                if index == 0 && self.default_secs.is_none() {
                    self.default_secs = Some(s);
                }
                if improved {
                    self.convergence.push(ConvergencePoint {
                        index,
                        spent_secs,
                        best_secs: s,
                    });
                }
            }
        }
        for arg in delta {
            let Some(name) = flag_name(arg) else { continue };
            let f = self
                .flags
                .entry(name.to_string())
                .or_insert_with(|| FlagImpact {
                    flag: name.to_string(),
                    trials: 0,
                    successes: 0,
                    best_secs: None,
                    mean_secs: None,
                    in_best: 0,
                });
            f.trials += 1;
            if let Some(s) = score_secs {
                f.successes += 1;
                if f.best_secs.is_none_or(|b| s < b) {
                    f.best_secs = Some(s);
                }
                // mean_secs holds the running sum until finish().
                *f.mean_secs.get_or_insert(0.0) += s;
            }
        }
    }

    fn finish(
        mut self,
        best_delta: &[String],
    ) -> (
        Vec<ConvergencePoint>,
        Vec<TechniqueStats>,
        Vec<FlagImpact>,
        SessionCounters,
    ) {
        for arg in best_delta {
            if let Some(name) = flag_name(arg) {
                if let Some(f) = self.flags.get_mut(name) {
                    f.in_best = 1;
                }
            }
        }
        let flags = self
            .flags
            .into_values()
            .map(|mut f| {
                f.mean_secs = f
                    .mean_secs
                    .map(|sum| sum / f.successes.max(1) as f64)
                    .filter(|_| f.successes > 0);
                f
            })
            .collect();
        (
            self.convergence,
            self.techniques.finish(),
            flags,
            self.counters,
        )
    }
}

/// A decoded float with `null` (a non-finite value, decoded as NaN)
/// read as 0.
fn or_zero(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

impl SessionSummary {
    /// Replay one serialised JSONL trace into a summary. `label` names
    /// the session in the report (usually the trace file stem). A line
    /// [`TraceEvent::from_json`] cannot decode is an error naming the
    /// line and the field, and so is a second `SessionStarted`: a trace
    /// holds one session.
    pub fn from_trace(label: &str, trace: &str) -> Result<SessionSummary, String> {
        let mut acc = Accumulator::default();
        let mut started = None;
        let mut spent_secs = 0.0;
        let mut finished = None;
        for (n, line) in trace.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let event = TraceEvent::from_json(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let counters = &mut acc.counters;
            match event {
                TraceEvent::SessionStarted { .. } if started.is_some() => {
                    return Err(format!(
                        "line {}: a second SessionStarted; a trace holds one session",
                        n + 1
                    ));
                }
                TraceEvent::SessionStarted {
                    program,
                    technique,
                    budget_secs,
                    seed,
                    ..
                } => started = Some((program, technique, or_zero(budget_secs), seed)),
                TraceEvent::TrialEvaluated {
                    index,
                    technique,
                    delta,
                    score_secs,
                    budget_spent_secs,
                    ..
                } => {
                    spent_secs = or_zero(budget_spent_secs);
                    acc.trial(index, spent_secs, score_secs, &technique, &delta);
                }
                TraceEvent::CacheHit { saved_secs, .. } => {
                    counters.cache_hits += 1;
                    counters.saved_secs += or_zero(saved_secs);
                }
                TraceEvent::DuplicateSuppressed { .. } => counters.suppressed += 1,
                TraceEvent::TrialAborted { saved_secs, .. } => {
                    counters.aborted += 1;
                    counters.saved_secs += or_zero(saved_secs);
                }
                TraceEvent::TrialRetried { .. } => counters.retried += 1,
                TraceEvent::Quarantined { .. } => counters.quarantined += 1,
                TraceEvent::CandidateScreened { .. } => counters.screened += 1,
                TraceEvent::ModelFit { refit: true, .. } => counters.model_fits += 1,
                TraceEvent::CheckpointWritten { .. } => counters.checkpoints += 1,
                TraceEvent::SessionFinished {
                    default_secs,
                    best_secs,
                    improvement_percent,
                    evaluations,
                    spent_secs,
                    best_delta,
                    ..
                } => {
                    finished = Some((
                        or_zero(default_secs),
                        or_zero(best_secs),
                        or_zero(improvement_percent),
                        evaluations,
                        or_zero(spent_secs),
                        best_delta,
                    ));
                }
                // Worker-level and informational events carry nothing the
                // summary needs beyond what the session-level stream has.
                _ => {}
            }
        }
        let Some((program, technique, budget_secs, seed)) = started else {
            return Err("no SessionStarted event — not a trace file".to_string());
        };
        let (default_secs, best_secs, improvement_percent, evaluations, final_spent, best_delta) =
            finished.unwrap_or_else(|| {
                // Truncated trace (killed session): report what the
                // replay reconstructed.
                let default = acc.default_secs.unwrap_or(0.0);
                let best = acc.convergence.last().map_or(default, |p| p.best_secs);
                (
                    default,
                    best,
                    jtune_util::stats::improvement_percent(default, best),
                    acc.counters.evaluations,
                    spent_secs,
                    Vec::new(),
                )
            });
        let (convergence, techniques, flags, mut counters) = acc.finish(&best_delta);
        counters.evaluations = counters.evaluations.max(evaluations);
        Ok(SessionSummary {
            label: label.to_string(),
            program,
            technique,
            budget_secs,
            seed,
            default_secs,
            best_secs,
            improvement_percent,
            spent_secs: final_spent,
            best_delta,
            convergence,
            techniques,
            counters,
            flags,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(events: &[&str]) -> String {
        let mut s = events.join("\n");
        s.push('\n');
        s
    }

    fn started() -> &'static str {
        r#"{"type":"SessionStarted","program":"compress","executor":"sim:compress","technique":"ensemble","manipulator":"hierarchical","budget_secs":600,"seed":7,"batch":8,"repeats":3}"#
    }

    #[test]
    fn flag_names_parse_all_xx_shapes() {
        assert_eq!(flag_name("-XX:+UseG1GC"), Some("UseG1GC"));
        assert_eq!(flag_name("-XX:-UseG1GC"), Some("UseG1GC"));
        assert_eq!(flag_name("-XX:MaxHeapSize=4g"), Some("MaxHeapSize"));
        assert_eq!(flag_name("-Xmx4g"), None);
        assert_eq!(flag_name("plain"), None);
    }

    #[test]
    fn replay_builds_convergence_techniques_and_flags() {
        let trace = lines(&[
            started(),
            r#"{"type":"TrialEvaluated","index":0,"technique":"default","delta":[],"repeat_secs":[10.0],"score_secs":10.0,"cost_secs":10.0,"budget_spent_secs":10.0,"gc_pause_total_ms":null,"jit_compile_ms":null,"error":null}"#,
            r#"{"type":"TrialEvaluated","index":1,"technique":"random","delta":["-XX:+UseG1GC"],"repeat_secs":[9.0],"score_secs":9.0,"cost_secs":9.0,"budget_spent_secs":19.0,"gc_pause_total_ms":null,"jit_compile_ms":null,"error":null}"#,
            r#"{"type":"BestImproved","index":1,"score_secs":9.0,"improvement_percent":11.1,"delta":["-XX:+UseG1GC"]}"#,
            r#"{"type":"TrialEvaluated","index":2,"technique":"anneal","delta":["-XX:MaxHeapSize=16m"],"repeat_secs":[],"score_secs":null,"cost_secs":1.0,"budget_spent_secs":20.0,"gc_pause_total_ms":null,"jit_compile_ms":null,"error":"oom","error_kind":"oom"}"#,
            r#"{"type":"TrialEvaluated","index":3,"technique":"random","delta":["-XX:+UseG1GC","-XX:MaxHeapSize=4g"],"repeat_secs":[8.0],"score_secs":8.0,"cost_secs":8.0,"budget_spent_secs":28.0,"gc_pause_total_ms":null,"jit_compile_ms":null,"error":null}"#,
            r#"{"type":"SessionFinished","program":"compress","default_secs":10.0,"best_secs":8.0,"improvement_percent":25.0,"evaluations":4,"spent_secs":28.0,"best_delta":["-XX:+UseG1GC","-XX:MaxHeapSize=4g"]}"#,
        ]);
        let s = SessionSummary::from_trace("t", &trace).expect("replay");
        assert_eq!(s.program, "compress");
        assert_eq!(s.seed, 7);
        assert_eq!(s.default_secs, 10.0);
        assert_eq!(s.best_secs, 8.0);
        assert_eq!(s.counters.evaluations, 4);
        assert_eq!(s.counters.failures, 1);
        // Convergence: default, then 9.0, then 8.0.
        let bests: Vec<f64> = s.convergence.iter().map(|p| p.best_secs).collect();
        assert_eq!(bests, vec![10.0, 9.0, 8.0]);
        // Techniques sorted by name: anneal, default, random.
        let names: Vec<&str> = s.techniques.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["anneal", "default", "random"]);
        let random = &s.techniques[2];
        assert_eq!(random.proposals, 2);
        assert_eq!(random.wins, 2);
        assert!((random.reward_secs - 2.0).abs() < 1e-12);
        let anneal = &s.techniques[0];
        assert_eq!(anneal.failures, 1);
        assert_eq!(anneal.best_secs, None);
        // Flags sorted by name; MaxHeapSize saw one failure + one success.
        let names: Vec<&str> = s.flags.iter().map(|f| f.flag.as_str()).collect();
        assert_eq!(names, vec!["MaxHeapSize", "UseG1GC"]);
        let heap = &s.flags[0];
        assert_eq!(heap.trials, 2);
        assert_eq!(heap.successes, 1);
        assert_eq!(heap.best_secs, Some(8.0));
        assert_eq!(heap.in_best, 1);
        let g1 = &s.flags[1];
        assert_eq!(g1.trials, 2);
        assert_eq!(g1.mean_secs, Some(8.5));
    }

    #[test]
    fn truncated_trace_reports_reconstructed_best() {
        let trace = lines(&[
            started(),
            r#"{"type":"TrialEvaluated","index":0,"technique":"default","delta":[],"repeat_secs":[10.0],"score_secs":10.0,"cost_secs":10.0,"budget_spent_secs":10.0,"gc_pause_total_ms":null,"jit_compile_ms":null,"error":null}"#,
            r#"{"type":"TrialEvaluated","index":1,"technique":"random","delta":[],"repeat_secs":[9.5],"score_secs":9.5,"cost_secs":9.5,"budget_spent_secs":19.5,"gc_pause_total_ms":null,"jit_compile_ms":null,"error":null}"#,
        ]);
        let s = SessionSummary::from_trace("t", &trace).expect("replay");
        assert_eq!(s.default_secs, 10.0);
        assert_eq!(s.best_secs, 9.5);
        assert_eq!(s.counters.evaluations, 2);
        assert!(s.best_delta.is_empty());
    }

    #[test]
    fn undecodable_lines_fail_the_replay_naming_line_and_field() {
        let trial = r#"{"type":"TrialEvaluated","index":0,"technique":"default","delta":[],"repeat_secs":[10.0],"score_secs":10.0,"cost_secs":10.0,"budget_spent_secs":10.0,"gc_pause_total_ms":null,"jit_compile_ms":null,"error":null}"#;
        assert!(SessionSummary::from_trace("t", &lines(&[started(), trial])).is_ok());
        let renamed = trial.replace("budget_spent_secs", "budget_used_secs");
        let err = SessionSummary::from_trace("t", &lines(&[started(), &renamed])).unwrap_err();
        assert_eq!(
            err,
            "line 2: TrialEvaluated: missing field `budget_spent_secs`"
        );
        let unknown = trial.replace("TrialEvaluated", "TrialScored");
        let err = SessionSummary::from_trace("t", &lines(&[started(), &unknown])).unwrap_err();
        assert_eq!(err, "line 2: unknown event type \"TrialScored\"");
    }

    #[test]
    fn a_second_session_fails_the_replay_naming_its_line() {
        let trial = r#"{"type":"TrialEvaluated","index":0,"technique":"default","delta":[],"repeat_secs":[10.0],"score_secs":10.0,"cost_secs":10.0,"budget_spent_secs":10.0,"gc_pause_total_ms":null,"jit_compile_ms":null,"error":null}"#;
        let one = lines(&[started(), trial]);
        assert!(SessionSummary::from_trace("t", &one).is_ok());
        let err = SessionSummary::from_trace("t", &format!("{one}{one}")).unwrap_err();
        assert_eq!(
            err,
            "line 3: a second SessionStarted; a trace holds one session"
        );
    }

    #[test]
    fn non_trace_input_is_rejected() {
        assert!(SessionSummary::from_trace("t", "").is_err());
        assert!(SessionSummary::from_trace(
            "t",
            "{\"type\":\"RoundProposed\",\"round\":1,\"technique\":\"x\",\"candidates\":2}\n"
        )
        .is_err());
        assert!(SessionSummary::from_trace("t", "not json\n").is_err());
    }
}
