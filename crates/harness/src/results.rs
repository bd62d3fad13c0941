//! Serialisable tuning-session records.
//!
//! A finished session is one [`SessionRecord`]: the headline numbers,
//! the pipeline counters and the full trial log. It has one text form,
//! JSON via [`SessionRecord::to_json`], which `jtune tune --json`,
//! `jtune suite --json` and the daemon's `result.json` carry. The trial
//! stream itself is archived as a JSONL trace (`jtune-telemetry`).

use std::collections::BTreeMap;

use jtune_util::json::JsonObject;

/// One evaluated candidate within a session.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialRecord {
    /// Evaluation index within the session (0 = the default config).
    pub index: u64,
    /// Virtual tuning-clock time when the evaluation finished, seconds.
    pub at_secs: f64,
    /// Median score in seconds (`None` = candidate failed).
    pub score_secs: Option<f64>,
    /// Which search technique proposed it.
    pub technique: String,
    /// Flags changed from default, rendered as command-line arguments.
    pub delta: Vec<String>,
}

/// One technique's share of a session's trials.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TechniqueStats {
    /// Technique name (as attributed in the trial log; ensemble arms are
    /// individual).
    pub name: String,
    /// Candidates this technique proposed.
    pub proposals: u64,
    /// Proposals that failed to run.
    pub failures: u64,
    /// Proposals that improved on the best-so-far.
    pub wins: u64,
    /// Total best-score improvement attributed, seconds (the bandit's
    /// reward signal, reconstructed).
    pub reward_secs: f64,
    /// Best score this technique proposed (`None` if every proposal
    /// failed).
    pub best_secs: Option<f64>,
}

/// The per-technique tally of a session's trials, folded in evaluation
/// order: a trial that beats the best-so-far is a win for its technique,
/// worth the improvement; the first scored trial sets the best and wins
/// nothing. [`SessionRecord::technique_usage`] and the report's
/// technique table both come from it.
#[derive(Debug, Default)]
pub struct TechniqueFold {
    by_name: BTreeMap<String, TechniqueStats>,
    best: Option<f64>,
}

impl TechniqueFold {
    /// Fold the next trial; true when its score is a new best-so-far.
    pub fn trial(&mut self, technique: &str, score_secs: Option<f64>) -> bool {
        let t = self.by_name.entry(technique.to_string()).or_default();
        t.proposals += 1;
        let Some(s) = score_secs else {
            t.failures += 1;
            return false;
        };
        if t.best_secs.is_none_or(|b| s < b) {
            t.best_secs = Some(s);
        }
        match self.best {
            Some(best) if s >= best => false,
            prev => {
                if let Some(best) = prev {
                    t.wins += 1;
                    t.reward_secs += best - s;
                }
                self.best = Some(s);
                true
            }
        }
    }

    /// Every technique's tally, in name order.
    pub fn finish(self) -> Vec<TechniqueStats> {
        self.by_name
            .into_iter()
            .map(|(name, t)| TechniqueStats { name, ..t })
            .collect()
    }
}

/// One complete tuning session for one program.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionRecord {
    /// Program name.
    pub program: String,
    /// Executor description.
    pub executor: String,
    /// Budget in minutes.
    pub budget_mins: f64,
    /// Default-configuration score in seconds.
    pub default_secs: f64,
    /// Best score found, seconds.
    pub best_secs: f64,
    /// Command-line delta of the best configuration.
    pub best_delta: Vec<String>,
    /// Candidates evaluated (trials charged, including cache hits).
    pub evaluations: u64,
    /// Distinct configurations actually measured by the executor. Equals
    /// `evaluations` for a legacy session; with the evaluation pipeline's
    /// cache enabled, hits and duplicates keep `evaluations` growing
    /// without measuring anything new.
    pub distinct: u64,
    /// Trials served from the trial cache.
    pub cache_hits: u64,
    /// Trials abandoned early by racing.
    pub aborted: u64,
    /// Transient-failure repeats recovered by the retry policy.
    pub retried: u64,
    /// Configurations quarantined for failing deterministically.
    pub quarantined: u64,
    /// Within-batch duplicate proposals suppressed (served once).
    pub suppressed: u64,
    /// Estimated budget the cache, dedup and racing avoided spending,
    /// seconds.
    pub saved_secs: f64,
    /// Over-proposed candidates the surrogate screened out before
    /// measurement (0 with the model off).
    pub screened: u64,
    /// Surrogate refits performed during the session.
    pub model_fits: u64,
    /// Full trial log (for convergence plots).
    pub trials: Vec<TrialRecord>,
}

impl SessionRecord {
    /// Improvement percentage as the paper reports it (speedup − 1).
    pub fn improvement_percent(&self) -> f64 {
        jtune_util::stats::improvement_percent(self.default_secs, self.best_secs)
    }

    /// Per-technique usage derived from the trial log, in technique
    /// name order (see [`TechniqueFold`]).
    pub fn technique_usage(&self) -> Vec<TechniqueStats> {
        let mut fold = TechniqueFold::default();
        for t in &self.trials {
            fold.trial(&t.technique, t.score_secs);
        }
        fold.finish()
    }

    /// Render the session as a single JSON object (the `--json` surface).
    pub fn to_json(&self) -> String {
        let techniques: Vec<String> = self
            .technique_usage()
            .iter()
            .map(|t| {
                JsonObject::new()
                    .str("name", &t.name)
                    .u64("trials", t.proposals)
                    .u64("failures", t.failures)
                    .u64("wins", t.wins)
                    .f64("reward_secs", t.reward_secs)
                    .finish()
            })
            .collect();
        let trials: Vec<String> = self
            .trials
            .iter()
            .map(|t| {
                JsonObject::new()
                    .u64("index", t.index)
                    .f64("at_secs", t.at_secs)
                    .opt_f64("score_secs", t.score_secs)
                    .str("technique", &t.technique)
                    .str_array("delta", &t.delta)
                    .finish()
            })
            .collect();
        JsonObject::new()
            .str("program", &self.program)
            .str("executor", &self.executor)
            .f64("budget_mins", self.budget_mins)
            .f64("default_secs", self.default_secs)
            .f64("best_secs", self.best_secs)
            .f64("improvement_percent", self.improvement_percent())
            .str_array("best_delta", &self.best_delta)
            .u64("evaluations", self.evaluations)
            .u64("distinct", self.distinct)
            .u64("cache_hits", self.cache_hits)
            .u64("aborted", self.aborted)
            .u64("retried", self.retried)
            .u64("quarantined", self.quarantined)
            .u64("suppressed", self.suppressed)
            .f64("saved_secs", self.saved_secs)
            .u64("screened", self.screened)
            .u64("model_fits", self.model_fits)
            .raw("techniques", &jtune_util::json::array_of(&techniques))
            .raw("trials", &jtune_util::json::array_of(&trials))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionRecord {
        SessionRecord {
            program: "h2".into(),
            executor: "sim:h2".into(),
            budget_mins: 200.0,
            default_secs: 42.5,
            best_secs: 30.0,
            best_delta: vec![
                "-XX:+UseConcMarkSweepGC".into(),
                "-XX:MaxHeapSize=4g".into(),
            ],
            evaluations: 2,
            distinct: 2,
            cache_hits: 0,
            aborted: 0,
            retried: 0,
            quarantined: 0,
            suppressed: 0,
            saved_secs: 0.0,
            screened: 0,
            model_fits: 0,
            trials: vec![
                TrialRecord {
                    index: 0,
                    at_secs: 130.0,
                    score_secs: Some(42.5),
                    technique: "default".into(),
                    delta: vec![],
                },
                TrialRecord {
                    index: 1,
                    at_secs: 260.0,
                    score_secs: None,
                    technique: "random".into(),
                    delta: vec!["-XX:MaxHeapSize=16m".into()],
                },
            ],
        }
    }

    #[test]
    fn improvement_matches_paper_formula() {
        let s = sample();
        assert!((s.improvement_percent() - (42.5 / 30.0 - 1.0) * 100.0).abs() < 1e-9);
    }

    #[test]
    fn technique_usage_groups_wins_and_rewards() {
        let mut s = sample();
        s.trials.push(TrialRecord {
            index: 2,
            at_secs: 300.0,
            score_secs: Some(30.0),
            technique: "random".into(),
            delta: vec!["-XX:+UseG1GC".into()],
        });
        let usage = s.technique_usage();
        // Name order: default, random.
        assert_eq!(usage[0].name, "default");
        assert_eq!(usage[0].proposals, 1);
        assert_eq!(usage[1].name, "random");
        assert_eq!(usage[1].proposals, 2);
        assert_eq!(usage[1].failures, 1, "one failed trial");
        assert_eq!(usage[1].wins, 1, "one win");
        assert!(
            (usage[1].reward_secs - 12.5).abs() < 1e-12,
            "reward 42.5 - 30"
        );
        let json = s.to_json();
        assert!(json.contains("\"techniques\":[{\"name\":\"default\""));
        assert!(json.contains("\"reward_secs\":12.5"));
    }

    #[test]
    fn pipeline_counters_round_trip() {
        let mut s = sample();
        s.distinct = 1;
        s.cache_hits = 1;
        s.aborted = 0;
        s.retried = 3;
        s.quarantined = 1;
        s.suppressed = 2;
        s.saved_secs = 12.5;
        s.screened = 9;
        s.model_fits = 4;
        let v = jtune_util::json::parse(&s.to_json()).expect("parse");
        let u = |key: &str| v.get(key).and_then(|x| x.as_u64());
        assert_eq!(u("evaluations"), Some(2));
        assert_eq!(u("distinct"), Some(1));
        assert_eq!(u("cache_hits"), Some(1));
        assert_eq!(u("aborted"), Some(0));
        assert_eq!(u("retried"), Some(3));
        assert_eq!(u("quarantined"), Some(1));
        assert_eq!(u("suppressed"), Some(2));
        assert_eq!(u("screened"), Some(9));
        assert_eq!(u("model_fits"), Some(4));
        assert_eq!(v.get("saved_secs").and_then(|x| x.as_f64()), Some(12.5));
        let trials = v.get("trials").and_then(|x| x.as_array()).expect("trials");
        assert_eq!(trials.len(), 2);
        assert!(trials[1].get("score_secs").is_some_and(|x| x.is_null()));
    }
}
