//! Tuning objectives.
//!
//! The paper tunes for run time. Production JVM tuning often optimises
//! *pause times* instead (or a blend) — the same search machinery applies,
//! only the candidate score changes. [`Objective`] maps a [`Measurement`]
//! to a lower-is-better score:
//!
//! - [`Objective::Throughput`] — total run time in seconds (the paper).
//! - [`Objective::PausePercentile`] — the p-th percentile GC pause in
//!   milliseconds. Latency tuning: a configuration that runs slightly
//!   longer but never stops the world for 200 ms wins.
//! - [`Objective::Weighted`] — run time inflated by a pause penalty, for
//!   "throughput, but don't wreck my tail latency" service-level goals.
//!
//! Executors that cannot observe pauses (a real `java` process without GC
//! log parsing) report no pause data; pause-based objectives then fall
//! back to throughput so the tuner degrades gracefully rather than
//! failing every candidate.

use crate::executor::Measurement;

/// What the tuner minimises.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Objective {
    /// Total run time, seconds (the paper's objective).
    #[default]
    Throughput,
    /// p-th percentile stop-the-world pause, milliseconds.
    PausePercentile(f64),
    /// `run_time × (1 + weight × pause_ms / 100)`: each 100 ms of p-th
    /// percentile pause costs `weight ×` the run time.
    Weighted {
        /// Pause percentile consulted.
        percentile: f64,
        /// Penalty weight per 100 ms of pause.
        weight: f64,
    },
}

impl Objective {
    /// Score a successful measurement (lower is better). Returns `None`
    /// only for failed measurements.
    pub fn score(&self, m: &Measurement) -> Option<f64> {
        if m.error.is_some() {
            return None;
        }
        let time_secs = m.time.as_secs_f64();
        let pause_ms = m.pause_p99_ms();
        Some(match self {
            Objective::Throughput => time_secs,
            Objective::PausePercentile(_) => match pause_ms {
                Some(p) => p.max(0.001),
                // No pause data: degrade to throughput.
                None => time_secs,
            },
            Objective::Weighted { weight, .. } => match pause_ms {
                Some(p) => time_secs * (1.0 + weight * p / 100.0),
                None => time_secs,
            },
        })
    }

    /// Short label for reports.
    pub fn name(&self) -> String {
        match self {
            Objective::Throughput => "throughput".to_string(),
            Objective::PausePercentile(p) => format!("pause-p{p:.0}"),
            Objective::Weighted { percentile, weight } => {
                format!("weighted(p{percentile:.0},w={weight})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtune_util::SimDuration;

    fn measurement(secs: f64, pause_ms: Option<f64>) -> Measurement {
        Measurement {
            time: SimDuration::from_secs_f64(secs),
            pause_p99: pause_ms.map(SimDuration::from_millis_f64),
            error: None,
            counters: None,
        }
    }

    #[test]
    fn throughput_scores_time() {
        let m = measurement(12.5, Some(80.0));
        assert_eq!(Objective::Throughput.score(&m), Some(12.5));
    }

    #[test]
    fn pause_objective_prefers_short_pauses_over_short_runs() {
        let fast_but_pausy = measurement(10.0, Some(400.0));
        let slow_but_smooth = measurement(12.0, Some(15.0));
        let o = Objective::PausePercentile(99.0);
        assert!(o.score(&slow_but_smooth).unwrap() < o.score(&fast_but_pausy).unwrap());
    }

    #[test]
    fn weighted_blends_both() {
        let o = Objective::Weighted {
            percentile: 99.0,
            weight: 0.5,
        };
        // 10 s with 200 ms pauses → 10 × (1 + 0.5×2) = 20.
        assert!((o.score(&measurement(10.0, Some(200.0))).unwrap() - 20.0).abs() < 1e-9);
        // 14 s with 10 ms pauses → 14.7: the smooth config wins.
        assert!(o.score(&measurement(14.0, Some(10.0))).unwrap() < 20.0);
    }

    #[test]
    fn missing_pause_data_degrades_to_throughput() {
        let m = measurement(9.0, None);
        assert_eq!(Objective::PausePercentile(99.0).score(&m), Some(9.0));
        assert_eq!(
            Objective::Weighted {
                percentile: 99.0,
                weight: 1.0
            }
            .score(&m),
            Some(9.0)
        );
    }

    #[test]
    fn failures_score_none() {
        let m = Measurement {
            time: SimDuration::from_secs(1),
            pause_p99: None,
            error: Some(crate::error::TrialError::classify("boom")),
            counters: None,
        };
        assert_eq!(Objective::Throughput.score(&m), None);
    }

    #[test]
    fn names_render() {
        assert_eq!(Objective::Throughput.name(), "throughput");
        assert_eq!(Objective::PausePercentile(99.0).name(), "pause-p99");
        assert!(Objective::Weighted {
            percentile: 95.0,
            weight: 0.5
        }
        .name()
        .contains("p95"));
    }
}
