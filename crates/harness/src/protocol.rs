//! The measurement protocol: repeats, medians, significance, racing.

use jtune_flags::JvmConfig;
use jtune_util::cli::{self, Opt};
use jtune_util::stats;
use jtune_util::SimDuration;

use crate::error::TrialError;
use crate::executor::{Executor, RunCounters};
use crate::objective::Objective;

/// Sequential early-termination ("racing") policy.
///
/// After [`Racing::min_repeats`] successful runs, the remaining repeats
/// of a candidate are skipped when a Mann-Whitney U test says its samples
/// are already significantly slower than the best-so-far baseline (p
/// below [`Racing::alpha`] with effect above 0.5). The unspent repeats
/// are never charged to the tuning budget — that refund is what lets the
/// same budget cover more distinct configurations.
///
/// The default (`min_repeats = 2`, `alpha = 0.2`) is deliberately
/// conservative at the paper's `repeats = 3` protocol: with only two
/// candidate samples against a three-sample baseline, the minimum
/// attainable p-value (~0.149) requires *complete separation* — both
/// candidate runs slower than every baseline run — and a candidate in
/// that position can no longer beat the baseline median regardless of
/// its final run, so the abort cannot discard a would-be winner.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Racing {
    /// Runs to complete before the first abort check (≥ 1).
    pub min_repeats: u32,
    /// Significance level an abort requires.
    pub alpha: f64,
}

impl Default for Racing {
    fn default() -> Self {
        Racing {
            min_repeats: 2,
            alpha: 0.2,
        }
    }
}

/// Details of a racing abort.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RaceAbort {
    /// Successful runs completed when the candidate was abandoned.
    pub after_runs: u32,
    /// Mann-Whitney p-value at the abort.
    pub p_value: f64,
    /// Mann-Whitney effect (above 0.5 = candidate slower than baseline).
    pub effect: f64,
    /// Estimated budget saved: unspent repeats × mean cost per run so far.
    pub saved: SimDuration,
}

/// Bounded, budget-charged retries of *transient* run failures.
///
/// A run that fails transiently (see [`TrialError::is_transient`]) is
/// repeated up to [`RetryPolicy::max_retries`] times under a derived
/// noise seed before the failure is accepted. Every attempt — including
/// the failed ones — is charged to the tuning budget, and each successive
/// retry of the same run costs [`RetryPolicy::backoff`]× more than the
/// last (a stand-in for the back-off delay a real harness would sleep,
/// which burns tuning time without producing a sample). Deterministic
/// failures are never retried: the configuration itself is bad.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Extra attempts allowed per run (0 disables retrying).
    pub max_retries: u32,
    /// Cost multiplier per successive attempt (≥ 1): attempt *k* is
    /// charged `backoff^k` × its measured cost.
    pub backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff: 1.5,
        }
    }
}

impl RetryPolicy {
    /// Is failed attempt `attempt` (0 = the original try) allowed
    /// another retry? The one retry bound: trial retries, client
    /// resubmits and worker reconnects all stop here.
    pub fn allows(&self, attempt: u32) -> bool {
        attempt < self.max_retries
    }

    /// Budget-cost multiplier for attempt `attempt` (0 = the original try).
    pub fn cost_factor(&self, attempt: u32) -> f64 {
        self.backoff.max(1.0).powi(attempt as i32)
    }
}

/// Seeded, jittered exponential backoff for *wire* retries (client
/// resubmits, worker reconnects), derived from the same
/// [`RetryPolicy`] growth curve that prices trial retries.
///
/// Delays are a pure function of `(policy, attempt)`: attempt *k*
/// sleeps `base_ms × backoff^k`, capped at [`BackoffPolicy::cap_ms`],
/// scaled by a half-to-full jitter factor drawn from a
/// [`SplitMix64`](jtune_util::SplitMix64) stream keyed on
/// [`BackoffPolicy::seed`] and the attempt index — bit-reproducible, so
/// chaos tests can replay the exact retry schedule. A server-supplied
/// `retry_after_ms` hint acts as a floor: the computed delay never
/// undercuts what the server asked for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackoffPolicy {
    /// Retry bound ([`RetryPolicy::allows`]) and per-attempt growth
    /// factor ([`RetryPolicy::cost_factor`] as the exponential curve).
    pub retry: RetryPolicy,
    /// Delay before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Upper bound on any single delay, in milliseconds.
    pub cap_ms: u64,
    /// Seed for the jitter stream (vary per process to de-synchronise
    /// a thundering herd; keep fixed to replay a schedule).
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            retry: RetryPolicy {
                max_retries: 5,
                backoff: 2.0,
            },
            base_ms: 100,
            cap_ms: 5_000,
            seed: 0,
        }
    }
}

impl BackoffPolicy {
    /// Delay in milliseconds before retrying after failed attempt
    /// `attempt` (0-based). `hint_ms` is the server's `retry_after_ms`
    /// suggestion, honoured as a lower bound.
    pub fn delay_ms(&self, attempt: u32, hint_ms: Option<u64>) -> u64 {
        let raw = (self.base_ms as f64 * self.retry.cost_factor(attempt)).min(self.cap_ms as f64);
        let mut rng = jtune_util::SplitMix64::keyed(self.seed, 0, attempt as u64 + 1);
        use jtune_util::Rng;
        let jittered = (raw * (0.5 + 0.5 * rng.next_f64())).round() as u64;
        jittered.min(self.cap_ms).max(hint_ms.unwrap_or(0))
    }
}

/// The reconnect options `jtune client` and `jtune worker` share.
#[rustfmt::skip]
pub const BACKOFF_OPTIONS: &[Opt<BackoffPolicy>] = &[
    Opt::new("--retries N", "0 (worker 5)", "retry connection failures and overloaded replies with jittered exponential backoff",
        |p, v| cli::int(v).map(|n| p.retry.max_retries = n)),
    Opt::new("--retry-max-ms MS", "5000", "cap on one backoff delay, honoring the daemon's retry_after_ms hint",
        |p, v| cli::int(v).map(|ms: u64| p.cap_ms = ms.max(1))),
];

/// One retried attempt inside an [`Evaluation`] (for traces and the
/// trial journal).
#[derive(Clone, Debug, PartialEq)]
pub struct RetryRecord {
    /// Which protocol run (0-based repeat index) failed.
    pub rep: u32,
    /// 0-based attempt index that failed (0 = the original try).
    pub attempt: u32,
    /// The transient failure that triggered the retry.
    pub error: TrialError,
    /// Budget charged for the failed attempt (backoff premium included).
    pub cost: SimDuration,
}

/// How a candidate configuration is measured.
#[derive(Clone, Copy, Debug)]
pub struct Protocol {
    /// Runs per candidate. The paper runs each candidate a small fixed
    /// number of times within the budget; 3 is the default here.
    pub repeats: u32,
    /// Give up on a candidate after its first failed run (a crashed JVM
    /// will crash again; don't burn budget confirming it).
    pub fail_fast: bool,
    /// What the score optimises (default: run time, as in the paper).
    pub objective: Objective,
    /// Early-termination policy; `None` always burns all repeats (the
    /// paper's fixed-repeat protocol).
    pub racing: Option<Racing>,
    /// Transient-failure retry policy; `None` accepts the first failure
    /// (every failure looks deterministic, the pre-fault-tolerance
    /// behaviour).
    pub retry: Option<RetryPolicy>,
}

impl Default for Protocol {
    fn default() -> Self {
        Protocol {
            repeats: 3,
            fail_fast: true,
            objective: Objective::Throughput,
            racing: None,
            retry: None,
        }
    }
}

/// The scored result of measuring one candidate.
#[derive(Clone, Debug, PartialEq)]
pub struct Evaluation {
    /// Median objective value of the successful repeats (seconds for the
    /// throughput objective; lower is better). `None` when the candidate
    /// failed or was raced out.
    pub score: Option<SimDuration>,
    /// All successful per-run objective values, in run order.
    pub samples: Vec<SimDuration>,
    /// First classified failure, if any run failed.
    pub error: Option<TrialError>,
    /// Total budget cost: measured time of every run (including failed
    /// ones) plus fixed per-run overhead. Skipped repeats cost nothing.
    pub cost: SimDuration,
    /// VM activity counters summed across all runs (including failed
    /// ones), when the executor observes them.
    pub counters: Option<RunCounters>,
    /// Runs actually executed (≤ the protocol's repeat count). Retried
    /// attempts do not count: a run that succeeded on its second attempt
    /// is still one run.
    pub runs: u32,
    /// Set when racing abandoned the candidate early.
    pub raced: Option<RaceAbort>,
    /// Transient-failure retries performed (0 without a retry policy).
    pub retried: u32,
    /// One record per retried attempt, in occurrence order.
    pub retry_log: Vec<RetryRecord>,
}

impl Evaluation {
    /// Did the candidate produce a score?
    pub fn ok(&self) -> bool {
        self.score.is_some()
    }

    /// Was the candidate abandoned by racing?
    pub fn aborted(&self) -> bool {
        self.raced.is_some()
    }
}

impl Protocol {
    /// Measure `config` `repeats` times through `executor`, deriving each
    /// run's noise seed from `base_seed`. Never races (no baseline).
    pub fn evaluate(
        &self,
        executor: &dyn Executor,
        config: &JvmConfig,
        base_seed: u64,
    ) -> Evaluation {
        self.evaluate_raced(executor, config, base_seed, None)
    }

    /// [`Protocol::evaluate`] with a racing baseline: when this protocol
    /// has a [`Racing`] policy and `baseline` holds the best-so-far
    /// samples (seconds), the candidate is abandoned as soon as it is
    /// statistically hopeless, refunding the unspent repeats.
    pub fn evaluate_raced(
        &self,
        executor: &dyn Executor,
        config: &JvmConfig,
        base_seed: u64,
        baseline: Option<&[f64]>,
    ) -> Evaluation {
        let planned = self.repeats.max(1);
        let mut samples = Vec::with_capacity(planned as usize);
        let mut cost = SimDuration::ZERO;
        let mut error = None;
        let mut counters: Option<RunCounters> = None;
        let mut runs: u32 = 0;
        let mut raced: Option<RaceAbort> = None;
        let mut retried: u32 = 0;
        let mut retry_log: Vec<RetryRecord> = Vec::new();
        for rep in 0..planned {
            let rep_seed = base_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(rep as u64);
            let mut attempt: u32 = 0;
            let m = loop {
                // Attempt 0 keeps the pre-retry seed formula bit-for-bit;
                // retries draw a fresh noise stream so a transient fault
                // tied to the seed is not replayed verbatim.
                let seed = if attempt == 0 {
                    rep_seed
                } else {
                    rep_seed ^ (attempt as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
                };
                let m = executor.measure(config, seed);
                let mut attempt_cost = m.time + executor.fixed_overhead();
                if let Some(policy) = self.retry {
                    let factor = policy.cost_factor(attempt);
                    if factor != 1.0 {
                        attempt_cost = attempt_cost.mul_f64(factor);
                    }
                }
                cost += attempt_cost;
                if let Some(c) = m.counters {
                    let total = counters.get_or_insert_with(RunCounters::default);
                    total.gc_pause_total += c.gc_pause_total;
                    total.gc_collections += c.gc_collections;
                    total.jit_compile_time += c.jit_compile_time;
                    total.jit_compiles += c.jit_compiles;
                }
                match (&m.error, self.retry) {
                    (Some(e), Some(policy)) if e.is_transient() && policy.allows(attempt) => {
                        retried += 1;
                        retry_log.push(RetryRecord {
                            rep,
                            attempt,
                            error: e.clone(),
                            cost: attempt_cost,
                        });
                        attempt += 1;
                    }
                    _ => break m,
                }
            };
            runs += 1;
            match self.objective.score(&m) {
                Some(value) => samples.push(SimDuration::from_secs_f64(value)),
                None => {
                    error = m.error;
                    if self.fail_fast {
                        break;
                    }
                }
            }
            if let Some(abort) = self.race_check(baseline, &samples, error.is_some(), runs, cost) {
                raced = Some(abort);
                break;
            }
        }
        let score = if samples.is_empty() || error.is_some() || raced.is_some() {
            // A configuration that crashed even once is not trusted; a
            // raced-out candidate is censored (its partial median would
            // bias the record optimistically).
            None
        } else {
            let times: Vec<f64> = samples.iter().map(|s| s.as_secs_f64()).collect();
            Some(SimDuration::from_secs_f64(stats::median(&times)))
        };
        Evaluation {
            score,
            samples,
            error,
            cost,
            counters,
            runs,
            raced,
            retried,
            retry_log,
        }
    }

    /// Should the candidate be abandoned after its latest run?
    fn race_check(
        &self,
        baseline: Option<&[f64]>,
        samples: &[SimDuration],
        failed: bool,
        runs: u32,
        cost: SimDuration,
    ) -> Option<RaceAbort> {
        let racing = self.racing?;
        let baseline = baseline?;
        let planned = self.repeats.max(1);
        let done = samples.len() as u32;
        if failed || baseline.is_empty() || done < racing.min_repeats.max(1) || runs >= planned {
            return None;
        }
        let xs: Vec<f64> = samples.iter().map(|s| s.as_secs_f64()).collect();
        let mw = stats::mann_whitney_u(&xs, baseline)?;
        if mw.p_value < racing.alpha && mw.effect > 0.5 {
            let per_run = cost.as_secs_f64() / runs as f64;
            Some(RaceAbort {
                after_runs: done,
                p_value: mw.p_value,
                effect: mw.effect,
                saved: SimDuration::from_secs_f64(per_run * (planned - runs) as f64),
            })
        } else {
            None
        }
    }

    /// Two-sided Mann-Whitney comparison of two evaluations' samples.
    /// Returns `(p_value, effect)` where effect < 0.5 means `a` tends to be
    /// faster; `None` if either has no successful samples.
    pub fn compare(a: &Evaluation, b: &Evaluation) -> Option<(f64, f64)> {
        let xa: Vec<f64> = a.samples.iter().map(|s| s.as_secs_f64()).collect();
        let xb: Vec<f64> = b.samples.iter().map(|s| s.as_secs_f64()).collect();
        stats::mann_whitney_u(&xa, &xb).map(|m| (m.p_value, m.effect))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SimExecutor;
    use jtune_flags::{FlagValue, JvmConfig};
    use jtune_jvmsim::Workload;

    fn executor() -> SimExecutor {
        let mut w = Workload::baseline("proto-test");
        w.total_work = 3e8;
        SimExecutor::new(w)
    }

    #[test]
    fn evaluation_scores_by_median() {
        let ex = executor();
        let c = JvmConfig::default_for(ex.registry());
        let ev = Protocol {
            repeats: 5,
            fail_fast: true,
            ..Protocol::default()
        }
        .evaluate(&ex, &c, 42);
        assert!(ev.ok());
        assert!(!ev.aborted());
        assert_eq!(ev.samples.len(), 5);
        assert_eq!(ev.runs, 5);
        let mut times: Vec<f64> = ev.samples.iter().map(|s| s.as_secs_f64()).collect();
        times.sort_by(f64::total_cmp);
        assert!((ev.score.unwrap().as_secs_f64() - times[2]).abs() < 1e-9);
        // Cost exceeds the sum of run times (startup overhead).
        let run_sum: SimDuration = ev.samples.iter().copied().sum();
        assert!(ev.cost > run_sum);
    }

    #[test]
    fn failing_config_yields_no_score_and_fail_fast_saves_budget() {
        let mut w = Workload::baseline("oom");
        w.total_work = 3e8;
        w.live_set = 2e9;
        w.nursery_survival = 0.5;
        let ex = SimExecutor::new(w);
        let mut c = JvmConfig::default_for(ex.registry());
        c.set_by_name(ex.registry(), "MaxHeapSize", FlagValue::Int(64 << 20))
            .unwrap();
        let fast = Protocol {
            repeats: 5,
            fail_fast: true,
            ..Protocol::default()
        }
        .evaluate(&ex, &c, 1);
        assert!(!fast.ok());
        assert!(fast.error.is_some());
        assert_eq!(fast.error.as_ref().unwrap().kind(), "oom");
        let slow = Protocol {
            repeats: 5,
            fail_fast: false,
            ..Protocol::default()
        }
        .evaluate(&ex, &c, 1);
        assert!(!slow.ok());
        assert!(slow.cost >= fast.cost);
    }

    #[test]
    fn evaluation_is_deterministic_in_seed() {
        let ex = executor();
        let c = JvmConfig::default_for(ex.registry());
        let p = Protocol::default();
        let a = p.evaluate(&ex, &c, 9);
        let b = p.evaluate(&ex, &c, 9);
        assert_eq!(a.score, b.score);
        assert_eq!(a.samples, b.samples);
        let c2 = p.evaluate(&ex, &c, 10);
        assert_ne!(a.samples, c2.samples);
    }

    #[test]
    fn compare_distinguishes_clearly_different_configs() {
        let ex = executor();
        let p = Protocol {
            repeats: 6,
            fail_fast: true,
            ..Protocol::default()
        };
        let default = JvmConfig::default_for(ex.registry());
        let mut slow = default.clone();
        // Interpreter-only is drastically slower.
        slow.set_by_name(ex.registry(), "UseCompiler", FlagValue::Bool(false))
            .unwrap();
        let ev_fast = p.evaluate(&ex, &default, 1);
        let ev_slow = p.evaluate(&ex, &slow, 1);
        let (p_value, effect) = Protocol::compare(&ev_fast, &ev_slow).unwrap();
        assert!(p_value < 0.05, "p {p_value}");
        assert!(effect < 0.5);
    }

    #[test]
    fn repeats_zero_is_clamped_to_one() {
        let ex = executor();
        let c = JvmConfig::default_for(ex.registry());
        let ev = Protocol {
            repeats: 0,
            fail_fast: true,
            ..Protocol::default()
        }
        .evaluate(&ex, &c, 1);
        assert_eq!(ev.samples.len(), 1);
    }

    #[test]
    fn racing_aborts_a_hopeless_candidate_and_refunds_repeats() {
        let ex = executor();
        let p = Protocol {
            racing: Some(Racing::default()),
            ..Protocol::default()
        };
        let default = JvmConfig::default_for(ex.registry());
        let baseline_ev = p.evaluate(&ex, &default, 1);
        let baseline: Vec<f64> = baseline_ev
            .samples
            .iter()
            .map(|s| s.as_secs_f64())
            .collect();
        // Interpreter-only is several times slower: complete separation
        // after two runs, so racing must abort the third.
        let mut slow = default.clone();
        slow.set_by_name(ex.registry(), "UseCompiler", FlagValue::Bool(false))
            .unwrap();
        let raced = p.evaluate_raced(&ex, &slow, 2, Some(&baseline));
        assert!(raced.aborted());
        assert!(!raced.ok(), "raced-out candidates are censored");
        assert_eq!(raced.runs, 2);
        let abort = raced.raced.unwrap();
        assert_eq!(abort.after_runs, 2);
        assert!(abort.effect > 0.5);
        assert!(abort.saved > SimDuration::ZERO);
        // The refund is real: the raced evaluation cost less than a full one.
        let full = p.evaluate(&ex, &slow, 2);
        assert!(raced.cost < full.cost);
        assert_eq!(full.runs, 3);
    }

    #[test]
    fn racing_never_triggers_without_a_baseline_or_policy() {
        let ex = executor();
        let default = JvmConfig::default_for(ex.registry());
        let mut slow = default.clone();
        slow.set_by_name(ex.registry(), "UseCompiler", FlagValue::Bool(false))
            .unwrap();
        // Policy but no baseline.
        let p = Protocol {
            racing: Some(Racing::default()),
            ..Protocol::default()
        };
        assert!(!p.evaluate(&ex, &slow, 3).aborted());
        // Baseline but no policy.
        let base_ev = p.evaluate(&ex, &default, 1);
        let baseline: Vec<f64> = base_ev.samples.iter().map(|s| s.as_secs_f64()).collect();
        let no_policy = Protocol::default();
        assert!(!no_policy
            .evaluate_raced(&ex, &slow, 3, Some(&baseline))
            .aborted());
    }

    /// Executor whose first `failures` measure calls fail transiently.
    /// Protocol evaluation is sequential, so the failures land on the
    /// leading attempts deterministically.
    struct FlakyExecutor {
        inner: SimExecutor,
        failures: std::sync::atomic::AtomicU32,
        transient: bool,
    }

    impl FlakyExecutor {
        fn new(failures: u32, transient: bool) -> FlakyExecutor {
            FlakyExecutor {
                inner: executor(),
                failures: std::sync::atomic::AtomicU32::new(failures),
                transient,
            }
        }
    }

    impl Executor for FlakyExecutor {
        fn measure(&self, config: &JvmConfig, seed: u64) -> crate::executor::Measurement {
            let mut m = self.inner.measure(config, seed);
            let left = self
                .failures
                .fetch_update(
                    std::sync::atomic::Ordering::SeqCst,
                    std::sync::atomic::Ordering::SeqCst,
                    |n| n.checked_sub(1),
                )
                .is_ok();
            if left {
                m.error = Some(if self.transient {
                    TrialError::Crash("java exited with signal: 9 (SIGKILL)".into())
                } else {
                    TrialError::Crash("java exited with exit status: 134".into())
                });
            }
            m
        }

        fn registry(&self) -> &jtune_flags::Registry {
            self.inner.registry()
        }

        fn describe(&self) -> String {
            "flaky".into()
        }
    }

    #[test]
    fn retry_recovers_a_transient_failure_and_charges_backoff() {
        let ex = FlakyExecutor::new(1, true);
        let c = JvmConfig::default_for(ex.registry());
        let p = Protocol {
            retry: Some(RetryPolicy {
                max_retries: 2,
                backoff: 2.0,
            }),
            ..Protocol::default()
        };
        let ev = p.evaluate(&ex, &c, 42);
        assert!(ev.ok(), "{:?}", ev.error);
        assert_eq!(ev.runs, 3, "retries do not count as runs");
        assert_eq!(ev.samples.len(), 3);
        assert_eq!(ev.retried, 1);
        assert_eq!(ev.retry_log.len(), 1);
        let r = &ev.retry_log[0];
        assert_eq!((r.rep, r.attempt), (0, 0));
        assert!(r.error.is_transient());
        // The failed attempt was charged at the attempt-0 rate; a clean
        // evaluation of the same protocol costs less.
        let clean = p.evaluate(&FlakyExecutor::new(0, true), &c, 42);
        assert!(ev.cost > clean.cost);
        assert_eq!(clean.retried, 0);
        assert!(clean.retry_log.is_empty());
    }

    #[test]
    fn retry_budget_is_bounded_and_exhaustion_keeps_the_failure() {
        let ex = FlakyExecutor::new(10, true);
        let c = JvmConfig::default_for(ex.registry());
        let p = Protocol {
            retry: Some(RetryPolicy {
                max_retries: 2,
                backoff: 1.5,
            }),
            ..Protocol::default()
        };
        let ev = p.evaluate(&ex, &c, 7);
        assert!(!ev.ok());
        assert_eq!(ev.retried, 2, "bounded by max_retries");
        assert!(ev.error.unwrap().is_transient());
        assert_eq!(ev.runs, 1, "fail_fast still stops after the first run");
    }

    #[test]
    fn deterministic_failures_are_never_retried() {
        let ex = FlakyExecutor::new(1, false);
        let c = JvmConfig::default_for(ex.registry());
        let p = Protocol {
            retry: Some(RetryPolicy::default()),
            ..Protocol::default()
        };
        let ev = p.evaluate(&ex, &c, 7);
        assert!(!ev.ok());
        assert_eq!(ev.retried, 0);
    }

    #[test]
    fn retry_policy_backoff_grows_the_cost_factor() {
        let p = RetryPolicy {
            max_retries: 3,
            backoff: 1.5,
        };
        assert_eq!(p.cost_factor(0), 1.0);
        assert_eq!(p.cost_factor(1), 1.5);
        assert_eq!(p.cost_factor(2), 2.25);
        // Sub-1 backoff never discounts repeat work.
        let cheap = RetryPolicy {
            max_retries: 1,
            backoff: 0.5,
        };
        assert_eq!(cheap.cost_factor(3), 1.0);
    }

    #[test]
    fn retry_policy_leaves_clean_evaluations_bit_identical() {
        let ex = executor();
        let c = JvmConfig::default_for(ex.registry());
        let plain = Protocol::default().evaluate(&ex, &c, 11);
        let with_retry = Protocol {
            retry: Some(RetryPolicy::default()),
            ..Protocol::default()
        }
        .evaluate(&ex, &c, 11);
        assert_eq!(plain, with_retry);
    }

    #[test]
    fn backoff_policy_is_deterministic_capped_and_honours_hints() {
        let p = BackoffPolicy {
            seed: 42,
            ..BackoffPolicy::default()
        };
        // Pure function of (policy, attempt): same inputs, same delay.
        assert_eq!(p.delay_ms(0, None), p.delay_ms(0, None));
        // Jitter keeps every delay within [raw/2, raw], raw = base × 2^k.
        for attempt in 0..5 {
            let raw = (p.base_ms as f64 * p.retry.cost_factor(attempt)).min(p.cap_ms as f64);
            let d = p.delay_ms(attempt, None);
            assert!(d as f64 >= raw * 0.5 - 1.0, "attempt {attempt}: {d}");
            assert!(d <= p.cap_ms, "attempt {attempt}: {d}");
        }
        // A server hint is a floor, even above the jittered value.
        assert!(p.delay_ms(0, Some(4_000)) >= 4_000);
        // Different seeds de-synchronise the schedule.
        let q = BackoffPolicy {
            seed: 43,
            ..BackoffPolicy::default()
        };
        assert_ne!(
            (0..5).map(|a| p.delay_ms(a, None)).collect::<Vec<_>>(),
            (0..5).map(|a| q.delay_ms(a, None)).collect::<Vec<_>>()
        );
        // Retry budget comes from the embedded RetryPolicy.
        assert!(p.retry.allows(0) && p.retry.allows(4));
        assert!(!p.retry.allows(5));
    }

    #[test]
    fn racing_spares_a_competitive_candidate() {
        let ex = executor();
        let p = Protocol {
            racing: Some(Racing::default()),
            ..Protocol::default()
        };
        let default = JvmConfig::default_for(ex.registry());
        let baseline_ev = p.evaluate(&ex, &default, 1);
        let baseline: Vec<f64> = baseline_ev
            .samples
            .iter()
            .map(|s| s.as_secs_f64())
            .collect();
        // The same configuration re-measured under a different seed is
        // statistically indistinguishable from the baseline: no abort.
        let ev = p.evaluate_raced(&ex, &default, 99, Some(&baseline));
        assert!(!ev.aborted());
        assert!(ev.ok());
        assert_eq!(ev.runs, 3);
    }
}
