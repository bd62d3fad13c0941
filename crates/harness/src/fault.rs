//! Deterministic fault injection.
//!
//! Real testbeds misbehave: JVM launches hang, processes die to signals,
//! a co-tenant poisons a measurement. None of that is reproducible on
//! demand, which makes robustness code untestable — so this module makes
//! faults *injectable and seeded*. A [`FaultPlan`] decides, as a pure
//! function of `(plan seed, config fingerprint, run seed)`, whether a
//! given run suffers a transient crash, a hang (surfaced as a watchdog
//! timeout), or a measurement-noise spike; [`FaultyExecutor`] wraps any
//! [`Executor`] and applies those decisions. The same plan over the same
//! session replays bit-identically at any worker count, and because the
//! retry policy re-runs a failed attempt under a *derived* seed, a
//! retried run rolls a fresh fault decision — exactly the behaviour that
//! makes retrying transient failures worthwhile.

use jtune_flags::{JvmConfig, Registry};
use jtune_jvmsim::NoiseModel;
use jtune_util::{Rng, SimDuration, SplitMix64};

use crate::error::TrialError;
use crate::executor::{Executor, Measurement};

/// The fault a plan assigns to one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Run normally.
    None,
    /// The process dies to a signal partway through the run; the budget
    /// is charged for the fraction completed.
    Crash {
        /// Fraction of the real run time burned before the kill.
        at_fraction: f64,
    },
    /// The process hangs; the watchdog kills it after the plan's
    /// deadline, which is charged in full.
    Hang,
    /// The run completes but its measurement is poisoned by host
    /// interference (a large multiplicative spike).
    NoiseSpike,
}

/// Seeded schedule of injected faults.
///
/// Rates are independent probabilities partitioning one uniform draw per
/// run; they must sum to ≤ 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault stream (independent of the measurement noise).
    pub seed: u64,
    /// Probability a run crashes transiently.
    pub crash_rate: f64,
    /// Probability a run hangs until the watchdog fires.
    pub hang_rate: f64,
    /// Probability a run's measurement is spiked.
    pub noise_rate: f64,
    /// Minimum spike multiplier (see [`NoiseModel::spike_factor`]).
    pub noise_factor: f64,
    /// Virtual time a hung run burns before the watchdog kills it.
    pub hang_time: SimDuration,
}

impl FaultPlan {
    /// The seed `--fault-rate` uses unless `--fault-seed` says otherwise.
    pub const DEFAULT_SEED: u64 = 0xFA_017;

    /// A plan injecting only *transient* faults at a total rate of
    /// `rate`, split 60% crashes / 20% hangs / 20% noise spikes — the
    /// mix used by the `e9_faults` experiment.
    pub fn transient(rate: f64, seed: u64) -> FaultPlan {
        let rate = rate.clamp(0.0, 1.0);
        FaultPlan {
            seed,
            crash_rate: rate * 0.6,
            hang_rate: rate * 0.2,
            noise_rate: rate * 0.2,
            noise_factor: 3.0,
            hang_time: SimDuration::from_secs(120),
        }
    }

    /// Does this plan ever inject anything?
    pub fn is_active(&self) -> bool {
        self.crash_rate + self.hang_rate + self.noise_rate > 0.0
    }

    /// The fault assigned to one run. Pure function of the arguments.
    pub fn roll(&self, fingerprint: u64, run_seed: u64) -> Fault {
        let mut rng = SplitMix64::keyed(self.seed, fingerprint, run_seed);
        match rng.next_bucket(&[self.crash_rate, self.hang_rate, self.noise_rate]) {
            Some(0) => Fault::Crash {
                at_fraction: 0.1 + 0.8 * rng.next_f64(),
            },
            Some(1) => Fault::Hang,
            Some(_) => Fault::NoiseSpike,
            None => Fault::None,
        }
    }
}

/// [`Executor`] wrapper that applies a [`FaultPlan`] to every run.
///
/// Injected crashes and hangs carry messages that
/// [`TrialError::is_transient`] recognises as transient, so the retry /
/// quarantine policy exercises its intended paths.
#[derive(Clone, Debug)]
pub struct FaultyExecutor<E> {
    inner: E,
    plan: FaultPlan,
}

impl<E: Executor> FaultyExecutor<E> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: E, plan: FaultPlan) -> FaultyExecutor<E> {
        FaultyExecutor { inner, plan }
    }

    /// The active plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped executor.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: Executor> Executor for FaultyExecutor<E> {
    fn measure(&self, config: &JvmConfig, seed: u64) -> Measurement {
        match self.plan.roll(config.fingerprint(), seed) {
            Fault::None => self.inner.measure(config, seed),
            Fault::Crash { at_fraction } => {
                // The run dies partway: charge the fraction completed.
                let m = self.inner.measure(config, seed);
                Measurement {
                    time: m.time.mul_f64(at_fraction),
                    pause_p99: None,
                    counters: None,
                    error: Some(TrialError::Crash(
                        "injected transient fault: java killed by signal 9".to_string(),
                    )),
                }
            }
            Fault::Hang => Measurement {
                time: self.plan.hang_time,
                pause_p99: None,
                counters: None,
                error: Some(TrialError::Timeout(format!(
                    "injected hang: run timed out after {} (killed by watchdog)",
                    self.plan.hang_time
                ))),
            },
            Fault::NoiseSpike => {
                let mut m = self.inner.measure(config, seed);
                if m.error.is_none() {
                    let factor = NoiseModel::spike_factor(
                        self.plan.seed ^ config.fingerprint() ^ seed,
                        self.plan.noise_factor,
                    );
                    m.time = m.time.mul_f64(factor);
                }
                m
            }
        }
    }

    fn registry(&self) -> &Registry {
        self.inner.registry()
    }

    fn fixed_overhead(&self) -> SimDuration {
        self.inner.fixed_overhead()
    }

    /// Embeds the plan so a resumed session's journal-header check
    /// catches a changed fault schedule.
    fn describe(&self) -> String {
        format!(
            "faulty[seed={},crash={},hang={},noise={}x{}]:{}",
            self.plan.seed,
            self.plan.crash_rate,
            self.plan.hang_rate,
            self.plan.noise_rate,
            self.plan.noise_factor,
            self.inner.describe()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SimExecutor;
    use crate::protocol::{Protocol, RetryPolicy};
    use jtune_jvmsim::Workload;

    fn executor(rate: f64) -> FaultyExecutor<SimExecutor> {
        let mut w = Workload::baseline("fault-test");
        w.total_work = 3e8;
        FaultyExecutor::new(SimExecutor::new(w), FaultPlan::transient(rate, 0xFA17))
    }

    #[test]
    fn faults_are_deterministic_in_the_plan_seed() {
        let ex = executor(0.3);
        let c = JvmConfig::default_for(ex.registry());
        for seed in 0..64 {
            let a = ex.measure(&c, seed);
            let b = ex.measure(&c, seed);
            assert_eq!(a.time, b.time);
            assert_eq!(a.error, b.error);
        }
    }

    #[test]
    fn fault_rate_matches_the_plan_roughly() {
        let ex = executor(0.2);
        let c = JvmConfig::default_for(ex.registry());
        let faulted = (0..1000)
            .filter(|&seed| ex.plan().roll(c.fingerprint(), seed) != Fault::None)
            .count();
        assert!((100..320).contains(&faulted), "rate off: {faulted}/1000");
    }

    #[test]
    fn injected_faults_are_transient_and_typed() {
        let ex = executor(0.5);
        let c = JvmConfig::default_for(ex.registry());
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..400 {
            if let Some(err) = ex.measure(&c, seed).error {
                assert!(err.is_transient(), "{}", err.message());
                kinds.insert(err.kind());
            }
        }
        assert!(kinds.contains("crash"), "no injected crashes in 400 runs");
        assert!(kinds.contains("timeout"), "no injected hangs in 400 runs");
    }

    #[test]
    fn zero_rate_plan_is_invisible() {
        let faulty = executor(0.0);
        assert!(!faulty.plan().is_active());
        let c = JvmConfig::default_for(faulty.registry());
        for seed in 0..32 {
            let a = faulty.measure(&c, seed);
            let b = faulty.inner().measure(&c, seed);
            assert_eq!(a.time, b.time);
            assert_eq!(a.error, b.error);
        }
    }

    #[test]
    fn retry_rolls_a_fresh_fault_decision() {
        // Find a run seed that crashes, then confirm the protocol's
        // retry (derived seed) usually recovers a score.
        let ex = executor(0.10);
        let c = JvmConfig::default_for(ex.registry());
        let p = Protocol {
            retry: Some(RetryPolicy::default()),
            fail_fast: true,
            ..Protocol::default()
        };
        let mut recovered = 0;
        let mut faulted = 0;
        for base in 0..60u64 {
            let ev = p.evaluate(&ex, &c, base);
            if ev.retried > 0 {
                faulted += 1;
                if ev.ok() {
                    recovered += 1;
                }
            }
        }
        assert!(faulted > 0, "no faults hit in 60 evaluations");
        assert!(
            recovered * 2 >= faulted,
            "retries recovered {recovered}/{faulted}"
        );
    }
}
