//! Post-tuning analysis: which of the changed flags actually mattered?
//!
//! Search-based tuners drag inert "hitchhiker" flags along in their best
//! configurations (a mutation that flipped `PrintGCDetails` on the same
//! step that found a better heap size survives selection). The paper's
//! discussion of found configurations — and any user deciding what to put
//! in production — needs the marginal impact of each setting:
//! [`flag_impact`] reverts each changed flag to its default individually
//! and measures the slowdown.

use jtune_flags::{FlagValue, JvmConfig};
use jtune_harness::Executor;
use jtune_util::stats;

/// Marginal impact of one flag setting in a tuned configuration.
#[derive(Clone, Debug)]
pub struct FlagImpact {
    /// Flag name.
    pub name: &'static str,
    /// The tuned value.
    pub value: FlagValue,
    /// The default it replaced.
    pub default: FlagValue,
    /// Percentage slowdown incurred by reverting this flag alone
    /// (positive = the setting helps; ≈ 0 = hitchhiker; negative = the
    /// setting actively hurts and survived by luck).
    pub impact_percent: f64,
}

/// Options for [`flag_impact`].
#[derive(Clone, Copy, Debug)]
pub struct ImpactOptions {
    /// Runs per measurement (median taken).
    pub repeats: u32,
    /// Noise seed base.
    pub seed: u64,
    /// |impact| below this is classified inert by [`split_hitchhikers`]
    /// (keep above the measurement-noise floor).
    pub hitchhiker_threshold: f64,
}

impl Default for ImpactOptions {
    fn default() -> Self {
        ImpactOptions {
            repeats: 15,
            seed: 0x1A_7AC7,
            hitchhiker_threshold: 0.75,
        }
    }
}

/// Median run time of `config` over `opts.repeats` seeded runs, counting
/// a failed run as infinitely slow.
pub fn median_score(executor: &dyn Executor, config: &JvmConfig, opts: &ImpactOptions) -> f64 {
    let times: Vec<f64> = (0..opts.repeats.max(1))
        .map(|i| {
            let m = executor.measure(config, opts.seed.wrapping_add(i as u64));
            if m.error.is_some() {
                f64::INFINITY
            } else {
                m.time.as_secs_f64()
            }
        })
        .collect();
    stats::median(&times)
}

/// Measure the marginal impact of every non-default flag in `config`,
/// sorted most-beneficial first.
pub fn flag_impact(
    executor: &dyn Executor,
    config: &JvmConfig,
    opts: ImpactOptions,
) -> Vec<FlagImpact> {
    let registry = executor.registry();
    let tuned_secs = median_score(executor, config, &opts);
    let mut impacts: Vec<FlagImpact> = config
        .delta(registry)
        .into_iter()
        .map(|d| {
            let mut reverted = config.clone();
            reverted.set(d.id, d.default);
            let reverted_secs = median_score(executor, &reverted, &opts);
            FlagImpact {
                name: d.name,
                value: d.value,
                default: d.default,
                impact_percent: stats::improvement_percent(reverted_secs, tuned_secs),
            }
        })
        .collect();
    impacts.sort_by(|a, b| b.impact_percent.total_cmp(&a.impact_percent));
    impacts
}

/// Split impacts into `(load_bearing, hitchhikers)` by the threshold.
pub fn split_hitchhikers(
    impacts: Vec<FlagImpact>,
    threshold: f64,
) -> (Vec<FlagImpact>, Vec<FlagImpact>) {
    impacts
        .into_iter()
        .partition(|i| i.impact_percent.abs() >= threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtune_harness::SimExecutor;
    use jtune_jvmsim::Workload;

    fn executor() -> SimExecutor {
        let mut w = Workload::baseline("impact-test");
        w.total_work = 3e8;
        w.hot_methods = 1200;
        w.hotness_skew = 0.6;
        SimExecutor::new(w)
    }

    fn tuned_config(ex: &SimExecutor) -> JvmConfig {
        let r = ex.registry();
        let mut c = JvmConfig::default_for(r);
        // One load-bearing flag, one hitchhiker.
        c.set_by_name(r, "TieredCompilation", FlagValue::Bool(true))
            .unwrap();
        c.set_by_name(r, "PrintGCDetails", FlagValue::Bool(true))
            .unwrap();
        c
    }

    #[test]
    fn impact_separates_load_bearing_from_hitchhikers() {
        let ex = executor();
        let config = tuned_config(&ex);
        let impacts = flag_impact(&ex, &config, ImpactOptions::default());
        assert_eq!(impacts.len(), 2);
        let tiered = impacts
            .iter()
            .find(|i| i.name == "TieredCompilation")
            .unwrap();
        let print = impacts.iter().find(|i| i.name == "PrintGCDetails").unwrap();
        assert!(
            tiered.impact_percent > 2.0,
            "tiered {:.2}%",
            tiered.impact_percent
        );
        assert!(
            print.impact_percent.abs() < 1.5,
            "print {:.2}%",
            print.impact_percent
        );
        // Sorted descending.
        assert_eq!(impacts[0].name, "TieredCompilation");
    }

    #[test]
    fn split_respects_threshold() {
        let ex = executor();
        let config = tuned_config(&ex);
        let impacts = flag_impact(&ex, &config, ImpactOptions::default());
        let (load, hitch) = split_hitchhikers(impacts, 1.5);
        assert_eq!(load.len(), 1);
        assert_eq!(hitch.len(), 1);
    }

    #[test]
    fn default_config_has_no_impacts() {
        let ex = executor();
        let config = JvmConfig::default_for(ex.registry());
        assert!(flag_impact(&ex, &config, ImpactOptions::default()).is_empty());
    }
}
