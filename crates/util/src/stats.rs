//! Statistics for the measurement protocol.
//!
//! The paper's tuner compares a candidate JVM configuration against the
//! default by running each several times and comparing run-time samples.
//! This module provides the tools for that comparison:
//!
//! - [`Summary`]: one-pass descriptive statistics (Welford's algorithm).
//! - [`median`] / [`percentile`]: order statistics used by the harness's
//!   repeat-and-take-median protocol.
//! - [`mann_whitney_u`]: non-parametric two-sample test — run times are
//!   log-normal-ish, so a rank test is the right significance check.

/// One-pass descriptive statistics using Welford's online algorithm
/// (numerically stable; see the Rust Performance Book's advice on avoiding
/// catastrophic cancellation in accumulators).
#[derive(Clone, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Build a summary from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.add(x);
        }
        s
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n−1 denominator); 0 when fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another summary into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Median of a sample. Does not require the input to be sorted.
///
/// Returns 0.0 for an empty slice (callers in this workspace always have at
/// least one repeat; the harness enforces it).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolation percentile, `p` in `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Result of a two-sample Mann-Whitney U test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MannWhitney {
    /// The U statistic for the first sample.
    pub u: f64,
    /// Two-sided p-value from the normal approximation (tie-corrected).
    pub p_value: f64,
    /// Common-language effect size: P(X < Y) + ½P(X = Y); values below 0.5
    /// mean the first sample tends to be *smaller* (i.e. faster).
    pub effect: f64,
}

/// Mann-Whitney U test (normal approximation with tie correction).
///
/// Suitable for the sample sizes the harness uses (n ≥ 3 per side gives a
/// coarse but usable p-value; the tuner mainly consumes [`MannWhitney::effect`]).
/// Returns `None` if either sample is empty.
pub fn mann_whitney_u(xs: &[f64], ys: &[f64]) -> Option<MannWhitney> {
    let n1 = xs.len();
    let n2 = ys.len();
    if n1 == 0 || n2 == 0 {
        return None;
    }
    // Rank the pooled sample, averaging ranks for ties.
    let mut pooled: Vec<(f64, usize)> = xs
        .iter()
        .map(|&x| (x, 0usize))
        .chain(ys.iter().map(|&y| (y, 1usize)))
        .collect();
    pooled.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN in mann_whitney input"));

    let n = pooled.len();
    let mut rank_sum_x = 0.0f64;
    let mut tie_term = 0.0f64; // Σ (t³ − t) over tie groups
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let t = (j - i + 1) as f64;
        let avg_rank = (i + j) as f64 / 2.0 + 1.0; // ranks are 1-based
        for item in &pooled[i..=j] {
            if item.1 == 0 {
                rank_sum_x += avg_rank;
            }
        }
        if t > 1.0 {
            tie_term += t * t * t - t;
        }
        i = j + 1;
    }

    let n1f = n1 as f64;
    let n2f = n2 as f64;
    let u1 = rank_sum_x - n1f * (n1f + 1.0) / 2.0;
    let mean_u = n1f * n2f / 2.0;
    let nf = n as f64;
    let var_u = n1f * n2f / 12.0 * ((nf + 1.0) - tie_term / (nf * (nf - 1.0)));
    let p_value = if var_u <= 0.0 {
        1.0
    } else {
        // Continuity-corrected z.
        let z = (u1 - mean_u).abs() - 0.5;
        let z = if z < 0.0 { 0.0 } else { z / var_u.sqrt() };
        2.0 * (1.0 - std_normal_cdf(z))
    };
    Some(MannWhitney {
        u: u1,
        p_value: p_value.clamp(0.0, 1.0),
        effect: u1 / (n1f * n2f),
    })
}

/// Standard normal CDF via Abramowitz & Stegun 7.1.26 erf approximation
/// (absolute error < 1.5e-7, ample for significance testing).
pub fn std_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Relative improvement of `tuned` over `default` as the paper reports it:
/// `(default − tuned) / tuned × 100` — "program X was improved by N %"
/// meaning the tuned run is N % *faster* (speedup − 1).
///
/// The abstract's "improved by 63 %" phrasing is a speedup statement; we use
/// speedup−1 throughout and call it *improvement*.
pub fn improvement_percent(default_time: f64, tuned_time: f64) -> f64 {
    if tuned_time <= 0.0 {
        return 0.0;
    }
    (default_time / tuned_time - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_hand_computation() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance with n−1 = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 50.0).collect();
        let whole = Summary::from_slice(&xs);
        let mut left = Summary::from_slice(&xs[..37]);
        let right = Summary::from_slice(&xs[37..]);
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::from_slice(&[1.0, 2.0, 3.0]);
        let before = s.mean();
        s.merge(&Summary::new());
        assert_eq!(s.mean(), before);
        let mut empty = Summary::new();
        empty.merge(&Summary::from_slice(&[1.0, 2.0, 3.0]));
        assert_eq!(empty.count(), 3);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_endpoints() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert_eq!(percentile(&xs, 50.0), 25.0);
    }

    #[test]
    fn mann_whitney_detects_clear_separation() {
        let fast = [1.0, 1.1, 0.9, 1.05, 0.95, 1.02];
        let slow = [2.0, 2.1, 1.9, 2.05, 1.95, 2.02];
        let mw = mann_whitney_u(&fast, &slow).unwrap();
        assert!(mw.p_value < 0.05, "p {}", mw.p_value);
        assert!(mw.effect < 0.1, "effect {}", mw.effect);
    }

    #[test]
    fn mann_whitney_identical_samples_not_significant() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mw = mann_whitney_u(&a, &a).unwrap();
        assert!(mw.p_value > 0.5, "p {}", mw.p_value);
        assert!((mw.effect - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mann_whitney_empty_returns_none() {
        assert!(mann_whitney_u(&[], &[1.0]).is_none());
        assert!(mann_whitney_u(&[1.0], &[]).is_none());
    }

    #[test]
    fn normal_cdf_reference_points() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((std_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((std_normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn improvement_percent_matches_paper_semantics() {
        // Default 163 s, tuned 100 s → 63 % improvement (speedup 1.63).
        assert!((improvement_percent(163.0, 100.0) - 63.0).abs() < 1e-9);
        assert_eq!(improvement_percent(100.0, 0.0), 0.0);
        // Regression shows as negative.
        assert!(improvement_percent(90.0, 100.0) < 0.0);
    }
}
