//! Log-scaled latency histograms.
//!
//! The GC simulator records every pause in a [`Histogram`]; experiments
//! report pause-time percentiles from it (G1's `MaxGCPauseMillis` target is
//! evaluated against the observed distribution). Buckets are
//! powers-of-two-ish (log base 2 with 4 sub-buckets per octave), giving
//! ≤ ~19 % relative error per bucket across 1 ns … ~584 s, which is plenty
//! for pause-shape comparisons.

use crate::simtime::SimDuration;

const SUB_BUCKETS: u32 = 4; // sub-buckets per power of two
const NUM_BUCKETS: usize = (64 * SUB_BUCKETS) as usize;

/// Fixed-size log-scaled histogram of [`SimDuration`] samples.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum_nanos: u128,
    max: SimDuration,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum_nanos: 0,
            max: SimDuration::ZERO,
        }
    }

    fn bucket_for(ns: u64) -> usize {
        if ns == 0 {
            return 0;
        }
        let log2 = 63 - ns.leading_zeros(); // floor(log2 ns)
        let base = log2 * SUB_BUCKETS;
        // Sub-bucket from the bits just below the leading one.
        let sub = if log2 >= 2 {
            ((ns >> (log2 - 2)) & 0b11) as u32
        } else {
            0
        };
        ((base + sub) as usize).min(NUM_BUCKETS - 1)
    }

    /// Representative (lower-bound) value of a bucket, in nanoseconds.
    fn bucket_floor(idx: usize) -> u64 {
        let log2 = idx as u32 / SUB_BUCKETS;
        let sub = idx as u32 % SUB_BUCKETS;
        if log2 == 0 {
            return sub as u64;
        }
        let base = 1u64 << log2;
        if log2 >= 2 {
            base + ((sub as u64) << (log2 - 2))
        } else {
            base
        }
    }

    /// Record one sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.counts[Self::bucket_for(ns)] += 1;
        self.total += 1;
        self.sum_nanos += ns as u128;
        if d > self.max {
            self.max = d;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples.
    pub fn sum(&self) -> SimDuration {
        SimDuration::from_nanos(self.sum_nanos.min(u64::MAX as u128) as u64)
    }

    /// Mean sample (zero when empty).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_nanos / self.total as u128) as u64)
        }
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Approximate percentile (`p` in `[0, 100]`), zero when empty.
    ///
    /// Returns the floor of the bucket containing the requested rank, except
    /// for the top of the distribution where the exact max is returned.
    pub fn percentile(&self, p: f64) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = (p / 100.0 * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The max is exact; report it for the last-occupied bucket.
                if seen == self.total && c > 0 && p >= 100.0 {
                    return self.max;
                }
                return SimDuration::from_nanos(Self::bucket_floor(i));
            }
        }
        self.max
    }

    /// Merge another histogram into this one (parallel reduction).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_nanos += other.sum_nanos;
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(50.0), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn records_and_counts() {
        let mut h = Histogram::new();
        for ms in [1u64, 2, 4, 8, 100] {
            h.record(SimDuration::from_millis(ms));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), SimDuration::from_millis(100));
        assert_eq!(h.sum(), SimDuration::from_millis(115));
        assert_eq!(h.mean(), SimDuration::from_millis(23));
    }

    #[test]
    fn percentile_monotone_and_bounded() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_micros(i));
        }
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        let p100 = h.percentile(100.0);
        assert!(p50 <= p90 && p90 <= p100);
        assert_eq!(p100, SimDuration::from_micros(1000));
        // p50 bucket floor should be within ~25 % below the true median.
        let true_median = SimDuration::from_micros(500).as_nanos() as f64;
        assert!(p50.as_nanos() as f64 > true_median * 0.7);
        assert!(p50.as_nanos() as f64 <= true_median * 1.01);
    }

    #[test]
    fn bucket_relative_error_bounded() {
        // For any value ≥ 4 (the first fully sub-bucketed octave), the
        // bucket floor is within 25 % below the value; below that, it is
        // merely a lower bound.
        for ns in [1u64, 2, 3, 4, 7, 100, 1023, 1025, 1_000_000, 123_456_789] {
            let b = Histogram::bucket_for(ns);
            let floor = Histogram::bucket_floor(b);
            assert!(floor <= ns, "floor {floor} > value {ns}");
            if ns >= 4 {
                assert!(
                    (ns - floor) as f64 / ns as f64 <= 0.25,
                    "floor {floor} too far below {ns}"
                );
            }
        }
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 1..200u64 {
            let d = SimDuration::from_micros(i * 17 % 991);
            whole.record(d);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.percentile(95.0), whole.percentile(95.0));
    }

    #[test]
    fn zero_duration_sample_is_representable() {
        let mut h = Histogram::new();
        h.record(SimDuration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(100.0), SimDuration::ZERO);
    }
}
