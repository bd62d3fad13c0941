//! Tuning-time budget accounting.
//!
//! The paper tunes each program within a wall-clock budget ("a maximum
//! tuning time of 200 minutes"). [`Budget`] is that clock: every candidate
//! evaluation charges its cost (run times + start-up overhead), and the
//! tuner stops when the budget is spent. Thread-safe so the parallel
//! evaluation pool can charge concurrently; charging is atomic
//! (compare-and-swap) so the total never overshoots by more than the final
//! in-flight evaluation, matching how a real tuner's last run may straddle
//! the deadline.
//!
//! Refund economics: the evaluation pipeline's savings (cache hits,
//! duplicate suppression, racing aborts) need no explicit refund API.
//! Charges record what was *actually spent* — a cache hit charges its
//! re-charge share, a duplicate charges zero, a raced-out candidate
//! charges only the repeats it ran — so unspent repeats simply never
//! reach the clock, and summing a trace's charges still reproduces the
//! session's spend exactly.

use std::sync::atomic::{AtomicU64, Ordering};

use jtune_util::SimDuration;

/// A spendable amount of virtual tuning time.
#[derive(Debug)]
pub struct Budget {
    total_nanos: u64,
    spent_nanos: AtomicU64,
}

/// What one [`Budget::charge_observed`] call did.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChargeOutcome {
    /// The charge started within budget (the evaluation counts).
    pub started_within: bool,
    /// This exact charge crossed the limit: true at most once per
    /// session, on the straddling final charge.
    pub crossed_limit: bool,
    /// Cumulative spend after the charge.
    pub spent_after: SimDuration,
}

impl Budget {
    /// A budget of `total` tuning time.
    pub fn new(total: SimDuration) -> Budget {
        Budget {
            total_nanos: total.as_nanos(),
            spent_nanos: AtomicU64::new(0),
        }
    }

    /// Total allocation.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos(self.total_nanos)
    }

    /// Time spent so far.
    pub fn spent(&self) -> SimDuration {
        SimDuration::from_nanos(self.spent_nanos.load(Ordering::Relaxed))
    }

    /// Time remaining (zero once exhausted).
    pub fn remaining(&self) -> SimDuration {
        self.total().saturating_sub(self.spent())
    }

    /// Is any budget left to start new work?
    pub fn has_remaining(&self) -> bool {
        self.spent_nanos.load(Ordering::Relaxed) < self.total_nanos
    }

    /// Charge `cost`. Returns `true` if the charge *started* within budget
    /// (the final evaluation may straddle the deadline, like a real run).
    pub fn charge(&self, cost: SimDuration) -> bool {
        self.charge_observed(cost).started_within
    }

    /// [`Budget::charge`] with full accounting detail, the telemetry
    /// hook: the tuner emits a `BudgetExhausted` event on the single
    /// charge whose [`ChargeOutcome::crossed_limit`] is `true`.
    pub fn charge_observed(&self, cost: SimDuration) -> ChargeOutcome {
        let before = self
            .spent_nanos
            .fetch_add(cost.as_nanos(), Ordering::Relaxed);
        let after = before.saturating_add(cost.as_nanos());
        ChargeOutcome {
            started_within: before < self.total_nanos,
            crossed_limit: before < self.total_nanos
                && after >= self.total_nanos
                && self.total_nanos > 0,
            spent_after: SimDuration::from_nanos(after),
        }
    }

    /// Fraction spent, ≥ 0 (can exceed 1 after the straddling final run).
    pub fn fraction_spent(&self) -> f64 {
        if self.total_nanos == 0 {
            return 1.0;
        }
        self.spent().as_nanos() as f64 / self.total_nanos as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let b = Budget::new(SimDuration::from_secs(10));
        assert!(b.charge(SimDuration::from_secs(4)));
        assert!(b.charge(SimDuration::from_secs(4)));
        assert_eq!(b.spent(), SimDuration::from_secs(8));
        assert_eq!(b.remaining(), SimDuration::from_secs(2));
        assert!(b.has_remaining());
        // Final charge straddles the deadline: allowed, but exhausts.
        assert!(b.charge(SimDuration::from_secs(4)));
        assert!(!b.has_remaining());
        assert!(!b.charge(SimDuration::from_secs(1)));
        assert_eq!(b.remaining(), SimDuration::ZERO);
    }

    #[test]
    fn fraction_spent_tracks() {
        let b = Budget::new(SimDuration::from_secs(10));
        b.charge(SimDuration::from_secs(5));
        assert!((b.fraction_spent() - 0.5).abs() < 1e-9);
        let zero = Budget::new(SimDuration::ZERO);
        assert_eq!(zero.fraction_spent(), 1.0);
        assert!(!zero.has_remaining());
    }

    #[test]
    fn concurrent_charging_is_consistent() {
        let b = Budget::new(SimDuration::from_secs(1000));
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        b.charge(SimDuration::from_millis(1));
                    }
                });
            }
        });
        assert_eq!(b.spent(), SimDuration::from_secs(8));
    }
}
