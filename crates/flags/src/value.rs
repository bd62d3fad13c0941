//! Flag values and domains.

use std::fmt;

/// A runtime value of a JVM flag.
///
/// Compact by design: configurations hold one `FlagValue` per flag in a
/// dense vector, so this enum stays 16 bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlagValue {
    /// A `-XX:+Flag` / `-XX:-Flag` boolean.
    Bool(bool),
    /// An integer flag (`intx` / `uintx` / size-in-bytes in HotSpot terms).
    Int(i64),
    /// A floating-point flag (`double` in HotSpot terms).
    Double(f64),
}

impl FlagValue {
    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            FlagValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(self) -> Option<i64> {
        match self {
            FlagValue::Int(i) => Some(i),
            _ => None,
        }
    }

    /// A total, deterministic hash key for deduplicating configurations.
    /// (`f64` is keyed by bit pattern; NaN never appears in valid configs.)
    pub fn hash_key(self) -> u64 {
        match self {
            FlagValue::Bool(b) => 0x1000_0000_0000_0000 | b as u64,
            FlagValue::Int(i) => 0x2000_0000_0000_0000 ^ i as u64,
            FlagValue::Double(d) => 0x3000_0000_0000_0000 ^ d.to_bits(),
        }
    }
}

impl fmt::Display for FlagValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagValue::Bool(b) => write!(f, "{b}"),
            FlagValue::Int(i) => write!(f, "{i}"),
            FlagValue::Double(d) => write!(f, "{d}"),
        }
    }
}

/// The set of values a flag may take, plus how the tuner should move
/// through it.
#[derive(Clone, Debug, PartialEq)]
pub enum Domain {
    /// On/off.
    Bool,
    /// Integer range, inclusive on both ends.
    ///
    /// `log_scale` marks flags whose useful values span orders of magnitude
    /// (heap sizes, thresholds): the tuner mutates them multiplicatively
    /// and samples them log-uniformly.
    IntRange {
        /// Smallest allowed value.
        lo: i64,
        /// Largest allowed value.
        hi: i64,
        /// Sample/mutate on a logarithmic scale.
        log_scale: bool,
    },
    /// Floating-point range, inclusive.
    DoubleRange {
        /// Smallest allowed value.
        lo: f64,
        /// Largest allowed value.
        hi: f64,
    },
}

impl Domain {
    /// Number of distinct values, `None` for (effectively) continuous
    /// domains. Used by the search-space-size computation (experiment E3).
    pub fn cardinality(&self) -> Option<u128> {
        match self {
            Domain::Bool => Some(2),
            Domain::IntRange { lo, hi, .. } => Some((*hi as i128 - *lo as i128 + 1) as u128),
            Domain::DoubleRange { .. } => None,
        }
    }

    /// log10 of the cardinality; continuous domains are counted as a
    /// conventional 10^3 grid (the paper's tuner discretises them too).
    pub fn log10_cardinality(&self) -> f64 {
        match self.cardinality() {
            Some(n) => (n as f64).log10(),
            None => 3.0,
        }
    }

    /// Does `v` belong to this domain (type and range)?
    pub fn contains(&self, v: FlagValue) -> bool {
        match (self, v) {
            (Domain::Bool, FlagValue::Bool(_)) => true,
            (Domain::IntRange { lo, hi, .. }, FlagValue::Int(i)) => *lo <= i && i <= *hi,
            (Domain::DoubleRange { lo, hi }, FlagValue::Double(d)) => {
                d.is_finite() && *lo <= d && d <= *hi
            }
            _ => false,
        }
    }

    /// Clamp a value into the domain (same type required).
    ///
    /// Returns `None` when the value's type does not match the domain.
    pub fn clamp(&self, v: FlagValue) -> Option<FlagValue> {
        match (self, v) {
            (Domain::Bool, FlagValue::Bool(b)) => Some(FlagValue::Bool(b)),
            (Domain::IntRange { lo, hi, .. }, FlagValue::Int(i)) => {
                Some(FlagValue::Int(i.clamp(*lo, *hi)))
            }
            (Domain::DoubleRange { lo, hi }, FlagValue::Double(d)) => {
                if d.is_nan() {
                    Some(FlagValue::Double(*lo))
                } else {
                    Some(FlagValue::Double(d.clamp(*lo, *hi)))
                }
            }
            _ => None,
        }
    }
}

/// Render a byte count the way HotSpot accepts it: exact multiples of
/// G/M/K collapse to the suffix form (`512m`), anything else is plain bytes.
pub fn render_size(bytes: i64) -> String {
    const K: i64 = 1024;
    const M: i64 = 1024 * 1024;
    const G: i64 = 1024 * 1024 * 1024;
    if bytes != 0 && bytes % G == 0 {
        format!("{}g", bytes / G)
    } else if bytes != 0 && bytes % M == 0 {
        format!("{}m", bytes / M)
    } else if bytes != 0 && bytes % K == 0 {
        format!("{}k", bytes / K)
    } else {
        format!("{bytes}")
    }
}

/// Parse a HotSpot size literal (`512m`, `64K`, `2g`, `1048576`).
pub fn parse_size(s: &str) -> Option<i64> {
    if s.is_empty() {
        return None;
    }
    let (num, mult) = match s.as_bytes()[s.len() - 1].to_ascii_lowercase() {
        b'k' => (&s[..s.len() - 1], 1024i64),
        b'm' => (&s[..s.len() - 1], 1024 * 1024),
        b'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        b't' => (&s[..s.len() - 1], 1024i64.pow(4)),
        _ => (s, 1),
    };
    num.parse::<i64>().ok()?.checked_mul(mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_value_is_small() {
        assert!(std::mem::size_of::<FlagValue>() <= 16);
    }

    #[test]
    fn accessors_match_variants() {
        assert_eq!(FlagValue::Bool(true).as_bool(), Some(true));
        assert_eq!(FlagValue::Bool(true).as_int(), None);
        assert_eq!(FlagValue::Int(7).as_int(), Some(7));
    }

    #[test]
    fn hash_keys_distinguish_types_and_values() {
        let keys = [
            FlagValue::Bool(false).hash_key(),
            FlagValue::Bool(true).hash_key(),
            FlagValue::Int(0).hash_key(),
            FlagValue::Int(1).hash_key(),
            FlagValue::Double(0.0).hash_key(),
        ];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "collision between {i} and {j}");
            }
        }
    }

    #[test]
    fn domain_cardinalities() {
        assert_eq!(Domain::Bool.cardinality(), Some(2));
        assert_eq!(
            Domain::IntRange {
                lo: 1,
                hi: 10,
                log_scale: false
            }
            .cardinality(),
            Some(10)
        );
        assert_eq!(Domain::DoubleRange { lo: 0.0, hi: 1.0 }.cardinality(), None);
        assert!((Domain::DoubleRange { lo: 0.0, hi: 1.0 }.log10_cardinality() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn contains_checks_type_and_range() {
        let d = Domain::IntRange {
            lo: 0,
            hi: 100,
            log_scale: false,
        };
        assert!(d.contains(FlagValue::Int(0)));
        assert!(d.contains(FlagValue::Int(100)));
        assert!(!d.contains(FlagValue::Int(101)));
        assert!(!d.contains(FlagValue::Bool(true)));
        let f = Domain::DoubleRange { lo: 0.0, hi: 1.0 };
        assert!(!f.contains(FlagValue::Double(f64::NAN)));
    }

    #[test]
    fn clamp_pulls_into_range() {
        let d = Domain::IntRange {
            lo: 10,
            hi: 20,
            log_scale: true,
        };
        assert_eq!(d.clamp(FlagValue::Int(5)), Some(FlagValue::Int(10)));
        assert_eq!(d.clamp(FlagValue::Int(25)), Some(FlagValue::Int(20)));
        assert_eq!(d.clamp(FlagValue::Int(15)), Some(FlagValue::Int(15)));
        assert_eq!(d.clamp(FlagValue::Bool(true)), None);
        let f = Domain::DoubleRange { lo: 0.0, hi: 1.0 };
        assert_eq!(
            f.clamp(FlagValue::Double(f64::NAN)),
            Some(FlagValue::Double(0.0))
        );
    }

    #[test]
    fn size_rendering_collapses_multiples() {
        assert_eq!(render_size(512 * 1024 * 1024), "512m");
        assert_eq!(render_size(2 * 1024 * 1024 * 1024), "2g");
        assert_eq!(render_size(64 * 1024), "64k");
        assert_eq!(render_size(1000), "1000");
        assert_eq!(render_size(0), "0");
    }

    #[test]
    fn size_parsing_accepts_hotspot_forms() {
        assert_eq!(parse_size("512m"), Some(512 * 1024 * 1024));
        assert_eq!(parse_size("2G"), Some(2 * 1024 * 1024 * 1024));
        assert_eq!(parse_size("64K"), Some(64 * 1024));
        assert_eq!(parse_size("12345"), Some(12345));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("12x"), None);
    }

    #[test]
    fn size_round_trips() {
        for v in [0i64, 1024, 65536, 512 << 20, 3 << 30] {
            assert_eq!(parse_size(&render_size(v)), Some(v));
        }
    }
}
