//! Complete JVM configurations.
//!
//! A [`JvmConfig`] assigns a value to *every* flag in a registry, stored as
//! a dense `Vec<FlagValue>` indexed by [`FlagId`]. This is the object the
//! tuner mutates, the hierarchy resolves, and the simulator (or a real
//! `java` process) consumes.

use crate::registry::{Registry, ValidationError};
use crate::spec::FlagId;
use crate::value::{parse_size, render_size, Domain, FlagValue};

/// A complete flag assignment.
#[derive(Clone, Debug, PartialEq)]
pub struct JvmConfig {
    values: Vec<FlagValue>,
}

impl JvmConfig {
    /// The registry's out-of-the-box configuration (every flag at its
    /// default).
    pub fn default_for(registry: &Registry) -> Self {
        Self {
            values: registry.default_values(),
        }
    }

    /// Number of flags.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the config covers zero flags (empty registry).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Read one flag.
    pub fn get(&self, id: FlagId) -> FlagValue {
        self.values[id.index()]
    }

    /// Write one flag without domain checking (used by the tuner after it
    /// has already clamped into the domain).
    pub fn set(&mut self, id: FlagId, value: FlagValue) {
        self.values[id.index()] = value;
    }

    /// Write one flag, validating against the registry.
    pub fn set_checked(
        &mut self,
        registry: &Registry,
        id: FlagId,
        value: FlagValue,
    ) -> Result<(), ValidationError> {
        registry.check(id, value)?;
        self.set(id, value);
        Ok(())
    }

    /// Convenience: set by name, validating.
    pub fn set_by_name(
        &mut self,
        registry: &Registry,
        name: &str,
        value: FlagValue,
    ) -> Result<(), ValidationError> {
        let id = registry.require(name)?;
        self.set_checked(registry, id, value)
    }

    /// Read by name.
    pub fn get_by_name(&self, registry: &Registry, name: &str) -> Option<FlagValue> {
        registry.id(name).map(|id| self.get(id))
    }

    /// Raw value slice (for the simulator's hot path).
    pub fn values(&self) -> &[FlagValue] {
        &self.values
    }

    /// Are all values inside their domains?
    pub fn validate(&self, registry: &Registry) -> Result<(), ValidationError> {
        for (id, _) in registry.iter() {
            registry.check(id, self.get(id))?;
        }
        Ok(())
    }

    /// Deterministic 64-bit fingerprint (FNV-1a over per-value hash keys).
    /// Used by the tuner to deduplicate already-evaluated configurations.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in &self.values {
            h ^= v.hash_key();
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// Flags that differ from the registry defaults.
    pub fn delta(&self, registry: &Registry) -> Vec<ConfigDelta> {
        registry
            .iter()
            .filter_map(|(id, spec)| {
                let v = self.get(id);
                if values_equal(v, spec.default) {
                    None
                } else {
                    Some(ConfigDelta {
                        id,
                        name: spec.name,
                        default: spec.default,
                        value: v,
                    })
                }
            })
            .collect()
    }

    /// Render as HotSpot command-line arguments, emitting only the flags
    /// that differ from defaults (what the paper's tuner passes to `java`).
    pub fn to_args(&self, registry: &Registry) -> Vec<String> {
        self.delta(registry)
            .iter()
            .map(|d| {
                let spec = registry.spec(d.id);
                match d.value {
                    FlagValue::Bool(true) => format!("-XX:+{}", spec.name),
                    FlagValue::Bool(false) => format!("-XX:-{}", spec.name),
                    FlagValue::Int(i) if spec.is_size => {
                        format!("-XX:{}={}", spec.name, render_size(i))
                    }
                    FlagValue::Int(i) => format!("-XX:{}={i}", spec.name),
                    FlagValue::Double(x) => format!("-XX:{}={x}", spec.name),
                }
            })
            .collect()
    }

    /// Parse HotSpot `-XX:` arguments on top of the default configuration.
    ///
    /// Accepts `-XX:+Name`, `-XX:-Name`, `-XX:Name=value` (integers, sizes
    /// with `k/m/g` suffixes, and doubles). Unknown flags and
    /// malformed values are errors — the tuner never emits them, so seeing
    /// one means the caller's input is wrong.
    pub fn parse_args(registry: &Registry, args: &[String]) -> Result<Self, ParseError> {
        let mut config = Self::default_for(registry);
        for arg in args {
            let body = arg
                .strip_prefix("-XX:")
                .ok_or_else(|| ParseError::NotAnXXFlag(arg.clone()))?;
            if let Some(name) = body.strip_prefix('+') {
                let id = lookup(registry, name, arg)?;
                config
                    .set_checked(registry, id, FlagValue::Bool(true))
                    .map_err(|e| ParseError::Invalid(arg.clone(), e.to_string()))?;
            } else if let Some(name) = body.strip_prefix('-') {
                let id = lookup(registry, name, arg)?;
                config
                    .set_checked(registry, id, FlagValue::Bool(false))
                    .map_err(|e| ParseError::Invalid(arg.clone(), e.to_string()))?;
            } else if let Some((name, raw)) = body.split_once('=') {
                let id = lookup(registry, name, arg)?;
                let spec = registry.spec(id);
                let value = match &spec.domain {
                    Domain::Bool => {
                        return Err(ParseError::Invalid(
                            arg.clone(),
                            "boolean flags use -XX:+Name / -XX:-Name".into(),
                        ))
                    }
                    Domain::IntRange { .. } => FlagValue::Int(
                        parse_size(raw).ok_or_else(|| ParseError::BadValue(arg.clone()))?,
                    ),
                    Domain::DoubleRange { .. } => FlagValue::Double(
                        raw.parse::<f64>()
                            .map_err(|_| ParseError::BadValue(arg.clone()))?,
                    ),
                };
                config
                    .set_checked(registry, id, value)
                    .map_err(|e| ParseError::Invalid(arg.clone(), e.to_string()))?;
            } else {
                return Err(ParseError::BadValue(arg.clone()));
            }
        }
        Ok(config)
    }
}

fn lookup(registry: &Registry, name: &str, arg: &str) -> Result<FlagId, ParseError> {
    registry
        .id(name)
        .ok_or_else(|| ParseError::UnknownFlag(arg.to_string()))
}

fn values_equal(a: FlagValue, b: FlagValue) -> bool {
    match (a, b) {
        (FlagValue::Double(x), FlagValue::Double(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// One flag changed away from its default.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigDelta {
    /// The flag.
    pub id: FlagId,
    /// Its name (borrowed from the spec).
    pub name: &'static str,
    /// The registry default.
    pub default: FlagValue,
    /// The configured value.
    pub value: FlagValue,
}

/// Errors from [`JvmConfig::parse_args`].
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    /// Argument does not start with `-XX:`.
    NotAnXXFlag(String),
    /// Flag name not present in the registry.
    UnknownFlag(String),
    /// Value failed to parse for the flag's type.
    BadValue(String),
    /// Value parsed but was rejected (out of domain / wrong form).
    Invalid(String, String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::NotAnXXFlag(a) => write!(f, "not a -XX: flag: {a}"),
            ParseError::UnknownFlag(a) => write!(f, "unknown flag: {a}"),
            ParseError::BadValue(a) => write!(f, "bad value: {a}"),
            ParseError::Invalid(a, why) => write!(f, "invalid {a}: {why}"),
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::hotspot_registry;

    #[test]
    fn default_config_has_empty_delta_and_args() {
        let r = hotspot_registry();
        let c = JvmConfig::default_for(r);
        assert!(c.delta(r).is_empty());
        assert!(c.to_args(r).is_empty());
        assert!(c.validate(r).is_ok());
    }

    #[test]
    fn set_and_render_bool_int_size() {
        let r = hotspot_registry();
        let mut c = JvmConfig::default_for(r);
        c.set_by_name(r, "UseG1GC", FlagValue::Bool(true)).unwrap();
        c.set_by_name(r, "MaxHeapSize", FlagValue::Int(512 << 20))
            .unwrap();
        c.set_by_name(r, "CompileThreshold", FlagValue::Int(5000))
            .unwrap();
        let args = c.to_args(r);
        assert!(args.contains(&"-XX:+UseG1GC".to_string()));
        assert!(args.contains(&"-XX:MaxHeapSize=512m".to_string()));
        assert!(args.contains(&"-XX:CompileThreshold=5000".to_string()));
    }

    #[test]
    fn args_round_trip_through_parse() {
        let r = hotspot_registry();
        let mut c = JvmConfig::default_for(r);
        c.set_by_name(r, "UseConcMarkSweepGC", FlagValue::Bool(true))
            .unwrap();
        c.set_by_name(r, "CMSInitiatingOccupancyFraction", FlagValue::Int(55))
            .unwrap();
        c.set_by_name(r, "MaxHeapSize", FlagValue::Int(1 << 30))
            .unwrap();
        c.set_by_name(r, "UseBiasedLocking", FlagValue::Bool(false))
            .unwrap();
        let args = c.to_args(r);
        let parsed = JvmConfig::parse_args(r, &args).unwrap();
        assert_eq!(parsed, c);
        assert_eq!(parsed.fingerprint(), c.fingerprint());
    }

    #[test]
    fn parse_rejects_unknown_and_malformed() {
        let r = hotspot_registry();
        let bad = |s: &str| JvmConfig::parse_args(r, &[s.to_string()]);
        assert!(matches!(bad("-Xmx512m"), Err(ParseError::NotAnXXFlag(_))));
        assert!(matches!(
            bad("-XX:+NoSuchFlagEver"),
            Err(ParseError::UnknownFlag(_))
        ));
        assert!(matches!(
            bad("-XX:CompileThreshold=abc"),
            Err(ParseError::BadValue(_))
        ));
        assert!(matches!(
            bad("-XX:UseG1GC=true"),
            Err(ParseError::Invalid(_, _))
        ));
        assert!(matches!(bad("-XX:NakedName"), Err(ParseError::BadValue(_))));
    }

    #[test]
    fn parse_rejects_out_of_domain_value() {
        let r = hotspot_registry();
        // CMSInitiatingOccupancyFraction is a percentage.
        let err = JvmConfig::parse_args(r, &["-XX:CMSInitiatingOccupancyFraction=250".to_string()]);
        assert!(matches!(err, Err(ParseError::Invalid(_, _))));
    }

    #[test]
    fn set_checked_enforces_domain() {
        let r = hotspot_registry();
        let mut c = JvmConfig::default_for(r);
        let id = r.id("SurvivorRatio").unwrap();
        assert!(c.set_checked(r, id, FlagValue::Int(-5)).is_err());
        assert!(c.set_checked(r, id, FlagValue::Bool(true)).is_err());
    }

    #[test]
    fn fingerprint_changes_with_any_flag() {
        let r = hotspot_registry();
        let base = JvmConfig::default_for(r);
        let fp = base.fingerprint();
        let mut seen = std::collections::HashSet::new();
        seen.insert(fp);
        // Flipping each of a few flags must give unique fingerprints.
        for name in ["UseG1GC", "UseSerialGC", "TieredCompilation", "UseTLAB"] {
            let mut c = base.clone();
            let cur = c.get_by_name(r, name).unwrap().as_bool().unwrap();
            c.set_by_name(r, name, FlagValue::Bool(!cur)).unwrap();
            assert!(
                seen.insert(c.fingerprint()),
                "fingerprint collision on {name}"
            );
        }
    }

    #[test]
    fn delta_reports_changed_flags_only() {
        let r = hotspot_registry();
        let mut c = JvmConfig::default_for(r);
        c.set_by_name(r, "NewRatio", FlagValue::Int(4)).unwrap();
        let delta = c.delta(r);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].name, "NewRatio");
        assert_eq!(delta[0].value, FlagValue::Int(4));
    }
}
