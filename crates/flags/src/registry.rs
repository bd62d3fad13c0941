//! The flag registry: the full table of flags a JVM build exposes.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::spec::{Category, FlagId, FlagSpec};
use crate::value::FlagValue;

/// Error raised while building or validating against a registry.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidationError {
    /// Two specs share a name.
    DuplicateName(&'static str),
    /// A spec's default value is outside its own domain.
    DefaultOutOfDomain(&'static str),
    /// More flags than `FlagId` (u16) can index.
    TooManyFlags(usize),
    /// A value was rejected for a flag (wrong type or out of range).
    ValueOutOfDomain {
        /// The offending flag's name.
        flag: String,
        /// Rendered offending value.
        value: String,
    },
    /// Lookup of an unknown flag name.
    UnknownFlag(String),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::DuplicateName(n) => write!(f, "duplicate flag name {n}"),
            ValidationError::DefaultOutOfDomain(n) => {
                write!(f, "default value of {n} is outside its domain")
            }
            ValidationError::TooManyFlags(n) => write!(f, "{n} flags exceed FlagId capacity"),
            ValidationError::ValueOutOfDomain { flag, value } => {
                write!(f, "value {value} is outside the domain of {flag}")
            }
            ValidationError::UnknownFlag(n) => write!(f, "unknown flag {n}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// A frozen table of flag specifications with O(1) id- and name-lookup.
#[derive(Debug)]
pub struct Registry {
    specs: Vec<FlagSpec>,
    by_name: HashMap<&'static str, FlagId>,
    tunable: Vec<FlagId>,
}

impl Registry {
    /// Validate `specs` and freeze them, in order, into a registry: the
    /// spec at index `i` gets `FlagId(i)`.
    pub fn new(specs: Vec<FlagSpec>) -> Result<Registry, ValidationError> {
        if specs.len() > u16::MAX as usize {
            return Err(ValidationError::TooManyFlags(specs.len()));
        }
        let mut by_name = HashMap::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            if by_name.insert(spec.name, FlagId(i as u16)).is_some() {
                return Err(ValidationError::DuplicateName(spec.name));
            }
            if !spec.domain.contains(spec.default) {
                return Err(ValidationError::DefaultOutOfDomain(spec.name));
            }
        }
        let tunable: Vec<FlagId> = specs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tunable())
            .map(|(i, _)| FlagId(i as u16))
            .collect();
        Ok(Registry {
            specs,
            by_name,
            tunable,
        })
    }

    /// Number of flags.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the registry holds no flags.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Spec by dense id.
    ///
    /// # Panics
    /// Panics if `id` is out of range (ids are only minted by this
    /// registry, so an out-of-range id is a cross-registry bug).
    pub fn spec(&self, id: FlagId) -> &FlagSpec {
        &self.specs[id.index()]
    }

    /// Look up a flag id by `-XX:` name.
    pub fn id(&self, name: &str) -> Option<FlagId> {
        self.by_name.get(name).copied()
    }

    /// Look up a flag id by name, erroring with the name on failure.
    pub fn require(&self, name: &str) -> Result<FlagId, ValidationError> {
        self.id(name)
            .ok_or_else(|| ValidationError::UnknownFlag(name.to_string()))
    }

    /// Iterate over `(id, spec)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FlagId, &FlagSpec)> {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, s)| (FlagId(i as u16), s))
    }

    /// Ids of all flags the tuner may set (non-develop).
    pub fn tunable_ids(&self) -> &[FlagId] {
        &self.tunable
    }

    /// Ids of tunable flags in one category.
    pub fn ids_in_category(&self, cat: Category) -> Vec<FlagId> {
        self.iter()
            .filter(|(_, s)| s.category == cat && s.tunable())
            .map(|(id, _)| id)
            .collect()
    }

    /// The default value of every flag, indexed by id — the JVM's
    /// out-of-the-box configuration.
    pub fn default_values(&self) -> Vec<FlagValue> {
        self.specs.iter().map(|s| s.default).collect()
    }

    /// Check one value against one flag's domain.
    pub fn check(&self, id: FlagId, value: FlagValue) -> Result<(), ValidationError> {
        let spec = self.spec(id);
        if spec.domain.contains(value) {
            Ok(())
        } else {
            Err(ValidationError::ValueOutOfDomain {
                flag: spec.name.to_string(),
                value: value.to_string(),
            })
        }
    }
}

/// The shared JDK-7 HotSpot registry (600+ flags), parsed from
/// `data/hotspot7.tsv` once per process.
pub fn hotspot_registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Registry::new(crate::data::parse(crate::data::HOTSPOT7))
            .expect("the built-in HotSpot flag table must validate")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FlagKind;
    use crate::value::Domain;

    fn mini_spec(name: &'static str) -> FlagSpec {
        FlagSpec {
            name,
            category: Category::Misc,
            domain: Domain::Bool,
            default: FlagValue::Bool(false),
            kind: FlagKind::Product,
            is_size: false,
            perf: false,
            desc: "test flag",
        }
    }

    #[test]
    fn duplicate_names_rejected() {
        let specs = vec![mini_spec("X"), mini_spec("X")];
        assert_eq!(
            Registry::new(specs).unwrap_err(),
            ValidationError::DuplicateName("X")
        );
    }

    #[test]
    fn default_out_of_domain_rejected() {
        let specs = vec![FlagSpec {
            domain: Domain::IntRange {
                lo: 0,
                hi: 10,
                log_scale: false,
            },
            default: FlagValue::Int(99),
            ..mini_spec("Bad")
        }];
        assert_eq!(
            Registry::new(specs).unwrap_err(),
            ValidationError::DefaultOutOfDomain("Bad")
        );
    }

    #[test]
    fn lookup_by_name_and_id() {
        let r = Registry::new(vec![mini_spec("A"), mini_spec("B")]).unwrap();
        let a = r.id("A").unwrap();
        assert_eq!(r.spec(a).name, "A");
        assert_eq!(r.id("C"), None);
        assert!(matches!(
            r.require("C"),
            Err(ValidationError::UnknownFlag(_))
        ));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn develop_flags_excluded_from_tunable() {
        let develop = FlagSpec {
            kind: FlagKind::Develop,
            ..mini_spec("D")
        };
        let r = Registry::new(vec![mini_spec("P"), develop]).unwrap();
        assert_eq!(r.tunable_ids().len(), 1);
        assert_eq!(r.spec(r.tunable_ids()[0]).name, "P");
    }

    #[test]
    fn check_validates_values() {
        let r = Registry::new(vec![FlagSpec {
            domain: Domain::IntRange {
                lo: 1,
                hi: 5,
                log_scale: false,
            },
            default: FlagValue::Int(3),
            ..mini_spec("N")
        }])
        .unwrap();
        let id = r.id("N").unwrap();
        assert!(r.check(id, FlagValue::Int(5)).is_ok());
        assert!(r.check(id, FlagValue::Int(6)).is_err());
        assert!(r.check(id, FlagValue::Bool(true)).is_err());
    }

    #[test]
    fn hotspot_registry_has_over_600_flags() {
        // The paper: "the Hot Spot JVM comes with over 600 flags".
        let r = hotspot_registry();
        assert!(r.len() > 600, "only {} flags", r.len());
    }

    #[test]
    fn hotspot_registry_key_flags_present() {
        let r = hotspot_registry();
        for name in [
            "UseSerialGC",
            "UseParallelGC",
            "UseConcMarkSweepGC",
            "UseG1GC",
            "MaxHeapSize",
            "NewRatio",
            "SurvivorRatio",
            "TieredCompilation",
            "CompileThreshold",
            "MaxInlineSize",
            "ReservedCodeCacheSize",
            "UseBiasedLocking",
            "UseCompressedOops",
            "UseLargePages",
            "ParallelGCThreads",
            "CMSInitiatingOccupancyFraction",
            "MaxGCPauseMillis",
            "UseTLAB",
        ] {
            assert!(r.id(name).is_some(), "missing flag {name}");
        }
    }

    #[test]
    fn hotspot_registry_defaults_all_valid() {
        let r = hotspot_registry();
        for (id, spec) in r.iter() {
            assert!(
                spec.domain.contains(spec.default),
                "default of {} out of domain",
                spec.name
            );
            assert!(r.check(id, spec.default).is_ok());
        }
    }
}
