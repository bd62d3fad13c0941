//! Search techniques.
//!
//! Every technique implements [`Technique`]: the tuner asks it to
//! *propose* a candidate, evaluates the candidate (possibly in parallel
//! with others), and then *feeds back* the measured score. Techniques are
//! deliberately proposal-oriented rather than loop-oriented so a
//! [`bandit::Bandit`] can interleave them and the tuner can batch
//! evaluations. [`TechniqueSet`] names every technique once.
//!
//! Scores are run times in seconds — lower is better; `None` means the
//! candidate failed (crash / OOM), which techniques treat as "very bad"
//! rather than ignoring (a tuner that keeps proposing OOM configs burns
//! its budget, as it would on a real testbed).

pub mod anneal;
pub mod bandit;
pub mod diffevo;
pub mod genetic;
pub mod hillclimb;
pub mod ils;
pub mod neldermead;
pub mod random;

use jtune_flags::{Domain, FlagId, FlagValue, JvmConfig};

use crate::manipulator::{ConfigManipulator, RngDyn};

/// Shared, read-only view of search progress handed to techniques.
pub struct SearchState<'a> {
    /// Move generator.
    pub manipulator: &'a dyn ConfigManipulator,
    /// Best configuration found so far with its score (seconds).
    pub best: Option<&'a (JvmConfig, f64)>,
    /// Score of the default configuration (seconds).
    pub default_score: f64,
    /// Fraction of the tuning budget already spent, in `[0, 1]`.
    pub budget_fraction: f64,
    /// Fraction of evaluation slots served from memory so far (cache
    /// hits + suppressed duplicates), in `[0, 1]`. Always 0 with the
    /// trial cache off. A rising value tells a technique its proposals
    /// are collapsing onto already-measured configurations — a
    /// convergence/stagnation signal it may use to widen exploration.
    pub reuse_fraction: f64,
}

impl SearchState<'_> {
    /// The configuration to improve on: best-so-far, else the default.
    pub fn anchor(&self) -> JvmConfig {
        match self.best {
            Some((c, _)) => c.clone(),
            None => JvmConfig::default_for(self.manipulator.registry()),
        }
    }
}

/// One search technique.
pub trait Technique: Send {
    /// Stable display name.
    fn name(&self) -> &'static str;

    /// Propose the next candidate.
    fn propose(&mut self, state: &SearchState<'_>, rng: &mut dyn RngDyn) -> JvmConfig;

    /// Learn from an evaluated candidate this technique proposed.
    /// `score` is `None` on failure.
    fn feedback(&mut self, config: &JvmConfig, score: Option<f64>, state: &SearchState<'_>);

    /// Which technique actually proposed `config`. Composite techniques
    /// (the bandits) attribute the inner arm so telemetry can trace
    /// technique switches; plain techniques return their own name.
    /// Only meaningful between [`Technique::propose`] and the matching
    /// [`Technique::feedback`].
    fn proposer(&self, config: &JvmConfig) -> &'static str {
        let _ = config;
        self.name()
    }

    /// Forget a proposal that will never be evaluated: the surrogate
    /// screened it out, so no [`Technique::feedback`] call will follow.
    /// Stateless techniques need no action (the default). Composite
    /// techniques drop their routing entry and delegate inward;
    /// techniques holding per-proposal state (Nelder-Mead's pending
    /// vertices) release it so screening cannot leak memory or
    /// misattribute a later identical fingerprint.
    fn retract(&mut self, config: &JvmConfig) {
        let _ = config;
    }
}

/// Builds one fresh technique.
type Constructor = fn() -> Box<dyn Technique>;

/// Every technique, each named once. The first [`SOLO`] rows are the
/// solo techniques the bandits run over, so they must never hold a
/// composite (a bandit arm that builds a bandit would recurse). The
/// default `ensemble` is the last row.
#[rustfmt::skip]
const ROSTER: [(&str, Constructor); 9] = [
    ("random", || Box::new(random::RandomSearch::new())),
    ("hillclimb", || Box::new(hillclimb::HillClimb::new())),
    ("ils", || Box::new(ils::IteratedLocalSearch::new())),
    ("anneal", || Box::new(anneal::SimulatedAnnealing::new())),
    ("genetic", || Box::new(genetic::GeneticAlgorithm::new())),
    ("diffevo", || Box::new(diffevo::DifferentialEvolution::new())),
    ("neldermead", || Box::new(neldermead::NelderMead::new())),
    ("portfolio", || Box::new(bandit::Bandit::portfolio())),
    ("ensemble", || Box::new(bandit::Bandit::ensemble())),
];

/// How many leading [`ROSTER`] rows are solo techniques.
const SOLO: usize = 7;

/// The technique roster.
pub struct TechniqueSet;

impl TechniqueSet {
    /// The solo techniques, fresh, in roster order: the bandits' arms.
    pub(crate) fn solo_arms() -> Vec<Box<dyn Technique>> {
        ROSTER[..SOLO].iter().map(|(_, make)| make()).collect()
    }

    /// Construct one technique by name (experiment E8 runs them solo).
    ///
    /// A `model:` prefix names the surrogate-screened variant of the
    /// inner technique: it constructs identically (screening lives in
    /// the tuner, not the technique), and the tuner enables the default
    /// model policy when it sees the prefix.
    pub fn by_name(name: &str) -> Option<Box<dyn Technique>> {
        let name = name.trim_start_matches("model:");
        ROSTER
            .iter()
            .find(|(row, _)| *row == name)
            .map(|(_, make)| make())
    }

    /// Names of the techniques E8 compares against the default
    /// `ensemble`, in roster order: every technique but the ensemble
    /// (which [`TechniqueSet::by_name`] also resolves).
    pub fn names() -> Vec<&'static str> {
        ROSTER[..ROSTER.len() - 1]
            .iter()
            .map(|(name, _)| *name)
            .collect()
    }
}

// ---- numeric-subspace helpers shared by DE and Nelder-Mead ----

/// Map a flag value to `[0, 1]` within its domain (log scale respected).
pub(crate) fn normalize(domain: &Domain, value: FlagValue) -> f64 {
    match (domain, value) {
        (Domain::IntRange { lo, hi, log_scale }, FlagValue::Int(v)) => {
            if *log_scale && *lo >= 0 {
                let lo_f = (*lo as f64).max(1.0);
                let hi_f = (*hi as f64).max(lo_f + 1.0);
                ((v as f64).max(lo_f).ln() - lo_f.ln()) / (hi_f.ln() - lo_f.ln())
            } else {
                (v - lo) as f64 / ((*hi - *lo).max(1)) as f64
            }
        }
        (Domain::DoubleRange { lo, hi }, FlagValue::Double(v)) => {
            (v - lo) / (hi - lo).max(f64::MIN_POSITIVE)
        }
        _ => 0.5,
    }
    .clamp(0.0, 1.0)
}

/// Map `[0, 1]` back to a flag value in `domain`.
pub(crate) fn denormalize(domain: &Domain, x: f64) -> FlagValue {
    let x = x.clamp(0.0, 1.0);
    match domain {
        Domain::IntRange { lo, hi, log_scale } => {
            let v = if *log_scale && *lo >= 0 {
                let lo_f = (*lo as f64).max(1.0);
                let hi_f = (*hi as f64).max(lo_f + 1.0);
                (lo_f.ln() + x * (hi_f.ln() - lo_f.ln())).exp().round() as i64
            } else {
                lo + (x * (*hi - *lo) as f64).round() as i64
            };
            FlagValue::Int(v.clamp(*lo, *hi))
        }
        Domain::DoubleRange { lo, hi } => FlagValue::Double(lo + x * (hi - lo)),
        Domain::Bool => FlagValue::Bool(x >= 0.5),
    }
}

/// Project a configuration onto a numeric-dimension vector.
pub(crate) fn project(
    manipulator: &dyn ConfigManipulator,
    dims: &[FlagId],
    config: &JvmConfig,
) -> Vec<f64> {
    dims.iter()
        .map(|&id| normalize(&manipulator.registry().spec(id).domain, config.get(id)))
        .collect()
}

/// Write a numeric vector back into a configuration (then canonicalise).
pub(crate) fn embed(
    manipulator: &dyn ConfigManipulator,
    dims: &[FlagId],
    base: &JvmConfig,
    x: &[f64],
) -> JvmConfig {
    let mut c = base.clone();
    for (&id, &xi) in dims.iter().zip(x.iter()) {
        let v = denormalize(&manipulator.registry().spec(id).domain, xi);
        c.set(id, v);
    }
    manipulator.canonicalize(&mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manipulator::HierarchicalManipulator;

    #[test]
    fn normalize_round_trips_endpoints() {
        let d = Domain::IntRange {
            lo: 100,
            hi: 1_000_000,
            log_scale: true,
        };
        assert_eq!(denormalize(&d, 0.0), FlagValue::Int(100));
        assert_eq!(denormalize(&d, 1.0), FlagValue::Int(1_000_000));
        assert!((normalize(&d, FlagValue::Int(100)) - 0.0).abs() < 1e-9);
        assert!((normalize(&d, FlagValue::Int(1_000_000)) - 1.0).abs() < 1e-9);
        // Log scaling: the geometric midpoint maps near 0.5.
        let mid = denormalize(&d, 0.5).as_int().unwrap();
        assert!((9_000..12_000).contains(&mid), "geometric mid {mid}");
    }

    #[test]
    fn normalize_linear_and_double() {
        let d = Domain::IntRange {
            lo: 0,
            hi: 10,
            log_scale: false,
        };
        assert!((normalize(&d, FlagValue::Int(5)) - 0.5).abs() < 1e-9);
        let dd = Domain::DoubleRange { lo: 1.0, hi: 3.0 };
        assert!((normalize(&dd, FlagValue::Double(2.0)) - 0.5).abs() < 1e-9);
        assert_eq!(denormalize(&dd, 0.25), FlagValue::Double(1.5));
    }

    #[test]
    fn project_embed_round_trip() {
        let m = HierarchicalManipulator::new();
        let mut c = JvmConfig::default_for(m.registry());
        m.canonicalize(&mut c);
        let dims = m.numeric_flags(&c);
        let x = project(&m, &dims, &c);
        let c2 = embed(&m, &dims, &c, &x);
        let x2 = project(&m, &dims, &c2);
        for (a, b) in x.iter().zip(x2.iter()) {
            assert!((a - b).abs() < 0.02, "{a} vs {b}");
        }
    }

    #[test]
    fn technique_set_has_all_names() {
        for name in TechniqueSet::names().into_iter().chain(["ensemble"]) {
            let t = TechniqueSet::by_name(name).expect("registered name");
            assert_eq!(t.name(), name);
        }
        assert!(TechniqueSet::by_name("nope").is_none());
        // The solo arms must stay composite-free (a composite arm would
        // recurse on construction).
        for arm in TechniqueSet::solo_arms() {
            assert!(
                !matches!(arm.name(), "ensemble" | "portfolio"),
                "composite {} in solo_arms()",
                arm.name()
            );
        }
    }

    #[test]
    fn model_prefix_resolves_to_the_inner_technique() {
        for name in TechniqueSet::names().into_iter().chain(["ensemble"]) {
            let wrapped = format!("model:{name}");
            let t = TechniqueSet::by_name(&wrapped).expect("model-wrapped variant");
            assert_eq!(t.name(), name);
        }
        assert!(TechniqueSet::by_name("model:nope").is_none());
        assert!(TechniqueSet::by_name("model:").is_none());
    }

    #[test]
    fn default_retract_is_a_no_op_and_stateful_retract_forgets() {
        use crate::manipulator::HierarchicalManipulator;
        use jtune_util::Xoshiro256pp;

        let m = HierarchicalManipulator::new();
        let st = SearchState {
            manipulator: &m,
            best: None,
            default_score: 10.0,
            budget_fraction: 0.2,
            reuse_fraction: 0.0,
        };
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        for (_, make) in ROSTER {
            let mut t = make();
            let c = t.propose(&st, &mut rng);
            // Retract then feed back: the feedback must be ignored (no
            // panic, no misattribution) for every registered technique.
            t.retract(&c);
            t.feedback(&c, Some(1.0), &st);
        }
    }
}
