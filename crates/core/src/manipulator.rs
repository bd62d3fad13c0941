//! Configuration-space manipulators.
//!
//! A manipulator defines the *moves* a search technique can make: sample a
//! random point, mutate a point, cross two points. The three
//! implementations differ in what they know about the space:
//!
//! | | structure | flags touched |
//! |---|---|---|
//! | [`HierarchicalManipulator`] | flag tree (paper) | active flags + selectors |
//! | [`FlatManipulator`] | none | every tunable flag |
//! | [`SubsetManipulator`] | none | GC + heap flags only (prior work) |

use jtune_flags::{Category, Domain, FlagId, FlagValue, JvmConfig, Registry};
use jtune_flagtree::FlagTree;
use jtune_util::Rng;

/// Move generator over a configuration space.
pub trait ConfigManipulator: Sync {
    /// The registry configurations belong to.
    fn registry(&self) -> &Registry;

    /// A uniformly random valid configuration.
    fn random(&self, rng: &mut dyn RngDyn) -> JvmConfig;

    /// Perturb `config`. `strength` ∈ (0, 1]: the expected fraction of
    /// mutable coordinates touched (hill-climbers use small strengths,
    /// annealing starts large).
    fn mutate(&self, config: &JvmConfig, rng: &mut dyn RngDyn, strength: f64) -> JvmConfig;

    /// Uniform crossover of two parents.
    fn crossover(&self, a: &JvmConfig, b: &JvmConfig, rng: &mut dyn RngDyn) -> JvmConfig;

    /// Canonicalise (enforce structural consistency; identity for
    /// structure-free manipulators).
    fn canonicalize(&self, config: &mut JvmConfig);

    /// The numeric (int/double) flags currently worth treating as a
    /// continuous subspace for DE / Nelder-Mead, in a stable order.
    fn numeric_flags(&self, config: &JvmConfig) -> Vec<FlagId>;

    /// Short label for reports.
    fn name(&self) -> &'static str;

    /// Structural priming points the tuner should evaluate before free
    /// search. A manipulator that knows the space's structure (the flag
    /// hierarchy) enumerates its top-level alternatives — one of the
    /// concrete payoffs the paper claims for the tree. Structure-blind
    /// manipulators return nothing.
    fn primers(&self) -> Vec<JvmConfig> {
        Vec::new()
    }
}

/// Object-safe RNG facade so manipulators and techniques can share the
/// tuner's generator without being generic over its type.
pub trait RngDyn {
    /// Next uniform 64-bit value.
    fn next_u64_dyn(&mut self) -> u64;
    /// Uniform `f64` in `[0, 1)`.
    fn next_f64_dyn(&mut self) -> f64;
    /// Standard normal variate.
    fn next_gaussian_dyn(&mut self) -> f64;
}

impl<R: Rng> RngDyn for R {
    fn next_u64_dyn(&mut self) -> u64 {
        self.next_u64()
    }
    fn next_f64_dyn(&mut self) -> f64 {
        self.next_f64()
    }
    fn next_gaussian_dyn(&mut self) -> f64 {
        self.next_gaussian()
    }
}

/// Helpers over the dyn facade.
pub(crate) fn below(rng: &mut dyn RngDyn, bound: usize) -> usize {
    debug_assert!(bound > 0);
    // Multiply-shift; bias is negligible for the small bounds used here.
    ((rng.next_u64_dyn() as u128 * bound as u128) >> 64) as usize
}

pub(crate) fn chance(rng: &mut dyn RngDyn, p: f64) -> bool {
    rng.next_f64_dyn() < p
}

/// Sample a fresh value for `domain`, log-uniformly where flagged.
pub fn random_value(domain: &Domain, rng: &mut dyn RngDyn) -> FlagValue {
    match domain {
        Domain::Bool => FlagValue::Bool(chance(rng, 0.5)),
        Domain::IntRange { lo, hi, log_scale } => {
            let v = if *log_scale && *lo >= 0 {
                let lo_f = (*lo as f64).max(1.0);
                let hi_f = (*hi as f64).max(lo_f);
                let x = (lo_f.ln() + rng.next_f64_dyn() * (hi_f.ln() - lo_f.ln())).exp();
                (x.round() as i64).clamp(*lo, *hi)
            } else {
                let span = (*hi - *lo) as f64 + 1.0;
                *lo + (rng.next_f64_dyn() * span) as i64
            };
            FlagValue::Int(v.clamp(*lo, *hi))
        }
        Domain::DoubleRange { lo, hi } => FlagValue::Double(lo + rng.next_f64_dyn() * (hi - lo)),
    }
}

/// Perturb `value` within `domain`: a local move (bool flip; multiplicative
/// step on log-scaled ints; gaussian step otherwise).
pub fn mutate_value(domain: &Domain, value: FlagValue, rng: &mut dyn RngDyn) -> FlagValue {
    match (domain, value) {
        (Domain::Bool, FlagValue::Bool(b)) => FlagValue::Bool(!b),
        (Domain::IntRange { lo, hi, log_scale }, FlagValue::Int(v)) => {
            let next = if *log_scale {
                let factor = (rng.next_gaussian_dyn() * 0.5).exp();
                ((v.max(*lo.max(&1)) as f64) * factor).round() as i64
            } else {
                let span = (*hi - *lo).max(1) as f64;
                v + (rng.next_gaussian_dyn() * 0.15 * span).round() as i64
            };
            let next = if next == v { v + 1 } else { next };
            FlagValue::Int(next.clamp(*lo, *hi))
        }
        (Domain::DoubleRange { lo, hi }, FlagValue::Double(v)) => {
            let next = v + rng.next_gaussian_dyn() * 0.15 * (hi - lo);
            FlagValue::Double(next.clamp(*lo, *hi))
        }
        // Type mismatch (corrupt input): resample.
        (d, _) => random_value(d, rng),
    }
}

/// The flags among `ids` that make a continuous dimension: an int or
/// double range that affects performance.
fn numeric(registry: &Registry, ids: impl IntoIterator<Item = FlagId>) -> Vec<FlagId> {
    ids.into_iter()
        .filter(|&id| {
            let spec = registry.spec(id);
            matches!(
                spec.domain,
                Domain::IntRange { .. } | Domain::DoubleRange { .. }
            ) && spec.perf
        })
        .collect()
}

// ---------------------------------------------------------------------
// Hierarchical (the paper's manipulator)
// ---------------------------------------------------------------------

/// Tree-aware moves: selectors switch whole structural alternatives, flag
/// mutations are restricted to the active set, and canonicalisation resets
/// dead flags so the search space is exactly the pruned hierarchy.
///
/// A move writes its selector choices with [`FlagTree::assign_selector`]
/// and canonicalises once, at its end. Activation never reads a dead
/// flag, so the active set between the writes is the one a
/// canonicalisation after every write would give, and the move's result
/// is the same for any input whose dead flags hold their defaults (every
/// canonical configuration, and the default configuration).
pub struct HierarchicalManipulator {
    registry: &'static Registry,
    tree: &'static FlagTree,
    /// Probability that a mutation step flips a selector rather than a
    /// parameter.
    selector_p: f64,
}

impl HierarchicalManipulator {
    /// Standard manipulator over the built-in registry and tree.
    pub fn new() -> Self {
        HierarchicalManipulator {
            registry: jtune_flags::hotspot_registry(),
            tree: jtune_flagtree::hotspot_tree(),
            selector_p: 0.15,
        }
    }

    /// The flag tree in use.
    pub fn tree(&self) -> &'static FlagTree {
        self.tree
    }
}

impl Default for HierarchicalManipulator {
    fn default() -> Self {
        Self::new()
    }
}

impl ConfigManipulator for HierarchicalManipulator {
    fn registry(&self) -> &Registry {
        self.registry
    }

    fn random(&self, rng: &mut dyn RngDyn) -> JvmConfig {
        let mut c = JvmConfig::default_for(self.registry);
        // Choose structure first.
        for sid in self.tree.selector_ids() {
            let n = self.tree.selector(sid).options.len();
            self.tree.assign_selector(&mut c, sid, below(rng, n));
        }
        // Then randomise a sample of active flags (full-random over 400+
        // flags is almost always an invalid-by-performance config; the
        // paper's tuner similarly seeds near the defaults).
        let active = self.tree.active_flags(&c);
        for id in active {
            if chance(rng, 0.25) {
                let spec = self.registry.spec(id);
                c.set(id, random_value(&spec.domain, rng));
            }
        }
        self.canonicalize(&mut c);
        c
    }

    fn mutate(&self, config: &JvmConfig, rng: &mut dyn RngDyn, strength: f64) -> JvmConfig {
        let mut c = config.clone();
        if chance(rng, self.selector_p * strength.max(0.2)) {
            let sels = self.tree.selectors().len();
            let sid = self
                .tree
                .selector_ids()
                .nth(below(rng, sels))
                .expect("index below the selector count");
            let n = self.tree.selector(sid).options.len();
            self.tree.assign_selector(&mut c, sid, below(rng, n));
        }
        let active = self.tree.active_flags(&c);
        // Touch on average `strength × 4` active flags, at least one.
        let touches = ((strength * 4.0).round() as usize).max(1);
        for _ in 0..touches {
            let id = active[below(rng, active.len())];
            let spec = self.registry.spec(id);
            c.set(id, mutate_value(&spec.domain, c.get(id), rng));
        }
        self.canonicalize(&mut c);
        c
    }

    fn crossover(&self, a: &JvmConfig, b: &JvmConfig, rng: &mut dyn RngDyn) -> JvmConfig {
        let mut c = a.clone();
        // Inherit each selector choice from a random parent, then each
        // active flag from a random parent.
        for sid in self.tree.selector_ids() {
            let donor = if chance(rng, 0.5) { a } else { b };
            let opt = self.tree.selector_state(sid, donor);
            self.tree.assign_selector(&mut c, sid, opt);
        }
        for id in self.tree.active_flags(&c) {
            let donor = if chance(rng, 0.5) { a } else { b };
            let v = donor.get(id);
            if self.registry.spec(id).domain.contains(v) {
                c.set(id, v);
            }
        }
        self.canonicalize(&mut c);
        c
    }

    fn canonicalize(&self, config: &mut JvmConfig) {
        self.tree.enforce(self.registry, config);
    }

    fn numeric_flags(&self, config: &JvmConfig) -> Vec<FlagId> {
        numeric(self.registry, self.tree.active_flags(config))
    }

    fn name(&self) -> &'static str {
        "hierarchical"
    }

    fn primers(&self) -> Vec<JvmConfig> {
        // Every combination of the tree's structural selectors (4
        // collectors × 2 JIT modes for the standard tree), evaluated from
        // otherwise-default flags: the hierarchy makes the top-level
        // alternatives enumerable, so a session always measures them.
        let mut out = Vec::new();
        let default = JvmConfig::default_for(self.registry);
        let sels: Vec<_> = self.tree.selector_ids().collect();
        let counts: Vec<usize> = sels
            .iter()
            .map(|s| self.tree.selector(*s).options.len())
            .collect();
        let mut choice = vec![0usize; sels.len()];
        loop {
            let mut c = default.clone();
            for (i, &sid) in sels.iter().enumerate() {
                self.tree.assign_selector(&mut c, sid, choice[i]);
            }
            self.canonicalize(&mut c);
            out.push(c);
            let mut i = 0;
            loop {
                if i == choice.len() {
                    return out;
                }
                choice[i] += 1;
                if choice[i] < counts[i] {
                    break;
                }
                choice[i] = 0;
                i += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Flat (structure-blind baseline)
// ---------------------------------------------------------------------

/// Whole-space moves with no dependency knowledge: any tunable flag can be
/// mutated regardless of whether it can matter, and mutually-exclusive
/// selector flags can be combined arbitrarily (the JVM resolves the
/// conflict by precedence, so the configurations are *legal*, just
/// massively redundant).
pub struct FlatManipulator {
    registry: &'static Registry,
    tunable: Vec<FlagId>,
}

impl FlatManipulator {
    /// Flat manipulator over the built-in registry.
    pub fn new() -> Self {
        let registry = jtune_flags::hotspot_registry();
        FlatManipulator {
            registry,
            tunable: registry.tunable_ids().to_vec(),
        }
    }
}

impl Default for FlatManipulator {
    fn default() -> Self {
        Self::new()
    }
}

impl ConfigManipulator for FlatManipulator {
    fn registry(&self) -> &Registry {
        self.registry
    }

    fn random(&self, rng: &mut dyn RngDyn) -> JvmConfig {
        let mut c = JvmConfig::default_for(self.registry);
        for &id in &self.tunable {
            if chance(rng, 0.25) {
                c.set(id, random_value(&self.registry.spec(id).domain, rng));
            }
        }
        c
    }

    fn mutate(&self, config: &JvmConfig, rng: &mut dyn RngDyn, strength: f64) -> JvmConfig {
        let mut c = config.clone();
        let touches = ((strength * 4.0).round() as usize).max(1);
        for _ in 0..touches {
            let id = self.tunable[below(rng, self.tunable.len())];
            let spec = self.registry.spec(id);
            c.set(id, mutate_value(&spec.domain, c.get(id), rng));
        }
        c
    }

    fn crossover(&self, a: &JvmConfig, b: &JvmConfig, rng: &mut dyn RngDyn) -> JvmConfig {
        let mut c = a.clone();
        for &id in &self.tunable {
            if chance(rng, 0.5) {
                c.set(id, b.get(id));
            }
        }
        c
    }

    fn canonicalize(&self, _config: &mut JvmConfig) {}

    fn numeric_flags(&self, _config: &JvmConfig) -> Vec<FlagId> {
        numeric(self.registry, self.tunable.iter().copied())
    }

    fn name(&self) -> &'static str {
        "flat"
    }
}

// ---------------------------------------------------------------------
// Subset (prior-work baseline)
// ---------------------------------------------------------------------

/// Prior work tunes a hand-picked subset — typically GC algorithm + heap
/// sizing. This manipulator restricts every move to those categories; the
/// rest of the JVM stays at defaults. Experiment E5 quantifies what that
/// leaves on the table. Like [`HierarchicalManipulator`], a move writes
/// its collector choice and canonicalises once, at its end.
pub struct SubsetManipulator {
    registry: &'static Registry,
    tree: &'static FlagTree,
    subset: Vec<FlagId>,
}

impl SubsetManipulator {
    /// GC + heap subset over the built-in registry.
    pub fn gc_and_heap() -> Self {
        let registry = jtune_flags::hotspot_registry();
        let tree = jtune_flagtree::hotspot_tree();
        let cats = [
            Category::Heap,
            Category::GcCommon,
            Category::GcSerial,
            Category::GcParallel,
            Category::GcCms,
            Category::GcG1,
        ];
        let subset = cats
            .iter()
            .flat_map(|c| registry.ids_in_category(*c))
            .filter(|id| !tree.is_assigned(*id))
            .collect();
        SubsetManipulator {
            registry,
            tree,
            subset,
        }
    }

    fn gc_selector(&self) -> jtune_flagtree::SelectorId {
        self.tree
            .selector_ids()
            .find(|s| self.tree.selector(*s).name == "gc.collector")
            .expect("gc selector present")
    }
}

impl ConfigManipulator for SubsetManipulator {
    fn registry(&self) -> &Registry {
        self.registry
    }

    fn random(&self, rng: &mut dyn RngDyn) -> JvmConfig {
        let mut c = JvmConfig::default_for(self.registry);
        let sid = self.gc_selector();
        let n = self.tree.selector(sid).options.len();
        self.tree.assign_selector(&mut c, sid, below(rng, n));
        for &id in &self.subset {
            if chance(rng, 0.3) {
                c.set(id, random_value(&self.registry.spec(id).domain, rng));
            }
        }
        self.canonicalize(&mut c);
        c
    }

    fn mutate(&self, config: &JvmConfig, rng: &mut dyn RngDyn, strength: f64) -> JvmConfig {
        let mut c = config.clone();
        if chance(rng, 0.15) {
            let sid = self.gc_selector();
            let n = self.tree.selector(sid).options.len();
            self.tree.assign_selector(&mut c, sid, below(rng, n));
        }
        let touches = ((strength * 4.0).round() as usize).max(1);
        for _ in 0..touches {
            let id = self.subset[below(rng, self.subset.len())];
            let spec = self.registry.spec(id);
            c.set(id, mutate_value(&spec.domain, c.get(id), rng));
        }
        self.canonicalize(&mut c);
        c
    }

    fn crossover(&self, a: &JvmConfig, b: &JvmConfig, rng: &mut dyn RngDyn) -> JvmConfig {
        let mut c = a.clone();
        for &id in &self.subset {
            if chance(rng, 0.5) {
                c.set(id, b.get(id));
            }
        }
        self.canonicalize(&mut c);
        c
    }

    fn canonicalize(&self, config: &mut JvmConfig) {
        self.tree.enforce(self.registry, config);
    }

    fn numeric_flags(&self, _config: &JvmConfig) -> Vec<FlagId> {
        numeric(self.registry, self.subset.iter().copied())
    }

    fn name(&self) -> &'static str {
        "gc-subset"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtune_util::Xoshiro256pp;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(42)
    }

    #[test]
    fn random_points_are_valid() {
        let mut r = rng();
        for m in [
            &HierarchicalManipulator::new() as &dyn ConfigManipulator,
            &FlatManipulator::new(),
            &SubsetManipulator::gc_and_heap(),
        ] {
            for _ in 0..20 {
                let c = m.random(&mut r);
                assert!(c.validate(m.registry()).is_ok(), "{} invalid", m.name());
            }
        }
    }

    #[test]
    fn mutation_changes_something_and_stays_valid() {
        let m = HierarchicalManipulator::new();
        let mut r = rng();
        let base = JvmConfig::default_for(m.registry());
        let mut changed = 0;
        for _ in 0..50 {
            let c = m.mutate(&base, &mut r, 0.5);
            assert!(c.validate(m.registry()).is_ok());
            if c.fingerprint() != base.fingerprint() {
                changed += 1;
            }
        }
        assert!(
            changed > 40,
            "only {changed}/50 mutations changed the config"
        );
    }

    #[test]
    fn hierarchical_points_are_canonical() {
        let m = HierarchicalManipulator::new();
        let mut r = rng();
        for _ in 0..20 {
            let c = m.random(&mut r);
            let mut again = c.clone();
            m.canonicalize(&mut again);
            assert_eq!(c.fingerprint(), again.fingerprint(), "not a fixed point");
        }
    }

    #[test]
    fn subset_never_touches_jit_flags() {
        let m = SubsetManipulator::gc_and_heap();
        let r0 = m.registry();
        let jit_flags: Vec<FlagId> = [
            "TieredCompilation",
            "CompileThreshold",
            "MaxInlineSize",
            "UseBiasedLocking",
        ]
        .iter()
        .map(|n| r0.id(n).unwrap())
        .collect();
        let defaults = JvmConfig::default_for(r0);
        let mut r = rng();
        for _ in 0..30 {
            let c = m.random(&mut r);
            let c = m.mutate(&c, &mut r, 1.0);
            for &f in &jit_flags {
                assert_eq!(
                    c.get(f),
                    defaults.get(f),
                    "subset touched {}",
                    r0.spec(f).name
                );
            }
        }
    }

    #[test]
    fn flat_can_produce_conflicting_selectors() {
        // The point of the flat baseline: it wastes moves on redundant /
        // conflicting flags. Over many random points, at least one should
        // enable ≥ 2 exclusive collectors.
        let m = FlatManipulator::new();
        let r0 = m.registry();
        let mut r = rng();
        let mut saw_conflict = false;
        for _ in 0..200 {
            let c = m.random(&mut r);
            let on = ["UseSerialGC", "UseConcMarkSweepGC", "UseG1GC"]
                .iter()
                .filter(|n| c.get_by_name(r0, n) == Some(FlagValue::Bool(true)))
                .count();
            if on >= 2 {
                saw_conflict = true;
                break;
            }
        }
        assert!(saw_conflict, "flat manipulator suspiciously tidy");
    }

    #[test]
    fn crossover_mixes_parents() {
        let m = HierarchicalManipulator::new();
        let mut r = rng();
        let a = m.random(&mut r);
        let b = m.random(&mut r);
        let c = m.crossover(&a, &b, &mut r);
        assert!(c.validate(m.registry()).is_ok());
    }

    #[test]
    fn numeric_flags_are_numeric_and_active() {
        let m = HierarchicalManipulator::new();
        let c = {
            let mut c = JvmConfig::default_for(m.registry());
            m.canonicalize(&mut c);
            c
        };
        let dims = m.numeric_flags(&c);
        assert!(dims.len() > 10, "only {} numeric dims", dims.len());
        for id in dims {
            let spec = m.registry().spec(id);
            assert!(matches!(
                spec.domain,
                Domain::IntRange { .. } | Domain::DoubleRange { .. }
            ));
        }
    }

    #[test]
    fn mutate_value_respects_domains() {
        let mut r = rng();
        let d = Domain::IntRange {
            lo: 10,
            hi: 1000,
            log_scale: true,
        };
        let mut v = FlagValue::Int(100);
        for _ in 0..200 {
            v = mutate_value(&d, v, &mut r);
            assert!(d.contains(v), "{v:?} escaped domain");
        }
    }

    #[test]
    fn mutate_value_always_moves_ints() {
        let mut r = rng();
        let d = Domain::IntRange {
            lo: 0,
            hi: 10,
            log_scale: false,
        };
        // From an interior point, the mutation must not be a no-op (domain
        // endpoints may clamp back).
        for _ in 0..100 {
            let v = mutate_value(&d, FlagValue::Int(5), &mut r);
            assert!(d.contains(v));
        }
    }

    /// The hierarchical and subset moves as they were when every selector
    /// write canonicalised (`set_selector`), kept as the reference for the
    /// one-canonicalisation-per-move versions.
    mod reference {
        use super::super::*;

        pub fn random(m: &HierarchicalManipulator, rng: &mut dyn RngDyn) -> JvmConfig {
            let mut c = JvmConfig::default_for(m.registry);
            for sid in m.tree.selector_ids() {
                let n = m.tree.selector(sid).options.len();
                m.tree.set_selector(m.registry, &mut c, sid, below(rng, n));
            }
            let active = m.tree.active_flags(&c);
            for id in active {
                if chance(rng, 0.25) {
                    let spec = m.registry.spec(id);
                    c.set(id, random_value(&spec.domain, rng));
                }
            }
            m.canonicalize(&mut c);
            c
        }

        pub fn mutate(
            m: &HierarchicalManipulator,
            config: &JvmConfig,
            rng: &mut dyn RngDyn,
            strength: f64,
        ) -> JvmConfig {
            let mut c = config.clone();
            if chance(rng, m.selector_p * strength.max(0.2)) {
                let sels: Vec<_> = m.tree.selector_ids().collect();
                let sid = sels[below(rng, sels.len())];
                let n = m.tree.selector(sid).options.len();
                m.tree.set_selector(m.registry, &mut c, sid, below(rng, n));
            }
            let active = m.tree.active_flags(&c);
            let touches = ((strength * 4.0).round() as usize).max(1);
            for _ in 0..touches {
                let id = active[below(rng, active.len())];
                let spec = m.registry.spec(id);
                c.set(id, mutate_value(&spec.domain, c.get(id), rng));
            }
            m.canonicalize(&mut c);
            c
        }

        pub fn crossover(
            m: &HierarchicalManipulator,
            a: &JvmConfig,
            b: &JvmConfig,
            rng: &mut dyn RngDyn,
        ) -> JvmConfig {
            let mut c = a.clone();
            for sid in m.tree.selector_ids() {
                let donor = if chance(rng, 0.5) { a } else { b };
                let opt = m.tree.selector_state(sid, donor);
                m.tree.set_selector(m.registry, &mut c, sid, opt);
            }
            for id in m.tree.active_flags(&c) {
                let donor = if chance(rng, 0.5) { a } else { b };
                let v = donor.get(id);
                if m.registry.spec(id).domain.contains(v) {
                    c.set(id, v);
                }
            }
            m.canonicalize(&mut c);
            c
        }

        pub fn primers(m: &HierarchicalManipulator) -> Vec<JvmConfig> {
            let mut out = Vec::new();
            let default = JvmConfig::default_for(m.registry);
            let sels: Vec<_> = m.tree.selector_ids().collect();
            let counts: Vec<usize> = sels
                .iter()
                .map(|s| m.tree.selector(*s).options.len())
                .collect();
            let mut choice = vec![0usize; sels.len()];
            loop {
                let mut c = default.clone();
                for (i, &sid) in sels.iter().enumerate() {
                    m.tree.set_selector(m.registry, &mut c, sid, choice[i]);
                }
                out.push(c);
                let mut i = 0;
                loop {
                    if i == choice.len() {
                        return out;
                    }
                    choice[i] += 1;
                    if choice[i] < counts[i] {
                        break;
                    }
                    choice[i] = 0;
                    i += 1;
                }
            }
        }

        pub fn subset_random(m: &SubsetManipulator, rng: &mut dyn RngDyn) -> JvmConfig {
            let mut c = JvmConfig::default_for(m.registry);
            let sid = m.gc_selector();
            let n = m.tree.selector(sid).options.len();
            m.tree.set_selector(m.registry, &mut c, sid, below(rng, n));
            for &id in &m.subset {
                if chance(rng, 0.3) {
                    c.set(id, random_value(&m.registry.spec(id).domain, rng));
                }
            }
            m.canonicalize(&mut c);
            c
        }

        pub fn subset_mutate(
            m: &SubsetManipulator,
            config: &JvmConfig,
            rng: &mut dyn RngDyn,
            strength: f64,
        ) -> JvmConfig {
            let mut c = config.clone();
            if chance(rng, 0.15) {
                let sid = m.gc_selector();
                let n = m.tree.selector(sid).options.len();
                m.tree.set_selector(m.registry, &mut c, sid, below(rng, n));
            }
            let touches = ((strength * 4.0).round() as usize).max(1);
            for _ in 0..touches {
                let id = m.subset[below(rng, m.subset.len())];
                let spec = m.registry.spec(id);
                c.set(id, mutate_value(&spec.domain, c.get(id), rng));
            }
            m.canonicalize(&mut c);
            c
        }
    }

    #[test]
    fn hierarchical_moves_match_per_selector_canonicalisation() {
        let m = HierarchicalManipulator::new();
        let (mut new, mut old) = (rng(), rng());
        // Inputs as the techniques pass them: the raw default (the anchor
        // before any result) and the manipulator's own canonical points.
        let mut pool = vec![JvmConfig::default_for(m.registry())];
        let mut switches = 0;
        for i in 0..400 {
            let strength = [0.1, 0.3, 0.6, 1.0][i % 4];
            let point = m.random(&mut new);
            assert_eq!(point, reference::random(&m, &mut old), "random {i}");
            let base = &pool[i % pool.len()];
            let moved = m.mutate(base, &mut new, strength);
            assert_eq!(
                moved,
                reference::mutate(&m, base, &mut old, strength),
                "mutate {i}"
            );
            let other = &pool[(i * 7 + 3) % pool.len()];
            let child = m.crossover(&moved, other, &mut new);
            assert_eq!(
                child,
                reference::crossover(&m, &moved, other, &mut old),
                "crossover {i}"
            );
            switches += m
                .tree()
                .selector_ids()
                .filter(|&s| {
                    m.tree().selector_state(s, &child) != m.tree().selector_state(s, &moved)
                })
                .count();
            pool.extend([point, moved, child]);
        }
        assert!(
            switches > 100,
            "crossover switched only {switches} selectors"
        );
        assert_eq!(new.next_u64(), old.next_u64(), "RNG streams diverged");
        assert_eq!(m.primers(), reference::primers(&m));
    }

    #[test]
    fn subset_moves_match_per_selector_canonicalisation() {
        let m = SubsetManipulator::gc_and_heap();
        let (mut new, mut old) = (rng(), rng());
        let mut pool = vec![JvmConfig::default_for(m.registry())];
        for i in 0..400 {
            let strength = [0.1, 0.5, 1.0][i % 3];
            let point = m.random(&mut new);
            assert_eq!(point, reference::subset_random(&m, &mut old), "random {i}");
            let base = &pool[i % pool.len()];
            let moved = m.mutate(base, &mut new, strength);
            assert_eq!(
                moved,
                reference::subset_mutate(&m, base, &mut old, strength),
                "mutate {i}"
            );
            pool.extend([point, moved]);
        }
        assert_eq!(new.next_u64(), old.next_u64(), "RNG streams diverged");
    }
}
