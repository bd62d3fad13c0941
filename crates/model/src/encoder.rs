//! Fixed-length numeric features for JVM configurations.
//!
//! The encoding has two blocks, in a stable order that depends only on
//! the registry and the tree (never on the config being encoded):
//!
//! 1. **Selector one-hots** — for every selector in the flag tree, one
//!    `0/1` feature per option, with the detected option hot. These give
//!    the trees clean axis-aligned splits on structural choices (which
//!    collector, which compiler mode) that a raw flag encoding would
//!    smear across marker booleans.
//! 2. **Flag values** — one `[0, 1]` feature per tunable flag in
//!    registry order: booleans map to `{0, 1}`, enums to
//!    `index / (n - 1)`, and numeric ranges to their linear or log
//!    position inside the domain, mirroring how the search techniques
//!    themselves embed configs.

use jtune_flags::{Domain, FlagId, FlagValue, JvmConfig, Registry};
use jtune_flagtree::FlagTree;

/// Maps configs to fixed-length feature vectors. Cheap to construct,
/// cheaper to call; borrows the registry and tree it encodes against.
#[derive(Clone, Debug)]
pub struct FeatureEncoder<'a> {
    registry: &'a Registry,
    tree: &'a FlagTree,
    /// Tunable flags in registry order — the value block's layout.
    flags: Vec<FlagId>,
    /// Total feature count: selector one-hots + one per tunable flag.
    dim: usize,
}

impl<'a> FeatureEncoder<'a> {
    /// Build the encoder for a registry/tree pair.
    pub fn new(registry: &'a Registry, tree: &'a FlagTree) -> FeatureEncoder<'a> {
        let flags: Vec<FlagId> = registry
            .iter()
            .filter(|(_, spec)| spec.tunable())
            .map(|(id, _)| id)
            .collect();
        let one_hots: usize = tree.selectors().iter().map(|s| s.options.len()).sum();
        let dim = one_hots + flags.len();
        FeatureEncoder {
            registry,
            tree,
            flags,
            dim,
        }
    }

    /// Number of features every encoded vector has.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Encode one config. The vector length always equals [`dim`](Self::dim).
    pub fn encode(&self, config: &JvmConfig) -> Vec<f64> {
        let mut x = Vec::with_capacity(self.dim);
        for sel in self.tree.selectors() {
            let chosen = sel.detect(config);
            for i in 0..sel.options.len() {
                x.push(if i == chosen { 1.0 } else { 0.0 });
            }
        }
        for &flag in &self.flags {
            x.push(self.feature(flag, config.get(flag)));
        }
        debug_assert_eq!(x.len(), self.dim);
        x
    }

    /// A single flag's `[0, 1]` feature value.
    fn feature(&self, flag: FlagId, value: FlagValue) -> f64 {
        match (&self.registry.spec(flag).domain, value) {
            (Domain::Bool, FlagValue::Bool(b)) => {
                if b {
                    1.0
                } else {
                    0.0
                }
            }
            (Domain::IntRange { lo, hi, log_scale }, FlagValue::Int(v)) => {
                unit_position(*lo as f64, *hi as f64, v as f64, *log_scale)
            }
            (Domain::DoubleRange { lo, hi }, FlagValue::Double(v)) => {
                unit_position(*lo, *hi, v, false)
            }
            // A value of the wrong shape for its domain cannot come out
            // of a validated config; encode it as the domain midpoint so
            // the model degrades instead of panicking.
            _ => 0.5,
        }
    }
}

/// Position of `v` inside `[lo, hi]`, linearly or logarithmically.
fn unit_position(lo: f64, hi: f64, v: f64, log_scale: bool) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    let t = if log_scale && lo > 0.0 {
        (v.max(lo).ln() - lo.ln()) / (hi.ln() - lo.ln())
    } else {
        (v - lo) / (hi - lo)
    };
    t.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtune_flags::hotspot_registry;
    use jtune_flagtree::hotspot_tree;

    #[test]
    fn encoding_is_fixed_length_and_bounded() {
        let registry = hotspot_registry();
        let tree = hotspot_tree();
        let enc = FeatureEncoder::new(registry, tree);
        assert!(enc.dim() > 0);

        let config = JvmConfig::default_for(registry);
        let x = enc.encode(&config);
        assert_eq!(x.len(), enc.dim());
        assert!(x.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn selector_flip_moves_exactly_its_one_hot_block() {
        let registry = hotspot_registry();
        let tree = hotspot_tree();
        let enc = FeatureEncoder::new(registry, tree);

        let base = JvmConfig::default_for(registry);
        let mut flipped = base.clone();
        let sid = tree.selector_ids().next().expect("tree has selectors");
        let sel = tree.selector(sid);
        let default_opt = sel.detect(&base);
        let other = (0..sel.options.len())
            .find(|&i| i != default_opt)
            .expect("selectors have >= 2 options");
        tree.set_selector(registry, &mut flipped, sid, other);
        assert_ne!(sel.detect(&flipped), default_opt);

        let xb = enc.encode(&base);
        let xf = enc.encode(&flipped);
        // The first selector's one-hot block starts at feature 0.
        assert_eq!(xb[default_opt], 1.0);
        assert_eq!(xf[default_opt], 0.0);
        assert_eq!(xf[sel.detect(&flipped)], 1.0);
    }

    #[test]
    fn log_scale_position_is_monotone() {
        let lo = unit_position(1.0, 1024.0, 2.0, true);
        let mid = unit_position(1.0, 1024.0, 32.0, true);
        let hi = unit_position(1.0, 1024.0, 512.0, true);
        assert!(lo < mid && mid < hi);
        assert_eq!(unit_position(1.0, 1024.0, 1.0, true), 0.0);
        assert_eq!(unit_position(1.0, 1024.0, 1024.0, true), 1.0);
    }
}
