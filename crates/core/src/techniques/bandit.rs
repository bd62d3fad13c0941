//! The bandit over search techniques.
//!
//! No single search technique wins on every program: random sampling
//! dominates early, local techniques once a good basin is found, numeric
//! techniques when only sizes remain to polish. A [`Bandit`] routes each
//! proposal to one arm, credits the measured score back to that arm, and
//! sends the next proposal where credit is highest. Two selection rules,
//! [`Bandit::ensemble`] (AUC) and [`Bandit::portfolio`] (Exp3), share
//! the arms, the router and the feedback path.
//!
//! Determinism: all randomness comes from the tuner-owned RNG passed to
//! [`Technique::propose`], arm order is fixed, and ties break on arm
//! index — two sessions with the same seed make the same allocations.

use std::collections::{HashMap, VecDeque};

use jtune_flags::JvmConfig;

use crate::manipulator::RngDyn;
use crate::techniques::{SearchState, Technique, TechniqueSet};

/// AUC: exploration constant (UCB1-style).
const AUC_C: f64 = 0.35;
/// Exp3: softmax temperature over mean windowed reward.
const EXP3_TEMPERATURE: f64 = 0.02;
/// Exp3: uniform-exploration mixture (the Exp3 gamma).
const EXP3_GAMMA: f64 = 0.15;

/// How a [`Bandit`] rewards arms and picks the next one.
#[derive(Clone, Copy, Debug)]
enum Rule {
    Auc,
    Exp3,
}

impl Rule {
    /// Sliding reward window per arm.
    fn window(self) -> usize {
        match self {
            Rule::Auc => 50,
            Rule::Exp3 => 40,
        }
    }

    /// Reward in `[0, 1]` for `score` against the incumbent it had to
    /// beat (the tuner feeds back against the pre-candidate best).
    /// Failures and regressions earn zero.
    fn reward(self, score: Option<f64>, incumbent: f64) -> f64 {
        let Some(s) = score else { return 0.0 };
        match self {
            Rule::Auc => f64::from(s < incumbent),
            Rule::Exp3 => ((incumbent - s) / incumbent.max(f64::MIN_POSITIVE)).clamp(0.0, 1.0),
        }
    }
}

struct Arm {
    technique: Box<dyn Technique>,
    /// Recent rewards in `[0, 1]`, oldest first.
    rewards: VecDeque<f64>,
    uses: u64,
}

impl Arm {
    /// AUC credit: Σ (i+1)·reward_i / Σ (i+1), newer entries having larger i.
    fn credit(&self) -> f64 {
        if self.rewards.is_empty() {
            return 0.0;
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, &reward) in self.rewards.iter().enumerate() {
            let w = (i + 1) as f64;
            den += w;
            num += w * reward;
        }
        num / den
    }

    fn mean_reward(&self) -> f64 {
        if self.rewards.is_empty() {
            return 0.0;
        }
        self.rewards.iter().sum::<f64>() / self.rewards.len() as f64
    }
}

/// A bandit over a roster of techniques. Itself a [`Technique`], so solo
/// and composite tuners share one driver.
pub struct Bandit {
    rule: Rule,
    arms: Vec<Arm>,
    /// Which arm proposed which pending config (by fingerprint).
    router: HashMap<u64, usize>,
}

impl Bandit {
    fn new(rule: Rule, techniques: Vec<Box<dyn Technique>>) -> Self {
        assert!(
            !techniques.is_empty(),
            "bandit needs at least one technique"
        );
        Bandit {
            rule,
            arms: techniques
                .into_iter()
                .map(|technique| Arm {
                    technique,
                    rewards: VecDeque::with_capacity(rule.window()),
                    uses: 0,
                })
                .collect(),
            router: HashMap::new(),
        }
    }

    /// The default OpenTuner-style AUC-bandit ensemble over the solo
    /// techniques. An arm earns 1 for beating the incumbent, else 0; the
    /// arm with the highest area-under-curve credit over its recent
    /// rewards (newer weigh more) plus a UCB1-style bonus wins.
    pub fn ensemble() -> Self {
        Self::new(Rule::Auc, TechniqueSet::solo_arms())
    }

    /// The Exp3 portfolio ("Tuning the Tuner") over the solo techniques
    /// plus one ensemble. An arm earns its relative improvement over the
    /// incumbent; arms are sampled by a softmax over mean recent reward
    /// mixed with uniform exploration.
    pub fn portfolio() -> Self {
        let mut arms = TechniqueSet::solo_arms();
        arms.push(Box::new(Self::ensemble()));
        Self::new(Rule::Exp3, arms)
    }

    /// Untried arms first, in index order; then the rule's choice.
    fn select(&self, rng: &mut dyn RngDyn) -> usize {
        if let Some(i) = self.arms.iter().position(|a| a.uses == 0) {
            return i;
        }
        match self.rule {
            Rule::Auc => self.select_auc(),
            Rule::Exp3 => self.select_exp3(rng),
        }
    }

    /// The arm with the highest credit plus exploration bonus.
    fn select_auc(&self) -> usize {
        let t = (self.arms.iter().map(|a| a.uses).sum::<u64>() + 1) as f64;
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (i, arm) in self.arms.iter().enumerate() {
            let score = arm.credit() + AUC_C * (2.0 * t.ln() / arm.uses as f64).sqrt();
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }

    /// Sample from the mixture of softmax-by-reward and uniform.
    fn select_exp3(&self, rng: &mut dyn RngDyn) -> usize {
        let n = self.arms.len();
        // Softmax with the max subtracted for numeric stability.
        let top = self
            .arms
            .iter()
            .map(Arm::mean_reward)
            .fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = self
            .arms
            .iter()
            .map(|a| ((a.mean_reward() - top) / EXP3_TEMPERATURE).exp())
            .collect();
        let total: f64 = weights.iter().sum();
        let mut x = rng.next_f64_dyn();
        for (i, &w) in weights.iter().enumerate() {
            let p = (1.0 - EXP3_GAMMA) * w / total + EXP3_GAMMA / n as f64;
            if x < p {
                return i;
            }
            x -= p;
        }
        n - 1
    }
}

impl Technique for Bandit {
    fn name(&self) -> &'static str {
        match self.rule {
            Rule::Auc => "ensemble",
            Rule::Exp3 => "portfolio",
        }
    }

    fn propose(&mut self, state: &SearchState<'_>, rng: &mut dyn RngDyn) -> JvmConfig {
        let i = self.select(rng);
        self.arms[i].uses += 1;
        let config = self.arms[i].technique.propose(state, rng);
        self.router.insert(config.fingerprint(), i);
        config
    }

    fn proposer(&self, config: &JvmConfig) -> &'static str {
        match self.router.get(&config.fingerprint()) {
            // Delegate so a nested bandit attributes its own inner arm.
            Some(&i) => self.arms[i].technique.proposer(config),
            None => self.name(),
        }
    }

    fn retract(&mut self, config: &JvmConfig) {
        if let Some(i) = self.router.remove(&config.fingerprint()) {
            self.arms[i].technique.retract(config);
        }
    }

    fn feedback(&mut self, config: &JvmConfig, score: Option<f64>, state: &SearchState<'_>) {
        let Some(i) = self.router.remove(&config.fingerprint()) else {
            return;
        };
        let incumbent = state.best.map_or(state.default_score, |(_, best)| *best);
        let reward = self.rule.reward(score, incumbent);
        let window = self.rule.window();
        let arm = &mut self.arms[i];
        if arm.rewards.len() == window {
            arm.rewards.pop_front();
        }
        arm.rewards.push_back(reward);
        arm.technique.feedback(config, score, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manipulator::HierarchicalManipulator;
    use crate::techniques::random::RandomSearch;
    use jtune_util::Xoshiro256pp;

    /// Every test runs over both rules, each built the way
    /// [`TechniqueSet`] builds it.
    const RULES: [(Rule, fn() -> Bandit); 2] = [
        (Rule::Auc, Bandit::ensemble),
        (Rule::Exp3, Bandit::portfolio),
    ];

    fn state(m: &HierarchicalManipulator) -> SearchState<'_> {
        SearchState {
            manipulator: m,
            best: None,
            default_score: 10.0,
            budget_fraction: 0.1,
            reuse_fraction: 0.0,
        }
    }

    fn two_random_arms(rule: Rule) -> Bandit {
        Bandit::new(
            rule,
            vec![Box::new(RandomSearch::new()), Box::new(RandomSearch::new())],
        )
    }

    #[test]
    fn tries_every_arm_before_exploiting() {
        let m = HierarchicalManipulator::new();
        let st = state(&m);
        for (rule, build) in RULES {
            let mut rng = Xoshiro256pp::seed_from_u64(21);
            let mut bandit = build();
            for _ in 0..bandit.arms.len() {
                let c = bandit.propose(&st, &mut rng);
                bandit.feedback(&c, Some(10.0), &st);
            }
            assert!(
                bandit.arms.iter().all(|a| a.uses == 1),
                "{rule:?} skipped an arm"
            );
        }
    }

    /// Runs `rounds` proposals through a two-arm bandit, scoring arm 0's
    /// candidates with `hit(round)` and arm 1's with a regression, and
    /// returns how often each arm was used.
    fn exploit(rule: Rule, seed: u64, rounds: usize, hit: impl Fn(usize) -> f64) -> (u64, u64) {
        let m = HierarchicalManipulator::new();
        let st = state(&m);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut bandit = two_random_arms(rule);
        for round in 0..rounds {
            let c = bandit.propose(&st, &mut rng);
            let arm = bandit.router[&c.fingerprint()];
            let score = if arm == 0 { hit(round) } else { 12.0 };
            bandit.feedback(&c, Some(score), &st);
        }
        (bandit.arms[0].uses, bandit.arms[1].uses)
    }

    #[test]
    fn credit_rewards_improving_arm() {
        // Arm 0 keeps improving on the default; arm 1 always regresses.
        for (rule, _) in RULES {
            let (hit, miss) = exploit(rule, 22, 120, |round| 9.0 - round as f64 * 0.001);
            assert!(
                hit > miss * 2,
                "{rule:?} failed to exploit: {hit} vs {miss}"
            );
        }
    }

    #[test]
    fn rewarding_one_arm_shifts_allocation() {
        // Arm 0 always beats the default by the same margin; arm 1
        // always regresses.
        for (rule, _) in RULES {
            let (hit, miss) = exploit(rule, 32, 200, |_| 7.0);
            assert!(
                hit > miss * 2,
                "{rule:?} failed to exploit: {hit} vs {miss}"
            );
        }
    }

    #[test]
    fn auc_weighs_recent_history_more() {
        let mut arm = Arm {
            technique: Box::new(RandomSearch::new()),
            rewards: VecDeque::new(),
            uses: 10,
        };
        // Old hits, recent misses...
        arm.rewards.extend([1.0, 1.0, 0.0, 0.0]);
        let fading = arm.credit();
        // ...versus old misses, recent hits.
        arm.rewards.clear();
        arm.rewards.extend([0.0, 0.0, 1.0, 1.0]);
        let rising = arm.credit();
        assert!(rising > fading);
    }

    #[test]
    fn retract_forgets_the_pending_proposal() {
        let m = HierarchicalManipulator::new();
        let st = state(&m);
        for (rule, build) in RULES {
            let mut rng = Xoshiro256pp::seed_from_u64(33);
            let mut bandit = build();
            let c = bandit.propose(&st, &mut rng);
            assert_ne!(bandit.proposer(&c), bandit.name(), "{rule:?}");
            bandit.retract(&c);
            assert_eq!(bandit.proposer(&c), bandit.name(), "{rule:?}");
            // Feedback after retraction is ignored, not misattributed.
            bandit.feedback(&c, Some(1.0), &st);
            assert!(bandit.arms.iter().all(|a| a.rewards.is_empty()), "{rule:?}");
        }
    }

    #[test]
    fn allocation_is_deterministic_for_a_seed() {
        let m = HierarchicalManipulator::new();
        let st = state(&m);
        for (rule, build) in RULES {
            let run = || {
                let mut rng = Xoshiro256pp::seed_from_u64(34);
                let mut bandit = build();
                let mut picks = Vec::new();
                for _ in 0..40 {
                    let c = bandit.propose(&st, &mut rng);
                    picks.push(bandit.router[&c.fingerprint()]);
                    bandit.feedback(&c, Some(9.5), &st);
                }
                picks
            };
            assert_eq!(run(), run(), "{rule:?}");
        }
    }

    #[test]
    fn empty_roster_panics() {
        for (rule, _) in RULES {
            let built = std::panic::catch_unwind(|| Bandit::new(rule, vec![]));
            let message = built.err().and_then(|e| e.downcast::<&str>().ok());
            assert_eq!(
                message.as_deref(),
                Some(&"bandit needs at least one technique"),
                "{rule:?}"
            );
        }
    }

    #[test]
    fn portfolio_has_eight_arms() {
        let portfolio = Bandit::portfolio();
        assert_eq!(portfolio.arms.len(), 8);
        assert_eq!(portfolio.arms[7].technique.name(), "ensemble");
        assert_eq!(Bandit::ensemble().arms.len(), 7);
    }
}
