//! The incremental surrogate regressor.
//!
//! A small bagged ensemble of regression trees plus one ridge-regularised
//! linear member, refit from scratch on every `fit()` call from the full
//! observation history. Refitting from scratch is what makes resume work:
//! the model is a pure function of `(seed, observation sequence)`, so a
//! session that replays its journal rebuilds bit-identical predictions.
//!
//! Each bag draws its own bootstrap sample and its own per-split feature
//! subset from an RNG seeded by `seed ^ bag`, so the ensemble spread is a
//! real disagreement signal, not noise from shared state.
//!
//! The history is stored column-major, `cols[f][i]`, and each feature
//! keeps one order of the observation indices sorted by `(x, y)` under
//! `total_cmp`; `observe` updates every order with a binary-search
//! insert. A split search reads a feature's sorted `(x, y)` run at a node
//! by scanning that order and emitting each index as often as the node's
//! bootstrap sample holds it. That costs O(N) per node and feature try
//! over N observations, with no allocation, against O(n log n) and four
//! allocations for sorting the node's n pairs afresh. A node with
//! `n log2 n < N` sorts its pairs in a reused buffer instead. Tied
//! entries of a run are bit-equal `(x, y)` pairs, so both routes give the
//! same sequence, and every sum keeps its operand order: the trees are
//! the ones a per-node sort grows, bit for bit.

use std::cmp::Ordering;
use std::ops::Range;

use jtune_util::{Rng, SplitMix64, Xoshiro256pp};

/// Bootstrap bags in the tree ensemble.
const BAGS: usize = 8;
/// Maximum tree depth.
const MAX_DEPTH: usize = 6;
/// Minimum samples on each side of a split.
const MIN_LEAF: usize = 4;
/// Candidate split thresholds examined per feature.
const MAX_THRESHOLDS: usize = 8;
/// Features the linear member regresses on (top by |covariance|).
const LINEAR_TOP_K: usize = 16;
/// Ridge penalty for the linear member.
const RIDGE: f64 = 1e-3;

/// A surrogate's point estimate plus ensemble disagreement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Ensemble-mean predicted score (virtual seconds; lower is better).
    pub mean: f64,
    /// Population std-dev across ensemble members.
    pub std: f64,
}

/// What one `fit()` call did.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FitReport {
    /// Observations the current model is trained on.
    pub samples: usize,
    /// Whether this call actually refit (false: nothing new to learn).
    pub refit: bool,
}

/// Seeded bagged-tree + linear surrogate over encoded configs.
#[derive(Clone, Debug)]
pub struct Surrogate {
    seed: u64,
    /// `cols[f][i]`: feature `f` of observation `i`.
    cols: Vec<Vec<f64>>,
    /// `order[f]`: observation indices sorted by `(cols[f][i], ys[i])`
    /// under `total_cmp`.
    order: Vec<Vec<u32>>,
    ys: Vec<f64>,
    trees: Vec<Tree>,
    linear: Option<LinearModel>,
    fitted_at: usize,
    fits: u64,
}

impl Surrogate {
    /// An empty surrogate. `seed` fixes every future fit.
    pub fn new(seed: u64) -> Surrogate {
        Surrogate {
            seed,
            cols: Vec::new(),
            order: Vec::new(),
            ys: Vec::new(),
            trees: Vec::new(),
            linear: None,
            fitted_at: 0,
            fits: 0,
        }
    }

    /// Record one completed trial. Non-finite scores are dropped — the
    /// retry/quarantine layer already decides what failures mean.
    ///
    /// # Panics
    /// Panics if `x` has another length than the observations recorded
    /// before it.
    pub fn observe(&mut self, x: Vec<f64>, y: f64) {
        let dim = self.cols.len();
        assert!(
            self.ys.is_empty() || x.len() == dim,
            "observation has {} features; earlier ones have {dim}",
            x.len()
        );
        if !y.is_finite() {
            return;
        }
        if self.ys.is_empty() {
            self.cols = vec![Vec::new(); x.len()];
            self.order = vec![Vec::new(); x.len()];
        }
        let at = u32::try_from(self.ys.len()).expect("fewer than 2^32 observations");
        // Grow by a quarter, not by doubling: each feature keeps two
        // vectors as long as the history, and doubling's slack showed up
        // in the peak RSS of model sessions.
        if self.ys.len() == self.ys.capacity() {
            let more = self.ys.len() / 4 + 8;
            self.ys.reserve_exact(more);
            for (col, order) in self.cols.iter_mut().zip(&mut self.order) {
                col.reserve_exact(more);
                order.reserve_exact(more);
            }
        }
        let ys = &self.ys;
        for ((col, order), v) in self.cols.iter_mut().zip(&mut self.order).zip(x) {
            let pos = order.partition_point(|&i| {
                let i = i as usize;
                by_x_then_y(&(col[i], ys[i]), &(v, y)).is_le()
            });
            order.insert(pos, at);
            col.push(v);
        }
        self.ys.push(y);
    }

    /// Observations recorded so far.
    pub fn samples(&self) -> usize {
        self.ys.len()
    }

    /// Refits completed so far.
    pub fn fits(&self) -> u64 {
        self.fits
    }

    /// Whether the model has seen enough trials to screen.
    pub fn ready(&self, warmup: usize) -> bool {
        self.ys.len() >= warmup
    }

    /// Refit from the full history if anything new arrived.
    pub fn fit(&mut self) -> FitReport {
        if self.ys.len() == self.fitted_at {
            return FitReport {
                samples: self.fitted_at,
                refit: false,
            };
        }
        let mut grower = Grower::new(&self.cols, &self.order, &self.ys);
        self.trees = (0..BAGS)
            .map(|bag| grower.grow(&mut bag_rng(self.seed, bag)))
            .collect();
        self.linear = LinearModel::fit(&self.cols, &self.ys);
        self.fitted_at = self.ys.len();
        self.fits += 1;
        FitReport {
            samples: self.fitted_at,
            refit: true,
        }
    }

    /// Predict the score of an encoded config.
    ///
    /// # Panics
    /// Panics if called before the first successful [`fit`](Self::fit).
    pub fn predict(&self, x: &[f64]) -> Prediction {
        assert!(!self.trees.is_empty(), "predict() before fit()");
        let members = || {
            let trees = self.trees.iter().map(|t| t.predict(x));
            trees.chain(self.linear.iter().map(|l| l.predict(x)))
        };
        let n = (self.trees.len() + usize::from(self.linear.is_some())) as f64;
        let mean = members().sum::<f64>() / n;
        let var = members().map(|m| (m - mean) * (m - mean)).sum::<f64>() / n;
        Prediction {
            mean,
            std: var.sqrt(),
        }
    }
}

/// The order of a feature's `(x, y)` runs. Only bit-equal pairs tie.
fn by_x_then_y(a: &(f64, f64), b: &(f64, f64)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1))
}

/// The RNG behind bag `bag`'s bootstrap sample and feature tries.
fn bag_rng(seed: u64, bag: usize) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(SplitMix64::new(seed ^ bag as u64).next_u64())
}

/// One regression tree, stored as a flat arena.
#[derive(Clone, Debug)]
struct Tree {
    nodes: Vec<Node>,
}

#[derive(Clone, Debug)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

impl Tree {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut at = 0;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if x.get(*feature).copied().unwrap_or(0.5) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Grows the bags of one fit over the column-major history, reusing its
/// buffers across nodes, feature tries and bags.
struct Grower<'a> {
    cols: &'a [Vec<f64>],
    order: &'a [Vec<u32>],
    ys: &'a [f64],
    /// The bag's bootstrap sample, laid out so that every node owns a
    /// contiguous range in its original draw order.
    idx: Vec<usize>,
    /// The high side of the partition being made.
    spill: Vec<usize>,
    /// Each observation's multiplicity in the node whose runs are being
    /// scanned; zero outside that node's tries.
    count: Vec<u32>,
    /// One feature's sorted `(x, y)` run at the node.
    pairs: Vec<(f64, f64)>,
}

impl<'a> Grower<'a> {
    fn new(cols: &'a [Vec<f64>], order: &'a [Vec<u32>], ys: &'a [f64]) -> Grower<'a> {
        Grower {
            cols,
            order,
            ys,
            idx: Vec::with_capacity(ys.len()),
            spill: Vec::with_capacity(ys.len()),
            count: vec![0; ys.len()],
            pairs: Vec::with_capacity(ys.len()),
        }
    }

    /// Grow a tree on a bootstrap sample drawn from `rng`.
    fn grow(&mut self, rng: &mut impl Rng) -> Tree {
        let n = self.ys.len();
        self.idx.clear();
        self.idx
            .extend((0..n).map(|_| rng.next_below(n as u64) as usize));
        let mut tree = Tree { nodes: Vec::new() };
        self.grow_node(&mut tree, 0..n, 0, rng);
        tree
    }

    /// Build the subtree over `idx[range]`, returning its node index.
    fn grow_node(
        &mut self,
        tree: &mut Tree,
        range: Range<usize>,
        depth: usize,
        rng: &mut impl Rng,
    ) -> usize {
        let (ys, idx) = (self.ys, &self.idx[range.clone()]);
        let mean = idx.iter().map(|&i| ys[i]).sum::<f64>() / idx.len() as f64;
        let spread = idx
            .iter()
            .map(|&i| (ys[i] - mean) * (ys[i] - mean))
            .sum::<f64>();
        let leaf = |tree: &mut Tree| {
            tree.nodes.push(Node::Leaf { value: mean });
            tree.nodes.len() - 1
        };
        if depth >= MAX_DEPTH || idx.len() < 2 * MIN_LEAF || spread <= f64::EPSILON {
            return leaf(tree);
        }
        let Some((feature, threshold)) = self.choose_split(range.clone(), rng) else {
            return leaf(tree);
        };
        let mid = self.partition(range.clone(), feature, threshold);
        if mid - range.start < MIN_LEAF || range.end - mid < MIN_LEAF {
            return leaf(tree);
        }

        // Reserve this node's slot before recursing so the arena index
        // is stable.
        let slot = leaf(tree);
        let left = self.grow_node(tree, range.start..mid, depth + 1, rng);
        let right = self.grow_node(tree, mid..range.end, depth + 1, rng);
        tree.nodes[slot] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }

    /// The lowest-SSE `(feature, threshold)` over `ceil(sqrt(dim))`
    /// random feature tries at the node over `idx[range]`.
    fn choose_split(&mut self, range: Range<usize>, rng: &mut impl Rng) -> Option<(usize, f64)> {
        let dim = self.cols.len();
        let tries = ((dim as f64).sqrt().ceil() as usize).max(1);
        // Scanning an order costs O(N); sorting the node's pairs costs
        // O(n log n).
        let n = range.len() as f64;
        let scan = n * n.log2() >= self.ys.len() as f64;
        if scan {
            for &i in &self.idx[range.clone()] {
                self.count[i] += 1;
            }
        }
        let mut best: Option<(f64, usize, f64)> = None; // (sse, feature, threshold)
        for _ in 0..tries {
            let feature = rng.next_below(dim as u64) as usize;
            self.load_run(range.clone(), feature, scan);
            if let Some((sse, threshold)) = best_cut(&self.pairs) {
                if best.map(|(b, _, _)| sse < b).unwrap_or(true) {
                    best = Some((sse, feature, threshold));
                }
            }
        }
        if scan {
            for &i in &self.idx[range] {
                self.count[i] = 0;
            }
        }
        best.map(|(_, feature, threshold)| (feature, threshold))
    }

    /// Fill `pairs` with `feature`'s sorted `(x, y)` run over `idx[range]`:
    /// by scanning the feature's order against `count`, or by sorting.
    fn load_run(&mut self, range: Range<usize>, feature: usize, scan: bool) {
        let (col, ys) = (&self.cols[feature], self.ys);
        self.pairs.clear();
        if scan {
            // Every entry writes its pair once, branch-free; the next
            // entry overwrites it when its count is zero, so the run
            // needs one slot of slack.
            self.pairs.resize(range.len() + 1, (0.0, 0.0));
            let mut w = 0;
            for &i in &self.order[feature] {
                let i = i as usize;
                let c = self.count[i] as usize;
                let pair = (col[i], ys[i]);
                self.pairs[w] = pair;
                if c > 1 {
                    self.pairs[w + 1..w + c].fill(pair);
                }
                w += c;
            }
            self.pairs.truncate(w);
        } else {
            let run = self.idx[range].iter().map(|&i| (col[i], ys[i]));
            self.pairs.extend(run);
            self.pairs.sort_unstable_by(by_x_then_y);
        }
    }

    /// Stable partition of `idx[range]` into the samples with
    /// `x <= threshold`, then the rest. Returns where the rest starts.
    fn partition(&mut self, range: Range<usize>, feature: usize, threshold: f64) -> usize {
        let col = &self.cols[feature];
        self.spill.clear();
        let mut mid = range.start;
        for at in range.clone() {
            let i = self.idx[at];
            if col[i] <= threshold {
                self.idx[mid] = i;
                mid += 1;
            } else {
                self.spill.push(i);
            }
        }
        self.idx[mid..range.end].copy_from_slice(&self.spill);
        mid
    }
}

/// The lowest-SSE threshold over a sorted `(x, y)` run, if it has any cut
/// that leaves `MIN_LEAF` samples on both sides.
fn best_cut(pairs: &[(f64, f64)]) -> Option<(f64, f64)> {
    let n = pairs.len();
    // Cut points lie between distinct adjacent values; a first pass
    // counts them and sums y and y^2 over the whole run.
    let is_cut = |k: usize| k >= MIN_LEAF && k + MIN_LEAF <= n && pairs[k - 1].0 < pairs[k].0;
    let (mut cuts, mut total_s, mut total_q) = (0, 0.0, 0.0);
    for (k, &(_, y)) in pairs.iter().enumerate() {
        cuts += usize::from(is_cut(k));
        total_s += y;
        total_q += y * y;
    }
    if cuts == 0 {
        return None;
    }
    let sse = |m: usize, s: f64, q: f64| q - s * s / m as f64;

    // The second pass carries the running sums to every stride-th cut,
    // where the SSE of both sides is O(1).
    let stride = cuts.div_ceil(MAX_THRESHOLDS);
    let (mut s, mut q, mut seen) = (0.0, 0.0, 0);
    let mut best: Option<(f64, f64)> = None;
    for (k, &(x, y)) in pairs.iter().enumerate() {
        if is_cut(k) {
            if seen % stride == 0 {
                let total = sse(k, s, q) + sse(n - k, total_s - s, total_q - q);
                let threshold = (pairs[k - 1].0 + x) / 2.0;
                if best.map(|(b, _)| total < b).unwrap_or(true) {
                    best = Some((total, threshold));
                }
            }
            seen += 1;
        }
        s += y;
        q += y * y;
    }
    best
}

/// Ridge regression on the features most correlated with the target.
#[derive(Clone, Debug)]
struct LinearModel {
    /// (feature index, centred-feature weight) pairs.
    weights: Vec<(usize, f64)>,
    /// Per-selected-feature training means, parallel to `weights`.
    feature_means: Vec<f64>,
    /// Target training mean (the intercept).
    y_mean: f64,
}

impl LinearModel {
    /// Fit on the column-major history `cols[f][i]`, summing every term
    /// in observation order.
    fn fit(cols: &[Vec<f64>], ys: &[f64]) -> Option<LinearModel> {
        let n = ys.len();
        if n < 2 {
            return None;
        }
        let nf = n as f64;
        let y_mean = ys.iter().sum::<f64>() / nf;
        let means: Vec<f64> = cols
            .iter()
            .map(|col| col.iter().sum::<f64>() / nf)
            .collect();
        // Sum of (col_a - mean_a) * (col_b - mean_b) over the observations.
        let centred_dot = |a: &[f64], ma: f64, b: &[f64], mb: f64| {
            a.iter()
                .zip(b)
                .map(|(&u, &v)| (u - ma) * (v - mb))
                .sum::<f64>()
        };

        // Rank features by |covariance with y|; ties break on index so
        // the selection is deterministic.
        let mut ranked: Vec<(usize, f64)> = cols
            .iter()
            .zip(&means)
            .enumerate()
            .map(|(j, (col, &m))| (j, (centred_dot(col, m, ys, y_mean) / nf).abs()))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let picked: Vec<usize> = ranked
            .iter()
            .take(LINEAR_TOP_K)
            .filter(|(_, c)| *c > 0.0)
            .map(|&(j, _)| j)
            .collect();
        if picked.is_empty() {
            return None;
        }

        // Normal equations on centred data: (X'X + ridge I) w = X'y.
        let k = picked.len();
        let mut a = vec![vec![0.0; k + 1]; k];
        for (r, &jr) in picked.iter().enumerate() {
            for (c, &jc) in picked.iter().enumerate() {
                a[r][c] = centred_dot(&cols[jr], means[jr], &cols[jc], means[jc]);
            }
            a[r][r] += RIDGE * nf;
            a[r][k] = centred_dot(&cols[jr], means[jr], ys, y_mean);
        }
        let w = solve(&mut a)?;
        Some(LinearModel {
            feature_means: picked.iter().map(|&j| means[j]).collect(),
            weights: picked.into_iter().zip(w).collect(),
            y_mean,
        })
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.y_mean
            + self
                .weights
                .iter()
                .zip(&self.feature_means)
                .map(|(&(j, w), &m)| w * (x.get(j).copied().unwrap_or(m) - m))
                .sum::<f64>()
    }
}

/// Gaussian elimination with partial pivoting on an augmented `k x (k+1)`
/// system. Returns `None` for a (numerically) singular matrix.
fn solve(a: &mut [Vec<f64>]) -> Option<Vec<f64>> {
    let k = a.len();
    for col in 0..k {
        let pivot = (col..k).max_by(|&r, &s| a[r][col].abs().total_cmp(&a[s][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        let (above, rest) = a.split_at_mut(col);
        let (pivot_row, below) = rest.split_first_mut().expect("col < k");
        for row_vals in above.iter_mut().chain(below) {
            let f = row_vals[col] / pivot_row[col];
            for (v, p) in row_vals[col..].iter_mut().zip(&pivot_row[col..]) {
                *v -= f * p;
            }
        }
    }
    Some((0..k).map(|r| a[r][k] / a[r][r]).collect())
}

/// The reference grower: row-major history, and every feature try at
/// every node sorts the node's `(x, y)` pairs afresh. The presorted
/// [`Grower`] must grow these trees node for node.
#[cfg(test)]
impl Tree {
    /// Grow a tree on a bootstrap sample drawn from `rng`.
    fn grow(xs: &[Vec<f64>], ys: &[f64], rng: &mut impl Rng) -> Tree {
        let n = xs.len();
        let sample: Vec<usize> = (0..n).map(|_| rng.next_below(n as u64) as usize).collect();
        let mut tree = Tree { nodes: Vec::new() };
        tree.grow_node(xs, ys, sample, 0, rng);
        tree
    }

    /// Build the subtree over `idx`, returning its node index.
    fn grow_node(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        idx: Vec<usize>,
        depth: usize,
        rng: &mut impl Rng,
    ) -> usize {
        let mean = idx.iter().map(|&i| ys[i]).sum::<f64>() / idx.len() as f64;
        let spread = idx
            .iter()
            .map(|&i| (ys[i] - mean) * (ys[i] - mean))
            .sum::<f64>();
        if depth >= MAX_DEPTH || idx.len() < 2 * MIN_LEAF || spread <= f64::EPSILON {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        }

        let dim = xs[0].len();
        let tries = ((dim as f64).sqrt().ceil() as usize).max(1);
        let mut best: Option<(f64, usize, f64)> = None; // (sse, feature, threshold)
        for _ in 0..tries {
            let feature = rng.next_below(dim as u64) as usize;
            if let Some((sse, threshold)) = best_split(xs, ys, &idx, feature) {
                if best.map(|(b, _, _)| sse < b).unwrap_or(true) {
                    best = Some((sse, feature, threshold));
                }
            }
        }
        let Some((_, feature, threshold)) = best else {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        };

        let (lo, hi): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| xs[i][feature] <= threshold);
        if lo.len() < MIN_LEAF || hi.len() < MIN_LEAF {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        }

        // Reserve this node's slot before recursing so the arena index
        // is stable.
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean });
        let left = self.grow_node(xs, ys, lo, depth + 1, rng);
        let right = self.grow_node(xs, ys, hi, depth + 1, rng);
        self.nodes[slot] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }
}

/// The reference split search: the lowest-SSE threshold for one feature
/// over `idx`, if it has any split that leaves `MIN_LEAF` samples on both
/// sides.
#[cfg(test)]
fn best_split(xs: &[Vec<f64>], ys: &[f64], idx: &[usize], feature: usize) -> Option<(f64, f64)> {
    let mut pairs: Vec<(f64, f64)> = idx.iter().map(|&i| (xs[i][feature], ys[i])).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let n = pairs.len();

    // Prefix sums of y and y^2 allow O(1) SSE at every cut point.
    let mut sum = vec![0.0; n + 1];
    let mut sq = vec![0.0; n + 1];
    for (i, &(_, y)) in pairs.iter().enumerate() {
        sum[i + 1] = sum[i] + y;
        sq[i + 1] = sq[i] + y * y;
    }
    let sse = |a: usize, b: usize| -> f64 {
        let m = (b - a) as f64;
        let s = sum[b] - sum[a];
        (sq[b] - sq[a]) - s * s / m
    };

    // Cut points between distinct adjacent values, thinned to a cap.
    let cuts: Vec<usize> = (MIN_LEAF..=n - MIN_LEAF)
        .filter(|&k| pairs[k - 1].0 < pairs[k].0)
        .collect();
    if cuts.is_empty() {
        return None;
    }
    let stride = cuts.len().div_ceil(MAX_THRESHOLDS);
    let mut best: Option<(f64, f64)> = None;
    for &k in cuts.iter().step_by(stride) {
        let total = sse(0, k) + sse(k, n);
        let threshold = (pairs[k - 1].0 + pairs[k].0) / 2.0;
        if best.map(|(b, _)| total < b).unwrap_or(true) {
            best = Some((total, threshold));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 3*x0 - 2*x1 + small deterministic wiggle.
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..5).map(|_| rng.next_f64()).collect())
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 3.0 * x[0] - 2.0 * x[1] + 0.01 * (x[2] - 0.5))
            .collect();
        (xs, ys)
    }

    #[test]
    fn fit_is_deterministic_for_a_seed() {
        let (xs, ys) = toy_data(64);
        let build = || {
            let mut s = Surrogate::new(7);
            for (x, &y) in xs.iter().zip(&ys) {
                s.observe(x.clone(), y);
            }
            s.fit();
            s
        };
        let a = build();
        let b = build();
        let probe = vec![0.3, 0.7, 0.5, 0.1, 0.9];
        assert_eq!(a.predict(&probe), b.predict(&probe));
    }

    #[test]
    fn refit_only_when_new_data_arrives() {
        let (xs, ys) = toy_data(32);
        let mut s = Surrogate::new(1);
        for (x, &y) in xs.iter().zip(&ys) {
            s.observe(x.clone(), y);
        }
        assert!(s.fit().refit);
        assert!(!s.fit().refit);
        s.observe(vec![0.5; 5], 1.0);
        assert!(s.fit().refit);
        assert_eq!(s.fits(), 2);
    }

    #[test]
    fn surrogate_learns_the_gradient_direction() {
        let (xs, ys) = toy_data(200);
        let mut s = Surrogate::new(3);
        for (x, &y) in xs.iter().zip(&ys) {
            s.observe(x.clone(), y);
        }
        s.fit();
        // Low x0 / high x1 should predict a clearly lower y than the
        // opposite corner.
        let fast = s.predict(&[0.1, 0.9, 0.5, 0.5, 0.5]);
        let slow = s.predict(&[0.9, 0.1, 0.5, 0.5, 0.5]);
        assert!(fast.mean < slow.mean, "{} !< {}", fast.mean, slow.mean);
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut s = Surrogate::new(0);
        s.observe(vec![0.0], f64::NAN);
        s.observe(vec![0.0], f64::INFINITY);
        assert_eq!(s.samples(), 0);
        assert!(!s.ready(1));
    }

    #[test]
    #[should_panic(expected = "observation has 3 features; earlier ones have 2")]
    fn observations_of_another_length_are_rejected() {
        let mut s = Surrogate::new(0);
        s.observe(vec![0.1, 0.2], 1.0);
        s.observe(vec![0.1, 0.2, 0.3], 1.0);
    }

    #[test]
    fn identical_inputs_make_pure_leaves() {
        let mut s = Surrogate::new(5);
        for _ in 0..20 {
            s.observe(vec![0.5, 0.5], 2.0);
        }
        s.fit();
        let p = s.predict(&[0.5, 0.5]);
        assert!((p.mean - 2.0).abs() < 1e-9);
        assert!(p.std < 1e-9);
    }

    /// A tree's nodes with every float as its bits.
    fn bits(tree: &Tree) -> Vec<(usize, u64, usize, usize)> {
        let node = |n: &Node| match *n {
            Node::Leaf { value } => (usize::MAX, value.to_bits(), 0, 0),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => (feature, threshold.to_bits(), left, right),
        };
        tree.nodes.iter().map(node).collect()
    }

    /// `n` rows of `dim` features whose columns are continuous, constant,
    /// binary or three-level, about a fifth of them repeats of an earlier
    /// row, with a score on a coarse grid so equal rows often score
    /// equal too.
    fn generated(rng: &mut Xoshiro256pp, n: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let kinds: Vec<u64> = (0..dim).map(|_| rng.next_below(4)).collect();
        let mut xs: Vec<Vec<f64>> = Vec::with_capacity(n);
        while xs.len() < n {
            if !xs.is_empty() && rng.next_below(5) == 0 {
                let row = xs[rng.next_below(xs.len() as u64) as usize].clone();
                xs.push(row);
                continue;
            }
            let level = |rng: &mut Xoshiro256pp, k: u64| match k {
                0 => rng.next_f64(),
                1 => 0.5,
                2 => rng.next_below(2) as f64,
                _ => rng.next_below(3) as f64 / 2.0,
            };
            xs.push(kinds.iter().map(|&k| level(rng, k)).collect());
        }
        let ys = xs
            .iter()
            .map(|x| {
                let signal = 2.0 * x[0] - x[x.len() / 2] + 0.5 * x[x.len() - 1];
                signal + rng.next_below(3) as f64 * 0.25
            })
            .collect();
        (xs, ys)
    }

    /// Fit `s`, which holds exactly `xs`/`ys`, and check it against the
    /// reference grower: sorted orders, every bag's tree node for node,
    /// and `predict` bit for bit on `probes`.
    fn check_against_reference(
        s: &mut Surrogate,
        xs: &[Vec<f64>],
        ys: &[f64],
        probes: &[Vec<f64>],
    ) {
        s.fit();
        let case = format!("n {}, dim {}", ys.len(), xs[0].len());
        for (f, order) in s.order.iter().enumerate() {
            let key = |i: u32| (xs[i as usize][f], ys[i as usize]);
            let sorted = order
                .windows(2)
                .all(|w| by_x_then_y(&key(w[0]), &key(w[1])).is_le());
            assert!(sorted, "order of feature {f} unsorted ({case})");
            let mut seen = order.clone();
            seen.sort_unstable();
            assert!(seen.iter().copied().eq(0..ys.len() as u32), "{case}");
        }
        let reference: Vec<Tree> = (0..BAGS)
            .map(|bag| Tree::grow(xs, ys, &mut bag_rng(s.seed, bag)))
            .collect();
        for (bag, (tree, want)) in s.trees.iter().zip(&reference).enumerate() {
            assert_eq!(bits(tree), bits(want), "bag {bag} ({case})");
        }
        for probe in probes {
            let mut members: Vec<f64> = reference.iter().map(|t| t.predict(probe)).collect();
            members.extend(s.linear.iter().map(|l| l.predict(probe)));
            let n = members.len() as f64;
            let mean = members.iter().sum::<f64>() / n;
            let var = members.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / n;
            let got = s.predict(probe);
            assert_eq!(got.mean.to_bits(), mean.to_bits(), "{case}");
            assert_eq!(got.std.to_bits(), var.sqrt().to_bits(), "{case}");
        }
    }

    #[test]
    fn presorted_fit_grows_the_reference_trees() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x0060_7265_736f_7274);
        // Sizes at the edges (a root leaf below 2 * MIN_LEAF, the
        // largest history), then drawn ones.
        let edges = [1, 2, 2 * MIN_LEAF - 1, 2 * MIN_LEAF, 300];
        for case in 0..40 {
            let n = edges
                .get(case)
                .copied()
                .unwrap_or_else(|| 1 + rng.next_below(300) as usize);
            let dim = 1 + rng.next_below(40) as usize;
            let (xs, ys) = generated(&mut rng, n, dim);
            let mut probes: Vec<Vec<f64>> = (0..4)
                .map(|_| (0..dim).map(|_| rng.next_f64()).collect())
                .collect();
            probes.push(xs[0].clone());
            let mut s = Surrogate::new(case as u64);
            // Fits interleaved with observations, so the later ones run
            // on orders grown by inserts after an earlier fit.
            for (i, x) in xs.iter().enumerate() {
                s.observe(x.clone(), ys[i]);
                if i + 1 == n || rng.next_below(n as u64 / 3 + 1) == 0 {
                    check_against_reference(&mut s, &xs[..=i], &ys[..=i], &probes);
                }
            }
        }
    }
}
