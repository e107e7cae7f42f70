//! CART decision trees: the building block of every tree ensemble in this
//! crate (random forest, extra-trees, AdaBoost, gradient boosting) and of the
//! SMAC surrogate model in `em-automl`.
//!
//! Supports weighted samples, gini/entropy impurity for classification and
//! MSE for regression, per-node random feature subsampling (`max_features`),
//! and the extra-trees "random threshold" splitter.

use crate::argmax;
use crate::jsonio;
use crate::matrix::Matrix;
use em_rt::Json;
use em_rt::SliceRandom;
use em_rt::StdRng;

/// Split-quality criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Gini impurity (classification).
    Gini,
    /// Shannon entropy (classification).
    Entropy,
    /// Variance reduction (regression).
    Mse,
}

/// How many features to consider at each split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxFeatures {
    /// All features (classic CART).
    All,
    /// `ceil(sqrt(d))` features (random-forest default).
    Sqrt,
    /// `ceil(log2(d))` features.
    Log2,
    /// A fraction of the features, `ceil(fraction * d)` (auto-sklearn encodes
    /// `max_features` this way — see paper Fig. 11's 0.9008...).
    Fraction(f64),
    /// An absolute count, clamped to `[1, d]`.
    Count(usize),
}

impl MaxFeatures {
    /// Resolve to a concrete feature count for dimensionality `d`.
    pub fn resolve(&self, d: usize) -> usize {
        if d == 0 {
            return 0;
        }
        let k = match *self {
            MaxFeatures::All => d,
            MaxFeatures::Sqrt => (d as f64).sqrt().ceil() as usize,
            MaxFeatures::Log2 => (d as f64).log2().ceil().max(1.0) as usize,
            MaxFeatures::Fraction(f) => ((f.clamp(0.0, 1.0)) * d as f64).ceil() as usize,
            MaxFeatures::Count(c) => c,
        };
        k.clamp(1, d)
    }
}

/// Threshold-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Splitter {
    /// Exhaustive best split per candidate feature (CART / random forest).
    Best,
    /// One uniformly random threshold per candidate feature (extra-trees).
    Random,
    /// Histogram-based best split: features are quantile-binned once per fit
    /// into u8 codes and split candidates are scanned per bin instead of per
    /// sorted sample (see `crate::binned`). When every feature has at most
    /// `n_bins` distinct values the binning is lossless and the fitted tree
    /// matches [`Splitter::Best`]; otherwise it is a (deterministic)
    /// approximation that trades threshold resolution for speed.
    Binned,
}

impl Splitter {
    /// Stable artifact name of the splitter.
    pub fn as_str(&self) -> &'static str {
        match self {
            Splitter::Best => "best",
            Splitter::Random => "random",
            Splitter::Binned => "binned",
        }
    }

    /// Inverse of [`Splitter::as_str`].
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "best" => Ok(Splitter::Best),
            "random" => Ok(Splitter::Random),
            "binned" => Ok(Splitter::Binned),
            other => Err(format!("unknown splitter {other:?}")),
        }
    }

    /// Apply the `EM_BINNED` environment override: `on`/`1`/`true` swaps
    /// [`Splitter::Best`] for [`Splitter::Binned`] at fit time,
    /// `off`/`0`/`false` swaps `Binned` back to the exact path, anything
    /// else (or unset) leaves the requested splitter alone.
    /// [`Splitter::Random`] is never overridden — extra-trees semantics are
    /// a different estimator, not an execution strategy.
    ///
    /// The override affects only which engine runs; `TreeParams` keeps (and
    /// serializes) the splitter that was requested.
    pub(crate) fn effective(self) -> Splitter {
        if self == Splitter::Random {
            return self;
        }
        match std::env::var("EM_BINNED") {
            Ok(v) => match v.as_str() {
                "on" | "1" | "true" => Splitter::Binned,
                "off" | "0" | "false" => Splitter::Best,
                _ => self,
            },
            Err(_) => self,
        }
    }
}

/// Hyperparameters of a single tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Split-quality criterion.
    pub criterion: Criterion,
    /// Maximum tree depth (`None` = unbounded).
    pub max_depth: Option<usize>,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples each child must keep.
    pub min_samples_leaf: usize,
    /// Per-split feature subsampling.
    pub max_features: MaxFeatures,
    /// Threshold-selection strategy.
    pub splitter: Splitter,
    /// Minimum impurity decrease required to accept a split.
    pub min_impurity_decrease: f64,
    /// RNG seed for feature subsampling / random thresholds.
    pub seed: u64,
    /// Maximum histogram bins per feature for [`Splitter::Binned`]
    /// (clamped to `2..=256` so codes fit in a `u8`; ignored by the other
    /// splitters).
    pub n_bins: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            criterion: Criterion::Gini,
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            splitter: Splitter::Best,
            min_impurity_decrease: 0.0,
            seed: 0,
            n_bins: 256,
        }
    }
}

/// `NodeArrays::feature` value marking a leaf.
const LEAF: u32 = u32::MAX;

/// A tree's nodes as flat parallel arrays, indexed by node id, plus one
/// contiguous array of leaf payloads. Node 0 is the root; every child index
/// is larger than its parent's (both builders lay nodes out in pre-order,
/// and `DecisionTree::from_json` rejects anything else), so a walk from the
/// root strictly increases the node id and ends at a leaf in at most
/// `len()` steps.
#[derive(Debug, Clone)]
pub(crate) struct NodeArrays {
    /// Split feature per node, or [`LEAF`].
    feature: Vec<u32>,
    /// Split threshold per node (0 at leaves). Rows with `v <= t` (or NaN)
    /// go left.
    threshold: Vec<f64>,
    /// Left child per node; at a leaf, the offset of its payload in `values`.
    left: Vec<u32>,
    /// Right child per node (0 at leaves).
    right: Vec<u32>,
    /// Leaf payloads, `width` values per leaf: the normalized class
    /// distribution, or the one regression value.
    values: Vec<f64>,
    width: usize,
}

impl NodeArrays {
    /// Empty arrays for leaves of `width` values.
    pub(crate) fn new(width: usize) -> Self {
        Self::with_capacity(width, 0, 0)
    }

    /// Empty arrays with room for `nodes` nodes and `values` payload values.
    fn with_capacity(width: usize, nodes: usize, values: usize) -> Self {
        NodeArrays {
            feature: Vec::with_capacity(nodes),
            threshold: Vec::with_capacity(nodes),
            left: Vec::with_capacity(nodes),
            right: Vec::with_capacity(nodes),
            values: Vec::with_capacity(values),
            width,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.feature.len()
    }

    pub(crate) fn width(&self) -> usize {
        self.width
    }

    fn is_leaf(&self, node: usize) -> bool {
        self.feature[node] == LEAF
    }

    /// Append a leaf holding `payload`; returns its node id.
    pub(crate) fn push_leaf(&mut self, payload: &[f64]) -> usize {
        debug_assert_eq!(payload.len(), self.width);
        let offset = u32_index(self.values.len());
        self.values.extend_from_slice(payload);
        self.push(LEAF, 0.0, offset, 0)
    }

    /// Append a split whose children are not built yet; returns its node id
    /// for [`NodeArrays::set_children`].
    pub(crate) fn push_split(&mut self, feature: usize, threshold: f64) -> usize {
        self.push(u32_index(feature), threshold, 0, 0)
    }

    pub(crate) fn set_children(&mut self, node: usize, left: usize, right: usize) {
        self.left[node] = u32_index(left);
        self.right[node] = u32_index(right);
    }

    /// Append `other`'s nodes after these, shifting its child indices and
    /// payload offsets; returns the node id `other`'s root lands on.
    pub(crate) fn append(&mut self, other: NodeArrays) -> usize {
        let (base, value_base) = (u32_index(self.len()), u32_index(self.values.len()));
        for i in 0..other.len() {
            let (l, r) = if other.is_leaf(i) {
                (other.left[i] + value_base, 0)
            } else {
                (other.left[i] + base, other.right[i] + base)
            };
            self.push(other.feature[i], other.threshold[i], l, r);
        }
        self.values.extend_from_slice(&other.values);
        base as usize
    }

    fn push(&mut self, feature: u32, threshold: f64, left: u32, right: u32) -> usize {
        let id = self.len();
        self.feature.push(feature);
        self.threshold.push(threshold);
        self.left.push(left);
        self.right.push(right);
        id
    }

    /// Leaf node id reached by `row`. NaN goes left by convention.
    #[inline]
    fn leaf_of(&self, row: &[f64]) -> usize {
        let mut node = 0usize;
        loop {
            let f = self.feature[node];
            if f == LEAF {
                return node;
            }
            let v = row[f as usize];
            node = if v <= self.threshold[node] || v.is_nan() {
                self.left[node]
            } else {
                self.right[node]
            } as usize;
        }
    }

    /// Payload of leaf `node`.
    #[inline]
    fn payload(&self, node: usize) -> &[f64] {
        let at = self.left[node] as usize;
        &self.values[at..at + self.width]
    }
}

/// A node id, feature index or payload offset as stored in [`NodeArrays`].
fn u32_index(i: usize) -> u32 {
    u32::try_from(i)
        .ok()
        .filter(|&v| v != LEAF)
        .expect("tree exceeds u32 indexing")
}

/// A fitted CART decision tree (classification or regression depending on
/// which `fit_*` constructor was used).
#[derive(Debug, Clone)]
pub struct DecisionTree {
    params: TreeParams,
    nodes: NodeArrays,
    /// Number of classes (0 for a regression tree).
    n_classes: usize,
    n_features: usize,
    /// Unnormalized mean-decrease-in-impurity per feature, accumulated at
    /// fit time (weight-of-node × impurity decrease per split).
    importances: Vec<f64>,
}

/// Values per leaf payload: one per class, or the one regression value.
fn leaf_width(n_classes: usize) -> usize {
    n_classes.max(1)
}

/// Target wrapper so classification and regression share one builder.
pub(crate) enum Target<'a> {
    Classes { y: &'a [usize], n_classes: usize },
    Values(&'a [f64]),
}

impl DecisionTree {
    /// Fit a classification tree.
    ///
    /// `y` holds class indices in `0..n_classes`; `sample_weight` defaults to
    /// uniform weights. NaN feature values are rejected: run an imputer first.
    ///
    /// # Panics
    /// On shape mismatches, NaN features, or an MSE criterion.
    pub fn fit_classifier(
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        sample_weight: Option<&[f64]>,
        params: TreeParams,
    ) -> Self {
        assert_ne!(
            params.criterion,
            Criterion::Mse,
            "use fit_regressor for MSE"
        );
        assert_eq!(x.nrows(), y.len(), "X/y length mismatch");
        assert!(!x.has_nan(), "NaN features: impute before fitting trees");
        assert!(y.iter().all(|&c| c < n_classes), "label out of range");
        Self::fit_inner(
            x,
            Target::Classes { y, n_classes },
            sample_weight,
            params,
            None,
        )
    }

    /// [`DecisionTree::fit_classifier`] with a pre-computed binning of `x`
    /// (ignored unless the binned engine runs). Ensembles use this to pay
    /// the per-feature binning sorts once per fit instead of once per tree.
    pub(crate) fn fit_classifier_prebinned(
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        sample_weight: Option<&[f64]>,
        params: TreeParams,
        prebinned: Option<crate::binned::BinnedMatrix>,
    ) -> Self {
        assert_ne!(
            params.criterion,
            Criterion::Mse,
            "use fit_regressor for MSE"
        );
        assert_eq!(x.nrows(), y.len(), "X/y length mismatch");
        assert!(!x.has_nan(), "NaN features: impute before fitting trees");
        assert!(y.iter().all(|&c| c < n_classes), "label out of range");
        Self::fit_inner(
            x,
            Target::Classes { y, n_classes },
            sample_weight,
            params,
            prebinned,
        )
    }

    /// [`DecisionTree::fit_regressor`] with a pre-computed binning of `x`
    /// (ignored unless the binned engine runs).
    pub(crate) fn fit_regressor_prebinned(
        x: &Matrix,
        targets: &[f64],
        sample_weight: Option<&[f64]>,
        mut params: TreeParams,
        prebinned: Option<crate::binned::BinnedMatrix>,
    ) -> Self {
        params.criterion = Criterion::Mse;
        assert_eq!(x.nrows(), targets.len(), "X/y length mismatch");
        assert!(!x.has_nan(), "NaN features: impute before fitting trees");
        Self::fit_inner(x, Target::Values(targets), sample_weight, params, prebinned)
    }

    /// Fit a regression tree (criterion is forced to MSE).
    ///
    /// # Panics
    /// On shape mismatches or NaN features.
    pub fn fit_regressor(
        x: &Matrix,
        targets: &[f64],
        sample_weight: Option<&[f64]>,
        mut params: TreeParams,
    ) -> Self {
        params.criterion = Criterion::Mse;
        assert_eq!(x.nrows(), targets.len(), "X/y length mismatch");
        assert!(!x.has_nan(), "NaN features: impute before fitting trees");
        Self::fit_inner(x, Target::Values(targets), sample_weight, params, None)
    }

    fn fit_inner(
        x: &Matrix,
        target: Target<'_>,
        sample_weight: Option<&[f64]>,
        params: TreeParams,
        prebinned: Option<crate::binned::BinnedMatrix>,
    ) -> Self {
        let n = x.nrows();
        assert!(n > 0, "cannot fit a tree on zero samples");
        let default_w;
        let w: &[f64] = match sample_weight {
            Some(w) => {
                assert_eq!(w.len(), n, "weight length mismatch");
                w
            }
            None => {
                default_w = vec![1.0; n];
                &default_w
            }
        };
        let n_classes = match &target {
            Target::Classes { n_classes, .. } => *n_classes,
            Target::Values(_) => 0,
        };
        let mut tree = DecisionTree {
            params: params.clone(),
            nodes: NodeArrays::new(leaf_width(n_classes)),
            n_classes,
            n_features: x.ncols(),
            importances: vec![0.0; x.ncols()],
        };
        // `EM_BINNED` swaps the split engine without touching the stored
        // (and serialized) hyperparameters.
        let splitter = params.splitter.effective();
        if splitter == Splitter::Binned {
            BINNED_FITS.incr();
            let (nodes, importances) =
                crate::binned::fit_binned(x, &target, w, &tree.params, prebinned);
            tree.nodes = nodes;
            tree.importances = importances;
        } else {
            EXACT_FITS.incr();
            let mut rng = StdRng::seed_from_u64(params.seed);
            let idx: Vec<usize> = (0..n).collect();
            tree.build(x, &target, w, idx, 0, &mut rng, splitter);
        }
        NODES.add(tree.nodes.len() as u64);
        tree
    }

    /// Recursively grow the tree; returns the new node's index.
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        x: &Matrix,
        target: &Target<'_>,
        w: &[f64],
        idx: Vec<usize>,
        depth: usize,
        rng: &mut StdRng,
        splitter: Splitter,
    ) -> usize {
        let (impurity, leaf_dist) = self.node_stats(target, w, &idx);
        let stop = idx.len() < self.params.min_samples_split
            || self.params.max_depth.is_some_and(|d| depth >= d)
            || impurity <= 1e-12;
        if !stop {
            if let Some((feature, threshold, gain)) =
                self.best_split(x, target, w, &idx, rng, splitter)
            {
                if gain >= self.params.min_impurity_decrease.max(1e-12) {
                    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                        idx.iter().partition(|&&i| x.get(i, feature) <= threshold);
                    if left_idx.len() >= self.params.min_samples_leaf
                        && right_idx.len() >= self.params.min_samples_leaf
                    {
                        // Mean-decrease-in-impurity accounting: gains are
                        // weighted by the node's sample mass, matching
                        // sklearn's `feature_importances_`.
                        let node_w: f64 = idx.iter().map(|&i| w[i]).sum();
                        self.importances[feature] += node_w * gain;
                        // Pre-order: the split precedes both subtrees.
                        let my = self.nodes.push_split(feature, threshold);
                        let left = self.build(x, target, w, left_idx, depth + 1, rng, splitter);
                        let right = self.build(x, target, w, right_idx, depth + 1, rng, splitter);
                        self.nodes.set_children(my, left, right);
                        return my;
                    }
                }
            }
        }
        self.nodes.push_leaf(&leaf_dist)
    }

    /// Impurity and leaf payload for a node's sample set.
    fn node_stats(&self, target: &Target<'_>, w: &[f64], idx: &[usize]) -> (f64, Vec<f64>) {
        node_stats(target, w, idx, self.params.criterion)
    }

    /// Search candidate features for the best split.
    /// Returns `(feature, threshold, weighted impurity decrease)`.
    fn best_split(
        &self,
        x: &Matrix,
        target: &Target<'_>,
        w: &[f64],
        idx: &[usize],
        rng: &mut StdRng,
        splitter: Splitter,
    ) -> Option<(usize, f64, f64)> {
        let d = x.ncols();
        let k = self.params.max_features.resolve(d);
        let mut features: Vec<usize> = (0..d).collect();
        if k < d {
            features.shuffle(rng);
            features.truncate(k);
        }
        let (parent_imp, _) = self.node_stats(target, w, idx);
        let total_w: f64 = idx.iter().map(|&i| w[i]).sum();
        if total_w <= 0.0 {
            return None;
        }
        let mut best: Option<(usize, f64, f64)> = None;
        for &f in &features {
            let candidate = match splitter {
                Splitter::Best | Splitter::Binned => exact_best_threshold(
                    x,
                    target,
                    w,
                    idx,
                    f,
                    parent_imp,
                    total_w,
                    self.params.min_samples_leaf,
                    self.params.criterion,
                ),
                Splitter::Random => {
                    self.random_threshold_for(x, target, w, idx, f, parent_imp, total_w, rng)
                }
            };
            if let Some((threshold, gain)) = candidate {
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f, threshold, gain));
                }
            }
        }
        best
    }

    /// Extra-trees: a single uniform threshold in the node's value range.
    /// One fused pass accumulates both children's statistics — no partition
    /// vectors, no second sweep — with the identical accumulation order (and
    /// therefore bit-identical gains) as partitioning followed by
    /// [`node_stats`].
    #[allow(clippy::too_many_arguments)]
    fn random_threshold_for(
        &self,
        x: &Matrix,
        target: &Target<'_>,
        w: &[f64],
        idx: &[usize],
        f: usize,
        parent_imp: f64,
        total_w: f64,
        rng: &mut StdRng,
    ) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &i in idx {
            let v = x.get(i, f);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if hi <= lo {
            return None;
        }
        let threshold = rng.random_range(lo..hi);
        let min_leaf = self.params.min_samples_leaf;
        match target {
            Target::Classes { y, n_classes } => {
                let mut left_counts = vec![0.0f64; *n_classes];
                let mut right_counts = vec![0.0f64; *n_classes];
                let (mut lw, mut rw) = (0.0f64, 0.0f64);
                let (mut n_left, mut n_right) = (0usize, 0usize);
                for &i in idx {
                    if x.get(i, f) <= threshold {
                        left_counts[y[i]] += w[i];
                        lw += w[i];
                        n_left += 1;
                    } else {
                        right_counts[y[i]] += w[i];
                        rw += w[i];
                        n_right += 1;
                    }
                }
                if n_left < min_leaf || n_right < min_leaf {
                    return None;
                }
                let left_total: f64 = left_counts.iter().sum();
                let right_total: f64 = right_counts.iter().sum();
                let imp_l = impurity_from_counts(&left_counts, left_total, self.params.criterion);
                let imp_r = impurity_from_counts(&right_counts, right_total, self.params.criterion);
                let gain = parent_imp - (lw * imp_l + rw * imp_r) / total_w;
                Some((threshold, gain))
            }
            Target::Values(t) => {
                let (mut lw, mut lsum, mut lsq) = (0.0f64, 0.0f64, 0.0f64);
                let (mut rw, mut rsum, mut rsq) = (0.0f64, 0.0f64, 0.0f64);
                let (mut n_left, mut n_right) = (0usize, 0usize);
                for &i in idx {
                    if x.get(i, f) <= threshold {
                        lw += w[i];
                        lsum += w[i] * t[i];
                        lsq += w[i] * t[i] * t[i];
                        n_left += 1;
                    } else {
                        rw += w[i];
                        rsum += w[i] * t[i];
                        rsq += w[i] * t[i] * t[i];
                        n_right += 1;
                    }
                }
                if n_left < min_leaf || n_right < min_leaf {
                    return None;
                }
                let imp_l = variance_from_sums(lw, lsum, lsq);
                let imp_r = variance_from_sums(rw, rsum, rsq);
                let gain = parent_imp - (lw * imp_l + rw * imp_r) / total_w;
                Some((threshold, gain))
            }
        }
    }

    /// Leaf index reached by sample `row` (used by gradient boosting).
    pub fn apply(&self, row: &[f64]) -> usize {
        self.nodes.leaf_of(row)
    }

    /// Class-probability distribution for one sample (classification only).
    pub fn predict_proba_row(&self, row: &[f64]) -> &[f64] {
        self.nodes.payload(self.nodes.leaf_of(row))
    }

    /// Walk every row of `x` through the tree, in row order, and hand `f`
    /// the row index and the payload of the leaf it reaches (the class
    /// distribution, or the one regression value). Ensembles call this tree
    /// by tree, so one tree's arrays stay hot across the whole batch.
    #[inline]
    pub(crate) fn for_each_leaf(&self, x: &Matrix, mut f: impl FnMut(usize, &[f64])) {
        for (r, row) in x.rows_iter().enumerate() {
            f(r, self.nodes.payload(self.nodes.leaf_of(row)));
        }
    }

    /// Class-probability matrix (n × n_classes).
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        assert!(self.n_classes > 0, "regression tree has no probabilities");
        let mut out = Matrix::zeros(x.nrows(), self.n_classes);
        self.for_each_leaf(x, |r, dist| out.row_mut(r).copy_from_slice(dist));
        out
    }

    /// Hard class predictions (classification only).
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        assert!(self.n_classes > 0, "regression tree has no classes");
        let mut out = vec![0; x.nrows()];
        self.for_each_leaf(x, |r, dist| out[r] = argmax(dist));
        out
    }

    /// Regression predictions (regression trees only).
    pub fn predict_values(&self, x: &Matrix) -> Vec<f64> {
        assert_eq!(self.n_classes, 0, "classification tree has no values");
        let mut out = vec![0.0; x.nrows()];
        self.for_each_leaf(x, |r, v| out[r] = v[0]);
        out
    }

    /// Overwrite the value of leaf `leaf` of a regression tree (gradient
    /// boosting's Newton step).
    pub fn set_leaf_value(&mut self, leaf: usize, value: f64) {
        assert_eq!(self.n_classes, 0, "only regression leaves hold one value");
        assert!(self.nodes.is_leaf(leaf), "node {leaf} is not a leaf");
        let at = self.nodes.left[leaf] as usize;
        self.nodes.values[at] = value;
    }

    /// Total node count (diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves (diagnostics).
    pub fn n_leaves(&self) -> usize {
        self.nodes.feature.iter().filter(|&&f| f == LEAF).count()
    }

    /// Bytes the node and leaf arrays occupy (diagnostics).
    pub fn node_bytes(&self) -> usize {
        let n = &self.nodes;
        n.feature.len() * 4
            + n.threshold.len() * 8
            + n.left.len() * 4
            + n.right.len() * 4
            + n.values.len() * 8
    }

    /// Depth of the fitted tree.
    pub fn depth(&self) -> usize {
        // Children follow their parent, so one backward pass sees both
        // children's depths before the parent's.
        let n = &self.nodes;
        let mut depth = vec![0usize; n.len()];
        for i in (0..n.len()).rev() {
            if !n.is_leaf(i) {
                depth[i] = 1 + depth[n.left[i] as usize].max(depth[n.right[i] as usize]);
            }
        }
        depth[0]
    }

    /// The number of features the tree was trained with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Mean-decrease-in-impurity feature importances, normalized to sum to
    /// 1 (all-zero for a tree that never split).
    pub fn feature_importances(&self) -> Vec<f64> {
        let total: f64 = self.importances.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.n_features];
        }
        self.importances.iter().map(|v| v / total).collect()
    }
}

impl Criterion {
    /// Stable artifact name of the criterion.
    pub fn as_str(&self) -> &'static str {
        match self {
            Criterion::Gini => "gini",
            Criterion::Entropy => "entropy",
            Criterion::Mse => "mse",
        }
    }

    /// Inverse of [`Criterion::as_str`].
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "gini" => Ok(Criterion::Gini),
            "entropy" => Ok(Criterion::Entropy),
            "mse" => Ok(Criterion::Mse),
            other => Err(format!("unknown criterion {other:?}")),
        }
    }
}

impl MaxFeatures {
    /// Serialize to the artifact encoding (a tag string, or `{fraction}` /
    /// `{count}` objects for the parameterized variants).
    pub fn to_json(&self) -> Json {
        match *self {
            MaxFeatures::All => Json::from("all"),
            MaxFeatures::Sqrt => Json::from("sqrt"),
            MaxFeatures::Log2 => Json::from("log2"),
            MaxFeatures::Fraction(f) => Json::obj([("fraction", jsonio::num(f))]),
            MaxFeatures::Count(c) => Json::obj([("count", Json::from(c))]),
        }
    }

    /// Inverse of [`MaxFeatures::to_json`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        if let Some(s) = j.as_str() {
            return match s {
                "all" => Ok(MaxFeatures::All),
                "sqrt" => Ok(MaxFeatures::Sqrt),
                "log2" => Ok(MaxFeatures::Log2),
                other => Err(format!("unknown max_features {other:?}")),
            };
        }
        if let Some(f) = j.get("fraction") {
            return Ok(MaxFeatures::Fraction(jsonio::as_f64(f)?));
        }
        if let Some(c) = j.get("count") {
            return Ok(MaxFeatures::Count(jsonio::as_usize(c)?));
        }
        Err("unknown max_features encoding".to_string())
    }
}

impl TreeParams {
    /// Serialize the hyperparameters to the artifact encoding.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("criterion", Json::from(self.criterion.as_str())),
            ("max_depth", jsonio::opt_usize(self.max_depth)),
            ("min_samples_split", Json::from(self.min_samples_split)),
            ("min_samples_leaf", Json::from(self.min_samples_leaf)),
            ("max_features", self.max_features.to_json()),
            ("splitter", Json::from(self.splitter.as_str())),
            (
                "min_impurity_decrease",
                jsonio::num(self.min_impurity_decrease),
            ),
            ("seed", jsonio::u64_str(self.seed)),
            ("n_bins", Json::from(self.n_bins)),
        ])
    }

    /// Inverse of [`TreeParams::to_json`]. `n_bins` is optional so model
    /// artifacts written before the binned splitter existed still load.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(TreeParams {
            criterion: Criterion::parse(jsonio::as_str(jsonio::field(j, "criterion")?)?)?,
            max_depth: jsonio::as_opt_usize(jsonio::field(j, "max_depth")?)?,
            min_samples_split: jsonio::as_usize(jsonio::field(j, "min_samples_split")?)?,
            min_samples_leaf: jsonio::as_usize(jsonio::field(j, "min_samples_leaf")?)?,
            max_features: MaxFeatures::from_json(jsonio::field(j, "max_features")?)?,
            splitter: Splitter::parse(jsonio::as_str(jsonio::field(j, "splitter")?)?)?,
            min_impurity_decrease: jsonio::as_f64(jsonio::field(j, "min_impurity_decrease")?)?,
            seed: jsonio::as_u64(jsonio::field(j, "seed")?)?,
            n_bins: match j.get("n_bins") {
                Some(v) => jsonio::as_usize(v)?,
                None => 256,
            },
        })
    }
}

impl DecisionTree {
    /// Serialize the fitted tree (params, node array, importances) for the
    /// model artifact. Nodes keep the artifact encoding of the original
    /// node list: `{"dist": [...]}` per leaf, `{"f", "t", "l", "r"}` per
    /// split.
    pub fn to_json(&self) -> Json {
        let n = &self.nodes;
        let nodes = (0..n.len()).map(|i| {
            if n.is_leaf(i) {
                Json::obj([("dist", jsonio::nums(n.payload(i)))])
            } else {
                Json::obj([
                    ("f", Json::from(n.feature[i] as usize)),
                    ("t", jsonio::num(n.threshold[i])),
                    ("l", Json::from(n.left[i] as usize)),
                    ("r", Json::from(n.right[i] as usize)),
                ])
            }
        });
        Json::obj([
            ("params", self.params.to_json()),
            ("n_classes", Json::from(self.n_classes)),
            ("n_features", Json::from(self.n_features)),
            ("importances", jsonio::nums(&self.importances)),
            ("nodes", Json::arr(nodes)),
        ])
    }

    /// Inverse of [`DecisionTree::to_json`]. A corrupt tree fails here
    /// rather than at predict time: every split's feature must be below
    /// `n_features` and both its children must lie after it (which also
    /// guarantees every walk ends at a leaf), and every leaf must hold
    /// `n_classes` values (one for a regression tree).
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let n_classes = jsonio::as_usize(jsonio::field(j, "n_classes")?)?;
        let n_features = jsonio::as_usize(jsonio::field(j, "n_features")?)?;
        let list = jsonio::field(j, "nodes")?
            .as_arr()
            .ok_or_else(|| "nodes must be an array".to_string())?;
        if list.is_empty() {
            return Err("tree has no nodes".to_string());
        }
        // Exact-size arrays: a loaded forest is held for the life of the
        // process, so it carries no growth slack. Capacities come from the
        // document's own lengths, never from its `n_classes`.
        let n_values = list
            .iter()
            .filter_map(|n| n.get("dist").and_then(Json::as_arr))
            .map(<[Json]>::len)
            .sum();
        let mut nodes = NodeArrays::with_capacity(leaf_width(n_classes), list.len(), n_values);
        for (i, node) in list.iter().enumerate() {
            if let Some(dist) = node.get("dist") {
                let dist = jsonio::f64_vec(dist)?;
                if dist.len() != nodes.width {
                    return Err(format!(
                        "tree leaf {i} holds {} values, expected {}",
                        dist.len(),
                        nodes.width
                    ));
                }
                nodes.push_leaf(&dist);
                continue;
            }
            let feature = jsonio::as_usize(jsonio::field(node, "f")?)?;
            let threshold = jsonio::as_f64(jsonio::field(node, "t")?)?;
            let left = jsonio::as_usize(jsonio::field(node, "l")?)?;
            let right = jsonio::as_usize(jsonio::field(node, "r")?)?;
            if feature >= n_features || feature >= LEAF as usize {
                return Err(format!(
                    "tree node {i} splits on feature {feature} of {n_features}"
                ));
            }
            if left <= i || right <= i || left >= list.len() || right >= list.len() {
                return Err(format!(
                    "tree node {i} has children {left}/{right}: each must lie after it and \
                     within the {} nodes",
                    list.len()
                ));
            }
            nodes.push_split(feature, threshold);
            nodes.set_children(i, left, right);
        }
        Ok(DecisionTree {
            params: TreeParams::from_json(jsonio::field(j, "params")?)?,
            nodes,
            n_classes,
            n_features,
            importances: jsonio::f64_vec(jsonio::field(j, "importances")?)?,
        })
    }
}

/// Fit-path counters (no-ops unless `em-obs` tracing is active).
static EXACT_FITS: em_obs::Counter = em_obs::Counter::new("tree.exact_fits");
static BINNED_FITS: em_obs::Counter = em_obs::Counter::new("tree.binned_fits");
static NODES: em_obs::Counter = em_obs::Counter::new("tree.nodes");

/// Impurity and leaf payload for a sample set (free-function form shared by
/// the exact builder and the binned engine in `crate::binned`).
pub(crate) fn node_stats(
    target: &Target<'_>,
    w: &[f64],
    idx: &[usize],
    criterion: Criterion,
) -> (f64, Vec<f64>) {
    match target {
        Target::Classes { y, n_classes } => {
            let mut counts = vec![0.0f64; *n_classes];
            for &i in idx {
                counts[y[i]] += w[i];
            }
            let total: f64 = counts.iter().sum();
            let imp = impurity_from_counts(&counts, total, criterion);
            let dist = if total > 0.0 {
                counts.iter().map(|c| c / total).collect()
            } else {
                vec![1.0 / *n_classes as f64; *n_classes]
            };
            (imp, dist)
        }
        Target::Values(t) => {
            let mut sw = 0.0;
            let mut sum = 0.0;
            let mut sum_sq = 0.0;
            for &i in idx {
                sw += w[i];
                sum += w[i] * t[i];
                sum_sq += w[i] * t[i] * t[i];
            }
            let mean = if sw > 0.0 { sum / sw } else { 0.0 };
            let var = if sw > 0.0 {
                (sum_sq / sw - mean * mean).max(0.0)
            } else {
                0.0
            };
            (var, vec![mean])
        }
    }
}

/// Exhaustive scan over sorted values of feature `f` — the CART inner loop.
/// Free-function form so the binned engine can fall back to it verbatim for
/// small nodes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exact_best_threshold(
    x: &Matrix,
    target: &Target<'_>,
    w: &[f64],
    idx: &[usize],
    f: usize,
    parent_imp: f64,
    total_w: f64,
    min_leaf: usize,
    criterion: Criterion,
) -> Option<(f64, f64)> {
    let mut order: Vec<usize> = idx.to_vec();
    order.sort_by(|&a, &b| x.get(a, f).partial_cmp(&x.get(b, f)).expect("NaN feature"));
    let n = order.len();
    match target {
        Target::Classes { y, n_classes } => {
            let mut left_counts = vec![0.0f64; *n_classes];
            let mut right_counts = vec![0.0f64; *n_classes];
            for &i in &order {
                right_counts[y[i]] += w[i];
            }
            let mut left_w = 0.0;
            let mut best: Option<(f64, f64)> = None;
            for pos in 0..n - 1 {
                let i = order[pos];
                left_counts[y[i]] += w[i];
                right_counts[y[i]] -= w[i];
                left_w += w[i];
                let v_here = x.get(i, f);
                let v_next = x.get(order[pos + 1], f);
                if v_here == v_next {
                    continue;
                }
                if pos + 1 < min_leaf || n - pos - 1 < min_leaf {
                    continue;
                }
                let right_w = total_w - left_w;
                let imp_l = impurity_from_counts(&left_counts, left_w, criterion);
                let imp_r = impurity_from_counts(&right_counts, right_w, criterion);
                let gain = parent_imp - (left_w * imp_l + right_w * imp_r) / total_w;
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((midpoint(v_here, v_next), gain));
                }
            }
            best
        }
        Target::Values(t) => {
            let mut left_w = 0.0;
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let (mut right_w, mut right_sum, mut right_sq) = (0.0, 0.0, 0.0);
            for &i in &order {
                right_w += w[i];
                right_sum += w[i] * t[i];
                right_sq += w[i] * t[i] * t[i];
            }
            let mut best: Option<(f64, f64)> = None;
            for pos in 0..n - 1 {
                let i = order[pos];
                left_w += w[i];
                left_sum += w[i] * t[i];
                left_sq += w[i] * t[i] * t[i];
                right_w -= w[i];
                right_sum -= w[i] * t[i];
                right_sq -= w[i] * t[i] * t[i];
                let v_here = x.get(i, f);
                let v_next = x.get(order[pos + 1], f);
                if v_here == v_next {
                    continue;
                }
                if pos + 1 < min_leaf || n - pos - 1 < min_leaf {
                    continue;
                }
                let imp_l = variance_from_sums(left_w, left_sum, left_sq);
                let imp_r = variance_from_sums(right_w, right_sum, right_sq);
                let gain = parent_imp - (left_w * imp_l + right_w * imp_r) / total_w;
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((midpoint(v_here, v_next), gain));
                }
            }
            best
        }
    }
}

pub(crate) fn midpoint(a: f64, b: f64) -> f64 {
    a + (b - a) / 2.0
}

pub(crate) fn impurity_from_counts(counts: &[f64], total: f64, criterion: Criterion) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    match criterion {
        Criterion::Gini => {
            let mut s = 0.0;
            for &c in counts {
                let p = c / total;
                s += p * p;
            }
            1.0 - s
        }
        Criterion::Entropy => {
            let mut h = 0.0;
            for &c in counts {
                if c > 0.0 {
                    let p = c / total;
                    h -= p * p.log2();
                }
            }
            h
        }
        Criterion::Mse => unreachable!("MSE uses variance_from_sums"),
    }
}

pub(crate) fn variance_from_sums(w: f64, sum: f64, sum_sq: f64) -> f64 {
    if w <= 0.0 {
        return 0.0;
    }
    let mean = sum / w;
    (sum_sq / w - mean * mean).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated clusters on one feature.
    fn separable() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            rows.push(vec![i as f64 / 100.0, 0.5]);
            y.push(0);
        }
        for i in 0..20 {
            rows.push(vec![0.8 + i as f64 / 100.0, 0.5]);
            y.push(1);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn fits_separable_data_perfectly() {
        let (x, y) = separable();
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, TreeParams::default());
        assert_eq!(t.predict(&x), y);
        // Should need exactly one split.
        assert_eq!(t.n_nodes(), 3);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![1, 1, 1];
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, TreeParams::default());
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict(&x), y);
    }

    #[test]
    fn max_depth_limits_growth() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![0, 1, 0, 1]; // needs depth >= 2
        let p = TreeParams {
            max_depth: Some(1),
            ..TreeParams::default()
        };
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, p);
        assert!(t.depth() <= 1);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (x, y) = separable();
        let p = TreeParams {
            min_samples_leaf: 15,
            ..TreeParams::default()
        };
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, p);
        // 40 samples, leaves must have >= 15 each: the 20/20 split is legal.
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn weighted_samples_shift_the_split() {
        // One mislabeled point with huge weight dominates.
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![0, 0, 1, 1];
        let w = vec![1.0, 100.0, 1.0, 1.0];
        let t = DecisionTree::fit_classifier(&x, &y, 2, Some(&w), TreeParams::default());
        // Prediction at x=1 must be class 0 with high confidence.
        let p = t.predict_proba(&Matrix::from_rows(&[vec![1.0]]));
        assert!(p.get(0, 0) > 0.9);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, y) = separable();
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, TreeParams::default());
        let p = t.predict_proba(&x);
        for r in 0..p.nrows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn entropy_criterion_works() {
        let (x, y) = separable();
        let p = TreeParams {
            criterion: Criterion::Entropy,
            ..TreeParams::default()
        };
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, p);
        assert_eq!(t.predict(&x), y);
    }

    #[test]
    fn regression_tree_fits_step_function() {
        let x = Matrix::from_rows(&(0..20).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let t_vals: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let tree = DecisionTree::fit_regressor(&x, &t_vals, None, TreeParams::default());
        let pred = tree.predict_values(&x);
        for (p, t) in pred.iter().zip(&t_vals) {
            assert!((p - t).abs() < 1e-9);
        }
    }

    #[test]
    fn random_splitter_still_learns() {
        let (x, y) = separable();
        let p = TreeParams {
            splitter: Splitter::Random,
            seed: 3,
            ..TreeParams::default()
        };
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, p);
        let acc =
            t.predict(&x).iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = separable();
        let p = TreeParams {
            max_features: MaxFeatures::Count(1),
            seed: 9,
            ..TreeParams::default()
        };
        let a = DecisionTree::fit_classifier(&x, &y, 2, None, p.clone());
        let b = DecisionTree::fit_classifier(&x, &y, 2, None, p);
        assert_eq!(a.predict(&x), b.predict(&x));
        assert_eq!(a.n_nodes(), b.n_nodes());
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(9), 3);
        assert_eq!(MaxFeatures::Sqrt.resolve(10), 4);
        assert_eq!(MaxFeatures::Log2.resolve(8), 3);
        assert_eq!(MaxFeatures::Fraction(0.5).resolve(10), 5);
        assert_eq!(MaxFeatures::Fraction(0.0).resolve(10), 1);
        assert_eq!(MaxFeatures::Count(99).resolve(10), 10);
        assert_eq!(MaxFeatures::Count(0).resolve(10), 1);
    }

    #[test]
    #[should_panic(expected = "NaN features")]
    fn nan_features_rejected() {
        let x = Matrix::from_rows(&[vec![f64::NAN], vec![1.0]]);
        let _ = DecisionTree::fit_classifier(&x, &[0, 1], 2, None, TreeParams::default());
    }

    #[test]
    fn importances_identify_the_informative_feature() {
        let (x, y) = separable();
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, TreeParams::default());
        let imp = t.feature_importances();
        // Feature 0 separates the classes; feature 1 is constant.
        assert!(imp[0] > 0.99, "{imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn importances_zero_without_splits() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let t = DecisionTree::fit_classifier(&x, &[1, 1], 2, None, TreeParams::default());
        assert_eq!(t.feature_importances(), vec![0.0]);
    }

    /// A tree artifact over 2 features with the given `nodes` array.
    fn load_tree(n_classes: usize, nodes: &str) -> Result<DecisionTree, String> {
        let params = TreeParams::default().to_json().render();
        let doc = format!(
            r#"{{"params":{params},"n_classes":{n_classes},"n_features":2,"importances":[0,0],"nodes":{nodes}}}"#
        );
        DecisionTree::from_json(&Json::parse(&doc).unwrap())
    }

    /// A valid 5-node tree: root splits on feature 0, node 2 on feature 1.
    const VALID: &str = r#"[{"f":0,"t":0.5,"l":1,"r":2},{"dist":[1,0]},{"f":1,"t":0.5,"l":3,"r":4},{"dist":[0,1]},{"dist":[0.5,0.5]}]"#;

    #[test]
    fn hand_written_tree_loads_and_routes() {
        let t = load_tree(2, VALID).expect("valid tree");
        assert_eq!((t.n_nodes(), t.n_leaves(), t.depth()), (5, 3, 2));
        let x = Matrix::from_rows(&[vec![0.0, 9.0], vec![1.0, 0.0], vec![1.0, 1.0]]);
        assert_eq!(
            t.predict_proba(&x).as_slice(),
            &[1.0, 0.0, 0.0, 1.0, 0.5, 0.5]
        );
        // The tie row picks the first class.
        assert_eq!(t.predict(&x), vec![0, 1, 0]);
    }

    // Each corrupt tree below must fail at load time; none is ever walked.

    #[test]
    fn from_json_rejects_a_child_pointing_at_itself() {
        let nodes = VALID.replacen(r#""l":1"#, r#""l":0"#, 1);
        assert!(load_tree(2, &nodes).is_err());
    }

    #[test]
    fn from_json_rejects_a_child_pointing_at_an_ancestor() {
        let nodes = VALID.replacen(r#""r":4"#, r#""r":0"#, 1);
        assert!(load_tree(2, &nodes).is_err());
    }

    #[test]
    fn from_json_rejects_an_out_of_range_feature() {
        let nodes = VALID.replacen(r#""f":1"#, r#""f":2"#, 1);
        assert!(load_tree(2, &nodes).is_err());
    }

    #[test]
    fn from_json_rejects_a_leaf_of_the_wrong_width() {
        let nodes = VALID.replacen("[1,0]", "[1,0,0]", 1);
        assert!(load_tree(2, &nodes).is_err());
        // A regression tree's leaves hold exactly one value.
        assert!(load_tree(0, VALID).is_err());
        assert!(load_tree(0, r#"[{"dist":[1.5]}]"#).is_ok());
    }

    #[test]
    fn from_json_rejects_an_empty_tree() {
        assert!(load_tree(2, "[]").is_err());
    }

    #[test]
    fn min_impurity_decrease_prunes() {
        // Nearly-pure data: a split would gain almost nothing.
        let x = Matrix::from_rows(&(0..100).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let mut y = vec![0usize; 100];
        y[99] = 1;
        let p = TreeParams {
            min_impurity_decrease: 0.5,
            ..TreeParams::default()
        };
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, p);
        assert_eq!(t.n_nodes(), 1);
    }
}
