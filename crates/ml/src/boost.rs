//! Boosted tree ensembles: AdaBoost (SAMME) and binary gradient boosting
//! with logistic loss — two of the "all-model" search-space members the
//! paper's Figure 10 compares against the random-forest-only space.

use crate::jsonio;
use crate::matrix::Matrix;
use crate::tree::{Criterion, DecisionTree, MaxFeatures, Splitter, TreeParams};
use crate::{argmax, Classifier};
use em_rt::Json;

/// AdaBoost hyperparameters (sklearn `AdaBoostClassifier` with tree stumps).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaBoostParams {
    /// Number of boosting rounds.
    pub n_estimators: usize,
    /// Shrinks each estimator's contribution.
    pub learning_rate: f64,
    /// Depth of each weak learner (1 = decision stumps).
    pub max_depth: usize,
    /// Split engine for the weak learners (exact scan or binned histograms).
    pub splitter: Splitter,
    /// Bin budget per feature for [`Splitter::Binned`].
    pub n_bins: usize,
    /// RNG seed (weak learners are deterministic; kept for API symmetry).
    pub seed: u64,
}

impl Default for AdaBoostParams {
    fn default() -> Self {
        AdaBoostParams {
            n_estimators: 50,
            learning_rate: 1.0,
            max_depth: 1,
            splitter: Splitter::Best,
            n_bins: 256,
            seed: 0,
        }
    }
}

/// AdaBoost classifier using the SAMME algorithm (multi-class capable).
#[derive(Debug, Clone)]
pub struct AdaBoostClassifier {
    /// Hyperparameters.
    pub params: AdaBoostParams,
    stages: Vec<(DecisionTree, f64)>,
    n_classes: usize,
}

impl AdaBoostClassifier {
    /// Create an unfitted booster.
    pub fn new(params: AdaBoostParams) -> Self {
        AdaBoostClassifier {
            params,
            stages: Vec::new(),
            n_classes: 0,
        }
    }

    /// Number of boosting stages actually kept (early stop on perfect fit).
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }
}

impl Classifier for AdaBoostClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize, sample_weight: Option<&[f64]>) {
        let _span = em_obs::span!("adaboost.fit");
        let n = x.nrows();
        self.n_classes = n_classes;
        self.stages.clear();
        let mut w: Vec<f64> = match sample_weight {
            Some(sw) => sw.to_vec(),
            None => vec![1.0 / n as f64; n],
        };
        normalize(&mut w);
        let k = n_classes as f64;
        // Stages reweight samples but never change the rows, so one binning
        // serves every weak learner.
        let prebinned = (self.params.splitter.effective() == Splitter::Binned)
            .then(|| crate::binned::bin_matrix(x, self.params.n_bins));
        for t in 0..self.params.n_estimators {
            let tree_params = TreeParams {
                criterion: Criterion::Gini,
                max_depth: Some(self.params.max_depth),
                max_features: MaxFeatures::All,
                splitter: self.params.splitter,
                n_bins: self.params.n_bins,
                seed: self.params.seed.wrapping_add(t as u64),
                ..TreeParams::default()
            };
            let tree = DecisionTree::fit_classifier_prebinned(
                x,
                y,
                n_classes,
                Some(&w),
                tree_params,
                prebinned.clone(),
            );
            let pred = tree.predict(x);
            let err: f64 = pred
                .iter()
                .zip(y)
                .zip(&w)
                .filter(|((p, t), _)| p != t)
                .map(|(_, &wi)| wi)
                .sum();
            if err <= 1e-12 {
                // Perfect weak learner: give it a large, finite say and stop.
                self.stages.push((tree, 10.0));
                break;
            }
            if err >= 1.0 - 1.0 / k {
                // Worse than chance: SAMME cannot use it.
                if self.stages.is_empty() {
                    self.stages.push((tree, 1.0));
                }
                break;
            }
            let alpha = self.params.learning_rate * (((1.0 - err) / err).ln() + (k - 1.0).ln());
            for ((p, t), wi) in pred.iter().zip(y).zip(w.iter_mut()) {
                if p != t {
                    *wi *= alpha.exp();
                }
            }
            normalize(&mut w);
            self.stages.push((tree, alpha));
        }
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        assert!(!self.stages.is_empty(), "fit before predicting");
        let mut scores = Matrix::zeros(x.nrows(), self.n_classes);
        for (tree, alpha) in &self.stages {
            tree.for_each_leaf(x, |r, dist| {
                let c = argmax(dist);
                scores.set(r, c, scores.get(r, c) + alpha);
            });
        }
        // Softmax over the (scaled) vote scores for a probability-like output.
        let mut out = Matrix::zeros(x.nrows(), self.n_classes);
        let total: f64 = self.stages.iter().map(|(_, a)| a).sum();
        for r in 0..x.nrows() {
            let mut denom = 0.0;
            let row: Vec<f64> = (0..self.n_classes)
                .map(|c| (scores.get(r, c) / total.max(1e-12)).exp())
                .collect();
            for &v in &row {
                denom += v;
            }
            for (c, &v) in row.iter().enumerate() {
                out.set(r, c, v / denom);
            }
        }
        out
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn save_json(&self) -> Json {
        self.to_json()
    }
}

impl AdaBoostParams {
    /// Serialize the hyperparameters to the artifact encoding.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n_estimators", Json::from(self.n_estimators)),
            ("learning_rate", jsonio::num(self.learning_rate)),
            ("max_depth", Json::from(self.max_depth)),
            ("splitter", Json::from(self.splitter.as_str())),
            ("n_bins", Json::from(self.n_bins)),
            ("seed", jsonio::u64_str(self.seed)),
        ])
    }

    /// Inverse of [`AdaBoostParams::to_json`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(AdaBoostParams {
            n_estimators: jsonio::as_usize(jsonio::field(j, "n_estimators")?)?,
            learning_rate: jsonio::as_f64(jsonio::field(j, "learning_rate")?)?,
            max_depth: jsonio::as_usize(jsonio::field(j, "max_depth")?)?,
            // Absent in pre-binned artifacts; default to the exact engine.
            splitter: match j.get("splitter") {
                Some(v) => Splitter::parse(jsonio::as_str(v)?)?,
                None => Splitter::Best,
            },
            n_bins: match j.get("n_bins") {
                Some(v) => jsonio::as_usize(v)?,
                None => 256,
            },
            seed: jsonio::as_u64(jsonio::field(j, "seed")?)?,
        })
    }
}

impl AdaBoostClassifier {
    /// Serialize the fitted booster (stage trees + stage weights) for the
    /// model artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("params", self.params.to_json()),
            ("n_classes", Json::from(self.n_classes)),
            (
                "stages",
                Json::arr(self.stages.iter().map(|(tree, alpha)| {
                    Json::obj([("alpha", jsonio::num(*alpha)), ("tree", tree.to_json())])
                })),
            ),
        ])
    }

    /// Inverse of [`AdaBoostClassifier::to_json`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let stages = jsonio::field(j, "stages")?
            .as_arr()
            .ok_or_else(|| "stages must be an array".to_string())?
            .iter()
            .map(|s| {
                Ok((
                    DecisionTree::from_json(jsonio::field(s, "tree")?)?,
                    jsonio::as_f64(jsonio::field(s, "alpha")?)?,
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(AdaBoostClassifier {
            params: AdaBoostParams::from_json(jsonio::field(j, "params")?)?,
            stages,
            n_classes: jsonio::as_usize(jsonio::field(j, "n_classes")?)?,
        })
    }
}

fn normalize(w: &mut [f64]) {
    let s: f64 = w.iter().sum();
    if s > 0.0 {
        w.iter_mut().for_each(|x| *x /= s);
    }
}

/// Gradient-boosting hyperparameters (binary logistic loss).
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoostingParams {
    /// Number of boosting rounds.
    pub n_estimators: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Depth of each regression tree.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Row subsampling fraction per round (1.0 = none).
    pub subsample: f64,
    /// Split engine for the stage trees (exact scan or binned histograms).
    pub splitter: Splitter,
    /// Bin budget per feature for [`Splitter::Binned`].
    pub n_bins: usize,
    /// RNG seed for subsampling.
    pub seed: u64,
}

impl Default for GradientBoostingParams {
    fn default() -> Self {
        GradientBoostingParams {
            n_estimators: 100,
            learning_rate: 0.1,
            max_depth: 3,
            min_samples_leaf: 1,
            subsample: 1.0,
            splitter: Splitter::Best,
            n_bins: 256,
            seed: 0,
        }
    }
}

/// Binary gradient-boosted trees with logistic loss and per-leaf Newton
/// updates (the classic Friedman GBM).
#[derive(Debug, Clone)]
pub struct GradientBoostingClassifier {
    /// Hyperparameters.
    pub params: GradientBoostingParams,
    init_score: f64,
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl GradientBoostingClassifier {
    /// Create an unfitted booster.
    pub fn new(params: GradientBoostingParams) -> Self {
        GradientBoostingClassifier {
            params,
            init_score: 0.0,
            trees: Vec::new(),
            n_classes: 0,
        }
    }

    fn decision_function(&self, x: &Matrix) -> Vec<f64> {
        let mut f = vec![self.init_score; x.nrows()];
        for tree in &self.trees {
            tree.for_each_leaf(x, |r, v| f[r] += self.params.learning_rate * v[0]);
        }
        f
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl Classifier for GradientBoostingClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize, sample_weight: Option<&[f64]>) {
        let _span = em_obs::span!("gboost.fit");
        assert_eq!(n_classes, 2, "GradientBoostingClassifier is binary-only");
        self.n_classes = 2;
        self.trees.clear();
        let n = x.nrows();
        let w: Vec<f64> = sample_weight.map_or_else(|| vec![1.0; n], <[f64]>::to_vec);
        let wsum: f64 = w.iter().sum();
        let pos: f64 = y
            .iter()
            .zip(&w)
            .filter(|(&t, _)| t == 1)
            .map(|(_, &wi)| wi)
            .sum();
        let p0 = (pos / wsum).clamp(1e-6, 1.0 - 1e-6);
        self.init_score = (p0 / (1.0 - p0)).ln();
        let mut f = vec![self.init_score; n];
        let mut rng = em_rt::StdRng::seed_from_u64(self.params.seed);
        // Stages refit on new residuals over the same rows (or a subsample
        // of them), so one binning of the base matrix serves every stage.
        let prebinned = (self.params.splitter.effective() == Splitter::Binned)
            .then(|| crate::binned::bin_matrix(x, self.params.n_bins));
        for t in 0..self.params.n_estimators {
            // Negative gradient of logistic loss: residual = y - p.
            let residual: Vec<f64> = f
                .iter()
                .zip(y)
                .map(|(&fi, &ti)| ti as f64 - sigmoid(fi))
                .collect();
            // Optional stochastic row subsampling.
            let rows: Vec<usize> = if self.params.subsample < 1.0 {
                (0..n)
                    .filter(|_| rng.random_range(0.0..1.0) < self.params.subsample)
                    .collect()
            } else {
                (0..n).collect()
            };
            if rows.len() < 2 {
                continue;
            }
            let xs = x.select_rows(&rows);
            let rs: Vec<f64> = rows.iter().map(|&i| residual[i]).collect();
            let ws: Vec<f64> = rows.iter().map(|&i| w[i]).collect();
            let tree_params = TreeParams {
                criterion: Criterion::Mse,
                max_depth: Some(self.params.max_depth),
                min_samples_leaf: self.params.min_samples_leaf,
                max_features: MaxFeatures::All,
                splitter: self.params.splitter,
                n_bins: self.params.n_bins,
                seed: self.params.seed.wrapping_add(t as u64),
                ..TreeParams::default()
            };
            let pb = prebinned.as_ref().map(|b| b.gather(&rows));
            let mut tree =
                DecisionTree::fit_regressor_prebinned(&xs, &rs, Some(&ws), tree_params, pb);
            // Newton step per leaf: gamma = sum(res) / sum(p (1 - p)).
            let mut leaf_num: std::collections::HashMap<usize, f64> =
                std::collections::HashMap::new();
            let mut leaf_den: std::collections::HashMap<usize, f64> =
                std::collections::HashMap::new();
            for (local, &i) in rows.iter().enumerate() {
                let leaf = tree.apply(xs.row(local));
                let p = sigmoid(f[i]);
                *leaf_num.entry(leaf).or_insert(0.0) += w[i] * residual[i];
                *leaf_den.entry(leaf).or_insert(0.0) += w[i] * p * (1.0 - p);
            }
            for (&leaf, &num) in &leaf_num {
                let den = leaf_den[&leaf].max(1e-12);
                tree.set_leaf_value(leaf, num / den);
            }
            // Update scores on the full training set.
            tree.for_each_leaf(x, |r, v| f[r] += self.params.learning_rate * v[0]);
            self.trees.push(tree);
        }
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        assert!(!self.trees.is_empty(), "fit before predicting");
        let f = self.decision_function(x);
        let mut out = Matrix::zeros(x.nrows(), 2);
        for (r, &fi) in f.iter().enumerate() {
            let p = sigmoid(fi);
            out.set(r, 0, 1.0 - p);
            out.set(r, 1, p);
        }
        out
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn save_json(&self) -> Json {
        self.to_json()
    }
}

impl GradientBoostingParams {
    /// Serialize the hyperparameters to the artifact encoding.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n_estimators", Json::from(self.n_estimators)),
            ("learning_rate", jsonio::num(self.learning_rate)),
            ("max_depth", Json::from(self.max_depth)),
            ("min_samples_leaf", Json::from(self.min_samples_leaf)),
            ("subsample", jsonio::num(self.subsample)),
            ("splitter", Json::from(self.splitter.as_str())),
            ("n_bins", Json::from(self.n_bins)),
            ("seed", jsonio::u64_str(self.seed)),
        ])
    }

    /// Inverse of [`GradientBoostingParams::to_json`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(GradientBoostingParams {
            n_estimators: jsonio::as_usize(jsonio::field(j, "n_estimators")?)?,
            learning_rate: jsonio::as_f64(jsonio::field(j, "learning_rate")?)?,
            max_depth: jsonio::as_usize(jsonio::field(j, "max_depth")?)?,
            min_samples_leaf: jsonio::as_usize(jsonio::field(j, "min_samples_leaf")?)?,
            subsample: jsonio::as_f64(jsonio::field(j, "subsample")?)?,
            // Absent in pre-binned artifacts; default to the exact engine.
            splitter: match j.get("splitter") {
                Some(v) => Splitter::parse(jsonio::as_str(v)?)?,
                None => Splitter::Best,
            },
            n_bins: match j.get("n_bins") {
                Some(v) => jsonio::as_usize(v)?,
                None => 256,
            },
            seed: jsonio::as_u64(jsonio::field(j, "seed")?)?,
        })
    }
}

impl GradientBoostingClassifier {
    /// Serialize the fitted booster (init score + stage trees) for the
    /// model artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("params", self.params.to_json()),
            ("init_score", jsonio::num(self.init_score)),
            ("n_classes", Json::from(self.n_classes)),
            (
                "trees",
                Json::arr(self.trees.iter().map(DecisionTree::to_json)),
            ),
        ])
    }

    /// Inverse of [`GradientBoostingClassifier::to_json`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(GradientBoostingClassifier {
            params: GradientBoostingParams::from_json(jsonio::field(j, "params")?)?,
            init_score: jsonio::as_f64(jsonio::field(j, "init_score")?)?,
            trees: jsonio::field(j, "trees")?
                .as_arr()
                .ok_or_else(|| "trees must be an array".to_string())?
                .iter()
                .map(DecisionTree::from_json)
                .collect::<Result<_, _>>()?,
            n_classes: jsonio::as_usize(jsonio::field(j, "n_classes")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        // XOR pattern: not linearly separable, easy for boosted trees.
        let mut rng = em_rt::StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.random_range(0.0..1.0);
            let b: f64 = rng.random_range(0.0..1.0);
            rows.push(vec![a, b]);
            y.push(usize::from((a > 0.5) != (b > 0.5)));
        }
        (Matrix::from_rows(&rows), y)
    }

    fn accuracy(pred: &[usize], y: &[usize]) -> f64 {
        pred.iter().zip(y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64
    }

    #[test]
    fn adaboost_learns_xor() {
        let (x, y) = xor_data(300, 1);
        let mut ab = AdaBoostClassifier::new(AdaBoostParams {
            n_estimators: 80,
            max_depth: 2,
            ..AdaBoostParams::default()
        });
        ab.fit(&x, &y, 2, None);
        assert!(accuracy(&ab.predict(&x), &y) > 0.9);
    }

    #[test]
    fn adaboost_early_stops_on_perfect_learner() {
        // Separable data: first stump is perfect.
        let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![0.9], vec![1.0]]);
        let y = vec![0, 0, 1, 1];
        let mut ab = AdaBoostClassifier::new(AdaBoostParams::default());
        ab.fit(&x, &y, 2, None);
        assert_eq!(ab.n_stages(), 1);
        assert_eq!(ab.predict(&x), y);
    }

    #[test]
    fn adaboost_proba_rows_sum_to_one() {
        let (x, y) = xor_data(100, 2);
        let mut ab = AdaBoostClassifier::new(AdaBoostParams {
            n_estimators: 20,
            max_depth: 2,
            ..AdaBoostParams::default()
        });
        ab.fit(&x, &y, 2, None);
        let p = ab.predict_proba(&x);
        for r in 0..p.nrows() {
            assert!((p.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn gbm_learns_xor() {
        let (x, y) = xor_data(300, 3);
        let mut gb = GradientBoostingClassifier::new(GradientBoostingParams {
            n_estimators: 60,
            learning_rate: 0.2,
            max_depth: 3,
            ..GradientBoostingParams::default()
        });
        gb.fit(&x, &y, 2, None);
        assert!(accuracy(&gb.predict(&x), &y) > 0.95);
    }

    #[test]
    fn gbm_probabilities_valid() {
        let (x, y) = xor_data(150, 4);
        let mut gb = GradientBoostingClassifier::new(GradientBoostingParams {
            n_estimators: 20,
            ..GradientBoostingParams::default()
        });
        gb.fit(&x, &y, 2, None);
        let p = gb.predict_proba(&x);
        for r in 0..p.nrows() {
            assert!((p.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.get(r, 1) >= 0.0 && p.get(r, 1) <= 1.0);
        }
    }

    #[test]
    fn gbm_subsample_still_learns() {
        let (x, y) = xor_data(300, 5);
        let mut gb = GradientBoostingClassifier::new(GradientBoostingParams {
            n_estimators: 80,
            learning_rate: 0.2,
            subsample: 0.7,
            seed: 1,
            ..GradientBoostingParams::default()
        });
        gb.fit(&x, &y, 2, None);
        assert!(accuracy(&gb.predict(&x), &y) > 0.9);
    }

    #[test]
    fn gbm_deterministic() {
        let (x, y) = xor_data(100, 6);
        let params = GradientBoostingParams {
            n_estimators: 15,
            subsample: 0.8,
            seed: 42,
            ..GradientBoostingParams::default()
        };
        let mut a = GradientBoostingClassifier::new(params.clone());
        let mut b = GradientBoostingClassifier::new(params);
        a.fit(&x, &y, 2, None);
        b.fit(&x, &y, 2, None);
        assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
    }

    #[test]
    #[should_panic(expected = "binary-only")]
    fn gbm_rejects_multiclass() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let mut gb = GradientBoostingClassifier::new(GradientBoostingParams::default());
        gb.fit(&x, &[0, 1, 2], 3, None);
    }
}
