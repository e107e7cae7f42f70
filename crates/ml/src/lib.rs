//! # em-ml — from-scratch machine-learning substrate
//!
//! Replaces scikit-learn for the AutoML-EM reproduction: dense matrices,
//! CART trees, random forests / extra-trees (with the tree-agreement
//! confidence the paper's Figure 7 relies on), AdaBoost, gradient boosting,
//! logistic regression, linear SVM, k-NN, Gaussian naive Bayes; imputation,
//! scaling (standard / min-max / robust), class balancing; univariate
//! feature selection with real ANOVA-F and chi² p-values, variance
//! thresholding, PCA, feature agglomeration; F1-family metrics and seeded
//! stratified splits.
//!
//! ```
//! use em_ml::{Matrix, Classifier, RandomForestClassifier, ForestParams};
//!
//! let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![0.9], vec![1.0]]);
//! let y = vec![0, 0, 1, 1];
//! let mut rf = RandomForestClassifier::new(ForestParams { n_estimators: 10, ..Default::default() });
//! rf.fit(&x, &y, 2, None);
//! assert_eq!(rf.predict(&x), y);
//! ```

pub mod bayes;
mod binned;
pub mod boost;
pub mod decomp;
pub mod featsel;
pub mod forest;
pub mod jsonio;
pub mod knn;
pub mod linear;
pub mod matrix;
pub mod metrics;
pub mod preprocess;
pub mod split;
pub mod stats;
pub mod tree;

pub use bayes::{GaussianNb, GaussianNbParams};
pub use boost::{
    AdaBoostClassifier, AdaBoostParams, GradientBoostingClassifier, GradientBoostingParams,
};
pub use forest::{
    ExtraTreesClassifier, ForestParams, RandomForestClassifier, RandomForestRegressor,
};
pub use knn::{KNeighborsClassifier, KnnParams, KnnWeights};
pub use linear::{LinearSvm, LinearSvmParams, LogisticRegression, LogisticRegressionParams};
pub use matrix::Matrix;
pub use metrics::{
    accuracy_score, average_precision, f1_score, precision_recall_curve, precision_score,
    recall_score, Confusion, PrPoint,
};
pub use split::{
    paper_split, shuffled_indices, stratified_k_fold, stratified_train_test_indices,
    train_test_indices, ThreeWaySplit,
};
pub use tree::{Criterion, DecisionTree, MaxFeatures, Splitter, TreeParams};

/// Index of the first strictly largest value (0 for an empty slice): ties
/// go to the lowest class. Every hard decision in the crate, and the
/// serving path's, is taken with this rule.
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

/// Common interface of every classifier in the crate. Implementations are
/// created unfitted with their hyperparameter struct and trained in place.
pub trait Classifier: Send + Sync {
    /// Train on feature matrix `x` and labels `y` (class indices in
    /// `0..n_classes`), with optional per-sample weights.
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize, sample_weight: Option<&[f64]>);

    /// Class-probability matrix (`n × n_classes`).
    fn predict_proba(&self, x: &Matrix) -> Matrix;

    /// Hard class predictions ([`argmax`] of each probability row).
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        let p = self.predict_proba(x);
        (0..p.nrows()).map(|r| argmax(p.row(r))).collect()
    }

    /// Number of classes seen at fit time (0 before fitting).
    fn n_classes(&self) -> usize;

    /// Mean-decrease-in-impurity feature importances over the *model's
    /// input* features, normalized to sum to 1. `None` for models without a
    /// native importance notion (use permutation importance instead).
    fn feature_importances(&self) -> Option<Vec<f64>> {
        None
    }

    /// Serialize the fitted model (hyperparameters + learned weights) to a
    /// JSON value for the `em-serve` model artifact. The value is accepted
    /// by the concrete type's `from_json`; which concrete type to load is
    /// recorded separately (the pipeline's classifier choice).
    fn save_json(&self) -> em_rt::Json;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    /// Every classifier should handle the same tiny separable problem.
    fn models() -> Vec<Box<dyn Classifier>> {
        vec![
            Box::new(RandomForestClassifier::new(ForestParams {
                n_estimators: 15,
                ..Default::default()
            })),
            Box::new(ExtraTreesClassifier::new(ForestParams {
                n_estimators: 15,
                ..Default::default()
            })),
            Box::new(AdaBoostClassifier::new(AdaBoostParams::default())),
            Box::new(GradientBoostingClassifier::new(GradientBoostingParams {
                n_estimators: 25,
                ..Default::default()
            })),
            Box::new(LogisticRegression::new(LogisticRegressionParams::default())),
            Box::new(LinearSvm::new(LinearSvmParams::default())),
            Box::new(KNeighborsClassifier::new(KnnParams::default())),
            Box::new(GaussianNb::new(GaussianNbParams::default())),
        ]
    }

    #[test]
    fn all_models_solve_separable_problem() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..30 {
            rows.push(vec![i as f64 * 0.01, 0.3]);
            y.push(0);
            rows.push(vec![1.0 + i as f64 * 0.01, 0.7]);
            y.push(1);
        }
        let x = Matrix::from_rows(&rows);
        for mut m in models() {
            m.fit(&x, &y, 2, None);
            let acc = m.predict(&x).iter().zip(&y).filter(|(a, b)| a == b).count();
            assert!(
                acc as f64 / y.len() as f64 > 0.9,
                "model failed separable problem: {acc}/{}",
                y.len()
            );
            assert_eq!(m.n_classes(), 2);
        }
    }
}
