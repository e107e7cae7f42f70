//! The AutoML-EM driver (paper §III): wire the feature generator, the EM
//! pipeline space, and the `em-automl` search loop together — given labeled
//! record pairs, automatically find the best EM pipeline.

use crate::featuregen::{FeatureGenerator, FeatureScheme};
use crate::pipeline::{decode_configuration, EmPipelineConfig, FittedEmPipeline};
use crate::space::{build_space, SpaceOptions};
use em_automl::{
    run_search_parallel, Budget, Configuration, RandomSearch, SearchAlgorithm, SearchHistory,
    SmacSearch, TpeSearch,
};
use em_data::EmDataset;
use em_ml::{f1_score, paper_split, Matrix, ThreeWaySplit};
use em_table::RecordPair;

/// Which search algorithm drives the pipeline search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchChoice {
    /// Uniform random search.
    Random,
    /// SMAC-style SMBO (the auto-sklearn default, used by the paper).
    Smac,
    /// Tree-structured Parzen estimator.
    Tpe,
}

impl SearchChoice {
    fn build(self) -> Box<dyn SearchAlgorithm> {
        match self {
            SearchChoice::Random => Box::new(RandomSearch),
            SearchChoice::Smac => Box::new(SmacSearch::default()),
            SearchChoice::Tpe => Box::new(TpeSearch::default()),
        }
    }
}

/// All the knobs of an AutoML-EM run.
#[derive(Debug, Clone)]
pub struct AutoMlEmOptions {
    /// Feature-generation scheme (Table I vs Table II).
    pub scheme: FeatureScheme,
    /// Search-space shape (model repertoire, module switches).
    pub space: SpaceOptions,
    /// Search algorithm.
    pub search: SearchChoice,
    /// Search budget.
    pub budget: Budget,
    /// Master seed (splits, search, model training).
    pub seed: u64,
    /// Candidate configurations evaluated concurrently per search step on
    /// the shared `em-rt` pool. `1` is the strictly sequential suggest →
    /// evaluate loop, evaluated inline so the forest fits inside each
    /// evaluation keep the pool; larger batches trade per-step feedback for
    /// wall-clock speed (still deterministic for a fixed seed and any
    /// thread count).
    pub candidate_batch: usize,
}

impl Default for AutoMlEmOptions {
    fn default() -> Self {
        AutoMlEmOptions {
            scheme: FeatureScheme::AutoMlEm,
            space: SpaceOptions::default(),
            search: SearchChoice::Smac,
            budget: Budget::Evaluations(48),
            seed: 0,
            candidate_batch: 1,
        }
    }
}

/// The outcome of an AutoML-EM run.
pub struct AutoMlEmResult {
    /// Full search history (for Figure 10 convergence curves).
    pub history: SearchHistory,
    /// The winning raw configuration (printable like Figure 11).
    pub best_configuration: Configuration,
    /// The winning pipeline, decoded.
    pub best_pipeline: EmPipelineConfig,
    /// Validation F1 of the incumbent.
    pub validation_f1: f64,
    /// The incumbent pipeline refit on train + validation data (standard
    /// holdout practice before scoring the test set).
    pub fitted: FittedEmPipeline,
}

/// The AutoML-EM system: feature generation + pipeline search.
#[derive(Debug, Clone, Default)]
pub struct AutoMlEm {
    /// Run options.
    pub options: AutoMlEmOptions,
}

impl AutoMlEm {
    /// Create a driver with the given options.
    pub fn new(options: AutoMlEmOptions) -> Self {
        AutoMlEm { options }
    }

    /// Search for the best pipeline on pre-generated feature matrices:
    /// evaluate candidates by training on `(x_train, y_train)` and scoring
    /// F1 on `(x_valid, y_valid)` (the paper's holdout validation, §V-A).
    pub fn fit(
        &self,
        x_train: &Matrix,
        y_train: &[usize],
        x_valid: &Matrix,
        y_valid: &[usize],
    ) -> AutoMlEmResult {
        self.fit_weighted(x_train, y_train, None, x_valid, y_valid, None)
    }

    /// [`Self::fit`] with optional per-sample confidence weights on the
    /// train and validation rows. This is the zero-hand-labels entry point:
    /// `em-weak` thresholds its label model's posteriors into hard labels
    /// and passes the posterior confidence as the weight, so candidate
    /// pipelines downweight pairs the labeling functions disagreed on.
    /// `None` weights reproduce `fit` exactly.
    pub fn fit_weighted(
        &self,
        x_train: &Matrix,
        y_train: &[usize],
        w_train: Option<&[f64]>,
        x_valid: &Matrix,
        y_valid: &[usize],
        w_valid: Option<&[f64]>,
    ) -> AutoMlEmResult {
        assert_eq!(x_train.nrows(), y_train.len(), "train length mismatch");
        assert_eq!(x_valid.nrows(), y_valid.len(), "valid length mismatch");
        let space = build_space(self.options.space);
        let seed = self.options.seed;
        let mut algo = self.options.search.build();
        let objective = |config: &Configuration| -> f64 {
            let pipeline = decode_configuration(config, seed);
            let fitted = pipeline.fit_weighted(x_train, y_train, w_train);
            fitted.f1(x_valid, y_valid)
        };
        // Warm start: the in-space default configuration is evaluated
        // first (auto-sklearn's meta-learning portfolio, reduced to the
        // sklearn defaults), so the surrogate model sees it immediately.
        let warm_start = [crate::space::default_configuration(self.options.space)];
        let history = run_search_parallel(
            &space,
            algo.as_mut(),
            &objective,
            self.options.budget,
            seed,
            &warm_start,
            self.options.candidate_batch,
        );
        let incumbent = history
            .incumbent()
            .expect("search budget must allow at least one evaluation");
        let mut best_configuration = incumbent.config.clone();
        let mut validation_f1 = incumbent.score;
        let mut best_pipeline = decode_configuration(&best_configuration, seed);
        // Warm-start guarantee (auto-sklearn seeds its search with default
        // configurations via meta-learning): the returned model is never
        // worse on validation than the out-of-the-box random forest.
        let default_pipeline = EmPipelineConfig::default_random_forest(seed);
        let default_valid_f1 = default_pipeline
            .fit_weighted(x_train, y_train, w_train)
            .f1(x_valid, y_valid);
        if default_valid_f1 > validation_f1 {
            validation_f1 = default_valid_f1;
            best_pipeline = default_pipeline;
            best_configuration = Configuration::default();
        }
        // Refit on train + validation for final test-set scoring.
        let x_all = x_train.vstack(x_valid);
        let mut y_all = y_train.to_vec();
        y_all.extend_from_slice(y_valid);
        let w_all = match (w_train, w_valid) {
            (None, None) => None,
            _ => {
                let mut w = w_train.map_or_else(|| vec![1.0; y_train.len()], <[f64]>::to_vec);
                match w_valid {
                    Some(wv) => w.extend_from_slice(wv),
                    None => w.extend(std::iter::repeat_n(1.0, y_valid.len())),
                }
                Some(w)
            }
        };
        let fitted = best_pipeline.fit_weighted(&x_all, &y_all, w_all.as_deref());
        AutoMlEmResult {
            history,
            best_configuration,
            best_pipeline,
            validation_f1,
            fitted,
        }
    }
}

/// A benchmark dataset converted to feature vectors with the paper's
/// 64/16/20 train/validation/test split.
pub struct PreparedDataset {
    /// Dataset name.
    pub name: String,
    /// Feature matrix over all candidate pairs (row i = pair i).
    pub features: Matrix,
    /// Gold labels (0/1) in pair order.
    pub labels: Vec<usize>,
    /// Stratified three-way split over pair indices.
    pub split: ThreeWaySplit,
    /// The feature generator used (for names/diagnostics).
    pub generator: FeatureGenerator,
}

impl PreparedDataset {
    /// Generate features and split a benchmark dataset.
    pub fn prepare(dataset: &EmDataset, scheme: FeatureScheme, seed: u64) -> Self {
        let generator =
            FeatureGenerator::plan_for_tables(scheme, &dataset.table_a, &dataset.table_b);
        let pairs: Vec<RecordPair> = dataset.pairs.iter().map(|p| p.pair).collect();
        let features = if crate::featcache::enabled() {
            let mut cache = generator.cached(&dataset.table_a, &dataset.table_b);
            cache.generate(&dataset.table_a, &dataset.table_b, &pairs)
        } else {
            generator.generate(&dataset.table_a, &dataset.table_b, &pairs)
        };
        let labels = dataset.labels();
        let split = paper_split(&labels, seed);
        PreparedDataset {
            name: dataset.name.clone(),
            features,
            labels,
            split,
            generator,
        }
    }

    fn subset(&self, idx: &[usize]) -> (Matrix, Vec<usize>) {
        (
            self.features.select_rows(idx),
            idx.iter().map(|&i| self.labels[i]).collect(),
        )
    }

    /// Training portion (~64%).
    pub fn train(&self) -> (Matrix, Vec<usize>) {
        self.subset(&self.split.train)
    }

    /// Validation portion (~16%).
    pub fn valid(&self) -> (Matrix, Vec<usize>) {
        self.subset(&self.split.valid)
    }

    /// Test portion (~20%).
    pub fn test(&self) -> (Matrix, Vec<usize>) {
        self.subset(&self.split.test)
    }

    /// Run AutoML-EM end to end on this dataset and report
    /// `(validation F1, test F1, result)`.
    pub fn run_automl(&self, options: AutoMlEmOptions) -> (f64, f64, AutoMlEmResult) {
        let (xt, yt) = self.train();
        let (xv, yv) = self.valid();
        let (xs, ys) = self.test();
        let result = AutoMlEm::new(options).fit(&xt, &yt, &xv, &yv);
        let test_f1 = f1_score(&ys, &result.fitted.predict(&xs));
        (result.validation_f1, test_f1, result)
    }

    /// Baseline: fit a fixed pipeline on train(+valid) and report test F1 —
    /// the "human with defaults" Magellan baseline of Table IV.
    pub fn run_fixed_pipeline(&self, config: &EmPipelineConfig) -> f64 {
        let (xt, yt) = self.train();
        let (xv, yv) = self.valid();
        let (xs, ys) = self.test();
        let x_all = xt.vstack(&xv);
        let mut y_all = yt;
        y_all.extend_from_slice(&yv);
        let fitted = config.fit(&x_all, &y_all);
        f1_score(&ys, &fitted.predict(&xs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::Benchmark;

    fn quick_options(budget: usize) -> AutoMlEmOptions {
        AutoMlEmOptions {
            budget: Budget::Evaluations(budget),
            ..AutoMlEmOptions::default()
        }
    }

    #[test]
    fn end_to_end_on_small_benchmark() {
        let ds = Benchmark::FodorsZagats.generate_scaled(0, 0.35);
        let prep = PreparedDataset::prepare(&ds, FeatureScheme::AutoMlEm, 0);
        let (vf1, tf1, result) = prep.run_automl(quick_options(6));
        assert!(vf1 > 0.5, "validation F1 {vf1}");
        assert!(tf1 > 0.5, "test F1 {tf1}");
        assert_eq!(result.history.len(), 6);
        // The incumbent prints in Figure-11 style.
        let dump = result.best_configuration.to_string();
        assert!(dump.contains("classifier:__choice__"));
    }

    #[test]
    fn automl_beats_or_matches_default_rf_on_validation() {
        let ds = Benchmark::ItunesAmazon.generate_scaled(1, 0.5);
        let prep = PreparedDataset::prepare(&ds, FeatureScheme::AutoMlEm, 1);
        let (vf1, _, _) = prep.run_automl(quick_options(8));
        // Validation score of the search incumbent can't be worse than a
        // mediocre floor on this easy dataset.
        assert!(vf1 > 0.6, "validation F1 {vf1}");
    }

    #[test]
    fn prepared_split_partitions_pairs() {
        let ds = Benchmark::BeerAdvoRateBeer.generate_scaled(2, 1.0);
        let prep = PreparedDataset::prepare(&ds, FeatureScheme::Magellan, 2);
        let n = prep.labels.len();
        let mut all: Vec<usize> = prep
            .split
            .train
            .iter()
            .chain(&prep.split.valid)
            .chain(&prep.split.test)
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        assert_eq!(prep.features.nrows(), n);
        assert_eq!(prep.features.ncols(), prep.generator.n_features());
    }

    #[test]
    fn fixed_pipeline_baseline_runs() {
        let ds = Benchmark::FodorsZagats.generate_scaled(3, 0.3);
        let prep = PreparedDataset::prepare(&ds, FeatureScheme::Magellan, 3);
        let f1 = prep.run_fixed_pipeline(&EmPipelineConfig::default_random_forest(3));
        assert!(f1 > 0.4, "baseline F1 {f1}");
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = Benchmark::FodorsZagats.generate_scaled(4, 0.25);
        let prep = PreparedDataset::prepare(&ds, FeatureScheme::AutoMlEm, 4);
        let (v1, t1, _) = prep.run_automl(quick_options(4));
        let (v2, t2, _) = prep.run_automl(quick_options(4));
        assert_eq!(v1, v2);
        assert_eq!(t1, t2);
    }
}
