//! Property-based tests for the ML substrate: scaler invertibility, imputer
//! totality, metric bounds, tree/forest invariants, tree layout round trips,
//! selector bounds, and special-function identities.
//!
//! Each property runs over `CASES` deterministically seeded random inputs
//! drawn from the `em-rt` RNG; on failure the offending seed is printed so
//! the case can be replayed with `StdRng::seed_from_u64(seed)`.

use em_ml::featsel::{select_percentile, variance_threshold, ScoreFunc};
use em_ml::preprocess::{FittedScaler, ImputeStrategy, ScalerKind, SimpleImputer};
use em_ml::stats::{betainc, chi2_sf, f_sf, ln_gamma};
use em_ml::{
    f1_score, Classifier, DecisionTree, ForestParams, GradientBoostingClassifier,
    GradientBoostingParams, Matrix, MaxFeatures, RandomForestClassifier, Splitter, TreeParams,
};
use em_rt::{Json, StdRng};

const CASES: u64 = 64;

/// Run a property over `CASES` seeded RNGs, reporting the failing seed.
fn check(f: impl Fn(&mut StdRng) + std::panic::RefUnwindSafe) {
    for case in 0..CASES {
        let seed = 0x3147_0000 ^ case;
        let result = std::panic::catch_unwind(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            f(&mut rng);
        });
        if let Err(e) = result {
            eprintln!("property failed for seed {seed} (case {case}/{CASES})");
            std::panic::resume_unwind(e);
        }
    }
}

/// A small random matrix with values in a bounded range. At least 4 rows so
/// ANOVA (which needs more samples than classes) is always applicable.
fn random_matrix(rng: &mut StdRng, max_rows: usize, cols: usize) -> Matrix {
    let rows = rng.random_range(4..max_rows);
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|_| {
            (0..cols)
                .map(|_| rng.random_range(-100.0f64..100.0))
                .collect()
        })
        .collect();
    Matrix::from_rows(&data)
}

/// Binary labels with at least one member of each class.
fn random_labels(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut y: Vec<usize> = (0..n).map(|_| rng.random_range(0..2usize)).collect();
    if y.iter().all(|&c| c == 0) {
        y[0] = 1;
    } else if y.iter().all(|&c| c == 1) {
        y[0] = 0;
    }
    y
}

#[test]
fn scalers_round_trip() {
    check(|rng| {
        let x = random_matrix(rng, 20, 3);
        for kind in [
            ScalerKind::Standard,
            ScalerKind::MinMax,
            ScalerKind::Robust {
                q_min: 25.0,
                q_max: 75.0,
            },
        ] {
            let (s, out) = FittedScaler::fit_transform(kind, &x);
            let back = s.inverse_transform(&out);
            for (a, b) in back.as_slice().iter().zip(x.as_slice()) {
                assert!((a - b).abs() < 1e-6, "{a} vs {b}");
            }
        }
    });
}

#[test]
fn imputer_always_removes_nan() {
    check(|rng| {
        let n_rows = rng.random_range(2..15usize);
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        // 1-in-4 cells missing, as in the old prop_oneof weights.
                        if rng.random_bool(0.25) {
                            f64::NAN
                        } else {
                            rng.random_range(-10.0f64..10.0)
                        }
                    })
                    .collect()
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        for strat in [
            ImputeStrategy::Mean,
            ImputeStrategy::Median,
            ImputeStrategy::MostFrequent,
            ImputeStrategy::Constant(0.5),
        ] {
            let (_, out) = SimpleImputer::fit_transform(strat, &x);
            assert!(!out.has_nan());
        }
    });
}

#[test]
fn f1_is_bounded_and_perfect_on_identity() {
    check(|rng| {
        let n = rng.random_range(1..40usize);
        let y: Vec<usize> = (0..n).map(|_| rng.random_range(0..2usize)).collect();
        assert!((0.0..=1.0).contains(&f1_score(&y, &y)));
        if y.contains(&1) {
            assert_eq!(f1_score(&y, &y), 1.0);
        }
    });
}

#[test]
fn forest_probabilities_are_distributions() {
    check(|rng| {
        let x = random_matrix(rng, 24, 2);
        let n = x.nrows();
        let y: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let mut rf = RandomForestClassifier::new(ForestParams {
            n_estimators: 5,
            seed: 1,
            ..Default::default()
        });
        rf.fit(&x, &y, 2, None);
        let p = rf.predict_proba(&x);
        for r in 0..n {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(p.row(r).iter().all(|&v| (0.0..=1.0 + 1e-12).contains(&v)));
        }
        // Vote fractions are in [1/2, 1] for binary classification.
        for c in rf.vote_fraction(&x) {
            assert!((0.5 - 1e-12..=1.0 + 1e-12).contains(&c));
        }
    });
}

#[test]
fn tree_training_accuracy_is_perfect_without_limits() {
    check(|rng| {
        let x = random_matrix(rng, 24, 2);
        // Deduplicate identical rows (which could carry conflicting labels).
        let n = x.nrows();
        let y: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let mut unique = std::collections::BTreeMap::new();
        for (i, row) in x.rows_iter().enumerate() {
            let key: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
            unique.entry(key).or_insert(i);
        }
        let keep: Vec<usize> = unique.into_values().collect();
        let xu = x.select_rows(&keep);
        let yu: Vec<usize> = keep.iter().map(|&i| y[i]).collect();
        if yu.contains(&0) && yu.contains(&1) {
            let t = em_ml::DecisionTree::fit_classifier(&xu, &yu, 2, None, TreeParams::default());
            assert_eq!(t.predict(&xu), yu);
        }
    });
}

/// `to_json → from_json` of `tree`, asserting the second rendering is
/// byte-identical to the first.
fn tree_round_trip(tree: &DecisionTree) -> DecisionTree {
    let doc = tree.to_json().render();
    let back = DecisionTree::from_json(&Json::parse(&doc).unwrap()).expect("tree reloads");
    assert_eq!(back.to_json().render(), doc, "tree JSON changed on reload");
    back
}

fn assert_bits_eq(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (p, q)) in a.iter().zip(b).enumerate() {
        assert_eq!(p.to_bits(), q.to_bits(), "value {i}: {p} vs {q}");
    }
}

/// Tree parameters for one of the three split engines, with random limits.
fn engine_params(rng: &mut StdRng, splitter: Splitter) -> TreeParams {
    TreeParams {
        max_depth: if rng.random_bool(0.3) { Some(3) } else { None },
        min_samples_leaf: rng.random_range(1..3usize),
        max_features: if rng.random_bool(0.5) {
            MaxFeatures::All
        } else {
            MaxFeatures::Sqrt
        },
        splitter,
        n_bins: rng.random_range(4..64usize),
        seed: rng.random_range(0..1000u64),
        ..TreeParams::default()
    }
}

#[test]
fn tree_layout_round_trips_for_every_engine() {
    check(|rng| {
        let x = random_matrix(rng, 60, 4);
        let y = random_labels(rng, x.nrows());
        let targets: Vec<f64> = (0..x.nrows())
            .map(|_| rng.random_range(-5.0f64..5.0))
            .collect();
        for splitter in [Splitter::Best, Splitter::Binned, Splitter::Random] {
            let clf = DecisionTree::fit_classifier(&x, &y, 2, None, engine_params(rng, splitter));
            let back = tree_round_trip(&clf);
            assert_bits_eq(
                clf.predict_proba(&x).as_slice(),
                back.predict_proba(&x).as_slice(),
            );
            assert_eq!(clf.predict(&x), back.predict(&x));

            let reg = DecisionTree::fit_regressor(&x, &targets, None, engine_params(rng, splitter));
            let back = tree_round_trip(&reg);
            assert_bits_eq(&reg.predict_values(&x), &back.predict_values(&x));
        }
    });
}

#[test]
fn boosted_leaf_values_round_trip() {
    check(|rng| {
        let x = random_matrix(rng, 60, 3);
        let y = random_labels(rng, x.nrows());
        let targets: Vec<f64> = y.iter().map(|&c| c as f64).collect();
        // Newton-step overwrite on a bare regression tree.
        let mut tree = DecisionTree::fit_regressor(&x, &targets, None, TreeParams::default());
        let leaf = tree.apply(x.row(rng.random_range(0..x.nrows())));
        tree.set_leaf_value(leaf, rng.random_range(-3.0f64..3.0));
        let back = tree_round_trip(&tree);
        assert_bits_eq(&tree.predict_values(&x), &back.predict_values(&x));

        // And through a fitted booster, whose every leaf was overwritten.
        let splitter = if rng.random_bool(0.5) {
            Splitter::Best
        } else {
            Splitter::Binned
        };
        let mut gb = GradientBoostingClassifier::new(GradientBoostingParams {
            n_estimators: 8,
            subsample: 0.8,
            splitter,
            seed: rng.random_range(0..1000u64),
            ..GradientBoostingParams::default()
        });
        gb.fit(&x, &y, 2, None);
        let doc = gb.to_json().render();
        let gb_back = GradientBoostingClassifier::from_json(&Json::parse(&doc).unwrap()).unwrap();
        assert_eq!(gb_back.to_json().render(), doc);
        assert_bits_eq(
            gb.predict_proba(&x).as_slice(),
            gb_back.predict_proba(&x).as_slice(),
        );
    });
}

#[test]
fn percentile_selector_respects_bounds() {
    check(|rng| {
        let x = random_matrix(rng, 30, 5);
        let pct = rng.random_range(0.0f64..100.0);
        let n = x.nrows();
        let y = (0..n).map(|i| i % 2).collect::<Vec<_>>();
        let sel = select_percentile(&x, &y, 2, ScoreFunc::FClassif, pct);
        let k = sel.selected().len();
        assert!((1..=5).contains(&k));
        // Selected indices are sorted and unique.
        let mut sorted = sel.selected().to_vec();
        sorted.dedup();
        assert_eq!(sorted.as_slice(), sel.selected());
    });
}

#[test]
fn variance_threshold_never_empty() {
    check(|rng| {
        let x = random_matrix(rng, 20, 4);
        let sel = variance_threshold(&x, 0.0);
        assert!(!sel.selected().is_empty());
        let out = sel.transform(&x);
        assert_eq!(out.ncols(), sel.selected().len());
    });
}

#[test]
fn gamma_recurrence() {
    check(|rng| {
        let x = rng.random_range(0.5f64..20.0);
        // ln Γ(x+1) = ln Γ(x) + ln x
        let lhs = ln_gamma(x + 1.0);
        let rhs = ln_gamma(x) + x.ln();
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    });
}

#[test]
fn betainc_monotone_in_x() {
    check(|rng| {
        let a = rng.random_range(0.5f64..10.0);
        let b = rng.random_range(0.5f64..10.0);
        let x1 = rng.random_range(0.01f64..0.99);
        let dx = rng.random_range(0.0f64..0.5);
        let x2 = (x1 + dx).min(1.0);
        assert!(betainc(a, b, x1) <= betainc(a, b, x2) + 1e-9);
    });
}

#[test]
fn survival_functions_are_valid_probabilities() {
    check(|rng| {
        let v = rng.random_range(0.0f64..100.0);
        let d1 = rng.random_range(1.0f64..30.0);
        let d2 = rng.random_range(1.0f64..30.0);
        let p = f_sf(v, d1, d2);
        assert!((0.0..=1.0).contains(&p));
        let q = chi2_sf(v, d1);
        assert!((0.0..=1.0).contains(&q));
    });
}

#[test]
fn stratified_split_partitions() {
    check(|rng| {
        let n_pos = rng.random_range(2..20usize);
        let n_neg = rng.random_range(2..40usize);
        let seed = rng.random_range(0..100u64);
        let mut y = vec![0usize; n_neg];
        y.extend(vec![1usize; n_pos]);
        let (train, test) = em_ml::stratified_train_test_indices(&y, 0.25, seed);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..y.len()).collect();
        assert_eq!(all, expect);
    });
}

#[test]
fn labels_generator_smoke() {
    // Exercise the helper so it isn't dead code if generators shift.
    let mut rng = StdRng::seed_from_u64(42);
    let y = random_labels(&mut rng, 6);
    assert!(y.contains(&0) && y.contains(&1));
}
