//! Acceptance benchmark for the remaining hot paths moved onto the shared
//! `em-rt` pool: blocking candidate generation, stratified k-fold
//! cross-validation, permutation feature importances, and benchmark dataset
//! synthesis — serial (`jobs = 1`) vs pooled — plus the served forest's
//! per-pair inference cost. Writes `BENCH_hotpaths.json` (override the path
//! with the first CLI argument).
//!
//! Thread count comes from `EM_THREADS` when set, else defaults to 4 so the
//! serial-vs-pool comparison is stable across machines; the host's actual
//! `available_parallelism` is recorded alongside the numbers.

use em_bench::timing::{fmt_ns, Harness};
use em_ml::{Classifier, ForestParams, Matrix, RandomForestClassifier, Splitter};
use em_rt::{Json, StdRng};
use em_table::RecordPair;
use em_table::{Blocker, OverlapBlocker};

fn dataset(n: usize, d: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % 2;
        rows.push(
            (0..d)
                .map(|_| c as f64 * 0.6 + rng.random_range(-0.5..0.5))
                .collect(),
        );
        y.push(c);
    }
    (Matrix::from_rows(&rows), y)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_hotpaths.json".to_string());
    if std::env::var("EM_THREADS").is_err() {
        em_rt::set_threads(4);
    }
    let threads = em_rt::threads();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!("threads = {threads}, host cores = {cores}");

    let mut h = Harness::new("bench_hotpaths");

    // -- blocking: ~2.9k-record tables, multi-shard probe --------------------
    let ds = em_data::Benchmark::DblpScholar.generate_scaled(0, 0.55);
    let attr = ds.table_a.schema().names()[0].to_string();
    let blocker = OverlapBlocker {
        attribute: attr,
        min_overlap: 2,
    };
    h.bench("blocking_overlap_dblp_scholar/serial", || {
        blocker.candidates_with_jobs(&ds.table_a, &ds.table_b, 1)
    });
    h.bench("blocking_overlap_dblp_scholar/pool", || {
        blocker.candidates_with_jobs(&ds.table_a, &ds.table_b, threads)
    });

    // -- feature generation: uncached &str path vs the interned cache ---------
    // Table-II features over the full Fodors-Zagats candidate set. cold =
    // profile build + memo fill every iteration (first featurization of a
    // dataset); warm = the steady state every later batch sees (folds,
    // search trials, the active loop) — pure memo lookups.
    let fz = em_data::Benchmark::FodorsZagats.generate_scaled(0, 1.0);
    let generator = automl_em::FeatureGenerator::plan_for_tables(
        automl_em::FeatureScheme::AutoMlEm,
        &fz.table_a,
        &fz.table_b,
    );
    let fz_pairs: Vec<em_table::RecordPair> = fz.pairs.iter().map(|p| p.pair).collect();
    eprintln!(
        "featuregen workload: {} pairs x {} features",
        fz_pairs.len(),
        generator.n_features()
    );
    h.bench("featuregen_fodors_table2/uncached", || {
        generator.generate_with_jobs(&fz.table_a, &fz.table_b, &fz_pairs, threads)
    });
    h.bench("featuregen_fodors_table2/cached_cold", || {
        let mut cache = generator.cached(&fz.table_a, &fz.table_b);
        cache.generate_with_jobs(&fz.table_a, &fz.table_b, &fz_pairs, threads)
    });
    let mut warm = generator.cached(&fz.table_a, &fz.table_b);
    let _ = warm.generate_with_jobs(&fz.table_a, &fz.table_b, &fz_pairs, threads);
    h.bench("featuregen_fodors_table2/cached_warm", || {
        warm.generate_with_jobs(&fz.table_a, &fz.table_b, &fz_pairs, threads)
    });

    // -- 5-fold cross-validation of the default forest pipeline --------------
    let (x, y) = dataset(600, 12, 1);
    let config = automl_em::EmPipelineConfig::default_random_forest(0);
    h.bench("cross_val_f1_5fold_600x12/serial", || {
        config.cross_val_f1_with_jobs(&x, &y, 5, 0, 1)
    });
    h.bench("cross_val_f1_5fold_600x12/pool", || {
        config.cross_val_f1_with_jobs(&x, &y, 5, 0, threads)
    });
    // Same CV under the EM_BINNED=on override: every forest fit inside the
    // default pipeline routes through the binned engine, no config changes.
    std::env::set_var("EM_BINNED", "on");
    h.bench("cross_val_f1_5fold_600x12/pool_binned", || {
        config.cross_val_f1_with_jobs(&x, &y, 5, 0, threads)
    });
    std::env::remove_var("EM_BINNED");

    // -- forest fit: exact scan vs binned splitter ----------------------------
    // Same 600 x 12 workload as the CV rows. The 1-thread rows pin the pool
    // to a single thread (no tree-level jobs, no subtree tasks) so they
    // compare the split engines alone; the pool row adds per-tree and
    // per-node parallelism on top of the binned engine.
    let forest_fit = |splitter: Splitter, n_jobs: usize| {
        let mut rf = RandomForestClassifier::new(ForestParams {
            n_estimators: 30,
            splitter,
            seed: 9,
            n_jobs,
            ..ForestParams::default()
        });
        rf.fit(&x, &y, 2, None);
        rf
    };
    em_rt::set_threads(1);
    h.bench("forest_fit_600x12/exact_1thread", || {
        forest_fit(Splitter::Best, 1)
    });
    h.bench("forest_fit_600x12/binned_1thread", || {
        forest_fit(Splitter::Binned, 1)
    });
    em_rt::set_threads(threads);
    h.bench("forest_fit_600x12/binned_pool", || {
        forest_fit(Splitter::Binned, 0)
    });

    // -- permutation importances over 12 columns ------------------------------
    let fitted = config.fit(&x, &y);
    let names: Vec<String> = (0..x.ncols()).map(|i| format!("f{i}")).collect();
    h.bench("permutation_importance_12cols/serial", || {
        fitted.permutation_importances_with_jobs(&x, &y, &names, 2, 0, 1)
    });
    h.bench("permutation_importance_12cols/pool", || {
        fitted.permutation_importances_with_jobs(&x, &y, &names, 2, 0, threads)
    });

    // -- benchmark synthesis (per-entity tasks) -------------------------------
    h.bench("datagen_dblp_scholar_halfscale/serial", || {
        em_data::Benchmark::DblpScholar.generate_scaled_with_jobs(0, 0.5, 1)
    });
    h.bench("datagen_dblp_scholar_halfscale/pool", || {
        em_data::Benchmark::DblpScholar.generate_scaled_with_jobs(0, 0.5, threads)
    });

    // -- served forest inference ----------------------------------------------
    // The default 100-tree forest trained as perfbench's serve_repeat trains
    // it (Walmart-Amazon, full scale, seed 1), scoring 324-row batches
    // (4 queries x 81 candidates, serve_repeat's batch shape) through
    // `predict_with_scores`, the call the matcher's predict workers make.
    let wa = em_data::Benchmark::WalmartAmazon.generate_scaled(1, 1.0);
    let wa_gen = automl_em::FeatureGenerator::plan_for_tables(
        automl_em::FeatureScheme::AutoMlEm,
        &wa.table_a,
        &wa.table_b,
    );
    let wa_pairs: Vec<RecordPair> = wa.pairs.iter().map(|p| p.pair).collect();
    let wa_x = wa_gen.generate(&wa.table_a, &wa.table_b, &wa_pairs);
    let served = automl_em::EmPipelineConfig::default_random_forest(1).fit(&wa_x, &wa.labels());
    const BATCH_ROWS: usize = 324;
    const BATCHES: usize = 8;
    let batches: Vec<Matrix> = (0..BATCHES)
        .map(|b| {
            let rows: Vec<usize> = (b * BATCH_ROWS..(b + 1) * BATCH_ROWS)
                .map(|r| r % wa_x.nrows())
                .collect();
            wa_x.select_rows(&rows)
        })
        .collect();
    let predict_ns = h
        .bench("forest_predict_serving/predict_with_scores", || {
            batches
                .iter()
                .map(|b| served.predict_with_scores(b).len())
                .sum::<usize>()
        })
        .median_ns();
    let forest = RandomForestClassifier::from_json(
        served
            .to_json()
            .get("model")
            .expect("pipeline JSON has a model"),
    )
    .expect("the default pipeline serves a random forest");
    let n_nodes: usize = forest.trees().iter().map(|t| t.n_nodes()).sum();
    let node_bytes: usize = forest.trees().iter().map(|t| t.node_bytes()).sum();
    let ns_per_pair = predict_ns / (BATCHES * BATCH_ROWS) as f64;
    let bytes_per_node = node_bytes as f64 / n_nodes as f64;
    eprintln!(
        "forest_predict_serving: {ns_per_pair:.0} ns/pair, {bytes_per_node:.1} bytes/node \
         over {n_nodes} nodes"
    );
    let forest_row = Json::obj([
        (
            "workload",
            Json::from(
                "predict_with_scores of the default 100-tree forest (Walmart-Amazon, \
                 seed 1, 68 features) on 8 batches of 324 rows (4 queries x 81 \
                 candidates)",
            ),
        ),
        ("batch_rows", Json::from(BATCH_ROWS)),
        ("trees", Json::from(forest.trees().len())),
        ("nodes", Json::from(n_nodes)),
        ("median_ns_per_pair", Json::from(ns_per_pair)),
        ("bytes_per_node", Json::from(bytes_per_node)),
    ]);

    // -- report ---------------------------------------------------------------
    let median = |name: &str| -> f64 {
        h.results()
            .iter()
            .find(|r| r.name == name)
            .expect("benchmark ran")
            .median_ns()
    };
    let mut comparisons = Vec::new();
    for (name, baseline, variant, workload) in [
        (
            "blocking_overlap_dblp_scholar",
            "serial",
            "pool",
            "OverlapBlocker min_overlap=2 over ~2.9k x 2.9k DBLP-Scholar tables",
        ),
        (
            "featuregen_fodors_table2",
            "uncached",
            "cached_cold",
            "Table-II features, full Fodors-Zagats candidate set, first \
             featurization (profile build + memo fill included)",
        ),
        (
            "featuregen_fodors_table2",
            "uncached",
            "cached_warm",
            "Table-II features, full Fodors-Zagats candidate set, warm memo \
             (the steady state of folds / search trials / the active loop)",
        ),
        (
            "cross_val_f1_5fold_600x12",
            "serial",
            "pool",
            "5-fold stratified CV of the default RF pipeline on 600 x 12",
        ),
        (
            "cross_val_f1_5fold_600x12",
            "pool",
            "pool_binned",
            "the same 5-fold CV with EM_BINNED=on routing every forest fit \
             through the binned engine",
        ),
        (
            "forest_fit_600x12",
            "exact_1thread",
            "binned_1thread",
            "RF fit, 30 trees on 600 x 12, single thread: exact scan vs \
             binned histogram splitter (engine-only comparison)",
        ),
        (
            "forest_fit_600x12",
            "exact_1thread",
            "binned_pool",
            "RF fit, 30 trees on 600 x 12: binned splitter plus per-tree \
             and per-node pool parallelism vs the 1-thread exact scan",
        ),
        (
            "permutation_importance_12cols",
            "serial",
            "pool",
            "12 columns x 2 repeats against a fitted default RF pipeline",
        ),
        (
            "datagen_dblp_scholar_halfscale",
            "serial",
            "pool",
            "DBLP-Scholar synthesis at scale 0.5 (~2.7k entities + negatives)",
        ),
    ] {
        let base = median(&format!("{name}/{baseline}"));
        let var = median(&format!("{name}/{variant}"));
        let speedup = base / var;
        eprintln!(
            "{name}: {baseline} {} vs {variant} {} -> {speedup:.2}x",
            fmt_ns(base),
            fmt_ns(var)
        );
        comparisons.push(Json::obj([
            ("name", Json::from(name)),
            ("workload", Json::from(workload)),
            ("baseline", Json::from(baseline)),
            ("baseline_median_ns", Json::from(base)),
            ("variant", Json::from(variant)),
            ("variant_median_ns", Json::from(var)),
            ("speedup", Json::from(speedup)),
        ]));
    }
    let report = Json::obj([
        ("suite", Json::from("bench_hotpaths")),
        ("threads", Json::from(threads)),
        ("host_available_parallelism", Json::from(cores)),
        (
            "note",
            Json::from(
                "serial = jobs 1 on the caller thread; pool = the shared em-rt \
                 worker pool. Every pair is bit-identical output by \
                 construction (see crates/core/tests/determinism.rs); the \
                 featuregen rows compare the uncached &str \
                 path against the interned FeatureCache (EM_FEATCACHE \
                 toggles the same paths inside PreparedDataset::prepare). \
                 Speedups > 1 assume a multi-core host; \
                 host_available_parallelism records what this run had.",
            ),
        ),
        ("comparisons", Json::Arr(comparisons)),
        ("forest_predict_serving", forest_row),
        ("raw", h.to_json()),
    ]);
    std::fs::write(&out_path, report.render_pretty(2) + "\n")
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
    em_obs::flush();
}
