//! Serving-path guarantees, in the spirit of `crates/core/tests/determinism.rs`:
//!
//! 1. **Artifact round-trip** — fit → save → load → predict must be
//!    bit-identical to the in-memory pipeline, across every classifier and
//!    preprocessor family the search space can emit (a property test over
//!    random datasets and configurations).
//! 2. **Streamed = in-memory** — `Matcher::match_stream` output must equal
//!    the one-shot path (index probe → uncached featurize → predict) batch
//!    by batch, pair by pair, bit by bit.
//! 3. **Thread-count and tracing invariance** — the full output stream is
//!    bit-identical under a 1-thread and an 8-thread pool, and with
//!    tracing on vs off.
//!
//! This harness gets its own process so it can resize the global pool.

use automl_em::{
    ClassifierChoice, EmPipelineConfig, FeatureGenerator, FeatureScheme, FittedEmPipeline,
    PreprocessorChoice,
};
use em_ml::featsel::{RateMode, ScoreFunc};
use em_ml::preprocess::{BalancingStrategy, ImputeStrategy, ScalerKind};
use em_ml::{Criterion, KnnWeights, Matrix};
use em_serve::{BatchOutput, IncrementalIndex, Matcher, ModelArtifact, StreamOptions};
use em_table::Table;
use std::sync::{Mutex, MutexGuard};

/// Tests here may mutate the process-global `em_rt::set_threads` knob and
/// the tracing mode, so they must not interleave.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Force a multi-worker pool even on single-core CI hosts (EM_THREADS still
/// wins if the environment sets it).
fn ensure_pool() {
    if std::env::var("EM_THREADS").is_err() {
        em_rt::set_threads(4);
    }
}

fn temp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("em-serve-{tag}-{}.json", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// Training fixture: a scaled benchmark, its feature matrix, and labels.
fn fixture(seed: u64) -> (em_data::EmDataset, FeatureGenerator, Matrix, Vec<usize>) {
    let ds = em_data::Benchmark::FodorsZagats.generate_scaled(seed, 0.25);
    let g = FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b);
    let pairs: Vec<em_table::RecordPair> = ds.pairs.iter().map(|p| p.pair).collect();
    let x = g.generate(&ds.table_a, &ds.table_b, &pairs);
    let y: Vec<usize> = ds.pairs.iter().map(|p| usize::from(p.label)).collect();
    (ds, g, x, y)
}

/// One configuration per classifier family, each paired with a different
/// preprocessing stack so every `FittedTransform` variant serializes too.
fn config_zoo(seed: u64) -> Vec<EmPipelineConfig> {
    let base = EmPipelineConfig::default_random_forest(seed);
    vec![
        EmPipelineConfig {
            classifier: ClassifierChoice::RandomForest {
                n_estimators: 15,
                criterion: Criterion::Entropy,
                max_features: 0.5,
                min_samples_split: 2,
                min_samples_leaf: 1,
                bootstrap: true,
            },
            preprocessor: PreprocessorChoice::SelectPercentile {
                score: ScoreFunc::FClassif,
                percentile: 60.0,
            },
            rescaling: ScalerKind::Standard,
            ..base.clone()
        },
        EmPipelineConfig {
            classifier: ClassifierChoice::ExtraTrees {
                n_estimators: 12,
                criterion: Criterion::Gini,
                max_features: 0.7,
                min_samples_leaf: 2,
            },
            preprocessor: PreprocessorChoice::SelectRates {
                score: ScoreFunc::FClassif,
                mode: RateMode::Fpr,
                alpha: 0.2,
            },
            ..base.clone()
        },
        EmPipelineConfig {
            classifier: ClassifierChoice::DecisionTree {
                criterion: Criterion::Gini,
                max_depth: 6,
                min_samples_split: 2,
                min_samples_leaf: 1,
            },
            preprocessor: PreprocessorChoice::VarianceThreshold { threshold: 1e-4 },
            imputation: ImputeStrategy::Median,
            ..base.clone()
        },
        EmPipelineConfig {
            classifier: ClassifierChoice::AdaBoost {
                n_estimators: 8,
                learning_rate: 0.8,
                max_depth: 2,
            },
            balancing: BalancingStrategy::Weighting,
            ..base.clone()
        },
        EmPipelineConfig {
            classifier: ClassifierChoice::GradientBoosting {
                n_estimators: 10,
                learning_rate: 0.2,
                max_depth: 3,
                min_samples_leaf: 1,
                subsample: 0.8,
            },
            ..base.clone()
        },
        EmPipelineConfig {
            classifier: ClassifierChoice::LogisticRegression { alpha: 1e-3 },
            rescaling: ScalerKind::MinMax,
            preprocessor: PreprocessorChoice::Pca {
                components_fraction: 0.5,
            },
            ..base.clone()
        },
        EmPipelineConfig {
            classifier: ClassifierChoice::LinearSvm { lambda: 1e-3 },
            rescaling: ScalerKind::Standard,
            ..base.clone()
        },
        EmPipelineConfig {
            classifier: ClassifierChoice::Knn {
                k: 5,
                weights: KnnWeights::Distance,
            },
            rescaling: ScalerKind::MinMax,
            preprocessor: PreprocessorChoice::FeatureAgglomeration {
                clusters_fraction: 0.5,
            },
            ..base.clone()
        },
        EmPipelineConfig {
            classifier: ClassifierChoice::GaussianNb {
                var_smoothing: 1e-9,
            },
            ..base.clone()
        },
    ]
}

fn assert_same_predictions(a: &FittedEmPipeline, b: &FittedEmPipeline, x: &Matrix, tag: &str) {
    assert_eq!(
        a.predict(x),
        b.predict(x),
        "{tag}: hard predictions drifted"
    );
    let (pa, pb) = (a.predict_match_proba(x), b.predict_match_proba(x));
    for (i, (p, q)) in pa.iter().zip(&pb).enumerate() {
        assert_eq!(
            p.to_bits(),
            q.to_bits(),
            "{tag}: probability {i} drifted: {p} vs {q}"
        );
    }
}

#[test]
fn artifact_round_trip_is_bit_identical_across_config_zoo() {
    let _guard = serialize();
    ensure_pool();
    let path = temp_path("roundtrip");
    for seed in [3, 11] {
        let (ds, _, x, y) = fixture(seed);
        for (i, config) in config_zoo(seed).into_iter().enumerate() {
            let tag = format!("seed {seed} config {i}");
            let fitted = config.fit(&x, &y);
            let artifact = ModelArtifact::for_tables(
                FeatureScheme::AutoMlEm,
                &ds.table_a,
                &ds.table_b,
                fitted,
            );
            artifact.save(&path).expect("save artifact");
            let loaded = ModelArtifact::load(&path).expect("load artifact");
            assert_eq!(loaded.scheme, artifact.scheme);
            assert_eq!(loaded.attributes, artifact.attributes);
            assert_eq!(loaded.attr_types, artifact.attr_types);
            assert_eq!(loaded.pipeline.config, artifact.pipeline.config, "{tag}");
            assert_same_predictions(&artifact.pipeline, &loaded.pipeline, &x, &tag);
            // Serialization is deterministic: a second save/load cycle
            // produces the identical document.
            assert_eq!(
                artifact.to_json().render(),
                loaded.to_json().render(),
                "{tag}: document not stable under round-trip"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn predict_with_scores_decisions_equal_predict_across_config_zoo() {
    let _guard = serialize();
    ensure_pool();
    let (_, _, x, y) = fixture(7);
    for (i, config) in config_zoo(7).into_iter().enumerate() {
        let fitted = config.fit(&x, &y);
        let scored = fitted.predict_with_scores(&x);
        let decisions: Vec<usize> = scored.iter().map(|&(_, m)| usize::from(m)).collect();
        assert_eq!(decisions, fitted.predict(&x), "config {i}: decisions");
        let scores: Vec<f64> = scored.iter().map(|&(p, _)| p).collect();
        let proba = fitted.predict_match_proba(&x);
        assert_eq!(
            scores.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            proba.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "config {i}: scores"
        );
    }
}

#[test]
fn two_tree_tie_decides_class_zero() {
    let _guard = serialize();
    ensure_pool();
    let (_, _, x, y) = fixture(5);
    let fitted = EmPipelineConfig::default_random_forest(5).fit(&x, &y);
    // Keep the fitted preprocessing; swap the forest for two single-leaf
    // trees that vote [1, 0] and [0, 1], so every row scores 0.5 / 0.5.
    let em_rt::Json::Obj(mut doc) = fitted.to_json() else {
        panic!("pipeline JSON is an object");
    };
    let (_, model) = doc.iter_mut().find(|(k, _)| k == "model").unwrap();
    let em_rt::Json::Obj(model) = model else {
        panic!("model JSON is an object");
    };
    let (_, trees) = model.iter_mut().find(|(k, _)| k == "trees").unwrap();
    let em_rt::Json::Arr(trees) = trees else {
        panic!("trees JSON is an array");
    };
    trees.truncate(2);
    for (tree, dist) in trees.iter_mut().zip(["[1,0]", "[0,1]"]) {
        let em_rt::Json::Obj(tree) = tree else {
            panic!("tree JSON is an object");
        };
        let (_, nodes) = tree.iter_mut().find(|(k, _)| k == "nodes").unwrap();
        *nodes = em_rt::Json::parse(&format!(r#"[{{"dist":{dist}}}]"#)).unwrap();
    }
    let tied = FittedEmPipeline::from_json(&em_rt::Json::Obj(doc)).expect("tied forest loads");
    assert_eq!(tied.predict(&x), vec![0; x.nrows()]);
    for (p, matched) in tied.predict_with_scores(&x) {
        assert_eq!(p, 0.5);
        assert!(!matched, "a 0.5 / 0.5 tie must decide class 0");
    }
}

#[test]
fn artifact_load_rejects_wrong_format_and_version() {
    let _guard = serialize();
    ensure_pool();
    let (ds, _, x, y) = fixture(5);
    let fitted = EmPipelineConfig::default_random_forest(5).fit(&x, &y);
    let artifact =
        ModelArtifact::for_tables(FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b, fitted);
    let doc = artifact.to_json().render();
    let wrong_version = doc.replacen("\"version\":1", "\"version\":99", 1);
    let err = ModelArtifact::from_json(&em_rt::Json::parse(&wrong_version).unwrap())
        .err()
        .expect("wrong version must be rejected");
    assert!(err.contains("version 99"), "{err}");
    let wrong_format = doc.replacen("em-serve.artifact", "something.else", 1);
    let err = ModelArtifact::from_json(&em_rt::Json::parse(&wrong_format).unwrap())
        .err()
        .expect("wrong format must be rejected");
    assert!(err.contains("not an em-serve artifact"), "{err}");
}

/// Split `t` into consecutive batches of `size` rows (last may be short).
fn batches_of(t: &Table, size: usize) -> Vec<Table> {
    (0..t.len())
        .step_by(size)
        .map(|lo| t.slice_rows(lo..(lo + size).min(t.len())))
        .collect()
}

/// Drive `match_stream` over `batches` and collect the ordered outputs.
fn run_stream(matcher: &mut Matcher, batches: &[Table], opts: StreamOptions) -> Vec<BatchOutput> {
    let (query_tx, query_rx) = em_rt::channel::<Table>();
    let (result_tx, result_rx) = em_rt::channel::<BatchOutput>();
    for b in batches {
        query_tx.send(b.clone()).expect("stream open");
    }
    query_tx.close();
    matcher.match_stream(query_rx, result_tx, opts);
    std::iter::from_fn(|| result_rx.recv()).collect()
}

fn assert_outputs_bit_identical(a: &[BatchOutput], b: &[BatchOutput], tag: &str) {
    assert_eq!(a.len(), b.len(), "{tag}: batch count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.seq, y.seq, "{tag}");
        assert_eq!(x.n_queries, y.n_queries, "{tag}");
        assert_eq!(x.matches.len(), y.matches.len(), "{tag} seq {}", x.seq);
        for (m, n) in x.matches.iter().zip(&y.matches) {
            assert_eq!(m.pair, n.pair, "{tag} seq {}", x.seq);
            assert_eq!(m.is_match, n.is_match, "{tag} seq {}", x.seq);
            assert_eq!(
                m.score.to_bits(),
                n.score.to_bits(),
                "{tag} seq {}: score {} vs {}",
                x.seq,
                m.score,
                n.score
            );
        }
    }
}

/// Blocking attribute: the first schema attribute (Fodors-Zagats `name`).
fn blocking_attr(ds: &em_data::EmDataset) -> String {
    ds.table_a.schema().names()[0].to_string()
}

#[test]
fn streamed_output_equals_in_memory_predict_path() {
    let _guard = serialize();
    ensure_pool();
    let (ds, generator, x, y) = fixture(7);
    let fitted = EmPipelineConfig::default_random_forest(7).fit(&x, &y);
    let attr = blocking_attr(&ds);
    let path = temp_path("stream-mem");
    ModelArtifact::for_tables(FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b, fitted)
        .save(&path)
        .unwrap();

    let reference = ModelArtifact::load(&path).unwrap();
    let mut matcher = Matcher::new(
        ModelArtifact::load(&path).unwrap(),
        ds.table_b.clone(),
        &attr,
        1,
    )
    .unwrap();
    let _ = std::fs::remove_file(&path);

    let batches = batches_of(&ds.table_a, 7);
    let outputs = run_stream(&mut matcher, &batches, StreamOptions::default());
    assert_eq!(outputs.len(), batches.len());

    // In-memory path: fresh index probe + *uncached* featurization +
    // predict, per batch. Must agree bit for bit with the stream.
    let index = IncrementalIndex::build(&attr, 1, &ds.table_b).unwrap();
    let mut total_pairs = 0usize;
    for (seq, (batch, out)) in batches.iter().zip(&outputs).enumerate() {
        assert_eq!(out.seq, seq, "outputs must arrive in input order");
        assert_eq!(out.n_queries, batch.len());
        let pairs = index.candidates(batch, 0);
        assert_eq!(
            out.matches.iter().map(|m| m.pair).collect::<Vec<_>>(),
            pairs,
            "seq {seq}: candidate set"
        );
        let feats = generator.generate(batch, &ds.table_b, &pairs);
        let expected = reference.pipeline.predict_with_scores(&feats);
        for (m, (score, is_match)) in out.matches.iter().zip(expected) {
            assert_eq!(m.score.to_bits(), score.to_bits(), "seq {seq}");
            assert_eq!(m.is_match, is_match, "seq {seq}");
        }
        total_pairs += pairs.len();
    }
    assert!(total_pairs > 0, "fixture produced no candidates");
}

#[test]
fn match_stream_is_thread_count_and_tracing_invariant() {
    let _guard = serialize();
    if std::env::var("EM_THREADS").is_ok() {
        // The env pins the pool size for the whole process; the in-process
        // 1-vs-8 comparison below needs to flip it, so defer to the runs
        // where the knob is free (verify.sh runs this suite both ways).
        return;
    }
    let (ds, _, x, y) = fixture(9);
    let fitted = EmPipelineConfig::default_random_forest(9).fit(&x, &y);
    let attr = blocking_attr(&ds);
    let path = temp_path("stream-det");
    ModelArtifact::for_tables(FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b, fitted)
        .save(&path)
        .unwrap();
    let batches = batches_of(&ds.table_a, 5);
    let run = |opts: StreamOptions| {
        let mut matcher = Matcher::new(
            ModelArtifact::load(&path).unwrap(),
            ds.table_b.clone(),
            &attr,
            1,
        )
        .unwrap();
        run_stream(&mut matcher, &batches, opts)
    };

    em_rt::set_threads(1);
    let single = run(StreamOptions::default());
    em_rt::set_threads(8);
    let pooled = run(StreamOptions::default());
    assert_outputs_bit_identical(&single, &pooled, "1 vs 8 threads");

    // Stressed scheduling: minimal backpressure window, single predict
    // worker — same bits.
    let tight = run(StreamOptions {
        max_in_flight: 1,
        predict_workers: 1,
    });
    assert_outputs_bit_identical(&single, &tight, "tight stream options");

    // Tracing on vs off: instrumentation must not feed back into results.
    let trace_path = std::env::temp_dir().join(format!(
        "em-serve-stream-trace-{}.jsonl",
        std::process::id()
    ));
    em_obs::set_mode(em_obs::TraceMode::File(
        trace_path.to_string_lossy().into_owned(),
    ));
    let traced = run(StreamOptions::default());
    em_obs::flush();
    em_obs::set_mode(em_obs::TraceMode::Off);
    assert_outputs_bit_identical(&single, &traced, "tracing on vs off");
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let _ = std::fs::remove_file(&trace_path);
    assert!(text.contains("serve.batch"), "serve spans in trace");
    assert!(
        text.contains("serve.pairs_scored"),
        "serve counters in trace"
    );

    em_rt::set_threads(4);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn live_telemetry_on_vs_off_leaves_streams_bit_identical() {
    let _guard = serialize();
    ensure_pool();
    let (ds, _, x, y) = fixture(17);
    let fitted = EmPipelineConfig::default_random_forest(17).fit(&x, &y);
    let attr = blocking_attr(&ds);
    let path = temp_path("stream-live");
    ModelArtifact::for_tables(FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b, fitted)
        .save(&path)
        .unwrap();
    let batches = batches_of(&ds.table_a, 6);
    let run = || {
        let mut matcher = Matcher::new(
            ModelArtifact::load(&path).unwrap(),
            ds.table_b.clone(),
            &attr,
            1,
        )
        .unwrap();
        run_stream(&mut matcher, &batches, StreamOptions::default())
    };

    let baseline = run(); // live telemetry off
    let server = em_serve::MetricsServer::start("127.0.0.1:0").expect("bind ephemeral port");
    let live = run();
    assert_outputs_bit_identical(&baseline, &live, "live telemetry on vs off");

    // The endpoint really observed the live run: every batch landed in the
    // windowed registry.
    let (code, body) = em_serve::http_get(server.addr(), "/metrics").expect("GET /metrics");
    assert_eq!(code, 200);
    assert!(
        body.contains(&format!("serve.batches.total {}", batches.len())),
        "{body}"
    );
    assert!(body.contains("serve.batch_ns.total.count"), "{body}");
    assert!(body.contains("serve.score_milli"), "{body}");
    let (code, slow) = em_serve::http_get(server.addr(), "/slow").expect("GET /slow");
    assert_eq!(code, 200);
    assert!(slow.contains("serve.requests"), "{slow}");

    drop(server); // disables live telemetry again
    let after = run();
    assert_outputs_bit_identical(&baseline, &after, "after endpoint shutdown");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn memo_cap_does_not_change_streamed_results() {
    let _guard = serialize();
    ensure_pool();
    let (ds, _, x, y) = fixture(13);
    let fitted = EmPipelineConfig::default_random_forest(13).fit(&x, &y);
    let attr = blocking_attr(&ds);
    let path = temp_path("stream-cap");
    ModelArtifact::for_tables(FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b, fitted)
        .save(&path)
        .unwrap();
    let batches = batches_of(&ds.table_a, 4);
    let run = |cap: Option<usize>| {
        let mut matcher = Matcher::new(
            ModelArtifact::load(&path).unwrap(),
            ds.table_b.clone(),
            &attr,
            1,
        )
        .unwrap();
        matcher.set_memo_cap(cap);
        run_stream(&mut matcher, &batches, StreamOptions::default())
    };
    let unbounded = run(None);
    let capped = run(Some(64));
    assert_outputs_bit_identical(&unbounded, &capped, "memo cap on vs off");
    let _ = std::fs::remove_file(&path);
}
