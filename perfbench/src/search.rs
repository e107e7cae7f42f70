//! `search`: SMAC pipeline search through `AutoMlEm::fit` with default
//! options (`candidate_batch` 1, search seed 0) and a fixed evaluation
//! budget, on synthetic Walmart-Amazon at half scale (~5.1k labelled
//! pairs, 68 Table-II features). The seed picks the dataset.
//!
//! Timed run: `setup_s` is `PreparedDataset::prepare`, `run_s` is the
//! wall time of `AutoMlEm::fit`, and the operations behind `op_p50_ms` /
//! `op_p90_ms` are the searched model's decisions on batches of about 128
//! labelled pairs — what the search's product costs to use. A timed run
//! searches two datasets (the seed's and one derived from it) and reports
//! the mean over the two of the search time and of each model's decision
//! quantiles.
//!
//! Traced run: the search is replayed with `run_search_with_initial`,
//! `SmacSearch::default()`, `build_space` and `default_configuration`, the
//! objective timing `decode_configuration` + fit apart from the F1 score,
//! followed by the default-forest guard and the refit that `AutoMlEm::fit`
//! performs. Every trial score must equal the timed run's history.

use crate::util::{
    median, ns_since, peak_rss_mib, ratio, reset_peak_rss, Counters, Latency, RunArgs, Spans,
};
use crate::{Metric, Outcome};
use automl_em::{
    build_space, decode_configuration, default_configuration, AutoMlEm, AutoMlEmOptions,
    AutoMlEmResult, EmPipelineConfig, FeatureScheme, PreparedDataset,
};
use em_automl::{run_search_with_initial, Budget, SmacSearch};
use em_data::{Benchmark, EmDataset};
use em_ml::{f1_score, Matrix};
use em_rt::{derive_seed, Json};
use std::time::Instant;

/// Workload size.
#[derive(Debug, Clone)]
pub struct SearchSize {
    /// Fraction of the paper's Walmart-Amazon (10,242 pairs).
    pub scale: f64,
    /// Objective evaluations, the warm-start default included.
    pub evaluations: usize,
    /// Timed `prepare` calls whose median is `setup_s`.
    pub setups: usize,
    /// Labelled pairs per timed decision batch.
    pub decision_batch: usize,
    /// Datasets searched per timed run; `run_s` is their mean search
    /// time. SMAC's trajectory, and so its cost, depends on the data, so
    /// one dataset per run leaves the figure too seed-dependent.
    pub datasets: usize,
}

impl SearchSize {
    pub fn full() -> Self {
        SearchSize {
            scale: 0.5,
            evaluations: 10,
            setups: 16,
            decision_batch: 128,
            datasets: 2,
        }
    }
}

/// Decision batches timed per searched model.
const MIN_OPS: usize = 1024;

fn options(evaluations: usize) -> AutoMlEmOptions {
    AutoMlEmOptions {
        budget: Budget::Evaluations(evaluations),
        ..AutoMlEmOptions::default()
    }
}

struct Splits {
    xt: Matrix,
    yt: Vec<usize>,
    xv: Matrix,
    yv: Vec<usize>,
    xs: Matrix,
    ys: Vec<usize>,
}

fn splits(prep: &PreparedDataset) -> Splits {
    let (xt, yt) = prep.train();
    let (xv, yv) = prep.valid();
    let (xs, ys) = prep.test();
    Splits {
        xt,
        yt,
        xv,
        yv,
        xs,
        ys,
    }
}

/// Dataset `k` of a run: the first comes from the seed itself, further
/// ones from seeds derived from it.
fn dataset(args: &RunArgs, size: &SearchSize, k: usize) -> EmDataset {
    let seed = if k == 0 {
        args.seed
    } else {
        derive_seed(args.seed, k as u64)
    };
    Benchmark::WalmartAmazon.generate_scaled(seed, size.scale)
}

/// Bit patterns of every trial score, in evaluation order.
fn trial_bits(result: &AutoMlEmResult) -> Vec<u64> {
    result
        .history
        .trials()
        .iter()
        .map(|t| t.score.to_bits())
        .collect()
}

/// One dataset's timed work: its setups, the search, and the searched
/// model's decisions.
struct Pass {
    setup_s: Vec<f64>,
    search_s: f64,
    decision_ns: Vec<u64>,
    prep: PreparedDataset,
    result: AutoMlEmResult,
    /// One (score, decision) per labelled pair, from the timed batches.
    decisions: Vec<(f64, bool)>,
}

fn run_pass(ds: &EmDataset, size: &SearchSize, setups: usize) -> Pass {
    let seed = options(size.evaluations).seed;
    let mut setup_s = Vec::new();
    let mut prep = None;
    for _ in 0..setups.max(1) {
        let t = Instant::now();
        let p = PreparedDataset::prepare(ds, FeatureScheme::AutoMlEm, seed);
        setup_s.push(t.elapsed().as_secs_f64());
        prep = Some(p);
    }
    let prep = prep.expect("at least one setup ran");
    let s = splits(&prep);

    let t = Instant::now();
    let result = AutoMlEm::new(options(size.evaluations)).fit(&s.xt, &s.yt, &s.xv, &s.yv);
    let search_s = t.elapsed().as_secs_f64();

    // Decisions of the searched model on near-equal batches of about
    // `decision_batch` labelled pairs, over every pair, repeated until at
    // least `MIN_OPS` batches are timed. The batch matrices are inputs,
    // built before timing.
    let n = prep.features.nrows();
    let m = n.div_ceil(size.decision_batch);
    let batches: Vec<Matrix> = (0..m)
        .map(|i| {
            let rows: Vec<usize> = (i * n / m..(i + 1) * n / m).collect();
            prep.features.select_rows(&rows)
        })
        .collect();
    let rounds = MIN_OPS.div_ceil(m);
    let mut decision_ns = Vec::with_capacity(rounds * m);
    let mut decisions = Vec::with_capacity(n);
    for round in 0..rounds {
        for x in &batches {
            let t = Instant::now();
            let out = result.fitted.predict_with_scores(x);
            decision_ns.push(ns_since(t));
            if round == 0 {
                decisions.extend(out);
            }
        }
    }
    Pass {
        setup_s,
        search_s,
        decision_ns,
        prep,
        result,
        decisions,
    }
}

/// Output checks of one pass, outside the timed phases. Returns the
/// number of failed checks and adds a note for each.
fn check_pass(pass: &Pass, size: &SearchSize, notes: &mut Vec<String>) -> u64 {
    let (prep, result) = (&pass.prep, &pass.result);
    let s = splits(prep);
    let mut failed = 0u64;
    if result.history.len() != size.evaluations {
        notes.push(format!(
            "search ran {} evaluations, budget {}",
            result.history.len(),
            size.evaluations
        ));
        failed += 1;
    }
    let whole = result.fitted.predict_with_scores(&prep.features);
    let decision_mismatches = whole
        .iter()
        .zip(&pass.decisions)
        .filter(|(a, b)| a.0.to_bits() != b.0.to_bits() || a.1 != b.1)
        .count()
        + whole.len().abs_diff(pass.decisions.len());
    if decision_mismatches > 0 {
        notes.push(format!(
            "{decision_mismatches} batched decisions differ from the whole-matrix prediction"
        ));
    }
    failed += decision_mismatches as u64;
    let test_f1 = f1_score(&s.ys, &result.fitted.predict(&s.xs));
    let test_from_decisions: Vec<usize> = prep
        .split
        .test
        .iter()
        .map(|&i| usize::from(pass.decisions[i].1))
        .collect();
    if f1_score(&s.ys, &test_from_decisions).to_bits() != test_f1.to_bits() {
        notes.push("test F1 from the batched decisions differs from result.fitted".into());
        failed += 1;
    }
    failed
}

/// Exact counters of one pass, suffixed with its dataset index.
fn pass_counters(pass: &Pass, k: usize, counters: &mut Counters) {
    let (prep, result) = (&pass.prep, &pass.result);
    let s = splits(prep);
    let test_f1 = f1_score(&s.ys, &result.fitted.predict(&s.xs));
    let mut trials = crate::util::Digest::default();
    for b in trial_bits(result) {
        trials.u64(b);
    }
    let mut decisions = crate::util::Digest::default();
    for (score, is_match) in &pass.decisions {
        decisions.u64(score.to_bits());
        decisions.u64(u64::from(*is_match));
    }
    for (name, value) in [
        ("pairs", prep.labels.len() as u64),
        ("features", prep.features.ncols() as u64),
        ("trials", result.history.len() as u64),
        ("decision_batches", pass.decision_ns.len() as u64),
        ("decisions_digest", decisions.value()),
        ("test_f1_bits", test_f1.to_bits()),
        ("validation_f1_bits", result.validation_f1.to_bits()),
        ("trial_scores_digest", trials.value()),
    ] {
        counters.insert(format!("{name}.{k}"), value);
    }
}

pub fn run(args: &RunArgs, size: &SearchSize) -> Result<Outcome, String> {
    // The traced run replays one search, so it needs only one dataset.
    let datasets: Vec<EmDataset> = (0..if args.trace { 1 } else { size.datasets.max(1) })
        .map(|k| dataset(args, size, k))
        .collect();
    let hwm_window = reset_peak_rss();
    let setups_each = size.setups.div_ceil(datasets.len());
    let passes: Vec<Pass> = datasets
        .iter()
        .map(|ds| run_pass(ds, size, setups_each))
        .collect();
    let peak = peak_rss_mib();

    let mut notes = Vec::new();
    let mut counters = Counters::new();
    let mut failed = 0;
    for (k, pass) in passes.iter().enumerate() {
        failed += check_pass(pass, size, &mut notes);
        pass_counters(pass, k, &mut counters);
    }
    let attempted = passes
        .iter()
        .map(|p| (p.result.history.len() + p.decision_ns.len()) as u64)
        .sum();
    let mut outcome = Outcome::new(attempted, failed, counters);
    outcome.notes = notes;
    let setup_s: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    let search_s: Vec<f64> = passes.iter().map(|p| p.search_s).collect();
    outcome.detail.push((
        "search".into(),
        Json::obj([
            (
                "search_s",
                Json::arr(search_s.iter().map(|&v| Json::from(v))),
            ),
            (
                "best_pipelines",
                Json::arr(
                    passes
                        .iter()
                        .map(|p| Json::from(format!("{:?}", p.result.best_pipeline.classifier))),
                ),
            ),
            (
                "trial_scores",
                Json::arr(passes.iter().map(|p| {
                    Json::arr(
                        p.result
                            .history
                            .trials()
                            .iter()
                            .map(|t| Json::from(t.score)),
                    )
                })),
            ),
            (
                "setup_samples",
                Json::arr(setup_s.iter().map(|&v| Json::from(v))),
            ),
            ("peak_rss_window", Json::from(hwm_window)),
        ]),
    ));

    if !args.trace {
        // Each dataset's searched model is a different pipeline, so the
        // quantiles are taken per model and averaged, like the search time.
        let lats: Vec<Latency> = passes.iter().map(|p| Latency::of(&p.decision_ns)).collect();
        let mean = |f: fn(&Latency) -> f64| lats.iter().map(f).sum::<f64>() / lats.len() as f64;
        let run_s = search_s.iter().sum::<f64>() / search_s.len() as f64;
        outcome.metrics = vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("run_s", run_s, "s"),
            Metric::new("op_p50_ms", mean(|l| l.p50_ms), "ms"),
            Metric::new("op_p90_ms", mean(|l| l.p90_ms), "ms"),
            Metric::new("peak_rss_mib", peak.unwrap_or(0.0), "MiB"),
        ];
        outcome.detail.push((
            "op_latency".into(),
            Json::arr(lats.iter().map(Latency::to_json)),
        ));
        return Ok(outcome);
    }
    let pass = &passes[0];
    traced(
        args,
        size,
        &datasets[0],
        &pass.result,
        pass.search_s,
        &mut outcome,
    )?;
    Ok(outcome)
}

/// Replay the search layer by layer and fill the per-layer metrics.
fn traced(
    args: &RunArgs,
    size: &SearchSize,
    ds: &EmDataset,
    timed: &AutoMlEmResult,
    untraced_wall_s: f64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let opts = options(size.evaluations);
    let seed = opts.seed;
    let trace_path = args
        .out_dir
        .join(format!("trace-search-{}.jsonl", std::process::id()));
    let mut spans = Spans::new("search");
    crate::util::trace_on(&trace_path);

    let prep = spans.time("featcache.prepare", 0, || {
        PreparedDataset::prepare(ds, FeatureScheme::AutoMlEm, seed)
    });
    let s = splits(&prep);
    let space = build_space(opts.space);
    let mut algo = SmacSearch::default();
    let warm_start = [default_configuration(opts.space)];
    let wall = Instant::now();
    let mut trial = 0u64;
    let mut objective = |config: &em_automl::Configuration| -> f64 {
        let t0 = Instant::now();
        let fitted = decode_configuration(config, seed).fit(&s.xt, &s.yt);
        let t1 = Instant::now();
        let score = fitted.f1(&s.xv, &s.yv);
        let t2 = Instant::now();
        spans.push("pipeline.fit", trial, t0, t1);
        spans.push("pipeline.score", trial, t1, t2);
        trial += 1;
        score
    };
    let history = run_search_with_initial(
        &space,
        &mut algo,
        &mut objective,
        opts.budget,
        seed,
        &warm_start,
    );
    let search_ns = ns_since(wall);
    // The default-forest guard and the refit, as `AutoMlEm::fit` runs them.
    let guard_id = history.len() as u64;
    let default_pipeline = EmPipelineConfig::default_random_forest(seed);
    let guard = spans.time("pipeline.fit", guard_id, || {
        default_pipeline.fit(&s.xt, &s.yt)
    });
    let guard_f1 = spans.time("pipeline.score", guard_id, || guard.f1(&s.xv, &s.yv));
    let incumbent = history
        .incumbent()
        .ok_or("replayed search recorded no trials")?;
    let best = if guard_f1 > incumbent.score {
        default_pipeline
    } else {
        decode_configuration(&incumbent.config, seed)
    };
    let x_all = s.xt.vstack(&s.xv);
    let mut y_all = s.yt.clone();
    y_all.extend_from_slice(&s.yv);
    let fitted = spans.time("pipeline.refit", guard_id, || best.fit(&x_all, &y_all));
    let traced_wall_ns = ns_since(wall);
    let counters = crate::util::trace_off(&trace_path)?;
    let _ = std::fs::remove_file(&trace_path);

    // The replay must reproduce the timed search bit for bit.
    let replayed: Vec<u64> = history.trials().iter().map(|t| t.score.to_bits()).collect();
    let expected = trial_bits(timed);
    let trial_mismatches = replayed
        .iter()
        .zip(&expected)
        .filter(|(a, b)| a != b)
        .count()
        + replayed.len().abs_diff(expected.len());
    if trial_mismatches > 0 {
        outcome.notes.push(format!(
            "{trial_mismatches} replayed trial scores differ from the timed search"
        ));
        outcome.failed += trial_mismatches as u64;
    }
    let test_f1 = f1_score(&s.ys, &fitted.predict(&s.xs));
    if test_f1.to_bits() != f1_score(&s.ys, &timed.fitted.predict(&s.xs)).to_bits() {
        outcome
            .notes
            .push("replayed refit scores another test F1".into());
        outcome.failed += 1;
    }
    outcome.attempted += history.len() as u64;
    crate::util::keep_counters(
        &counters,
        &[
            "featcache.memo_misses",
            "featcache.profile_builds",
            "tree.nodes",
            "tree.exact_fits",
            "tree.binned_fits",
            "smbo.surrogate_refits",
        ],
        &mut outcome.counters,
    );

    let fit_ns = spans.total_ns("pipeline.fit");
    let score_ns = spans.total_ns("pipeline.score");
    let guard_ns = spans.total_ns_for("pipeline.fit", guard_id)
        + spans.total_ns_for("pipeline.score", guard_id);
    let objective_ns = fit_ns + score_ns - guard_ns;
    let suggest_ns = search_ns.saturating_sub(objective_ns);
    let wall_ns = traced_wall_ns as f64;
    let c = |name: &str| counters.get(name).copied().unwrap_or(0);
    let hits = c("featcache.memo_hits");
    let misses = c("featcache.memo_misses");
    let prepare_ns = spans.total_ns("featcache.prepare");
    let spans_path = args
        .out_dir
        .join(format!("spans-search-seed{}.jsonl", args.seed));
    spans.write_jsonl(&spans_path)?;

    outcome.metrics = crate::layer_metrics(crate::Layers {
        featurize_ns_per_pair: prepare_ns as f64 / prep.labels.len() as f64,
        memo_hit_ratio: ratio(hits, hits + misses),
        memo_misses: misses,
        profile_builds: c("featcache.profile_builds"),
        prepare_s: prepare_ns as f64 / 1e9,
        fit_s: fit_ns as f64 / 1e9,
        fit_share: fit_ns as f64 / wall_ns,
        score_s: score_ns as f64 / 1e9,
        refit_s: spans.total_ns("pipeline.refit") as f64 / 1e9,
        tree_nodes: c("tree.nodes"),
        tree_exact_fits: c("tree.exact_fits"),
        tree_binned_fits: c("tree.binned_fits"),
        suggest_s: suggest_ns as f64 / 1e9,
        smbo_share: suggest_ns as f64 / wall_ns,
        trials: history.len() as u64,
        surrogate_refits: c("smbo.surrogate_refits"),
        traced_wall_s: wall_ns / 1e9,
        untraced_wall_s,
        ..crate::Layers::default()
    });
    outcome.detail.push((
        "trace_counters".into(),
        crate::util::counters_json(&counters),
    ));
    outcome.detail.push((
        "spans_file".into(),
        Json::from(spans_path.to_string_lossy().into_owned()),
    ));
    Ok(())
}
