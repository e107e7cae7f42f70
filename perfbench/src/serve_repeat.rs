//! `serve_repeat`: an in-memory `Matcher::new` over the synthetic
//! Walmart-Amazon catalog (table B, 962 records, 68 features). The
//! queries are table A replayed for five passes, each pass in its own
//! seeded order, in batches of 4, streamed through `match_stream`. One
//! feeder thread keeps two batches outstanding: a closed loop.
//!
//! Repeat traffic: after the first pass every query value has been seen,
//! so memo hits leave prediction as the largest layer — the mirror of
//! `serve_store`. The only workload that runs the stream pipeline's
//! predict workers and emitter.
//!
//! `setup_s` is `ModelArtifact::load` + `Matcher::new`. Dataset synthesis
//! and the artifact's training are input generation and are not timed.

use crate::util::{
    digest_records, median, peak_rss_mib, ratio, reset_peak_rss, same_records, Counters, RunArgs,
    Spans, WorkDir,
};
use crate::{Layers, Outcome};
use automl_em::{EmPipelineConfig, FeatureCache, FeatureGenerator, FeatureScheme};
use em_data::Benchmark;
use em_rt::{derive_seed, Json, SliceRandom, StdRng};
use em_serve::{BatchOutput, IncrementalIndex, MatchRecord, Matcher, ModelArtifact, StreamOptions};
use em_table::{RecordPair, Table};
use std::time::Instant;

/// Batches the feeder keeps outstanding.
const OUTSTANDING: usize = 2;
const MIN_OVERLAP: usize = 1;

/// Workload size.
#[derive(Debug, Clone)]
pub struct RepeatSize {
    /// Fraction of the paper's Walmart-Amazon.
    pub scale: f64,
    /// Times table A is replayed.
    pub passes: usize,
    pub batch: usize,
    /// Setups timed per run (at least one per timed pass).
    pub setups: usize,
    /// Batches re-scored through the uncached reference path.
    pub check_batches: usize,
}

impl RepeatSize {
    pub fn full() -> Self {
        RepeatSize {
            scale: 1.0,
            passes: 5,
            batch: 4,
            setups: 9,
            check_batches: 32,
        }
    }
}

struct Inputs {
    catalog: Table,
    attribute: String,
    batches: Vec<Table>,
    artifact_path: String,
}

fn inputs(args: &RunArgs, size: &RepeatSize, work: &WorkDir) -> Result<Inputs, String> {
    let ds = Benchmark::WalmartAmazon.generate_scaled(args.seed, size.scale);
    let (a, b) = (&ds.table_a, &ds.table_b);
    let g = FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, a, b);
    let pairs: Vec<RecordPair> = ds.pairs.iter().map(|p| p.pair).collect();
    let x = g.generate(a, b, &pairs);
    let fitted = EmPipelineConfig::default_random_forest(args.seed).fit(&x, &ds.labels());
    let artifact_path = work
        .path()
        .join("artifact.json")
        .to_string_lossy()
        .into_owned();
    ModelArtifact::for_tables(FeatureScheme::AutoMlEm, a, b, fitted).save(&artifact_path)?;

    let mut batches = Vec::new();
    for pass in 0..size.passes {
        let mut order: Vec<usize> = (0..a.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(derive_seed(
            args.seed,
            pass as u64,
        )));
        for chunk in order.chunks(size.batch) {
            let mut t = Table::new(a.schema().clone());
            for &r in chunk {
                t.push_row(a.record(r).values().to_vec())
                    .map_err(|e| format!("{e:?}"))?;
            }
            batches.push(t);
        }
    }
    Ok(Inputs {
        attribute: a.schema().names()[0].to_string(),
        catalog: ds.table_b,
        batches,
        artifact_path,
    })
}

fn setup(inputs: &Inputs) -> Result<(Matcher, f64), String> {
    let catalog = inputs.catalog.clone();
    let t0 = Instant::now();
    let artifact = ModelArtifact::load(&inputs.artifact_path)?;
    let matcher = Matcher::new(artifact, catalog, &inputs.attribute, MIN_OVERLAP)?;
    Ok((matcher, t0.elapsed().as_secs_f64()))
}

struct Pass {
    wall_s: f64,
    latency_ns: Vec<u64>,
    digests: Vec<u64>,
    sampled: Vec<(usize, Vec<MatchRecord>)>,
    pairs: u64,
    matches: u64,
    /// Outputs that arrived out of order or not at all.
    lost: u64,
}

/// Stream every batch through `match_stream`. The feeder thread sends a
/// batch whenever fewer than [`OUTSTANDING`] are in flight and times each
/// from its send to the receipt of its `BatchOutput`.
fn run_pass(matcher: &mut Matcher, inputs: &Inputs, sampled: &[usize]) -> Pass {
    let n = inputs.batches.len();
    let mut to_send: Vec<Table> = inputs.batches.iter().rev().cloned().collect();
    let (query_tx, query_rx) = em_rt::channel::<Table>();
    let (result_tx, result_rx) = em_rt::channel::<BatchOutput>();
    let wall = Instant::now();
    let pass = std::thread::scope(|s| {
        let feeder = s.spawn(move || {
            let mut pass = Pass {
                wall_s: 0.0,
                latency_ns: vec![0; n],
                digests: vec![0; n],
                sampled: Vec::new(),
                pairs: 0,
                matches: 0,
                lost: 0,
            };
            let mut sent_at = Vec::with_capacity(n);
            let mut send = |sent_at: &mut Vec<Instant>| {
                if let Some(batch) = to_send.pop() {
                    sent_at.push(Instant::now());
                    query_tx
                        .send(batch)
                        .expect("matcher receives until the stream closes");
                }
            };
            for _ in 0..OUTSTANDING {
                send(&mut sent_at);
            }
            for expected in 0..n {
                let Some(out) = result_rx.recv() else {
                    pass.lost += (n - expected) as u64;
                    break;
                };
                let received = Instant::now();
                send(&mut sent_at);
                let seq = out.seq;
                if seq != expected {
                    pass.lost += 1;
                    continue;
                }
                pass.latency_ns[seq] = received.duration_since(sent_at[seq]).as_nanos() as u64;
                pass.digests[seq] = digest_records(&out.matches);
                pass.pairs += out.matches.len() as u64;
                pass.matches += out.matches.iter().filter(|m| m.is_match).count() as u64;
                if sampled.binary_search(&seq).is_ok() {
                    pass.sampled.push((seq, out.matches));
                }
            }
            query_tx.close();
            pass
        });
        matcher.match_stream(query_rx, result_tx, StreamOptions::default());
        feeder.join().expect("feeder thread panicked")
    });
    Pass {
        wall_s: wall.elapsed().as_secs_f64(),
        ..pass
    }
}

/// Re-score sampled batches through `FeatureGenerator::generate` +
/// `predict_with_scores` and count the batches whose records differ.
fn reference_check(inputs: &Inputs, pass: &Pass) -> Result<u64, String> {
    let artifact = ModelArtifact::load(&inputs.artifact_path)?;
    let generator = artifact.generator();
    let mut bad = 0;
    for (b, out) in &pass.sampled {
        let pairs: Vec<RecordPair> = out.iter().map(|m| m.pair).collect();
        let want: Vec<MatchRecord> = if pairs.is_empty() {
            Vec::new()
        } else {
            let x = generator.generate(&inputs.batches[*b], &inputs.catalog, &pairs);
            pairs
                .iter()
                .zip(artifact.pipeline.predict_with_scores(&x))
                .map(|(&pair, (score, is_match))| MatchRecord {
                    pair,
                    score,
                    is_match,
                })
                .collect()
        };
        if !same_records(out, &want) {
            bad += 1;
        }
    }
    Ok(bad)
}

pub fn run(args: &RunArgs, size: &RepeatSize) -> Result<Outcome, String> {
    let work = WorkDir::new(args)?;
    let inputs = inputs(args, size, &work)?;
    let n = inputs.batches.len();
    let sampled = crate::util::sample_indices(args.seed, n, size.check_batches);
    let hwm_window = reset_peak_rss();

    let mut setup_s = Vec::new();
    let throwaway = if args.trace {
        0
    } else {
        size.setups.saturating_sub(1)
    };
    for _ in 0..throwaway {
        setup_s.push(setup(&inputs)?.1);
    }
    let mut passes: Vec<Pass> = Vec::new();
    let mut used = 0.0;
    loop {
        let (mut matcher, secs) = setup(&inputs)?;
        setup_s.push(secs);
        let pass = run_pass(&mut matcher, &inputs, &sampled);
        used += secs + pass.wall_s;
        passes.push(pass);
        let per_pass = used / passes.len() as f64;
        if args.trace || used + per_pass > args.seconds {
            break;
        }
    }
    let peak = peak_rss_mib();

    let first = &passes[0];
    let mut failed = first.lost;
    let mut notes = Vec::new();
    if first.lost > 0 {
        notes.push(format!(
            "{} batch outputs were lost or out of order",
            first.lost
        ));
    }
    for p in &passes[1..] {
        let drift = p
            .digests
            .iter()
            .zip(&first.digests)
            .filter(|(a, b)| a != b)
            .count();
        if drift > 0 || p.lost > 0 {
            notes.push(format!(
                "a repeated pass drifted ({drift} batch outputs differ)"
            ));
            failed += 1;
        }
    }
    let mismatched = reference_check(&inputs, first)?;
    if mismatched > 0 {
        notes.push(format!(
            "{mismatched} sampled batches differ from the reference path"
        ));
    }
    failed += mismatched;

    let mut counters = Counters::new();
    counters.insert("batches".into(), n as u64);
    counters.insert(
        "queries".into(),
        inputs.batches.iter().map(|b| b.len() as u64).sum(),
    );
    counters.insert("pairs_scored".into(), first.pairs);
    counters.insert("matches".into(), first.matches);
    counters.insert(
        "output_digest".into(),
        crate::util::digest_all(&first.digests),
    );

    let attempted = (n * passes.len() + sampled.len()) as u64;
    let mut outcome = Outcome::new(attempted, failed, counters);
    outcome.notes = notes;
    let run_s: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    outcome.detail.push((
        "serve_repeat".into(),
        Json::obj([
            ("passes", Json::from(passes.len())),
            ("catalog_records", Json::from(inputs.catalog.len())),
            (
                "pairs_per_s",
                Json::from(first.pairs as f64 / median(&run_s)),
            ),
            (
                "setup_samples",
                Json::arr(setup_s.iter().map(|&v| Json::from(v))),
            ),
            ("outstanding", Json::from(OUTSTANDING)),
            ("peak_rss_window", Json::from(hwm_window)),
        ]),
    ));

    if !args.trace {
        let lat_ns: Vec<u64> = passes
            .iter()
            .flat_map(|p| p.latency_ns.iter().copied())
            .collect();
        let (metrics, lat) = crate::end_to_end(&setup_s, median(&run_s), &lat_ns, peak);
        outcome.metrics = metrics;
        outcome.detail.push(("op_latency".into(), lat));
        return Ok(outcome);
    }
    traced(args, &inputs, &work, first, &mut outcome)?;
    Ok(outcome)
}

/// Replay the stream batch by batch through the calls `match_batch` makes
/// on the in-memory path, and fill the per-layer metrics.
fn traced(
    args: &RunArgs,
    inputs: &Inputs,
    work: &WorkDir,
    timed: &Pass,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let trace_path = work.path().join("trace.jsonl");
    let mut spans = Spans::new("serve_repeat");
    let catalog = inputs.catalog.clone();
    crate::util::trace_on(&trace_path);

    let t0 = Instant::now();
    let artifact = ModelArtifact::load(&inputs.artifact_path)?;
    let load_s = t0.elapsed().as_secs_f64();
    let index = IncrementalIndex::build(inputs.attribute.as_str(), MIN_OVERLAP, &catalog)?;
    let mut cache = FeatureCache::for_serving(artifact.generator(), &catalog);
    let pipeline = artifact.pipeline;

    let mut mismatched = 0u64;
    let (mut queries, mut pairs_total) = (0u64, 0u64);
    let (mut pruned, mut capped) = (0u64, 0u64);
    let wall = Instant::now();
    for (b, batch) in inputs.batches.iter().enumerate() {
        let id = b as u64;
        let start = Instant::now();
        let (pairs, probe) = spans.time("index", id, || index.candidates_with_stats(batch, 0));
        pruned += probe.pruned_tokens;
        capped += probe.capped_queries;
        let features = spans.time("featcache", id, || {
            cache.rebind_left(batch);
            cache.generate(batch, &catalog, &pairs)
        });
        let out: Vec<MatchRecord> = if pairs.is_empty() {
            Vec::new()
        } else {
            let scored = spans.time("pipeline", id, || pipeline.predict_with_scores(&features));
            pairs
                .iter()
                .zip(scored)
                .map(|(&pair, (score, is_match))| MatchRecord {
                    pair,
                    score,
                    is_match,
                })
                .collect()
        };
        spans.push("batch", id, start, Instant::now());
        if digest_records(&out) != timed.digests[b] {
            mismatched += 1;
        }
        queries += batch.len() as u64;
        pairs_total += out.len() as u64;
    }
    let replay_wall = wall.elapsed().as_secs_f64();
    let memo_len = cache.memo_len();
    let counters = crate::util::trace_off(&trace_path)?;

    if mismatched > 0 {
        outcome.notes.push(format!(
            "{mismatched} replayed batches differ from the timed stream"
        ));
        outcome.failed += mismatched;
    }
    outcome.attempted += inputs.batches.len() as u64;
    crate::util::keep_counters(
        &counters,
        &["featcache.memo_misses", "featcache.profile_builds"],
        &mut outcome.counters,
    );
    outcome
        .counters
        .insert("memo_entries".into(), memo_len as u64);

    let batch_ns = spans.total_ns("batch") as f64;
    let layer_ns = ["index", "featcache", "pipeline"]
        .iter()
        .map(|l| spans.total_ns(l))
        .sum::<u64>() as f64;
    let c = |name: &str| counters.get(name).copied().unwrap_or(0);
    let hits = c("featcache.memo_hits");
    let misses = c("featcache.memo_misses");
    let spans_path = args
        .out_dir
        .join(format!("spans-serve_repeat-seed{}.jsonl", args.seed));
    spans.write_jsonl(&spans_path)?;
    outcome.metrics = crate::layer_metrics(Layers {
        featurize_ns_per_pair: spans.total_ns("featcache") as f64 / pairs_total.max(1) as f64,
        featcache_share: spans.total_ns("featcache") as f64 / batch_ns,
        memo_hit_ratio: ratio(hits, hits + misses),
        memo_misses: misses,
        profile_builds: c("featcache.profile_builds"),
        probe_ns_per_query: spans.total_ns("index") as f64 / queries as f64,
        index_share: spans.total_ns("index") as f64 / batch_ns,
        candidates_per_query: pairs_total as f64 / queries as f64,
        pruned_tokens: pruned,
        capped_queries: capped,
        predict_ns_per_pair: spans.total_ns("pipeline") as f64 / pairs_total.max(1) as f64,
        predict_share: spans.total_ns("pipeline") as f64 / batch_ns,
        load_s,
        overhead_share: (batch_ns - layer_ns) / batch_ns,
        repeat_share: crate::util::repeat_share(&inputs.batches),
        traced_wall_s: replay_wall,
        untraced_wall_s: timed.wall_s,
        ..Layers::default()
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
