//! `serve_store`: a store-backed `Matcher::with_store` over a
//! `ScaleCatalog`, with rows in a `CatalogStore` and a WAL-backed
//! `PersistentIndex`. Probes are bounded (`top_k` 64, `max_posting` 4096).
//! The query stream is `ScaleCatalog::queries` (half noisy lookups, half
//! fresh values). One client runs a closed loop: `match_batch` on a batch
//! of 16, then one seeded `Matcher::retire`.
//!
//! Cold traffic: nearly every query value is new, so featurization
//! dominates the batch. The only workload that runs catalog fetch, WAL
//! writes beside reads, and a persisted reopen during setup.
//!
//! `setup_s` is catalog ingest + commit + index snapshot + reopen +
//! `ModelArtifact::load` + `with_store`. Catalog synthesis and the
//! artifact's training are input generation and are not timed.

use crate::util::{
    digest_records, median, ns_since, peak_rss_mib, ratio, reset_peak_rss, same_records, Counters,
    RunArgs, Spans, WorkDir,
};
use crate::{Layers, Outcome};
use automl_em::{EmPipelineConfig, FeatureCache, FeatureGenerator, FeatureScheme};
use em_data::{CatalogSpec, ScaleCatalog};
use em_rt::{derive_seed, Json, StdRng};
use em_serve::{
    CatalogStore, IncrementalIndex, IndexOptions, MatchRecord, Matcher, ModelArtifact,
    PersistentIndex, ProbeStats, DEFAULT_SHARD_SPAN,
};
use em_table::{RecordPair, Table, Value};
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

const TOP_K: usize = 64;
const MAX_POSTING: usize = 4096;
const MIN_OVERLAP: usize = 2;
/// Rows appended between store commits during ingest.
const COMMIT_EVERY: usize = 8192;
/// Catalog rows behind the artifact's training sample.
const TRAIN_RECORDS: usize = 2000;
/// Query-stream offset of the training queries, far from served traffic.
const TRAIN_QUERY_OFFSET: usize = 1_000_000;

/// Workload size.
#[derive(Debug, Clone)]
pub struct StoreSize {
    pub records: usize,
    pub batches: usize,
    pub batch: usize,
    /// Training queries for the artifact (top-k candidates each).
    pub train_queries: usize,
    /// Setups timed per run (at least one per pass).
    pub setups: usize,
    /// Batches re-scored through the uncached reference path.
    pub check_batches: usize,
}

impl StoreSize {
    pub fn full() -> Self {
        StoreSize {
            records: 100_000,
            batches: 1024,
            batch: 16,
            train_queries: 200,
            setups: 2,
            check_batches: 16,
        }
    }
}

/// Generated inputs: the catalog, the query batches, one row to retire
/// after each batch, and the saved artifact.
struct Inputs {
    catalog: Table,
    batches: Vec<Table>,
    retires: Vec<usize>,
    artifact_path: String,
}

fn index_options() -> IndexOptions {
    IndexOptions {
        min_overlap: MIN_OVERLAP,
        shard_span: DEFAULT_SHARD_SPAN,
        top_k: Some(TOP_K),
        max_posting: Some(MAX_POSTING),
    }
}

fn text(t: &Table, row: usize) -> &str {
    match t.cell(row, 0) {
        Value::Text(s) => s,
        _ => "",
    }
}

fn token_jaccard(a: &str, b: &str) -> f64 {
    let sa: HashSet<&str> = a.split_whitespace().collect();
    let sb: HashSet<&str> = b.split_whitespace().collect();
    let inter = sa.intersection(&sb).count();
    let union = sa.len() + sb.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Train the served model on a sample of the same catalog family: bounded
/// candidates of held-apart queries, labelled duplicate when their token
/// Jaccard reaches 0.5, fitted with the default random forest.
fn train_artifact(seed: u64, size: &StoreSize, path: &str) -> Result<(), String> {
    let sample = ScaleCatalog::new(CatalogSpec {
        records: TRAIN_RECORDS.min(size.records),
        seed,
        ..CatalogSpec::default()
    });
    let tb = sample.table();
    let ta = sample.queries(TRAIN_QUERY_OFFSET, size.train_queries);
    let index = IncrementalIndex::build_with_options("name", index_options(), &tb)?;
    let pairs = index.candidates(&ta, 0);
    let mut y: Vec<usize> = pairs
        .iter()
        .map(|p| usize::from(token_jaccard(text(&ta, p.left), text(&tb, p.right)) >= 0.5))
        .collect();
    let positives: usize = y.iter().sum();
    if positives == 0 || positives == y.len() {
        // A one-class fit would be useless: call the first pair of each
        // class the other way so both classes exist.
        y[0] = 1 - y[0];
    }
    let g = FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &ta, &tb);
    let x = g.generate(&ta, &tb, &pairs);
    let fitted = EmPipelineConfig::default_random_forest(seed).fit(&x, &y);
    ModelArtifact::for_tables(FeatureScheme::AutoMlEm, &ta, &tb, fitted).save(path)
}

fn inputs(args: &RunArgs, size: &StoreSize, work: &WorkDir) -> Result<Inputs, String> {
    let cat = ScaleCatalog::new(CatalogSpec {
        records: size.records,
        seed: args.seed,
        ..CatalogSpec::default()
    });
    let catalog = cat.table();
    let batches = (0..size.batches)
        .map(|b| cat.queries(b * size.batch, size.batch))
        .collect();
    let mut rng = StdRng::seed_from_u64(derive_seed(args.seed, 0x7E71));
    let retires = (0..size.batches)
        .map(|_| rng.random_range(0..size.records))
        .collect();
    let artifact_path = work
        .path()
        .join("artifact.json")
        .to_string_lossy()
        .into_owned();
    train_artifact(args.seed, size, &artifact_path)?;
    Ok(Inputs {
        catalog,
        batches,
        retires,
        artifact_path,
    })
}

/// Wall time of each setup step, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    ingest: f64,
    snapshot: f64,
    reopen: f64,
    load: f64,
    assemble: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.ingest + self.snapshot + self.reopen + self.load + self.assemble
    }
}

/// Ingest the catalog into a fresh store + index under `dir`, commit,
/// snapshot the index, and drop both: the on-disk state a serving process
/// starts from.
fn ingest_and_snapshot(catalog: &Table, dir: &Path, t: &mut SetupTimes) -> Result<(), String> {
    let t0 = Instant::now();
    let mut store = CatalogStore::create(dir.join("catalog"), catalog.schema().clone())?;
    let mut index = IncrementalIndex::with_options("name", index_options());
    for rec in catalog.records() {
        store.append_row(rec.values())?;
        index.upsert(rec.index(), Some(text(catalog, rec.index())));
        if (rec.index() + 1) % COMMIT_EVERY == 0 {
            store.commit()?;
        }
    }
    store.commit()?;
    drop(store);
    t.ingest = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    drop(PersistentIndex::create(dir.join("index"), index)?);
    t.snapshot = t0.elapsed().as_secs_f64();
    Ok(())
}

/// One full setup, as a serving process runs it.
fn setup(inputs: &Inputs, dir: &Path) -> Result<(Matcher, SetupTimes), String> {
    let mut t = SetupTimes::default();
    ingest_and_snapshot(&inputs.catalog, dir, &mut t)?;
    let t0 = Instant::now();
    let store = CatalogStore::open(dir.join("catalog"))?;
    let index = PersistentIndex::open(dir.join("index"))?;
    t.reopen = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let artifact = ModelArtifact::load(&inputs.artifact_path)?;
    t.load = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut matcher = Matcher::with_store(artifact, store, index)?;
    // Probe bounds are runtime tuning, not on-disk state.
    matcher.set_probe_limits(Some(TOP_K), Some(MAX_POSTING));
    t.assemble = t0.elapsed().as_secs_f64();
    Ok((matcher, t))
}

/// What one pass of the closed loop produced.
struct Pass {
    wall_s: f64,
    latency_ns: Vec<u64>,
    digests: Vec<u64>,
    /// Outputs of the batches picked for the reference check.
    sampled: Vec<(usize, Vec<MatchRecord>)>,
    pairs: u64,
    matches: u64,
    /// Candidates naming a row retired by an earlier batch, or over top_k.
    violations: u64,
    retire_errors: u64,
    probe: ProbeStats,
    rows_read: u64,
    rows_requested: u64,
}

/// Count candidates that name a retired row or exceed `top_k` per query.
fn violations(out: &[MatchRecord], retired: &HashSet<usize>) -> u64 {
    let mut per_query = std::collections::HashMap::<usize, usize>::new();
    let mut bad = 0;
    for m in out {
        if retired.contains(&m.pair.right) {
            bad += 1;
        }
        let n = per_query.entry(m.pair.left).or_default();
        *n += 1;
        if *n > TOP_K {
            bad += 1;
        }
    }
    bad
}

fn run_pass(matcher: &mut Matcher, inputs: &Inputs, sampled: &[usize]) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        latency_ns: Vec::with_capacity(inputs.batches.len()),
        digests: Vec::with_capacity(inputs.batches.len()),
        sampled: Vec::new(),
        pairs: 0,
        matches: 0,
        violations: 0,
        retire_errors: 0,
        probe: ProbeStats::default(),
        rows_read: 0,
        rows_requested: 0,
    };
    let mut retired = HashSet::new();
    let wall = Instant::now();
    for (b, batch) in inputs.batches.iter().enumerate() {
        let t = Instant::now();
        let out = matcher.match_batch(batch);
        pass.latency_ns.push(ns_since(t));
        pass.digests.push(digest_records(&out));
        pass.pairs += out.len() as u64;
        pass.matches += out.iter().filter(|m| m.is_match).count() as u64;
        pass.violations += violations(&out, &retired);
        if sampled.binary_search(&b).is_ok() {
            pass.sampled.push((b, out));
        }
        let row = inputs.retires[b];
        if matcher.retire(row).is_err() {
            pass.retire_errors += 1;
        }
        retired.insert(row);
    }
    pass.wall_s = wall.elapsed().as_secs_f64();
    pass.probe = matcher.probe_totals();
    let fetch = matcher.fetch_totals();
    pass.rows_read = fetch.rows_read;
    pass.rows_requested = fetch.requested;
    pass
}

/// Re-score sampled batches through the uncached reference path
/// (`FeatureGenerator::generate` + `predict_with_scores` on the generated
/// catalog rows) and count the batches whose records differ.
fn reference_check(inputs: &Inputs, pass: &Pass) -> Result<u64, String> {
    let artifact = ModelArtifact::load(&inputs.artifact_path)?;
    let generator = artifact.generator();
    let mut bad = 0;
    for (b, out) in &pass.sampled {
        let queries = &inputs.batches[*b];
        let mut rows: Vec<usize> = out.iter().map(|m| m.pair.right).collect();
        rows.sort_unstable();
        rows.dedup();
        let mut slice = Table::new(inputs.catalog.schema().clone());
        for &r in &rows {
            slice
                .push_row(inputs.catalog.record(r).values().to_vec())
                .map_err(|e| format!("{e:?}"))?;
        }
        let local: Vec<RecordPair> = out
            .iter()
            .map(|m| RecordPair::new(m.pair.left, rows.binary_search(&m.pair.right).unwrap_or(0)))
            .collect();
        let want: Vec<MatchRecord> = if local.is_empty() {
            Vec::new()
        } else {
            let x = generator.generate(queries, &slice, &local);
            out.iter()
                .zip(artifact.pipeline.predict_with_scores(&x))
                .map(|(m, (score, is_match))| MatchRecord {
                    pair: m.pair,
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

pub fn run(args: &RunArgs, size: &StoreSize) -> Result<Outcome, String> {
    let work = WorkDir::new(args)?;
    let inputs = inputs(args, size, &work)?;
    let sampled = crate::util::sample_indices(args.seed, size.batches, size.check_batches);
    let hwm_window = reset_peak_rss();

    let mut setups: Vec<SetupTimes> = Vec::new();
    // Throwaway setups first, so every timed run times at least
    // `size.setups` of them. The traced run needs only its pass's.
    let throwaway = if args.trace {
        0
    } else {
        size.setups.saturating_sub(1)
    };
    for i in 0..throwaway {
        let dir = work.fresh(&format!("setup{i}"));
        let (matcher, t) = setup(&inputs, &dir)?;
        drop(matcher);
        let _ = std::fs::remove_dir_all(&dir);
        setups.push(t);
    }
    let mut passes: Vec<Pass> = Vec::new();
    let mut used = 0.0;
    loop {
        let dir = work.fresh(&format!("pass{}", passes.len()));
        let (mut matcher, t) = setup(&inputs, &dir)?;
        setups.push(t);
        let pass = run_pass(&mut matcher, &inputs, &sampled);
        drop(matcher);
        let _ = std::fs::remove_dir_all(&dir);
        used += t.total() + pass.wall_s;
        passes.push(pass);
        let per_pass = used / passes.len() as f64;
        if args.trace || used + per_pass > args.seconds {
            break;
        }
    }
    let peak = peak_rss_mib();

    // Checks, outside the timed phases: every pass must produce the same
    // outputs and counters, and sampled batches must match the reference.
    let first = &passes[0];
    let mut failed = first.violations + first.retire_errors;
    let mut notes = Vec::new();
    if first.violations > 0 {
        notes.push(format!(
            "{} candidates broke retire or top_k",
            first.violations
        ));
    }
    for p in &passes[1..] {
        let drift = p
            .digests
            .iter()
            .zip(&first.digests)
            .filter(|(a, b)| a != b)
            .count();
        if drift > 0 || p.rows_requested != first.rows_requested || p.probe != first.probe {
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
    counters.insert("batches".into(), size.batches as u64);
    counters.insert("pairs_scored".into(), first.pairs);
    counters.insert("matches".into(), first.matches);
    counters.insert("rows_gathered".into(), first.rows_requested);
    counters.insert("pruned_tokens".into(), first.probe.pruned_tokens);
    counters.insert("capped_queries".into(), first.probe.capped_queries);
    counters.insert(
        "wal_records".into(),
        (size.batches as u64) - first.retire_errors,
    );
    counters.insert(
        "output_digest".into(),
        crate::util::digest_all(&first.digests),
    );

    let attempted = (size.batches * passes.len()) as u64 + sampled.len() as u64;
    let mut outcome = Outcome::new(attempted, failed, counters);
    outcome.notes = notes;
    let lat_ns: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.latency_ns.iter().copied())
        .collect();
    let run_s: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let setup_s: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    outcome.detail.push((
        "serve_store".into(),
        Json::obj([
            ("passes", Json::from(passes.len())),
            // Disk reads depend on the hot-row cache's admission order,
            // which follows a HashMap's iteration order and so differs
            // between processes: reported, not part of the exact set.
            ("rows_read", Json::from(first.rows_read)),
            (
                "pairs_per_s",
                Json::from(first.pairs as f64 / median(&run_s)),
            ),
            (
                "setup_samples",
                Json::arr(setup_s.iter().map(|&v| Json::from(v))),
            ),
            (
                "ingest_s",
                Json::from(median(&setups.iter().map(|t| t.ingest).collect::<Vec<_>>())),
            ),
            (
                "snapshot_s",
                Json::from(median(
                    &setups.iter().map(|t| t.snapshot).collect::<Vec<_>>(),
                )),
            ),
            (
                "reopen_s",
                Json::from(median(&setups.iter().map(|t| t.reopen).collect::<Vec<_>>())),
            ),
            (
                "load_s",
                Json::from(median(&setups.iter().map(|t| t.load).collect::<Vec<_>>())),
            ),
            ("peak_rss_window", Json::from(hwm_window)),
        ]),
    ));

    if !args.trace {
        let (metrics, lat) = crate::end_to_end(&setup_s, median(&run_s), &lat_ns, peak);
        outcome.metrics = metrics;
        outcome.detail.push(("op_latency".into(), lat));
        return Ok(outcome);
    }
    traced(args, &inputs, &work, first, &mut outcome)?;
    Ok(outcome)
}

/// Replay the timed pass through each layer's public functions, in the
/// order `match_batch` calls them, and fill the per-layer metrics.
fn traced(
    args: &RunArgs,
    inputs: &Inputs,
    work: &WorkDir,
    timed: &Pass,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let trace_path = work.path().join("trace.jsonl");
    let dir = work.fresh("replay");
    let mut spans = Spans::new("serve_store");
    crate::util::trace_on(&trace_path);

    let mut t = SetupTimes::default();
    ingest_and_snapshot(&inputs.catalog, &dir, &mut t)?;
    let t0 = Instant::now();
    let mut store = CatalogStore::open(dir.join("catalog"))?;
    let mut index = PersistentIndex::open(dir.join("index"))?;
    t.reopen = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let artifact = ModelArtifact::load(&inputs.artifact_path)?;
    t.load = t0.elapsed().as_secs_f64();
    index
        .index_mut()
        .set_probe_limits(Some(TOP_K), Some(MAX_POSTING));
    let mut cache = FeatureCache::unbound(artifact.generator());
    let pipeline = artifact.pipeline;

    let mut mismatched = 0u64;
    let (mut queries, mut pairs_total, mut rows_requested) = (0u64, 0u64, 0u64);
    let (mut probe, mut rows_read, mut cache_hits) = (ProbeStats::default(), 0u64, 0u64);
    let wall = Instant::now();
    for (b, batch) in inputs.batches.iter().enumerate() {
        let id = b as u64;
        let start = Instant::now();
        let (pairs, p) = spans.time("index", id, || {
            index.index().candidates_with_stats(batch, 0)
        });
        probe.pruned_tokens += p.pruned_tokens;
        probe.capped_queries += p.capped_queries;
        probe.stale_recounts += p.stale_recounts;
        let mut rows: Vec<u32> = pairs.iter().map(|p| p.right as u32).collect();
        rows.sort_unstable();
        rows.dedup();
        let (slice, fetch) = spans.time("catstore", id, || store.fetch_rows_with_stats(&rows))?;
        rows_read += fetch.rows_read;
        cache_hits += fetch.cache_hits;
        rows_requested += fetch.requested;
        let local: Vec<RecordPair> = pairs
            .iter()
            .map(|p| {
                let r = rows.binary_search(&(p.right as u32)).unwrap_or(0);
                RecordPair::new(p.left, r)
            })
            .collect();
        let features = spans.time("featcache", id, || {
            cache.rebind_left(batch);
            cache.rebind_right(&slice);
            cache.generate(batch, &slice, &local)
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
        let row = inputs.retires[b];
        spans.time("store.wal", id, || index.remove(row))?;
    }
    let replay_wall = wall.elapsed().as_secs_f64();
    let wal_records = index.store().log_records();
    let memo_len = cache.memo_len();
    drop(store);
    drop(index);
    let counters = crate::util::trace_off(&trace_path)?;
    let _ = std::fs::remove_dir_all(&dir);

    if mismatched > 0 {
        outcome.notes.push(format!(
            "{mismatched} replayed batches differ from the timed run"
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
    if probe != timed.probe || rows_requested != timed.rows_requested {
        outcome
            .notes
            .push("replayed probe or fetch totals differ from the timed run".into());
        outcome.failed += 1;
    }

    let batch_ns = spans.total_ns("batch") as f64;
    let layer_ns = ["index", "catstore", "featcache", "pipeline"]
        .iter()
        .map(|l| spans.total_ns(l))
        .sum::<u64>() as f64;
    let c = |name: &str| counters.get(name).copied().unwrap_or(0);
    let hits = c("featcache.memo_hits");
    let misses = c("featcache.memo_misses");
    let spans_path = args
        .out_dir
        .join(format!("spans-serve_store-seed{}.jsonl", args.seed));
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
        pruned_tokens: probe.pruned_tokens,
        capped_queries: probe.capped_queries,
        fetch_ns_per_row: spans.total_ns("catstore") as f64 / rows_requested.max(1) as f64,
        catstore_share: spans.total_ns("catstore") as f64 / batch_ns,
        rows_read,
        cache_hit_ratio: ratio(cache_hits, rows_requested),
        ingest_s: t.ingest,
        snapshot_s: t.snapshot,
        reopen_s: t.reopen,
        wal_append_ns: spans.total_ns("store.wal") as f64 / spans_count(&spans, "store.wal"),
        wal_records,
        predict_ns_per_pair: spans.total_ns("pipeline") as f64 / pairs_total.max(1) as f64,
        predict_share: spans.total_ns("pipeline") as f64 / batch_ns,
        load_s: t.load,
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

fn spans_count(spans: &Spans, layer: &str) -> f64 {
    spans.count(layer).max(1) as f64
}
