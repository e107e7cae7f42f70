//! One benchmark for pipeline search and serving.
//!
//! Three workloads — `search`, `serve_store`, `serve_repeat` — each run in
//! two modes. The timed run (`--trace 0`) keeps tracing off and reports
//! the end-to-end metrics; the traced run (`--trace 1`) repeats the timed
//! run once, then replays the same inputs through each layer's public
//! functions with spans taken from this crate, demands the replay's
//! output equal the timed output bit for bit, and reports the per-layer
//! metrics. Every run checks its outputs outside the timed phases, counts
//! mismatches as failed operations, and compares its exact work counters
//! with earlier runs of the same workload and seed (see
//! [`util::ledger_check`]).
//!
//! `perfbench/README.md` defines every metric and why each workload
//! exists; `main.rs` is the command line.

pub mod search;
pub mod serve_repeat;
pub mod serve_store;
pub mod util;

use em_rt::Json;
use util::{Counters, RunArgs};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations whose output was produced and checked.
    pub attempted: u64,
    /// Operations whose check failed, plus one per drifted counter set.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Exact work counters; they must repeat across runs of a seed.
    pub counters: Counters,
    /// Human-readable reasons for every failure.
    pub notes: Vec<String>,
    /// Extra report sections.
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, counters: Counters) -> Self {
        Outcome {
            attempted,
            failed,
            metrics: Vec::new(),
            counters,
            notes: Vec::new(),
            detail: Vec::new(),
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", metrics),
        ])
        .render()
    }
}

/// Workload sizes: the benchmark's, or a small one for the self-check.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Ledger key component, so sizes never share counter entries.
    pub name: &'static str,
    pub search: search::SearchSize,
    pub store: serve_store::StoreSize,
    pub repeat: serve_repeat::RepeatSize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            name: "full",
            search: search::SearchSize::full(),
            store: serve_store::StoreSize::full(),
            repeat: serve_repeat::RepeatSize::full(),
        }
    }

    /// Seconds-scale inputs that still exercise every check.
    pub fn small() -> Self {
        Sizes {
            name: "small",
            search: search::SearchSize {
                scale: 0.1,
                evaluations: 4,
                setups: 2,
                decision_batch: 16,
                datasets: 2,
            },
            store: serve_store::StoreSize {
                records: 3000,
                batches: 1000,
                batch: 2,
                train_queries: 60,
                setups: 2,
                check_batches: 8,
            },
            repeat: serve_repeat::RepeatSize {
                scale: 0.35,
                passes: 3,
                batch: 1,
                setups: 2,
                check_batches: 8,
            },
        }
    }
}

/// Pool width for `workload` when `EM_THREADS` is unset, capped at the
/// host's parallelism. `serve_store` runs single-threaded: its parallel
/// sections last a few milliseconds per batch, and waking the second pool
/// worker on a 2-vCPU host spread `run_s` by 10 % between paired runs
/// against 3 % on one thread.
pub fn default_threads(workload: &str) -> usize {
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    let wanted = if workload == "serve_store" { 1 } else { 2 };
    wanted.min(host)
}

/// Run one workload, check its outputs and counters, and write its report.
///
/// # Errors
/// Unknown workloads and operations that could not run at all (I/O,
/// malformed artifacts); output mismatches are counted, not returned.
pub fn run(args: &RunArgs, sizes: &Sizes) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let started = std::time::Instant::now();
    let mut outcome = match args.workload.as_str() {
        "search" => search::run(args, &sizes.search)?,
        "serve_store" => serve_store::run(args, &sizes.store)?,
        "serve_repeat" => serve_repeat::run(args, &sizes.repeat)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    // The sizes' fingerprint keeps a resized workload off old entries.
    let mut fingerprint = util::Digest::default();
    fingerprint.bytes(format!("{sizes:?}").as_bytes());
    let key = format!(
        "{}/{}-{:016x}/seed={}/trace={}",
        args.workload,
        sizes.name,
        fingerprint.value(),
        args.seed,
        u8::from(args.trace)
    );
    let drifted = util::ledger_check(&args.out_dir, &key, &outcome.counters)?;
    if !drifted.is_empty() {
        outcome.notes.push(format!(
            "work counters drifted from an earlier run of {key}: {}",
            drifted.join(", ")
        ));
        outcome.failed += 1;
    }
    let report = Json::obj(
        [
            ("workload", Json::from(args.workload.as_str())),
            ("sizes", Json::from(sizes.name)),
            ("provenance", util::provenance(args)),
            ("elapsed_s", Json::from(started.elapsed().as_secs_f64())),
            ("attempted", Json::from(outcome.attempted)),
            (
                "succeeded",
                Json::from(outcome.attempted - outcome.failed.min(outcome.attempted)),
            ),
            ("failed", Json::from(outcome.failed)),
            (
                "notes",
                Json::arr(outcome.notes.iter().map(|n| Json::from(n.as_str()))),
            ),
            ("counters", util::counters_json(&outcome.counters)),
            (
                "metrics",
                Json::Obj(
                    outcome
                        .metrics
                        .iter()
                        .map(|m| (m.name.to_string(), Json::from(m.value)))
                        .collect(),
                ),
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .chain(outcome.detail.iter().cloned())
        .collect::<Vec<_>>(),
    );
    let path = args.out_dir.join(format!(
        "report-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, report.render_pretty(2) + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(outcome)
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them. The
/// p99 goes to the report only: with ten samples beyond it, it spread by
/// 22-80 % between runs on a 2-vCPU host, wider than any allowed bound.
pub fn end_to_end(
    setup_s: &[f64],
    run_s: f64,
    ops_ns: &[u64],
    peak_rss_mib: Option<f64>,
) -> (Vec<Metric>, Json) {
    let lat = util::Latency::of(ops_ns);
    let metrics = vec![
        Metric::new("setup_s", util::median(setup_s), "s"),
        Metric::new("run_s", run_s, "s"),
        Metric::new("op_p50_ms", lat.p50_ms, "ms"),
        Metric::new("op_p90_ms", lat.p90_ms, "ms"),
        Metric::new("peak_rss_mib", peak_rss_mib.unwrap_or(0.0), "MiB"),
    ];
    (metrics, lat.to_json())
}

/// Per-layer figures of a traced run; layers a workload does not run stay
/// zero.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub featurize_ns_per_pair: f64,
    pub featcache_share: f64,
    pub memo_hit_ratio: f64,
    pub memo_misses: u64,
    pub profile_builds: u64,
    pub prepare_s: f64,
    pub probe_ns_per_query: f64,
    pub index_share: f64,
    pub candidates_per_query: f64,
    pub pruned_tokens: u64,
    pub capped_queries: u64,
    pub fetch_ns_per_row: f64,
    pub catstore_share: f64,
    pub rows_read: u64,
    pub cache_hit_ratio: f64,
    pub ingest_s: f64,
    pub snapshot_s: f64,
    pub reopen_s: f64,
    pub wal_append_ns: f64,
    pub wal_records: u64,
    pub predict_ns_per_pair: f64,
    pub predict_share: f64,
    pub fit_s: f64,
    pub fit_share: f64,
    pub score_s: f64,
    pub refit_s: f64,
    pub tree_nodes: u64,
    pub tree_exact_fits: u64,
    pub tree_binned_fits: u64,
    pub suggest_s: f64,
    pub smbo_share: f64,
    pub trials: u64,
    pub surrogate_refits: u64,
    pub load_s: f64,
    pub overhead_share: f64,
    pub repeat_share: f64,
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
pub fn layer_metrics(l: Layers) -> Vec<Metric> {
    let n = |v: u64| v as f64;
    vec![
        Metric::new(
            "featcache.featurize_ns_per_pair",
            l.featurize_ns_per_pair,
            "ns/pair",
        ),
        Metric::new("featcache.share", l.featcache_share, "ratio"),
        Metric::new("featcache.memo_hit_ratio", l.memo_hit_ratio, "ratio"),
        Metric::new("featcache.memo_misses", n(l.memo_misses), "count"),
        Metric::new("featcache.profile_builds", n(l.profile_builds), "count"),
        Metric::new("featcache.prepare_s", l.prepare_s, "s"),
        Metric::new("index.probe_ns_per_query", l.probe_ns_per_query, "ns/query"),
        Metric::new("index.share", l.index_share, "ratio"),
        Metric::new(
            "index.candidates_per_query",
            l.candidates_per_query,
            "pairs/query",
        ),
        Metric::new("index.pruned_tokens", n(l.pruned_tokens), "count"),
        Metric::new("index.capped_queries", n(l.capped_queries), "count"),
        Metric::new("catstore.fetch_ns_per_row", l.fetch_ns_per_row, "ns/row"),
        Metric::new("catstore.share", l.catstore_share, "ratio"),
        Metric::new("catstore.rows_read", n(l.rows_read), "count"),
        Metric::new("catstore.cache_hit_ratio", l.cache_hit_ratio, "ratio"),
        Metric::new("catstore.ingest_s", l.ingest_s, "s"),
        Metric::new("store.snapshot_s", l.snapshot_s, "s"),
        Metric::new("store.reopen_s", l.reopen_s, "s"),
        Metric::new("store.wal_append_ns", l.wal_append_ns, "ns"),
        Metric::new("store.wal_records", n(l.wal_records), "count"),
        Metric::new(
            "pipeline.predict_ns_per_pair",
            l.predict_ns_per_pair,
            "ns/pair",
        ),
        Metric::new("pipeline.predict_share", l.predict_share, "ratio"),
        Metric::new("pipeline.fit_s", l.fit_s, "s"),
        Metric::new("pipeline.fit_share", l.fit_share, "ratio"),
        Metric::new("pipeline.score_s", l.score_s, "s"),
        Metric::new("pipeline.refit_s", l.refit_s, "s"),
        Metric::new("tree.nodes", n(l.tree_nodes), "count"),
        Metric::new("tree.exact_fits", n(l.tree_exact_fits), "count"),
        Metric::new("tree.binned_fits", n(l.tree_binned_fits), "count"),
        Metric::new("smbo.suggest_s", l.suggest_s, "s"),
        Metric::new("smbo.share", l.smbo_share, "ratio"),
        Metric::new("smbo.trials", n(l.trials), "count"),
        Metric::new("smbo.surrogate_refits", n(l.surrogate_refits), "count"),
        Metric::new("artifact.load_s", l.load_s, "s"),
        Metric::new("matcher.overhead_share", l.overhead_share, "ratio"),
        Metric::new("traffic.repeat_share", l.repeat_share, "ratio"),
        Metric::new("trace.traced_wall_s", l.traced_wall_s, "s"),
        Metric::new("trace.untraced_wall_s", l.untraced_wall_s, "s"),
        Metric::new(
            "trace.overhead",
            if l.untraced_wall_s > 0.0 {
                l.traced_wall_s / l.untraced_wall_s - 1.0
            } else {
                0.0
            },
            "ratio",
        ),
    ]
}
