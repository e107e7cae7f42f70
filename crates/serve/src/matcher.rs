//! The matcher: block → featurize → predict over a fixed catalog, for
//! one-shot batches ([`Matcher::match_batch`]) or a stream of batches
//! ([`Matcher::match_stream`]).
//!
//! ## Catalog backings
//!
//! A matcher serves against one of two catalog backings:
//!
//! * **In-memory** ([`Matcher::new`]) — the catalog `Table` is resident
//!   and the feature cache profiles every catalog value up front. Right
//!   for tests and small catalogs.
//! * **Store-backed** ([`Matcher::with_store`] /
//!   [`Matcher::with_store_index`]) — rows live in a [`CatalogStore`] and
//!   each batch runs probe → gather only the distinct candidate rows →
//!   rebind the cache to the fetched slice → featurize → predict, so
//!   resident memory scales with the per-batch working set, not the
//!   catalog. Output is bit-identical to the in-memory path (see
//!   [`featurize_batch`] for why), at any `EM_THREADS`, with the hot-row
//!   cache on or off.
//!
//! ## Streaming design
//!
//! `match_stream` pulls query tables from an [`em_rt::channel`] and runs a
//! three-stage coordinator/worker pipeline:
//!
//! * **Coordinator** (the calling thread) — receives batches in arrival
//!   order, probes the [`IncrementalIndex`], rebinds the shared
//!   [`FeatureCache`] to the batch and featurizes (both internally parallel
//!   on the `em-rt` pool), then ships `(seq, pairs, features)` to the
//!   predict workers. Featurization mutates the cache, so it stays on one
//!   thread — which is also what makes cache evolution independent of
//!   worker scheduling.
//! * **Predict workers** — dedicated threads racing over the job channel;
//!   each scores whole batches through the fitted pipeline. Per-batch
//!   prediction is a pure function of the feature matrix, so racing is
//!   safe.
//! * **Emitter** — reorders finished batches by sequence number and sends
//!   [`BatchOutput`]s strictly in input order.
//!
//! **Backpressure**: the coordinator spends one credit per batch and the
//! emitter returns a credit per *emitted* batch, so at most
//! [`StreamOptions::max_in_flight`] batches occupy memory between
//! featurization and emission — a slow consumer stalls the coordinator
//! rather than growing the unbounded channels.
//!
//! **Determinism**: candidate probing, featurization, and prediction are
//! each bit-deterministic at any thread count (pool discipline as per
//! `em-rt`), batches enter the cache in arrival order, and emission is
//! sequence-ordered — so the full output stream is bit-identical whether
//! `EM_THREADS` is 1 or 64, with tracing on or off.

use crate::artifact::ModelArtifact;
use crate::catstore::{CatalogStore, FetchStats};
use crate::index::{IncrementalIndex, ProbeStats};
use crate::store::PersistentIndex;
use automl_em::{FeatureCache, FittedEmPipeline};
use em_ml::Matrix;
use em_obs::live::{RequestLog, RequestRecord, WindowedCounter, WindowedHistogram};
use em_rt::{Json, Receiver, Sender};
use em_table::{RecordPair, Schema, Table};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Query batches processed by `match_stream`/`match_batch`.
static BATCHES: em_obs::Counter = em_obs::Counter::new("serve.batches");
/// Candidate pairs scored by the model.
static PAIRS_SCORED: em_obs::Counter = em_obs::Counter::new("serve.pairs_scored");
/// Pairs the model declared matches.
static MATCHES: em_obs::Counter = em_obs::Counter::new("serve.matches");
/// End-to-end per-batch latency (coordinator pickup to emission), ns.
static BATCH_NS: em_obs::Histogram = em_obs::Histogram::new("serve.batch_ns");

// Windowed mirrors of the serving metrics, feeding the live `/metrics`
// registry. Same names as the trace counters where both exist — the two
// registries are separate sinks over the same events.
static W_BATCHES: WindowedCounter = WindowedCounter::new("serve.batches");
static W_BATCH_NS: WindowedHistogram = WindowedHistogram::new("serve.batch_ns");
static W_CANDIDATES: WindowedHistogram = WindowedHistogram::new("serve.batch_candidates");
static W_PAIRS: WindowedCounter = WindowedCounter::new("serve.pairs_scored");
static W_MATCHES: WindowedCounter = WindowedCounter::new("serve.matches");
/// Match-score distribution of the served model, in thousandths (a score
/// of 0.73 records as 730) so the log2 buckets resolve the [0,1] range.
static W_SCORE_MILLI: WindowedHistogram = WindowedHistogram::new("serve.score_milli");
static W_PRUNED: WindowedCounter = WindowedCounter::new("serve.pruned_tokens");
static W_CAPPED: WindowedCounter = WindowedCounter::new("serve.capped_queries");
static W_RECOUNTS: WindowedCounter = WindowedCounter::new("serve.stale_recounts");
/// Slow-query log + deterministic 1-in-16 trace sampler over request ids.
static REQUESTS: RequestLog = RequestLog::new("serve.requests", 0x5EED_1092, 16, 8);
/// Request ids for `match_batch` calls (stream batches use their seq).
static NEXT_BATCH_ID: AtomicU64 = AtomicU64::new(0);

/// p50/p99 of the end-to-end batch latency histogram, in nanoseconds
/// (`None` until a traced `match_stream` run has recorded batches).
pub fn batch_latency_quantiles() -> Option<(u64, u64)> {
    Some((BATCH_NS.quantile(0.5)?, BATCH_NS.quantile(0.99)?))
}

/// One scored candidate: `pair.left` is the row in the query batch,
/// `pair.right` the catalog row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchRecord {
    /// (query row, catalog row).
    pub pair: RecordPair,
    /// Matching probability from the pipeline.
    pub score: f64,
    /// Hard decision, exactly `FittedEmPipeline::predict`'s output.
    pub is_match: bool,
}

/// The scored results of one query batch, tagged with its input ordinal.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutput {
    /// 0-based arrival position of the batch in the input stream.
    pub seq: usize,
    /// Rows in the query batch (for consumers sizing per-batch work).
    pub n_queries: usize,
    /// Scored candidates, in candidate-generation order.
    pub matches: Vec<MatchRecord>,
}

/// Tuning knobs for [`Matcher::match_stream`].
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Maximum batches between featurization and emission (credit-based
    /// backpressure; min 1).
    pub max_in_flight: usize,
    /// Dedicated predict-worker threads (0 = pool width minus one, min 1).
    pub predict_workers: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            max_in_flight: 4,
            predict_workers: 0,
        }
    }
}

/// A work item flowing coordinator -> predict workers.
struct PredictJob {
    seq: usize,
    n_queries: usize,
    pairs: Vec<RecordPair>,
    features: Matrix,
    started: Instant,
    telem: BatchTelemetry,
}

/// Per-batch stage timings and probe effects, carried alongside the batch
/// so whoever observes the finished request (emitter or `match_batch`) can
/// feed the live registry. Observation only: nothing here feeds back into
/// matching.
#[derive(Clone, Copy, Default)]
struct BatchTelemetry {
    probe_ns: u64,
    featurize_ns: u64,
    predict_ns: u64,
    /// Wall time of the store gather inside featurization (0 on the
    /// in-memory catalog path).
    fetch_ns: u64,
    probe: ProbeStats,
    fetch: FetchStats,
}

/// Record one finished request into the windowed registry, the slow-query
/// log, and — for the deterministic 1-in-N sample — the JSONL trace.
fn record_request(
    id: u64,
    n_queries: usize,
    matches: &[MatchRecord],
    latency_ns: u64,
    t: BatchTelemetry,
) {
    if em_obs::live::enabled() {
        W_BATCHES.incr();
        W_BATCH_NS.record(latency_ns);
        W_CANDIDATES.record(matches.len() as u64);
        W_PRUNED.add(t.probe.pruned_tokens);
        W_CAPPED.add(t.probe.capped_queries);
        W_RECOUNTS.add(t.probe.stale_recounts);
        REQUESTS.record(RequestRecord {
            id,
            latency_ns,
            fields: vec![
                ("queries", n_queries as u64),
                ("candidates", matches.len() as u64),
                (
                    "matches",
                    matches.iter().filter(|m| m.is_match).count() as u64,
                ),
                ("probe_ns", t.probe_ns),
                ("featurize_ns", t.featurize_ns),
                ("predict_ns", t.predict_ns),
                ("fetch_ns", t.fetch_ns),
                ("rows_fetched", t.fetch.rows_read),
                ("cache_hits", t.fetch.cache_hits),
                ("pruned_tokens", t.probe.pruned_tokens),
                ("capped_queries", t.probe.capped_queries),
                ("stale_recounts", t.probe.stale_recounts),
            ],
        });
    }
    if REQUESTS.is_sampled(id) {
        em_obs::event("serve.request", || {
            vec![
                ("request", Json::from(id)),
                ("latency_ns", Json::from(latency_ns)),
                ("queries", Json::from(n_queries)),
                ("candidates", Json::from(matches.len())),
                ("probe_ns", Json::from(t.probe_ns)),
                ("featurize_ns", Json::from(t.featurize_ns)),
                ("predict_ns", Json::from(t.predict_ns)),
            ]
        });
    }
}

/// Where the matcher's catalog rows live: fully resident (the original
/// path, still right for small catalogs and tests) or gathered on demand
/// from a [`CatalogStore`], which keeps memory O(working set) instead of
/// O(catalog).
enum CatalogBacking {
    Memory(Table),
    Store(Box<CatalogStore>),
}

/// Where the blocking index lives: in-memory only, or WAL-backed so
/// retirements survive restarts.
enum IndexBacking {
    Memory(IncrementalIndex),
    Persistent(Box<PersistentIndex>),
}

impl IndexBacking {
    fn as_index(&self) -> &IncrementalIndex {
        match self {
            IndexBacking::Memory(i) => i,
            IndexBacking::Persistent(p) => p.index(),
        }
    }
}

/// A deployable matcher: fitted pipeline + catalog backing + incremental
/// index + feature cache, assembled from a [`ModelArtifact`].
pub struct Matcher {
    pipeline: FittedEmPipeline,
    catalog: CatalogBacking,
    index: IndexBacking,
    cache: FeatureCache,
    /// Cumulative probe effects across every batch this matcher served.
    probe_totals: ProbeStats,
    /// Cumulative store-gather effects (all zero on the in-memory path).
    fetch_totals: FetchStats,
}

/// Reject a catalog whose schema disagrees with the artifact that will
/// score its rows.
fn check_schema(schema: &Schema, artifact: &ModelArtifact) -> Result<(), String> {
    let catalog_names: Vec<String> = schema.names().iter().map(|s| s.to_string()).collect();
    if catalog_names != artifact.attributes {
        return Err(format!(
            "catalog schema {:?} does not match artifact attributes {:?}",
            catalog_names, artifact.attributes
        ));
    }
    Ok(())
}

impl Matcher {
    /// Assemble a matcher over a fully in-memory catalog: replay the
    /// artifact's feature plan, build the blocking index over `catalog`,
    /// and bind the feature cache to it (profiling every catalog value
    /// once, up front). The right choice for tests and small catalogs;
    /// million-record deployments should use [`Self::with_store`].
    ///
    /// # Errors
    /// Fails when the catalog schema does not match the artifact's
    /// attribute list, or the blocking attribute is missing.
    pub fn new(
        artifact: ModelArtifact,
        catalog: Table,
        blocking_attribute: &str,
        min_overlap: usize,
    ) -> Result<Self, String> {
        check_schema(catalog.schema(), &artifact)?;
        let generator = artifact.generator();
        let index = IncrementalIndex::build(blocking_attribute, min_overlap, &catalog)?;
        let cache = FeatureCache::for_serving(generator, &catalog);
        Ok(Matcher {
            pipeline: artifact.pipeline,
            catalog: CatalogBacking::Memory(catalog),
            index: IndexBacking::Memory(index),
            cache,
            probe_totals: ProbeStats::default(),
            fetch_totals: FetchStats::default(),
        })
    }

    /// Assemble a store-backed matcher: candidate rows are gathered from
    /// `store` per batch (probe → fetch only the candidates → featurize
    /// the fetched slice → predict) and the blocking index is the
    /// WAL-backed `index`, so neither the catalog nor its feature
    /// profiles are ever fully resident. Retirements WAL-log through the
    /// persistent index.
    ///
    /// # Errors
    /// Fails when the store schema does not match the artifact's
    /// attribute list.
    pub fn with_store(
        artifact: ModelArtifact,
        store: CatalogStore,
        index: PersistentIndex,
    ) -> Result<Self, String> {
        check_schema(store.schema(), &artifact)?;
        let generator = artifact.generator();
        let cache = FeatureCache::unbound(generator);
        Ok(Matcher {
            pipeline: artifact.pipeline,
            catalog: CatalogBacking::Store(Box::new(store)),
            index: IndexBacking::Persistent(Box::new(index)),
            cache,
            probe_totals: ProbeStats::default(),
            fetch_totals: FetchStats::default(),
        })
    }

    /// [`Self::with_store`] with an in-memory (non-WAL) blocking index —
    /// for benchmarks and rebuild-on-boot deployments where index
    /// persistence is not wanted.
    ///
    /// # Errors
    /// Fails when the store schema does not match the artifact's
    /// attribute list.
    pub fn with_store_index(
        artifact: ModelArtifact,
        store: CatalogStore,
        index: IncrementalIndex,
    ) -> Result<Self, String> {
        check_schema(store.schema(), &artifact)?;
        let generator = artifact.generator();
        let cache = FeatureCache::unbound(generator);
        Ok(Matcher {
            pipeline: artifact.pipeline,
            catalog: CatalogBacking::Store(Box::new(store)),
            index: IndexBacking::Memory(index),
            cache,
            probe_totals: ProbeStats::default(),
            fetch_totals: FetchStats::default(),
        })
    }

    /// The in-memory catalog, when this matcher holds one (`None` for
    /// store-backed matchers).
    pub fn catalog(&self) -> Option<&Table> {
        match &self.catalog {
            CatalogBacking::Memory(t) => Some(t),
            CatalogBacking::Store(_) => None,
        }
    }

    /// The catalog store, when this matcher is store-backed.
    pub fn catalog_store(&self) -> Option<&CatalogStore> {
        match &self.catalog {
            CatalogBacking::Memory(_) => None,
            CatalogBacking::Store(s) => Some(s),
        }
    }

    /// The blocking index (read access; see [`Self::retire`] for updates).
    pub fn index(&self) -> &IncrementalIndex {
        self.index.as_index()
    }

    /// Cumulative probe effects (pruned tokens, capped queries, stale
    /// recounts) across every batch this matcher has served.
    pub fn probe_totals(&self) -> ProbeStats {
        self.probe_totals
    }

    /// Cumulative store-gather effects across every batch (all zero for
    /// in-memory matchers).
    pub fn fetch_totals(&self) -> FetchStats {
        self.fetch_totals
    }

    /// Reconfigure the store's hot-row cache (see
    /// [`CatalogStore::configure_cache`]; capacity 0 disables it). Returns
    /// false — and does nothing — on an in-memory matcher.
    pub fn configure_hot_cache(&mut self, capacity: usize, seed: u64) -> bool {
        match &mut self.catalog {
            CatalogBacking::Memory(_) => false,
            CatalogBacking::Store(s) => {
                s.configure_cache(capacity, seed);
                true
            }
        }
    }

    /// Bound the feature cache's similarity memo (see
    /// [`FeatureCache::set_memo_cap`]) — recommended for long-running
    /// streams over unbounded query vocabularies.
    pub fn set_memo_cap(&mut self, cap: Option<usize>) {
        self.cache.set_memo_cap(cap);
    }

    /// Bound the blocking probe (see
    /// [`IncrementalIndex::set_probe_limits`]): keep only the `top_k`
    /// highest-overlap candidates per query and prune query tokens whose
    /// document frequency exceeds `max_posting`. `None` disables either
    /// bound; with both off, candidate sets are exact.
    pub fn set_probe_limits(&mut self, top_k: Option<usize>, max_posting: Option<usize>) {
        match &mut self.index {
            IndexBacking::Memory(i) => i.set_probe_limits(top_k, max_posting),
            // Probe bounds are runtime tuning, not index state, so they do
            // not WAL-log.
            IndexBacking::Persistent(p) => p.index_mut().set_probe_limits(top_k, max_posting),
        }
    }

    /// Retire a catalog record: it stops appearing in candidates. (The
    /// catalog rows themselves are immutable — profiles and memo entries
    /// for the record stay cached and simply go unreferenced.)
    ///
    /// # Errors
    /// A WAL-backed index can fail to log the retirement; the in-memory
    /// path never fails.
    pub fn retire(&mut self, catalog_row: usize) -> Result<(), String> {
        match &mut self.index {
            IndexBacking::Memory(i) => {
                i.remove(catalog_row);
                Ok(())
            }
            IndexBacking::Persistent(p) => p.remove(catalog_row),
        }
    }

    /// Block and score one query batch synchronously.
    pub fn match_batch(&mut self, queries: &Table) -> Vec<MatchRecord> {
        let _span = em_obs::span!("serve.batch");
        let started = Instant::now();
        let (pairs, probe) = self.index.as_index().candidates_with_stats(queries, 0);
        let probe_ns = started.elapsed().as_nanos() as u64;
        accumulate_probe(&mut self.probe_totals, probe);
        let t_feat = Instant::now();
        let (features, fetch_ns, fetch) =
            featurize_batch(&mut self.catalog, &mut self.cache, queries, &pairs);
        accumulate_fetch(&mut self.fetch_totals, fetch);
        let featurize_ns = t_feat.elapsed().as_nanos() as u64;
        let t_pred = Instant::now();
        let out = score_pairs(&self.pipeline, &pairs, &features);
        let predict_ns = t_pred.elapsed().as_nanos() as u64;
        BATCHES.incr();
        let id = NEXT_BATCH_ID.fetch_add(1, Ordering::Relaxed);
        record_request(
            id,
            queries.len(),
            &out,
            started.elapsed().as_nanos() as u64,
            BatchTelemetry {
                probe_ns,
                featurize_ns,
                predict_ns,
                fetch_ns,
                probe,
                fetch,
            },
        );
        out
    }

    /// Run the full index invariant check and publish the result to the
    /// live health registry (component `index`, served by `/healthz`).
    ///
    /// # Errors
    /// Returns the first invariant violation, exactly as
    /// [`IncrementalIndex::verify_invariants`] reports it.
    pub fn verify_index(&self) -> Result<(), String> {
        let index = self.index.as_index();
        let res = index.verify_invariants();
        em_obs::live::set_health(
            "index",
            res.clone().map(|()| {
                format!(
                    "{} live records, stale debt {}",
                    index.len(),
                    index.stale_debt()
                )
            }),
        );
        res
    }

    /// Stream matching: pull query tables from `queries` until the channel
    /// closes, emit one [`BatchOutput`] per batch on `results`, strictly in
    /// input order. See the module docs for the pipeline shape and the
    /// determinism/backpressure contracts. Blocks until the stream drains.
    pub fn match_stream(
        &mut self,
        queries: Receiver<Table>,
        results: Sender<BatchOutput>,
        opts: StreamOptions,
    ) {
        let _span = em_obs::span!("serve.stream");
        let max_in_flight = opts.max_in_flight.max(1);
        let n_workers = if opts.predict_workers == 0 {
            em_rt::threads().saturating_sub(1).max(1)
        } else {
            opts.predict_workers
        };
        let (job_tx, job_rx) = em_rt::channel::<PredictJob>();
        let (done_tx, done_rx) = em_rt::channel::<(usize, BatchOutput, Instant, BatchTelemetry)>();
        let (credit_tx, credit_rx) = em_rt::channel::<()>();
        for _ in 0..max_in_flight {
            credit_tx.send(()).expect("credit receiver alive");
        }
        // Featurization mutates the cache (and, store-backed, the catalog
        // backing's files and hot-row cache); everything the workers touch
        // is immutable. Split the borrows up front so the worker closures
        // only capture immutable parts; the mutable coordinator state goes
        // behind one Mutex that only the coordinator ever locks.
        let pipeline = &self.pipeline;
        let index = &self.index;
        let coord_state = Mutex::new((
            &mut self.catalog,
            &mut self.cache,
            &mut self.probe_totals,
            &mut self.fetch_totals,
        ));
        std::thread::scope(|s| {
            for _ in 0..n_workers {
                let job_rx = job_rx.clone();
                let done_tx = done_tx.clone();
                s.spawn(move || {
                    while let Some(job) = job_rx.recv() {
                        let _span = em_obs::span!("serve.predict");
                        let t_pred = Instant::now();
                        let matches = score_pairs(pipeline, &job.pairs, &job.features);
                        let mut telem = job.telem;
                        telem.predict_ns = t_pred.elapsed().as_nanos() as u64;
                        let out = BatchOutput {
                            seq: job.seq,
                            n_queries: job.n_queries,
                            matches,
                        };
                        if done_tx.send((job.seq, out, job.started, telem)).is_err() {
                            return;
                        }
                    }
                });
            }
            // Emitter: reorder by sequence number, return credits.
            let emitter = s.spawn(move || {
                type Pending = (BatchOutput, Instant, BatchTelemetry);
                let mut pending: std::collections::BTreeMap<usize, Pending> =
                    std::collections::BTreeMap::new();
                let mut next = 0usize;
                while let Some((seq, out, started, telem)) = done_rx.recv() {
                    pending.insert(seq, (out, started, telem));
                    while let Some(entry) = pending.remove(&next) {
                        let (out, started, telem) = entry;
                        let latency_ns = started.elapsed().as_nanos() as u64;
                        BATCH_NS.record(latency_ns);
                        record_request(
                            out.seq as u64,
                            out.n_queries,
                            &out.matches,
                            latency_ns,
                            telem,
                        );
                        // A dropped consumer just discards output; the
                        // stream still drains for the producer's sake.
                        let _ = results.send(out);
                        let _ = credit_tx.send(());
                        next += 1;
                    }
                }
            });
            // Coordinator (this thread): arrival order, one credit each.
            {
                let mut guard = coord_state.lock().unwrap();
                let (catalog, cache, probe_totals, fetch_totals) = &mut *guard;
                let mut seq = 0usize;
                while let Some(batch) = queries.recv() {
                    if credit_rx.recv().is_none() {
                        break; // emitter gone: consumer vanished entirely
                    }
                    let started = Instant::now();
                    let _span = em_obs::span!("serve.batch");
                    let (pairs, probe) = index.as_index().candidates_with_stats(&batch, 0);
                    let probe_ns = started.elapsed().as_nanos() as u64;
                    accumulate_probe(probe_totals, probe);
                    let t_feat = Instant::now();
                    let (features, fetch_ns, fetch) =
                        featurize_batch(catalog, cache, &batch, &pairs);
                    accumulate_fetch(fetch_totals, fetch);
                    let featurize_ns = t_feat.elapsed().as_nanos() as u64;
                    BATCHES.incr();
                    let job = PredictJob {
                        seq,
                        n_queries: batch.len(),
                        pairs,
                        features,
                        started,
                        telem: BatchTelemetry {
                            probe_ns,
                            featurize_ns,
                            predict_ns: 0,
                            fetch_ns,
                            probe,
                            fetch,
                        },
                    };
                    if job_tx.send(job).is_err() {
                        break;
                    }
                    seq += 1;
                }
            }
            // Close the job channel: workers drain and exit, their
            // `done_tx` clones drop, the emitter drains and exits, and the
            // scope joins everything.
            job_tx.close();
            drop(done_tx);
            let _ = emitter.join();
        });
    }
}

fn accumulate_probe(totals: &mut ProbeStats, p: ProbeStats) {
    totals.pruned_tokens += p.pruned_tokens;
    totals.capped_queries += p.capped_queries;
    totals.stale_recounts += p.stale_recounts;
}

fn accumulate_fetch(totals: &mut FetchStats, f: FetchStats) {
    totals.requested += f.requested;
    totals.cache_hits += f.cache_hits;
    totals.rows_read += f.rows_read;
}

/// Build the feature matrix for one batch against either catalog backing.
/// Returns `(features, fetch_ns, fetch_stats)`; the latter two are zero on
/// the in-memory path.
///
/// Store-backed, only the distinct candidate rows are gathered and the
/// cache is rebound to the fetched slice. Feature values are bit-identical
/// to the in-memory path: every similarity is a pure function of the two
/// cell values (token-id assignment order never changes an intersection
/// size), and the store's row codec round-trips cells bit-exactly — so
/// featurizing `(query, fetched slice)` under slice-local indices equals
/// featurizing `(query, full catalog)` under global indices, pair for
/// pair. Fetch or decode failures panic: a serving matcher whose catalog
/// file is unreadable mid-stream has no useful degraded mode.
fn featurize_batch(
    catalog: &mut CatalogBacking,
    cache: &mut FeatureCache,
    queries: &Table,
    pairs: &[RecordPair],
) -> (Matrix, u64, FetchStats) {
    match catalog {
        CatalogBacking::Memory(table) => {
            cache.rebind_left(queries);
            let features = cache.generate(queries, table, pairs);
            (features, 0, FetchStats::default())
        }
        CatalogBacking::Store(store) => {
            let t_fetch = Instant::now();
            let mut rows: Vec<u32> = pairs.iter().map(|p| p.right as u32).collect();
            rows.sort_unstable();
            rows.dedup();
            let (slice, fetch) = store
                .fetch_rows_with_stats(&rows)
                .unwrap_or_else(|e| panic!("catalog store fetch failed: {e}"));
            let fetch_ns = t_fetch.elapsed().as_nanos() as u64;
            let local_pairs: Vec<RecordPair> = pairs
                .iter()
                .map(|p| {
                    let local = rows
                        .binary_search(&(p.right as u32))
                        .expect("candidate row was gathered");
                    RecordPair::new(p.left, local)
                })
                .collect();
            cache.rebind_left(queries);
            cache.rebind_right(&slice);
            let features = cache.generate(queries, &slice, &local_pairs);
            (features, fetch_ns, fetch)
        }
    }
}

/// Score candidate pairs: probability plus argmax decision, one transform
/// pass ([`FittedEmPipeline::predict_with_scores`]).
fn score_pairs(
    pipeline: &FittedEmPipeline,
    pairs: &[RecordPair],
    features: &Matrix,
) -> Vec<MatchRecord> {
    if pairs.is_empty() {
        return Vec::new();
    }
    let scored = pipeline.predict_with_scores(features);
    PAIRS_SCORED.add(pairs.len() as u64);
    let out: Vec<MatchRecord> = pairs
        .iter()
        .zip(scored)
        .map(|(&pair, (score, is_match))| MatchRecord {
            pair,
            score,
            is_match,
        })
        .collect();
    MATCHES.add(out.iter().filter(|m| m.is_match).count() as u64);
    if em_obs::live::enabled() {
        W_PAIRS.add(out.len() as u64);
        W_MATCHES.add(out.iter().filter(|m| m.is_match).count() as u64);
        W_SCORE_MILLI.record_all(
            out.iter()
                .map(|m| (m.score.clamp(0.0, 1.0) * 1000.0).round() as u64),
        );
    }
    out
}
