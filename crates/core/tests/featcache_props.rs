//! Property tests for the feature cache: over randomly generated table
//! pairs (unicode values, nulls, mixed types), the cached path must produce
//! a matrix bit-identical to the uncached `&str` path, for both feature
//! schemes — and `PreparedDataset::prepare` must honor `EM_FEATCACHE`.
//!
//! Each property runs over `CASES` deterministically seeded random inputs
//! drawn from the `em-rt` RNG; on failure the offending seed is printed so
//! the case can be replayed with `StdRng::seed_from_u64(seed)`.

use automl_em::{FeatureCache, FeatureGenerator, FeatureScheme, PreparedDataset};
use em_ml::Matrix;
use em_rt::StdRng;
use em_table::{parse_csv, RecordPair, Table};
use std::sync::{Mutex, MutexGuard};

const CASES: u64 = 48;

/// Tests here may mutate the process environment, so they must not
/// interleave.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run a property over `CASES` seeded RNGs, reporting the failing seed.
fn check(f: impl Fn(&mut StdRng) + std::panic::RefUnwindSafe) {
    for case in 0..CASES {
        let seed = 0xfea7_0000 ^ case;
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

/// A CSV-safe cell value: unicode-bearing strings (no commas/quotes), a
/// small shared vocabulary so values repeat across rows and tables (the
/// memo's bread and butter), numbers, booleans, and empty (null) cells.
fn random_cell(rng: &mut StdRng) -> String {
    const WORDS: &[&str] = &[
        "café",
        "münchen",
        "東京",
        "acme corp",
        "blue",
        "blüe",
        "widget",
        "λ calc",
        "no 9",
    ];
    match rng.random_range(0..10u32) {
        0 => String::new(), // null
        1 => format!("{}", rng.random_range(-50..50i64)),
        2 => format!("{:.2}", rng.random_range(0..1000u32) as f64 / 7.0),
        3 => (if rng.random_range(0..2u32) == 0 {
            "true"
        } else {
            "false"
        })
        .to_string(),
        _ => {
            let n = rng.random_range(1..=3usize);
            (0..n)
                .map(|_| WORDS[rng.random_range(0..WORDS.len())])
                .collect::<Vec<_>>()
                .join(" ")
        }
    }
}

/// A random table with `rows` rows over a fixed 3-column header.
fn random_table(rng: &mut StdRng, rows: usize) -> Table {
    let mut csv = String::from("name,detail,extra\n");
    for _ in 0..rows {
        for c in 0..3 {
            if c > 0 {
                csv.push(',');
            }
            csv.push_str(&random_cell(rng));
        }
        csv.push('\n');
    }
    parse_csv(&csv).expect("generated CSV parses")
}

fn bitwise_eq(a: &Matrix, b: &Matrix) {
    assert_eq!(a.nrows(), b.nrows());
    assert_eq!(a.ncols(), b.ncols());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn cached_featurization_bit_identical_to_uncached() {
    check(|rng| {
        let rows_a = rng.random_range(1..=10usize);
        let a = random_table(rng, rows_a);
        let rows_b = rng.random_range(1..=10usize);
        let b = random_table(rng, rows_b);
        let pairs: Vec<RecordPair> = (0..a.len())
            .flat_map(|i| (0..b.len()).map(move |j| RecordPair::new(i, j)))
            .collect();
        for scheme in [FeatureScheme::Magellan, FeatureScheme::AutoMlEm] {
            let g = FeatureGenerator::plan_for_tables(scheme, &a, &b);
            let uncached = g.generate(&a, &b, &pairs);
            let mut cache = FeatureCache::new(g, &a, &b);
            bitwise_eq(&uncached, &cache.generate(&a, &b, &pairs));
            // Warm-memo repeat stays identical.
            bitwise_eq(&uncached, &cache.generate(&a, &b, &pairs));
        }
    });
}

/// Sustained serving workload: the catalog side is fixed, `rebind_left`
/// swings in a fresh mostly-unique query batch each round, and the memo
/// cap must (a) actually bound the memo via epoch eviction, (b) count its
/// evictions, and (c) never change a single output bit.
#[test]
fn memo_cap_evicts_epochs_under_sustained_rebinds() {
    let _guard = serialize();
    const CAP: usize = 500;
    const BATCHES: usize = 60;
    const CATALOG_ROWS: usize = 24;
    const QUERY_ROWS: usize = 12;

    let mut rng = StdRng::seed_from_u64(0x005E_51CE);
    let catalog = random_table(&mut rng, CATALOG_ROWS);
    let queries_of = |batch: usize| {
        let mut csv = String::from("name,detail,extra\n");
        for i in 0..QUERY_ROWS {
            // Mostly-unique values (every batch mints new ones) with a
            // repeating tail so some memo entries are re-touched and
            // survive into later epochs.
            csv.push_str(&format!(
                "query {batch} row {i} café,detail {} batch {batch},shared extra {}\n",
                i % 3,
                i % 4
            ));
        }
        parse_csv(&csv).unwrap()
    };
    let pairs: Vec<RecordPair> = (0..QUERY_ROWS)
        .flat_map(|i| {
            (0..CATALOG_ROWS)
                .step_by(3)
                .map(move |j| RecordPair::new(i, j))
        })
        .collect();

    // Evictions only count while tracing is enabled.
    let trace =
        std::env::temp_dir().join(format!("em-featcache-evict-{}.jsonl", std::process::id()));
    em_obs::set_mode(em_obs::TraceMode::File(
        trace.to_string_lossy().into_owned(),
    ));
    let evictions_before = FeatureCache::evictions();

    let g = FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &queries_of(0), &catalog);
    let mut cache = FeatureCache::new(g.clone(), &queries_of(0), &catalog);
    cache.set_memo_cap(Some(CAP));
    let mut peak_memo = 0usize;
    for batch in 0..BATCHES {
        let q = queries_of(batch);
        cache.rebind_left(&q);
        let cached = cache.generate(&q, &catalog, &pairs);
        peak_memo = peak_memo.max(cache.memo_len());
        // The current batch's own entries are never evicted, so the memo
        // may overshoot the cap by at most one batch's worth of pairs.
        assert!(
            cache.memo_len() <= CAP + pairs.len() * catalog.schema().len(),
            "batch {batch}: memo {} far above cap {CAP}",
            cache.memo_len()
        );
        // Eviction must never change output: spot-check against the
        // uncached path every few batches (it is the expensive side).
        if batch % 9 == 0 || batch == BATCHES - 1 {
            bitwise_eq(&g.generate(&q, &catalog, &pairs), &cached);
        }
    }
    let evicted = FeatureCache::evictions() - evictions_before;
    em_obs::set_mode(em_obs::TraceMode::Off);
    let _ = std::fs::remove_file(&trace);

    assert!(peak_memo > 0, "memo never populated");
    assert!(
        evicted > 0,
        "sustained unique-value batches never triggered epoch eviction"
    );

    // Control: with no cap the same workload grows the memo past CAP —
    // i.e. the bound above is the cap's doing, not workload shrinkage.
    let mut unbounded = FeatureCache::new(g, &queries_of(0), &catalog);
    for batch in 0..BATCHES {
        let q = queries_of(batch);
        unbounded.rebind_left(&q);
        unbounded.generate(&q, &catalog, &pairs);
    }
    assert!(
        unbounded.memo_len() > CAP,
        "workload too small to exercise the cap: {}",
        unbounded.memo_len()
    );
}

#[test]
fn prepare_respects_em_featcache_env() {
    let _guard = serialize();
    let saved = std::env::var("EM_FEATCACHE").ok();
    let ds = em_data::Benchmark::FodorsZagats.generate_scaled(3, 0.2);

    std::env::set_var("EM_FEATCACHE", "off");
    assert!(!automl_em::featcache::enabled());
    let off = PreparedDataset::prepare(&ds, FeatureScheme::AutoMlEm, 7);

    std::env::remove_var("EM_FEATCACHE");
    assert!(automl_em::featcache::enabled());
    let on = PreparedDataset::prepare(&ds, FeatureScheme::AutoMlEm, 7);

    match saved {
        Some(v) => std::env::set_var("EM_FEATCACHE", v),
        None => std::env::remove_var("EM_FEATCACHE"),
    }
    // Cache on or off, the prepared features are bit-identical.
    bitwise_eq(&off.features, &on.features);
    assert_eq!(off.labels, on.labels);
}

/// Serving-shaped values from the scale catalog (4–10 zipf tokens, ~50
/// chars, some past the 64-char block boundary of the bit-parallel
/// kernels), featurized through a serving cache bound to the catalog and
/// rebound to two query batches: bit-identical to the uncached path.
#[test]
fn scale_catalog_values_bit_identical_to_uncached() {
    let cat = em_data::ScaleCatalog::new(em_data::CatalogSpec {
        records: 400,
        seed: 17,
        ..em_data::CatalogSpec::default()
    });
    let catalog = cat.table();
    let longest = (0..catalog.len())
        .map(|r| cat.value(r).chars().count())
        .max()
        .unwrap();
    assert!(longest > 64, "no value crosses a block boundary: {longest}");
    let g =
        FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &cat.queries(0, 1), &catalog);
    let mut cache = FeatureCache::for_serving(g.clone(), &catalog);
    for start in [0, 40] {
        let queries = cat.queries(start, 40);
        let pairs: Vec<RecordPair> = (0..queries.len())
            .flat_map(|i| {
                (i % 7..catalog.len())
                    .step_by(7)
                    .map(move |j| RecordPair::new(i, j))
            })
            .collect();
        cache.rebind_left(&queries);
        let cached = cache.generate(&queries, &catalog, &pairs);
        bitwise_eq(&g.generate(&queries, &catalog, &pairs), &cached);
    }
}
