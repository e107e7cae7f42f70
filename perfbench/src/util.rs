//! Plumbing shared by the three workloads: run arguments, exact
//! quantiles, the benchmark's own span recorder, output digests, process
//! memory readings, provenance, and the counter ledger.

use em_rt::Json;
use em_serve::MatchRecord;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workloads, by the names `BENCHMARK.json` declares.
pub const WORKLOADS: [&str; 3] = ["search", "serve_store", "serve_repeat"];

/// A seed kept out of every tuning run. A later claim of a gain must also
/// hold on it (`--seed 9001`).
pub const HELD_OUT_SEED: u64 = 9001;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget: further passes start only while they fit.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Directory for reports, the counter ledger, traces and temporary
    /// stores. Created on demand.
    pub out_dir: PathBuf,
}

/// Nearest-rank quantile over an ascending sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Latency summary of one operation stream, in milliseconds.
#[derive(Debug, Clone)]
pub struct Latency {
    /// Operations timed.
    pub samples: usize,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
}

impl Latency {
    /// Summarize per-operation latencies (nanoseconds).
    ///
    /// # Panics
    /// When fewer than ten samples lie beyond the p99: the quantile would
    /// describe a handful of operations, so the workload is too small.
    pub fn of(ns: &[u64]) -> Latency {
        let mut ms: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        assert!(
            samples_beyond(ms.len(), 0.99) >= 10,
            "p99 needs at least ten samples beyond it; got {} operations",
            ms.len()
        );
        Latency {
            samples: ms.len(),
            p50_ms: quantile(&ms, 0.5),
            p90_ms: quantile(&ms, 0.9),
            p99_ms: quantile(&ms, 0.99),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("samples", Json::from(self.samples)),
            (
                "samples_beyond_p99",
                Json::from(samples_beyond(self.samples, 0.99)),
            ),
            ("p50_ms", Json::from(self.p50_ms)),
            ("p90_ms", Json::from(self.p90_ms)),
            ("p99_ms", Json::from(self.p99_ms)),
        ])
    }
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// One recorded span: which workload, which batch or trial, which layer,
/// and when it started and ended (ns since the recorder's origin).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder for the traced replay. Spans are taken around
/// calls into the program's public functions, from the benchmark's code.
pub struct Spans {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(workload: &'static str) -> Self {
        Spans {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span for `layer`, tagged with batch or trial `id`.
    pub fn time<T>(&mut self, layer: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let start_ns = ns_since(self.origin);
        let out = f();
        let end_ns = ns_since(self.origin);
        self.spans.push(Span {
            id,
            layer,
            start_ns,
            end_ns,
        });
        out
    }

    /// Record a span measured by the caller.
    pub fn push(&mut self, layer: &'static str, id: u64, start: Instant, end: Instant) {
        let base = self.origin;
        let at = |t: Instant| t.saturating_duration_since(base).as_nanos() as u64;
        self.spans.push(Span {
            id,
            layer,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Total nanoseconds spent in `layer`.
    pub fn total_ns(&self, layer: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Number of spans recorded for `layer`.
    pub fn count(&self, layer: &str) -> usize {
        self.spans.iter().filter(|s| s.layer == layer).count()
    }

    /// Nanoseconds spent in `layer` by batch or trial `id`.
    pub fn total_ns_for(&self, layer: &str, id: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.id == id)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut text = String::new();
        for s in &self.spans {
            let rec = Json::obj([
                ("workload", Json::from(self.workload)),
                ("id", Json::from(s.id)),
                ("layer", Json::from(s.layer)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
            ]);
            text.push_str(&rec.render());
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// FNV-1a over a byte stream, for output fingerprints.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Fingerprint of one batch's scored output: every pair, score bit
/// pattern and decision, in order.
pub fn digest_records(records: &[MatchRecord]) -> u64 {
    let mut d = Digest::default();
    for r in records {
        d.u64(r.pair.left as u64);
        d.u64(r.pair.right as u64);
        d.u64(r.score.to_bits());
        d.u64(u64::from(r.is_match));
    }
    d.value()
}

/// Fingerprint of a sequence of fingerprints.
pub fn digest_all(digests: &[u64]) -> u64 {
    let mut d = Digest::default();
    for &v in digests {
        d.u64(v);
    }
    d.value()
}

/// Up to `k` distinct indices below `n`, seeded by the run's seed, in
/// ascending order: the batches an output check re-scores.
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = em_rt::StdRng::seed_from_u64(em_rt::derive_seed(seed, 0xC4EC));
    let mut picked: Vec<usize> = (0..k.min(n)).map(|_| rng.random_range(0..n)).collect();
    picked.sort_unstable();
    picked.dedup();
    picked
}

/// Share of query records whose values appeared earlier in the stream.
pub fn repeat_share(batches: &[em_table::Table]) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let (mut total, mut repeats) = (0u64, 0u64);
    for t in batches {
        for rec in t.records() {
            let key: Vec<Option<String>> = rec
                .values()
                .iter()
                .map(em_table::Value::to_display_string)
                .collect();
            total += 1;
            if !seen.insert(key) {
                repeats += 1;
            }
        }
    }
    ratio(repeats, total)
}

/// Copy the em-obs counters `names` from a traced window into `into`,
/// so they join the run's exact work counters.
pub fn keep_counters(window: &BTreeMap<String, u64>, names: &[&str], into: &mut Counters) {
    for &name in names {
        into.insert(name.to_string(), window.get(name).copied().unwrap_or(0));
    }
}

/// Whether two scored outputs agree bit for bit.
pub fn same_records(a: &[MatchRecord], b: &[MatchRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.pair == y.pair && x.score.to_bits() == y.score.to_bits() && x.is_match == y.is_match
        })
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size (VmHWM) in MiB, if procfs is available.
pub fn peak_rss_mib() -> Option<f64> {
    proc_status_kb("VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Reset VmHWM to the current RSS so the peak covers only what follows.
/// False where the kernel knob is unavailable; the peak is then the
/// whole process's.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPUs this process may run on (what `nproc` prints), from the affinity
/// list in procfs.
pub fn nproc() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = text
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut n = 0;
    for part in list.split(',') {
        n += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => {
                part.parse::<usize>().ok()?;
                1
            }
        };
    }
    Some(n)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `None` outside a git checkout.
pub fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// Host and configuration facts every report carries.
pub fn provenance(args: &RunArgs) -> Json {
    let opt = |v: Option<usize>| v.map_or(Json::Null, Json::from);
    Json::obj([
        ("nproc", opt(nproc())),
        (
            "available_parallelism",
            opt(std::thread::available_parallelism().ok().map(|p| p.get())),
        ),
        (
            "em_threads_env",
            std::env::var("EM_THREADS").map_or(Json::Null, Json::from),
        ),
        ("threads", Json::from(em_rt::threads())),
        ("git_commit", git_commit().map_or(Json::Null, Json::from)),
        ("seed", Json::from(args.seed)),
        ("held_out_seed", Json::from(HELD_OUT_SEED)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
    ])
}

/// A working directory under the run's output directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(args: &RunArgs) -> Result<Self, String> {
        let dir = args
            .out_dir
            .join(format!("work-{}-{}", args.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Exact work counters of one run. They are a pure function of the
/// workload, its sizes and the seed, so they must repeat exactly.
pub type Counters = BTreeMap<String, u64>;

/// Compare `counters` with the ledger entry for `key` (appending one when
/// absent) and return the names of counters that drifted.
pub fn ledger_check(out_dir: &Path, key: &str, counters: &Counters) -> Result<Vec<String>, String> {
    let path = out_dir.join("ledger.jsonl");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let rec = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if rec.get("key").and_then(Json::as_str) != Some(key) {
            continue;
        }
        let Some(Json::Obj(fields)) = rec.get("counters") else {
            return Err(format!("{}: entry without counters", path.display()));
        };
        let before: BTreeMap<&str, &Json> = fields.iter().map(|(k, v)| (k.as_str(), v)).collect();
        let mut drifted = Vec::new();
        for (name, &value) in counters {
            if before.get(name.as_str()).and_then(|v| v.as_str())
                != Some(value.to_string().as_str())
            {
                drifted.push(name.clone());
            }
        }
        drifted.extend(
            before
                .keys()
                .filter(|k| !counters.contains_key(**k))
                .map(|k| k.to_string()),
        );
        return Ok(drifted);
    }
    let entry = Json::obj([
        ("key", Json::from(key)),
        ("counters", counters_json(counters)),
    ]);
    let mut text = text;
    text.push_str(&entry.render());
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(Vec::new())
}

/// Counters as a JSON object. Values are decimal strings: digests and
/// bit patterns do not fit a JSON number exactly.
pub fn counters_json(counters: &Counters) -> Json {
    Json::Obj(
        counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::from(v.to_string())))
            .collect(),
    )
}

/// em-obs counters counted between [`trace_on`] and [`trace_off`], by
/// name. The counters are process-wide and never reset, so `trace_on`
/// flushes a baseline into the trace and the window's count is the last
/// flushed value minus that baseline.
pub fn trace_counters(path: &Path) -> Result<BTreeMap<String, u64>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let records = em_obs::report::parse_trace(&text)?;
    let mut seen: BTreeMap<String, (u64, u64, usize)> = BTreeMap::new();
    for r in &records {
        if r.get("kind").and_then(Json::as_str) != Some("counter") {
            continue;
        }
        let (Some(name), Some(value)) = (
            r.get("name").and_then(Json::as_str),
            r.get("value").and_then(Json::as_f64),
        ) else {
            continue;
        };
        let e = seen.entry(name.to_string()).or_insert((value as u64, 0, 0));
        e.1 = value as u64;
        e.2 += 1;
    }
    Ok(seen
        .into_iter()
        .map(|(name, (first, last, n))| (name, if n >= 2 { last - first } else { last }))
        .collect())
}

/// Turn em-obs tracing on into `path` for the traced replay, flushing the
/// counters' baseline first (see [`trace_counters`]).
pub fn trace_on(path: &Path) {
    em_obs::set_mode(em_obs::TraceMode::File(path.to_string_lossy().into_owned()));
    em_obs::flush();
}

/// Flush the em-obs trace, turn tracing off, and read the window's
/// counters.
pub fn trace_off(path: &Path) -> Result<BTreeMap<String, u64>, String> {
    em_obs::flush();
    em_obs::set_mode(em_obs::TraceMode::Off);
    trace_counters(path)
}
