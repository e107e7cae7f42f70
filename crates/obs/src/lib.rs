//! `em-obs` — zero-dependency observability for the AutoML-EM workspace.
//!
//! The paper's story (Figures 8–10) is about *where time and quality go*
//! during pipeline search; this crate makes the reproduction tell that story
//! itself. Three primitives, in the spirit of `em-rt`:
//!
//! * [`span!`] — hierarchical spans with monotonic timing. A span is an RAII
//!   guard; finished spans land in a per-thread shard buffer (one
//!   uncontended mutex per thread, drained in bulk), so the hot paths of a
//!   search never serialize on a global lock.
//! * [`Counter`] / [`Histogram`] — domain metrics (candidate pairs emitted,
//!   surrogate refits, …) as `static` items with fixed log2-scale buckets,
//!   registered lazily on first touch. Each metric is declared once and
//!   feeds both the trace and the rolling windows of [`live`].
//! * [`event`] — a structured, low-frequency event log: search-trajectory
//!   events (suggestion, eval start/finish, incumbent updates, per-fold F1),
//!   active-learning loop events, pool lifecycle. Events serialize
//!   immediately as JSONL through `em-rt`'s [`Json`] value.
//!
//! The sink is chosen by `EM_TRACE`: a file path, `stderr`, or `off`
//! (default). When off, every instrumentation site costs one relaxed atomic
//! load and allocates nothing. [`flush`] drains the span shards, metric
//! registries, and the runtime's own counters (`em_rt::stats`) into the
//! sink, closing the trace with `pool` / `channel` / `meta` summary records
//! that `obs_report` (in `em-bench`) renders into per-stage and
//! pool-utilization tables.
//!
//! Determinism contract: tracing *observes* execution and never feeds back
//! into it — timestamps, ids, and counts are recorded but no code path
//! branches on them — so enabling `EM_TRACE` cannot change any computed
//! bit. `crates/core/tests/determinism.rs` enforces this.

use em_rt::Json;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once};

pub mod live;
pub mod metrics;
pub mod report;
pub mod span;

pub use metrics::{Counter, Histogram};
pub use span::SpanGuard;

/// Where trace records go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceMode {
    /// No tracing; every instrumentation site is a single atomic check.
    Off,
    /// JSONL records to standard error, interleaved with normal logging.
    Stderr,
    /// JSONL records to the given file (truncated on open).
    File(String),
}

enum SinkTarget {
    Stderr,
    File(BufWriter<File>),
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();
static SINK: Mutex<Option<SinkTarget>> = Mutex::new(None);

/// Whether tracing is active. Inlined to a relaxed load after the one-time
/// `EM_TRACE` environment lookup.
#[inline]
pub fn enabled() -> bool {
    if !ENV_INIT.is_completed() {
        init_from_env();
    }
    ENABLED.load(Ordering::Relaxed)
}

fn init_from_env() {
    ENV_INIT.call_once(|| {
        let mode = match std::env::var("EM_TRACE") {
            Err(_) => TraceMode::Off,
            Ok(v) => match v.trim() {
                "" | "off" | "0" => TraceMode::Off,
                "stderr" => TraceMode::Stderr,
                path => TraceMode::File(path.to_string()),
            },
        };
        apply_mode(mode);
    });
}

/// Select the trace sink programmatically, overriding (and pre-empting) the
/// `EM_TRACE` environment lookup. Used by tests and embedding applications;
/// most binaries just set the environment variable.
pub fn set_mode(mode: TraceMode) {
    // Consume the one-shot env init so it can never override this choice.
    ENV_INIT.call_once(|| {});
    apply_mode(mode);
}

fn apply_mode(mode: TraceMode) {
    let mut sink = SINK.lock().unwrap();
    if let Some(SinkTarget::File(w)) = sink.as_mut() {
        let _ = w.flush();
    }
    *sink = match &mode {
        TraceMode::Off => None,
        TraceMode::Stderr => Some(SinkTarget::Stderr),
        TraceMode::File(path) if std::path::Path::new(path).is_dir() => {
            eprintln!("em-obs: EM_TRACE path {path} is a directory, not a file; tracing disabled");
            None
        }
        TraceMode::File(path) => match File::create(path) {
            Ok(f) => Some(SinkTarget::File(BufWriter::new(f))),
            Err(e) => {
                eprintln!("em-obs: cannot open trace file {path}: {e}; tracing disabled");
                None
            }
        },
    };
    let on = sink.is_some();
    drop(sink);
    ENABLED.store(on, Ordering::Relaxed);
    // The runtime collects its own counters (queue wait, busy time, channel
    // traffic) whenever a sink is active; `flush` snapshots them. Live
    // telemetry pollers read the same counters, so the switch stays on while
    // either layer is active.
    em_rt::stats::set_enabled(on || live::enabled());
}

/// Serialize one record to the active sink. No-op when tracing is off.
pub(crate) fn write_record(record: &Json) {
    let line = record.render();
    let mut sink = SINK.lock().unwrap();
    match sink.as_mut() {
        None => {}
        Some(SinkTarget::Stderr) => eprintln!("{line}"),
        Some(SinkTarget::File(w)) => {
            let _ = writeln!(w, "{line}");
        }
    }
}

/// Log a structured event. The field closure is only evaluated when tracing
/// is enabled, so call sites stay allocation-free in the default
/// configuration:
///
/// ```
/// em_obs::event("search.incumbent", || vec![("score", em_rt::Json::from(0.93))]);
/// ```
///
/// Events are for low-frequency trajectory points (one per trial, fold, or
/// loop iteration); per-item hot paths should use spans or counters.
pub fn event<F>(name: &'static str, fields: F)
where
    F: FnOnce() -> Vec<(&'static str, Json)>,
{
    if !enabled() {
        return;
    }
    let mut obj: Vec<(String, Json)> = vec![
        ("kind".to_string(), Json::from("event")),
        ("event".to_string(), Json::from(name)),
        ("t".to_string(), Json::from(em_rt::stats::now_ns())),
        ("thread".to_string(), Json::from(span::thread_id())),
    ];
    for (k, v) in fields() {
        obj.push((k.to_string(), v));
    }
    write_record(&Json::Obj(obj));
}

/// Drain every buffer into the sink: span shards, counter/histogram
/// registries, the runtime's pool/channel statistics, and a closing `meta`
/// record. Binaries call this once before exit; it is idempotent and cheap
/// when tracing is off.
pub fn flush() {
    if !enabled() {
        return;
    }
    span::flush_shards();
    metrics::flush();
    let (pool, channel) = em_rt::stats::snapshot_json();
    write_record(&prepend_kind("pool", pool));
    write_record(&prepend_kind("channel", channel));
    write_record(&Json::obj([
        ("kind", Json::from("meta")),
        ("t", Json::from(em_rt::stats::now_ns())),
        ("threads", Json::from(em_rt::threads())),
        (
            "available_parallelism",
            Json::from(std::thread::available_parallelism().map_or(1, |p| p.get())),
        ),
    ]));
    let mut sink = SINK.lock().unwrap();
    if let Some(SinkTarget::File(w)) = sink.as_mut() {
        let _ = w.flush();
    }
}

fn prepend_kind(kind: &str, obj: Json) -> Json {
    let mut fields = vec![("kind".to_string(), Json::from(kind))];
    if let Json::Obj(rest) = obj {
        fields.extend(rest);
    }
    Json::Obj(fields)
}

/// Open a named span covering the enclosing scope:
///
/// ```
/// let _span = em_obs::span!("forest.fit");
/// ```
///
/// The guard records `[begin, drop)` with monotonic timestamps and the
/// current thread's innermost open span as its parent. When tracing is off
/// the expansion is a single atomic check.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::begin($name)
    };
}
