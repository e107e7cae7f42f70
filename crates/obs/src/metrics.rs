//! Domain counters and histograms as `static` items — the one metric model
//! behind both the JSONL trace and the live `/metrics` windows.
//!
//! Declaration is `const` so a metric costs nothing until first touched
//! while tracing or live telemetry is active, at which point it registers
//! itself into the one process-wide registry:
//!
//! ```
//! static PAIRS_EMITTED: em_obs::Counter = em_obs::Counter::new("example.pairs_emitted");
//! PAIRS_EMITTED.add(42);
//! ```
//!
//! Each update feeds two sinks, each behind its own switch:
//!
//! * **trace totals** (while [`crate::enabled`]): relaxed atomics counting
//!   from the first traced touch, flushed into the trace by
//!   [`crate::flush`]. A metric flushes only if it was touched while
//!   tracing was on, so its value describes exactly the traced window.
//! * **slice ring** (while [`crate::live::enabled`]): a lazily boxed ring
//!   of [`RING_LEN`] time slices, each a log2-bucket histogram stamped
//!   with its slice epoch (`now_ns / slice_ns` off the shared monotonic
//!   timebase in `em_rt::stats`). Recording rotates the ring lazily: the
//!   slot for the current epoch is cleared the first time a new epoch
//!   touches it, so there is no background sweeper thread and an idle
//!   metric costs nothing. Snapshots merge the slices whose epochs fall
//!   inside the requested [`Window`], so a reported rate or quantile
//!   describes a trailing window with one-slice resolution.
//!
//! Both sinks bucket with `em_rt::stats::bucket_index` and report
//! quantiles with `em_rt::stats::clamped_quantile`, so a trace and a
//! `/metrics` scrape of the same observations agree exactly.

use crate::live::{Gauge, Window, WindowStats, DEFAULT_SLICE_NS, RING_LEN};
use crate::write_record;
use em_rt::stats::{bucket_index, clamped_quantile, LogHistogram, LOG_BUCKETS};
use em_rt::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A registered metric. Every counter, histogram and gauge lands here on
/// first touch; the trace flush and the `/metrics` renderer both read it.
#[derive(Clone, Copy)]
pub(crate) enum Metric {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
    Gauge(&'static Gauge),
}

static REGISTRY: Mutex<Vec<Metric>> = Mutex::new(Vec::new());

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Every metric touched so far, in first-touch order.
pub(crate) fn registered() -> Vec<Metric> {
    lock(&REGISTRY).clone()
}

/// Registration state of one metric: whether it is in the registry, and
/// whether it was ever touched while tracing was on (and so belongs in the
/// trace).
pub(crate) struct Presence {
    registered: AtomicBool,
    traced: AtomicBool,
}

impl Presence {
    pub(crate) const fn new() -> Presence {
        Presence {
            registered: AtomicBool::new(false),
            traced: AtomicBool::new(false),
        }
    }

    #[inline]
    pub(crate) fn touch(&self, traced: bool, metric: impl FnOnce() -> Metric) {
        if traced && !self.traced.load(Ordering::Relaxed) {
            self.traced.store(true, Ordering::Relaxed);
        }
        if !self.registered.load(Ordering::Relaxed)
            && !self.registered.swap(true, Ordering::Relaxed)
        {
            lock(&REGISTRY).push(metric());
        }
    }

    fn traced(&self) -> bool {
        self.traced.load(Ordering::Relaxed)
    }
}

#[derive(Clone)]
struct Slice {
    /// Which epoch this slot currently holds; `u64::MAX` = never written.
    epoch: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u32; LOG_BUCKETS],
}

const EMPTY_SLICE: Slice = Slice {
    epoch: u64::MAX,
    count: 0,
    sum: 0,
    min: u64::MAX,
    max: 0,
    buckets: [0; LOG_BUCKETS],
};

struct Ring {
    slices: Vec<Slice>,
    /// Cumulative count and sum since the ring was allocated; they survive
    /// window expiry.
    total_count: u64,
    total_sum: u64,
}

impl Ring {
    /// The slot for `epoch`, cleared first if it still holds an older epoch.
    /// This lazy rotation is the only way slices are ever reset.
    fn slot(&mut self, epoch: u64) -> &mut Slice {
        let s = &mut self.slices[(epoch % RING_LEN as u64) as usize];
        if s.epoch != epoch {
            *s = EMPTY_SLICE;
            s.epoch = epoch;
        }
        s
    }
}

/// The live-window side of a metric: a slice width and its ring, boxed on
/// first live record.
struct Windows {
    slice_ns: u64,
    ring: Mutex<Option<Box<Ring>>>,
}

impl Windows {
    const fn new(slice_ns: u64) -> Windows {
        Windows {
            slice_ns,
            ring: Mutex::new(None),
        }
    }

    /// Run `f` on the slot for `now_ns` (allocating the ring if needed) and
    /// add the `(count, sum)` it returns to the ring's totals.
    fn with_slot(&self, now_ns: u64, f: impl FnOnce(&mut Slice) -> (u64, u64)) {
        let mut guard = lock(&self.ring);
        let ring = guard.get_or_insert_with(|| {
            Box::new(Ring {
                slices: vec![EMPTY_SLICE; RING_LEN],
                total_count: 0,
                total_sum: 0,
            })
        });
        let (count, sum) = f(ring.slot(now_ns / self.slice_ns));
        ring.total_count += count;
        ring.total_sum += sum;
    }

    fn is_live(&self) -> bool {
        lock(&self.ring).is_some()
    }

    /// Cumulative `(count, sum)` recorded into the windows.
    fn totals(&self) -> (u64, u64) {
        lock(&self.ring)
            .as_ref()
            .map_or((0, 0), |r| (r.total_count, r.total_sum))
    }

    /// Merge the slices inside `window` ending at `now_ns`. Quantiles and
    /// min/max come only from bucketed observations, so a counter's
    /// snapshot reports count and rate alone.
    fn stats_at(&self, now_ns: u64, window: Window) -> WindowStats {
        let epoch = now_ns / self.slice_ns;
        let n = window.slices().min(RING_LEN as u64);
        let lo = epoch.saturating_sub(n - 1);
        let (mut count, mut sum, mut min, mut max) = (0u64, 0u64, u64::MAX, 0u64);
        let mut buckets = [0u64; LOG_BUCKETS];
        if let Some(ring) = lock(&self.ring).as_ref() {
            for s in ring
                .slices
                .iter()
                .filter(|s| s.epoch >= lo && s.epoch <= epoch)
            {
                count += s.count;
                sum += s.sum;
                min = min.min(s.min);
                max = max.max(s.max);
                for (acc, b) in buckets.iter_mut().zip(s.buckets.iter()) {
                    *acc += u64::from(*b);
                }
            }
        }
        let observed = buckets.iter().any(|&b| b > 0);
        let window_secs = (n * self.slice_ns) as f64 / 1e9;
        WindowStats {
            window,
            window_secs,
            count,
            rate_per_sec: count as f64 / window_secs,
            sum,
            min: observed.then_some(min),
            max: observed.then_some(max),
            p50: clamped_quantile(&buckets, 0.50, min, max),
            p99: clamped_quantile(&buckets, 0.99, min, max),
        }
    }
}

/// A named monotonic counter with trailing-window rates.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    presence: Presence,
    windows: Windows,
}

impl Counter {
    /// Declare a counter with the default 5-second window slice (usable in
    /// `static` position).
    pub const fn new(name: &'static str) -> Counter {
        Counter::with_slice_ns(name, DEFAULT_SLICE_NS)
    }

    /// Declare with a custom window slice width — tests use millisecond
    /// slices to exercise rotation without waiting out wall-clock windows.
    pub const fn with_slice_ns(name: &'static str, slice_ns: u64) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            presence: Presence::new(),
            windows: Windows::new(slice_ns),
        }
    }

    /// Add `n` (no-op while tracing and live telemetry are both off).
    #[inline]
    pub fn add(&'static self, n: u64) {
        let (traced, live) = (crate::enabled(), crate::live::enabled());
        if traced || live {
            self.observe(traced, live.then(em_rt::stats::now_ns), n);
        }
    }

    /// Add 1 (no-op while tracing and live telemetry are both off).
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Add at an explicit timestamp. Test hook: feeds the trace totals when
    /// tracing is on and the windows whatever the live switch says, so
    /// tests can drive synthetic time deterministically.
    pub fn add_at(&'static self, now_ns: u64, n: u64) {
        self.observe(crate::enabled(), Some(now_ns), n);
    }

    fn observe(&'static self, traced: bool, now_ns: Option<u64>, n: u64) {
        self.presence.touch(traced, || Metric::Counter(self));
        if traced {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
        if let Some(now) = now_ns {
            self.windows.with_slot(now, |s| {
                s.count += n;
                s.sum += n;
                (n, n)
            });
        }
    }

    /// Traced total (counted only while tracing was on).
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Cumulative total recorded into the live windows.
    pub fn live_total(&self) -> u64 {
        self.windows.totals().0
    }

    /// Trailing-window count + rate at the current time.
    pub fn stats(&self, window: Window) -> WindowStats {
        self.stats_at(em_rt::stats::now_ns(), window)
    }

    /// Trailing-window count + rate at an explicit timestamp (test hook).
    pub fn stats_at(&self, now_ns: u64, window: Window) -> WindowStats {
        self.windows.stats_at(now_ns, window)
    }
}

/// A named log2-bucket histogram (see [`em_rt::stats::LogHistogram`]) that
/// additionally tracks the exact observed min/max, so reported quantiles
/// clamp to the true value range instead of a log2 bucket bound (a
/// small-sample p99 of three ~1ms batches reads ~1ms, not the 2^n bucket
/// boundary above it).
pub struct Histogram {
    name: &'static str,
    inner: LogHistogram,
    min: AtomicU64,
    max: AtomicU64,
    presence: Presence,
    windows: Windows,
}

impl Histogram {
    /// Declare a histogram with the default 5-second window slice (usable
    /// in `static` position).
    pub const fn new(name: &'static str) -> Histogram {
        Histogram::with_slice_ns(name, DEFAULT_SLICE_NS)
    }

    /// Declare with a custom window slice width (test hook).
    pub const fn with_slice_ns(name: &'static str, slice_ns: u64) -> Histogram {
        Histogram {
            name,
            inner: LogHistogram::new(),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            presence: Presence::new(),
            windows: Windows::new(slice_ns),
        }
    }

    /// Count one observation of `v` (no-op while tracing and live telemetry
    /// are both off).
    #[inline]
    pub fn record(&'static self, v: u64) {
        self.record_all([v]);
    }

    /// Count a batch of observations, taking the window lock once. Hot
    /// paths that observe per-item values (e.g. per-pair match scores) use
    /// this to avoid a lock round-trip per item.
    pub fn record_all<I: IntoIterator<Item = u64>>(&'static self, values: I) {
        let (traced, live) = (crate::enabled(), crate::live::enabled());
        if traced || live {
            self.observe(traced, live.then(em_rt::stats::now_ns), values);
        }
    }

    /// Record at an explicit timestamp. Test hook: feeds the trace totals
    /// when tracing is on and the windows whatever the live switch says.
    pub fn record_at(&'static self, now_ns: u64, v: u64) {
        self.observe(crate::enabled(), Some(now_ns), [v]);
    }

    fn observe<I: IntoIterator<Item = u64>>(
        &'static self,
        traced: bool,
        now_ns: Option<u64>,
        values: I,
    ) {
        self.presence.touch(traced, || Metric::Histogram(self));
        let trace = |v: u64| {
            if traced {
                self.inner.record(v);
                self.min.fetch_min(v, Ordering::Relaxed);
                self.max.fetch_max(v, Ordering::Relaxed);
            }
        };
        match now_ns {
            None => values.into_iter().for_each(trace),
            Some(now) => self.windows.with_slot(now, |s| {
                let (mut n, mut sum) = (0u64, 0u64);
                for v in values {
                    trace(v);
                    n += 1;
                    sum += v;
                    s.count += 1;
                    s.sum += v;
                    s.min = s.min.min(v);
                    s.max = s.max.max(v);
                    s.buckets[bucket_index(v)] += 1;
                }
                (n, sum)
            }),
        }
    }

    /// Traced observations recorded.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Exact traced `(min, max)`, `None` while empty.
    pub fn observed_range(&self) -> Option<(u64, u64)> {
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        (min <= max).then_some((min, max))
    }

    /// Quantile of the traced observations (see
    /// [`em_rt::stats::clamped_quantile`]), `None` while empty. Lets
    /// harnesses (e.g. `bench_serve`) read p50/p99 without a flush cycle.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let (min, max) = self.observed_range()?;
        clamped_quantile(&self.inner.bucket_counts(), q, min, max)
    }

    /// Cumulative observation count recorded into the live windows.
    pub fn live_count(&self) -> u64 {
        self.windows.totals().0
    }

    /// Cumulative sum of observed values recorded into the live windows.
    pub fn live_sum(&self) -> u64 {
        self.windows.totals().1
    }

    /// Trailing-window snapshot at the current time.
    pub fn stats(&self, window: Window) -> WindowStats {
        self.stats_at(em_rt::stats::now_ns(), window)
    }

    /// Trailing-window snapshot at an explicit timestamp (test hook).
    pub fn stats_at(&self, now_ns: u64, window: Window) -> WindowStats {
        self.windows.stats_at(now_ns, window)
    }
}

/// Render the registry as `/metrics` text blocks, sorted by name: gauges
/// as one line, counters and histograms that were recorded into the live
/// windows as cumulative totals plus count/rate (and, for histograms,
/// p50/p99/min/max) per trailing window. Quantile lines are omitted while a
/// window is empty.
pub(crate) fn render_windows(now_ns: u64, out: &mut String) {
    let mut metrics = registered();
    metrics.sort_by_key(|m| match m {
        Metric::Counter(c) => c.name,
        Metric::Histogram(h) => h.name,
        Metric::Gauge(g) => g.name(),
    });
    for m in metrics {
        let (name, windows, totals) = match m {
            Metric::Gauge(g) => {
                out.push_str(&format!("{} {}\n", g.name(), g.value()));
                continue;
            }
            Metric::Counter(c) => (c.name, &c.windows, vec![("total", c.live_total())]),
            Metric::Histogram(h) => {
                let (count, sum) = h.windows.totals();
                (
                    h.name,
                    &h.windows,
                    vec![("total.count", count), ("total.sum", sum)],
                )
            }
        };
        if !windows.is_live() {
            continue;
        }
        for (key, v) in totals {
            out.push_str(&format!("{name}.{key} {v}\n"));
        }
        for w in Window::ALL {
            let s = windows.stats_at(now_ns, w);
            let l = w.label();
            out.push_str(&format!("{name}.{l}.count {}\n", s.count));
            out.push_str(&format!("{name}.{l}.rate_per_s {:.3}\n", s.rate_per_sec));
            for (stat, v) in [
                ("p50", s.p50),
                ("p99", s.p99),
                ("min", s.min),
                ("max", s.max),
            ] {
                if let Some(v) = v {
                    out.push_str(&format!("{name}.{l}.{stat} {v}\n"));
                }
            }
        }
    }
}

/// Serialize every metric touched while tracing was on. Called from
/// [`flush`](crate::flush).
pub(crate) fn flush() {
    let metrics = registered();
    for m in &metrics {
        if let Metric::Counter(c) = m {
            if c.presence.traced() {
                write_record(&Json::obj([
                    ("kind", Json::from("counter")),
                    ("name", Json::from(c.name)),
                    ("value", Json::from(c.value())),
                ]));
            }
        }
    }
    for m in &metrics {
        let Metric::Histogram(h) = m else { continue };
        if !h.presence.traced() {
            continue;
        }
        let range = h.observed_range();
        write_record(&Json::obj([
            ("kind", Json::from("hist")),
            ("name", Json::from(h.name)),
            ("count", Json::from(h.inner.count())),
            ("p50", h.quantile(0.50).map_or(Json::Null, Json::from)),
            ("p99", h.quantile(0.99).map_or(Json::Null, Json::from)),
            ("min", range.map_or(Json::Null, |(lo, _)| Json::from(lo))),
            ("max", range.map_or(Json::Null, |(_, hi)| Json::from(hi))),
            (
                "buckets",
                Json::arr(h.inner.nonzero_buckets().into_iter().map(|(lower, n)| {
                    Json::obj([("ge", Json::from(lower)), ("n", Json::from(n))])
                })),
            ),
        ]));
    }
}
