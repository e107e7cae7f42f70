//! Self-instrumentation for the runtime: lock-free counters and log-scale
//! histograms the pool and channel update on their hot paths, plus the
//! process-wide monotonic timebase every trace record in the workspace
//! shares.
//!
//! This module exists so `em-obs` (which depends on `em-rt`) can observe the
//! runtime without a dependency cycle: `em-obs` flips [`set_enabled`] when a
//! trace sink is active and snapshots everything here at flush time via
//! [`snapshot_json`]. When disabled (the default), every instrumentation
//! site reduces to one relaxed atomic load — no timestamps are taken, no
//! counters move, and nothing allocates.
//!
//! Determinism contract: everything here *observes* execution (timestamps,
//! claim counts, wait durations) and nothing feeds back into scheduling or
//! computation, so enabling stats can never change a result bit.

use crate::json::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Master switch, flipped by the observability layer. Default off.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enable or disable runtime stats collection. Counters are not cleared on
/// transitions; pair with [`reset`] when a clean window is needed.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether runtime stats collection is currently on. One relaxed load —
/// cheap enough for per-chunk hot paths.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process's trace epoch (the first call to this
/// function). Monotonic, shared by every span and event in the workspace so
/// records from different crates land on one timeline.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// Number of per-thread busy-time slots: slot 0 is the submitting thread,
/// slots `1..` are pool workers. Workers beyond the cap fold into the last
/// slot (pools that large do not occur in practice).
pub const MAX_TRACKED_THREADS: usize = 65;

/// Buckets in a log2 histogram: bucket 0 holds zeros, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i)`, so 65 buckets cover the whole `u64`
/// range.
pub const LOG_BUCKETS: usize = 65;

/// The log2 bucket holding `v` — the one bucket rule every histogram in the
/// workspace records with.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Smallest value bucket `i` holds.
fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Exclusive upper bound of bucket `i` (saturating at `u64::MAX` for the
/// last bucket; 0 for the zero bucket).
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        i if i >= 64 => u64::MAX,
        i => 1u64 << i,
    }
}

/// Nearest-rank quantile over bucket counts: the index of the bucket
/// holding the `ceil(q * total)`-th observation, `None` while empty.
fn rank_bucket(buckets: &[u64], q: f64) -> Option<usize> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    buckets.iter().position(|&n| {
        seen += n;
        seen >= rank
    })
}

/// The reported quantile of a histogram whose exact observed range is
/// `[min, max]`: the nearest-rank bucket's upper bound, clamped to that
/// range — so when the tail shares one bucket, p99 reads the true max
/// instead of the next power of two. `None` while empty.
pub fn clamped_quantile(buckets: &[u64], q: f64, min: u64, max: u64) -> Option<u64> {
    rank_bucket(buckets, q).map(|i| bucket_upper(i).clamp(min, max))
}

/// A fixed-bucket log2 histogram (see [`bucket_index`]); recording is a
/// single relaxed `fetch_add`.
pub struct LogHistogram {
    buckets: [AtomicU64; LOG_BUCKETS],
}

impl LogHistogram {
    /// An empty histogram (usable in `static` position).
    pub const fn new() -> Self {
        LogHistogram {
            buckets: [const { AtomicU64::new(0) }; LOG_BUCKETS],
        }
    }

    /// Count one observation of `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Per-bucket counts, indexed as [`bucket_index`].
    pub fn bucket_counts(&self) -> [u64; LOG_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.bucket_counts()
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_lower(i), n))
            .collect()
    }

    /// Approximate quantile (`q` in `[0, 1]`): the lower bound of the
    /// nearest-rank bucket, or `None` if empty. Log-bucketed, so the answer is
    /// within 2x of the true value — plenty for a p50/p99 utilization
    /// report.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        rank_bucket(&self.bucket_counts(), q).map(bucket_lower)
    }

    fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count())),
            (
                "buckets",
                Json::arr(self.nonzero_buckets().into_iter().map(|(lower, n)| {
                    Json::obj([("ge", Json::from(lower)), ("n", Json::from(n))])
                })),
            ),
            ("p50", self.quantile(0.50).map_or(Json::Null, Json::from)),
            ("p99", self.quantile(0.99).map_or(Json::Null, Json::from)),
        ])
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// Parallel sections dispatched to the worker pool.
pub static POOL_JOBS: AtomicU64 = AtomicU64::new(0);
/// Parallel sections run inline (serial request, nested section, or a
/// contended pool).
pub static POOL_INLINE: AtomicU64 = AtomicU64::new(0);
/// Work chunks claimed off dispatch counters (steal operations).
pub static POOL_CHUNKS: AtomicU64 = AtomicU64::new(0);
/// Delay from job publication to each participant starting it, in ns.
pub static QUEUE_WAIT_NS: LogHistogram = LogHistogram::new();
/// Busy nanoseconds per participating thread: slot 0 = submitter, 1.. =
/// pool workers.
pub static THREAD_BUSY_NS: [AtomicU64; MAX_TRACKED_THREADS] =
    [const { AtomicU64::new(0) }; MAX_TRACKED_THREADS];
/// Values sent over `em-rt` channels.
pub static CHANNEL_SENDS: AtomicU64 = AtomicU64::new(0);
/// Values received over `em-rt` channels.
pub static CHANNEL_RECVS: AtomicU64 = AtomicU64::new(0);
/// Time receivers spent blocked waiting for a value, in ns (only recorded
/// when `recv` actually blocks).
pub static RECV_WAIT_NS: LogHistogram = LogHistogram::new();

/// Add `ns` of busy time to the slot for pool worker `index` (`None` = the
/// submitting thread).
#[inline]
pub fn add_busy_ns(worker: Option<usize>, ns: u64) {
    let slot = match worker {
        None => 0,
        Some(i) => (i + 1).min(MAX_TRACKED_THREADS - 1),
    };
    THREAD_BUSY_NS[slot].fetch_add(ns, Ordering::Relaxed);
}

/// Total busy nanoseconds accumulated across every tracked thread (submitter
/// plus pool workers). Monotone while stats stay enabled; live-telemetry
/// pollers diff successive samples against wall time to derive pool
/// utilization without touching the flush path.
pub fn busy_ns_total() -> u64 {
    THREAD_BUSY_NS
        .iter()
        .map(|slot| slot.load(Ordering::Relaxed))
        .sum()
}

/// Clear every counter and histogram (the timebase epoch is left alone so
/// timestamps stay comparable across windows).
pub fn reset() {
    for c in [
        &POOL_JOBS,
        &POOL_INLINE,
        &POOL_CHUNKS,
        &CHANNEL_SENDS,
        &CHANNEL_RECVS,
    ] {
        c.store(0, Ordering::Relaxed);
    }
    for slot in &THREAD_BUSY_NS {
        slot.store(0, Ordering::Relaxed);
    }
    QUEUE_WAIT_NS.clear();
    RECV_WAIT_NS.clear();
}

/// Snapshot every runtime counter as a JSON object (the payload of the
/// trace's `"kind":"pool"` / `"kind":"channel"` records).
pub fn snapshot_json() -> (Json, Json) {
    let busy: Vec<Json> = THREAD_BUSY_NS
        .iter()
        .enumerate()
        .filter_map(|(i, slot)| {
            let ns = slot.load(Ordering::Relaxed);
            if ns == 0 {
                None
            } else {
                let name = if i == 0 {
                    "submitter".to_string()
                } else {
                    format!("worker-{}", i - 1)
                };
                Some(Json::obj([
                    ("thread", Json::from(name)),
                    ("busy_ns", Json::from(ns)),
                ]))
            }
        })
        .collect();
    let pool = Json::obj([
        ("jobs", Json::from(POOL_JOBS.load(Ordering::Relaxed))),
        (
            "inline_sections",
            Json::from(POOL_INLINE.load(Ordering::Relaxed)),
        ),
        (
            "chunks_claimed",
            Json::from(POOL_CHUNKS.load(Ordering::Relaxed)),
        ),
        ("workers", Json::from(crate::pool::pool_workers())),
        ("queue_wait_ns", QUEUE_WAIT_NS.to_json()),
        ("busy", Json::Arr(busy)),
    ]);
    let channel = Json::obj([
        ("sends", Json::from(CHANNEL_SENDS.load(Ordering::Relaxed))),
        ("recvs", Json::from(CHANNEL_RECVS.load(Ordering::Relaxed))),
        ("recv_wait_ns", RECV_WAIT_NS.to_json()),
    ]);
    (pool, channel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_buckets_by_power_of_two() {
        let h = LogHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 2), (1024, 1)]);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let h = LogHistogram::new();
        for _ in 0..99 {
            h.record(4);
        }
        h.record(1 << 20);
        assert_eq!(h.quantile(0.5), Some(4));
        assert_eq!(h.quantile(0.99), Some(4));
        assert_eq!(h.quantile(1.0), Some(1 << 20));
        assert_eq!(LogHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn clamped_quantile_reads_bucket_upper_bound_within_observed_range() {
        let mut buckets = [0u64; LOG_BUCKETS];
        for v in [100, 200, 4000] {
            buckets[bucket_index(v)] += 1;
        }
        // 2nd of three lands in [128, 256): upper bound 256.
        assert_eq!(clamped_quantile(&buckets, 0.5, 100, 4000), Some(256));
        // The tail bucket [2048, 4096) clamps to the observed max.
        assert_eq!(clamped_quantile(&buckets, 0.99, 100, 4000), Some(4000));
        assert_eq!(clamped_quantile(&[0; LOG_BUCKETS], 0.5, 0, 0), None);
        assert_eq!(bucket_upper(bucket_index(u64::MAX)), u64::MAX);
        assert_eq!(bucket_upper(bucket_index(0)), 0);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
