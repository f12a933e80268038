//! Process-global metrics registry: typed counters and lock-free
//! fixed-log-bucket histograms.
//!
//! Every metric is registered under a stable string name the first time
//! it is requested ([`counter`] / [`histogram`]) and lives for the rest
//! of the process. Handles are `&'static`, so hot paths pay one registry
//! lookup at initialization and plain relaxed atomics per update
//! afterwards. All update paths are wait-free atomic adds, which makes
//! the registry **concurrency-exact** under
//! [`crate::parallel_map`] / [`crate::supervised_map`]: a delta across a
//! parallel region equals the sum of the per-thread contributions.
//!
//! Telemetry facades elsewhere in the workspace (`lp_telemetry()` in
//! `abt-active`) are thin views over these metrics — the registry is the
//! single source of truth.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotone event counter. Updates are single relaxed atomic adds, so
/// concurrent increments from a parallel fan-out are counted exactly.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current cumulative value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets of a [`Histogram`]: values 0–3 get exact unit
/// buckets, every later power-of-two octave is split into 4 linear
/// sub-buckets (≤ 25% relative bucket width), covering the full `u64`
/// range.
pub const HISTOGRAM_BUCKETS: usize = 252;

/// Bucket index of value `v` (see [`HISTOGRAM_BUCKETS`]).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros() as usize; // >= 2
        let sub = ((v >> (octave - 2)) & 3) as usize;
        4 * (octave - 1) + sub
    }
}

/// Inclusive upper edge of bucket `idx` — the deterministic
/// representative value percentile extraction reports.
pub fn bucket_hi(idx: usize) -> u64 {
    if idx < 4 {
        idx as u64
    } else {
        let octave = idx / 4 + 1;
        let sub = (idx % 4) as u64;
        let width = 1u64 << (octave - 2);
        let lo = (1u64 << octave) + sub * width;
        lo.saturating_add(width - 1)
    }
}

/// A lock-free fixed-log-bucket histogram. [`Histogram::record`] is one
/// relaxed atomic add into the value's bucket, so concurrent recordings
/// under a parallel fan-out are counted exactly; percentile extraction
/// ([`HistogramSnapshot::percentile`]) is a pure, deterministic function
/// of the bucket counts, reporting the inclusive upper edge of the
/// bucket holding the requested rank (≤ 25% relative quantization).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current bucket counts out as a snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s bucket counts. Counts are
/// cumulative and monotone; diff two snapshots with
/// [`HistogramSnapshot::delta`] to scope percentiles to a region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Bucket-wise `self − earlier`.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i] - earlier.counts[i]),
        }
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The raw bucket counts (index ↦ count; see [`HISTOGRAM_BUCKETS`]).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Deterministic percentile extraction: the inclusive upper edge of
    /// the bucket containing rank `⌈q·count⌉` (0 when the histogram is
    /// empty). `q` is clamped to `[0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_hi(i);
            }
        }
        unreachable!("rank {rank} exceeds total {total}")
    }
}

/// One registered metric (see [`lookup`] and [`render`]).
#[derive(Debug, Clone, Copy)]
pub enum Metric {
    /// A [`Counter`].
    Counter(&'static Counter),
    /// A [`Histogram`].
    Histogram(&'static Histogram),
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Returns the process-global counter registered under `name`, creating
/// it on first use.
///
/// # Panics
///
/// If `name` is already registered as a different metric type.
pub fn counter(name: &'static str) -> &'static Counter {
    let got = {
        let mut reg = registry().lock().expect("metrics registry poisoned");
        match reg
            .entry(name)
            .or_insert_with(|| Metric::Counter(Box::leak(Box::default())))
        {
            Metric::Counter(c) => Some(*c),
            _ => None,
        }
        // The lock is released here so a type-mismatch panic below
        // cannot poison the registry for the rest of the process.
    };
    got.unwrap_or_else(|| panic!("metric {name:?} is not a counter"))
}

/// Returns the process-global histogram registered under `name`, creating
/// it on first use.
///
/// # Panics
///
/// If `name` is already registered as a different metric type.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let got = {
        let mut reg = registry().lock().expect("metrics registry poisoned");
        match reg
            .entry(name)
            .or_insert_with(|| Metric::Histogram(Box::leak(Box::new(Histogram::new()))))
        {
            Metric::Histogram(h) => Some(*h),
            _ => None,
        }
    };
    got.unwrap_or_else(|| panic!("metric {name:?} is not a histogram"))
}

/// The metric registered under `name`, if any. Unlike [`counter`] and
/// [`histogram`] this never registers, so a reader that misspells a name
/// gets `None` rather than a fresh zero.
pub fn lookup(name: &str) -> Option<Metric> {
    let reg = registry().lock().expect("metrics registry poisoned");
    reg.get(name).copied()
}

/// Renders every registered metric as `name value` lines (sorted by
/// name): counters as their cumulative count, histograms as
/// `name_count` plus deterministic `name_p50` / `name_p90` / `name_p99`
/// extractions. This
/// is the plain-text exposition surface behind the CLI's `--metrics`
/// flag.
pub fn render() -> String {
    let reg = registry().lock().expect("metrics registry poisoned");
    let mut out = String::new();
    for (name, metric) in reg.iter() {
        match metric {
            Metric::Counter(c) => {
                out.push_str(&format!("{name} {}\n", c.get()));
            }
            Metric::Histogram(h) => {
                let snap = h.snapshot();
                out.push_str(&format!("{name}_count {}\n", snap.count()));
                for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                    out.push_str(&format!("{name}_{label} {}\n", snap.percentile(q)));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = counter("test.metrics.counter_accumulates");
        let before = c.get();
        c.inc();
        c.add(9);
        assert_eq!(c.get() - before, 10);
    }

    #[test]
    fn registry_returns_the_same_handle() {
        let a = counter("test.metrics.same_handle");
        let b = counter("test.metrics.same_handle");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    #[should_panic(expected = "is not a histogram")]
    fn type_mismatch_panics() {
        counter("test.metrics.type_mismatch");
        histogram("test.metrics.type_mismatch");
    }

    #[test]
    fn bucket_mapping_is_contiguous_and_monotone() {
        // Every value maps into a bucket whose upper edge is >= it, and
        // bucket upper edges are strictly increasing.
        for v in (0..4096u64).chain([u64::MAX / 2, u64::MAX - 1, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(idx < HISTOGRAM_BUCKETS, "v={v} idx={idx}");
            assert!(bucket_hi(idx) >= v, "v={v} hi={}", bucket_hi(idx));
        }
        for idx in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_hi(idx) > bucket_hi(idx - 1), "idx={idx}");
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_hi(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_percentiles_are_deterministic_bucket_edges() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 4);
        // rank ceil(0.5*4)=2 -> the bucket holding the second value (2).
        assert_eq!(snap.percentile(0.50), 2);
        // rank 4 -> the bucket holding 100: octave 6, sub 1, hi = 111.
        assert_eq!(snap.percentile(0.99), bucket_hi(bucket_index(100)));
        assert_eq!(snap.percentile(0.0), 1);
        let empty = HistogramSnapshot {
            counts: std::array::from_fn(|_| 0),
        };
        assert_eq!(empty.percentile(0.99), 0);
        assert_eq!(snap.delta(&empty), snap);
    }
}
