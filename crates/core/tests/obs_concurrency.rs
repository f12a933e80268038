//! Concurrency-exactness properties of the `abt_core::obs` metrics
//! registry: counters and histograms must be *exact* under concurrent
//! recording — the registry serves `parallel_map` workers, and a lost
//! update would silently corrupt the benchmark record.
//!
//! Each case records through 8 threads into freshly named metrics (the
//! registry is process-global and append-only, so a unique name per case
//! gives an isolated metric without any reset hook) and compares against
//! a sequentially computed model.

use abt_core::obs;
use abt_core::obs::metrics::{bucket_index, HISTOGRAM_BUCKETS};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

const THREADS: usize = 8;

/// A fresh `&'static str` metric name (the registry keys on `'static`
/// names; one short leak per proptest case is bounded by the case count).
fn fresh_name(prefix: &str) -> &'static str {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    Box::leak(format!("test.obs.{prefix}.{n}").into_boxed_str())
}

/// Splits `values` round-robin across `THREADS` threads and runs `f`
/// over each thread's share.
fn fan_out(values: &[u64], f: impl Fn(u64) + Sync) {
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let shard: Vec<u64> = values.iter().copied().skip(t).step_by(THREADS).collect();
            let f = &f;
            s.spawn(move || {
                for v in shard {
                    f(v);
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // 8 threads adding into one counter lose nothing: the final value is
    // the exact sequential sum.
    #[test]
    fn counter_adds_are_exact_across_threads(
        values in proptest::collection::vec(0u64..1_000_000, 1..200)
    ) {
        let c = obs::counter(fresh_name("counter"));
        fan_out(&values, |v| c.add(v));
        prop_assert_eq!(c.get(), values.iter().sum::<u64>());
    }

    // 8 threads recording into one histogram produce exactly the bucket
    // counts of a sequential model — total count, per-bucket counts, and
    // the deterministic percentiles all match.
    #[test]
    fn histogram_buckets_are_exact_across_threads(
        values in proptest::collection::vec(0u64..u64::MAX, 1..200)
    ) {
        let h = obs::histogram(fresh_name("hist"));
        fan_out(&values, |v| h.record(v));
        let snap = h.snapshot();
        let mut model = vec![0u64; HISTOGRAM_BUCKETS];
        for &v in &values {
            model[bucket_index(v)] += 1;
        }
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(snap.counts(), &model[..]);
        // Percentiles are pure functions of the bucket counts, so they
        // are identical however the recording interleaved.
        let again = h.snapshot();
        for q in [0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(snap.percentile(q), again.percentile(q));
        }
    }
}
