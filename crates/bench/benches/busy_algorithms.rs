//! B3 — busy-time algorithm benches: the four interval algorithms, the
//! span placement solvers, and the preemptive pair, across instance sizes.

use abt_busy::{
    preemptive_bounded, preemptive_unbounded, solve_flexible, span_exact, span_greedy, IntervalAlgo,
};
use abt_workloads::{random_flexible, random_interval, vm_trace, RandomConfig, VmTraceConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_interval_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_algorithms");
    group.sample_size(10);
    for &n in &[50usize, 200, 800] {
        let cfg = RandomConfig {
            n,
            g: 4,
            horizon: 3 * n as i64,
            max_len: 25,
            slack_factor: 0.0,
        };
        let inst = random_interval(&cfg, 13);
        for algo in IntervalAlgo::all() {
            group.bench_with_input(BenchmarkId::new(algo.name(), n), &n, |b, _| {
                b.iter(|| {
                    black_box(
                        solve_flexible(&inst, algo)
                            .unwrap()
                            .schedule
                            .total_busy_time(&inst),
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_span_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("span_placement");
    group.sample_size(10);
    for &n in &[12usize, 18, 24] {
        let cfg = RandomConfig {
            n,
            g: 2,
            horizon: 60,
            max_len: 8,
            slack_factor: 1.5,
        };
        let inst = random_flexible(&cfg, 31);
        group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
            b.iter(|| black_box(span_exact(&inst).unwrap().cost))
        });
    }
    // The size `abt busy` meets: the busy_flexible benchmark's regime.
    let cfg = RandomConfig {
        n: 100,
        g: 3,
        horizon: 400,
        max_len: 16,
        slack_factor: 1.0,
    };
    let inst = random_flexible(&cfg, 31);
    group.bench_with_input(BenchmarkId::new("exact", 100), &100, |b, _| {
        b.iter(|| black_box(span_exact(&inst).unwrap().cost))
    });
    for &n in &[100usize, 1000] {
        let cfg = RandomConfig {
            n,
            g: 2,
            horizon: 4 * n as i64,
            max_len: 8,
            slack_factor: 1.5,
        };
        let inst = random_flexible(&cfg, 31);
        group.bench_with_input(BenchmarkId::new("greedy", n), &n, |b, _| {
            b.iter(|| black_box(span_greedy(&inst).cost))
        });
    }
    group.finish();
}

fn bench_preemptive(c: &mut Criterion) {
    let mut group = c.benchmark_group("preemptive");
    for &n in &[50usize, 200, 800] {
        let cfg = VmTraceConfig {
            n,
            ..Default::default()
        };
        let inst = vm_trace(&cfg, 23);
        group.bench_with_input(BenchmarkId::new("unbounded_exact", n), &n, |b, _| {
            b.iter(|| black_box(preemptive_unbounded(&inst).cost))
        });
        group.bench_with_input(BenchmarkId::new("bounded_2approx", n), &n, |b, _| {
            b.iter(|| black_box(preemptive_bounded(&inst).total_busy_time()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_interval_algorithms,
    bench_span_solvers,
    bench_preemptive
);
criterion_main!(benches);
