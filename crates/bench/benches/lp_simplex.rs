//! B4 — `lp_simplex`: the LP1 hot path. Compares the `revised_bounds`
//! baseline (implicit constant bounds, `x ≤ Y` caps as rows), the
//! `vub_implicit` configuration (VUB-aware revised simplex, no cap rows,
//! monolithic), and the shipping default (`vub_decomposed`: the same
//! solver behind interval-graph component sharding) on
//! `random_active_feasible` instances with n ∈ {40, 200, 1000}.

use abt_active::{solve_active_lp_with, LpOptions};
use abt_workloads::{random_active_feasible, RandomConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_lp_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_simplex");
    group.sample_size(10);
    // The two baselines run monolithically (DecomposeMode::Off) so they
    // isolate the VUB encoding; `vub_decomposed` is the shipping default,
    // which additionally shards by interval-graph components.
    let variants: [(&str, LpOptions); 3] = [
        ("revised_bounds", LpOptions::pr2_revised_bounds()),
        ("vub_implicit", LpOptions::pr3_monolithic()),
        ("vub_decomposed", LpOptions::default()),
    ];
    for &(n, g, horizon) in &[(40usize, 4usize, 100i64), (200, 4, 400), (1000, 4, 2000)] {
        let cfg = RandomConfig {
            n,
            g,
            horizon,
            max_len: 5,
            slack_factor: 1.0,
        };
        let inst = random_active_feasible(&cfg, 7);
        for (name, opts) in variants {
            group.bench_with_input(BenchmarkId::new(name, n), &inst, |b, inst| {
                b.iter(|| black_box(solve_active_lp_with(inst, &opts).unwrap().objective))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lp_simplex);
criterion_main!(benches);
