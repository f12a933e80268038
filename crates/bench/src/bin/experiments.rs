//! Regenerates the paper's figures/claims as Markdown tables, and records
//! the solve-time trajectory in `BENCH_lp.json`.
//!
//! Usage: `experiments [--no-json] [--expect-demotions]
//! [--trace-out PATH] [e1 e5 ...]` — no experiment ids runs everything.
//! `--trace-out PATH` arms solve-pipeline tracing (`abt_core::obs`) and
//! writes the flight-recorder JSONL dump to `PATH` when the run finishes.
//! Unless `--no-json` is given, the run writes `BENCH_lp.json`
//! (path overridable via the `BENCH_LP_PATH` environment variable) in the
//! `abt-bench/lp-v2` schema (see [`abt_bench::bench_record`]): the wall
//! time and LP telemetry (fallback rate plus pivot/flip/refactorization/
//! certify counters and the decomposition sharding counters, with `e21`'s
//! Auto-vs-Off speedup) of every experiment that ran — the
//! `abt_active::lp_telemetry` delta per row, with `e24`/`e25` additionally
//! carrying per-algorithm busy cost/ratio entries — plus a dedicated
//! `lp_simplex` measurement — `solve_active_lp` on a
//! `random_active_feasible` instance (n = 1000, g = 4) under the PR-2
//! configuration (`revised_bounds`: bounded revised simplex with the
//! `x ≤ Y` caps as rows) and the current default (`vub_implicit`: the
//! VUB-aware revised simplex, no cap rows at all), with the shared exact
//! objective and the resulting speedup. CI's `perf-gate` job re-runs this
//! record and compares it field-by-field against the committed file.
//!
//! Under the `fault-injection` cargo feature, the run first seeds the
//! failpoint registry from the `ABT_FAULTPOINTS` environment variable
//! (see [`abt_core::faultinject`]), and `--expect-demotions` turns the run
//! into a smoke assertion: it exits nonzero unless the supervision ladder
//! recorded at least one demotion and **zero** quarantines — i.e. the
//! injected faults actually fired and were all absorbed below the
//! quarantine line, with every exact objective intact.

use abt_active::{
    component_vars_window, lp_telemetry, solve_active_lp_with, solve_latency_snapshot, LpOptions,
};
use abt_bench::bench_record::{
    BenchRecord, BusyAlgoRecord, ExperimentRecord, LpSimplexRecord, SCHEMA,
};
use abt_bench::experiments;
use abt_bench::time_best_ms;
use abt_core::obs;
use abt_workloads::{random_active_feasible, RandomConfig};

/// Sum of closed-span nanoseconds for `name` in a `span_rollups` listing.
fn rollup_nanos(rollups: &[(String, u64, u64)], name: &str) -> u64 {
    rollups
        .iter()
        .find(|(n, _, _)| n == name)
        .map(|&(_, _, nanos)| nanos)
        .unwrap_or(0)
}

/// The headline measurement: PR-2 `revised_bounds` baseline vs the
/// VUB-aware `vub_implicit` solver, at the scale where the `x ≤ Y` rows
/// dominate. The candidate runs **monolithically**
/// ([`LpOptions::pr3_monolithic`]): the shipping default additionally
/// shards by interval-graph components, but its wall-clock gain scales
/// with the runner's core count, and the headline gate must compare
/// solver generations, not CI hardware — the sharding speedup is recorded
/// (and solve-effort gated) by the dedicated `e21` row instead.
fn lp_simplex_record() -> LpSimplexRecord {
    let cfg = RandomConfig {
        n: 1000,
        g: 4,
        horizon: 2000,
        max_len: 5,
        slack_factor: 1.0,
    };
    let inst = random_active_feasible(&cfg, 7);
    let (baseline_ms, baseline_lp) = time_best_ms(3, || {
        solve_active_lp_with(&inst, &LpOptions::pr2_revised_bounds())
            .expect("feasible by construction")
    });
    let before = lp_telemetry();
    let (candidate_ms, candidate_lp) = time_best_ms(3, || {
        solve_active_lp_with(&inst, &LpOptions::pr3_monolithic()).expect("feasible by construction")
    });
    let after = lp_telemetry();
    assert_eq!(
        baseline_lp.objective, candidate_lp.objective,
        "VUB-aware LP1 must reproduce the row-encoded objective exactly"
    );
    LpSimplexRecord {
        n: cfg.n as u64,
        g: cfg.g as u64,
        horizon: cfg.horizon,
        seed: 7,
        objective: candidate_lp.objective.to_string(),
        baseline: "revised_bounds".into(),
        baseline_ms,
        candidate: "vub_implicit".into(),
        candidate_ms,
        speedup: baseline_ms / candidate_ms,
        fallback: after.fallbacks > before.fallbacks,
    }
}

fn write_bench_json(experiments: Vec<ExperimentRecord>) {
    let path = std::env::var("BENCH_LP_PATH").unwrap_or_else(|_| "BENCH_lp.json".to_string());
    let record = BenchRecord {
        schema: SCHEMA.to_string(),
        lp_simplex: lp_simplex_record(),
        experiments,
    };
    match std::fs::write(&path, record.to_json()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

fn main() {
    #[cfg(feature = "fault-injection")]
    {
        abt_core::faultinject::configure_from_env();
        if std::env::var_os("ABT_FAULTPOINTS").is_some() {
            // Injected panics are expected by the thousands in a smoke
            // run; printing each backtrace would drown the CI log. Real
            // (non-injected) panics still print.
            std::panic::set_hook(Box::new(|info| {
                let msg = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                if !msg.contains("faultinject:") {
                    eprintln!("{info}");
                }
            }));
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write_json = !args.iter().any(|a| a == "--no-json");
    let expect_demotions = args.iter().any(|a| a == "--expect-demotions");
    let trace_out = args.iter().position(|a| a == "--trace-out").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--trace-out requires a path argument");
            std::process::exit(2);
        })
    });
    if trace_out.is_some() {
        obs::set_tracing(true);
    }
    let mut skip_next = false;
    let selected: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--trace-out" {
                skip_next = true;
            }
            !a.starts_with("--")
        })
        .collect();
    let run_all = selected.is_empty();
    type ExperimentFn = fn() -> experiments::ExperimentReport;
    let fns: Vec<(&str, ExperimentFn)> = vec![
        ("e1", experiments::e1),
        ("e2", experiments::e2),
        ("e3", experiments::e3),
        ("e4", experiments::e4),
        ("e5", experiments::e5),
        ("e6", experiments::e6),
        ("e7", experiments::e7),
        ("e8", experiments::e8),
        ("e9", experiments::e9),
        ("e10", experiments::e10),
        ("e11", experiments::e11),
        ("e12", experiments::e12),
        ("e13", experiments::e13),
        ("e14", experiments::e14),
        ("e15", experiments::e15),
        ("e16", experiments::e16),
        ("e17", experiments::e17),
        ("e18", experiments::e18),
        ("e19", experiments::e19),
        ("e20", experiments::e20),
        ("e21", experiments::e21),
        ("e22", experiments::e22),
        ("e23", experiments::e23),
        ("e24", experiments::e24),
        ("e25", experiments::e25),
    ];
    let mut records: Vec<ExperimentRecord> = Vec::new();
    for (id, f) in fns {
        if run_all || selected.contains(&id) {
            let before = lp_telemetry();
            // An exact in-experiment high-water mark for the component-vars
            // gauge (the cumulative delta is 0 unless the mark was raised).
            let vars_window = component_vars_window();
            let lat_before = solve_latency_snapshot();
            let rollups_before = obs::span_rollups();
            let started = std::time::Instant::now();
            let report = f();
            let elapsed = started.elapsed();
            let d = lp_telemetry().delta(&before);
            let lat = solve_latency_snapshot().delta(&lat_before);
            let rollups = obs::span_rollups();
            let phase_ms = |name: &str| {
                rollup_nanos(&rollups, name).saturating_sub(rollup_nanos(&rollups_before, name))
                    as f64
                    / 1e6
            };
            println!("{}", report.to_markdown());
            println!("_(regenerated in {elapsed:.2?})_\n");
            let fallback_rate = if d.solves == 0 {
                0.0
            } else {
                d.fallbacks as f64 / d.solves as f64
            };
            let headline_busy = report
                .busy
                .iter()
                .find(|b| b.algo == "LpRounding")
                .map(|b| (b.cost, b.ratio))
                .unwrap_or((0, 0.0));
            records.push(ExperimentRecord {
                id: id.to_string(),
                wall_ms: elapsed.as_secs_f64() * 1e3,
                lp_solves: d.solves,
                fallback_rate,
                lp_pivots: d.pivots,
                lp_bound_flips: d.bound_flips,
                lp_refactorizations: d.refactorizations,
                lp_certify_ms: d.certify_nanos as f64 / 1e6,
                lp_components: d.components,
                lp_max_component_vars: vars_window.value(),
                warm_hits: d.warm_hits,
                warm_pivots_saved: d.warm_pivots_saved,
                demotions: d.demotions,
                budget_trips: d.budget_trips,
                quarantined: d.quarantined,
                interval_accepts: d.interval_accepts,
                interval_escalations: d.interval_escalations,
                persist_restores: d.persist_restores,
                recoveries: d.recoveries,
                state_corrupt: d.state_corrupt,
                admission_rejects: d.admission_rejects,
                lp_p50_ms: lat.percentile(0.50) as f64 / 1e3,
                lp_p90_ms: lat.percentile(0.90) as f64 / 1e3,
                lp_p99_ms: lat.percentile(0.99) as f64 / 1e3,
                phase_decompose_ms: phase_ms("solve.decompose"),
                phase_warm_ms: phase_ms("solve.warm"),
                phase_pivot_ms: phase_ms("solve.pivot"),
                phase_certify_ms: phase_ms("solve.certify"),
                phase_stitch_ms: phase_ms("solve.stitch"),
                speedup: report.speedup,
                busy_cost: headline_busy.0,
                busy_ratio: headline_busy.1,
                busy_algos: report
                    .busy
                    .iter()
                    .map(|b| BusyAlgoRecord {
                        algo: b.algo.clone(),
                        cost: b.cost,
                        ratio: b.ratio,
                    })
                    .collect(),
            });
        }
    }
    if records.is_empty() {
        eprintln!("unknown experiment ids {selected:?}; available: e1..e25");
        std::process::exit(2);
    }
    if expect_demotions {
        let demotions: u64 = records.iter().map(|r| r.demotions).sum();
        let quarantined: u64 = records.iter().map(|r| r.quarantined).sum();
        if demotions == 0 {
            eprintln!("--expect-demotions: no supervision-ladder demotions recorded — the configured faults never fired");
            std::process::exit(1);
        }
        if quarantined > 0 {
            eprintln!("--expect-demotions: {quarantined} components quarantined — injected faults must demote, never quarantine");
            std::process::exit(1);
        }
        eprintln!("--expect-demotions: {demotions} demotions, 0 quarantines — all injected faults absorbed");
    }
    if write_json {
        write_bench_json(records);
    }
    if let Some(path) = trace_out {
        match obs::dump_to_file(std::path::Path::new(&path)) {
            Ok(()) => eprintln!("wrote flight-recorder dump {path}"),
            Err(e) => {
                eprintln!("could not write flight-recorder dump {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
