//! CI perf/fallback gate over `BENCH_lp.json`.
//!
//! Usage: `perf_gate <committed.json> <fresh.json> [--min-speedup-ratio R]
//! [--max-effort-ratio R] [--min-interval-accept-rate R]
//! [--max-certify-ratio R] [--max-busy-ratio R] [--max-p99-ratio R]`
//!
//! Compares a freshly measured record against the committed one and fails
//! (exit 1) when:
//!
//! * the exact `lp_simplex` objective strings differ (a correctness
//!   regression — the exact optimum must never move), or
//! * the committed and fresh records gate different baseline/candidate
//!   configurations (a silent cross-generation comparison), or
//! * the fresh `speedup` regresses more than 30% below the committed value
//!   (override the 0.7 factor with `--min-speedup-ratio`), or
//! * the fresh candidate solve needed the exact fallback, or
//! * any experiment (all current workloads are non-adversarial) reports a
//!   `fallback_rate > 0`, or
//! * any fresh experiment reports `quarantined > 0` — a fault-free
//!   benchmark run must never abandon a component; a quarantine here means
//!   the supervision ladder's dense rungs failed on a clean workload, or
//! * any fresh experiment reports `state_corrupt > recoveries` — `e23`
//!   injects persisted-state corruption deliberately, but every detection
//!   must be matched by a completed recovery (cold rebuild); an excess
//!   means a corruption was detected and the absorption path died, the
//!   one durability failure mode that could cost answers, or
//! * the VUB-heavy sweep (`e20`), the decomposition-scaling sweep
//!   (`e21`), or the warm-start sweep (`e22`) appears in both records and
//!   its fresh *solve effort* — pivot or LU-refactorization counts, which
//!   are deterministic per instance and machine-independent, unlike wall
//!   time under `parallel_map` — regresses more than 30% above the
//!   committed one (override the 1.3 factor with `--max-effort-ratio`). A
//!   refactor blow-up is exactly how a broken glue-eta path shows up; an
//!   e21 pivot blow-up is how a broken component split shows up (a wrong
//!   merge sends whole clusters back into one basis); an e22 pivot
//!   blow-up is how a broken snapshot install shows up (every sibling
//!   silently re-solving cold), or
//! * the decomposition-scaling sweep (`e21`) or the warm-start sweep
//!   (`e22`) reports a fresh interval accept rate — `interval_accepts /
//!   (interval_accepts + interval_escalations)` — below
//!   `--min-interval-accept-rate` (default 0.9). The directed-rounding
//!   certification tier is expected to discharge nearly every
//!   dual-feasibility proof on these non-adversarial workloads; a rate
//!   collapse means the interval sweep started straddling (e.g. a
//!   widening bug in the `Iv` arithmetic) and every solve is silently
//!   paying for both tiers. Skipped when both counters are 0 — the run
//!   was under `CertifyMode::Exact`, or the row predates the field — or
//! * the certify-time sweeps (`e19`, `e22`) appear in both records and
//!   the fresh `lp_certify_ms` exceeds `--max-certify-ratio` (default
//!   1.5) × the committed value. Certification wall time is the one
//!   timing field stable enough to gate loosely: a broken interval tier
//!   (everything escalating to the exact sweep) multiplies it well past
//!   1.5×, while machine noise stays far under. Skipped when the
//!   committed value is 0 (the row predates the field), or
//! * a busy experiment (`e24`, `e25`) appears in both records and any
//!   algorithm present in both rows' `busy_algos` reports a fresh
//!   cost/lower-bound ratio above `--max-busy-ratio` (default 1.05) ×
//!   the committed one. Busy costs are exact integers on seeded instance
//!   streams, so the ratios are bit-deterministic: any excess is an
//!   approximation-quality regression in that algorithm (or in the
//!   LP-rounding pipeline feeding `LpRounding`), never noise, or
//! * a latency-gated sweep (`e19`, `e21`, `e22`) appears in both records
//!   and the fresh `lp_p99_ms` — the 99th-percentile per-solve LP latency
//!   from the `lp.solve_latency_us` histogram delta — exceeds
//!   `--max-p99-ratio` (default 3.0) × the committed value. The bound is
//!   deliberately loose (tail latency is the noisiest gated field; the
//!   log-bucket histogram quantizes it to the bucket edge), catching only
//!   the order-of-magnitude blow-ups a lost warm path or a
//!   certify-everything-exactly bug produces. Skipped when the committed
//!   value is 0 (the row predates the field, or the run solved nothing).
//!
//! Comparison is field-by-field through [`abt_bench::bench_record`], not
//! text diffing, so timing noise in unrelated fields never trips the gate.

use abt_bench::bench_record::BenchRecord;

fn load(path: &str) -> BenchRecord {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perf_gate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    BenchRecord::from_json(&text).unwrap_or_else(|e| {
        eprintln!("perf_gate: cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut min_ratio = 0.7f64;
    let mut max_effort_ratio = 1.3f64;
    let mut min_accept_rate = 0.9f64;
    let mut max_certify_ratio = 1.5f64;
    let mut max_busy_ratio = 1.05f64;
    let mut max_p99_ratio = 3.0f64;
    let mut paths: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--min-speedup-ratio"
            || a == "--max-effort-ratio"
            || a == "--min-interval-accept-rate"
            || a == "--max-certify-ratio"
            || a == "--max-busy-ratio"
            || a == "--max-p99-ratio"
        {
            let v = it.next().unwrap_or_else(|| {
                eprintln!("perf_gate: {a} needs a value");
                std::process::exit(2);
            });
            let parsed = v.parse().unwrap_or_else(|e| {
                eprintln!("perf_gate: bad ratio {v:?}: {e}");
                std::process::exit(2);
            });
            match a.as_str() {
                "--min-speedup-ratio" => min_ratio = parsed,
                "--min-interval-accept-rate" => min_accept_rate = parsed,
                "--max-certify-ratio" => max_certify_ratio = parsed,
                "--max-busy-ratio" => max_busy_ratio = parsed,
                "--max-p99-ratio" => max_p99_ratio = parsed,
                _ => max_effort_ratio = parsed,
            }
        } else {
            paths.push(a);
        }
    }
    let [committed_path, fresh_path] = paths[..] else {
        eprintln!(
            "usage: perf_gate <committed.json> <fresh.json> [--min-speedup-ratio R] [--max-effort-ratio R] [--min-interval-accept-rate R] [--max-certify-ratio R] [--max-busy-ratio R] [--max-p99-ratio R]"
        );
        std::process::exit(2);
    };
    let committed = load(committed_path);
    let fresh = load(fresh_path);

    let mut failures: Vec<String> = Vec::new();
    let (c, f) = (&committed.lp_simplex, &fresh.lp_simplex);
    if c.objective != f.objective {
        failures.push(format!(
            "exact objective changed: committed {:?}, fresh {:?}",
            c.objective, f.objective
        ));
    }
    if (c.baseline.as_str(), c.candidate.as_str()) != (f.baseline.as_str(), f.candidate.as_str()) {
        failures.push(format!(
            "gated configurations changed: committed {}→{}, fresh {}→{}",
            c.baseline, c.candidate, f.baseline, f.candidate
        ));
    }
    let floor = c.speedup * min_ratio;
    if f.speedup < floor {
        failures.push(format!(
            "speedup regressed: fresh {:.2}x < {:.2}x ({}% of committed {:.2}x)",
            f.speedup,
            floor,
            (min_ratio * 100.0).round(),
            c.speedup
        ));
    }
    if f.fallback {
        failures.push("lp_simplex candidate solve hit the exact fallback".into());
    }
    for e in &fresh.experiments {
        if e.fallback_rate > 0.0 {
            failures.push(format!(
                "experiment {} reports fallback_rate {:.4} over {} LP solves (must be 0 on non-adversarial workloads)",
                e.id, e.fallback_rate, e.lp_solves
            ));
        }
        if e.quarantined > 0 {
            failures.push(format!(
                "experiment {} reports {} quarantined components (must be 0: a fault-free run must never abandon a component)",
                e.id, e.quarantined
            ));
        }
        // Every persisted-state corruption detection must be matched by a
        // completed recovery (e23 injects corruption deliberately; other
        // experiments must report 0 of both). An excess means a corruption
        // was detected but the cold-rebuild absorption never finished —
        // the one durability failure mode that could cost answers.
        if e.state_corrupt > e.recoveries {
            failures.push(format!(
                "experiment {} reports {} corruption detections but only {} recoveries (every StateCorrupt must be absorbed by a completed recovery)",
                e.id, e.state_corrupt, e.recoveries
            ));
        }
    }
    // The VUB-heavy (e20), decomposition-scaling (e21), and warm-start
    // (e22) sweeps are solve-effort gated when both records carry them:
    // pivot/refactorization counts are deterministic per instance, so any
    // excess is an algorithmic regression, never machine noise.
    for gated_id in ["e20", "e21", "e22"] {
        let row = |rec: &BenchRecord| rec.experiments.iter().find(|e| e.id == gated_id).cloned();
        let (Some(ce), Some(fe)) = (row(&committed), row(&fresh)) else {
            continue;
        };
        for (what, committed_n, fresh_n) in [
            ("pivots", ce.lp_pivots, fe.lp_pivots),
            (
                "refactorizations",
                ce.lp_refactorizations,
                fe.lp_refactorizations,
            ),
        ] {
            let ceiling = committed_n as f64 * max_effort_ratio;
            if fresh_n as f64 > ceiling {
                failures.push(format!(
                    "{gated_id} solve effort regressed: fresh {fresh_n} {what} > {ceiling:.0} ({}% of committed {committed_n})",
                    (max_effort_ratio * 100.0).round(),
                ));
            }
        }
    }
    // The interval certification tier must keep discharging the
    // dual-feasibility proofs on the sweep workloads: a rate collapse
    // means every solve silently pays for both tiers.
    for gated_id in ["e21", "e22"] {
        let Some(fe) = fresh.experiments.iter().find(|e| e.id == gated_id) else {
            continue;
        };
        let attempts = fe.interval_accepts + fe.interval_escalations;
        if attempts == 0 {
            // Exact-mode run, or a record predating the field.
            continue;
        }
        let rate = fe.interval_accepts as f64 / attempts as f64;
        if rate < min_accept_rate {
            failures.push(format!(
                "{gated_id} interval accept rate collapsed: {} accepts / {} attempts = {rate:.3} < {min_accept_rate}",
                fe.interval_accepts, attempts
            ));
        }
    }
    // Certification wall time on the certify-heavy sweeps: loosely gated
    // (a broken interval tier multiplies it; machine noise does not).
    for gated_id in ["e19", "e22"] {
        let row = |rec: &BenchRecord| rec.experiments.iter().find(|e| e.id == gated_id).cloned();
        let (Some(ce), Some(fe)) = (row(&committed), row(&fresh)) else {
            continue;
        };
        if ce.lp_certify_ms <= 0.0 {
            continue;
        }
        let ceiling = ce.lp_certify_ms * max_certify_ratio;
        if fe.lp_certify_ms > ceiling {
            failures.push(format!(
                "{gated_id} certify time regressed: fresh {:.3} ms > {ceiling:.3} ms ({}% of committed {:.3} ms)",
                fe.lp_certify_ms,
                (max_certify_ratio * 100.0).round(),
                ce.lp_certify_ms
            ));
        }
    }

    // Tail solve latency on the latency-gated sweeps: loosely gated — a
    // lost warm path or a certify-everything bug multiplies p99 well past
    // 3×, while machine noise and bucket quantization stay far under.
    for gated_id in ["e19", "e21", "e22"] {
        let row = |rec: &BenchRecord| rec.experiments.iter().find(|e| e.id == gated_id).cloned();
        let (Some(ce), Some(fe)) = (row(&committed), row(&fresh)) else {
            continue;
        };
        if ce.lp_p99_ms <= 0.0 {
            continue; // a record predating the field, or an empty run
        }
        let ceiling = ce.lp_p99_ms * max_p99_ratio;
        if fe.lp_p99_ms > ceiling {
            failures.push(format!(
                "{gated_id} p99 solve latency regressed: fresh {:.3} ms > {ceiling:.3} ms ({}% of committed {:.3} ms)",
                fe.lp_p99_ms,
                (max_p99_ratio * 100.0).round(),
                ce.lp_p99_ms
            ));
        }
    }

    // The busy sweeps: each algorithm's cost/lower-bound ratio is exact
    // and deterministic, so a fresh ratio creeping past the committed one
    // is an approximation-quality regression in that algorithm.
    for gated_id in ["e24", "e25"] {
        let row = |rec: &BenchRecord| rec.experiments.iter().find(|e| e.id == gated_id).cloned();
        let (Some(ce), Some(fe)) = (row(&committed), row(&fresh)) else {
            continue;
        };
        for cb in &ce.busy_algos {
            let Some(fb) = fe.busy_algos.iter().find(|b| b.algo == cb.algo) else {
                failures.push(format!(
                    "{gated_id} busy sweep dropped algorithm {}: committed records it, fresh does not",
                    cb.algo
                ));
                continue;
            };
            if cb.ratio <= 0.0 {
                continue; // a row predating the field
            }
            let ceiling = cb.ratio * max_busy_ratio;
            if fb.ratio > ceiling {
                failures.push(format!(
                    "{gated_id} {} approximation ratio regressed: fresh {:.4} > {ceiling:.4} ({}% of committed {:.4})",
                    cb.algo,
                    fb.ratio,
                    (max_busy_ratio * 100.0).round(),
                    cb.ratio
                ));
            }
        }
    }

    println!(
        "perf_gate: objective {} (committed {}), speedup {:.2}x (committed {:.2}x, floor {:.2}x), {} experiments checked",
        f.objective,
        c.objective,
        f.speedup,
        c.speedup,
        floor,
        fresh.experiments.len()
    );
    if failures.is_empty() {
        println!("perf_gate: PASS");
    } else {
        for msg in &failures {
            eprintln!("perf_gate: FAIL: {msg}");
        }
        std::process::exit(1);
    }
}
