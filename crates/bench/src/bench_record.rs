//! The `BENCH_lp.json` schema (`abt-bench/lp-v2`): a typed writer/parser
//! pair so the CI perf gate compares *fields*, not eyeballed artifacts.
//! This module doc is the schema's reference: every field, its optionality
//! rule, and how the `perf_gate` binary consumes it.
//!
//! # Document layout
//!
//! The document is a single JSON object with exactly three keys:
//!
//! | key          | type   | meaning                                      |
//! |--------------|--------|----------------------------------------------|
//! | `schema`     | string | must equal [`SCHEMA`] (`"abt-bench/lp-v2"`); any other value is rejected on parse |
//! | `lp_simplex` | object | the headline baseline-vs-candidate measurement ([`LpSimplexRecord`]) |
//! | `experiments`| array  | one object per experiment that ran ([`ExperimentRecord`]) |
//!
//! # `lp_simplex` — the headline record
//!
//! `solve_active_lp` timed on one fixed `random_active_feasible` instance
//! under a named *baseline* configuration and the named current-default
//! *candidate*. Fields:
//!
//! | field          | type   | optional? | gate semantics                  |
//! |----------------|--------|-----------|---------------------------------|
//! | `bench`, `family` | string | written, ignored on parse | human context only |
//! | `n`, `g`, `horizon`, `seed` | number | required | instance identity; not gated directly |
//! | `objective`    | string | required  | exact rational optimum (e.g. `"797/4"`); **any change fails the gate** — the exact optimum must never move |
//! | `baseline`     | string | optional, default `"unnamed"` | gated: committed and fresh must name the *same* baseline, or the comparison is cross-generation and fails |
//! | `baseline_ms`  | number | required  | wall time; informational        |
//! | `candidate`    | string | optional, default `"unnamed"` | gated like `baseline` |
//! | `candidate_ms` | number | required  | wall time; informational        |
//! | `speedup`      | number | required  | `baseline_ms / candidate_ms`; fails the gate when it regresses below `--min-speedup-ratio` (default 0.7) × the committed value |
//! | `fallback`     | bool   | required  | `true` fails the gate: the candidate must never need the exact fallback on the headline family |
//!
//! # `experiments[]` — per-experiment rows
//!
//! Wall time plus the LP telemetry delta ([`abt_active::lp_telemetry`])
//! scoped to that experiment's run. All counter fields after
//! `fallback_rate` are **optional on parse and default to 0/absent**, so
//! every earlier `lp-v2` document remains readable; the writer always
//! emits the current full set.
//!
//! | field            | type   | optional? | gate semantics                |
//! |------------------|--------|-----------|-------------------------------|
//! | `id`             | string | required  | experiment id (`e1`…); rows are matched by id across records |
//! | `wall_ms`        | number | required  | informational (machine-dependent; never gated) |
//! | `lp_solves`      | number | required  | supervised LP solves during the experiment; under `DecomposeMode::Auto` each component sub-LP counts once |
//! | `fallback_rate`  | number | required  | `lp_fallbacks / lp_solves`; **any nonzero value fails the gate** — every current workload is non-adversarial |
//! | `lp_pivots`      | number | optional (0) | solve effort; for `e20`/`e21`/`e22` the gate fails when the fresh count exceeds `--max-effort-ratio` (default 1.3) × committed — deterministic per instance, so regressions are algorithmic, never machine noise |
//! | `lp_bound_flips` | number | optional (0) | informational              |
//! | `lp_refactorizations` | number | optional (0) | solve effort, gated for `e20`/`e21`/`e22` like `lp_pivots` |
//! | `lp_certify_ms`  | number | optional (0) | exact-certification wall time; informational |
//! | `lp_components`  | number | optional (0) | component sub-LPs solved by sharded (`DecomposeMode::Auto`) solves during the experiment |
//! | `lp_max_component_vars` | number | optional (0) | largest component sub-LP's variable count: 0 when the experiment sharded nothing (`lp_components` = 0), otherwise the process-wide high-water mark at snapshot time |
//! | `warm_hits`      | number | optional (0) | warm-start attempts that installed and certified warm (batched siblings + incremental re-solves); 0 for experiments that never warm-start. Informational — the warm *benefit* is gated through `e22`'s `lp_pivots` |
//! | `warm_pivots_saved` | number | optional (0) | pivots saved by those hits versus each hit's cold reference solve (floored at zero per solve); informational |
//! | `demotions`      | number | optional (0) | failure-driven supervision-ladder demotions (see `abt-active`'s `supervise` module). Nonzero only under fault injection or solve budgets; informational in the record (CI asserts it separately in the fault-injection smoke) |
//! | `budget_trips`   | number | optional (0) | solve attempts that tripped a pivot/refactorization/wall-time budget (a subset of `demotions`); informational |
//! | `quarantined`    | number | optional (0) | components whose whole supervision ladder failed; **any nonzero value fails the gate** — a fault-free benchmark run must never quarantine |
//! | `interval_accepts` | number | optional (0) | solves whose dual-feasibility proof was discharged by the directed-rounding interval tier alone (no exact reduced-cost sweep); for `e21`/`e22` the gate fails when `interval_accepts / (interval_accepts + interval_escalations)` drops below `--min-interval-accept-rate` (default 0.9) — skipped when both counters are 0 (e.g. a `CertifyMode::Exact` run) |
//! | `interval_escalations` | number | optional (0) | solves whose interval sweep was inconclusive and escalated to the exact sweep; the accept-rate denominator above |
//! | `persist_restores` | number | optional (0) | cache blocks + basis snapshots restored from persisted state by `attach_store` recoveries; informational |
//! | `recoveries`     | number | optional (0) | completed recovery events (journal-resume attaches, corruption absorptions, storm-guard quarantines); the denominator of the `e23` corruption gate |
//! | `state_corrupt`  | number | optional (0) | persisted-state corruption detections; for `e23` the gate **fails when `state_corrupt > recoveries`** — a detection without a matching recovery means the absorption path itself broke |
//! | `admission_rejects` | number | optional (0) | requests bounced by the Hall-condition admission precheck before any solver work; informational |
//! | `lp_p50_ms`      | number | optional (0) | median per-solve LP latency during the experiment, from the `lp.solve_latency_us` histogram delta (`abt_core::obs`); 0 when the experiment solved nothing |
//! | `lp_p90_ms`      | number | optional (0) | 90th-percentile per-solve LP latency; informational |
//! | `lp_p99_ms`      | number | optional (0) | 99th-percentile per-solve LP latency; for `e19`/`e21`/`e22` the gate fails when the fresh value exceeds `--max-p99-ratio` (default 3.0) × committed — skipped when the committed value is 0 (older record or empty run) |
//! | `phase_decompose_ms` | number | optional (0) | total wall time inside `solve.decompose` spans during the experiment (span rollup delta); informational |
//! | `phase_warm_ms`  | number | optional (0) | total wall time inside `solve.warm` spans; informational |
//! | `phase_pivot_ms` | number | optional (0) | total wall time inside `solve.pivot` spans (every cold float pass); informational |
//! | `phase_certify_ms` | number | optional (0) | total wall time inside `solve.certify` spans (exact + interval certification); informational |
//! | `phase_stitch_ms` | number | optional (0) | total wall time inside `solve.stitch` spans; informational |
//! | `speedup`        | number | optional (absent) | an experiment-defined headline ratio — `e21` records its Auto-vs-Off LP1 wall-clock speedup, `e22` its cold/warm pivot-effort ratio; absent for experiments without one. Informational (the deterministic effort counters are what CI gates) |
//! | `busy_cost`      | number | optional (0) | total busy time of the row's headline busy algorithm (`LpRounding`) summed over the experiment's instances; exact integer costs on seeded instance streams, so bit-deterministic across runs |
//! | `busy_ratio`     | number | optional (0) | that algorithm's worst observed cost/lower-bound ratio; for rows carrying busy entries (`e24`/`e25`) the gate fails when the fresh value exceeds `--max-busy-ratio` (default 1.05) × committed |
//! | `busy_algos`     | array  | optional (empty) | per-algorithm objects `{"algo", "cost", "ratio"}` ([`BusyAlgoRecord`]) covering the whole zoo; every algorithm present in both committed and fresh records is ratio-gated like `busy_ratio` |
//!
//! # Parsing
//!
//! The document is parsed by the workspace's one JSON codec,
//! [`abt_core::json`] — the offline dependency set has no serde, and the
//! perf gate must not depend on a `jq` binary being installed on the
//! runner.
//! Unknown keys are ignored on parse (forward compatibility); missing
//! *required* keys are hard errors.

use abt_core::json::{self, get, Json};
use std::collections::BTreeMap;

/// Schema tag written/accepted by this module.
pub const SCHEMA: &str = "abt-bench/lp-v2";

/// The headline `lp_simplex` measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSimplexRecord {
    /// Instance family parameters.
    pub n: u64,
    /// Capacity `g`.
    pub g: u64,
    /// Horizon length.
    pub horizon: i64,
    /// Generator seed.
    pub seed: u64,
    /// Exact LP optimum, rendered as a rational string (e.g. `"797/4"`).
    pub objective: String,
    /// Name of the baseline configuration (e.g. `"revised_bounds"`).
    pub baseline: String,
    /// Baseline wall time, ms.
    pub baseline_ms: f64,
    /// Name of the candidate configuration (e.g. `"vub_implicit"`).
    pub candidate: String,
    /// Candidate wall time, ms.
    pub candidate_ms: f64,
    /// `baseline_ms / candidate_ms`.
    pub speedup: f64,
    /// Whether the candidate solve needed the exact fallback.
    pub fallback: bool,
}

/// One experiment's wall time and LP telemetry. See the module docs for
/// the per-field optionality and gating rules.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment id (`e1`…).
    pub id: String,
    /// Wall time, ms.
    pub wall_ms: f64,
    /// Supervised LP solves performed while the experiment ran (one per
    /// component sub-LP).
    pub lp_solves: u64,
    /// Fraction of those that fell back to the exact solver.
    pub fallback_rate: f64,
    /// Basis-changing pivots across those solves.
    pub lp_pivots: u64,
    /// Bound/VUB flips across those solves.
    pub lp_bound_flips: u64,
    /// LU refactorizations across those solves.
    pub lp_refactorizations: u64,
    /// Exact-certification wall time across those solves, ms.
    pub lp_certify_ms: f64,
    /// Component sub-LPs solved by sharded (`DecomposeMode::Auto`) solves.
    pub lp_components: u64,
    /// High-water mark of the largest component sub-LP's variable count.
    pub lp_max_component_vars: u64,
    /// Warm-start attempts that installed and certified warm during the
    /// experiment (0 for experiments that never warm-start).
    pub warm_hits: u64,
    /// Pivots saved by those warm hits versus their cold reference solves.
    pub warm_pivots_saved: u64,
    /// Failure-driven supervision-ladder demotions during the experiment
    /// (0 on fault-free runs).
    pub demotions: u64,
    /// Solve attempts that tripped a pivot/refactorization/wall-time
    /// budget (a subset of `demotions`).
    pub budget_trips: u64,
    /// Components whose whole supervision ladder failed (gated: must be 0
    /// on fault-free benchmark runs).
    pub quarantined: u64,
    /// Solves whose dual-feasibility proof was discharged by the
    /// directed-rounding interval tier alone (gated for `e21`/`e22`: the
    /// accept rate must stay above `--min-interval-accept-rate`).
    pub interval_accepts: u64,
    /// Solves whose interval sweep was inconclusive and escalated to the
    /// exact reduced-cost sweep.
    pub interval_escalations: u64,
    /// Cache blocks and basis snapshots restored from persisted state
    /// (`attach_store` recoveries; 0 for experiments without durability).
    pub persist_restores: u64,
    /// Completed recovery events: journal-resume attaches, corruption
    /// absorptions, and storm-guard quarantines.
    pub recoveries: u64,
    /// Persisted-state corruption detections (each absorbed by a cold
    /// rebuild; gated for `e23`: must never exceed `recoveries`).
    pub state_corrupt: u64,
    /// Requests bounced by the Hall-condition admission precheck.
    pub admission_rejects: u64,
    /// Median per-solve LP latency (ms) from the solve-latency histogram
    /// delta scoped to the experiment; 0 when nothing solved.
    pub lp_p50_ms: f64,
    /// 90th-percentile per-solve LP latency (ms); informational.
    pub lp_p90_ms: f64,
    /// 99th-percentile per-solve LP latency (ms); gated for `e19`/`e21`/
    /// `e22` via `--max-p99-ratio` (skipped when the committed value is 0).
    pub lp_p99_ms: f64,
    /// Wall time inside `solve.decompose` spans during the experiment, ms.
    pub phase_decompose_ms: f64,
    /// Wall time inside `solve.warm` spans, ms.
    pub phase_warm_ms: f64,
    /// Wall time inside `solve.pivot` spans, ms.
    pub phase_pivot_ms: f64,
    /// Wall time inside `solve.certify` spans, ms.
    pub phase_certify_ms: f64,
    /// Wall time inside `solve.stitch` spans, ms.
    pub phase_stitch_ms: f64,
    /// Experiment-defined headline ratio (e.g. `e21`'s Auto-vs-Off LP1
    /// speedup, `e22`'s cold/warm pivot-effort ratio); `None` for
    /// experiments without one.
    pub speedup: Option<f64>,
    /// Total busy time of the headline busy algorithm (`LpRounding`)
    /// across the experiment's instances (0 for non-busy experiments).
    pub busy_cost: u64,
    /// The headline busy algorithm's worst cost/lower-bound ratio
    /// (gated for `e24`/`e25` via `--max-busy-ratio`; 0 otherwise).
    pub busy_ratio: f64,
    /// Per-algorithm busy summaries (empty for non-busy experiments).
    pub busy_algos: Vec<BusyAlgoRecord>,
}

/// One busy algorithm's aggregate inside an experiment row (`busy_algos`).
#[derive(Debug, Clone, PartialEq)]
pub struct BusyAlgoRecord {
    /// Algorithm name (`IntervalAlgo::name()`).
    pub algo: String,
    /// Total busy time across the experiment's instances.
    pub cost: u64,
    /// Worst observed cost/lower-bound ratio.
    pub ratio: f64,
}

/// The whole `BENCH_lp.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Headline measurement.
    pub lp_simplex: LpSimplexRecord,
    /// Per-experiment rows.
    pub experiments: Vec<ExperimentRecord>,
}

/// A string as the body of a JSON string literal (see
/// [`json::escape_into`]).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json::escape_into(&mut out, s);
    out
}

impl BenchRecord {
    /// Serializes to the canonical JSON layout.
    pub fn to_json(&self) -> String {
        let s = &self.lp_simplex;
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", esc(&self.schema)));
        out.push_str(&format!(
            concat!(
                "  \"lp_simplex\": {{\"bench\": \"solve_active_lp\", ",
                "\"family\": \"random_active_feasible\", ",
                "\"n\": {}, \"g\": {}, \"horizon\": {}, \"seed\": {}, ",
                "\"objective\": \"{}\", ",
                "\"baseline\": \"{}\", \"baseline_ms\": {:.3}, ",
                "\"candidate\": \"{}\", \"candidate_ms\": {:.3}, ",
                "\"speedup\": {:.2}, \"fallback\": {}}},\n"
            ),
            s.n,
            s.g,
            s.horizon,
            s.seed,
            esc(&s.objective),
            esc(&s.baseline),
            s.baseline_ms,
            esc(&s.candidate),
            s.candidate_ms,
            s.speedup,
            s.fallback
        ));
        out.push_str("  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            let speedup = e
                .speedup
                .map(|s| format!(", \"speedup\": {s:.2}"))
                .unwrap_or_default();
            let busy = if e.busy_algos.is_empty() {
                String::new()
            } else {
                let entries: Vec<String> = e
                    .busy_algos
                    .iter()
                    .map(|b| {
                        format!(
                            "{{\"algo\": \"{}\", \"cost\": {}, \"ratio\": {:.4}}}",
                            esc(&b.algo),
                            b.cost,
                            b.ratio
                        )
                    })
                    .collect();
                format!(
                    ", \"busy_cost\": {}, \"busy_ratio\": {:.4}, \"busy_algos\": [{}]",
                    e.busy_cost,
                    e.busy_ratio,
                    entries.join(", ")
                )
            };
            out.push_str(&format!(
                concat!(
                    "    {{\"id\": \"{}\", \"wall_ms\": {:.3}, \"lp_solves\": {}, ",
                    "\"fallback_rate\": {:.4}, \"lp_pivots\": {}, \"lp_bound_flips\": {}, ",
                    "\"lp_refactorizations\": {}, \"lp_certify_ms\": {:.3}, ",
                    "\"lp_components\": {}, \"lp_max_component_vars\": {}, ",
                    "\"warm_hits\": {}, \"warm_pivots_saved\": {}, ",
                    "\"demotions\": {}, \"budget_trips\": {}, \"quarantined\": {}, ",
                    "\"interval_accepts\": {}, \"interval_escalations\": {}, ",
                    "\"persist_restores\": {}, \"recoveries\": {}, ",
                    "\"state_corrupt\": {}, \"admission_rejects\": {}, ",
                    "\"lp_p50_ms\": {:.3}, \"lp_p90_ms\": {:.3}, \"lp_p99_ms\": {:.3}, ",
                    "\"phase_decompose_ms\": {:.3}, \"phase_warm_ms\": {:.3}, ",
                    "\"phase_pivot_ms\": {:.3}, \"phase_certify_ms\": {:.3}, ",
                    "\"phase_stitch_ms\": {:.3}{}{}}}{}\n"
                ),
                esc(&e.id),
                e.wall_ms,
                e.lp_solves,
                e.fallback_rate,
                e.lp_pivots,
                e.lp_bound_flips,
                e.lp_refactorizations,
                e.lp_certify_ms,
                e.lp_components,
                e.lp_max_component_vars,
                e.warm_hits,
                e.warm_pivots_saved,
                e.demotions,
                e.budget_trips,
                e.quarantined,
                e.interval_accepts,
                e.interval_escalations,
                e.persist_restores,
                e.recoveries,
                e.state_corrupt,
                e.admission_rejects,
                e.lp_p50_ms,
                e.lp_p90_ms,
                e.lp_p99_ms,
                e.phase_decompose_ms,
                e.phase_warm_ms,
                e.phase_pivot_ms,
                e.phase_certify_ms,
                e.phase_stitch_ms,
                speedup,
                busy,
                if i + 1 < self.experiments.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a `BENCH_lp.json` document (schema `abt-bench/lp-v2`).
    pub fn from_json(text: &str) -> Result<BenchRecord, String> {
        let value = Json::parse(text)?;
        let top = value.as_object("top level")?;
        let schema = get(top, "schema")?.as_str("schema")?.to_string();
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?}, want {SCHEMA:?}"));
        }
        let lp = get(top, "lp_simplex")?.as_object("lp_simplex")?;
        // Optional string/number fields keep earlier lp-v2 documents
        // (which lacked them) parseable.
        let opt_str = |obj: &BTreeMap<String, Json>, key: &str, default: &str| -> String {
            obj.get(key)
                .and_then(|v| v.as_str(key).ok().map(str::to_string))
                .unwrap_or_else(|| default.to_string())
        };
        let opt_num = |obj: &BTreeMap<String, Json>, key: &str| -> f64 {
            obj.get(key).and_then(|v| v.as_f64(key).ok()).unwrap_or(0.0)
        };
        let lp_simplex = LpSimplexRecord {
            n: get(lp, "n")?.as_f64("n")? as u64,
            g: get(lp, "g")?.as_f64("g")? as u64,
            horizon: get(lp, "horizon")?.as_f64("horizon")? as i64,
            seed: get(lp, "seed")?.as_f64("seed")? as u64,
            objective: get(lp, "objective")?.as_str("objective")?.to_string(),
            baseline: opt_str(lp, "baseline", "unnamed"),
            baseline_ms: get(lp, "baseline_ms")?.as_f64("baseline_ms")?,
            candidate: opt_str(lp, "candidate", "unnamed"),
            candidate_ms: get(lp, "candidate_ms")?.as_f64("candidate_ms")?,
            speedup: get(lp, "speedup")?.as_f64("speedup")?,
            fallback: get(lp, "fallback")?.as_bool("fallback")?,
        };
        let mut experiments = Vec::new();
        for (i, e) in get(top, "experiments")?
            .as_array("experiments")?
            .iter()
            .enumerate()
        {
            let e = e.as_object(&format!("experiments[{i}]"))?;
            experiments.push(ExperimentRecord {
                id: get(e, "id")?.as_str("id")?.to_string(),
                wall_ms: get(e, "wall_ms")?.as_f64("wall_ms")?,
                lp_solves: get(e, "lp_solves")?.as_f64("lp_solves")? as u64,
                fallback_rate: get(e, "fallback_rate")?.as_f64("fallback_rate")?,
                lp_pivots: opt_num(e, "lp_pivots") as u64,
                lp_bound_flips: opt_num(e, "lp_bound_flips") as u64,
                lp_refactorizations: opt_num(e, "lp_refactorizations") as u64,
                lp_certify_ms: opt_num(e, "lp_certify_ms"),
                lp_components: opt_num(e, "lp_components") as u64,
                lp_max_component_vars: opt_num(e, "lp_max_component_vars") as u64,
                warm_hits: opt_num(e, "warm_hits") as u64,
                warm_pivots_saved: opt_num(e, "warm_pivots_saved") as u64,
                demotions: opt_num(e, "demotions") as u64,
                budget_trips: opt_num(e, "budget_trips") as u64,
                quarantined: opt_num(e, "quarantined") as u64,
                interval_accepts: opt_num(e, "interval_accepts") as u64,
                interval_escalations: opt_num(e, "interval_escalations") as u64,
                persist_restores: opt_num(e, "persist_restores") as u64,
                recoveries: opt_num(e, "recoveries") as u64,
                state_corrupt: opt_num(e, "state_corrupt") as u64,
                admission_rejects: opt_num(e, "admission_rejects") as u64,
                lp_p50_ms: opt_num(e, "lp_p50_ms"),
                lp_p90_ms: opt_num(e, "lp_p90_ms"),
                lp_p99_ms: opt_num(e, "lp_p99_ms"),
                phase_decompose_ms: opt_num(e, "phase_decompose_ms"),
                phase_warm_ms: opt_num(e, "phase_warm_ms"),
                phase_pivot_ms: opt_num(e, "phase_pivot_ms"),
                phase_certify_ms: opt_num(e, "phase_certify_ms"),
                phase_stitch_ms: opt_num(e, "phase_stitch_ms"),
                speedup: e.get("speedup").and_then(|v| v.as_f64("speedup").ok()),
                busy_cost: opt_num(e, "busy_cost") as u64,
                busy_ratio: opt_num(e, "busy_ratio"),
                busy_algos: match e.get("busy_algos") {
                    None => Vec::new(),
                    Some(v) => {
                        let mut out = Vec::new();
                        for (k, b) in v.as_array("busy_algos")?.iter().enumerate() {
                            let b = b.as_object(&format!("busy_algos[{k}]"))?;
                            out.push(BusyAlgoRecord {
                                algo: get(b, "algo")?.as_str("algo")?.to_string(),
                                cost: opt_num(b, "cost") as u64,
                                ratio: opt_num(b, "ratio"),
                            });
                        }
                        out
                    }
                },
            });
        }
        Ok(BenchRecord {
            schema,
            lp_simplex,
            experiments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchRecord {
        BenchRecord {
            schema: SCHEMA.to_string(),
            lp_simplex: LpSimplexRecord {
                n: 200,
                g: 4,
                horizon: 400,
                seed: 7,
                objective: "797/4".into(),
                baseline: "revised_bounds".into(),
                baseline_ms: 288.505,
                candidate: "vub_implicit".into(),
                candidate_ms: 46.811,
                speedup: 6.16,
                fallback: false,
            },
            experiments: vec![
                ExperimentRecord {
                    id: "e1".into(),
                    wall_ms: 0.091,
                    lp_solves: 0,
                    fallback_rate: 0.0,
                    lp_pivots: 0,
                    lp_bound_flips: 0,
                    lp_refactorizations: 0,
                    lp_certify_ms: 0.0,
                    lp_components: 0,
                    lp_max_component_vars: 0,
                    warm_hits: 0,
                    warm_pivots_saved: 0,
                    demotions: 0,
                    budget_trips: 0,
                    quarantined: 0,
                    interval_accepts: 0,
                    interval_escalations: 0,
                    persist_restores: 0,
                    recoveries: 0,
                    state_corrupt: 0,
                    admission_rejects: 0,
                    lp_p50_ms: 0.0,
                    lp_p90_ms: 0.0,
                    lp_p99_ms: 0.0,
                    phase_decompose_ms: 0.0,
                    phase_warm_ms: 0.0,
                    phase_pivot_ms: 0.0,
                    phase_certify_ms: 0.0,
                    phase_stitch_ms: 0.0,
                    speedup: None,
                    busy_cost: 0,
                    busy_ratio: 0.0,
                    busy_algos: Vec::new(),
                },
                ExperimentRecord {
                    id: "e3".into(),
                    wall_ms: 3.351,
                    lp_solves: 16,
                    fallback_rate: 0.0,
                    lp_pivots: 420,
                    lp_bound_flips: 31,
                    lp_refactorizations: 12,
                    lp_certify_ms: 1.25,
                    lp_components: 24,
                    lp_max_component_vars: 96,
                    warm_hits: 7,
                    warm_pivots_saved: 120,
                    demotions: 2,
                    budget_trips: 1,
                    quarantined: 0,
                    interval_accepts: 14,
                    interval_escalations: 2,
                    persist_restores: 9,
                    recoveries: 3,
                    state_corrupt: 2,
                    admission_rejects: 1,
                    lp_p50_ms: 0.5,
                    lp_p90_ms: 1.25,
                    lp_p99_ms: 2.75,
                    phase_decompose_ms: 0.125,
                    phase_warm_ms: 0.25,
                    phase_pivot_ms: 1.5,
                    phase_certify_ms: 0.75,
                    phase_stitch_ms: 0.0625,
                    speedup: Some(3.75),
                    busy_cost: 321,
                    busy_ratio: 1.25,
                    busy_algos: vec![
                        BusyAlgoRecord {
                            algo: "LpRounding".into(),
                            cost: 321,
                            ratio: 1.25,
                        },
                        BusyAlgoRecord {
                            algo: "FirstFit".into(),
                            cost: 400,
                            ratio: 2.5,
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn roundtrips() {
        let rec = sample();
        let json = rec.to_json();
        let back = BenchRecord::from_json(&json).unwrap();
        assert_eq!(back.schema, rec.schema);
        assert_eq!(back.lp_simplex.objective, rec.lp_simplex.objective);
        assert_eq!(back.lp_simplex.n, 200);
        assert_eq!(back.lp_simplex.baseline, "revised_bounds");
        assert_eq!(back.lp_simplex.candidate, "vub_implicit");
        assert!(!back.lp_simplex.fallback);
        assert_eq!(back.experiments.len(), 2);
        assert_eq!(back.experiments[1].lp_solves, 16);
        assert_eq!(back.experiments[1].lp_pivots, 420);
        assert_eq!(back.experiments[1].lp_bound_flips, 31);
        assert_eq!(back.experiments[1].lp_refactorizations, 12);
        assert!((back.experiments[1].lp_certify_ms - 1.25).abs() < 1e-9);
        assert!((back.experiments[1].wall_ms - 3.351).abs() < 1e-9);
        assert_eq!(back.experiments[1].lp_components, 24);
        assert_eq!(back.experiments[1].lp_max_component_vars, 96);
        assert_eq!(back.experiments[1].warm_hits, 7);
        assert_eq!(back.experiments[1].warm_pivots_saved, 120);
        assert_eq!(back.experiments[1].demotions, 2);
        assert_eq!(back.experiments[1].budget_trips, 1);
        assert_eq!(back.experiments[1].quarantined, 0);
        assert_eq!(back.experiments[1].interval_accepts, 14);
        assert_eq!(back.experiments[1].interval_escalations, 2);
        assert_eq!(back.experiments[0].speedup, None);
        assert!((back.experiments[1].speedup.unwrap() - 3.75).abs() < 1e-9);
        assert!((back.experiments[1].lp_p50_ms - 0.5).abs() < 1e-9);
        assert!((back.experiments[1].lp_p90_ms - 1.25).abs() < 1e-9);
        assert!((back.experiments[1].lp_p99_ms - 2.75).abs() < 1e-9);
        assert!((back.experiments[1].phase_decompose_ms - 0.125).abs() < 1e-9);
        assert!((back.experiments[1].phase_warm_ms - 0.25).abs() < 1e-9);
        assert!((back.experiments[1].phase_pivot_ms - 1.5).abs() < 1e-9);
        assert!((back.experiments[1].phase_certify_ms - 0.75).abs() < 1e-9);
        assert!((back.experiments[1].phase_stitch_ms - 0.062).abs() < 1e-3);
        assert_eq!(back.experiments[0].busy_cost, 0);
        assert!(back.experiments[0].busy_algos.is_empty());
        assert_eq!(back.experiments[1].busy_cost, 321);
        assert!((back.experiments[1].busy_ratio - 1.25).abs() < 1e-9);
        assert_eq!(
            back.experiments[1].busy_algos,
            rec.experiments[1].busy_algos
        );
    }

    #[test]
    fn parses_records_without_telemetry_fields() {
        // An earlier lp-v2 document (no counter fields, no
        // baseline/candidate names, no sharding fields) still parses, with
        // defaults.
        let txt = r#"{ "schema": "abt-bench/lp-v2",
            "lp_simplex": {"n": 1, "g": 1, "horizon": 2, "seed": 0,
                "objective": "0", "baseline_ms": 1.0, "candidate_ms": 0.5,
                "speedup": 2.0, "fallback": false},
            "experiments": [
                {"id": "e1", "wall_ms": 3.0, "lp_solves": 4,
                 "fallback_rate": 0.0}
            ] }"#;
        let rec = BenchRecord::from_json(txt).unwrap();
        assert_eq!(rec.lp_simplex.baseline, "unnamed");
        assert_eq!(rec.experiments[0].lp_pivots, 0);
        assert_eq!(rec.experiments[0].lp_certify_ms, 0.0);
        assert_eq!(rec.experiments[0].lp_solves, 4);
        assert_eq!(rec.experiments[0].lp_components, 0);
        assert_eq!(rec.experiments[0].lp_max_component_vars, 0);
        assert_eq!(rec.experiments[0].warm_hits, 0);
        assert_eq!(rec.experiments[0].warm_pivots_saved, 0);
        assert_eq!(rec.experiments[0].demotions, 0);
        assert_eq!(rec.experiments[0].budget_trips, 0);
        assert_eq!(rec.experiments[0].quarantined, 0);
        assert_eq!(rec.experiments[0].interval_accepts, 0);
        assert_eq!(rec.experiments[0].interval_escalations, 0);
        assert_eq!(rec.experiments[0].speedup, None);
        assert_eq!(rec.experiments[0].busy_cost, 0);
        assert_eq!(rec.experiments[0].busy_ratio, 0.0);
        assert!(rec.experiments[0].busy_algos.is_empty());
        assert_eq!(rec.experiments[0].lp_p50_ms, 0.0);
        assert_eq!(rec.experiments[0].lp_p99_ms, 0.0);
        assert_eq!(rec.experiments[0].phase_pivot_ms, 0.0);
    }

    #[test]
    fn rejects_wrong_schema_and_garbage() {
        let mut rec = sample();
        rec.schema = "abt-bench/lp-v1".into();
        assert!(BenchRecord::from_json(&rec.to_json()).is_err());
        assert!(BenchRecord::from_json("{").is_err());
        assert!(BenchRecord::from_json("not json").is_err());
        assert!(BenchRecord::from_json("{\"schema\": \"abt-bench/lp-v2\"}").is_err());
    }

    #[test]
    fn escapes_and_utf8_roundtrip() {
        let mut rec = sample();
        rec.experiments[0].id = "e\"1\\π".into();
        rec.lp_simplex.objective = "7/4 µs".into();
        let back = BenchRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back.experiments[0].id, rec.experiments[0].id);
        assert_eq!(back.lp_simplex.objective, rec.lp_simplex.objective);
    }

    #[test]
    fn parses_whitespace_and_empty_collections() {
        let txt = r#"{ "schema": "abt-bench/lp-v2",
            "lp_simplex": {"n": 1, "g": 1, "horizon": 2, "seed": 0,
                "objective": "0", "baseline_ms": 1.0, "candidate_ms": 0.5,
                "speedup": 2.0, "fallback": false},
            "experiments": [] }"#;
        let rec = BenchRecord::from_json(txt).unwrap();
        assert!(rec.experiments.is_empty());
        assert_eq!(rec.lp_simplex.speedup, 2.0);
    }
}
