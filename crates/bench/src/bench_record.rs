//! The `BENCH_lp.json` schema (`abt-bench/lp-v2`): a typed writer/parser
//! pair so the CI perf gate compares *fields*, not eyeballed artifacts.
//! This module is the schema's reference: the document layout below, and
//! [`COLUMNS`] for every telemetry column of an experiment row. The gate
//! rules over those fields are [`crate::perf_gate::RULES`].
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
//! | field          | type   | optional? | meaning                         |
//! |----------------|--------|-----------|---------------------------------|
//! | `bench`, `family` | string | written, ignored on parse | human context only |
//! | `n`, `g`, `horizon`, `seed` | number | required | instance identity |
//! | `objective`    | string | required  | exact rational optimum (e.g. `"797/4"`) |
//! | `baseline`     | string | optional, default `"unnamed"` | the baseline configuration's name |
//! | `baseline_ms`  | number | required  | wall time                       |
//! | `candidate`    | string | optional, default `"unnamed"` | the candidate configuration's name |
//! | `candidate_ms` | number | required  | wall time                       |
//! | `speedup`      | number | required  | `baseline_ms / candidate_ms`    |
//! | `fallback`     | bool   | required  | whether the candidate needed the exact fallback |
//!
//! # `experiments[]` — per-experiment rows
//!
//! Each row carries `id` and `wall_ms` (required), then every column of
//! [`COLUMNS`] in table order — `lp_solves` and `fallback_rate` required,
//! the rest read as 0 when absent, so every earlier `lp-v2` document
//! remains readable — then the optional `speedup` and, when `busy_algos`
//! is non-empty, `busy_cost`, `busy_ratio` and `busy_algos`. The fields
//! are documented on [`ExperimentRecord`]; each column's value is its
//! [`Source`] read over the experiment.
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
use abt_core::obs::metrics::{self, HistogramSnapshot, Metric};
use std::collections::BTreeMap;

/// Schema tag written/accepted by this module.
pub const SCHEMA: &str = "abt-bench/lp-v2";

/// Where a column's value comes from: a reading of the
/// [`abt_core::obs::metrics`] registry, scoped to one experiment by
/// [`RowProbe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// A counter's growth, divided by the scale (1 for counts, `1e6` for
    /// nanoseconds to ms).
    Counter(&'static str, f64),
    /// A percentile of a microsecond histogram's new observations, in ms.
    Percentile(&'static str, f64),
    /// One counter's growth over another's (0 when the second did not
    /// grow).
    Ratio(&'static str, &'static str),
}

/// One telemetry column of an experiment row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Column {
    /// The lp-v2 key.
    pub key: &'static str,
    /// Decimal places the value is written with (0 for counts).
    pub decimals: usize,
    /// Where the `experiments` binary reads it.
    pub source: Source,
}

/// Columns a row must carry to parse; every other column reads as 0 when
/// absent.
const REQUIRED: [&str; 2] = ["lp_solves", "fallback_rate"];

/// Every telemetry column of an experiment row, in the order the writer
/// emits them. Each reads a registry counter or histogram over the row
/// (see [`Source`]). The `lp.*` counters are documented on
/// [`abt_active::LpTelemetry`]; `lp.solve_latency_us` holds each solve's
/// wall time in microseconds. `interval_accepts` and
/// `interval_escalations` keep the names of the retired interval tier:
/// they count the certifications that proved every reduced-cost sign in
/// integers and those where some column family needed `Rat`. The
/// `span.solve.<phase>.nanos` counters are the always-on span rollups of
/// the solve pipeline ([`abt_core::obs::span_rollups`]).
#[rustfmt::skip]
pub const COLUMNS: &[Column] = {
    use Source::{Counter, Percentile, Ratio};
    &[
        Column { key: "lp_solves",             decimals: 0, source: Counter("lp.solves", 1.0) },
        Column { key: "fallback_rate",         decimals: 4, source: Ratio("lp.fallbacks", "lp.solves") },
        Column { key: "lp_pivots",             decimals: 0, source: Counter("lp.pivots", 1.0) },
        Column { key: "lp_bound_flips",        decimals: 0, source: Counter("lp.bound_flips", 1.0) },
        Column { key: "lp_refactorizations",   decimals: 0, source: Counter("lp.refactorizations", 1.0) },
        Column { key: "lp_certify_ms",         decimals: 3, source: Counter("lp.certify_nanos", 1e6) },
        Column { key: "lp_components",         decimals: 0, source: Counter("lp.components", 1.0) },
        Column { key: "demotions",             decimals: 0, source: Counter("lp.demotions", 1.0) },
        Column { key: "budget_trips",          decimals: 0, source: Counter("lp.budget_trips", 1.0) },
        Column { key: "quarantined",           decimals: 0, source: Counter("lp.quarantined", 1.0) },
        Column { key: "interval_accepts",      decimals: 0, source: Counter("lp.interval_accepts", 1.0) },
        Column { key: "interval_escalations",  decimals: 0, source: Counter("lp.interval_escalations", 1.0) },
        Column { key: "persist_restores",      decimals: 0, source: Counter("lp.persist_restores", 1.0) },
        Column { key: "recoveries",            decimals: 0, source: Counter("lp.recoveries", 1.0) },
        Column { key: "state_corrupt",         decimals: 0, source: Counter("lp.state_corrupt", 1.0) },
        Column { key: "admission_rejects",     decimals: 0, source: Counter("lp.admission_rejects", 1.0) },
        Column { key: "lp_p50_ms",             decimals: 3, source: Percentile("lp.solve_latency_us", 0.50) },
        Column { key: "lp_p90_ms",             decimals: 3, source: Percentile("lp.solve_latency_us", 0.90) },
        Column { key: "lp_p99_ms",             decimals: 3, source: Percentile("lp.solve_latency_us", 0.99) },
        Column { key: "phase_decompose_ms",    decimals: 3, source: Counter("span.solve.decompose.nanos", 1e6) },
        Column { key: "phase_pivot_ms",        decimals: 3, source: Counter("span.solve.pivot.nanos", 1e6) },
        Column { key: "phase_certify_ms",      decimals: 3, source: Counter("span.solve.certify.nanos", 1e6) },
        Column { key: "phase_stitch_ms",       decimals: 3, source: Counter("span.solve.stitch.nanos", 1e6) },
    ]
};

/// A counter's value, or 0 when nothing registered it.
fn count(name: &str) -> u64 {
    match metrics::lookup(name) {
        Some(Metric::Counter(c)) => c.get(),
        _ => 0,
    }
}

/// A histogram's buckets, or `None` when nothing registered it.
fn histogram(name: &str) -> Option<HistogramSnapshot> {
    match metrics::lookup(name) {
        Some(Metric::Histogram(h)) => Some(h.snapshot()),
        _ => None,
    }
}

/// What [`RowProbe::start`] read for one column.
enum Start {
    Counts(u64, u64),
    Histogram(Option<Box<HistogramSnapshot>>),
}

/// The registry readings behind one experiment row: taken when the row
/// starts, turned into column values when it ends. It never registers a
/// metric: a source nothing registered reads 0, and one registered during
/// the row counts from zero.
pub struct RowProbe {
    start: Vec<Start>,
}

impl RowProbe {
    /// Reads every column's source.
    pub fn start() -> RowProbe {
        let start = COLUMNS
            .iter()
            .map(|c| match c.source {
                Source::Counter(name, _) => Start::Counts(count(name), 0),
                Source::Ratio(num, den) => Start::Counts(count(num), count(den)),
                Source::Percentile(name, _) => Start::Histogram(histogram(name).map(Box::new)),
            })
            .collect();
        RowProbe { start }
    }

    /// Every column's value over the row, keyed by column.
    pub fn finish(self) -> BTreeMap<&'static str, f64> {
        COLUMNS
            .iter()
            .zip(self.start)
            .map(|(c, start)| {
                let value = match (c.source, start) {
                    (Source::Counter(name, scale), Start::Counts(n, _)) => {
                        count(name).saturating_sub(n) as f64 / scale
                    }
                    (Source::Ratio(num, den), Start::Counts(n, d)) => {
                        match count(den).saturating_sub(d) {
                            0 => 0.0,
                            d => count(num).saturating_sub(n) as f64 / d as f64,
                        }
                    }
                    (Source::Percentile(name, q), Start::Histogram(before)) => {
                        let since = match (histogram(name), before) {
                            (Some(now), Some(before)) => Some(now.delta(&before)),
                            (now, _) => now,
                        };
                        since.map_or(0, |h| h.percentile(q)) as f64 / 1e3
                    }
                    _ => unreachable!("a probe starts each column from its own source"),
                };
                (c.key, value)
            })
            .collect()
    }
}

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

/// One experiment's wall time, telemetry columns and busy summaries. See
/// the module docs for the field rules.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment id (`e1`…).
    pub id: String,
    /// Wall time, ms.
    pub wall_ms: f64,
    /// Telemetry values keyed by [`Column::key`]; the parser and the
    /// `experiments` binary fill every column of [`COLUMNS`].
    pub columns: BTreeMap<&'static str, f64>,
    /// Experiment-defined headline ratio (e.g. `e21`'s Auto-vs-Off LP1
    /// speedup, `e22`'s from-scratch/incremental pivot-effort ratio);
    /// `None` for experiments without one.
    pub speedup: Option<f64>,
    /// Total busy time of the headline busy algorithm (`LpRounding`)
    /// across the experiment's instances (0 for non-busy experiments).
    pub busy_cost: u64,
    /// The headline busy algorithm's worst cost/lower-bound ratio (0 for
    /// non-busy experiments).
    pub busy_ratio: f64,
    /// Per-algorithm busy summaries (empty for non-busy experiments).
    pub busy_algos: Vec<BusyAlgoRecord>,
}

impl ExperimentRecord {
    /// The value of column `key` (0 when the row lacks it).
    pub fn column(&self, key: &str) -> f64 {
        self.columns.get(key).copied().unwrap_or(0.0)
    }
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
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"wall_ms\": {:.3}",
                esc(&e.id),
                e.wall_ms
            ));
            for c in COLUMNS {
                let (v, decimals) = (e.column(c.key), c.decimals);
                out.push_str(&format!(", \"{}\": {v:.decimals$}", c.key));
            }
            if let Some(s) = e.speedup {
                out.push_str(&format!(", \"speedup\": {s:.2}"));
            }
            if !e.busy_algos.is_empty() {
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
                out.push_str(&format!(
                    ", \"busy_cost\": {}, \"busy_ratio\": {:.4}, \"busy_algos\": [{}]",
                    e.busy_cost,
                    e.busy_ratio,
                    entries.join(", ")
                ));
            }
            out.push_str(if i + 1 < self.experiments.len() {
                "},\n"
            } else {
                "}\n"
            });
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
            let id = get(e, "id")?.as_str("id")?.to_string();
            let wall_ms = get(e, "wall_ms")?.as_f64("wall_ms")?;
            let mut columns = BTreeMap::new();
            for c in COLUMNS {
                let v = if REQUIRED.contains(&c.key) {
                    get(e, c.key)?.as_f64(c.key)?
                } else {
                    opt_num(e, c.key)
                };
                columns.insert(c.key, v);
            }
            experiments.push(ExperimentRecord {
                id,
                wall_ms,
                columns,
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

    /// A row's columns: the given values, every other column 0.
    fn columns(values: &[(&'static str, f64)]) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = COLUMNS.iter().map(|c| (c.key, 0.0)).collect();
        for &(key, v) in values {
            assert!(out.insert(key, v).is_some(), "{key} is not a column");
        }
        out
    }

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
                    columns: columns(&[]),
                    speedup: None,
                    busy_cost: 0,
                    busy_ratio: 0.0,
                    busy_algos: Vec::new(),
                },
                ExperimentRecord {
                    id: "e3".into(),
                    wall_ms: 3.351,
                    columns: columns(&[
                        ("lp_solves", 16.0),
                        ("lp_pivots", 420.0),
                        ("lp_bound_flips", 31.0),
                        ("lp_refactorizations", 12.0),
                        ("lp_certify_ms", 1.25),
                        ("lp_components", 24.0),
                        ("demotions", 2.0),
                        ("budget_trips", 1.0),
                        ("interval_accepts", 14.0),
                        ("interval_escalations", 2.0),
                        ("persist_restores", 9.0),
                        ("recoveries", 3.0),
                        ("state_corrupt", 2.0),
                        ("admission_rejects", 1.0),
                        ("lp_p50_ms", 0.5),
                        ("lp_p90_ms", 1.25),
                        ("lp_p99_ms", 2.75),
                        ("phase_decompose_ms", 0.125),
                        ("phase_pivot_ms", 1.5),
                        ("phase_certify_ms", 0.75),
                        ("phase_stitch_ms", 0.0625),
                    ]),
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
        let e = &back.experiments[1];
        for (key, want) in [
            ("lp_solves", 16.0),
            ("lp_pivots", 420.0),
            ("lp_bound_flips", 31.0),
            ("lp_refactorizations", 12.0),
            ("lp_components", 24.0),
            ("demotions", 2.0),
            ("budget_trips", 1.0),
            ("quarantined", 0.0),
            ("interval_accepts", 14.0),
            ("interval_escalations", 2.0),
        ] {
            assert_eq!(e.column(key), want, "{key}");
        }
        assert!((e.column("lp_certify_ms") - 1.25).abs() < 1e-9);
        assert!((e.wall_ms - 3.351).abs() < 1e-9);
        assert_eq!(back.experiments[0].speedup, None);
        assert!((e.speedup.unwrap() - 3.75).abs() < 1e-9);
        assert!((e.column("lp_p50_ms") - 0.5).abs() < 1e-9);
        assert!((e.column("lp_p90_ms") - 1.25).abs() < 1e-9);
        assert!((e.column("lp_p99_ms") - 2.75).abs() < 1e-9);
        assert!((e.column("phase_decompose_ms") - 0.125).abs() < 1e-9);
        assert!((e.column("phase_pivot_ms") - 1.5).abs() < 1e-9);
        assert!((e.column("phase_certify_ms") - 0.75).abs() < 1e-9);
        assert!((e.column("phase_stitch_ms") - 0.062).abs() < 1e-3);
        assert_eq!(back.experiments[0].busy_cost, 0);
        assert!(back.experiments[0].busy_algos.is_empty());
        assert_eq!(e.busy_cost, 321);
        assert!((e.busy_ratio - 1.25).abs() < 1e-9);
        assert_eq!(e.busy_algos, rec.experiments[1].busy_algos);
    }

    #[test]
    fn committed_record_roundtrips_byte_for_byte() {
        let committed = include_str!("../../../BENCH_lp.json");
        let rec = BenchRecord::from_json(committed).unwrap();
        assert_eq!(rec.to_json(), committed);
    }

    #[test]
    fn every_lp_source_names_a_registered_metric() {
        let inst =
            abt_core::Instance::from_triples([(0, 4, 2), (1, 3, 2), (100, 104, 3)], 2).unwrap();
        abt_active::solve_active_lp(&inst).unwrap();
        for c in COLUMNS {
            let (names, kind): (Vec<&str>, fn(Metric) -> bool) = match c.source {
                Source::Counter(name, _) => (vec![name], |m| matches!(m, Metric::Counter(_))),
                Source::Ratio(num, den) => (vec![num, den], |m| matches!(m, Metric::Counter(_))),
                Source::Percentile(name, _) => (vec![name], |m| matches!(m, Metric::Histogram(_))),
            };
            for name in names.into_iter().filter(|n| n.starts_with("lp.")) {
                let metric = metrics::lookup(name);
                assert!(
                    metric.is_some_and(kind),
                    "column {} reads {name}, which no LP1 solve registers as that kind",
                    c.key
                );
            }
        }
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
        let e = &rec.experiments[0];
        assert_eq!(e.column("lp_solves"), 4.0);
        for c in COLUMNS.iter().filter(|c| c.key != "lp_solves") {
            assert_eq!(e.columns.get(c.key), Some(&0.0), "{}", c.key);
        }
        assert_eq!(e.speedup, None);
        assert_eq!(e.busy_cost, 0);
        assert_eq!(e.busy_ratio, 0.0);
        assert!(e.busy_algos.is_empty());
        // The two required columns stay required.
        for key in REQUIRED {
            let missing = txt.replace(&format!("\"{key}\""), "\"other\"");
            assert!(BenchRecord::from_json(&missing).is_err(), "{key}");
        }
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
