//! # abt-bench
//!
//! The experiment harness: regenerates every figure-level artifact of the
//! paper ([`experiments`] holds one function per artifact, `e1`–`e25`)
//! and hosts the Criterion runtime benches. `cargo run -p abt-bench
//! --release --bin experiments` prints each experiment's Markdown table
//! and writes `BENCH_lp.json` ([`bench_record`] documents the full lp-v2
//! schema), which the `perf_gate` binary compares field-by-field in CI by
//! the rules of [`perf_gate`].
//! See the repo-root `ARCHITECTURE.md` for the whole pipeline.
//!
//! # Example
//!
//! The `BENCH_lp.json` writer/parser round-trips through the typed record
//! — CI gates on *fields*, never on text diffs:
//!
//! ```
//! use abt_bench::bench_record::{BenchRecord, SCHEMA};
//!
//! let committed = r#"{ "schema": "abt-bench/lp-v2",
//!     "lp_simplex": {"n": 1000, "g": 4, "horizon": 2000, "seed": 7,
//!         "objective": "1337/2", "baseline": "revised_bounds",
//!         "baseline_ms": 1378.0, "candidate": "vub_implicit",
//!         "candidate_ms": 407.0, "speedup": 3.39, "fallback": false},
//!     "experiments": [
//!         {"id": "e21", "wall_ms": 900.0, "lp_solves": 1216,
//!          "fallback_rate": 0.0, "lp_components": 1216, "speedup": 19.5}
//!     ] }"#;
//! let rec = BenchRecord::from_json(committed).unwrap();
//! assert_eq!(rec.schema, SCHEMA);
//! assert_eq!(rec.lp_simplex.candidate, "vub_implicit");
//! assert_eq!(rec.experiments[0].column("lp_components"), 1216.0);
//! assert_eq!(rec.experiments[0].speedup, Some(19.5));
//! // The canonical writer re-emits a parseable document.
//! assert_eq!(BenchRecord::from_json(&rec.to_json()).unwrap(), rec);
//! ```

#![warn(missing_docs)]

pub mod bench_record;
pub mod experiments;
pub mod perf_gate;
pub mod stats;
pub mod table;

pub use bench_record::{BenchRecord, ExperimentRecord, LpSimplexRecord};
pub use experiments::ExperimentReport;
pub use stats::{ratio_summary, time_best_ms, Summary};
pub use table::{ratio, Table};
