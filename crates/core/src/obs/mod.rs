//! # Unified observability layer
//!
//! Generation-10 substrate shared by the whole workspace: one
//! process-global [`metrics`] registry (counters and log-bucket
//! histograms), an RAII span/event [`trace`] API over the
//! solve pipeline, and a bounded ring-buffer flight [`recorder`] that
//! dumps JSONL on demand.
//!
//! The three pieces compose into a single reporting path:
//!
//! * **Metrics** are the always-on truth. The legacy telemetry facades
//!   (`abt_active::lp_telemetry`, the persistence counters) are views
//!   over registry counters, and per-solve distributions (latency,
//!   pivots, variables) land in histograms with deterministic
//!   p50/p90/p99 extraction.
//! * **Spans** time the pipeline phases (`solve.decompose` →
//!   `solve.pivot` → `solve.certify` → `solve.stitch`,
//!   with `solve.component` wrapping each supervised component solve).
//!   Closing a span always feeds a per-name duration rollup in the
//!   registry; when tracing is armed it also appends to the flight
//!   recorder.
//! * **Events** mark the exceptional transitions — supervision
//!   demotions and quarantines, admission rejects, persistence
//!   restores/recoveries/corruption detections — so a flight-recorder
//!   dump explains *why* a solve took the path it did.
//!
//! Arm/disarm at runtime with [`trace::set_tracing`]; dump with
//! [`recorder::dump_jsonl`] / [`recorder::dump_to_file`]; validate a
//! dump with [`recorder::validate_jsonl`].

pub mod metrics;
pub mod recorder;
pub mod trace;

pub use metrics::{counter, histogram, Counter, Histogram, HistogramSnapshot};
pub use recorder::{dump_jsonl, dump_to_file, validate_jsonl, DumpSummary, TraceEntry};
pub use trace::{event, set_tracing, span, span_rollups, span_with, tracing_enabled, Span};
