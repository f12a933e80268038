//! The natural LP relaxation `LP1` of the active-time IP (§3), with slot
//! coalescing, implicit variable bounds, implicit VUB families for the
//! `x ≤ Y` caps, and a VUB-aware bounded revised hybrid solve as the
//! default configuration.
//!
//! # The per-slot formulation (the seed model)
//!
//! Variables: `y_t ∈ [0, 1]` per horizon slot (is slot `t` open?) and
//! `x_{t,j} ≥ 0` per job and window slot (units of `j` in `t`).
//! Constraints: `x_{t,j} ≤ y_t`, `Σ_j x_{t,j} ≤ g·y_t`, `Σ_t x_{t,j} ≥ p_j`.
//! Objective: minimize `Σ_t y_t`. Size: `O(T·n)` variables and rows for a
//! horizon of `T` slots.
//!
//! # Slot coalescing (the paper's interesting intervals)
//!
//! Between two consecutive job event points (releases/deadlines) every
//! slot has the *same* feasible job set, so a run of `w` identical slots
//! collapses into one weighted super-slot: `Y_I ∈ [0, w_I]` carries the
//! total open mass of the run and `x_{I,j}` the total units of `j` in it,
//! with `x_{I,j} ≤ Y_I`, `Σ_j x_{I,j} ≤ g·Y_I`, `Σ_I x_{I,j} ≥ p_j`, and
//! objective `Σ_I Y_I`. The two LPs have equal optima: per-slot solutions
//! aggregate by summing, and a super-slot solution disaggregates uniformly
//! (`y_t = Y_I/w_I`, `x_{t,j} = x_{I,j}/w_I`), which preserves every
//! constraint and the objective. With at most `2n` event points this cuts
//! the model from `O(T·n)` to `O(n²)` — the dominant win on long horizons.
//!
//! The reported [`ActiveLp`] stays per-slot (the §3.1 right-shifting
//! consumes per-slot `y`), using the exact uniform disaggregation.
//!
//! # Bound encodings
//!
//! The capacity caps `Y_I ≤ w_I` (and `y_t ≤ 1` per-slot) are *constant*
//! upper bounds: under [`BoundsMode::Implicit`] they ride on the variables
//! themselves (`LpProblem::set_upper`) and never become tableau rows —
//! the bounded-variable simplex handles them in its pivoting rules.
//! [`BoundsMode::Rows`] keeps the seed's explicit `≤` rows as the
//! differential-test oracle.
//!
//! The `x_{I,j} ≤ Y_I` caps bound one *variable by another* — a **variable
//! upper bound** (VUB). They are the last `O(n²)` block of LP1: one row
//! per (job, interval) pair while every other row class is `O(n)`. Under
//! [`VubMode::Implicit`] (the default) each cap is registered as a VUB
//! family membership (`LpProblem::set_vub`) that the revised simplex
//! handles inside its pivoting rules — dependents rest *glued* to their
//! `Y_I` key and basic keys carry Schrage-style augmented key columns —
//! shrinking the working basis from `O(n²)` to `O(n)` rows.
//! [`VubMode::Rows`] keeps the explicit `x − Y ≤ 0` rows as the
//! differential-test oracle.
//!
//! # Component decomposition
//!
//! LP1's constraint matrix is **block-diagonal across connected components
//! of the job-window interval graph**: jobs whose windows never overlap
//! share no slot (or super-slot) variables, no capacity row, and no VUB
//! family, so one huge instance is really many independent small ones.
//! Under [`DecomposeMode::Auto`] (the default) the model sweeps the slot
//! runs once to find those components — each is a *contiguous* range of
//! runs, because a job's window covers a contiguous run range — builds one
//! sub-LP per component, solves them through
//! [`abt_core::parallel_map`] on the existing VUB revised simplex, and
//! stitches the per-run `Y` values and objectives back together. The
//! stitching is *exact*: the blocks share nothing, so the monolithic
//! optimum equals the sum of the component optima and the rational sums
//! introduce no rounding. Runs covered by no job window carry `Y = 0` in
//! any optimum and are never sent to a solver. [`DecomposeMode::Off`]
//! keeps the monolithic solve as the differential oracle.
//!
//! Sharding composes with the per-thread slab arena in `abt-lp`
//! ([`abt_lp::SolveArena`]): each worker thread solving a stream of small
//! component LPs reuses its scratch buffers instead of churning the global
//! allocator.
//!
//! # Warm-started sibling batching
//!
//! On the families that shard well the components are often
//! *near-identical* — nested windows and arrival streams repeat the same
//! window layouts with different job lengths. Under [`WarmMode::Batch`]
//! the sharded solve runs a **batch planner**: components are grouped by
//! structural signature (run count + per-job relative run spans — equal
//! signatures build LPs with identical standard-form structure), one
//! representative per group solves cold, and the siblings warm-start from
//! a per-group [`abt_lp::BasisSnapshot`] pool seeded by the
//! representative and grown by every cold-resolved miss (offered through
//! [`abt_lp::LpOptions::snapshots`]). Siblings run in parallel waves so the
//! pool growth stays deterministic — warm pivot counts are exactly
//! reproducible run to run. Warm answers are certified in exact rationals
//! like cold ones, so `Batch` never changes an objective; cold
//! [`WarmMode::Off`] remains the default and the differential oracle
//! (E22 measures the pivot-effort reduction). The incremental re-solve
//! driver for *mutating* instances lives in [`crate::incremental`].
//!
//! # Solve backends
//!
//! The default is [`abt_lp::solve_lp`]'s `Revised` backend under the
//! supervision ladder ([`crate::supervise`]): a bounded revised simplex in
//! `f64` whose terminal basis is re-verified in exact rationals (and, if
//! that fails, re-solved by a dense rung), so the `y` values and
//! objective remain *exact* —
//! the rounding algorithm's case analysis (`⌊Y_i⌋`, comparisons against ½)
//! stays noise-free. [`LpOptions`] recovers the seed behaviour (per-slot +
//! explicit rows + pure exact simplex) and the PR-1 default (coalesced +
//! dense hybrid) for differential tests and benchmarks.
//!
//! Every hybrid-style solve feeds the process-wide telemetry
//! ([`lp_telemetry`]): fallbacks plus the pivot / bound-flip /
//! refactorization / exact-certify counters, and the sharding counters
//! (sharded solves, components solved, largest component). The experiment
//! harness records them per experiment and CI fails when a non-adversarial
//! workload ever needs the exact fallback.

#![allow(clippy::needless_range_loop)] // job indices are shared across parallel vectors

use crate::supervise::{supervised_solve, PartialSolve, QuarantinedComponent, SolveError};
use abt_core::active_schedule::{horizon_slots, job_feasible_in_slot};
use abt_core::obs::{
    self,
    metrics::{Counter, Gauge, Histogram, HistogramSnapshot},
};
use abt_core::{supervised_map, Error, Instance, Result, SolveFailure, Time};
use abt_lp::{
    solve, solve_lp, BasisSnapshot, BoundedOptions, CertifyMode, Cmp, LpProblem, LpReport,
    LpSolution, LpStatus, Rat, SolverBackend, DEFAULT_PRICING_WINDOW,
};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Duration;

/// Which simplex path solves the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpBackend {
    /// Pure exact-rational dense simplex for every pivot (the seed
    /// behaviour).
    Exact,
    /// Dense float-first solve with exact terminal-basis verification and
    /// exact fallback ([`abt_lp::SolverBackend::DenseHybrid`]) — the PR-1
    /// default.
    Hybrid,
    /// Bounded-variable revised simplex in `f64` with sparse exact-LU
    /// verification ([`abt_lp::SolverBackend::Revised`], run down the
    /// supervision ladder). Same exact results, faster; the current
    /// default.
    Revised,
}

/// How constant variable upper bounds enter the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundsMode {
    /// Explicit `x ≤ u` rows (the seed encoding; dense-oracle).
    Rows,
    /// Implicit `[0, u]` bounds on the variables (no rows).
    Implicit,
}

/// How the `x_{I,j} ≤ Y_I` variable upper bounds enter the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VubMode {
    /// Explicit `x − Y ≤ 0` rows (the seed/PR-2 encoding; dense-oracle).
    Rows,
    /// Implicit VUB families handled by the pivoting rules (no rows).
    Implicit,
}

/// Whether LP1 is sharded along the connected components of the
/// job-window interval graph (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecomposeMode {
    /// One monolithic LP, whatever the instance's shape (the differential
    /// oracle and the pre-sharding behaviour).
    Off,
    /// Split into per-component sub-LPs whenever the instance has more
    /// than one component, solving them through
    /// [`abt_core::parallel_map`] and stitching the results exactly.
    Auto,
}

/// Whether a sharded solve batches *similar* component sub-LPs into
/// warm-started sibling solves (see the module docs and
/// [`abt_lp::warm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmMode {
    /// Every component solves cold (the pre-warm-start behaviour and the
    /// differential oracle).
    Off,
    /// Components are grouped by structural signature; one representative
    /// per group solves cold and its [`abt_lp::BasisSnapshot`] seeds the
    /// siblings' warm solves (a growing per-group snapshot pool keeps the
    /// hit rate high). Exact objectives are unchanged — warm answers are
    /// certified in rationals like cold ones. Only the
    /// [`LpBackend::Revised`] backend warm-starts; other backends ignore
    /// this mode.
    Batch,
}

/// Model/solver configuration for [`solve_active_lp_with`].
#[derive(Debug, Clone, Copy)]
pub struct LpOptions {
    /// Solve backend. Default: [`LpBackend::Revised`].
    pub backend: LpBackend,
    /// Coalesce identical-window slot runs into weighted super-slots.
    /// Default: `true`.
    pub coalesce: bool,
    /// Constant-bound encoding. Default: [`BoundsMode::Implicit`].
    pub bounds: BoundsMode,
    /// Variable-upper-bound encoding. Default: [`VubMode::Implicit`].
    pub vub: VubMode,
    /// Partial-pricing window of the revised backend (`0` = full Dantzig
    /// sweeps). Default: [`DEFAULT_PRICING_WINDOW`].
    pub pricing_window: usize,
    /// Interval-graph component sharding. Default: [`DecomposeMode::Auto`].
    pub decompose: DecomposeMode,
    /// Warm-started sibling batching of the sharded solves. Default:
    /// [`WarmMode::Off`] (the cold path stays the shipping default and the
    /// perf baseline; [`LpOptions::warm_batched`] turns batching on).
    pub warm: WarmMode,
    /// Basis-changing pivot budget per revised solve attempt (`0` =
    /// unlimited, the default). A trip surfaces as a typed
    /// `BudgetExceeded` failure and demotes the solve down the
    /// supervision ladder instead of spinning.
    pub pivot_budget: u64,
    /// Wall-time budget per revised solve *stage* in milliseconds (`0` =
    /// unlimited, the default): the float pass and the exact certifier
    /// each get a fresh clock.
    pub time_budget_ms: u64,
    /// Certification tier policy of the revised backend (see
    /// [`CertifyMode`]). Default: [`CertifyMode::IntervalThenExact`] —
    /// the directed-rounding interval tier discharges most proofs,
    /// escalating to exact rationals only on straddles. Objectives are
    /// bit-identical under every mode.
    pub certify: CertifyMode,
}

impl Default for LpOptions {
    fn default() -> Self {
        LpOptions {
            backend: LpBackend::Revised,
            coalesce: true,
            bounds: BoundsMode::Implicit,
            vub: VubMode::Implicit,
            pricing_window: DEFAULT_PRICING_WINDOW,
            decompose: DecomposeMode::Auto,
            warm: WarmMode::Off,
            pivot_budget: 0,
            time_budget_ms: 0,
            certify: CertifyMode::IntervalThenExact,
        }
    }
}

impl LpOptions {
    /// Sets the solve backend.
    pub fn backend(mut self, backend: LpBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets super-slot coalescing.
    pub fn coalesce(mut self, coalesce: bool) -> Self {
        self.coalesce = coalesce;
        self
    }

    /// Sets the constant-bound encoding.
    pub fn bounds(mut self, bounds: BoundsMode) -> Self {
        self.bounds = bounds;
        self
    }

    /// Sets the variable-upper-bound encoding.
    pub fn vub(mut self, vub: VubMode) -> Self {
        self.vub = vub;
        self
    }

    /// Sets the partial-pricing window (`0` = full Dantzig sweeps).
    pub fn pricing_window(mut self, window: usize) -> Self {
        self.pricing_window = window;
        self
    }

    /// Sets component sharding.
    pub fn decompose(mut self, decompose: DecomposeMode) -> Self {
        self.decompose = decompose;
        self
    }

    /// Sets warm-started sibling batching.
    pub fn warm(mut self, warm: WarmMode) -> Self {
        self.warm = warm;
        self
    }

    /// Sets the per-attempt pivot budget (`0` = unlimited).
    pub fn pivot_budget(mut self, budget: u64) -> Self {
        self.pivot_budget = budget;
        self
    }

    /// Sets the per-stage wall-time budget in milliseconds (`0` =
    /// unlimited).
    pub fn time_budget_ms(mut self, ms: u64) -> Self {
        self.time_budget_ms = ms;
        self
    }

    /// Sets the certification tier policy of the revised backend.
    pub fn certify(mut self, certify: CertifyMode) -> Self {
        self.certify = certify;
        self
    }

    /// The seed configuration: per-slot model, explicit bound rows, pure
    /// exact simplex, one monolithic LP.
    pub fn seed_exact() -> Self {
        LpOptions::default()
            .backend(LpBackend::Exact)
            .coalesce(false)
            .bounds(BoundsMode::Rows)
            .vub(VubMode::Rows)
            .pricing_window(0)
            .decompose(DecomposeMode::Off)
    }

    /// The PR-1 default: coalesced model, explicit bound rows, dense
    /// float-first hybrid. Kept as the perf baseline the revised solver is
    /// benchmarked against.
    pub fn pr1_hybrid() -> Self {
        LpOptions::default()
            .backend(LpBackend::Hybrid)
            .bounds(BoundsMode::Rows)
            .vub(VubMode::Rows)
            .pricing_window(0)
            .decompose(DecomposeMode::Off)
    }

    /// The PR-2 default: coalesced model, implicit constant bounds, VUBs
    /// still rows, full Dantzig pricing. Kept as the perf baseline the
    /// VUB-aware solver is benchmarked against.
    pub fn pr2_revised_bounds() -> Self {
        LpOptions::default()
            .backend(LpBackend::Revised)
            .bounds(BoundsMode::Implicit)
            .vub(VubMode::Rows)
            .pricing_window(0)
            .decompose(DecomposeMode::Off)
    }

    /// The PR-3 default: the VUB-aware revised simplex on one monolithic
    /// LP (no component sharding). Kept as the perf baseline the
    /// decomposition layer is benchmarked against, and as its differential
    /// oracle.
    pub fn pr3_monolithic() -> Self {
        LpOptions::default().decompose(DecomposeMode::Off)
    }

    /// The warm-batched configuration: the default sharded solve plus
    /// [`WarmMode::Batch`] sibling batching. Cold [`LpOptions::default`]
    /// is its differential oracle and perf baseline (E22).
    pub fn warm_batched() -> Self {
        LpOptions::default().warm(WarmMode::Batch)
    }
}

/// Handles of the process-wide LP solve metrics, resolved once from the
/// unified [`abt_core::obs::metrics`] registry (`lp.*` namespace). The
/// legacy [`lp_telemetry`] facade reads these — the registry is the
/// single source of truth, shared with the `abt trace` / `--metrics`
/// exposition surfaces.
struct LpMetrics {
    /// Hybrid-style LP solves (`Hybrid`/`Revised` backends, plus the
    /// feasibility oracle below).
    solves: &'static Counter,
    /// Solves that needed the exact fallback.
    fallbacks: &'static Counter,
    /// Basis-changing pivot count of the float passes.
    pivots: &'static Counter,
    /// Bound/VUB flip count of the float passes.
    bound_flips: &'static Counter,
    /// LU refactorization count of the float passes.
    refactorizations: &'static Counter,
    /// Exact-certification wall time, nanoseconds.
    certify_nanos: &'static Counter,
    /// Certification wall time spent in the directed-rounding interval
    /// tier, nanoseconds (a subset of `certify_nanos`).
    certify_interval_nanos: &'static Counter,
    /// Certification wall time spent in the exact tier (factor, solves,
    /// primal checks, and any exact dual sweeps), nanoseconds.
    certify_exact_nanos: &'static Counter,
    /// Solves whose dual-feasibility proof was discharged by the
    /// interval tier alone.
    interval_accepts: &'static Counter,
    /// Solves whose interval sweep was inconclusive and escalated to (or
    /// was refused pending) the exact sweep.
    interval_escalations: &'static Counter,
    /// LP1 solves that sharded into >1 component.
    sharded_solves: &'static Counter,
    /// Component sub-LPs solved by sharded solves.
    components: &'static Counter,
    /// High-water gauge of the largest component sub-LP's variable count
    /// (sharded solves only). Open an exact max-over-window region with
    /// [`component_vars_window`].
    max_component_vars: &'static Gauge,
    /// Solves that were *offered* a warm-start snapshot (batched
    /// siblings and incremental re-solves).
    warm_attempts: &'static Counter,
    /// Warm attempts that installed and verified warm.
    warm_hits: &'static Counter,
    /// Pivots saved by warm hits, measured against each hit's cold
    /// reference, floored at zero per solve.
    warm_pivots_saved: &'static Counter,
    /// Failure-driven ladder demotions (see [`crate::supervise`]).
    demotions: &'static Counter,
    /// Solve attempts that tripped a pivot / refactorization / wall-time
    /// budget (each such trip is also a demotion).
    budget_trips: &'static Counter,
    /// Components quarantined after the whole ladder failed.
    quarantined: &'static Counter,
    /// Cached component blocks and basis snapshots restored from a
    /// persisted state directory (warm capital carried across process
    /// restarts by `abt_active::store`).
    persist_restores: &'static Counter,
    /// Completed recovery events: journal-tail replays over a
    /// checkpoint, and corrupt-state detections absorbed into a cold
    /// rebuild. Always ≥ `state_corrupt` on a healthy run — a corruption
    /// without a matching recovery means the absorption path itself
    /// broke, which the perf gate fails on.
    recoveries: &'static Counter,
    /// Persisted-state corruption detections (checksum or version
    /// drift, shape drift, malformed payloads) — each one is rejected
    /// and rebuilt cold, never trusted.
    state_corrupt: &'static Counter,
    /// Solve requests bounced by admission control (the Hall-condition
    /// precheck) before touching the solver.
    admission_rejects: &'static Counter,
    /// Wall-time latency of each supervised/hybrid solve, microseconds
    /// (log-bucket histogram; feeds the per-experiment p50/p90/p99
    /// bench fields and the `--max-p99-ratio` perf gate).
    solve_latency_us: &'static Histogram,
    /// Pivot count of each solve (a *deterministic* distribution — used
    /// by the determinism tests and effort diagnostics).
    pivots_per_solve: &'static Histogram,
}

/// The `lp.*` metric handles (resolved on first use).
fn met() -> &'static LpMetrics {
    static MET: OnceLock<LpMetrics> = OnceLock::new();
    MET.get_or_init(|| LpMetrics {
        solves: obs::metrics::counter("lp.solves"),
        fallbacks: obs::metrics::counter("lp.fallbacks"),
        pivots: obs::metrics::counter("lp.pivots"),
        bound_flips: obs::metrics::counter("lp.bound_flips"),
        refactorizations: obs::metrics::counter("lp.refactorizations"),
        certify_nanos: obs::metrics::counter("lp.certify_nanos"),
        certify_interval_nanos: obs::metrics::counter("lp.certify_interval_nanos"),
        certify_exact_nanos: obs::metrics::counter("lp.certify_exact_nanos"),
        interval_accepts: obs::metrics::counter("lp.interval_accepts"),
        interval_escalations: obs::metrics::counter("lp.interval_escalations"),
        sharded_solves: obs::metrics::counter("lp.sharded_solves"),
        components: obs::metrics::counter("lp.components"),
        max_component_vars: obs::metrics::gauge("lp.max_component_vars"),
        warm_attempts: obs::metrics::counter("lp.warm_attempts"),
        warm_hits: obs::metrics::counter("lp.warm_hits"),
        warm_pivots_saved: obs::metrics::counter("lp.warm_pivots_saved"),
        demotions: obs::metrics::counter("lp.demotions"),
        budget_trips: obs::metrics::counter("lp.budget_trips"),
        quarantined: obs::metrics::counter("lp.quarantined"),
        persist_restores: obs::metrics::counter("lp.persist_restores"),
        recoveries: obs::metrics::counter("lp.recoveries"),
        state_corrupt: obs::metrics::counter("lp.state_corrupt"),
        admission_rejects: obs::metrics::counter("lp.admission_rejects"),
        solve_latency_us: obs::metrics::histogram("lp.solve_latency_us"),
        pivots_per_solve: obs::metrics::histogram("lp.pivots_per_solve"),
    })
}

/// Opens an **exact** max-over-window region over the largest-component
/// high-water gauge: the returned handle's `value()` is the largest
/// component sub-LP variable count recorded while it is alive (0 when no
/// sharded solve ran). This is the precise per-region reading that the
/// snapshot-pair [`LpTelemetry::delta`] cannot provide (see its docs);
/// the experiment harness opens one per experiment row.
pub fn component_vars_window() -> abt_core::obs::metrics::HighWaterWindow {
    met().max_component_vars.window()
}

/// Snapshot of the solve-latency histogram (microseconds per
/// supervised/hybrid solve). Bucket counts are cumulative and monotone:
/// diff two snapshots with [`HistogramSnapshot::delta`] to scope
/// deterministic p50/p90/p99 extraction to a region, as the experiment
/// harness does per row.
pub fn solve_latency_snapshot() -> HistogramSnapshot {
    met().solve_latency_us.snapshot()
}

/// Snapshot of the pivots-per-solve histogram (a deterministic
/// distribution: identical solves produce identical bucket counts).
pub fn pivots_per_solve_snapshot() -> HistogramSnapshot {
    met().pivots_per_solve.snapshot()
}

/// A snapshot of the process-wide LP solve telemetry (see
/// [`lp_telemetry`]). All counters are cumulative and monotone; diff two
/// snapshots with [`LpTelemetry::delta`] to scope them to a region. Every
/// field is maintained with atomic adds (the high-water mark with atomic
/// max), so concurrent solves (e.g. under `parallel_map`) are counted
/// exactly — a delta across a parallel region equals the sum of the
/// per-solve contributions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpTelemetry {
    /// Hybrid-style LP solves (`Hybrid`/`Revised` backends and the
    /// fractional-feasibility oracle). Under [`DecomposeMode::Auto`] each
    /// component sub-LP counts as one solve.
    pub solves: u64,
    /// Solves that needed the exact fallback.
    pub fallbacks: u64,
    /// Basis-changing pivots of the float passes.
    pub pivots: u64,
    /// Bound/VUB flips of the float passes (no basis change).
    pub bound_flips: u64,
    /// LU refactorizations of the float passes (periodic and
    /// VUB-structural).
    pub refactorizations: u64,
    /// Exact-certification wall time, nanoseconds.
    pub certify_nanos: u64,
    /// Certification wall time spent in the directed-rounding interval
    /// tier, nanoseconds (a subset of `certify_nanos`).
    pub certify_interval_nanos: u64,
    /// Certification wall time spent in the exact tier (factor, solves,
    /// primal checks, and any exact dual sweeps), nanoseconds.
    pub certify_exact_nanos: u64,
    /// Solves whose dual-feasibility proof was discharged by the interval
    /// tier alone (no exact reduced-cost sweep ran).
    pub interval_accepts: u64,
    /// Solves whose interval sweep was inconclusive and escalated to the
    /// exact sweep ([`CertifyMode::IntervalThenExact`]) or returned a
    /// refutation for the ladder to absorb ([`CertifyMode::Interval`]).
    pub interval_escalations: u64,
    /// LP1 solves that sharded into more than one component
    /// ([`DecomposeMode::Auto`] with a disconnected interval graph).
    pub sharded_solves: u64,
    /// Component sub-LPs solved by those sharded solves.
    pub components: u64,
    /// High-water mark of the largest component sub-LP's variable count
    /// across sharded solves. **Not** a monotone sum — see
    /// [`LpTelemetry::delta`] for the windowed semantics, and
    /// [`component_vars_window`] for an exact max over an arbitrary
    /// region.
    pub max_component_vars: u64,
    /// Number of strict raises of the `max_component_vars` high water
    /// (monotone). [`LpTelemetry::delta`] uses it to decide whether the
    /// window established a new high water; not meaningful on its own.
    pub max_component_raises: u64,
    /// Solves offered a warm-start snapshot ([`WarmMode::Batch`] siblings
    /// and [`crate::incremental::IncrementalSolver`] re-solves).
    pub warm_attempts: u64,
    /// Warm attempts that installed and certified warm.
    pub warm_hits: u64,
    /// Pivots saved by warm hits versus each hit's cold reference solve
    /// (the group representative / the shape's first cold solve), floored
    /// at zero per solve.
    pub warm_pivots_saved: u64,
    /// Failure-driven supervision-ladder demotions (warm → cold revised →
    /// dense hybrid → dense exact; see [`crate::supervise`]). Zero on
    /// fault-free runs.
    pub demotions: u64,
    /// Solve attempts that tripped a pivot / refactorization / wall-time
    /// budget (a subset of `demotions`).
    pub budget_trips: u64,
    /// Components quarantined after every ladder rung failed. Zero on
    /// fault-free runs.
    pub quarantined: u64,
    /// Cached blocks and basis snapshots restored from a persisted state
    /// directory
    /// ([`crate::incremental::IncrementalSolver::attach_store`]).
    pub persist_restores: u64,
    /// Completed recovery events: journal replays over a checkpoint plus
    /// corrupt-state detections absorbed into cold rebuilds.
    pub recoveries: u64,
    /// Persisted-state corruption detections, each rejected and rebuilt
    /// cold (the reject-don't-trust invariant). Zero unless state files
    /// were actually damaged (or fault-injected).
    pub state_corrupt: u64,
    /// Solve requests bounced by admission control before any LP work.
    pub admission_rejects: u64,
}

impl LpTelemetry {
    /// Componentwise `self − earlier` for the monotone counters.
    ///
    /// `max_component_vars` is a high-water mark, not a sum, and gets
    /// **max-over-window** semantics: when the window raised the
    /// process-wide high water (`max_component_raises` advanced), the
    /// later snapshot's value *is* the exact in-window maximum — the
    /// record that set it happened inside the window — and is reported;
    /// when it did not, the delta reports 0 rather than carrying a stale
    /// process-wide value forward (the historical wart). A window that
    /// sharded only below an earlier high water therefore reads 0 here;
    /// use [`component_vars_window`] when the exact in-window maximum of
    /// such a region matters (the experiment harness does).
    pub fn delta(&self, earlier: &LpTelemetry) -> LpTelemetry {
        LpTelemetry {
            solves: self.solves - earlier.solves,
            fallbacks: self.fallbacks - earlier.fallbacks,
            pivots: self.pivots - earlier.pivots,
            bound_flips: self.bound_flips - earlier.bound_flips,
            refactorizations: self.refactorizations - earlier.refactorizations,
            certify_nanos: self.certify_nanos - earlier.certify_nanos,
            certify_interval_nanos: self.certify_interval_nanos - earlier.certify_interval_nanos,
            certify_exact_nanos: self.certify_exact_nanos - earlier.certify_exact_nanos,
            interval_accepts: self.interval_accepts - earlier.interval_accepts,
            interval_escalations: self.interval_escalations - earlier.interval_escalations,
            sharded_solves: self.sharded_solves - earlier.sharded_solves,
            components: self.components - earlier.components,
            max_component_vars: if self.max_component_raises > earlier.max_component_raises {
                self.max_component_vars
            } else {
                0
            },
            max_component_raises: self.max_component_raises - earlier.max_component_raises,
            warm_attempts: self.warm_attempts - earlier.warm_attempts,
            warm_hits: self.warm_hits - earlier.warm_hits,
            warm_pivots_saved: self.warm_pivots_saved - earlier.warm_pivots_saved,
            demotions: self.demotions - earlier.demotions,
            budget_trips: self.budget_trips - earlier.budget_trips,
            quarantined: self.quarantined - earlier.quarantined,
            persist_restores: self.persist_restores - earlier.persist_restores,
            recoveries: self.recoveries - earlier.recoveries,
            state_corrupt: self.state_corrupt - earlier.state_corrupt,
            admission_rejects: self.admission_rejects - earlier.admission_rejects,
        }
    }
}

/// Snapshot of the cumulative LP telemetry. The experiment harness diffs
/// two snapshots to compute per-experiment fallback rates and iteration
/// counters; CI fails when a non-adversarial workload reports a nonzero
/// fallback rate.
pub fn lp_telemetry() -> LpTelemetry {
    let m = met();
    LpTelemetry {
        solves: m.solves.get(),
        fallbacks: m.fallbacks.get(),
        pivots: m.pivots.get(),
        bound_flips: m.bound_flips.get(),
        refactorizations: m.refactorizations.get(),
        certify_nanos: m.certify_nanos.get(),
        certify_interval_nanos: m.certify_interval_nanos.get(),
        certify_exact_nanos: m.certify_exact_nanos.get(),
        interval_accepts: m.interval_accepts.get(),
        interval_escalations: m.interval_escalations.get(),
        sharded_solves: m.sharded_solves.get(),
        components: m.components.get(),
        max_component_vars: m.max_component_vars.max(),
        max_component_raises: m.max_component_vars.raises(),
        warm_attempts: m.warm_attempts.get(),
        warm_hits: m.warm_hits.get(),
        warm_pivots_saved: m.warm_pivots_saved.get(),
        demotions: m.demotions.get(),
        budget_trips: m.budget_trips.get(),
        quarantined: m.quarantined.get(),
        persist_restores: m.persist_restores.get(),
        recoveries: m.recoveries.get(),
        state_corrupt: m.state_corrupt.get(),
        admission_rejects: m.admission_rejects.get(),
    }
}

/// Records one failure-driven ladder demotion (see [`crate::supervise`],
/// which additionally emits the structured `supervise.demotion` event
/// with the failure and rung context).
pub(crate) fn record_demotion() {
    met().demotions.inc();
}

/// Records one budget trip (pivot / refactorization / wall-time).
pub(crate) fn record_budget_trip() {
    met().budget_trips.inc();
}

/// Records one quarantined component (the whole ladder failed) and emits
/// the `supervise.quarantine` flight-recorder event.
pub(crate) fn record_quarantine() {
    met().quarantined.inc();
    obs::trace::event("supervise.quarantine", Vec::new);
}

/// Records `n` cached blocks / snapshots restored from persisted state.
pub(crate) fn record_persist_restores(n: u64) {
    met().persist_restores.add(n);
    obs::trace::event("persist.restore", || vec![("blocks", n.to_string())]);
}

/// Records one completed recovery event (journal replay or corrupt-state
/// absorption into a cold rebuild).
pub(crate) fn record_recovery() {
    met().recoveries.inc();
    obs::trace::event("persist.recovery", Vec::new);
}

/// Records one persisted-state corruption detection.
pub(crate) fn record_state_corrupt() {
    met().state_corrupt.inc();
    obs::trace::event("persist.corrupt", Vec::new);
}

/// Records one admission-control rejection.
pub(crate) fn record_admission_reject() {
    met().admission_rejects.inc();
    obs::trace::event("admission.reject", Vec::new);
}

/// Records one warm-start attempt into the process-wide telemetry: whether
/// it hit, and (for hits) the pivots saved against `reference_pivots` —
/// the cold pivot count of the solve the snapshot came from. Used by the
/// batch planner below and by [`crate::incremental::IncrementalSolver`].
pub(crate) fn record_warm_attempt(hit: bool, reference_pivots: u64, warm_pivots: u64) {
    let m = met();
    m.warm_attempts.inc();
    if hit {
        m.warm_hits.inc();
        m.warm_pivots_saved
            .add(reference_pivots.saturating_sub(warm_pivots));
    }
}

pub(crate) fn record_solve(rep: &LpReport) {
    let m = met();
    m.solves.inc();
    if rep.fallback {
        m.fallbacks.inc();
    }
    m.pivots.add(rep.stats.pivots);
    m.bound_flips.add(rep.stats.bound_flips);
    m.refactorizations.add(rep.stats.refactorizations);
    m.certify_nanos.add(rep.stats.certify_nanos);
    m.certify_interval_nanos
        .add(rep.stats.certify_interval_nanos);
    m.certify_exact_nanos.add(rep.stats.certify_exact_nanos);
    m.interval_accepts.add(rep.stats.interval_accepts);
    m.interval_escalations.add(rep.stats.interval_escalations);
    m.pivots_per_solve.record(rep.stats.pivots);
}

/// Records one solve's wall-time latency into the `lp.solve_latency_us`
/// histogram (called next to [`record_solve`] by the paths that own the
/// solve's clock).
pub(crate) fn record_solve_latency(elapsed: Duration) {
    met().solve_latency_us.record(elapsed.as_micros() as u64);
}

/// The [`abt_lp::LpOptions`] implied by [`LpOptions`] for the revised
/// backend: pricing window, the solve budgets (`0` means unlimited
/// throughout), and the certify policy.
pub(crate) fn revised_options(opts: &LpOptions) -> abt_lp::LpOptions<'static> {
    abt_lp::LpOptions::new()
        .pricing(BoundedOptions {
            pricing_window: opts.pricing_window,
            pivot_budget: opts.pivot_budget,
            time_budget: (opts.time_budget_ms > 0)
                .then(|| Duration::from_millis(opts.time_budget_ms)),
            ..BoundedOptions::default()
        })
        .certify(opts.certify)
}

pub(crate) fn run_backend(lp: &LpProblem<Rat>, opts: &LpOptions) -> LpSolution<Rat> {
    match opts.backend {
        LpBackend::Exact => solve(lp),
        LpBackend::Hybrid => {
            let started = std::time::Instant::now();
            let rep = solve_lp(
                lp,
                &abt_lp::LpOptions::new()
                    .backend(SolverBackend::DenseHybrid)
                    .certify(opts.certify),
            )
            .expect("the dense hybrid backend never fails");
            record_solve(&rep);
            record_solve_latency(started.elapsed());
            rep.solution
        }
        LpBackend::Revised => match supervised_solve(lp, &revised_options(opts)) {
            Ok(sr) => sr.solution,
            // Callers of this legacy entry point have no error channel,
            // and a failure of the whole ladder (dense exact included) is
            // not a state any of them can recover from.
            Err(f) => {
                record_quarantine();
                panic!("revised solve quarantined with no error channel: {f}")
            }
        },
    }
}

/// An optimal fractional solution of `LP1`.
#[derive(Debug, Clone)]
pub struct ActiveLp {
    /// Horizon slots, ascending; parallel to `y`.
    pub slots: Vec<Time>,
    /// Optimal `y_t` per slot.
    pub y: Vec<Rat>,
    /// Optimal objective `Σ_t y_t` — a lower bound on integral OPT.
    pub objective: Rat,
}

/// A maximal run of horizon slots with identical feasible job sets:
/// the slots `{start+1, …, end}`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotRun {
    /// Exclusive left end.
    pub(crate) start: Time,
    /// Inclusive right end.
    pub(crate) end: Time,
}

impl SlotRun {
    pub(crate) fn width(&self) -> i64 {
        self.end - self.start
    }
}

/// Splits the horizon at every job event point. Each returned run is a
/// maximal group of slots between consecutive event points; every job is
/// either feasible in all of a run's slots or in none of them.
pub(crate) fn slot_runs(inst: &Instance, coalesce: bool) -> Vec<SlotRun> {
    let lo = inst.min_release();
    let hi = inst.max_deadline();
    if !coalesce {
        return (lo..hi)
            .map(|t| SlotRun {
                start: t,
                end: t + 1,
            })
            .collect();
    }
    let mut cuts: Vec<Time> = Vec::with_capacity(2 * inst.len() + 2);
    cuts.push(lo);
    cuts.push(hi);
    for j in inst.jobs() {
        cuts.push(j.release.clamp(lo, hi));
        cuts.push(j.deadline.clamp(lo, hi));
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2)
        .map(|w| SlotRun {
            start: w[0],
            end: w[1],
        })
        .collect()
}

/// A connected component of the job-window interval graph, as a contiguous
/// range of slot runs plus the jobs whose windows lie inside it.
#[derive(Debug, Clone)]
pub(crate) struct Component {
    /// First run index (inclusive).
    pub(crate) run_lo: usize,
    /// One past the last run index (exclusive).
    pub(crate) run_hi: usize,
    /// Member jobs, ascending.
    pub(crate) jobs: Vec<usize>,
}

/// Splits the instance into connected components of the job-window
/// interval graph over `runs`. Under [`DecomposeMode::Off`] the whole
/// instance is one component (covering even job-free runs, so the
/// monolithic LP is reproduced bit for bit). Under [`DecomposeMode::Auto`]
/// each component is a maximal contiguous run range linked by overlapping
/// job windows — a job's window covers a *contiguous* range of runs, so a
/// single sort-and-merge sweep over those ranges finds the components.
/// Runs no job can use are left out entirely: their `Y` is 0 in any
/// optimum and never reaches a solver.
pub(crate) fn components(inst: &Instance, runs: &[SlotRun], mode: DecomposeMode) -> Vec<Component> {
    if mode == DecomposeMode::Off {
        return vec![Component {
            run_lo: 0,
            run_hi: runs.len(),
            jobs: (0..inst.len()).collect(),
        }];
    }
    // Per job: the contiguous run range inside its window. Runs never
    // straddle an event point, so the endpoints decide membership.
    let mut spans: Vec<(usize, usize, usize)> = (0..inst.len())
        .map(|j| {
            let job = inst.job(j);
            let lo = runs.partition_point(|run| run.start < job.release);
            let hi = runs.partition_point(|run| run.end <= job.deadline);
            debug_assert!(lo < hi, "every job window covers at least one run");
            (lo, hi, j)
        })
        .collect();
    spans.sort_unstable();
    let mut out: Vec<Component> = Vec::new();
    for (lo, hi, j) in spans {
        match out.last_mut() {
            Some(c) if lo < c.run_hi => {
                c.run_hi = c.run_hi.max(hi);
                c.jobs.push(j);
            }
            _ => out.push(Component {
                run_lo: lo,
                run_hi: hi,
                jobs: vec![j],
            }),
        }
    }
    for c in &mut out {
        c.jobs.sort_unstable();
    }
    out
}

/// One component's solved block: per-run `Y` over `[run_lo, run_hi)` plus
/// the exact objective contribution.
struct ComponentSolution {
    run_lo: usize,
    y_runs: Vec<Rat>,
    objective: Rat,
}

/// Builds one component's LP1 block. Variable layout: the `Y` variables
/// come first (ids `0..n_runs`, one per run of the component's range),
/// then the `x_{I,j}` variables per member job in `comp.jobs` order. The
/// construction mirrors the monolithic model exactly, so the all-covering
/// component of [`DecomposeMode::Off`] reproduces the pre-sharding LP bit
/// for bit.
pub(crate) fn build_component_lp(
    inst: &Instance,
    opts: &LpOptions,
    runs: &[SlotRun],
    comp: &Component,
) -> LpProblem<Rat> {
    let crange = &runs[comp.run_lo..comp.run_hi];
    let mut lp: LpProblem<Rat> = LpProblem::new();
    // Y variables: total open mass per run, bounded by the run width — as
    // an implicit variable bound or as an explicit row per `opts.bounds`.
    let y_vars: Vec<usize> = crange
        .iter()
        .map(|run| {
            let v = lp.add_var(Rat::ONE);
            match opts.bounds {
                BoundsMode::Implicit => lp.set_upper(v, Rat::from_int(run.width())),
                BoundsMode::Rows => lp.bound_var(v, Rat::from_int(run.width())),
            }
            v
        })
        .collect();
    // x variables, only where the whole run lies inside the job's window.
    // (local ri, var) per member job; runs never straddle a window
    // boundary, so a job is feasible in a run iff it is feasible in the
    // run's first slot.
    let mut x_vars: Vec<Vec<(usize, usize)>> = vec![Vec::new(); comp.jobs.len()];
    for (cj, &j) in comp.jobs.iter().enumerate() {
        let job = inst.job(j);
        for (ri, run) in crange.iter().enumerate() {
            if job.release <= run.start && run.end <= job.deadline {
                let v = lp.add_var(Rat::ZERO);
                x_vars[cj].push((ri, v));
            }
        }
    }
    // x_{I,j} ≤ Y_I: a variable-vs-variable cap — a VUB family membership
    // under the default encoding, an explicit row under the oracle one.
    for row in &x_vars {
        for &(ri, v) in row {
            match opts.vub {
                VubMode::Implicit => lp.set_vub(v, y_vars[ri]),
                VubMode::Rows => lp.add_constraint(
                    vec![(v, Rat::ONE), (y_vars[ri], Rat::from_int(-1))],
                    Cmp::Le,
                    Rat::ZERO,
                ),
            }
        }
    }
    // Σ_j x_{I,j} ≤ g·Y_I.
    let g = Rat::from_int(inst.g() as i64);
    let mut per_run: Vec<Vec<(usize, Rat)>> = vec![Vec::new(); crange.len()];
    for row in &x_vars {
        for &(ri, v) in row {
            per_run[ri].push((v, Rat::ONE));
        }
    }
    for (ri, mut terms) in per_run.into_iter().enumerate() {
        if terms.is_empty() {
            continue;
        }
        terms.push((y_vars[ri], g.neg()));
        lp.add_constraint(terms, Cmp::Le, Rat::ZERO);
    }
    // Σ_I x_{I,j} ≥ p_j.
    for (cj, row) in x_vars.iter().enumerate() {
        let terms: Vec<(usize, Rat)> = row.iter().map(|&(_, v)| (v, Rat::ONE)).collect();
        lp.add_constraint(
            terms,
            Cmp::Ge,
            Rat::from_int(inst.job(comp.jobs[cj]).length),
        );
    }
    lp
}

/// Converts a solved component LP into its [`ComponentSolution`] block
/// (the `Y` values are the first `n_runs` variables by construction).
fn finish_component(
    comp: &Component,
    n_runs: usize,
    sol: LpSolution<Rat>,
) -> Result<ComponentSolution> {
    match sol.status {
        LpStatus::Optimal => Ok(ComponentSolution {
            run_lo: comp.run_lo,
            y_runs: sol.x[..n_runs].to_vec(),
            objective: sol.objective,
        }),
        LpStatus::Infeasible => Err(Error::Infeasible(
            "LP1 infeasible: no schedule exists".into(),
        )),
        LpStatus::Unbounded => unreachable!("LP1 objective is bounded below by 0"),
    }
}

/// One supervised component outcome: the outer `Err` is a quarantine
/// (every ladder rung failed — see [`crate::supervise`]), the inner `Err`
/// a model-level verdict (LP1 infeasibility) that aborts the whole solve.
type ComponentOutcome = std::result::Result<Result<ComponentSolution>, SolveFailure>;

/// Builds and solves one component's LP1 block with the configured
/// backend (the cold path). Revised-backend solves run through the
/// supervision ladder; the other backends keep their legacy direct path
/// (panics there are still isolated by the [`supervised_map`] fan-out).
fn solve_component(
    inst: &Instance,
    opts: &LpOptions,
    runs: &[SlotRun],
    comp: &Component,
    sharded: bool,
) -> ComponentOutcome {
    let lp = build_component_lp(inst, opts, runs, comp);
    if sharded {
        met().max_component_vars.record_max(lp.num_vars() as u64);
    }
    let sol = match opts.backend {
        LpBackend::Revised => supervised_solve(&lp, &revised_options(opts))?.solution,
        _ => run_backend(&lp, opts),
    };
    Ok(finish_component(comp, comp.run_hi - comp.run_lo, sol))
}

/// A component's structural signature: run count plus, per member job (in
/// `comp.jobs` order), the relative run range its window covers. Two
/// components with equal signatures (under the same [`LpOptions`] and the
/// same instance-wide `g`) build LPs with **identical standard-form
/// structure** — same variable layout, same row sparsity pattern, same
/// VUB families — differing only in data (run widths, job lengths), which
/// is exactly what a [`BasisSnapshot`] can bridge.
pub(crate) type ComponentSignature = (usize, Vec<(usize, usize)>);

/// Computes the [`ComponentSignature`] of `comp` over `runs`.
pub(crate) fn component_signature(
    inst: &Instance,
    runs: &[SlotRun],
    comp: &Component,
) -> ComponentSignature {
    let crange = &runs[comp.run_lo..comp.run_hi];
    let spans = comp
        .jobs
        .iter()
        .map(|&j| {
            let job = inst.job(j);
            let lo = crange.partition_point(|run| run.start < job.release);
            let hi = crange.partition_point(|run| run.end <= job.deadline);
            (lo, hi)
        })
        .collect();
    (crange.len(), spans)
}

/// Per-signature snapshot pool cap of the batch planner (and of the
/// incremental solver's shape cache): small enough that a miss sweep
/// stays cheap, large enough to cover the handful of distinct optimal
/// vertices a family's siblings land on.
pub(crate) const SNAPSHOT_POOL_CAP: usize = 8;

/// Sibling wave sizes of the batch planner: the first wave per group is
/// [`FIRST_WAVE`] members, doubling up to [`MAX_WAVE`]. Waves trade a
/// little wall-clock batching latency for a growing snapshot pool: every
/// sibling in wave `k` sees the snapshots contributed by waves `< k`
/// (cold-resolved misses included), which lifts the hit rate far above
/// what the lone representative snapshot achieves — and starting small
/// fills the pool after only a handful of solves, so the bulk of the
/// group already sees a diverse candidate set. Pool growth is
/// deterministic — contributions are appended in sibling order, so pivot
/// counts are exactly reproducible run to run.
const FIRST_WAVE: usize = 4;
/// Cap on the doubling wave size (see [`FIRST_WAVE`]).
const MAX_WAVE: usize = 32;

/// The batch planner ([`WarmMode::Batch`]): groups components by
/// [`ComponentSignature`], solves one representative per group cold, and
/// warm-starts the siblings from a per-group snapshot pool seeded by the
/// representative and grown by every subsequent cold-resolved miss.
/// Returns the component solutions in `comps` order. Exactness is
/// untouched: warm or cold, every answer is certified in rationals.
fn solve_components_batched(
    inst: &Instance,
    opts: &LpOptions,
    runs: &[SlotRun],
    comps: &[Component],
) -> Vec<ComponentOutcome> {
    let ropts = revised_options(opts);
    let mut groups: BTreeMap<ComponentSignature, Vec<usize>> = BTreeMap::new();
    for (ci, comp) in comps.iter().enumerate() {
        groups
            .entry(component_signature(inst, runs, comp))
            .or_default()
            .push(ci);
    }
    let group_members: Vec<Vec<usize>> = groups.into_values().collect();
    // Phase A — representatives (the first member of each group) solve
    // cold, in parallel across groups, each under the supervision ladder.
    let rep_ids: Vec<usize> = group_members.iter().map(|g| g[0]).collect();
    type RepOutcome = (Result<ComponentSolution>, Option<BasisSnapshot>, u64);
    let rep_outs: Vec<std::result::Result<RepOutcome, SolveFailure>> =
        supervised_map(rep_ids, |ci| {
            let comp = &comps[ci];
            let lp = build_component_lp(inst, opts, runs, comp);
            met().max_component_vars.record_max(lp.num_vars() as u64);
            let sr = supervised_solve(&lp, &ropts)?;
            let pivots = sr.stats.pivots;
            Ok((
                finish_component(comp, comp.run_hi - comp.run_lo, sr.solution),
                sr.snapshot,
                pivots,
            ))
        });
    let mut out: Vec<Option<ComponentOutcome>> = (0..comps.len()).map(|_| None).collect();
    // Phase B — siblings, in parallel waves per group. Waves across groups
    // run in one fan-out so small groups don't serialize the sweep. A
    // quarantined representative leaves its group's pool empty — the
    // siblings still solve (cold, supervised), only the warm seeding is
    // lost.
    let mut pools: Vec<(Vec<BasisSnapshot>, u64)> = Vec::with_capacity(group_members.len());
    for (members, rep) in group_members.iter().zip(rep_outs) {
        let mut pool = Vec::new();
        let mut pivots = 0;
        out[members[0]] = Some(match rep {
            Ok((sol, snap, rep_pivots)) => {
                pool.extend(snap);
                pivots = rep_pivots;
                Ok(sol)
            }
            Err(f) => Err(f),
        });
        pools.push((pool, pivots));
    }
    let mut offset = 1usize; // member index within each group
    let mut wave_len = FIRST_WAVE;
    loop {
        // One wave: up to `wave_len` further members of every group.
        let mut batch: Vec<(usize, usize)> = Vec::new(); // (comp idx, group idx)
        for (gi, members) in group_members.iter().enumerate() {
            for &ci in members.iter().skip(offset).take(wave_len) {
                batch.push((ci, gi));
            }
        }
        if batch.is_empty() {
            break;
        }
        let pools_ref = &pools;
        // Per sibling: its solved block and — for misses — the snapshot it
        // contributes to the pool.
        type SiblingOutcome = (Result<ComponentSolution>, Option<BasisSnapshot>);
        let wave_outs: Vec<std::result::Result<SiblingOutcome, SolveFailure>> =
            supervised_map(batch.clone(), |(ci, gi)| {
                let comp = &comps[ci];
                let lp = build_component_lp(inst, opts, runs, comp);
                met().max_component_vars.record_max(lp.num_vars() as u64);
                let (pool, rep_pivots) = &pools_ref[gi];
                let sr = supervised_solve(&lp, &ropts.snapshots(pool))?;
                // An empty pool (e.g. the representative fell back to the
                // dense exact solver) means the sibling was never *offered*
                // a snapshot — don't count a phantom attempt.
                if !pool.is_empty() {
                    record_warm_attempt(sr.warm_hit, *rep_pivots, sr.stats.pivots);
                }
                let contribute = if sr.warm_hit { None } else { sr.snapshot };
                Ok((
                    finish_component(comp, comp.run_hi - comp.run_lo, sr.solution),
                    contribute,
                ))
            });
        for ((ci, gi), res) in batch.into_iter().zip(wave_outs) {
            out[ci] = Some(match res {
                Ok((sol, contribute)) => {
                    if let Some(s) = contribute {
                        let pool = &mut pools[gi].0;
                        if pool.len() < SNAPSHOT_POOL_CAP {
                            pool.push(s);
                        }
                    }
                    Ok(sol)
                }
                Err(f) => Err(f),
            });
        }
        offset += wave_len;
        wave_len = (wave_len * 2).min(MAX_WAVE);
    }
    out.into_iter()
        .map(|s| s.expect("every component solved"))
        .collect()
}

/// Builds and solves `LP1` for `inst` with the default options
/// (coalesced super-slots, implicit bounds, bounded revised backend,
/// component sharding).
pub fn solve_active_lp(inst: &Instance) -> Result<ActiveLp> {
    solve_active_lp_with(inst, &LpOptions::default())
}

/// Builds and solves `LP1` for `inst` under explicit [`LpOptions`]. Every
/// configuration returns the same exact objective; `y` may differ between
/// alternate LP optima.
///
/// Under [`DecomposeMode::Auto`] a disconnected instance is sharded into
/// per-component sub-LPs fanned through [`abt_core::supervised_map`]; the
/// blocks share no variables or rows, so the stitched objective — an
/// exact rational sum — equals the monolithic optimum bit for bit.
///
/// This is the legacy, [`Error`]-typed surface: a quarantined partial
/// result (possible only under fault injection or solve budgets) is
/// flattened into [`Error::Quarantined`]. Callers that keep serving the
/// healthy components use [`try_solve_active_lp_with`].
pub fn solve_active_lp_with(inst: &Instance, opts: &LpOptions) -> Result<ActiveLp> {
    try_solve_active_lp_with(inst, opts).map_err(Error::from)
}

/// The fallible-solve surface of [`solve_active_lp_with`]: identical
/// behaviour and results, but a sharded solve whose supervision ladder
/// quarantined some components returns [`SolveError::Partial`] carrying
/// the exact objectives of every healthy component instead of discarding
/// them.
pub fn try_solve_active_lp_with(
    inst: &Instance,
    opts: &LpOptions,
) -> std::result::Result<ActiveLp, SolveError> {
    let (slots, runs, comps) = {
        let mut span = abt_core::obs_span!("solve.decompose");
        let slots = horizon_slots(inst);
        let runs = slot_runs(inst, opts.coalesce);
        debug_assert_eq!(
            runs.iter().map(SlotRun::width).sum::<i64>(),
            slots.len() as i64
        );
        let comps = components(inst, &runs, opts.decompose);
        span.field("runs", runs.len());
        span.field("components", comps.len());
        (slots, runs, comps)
    };
    let sharded = comps.len() > 1;
    if sharded {
        met().sharded_solves.inc();
        met().components.add(comps.len() as u64);
    }
    // Warm batching applies to sharded solves on the revised backend; the
    // other backends have no warm entry point and solve cold.
    let batch = sharded && opts.warm == WarmMode::Batch && opts.backend == LpBackend::Revised;
    let solved: Vec<ComponentOutcome> = if batch {
        solve_components_batched(inst, opts, &runs, &comps)
    } else if sharded {
        // The outer `supervised_map` additionally isolates panics raised
        // *outside* the ladder (e.g. while building the component LP).
        supervised_map((0..comps.len()).collect::<Vec<_>>(), |ci| {
            solve_component(inst, opts, &runs, &comps[ci], true)
        })
    } else {
        comps
            .iter()
            .map(|comp| solve_component(inst, opts, &runs, comp, false))
            .collect()
    };
    // Stitch: per-run Y values land back on their global run index (runs
    // outside every component keep Y = 0), objectives sum exactly;
    // quarantined components are collected into the partial result.
    let _stitch = abt_core::obs_span!("solve.stitch");
    let mut y_runs = vec![Rat::ZERO; runs.len()];
    let mut objective = Rat::ZERO;
    let mut healthy: Vec<(usize, Rat)> = Vec::new();
    let mut quarantined: Vec<QuarantinedComponent> = Vec::new();
    for (ci, res) in solved.into_iter().enumerate() {
        match res {
            Ok(Ok(cs)) => {
                for (k, val) in cs.y_runs.iter().enumerate() {
                    y_runs[cs.run_lo + k] = *val;
                }
                objective = objective.add(&cs.objective);
                healthy.push((ci, cs.objective));
            }
            Ok(Err(e)) => return Err(SolveError::Model(e)),
            Err(f) => {
                record_quarantine();
                quarantined.push(QuarantinedComponent {
                    jobs: comps[ci].jobs.clone(),
                    failure: f,
                });
            }
        }
    }
    if !quarantined.is_empty() {
        return Err(SolveError::Partial(PartialSolve {
            healthy_objective: objective,
            healthy,
            quarantined,
        }));
    }
    let y = disaggregate(&runs, &y_runs);
    debug_assert_eq!(y.len(), slots.len());
    Ok(ActiveLp {
        slots,
        y,
        objective,
    })
}

/// Uniform exact disaggregation of per-run `Y` mass back to per-slot `y`
/// (`y_t = Y_I / w_I` on every slot of run `I`).
pub(crate) fn disaggregate(runs: &[SlotRun], y_runs: &[Rat]) -> Vec<Rat> {
    let total: i64 = runs.iter().map(SlotRun::width).sum();
    let mut y: Vec<Rat> = Vec::with_capacity(total as usize);
    for (ri, run) in runs.iter().enumerate() {
        let share = y_runs[ri].div(&Rat::from_int(run.width()));
        for _ in 0..run.width() {
            y.push(share);
        }
    }
    y
}

/// Checks whether a *fractional* assignment exists for all jobs given fixed
/// slot openings `y` (the feasibility system `LP2` of §3.1). Used to
/// validate the right-shifting lemma in tests. Solved with the bounded
/// revised backend — the `x ≤ y_t` caps are constant here (the `y` are
/// fixed), so they become implicit bounds and the model has no bound rows
/// at all.
pub fn fractional_feasible(inst: &Instance, slots: &[Time], y: &[Rat]) -> bool {
    assert_eq!(slots.len(), y.len());
    let mut lp: LpProblem<Rat> = LpProblem::new();
    let mut x_vars: Vec<Vec<(usize, usize)>> = vec![Vec::new(); inst.len()];
    for j in 0..inst.len() {
        for (si, &t) in slots.iter().enumerate() {
            if job_feasible_in_slot(inst, j, t) && y[si].signum() > 0 {
                let v = lp.add_var(Rat::ZERO);
                x_vars[j].push((si, v));
                lp.set_upper(v, y[si]); // x ≤ y, implicitly
            }
        }
    }
    let g = Rat::from_int(inst.g() as i64);
    for (si, yt) in y.iter().enumerate() {
        let terms: Vec<(usize, Rat)> = x_vars
            .iter()
            .flat_map(|row| {
                row.iter()
                    .filter(|&&(s, _)| s == si)
                    .map(|&(_, v)| (v, Rat::ONE))
            })
            .collect();
        if !terms.is_empty() {
            lp.add_constraint(terms, Cmp::Le, g.mul(yt));
        }
    }
    for (j, row) in x_vars.iter().enumerate() {
        let terms: Vec<(usize, Rat)> = row.iter().map(|&(_, v)| (v, Rat::ONE)).collect();
        lp.add_constraint(terms, Cmp::Ge, Rat::from_int(inst.job(j).length));
    }
    let sr = supervised_solve(&lp, &abt_lp::LpOptions::new())
        .unwrap_or_else(|f| panic!("feasibility oracle quarantined: {f}"));
    matches!(sr.solution.status, LpStatus::Optimal)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A grid over backends × bound encodings × VUB encodings ×
    /// decomposition × warm batching (plus both model shapes).
    fn all_options() -> [LpOptions; 12] {
        [
            LpOptions::seed_exact(),
            LpOptions {
                backend: LpBackend::Exact,
                coalesce: true,
                bounds: BoundsMode::Implicit,
                ..LpOptions::default()
            },
            LpOptions {
                backend: LpBackend::Hybrid,
                coalesce: false,
                bounds: BoundsMode::Implicit,
                vub: VubMode::Rows,
                ..LpOptions::default()
            },
            LpOptions::pr1_hybrid(),
            LpOptions {
                backend: LpBackend::Revised,
                coalesce: true,
                bounds: BoundsMode::Rows,
                vub: VubMode::Rows,
                ..LpOptions::default()
            },
            LpOptions::pr2_revised_bounds(),
            LpOptions::pr3_monolithic(),
            LpOptions {
                // VUB families over explicit bound rows.
                backend: LpBackend::Revised,
                coalesce: true,
                bounds: BoundsMode::Rows,
                vub: VubMode::Implicit,
                ..LpOptions::default()
            },
            LpOptions {
                // The default model under full Dantzig pricing.
                pricing_window: 0,
                ..LpOptions::default()
            },
            LpOptions {
                // Sharding on the per-slot (uncoalesced) model.
                coalesce: false,
                ..LpOptions::default()
            },
            LpOptions::warm_batched(),
            LpOptions::default(),
        ]
    }

    #[test]
    fn lp_lower_bounds_integral_opt() {
        let inst = Instance::from_triples([(0, 4, 2), (1, 3, 2)], 2).unwrap();
        let lp = solve_active_lp(&inst).unwrap();
        // Integral OPT is 2; LP must be ≤ 2 and ≥ P/g = 2.
        assert_eq!(lp.objective, Rat::from_int(2));
    }

    #[test]
    fn lp_detects_infeasible() {
        let inst = Instance::from_triples([(0, 1, 1), (0, 1, 1)], 1).unwrap();
        assert!(matches!(solve_active_lp(&inst), Err(Error::Infeasible(_))));
        for opts in all_options() {
            assert!(matches!(
                solve_active_lp_with(&inst, &opts),
                Err(Error::Infeasible(_))
            ));
        }
    }

    #[test]
    fn integrality_gap_instance_g2() {
        // §3.5 with g = 2: two pairs of adjacent slots, each with g+1 = 3
        // exclusive jobs. LP optimum = g + 1 = 3; integral OPT = 2g = 4.
        let g = 2usize;
        let mut triples = Vec::new();
        for pair in 0..g as i64 {
            let a = 2 * pair; // slots (a, a+2] = {a+1, a+2}
            for _ in 0..=g {
                triples.push((a, a + 2, 1i64));
            }
        }
        let inst = Instance::from_triples(triples, g).unwrap();
        let lp = solve_active_lp(&inst).unwrap();
        assert_eq!(lp.objective, Rat::from_int(g as i64 + 1));
    }

    #[test]
    fn y_respects_bounds() {
        let inst = Instance::from_triples([(0, 3, 2), (0, 3, 1)], 1).unwrap();
        let lp = solve_active_lp(&inst).unwrap();
        for v in &lp.y {
            assert!(v.signum() >= 0 && *v <= Rat::ONE);
        }
        assert_eq!(lp.objective, Rat::from_int(3));
    }

    #[test]
    fn all_configurations_agree_on_objective() {
        // The tentpole invariant: coalescing, the bound encoding, and the
        // backend change the model size and the pivot arithmetic, never
        // the exact optimum.
        let cases = [
            Instance::from_triples([(0, 4, 2), (1, 3, 2)], 2).unwrap(),
            Instance::from_triples([(0, 3, 1), (1, 4, 2), (2, 6, 3)], 2).unwrap(),
            Instance::from_triples([(0, 10, 4)], 1).unwrap(),
            Instance::from_triples([(0, 6, 2), (3, 8, 4), (0, 2, 2), (4, 12, 3)], 3).unwrap(),
            Instance::from_triples([(0, 20, 3), (5, 25, 4), (10, 30, 2)], 2).unwrap(),
        ];
        for inst in &cases {
            let reference = solve_active_lp_with(inst, &LpOptions::seed_exact())
                .unwrap()
                .objective;
            for opts in all_options() {
                let lp = solve_active_lp_with(inst, &opts).unwrap();
                assert_eq!(lp.objective, reference, "{opts:?} on {inst:?}");
                // Disaggregated y stays within the per-slot bounds and sums
                // exactly to the objective.
                let mut sum = Rat::ZERO;
                for v in &lp.y {
                    assert!(v.signum() >= 0 && *v <= Rat::ONE, "{opts:?}");
                    sum = sum.add(v);
                }
                assert_eq!(sum, reference, "{opts:?}");
            }
        }
    }

    #[test]
    fn degenerate_zero_slack_and_single_run_instances_agree() {
        // Satellite coverage: (a) all-zero window slack — every x is
        // forced, most LP rows are tight; (b) a single super-slot — all
        // jobs share one window, so the coalesced model has exactly one
        // run and the bound `Y ≤ w` is the only capacity on it.
        let zero_slack =
            Instance::from_triples([(0, 3, 3), (1, 4, 3), (2, 5, 3), (0, 2, 2)], 3).unwrap();
        let single_run =
            Instance::from_triples([(0, 8, 5), (0, 8, 3), (0, 8, 4), (0, 8, 2)], 2).unwrap();
        assert_eq!(slot_runs(&single_run, true).len(), 1);
        for inst in [&zero_slack, &single_run] {
            let reference = solve_active_lp_with(inst, &LpOptions::seed_exact())
                .unwrap()
                .objective;
            for opts in all_options() {
                let lp = solve_active_lp_with(inst, &opts).unwrap();
                assert_eq!(lp.objective, reference, "{opts:?} on {inst:?}");
            }
        }
    }

    #[test]
    fn coalescing_shrinks_long_gaps() {
        // Two short jobs separated by a huge idle stretch: the coalesced
        // model must stay tiny while the per-slot horizon is 10 000 slots.
        let inst = Instance::from_triples([(0, 3, 2), (9_997, 10_000, 2)], 1).unwrap();
        let runs = slot_runs(&inst, true);
        assert!(runs.len() <= 4, "got {} runs", runs.len());
        let lp = solve_active_lp(&inst).unwrap();
        assert_eq!(lp.objective, Rat::from_int(4));
        assert_eq!(lp.slots.len(), 10_000);
    }

    #[test]
    fn telemetry_counts_solves() {
        let before = lp_telemetry();
        let inst = Instance::from_triples([(0, 4, 2), (1, 3, 2)], 2).unwrap();
        solve_active_lp(&inst).unwrap();
        let after = lp_telemetry();
        let d = after.delta(&before);
        assert!(d.solves >= 1);
        assert!(after.fallbacks <= after.solves);
        // The revised backend did *some* work and certified it exactly.
        assert!(d.pivots + d.bound_flips >= 1);
        assert!(d.certify_nanos >= 1);
    }

    #[test]
    fn telemetry_is_accurate_under_concurrent_solves() {
        // Fire k independent LP1 solves from k threads and check the
        // atomic counters account for every one of them. Other tests may
        // solve concurrently in the same process, so the delta is a lower
        // bound, never an exact count.
        let k = 8u64;
        let instances: Vec<Instance> = (0..k as i64)
            .map(|i| Instance::from_triples([(0, 4 + i, 2), (1, 3 + i, 2)], 2).unwrap())
            .collect();
        let before = lp_telemetry();
        let objectives: Vec<Rat> = std::thread::scope(|s| {
            let handles: Vec<_> = instances
                .iter()
                .map(|inst| s.spawn(move || solve_active_lp(inst).unwrap().objective))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let d = lp_telemetry().delta(&before);
        assert_eq!(objectives.len(), k as usize);
        assert!(
            d.solves >= k,
            "expected ≥ {k} solves recorded, got {}",
            d.solves
        );
        assert!(d.pivots + d.bound_flips >= k, "every solve iterates");
        // Sequential re-solve of the same instances must agree exactly
        // with the concurrent results (no shared-state interference).
        for (inst, obj) in instances.iter().zip(&objectives) {
            assert_eq!(solve_active_lp(inst).unwrap().objective, *obj);
        }
    }

    /// The Auto-vs-Off differential pair for one instance: identical exact
    /// objectives and a valid disaggregated `y` on both sides.
    fn assert_auto_matches_off(inst: &Instance) -> (Rat, Rat) {
        let auto = solve_active_lp_with(inst, &LpOptions::default()).unwrap();
        let off = solve_active_lp_with(inst, &LpOptions::pr3_monolithic()).unwrap();
        assert_eq!(auto.objective, off.objective);
        for lp in [&auto, &off] {
            let mut sum = Rat::ZERO;
            for v in &lp.y {
                assert!(v.signum() >= 0 && *v <= Rat::ONE);
                sum = sum.add(v);
            }
            assert_eq!(sum, lp.objective);
        }
        (auto.objective, off.objective)
    }

    #[test]
    fn empty_instance_solves_to_zero_under_both_decompose_modes() {
        let inst = Instance::new(vec![], 3).unwrap();
        for opts in [LpOptions::default(), LpOptions::pr3_monolithic()] {
            let lp = solve_active_lp_with(&inst, &opts).unwrap();
            assert_eq!(lp.objective, Rat::ZERO);
            assert!(lp.y.is_empty());
            assert!(lp.slots.is_empty());
        }
        let runs = slot_runs(&inst, true);
        assert!(components(&inst, &runs, DecomposeMode::Auto).is_empty());
    }

    #[test]
    fn disconnected_instance_shards_and_matches_the_monolith() {
        // Three well-separated clusters; windows never overlap across the
        // gaps, so the interval graph has exactly three components.
        let inst = Instance::from_triples(
            [
                (0, 4, 2),
                (1, 3, 2),
                (100, 104, 3),
                (101, 105, 2),
                (200, 203, 1),
            ],
            2,
        )
        .unwrap();
        let runs = slot_runs(&inst, true);
        let comps = components(&inst, &runs, DecomposeMode::Auto);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].jobs, vec![0, 1]);
        assert_eq!(comps[1].jobs, vec![2, 3]);
        assert_eq!(comps[2].jobs, vec![4]);
        let before = lp_telemetry();
        // The registered window sees the exact in-window high-water mark
        // even when a concurrent test has already pushed the cumulative
        // gauge higher (the delta would then be 0 by design).
        let window = component_vars_window();
        assert_auto_matches_off(&inst);
        let d = lp_telemetry().delta(&before);
        assert!(d.sharded_solves >= 1, "the Auto solve must shard");
        assert!(d.components >= 3, "three component sub-LPs must be solved");
        assert!(window.value() >= 1);
        // Gap runs stay closed: every slot in (4, 100] has y = 0.
        let auto = solve_active_lp(&inst).unwrap();
        for (slot, y) in auto.slots.iter().zip(&auto.y) {
            if *slot > 4 && *slot <= 100 {
                assert_eq!(*y, Rat::ZERO, "slot {slot} lies in the gap");
            }
        }
    }

    #[test]
    fn all_singleton_components_match_the_monolith() {
        // Every job is alone in its window: n singleton components.
        let triples: Vec<(i64, i64, i64)> = (0..12).map(|i| (10 * i, 10 * i + 3, 2)).collect();
        let inst = Instance::from_triples(triples, 2).unwrap();
        let runs = slot_runs(&inst, true);
        let comps = components(&inst, &runs, DecomposeMode::Auto);
        assert_eq!(comps.len(), 12);
        assert!(comps.iter().all(|c| c.jobs.len() == 1));
        let (auto_obj, _) = assert_auto_matches_off(&inst);
        assert_eq!(auto_obj, Rat::from_int(24));
    }

    #[test]
    fn connected_instance_is_never_sharded() {
        // A chain of overlapping windows: one component, so Auto takes the
        // monolithic path. (No exact-zero telemetry assertions here: the
        // sharding counters are process-global atomics, and sibling tests
        // solve sharded instances concurrently under the default parallel
        // test harness — the disconnected test's `≥` checks cover the
        // counters.)
        let inst =
            Instance::from_triples([(0, 4, 2), (2, 8, 3), (6, 12, 2), (10, 14, 2)], 2).unwrap();
        let runs = slot_runs(&inst, true);
        assert_eq!(components(&inst, &runs, DecomposeMode::Auto).len(), 1);
        assert_auto_matches_off(&inst);
    }

    #[test]
    fn touching_windows_are_separate_components() {
        // d_1 = r_2: the windows share an event point but no slot, so the
        // jobs share no LP variable and must split.
        let inst = Instance::from_triples([(0, 3, 2), (3, 6, 2)], 1).unwrap();
        let runs = slot_runs(&inst, true);
        assert_eq!(components(&inst, &runs, DecomposeMode::Auto).len(), 2);
        assert_auto_matches_off(&inst);
    }

    #[test]
    fn off_mode_reproduces_the_monolithic_component() {
        // Off always yields the single all-covering component, even on a
        // shardable instance.
        let inst = Instance::from_triples([(0, 3, 1), (50, 53, 1)], 1).unwrap();
        let runs = slot_runs(&inst, true);
        let comps = components(&inst, &runs, DecomposeMode::Off);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].run_lo, 0);
        assert_eq!(comps[0].run_hi, runs.len());
        assert_eq!(comps[0].jobs, vec![0, 1]);
    }

    #[test]
    fn warm_batched_matches_cold_and_records_telemetry() {
        // Six identically-shaped singleton stripes with distinct lengths:
        // the batch planner groups them into one signature group, solves
        // the first cold, and warm-starts the other five.
        let triples: Vec<(i64, i64, i64)> =
            (0..6).map(|k| (10 * k, 10 * k + 6, 1 + k % 4)).collect();
        let inst = Instance::from_triples(triples, 2).unwrap();
        let before = lp_telemetry();
        let warm = solve_active_lp_with(&inst, &LpOptions::warm_batched()).unwrap();
        let d = lp_telemetry().delta(&before);
        let cold = solve_active_lp_with(&inst, &LpOptions::default()).unwrap();
        assert_eq!(warm.objective, cold.objective, "warm ≡ cold, bit for bit");
        assert_eq!(warm.y.len(), cold.y.len());
        assert!(
            d.warm_attempts >= 5,
            "five siblings attempted, got {}",
            d.warm_attempts
        );
        assert!(d.warm_hits >= 1, "identically-shaped siblings must hit");
        assert!(d.warm_hits <= d.warm_attempts);
    }

    #[test]
    fn warm_batched_on_connected_instance_is_plain_monolithic() {
        // One component: batching never engages (nothing to group), and
        // the answer matches the default path exactly. (No exact-zero
        // telemetry assertions: the counters are process-global atomics
        // and sibling tests solve sharded instances concurrently.)
        let inst = Instance::from_triples([(0, 4, 2), (2, 8, 3), (6, 12, 2)], 2).unwrap();
        let warm = solve_active_lp_with(&inst, &LpOptions::warm_batched()).unwrap();
        let cold = solve_active_lp_with(&inst, &LpOptions::default()).unwrap();
        assert_eq!(warm.objective, cold.objective);
    }

    #[test]
    fn component_signatures_group_structural_twins() {
        // Two stripes with the same window layout but different lengths
        // share a signature; a third with a different layout does not.
        let inst = Instance::from_triples(
            [(0, 6, 2), (1, 5, 1), (20, 26, 4), (21, 25, 2), (40, 43, 1)],
            2,
        )
        .unwrap();
        let runs = slot_runs(&inst, true);
        let comps = components(&inst, &runs, DecomposeMode::Auto);
        assert_eq!(comps.len(), 3);
        let sigs: Vec<_> = comps
            .iter()
            .map(|c| component_signature(&inst, &runs, c))
            .collect();
        assert_eq!(sigs[0], sigs[1], "structural twins share a signature");
        assert_ne!(sigs[0], sigs[2]);
    }

    #[test]
    fn starved_pivot_budget_demotes_but_answers_exactly() {
        // A one-pivot budget starves the cold revised rung on any
        // non-trivial component; the ladder must demote to the dense tiers
        // and still return the bit-identical exact objective, recording
        // the trip. (Lower-bound assertions only: counters are
        // process-global and other tests solve concurrently.)
        let inst = Instance::from_triples([(0, 6, 3), (1, 5, 2), (2, 6, 3)], 2).unwrap();
        let reference = solve_active_lp_with(&inst, &LpOptions::default()).unwrap();
        let starved = LpOptions {
            pivot_budget: 1,
            ..LpOptions::default()
        };
        let before = lp_telemetry();
        let lp = solve_active_lp_with(&inst, &starved).unwrap();
        let d = lp_telemetry().delta(&before);
        assert_eq!(lp.objective, reference.objective);
        assert!(d.budget_trips >= 1, "the 1-pivot budget must trip");
        assert!(d.demotions >= 1, "the trip must demote down the ladder");
    }

    #[test]
    fn fractional_feasibility_oracle() {
        let inst = Instance::from_triples([(0, 2, 1), (0, 2, 1)], 1).unwrap();
        let slots = vec![1, 2];
        assert!(fractional_feasible(&inst, &slots, &[Rat::ONE, Rat::ONE]));
        assert!(!fractional_feasible(
            &inst,
            &slots,
            &[Rat::ONE, Rat::new(1, 2)]
        ));
        // Fractional sharing: y = (1, 1/2) supports total mass 1.5 with g=2...
        let inst2 = inst.with_g(2).unwrap();
        assert!(fractional_feasible(
            &inst2,
            &slots,
            &[Rat::ONE, Rat::new(1, 2)]
        ));
    }
}
