//! The natural LP relaxation `LP1` of the active-time IP (§3), solved over
//! coalesced slot runs with implicit variable bounds, implicit VUB families
//! for the `x ≤ Y` caps, and the VUB-aware bounded revised simplex under
//! the supervision ladder.
//!
//! # The per-slot formulation
//!
//! Variables: `y_t ∈ [0, 1]` per horizon slot (is slot `t` open?) and
//! `x_{t,j} ≥ 0` per job and window slot (units of `j` in `t`).
//! Constraints: `x_{t,j} ≤ y_t`, `Σ_j x_{t,j} ≤ g·y_t`, `Σ_t x_{t,j} ≥ p_j`.
//! Objective: minimize `Σ_t y_t`. Size: `O(T·n)` variables and rows for a
//! horizon of `T` slots. This model is never built here; the differential
//! tests (`tests/proptest_hybrid_lp.rs`) write it out row by row as the
//! oracle the coalesced model must match.
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
//! The reported [`ActiveLp`] is per run as well: its open runs, each
//! with its exact mass `Y_I > 0`, and nothing per slot, so its size and
//! the time to build it follow the event points, not the horizon. The
//! §3.1 right-shifting sums run masses per deadline segment;
//! [`ActiveLp::slot_values`] writes out the uniform disaggregation over a
//! slot list for the per-slot consumers (LP2 checks, tests).
//!
//! # Bound encodings
//!
//! The capacity caps `Y_I ≤ w_I` are *constant* upper bounds: they ride on
//! the variables themselves (`LpProblem::set_upper`) and never become
//! rows — the bounded-variable simplex handles them in its pivoting rules.
//!
//! The `x_{I,j} ≤ Y_I` caps bound one *variable by another* — a **variable
//! upper bound** (VUB). They are the last `O(n²)` block of LP1: one row
//! per (job, interval) pair while every other row class is `O(n)`. Under
//! [`VubMode::Implicit`] (the default) each cap is registered as a VUB
//! family membership (`LpProblem::set_vub`) that the revised simplex
//! handles inside its pivoting rules — dependents rest *glued* to their
//! `Y_I` key and basic keys carry Schrage-style augmented key columns —
//! shrinking the working basis from `O(n²)` to `O(n)` rows.
//! [`VubMode::Rows`] keeps the explicit `x − Y ≤ 0` rows: the baseline
//! encoding of [`LpOptions::pr2_revised_bounds`] that the headline
//! speedup is measured against, and a differential oracle.
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
//! Each component solve allocates its work vectors once and reuses them on
//! every pivot (see [`abt_lp::bounds`]), so a worker thread solving a
//! stream of small component LPs allocates per solve, not per pivot.
//!
//! # Crash start
//!
//! A cold solve from the all-slack basis spends most of its pivots in
//! phase 1, searching for *a* feasible point of LP1 — yet with every slot
//! open, LP1 is the all-open case of the `G_feas` feasibility test (Fig.
//! 2), and a greedy finds such a point combinatorially. Under
//! [`VubMode::Implicit`] every component block therefore carries a crash
//! start ([`abt_lp::StartBasis`], built beside the block by
//! `build_component_lp`): used runs open at `Y_I = w_I`, jobs placed by
//! an earliest-deadline greedy, each job short of its length left to its
//! artificial. The cold rung factors it in place of the all-slack basis
//! and runs phase 1 only while an artificial is positive; a covered start
//! goes straight to phase 2. Every LP1 call site — the sharded and
//! monolithic solves and the incremental driver's dirty components
//! ([`crate::incremental`]) — gets it; [`VubMode::Rows`] keeps the
//! all-slack start. The start moves pivots, never answers: the terminal
//! basis is certified exactly like any other.
//!
//! # Solving
//!
//! Every component LP is built and solved in one place, `solve_block`,
//! shared with the incremental driver: down the supervision ladder
//! ([`crate::supervise`]), a bounded revised simplex in `f64`, from the
//! block's crash start, whose terminal basis is re-verified in exact
//! rationals (and, if that fails, re-solved by a dense rung), so the `y`
//! values and objective remain *exact* — the rounding algorithm's case
//! analysis (`⌊Y_i⌋`, comparisons against ½) stays noise-free.
//! [`LpOptions`] tunes that one path: encoding, pricing, sharding and
//! budgets.
//!
//! Every solve feeds the process-wide telemetry ([`lp_telemetry`]):
//! fallbacks plus the pivot / bound-flip / refactorization /
//! exact-certify counters, the sharding counters (sharded solves,
//! components solved), and one observation per solve in the latency,
//! pivot and variable-count histograms. The experiment harness records
//! them per experiment and CI fails when a non-adversarial workload ever
//! needs the dense exact rung.

#![allow(clippy::needless_range_loop)] // job indices are shared across parallel vectors

use crate::supervise::{supervised_solve, PartialSolve, QuarantinedComponent, SolveError};
use abt_core::active_schedule::{horizon_len, job_feasible_in_slot};
use abt_core::obs::{
    self,
    metrics::{Counter, Histogram, HistogramSnapshot},
};
use abt_core::{supervised_map, Error, Instance, Result, SolveFailure, Time};
use abt_lp::{
    BoundedOptions, Cmp, LpProblem, LpReport, LpStatus, Rat, RowStart, StartBasis, VarState,
};
use std::sync::OnceLock;
use std::time::Duration;

/// How the `x_{I,j} ≤ Y_I` variable upper bounds enter the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VubMode {
    /// Explicit `x − Y ≤ 0` rows (the baseline encoding and a
    /// differential oracle).
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

/// Model/solver configuration for [`solve_active_lp_with`].
#[derive(Debug, Clone, Copy)]
pub struct LpOptions {
    /// Variable-upper-bound encoding. Default: [`VubMode::Implicit`].
    pub vub: VubMode,
    /// Interval-graph component sharding. Default: [`DecomposeMode::Auto`].
    pub decompose: DecomposeMode,
    /// The revised backend's partial-pricing window and its budgets per
    /// solve attempt (`0` / `None` = unlimited, the default). A tripped
    /// budget surfaces as a typed `BudgetExceeded` failure and demotes the
    /// solve down the supervision ladder instead of spinning; the time
    /// budget restarts for each stage (the float pass and the exact
    /// certifier).
    pub pricing: BoundedOptions,
}

impl Default for LpOptions {
    fn default() -> Self {
        LpOptions {
            vub: VubMode::Implicit,
            decompose: DecomposeMode::Auto,
            pricing: BoundedOptions::default(),
        }
    }
}

impl LpOptions {
    /// Sets the variable-upper-bound encoding.
    pub fn vub(mut self, vub: VubMode) -> Self {
        self.vub = vub;
        self
    }

    /// Sets the partial-pricing window (`0` = full Dantzig sweeps).
    pub fn pricing_window(mut self, window: usize) -> Self {
        self.pricing.pricing_window = window;
        self
    }

    /// Sets component sharding.
    pub fn decompose(mut self, decompose: DecomposeMode) -> Self {
        self.decompose = decompose;
        self
    }

    /// Sets the per-attempt pivot budget (`0` = unlimited).
    pub fn pivot_budget(mut self, budget: u64) -> Self {
        self.pricing.pivot_budget = budget;
        self
    }

    /// The PR-2 default: coalesced model, implicit constant bounds, VUBs
    /// still rows, full Dantzig pricing. Kept as the perf baseline the
    /// VUB-aware solver is benchmarked against.
    pub fn pr2_revised_bounds() -> Self {
        LpOptions::default()
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
}

/// Declares the `lp.*` registry counters once. From one list of
/// `field: "lp.name"` entries it writes the private handle struct
/// `LpMetrics`, their registration in `met()`, the public
/// [`LpTelemetry`] fields, [`LpTelemetry::delta`] and [`lp_telemetry`].
/// The three per-solve histograms and the always-zero
/// `warm_pivots_saved` are written out by hand.
macro_rules! lp_counters {
    ($($(#[$doc:meta])* $field:ident: $name:literal,)*) => {
        /// Handles of the process-wide LP solve metrics, resolved once from
        /// the unified [`abt_core::obs::metrics`] registry (`lp.*`
        /// namespace). The [`lp_telemetry`] facade reads these — the
        /// registry is the single source of truth, shared with the
        /// `abt trace` / `--metrics` exposition surfaces.
        struct LpMetrics {
            $($field: &'static Counter,)*
            /// Wall-time latency of each supervised/hybrid solve,
            /// microseconds (log-bucket histogram; feeds the per-experiment
            /// p50/p90/p99 bench columns and the perf gate's p99 rule).
            solve_latency_us: &'static Histogram,
            /// Pivot count of each solve (a *deterministic* distribution —
            /// used by the determinism tests and effort diagnostics).
            pivots_per_solve: &'static Histogram,
            /// Variable count of each solve's LP (a component sub-LP under
            /// sharding; deterministic like `pivots_per_solve`).
            vars_per_solve: &'static Histogram,
        }

        /// The `lp.*` metric handles (resolved on first use).
        fn met() -> &'static LpMetrics {
            static MET: OnceLock<LpMetrics> = OnceLock::new();
            MET.get_or_init(|| LpMetrics {
                $($field: obs::metrics::counter($name),)*
                solve_latency_us: obs::metrics::histogram("lp.solve_latency_us"),
                pivots_per_solve: obs::metrics::histogram("lp.pivots_per_solve"),
                vars_per_solve: obs::metrics::histogram("lp.vars_per_solve"),
            })
        }

        /// A snapshot of the process-wide LP solve telemetry (see
        /// [`lp_telemetry`]). All counters are cumulative and monotone; diff
        /// two snapshots with [`LpTelemetry::delta`] to scope them to a
        /// region. Every field is maintained with atomic adds, so
        /// concurrent solves (e.g. under `parallel_map`) are counted
        /// exactly — a delta across a parallel region equals the sum of
        /// the per-solve contributions.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct LpTelemetry {
            $($(#[$doc])* pub $field: u64,)*
            /// Always 0: LP1 solves have no warm starts. Kept only because
            /// the benchmark harness (`perfbench/src/trace.rs`) reads it.
            pub warm_pivots_saved: u64,
        }

        impl LpTelemetry {
            /// Componentwise `self − earlier`.
            pub fn delta(&self, earlier: &LpTelemetry) -> LpTelemetry {
                LpTelemetry {
                    $($field: self.$field - earlier.$field,)*
                    ..LpTelemetry::default()
                }
            }
        }

        /// Snapshot of the cumulative LP telemetry. Callers diff two
        /// snapshots to scope the counters to a region (the CLI's
        /// supervision line, the benchmark's per-op split).
        pub fn lp_telemetry() -> LpTelemetry {
            let m = met();
            LpTelemetry {
                $($field: m.$field.get(),)*
                ..LpTelemetry::default()
            }
        }
    };
}

lp_counters! {
    /// Supervised LP solves: one per component sub-LP (so under
    /// [`DecomposeMode::Auto`] a sharded solve counts once per component),
    /// plus one per fractional-feasibility oracle call.
    solves: "lp.solves",
    /// Solves answered by the ladder's last rung, the dense exact simplex
    /// ([`abt_lp::LpReport::fallback`]): every float rung refused, as on
    /// an infeasible LP or after faults.
    fallbacks: "lp.fallbacks",
    /// Basis-changing pivots of the float passes.
    pivots: "lp.pivots",
    /// The pivots of the float passes' phase 1 (a subset of `pivots`):
    /// the search for a feasible basis that the crash start leaves over.
    phase1_pivots: "lp.phase1_pivots",
    /// Bound/VUB flips of the float passes (no basis change).
    bound_flips: "lp.bound_flips",
    /// LU refactorizations of the float passes (each when an eta file
    /// grew too long or too dense).
    refactorizations: "lp.refactorizations",
    /// Exact-certification wall time, nanoseconds.
    certify_nanos: "lp.certify_nanos",
    /// Certifications that proved every reduced-cost sign in integers
    /// over the duals' common denominator (see `abt-lp`'s `simplex`
    /// module). The name predates that sweep: it counted the accepts of
    /// an interval tier, and the benchmark harness and the perf gate's
    /// accept-rate rule read it.
    interval_accepts: "lp.interval_accepts",
    /// Certifications whose reduced-cost sweep evaluated some VUB family
    /// in `Rat` (fractional or large data, or an `i128` overflow). Zero
    /// on integral LP1 data. The name predates that sweep: it counted the
    /// escalations of an interval tier.
    interval_escalations: "lp.interval_escalations",
    /// Certifications whose exact basic values and duals came from the
    /// exact LU factor rather than from the float pass's own values,
    /// proven exact (the dense hybrid rung always; the revised rung on
    /// fractional data or values it cannot prove). Zero on integral
    /// LP1 solves.
    certify_lu: "lp.certify_lu",
    /// LP1 solves that sharded into more than one component
    /// ([`DecomposeMode::Auto`] with a disconnected interval graph).
    sharded_solves: "lp.sharded_solves",
    /// Component sub-LPs solved by those sharded solves.
    components: "lp.components",
    /// Failure-driven supervision-ladder demotions (cold revised → dense
    /// hybrid → dense exact; see [`crate::supervise`]). Zero on
    /// fault-free runs.
    demotions: "lp.demotions",
    /// Solve attempts that tripped a pivot / refactorization / wall-time
    /// budget (a subset of `demotions`).
    budget_trips: "lp.budget_trips",
    /// Components quarantined after every ladder rung failed. Zero on
    /// fault-free runs.
    quarantined: "lp.quarantined",
    /// Cached blocks restored from a persisted state directory
    /// ([`crate::incremental::IncrementalSolver::attach_store`]).
    persist_restores: "lp.persist_restores",
    /// Completed recovery events: journal replays over a checkpoint plus
    /// corrupt-state detections absorbed into cold rebuilds.
    recoveries: "lp.recoveries",
    /// Persisted-state corruption detections, each rejected and rebuilt
    /// cold (the reject-don't-trust invariant). Zero unless state files
    /// were actually damaged (or fault-injected).
    state_corrupt: "lp.state_corrupt",
    /// Solve requests bounced by admission control before any LP work.
    admission_rejects: "lp.admission_rejects",
}

/// Snapshot of the pivots-per-solve histogram (a deterministic
/// distribution: identical solves produce identical bucket counts).
pub fn pivots_per_solve_snapshot() -> HistogramSnapshot {
    met().pivots_per_solve.snapshot()
}

/// Snapshot of the `lp.vars_per_solve` histogram: the variable count of
/// each solve's LP, deterministic like [`pivots_per_solve_snapshot`].
pub fn vars_per_solve_snapshot() -> HistogramSnapshot {
    met().vars_per_solve.snapshot()
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

/// Records `n` cached blocks restored from persisted state.
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

/// Records one certified solve of an LP with `vars` variables: its
/// counters, and one observation in the pivot and variable histograms.
pub(crate) fn record_solve(rep: &LpReport, vars: usize) {
    let m = met();
    m.solves.inc();
    if rep.fallback {
        m.fallbacks.inc();
    }
    m.pivots.add(rep.stats.pivots);
    m.phase1_pivots.add(rep.stats.phase1_pivots);
    m.bound_flips.add(rep.stats.bound_flips);
    m.refactorizations.add(rep.stats.refactorizations);
    m.certify_nanos.add(rep.stats.certify_nanos);
    m.interval_accepts.add(rep.stats.interval_accepts);
    m.interval_escalations.add(rep.stats.interval_escalations);
    m.certify_lu.add(rep.stats.certify_lu);
    m.pivots_per_solve.record(rep.stats.pivots);
    m.vars_per_solve.record(vars as u64);
}

/// Records one solve's wall-time latency into the `lp.solve_latency_us`
/// histogram (called next to [`record_solve`] by the paths that own the
/// solve's clock).
pub(crate) fn record_solve_latency(elapsed: Duration) {
    met().solve_latency_us.record(elapsed.as_micros() as u64);
}

/// One open run of an LP1 answer: the slots `(start, end]`, each open to
/// `y_t = mass / (end − start)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenRun {
    /// Exclusive left end.
    pub start: Time,
    /// Inclusive right end.
    pub end: Time,
    /// The run's exact open mass `Y_I`, with `0 < Y_I ≤ end − start`.
    pub mass: Rat,
}

impl OpenRun {
    /// Slots in the run.
    pub fn width(&self) -> i64 {
        self.end - self.start
    }
}

/// An optimal fractional solution of `LP1`, as the runs it opens.
#[derive(Debug, Clone)]
pub struct ActiveLp {
    /// The open runs, ascending and disjoint, each a run between
    /// consecutive event points; every slot outside them has `y_t = 0`.
    pub runs: Vec<OpenRun>,
    /// Optimal objective `Σ_t y_t = Σ_I Y_I` — a lower bound on integral
    /// OPT.
    pub objective: Rat,
}

impl ActiveLp {
    /// Slots with `y_t > 0`: the open runs' total width.
    pub fn open_slots(&self) -> i64 {
        self.runs.iter().map(OpenRun::width).sum()
    }

    /// The uniform disaggregation onto `slots` (ascending): `y_t = Y_I /
    /// w_I` on a slot of open run `I`, 0 on every other slot.
    pub fn slot_values(&self, slots: &[Time]) -> Vec<Rat> {
        let mut runs = self.runs.iter().peekable();
        slots
            .iter()
            .map(|&t| {
                while runs.next_if(|run| run.end < t).is_some() {}
                match runs.peek() {
                    Some(run) if run.start < t => run.mass.div(&Rat::from_int(run.width())),
                    _ => Rat::ZERO,
                }
            })
            .collect()
    }
}

/// Appends to `out` each run of `runs` whose mass in `y_runs` (one per
/// run, in order) is positive.
pub(crate) fn push_open_runs(
    out: &mut Vec<OpenRun>,
    runs: impl IntoIterator<Item = SlotRun>,
    y_runs: &[Rat],
) {
    for (run, &mass) in runs.into_iter().zip(y_runs) {
        if mass.signum() > 0 {
            out.push(OpenRun {
                start: run.start,
                end: run.end,
                mass,
            });
        }
    }
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
pub(crate) fn slot_runs(inst: &Instance) -> Vec<SlotRun> {
    let lo = inst.min_release();
    let hi = inst.max_deadline();
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

/// One component's solved LP1 block: the exact `Y` of each of its runs,
/// in time order, and its exact objective.
#[derive(Clone)]
pub(crate) struct LpBlock {
    pub(crate) y_runs: Vec<Rat>,
    pub(crate) objective: Rat,
}

/// One component's LP1 block and the basis its cold solve starts from.
pub(crate) struct ComponentLp {
    pub(crate) lp: LpProblem<Rat>,
    /// The crash start of [`crash_start`]; `None` under [`VubMode::Rows`],
    /// which keeps the all-slack start.
    pub(crate) start: Option<StartBasis>,
}

/// Builds one component's LP1 block and its crash start. Variable layout:
/// the `Y` variables come first (ids `0..n_runs`, one per run of the
/// component's range), then the `x_{I,j}` variables per member job in
/// `comp.jobs` order. The construction mirrors the monolithic model
/// exactly, so the all-covering component of [`DecomposeMode::Off`]
/// reproduces the pre-sharding LP bit for bit.
pub(crate) fn build_component_lp(
    inst: &Instance,
    opts: &LpOptions,
    runs: &[SlotRun],
    comp: &Component,
) -> ComponentLp {
    let crange = &runs[comp.run_lo..comp.run_hi];
    let mut lp: LpProblem<Rat> = LpProblem::new();
    // Y variables: total open mass per run, implicitly bounded by the run
    // width.
    let y_vars: Vec<usize> = crange
        .iter()
        .map(|run| {
            let v = lp.add_var(Rat::ONE);
            lp.set_upper(v, Rat::from_int(run.width()));
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
    let mut cap_rows: Vec<Option<usize>> = vec![None; crange.len()];
    for (ri, mut terms) in per_run.into_iter().enumerate() {
        if terms.is_empty() {
            continue;
        }
        terms.push((y_vars[ri], g.neg()));
        cap_rows[ri] = Some(lp.num_constraints());
        lp.add_constraint(terms, Cmp::Le, Rat::ZERO);
    }
    // Σ_I x_{I,j} ≥ p_j.
    let first_job_row = lp.num_constraints();
    for (cj, row) in x_vars.iter().enumerate() {
        let terms: Vec<(usize, Rat)> = row.iter().map(|&(_, v)| (v, Rat::ONE)).collect();
        lp.add_constraint(
            terms,
            Cmp::Ge,
            Rat::from_int(inst.job(comp.jobs[cj]).length),
        );
    }
    let start = (opts.vub == VubMode::Implicit).then(|| {
        let mut start = StartBasis {
            vars: vec![VarState::AtLower; lp.num_vars()],
            rows: vec![RowStart::Slack; lp.num_constraints()],
        };
        crash_start(
            inst,
            comp,
            crange,
            &x_vars,
            &cap_rows,
            first_job_row,
            &mut start,
        );
        start
    });
    ComponentLp { lp, start }
}

/// Fills `start` with LP1's crash start: every slot of the component open
/// (the all-open case of the `G_feas` test, Fig. 2) and the jobs placed
/// greedily, so that phase 1 has nothing or little left to do.
///
/// Jobs in (deadline, release) order fill their runs left to right, each
/// step taking `min(need, w_I, room)`: a full `w_I` glues `x_{I,j}` to
/// `Y_I`; a remainder below `w_I` that fits is one basic `x` in the job's
/// row, which finishes the job; otherwise the run is saturated by a basic
/// `x` in its capacity row in place of the slack. Every run that received
/// work rests its `Y_I` at `w_I`; a job covered exactly keeps its surplus
/// basic at 0, and a job the greedy leaves short its artificial at the
/// residual. A capacity row is saturated at most once and a job's row
/// owns at most its one remainder, and each such edge points to a row
/// filled later, so the basic columns form trees with exactly one
/// slack/surplus/artificial root each: the basis is triangular up to
/// permutation, and every basic value lies within its bounds and VUBs.
fn crash_start(
    inst: &Instance,
    comp: &Component,
    crange: &[SlotRun],
    x_vars: &[Vec<(usize, usize)>],
    cap_rows: &[Option<usize>],
    first_job_row: usize,
    start: &mut StartBasis,
) {
    let g = inst.g() as i128;
    let full: Vec<i128> = crange.iter().map(|run| g * run.width() as i128).collect();
    let mut room = full.clone();
    let mut order: Vec<usize> = (0..comp.jobs.len()).collect();
    order.sort_by_key(|&cj| {
        let job = inst.job(comp.jobs[cj]);
        (job.deadline, job.release)
    });
    for cj in order {
        let mut need = inst.job(comp.jobs[cj]).length as i128;
        for &(ri, v) in &x_vars[cj] {
            if need == 0 {
                break;
            }
            let w = crange[ri].width() as i128;
            let r = room[ri];
            if need >= w && r >= w {
                start.vars[v] = VarState::AtVub;
                room[ri] -= w;
                need -= w;
            } else if need < w && r >= need {
                start.vars[v] = VarState::Basic;
                start.rows[first_job_row + cj] = RowStart::Var(v);
                room[ri] -= need;
                need = 0;
            } else if r > 0 {
                let cap = cap_rows[ri].expect("a run with x variables has a capacity row");
                start.vars[v] = VarState::Basic;
                start.rows[cap] = RowStart::Var(v);
                room[ri] = 0;
                need -= r;
            }
        }
        if need > 0 {
            start.rows[first_job_row + cj] = RowStart::Artificial;
        }
    }
    // `Y_I` of local run `ri` is variable `ri`.
    for ri in 0..crange.len() {
        if room[ri] < full[ri] {
            start.vars[ri] = VarState::AtUpper;
        }
    }
}

/// Builds one component's LP1 block and solves it cold down the
/// supervision ladder, from the block's crash start: the block, or LP1's
/// [`Error::Infeasible`] (a model-level verdict that aborts the whole
/// solve) inside `Ok`, or the [`SolveFailure`] that quarantines the
/// component (every rung failed — see [`crate::supervise`]).
pub(crate) fn solve_block(
    inst: &Instance,
    opts: &LpOptions,
    runs: &[SlotRun],
    comp: &Component,
) -> std::result::Result<Result<LpBlock>, SolveFailure> {
    let clp = build_component_lp(inst, opts, runs, comp);
    let sol = supervised_solve(&clp.lp, &opts.pricing, clp.start.as_ref())?.solution;
    Ok(match sol.status {
        // The `Y` values are the first variables by construction.
        LpStatus::Optimal => Ok(LpBlock {
            y_runs: sol.x[..comp.run_hi - comp.run_lo].to_vec(),
            objective: sol.objective,
        }),
        LpStatus::Infeasible => Err(Error::Infeasible(
            "LP1 infeasible: no schedule exists".into(),
        )),
        LpStatus::Unbounded => unreachable!("LP1 objective is bounded below by 0"),
    })
}

/// Builds and solves `LP1` for `inst` with the default options
/// (coalesced super-slots, implicit bounds, bounded revised backend,
/// component sharding).
pub fn solve_active_lp(inst: &Instance) -> Result<ActiveLp> {
    solve_active_lp_with(inst, &LpOptions::default())
}

/// Builds and solves `LP1` for `inst` under explicit [`LpOptions`]. Every
/// configuration returns the same exact objective; the runs may differ between
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
    let (runs, comps) = {
        let mut span = abt_core::obs_span!("solve.decompose");
        // Run widths are differences of event points: the horizon's
        // length must fit `i64`.
        let len =
            horizon_len(inst.min_release(), inst.max_deadline()).map_err(SolveError::Model)?;
        let runs = slot_runs(inst);
        debug_assert_eq!(runs.iter().map(SlotRun::width).sum::<i64>(), len);
        let comps = components(inst, &runs, opts.decompose);
        span.field("runs", runs.len());
        span.field("components", comps.len());
        (runs, comps)
    };
    let sharded = comps.len() > 1;
    if sharded {
        met().sharded_solves.inc();
        met().components.add(comps.len() as u64);
    }
    let solved: Vec<_> = if sharded {
        // The outer `supervised_map` additionally isolates panics raised
        // *outside* the ladder (e.g. while building the component LP).
        supervised_map((0..comps.len()).collect::<Vec<_>>(), |ci| {
            solve_block(inst, opts, &runs, &comps[ci])
        })
    } else {
        comps
            .iter()
            .map(|comp| solve_block(inst, opts, &runs, comp))
            .collect()
    };
    // Stitch: each component's open runs, in time order (runs outside
    // every component stay closed), objectives sum exactly; quarantined
    // components are collected into the partial result.
    let _stitch = abt_core::obs_span!("solve.stitch");
    let mut open: Vec<OpenRun> = Vec::new();
    let mut objective = Rat::ZERO;
    let mut healthy: Vec<(usize, Rat)> = Vec::new();
    let mut quarantined: Vec<QuarantinedComponent> = Vec::new();
    for (ci, res) in solved.into_iter().enumerate() {
        match res {
            Ok(Ok(block)) => {
                let from = runs[comps[ci].run_lo..].iter().copied();
                push_open_runs(&mut open, from, &block.y_runs);
                objective = objective.add(&block.objective);
                healthy.push((ci, block.objective));
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
    Ok(ActiveLp {
        runs: open,
        objective,
    })
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
    let sr = supervised_solve(&lp, &BoundedOptions::default(), None)
        .unwrap_or_else(|f| panic!("feasibility oracle quarantined: {f}"));
    matches!(sr.solution.status, LpStatus::Optimal)
}

#[cfg(test)]
pub(crate) mod crash;

#[cfg(test)]
mod tests {
    use super::*;

    /// A grid over VUB encodings × decomposition, plus full Dantzig
    /// pricing and a one-pivot budget that hands every component to the
    /// ladder's dense rungs.
    fn all_options() -> Vec<LpOptions> {
        let mut v = Vec::new();
        for vub in [VubMode::Rows, VubMode::Implicit] {
            for decompose in [DecomposeMode::Off, DecomposeMode::Auto] {
                v.push(LpOptions {
                    vub,
                    decompose,
                    ..LpOptions::default()
                });
            }
        }
        v.push(LpOptions::default().pricing_window(0));
        v.push(LpOptions::default().pivot_budget(1));
        v
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
        assert_runs_are_valid(&lp);
        for v in lp.slot_values(&[1, 2, 3]) {
            assert!(v.signum() >= 0 && v <= Rat::ONE);
        }
        assert_eq!(lp.objective, Rat::from_int(3));
    }

    #[test]
    fn coalescing_shrinks_long_gaps() {
        // Two short jobs separated by a huge idle stretch: the coalesced
        // model must stay tiny while the per-slot horizon is 10 000 slots.
        let inst = Instance::from_triples([(0, 3, 2), (9_997, 10_000, 2)], 1).unwrap();
        let runs = slot_runs(&inst);
        assert!(runs.len() <= 4, "got {} runs", runs.len());
        // Jobs sharing one window coalesce into a single super-slot.
        let single_run =
            Instance::from_triples([(0, 8, 5), (0, 8, 3), (0, 8, 4), (0, 8, 2)], 2).unwrap();
        assert_eq!(slot_runs(&single_run).len(), 1);
        let lp = solve_active_lp(&inst).unwrap();
        assert_eq!(lp.objective, Rat::from_int(4));
        // The answer is two runs, not 10 000 slots.
        assert_eq!(lp.runs.len(), 2);
        assert_eq!(lp.open_slots(), 6);
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

    /// Ascending, disjoint runs with `0 < Y ≤ width` whose masses sum to
    /// the objective.
    fn assert_runs_are_valid(lp: &ActiveLp) {
        let mut sum = Rat::ZERO;
        let mut at = Time::MIN;
        for run in &lp.runs {
            assert!(at <= run.start && run.start < run.end, "{:?}", lp.runs);
            assert!(run.mass.signum() > 0 && run.mass <= Rat::from_int(run.width()));
            sum = sum.add(&run.mass);
            at = run.end;
        }
        assert_eq!(sum, lp.objective);
    }

    /// The Auto-vs-Off differential pair for one instance: identical exact
    /// objectives and valid runs on both sides.
    fn assert_auto_matches_off(inst: &Instance) -> (Rat, Rat) {
        let auto = solve_active_lp_with(inst, &LpOptions::default()).unwrap();
        let off = solve_active_lp_with(inst, &LpOptions::pr3_monolithic()).unwrap();
        assert_eq!(auto.objective, off.objective);
        assert_runs_are_valid(&auto);
        assert_runs_are_valid(&off);
        (auto.objective, off.objective)
    }

    #[test]
    fn empty_instance_solves_to_zero_under_both_decompose_modes() {
        let inst = Instance::new(vec![], 3).unwrap();
        for opts in [LpOptions::default(), LpOptions::pr3_monolithic()] {
            let lp = solve_active_lp_with(&inst, &opts).unwrap();
            assert_eq!(lp.objective, Rat::ZERO);
            assert!(lp.runs.is_empty());
        }
        let runs = slot_runs(&inst);
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
        let runs = slot_runs(&inst);
        let comps = components(&inst, &runs, DecomposeMode::Auto);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].jobs, vec![0, 1]);
        assert_eq!(comps[1].jobs, vec![2, 3]);
        assert_eq!(comps[2].jobs, vec![4]);
        let before = lp_telemetry();
        let vars_before = vars_per_solve_snapshot();
        assert_auto_matches_off(&inst);
        let d = lp_telemetry().delta(&before);
        assert!(d.sharded_solves >= 1, "the Auto solve must shard");
        assert!(d.components >= 3, "three component sub-LPs must be solved");
        let vars = vars_per_solve_snapshot().delta(&vars_before);
        assert!(vars.count() >= 4, "every solve records its variables");
        assert!(vars.percentile(1.0) >= 1);
        // Gap runs stay closed: no open run meets (4, 100].
        let auto = solve_active_lp(&inst).unwrap();
        for run in &auto.runs {
            assert!(run.end <= 4 || run.start >= 100, "{run:?} lies in the gap");
        }
    }

    #[test]
    fn all_singleton_components_match_the_monolith() {
        // Every job is alone in its window: n singleton components.
        let triples: Vec<(i64, i64, i64)> = (0..12).map(|i| (10 * i, 10 * i + 3, 2)).collect();
        let inst = Instance::from_triples(triples, 2).unwrap();
        let runs = slot_runs(&inst);
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
        let runs = slot_runs(&inst);
        assert_eq!(components(&inst, &runs, DecomposeMode::Auto).len(), 1);
        assert_auto_matches_off(&inst);
    }

    #[test]
    fn touching_windows_are_separate_components() {
        // d_1 = r_2: the windows share an event point but no slot, so the
        // jobs share no LP variable and must split.
        let inst = Instance::from_triples([(0, 3, 2), (3, 6, 2)], 1).unwrap();
        let runs = slot_runs(&inst);
        assert_eq!(components(&inst, &runs, DecomposeMode::Auto).len(), 2);
        assert_auto_matches_off(&inst);
    }

    #[test]
    fn off_mode_reproduces_the_monolithic_component() {
        // Off always yields the single all-covering component, even on a
        // shardable instance.
        let inst = Instance::from_triples([(0, 3, 1), (50, 53, 1)], 1).unwrap();
        let runs = slot_runs(&inst);
        let comps = components(&inst, &runs, DecomposeMode::Off);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].run_lo, 0);
        assert_eq!(comps[0].run_hi, runs.len());
        assert_eq!(comps[0].jobs, vec![0, 1]);
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
        let starved = LpOptions::default().pivot_budget(1);
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
