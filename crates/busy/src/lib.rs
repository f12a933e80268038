//! # abt-busy
//!
//! Algorithms for the **busy time** problem (§4 of Chang–Khuller–Mukherjee,
//! SPAA 2014): partition jobs onto unboundedly many capacity-`g` machines,
//! scheduling non-preemptively, to minimize total busy (union) time.
//!
//! * [`tracks`] / [`greedy_tracking`](mod@greedy_tracking) — the paper's `GREEDYTRACKING`
//!   3-approximation (Theorem 5; tight by the Fig. 6 gadget).
//! * [`firstfit`] — the Flammini et al. 4-approximation baseline, plus the
//!   order-by-release variant for proper instances.
//! * [`kumar_rudra`](mod@kumar_rudra) / [`alicherry_bhatia`](mod@alicherry_bhatia) — the 2-approximations for
//!   interval jobs (Appendix A; tight by the Fig. 8 instance).
//! * [`span`] — exact / heuristic minimum-span placement (`OPT_∞`,
//!   substituting Khandekar et al.'s DP; DESIGN.md §5.3).
//! * [`flexible`] — the placement→interval pipeline (3-approx end to end
//!   with GreedyTracking, Theorem 5; 4 with KR/AB, Theorem 10).
//! * [`preemptive`] — §4.4: exact unbounded greedy and bounded-`g` 2-approx.
//! * [`maximization`] — the Mertzios et al. budgeted-throughput dual
//!   (§1.3 related work): maximize accepted jobs within a busy-time budget.
//! * [`online`] — the release-ordered online setting (§1.3 related work).
//! * [`widths`] — the Khandekar et al. width-demand generalization
//!   (narrow/wide FirstFit 5-approximation) discussed in §1.
//! * [`special`] — proper/clique/laminar classes: greedy 2-approximations
//!   and the exact proper-clique DP \[12\] / laminar solver \[9\].
//! * [`lp_rounding`] — the paper's busy-time LP (over demand-profile
//!   segments; separable, so its optimum is computed in closed form)
//!   rounded to a 2-approximation vs the profile bound and a
//!   4-approximation vs the LP value.
//! * [`exact`] — branch-and-bound optimum for ratio measurements.

#![warn(missing_docs)]

pub mod alicherry_bhatia;
pub mod exact;
pub mod firstfit;
pub mod flexible;
pub mod greedy_tracking;
pub mod kumar_rudra;
pub mod lp_rounding;
pub mod maximization;
pub mod online;
pub mod preemptive;
pub mod span;
pub mod special;
pub mod tracks;
pub mod widths;

pub use alicherry_bhatia::{alicherry_bhatia, alicherry_bhatia_run, AlicherryBhatiaRun};
pub use exact::{exact_busy_time, ExactBusy};
pub use firstfit::{first_fit, FirstFitOrder};
pub use flexible::{
    placement_from_starts, solve_flexible, solve_with_placement, FlexibleOutcome, IntervalAlgo,
};
pub use greedy_tracking::{
    greedy_tracking, greedy_tracking_run, greedy_tracking_seeded, GreedyTrackingRun,
};
pub use kumar_rudra::{kumar_rudra, kumar_rudra_run, KumarRudraRun};
pub use lp_rounding::{
    busy_lp_telemetry, lp_rounding_busy, lp_rounding_run, BusyLpTelemetry, LpRoundingRun,
};
pub use maximization::{budgeted_exact, budgeted_greedy, BudgetedSchedule};
pub use online::{online_first_fit, OnlineScheduler};
pub use preemptive::{
    preemptive_bounded, preemptive_lower_bound, preemptive_unbounded, validate_unbounded,
    UnboundedPreemptive,
};
pub use span::{span_brute_force, span_exact, span_greedy, span_place, SpanPlacement};
pub use special::{
    clique_greedy, is_clique, is_laminar, is_proper, laminar_solve, proper_clique_exact,
    proper_greedy,
};
pub use widths::{width_first_fit, WideJob, WidthInstance, WidthSchedule};
