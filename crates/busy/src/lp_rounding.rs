//! The paper's LP-rounding approximation for minimizing busy time (§4).
//!
//! # The LP
//!
//! Let the demand profile of the interval jobs (Definitions 11–13)
//! have positive-demand segments `i` with length `len_i` and raw
//! demand `D_i`. The busy-time LP has one variable `z_i` per segment —
//! the (fractional) number of machines kept busy across segment `i` —
//! and minimizes total machine-time:
//!
//! ```text
//!     min  Σ_i len_i · z_i
//!     s.t. g · z_i ≥ D_i          (capacity: g jobs per busy machine)
//!          z_i ≥ 1                 (a demanded segment needs a machine)
//!          0 ≤ z_i ≤ ⌈D_i / g⌉
//! ```
//!
//! The LP is separable with positive costs, so its unique optimum is
//! `z*_i = max(D_i/g, 1)` and its value is the fractional demand-profile
//! bound `Σ_i len_i · max(D_i, g) / g`. That value is a lower bound on
//! the fractional cost of *any* feasible schedule, hence `LP ≤ OPT ≤`
//! [`exact_busy_time`](crate::exact_busy_time). [`lp_rounding_run`]
//! computes it in closed form, as one exact `i128` numerator over `g`;
//! no simplex runs. `tests/proptest_busy_lp.rs` checks the closed form
//! against [`abt_lp::solve_lp`] under every backend.
//!
//! # The rounding
//!
//! Round each segment to `m_i = ⌈z*_i⌉ = ⌈D_i/g⌉` machines, pad the
//! demand of segment `i` with `m_i·g − D_i` dummy jobs, and pack real +
//! dummy jobs with the Kumar–Rudra level/band scheme (at most two units
//! of a level overlap anywhere; two machines per band of `g` levels;
//! parity 2-coloring per level). That padding is exactly Kumar–Rudra's
//! own pad to a multiple of `g`, so the schedule is
//! [`kumar_rudra_run`]'s. The packed cost is at most
//! `2·Σ len_i·m_i = 2 ×` the integral profile bound (`2·OPT`), and since
//! `⌈z⌉ ≤ 2z` for `z ≥ 1`, at most **4 × the LP value**. Every output is
//! validated against [`BusySchedule::validate`] and checked against both
//! factors and [`abt_core::busy_lower_bounds`] before it is returned.
//!
//! ```
//! use abt_busy::lp_rounding::lp_rounding_run;
//! use abt_core::{busy_lower_bounds, Instance, Job};
//!
//! // Three overlapping interval jobs, machine capacity 2.
//! let inst = Instance::new(
//!     vec![Job::interval(0, 4), Job::interval(1, 5), Job::interval(3, 9)],
//!     2,
//! )
//! .unwrap();
//! let run = lp_rounding_run(&inst).unwrap();
//! run.schedule.validate(&inst).unwrap();
//! let cost = run.schedule.total_busy_time(&inst);
//! assert!(run.within_four_lp());
//! assert!(cost <= 2 * run.profile_bound);
//! assert!(cost >= busy_lower_bounds(&inst).best());
//! ```

use abt_core::{busy_lower_bounds, BusySchedule, DemandProfile, Error, Instance, Interval, Result};
use abt_lp::Rat;

use crate::kumar_rudra::kumar_rudra_run;

/// Busy-LP solve counters, kept because the `perfbench` harness reads them.
/// No busy LP is solved, so both fields always read 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusyLpTelemetry {
    /// Simplex pivots spent on busy LPs.
    pub pivots: u64,
    /// Supervision-ladder demotions of busy LP solves.
    pub demotions: u64,
}

impl BusyLpTelemetry {
    /// Componentwise `self − earlier` (both cumulative snapshots).
    pub fn delta(&self, earlier: &BusyLpTelemetry) -> BusyLpTelemetry {
        BusyLpTelemetry {
            pivots: self.pivots - earlier.pivots,
            demotions: self.demotions - earlier.demotions,
        }
    }
}

/// Cumulative busy-LP counters for this process (always zero).
pub fn busy_lp_telemetry() -> BusyLpTelemetry {
    BusyLpTelemetry::default()
}

/// Diagnostic output of an LP-rounding run.
#[derive(Debug, Clone)]
pub struct LpRoundingRun {
    /// The schedule over real jobs (validated before return).
    pub schedule: BusySchedule,
    /// The schedule's total busy time.
    pub cost: i64,
    /// The exact rational LP optimum `Σ len_i · max(D_i/g, 1)`.
    pub lp_objective: Rat,
    /// The integral demand-profile lower bound `Σ ⌈D_i/g⌉·len_i` — the
    /// rounded machine-time `Σ len_i · ⌈z*_i⌉` charged by the packing
    /// (the packed cost is at most twice this).
    pub profile_bound: i64,
    /// Number of Kumar–Rudra levels used by the packing.
    pub levels: usize,
}

impl LpRoundingRun {
    /// The theorem-level guarantee: packed cost ≤ 4 × the LP value.
    pub fn within_four_lp(&self) -> bool {
        // cost ≤ 4·(p/q)  ⇔  q·cost ≤ 4·p  (q > 0).
        let p = self.lp_objective.numer();
        let q = self.lp_objective.denom();
        q * self.cost as i128 <= 4 * p
    }
}

/// Runs LP rounding on an interval instance, returning the schedule.
pub fn lp_rounding_busy(inst: &Instance) -> Result<BusySchedule> {
    Ok(lp_rounding_run(inst)?.schedule)
}

/// Runs LP rounding, returning diagnostics.
///
/// Computes the busy LP's optimum in closed form, rounds each segment to
/// `⌈z*_i⌉ = ⌈D_i/g⌉` machines, and packs with the Kumar–Rudra
/// level/band scheme (see the module docs). The output is validated and
/// checked against both factor guarantees (`≤ 2·profile` and `≤ 4·LP`)
/// and the instance's busy-time lower bounds before it is returned; a
/// failed check is an [`Error::InvalidSchedule`]. A padding Kumar–Rudra
/// refuses (past [`MAX_PADDED_DEMAND`](crate::MAX_PADDED_DEMAND)) is
/// refused here too.
pub fn lp_rounding_run(inst: &Instance) -> Result<LpRoundingRun> {
    if !inst.is_interval_instance() {
        return Err(Error::Unsupported(
            "lp_rounding requires interval jobs; use flexible::solve for general jobs".into(),
        ));
    }
    let g = inst.g() as i128;
    let windows: Vec<Interval> = inst.jobs().iter().map(|j| j.window()).collect();
    let numer: i128 = DemandProfile::new(&windows)
        .segments()
        .iter()
        .filter(|&&(_, d)| d > 0)
        .map(|&(iv, d)| iv.len() as i128 * (d as i128).max(g))
        .sum();
    let lp_objective = Rat::new(numer, g);

    let kr = kumar_rudra_run(inst)?;
    kr.schedule.validate(inst)?;
    let cost = kr.schedule.total_busy_time(inst);
    // In i128, like `within_four_lp`: twice a bound near `i64::MAX` wraps.
    if cost as i128 > 2 * kr.profile_bound as i128 {
        return Err(Error::InvalidSchedule(format!(
            "lp_rounding exceeded its factor: cost {cost} > 2×profile bound {}",
            kr.profile_bound
        )));
    }
    if cost < busy_lower_bounds(inst).best() {
        return Err(Error::InvalidSchedule(format!(
            "lp_rounding undercut the busy lower bound: cost {cost}"
        )));
    }
    let run = LpRoundingRun {
        schedule: kr.schedule,
        cost,
        lp_objective,
        profile_bound: kr.profile_bound,
        levels: kr.levels,
    };
    if !run.within_four_lp() {
        return Err(Error::InvalidSchedule(format!(
            "lp_rounding exceeded its factor: cost {cost} > 4×LP {lp_objective}"
        )));
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_busy_time;
    use abt_core::{within_factor, Job};

    fn interval_inst(ivs: &[(i64, i64)], g: usize) -> Instance {
        Instance::new(ivs.iter().map(|&(a, b)| Job::interval(a, b)).collect(), g).unwrap()
    }

    fn check(inst: &Instance) -> LpRoundingRun {
        let run = lp_rounding_run(inst).unwrap();
        run.schedule.validate(inst).unwrap();
        let cost = run.schedule.total_busy_time(inst);
        assert!(run.within_four_lp(), "cost {cost} > 4×LP");
        assert!(
            within_factor(cost, 2, run.profile_bound),
            "cost {cost} > 2×profile {}",
            run.profile_bound
        );
        assert!(cost >= busy_lower_bounds(inst).best());
        run
    }

    #[test]
    fn lp_value_matches_fractional_profile() {
        // Demands 1, 2, 3 on unit segments with g = 2:
        // LP = 1·1 + 1·1 + 1·(3/2) = 7/2.
        let inst = interval_inst(&[(0, 3), (1, 3), (2, 3)], 2);
        let run = check(&inst);
        assert_eq!(run.lp_objective, Rat::new(7, 2));
        assert_eq!(run.profile_bound, 4); // ⌈1/2⌉+⌈2/2⌉+⌈3/2⌉
    }

    #[test]
    fn four_lp_check_rejects_one_past_the_bound() {
        // LP = 7/2, so 4·LP = 14 exactly: 14 passes, 15 does not.
        let mut run = check(&interval_inst(&[(0, 3), (1, 3), (2, 3)], 2));
        run.cost = 14;
        assert!(run.within_four_lp());
        run.cost = 15;
        assert!(!run.within_four_lp());
    }

    #[test]
    fn lp_is_a_lower_bound_on_exact() {
        let cases: &[(&[(i64, i64)], usize)] = &[
            (&[(0, 4), (1, 5), (3, 9)], 2),
            (&[(0, 5), (2, 7), (4, 9), (6, 11)], 3),
            (&[(0, 10), (1, 9), (2, 8), (3, 7)], 2),
        ];
        for &(ivs, g) in cases {
            let inst = interval_inst(ivs, g);
            let run = check(&inst);
            let exact = exact_busy_time(&inst, Some(20_000_000)).unwrap();
            // q·LP ≤ q·exact  ⇔  p ≤ q·exact.
            let (p, q) = (run.lp_objective.numer(), run.lp_objective.denom());
            assert!(p <= q * exact.cost as i128, "LP exceeds exact cost");
            assert!(run.schedule.total_busy_time(&inst) >= exact.cost);
        }
    }

    #[test]
    fn rounding_coincides_with_kumar_rudra_padding() {
        // ⌈z*_i⌉ = ⌈D_i/g⌉, so the LP-driven dummies equal the
        // multiple-of-g padding and the packed cost matches KR's.
        for g in 1..=4 {
            let inst = interval_inst(&[(0, 5), (2, 7), (4, 9), (6, 11), (8, 13)], g);
            let run = check(&inst);
            let kr = kumar_rudra_run(&inst).unwrap();
            assert_eq!(
                run.schedule.total_busy_time(&inst),
                kr.schedule.total_busy_time(&inst)
            );
        }
    }

    #[test]
    fn rejects_flexible() {
        let inst = Instance::from_triples([(0, 9, 3)], 2).unwrap();
        assert!(matches!(
            lp_rounding_busy(&inst),
            Err(Error::Unsupported(_))
        ));
    }
}
