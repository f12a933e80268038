//! The flexible-job pipeline (§4.3): place jobs to minimize their span
//! (unbounded-`g` solution), freeze the placement into an interval
//! instance, then run an interval-job algorithm.
//!
//! With `GREEDYTRACKING` as the interval algorithm this is the paper's
//! **3-approximation** for flexible jobs (Theorem 5 plus
//! `Sp(B_1) ≤ OPT_∞(J') ≤ OPT(J')`); with Kumar–Rudra / Alicherry–Bhatia
//! it is the 4-approximation of Theorem 10 (tight, Figs. 10–12).

use crate::alicherry_bhatia::alicherry_bhatia;
use crate::firstfit::{first_fit, FirstFitOrder};
use crate::greedy_tracking::greedy_tracking;
use crate::kumar_rudra::kumar_rudra;
use crate::lp_rounding::lp_rounding_busy;
use crate::span::{span_place, SpanPlacement};
use abt_core::{BusySchedule, Instance, Result, Time};

/// The interval-job algorithm used after placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalAlgo {
    /// Flammini et al.'s FirstFit (4-approx on interval jobs).
    FirstFit,
    /// The paper's GreedyTracking (3-approx end to end).
    GreedyTracking,
    /// Kumar–Rudra (2-approx on interval jobs; 4-approx end to end).
    KumarRudra,
    /// Alicherry–Bhatia (2-approx on interval jobs; 4-approx end to end).
    AlicherryBhatia,
    /// The paper's LP rounding (2-approx on interval jobs vs the profile
    /// bound, 4-approx vs its own LP value; 4-approx end to end).
    LpRounding,
}

impl IntervalAlgo {
    /// Runs this algorithm on an interval instance.
    pub fn run(&self, inst: &Instance) -> Result<BusySchedule> {
        let _span = abt_core::obs_span!("busy.pack");
        match self {
            IntervalAlgo::FirstFit => first_fit(inst, FirstFitOrder::LengthDesc),
            IntervalAlgo::GreedyTracking => greedy_tracking(inst),
            IntervalAlgo::KumarRudra => kumar_rudra(inst),
            IntervalAlgo::AlicherryBhatia => alicherry_bhatia(inst),
            IntervalAlgo::LpRounding => lp_rounding_busy(inst),
        }
    }

    /// All variants, for sweeps.
    pub fn all() -> [IntervalAlgo; 5] {
        [
            IntervalAlgo::FirstFit,
            IntervalAlgo::GreedyTracking,
            IntervalAlgo::KumarRudra,
            IntervalAlgo::AlicherryBhatia,
            IntervalAlgo::LpRounding,
        ]
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            IntervalAlgo::FirstFit => "FirstFit",
            IntervalAlgo::GreedyTracking => "GreedyTracking",
            IntervalAlgo::KumarRudra => "KumarRudra",
            IntervalAlgo::AlicherryBhatia => "AlicherryBhatia",
            IntervalAlgo::LpRounding => "LpRounding",
        }
    }
}

/// Outcome of the flexible pipeline.
#[derive(Debug, Clone)]
pub struct FlexibleOutcome {
    /// The schedule (starts taken from the placement).
    pub schedule: BusySchedule,
    /// The span placement used (its cost is `OPT_∞` when `exact`).
    pub placement: SpanPlacement,
}

/// Solves a (possibly flexible) instance: minimum-span placement, then the
/// chosen interval algorithm.
pub fn solve_flexible(inst: &Instance, algo: IntervalAlgo) -> Result<FlexibleOutcome> {
    let placement = span_place(inst);
    solve_with_placement(inst, &placement, algo)
}

/// Same pipeline with an explicit placement — used by the gadget
/// experiments, which feed the paper's *adversarial* span-optimal
/// placements (Figs. 7, 9, 11).
pub fn solve_with_placement(
    inst: &Instance,
    placement: &SpanPlacement,
    algo: IntervalAlgo,
) -> Result<FlexibleOutcome> {
    let fixed = inst.fix_starts(&placement.starts)?;
    let fixed_schedule = algo.run(&fixed)?;
    // Rebind the bundles to the original instance: same job ids, the starts
    // are exactly the placement starts.
    let schedule = BusySchedule {
        bundles: fixed_schedule.bundles,
    };
    schedule.validate(inst)?;
    Ok(FlexibleOutcome {
        schedule,
        placement: placement.clone(),
    })
}

/// Convenience: place with an explicit starts vector.
pub fn placement_from_starts(inst: &Instance, starts: Vec<Time>) -> Result<SpanPlacement> {
    let fixed = inst.fix_starts(&starts)?; // validates
    let busy: abt_core::IntervalSet = fixed.jobs().iter().map(|j| j.window()).collect();
    let cost = busy.measure();
    Ok(SpanPlacement {
        starts,
        busy,
        cost,
        exact: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use abt_core::{busy_lower_bounds, within_factor};

    #[test]
    fn pipeline_runs_all_algorithms() {
        let inst = Instance::from_triples(
            [(0, 10, 3), (2, 8, 4), (5, 15, 2), (0, 4, 2), (9, 14, 5)],
            2,
        )
        .unwrap();
        for algo in IntervalAlgo::all() {
            let out = solve_flexible(&inst, algo).unwrap();
            out.schedule.validate(&inst).unwrap();
            let cost = out.schedule.total_busy_time(&inst);
            // Guarantees: GT ≤ 3·OPT, others ≤ 4·OPT; check against the
            // max of mass bound and OPT∞ (placement is exact here).
            let lb = busy_lower_bounds(&inst).mass.max(out.placement.cost);
            let factor = match algo {
                IntervalAlgo::GreedyTracking => 3,
                _ => 4,
            };
            assert!(
                within_factor(cost, factor, lb),
                "{} cost {cost} > {factor}×LB {lb}",
                algo.name()
            );
        }
    }

    #[test]
    fn interval_instances_pass_through() {
        let inst = Instance::new(
            vec![
                abt_core::Job::interval(0, 4),
                abt_core::Job::interval(2, 6),
                abt_core::Job::interval(5, 9),
            ],
            2,
        )
        .unwrap();
        let out = solve_flexible(&inst, IntervalAlgo::GreedyTracking).unwrap();
        // Placement of an interval instance is forced.
        assert_eq!(out.placement.cost, inst.interval_span().unwrap());
        out.schedule.validate(&inst).unwrap();
    }

    #[test]
    fn explicit_placement_is_respected() {
        let inst = Instance::from_triples([(0, 10, 2), (0, 10, 2)], 2).unwrap();
        // Adversarial: spread the two jobs apart.
        let placement = placement_from_starts(&inst, vec![0, 8]).unwrap();
        assert_eq!(placement.cost, 4);
        let out = solve_with_placement(&inst, &placement, IntervalAlgo::GreedyTracking).unwrap();
        assert_eq!(out.schedule.total_busy_time(&inst), 4);
        // The optimal placement stacks them: cost 2.
        let opt = solve_flexible(&inst, IntervalAlgo::GreedyTracking).unwrap();
        assert_eq!(opt.schedule.total_busy_time(&inst), 2);
    }

    #[test]
    fn bad_starts_rejected() {
        let inst = Instance::from_triples([(0, 5, 3)], 1).unwrap();
        assert!(placement_from_starts(&inst, vec![3]).is_err());
    }
}
