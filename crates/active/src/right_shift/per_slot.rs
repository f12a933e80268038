//! Runs against slots, test-only: the per-slot §3.1 right-shift, kept as
//! the oracle of the run-level [`right_shift`].
//!
//! [`per_slot_segments`] is the right-shift as it was computed before LP1
//! answered in runs: `t_{d_0}` found slot by slot, and each segment's
//! `Y_i` summed over the `y_t` of its slots. The property test solves
//! generated instances of five families (random feasible windows, tight
//! windows, VUB-heavy nests, many components, online-arrivals prefixes)
//! and checks four things on every answer:
//!
//! * the uniform disaggregation of its runs passes LP2
//!   ([`fractional_feasible`]);
//! * its run masses sum to the objective, with `0 < Y ≤ width` on every
//!   run;
//! * the run-level segments equal the per-slot oracle's bit for bit;
//! * the rounding opens exactly the slots it opens from the oracle's
//!   segments.

use super::{right_shift, Segment};
use crate::lp_model::crash::generated;
use crate::lp_model::{fractional_feasible, solve_active_lp};
use crate::rounding::{lp_rounding_from, round_segments};
use abt_core::active_schedule::horizon_slots;
use abt_core::{Instance, Time};
use abt_lp::Rat;
use proptest::prelude::*;

/// The per-slot right-shift's segments of the answer `y` over `slots`
/// (the horizon, ascending).
fn per_slot_segments(inst: &Instance, slots: &[Time], y: &[Rat]) -> Vec<Segment> {
    let first_slot = slots.first().copied().unwrap_or(0);
    let mut deadlines: Vec<Time> = inst.jobs().iter().map(|j| j.deadline).collect();
    deadlines.sort_unstable();
    deadlines.dedup();
    // The dummy boundary t_{d_0}: just before the earliest positive-y slot
    // (clamped to the horizon start).
    let earliest_positive = slots
        .iter()
        .zip(y)
        .find(|(_, y)| y.signum() > 0)
        .map(|(&t, _)| t)
        .unwrap_or(first_slot);
    let t0 = (earliest_positive - 1).max(first_slot - 1);
    let mut segments = Vec::with_capacity(deadlines.len());
    let mut prev = t0;
    for &d in &deadlines {
        if d <= prev {
            segments.push(Segment {
                start: d - 1,
                deadline: d,
                y_sum: Rat::ZERO,
                jobs: vec![],
            });
            continue;
        }
        let mut y_sum = Rat::ZERO;
        for (i, &t) in slots.iter().enumerate() {
            if t > prev && t <= d {
                y_sum = y_sum.add(&y[i]);
            }
        }
        segments.push(Segment {
            start: prev,
            deadline: d,
            y_sum,
            jobs: vec![],
        });
        prev = d;
    }
    for (id, j) in inst.jobs().iter().enumerate() {
        let seg = segments
            .iter_mut()
            .find(|s| s.deadline == j.deadline)
            .expect("every job deadline has a segment");
        seg.jobs.push(id);
    }
    segments
}

/// The four checks of the module docs on `inst`'s LP1 answer.
fn check_runs_against_slots(inst: &Instance) -> Result<(), TestCaseError> {
    let lp = solve_active_lp(inst).expect("generated instances are feasible");
    let slots = horizon_slots(inst).expect("generated horizons are short");
    let y = lp.slot_values(&slots);
    prop_assert!(fractional_feasible(inst, &slots, &y), "{:?}", lp.runs);
    let mut mass = Rat::ZERO;
    for run in &lp.runs {
        prop_assert!(run.mass.signum() > 0, "{:?}", run);
        prop_assert!(run.mass <= Rat::from_int(run.width()), "{:?}", run);
        mass = mass.add(&run.mass);
    }
    prop_assert_eq!(mass, lp.objective);
    let oracle = per_slot_segments(inst, &slots, &y);
    prop_assert_eq!(&right_shift(inst, &lp).segments, &oracle);
    let from_runs = lp_rounding_from(inst, &lp).expect("rounding succeeds");
    let from_slots =
        round_segments(inst, &oracle, &slots, lp.objective).expect("rounding succeeds");
    prop_assert_eq!(from_runs.opened, from_slots.opened);
    Ok(())
}

#[test]
fn hand_made_answers_match_the_per_slot_oracle() {
    // A gap between components, a deadline before all mass, and shared
    // deadlines.
    for inst in [
        Instance::from_triples([(0, 4, 2), (1, 3, 2), (2, 6, 1)], 2).unwrap(),
        Instance::from_triples([(0, 3, 1), (20, 26, 4), (21, 26, 2), (0, 3, 2)], 2).unwrap(),
        Instance::from_triples([(5, 6, 1), (0, 10, 3), (2, 10, 4)], 1).unwrap(),
    ] {
        check_runs_against_slots(&inst).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn run_answers_match_the_per_slot_right_shift(
        family in 0usize..5,
        seed in 0u64..1_000_000,
        n in 2usize..14,
        g in 1usize..5,
        horizon in 8i64..30,
    ) {
        let inst = generated(family, seed, n, g, horizon);
        if !inst.is_empty() {
            check_runs_against_slots(&inst)?;
        }
    }
}
