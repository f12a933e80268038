//! Right-shifting the optimal LP solution (§3.1, Fig. 4).
//!
//! The optimal `y` mass between consecutive distinct deadlines is pushed to
//! the latest slots of that segment: with `Y_i = Σ y_t` over segment `i`,
//! the last `⌊Y_i⌋` slots become *fully open* (`y = 1`), the slot
//! `t_{d_i} − ⌊Y_i⌋` carries the fractional remainder (*half open* if
//! `≥ ½`, *barely open* if `< ½`), and everything earlier closes. Lemma 3:
//! the result is still fractionally feasible with unchanged cost.
//!
//! The segments are summed run by run. Every distinct deadline is an event
//! point, and `t_{d_0}` is the start of the first open run, so every
//! segment boundary is a run boundary: `Y_i` is the sum of the masses of
//! the open runs inside segment `i`, the same exact rational as the sum of
//! its slots' `y_t`, in time proportional to the runs rather than the
//! horizon. [`RightShifted::shifted_y`] writes out the shifted `y` over a
//! slot list for per-slot checks.

use crate::lp_model::ActiveLp;
use abt_core::{Instance, JobId, Time};
use abt_lp::Rat;

#[cfg(test)]
pub(crate) mod per_slot;

/// One deadline segment of the right-shifted solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Exclusive left end: the previous distinct deadline (or the slot just
    /// before the earliest positive-`y` slot for the first segment).
    pub start: Time,
    /// The deadline `t_{d_i}` (inclusive right end).
    pub deadline: Time,
    /// `Y_i`: total fractional mass in `(start, deadline]`.
    pub y_sum: Rat,
    /// Jobs whose deadline equals `deadline` (the set `J_i`).
    pub jobs: Vec<JobId>,
}

/// The right-shifted LP solution.
#[derive(Debug, Clone)]
pub struct RightShifted {
    /// Segments in increasing deadline order; their `y_sum`s add up to the
    /// LP objective.
    pub segments: Vec<Segment>,
}

impl RightShifted {
    /// The right-shifted `y` (Fig. 4's `LP2`) over `slots` (ascending):
    /// in each segment its last `⌊Y_i⌋` slots at 1 and the slot before
    /// them at the fractional remainder; 0 on every other slot.
    pub fn shifted_y(&self, slots: &[Time]) -> Vec<Rat> {
        let mut shifted_y = vec![Rat::ZERO; slots.len()];
        let idx_of = |t: Time| -> Option<usize> { slots.binary_search(&t).ok() };
        for seg in &self.segments {
            let floor = seg.y_sum.floor() as i64;
            let frac = seg.y_sum.fract();
            for k in 0..floor {
                if let Some(i) = idx_of(seg.deadline - k) {
                    shifted_y[i] = Rat::ONE;
                }
            }
            if frac.signum() > 0 {
                if let Some(i) = idx_of(seg.deadline - floor) {
                    shifted_y[i] = frac;
                }
            }
        }
        shifted_y
    }
}

/// Computes the right-shifted structure from an optimal LP solution.
pub fn right_shift(inst: &Instance, lp: &ActiveLp) -> RightShifted {
    // Distinct deadlines, ascending, with their job sets.
    let mut deadlines: Vec<Time> = inst.jobs().iter().map(|j| j.deadline).collect();
    deadlines.sort_unstable();
    deadlines.dedup();

    // The dummy boundary t_{d_0}: just before the earliest positive-y
    // slot, which opens the first open run (the horizon start when
    // nothing is open).
    let t0 = lp.runs.first().map_or(inst.min_release(), |run| run.start);

    let mut segments = Vec::with_capacity(deadlines.len());
    let mut prev = t0;
    let mut runs = lp.runs.iter().peekable();
    for &d in &deadlines {
        if d <= prev {
            // Deadline precedes all fractional mass; its segment is empty of
            // mass but must still exist so its jobs are processed.
            segments.push(Segment {
                start: d - 1,
                deadline: d,
                y_sum: Rat::ZERO,
                jobs: vec![],
            });
            continue;
        }
        let mut y_sum = Rat::ZERO;
        while let Some(run) = runs.next_if(|run| run.end <= d) {
            y_sum = y_sum.add(&run.mass);
        }
        debug_assert!(
            runs.peek().is_none_or(|run| run.start >= d),
            "deadline {d} cuts an open run"
        );
        segments.push(Segment {
            start: prev,
            deadline: d,
            y_sum,
            jobs: vec![],
        });
        prev = d;
    }
    // Segments are one per distinct deadline, in deadline order.
    for (id, j) in inst.jobs().iter().enumerate() {
        let at = deadlines
            .binary_search(&j.deadline)
            .expect("every job deadline has a segment");
        segments[at].jobs.push(id);
    }

    RightShifted { segments }
}

/// Total `Σ_i Y_i` (equals the LP objective; checked in tests).
pub fn total_mass(rs: &RightShifted) -> Rat {
    rs.segments
        .iter()
        .fold(Rat::ZERO, |acc, s| acc.add(&s.y_sum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_model::{fractional_feasible, solve_active_lp, OpenRun};
    use abt_core::active_schedule::horizon_slots;

    fn rat(p: i64, q: i64) -> Rat {
        Rat::new(p as i128, q as i128)
    }

    #[test]
    fn segments_cover_all_mass() {
        let inst = Instance::from_triples([(0, 4, 2), (1, 3, 2), (2, 6, 1)], 2).unwrap();
        let lp = solve_active_lp(&inst).unwrap();
        let rs = right_shift(&inst, &lp);
        assert_eq!(total_mass(&rs), lp.objective);
        // Every job appears in exactly one segment.
        let total_jobs: usize = rs.segments.iter().map(|s| s.jobs.len()).sum();
        assert_eq!(total_jobs, inst.len());
    }

    #[test]
    fn shifted_structure_is_right_aligned() {
        let inst = Instance::from_triples([(0, 4, 2), (1, 3, 2), (2, 6, 1)], 2).unwrap();
        let lp = solve_active_lp(&inst).unwrap();
        let rs = right_shift(&inst, &lp);
        let slots = horizon_slots(&inst).unwrap();
        let shifted_y = rs.shifted_y(&slots);
        // Within each segment: reading right-to-left we must see ones, then
        // at most one fractional value, then zeros (Observation 1).
        for seg in &rs.segments {
            let mut state = 0; // 0 = ones, 1 = fraction seen, 2 = zeros
            for (i, &t) in slots.iter().enumerate().rev() {
                if t > seg.deadline || t <= seg.start {
                    continue;
                }
                let y = shifted_y[i];
                match state {
                    0 if y == Rat::ONE => {}
                    0 if y.is_zero() => state = 2,
                    0 => state = 1,
                    1 if y.is_zero() => state = 2,
                    2 if y.is_zero() => {}
                    _ => panic!("segment ending {} not right-shifted", seg.deadline),
                }
            }
        }
    }

    #[test]
    fn right_shift_preserves_fractional_feasibility() {
        // Lemma 3 on a handful of small instances.
        let cases: Vec<Instance> = vec![
            Instance::from_triples([(0, 4, 2), (1, 3, 2), (2, 6, 1)], 2).unwrap(),
            Instance::from_triples([(0, 3, 1), (0, 3, 1), (1, 5, 3), (2, 4, 1)], 2).unwrap(),
            Instance::from_triples([(0, 6, 2), (3, 8, 4), (0, 2, 2)], 3).unwrap(),
        ];
        for inst in cases {
            let lp = solve_active_lp(&inst).unwrap();
            let rs = right_shift(&inst, &lp);
            let slots = horizon_slots(&inst).unwrap();
            assert!(
                fractional_feasible(&inst, &slots, &rs.shifted_y(&slots)),
                "right-shifted solution must stay feasible (Lemma 3)"
            );
        }
    }

    #[test]
    fn figure4_shape() {
        // A hand-built check mirroring Fig. 4's mechanics: mass 2.17 in a
        // 4-slot segment becomes [_, 0.17, 1, 1].
        let inst = Instance::from_triples([(0, 4, 1)], 1).unwrap(); // shape only
        let lp = ActiveLp {
            runs: vec![OpenRun {
                start: 0,
                end: 4,
                mass: rat(217, 100),
            }],
            objective: rat(217, 100),
        };
        let rs = right_shift(&inst, &lp);
        assert_eq!(
            rs.shifted_y(&[1, 2, 3, 4]),
            vec![Rat::ZERO, rat(17, 100), Rat::ONE, Rat::ONE]
        );
        assert_eq!(rs.segments.len(), 1);
        assert_eq!(rs.segments[0].y_sum, rat(217, 100));
    }
}
