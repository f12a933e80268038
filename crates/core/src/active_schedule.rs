//! Schedules for the **active time** model (§2 of the paper).
//!
//! Time is slotted: slot `t` denotes the unit of time `[t−1, t)`, so a job
//! with release `r` and deadline `d` may use exactly the slots
//! `{r+1, …, d}` — its *window*. A feasible solution is a set `A` of
//! active slots together with an assignment of each job `j` to `p_j`
//! distinct active slots in its window, at most `g` job-units per slot.
//! The cost is `|A|`, the number of active slots.

use crate::error::{Error, Result};
use crate::instance::Instance;
use crate::jobs::JobId;
use crate::time::Time;
use std::collections::{BTreeMap, BTreeSet};

/// Whether job `job` of `inst` may be scheduled in slot `t`.
pub fn job_feasible_in_slot(inst: &Instance, job: JobId, t: Time) -> bool {
    let j = inst.job(job);
    j.release < t && t <= j.deadline
}

/// The longest horizon, in slots, that the schedule layer accepts.
/// LP1 answers in runs and needs only [`horizon_len`]; what lists slots —
/// an [`ActiveSchedule`], the LP rounding's opened slots and its repair,
/// and minimal-feasible — starts from [`horizon_slots`], which refuses a longer horizon with
/// [`Error::HorizonTooLong`] before anything per slot is allocated (at
/// 2²⁴ slots the slot list alone takes 128 MiB).
pub const MAX_HORIZON_SLOTS: i64 = 1 << 24;

/// The length `hi − lo` in slots of the horizon `(lo, hi]`. A length
/// past `i64` is refused with [`Error::HorizonTooLong`].
pub fn horizon_len(lo: Time, hi: Time) -> Result<i64> {
    hi.checked_sub(lo).ok_or(Error::HorizonTooLong {
        slots: i128::from(hi) - i128::from(lo),
        limit: MAX_HORIZON_SLOTS,
    })
}

/// All slots of the instance's horizon: `{r_min+1, …, T}`. A horizon
/// longer than [`MAX_HORIZON_SLOTS`] is refused with
/// [`Error::HorizonTooLong`] before any allocation.
pub fn horizon_slots(inst: &Instance) -> Result<Vec<Time>> {
    let (lo, hi) = (inst.min_release(), inst.max_deadline());
    let len = horizon_len(lo, hi)?;
    if len > MAX_HORIZON_SLOTS {
        return Err(Error::HorizonTooLong {
            slots: i128::from(len),
            limit: MAX_HORIZON_SLOTS,
        });
    }
    Ok((lo + 1..=hi).collect())
}

/// A (candidate) active-time schedule: which slots are active, and which
/// slots each job occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSchedule {
    /// Active (open) slots `A`.
    active: BTreeSet<Time>,
    /// `assignment[j]` = the slots in which one unit of job `j` runs.
    assignment: Vec<Vec<Time>>,
}

impl ActiveSchedule {
    /// Creates a schedule from the active-slot set and per-job slot lists.
    /// Per-job slot lists are sorted and deduplicated (a duplicate would be
    /// invalid anyway and is caught by [`ActiveSchedule::validate`]).
    pub fn new(active: impl IntoIterator<Item = Time>, assignment: Vec<Vec<Time>>) -> Self {
        let mut assignment = assignment;
        for slots in &mut assignment {
            slots.sort_unstable();
        }
        ActiveSchedule {
            active: active.into_iter().collect(),
            assignment,
        }
    }

    /// The set of active slots.
    pub fn active_slots(&self) -> &BTreeSet<Time> {
        &self.active
    }

    /// The slots assigned to job `j`.
    pub fn job_slots(&self, j: JobId) -> &[Time] {
        &self.assignment[j]
    }

    /// The cost `|A|`: the machine's total active time.
    pub fn cost(&self) -> i64 {
        self.active.len() as i64
    }

    /// Checks full feasibility against `inst`:
    /// every job gets exactly `p_j` distinct slots, all inside its window and
    /// inside `A`; no slot holds more than `g` units.
    pub fn validate(&self, inst: &Instance) -> Result<()> {
        if self.assignment.len() != inst.len() {
            return Err(Error::InvalidSchedule(format!(
                "{} assignment rows for {} jobs",
                self.assignment.len(),
                inst.len()
            )));
        }
        let mut load: BTreeMap<Time, i64> = BTreeMap::new();
        for (id, slots) in self.assignment.iter().enumerate() {
            let j = inst.job(id);
            if slots.len() as i64 != j.length {
                return Err(Error::InvalidSchedule(format!(
                    "job {id} got {} units, needs {}",
                    slots.len(),
                    j.length
                )));
            }
            let mut prev: Option<Time> = None;
            for &t in slots {
                if prev == Some(t) {
                    return Err(Error::InvalidSchedule(format!(
                        "job {id} scheduled twice in slot {t}"
                    )));
                }
                prev = Some(t);
                if !job_feasible_in_slot(inst, id, t) {
                    return Err(Error::InvalidSchedule(format!(
                        "job {id} assigned slot {t} outside window ({}, {}]",
                        j.release, j.deadline
                    )));
                }
                if !self.active.contains(&t) {
                    return Err(Error::InvalidSchedule(format!(
                        "job {id} assigned inactive slot {t}"
                    )));
                }
                *load.entry(t).or_insert(0) += 1;
            }
        }
        let g = inst.g() as i64;
        for (&t, &l) in &load {
            if l > g {
                return Err(Error::InvalidSchedule(format!(
                    "slot {t} carries {l} units, capacity is {g}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> Instance {
        // Jobs: (r, d, p); g = 2.
        Instance::from_triples([(0, 3, 2), (0, 2, 1), (1, 4, 2)], 2).unwrap()
    }

    #[test]
    fn window_slot_arithmetic() {
        // Paper's example: a unit job with r=1, d=2 can be scheduled in slot
        // t=2 but not t=1.
        let i = Instance::from_triples([(1, 2, 1)], 1).unwrap();
        assert!(!job_feasible_in_slot(&i, 0, 1));
        assert!(job_feasible_in_slot(&i, 0, 2));
    }

    #[test]
    fn valid_schedule_passes() {
        let s = ActiveSchedule::new([1, 2, 3], vec![vec![1, 2], vec![1], vec![2, 3]]);
        s.validate(&inst()).unwrap();
        assert_eq!(s.cost(), 3);
    }

    #[test]
    fn capacity_violation_detected() {
        // slot 2 would carry 3 units with g = 2
        let s = ActiveSchedule::new([1, 2, 3], vec![vec![2, 3], vec![2], vec![2, 3]]);
        let e = s.validate(&inst()).unwrap_err();
        assert!(matches!(e, Error::InvalidSchedule(_)), "{e}");
    }

    #[test]
    fn window_violation_detected() {
        let s = ActiveSchedule::new([1, 2, 3, 4], vec![vec![1, 4], vec![2], vec![2, 3]]);
        assert!(s.validate(&inst()).is_err());
    }

    #[test]
    fn inactive_slot_detected() {
        let s = ActiveSchedule::new([1, 2], vec![vec![1, 2], vec![2], vec![2, 3]]);
        assert!(s.validate(&inst()).is_err());
    }

    #[test]
    fn wrong_unit_count_detected() {
        let s = ActiveSchedule::new([1, 2, 3], vec![vec![1], vec![2], vec![2, 3]]);
        assert!(s.validate(&inst()).is_err());
    }

    #[test]
    fn duplicate_slot_detected() {
        let s = ActiveSchedule::new([1, 2, 3], vec![vec![2, 2], vec![1], vec![2, 3]]);
        assert!(s.validate(&inst()).is_err());
    }
}
