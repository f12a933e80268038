//! Minimal feasible solutions for active time (§2 of the paper).
//!
//! A *minimal feasible solution* (Definition 4) is a set of active slots
//! from which no single slot can be closed without losing feasibility.
//! Theorem 1: **any** minimal feasible solution costs at most `3·OPT`, and
//! the bound is tight (Fig. 3).
//!
//! Because closing is monotone (removing slots only ever hurts
//! feasibility), a single pass over any closing order yields a minimal
//! solution; different orders produce different minimal solutions, which is
//! exactly the gap Theorem 1 bounds. The order is therefore a pluggable
//! ablation knob ([`ClosingOrder`]).

use crate::feasibility::{feasible_on, schedule_on};
use abt_core::active_schedule::horizon_slots;
use abt_core::{ActiveSchedule, Error, Instance, Result, Time};

/// The order in which slots are offered for closing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosingOrder {
    /// Earliest slot first.
    LeftToRight,
    /// Latest slot first.
    RightToLeft,
    /// Alternating from the outside towards the center.
    OutsideIn,
    /// From the center outwards — the adversarial order on the Fig. 3
    /// gadget (it protects the crowded middle slots and strands the long
    /// jobs outside).
    CenterOut,
    /// Deterministic pseudo-random order derived from the seed.
    Shuffled(u64),
}

impl ClosingOrder {
    /// Arranges `slots` (sorted ascending) into this closing order.
    pub fn arrange(&self, slots: &[Time]) -> Vec<Time> {
        let mut v: Vec<Time> = slots.to_vec();
        match *self {
            ClosingOrder::LeftToRight => {}
            ClosingOrder::RightToLeft => v.reverse(),
            ClosingOrder::OutsideIn => {
                let mut out = Vec::with_capacity(v.len());
                let (mut lo, mut hi) = (0usize, v.len());
                while lo < hi {
                    out.push(v[lo]);
                    lo += 1;
                    if lo < hi {
                        hi -= 1;
                        out.push(v[hi]);
                    }
                }
                v = out;
            }
            ClosingOrder::CenterOut => {
                let mut out = ClosingOrder::OutsideIn.arrange(&v);
                out.reverse();
                v = out;
            }
            ClosingOrder::Shuffled(seed) => {
                // Small deterministic xorshift shuffle (keeps `rand` out of
                // the algorithm crates).
                let mut state = seed | 1;
                for i in (1..v.len()).rev() {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let j = (state % (i as u64 + 1)) as usize;
                    v.swap(i, j);
                }
            }
        }
        v
    }
}

/// Result of the minimal-feasible computation.
#[derive(Debug, Clone)]
pub struct MinimalResult {
    /// The minimal active-slot set, sorted.
    pub slots: Vec<Time>,
    /// A feasible schedule on those slots.
    pub schedule: ActiveSchedule,
}

/// Computes a minimal feasible solution starting from all horizon slots,
/// closing candidates in `order`. Errors if the instance is infeasible even
/// with every slot open. Runs under the always-on `active.minimal` span,
/// its max-flow checks under `active.flow`.
pub fn minimal_feasible(inst: &Instance, order: ClosingOrder) -> Result<MinimalResult> {
    let _span = abt_core::obs_span!("active.minimal");
    let all = horizon_slots(inst)?;
    close_minimal(inst, &all, order)
}

/// Computes a minimal feasible solution contained in the given starting set
/// of active slots, under the `active.minimal` span.
pub fn minimal_feasible_from(
    inst: &Instance,
    start: &[Time],
    order: ClosingOrder,
) -> Result<MinimalResult> {
    let _span = abt_core::obs_span!("active.minimal");
    close_minimal(inst, start, order)
}

/// Closes the slots of `start` in `order` while the rest stays feasible.
fn close_minimal(inst: &Instance, start: &[Time], order: ClosingOrder) -> Result<MinimalResult> {
    let mut open: Vec<Time> = start.to_vec();
    open.sort_unstable();
    open.dedup();
    if !feasible_on(inst, &open) {
        return Err(Error::Infeasible(
            "instance infeasible on the given starting slots".into(),
        ));
    }
    for t in order.arrange(&open) {
        let candidate: Vec<Time> = open.iter().copied().filter(|&s| s != t).collect();
        if feasible_on(inst, &candidate) {
            open = candidate;
        }
    }
    let schedule = schedule_on(inst, &open).expect("minimal set is feasible by construction");
    Ok(MinimalResult {
        slots: open,
        schedule,
    })
}

/// Checks minimality: no single active slot can be closed.
pub fn is_minimal(inst: &Instance, slots: &[Time]) -> bool {
    feasible_on(inst, slots)
        && slots.iter().all(|&t| {
            let candidate: Vec<Time> = slots.iter().copied().filter(|&s| s != t).collect();
            !feasible_on(inst, &candidate)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Instance {
        Instance::from_triples([(0, 6, 3), (1, 5, 2), (2, 4, 2), (0, 2, 1)], 2).unwrap()
    }

    #[test]
    fn produces_minimal_feasible_solutions() {
        let inst = demo();
        for order in [
            ClosingOrder::LeftToRight,
            ClosingOrder::RightToLeft,
            ClosingOrder::OutsideIn,
            ClosingOrder::CenterOut,
            ClosingOrder::Shuffled(42),
        ] {
            let res = minimal_feasible(&inst, order).unwrap();
            res.schedule.validate(&inst).unwrap();
            assert!(is_minimal(&inst, &res.slots), "not minimal under {order:?}");
        }
    }

    #[test]
    fn infeasible_instance_reported() {
        let inst = Instance::from_triples([(0, 1, 1), (0, 1, 1)], 1).unwrap();
        assert!(matches!(
            minimal_feasible(&inst, ClosingOrder::LeftToRight),
            Err(Error::Infeasible(_))
        ));
    }

    #[test]
    fn orders_are_permutations() {
        let slots = vec![1, 2, 3, 4, 5];
        for order in [
            ClosingOrder::LeftToRight,
            ClosingOrder::RightToLeft,
            ClosingOrder::OutsideIn,
            ClosingOrder::CenterOut,
            ClosingOrder::Shuffled(7),
        ] {
            let mut arranged = order.arrange(&slots);
            arranged.sort_unstable();
            assert_eq!(arranged, slots, "{order:?}");
        }
        assert_eq!(ClosingOrder::OutsideIn.arrange(&slots), vec![1, 5, 2, 4, 3]);
        assert_eq!(ClosingOrder::CenterOut.arrange(&slots), vec![3, 4, 2, 5, 1]);
    }

    #[test]
    fn single_job_tightens_to_length() {
        let inst = Instance::from_triples([(0, 10, 4)], 1).unwrap();
        let res = minimal_feasible(&inst, ClosingOrder::LeftToRight).unwrap();
        assert_eq!(res.slots.len(), 4);
    }

    #[test]
    fn minimality_checker_rejects_slack() {
        let inst = Instance::from_triples([(0, 10, 4)], 1).unwrap();
        assert!(!is_minimal(&inst, &[1, 2, 3, 4, 5]));
        assert!(is_minimal(&inst, &[1, 2, 3, 4]));
        assert!(!is_minimal(&inst, &[1, 2, 3])); // infeasible isn't minimal-feasible
    }
}
