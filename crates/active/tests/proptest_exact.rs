//! The exact search against brute force. On random tiny instances
//! (horizon at most 10 slots, at most 6 jobs, `g` from 1 to 3), feasible
//! and infeasible alike, `exact_active_time` must answer what enumerating
//! the horizon's slot subsets by increasing size answers, each subset
//! checked with `feasible_on`: the same optimum, or `Infeasible` exactly
//! when not even the whole horizon fits. Its schedule must validate and
//! open exactly the slots it returns.

use abt_active::{exact_active_time, feasible_on};
use abt_core::{Error, Instance, Time};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The fewest slots of `(0, horizon]` that `inst` fits into, found by
/// trying every subset in order of size; `None` if no subset fits.
fn brute_force(inst: &Instance, horizon: Time) -> Option<u32> {
    let mut masks: Vec<u32> = (0..1 << horizon).collect();
    masks.sort_by_key(|mask| mask.count_ones());
    masks
        .into_iter()
        .find(|&mask| {
            let slots: Vec<Time> = (1..=horizon).filter(|t| mask >> (t - 1) & 1 == 1).collect();
            feasible_on(inst, &slots)
        })
        .map(u32::count_ones)
}

/// Jobs in `(0, horizon]` from raw draws: release, deadline and length
/// folded into a valid window.
fn instance(horizon: i64, g: usize, raw: &[(i64, i64, i64)]) -> Instance {
    let jobs = raw.iter().map(|&(a, b, c)| {
        let r = a % horizon;
        let d = r + 1 + b % (horizon - r);
        (r, d, 1 + c % (d - r))
    });
    Instance::from_triples(jobs, g).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn exact_matches_brute_force(
        horizon in 1i64..11,
        g in 1usize..4,
        raw in proptest::collection::vec((0i64..10, 0i64..10, 0i64..10), 0..7),
    ) {
        let inst = instance(horizon, g, &raw);
        match (exact_active_time(&inst, None), brute_force(&inst, horizon)) {
            (Ok(res), Some(opt)) => {
                prop_assert_eq!(res.slots.len(), opt as usize, "{:?}", inst);
                prop_assert!(res.schedule.validate(&inst).is_ok(), "{:?}", res.schedule);
                let opened: BTreeSet<Time> = res.slots.iter().copied().collect();
                prop_assert_eq!(res.schedule.active_slots(), &opened);
            }
            (Err(Error::Infeasible(_)), None) => {}
            (got, want) => prop_assert!(false, "{:?}: exact {:?}, brute force {:?}", inst, got, want),
        }
    }
}
