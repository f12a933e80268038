//! The active-time lower bound between the covering loop it replaced and
//! the optimum. On random small instances (horizon at most 12 slots, at
//! most 8 jobs, `g` from 1 to 3), `active_lower_bound` must be at least
//! the old bound, `max(⌈P/g⌉, c)` with `c` the largest `⌈inside(a, b)/g⌉`
//! over every (release, deadline) pair, and at most the optimum of
//! `exact_active_time` when the instance is feasible.

use abt_active::exact_active_time;
use abt_core::{active_lower_bound, Error, Instance};
use proptest::prelude::*;

/// The bound `active_lower_bound` used to compute: `⌈P/g⌉`, raised by
/// the jobs whose windows lie inside each window-endpoint pair `[a, b]`.
fn covering_loop(inst: &Instance) -> i64 {
    let g = i64::try_from(inst.g()).unwrap_or(i64::MAX);
    let div_ceil = |a: i64| a / g + i64::from(a % g != 0);
    let mut best = div_ceil(inst.total_length());
    let mut lefts: Vec<i64> = inst.jobs().iter().map(|j| j.release).collect();
    let mut rights: Vec<i64> = inst.jobs().iter().map(|j| j.deadline).collect();
    lefts.sort_unstable();
    lefts.dedup();
    rights.sort_unstable();
    rights.dedup();
    for &a in &lefts {
        for &b in &rights {
            if b <= a {
                continue;
            }
            let inside: i64 = inst
                .jobs()
                .iter()
                .filter(|j| j.release >= a && j.deadline <= b)
                .map(|j| j.length)
                .sum();
            if inside > 0 {
                best = best.max(div_ceil(inside));
            }
        }
    }
    best
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
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn component_bound_lies_between_the_covering_loop_and_opt(
        horizon in 1i64..13,
        g in 1usize..4,
        raw in proptest::collection::vec((0i64..12, 0i64..12, 0i64..12), 0..9),
    ) {
        let inst = instance(horizon, g, &raw);
        let bound = active_lower_bound(&inst);
        prop_assert!(covering_loop(&inst) <= bound, "{:?}: {}", inst, bound);
        match exact_active_time(&inst, None) {
            Ok(res) => prop_assert!(bound <= res.slots.len() as i64, "{:?}: {}", inst, bound),
            Err(Error::Infeasible(_)) => {}
            Err(e) => prop_assert!(false, "{:?}: {}", inst, e),
        }
    }
}
