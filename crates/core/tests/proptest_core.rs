#![allow(clippy::needless_range_loop)] // index loops mirror the models

//! Model-based property tests for the core substrate: the interval-set
//! union against a boolean-array model, the demand profile against naive
//! per-tick counting, and the instance text format round-trip.

use abt_core::{io, DemandProfile, Instance, Interval, IntervalSet, Job};
use proptest::prelude::*;

const HORIZON: usize = 64;

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0i64..HORIZON as i64 - 1).prop_flat_map(|s| {
        (Just(s), (s + 1)..HORIZON as i64).prop_map(|(s, e)| Interval::new(s, e))
    })
}

proptest! {
    #[test]
    fn interval_set_matches_boolean_model(
        ivs in proptest::collection::vec(interval_strategy(), 0..20)
    ) {
        let set = IntervalSet::from_intervals(ivs.iter().copied());
        // Boolean-array model over unit ticks.
        let mut model = [false; HORIZON];
        for iv in &ivs {
            for t in iv.start..iv.end {
                model[t as usize] = true;
            }
        }
        prop_assert_eq!(set.measure(), model.iter().filter(|&&b| b).count() as i64);
        for t in 0..HORIZON {
            prop_assert_eq!(set.contains(t as i64), model[t], "tick {}", t);
        }
        // Components are disjoint, sorted, non-adjacent.
        for w in set.components().windows(2) {
            prop_assert!(w[0].end < w[1].start);
        }
        // Incremental insertion builds the same set.
        let mut inc = IntervalSet::new();
        for iv in &ivs {
            inc.insert(*iv);
        }
        prop_assert_eq!(inc, set);
    }

    #[test]
    fn demand_profile_matches_tick_counting(
        ivs in proptest::collection::vec(interval_strategy(), 0..16),
        g in 1usize..5,
    ) {
        let profile = DemandProfile::new(&ivs);
        let mut count = [0usize; HORIZON];
        for iv in &ivs {
            for t in iv.start..iv.end {
                count[t as usize] += 1;
            }
        }
        for t in 0..HORIZON {
            prop_assert_eq!(profile.raw_demand_at(t as i64), count[t], "tick {}", t);
        }
        let naive_cost: i64 = count.iter().map(|&c| c.div_ceil(g) as i64).sum();
        prop_assert_eq!(profile.cost(g), naive_cost);
        let naive_mass: i64 = count.iter().map(|&c| c as i64).sum();
        prop_assert_eq!(profile.mass(), naive_mass);
        let naive_span: i64 = count.iter().filter(|&&c| c > 0).count() as i64;
        prop_assert_eq!(profile.span(), naive_span);
        // Padding invariant.
        let mut padded = ivs.clone();
        padded.extend(profile.padding_to_multiple(g));
        let pp = DemandProfile::new(&padded);
        prop_assert_eq!(pp.cost(g), profile.cost(g));
        for &(_, d) in pp.segments() {
            prop_assert_eq!(d % g, 0);
        }
    }

    #[test]
    fn instance_text_roundtrip(
        jobs in proptest::collection::vec((0i64..50, 1i64..10, 0i64..10), 1..20),
        g in 1usize..8,
    ) {
        let inst = Instance::new(
            jobs.iter().map(|&(r, p, s)| Job::new(r, r + p + s, p)).collect(),
            g,
        ).unwrap();
        let text = io::write_instance(&inst);
        let back = io::read_instance(&text).unwrap();
        prop_assert_eq!(inst, back);
    }

    #[test]
    fn schedule_validator_accepts_its_own_trivial_schedule(
        jobs in proptest::collection::vec((0i64..20, 1i64..5), 1..8),
    ) {
        // One machine per job is always a valid busy schedule.
        let inst = Instance::new(
            jobs.iter().map(|&(r, p)| Job::interval(r, r + p)).collect(),
            1,
        ).unwrap();
        let parts: Vec<Vec<usize>> = (0..inst.len()).map(|j| vec![j]).collect();
        let sched = abt_core::BusySchedule::from_interval_partition(&inst, parts);
        prop_assert!(sched.validate(&inst).is_ok());
        prop_assert_eq!(sched.total_busy_time(&inst), inst.total_length());
    }
}
