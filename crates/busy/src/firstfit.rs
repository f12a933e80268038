//! `FIRSTFIT` for interval jobs — the 4-approximation baseline of
//! Flammini et al. \[5\] that `GREEDYTRACKING` improves on.
//!
//! Jobs are considered in non-increasing order of length; each is placed in
//! the first (lowest-index) bundle where its whole interval keeps the
//! simultaneous-job count at most `g`, opening a new bundle if none fits.
//!
//! The module also provides the order-by-release variant, which Flammini et
//! al. prove 2-approximate on **proper** instances (footnote 1).

use abt_core::{BusySchedule, Error, Instance, Interval, JobId, Result};

/// Job orderings for FirstFit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstFitOrder {
    /// Non-increasing length (the classic 4-approximation).
    LengthDesc,
    /// Non-decreasing release time (2-approximate on proper instances).
    ByRelease,
}

/// A bundle under construction: the intervals it already carries.
#[derive(Debug, Default, Clone)]
struct OpenBundle {
    ids: Vec<JobId>,
    intervals: Vec<Interval>,
}

/// Whether an interval of weight `w` fits over `iv` on a machine of
/// capacity `g` that already runs the weighted intervals `running`: the
/// peak total weight of `running` inside `iv` is at most `g − w`.
/// Intervals are half-open, so one that ends where another starts never
/// runs beside it. The one fit check of FirstFit (weight 1), its online
/// variant and the width-aware FirstFit (weight `w_j`); written as
/// `peak ≤ g − w`, it cannot overflow at any `g`.
pub(crate) fn fits(
    running: impl IntoIterator<Item = (Interval, usize)>,
    iv: Interval,
    w: usize,
    g: usize,
) -> bool {
    let Some(room) = g.checked_sub(w) else {
        return false;
    };
    // The weight running at `iv.start`, then every start and end inside
    // `iv`; at one instant the ends (`false`) sort before the starts.
    let mut base = 0;
    let mut events: Vec<(i64, bool, usize)> = Vec::new();
    for (other, wo) in running {
        if !other.overlaps(&iv) {
            continue;
        }
        if other.start <= iv.start {
            base += wo;
        } else {
            events.push((other.start, true, wo));
        }
        if other.end < iv.end {
            events.push((other.end, false, wo));
        }
    }
    if base > room {
        return false;
    }
    events.sort_unstable();
    let mut cur = base;
    for (_, start, wo) in events {
        if start {
            cur += wo;
            if cur > room {
                return false;
            }
        } else {
            cur -= wo;
        }
    }
    true
}

/// Runs FirstFit on an interval instance. Errors on flexible jobs (convert
/// them first via the span placement, see `flexible`).
pub fn first_fit(inst: &Instance, order: FirstFitOrder) -> Result<BusySchedule> {
    if !inst.is_interval_instance() {
        return Err(Error::Unsupported(
            "first_fit requires interval jobs; use flexible::solve for general jobs".into(),
        ));
    }
    let ids = match order {
        FirstFitOrder::LengthDesc => inst.ids_by_length_desc(),
        FirstFitOrder::ByRelease => {
            let mut v: Vec<JobId> = (0..inst.len()).collect();
            v.sort_by_key(|&i| (inst.job(i).release, inst.job(i).deadline, i));
            v
        }
    };
    let g = inst.g();
    let mut bundles: Vec<OpenBundle> = Vec::new();
    for id in ids {
        let iv = inst.job(id).window();
        let target = bundles
            .iter_mut()
            .find(|b| fits(b.intervals.iter().map(|&o| (o, 1)), iv, 1, g));
        match target {
            Some(b) => {
                b.ids.push(id);
                b.intervals.push(iv);
            }
            None => bundles.push(OpenBundle {
                ids: vec![id],
                intervals: vec![iv],
            }),
        }
    }
    Ok(BusySchedule::from_interval_partition(
        inst,
        bundles.into_iter().map(|b| b.ids).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use abt_core::{busy_lower_bounds, within_factor, Job};

    fn interval_inst(ivs: &[(i64, i64)], g: usize) -> Instance {
        Instance::new(ivs.iter().map(|&(a, b)| Job::interval(a, b)).collect(), g).unwrap()
    }

    #[test]
    fn fills_one_machine_up_to_g() {
        let inst = interval_inst(&[(0, 4), (0, 4), (0, 4)], 3);
        let s = first_fit(&inst, FirstFitOrder::LengthDesc).unwrap();
        s.validate(&inst).unwrap();
        assert_eq!(s.machine_count(), 1);
        assert_eq!(s.total_busy_time(&inst), 4);
    }

    #[test]
    fn overflows_to_second_machine() {
        let inst = interval_inst(&[(0, 4), (0, 4), (0, 4)], 2);
        let s = first_fit(&inst, FirstFitOrder::LengthDesc).unwrap();
        s.validate(&inst).unwrap();
        assert_eq!(s.machine_count(), 2);
        assert_eq!(s.total_busy_time(&inst), 8);
    }

    #[test]
    fn length_order_packs_long_jobs_together() {
        // Long jobs [0,10)×2 and short [4,5)×2 with g=2: FirstFit puts the
        // two long together and the two short together: 10 + 1 = 11.
        let inst = interval_inst(&[(0, 10), (0, 10), (4, 5), (4, 5)], 2);
        let s = first_fit(&inst, FirstFitOrder::LengthDesc).unwrap();
        assert_eq!(s.total_busy_time(&inst), 11);
    }

    #[test]
    fn respects_four_approximation_on_samples() {
        let cases = [
            vec![(0, 4), (1, 6), (2, 8), (5, 9), (0, 2), (7, 9)],
            vec![(0, 10), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7)],
        ];
        for ivs in cases {
            for g in 1..=3 {
                let inst = interval_inst(&ivs, g);
                let s = first_fit(&inst, FirstFitOrder::LengthDesc).unwrap();
                s.validate(&inst).unwrap();
                let lb = busy_lower_bounds(&inst).best();
                assert!(
                    within_factor(s.total_busy_time(&inst), 4, lb),
                    "FF > 4×LB on {ivs:?} g={g}"
                );
            }
        }
    }

    #[test]
    fn by_release_on_proper_instance() {
        // Proper: no window contains another.
        let inst = interval_inst(&[(0, 5), (2, 7), (4, 9), (6, 11)], 2);
        let s = first_fit(&inst, FirstFitOrder::ByRelease).unwrap();
        s.validate(&inst).unwrap();
        let lb = busy_lower_bounds(&inst).best();
        assert!(within_factor(s.total_busy_time(&inst), 2, lb));
    }

    #[test]
    fn rejects_flexible_jobs() {
        let inst = Instance::from_triples([(0, 10, 3)], 2).unwrap();
        assert!(matches!(
            first_fit(&inst, FirstFitOrder::LengthDesc),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn fits_matches_a_count_at_every_point() {
        // The sweep against its definition: at every integer point of `iv`
        // the weight already running there, plus `w`, stays within `g`.
        let mut state = 0x5EEDu64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..2000 {
            let draw = |next: &mut dyn FnMut(u64) -> u64| {
                let start = next(10) as i64;
                Interval::new(start, start + 1 + next(6) as i64)
            };
            let running: Vec<(Interval, usize)> = (0..next(6))
                .map(|_| (draw(&mut next), 1 + next(3) as usize))
                .collect();
            let iv = draw(&mut next);
            let (w, g) = (1 + next(3) as usize, 1 + next(7) as usize);
            let at_every_point = (iv.start..iv.end).all(|t| {
                let load: usize = running
                    .iter()
                    .filter(|(o, _)| o.start <= t && t < o.end)
                    .map(|&(_, wo)| wo)
                    .sum();
                load + w <= g
            });
            assert_eq!(
                fits(running.iter().copied(), iv, w, g),
                at_every_point,
                "{running:?} {iv:?} w={w} g={g}"
            );
        }
    }

    #[test]
    fn capacity_one_gives_one_job_per_busy_interval() {
        let inst = interval_inst(&[(0, 4), (2, 6), (4, 8)], 1);
        let s = first_fit(&inst, FirstFitOrder::LengthDesc).unwrap();
        s.validate(&inst).unwrap();
        // Jobs 0 and 2 are disjoint and share a machine; job 1 overlaps both.
        assert_eq!(s.machine_count(), 2);
        assert_eq!(s.total_busy_time(&inst), 8 + 4);
    }
}
