//! The Kumar–Rudra 2-approximation for busy time on interval jobs
//! (Appendix A.1 of the paper; originally a fiber-minimization algorithm).
//!
//! Phase 0 pads every interesting interval's raw demand up to the next
//! multiple of `g` with dummy jobs (this does not change the demand-profile
//! lower bound). Phase 1 assigns every (real or dummy) job to a **level**
//! `ℓ(j) ≤ min_{t ∈ window} |A(t)|` such that at most **two** jobs of the
//! same level overlap at any point — feasible because at any time `t` at
//! most `2k` active jobs can have a window point of demand `≤ k` (only the
//! `k` leftmost-starting and `k` rightmost-ending active jobs can reach
//! such a point). Phase 2 opens **two machines per band** of `g` levels and
//! splits each level's overlap chains by parity (triangle-free interval
//! graphs are bipartite), so each machine runs at most one job per level,
//! i.e. at most `g` jobs, and each band-`i` machine is busy only where the
//! demand is at least `i`. Total cost ≤ 2 × the profile bound ≤ 2·OPT.
//!
//! **Bookkeeping.** The padded profile has the real profile's segments —
//! a dummy spans exactly one of them — with each demand rounded up to a
//! multiple of `g`, so every unit endpoint is a segment boundary and a
//! unit is a run of whole segments, found by binary search. Its level cap
//! is the minimum padded demand over that run. Phase 1 keeps, per level,
//! how many members cover each segment: a unit fits a level iff every
//! segment of its run is covered fewer than twice, the same test as
//! counting the members through each point of the unit. Units go in
//! `(level_cap, start)` order to their lowest fitting level; when that
//! greedy strands a unit, `cover_levels` redoes phase 1. Phase 2 sorts a
//! level's members by start, so an earlier member overlaps the next one
//! exactly when it ends past that start: the parity split keeps the last
//! end per colour. The dummies are materialized, so their number grows
//! with `g`: a padded demand past [`MAX_PADDED_DEMAND`] is refused before
//! phase 0.

use std::ops::Range;

use abt_core::{BusySchedule, DemandProfile, Error, Instance, Interval, JobId, Result, Time};

/// The largest padded demand `Σ_i ⌈D_i/g⌉·g`, summed over the demand
/// profile's segments, that [`kumar_rudra_run`] accepts. Phase 0 adds
/// `⌈D_i/g⌉·g − D_i` dummies per segment and phase 1 keeps
/// `⌈max D/g⌉·g + 1` level lists, both at most this sum, so a larger one
/// (a huge `g`) is refused with [`Error::Unsupported`] before anything is
/// allocated.
pub const MAX_PADDED_DEMAND: u128 = 1 << 24;

/// A unit scheduled by the algorithm: a real job or a padding dummy.
#[derive(Debug, Clone)]
struct Unit {
    iv: Interval,
    job: Option<JobId>,
    level_cap: usize,
    /// The padded-profile segments the unit spans.
    segs: Range<usize>,
}

/// Diagnostic output of a Kumar–Rudra run.
#[derive(Debug, Clone)]
pub struct KumarRudraRun {
    /// The schedule over real jobs.
    pub schedule: BusySchedule,
    /// The demand-profile lower bound it charges (`Σ ⌈|A|/g⌉·ℓ`).
    pub profile_bound: i64,
    /// Number of levels used.
    pub levels: usize,
}

/// Runs Kumar–Rudra on an interval instance.
pub fn kumar_rudra(inst: &Instance) -> Result<BusySchedule> {
    Ok(kumar_rudra_run(inst)?.schedule)
}

/// Runs Kumar–Rudra, returning diagnostics. A padded demand past
/// [`MAX_PADDED_DEMAND`] is refused with [`Error::Unsupported`].
pub fn kumar_rudra_run(inst: &Instance) -> Result<KumarRudraRun> {
    if !inst.is_interval_instance() {
        return Err(Error::Unsupported(
            "kumar_rudra requires interval jobs; use flexible::solve for general jobs".into(),
        ));
    }
    let g = inst.g();
    let (units, level_members, profile_bound) = {
        let _span = abt_core::obs_span!("busy.kr.levels");
        let real: Vec<Interval> = inst.jobs().iter().map(|j| j.window()).collect();
        let profile = DemandProfile::new(&real);
        let padded: u128 = profile
            .segments()
            .iter()
            .map(|&(_, d)| d.div_ceil(g) as u128 * g as u128)
            .sum();
        if padded > MAX_PADDED_DEMAND {
            return Err(Error::Unsupported(format!(
                "Kumar–Rudra would pad the demand profile to {padded} units, \
                 past the limit of {MAX_PADDED_DEMAND}"
            )));
        }
        // Phase 0: pad to multiples of g.
        let units = padded_units(&profile, &real, g);
        // Phase 1: levels.
        let max_level = profile.max_raw_demand().div_ceil(g) * g;
        let segments = profile.segments().len();
        let level_members = greedy_levels(&units, max_level, segments)
            .unwrap_or_else(|| cover_levels(&units, max_level));
        (units, level_members, profile.cost(g))
    };
    let parts = {
        let _span = abt_core::obs_span!("busy.kr.bands");
        band_parts(&units, &level_members, g)?
    };
    Ok(KumarRudraRun {
        schedule: BusySchedule::from_interval_partition(inst, parts),
        profile_bound,
        levels: level_members.len() - 1,
    })
}

/// The real job windows, then the dummies that pad every positive segment
/// of `profile` to a multiple of `g`, each with its run of padded
/// segments and its level cap (the least padded demand on that run).
fn padded_units(profile: &DemandProfile, real: &[Interval], g: usize) -> Vec<Unit> {
    let segments = profile.segments();
    let starts: Vec<Time> = segments.iter().map(|(iv, _)| iv.start).collect();
    let padded: Vec<usize> = segments.iter().map(|&(_, d)| d.div_ceil(g) * g).collect();
    let dummies = profile.padding_to_multiple(g);
    real.iter()
        .map(|&iv| (iv, true))
        .chain(dummies.into_iter().map(|iv| (iv, false)))
        .enumerate()
        .map(|(i, (iv, is_real))| {
            let segs =
                starts.partition_point(|&t| t < iv.start)..starts.partition_point(|&t| t < iv.end);
            let level_cap = padded[segs.clone()].iter().copied().min().unwrap_or(0);
            debug_assert!(level_cap >= 1);
            Unit {
                iv,
                job: is_real.then_some(i),
                level_cap,
                segs,
            }
        })
        .collect()
}

/// Phase 2: two machines per band of `g` levels; each level's members,
/// sorted by start, alternate between the band's two machines wherever
/// they overlap. Returns the non-empty machines' real jobs.
fn band_parts(units: &[Unit], level_members: &[Vec<usize>], g: usize) -> Result<Vec<Vec<JobId>>> {
    let max_level = level_members.len() - 1;
    let mut parts: Vec<Vec<JobId>> = vec![Vec::new(); max_level.div_ceil(g) * 2];
    for (lvl, members) in level_members.iter().enumerate().skip(1) {
        let band = (lvl - 1) / g;
        let mut members: Vec<usize> = members.clone();
        members.sort_by_key(|&ui| (units[ui].iv.start, units[ui].iv.end, ui));
        // Greedy 2-coloring along the sorted order (triangle-free interval
        // graph: a member conflicts only with its still-active
        // predecessors, and a colour's members end in start order).
        let mut last_end = [Time::MIN; 2];
        for &ui in &members {
            let iv = units[ui].iv;
            let used = last_end.map(|end| end > iv.start);
            let color = usize::from(used[0]);
            if used[color] {
                return Err(Error::InvalidInstance(
                    "Kumar–Rudra phase 2: level overlap chain is not 2-colorable".into(),
                ));
            }
            last_end[color] = iv.end;
            if let Some(job) = units[ui].job {
                parts[band * 2 + color].push(job);
            }
        }
    }
    parts.retain(|p| !p.is_empty());
    Ok(parts)
}

/// Phase 1 by `(level_cap, start)`: tightest eligibility first
/// (eligibility sets are prefixes `{1..cap}`), each unit on its lowest
/// level where no segment of its run is already covered twice. `None`
/// when a unit finds no such level within its cap.
fn greedy_levels(units: &[Unit], max_level: usize, segments: usize) -> Option<Vec<Vec<usize>>> {
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&i| (units[i].level_cap, units[i].iv.start, i));
    let mut level_members: Vec<Vec<usize>> = vec![Vec::new(); max_level + 1];
    // Per level, the members covering each segment (allocated on the
    // level's first member).
    let mut cover: Vec<Vec<u8>> = vec![Vec::new(); max_level + 1];
    for &ui in &order {
        let u = &units[ui];
        let lvl = (1..=u.level_cap).find(|&lvl| {
            cover[lvl]
                .get(u.segs.clone())
                .is_none_or(|run| run.iter().all(|&c| c < 2))
        })?;
        let level = &mut cover[lvl];
        if level.is_empty() {
            level.resize(segments, 0);
        }
        for c in &mut level[u.segs.clone()] {
            *c += 1;
        }
        level_members[lvl].push(ui);
    }
    Some(level_members)
}

/// Phase 1 when [`greedy_levels`] gets stuck: level by level, a
/// farthest-reaching greedy cover of the union of the units still
/// unassigned. A greedy cover never picks three intervals through one
/// point, so each level overlaps at most twice; and each level takes at
/// least one unit from every point that still has demand, so a unit whose
/// window dips to demand `cap` is placed by level `cap`.
fn cover_levels(units: &[Unit], max_level: usize) -> Vec<Vec<usize>> {
    let mut rest: Vec<usize> = (0..units.len()).collect();
    rest.sort_by_key(|&i| (units[i].iv.start, i));
    let mut level_members: Vec<Vec<usize>> = vec![Vec::new(); max_level + 1];
    let mut lvl = 0;
    while !rest.is_empty() {
        lvl += 1;
        let mut picked = vec![false; rest.len()];
        let mut reach = i64::MIN;
        let mut k = 0;
        loop {
            // Among the units starting by `reach`, the one reaching farthest.
            let mut best: Option<usize> = None;
            while k < rest.len() && units[rest[k]].iv.start <= reach {
                let end = units[rest[k]].iv.end;
                if end > reach && best.is_none_or(|b| end > units[rest[b]].iv.end) {
                    best = Some(k);
                }
                k += 1;
            }
            match best {
                Some(b) => {
                    picked[b] = true;
                    reach = units[rest[b]].iv.end;
                }
                None if k < rest.len() => reach = units[rest[k]].iv.start,
                None => break,
            }
        }
        let mut left = Vec::with_capacity(rest.len());
        for (&ui, on_level) in rest.iter().zip(picked) {
            if on_level {
                debug_assert!(lvl <= units[ui].level_cap);
                level_members[lvl].push(ui);
            } else {
                left.push(ui);
            }
        }
        rest = left;
    }
    level_members
}

#[cfg(test)]
mod tests {
    use super::*;
    use abt_core::{within_factor, Job};

    fn interval_inst(ivs: &[(i64, i64)], g: usize) -> Instance {
        Instance::new(ivs.iter().map(|&(a, b)| Job::interval(a, b)).collect(), g).unwrap()
    }

    fn check(inst: &Instance) -> KumarRudraRun {
        let run = kumar_rudra_run(inst).unwrap();
        run.schedule.validate(inst).unwrap();
        let cost = run.schedule.total_busy_time(inst);
        assert!(
            within_factor(cost, 2, run.profile_bound),
            "KR cost {cost} > 2×profile {}",
            run.profile_bound
        );
        run
    }

    #[test]
    fn identical_jobs_one_band() {
        let inst = interval_inst(&[(0, 4); 4], 2);
        let run = check(&inst);
        assert!(run.schedule.total_busy_time(&inst) <= 8);
    }

    #[test]
    fn disjoint_jobs_single_level() {
        let inst = interval_inst(&[(0, 2), (3, 5), (6, 8)], 2);
        let run = check(&inst);
        assert_eq!(run.levels, 2); // padding doubles the singleton demand
        assert_eq!(run.schedule.total_busy_time(&inst), 6);
    }

    #[test]
    fn figure8_instance() {
        // Fig. 8 with ε = 4, ε' = 1, unit = 16 ticks, g = 2:
        // jobs: [0,16), [0,16+1), [16,16+4), [16+1,16+4), [16+1,16+4-1)...
        // Simplified faithful shape: two unit jobs, one ε job, one ε' job,
        // one ε−ε' job arranged as in the figure.
        let unit = 16;
        let e = 4;
        let e1 = 1;
        let ivs = vec![
            (0, unit),             // length 1
            (0, unit + e1),        // length 1 + ε'
            (unit, unit + e),      // length ε
            (unit + e1, unit + e), // length ε − ε'
        ];
        let inst = interval_inst(&ivs, 2);
        check(&inst);
    }

    #[test]
    fn staircase_and_nested_mixes() {
        let cases = [
            vec![(0, 5), (2, 7), (4, 9), (6, 11), (8, 13)],
            vec![(0, 10), (1, 9), (2, 8), (3, 7), (4, 6)],
            vec![(0, 4), (0, 4), (2, 6), (2, 6), (4, 8), (4, 8)],
        ];
        for ivs in cases {
            for g in 1..=4 {
                let inst = interval_inst(&ivs, g);
                check(&inst);
            }
        }
    }

    #[test]
    fn pseudorandom_two_approx_sweep() {
        let mut state = 0xFEEDu64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..40 {
            let n = 2 + next(8) as usize;
            let g = 1 + next(4) as usize;
            let mut ivs = Vec::new();
            for _ in 0..n {
                let r = next(12) as i64;
                let len = 1 + next(6) as i64;
                ivs.push((r, r + len));
            }
            let inst = interval_inst(&ivs, g);
            check(&inst);
        }
    }

    #[test]
    fn greedy_dead_end_falls_back_to_cover_levels() {
        // The (level_cap, start) greedy strands a unit here, though a valid
        // assignment exists: level 1 holds [5,9) [8,12) [11,16) [14,18),
        // level 2 holds [7,9) [8,12) [11,15).
        let ivs = [
            (8, 12),
            (14, 18),
            (7, 9),
            (8, 12),
            (11, 15),
            (11, 16),
            (5, 9),
        ];
        let inst = interval_inst(&ivs, 1);
        let run = check(&inst);
        assert_eq!(run.schedule.total_busy_time(&inst), 27);
        assert_eq!(run.schedule.machine_count(), 4);
        let lp = crate::lp_rounding::lp_rounding_run(&inst).unwrap();
        assert_eq!(lp.cost, 27);
    }

    #[test]
    fn rejects_flexible() {
        let inst = Instance::from_triples([(0, 9, 3)], 2).unwrap();
        assert!(matches!(kumar_rudra(&inst), Err(Error::Unsupported(_))));
    }
}
