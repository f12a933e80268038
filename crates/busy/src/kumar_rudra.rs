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

#![allow(clippy::needless_range_loop)] // levels are 1-based indices into level_members

use abt_core::{BusySchedule, DemandProfile, Error, Instance, Interval, JobId, Result};

/// A unit scheduled by the algorithm: a real job or a padding dummy.
#[derive(Debug, Clone, Copy)]
struct Unit {
    iv: Interval,
    job: Option<JobId>,
    level_cap: usize,
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

/// Runs Kumar–Rudra, returning diagnostics.
pub fn kumar_rudra_run(inst: &Instance) -> Result<KumarRudraRun> {
    if !inst.is_interval_instance() {
        return Err(Error::Unsupported(
            "kumar_rudra requires interval jobs; use flexible::solve for general jobs".into(),
        ));
    }
    let g = inst.g();
    let real: Vec<Interval> = inst.jobs().iter().map(|j| j.window()).collect();
    let profile = DemandProfile::new(&real);
    let profile_bound = profile.cost(g);

    // Phase 0: pad to multiples of g.
    let dummies = profile.padding_to_multiple(g);
    let (schedule, levels) = level_band_pack(inst, &real, &dummies)?;
    Ok(KumarRudraRun {
        schedule,
        profile_bound,
        levels,
    })
}

/// Phases 1–2 of Kumar–Rudra: given the real job windows and a set of
/// padding dummies whose union profile has demand a multiple of `g` on
/// every positive segment, assign levels (≤ 2 overlapping units per
/// level), open two machines per band of `g` levels, and parity-split
/// each level. Returns the schedule over real jobs and the number of
/// levels used.
fn level_band_pack(
    inst: &Instance,
    real: &[Interval],
    dummies: &[Interval],
) -> Result<(BusySchedule, usize)> {
    let g = inst.g();
    let mut all: Vec<Interval> = real.to_vec();
    all.extend_from_slice(dummies);
    let padded_profile = DemandProfile::new(&all);

    let mut units: Vec<Unit> = Vec::with_capacity(all.len());
    for (i, &iv) in all.iter().enumerate() {
        let job = if i < real.len() { Some(i) } else { None };
        // Level cap: the min raw demand over the unit's interval (padded).
        let cap = padded_profile
            .segments()
            .iter()
            .filter(|(seg, _)| seg.overlaps(&iv))
            .map(|&(_, d)| d)
            .min()
            .unwrap_or(0);
        debug_assert!(cap >= 1);
        units.push(Unit {
            iv,
            job,
            level_cap: cap,
        });
    }

    // Phase 1: levels.
    let max_level = padded_profile.max_raw_demand();
    let level_members =
        greedy_levels(&units, max_level).unwrap_or_else(|| cover_levels(&units, max_level));

    // Phase 2: two machines per band of g levels; parity-split each level.
    let bands = max_level.div_ceil(g);
    let mut parts: Vec<Vec<JobId>> = vec![Vec::new(); bands * 2];
    for lvl in 1..=max_level {
        let band = (lvl - 1) / g;
        let mut members: Vec<usize> = level_members[lvl].clone();
        members.sort_by_key(|&ui| (units[ui].iv.start, units[ui].iv.end, ui));
        // Greedy 2-coloring along the sorted order (triangle-free interval
        // graph: a member conflicts only with its still-active predecessor).
        let mut color = vec![0u8; members.len()];
        for (k, &ui) in members.iter().enumerate() {
            let mut used = [false, false];
            for (k2, &uj) in members.iter().enumerate().take(k) {
                if units[uj].iv.overlaps(&units[ui].iv) {
                    used[color[k2] as usize] = true;
                }
            }
            color[k] = if used[0] { 1 } else { 0 };
            if used[color[k] as usize] {
                return Err(Error::InvalidInstance(
                    "Kumar–Rudra phase 2: level overlap chain is not 2-colorable".into(),
                ));
            }
        }
        for (k, &ui) in members.iter().enumerate() {
            if let Some(job) = units[ui].job {
                parts[band * 2 + color[k] as usize].push(job);
            }
        }
    }
    parts.retain(|p| !p.is_empty());
    let schedule = BusySchedule::from_interval_partition(inst, parts);
    Ok((schedule, max_level))
}

/// Phase 1 by `(level_cap, start)`: tightest eligibility first
/// (eligibility sets are prefixes `{1..cap}`), each unit on its lowest
/// level where at most one member already covers any of its points.
/// `None` when a unit finds no such level within its cap.
fn greedy_levels(units: &[Unit], max_level: usize) -> Option<Vec<Vec<usize>>> {
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&i| (units[i].level_cap, units[i].iv.start, i));
    let mut level_members: Vec<Vec<usize>> = vec![Vec::new(); max_level + 1];
    for &ui in &order {
        let u = units[ui];
        let lvl = (1..=u.level_cap)
            .find(|&lvl| max_overlap_within(&level_members[lvl], units, u.iv) < 2)?;
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

/// Maximum number of `members` (plus the candidate) simultaneously covering
/// a point of `iv`, counting only existing members.
fn max_overlap_within(members: &[usize], units: &[Unit], iv: Interval) -> usize {
    let mut events: Vec<(i64, i32)> = Vec::new();
    let mut base = 0i32;
    for &ui in members {
        let o = units[ui].iv;
        if !o.overlaps(&iv) {
            continue;
        }
        if o.start <= iv.start {
            base += 1;
        } else {
            events.push((o.start, 1));
        }
        if o.end < iv.end {
            events.push((o.end, -1));
        }
    }
    events.sort_unstable();
    let mut cur = base;
    let mut peak = base;
    for (_, d) in events {
        cur += d;
        peak = peak.max(cur);
    }
    peak.max(0) as usize
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
