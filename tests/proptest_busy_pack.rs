//! Kumar–Rudra, Alicherry–Bhatia and LP rounding against test-only
//! oracles: the implementations their sweeps replaced, kept here verbatim.
//!
//! The shipping Kumar–Rudra reads each unit's level cap from a binary
//! search into the padded profile, tests a level against per-segment
//! coverage counts, and parity-splits a level by the last end per colour;
//! the shipping Alicherry–Bhatia reads idle-arc demands from a difference
//! array, a path edge's job from its index, and filters the remaining jobs
//! through a taken mask. None of that may change an answer: on every
//! generated instance, `kumar_rudra_run`, `alicherry_bhatia_run` and
//! `lp_rounding_run` must return the oracle's bundles item for item, the
//! same `levels`, `rounds` and `profile_bound`, and the same error
//! wherever the oracle errs.
//!
//! Three families, as in `proptest_span_exact.rs`: the `busy_flexible`
//! benchmark's shape placed by `span_place` (n = 100, g = 3, lengths ≤ 16,
//! horizon 400), small mixed instances placed the same way (n ≤ 40, g 1–4),
//! and interval-only instances (n ≤ 40, g 1–4). The 7-job instance on which
//! Kumar–Rudra's `(level_cap, start)` greedy strands a unit pins the
//! `cover_levels` fallback.

#![allow(clippy::needless_range_loop)] // the oracle's levels are 1-based indices

use abt_busy::{alicherry_bhatia_run, kumar_rudra_run, lp_rounding_run, span_place, KumarRudraRun};
use abt_core::{Error, Instance, Job};
use proptest::prelude::*;

/// The Kumar–Rudra oracle: per-unit profile scans for the level caps,
/// `max_overlap_within` for phase 1, the O(members²) parity split.
mod kr_oracle {
    use abt_busy::KumarRudraRun;
    use abt_core::{BusySchedule, DemandProfile, Error, Instance, Interval, JobId, Result};

    /// A unit scheduled by the algorithm: a real job or a padding dummy.
    #[derive(Debug, Clone, Copy)]
    struct Unit {
        iv: Interval,
        job: Option<JobId>,
        level_cap: usize,
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
}

/// The Alicherry–Bhatia oracle: `raw_demand_at` per idle arc, the
/// `arc_jobs` scan per path edge, the `contains` retain.
mod ab_oracle {
    use abt_busy::AlicherryBhatiaRun;
    use abt_core::{BusySchedule, DemandProfile, Error, Instance, Interval, JobId, Result, Time};
    use abt_flow::{decompose_unit_paths, max_flow_limited, FlowGraph};

    /// Runs Alicherry–Bhatia, returning diagnostics.
    pub fn alicherry_bhatia_run(inst: &Instance) -> Result<AlicherryBhatiaRun> {
        if !inst.is_interval_instance() {
            return Err(Error::Unsupported(
                "alicherry_bhatia requires interval jobs; use flexible::solve for general jobs"
                    .into(),
            ));
        }
        let g = inst.g();
        let profile_bound =
            DemandProfile::new(&inst.jobs().iter().map(|j| j.window()).collect::<Vec<_>>()).cost(g);

        let mut remaining: Vec<JobId> = (0..inst.len()).collect();
        let mut parts: Vec<Vec<JobId>> = Vec::new();
        let mut rounds = 0usize;
        while !remaining.is_empty() {
            rounds += 1;
            let mut bundle_a: Vec<JobId> = Vec::new();
            let mut bundle_b: Vec<JobId> = Vec::new();
            for _ in 0..g {
                if remaining.is_empty() {
                    break;
                }
                let (track_a, track_b) = extract_two_tracks(inst, &remaining);
                if track_a.is_empty() && track_b.is_empty() {
                    break; // both paths all-idle: demand exhausted
                }
                for &j in &track_a {
                    bundle_a.push(j);
                }
                for &j in &track_b {
                    bundle_b.push(j);
                }
                remaining.retain(|j| !track_a.contains(j) && !track_b.contains(j));
            }
            if !bundle_a.is_empty() {
                parts.push(bundle_a);
            }
            if !bundle_b.is_empty() {
                parts.push(bundle_b);
            }
        }
        let schedule = BusySchedule::from_interval_partition(inst, parts);
        Ok(AlicherryBhatiaRun {
            schedule,
            profile_bound,
            rounds,
        })
    }

    /// Builds the event graph of `jobs` and extracts one 2-unit flow, returning
    /// the job sets of the two unit paths.
    fn extract_two_tracks(inst: &Instance, jobs: &[JobId]) -> (Vec<JobId>, Vec<JobId>) {
        // Event times.
        let mut events: Vec<Time> = Vec::with_capacity(jobs.len() * 2);
        for &j in jobs {
            events.push(inst.job(j).release);
            events.push(inst.job(j).deadline);
        }
        events.sort_unstable();
        events.dedup();
        if events.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let node_of = |t: Time| -> usize { events.binary_search(&t).unwrap() };
        let profile = DemandProfile::new(
            &jobs
                .iter()
                .map(|&j| inst.job(j).window())
                .collect::<Vec<_>>(),
        );

        let mut graph = FlowGraph::new(events.len());
        // Job arcs.
        let mut arc_jobs: Vec<(usize, JobId)> = Vec::new(); // (edge id, job)
        for &j in jobs {
            let e = graph.add_edge(
                node_of(inst.job(j).release),
                node_of(inst.job(j).deadline),
                1,
            );
            arc_jobs.push((e, j));
        }
        // Idle arcs between consecutive events: capacity 2 across zero-demand
        // gaps, 1 inside the support (so at every positive-demand point at most
        // one of the two unit paths idles — i.e. at least one is in a job, which
        // is exactly the "reduce demand by ≥ 1 everywhere" property).
        for w in 0..events.len() - 1 {
            let seg = Interval::new(events[w], events[w + 1]);
            let demand = profile.raw_demand_at(seg.start) as i64;
            let cap = if demand == 0 { 2 } else { 1 };
            graph.add_edge(w, w + 1, cap);
        }
        let s = 0;
        let t = events.len() - 1;
        let flow = max_flow_limited(&mut graph, s, t, Some(2));
        debug_assert_eq!(flow.value, 2, "event graph always carries a 2-flow");
        let paths = decompose_unit_paths(&mut graph, s, t);
        let mut tracks: Vec<Vec<JobId>> = paths
            .iter()
            .map(|p| {
                p.iter()
                    .filter_map(|&e| arc_jobs.iter().find(|&&(ae, _)| ae == e).map(|&(_, j)| j))
                    .collect()
            })
            .collect();
        tracks.resize(2, Vec::new());
        let b = tracks.pop().unwrap();
        let a = tracks.pop().unwrap();
        (a, b)
    }
}

/// Kumar–Rudra, Alicherry–Bhatia and LP rounding on `inst`, each against
/// its oracle.
fn check(inst: &Instance) -> Result<(), TestCaseError> {
    let want_kr = kr_oracle::kumar_rudra_run(inst);
    check_kr(kumar_rudra_run(inst), &want_kr, "kumar_rudra_run")?;
    // LP rounding packs with Kumar–Rudra; its own Unsupported message
    // names it, every other error is Kumar–Rudra's.
    let lp = lp_rounding_run(inst).map(|run| KumarRudraRun {
        schedule: run.schedule,
        profile_bound: run.profile_bound,
        levels: run.levels,
    });
    match (&lp, &want_kr) {
        (Err(Error::Unsupported(_)), Err(Error::Unsupported(_))) => {}
        _ => check_kr(lp, &want_kr, "lp_rounding_run")?,
    }
    let got = alicherry_bhatia_run(inst);
    let want = ab_oracle::alicherry_bhatia_run(inst);
    match (&got, &want) {
        (Ok(got), Ok(want)) => {
            prop_assert_eq!(
                &got.schedule,
                &want.schedule,
                "alicherry_bhatia_run bundles"
            );
            prop_assert_eq!(got.rounds, want.rounds);
            prop_assert_eq!(got.profile_bound, want.profile_bound);
        }
        (Err(got), Err(want)) => prop_assert_eq!(got, want),
        _ => prop_assert!(
            false,
            "alicherry_bhatia_run: {got:?} but the oracle gave {want:?}"
        ),
    }
    Ok(())
}

fn check_kr(
    got: abt_core::Result<KumarRudraRun>,
    want: &abt_core::Result<KumarRudraRun>,
    name: &str,
) -> Result<(), TestCaseError> {
    match (&got, want) {
        (Ok(got), Ok(want)) => {
            prop_assert_eq!(&got.schedule, &want.schedule, "{} bundles", name);
            prop_assert_eq!(got.levels, want.levels, "{} levels", name);
            prop_assert_eq!(
                got.profile_bound,
                want.profile_bound,
                "{} profile bound",
                name
            );
        }
        (Err(got), Err(want)) => prop_assert_eq!(got, want, "{} error", name),
        _ => prop_assert!(false, "{name}: {got:?} but the oracle gave {want:?}"),
    }
    Ok(())
}

/// [`check`] on `inst` as given (a flexible one must fail alike), then on
/// the interval instance of its minimum-span placement.
fn check_placed(inst: &Instance) -> Result<(), TestCaseError> {
    check(inst)?;
    let placement = span_place(inst);
    check(
        &inst
            .fix_starts(&placement.starts)
            .expect("placements are feasible"),
    )
}

/// Jobs from raw `(p, slack seed, release seed)` draws: the slack falls
/// in the inclusive range `slack(p)`, and the release is uniform so the
/// window ends by `horizon` when it fits, at 0 otherwise.
fn jobs_from(
    draws: &[(i64, u64, u64)],
    horizon: i64,
    slack: impl Fn(i64) -> (i64, i64),
) -> Vec<Job> {
    draws
        .iter()
        .map(|&(p, s, r)| {
            let (lo, hi) = slack(p);
            let w = p + lo + (s % (hi - lo + 1) as u64) as i64;
            let r = (r % ((horizon - w).max(0) + 1) as u64) as i64;
            Job::new(r, r + w, p)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_oracles_on_benchmark_shaped_placements(
        draws in proptest::collection::vec((1i64..17, 0u64..1 << 32, 0u64..1 << 32), 100),
    ) {
        let jobs = jobs_from(&draws, 400, |p| (p / 2, (3 * p) / 2));
        check_placed(&Instance::new(jobs, 3).unwrap())?;
    }

    #[test]
    fn matches_oracles_on_small_placements(
        draws in proptest::collection::vec((1i64..13, 0u64..1 << 32, 0u64..1 << 32), 1..41),
        horizon in 10i64..121,
        g in 1usize..5,
    ) {
        let jobs = jobs_from(&draws, horizon, |p| (0, 2 * p));
        check_placed(&Instance::new(jobs, g).unwrap())?;
    }

    #[test]
    fn matches_oracles_on_interval_instances(
        draws in proptest::collection::vec((1i64..13, Just(0u64), 0u64..1 << 32), 1..41),
        horizon in 10i64..121,
        g in 1usize..5,
    ) {
        let jobs = jobs_from(&draws, horizon, |_| (0, 0));
        check(&Instance::new(jobs, g).unwrap())?;
    }
}

/// The `(level_cap, start)` greedy strands a unit here, so phase 1 falls
/// back to `cover_levels`: 27 on 4 machines, like the exact optimum.
#[test]
fn greedy_dead_end_matches_oracles() {
    let jobs = [
        (8, 12),
        (14, 18),
        (7, 9),
        (8, 12),
        (11, 15),
        (11, 16),
        (5, 9),
    ]
    .map(|(r, d)| Job::interval(r, d));
    let inst = Instance::new(jobs.to_vec(), 1).unwrap();
    check(&inst).unwrap();
    let run = kumar_rudra_run(&inst).unwrap();
    assert_eq!(run.schedule.total_busy_time(&inst), 27);
    assert_eq!(run.schedule.machine_count(), 4);
}

#[test]
fn flexible_and_empty_instances_match_oracles() {
    check(&Instance::from_triples([(0, 9, 3), (2, 6, 4)], 2).unwrap()).unwrap();
    check(&Instance::new(vec![], 2).unwrap()).unwrap();
}
