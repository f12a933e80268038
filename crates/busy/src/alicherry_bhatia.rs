//! The Alicherry–Bhatia flow-based 2-approximation for busy time on
//! interval jobs (Appendix A.2 of the paper).
//!
//! Per *round*, the algorithm opens two bundles and performs `g`
//! iterations. Each iteration extracts a **2-unit flow** over the event
//! graph of the remaining jobs — nodes are event times; each job is a
//! unit-capacity arc from its start to its end; the *idle arc* between
//! consecutive events has capacity `max(0, 2 − demand)` — and decomposes it
//! into two unit paths. The job arcs of one path form a *track* (pairwise
//! disjoint intervals); path 1's track joins bundle A, path 2's joins
//! bundle B. Any point with positive demand loses at least one unit of
//! demand per iteration (the idle capacity there is at most `2 − demand`),
//! so a round removes `min(g, demand)` everywhere; each bundle is a union
//! of ≤ `g` tracks and is busy only inside the round's demand support.
//! Summing over rounds, the cost charges the demand-profile lower bound at
//! most twice.
//!
//! **Track extraction.** The remaining jobs' demand profile has a segment
//! between every two consecutive event times, so the idle arcs' demands
//! come from one difference array over event indices. Job `k` of the
//! remaining list is the graph's `k`-th arc, so a path edge `e` (forward
//! edges are even) names job `e / 2` when that is below the list's length,
//! and an idle arc otherwise. A round drops the extracted jobs from the
//! remaining list through a taken mask.

use abt_core::{BusySchedule, DemandProfile, Error, Instance, JobId, Result, Time};
use abt_flow::{decompose_unit_paths, max_flow_limited, FlowGraph};

/// Diagnostics of an Alicherry–Bhatia run.
#[derive(Debug, Clone)]
pub struct AlicherryBhatiaRun {
    /// The schedule over real jobs.
    pub schedule: BusySchedule,
    /// The demand-profile lower bound (`Σ ⌈|A|/g⌉·ℓ`).
    pub profile_bound: i64,
    /// Number of two-bundle rounds performed.
    pub rounds: usize,
}

/// Runs Alicherry–Bhatia on an interval instance.
pub fn alicherry_bhatia(inst: &Instance) -> Result<BusySchedule> {
    Ok(alicherry_bhatia_run(inst)?.schedule)
}

/// Runs Alicherry–Bhatia, returning diagnostics.
pub fn alicherry_bhatia_run(inst: &Instance) -> Result<AlicherryBhatiaRun> {
    if !inst.is_interval_instance() {
        return Err(Error::Unsupported(
            "alicherry_bhatia requires interval jobs; use flexible::solve for general jobs".into(),
        ));
    }
    let g = inst.g();
    let profile_bound =
        DemandProfile::new(&inst.jobs().iter().map(|j| j.window()).collect::<Vec<_>>()).cost(g);

    let mut remaining: Vec<JobId> = (0..inst.len()).collect();
    let mut taken = vec![false; inst.len()];
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
            for &j in track_a.iter().chain(&track_b) {
                taken[j] = true;
            }
            bundle_a.extend(track_a);
            bundle_b.extend(track_b);
            remaining.retain(|&j| !taken[j]);
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
    let _span = abt_core::obs_span!("busy.ab.tracks");
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

    let mut graph = FlowGraph::new(events.len());
    // Job arcs: job `jobs[k]` is edge `2k`. Each adds one unit of demand
    // from its start event to its end event.
    let mut demand = vec![0i64; events.len()];
    for &j in jobs {
        let (a, b) = (node_of(inst.job(j).release), node_of(inst.job(j).deadline));
        graph.add_edge(a, b, 1);
        demand[a] += 1;
        demand[b] -= 1;
    }
    // Idle arcs between consecutive events: capacity 2 across zero-demand
    // gaps, 1 inside the support (so at every positive-demand point at most
    // one of the two unit paths idles — i.e. at least one is in a job, which
    // is exactly the "reduce demand by ≥ 1 everywhere" property).
    let mut load = 0;
    for (w, &delta) in demand[..events.len() - 1].iter().enumerate() {
        load += delta;
        let cap = if load == 0 { 2 } else { 1 };
        graph.add_edge(w, w + 1, cap);
    }
    let s = 0;
    let t = events.len() - 1;
    let flow = max_flow_limited(&mut graph, s, t, Some(2));
    debug_assert_eq!(flow.value, 2, "event graph always carries a 2-flow");
    let paths = decompose_unit_paths(&mut graph, s, t);
    let mut tracks: Vec<Vec<JobId>> = paths
        .iter()
        .map(|p| p.iter().filter_map(|&e| jobs.get(e / 2).copied()).collect())
        .collect();
    tracks.resize(2, Vec::new());
    let b = tracks.pop().unwrap();
    let a = tracks.pop().unwrap();
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abt_core::{within_factor, Job};

    fn interval_inst(ivs: &[(i64, i64)], g: usize) -> Instance {
        Instance::new(ivs.iter().map(|&(a, b)| Job::interval(a, b)).collect(), g).unwrap()
    }

    fn check(inst: &Instance) -> AlicherryBhatiaRun {
        let run = alicherry_bhatia_run(inst).unwrap();
        run.schedule.validate(inst).unwrap();
        let cost = run.schedule.total_busy_time(inst);
        assert!(
            within_factor(cost, 2, run.profile_bound),
            "AB cost {cost} > 2×profile {}",
            run.profile_bound
        );
        run
    }

    #[test]
    fn identical_jobs() {
        let inst = interval_inst(&[(0, 4); 4], 2);
        let run = check(&inst);
        assert_eq!(run.rounds, 1);
        assert_eq!(run.schedule.total_busy_time(&inst), 8);
    }

    #[test]
    fn chain_of_disjoint_jobs_one_track() {
        let inst = interval_inst(&[(0, 2), (2, 4), (4, 6)], 2);
        let run = check(&inst);
        // All three fit one track → one bundle, busy 6.
        assert_eq!(run.schedule.total_busy_time(&inst), 6);
    }

    #[test]
    fn high_demand_needs_multiple_rounds() {
        // 6 identical jobs, g = 2: demand 6 → 3 bands → ≥ 2 rounds. AB opens
        // two bundles per round, so it pays 4 machines here (12) against the
        // profile bound 9 — within its factor 2, but above OPT (9): exactly
        // the slack the Fig. 8 tight instance formalizes.
        let inst = interval_inst(&[(0, 3); 6], 2);
        let run = check(&inst);
        assert!(run.rounds >= 2);
        assert_eq!(run.schedule.total_busy_time(&inst), 12);
    }

    #[test]
    fn staircases_and_nests() {
        let cases = [
            vec![(0, 5), (2, 7), (4, 9), (6, 11), (8, 13)],
            vec![(0, 10), (1, 9), (2, 8), (3, 7), (4, 6)],
            vec![(0, 4), (0, 4), (2, 6), (2, 6), (4, 8), (4, 8)],
        ];
        for ivs in cases {
            for g in 1..=4 {
                check(&interval_inst(&ivs, g));
            }
        }
    }

    #[test]
    fn pseudorandom_two_approx_sweep() {
        let mut state = 0xBEEF5u64;
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
            check(&interval_inst(&ivs, g));
        }
    }

    #[test]
    fn rejects_flexible() {
        let inst = Instance::from_triples([(0, 9, 3)], 2).unwrap();
        assert!(matches!(
            alicherry_bhatia(&inst),
            Err(Error::Unsupported(_))
        ));
    }
}
