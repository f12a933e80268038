//! The feasibility oracle on the implicit `G_feas` network and the §3
//! rounding's growing flow session, pinned against the explicit network
//! they replaced.
//!
//! [`reference_assign`] is the Dinic-based oracle as it was before: one
//! `FlowGraph` per check, with an arc per job–slot pair, solved from zero
//! flow. [`reference_rounding`] is the §3 rounding as it was then, each of
//! its checks answered by that oracle, and it logs what it does in order:
//! the jobs of each segment, each slot it opens, and each check's verdict.
//! On generated instances of four families (random feasible windows,
//! VUB-heavy nests, many components, online-arrivals prefixes) with `g`
//! from 1 to past `n`, the tests require:
//!
//! * the oracle's verdict equals the reference's, for random job subsets
//!   and for slot lists that are unsorted, duplicated, or lie outside
//!   every window;
//! * every schedule the oracle returns validates and uses only the given
//!   slots;
//! * a session grown in random order, and one fed the reference
//!   rounding's log, answers every probe as a from-scratch check would;
//! * `lp_rounding_from` returns the reference rounding's opened slots,
//!   cost, charges, anomalies and repair slots.

use abt_active::{
    feasible_on, lp_rounding_from, right_shift, schedule_on, solve_active_lp, ActiveLp, ChargeKind,
    FeasibilitySession, Segment,
};
use abt_core::active_schedule::{horizon_slots, job_feasible_in_slot};
use abt_core::{ActiveSchedule, Instance, JobId, Time};
use abt_flow::{max_flow, FlowGraph};
use abt_lp::Rat;
use abt_workloads::{
    many_components, online_arrivals, random_active_feasible, vub_heavy, ManyComponentsConfig,
    OnlineArrivalsConfig, RandomConfig, VubHeavyConfig,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The Dinic-based oracle, verbatim: the per-job slot assignment of `jobs`
/// into `slots` (rows for every job id) if they all fit.
fn reference_assign(inst: &Instance, jobs: &[JobId], slots: &[Time]) -> Option<Vec<Vec<Time>>> {
    let mut sorted: Vec<Time> = slots.to_vec();
    sorted.sort_unstable();
    sorted.dedup();

    // Cheap necessary conditions before building the flow network;
    // the exact solvers probe this oracle with many infeasible slot
    // sets, and both checks reject the bulk of them in O(n log m):
    // each job needs p_j open slots inside its window, and the total
    // demand cannot exceed g units per open slot.
    let mut total = 0i64;
    for &job in jobs {
        let j = inst.job(job);
        total += j.length;
        let lo = sorted.partition_point(|&t| t <= j.release);
        let hi = sorted.partition_point(|&t| t <= j.deadline);
        if ((hi - lo) as i64) < j.length {
            return None;
        }
    }
    if total > inst.g() as i64 * sorted.len() as i64 {
        return None;
    }

    let n = jobs.len();
    let m = sorted.len();
    // Nodes: 0 = source, 1..=n jobs, n+1..=n+m slots, n+m+1 sink.
    let s = 0;
    let t = n + m + 1;
    let mut g = FlowGraph::new(n + m + 2);
    let mut demand = 0i64;
    let mut job_edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (edge id, slot idx)
    for (ji, &job) in jobs.iter().enumerate() {
        let p = inst.job(job).length;
        demand += p;
        g.add_edge(s, 1 + ji, p);
    }
    for (si, &slot) in sorted.iter().enumerate() {
        for (ji, &job) in jobs.iter().enumerate() {
            if job_feasible_in_slot(inst, job, slot) {
                let e = g.add_edge(1 + ji, 1 + n + si, 1);
                job_edges[ji].push((e, si));
            }
        }
        g.add_edge(1 + n + si, t, inst.g() as i64);
    }
    let f = max_flow(&mut g, s, t);
    if f.value != demand {
        return None;
    }
    // Extract integral assignment for the *whole* instance shape: rows
    // for every job id, empty for jobs outside the subset.
    let mut assignment = vec![Vec::new(); inst.len()];
    for (ji, &job) in jobs.iter().enumerate() {
        for &(e, si) in &job_edges[ji] {
            if g.flow(e) > 0 {
                assignment[job].push(sorted[si]);
            }
        }
    }
    Some(assignment)
}

/// One step of the reference rounding, in order.
#[derive(Debug, Clone)]
enum Step {
    /// A segment's jobs join.
    Jobs(Vec<JobId>),
    /// A slot opens (possibly one that is open already).
    Slot(Time),
    /// A check of the jobs so far on the slots so far, and its verdict.
    Check(bool),
}

/// What the rounding returns that the tests compare.
#[derive(Debug, PartialEq)]
struct Rounded {
    opened: Vec<Time>,
    cost: i64,
    charges: Vec<(ChargeKind, usize)>,
    anomalies: usize,
    repair_slots: usize,
}

struct FullSlot {
    t: Time,
    dependent: Option<Rat>,
    in_trio: bool,
}

struct HalfSlot {
    t: Time,
    y: Rat,
    has_filler: bool,
}

/// The rounding's charging ledger, verbatim.
struct Ledger {
    fulls: Vec<FullSlot>,
    halves: Vec<HalfSlot>,
    tally: [usize; 6],
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            fulls: Vec::new(),
            halves: Vec::new(),
            tally: [0; 6],
        }
    }

    fn record(&mut self, kind: ChargeKind) {
        let idx = match kind {
            ChargeKind::FullyOpen => 0,
            ChargeKind::SelfHalf => 1,
            ChargeKind::Dependent => 2,
            ChargeKind::Trio => 3,
            ChargeKind::Filler => 4,
            ChargeKind::Anomaly => 5,
        };
        self.tally[idx] += 1;
    }

    fn add_full(&mut self, t: Time) {
        self.fulls.push(FullSlot {
            t,
            dependent: None,
            in_trio: false,
        });
        self.record(ChargeKind::FullyOpen);
    }

    fn add_half(&mut self, t: Time, y: Rat) {
        self.halves.push(HalfSlot {
            t,
            y,
            has_filler: false,
        });
        self.record(ChargeKind::SelfHalf);
    }

    fn charge_barely(&mut self, v: Rat) -> ChargeKind {
        let half = Rat::new(1, 2);
        if let Some(fs) = self
            .fulls
            .iter_mut()
            .filter(|f| f.dependent.is_none() && !f.in_trio)
            .min_by_key(|f| f.t)
        {
            fs.dependent = Some(v);
            self.record(ChargeKind::Dependent);
            return ChargeKind::Dependent;
        }
        if let Some(fs) = self
            .fulls
            .iter_mut()
            .filter(|f| !f.in_trio && f.dependent.is_some_and(|d| d.add(&v) >= half))
            .min_by_key(|f| f.t)
        {
            fs.in_trio = true;
            self.record(ChargeKind::Trio);
            return ChargeKind::Trio;
        }
        if let Some(hs) = self
            .halves
            .iter_mut()
            .filter(|h| !h.has_filler && h.y.add(&v) >= Rat::ONE)
            .min_by_key(|h| h.t)
        {
            hs.has_filler = true;
            self.record(ChargeKind::Filler);
            return ChargeKind::Filler;
        }
        self.record(ChargeKind::Anomaly);
        ChargeKind::Anomaly
    }
}

/// The §3 rounding as it was, every check a from-scratch
/// [`reference_assign`]; returns its outcome, its final schedule and its
/// log.
fn reference_rounding(inst: &Instance, lp: &ActiveLp) -> (Rounded, ActiveSchedule, Vec<Step>) {
    let segments: Vec<Segment> = right_shift(inst, lp).segments;
    let slots = horizon_slots(inst).expect("generated horizons are short");
    let half = Rat::new(1, 2);
    let all: Vec<JobId> = (0..inst.len()).collect();
    let mut log = Vec::new();

    let mut opened: BTreeSet<Time> = BTreeSet::new();
    let mut ledger = Ledger::new();
    let mut proxy: Option<(Rat, Time)> = None;
    let mut jobs_so_far: Vec<JobId> = Vec::new();
    let mut anomalies = 0usize;

    for seg in &segments {
        jobs_so_far.extend_from_slice(&seg.jobs);
        log.push(Step::Jobs(seg.jobs.clone()));
        let y = seg.y_sum;
        let floor = y.floor() as i64;
        let fr = y.fract();
        for k in 0..floor {
            let t = seg.deadline - k;
            opened.insert(t);
            log.push(Step::Slot(t));
            ledger.add_full(t);
        }
        let mut residue: Vec<(Rat, Time)> = Vec::new();
        let frac_loc = seg.deadline - floor;
        match proxy.take() {
            None => {
                if fr.signum() > 0 {
                    residue.push((fr, frac_loc));
                }
            }
            Some((pv, pp)) => {
                let merged = fr.add(&pv);
                if merged <= Rat::ONE {
                    let loc = if frac_loc > seg.start { frac_loc } else { pp };
                    residue.push((merged, loc));
                } else {
                    residue.push((fr, frac_loc));
                    let loc2 = if frac_loc - 1 > seg.start {
                        frac_loc - 1
                    } else {
                        pp
                    };
                    residue.push((merged.sub(&Rat::ONE), loc2));
                }
            }
        }
        for (v, loc) in residue {
            if v == Rat::ONE {
                opened.insert(loc);
                log.push(Step::Slot(loc));
                ledger.add_full(loc);
            } else if v >= half {
                opened.insert(loc);
                log.push(Step::Slot(loc));
                ledger.add_half(loc, v);
            } else {
                let open_now: Vec<Time> = opened.iter().copied().collect();
                let closable = reference_assign(inst, &jobs_so_far, &open_now).is_some();
                log.push(Step::Check(closable));
                if closable {
                    proxy = Some((v, loc));
                } else {
                    opened.insert(loc);
                    log.push(Step::Slot(loc));
                    if ledger.charge_barely(v) == ChargeKind::Anomaly {
                        anomalies += 1;
                    }
                }
            }
        }
    }

    let mut repair_slots = 0usize;
    let mut open_vec: Vec<Time> = opened.iter().copied().collect();
    let mut assignment = reference_assign(inst, &all, &open_vec);
    log.push(Step::Check(assignment.is_some()));
    if assignment.is_none() {
        for &t in slots.iter().rev() {
            if opened.contains(&t) {
                continue;
            }
            opened.insert(t);
            log.push(Step::Slot(t));
            repair_slots += 1;
            open_vec = opened.iter().copied().collect();
            assignment = reference_assign(inst, &all, &open_vec);
            log.push(Step::Check(assignment.is_some()));
            if assignment.is_some() {
                break;
            }
        }
    }
    let assignment = assignment.expect("generated instances are feasible");
    let schedule = ActiveSchedule::new(open_vec.iter().copied(), assignment);
    let t = ledger.tally;
    let rounded = Rounded {
        cost: open_vec.len() as i64,
        opened: open_vec,
        charges: vec![
            (ChargeKind::FullyOpen, t[0]),
            (ChargeKind::SelfHalf, t[1]),
            (ChargeKind::Dependent, t[2]),
            (ChargeKind::Trio, t[3]),
            (ChargeKind::Filler, t[4]),
            (ChargeKind::Anomaly, t[5]),
        ],
        anomalies,
        repair_slots,
    };
    (rounded, schedule, log)
}

/// A generated instance: random feasible windows (`family` 0), VUB-heavy
/// nests (1), many components (2) and an online-arrivals prefix (3 and
/// up).
fn generated(family: usize, seed: u64, n: usize, g: usize, horizon: i64) -> Instance {
    match family {
        0 => random_active_feasible(
            &RandomConfig {
                n,
                g,
                horizon,
                max_len: 5,
                slack_factor: (seed % 3) as f64 * 0.5,
            },
            seed,
        ),
        1 => vub_heavy(
            &VubHeavyConfig {
                n,
                g: g.max(2),
                horizon: horizon.max(16),
                max_len: 4,
                fan_in: 2 + n % 3,
            },
            seed,
        ),
        2 => many_components(
            &ManyComponentsConfig {
                components: 1 + n % 5,
                jobs_per_component: 1 + g.min(6),
                g,
                span: 6 + horizon % 8,
                gap: 1 + horizon % 4,
                max_len: 3,
                slack_factor: 1.0,
            },
            seed,
        ),
        _ => {
            let g = g.min(4);
            let cfg = OnlineArrivalsConfig {
                clusters: 1 + n % 4,
                jobs_per_cluster: 1 + n % (2 * g),
                g,
                ..OnlineArrivalsConfig::default()
            };
            let trace = online_arrivals(&cfg, seed);
            trace.prefix_instance(1 + (seed as usize) % trace.jobs.len())
        }
    }
}

/// A small xorshift stream for the subsets and slot lists.
struct Draws(u64);

impl Draws {
    fn below(&mut self, m: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % m
    }

    /// A random subset of `0..n` in random order.
    fn jobs(&mut self, n: usize) -> Vec<JobId> {
        let mut jobs: Vec<JobId> = (0..n).filter(|_| self.below(4) != 0).collect();
        for i in (1..jobs.len()).rev() {
            jobs.swap(i, self.below(i as u64 + 1) as usize);
        }
        jobs
    }

    /// An unsorted slot list over the horizon widened by 3 on each side
    /// (so some slots lie outside every window), most horizon slots kept,
    /// with duplicates.
    fn slots(&mut self, inst: &Instance) -> Vec<Time> {
        let (lo, hi) = (inst.min_release() - 2, inst.max_deadline() + 3);
        let keep = 1 + self.below(8);
        let mut slots: Vec<Time> = (lo..=hi).filter(|_| self.below(8) < keep).collect();
        for _ in 0..self.below(4) {
            let k = self.below(slots.len().max(1) as u64) as usize;
            if let Some(&t) = slots.get(k) {
                slots.push(t);
            }
        }
        for i in (1..slots.len()).rev() {
            slots.swap(i, self.below(i as u64 + 1) as usize);
        }
        slots
    }
}

/// The oracle against the reference on one job subset and slot list.
fn check_oracle(inst: &Instance, jobs: &[JobId], slots: &[Time]) -> Result<(), TestCaseError> {
    let subset = Instance::new(jobs.iter().map(|&j| *inst.job(j)).collect(), inst.g()).unwrap();
    let want = reference_assign(inst, jobs, slots).is_some();
    prop_assert_eq!(feasible_on(&subset, slots), want);
    let all: Vec<JobId> = (0..inst.len()).collect();
    let want_all = reference_assign(inst, &all, slots).is_some();
    prop_assert_eq!(feasible_on(inst, slots), want_all);
    let schedule = schedule_on(inst, slots);
    prop_assert_eq!(schedule.is_some(), want_all);
    if let Some(schedule) = schedule {
        prop_assert!(schedule.validate(inst).is_ok(), "{:?}", schedule);
        let given: BTreeSet<Time> = slots.iter().copied().collect();
        prop_assert_eq!(schedule.active_slots(), &given);
    }
    Ok(())
}

/// A session grown in `draws`' order: jobs and slots join in a random
/// interleaving (some slots twice, some outside every window), with a probe
/// after each step with probability ½, each answered as a from-scratch
/// check of the jobs and slots so far. Ends with every job and the whole
/// horizon, where the schedule must validate.
fn check_growth(inst: &Instance, draws: &mut Draws) -> Result<(), TestCaseError> {
    let mut jobs = draws.jobs(inst.len());
    let mut rest: Vec<JobId> = (0..inst.len()).filter(|j| !jobs.contains(j)).collect();
    jobs.append(&mut rest);
    let mut slots = draws.slots(inst);
    slots.extend(horizon_slots(inst).expect("generated horizons are short"));
    let mut flow = FeasibilitySession::new(inst);
    let (mut added_jobs, mut added_slots) = (Vec::new(), Vec::new());
    let (mut j, mut s) = (0, 0);
    while j < jobs.len() || s < slots.len() {
        if s == slots.len() || (j < jobs.len() && draws.below(3) == 0) {
            flow.add_job(jobs[j]);
            added_jobs.push(jobs[j]);
            j += 1;
        } else {
            let fresh = !added_slots.contains(&slots[s]);
            prop_assert_eq!(flow.add_slot(slots[s]), fresh);
            added_slots.push(slots[s]);
            s += 1;
        }
        if draws.below(2) == 0 {
            let want = reference_assign(inst, &added_jobs, &added_slots).is_some();
            prop_assert_eq!(flow.probe(), want, "{:?} on {:?}", added_jobs, added_slots);
        }
    }
    prop_assert!(flow.probe(), "the whole horizon fits a generated instance");
    let schedule = flow.schedule();
    prop_assert!(schedule.validate(inst).is_ok(), "{:?}", schedule);
    Ok(())
}

/// `lp_rounding_from` against the reference rounding, and a session fed
/// the reference rounding's log.
fn check_rounding(inst: &Instance) -> Result<(), TestCaseError> {
    let lp = solve_active_lp(inst).expect("generated instances are feasible");
    let (want, want_schedule, log) = reference_rounding(inst, &lp);
    prop_assert!(want_schedule.validate(inst).is_ok());
    let got = lp_rounding_from(inst, &lp).expect("rounding succeeds");
    prop_assert!(got.schedule.validate(inst).is_ok(), "{:?}", got.schedule);
    let got = Rounded {
        opened: got.opened,
        cost: got.cost,
        charges: got.charges,
        anomalies: got.anomalies,
        repair_slots: got.repair_slots,
    };
    prop_assert_eq!(&got, &want);

    let mut flow = FeasibilitySession::new(inst);
    for step in &log {
        match step {
            Step::Jobs(jobs) => jobs.iter().for_each(|&job| flow.add_job(job)),
            Step::Slot(t) => {
                flow.add_slot(*t);
            }
            Step::Check(verdict) => prop_assert_eq!(flow.probe(), *verdict, "{:?}", log),
        }
    }
    prop_assert_eq!(flow.slots(), &want.opened[..]);
    prop_assert!(flow.schedule().validate(inst).is_ok());
    Ok(())
}

#[test]
fn hand_made_cases_match_the_reference() {
    // Full slots whose holders must move (g = 1 chains), a slot outside
    // every window, duplicates, and a capacity past n.
    let chain = Instance::from_triples([(0, 2, 1), (1, 3, 1), (2, 4, 1), (0, 1, 1)], 1).unwrap();
    check_oracle(&chain, &[0, 1, 2, 3], &[4, 3, 2, 1, 9]).unwrap();
    check_oracle(&chain, &[3, 0], &[1, 1]).unwrap();
    let wide = Instance::from_triples([(0, 6, 3), (1, 5, 2), (2, 4, 2), (0, 2, 1)], 7).unwrap();
    check_oracle(&wide, &[2, 0], &[0, 3, 4, 2, 6, 7, 3]).unwrap();
    let mut draws = Draws(0x9E37_79B9_7F4A_7C15);
    for inst in [&chain, &wide] {
        check_growth(inst, &mut draws).unwrap();
        check_rounding(inst).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn oracle_verdicts_match_dinic(
        family in 0usize..4,
        seed in 0u64..1_000_000,
        n in 2usize..14,
        g in 1usize..17,
        horizon in 8i64..30,
    ) {
        let inst = generated(family, seed, n, g, horizon);
        let mut draws = Draws(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        for _ in 0..4 {
            let jobs = draws.jobs(inst.len());
            let slots = draws.slots(&inst);
            check_oracle(&inst, &jobs, &slots)?;
        }
    }

    #[test]
    fn sessions_answer_as_from_scratch_checks(
        family in 0usize..4,
        seed in 0u64..1_000_000,
        n in 2usize..14,
        g in 1usize..17,
        horizon in 8i64..30,
    ) {
        let inst = generated(family, seed, n, g, horizon);
        let mut draws = Draws(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1);
        check_growth(&inst, &mut draws)?;
    }

    #[test]
    fn rounding_matches_the_reference_rounding(
        family in 0usize..4,
        seed in 0u64..1_000_000,
        n in 2usize..14,
        g in 1usize..17,
        horizon in 8i64..30,
    ) {
        check_rounding(&generated(family, seed, n, g, horizon))?;
    }
}
