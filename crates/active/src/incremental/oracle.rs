//! The whole-instance incremental driver, kept as a test-only oracle for
//! [`IncrementalSolver`].
//!
//! [`OracleSolver::try_solve`] re-derives everything on every solve: it
//! builds the current [`Instance`], runs the admission sweep over all of
//! it, recomputes the slot runs, the components and every content key,
//! looks every component up in its content cache, and collects the open
//! runs over the whole horizon. It has caches of its own and holds no
//! blocks. The property tests below feed one mutation stream to both
//! drivers and require the same answers (open runs and objective), the
//! same report counters, the same outcome on rejection and quarantine,
//! and the same cache contents after every solve; they also check the
//! kept component map against a fresh whole-instance decomposition.

use super::{ContentKey, IncrementalJobId, IncrementalReport, IncrementalSolver, CACHE_CAP};
use crate::admission::admission_precheck;
use crate::lp_model::{
    build_component_lp, components, push_open_runs, record_admission_reject, record_quarantine,
    record_recovery, record_state_corrupt, slot_runs, ActiveLp, DecomposeMode, LpBlock, LpOptions,
    SlotRun, VubMode,
};
use crate::supervise::{supervised_solve, PartialSolve, QuarantinedComponent, SolveError};
use abt_core::active_schedule::horizon_len;
use abt_core::{Error, Instance, Job, Result, SolveFailure, Time};
use abt_lp::{LpStatus, Rat};
use proptest::prelude::*;
use std::collections::HashMap;

/// The reference driver: the job set and caches of [`IncrementalSolver`],
/// without the kept components or a store.
struct OracleSolver {
    g: usize,
    opts: LpOptions,
    jobs: Vec<Option<Job>>,
    content_cache: HashMap<ContentKey, LpBlock>,
    quarantine: HashMap<ContentKey, SolveFailure>,
}

impl OracleSolver {
    fn new(g: usize, opts: LpOptions) -> OracleSolver {
        OracleSolver {
            g,
            opts: LpOptions {
                decompose: DecomposeMode::Auto,
                ..opts
            },
            jobs: Vec::new(),
            content_cache: HashMap::new(),
            quarantine: HashMap::new(),
        }
    }

    fn instance(&self) -> Result<Instance> {
        Instance::new(self.jobs.iter().filter_map(|j| *j).collect(), self.g)
    }

    fn add_job(&mut self, job: Job) -> IncrementalJobId {
        self.jobs.push(Some(job));
        self.jobs.len() - 1
    }

    fn remove_job(&mut self, id: IncrementalJobId) {
        self.jobs[id] = None;
    }

    fn update_window(&mut self, id: IncrementalJobId, release: Time, deadline: Time) {
        let job = self.jobs[id].as_mut().expect("live");
        *job = Job::new(release, deadline, job.length);
    }

    /// [`IncrementalSolver::try_solve`] re-deriving every component from
    /// the whole instance, less the store checkpoint (the oracle has no
    /// store).
    fn try_solve(&mut self) -> std::result::Result<IncrementalReport, SolveError> {
        if self.content_cache.len() > CACHE_CAP {
            self.content_cache.clear();
            self.quarantine.clear();
        }
        let inst = self.instance().map_err(SolveError::Model)?;
        // Admission control: the Hall-condition precheck bounces
        // provably-infeasible job sets before any LP is built, leaving
        // every cache untouched (see [`crate::admission`]).
        if let Err(rej) = admission_precheck(&inst) {
            record_admission_reject();
            return Err(SolveError::Rejected(rej));
        }
        horizon_len(inst.min_release(), inst.max_deadline()).map_err(SolveError::Model)?;
        if inst.is_empty() {
            return Ok(IncrementalReport {
                lp: ActiveLp {
                    runs: Vec::new(),
                    objective: Rat::ZERO,
                },
                components: 0,
                reused: 0,
                warm_attempts: 0,
                warm_hits: 0,
                cold_solves: 0,
            });
        }
        let runs = slot_runs(&inst);
        let comps = components(&inst, &runs, DecomposeMode::Auto);
        let mut y_runs = vec![Rat::ZERO; runs.len()];
        let mut objective = Rat::ZERO;
        let mut healthy: Vec<(usize, Rat)> = Vec::new();
        let mut quarantined: Vec<QuarantinedComponent> = Vec::new();
        let mut live_quarantine: Vec<ContentKey> = Vec::new();
        let mut report = IncrementalReport {
            lp: ActiveLp {
                runs: Vec::new(),
                objective: Rat::ZERO,
            },
            components: comps.len(),
            reused: 0,
            warm_attempts: 0,
            warm_hits: 0,
            cold_solves: 0,
        };
        for (ci, comp) in comps.iter().enumerate() {
            let n_runs = comp.run_hi - comp.run_lo;
            let ckey = content_key(&inst, comp);
            match self.content_cache.get(&ckey) {
                Some(block) if block.y_runs.len() == n_runs => {
                    report.reused += 1;
                    for (k, val) in block.y_runs.iter().enumerate() {
                        y_runs[comp.run_lo + k] = *val;
                    }
                    objective = objective.add(&block.objective);
                    healthy.push((ci, block.objective));
                    continue;
                }
                Some(_) => {
                    // A block whose run count disagrees with its key can
                    // only come from drifted persisted state (in-memory
                    // inserts always match): reject-don't-trust — drop it
                    // and fall through to a cold re-solve of the
                    // component. Exactness is unharmed; only the cache
                    // hit is lost.
                    record_state_corrupt();
                    record_recovery();
                    self.content_cache.remove(&ckey);
                }
                None => {}
            }
            // A quarantined key is not retried: the ladder already failed
            // for this exact content, and re-admission is content-driven.
            if let Some(f) = self.quarantine.get(&ckey) {
                quarantined.push(QuarantinedComponent {
                    jobs: comp.jobs.clone(),
                    failure: f.clone(),
                });
                live_quarantine.push(ckey);
                continue;
            }
            // Dirty: re-solve cold, from the block's crash start.
            let clp = build_component_lp(&inst, &self.opts, &runs, comp);
            let sol = match supervised_solve(&clp.lp, &self.opts.pricing, clp.start.as_ref()) {
                Ok(sr) => sr.solution,
                Err(f) => {
                    record_quarantine();
                    quarantined.push(QuarantinedComponent {
                        jobs: comp.jobs.clone(),
                        failure: f.clone(),
                    });
                    live_quarantine.push(ckey.clone());
                    self.quarantine.insert(ckey, f);
                    continue;
                }
            };
            match sol.status {
                LpStatus::Optimal => {}
                LpStatus::Infeasible => {
                    return Err(SolveError::Model(Error::Infeasible(
                        "LP1 infeasible: no schedule exists".into(),
                    )))
                }
                LpStatus::Unbounded => unreachable!("LP1 objective is bounded below by 0"),
            }
            report.cold_solves += 1;
            let block = LpBlock {
                y_runs: sol.x[..n_runs].to_vec(),
                objective: sol.objective,
            };
            for (k, val) in block.y_runs.iter().enumerate() {
                y_runs[comp.run_lo + k] = *val;
            }
            objective = objective.add(&block.objective);
            healthy.push((ci, block.objective));
            self.content_cache.insert(ckey, block);
        }
        // Quarantine entries whose content no longer exists (the offending
        // job was removed or mutated) are pruned: the key can only recur
        // through fresh content, which solves cold like any first sighting.
        self.quarantine.retain(|k, _| live_quarantine.contains(k));
        if !quarantined.is_empty() {
            // Healthy blocks (including the ones just solved) stay cached,
            // so the solver keeps serving them on every later call.
            return Err(SolveError::Partial(PartialSolve {
                healthy_objective: objective,
                healthy,
                quarantined,
            }));
        }
        push_open_runs(&mut report.lp.runs, runs, &y_runs);
        report.lp.objective = objective;
        Ok(report)
    }
}

/// The translation-invariant [`ContentKey`] of a component.
fn content_key(inst: &Instance, comp: &crate::lp_model::Component) -> ContentKey {
    let base = comp
        .jobs
        .iter()
        .map(|&j| inst.job(j).release)
        .min()
        .expect("components are never empty");
    let mut key: ContentKey = comp
        .jobs
        .iter()
        .map(|&j| {
            let job = inst.job(j);
            (job.release - base, job.deadline - base, job.length)
        })
        .collect();
    key.sort_unstable();
    key
}

/// One mutation or cache intervention, applied to both drivers alike.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A new job with window `[release, deadline)`.
    Arrive(Time, Time, i64),
    /// A new job whose window ends exactly where the `pick`-th live job's
    /// starts (or starts where it ends): `d == r′`, which must not merge.
    Abut(usize, i64, bool),
    /// Removes the `pick`-th live job.
    Depart(usize),
    /// Moves the `pick`-th live job's window ends by these offsets,
    /// skipped when the new window cannot hold the job.
    Edit(usize, i64, i64),
    /// Re-adds the most recently removed job.
    Readd,
    /// Removes every live job.
    Empty,
    /// `g + 1` unit jobs confined to one slot: an overload that admission
    /// rejects. They are removed again after the solve.
    Burst(Time),
    /// Drops the `pick`-th component's cached block and quarantines its
    /// key, as a failed supervision ladder would on a new component.
    Quarantine(usize),
    /// Re-admits every quarantined key.
    ClearQuarantine,
    /// Appends a run to the `pick`-th component's cached block, giving it
    /// the wrong run count, as drifted persisted state would, and drops
    /// the blocks held under its key, as a re-attach would: the next
    /// solve reads the poisoned block.
    Poison(usize),
    /// Fills both content caches past [`CACHE_CAP`], so the next solve
    /// resets them (and the held blocks).
    Flood,
}

/// A component as span start, span end, member handles, content key and
/// run widths.
type ComponentSummary = (Time, Time, Vec<IncrementalJobId>, ContentKey, Vec<i64>);

/// Both drivers over one job set, mutated in lockstep.
struct Pair {
    new: IncrementalSolver,
    old: OracleSolver,
    /// Live handles (the same in both drivers), in arrival order.
    live: Vec<IncrementalJobId>,
    removed: Vec<Job>,
}

impl Pair {
    fn new(g: usize, opts: LpOptions) -> Pair {
        Pair {
            new: IncrementalSolver::with_options(g, opts).unwrap(),
            old: OracleSolver::new(g, opts),
            live: Vec::new(),
            removed: Vec::new(),
        }
    }

    fn add(&mut self, job: Job) -> IncrementalJobId {
        let id = self.new.add_job(job);
        assert_eq!(self.old.add_job(job), id);
        self.live.push(id);
        id
    }

    fn remove(&mut self, id: IncrementalJobId) {
        let job = self.new.jobs[id].expect("live");
        self.new.remove_job(id).unwrap();
        self.old.remove_job(id);
        self.live.retain(|&h| h != id);
        self.removed.push(job);
    }

    fn nth_live(&self, pick: usize) -> Option<IncrementalJobId> {
        (!self.live.is_empty()).then(|| self.live[pick % self.live.len()])
    }

    /// The content key of the `pick`-th component of the last regroup.
    fn nth_key(&self, pick: usize) -> Option<ContentKey> {
        let n = self.new.comps.len();
        (n > 0).then(|| {
            let kept = self.new.comps.values().nth(pick % n).expect("in range");
            kept.key.clone()
        })
    }

    /// Applies `op` to both drivers; a burst also solves both.
    fn apply(&mut self, op: Op) -> std::result::Result<(), TestCaseError> {
        match op {
            Op::Arrive(r, d, p) => {
                self.add(Job::new(r, d, p));
            }
            Op::Abut(pick, p, after) => {
                if let Some(id) = self.nth_live(pick) {
                    let j = self.new.jobs[id].expect("live");
                    let w = p + 1;
                    self.add(if after {
                        Job::new(j.deadline, j.deadline + w, p)
                    } else {
                        Job::new(j.release - w, j.release, p)
                    });
                }
            }
            Op::Depart(pick) => {
                if let Some(id) = self.nth_live(pick) {
                    self.remove(id);
                }
            }
            Op::Edit(pick, dr, dd) => {
                if let Some(id) = self.nth_live(pick) {
                    let j = self.new.jobs[id].expect("live");
                    let (r, d) = (j.release + dr, j.deadline + dd);
                    if Job::try_new(r, d, j.length).is_some() {
                        self.new.update_window(id, r, d).unwrap();
                        self.old.update_window(id, r, d);
                    }
                }
            }
            Op::Readd => {
                if let Some(job) = self.removed.pop() {
                    self.add(job);
                }
            }
            Op::Empty => {
                for id in self.live.clone() {
                    self.remove(id);
                }
            }
            Op::Burst(t) => {
                let ids: Vec<IncrementalJobId> = (0..=self.new.g)
                    .map(|_| self.add(Job::new(t, t + 1, 1)))
                    .collect();
                let outcome = self.solve_both()?;
                prop_assert!(
                    outcome == "rejected",
                    "a burst of g + 1 jobs in one slot must be rejected, got {}",
                    outcome
                );
                for id in ids {
                    self.remove(id);
                }
                self.removed.clear();
            }
            Op::Quarantine(pick) => {
                if let Some(key) = self.nth_key(pick) {
                    let failure = SolveFailure::Panicked("injected".into());
                    self.new.drop_held(|kept| kept.key == key);
                    self.new.content_cache.remove(&key);
                    self.old.content_cache.remove(&key);
                    self.new.quarantine.insert(key.clone(), failure.clone());
                    self.old.quarantine.insert(key, failure);
                }
            }
            Op::ClearQuarantine => {
                self.new.clear_quarantine();
                self.old.quarantine.clear();
            }
            Op::Poison(pick) => {
                if let Some(key) = self.nth_key(pick) {
                    self.new.drop_held(|kept| kept.key == key);
                    for cache in [&mut self.new.content_cache, &mut self.old.content_cache] {
                        if let Some(block) = cache.get_mut(&key) {
                            block.y_runs.push(Rat::ZERO);
                        }
                    }
                }
            }
            Op::Flood => {
                for cache in [&mut self.new.content_cache, &mut self.old.content_cache] {
                    for t in 0..=CACHE_CAP as i64 {
                        let block = LpBlock {
                            y_runs: vec![Rat::ONE],
                            objective: Rat::ONE,
                        };
                        cache.insert(vec![(-t - 1, 0, 1)], block);
                    }
                }
            }
        }
        Ok(())
    }

    /// Solves both drivers and requires the same outcome, answer,
    /// counters and caches. Returns the outcome's kind.
    fn solve_both(&mut self) -> std::result::Result<&'static str, TestCaseError> {
        let new = self.new.try_solve();
        let old = self.old.try_solve();
        let kind = match (&new, &old) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.lp.runs, &b.lp.runs);
                prop_assert_eq!(a.lp.objective, b.lp.objective);
                prop_assert_eq!(
                    (a.components, a.reused, a.warm_attempts),
                    (b.components, b.reused, b.warm_attempts)
                );
                prop_assert_eq!((a.warm_hits, a.cold_solves), (b.warm_hits, b.cold_solves));
                "solved"
            }
            (Err(SolveError::Rejected(a)), Err(SolveError::Rejected(b))) => {
                // The witness's right end is the first violated deadline
                // either way; its left end may differ.
                prop_assert_eq!(a.window.1, b.window.1);
                prop_assert!(a.demand > a.capacity, "{:?}", a);
                "rejected"
            }
            (Err(SolveError::Partial(a)), Err(SolveError::Partial(b))) => {
                prop_assert_eq!(a.healthy_objective, b.healthy_objective);
                prop_assert_eq!(&a.healthy, &b.healthy);
                let jobs = |p: &PartialSolve| -> Vec<(Vec<usize>, String)> {
                    p.quarantined
                        .iter()
                        .map(|q| (q.jobs.clone(), q.failure.to_string()))
                        .collect()
                };
                prop_assert_eq!(jobs(a), jobs(b));
                "partial"
            }
            (Err(SolveError::Model(a)), Err(SolveError::Model(b))) => {
                prop_assert_eq!(a.to_string(), b.to_string());
                "model"
            }
            _ => {
                return Err(TestCaseError::fail(format!(
                    "outcomes differ: {new:?} vs {old:?}"
                )))
            }
        };
        let blocks = |c: &HashMap<ContentKey, LpBlock>| {
            let mut v: Vec<(ContentKey, Vec<Rat>, Rat)> = c
                .iter()
                .map(|(k, b)| (k.clone(), b.y_runs.clone(), b.objective))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        prop_assert!(blocks(&self.new.content_cache) == blocks(&self.old.content_cache));
        let keys = |q: &HashMap<ContentKey, SolveFailure>| {
            let mut v: Vec<ContentKey> = q.keys().cloned().collect();
            v.sort();
            v
        };
        prop_assert_eq!(keys(&self.new.quarantine), keys(&self.old.quarantine));
        self.check_kept_components()?;
        Ok(kind)
    }

    /// The kept map must equal a fresh whole-instance decomposition:
    /// spans, members, content keys and run widths.
    fn check_kept_components(&self) -> std::result::Result<(), TestCaseError> {
        let handles: Vec<IncrementalJobId> = (0..self.new.jobs.len())
            .filter(|&h| self.new.jobs[h].is_some())
            .collect();
        let inst = self.new.instance().unwrap();
        let runs = slot_runs(&inst);
        let fresh: Vec<ComponentSummary> = if inst.is_empty() {
            Vec::new()
        } else {
            components(&inst, &runs, DecomposeMode::Auto)
                .iter()
                .map(|c| {
                    (
                        runs[c.run_lo].start,
                        runs[c.run_hi - 1].end,
                        c.jobs.iter().map(|&j| handles[j]).collect(),
                        content_key(&inst, c),
                        runs[c.run_lo..c.run_hi]
                            .iter()
                            .map(SlotRun::width)
                            .collect(),
                    )
                })
                .collect()
        };
        let kept: Vec<ComponentSummary> = self
            .new
            .comps
            .iter()
            .map(|(&start, k)| {
                (
                    start,
                    k.end,
                    k.members.clone(),
                    k.key.clone(),
                    k.widths.clone(),
                )
            })
            .collect();
        prop_assert_eq!(kept, fresh);
        prop_assert!(self.new.touched.is_empty() && self.new.pending.is_empty());
        Ok(())
    }
}

/// Decodes one generated op. Kinds are weighted towards arrivals and
/// edits; times stay in a short horizon so components merge and split.
fn decode(kind: usize, t: i64, x: i64, pick: usize) -> Op {
    let p = 1 + x % 3;
    match kind {
        0..=3 => Op::Arrive(t, t + p + (pick % 4) as i64, p),
        4 => Op::Abut(pick, p, x % 2 == 0),
        5 | 6 => Op::Depart(pick),
        // Widen.
        7 => Op::Edit(pick, -(x % 3), (pick % 3) as i64),
        // Shrink.
        8 => Op::Edit(pick, x % 3, -((pick % 3) as i64)),
        // Shift.
        9 => Op::Edit(pick, x - 3, x - 3),
        10 => Op::Readd,
        11 => match pick % 8 {
            0 => Op::Empty,
            1 | 2 => Op::Burst(t),
            3 | 4 => Op::Quarantine(pick / 8),
            5 => Op::ClearQuarantine,
            _ => Op::Poison(pick / 8),
        },
        _ => unreachable!("kind is drawn from 0..12"),
    }
}

/// Runs `ops` through both drivers, solving after every op.
fn run_stream(g: usize, opts: LpOptions, ops: &[Op]) -> std::result::Result<(), TestCaseError> {
    let mut pair = Pair::new(g, opts);
    for &op in ops {
        pair.apply(op)?;
        pair.solve_both()?;
    }
    Ok(())
}

fn options(vub_rows: bool) -> LpOptions {
    LpOptions {
        vub: if vub_rows {
            VubMode::Rows
        } else {
            VubMode::Implicit
        },
        ..LpOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn random_mutation_streams_match_the_whole_instance_driver(
        g in 1usize..4,
        vub_rows in 0usize..2,
        raw in proptest::collection::vec((0usize..12, 0i64..30, 0i64..6, 0usize..64), 1..40),
    ) {
        let ops: Vec<Op> = raw.iter().map(|&(k, t, x, pick)| decode(k, t, x, pick)).collect();
        run_stream(g, options(vub_rows == 1), &ops)?;
    }
}

#[test]
fn scripted_stream_covers_every_mutation_kind() {
    // Each step names the case it covers; the pair checks every solve.
    let ops = [
        Op::Arrive(0, 4, 2),
        Op::Arrive(1, 3, 2),
        // A far arrival: a second component; the first is reused.
        Op::Arrive(20, 24, 3),
        // d == r′: abuts the first component without merging.
        Op::Arrive(4, 7, 2),
        Op::Abut(2, 2, false),
        // Widen across the gap: a merge.
        Op::Edit(3, -3, 0),
        // Shrink it back: a split.
        Op::Edit(3, 3, 0),
        // Shift.
        Op::Edit(0, 1, 1),
        Op::Depart(1),
        // Re-add the job just removed.
        Op::Readd,
        Op::Burst(10),
        Op::Quarantine(0),
        Op::Arrive(40, 43, 1),
        Op::ClearQuarantine,
        Op::Poison(1),
        Op::Arrive(50, 52, 1),
        // Every component is served again after the reset.
        Op::Flood,
        Op::Arrive(60, 63, 2),
        Op::Empty,
        Op::Arrive(5, 9, 3),
    ];
    for g in 1..=2 {
        for vub_rows in [false, true] {
            run_stream(g, options(vub_rows), &ops).unwrap();
        }
    }
}
