//! Incremental re-solving of LP1 over a **mutating instance** — the
//! online-arrivals driver of the warm-start subsystem.
//!
//! [`IncrementalSolver`] owns a job set that callers mutate between
//! solves ([`IncrementalSolver::add_job`],
//! [`IncrementalSolver::remove_job`], and the window edits of
//! [`IncrementalSolver::update_window`] — widen, shrink, or shift), and
//! re-solves **only what changed**. The machinery composes three layers:
//!
//! * **Component decomposition** (PR 4): every solve recomputes the
//!   connected components of the job-window interval graph — cheap, one
//!   sort-and-merge sweep — so a mutation's blast radius is its own
//!   component (or the components it merges/splits).
//! * **Dirty-component tracking by content** — the solver caches each
//!   solved component under a translation-invariant *content key* (the
//!   sorted multiset of its jobs' `(release, deadline, length)` offsets).
//!   A component whose content key is still cached is **clean**: its
//!   exact per-run `Y` block and rational objective are reused with *no
//!   LP solve at all*. Mutations dirty exactly the components whose job
//!   content changed — including merges and splits, whose products are
//!   new keys. Deletions don't invalidate survivors: an untouched
//!   component keeps its key whatever happens elsewhere.
//! * **Warm starts** ([`abt_lp::warm`]) — a dirty component that must be
//!   re-solved first looks up its *shape* (the structural
//!   [`ComponentSignature`](crate::lp_model)) in a snapshot cache. A hit
//!   resumes phase-2 pivoting from a previously certified basis — for the
//!   streaming-arrivals regime (Chang–Khuller–Mukherjee's online
//!   active-time, arXiv:1610.08154) where new components echo the shapes
//!   of earlier ones, this turns most re-solves into a handful of pivots.
//!   The per-shape pool keeps up to
//!   [`SNAPSHOT_POOL_CAP`](crate::lp_model) candidate snapshots
//!   (different siblings land on different optimal vertices).
//!
//! **Exactness is preserved end to end**: cached blocks carry the exact
//! rational `Y`/objective they were certified with, warm solves are
//! certified like cold ones, and the stitched objective is an exact
//! rational sum — bit-identical to solving the current instance from
//! scratch with [`solve_active_lp_with`](crate::lp_model), which the
//! property tests assert.
//!
//! Telemetry flows into the process-wide [`lp_telemetry`]
//! (`warm_attempts` / `warm_hits` / `warm_pivots_saved`), and each
//! [`IncrementalReport`] carries the per-solve breakdown (components
//! reused / warm-hit / cold-solved).

use crate::admission::admission_precheck;
use crate::lp_model::{
    build_component_lp, component_signature, components, disaggregate, lp_telemetry,
    record_admission_reject, record_quarantine, record_recovery, record_state_corrupt,
    record_warm_attempt, revised_options, slot_runs, ActiveLp, ComponentSignature, DecomposeMode,
    LpBackend, LpOptions, SNAPSHOT_POOL_CAP,
};
use crate::store::{encode_state, JournalOp, RecoveryReport, SolveStateStore};
use crate::supervise::{supervised_solve, PartialSolve, QuarantinedComponent, SolveError};
use abt_core::active_schedule::horizon_slots;
use abt_core::persist::PersistError;
use abt_core::{Error, Instance, Job, Result, SolveFailure, Time};
use abt_lp::{BasisSnapshot, LpStatus, Rat};
use std::collections::HashMap;
use std::path::Path;

/// Bound on cached component blocks; past it both caches are cleared (a
/// rare, cheap reset that keeps a long-lived solver's memory bounded).
const CACHE_CAP: usize = 16_384;

/// Translation-invariant content of a component: the sorted multiset of
/// its jobs as offsets from the component's earliest release. Two
/// components with equal content build LPs that are identical up to a
/// permutation of the per-job blocks, so their exact optima (objective
/// and per-run `Y`) coincide.
pub(crate) type ContentKey = Vec<(i64, i64, i64)>;

/// A solved component block, reusable whenever the same content recurs.
#[derive(Clone)]
pub(crate) struct CachedBlock {
    pub(crate) y_runs: Vec<Rat>,
    pub(crate) objective: Rat,
}

/// A shape's snapshot pool plus the pivot count of the first cold solve
/// that seeded it (the reference for `warm_pivots_saved`).
#[derive(Clone)]
pub(crate) struct ShapeEntry {
    pub(crate) snapshots: Vec<BasisSnapshot>,
    pub(crate) reference_pivots: u64,
}

/// Handle to a job owned by an [`IncrementalSolver`] (stable across
/// mutations; unrelated to any [`Instance`]'s job indices).
pub type IncrementalJobId = usize;

/// What one [`IncrementalSolver::solve`] call did, besides solving.
#[derive(Debug, Clone)]
pub struct IncrementalReport {
    /// The exact LP1 optimum of the current job set (same contract as
    /// [`solve_active_lp_with`](crate::lp_model::solve_active_lp_with)).
    pub lp: ActiveLp,
    /// Components of the current interval graph.
    pub components: usize,
    /// Components reused verbatim from the content cache (no LP solve).
    pub reused: usize,
    /// Components re-solved with a warm-start attempt.
    pub warm_attempts: usize,
    /// Warm attempts that hit (installed and certified).
    pub warm_hits: usize,
    /// Components solved cold (first sighting of their shape, or every
    /// warm candidate missed).
    pub cold_solves: usize,
}

/// An incrementally re-solving LP1 driver. See the module docs.
pub struct IncrementalSolver {
    g: usize,
    opts: LpOptions,
    jobs: Vec<Option<Job>>,
    live: usize,
    content_cache: HashMap<ContentKey, CachedBlock>,
    shape_cache: HashMap<ComponentSignature, ShapeEntry>,
    /// Components whose supervision ladder failed entirely, keyed by
    /// content: a quarantined key is **not retried** on later solves —
    /// re-admission happens automatically when the offending content
    /// changes (a member job removed or mutated produces a new key, which
    /// solves cold like any first sighting) or via
    /// [`IncrementalSolver::clear_quarantine`].
    quarantine: HashMap<ContentKey, SolveFailure>,
    /// Durable-state handle, when [`IncrementalSolver::attach_store`] was
    /// called: mutations are write-ahead journaled and solves periodically
    /// checkpoint. `None` (the default) keeps the solver purely in-memory.
    store: Option<SolveStateStore>,
}

impl IncrementalSolver {
    /// A solver with the default [`LpOptions`] (warm starts are always
    /// attempted on re-solves, whatever `opts.warm` says — that flag
    /// governs the batch planner, not this driver).
    pub fn new(g: usize) -> Result<IncrementalSolver> {
        IncrementalSolver::with_options(g, LpOptions::default())
    }

    /// A solver with explicit [`LpOptions`]. `opts.decompose` is forced to
    /// [`DecomposeMode::Auto`] — per-component solving is what makes
    /// incrementality work. Backends other than [`LpBackend::Revised`]
    /// solve dirty components cold (content-cache reuse still applies).
    pub fn with_options(g: usize, opts: LpOptions) -> Result<IncrementalSolver> {
        if g == 0 {
            return Err(Error::InvalidInstance("g must be at least 1".into()));
        }
        Ok(IncrementalSolver {
            g,
            opts: LpOptions {
                decompose: DecomposeMode::Auto,
                ..opts
            },
            jobs: Vec::new(),
            live: 0,
            content_cache: HashMap::new(),
            shape_cache: HashMap::new(),
            quarantine: HashMap::new(),
            store: None,
        })
    }

    /// Attaches a durable state directory and recovers whatever it holds:
    /// the last checkpoint (job set, content cache, snapshot pools,
    /// quarantine) plus the journaled mutations past it. See
    /// [`crate::store`] for the recovery procedure, the restart-storm
    /// guard, and the reject-don't-trust invariant — a corrupt or
    /// version-drifted state file costs warm capital, never correctness,
    /// and never an error from this method.
    ///
    /// Replaces the solver's in-memory state with the recovered one (call
    /// it on a fresh solver). From here on, every
    /// [`add_job`](IncrementalSolver::add_job) /
    /// [`remove_job`](IncrementalSolver::remove_job) /
    /// [`update_window`](IncrementalSolver::update_window) is journaled
    /// *before* it is applied, and solves compact the journal into a new
    /// checkpoint every [`crate::store::CHECKPOINT_EVERY`] mutations.
    ///
    /// `Err` only on genuine I/O failure (permissions, disk full).
    pub fn attach_store(
        &mut self,
        root: impl AsRef<Path>,
    ) -> std::result::Result<RecoveryReport, PersistError> {
        let (store, state, report) = SolveStateStore::attach(root.as_ref(), self.g)?;
        self.jobs.clear();
        self.live = 0;
        self.content_cache.clear();
        self.shape_cache.clear();
        self.quarantine.clear();
        if let Some(s) = state {
            self.live = s.jobs.iter().flatten().count();
            self.jobs = s.jobs;
            self.content_cache = s.blocks.into_iter().collect();
            self.shape_cache = s.shapes.into_iter().collect();
            self.quarantine = s.quarantine.into_iter().collect();
        }
        self.store = Some(store);
        Ok(RecoveryReport {
            resumed_jobs: self.live,
            ..report
        })
    }

    /// Whether an attached store degraded (an I/O failure stopped
    /// persistence; the solver keeps serving from memory). `false` when no
    /// store is attached.
    pub fn store_degraded(&self) -> bool {
        self.store.as_ref().is_some_and(SolveStateStore::degraded)
    }

    /// Forces a checkpoint of the current state (compacting the journal),
    /// regardless of the periodic schedule. Returns whether a checkpoint
    /// was written (`false` with no store attached or a degraded one).
    pub fn checkpoint_now(&mut self) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        if store.degraded() {
            return false;
        }
        let seq = store.seq();
        let payload = encode_state(
            self.g,
            seq,
            &self.jobs,
            &self.content_cache,
            &self.shape_cache,
            &self.quarantine,
        );
        let store = self.store.as_mut().expect("checked above");
        store.checkpoint(&payload, seq);
        !store.degraded()
    }

    /// Number of content keys currently quarantined.
    pub fn quarantined(&self) -> usize {
        self.quarantine.len()
    }

    /// Manually re-admits every quarantined component: the next
    /// [`IncrementalSolver::solve`] retries them from the cold rung.
    pub fn clear_quarantine(&mut self) {
        self.quarantine.clear();
    }

    /// Capacity `g` of the instance under mutation.
    pub fn g(&self) -> usize {
        self.g
    }

    /// Number of live jobs.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the job set is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Adds a job; returns its stable handle. With a store attached the
    /// addition is write-ahead journaled before it takes effect.
    pub fn add_job(&mut self, job: Job) -> IncrementalJobId {
        let id = self.jobs.len();
        if let Some(store) = &mut self.store {
            store.log_op(&JournalOp::Add { id, job });
        }
        self.live += 1;
        self.jobs.push(Some(job));
        id
    }

    /// Removes a job by handle (write-ahead journaled, like
    /// [`add_job`](IncrementalSolver::add_job)).
    pub fn remove_job(&mut self, id: IncrementalJobId) -> Result<()> {
        match self.jobs.get_mut(id) {
            Some(slot @ Some(_)) => {
                if let Some(store) = &mut self.store {
                    store.log_op(&JournalOp::Remove { id });
                }
                *slot = None;
                self.live -= 1;
                Ok(())
            }
            _ => Err(Error::InvalidInstance(format!(
                "no live job with incremental id {id}"
            ))),
        }
    }

    /// Replaces a job's window (widen, shrink, or shift), keeping its
    /// length. Fails if the new window cannot hold the job.
    pub fn update_window(
        &mut self,
        id: IncrementalJobId,
        release: Time,
        deadline: Time,
    ) -> Result<()> {
        let Some(slot) = self.jobs.get_mut(id).and_then(Option::as_mut) else {
            return Err(Error::InvalidInstance(format!(
                "no live job with incremental id {id}"
            )));
        };
        let Some(updated) = Job::try_new(release, deadline, slot.length) else {
            return Err(Error::InvalidJob {
                job: id,
                reason: format!(
                    "window [{release}, {deadline}) cannot hold length {}",
                    slot.length
                ),
            });
        };
        if let Some(store) = &mut self.store {
            store.log_op(&JournalOp::Edit {
                id,
                release,
                deadline,
            });
        }
        *slot = updated;
        Ok(())
    }

    /// The current live job set, in handle order.
    pub fn jobs(&self) -> Vec<Job> {
        self.jobs.iter().filter_map(|j| *j).collect()
    }

    /// The current job set as a fresh [`Instance`].
    pub fn instance(&self) -> Result<Instance> {
        Instance::new(self.jobs(), self.g)
    }

    /// Re-solves LP1 for the current job set, reusing cached component
    /// blocks and warm-starting the dirty ones. The objective (and the
    /// stitched per-slot `y`'s feasibility) is bit-identical to a from-
    /// scratch [`solve_active_lp_with`](crate::lp_model::solve_active_lp_with)
    /// on [`IncrementalSolver::instance`].
    ///
    /// This is the legacy, [`Error`]-typed surface: quarantined components
    /// (possible only under fault injection or solve budgets) flatten into
    /// [`Error::Quarantined`]. [`IncrementalSolver::try_solve`] keeps the
    /// typed partial result.
    pub fn solve(&mut self) -> Result<IncrementalReport> {
        self.try_solve().map_err(Error::from)
    }

    /// The fallible-solve surface of [`IncrementalSolver::solve`]: when
    /// some components' supervision ladders failed entirely, returns
    /// [`SolveError::Partial`] carrying the exact objectives of every
    /// healthy component — clean components keep their cached blocks (and
    /// are **never re-solved** on later calls), and the quarantined keys
    /// are skipped until their content changes.
    pub fn try_solve(&mut self) -> std::result::Result<IncrementalReport, SolveError> {
        if self.content_cache.len() > CACHE_CAP {
            self.content_cache.clear();
            self.shape_cache.clear();
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
        let slots = horizon_slots(&inst);
        if inst.is_empty() {
            return Ok(IncrementalReport {
                lp: ActiveLp {
                    slots,
                    y: Vec::new(),
                    objective: Rat::ZERO,
                },
                components: 0,
                reused: 0,
                warm_attempts: 0,
                warm_hits: 0,
                cold_solves: 0,
            });
        }
        let runs = slot_runs(&inst, self.opts.coalesce);
        let comps = components(&inst, &runs, DecomposeMode::Auto);
        let ropts = revised_options(&self.opts);
        let mut y_runs = vec![Rat::ZERO; runs.len()];
        let mut objective = Rat::ZERO;
        let mut healthy: Vec<(usize, Rat)> = Vec::new();
        let mut quarantined: Vec<QuarantinedComponent> = Vec::new();
        let mut live_quarantine: Vec<ContentKey> = Vec::new();
        let mut report = IncrementalReport {
            lp: ActiveLp {
                slots: Vec::new(),
                y: Vec::new(),
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
            // Dirty: re-solve, warm where the backend supports it.
            let lp = build_component_lp(&inst, &self.opts, &runs, comp);
            let skey = component_signature(&inst, &runs, comp);
            let (sol, pivots, warm_hit, snapshot) = if self.opts.backend == LpBackend::Revised {
                let entry = self.shape_cache.get(&skey);
                let pool: &[BasisSnapshot] = entry.map(|e| e.snapshots.as_slice()).unwrap_or(&[]);
                match supervised_solve(&lp, &ropts.snapshots(pool)) {
                    Ok(sr) => {
                        if !pool.is_empty() {
                            report.warm_attempts += 1;
                            let reference = entry.map(|e| e.reference_pivots).unwrap_or(0);
                            record_warm_attempt(sr.warm_hit, reference, sr.stats.pivots);
                            if sr.warm_hit {
                                report.warm_hits += 1;
                            }
                        }
                        (sr.solution, sr.stats.pivots, sr.warm_hit, sr.snapshot)
                    }
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
                }
            } else {
                (
                    crate::lp_model::run_backend(&lp, &self.opts),
                    0,
                    false,
                    None,
                )
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
            if !warm_hit {
                report.cold_solves += 1;
            }
            let block = CachedBlock {
                y_runs: sol.x[..n_runs].to_vec(),
                objective: sol.objective,
            };
            for (k, val) in block.y_runs.iter().enumerate() {
                y_runs[comp.run_lo + k] = *val;
            }
            objective = objective.add(&block.objective);
            healthy.push((ci, block.objective));
            self.content_cache.insert(ckey, block);
            // Only cold-resolved snapshots enrich the shape pool: a warm
            // hit terminated at (or near) a vertex the pool already
            // covers, so pushing it would fill the capped pool with
            // duplicates and crowd out genuinely new vertices.
            if !warm_hit {
                if let Some(s) = snapshot {
                    let entry = self.shape_cache.entry(skey).or_insert_with(|| ShapeEntry {
                        snapshots: Vec::new(),
                        reference_pivots: pivots,
                    });
                    if entry.snapshots.len() < SNAPSHOT_POOL_CAP {
                        entry.snapshots.push(s);
                    }
                }
            }
        }
        // Quarantine entries whose content no longer exists (the offending
        // job was removed or mutated) are pruned: the key can only recur
        // through fresh content, which solves cold like any first sighting.
        self.quarantine.retain(|k, _| live_quarantine.contains(k));
        // Periodic compaction: fold the journal into a fresh checkpoint of
        // the post-solve state (partial solves included — their healthy
        // blocks are cache content worth persisting).
        if self
            .store
            .as_ref()
            .is_some_and(SolveStateStore::checkpoint_due)
        {
            self.checkpoint_now();
        }
        if !quarantined.is_empty() {
            // Healthy blocks (including the ones just solved) stay cached,
            // so the solver keeps serving them on every later call.
            return Err(SolveError::Partial(PartialSolve {
                healthy_objective: objective,
                healthy,
                quarantined,
            }));
        }
        report.lp = ActiveLp {
            y: disaggregate(&runs, &y_runs),
            slots,
            objective,
        };
        debug_assert_eq!(report.lp.y.len(), report.lp.slots.len());
        Ok(report)
    }

    /// Process-wide LP telemetry snapshot, re-exported for driver callers
    /// (the CLI's `incremental` subcommand prints the warm counters).
    pub fn telemetry() -> crate::lp_model::LpTelemetry {
        lp_telemetry()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_model::{solve_active_lp, solve_active_lp_with};

    #[test]
    fn matches_from_scratch_solves_across_mutations() {
        let mut solver = IncrementalSolver::new(2).unwrap();
        let a = solver.add_job(Job::new(0, 4, 2));
        let _b = solver.add_job(Job::new(1, 3, 2));
        let first = solver.solve().unwrap();
        assert_eq!(
            first.lp.objective,
            solve_active_lp(&solver.instance().unwrap())
                .unwrap()
                .objective
        );
        // Far-away arrival: a new component; the old one must be reused.
        let c = solver.add_job(Job::new(100, 104, 3));
        let second = solver.solve().unwrap();
        assert_eq!(second.components, 2);
        assert_eq!(second.reused, 1, "the untouched component is clean");
        assert_eq!(
            second.lp.objective,
            solve_active_lp(&solver.instance().unwrap())
                .unwrap()
                .objective
        );
        // Remove + window shift: still bit-identical to from-scratch.
        solver.remove_job(a).unwrap();
        solver.update_window(c, 101, 106).unwrap();
        let third = solver.solve().unwrap();
        assert_eq!(
            third.lp.objective,
            solve_active_lp(&solver.instance().unwrap())
                .unwrap()
                .objective
        );
    }

    #[test]
    fn unchanged_resolve_is_all_cache_hits() {
        let mut solver = IncrementalSolver::new(2).unwrap();
        solver.add_job(Job::new(0, 4, 2));
        solver.add_job(Job::new(10, 14, 3));
        let before = solver.solve().unwrap();
        assert_eq!(before.reused, 0);
        let again = solver.solve().unwrap();
        assert_eq!(again.components, 2);
        // The report counters are solver-local (unlike the process-global
        // telemetry), so exact-zero assertions are race-free here: a
        // fully clean re-solve touches no LP at all.
        assert_eq!(again.reused, 2, "nothing changed: everything is clean");
        assert_eq!(again.cold_solves, 0);
        assert_eq!(again.warm_attempts, 0);
        assert_eq!(again.lp.objective, before.lp.objective);
    }

    #[test]
    fn shape_echoes_warm_start_new_components() {
        // Arrivals into fresh stripes with the same window layout: from
        // the second stripe on, the new component's shape is cached and
        // re-solves attempt warm starts.
        let mut solver = IncrementalSolver::new(2).unwrap();
        let mut warm_attempts = 0;
        for k in 0..4i64 {
            // Distinct lengths per stripe keep the content keys fresh
            // (identical content would short-circuit into the content
            // cache with no solve at all), while the window layout — and
            // so the shape — repeats.
            let base = 20 * k;
            solver.add_job(Job::new(base, base + 6, 2 + k));
            solver.add_job(Job::new(base + 1, base + 5, 2));
            let rep = solver.solve().unwrap();
            warm_attempts += rep.warm_attempts;
            assert_eq!(
                rep.lp.objective,
                solve_active_lp(&solver.instance().unwrap())
                    .unwrap()
                    .objective
            );
        }
        assert!(
            warm_attempts >= 3,
            "later stripes must attempt warm starts (got {warm_attempts})"
        );
    }

    #[test]
    fn merge_and_split_components_stay_exact() {
        // A widening that merges two components, then a removal that
        // splits them again: content keys change, caches stay coherent.
        let mut solver = IncrementalSolver::new(2).unwrap();
        let _a = solver.add_job(Job::new(0, 4, 2));
        let b = solver.add_job(Job::new(8, 12, 2));
        let first = solver.solve().unwrap();
        assert_eq!(first.components, 2);
        // Widen b leftwards across the gap: one merged component.
        solver.update_window(b, 2, 12).unwrap();
        let merged = solver.solve().unwrap();
        assert_eq!(merged.components, 1);
        assert_eq!(
            merged.lp.objective,
            solve_active_lp(&solver.instance().unwrap())
                .unwrap()
                .objective
        );
        // Shrink it back: split again, and the original blocks' content
        // keys are still in the cache — both components are clean.
        solver.update_window(b, 8, 12).unwrap();
        let split = solver.solve().unwrap();
        assert_eq!(split.components, 2);
        assert_eq!(
            split.reused, 2,
            "both original blocks reused after the split"
        );
        assert_eq!(split.lp.objective, first.lp.objective);
    }

    #[test]
    fn empty_and_error_paths() {
        let mut solver = IncrementalSolver::new(3).unwrap();
        let rep = solver.solve().unwrap();
        assert_eq!(rep.lp.objective, Rat::ZERO);
        assert!(rep.lp.y.is_empty());
        assert!(solver.remove_job(7).is_err());
        let id = solver.add_job(Job::new(0, 4, 2));
        assert!(solver.update_window(id, 0, 1).is_err(), "window too small");
        solver.remove_job(id).unwrap();
        assert!(solver.remove_job(id).is_err(), "double remove");
        assert!(IncrementalSolver::new(0).is_err());
    }

    #[test]
    fn infeasible_mutation_is_reported() {
        let mut solver = IncrementalSolver::new(1).unwrap();
        solver.add_job(Job::new(0, 1, 1));
        solver.add_job(Job::new(0, 1, 1));
        assert!(matches!(solver.solve(), Err(Error::Infeasible(_))));
    }

    #[test]
    fn admission_rejection_is_typed_and_leaves_state_untouched() {
        let mut solver = IncrementalSolver::new(1).unwrap();
        solver.add_job(Job::new(0, 4, 2));
        let ok = solver.solve().unwrap();
        // An overloaded arrival bounces with a witness before any LP runs.
        let bad = solver.add_job(Job::new(0, 1, 1));
        solver.add_job(Job::new(0, 1, 1));
        match solver.try_solve() {
            Err(SolveError::Rejected(rej)) => {
                assert_eq!(rej.window, (0, 1));
                assert!(rej.demand > rej.capacity);
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        // Dropping the offenders restores service; the original block is
        // still cached (the rejection touched nothing).
        solver.remove_job(bad).unwrap();
        solver.remove_job(bad + 1).unwrap();
        let again = solver.solve().unwrap();
        assert_eq!(again.lp.objective, ok.lp.objective);
        assert_eq!(again.reused, 1);
    }

    #[test]
    fn poisoned_cache_block_is_absorbed_not_panicked() {
        // Satellite of the durability work: a cached block whose run
        // count disagrees with its key (reachable only via drifted
        // persisted state) must demote to a cold re-solve, never panic,
        // never change the answer.
        let mut solver = IncrementalSolver::new(2).unwrap();
        solver.add_job(Job::new(0, 4, 2));
        solver.add_job(Job::new(1, 3, 2));
        let clean = solver.solve().unwrap();
        // Poison every cached block with an impossible shape.
        for block in solver.content_cache.values_mut() {
            block.y_runs = vec![Rat::ZERO; 1usize];
            block.objective = Rat::from_int(999);
        }
        let resolved = solver.solve().unwrap();
        assert_eq!(resolved.lp.objective, clean.lp.objective);
        assert_eq!(resolved.reused, 0, "poisoned block must not be reused");
        assert!(resolved.cold_solves + resolved.warm_hits >= 1);
    }

    fn tmp_state_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("abt-incr-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn attach_resume_is_bit_identical_and_keeps_warm_capital() {
        let dir = tmp_state_dir("resume");
        let obj_before;
        {
            let mut solver = IncrementalSolver::new(2).unwrap();
            let rep = solver.attach_store(&dir).unwrap();
            assert!(rep.cold_start, "fresh dir starts cold");
            solver.add_job(Job::new(0, 4, 2));
            solver.add_job(Job::new(10, 14, 3));
            obj_before = solver.solve().unwrap().lp.objective;
            solver.checkpoint_now();
            assert!(!solver.store_degraded());
            // A journaled-but-not-checkpointed mutation with *fresh*
            // content (the content cache is translation-invariant, so an
            // echo of an existing component would be reused, not solved).
            solver.add_job(Job::new(20, 25, 3));
        } // process "dies" here
        let mut solver = IncrementalSolver::new(2).unwrap();
        let rep = solver.attach_store(&dir).unwrap();
        assert!(!rep.cold_start);
        assert_eq!(rep.resumed_jobs, 3, "journal tail replayed over checkpoint");
        assert_eq!(rep.replayed_ops, 1);
        assert!(rep.restored_blocks >= 2, "content cache restored");
        assert_eq!(rep.corruption_events, 0);
        let resumed = solver.solve().unwrap();
        // The two checkpointed components are clean; only the journaled
        // arrival solves.
        assert_eq!(resumed.reused, 2);
        let scratch = solve_active_lp(&solver.instance().unwrap()).unwrap();
        assert_eq!(resumed.lp.objective, scratch.objective);
        assert!(resumed.lp.objective > obj_before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_demotes_to_cold_with_identical_objective() {
        let dir = tmp_state_dir("corrupt");
        {
            let mut solver = IncrementalSolver::new(2).unwrap();
            solver.attach_store(&dir).unwrap();
            solver.add_job(Job::new(0, 4, 2));
            solver.add_job(Job::new(8, 12, 2));
            solver.solve().unwrap();
            solver.checkpoint_now();
        }
        // Bit rot in the checkpoint payload.
        let ckpt = dir.join(crate::store::CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&ckpt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&ckpt, &bytes).unwrap();
        let mut solver = IncrementalSolver::new(2).unwrap();
        let rep = solver.attach_store(&dir).unwrap();
        assert!(rep.cold_start, "corrupt checkpoint is discarded");
        assert_eq!(rep.corruption_events, 1);
        assert_eq!(rep.resumed_jobs, 0);
        // The job set is gone (warm capital lost), but re-adding and
        // solving is exact — corruption never costs correctness.
        solver.add_job(Job::new(0, 4, 2));
        solver.add_job(Job::new(8, 12, 2));
        let rebuilt = solver.solve().unwrap();
        let scratch = solve_active_lp(&solver.instance().unwrap()).unwrap();
        assert_eq!(rebuilt.lp.objective, scratch.objective);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn g_drift_rejects_the_checkpoint() {
        let dir = tmp_state_dir("gdrift");
        {
            let mut solver = IncrementalSolver::new(2).unwrap();
            solver.attach_store(&dir).unwrap();
            solver.add_job(Job::new(0, 4, 2));
            solver.checkpoint_now();
        }
        // Re-attach with a different capacity: the state is for another g.
        let mut solver = IncrementalSolver::new(3).unwrap();
        let rep = solver.attach_store(&dir).unwrap();
        assert!(rep.cold_start);
        assert_eq!(rep.corruption_events, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_storm_quarantines_and_starts_cold() {
        let dir = tmp_state_dir("storm");
        {
            let mut solver = IncrementalSolver::new(2).unwrap();
            solver.attach_store(&dir).unwrap();
            solver.add_job(Job::new(0, 4, 2));
            solver.checkpoint_now();
        }
        // Simulate recovery dying before completion N times: the attempt
        // counter never clears.
        let sd = abt_core::StateDir::open(&dir).unwrap();
        for _ in 0..crate::store::MAX_RECOVERY_ATTEMPTS {
            sd.bump_recovery_attempts().unwrap();
        }
        let mut solver = IncrementalSolver::new(2).unwrap();
        let rep = solver.attach_store(&dir).unwrap();
        assert!(rep.storm_quarantined);
        assert!(rep.cold_start);
        assert!(solver.is_empty());
        assert!(dir
            .join("quarantined-0")
            .join(crate::store::CHECKPOINT_FILE)
            .exists());
        // Service continues: the quarantined dir does not poison new work.
        solver.add_job(Job::new(0, 4, 2));
        solver.solve().unwrap();
        solver.checkpoint_now();
        let mut again = IncrementalSolver::new(2).unwrap();
        let rep = again.attach_store(&dir).unwrap();
        assert!(!rep.cold_start);
        assert_eq!(rep.resumed_jobs, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn periodic_checkpoint_compacts_the_journal() {
        let dir = tmp_state_dir("compact");
        let mut solver = IncrementalSolver::new(2).unwrap();
        solver.attach_store(&dir).unwrap();
        // More mutations than CHECKPOINT_EVERY, with solves in between.
        let mut ids = Vec::new();
        for k in 0..crate::store::CHECKPOINT_EVERY as i64 + 4 {
            ids.push(solver.add_job(Job::new(30 * k, 30 * k + 5, 2)));
            if k % 3 == 0 {
                solver.solve().unwrap();
            }
        }
        solver.solve().unwrap();
        let inspection = crate::store::inspect_store(&dir).unwrap();
        let ckpt = inspection.checkpoint.expect("checkpoint exists");
        assert!(
            ckpt.seq >= crate::store::CHECKPOINT_EVERY,
            "compaction folded the journal into the checkpoint (seq {})",
            ckpt.seq
        );
        assert_eq!(inspection.pending_ops + ckpt.live_jobs, ids.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn matches_all_encoding_variants() {
        // The incremental driver under every BoundsMode × VubMode must
        // reproduce the from-scratch objective bit for bit.
        use crate::lp_model::{BoundsMode, VubMode};
        for bounds in [BoundsMode::Rows, BoundsMode::Implicit] {
            for vub in [VubMode::Rows, VubMode::Implicit] {
                let opts = LpOptions {
                    bounds,
                    vub,
                    ..LpOptions::default()
                };
                let mut solver = IncrementalSolver::with_options(2, opts).unwrap();
                for k in 0..3i64 {
                    let base = 10 * k;
                    solver.add_job(Job::new(base, base + 5, 3));
                    let rep = solver.solve().unwrap();
                    let scratch = solve_active_lp_with(&solver.instance().unwrap(), &opts)
                        .unwrap()
                        .objective;
                    assert_eq!(rep.lp.objective, scratch, "{bounds:?} {vub:?}");
                }
            }
        }
    }
}
