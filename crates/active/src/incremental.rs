//! Incremental re-solving of LP1 over a **mutating instance** — the
//! online-arrivals driver.
//!
//! [`IncrementalSolver`] owns a job set that callers mutate between
//! solves ([`IncrementalSolver::add_job`],
//! [`IncrementalSolver::remove_job`], and the window edits of
//! [`IncrementalSolver::update_window`] — widen, shrink, or shift), and
//! re-solves **only what changed**. The machinery composes two layers:
//!
//! * **Component decomposition, kept across solves** — the solver keeps
//!   the connected components of the job-window interval graph from one
//!   solve to the next, in a map keyed by span start. Every mutation
//!   records the windows it touches (old and new); a solve dissolves only
//!   the kept components that overlap a touched window (half-open overlap,
//!   `r < d′` and `r′ < d`, the rule of the whole-instance sweep) and
//!   re-partitions their live members plus the mutated jobs with one
//!   sort-and-merge. Untouched components keep their members, content key
//!   and run widths, so a solve does work in proportion to what the
//!   mutations touched, not to the job set.
//! * **Dirty-component tracking by content** — the solver caches each
//!   solved component under a translation-invariant *content key* (the
//!   sorted multiset of its jobs' `(release, deadline, length)` offsets).
//!   A component whose content key is still cached is **clean**: its
//!   exact per-run `Y` block and rational objective are reused with *no
//!   LP solve at all*. Mutations dirty exactly the components whose job
//!   content changed — including merges and splits, whose products are
//!   new keys. Deletions don't invalidate survivors: an untouched
//!   component keeps its key whatever happens elsewhere.
//! * **Held blocks** — a kept component holds its solved block (objective
//!   and open runs) from the solve that served it until it dissolves. Only
//!   the components the last regroup created hold none: they alone
//!   consult the content cache, the quarantine, the admission precheck
//!   and the supervision ladder, from a sub-instance of their members
//!   built once. A solve therefore looks up, admits and solves in
//!   proportion to what the mutations touched; the ~80 untouched
//!   components of a typical op cost one pass over their held runs.
//!
//! A dirty component solves cold down the supervision ladder, from the
//! crash start its LP block carries (see [`crate::lp_model`]).
//!
//! **Exactness is preserved end to end**: cached and held blocks carry
//! the exact rational `Y`/objective they were certified with, and the
//! assembled objective is an exact rational sum — bit-identical to
//! solving the current instance from scratch with
//! [`solve_active_lp_with`](crate::lp_model), which the property tests
//! assert. The report counters are those of a driver that consults the
//! cache for every component: a held block's key is in the cache, and
//! the cache-size reset drops the held blocks with the cache.
//!
//! Admission runs per component, and only on the new components the
//! content cache cannot serve: the interval load condition decomposes
//! over components, and a cached or held block certifies its content (see
//! [`crate::admission`]). The verdict, and the first violated deadline of
//! a rejection, are those of the whole-instance sweep.
//!
//! A component that must be solved builds its LP from a sub-instance of
//! its members in ascending handle order. Its slot runs are the global
//! runs inside its span (no other job has an event point there), so the
//! LP and its content key are exactly those of the whole-instance
//! decomposition, and the answer's open runs are the held blocks' runs in
//! time order: nothing is written per slot, so a span of any length that
//! fits `i64` answers.
//!
//! Each [`IncrementalReport`] carries the per-solve breakdown (components
//! reused / solved cold). Each solve opens the always-on spans
//! `incremental.regroup`, `incremental.admission` and
//! `incremental.stitch` (the assembly of the open runs), and adds the
//! jobs it re-partitioned to the `incremental.jobs_regrouped` registry
//! counter.

use crate::admission::admission_precheck;
use crate::lp_model::{
    build_component_lp, push_open_runs, record_admission_reject, record_quarantine,
    record_recovery, record_state_corrupt, slot_runs, ActiveLp, Component, DecomposeMode,
    LpOptions, OpenRun, SlotRun,
};
use crate::store::{encode_state, JournalOp, RecoveryReport, SolveStateStore};
use crate::supervise::{supervised_solve, PartialSolve, QuarantinedComponent, SolveError};
use abt_core::active_schedule::horizon_len;
use abt_core::obs::metrics::{self, Counter};
use abt_core::persist::PersistError;
use abt_core::{Error, Instance, Job, Result, SolveFailure, Time};
use abt_lp::{LpStatus, Rat};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::OnceLock;

#[cfg(test)]
mod oracle;

/// Bound on cached component blocks; past it the content cache, the
/// quarantine and the held blocks are cleared (a rare, cheap reset that
/// keeps a long-lived solver's memory bounded).
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

/// Handle to a job owned by an [`IncrementalSolver`] (stable across
/// mutations; unrelated to any [`Instance`]'s job indices).
pub type IncrementalJobId = usize;

/// A component of the last solve, kept in [`IncrementalSolver`]'s map
/// under its span start.
struct KeptComponent {
    /// Span end: the latest member deadline.
    end: Time,
    /// Member handles, ascending. This is the order of the jobs in the
    /// current instance, so the component LP's columns come out in the
    /// same order as in a whole-instance decomposition.
    members: Vec<IncrementalJobId>,
    /// Content key of the members' jobs.
    key: ContentKey,
    /// Widths of the component's slot runs, in time order.
    widths: Vec<i64>,
    /// The solved block, or what the next solve needs to get one.
    block: Block,
}

/// A kept component's answer.
enum Block {
    /// Not served yet (created by the last regroup, quarantined, or its
    /// held block dropped): the sub-instance of the members, for the
    /// admission precheck and the component LP.
    Fresh(Instance),
    /// The exact objective and open runs of the block that served it.
    Held { objective: Rat, open: Vec<OpenRun> },
}

impl Block {
    /// Open runs held (0 while fresh).
    fn open_runs(&self) -> usize {
        match self {
            Block::Fresh(_) => 0,
            Block::Held { open, .. } => open.len(),
        }
    }

    /// `block` laid out from span start `start` over runs of `widths`.
    fn held(start: Time, widths: &[i64], block: &CachedBlock) -> Block {
        let runs = widths.iter().scan(start, |at, &w| {
            let run = SlotRun {
                start: *at,
                end: *at + w,
            };
            *at = run.end;
            Some(run)
        });
        let mut open = Vec::new();
        push_open_runs(&mut open, runs, &block.y_runs);
        Block::Held {
            objective: block.objective,
            open,
        }
    }
}

/// The `incremental.jobs_regrouped` registry counter: live jobs that
/// solves (and store attaches) re-partitioned into components.
fn jobs_regrouped() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| metrics::counter("incremental.jobs_regrouped"))
}

/// What one [`IncrementalSolver::solve`] call did, besides solving.
#[derive(Debug, Clone)]
pub struct IncrementalReport {
    /// The exact LP1 optimum of the current job set as open runs and
    /// objective: the same objective and runs as
    /// [`solve_active_lp_with`](crate::lp_model::solve_active_lp_with) on
    /// [`IncrementalSolver::instance`], assembled from the components'
    /// blocks in time order.
    pub lp: ActiveLp,
    /// Components of the current interval graph.
    pub components: usize,
    /// Components reused verbatim from the content cache (no LP solve).
    pub reused: usize,
    /// Always 0: re-solves have no warm starts. Kept only because the
    /// benchmark harness (`perfbench/src/churn.rs`) reads it.
    pub warm_attempts: usize,
    /// Always 0, like [`IncrementalReport::warm_attempts`] and for the
    /// same reason.
    pub warm_hits: usize,
    /// Components solved (cold, from their crash start) because the
    /// content cache could not serve them.
    pub cold_solves: usize,
}

/// An incrementally re-solving LP1 driver. See the module docs.
pub struct IncrementalSolver {
    g: usize,
    opts: LpOptions,
    jobs: Vec<Option<Job>>,
    live: usize,
    content_cache: HashMap<ContentKey, CachedBlock>,
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
    /// The components of the current job set as of the last regroup,
    /// keyed by span start. Spans are disjoint, so both starts and ends
    /// ascend through the map.
    comps: BTreeMap<Time, KeptComponent>,
    /// Windows that mutations since the last regroup touched, old and new.
    touched: Vec<(Time, Time)>,
    /// Jobs added or re-windowed since the last regroup.
    pending: Vec<IncrementalJobId>,
}

impl IncrementalSolver {
    /// A solver with the default [`LpOptions`].
    pub fn new(g: usize) -> Result<IncrementalSolver> {
        IncrementalSolver::with_options(g, LpOptions::default())
    }

    /// A solver with explicit [`LpOptions`]. `opts.decompose` is forced to
    /// [`DecomposeMode::Auto`] — per-component solving is what makes
    /// incrementality work.
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
            quarantine: HashMap::new(),
            store: None,
            comps: BTreeMap::new(),
            touched: Vec::new(),
            pending: Vec::new(),
        })
    }

    /// Attaches a durable state directory and recovers whatever it holds:
    /// the last checkpoint (job set, content cache, quarantine) plus the
    /// journaled mutations past it. See [`crate::store`] for the recovery
    /// procedure, the restart-storm guard, and the reject-don't-trust
    /// invariant — a corrupt or version-drifted state file costs cached
    /// work, never correctness, and never an error from this method.
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
        self.quarantine.clear();
        if let Some(s) = state {
            self.live = s.jobs.iter().flatten().count();
            self.jobs = s.jobs;
            self.content_cache = s.blocks.into_iter().collect();
            self.quarantine = s.quarantine.into_iter().collect();
        }
        self.comps.clear();
        self.touched.clear();
        self.pending = (0..self.jobs.len())
            .filter(|&h| self.jobs[h].is_some())
            .collect();
        // A component span too long to regroup leaves its jobs pending:
        // the next solve refuses it, as it would a fresh arrival.
        let _ = self.regroup();
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
        self.touched.push((job.release, job.deadline));
        self.pending.push(id);
        id
    }

    /// Removes a job by handle (write-ahead journaled, like
    /// [`add_job`](IncrementalSolver::add_job)).
    pub fn remove_job(&mut self, id: IncrementalJobId) -> Result<()> {
        let Some(job) = self.jobs.get(id).copied().flatten() else {
            return Err(Error::InvalidInstance(format!(
                "no live job with incremental id {id}"
            )));
        };
        if let Some(store) = &mut self.store {
            store.log_op(&JournalOp::Remove { id });
        }
        self.jobs[id] = None;
        self.live -= 1;
        self.touched.push((job.release, job.deadline));
        Ok(())
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
        self.touched.push((slot.release, slot.deadline));
        self.touched.push((release, deadline));
        self.pending.push(id);
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

    /// Re-solves LP1 for the current job set, reusing held and cached
    /// component blocks and solving the dirty ones cold. The objective
    /// (and the assembled runs' feasibility) is bit-identical to a from-
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
    /// healthy component — clean components keep their blocks (and are
    /// **never re-solved** on later calls), and the quarantined keys are
    /// skipped until their content changes.
    pub fn try_solve(&mut self) -> std::result::Result<IncrementalReport, SolveError> {
        if self.content_cache.len() > CACHE_CAP {
            self.content_cache.clear();
            self.quarantine.clear();
            self.drop_held(|_| true);
        }
        // Every live job outside `pending` passed a regroup, so only a job
        // added since can be invalid; the whole-instance check names it.
        let invalid = |h: &IncrementalJobId| {
            self.jobs[*h].is_some_and(|j| Job::try_new(j.release, j.deadline, j.length).is_none())
        };
        if self.pending.iter().any(invalid) {
            self.instance().map_err(SolveError::Model)?;
        }
        self.regroup().map_err(SolveError::Model)?;
        // Admission control: the Hall-condition precheck bounces
        // provably-infeasible job sets before any LP is built, leaving
        // every cache untouched. Held blocks and the components the
        // content cache serves already passed it (see
        // [`crate::admission`]).
        let mut fresh: Vec<Time> = Vec::new();
        {
            let _span = abt_core::obs_span!("incremental.admission");
            for (&start, kept) in &self.comps {
                let Block::Fresh(sub) = &kept.block else {
                    continue;
                };
                fresh.push(start);
                let served = self
                    .content_cache
                    .get(&kept.key)
                    .is_some_and(|b| b.y_runs.len() == kept.widths.len());
                if served {
                    continue;
                }
                if let Err(rej) = admission_precheck(sub) {
                    record_admission_reject();
                    return Err(SolveError::Rejected(rej));
                }
            }
        }
        if self.comps.is_empty() {
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
        // Serve the new components in time order: from the content cache,
        // else cold down the supervision ladder, from the block's crash
        // start.
        let ropts = abt_lp::LpOptions::new().pricing(self.opts.pricing);
        let mut cold_solves = 0;
        for start in fresh {
            let kept = self
                .comps
                .get_mut(&start)
                .expect("fresh components are kept");
            match self.content_cache.get(&kept.key) {
                Some(block) if block.y_runs.len() == kept.widths.len() => {
                    kept.block = Block::held(start, &kept.widths, block);
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
                    self.content_cache.remove(&kept.key);
                }
                None => {}
            }
            // A quarantined key is not retried: the ladder already failed
            // for this exact content, and re-admission is content-driven.
            if self.quarantine.contains_key(&kept.key) {
                continue;
            }
            let Block::Fresh(sub) = &kept.block else {
                unreachable!("only fresh components are served")
            };
            let runs = slot_runs(sub);
            let comp = Component {
                run_lo: 0,
                run_hi: runs.len(),
                jobs: (0..sub.len()).collect(),
            };
            let clp = build_component_lp(sub, &self.opts, &runs, &comp);
            let sol = match supervised_solve(&clp.lp, &ropts.start(clp.start.as_ref())) {
                Ok(sr) => sr.solution,
                Err(f) => {
                    record_quarantine();
                    self.quarantine.insert(kept.key.clone(), f);
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
            cold_solves += 1;
            let block = CachedBlock {
                y_runs: sol.x[..kept.widths.len()].to_vec(),
                objective: sol.objective,
            };
            kept.block = Block::held(start, &kept.widths, &block);
            self.content_cache.insert(kept.key.clone(), block);
        }
        // Assemble the answer from the held blocks in time order; a
        // component without one is quarantined.
        let mut runs: Vec<OpenRun> = Vec::new();
        let mut objective = Rat::ZERO;
        let mut quarantined: Vec<QuarantinedComponent> = Vec::new();
        let mut live_quarantine: Vec<&ContentKey> = Vec::new();
        {
            let _span = abt_core::obs_span!("incremental.stitch");
            runs.reserve_exact(self.comps.values().map(|k| k.block.open_runs()).sum());
            for kept in self.comps.values() {
                match &kept.block {
                    Block::Held {
                        objective: obj,
                        open,
                    } => {
                        runs.extend_from_slice(open);
                        objective = objective.add(obj);
                    }
                    Block::Fresh(_) => {
                        quarantined.push(QuarantinedComponent {
                            jobs: instance_indices(&self.jobs, &kept.members),
                            failure: self.quarantine[&kept.key].clone(),
                        });
                        live_quarantine.push(&kept.key);
                    }
                }
            }
        }
        let report = IncrementalReport {
            lp: ActiveLp { runs, objective },
            components: self.comps.len(),
            reused: self.comps.len() - cold_solves - quarantined.len(),
            warm_attempts: 0,
            warm_hits: 0,
            cold_solves,
        };
        // Quarantine entries whose content no longer exists (the offending
        // job was removed or mutated) are pruned: the key can only recur
        // through fresh content, which solves cold like any first sighting.
        self.quarantine.retain(|k, _| live_quarantine.contains(&k));
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
            // Healthy blocks (including the ones just solved) stay held
            // and cached, so the solver keeps serving them on every later
            // call.
            let healthy = self
                .comps
                .values()
                .enumerate()
                .filter_map(|(ci, kept)| match kept.block {
                    Block::Held { objective, .. } => Some((ci, objective)),
                    Block::Fresh(_) => None,
                })
                .collect();
            return Err(SolveError::Partial(PartialSolve {
                healthy_objective: report.lp.objective,
                healthy,
                quarantined,
            }));
        }
        Ok(report)
    }

    /// Drops the held blocks of the kept components `select` picks: the
    /// next solve serves them like new components.
    fn drop_held(&mut self, select: impl Fn(&KeptComponent) -> bool) {
        for kept in self.comps.values_mut() {
            if matches!(kept.block, Block::Held { .. }) && select(kept) {
                kept.block = Block::Fresh(member_instance(&self.jobs, &kept.members, self.g));
            }
        }
    }

    /// Re-partitions the kept components that a mutation since the last
    /// regroup touched: they dissolve, and their live members plus the
    /// added or re-windowed jobs merge into new components with one
    /// sort-and-merge. A kept component that overlaps no touched window
    /// lost no member and gained no neighbour, so it is still a component.
    ///
    /// A new component whose span is longer than `i64` holds is refused
    /// with [`Error::HorizonTooLong`] before anything changes: its run
    /// widths and content key would overflow.
    fn regroup(&mut self) -> Result<()> {
        let _span = abt_core::obs_span!("incremental.regroup");
        let mut dissolved: Vec<Time> = Vec::new();
        for &(r, d) in &self.touched {
            // Kept spans ascend, so the ones overlapping [r, d) are the
            // last few that start before d.
            for (&start, kept) in self.comps.range(..d).rev() {
                if kept.end <= r {
                    break;
                }
                dissolved.push(start);
            }
        }
        dissolved.sort_unstable();
        dissolved.dedup();
        let mut windows: Vec<(Time, Time, IncrementalJobId)> = dissolved
            .iter()
            .flat_map(|start| &self.comps[start].members)
            .chain(&self.pending)
            .filter_map(|&h| self.jobs[h].map(|j| (j.release, j.deadline, h)))
            .collect();
        windows.sort_unstable();
        windows.dedup();
        // A window joins the component iff it starts before the span
        // ends: the half-open overlap rule.
        let mut groups: Vec<(usize, usize, Time)> = Vec::new();
        let mut i = 0;
        while i < windows.len() {
            let mut end = windows[i].1;
            let mut j = i + 1;
            while j < windows.len() && windows[j].0 < end {
                end = end.max(windows[j].1);
                j += 1;
            }
            horizon_len(windows[i].0, end)?;
            groups.push((i, j, end));
            i = j;
        }
        for start in &dissolved {
            self.comps.remove(start);
        }
        self.touched.clear();
        self.pending.clear();
        jobs_regrouped().add(windows.len() as u64);
        for (i, j, end) in groups {
            let mut members: Vec<IncrementalJobId> = windows[i..j].iter().map(|w| w.2).collect();
            members.sort_unstable();
            let sub = member_instance(&self.jobs, &members, self.g);
            let widths = slot_runs(&sub).iter().map(SlotRun::width).collect();
            let key = content_key(sub.jobs());
            self.comps.insert(
                windows[i].0,
                KeptComponent {
                    end,
                    members,
                    key,
                    widths,
                    block: Block::Fresh(sub),
                },
            );
        }
        Ok(())
    }
}

/// The translation-invariant [`ContentKey`] of a component's jobs.
fn content_key(jobs: &[Job]) -> ContentKey {
    let base = jobs
        .iter()
        .map(|j| j.release)
        .min()
        .expect("components are never empty");
    let mut key: ContentKey = jobs
        .iter()
        .map(|j| (j.release - base, j.deadline - base, j.length))
        .collect();
    key.sort_unstable();
    key
}

/// The sub-instance of `members`' jobs, in the order given.
fn member_instance(jobs: &[Option<Job>], members: &[IncrementalJobId], g: usize) -> Instance {
    let member_jobs = members
        .iter()
        .map(|&h| jobs[h].expect("component members are live"))
        .collect();
    Instance::new(member_jobs, g).expect("regrouped jobs passed validation")
}

/// The instance indices of `members` (ascending handles): each one's rank
/// among the live handles.
fn instance_indices(jobs: &[Option<Job>], members: &[IncrementalJobId]) -> Vec<usize> {
    let mut rank = 0;
    let mut from = 0;
    members
        .iter()
        .map(|&h| {
            rank += jobs[from..h].iter().filter(|j| j.is_some()).count();
            from = h;
            rank
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_model::{lp_telemetry, solve_active_lp, solve_active_lp_with};

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
        assert_eq!(again.lp.objective, before.lp.objective);
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
        assert!(rep.lp.runs.is_empty());
        assert!(solver.remove_job(7).is_err());
        let id = solver.add_job(Job::new(0, 4, 2));
        assert!(solver.update_window(id, 0, 1).is_err(), "window too small");
        solver.remove_job(id).unwrap();
        assert!(solver.remove_job(id).is_err(), "double remove");
        assert!(IncrementalSolver::new(0).is_err());
    }

    #[test]
    fn an_invalid_arrival_is_a_typed_error_until_it_leaves() {
        let mut solver = IncrementalSolver::new(2).unwrap();
        solver.add_job(Job::new(0, 4, 2));
        // Job's fields are public, so an unchecked literal can arrive.
        let bad = solver.add_job(Job {
            release: 5,
            deadline: 6,
            length: 3,
        });
        match solver.try_solve() {
            Err(SolveError::Model(Error::InvalidJob { job, .. })) => assert_eq!(job, 1),
            other => panic!("expected InvalidJob, got {other:?}"),
        }
        solver.remove_job(bad).unwrap();
        let rep = solver.solve().unwrap();
        assert_eq!(rep.components, 1);
        assert_eq!(rep.lp.objective, Rat::from_int(2));
    }

    #[test]
    fn a_horizon_past_the_per_slot_limit_is_answered_as_runs() {
        // 8·10⁹ slots: nothing is written per slot, so the span answers
        // like any other, with the mass bound 15/2.
        let mut solver = IncrementalSolver::new(2).unwrap();
        for (r, d, p) in [
            (0, 8_000_000_000, 3),
            (1, 8_000_000_001, 2),
            (5, 7_999_999_990, 4),
            (2, 9, 1),
            (7_999_999_000, 8_000_000_000, 5),
        ] {
            solver.add_job(Job::try_new(r, d, p).unwrap());
        }
        let rep = solver.solve().unwrap();
        assert_eq!(rep.lp.objective, Rat::new(15, 2));
        assert_eq!((rep.components, rep.cold_solves), (1, 1));
        let scratch = solve_active_lp(&solver.instance().unwrap()).unwrap();
        assert_eq!(scratch.objective, rep.lp.objective);
        let mass = rep
            .lp
            .runs
            .iter()
            .fold(Rat::ZERO, |acc, run| acc.add(&run.mass));
        assert_eq!(mass, rep.lp.objective);
    }

    /// A window whose length overflows `i64`: `solve_active_lp` refuses
    /// its instance with `HorizonTooLong`.
    fn overlong_job() -> Job {
        Job::try_new(-9_223_372_036_854_775_000, 9_223_372_036_854_775_000, 5).unwrap()
    }

    fn is_horizon_too_long<T>(res: Result<T>) -> bool {
        matches!(
            res,
            Err(Error::HorizonTooLong { slots, .. }) if slots == 18_446_744_073_709_550_000
        )
    }

    #[test]
    fn a_span_longer_than_i64_is_refused_before_regrouping() {
        // One window too long for `i64`, and two windows that each fit
        // but whose component spans too long.
        let two = [
            Job::try_new(-9_223_372_036_854_775_000, 0, 1).unwrap(),
            Job::try_new(-1, 9_223_372_036_854_775_000, 1).unwrap(),
        ];
        for jobs in [vec![overlong_job()], two.to_vec()] {
            let inst = Instance::new(jobs.clone(), 1).unwrap();
            assert!(is_horizon_too_long(solve_active_lp(&inst)));
            let mut solver = IncrementalSolver::new(1).unwrap();
            let ids: Vec<_> = jobs.iter().map(|&j| solver.add_job(j)).collect();
            assert!(is_horizon_too_long(solver.solve()));
            // The refusal changed nothing: the jobs stay until they leave.
            assert!(is_horizon_too_long(solver.solve()));
            for id in ids {
                solver.remove_job(id).unwrap();
            }
            solver.add_job(Job::new(0, 4, 2));
            assert_eq!(solver.solve().unwrap().lp.objective, Rat::from_int(2));
        }
    }

    #[test]
    fn a_recovered_window_longer_than_i64_is_refused_on_the_next_solve() {
        let dir = tmp_state_dir("overlong");
        let id = {
            let mut solver = IncrementalSolver::new(1).unwrap();
            solver.attach_store(&dir).unwrap();
            solver.add_job(Job::new(0, 4, 2));
            solver.add_job(overlong_job())
        };
        // The journaled arrival is recovered, not regrouped.
        let mut solver = IncrementalSolver::new(1).unwrap();
        let rep = solver.attach_store(&dir).unwrap();
        assert_eq!(rep.resumed_jobs, 2);
        assert!(is_horizon_too_long(solver.solve()));
        solver.remove_job(id).unwrap();
        assert_eq!(solver.solve().unwrap().lp.objective, Rat::from_int(2));
        std::fs::remove_dir_all(&dir).unwrap();
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
        // A cached block whose run count disagrees with its key is
        // reachable only via drifted persisted state: checkpoint one,
        // re-attach and solve. The block must be dropped and its
        // component solved cold — never a panic, never a changed answer.
        let dir = tmp_state_dir("poison");
        let clean = {
            let mut solver = IncrementalSolver::new(2).unwrap();
            solver.attach_store(&dir).unwrap();
            solver.add_job(Job::new(0, 4, 2));
            solver.add_job(Job::new(1, 3, 2));
            let clean = solver.solve().unwrap();
            // Poison every cached block with an impossible shape.
            for block in solver.content_cache.values_mut() {
                block.y_runs = vec![Rat::ZERO; 1usize];
                block.objective = Rat::from_int(999);
            }
            assert!(solver.checkpoint_now());
            clean.lp.objective
        };
        let mut solver = IncrementalSolver::new(2).unwrap();
        let rep = solver.attach_store(&dir).unwrap();
        assert_eq!((rep.restored_blocks, rep.corruption_events), (1, 0));
        let before = lp_telemetry();
        let resolved = solver.solve().unwrap();
        let d = lp_telemetry().delta(&before);
        assert_eq!(resolved.lp.objective, clean);
        assert_eq!(resolved.reused, 0, "poisoned block must not be reused");
        assert_eq!(resolved.cold_solves, 1);
        // The cold solve's block replaced the poisoned one.
        let kept = solver.comps.values().next().unwrap();
        let block = &solver.content_cache[&kept.key];
        assert_eq!(
            (block.y_runs.len(), block.objective),
            (kept.widths.len(), clean)
        );
        // Lower bounds: the counters are process-wide and sibling tests
        // run concurrently (tests/poisoned_checkpoint.rs pins exactly one
        // of each in a binary of its own).
        assert!(d.state_corrupt >= 1 && d.recoveries >= 1, "{d:?}");
        std::fs::remove_dir_all(&dir).unwrap();
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
        // The job set is gone (cached work lost), but re-adding and
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
        // The incremental driver under both VubMode encodings must
        // reproduce the from-scratch objective bit for bit.
        use crate::lp_model::VubMode;
        for vub in [VubMode::Rows, VubMode::Implicit] {
            let opts = LpOptions {
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
                assert_eq!(rep.lp.objective, scratch, "{vub:?}");
            }
        }
    }
}
