//! `arrival_churn`: one mutation, then `IncrementalSolver::solve` — the
//! online active-time path of `abt replay`.
//!
//! The universe is `STRIPES` disjoint stripes of `STRIPE_JOBS` jobs, each
//! stripe carved on its own from a reference schedule with capacity `G`.
//! The live set is a subset of the universe, and every live window
//! contains its generated window (edits only widen, or restore the
//! generated window), so every live job set is feasible. Widening stays
//! inside the stripe, so components never merge across stripes and each
//! op solves at most a stripe's worth of jobs.
//!
//! Persistence runs in set-up: the first session's initial live set is
//! seeded into a durable store (one journaled add per job, a solve, a
//! checkpoint), and a second solver re-attaches the store and must recover
//! every job. The timed ops run on in-memory solvers. With a store
//! attached, every mutation fsyncs the journal, and fsync latency on the
//! checkout's disk varies by milliseconds from run to run, far more than
//! the solver's own time does.
//!
//! The ops run in sessions, `SESSIONS` to a slice. Each session has its
//! own initial live set and mutation stream; it seeds a fresh solver with
//! the live set (outside the op timer) and replays its `SESSION_OPS`
//! mutations. The solver's caches grow with every new component content,
//! so an unbounded stream would get slower op by op; sessions keep each
//! run's work the same whatever the run length. Independent sessions and
//! stripes average the work over many live sets and job sets, so that it
//! varies little from seed to seed.

use crate::gen::{carve, Carve, Fnv, Rng};
use crate::trace::{lp_layer, Snap, Tracer};
use crate::{Metrics, OpResult, Workload};
use abt_active::{
    solve_active_lp_with, DecomposeMode, IncrementalJobId, IncrementalReport, IncrementalSolver,
    LpOptions,
};
use abt_core::{Instance, Job};
use abt_lp::Rat;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

const G: usize = 12;
const STRIPES: usize = 64;
const STRIPE_JOBS: usize = 20;
/// Reference cells per stripe; stripes start `STRIDE` apart.
const WIDTH: i64 = 32;
const STRIDE: i64 = 48;
/// Sessions per slice, and ops per session.
const SESSIONS: usize = 4;
const SESSION_OPS: usize = 128;
/// In the first slice, every `SAMPLE_EVERY`-th op of a session (its last,
/// the session's final state, included) is re-solved from scratch and
/// must give the same exact LP1 optimum. Later slices replay the same
/// sessions, and each of their answers must equal the warm-up's bit for
/// bit, so the first slice's checks cover them too.
const SAMPLE_EVERY: usize = 64;

/// Where the seeded store lives during set-up, relative to the working
/// directory (the root of the checkout the benchmark runs in).
const STATE_ROOT: &str = ".perfbench_state";

#[derive(Clone, Copy, Debug)]
enum Mutation {
    Arrive(usize),
    Depart(usize),
    Widen(usize, i64, i64),
    Restore(usize),
}

/// The live set over the universe, and the seeded stream of mutations
/// that walks it. The stream depends only on the seed and the state, so
/// the op sequence is a pure function of the seed.
#[derive(Clone)]
struct Churner {
    universe: Vec<Job>,
    /// Per universe job: its handle while live.
    handle: Vec<Option<IncrementalJobId>>,
    /// Per universe job: whether its live window is wider than generated.
    widened: Vec<bool>,
    rng: Rng,
}

impl Churner {
    fn live(&self) -> Vec<usize> {
        (0..self.universe.len())
            .filter(|&u| self.handle[u].is_some())
            .collect()
    }

    fn next(&mut self) -> Mutation {
        let live = self.live();
        let idle: Vec<usize> = (0..self.universe.len())
            .filter(|&u| self.handle[u].is_none())
            .collect();
        let wide: Vec<usize> = live.iter().copied().filter(|&u| self.widened[u]).collect();
        loop {
            match self.rng.range(0, 9) {
                0..=2 if !idle.is_empty() => {
                    return Mutation::Arrive(idle[self.rng.index(idle.len())])
                }
                3..=5 if !live.is_empty() => {
                    return Mutation::Depart(live[self.rng.index(live.len())])
                }
                6..=7 if !live.is_empty() => {
                    let u = live[self.rng.index(live.len())];
                    let j = self.universe[u];
                    let lo = (u / STRIPE_JOBS) as i64 * STRIDE;
                    let r = self.rng.range(lo, j.release);
                    let d = self.rng.range(j.deadline, lo + WIDTH);
                    if (r, d) != (j.release, j.deadline) {
                        return Mutation::Widen(u, r, d);
                    }
                }
                8..=9 if !wide.is_empty() => {
                    return Mutation::Restore(wide[self.rng.index(wide.len())])
                }
                _ => {}
            }
        }
    }

    /// Applies `m` to `solver` (journaled when a store is attached).
    fn apply(&mut self, solver: &mut IncrementalSolver, m: Mutation) -> abt_core::Result<()> {
        let handle = |u: usize| self.handle[u].expect("mutations name live jobs");
        match m {
            Mutation::Arrive(u) => {
                self.handle[u] = Some(solver.add_job(self.universe[u]));
                self.widened[u] = false;
            }
            Mutation::Depart(u) => {
                solver.remove_job(handle(u))?;
                self.handle[u] = None;
            }
            Mutation::Widen(u, r, d) => {
                solver.update_window(handle(u), r, d)?;
                self.widened[u] = true;
            }
            Mutation::Restore(u) => {
                let j = self.universe[u];
                solver.update_window(handle(u), j.release, j.deadline)?;
                self.widened[u] = false;
            }
        }
        Ok(())
    }

    /// A solver holding this live set, solved once.
    fn seed(&mut self) -> abt_core::Result<IncrementalSolver> {
        let mut solver = IncrementalSolver::new(G)?;
        for u in self.live() {
            self.handle[u] = Some(solver.add_job(self.universe[u]));
        }
        solver.solve()?;
        Ok(solver)
    }
}

/// A state dir that is removed when dropped.
struct StateDir(PathBuf);

impl StateDir {
    fn fresh() -> Result<StateDir, String> {
        let p = PathBuf::from(STATE_ROOT).join(format!("churn-{}", std::process::id()));
        if p.exists() {
            std::fs::remove_dir_all(&p).map_err(|e| format!("clearing {}: {e}", p.display()))?;
        }
        std::fs::create_dir_all(&p).map_err(|e| format!("creating {}: {e}", p.display()))?;
        Ok(StateDir(p))
    }

    fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|it| {
                it.filter_map(|e| e.ok()?.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the root too when no other run still uses it.
        let _ = std::fs::remove_dir(STATE_ROOT);
    }
}

/// What set-up measured of the durable store.
struct StoreStats {
    checkpoint_ms: f64,
    attach_ms: f64,
    state_bytes: u64,
}

/// Seeds a fresh store with `live`'s jobs (one journaled add each), solves
/// and checkpoints; then re-attaches the store from a second solver, which
/// must recover every job and the same exact optimum.
fn exercise_store(live: &Churner) -> Result<StoreStats, String> {
    let dir = StateDir::fresh()?;
    let mut seeded = live.clone();
    let mut seeder = IncrementalSolver::new(G).map_err(|e| e.to_string())?;
    seeder
        .attach_store(&dir.0)
        .map_err(|e| format!("seeding the store: {e}"))?;
    for u in seeded.live() {
        seeded
            .apply(&mut seeder, Mutation::Arrive(u))
            .map_err(|e| e.to_string())?;
    }
    let lp = seeder
        .solve()
        .map_err(|e| format!("seeding solve: {e}"))?
        .lp
        .objective;
    let t = Instant::now();
    if !seeder.checkpoint_now() {
        return Err("seeding checkpoint was not written".into());
    }
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(seeder);

    let mut solver = IncrementalSolver::new(G).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let rep = solver
        .attach_store(&dir.0)
        .map_err(|e| format!("re-attaching the store: {e}"))?;
    let attach_ms = t.elapsed().as_secs_f64() * 1e3;
    let jobs = seeded.live().len();
    if rep.cold_start || rep.corruption_events > 0 || rep.resumed_jobs != jobs {
        return Err(format!(
            "recovery lost state: resumed {} of {jobs} jobs, {} corruption events",
            rep.resumed_jobs, rep.corruption_events
        ));
    }
    let recovered = solver
        .solve()
        .map_err(|e| format!("recovered solve: {e}"))?;
    if recovered.lp.objective != lp || recovered.reused != recovered.components {
        return Err(format!(
            "recovered store solved to {} reusing {} of {} components; seeded {lp}",
            recovered.lp.objective, recovered.reused, recovered.components
        ));
    }
    drop(solver);
    Ok(StoreStats {
        checkpoint_ms,
        attach_ms,
        state_bytes: dir.bytes(),
    })
}

/// The exact LP1 optimum of `jobs` solved from scratch: one monolithic
/// solve per stripe, summed. Stripes never share a component, so their
/// optima add up exactly. The monolithic path shares no caches with the
/// incremental solver and starts no threads, so the check leaves the
/// process's memory high-water mark alone.
fn from_scratch(jobs: Vec<Job>) -> abt_core::Result<Rat> {
    let mut stripes: BTreeMap<i64, Vec<Job>> = BTreeMap::new();
    for j in jobs {
        stripes
            .entry(j.release.div_euclid(STRIDE))
            .or_default()
            .push(j);
    }
    let opts = LpOptions {
        decompose: DecomposeMode::Off,
        ..LpOptions::default()
    };
    let mut total = Rat::ZERO;
    for jobs in stripes.into_values() {
        let lp = solve_active_lp_with(&Instance::new(jobs, G)?, &opts)?;
        total = total.add(&lp.objective);
    }
    Ok(total)
}

/// What must repeat exactly for one op: the mutation, the exact optimum,
/// and how the solver got it.
fn answer_digest(m: Mutation, rep: &IncrementalReport) -> u64 {
    let mut f = Fnv::new();
    f.bytes(format!("{m:?}").as_bytes());
    f.i128(rep.lp.objective.numer());
    f.i128(rep.lp.objective.denom());
    for v in [
        rep.components,
        rep.reused,
        rep.warm_attempts,
        rep.warm_hits,
        rep.cold_solves,
    ] {
        f.u64(v as u64);
    }
    f.finish()
}

/// One session: a freshly seeded solver and the live set it holds.
struct Session {
    solver: IncrementalSolver,
    churner: Churner,
}

pub struct Churn {
    /// Per session of a slice: its initial live set and mutation stream.
    initial: Vec<Churner>,
    session: Option<Session>,
    /// Per op of a slice: digest of the warm-up's answer.
    refs: Vec<u64>,
    fingerprint: u64,
    store: StoreStats,
    /// Σ incremental optimum and Σ from-scratch optimum over sampled ops.
    cost: f64,
    bound: f64,
}

impl Churn {
    pub fn new(seed: u64) -> Result<Churn, String> {
        let mut rng = Rng::new(seed, "arrival_churn");
        let shape = Carve {
            jobs: STRIPE_JOBS,
            g: G,
            cells: 0..WIDTH,
            max_len: 8,
        };
        let mut universe = Vec::with_capacity(STRIPES * STRIPE_JOBS);
        for s in 0..STRIPES {
            let base = s as i64 * STRIDE;
            let jobs = carve(&mut rng, &shape, |rng, p| {
                let w = p + rng.range(p / 2, (3 * p + 1) / 2);
                let r = rng.range(0, WIDTH - w);
                (r, r + w)
            });
            for j in jobs {
                universe.push(Job::new(base + j.release, base + j.deadline, j.length));
            }
        }
        let mut fp = Fnv::new();
        for j in &universe {
            fp.i64(j.release);
            fp.i64(j.deadline);
            fp.i64(j.length);
        }
        let initial: Vec<Churner> = (0..SESSIONS)
            .map(|q| {
                // Handles are placeholders until a solver is seeded; only
                // liveness matters here.
                let mut live = Rng::new(seed, &format!("arrival_churn.live.{q}"));
                let handle: Vec<Option<IncrementalJobId>> = (0..universe.len())
                    .map(|_| live.chance(1, 2).then_some(0))
                    .collect();
                for h in &handle {
                    fp.u64(u64::from(h.is_some()));
                }
                Churner {
                    handle,
                    widened: vec![false; universe.len()],
                    universe: universe.clone(),
                    rng: Rng::new(seed, &format!("arrival_churn.mutations.{q}")),
                }
            })
            .collect();
        let store = exercise_store(&initial[0])?;
        let mut churn = Churn {
            initial,
            session: None,
            refs: Vec::with_capacity(SESSIONS * SESSION_OPS),
            fingerprint: fp.finish(),
            store,
            cost: 0.0,
            bound: 0.0,
        };
        // Warm-up: one slice of sessions, whose answers are the references.
        for k in 0..SESSIONS * SESSION_OPS {
            if k.is_multiple_of(SESSION_OPS) {
                churn.start_session(k / SESSION_OPS)?;
            }
            let s = churn.session.as_mut().expect("just started");
            let m = s.churner.next();
            s.churner
                .apply(&mut s.solver, m)
                .map_err(|e| format!("warm-up op {k}: {e}"))?;
            let rep = s
                .solver
                .solve()
                .map_err(|e| format!("warm-up op {k}: {e}"))?;
            churn.refs.push(answer_digest(m, &rep));
        }
        churn.session = None;
        Ok(churn)
    }

    /// Starts session `q` of a slice on a freshly seeded solver.
    fn start_session(&mut self, q: usize) -> Result<(), String> {
        self.session = None;
        let mut churner = self.initial[q].clone();
        let solver = churner
            .seed()
            .map_err(|e| format!("seeding a session: {e}"))?;
        self.session = Some(Session { solver, churner });
        Ok(())
    }
}

impl Workload for Churn {
    fn slice_len(&self) -> usize {
        SESSIONS * SESSION_OPS
    }

    fn nominal_ops_per_s(&self) -> f64 {
        900.0
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpResult {
        let k = i % (SESSIONS * SESSION_OPS);
        if k.is_multiple_of(SESSION_OPS) {
            if let Err(e) = self.start_session(k / SESSION_OPS) {
                return (0, Err(e));
            }
        }
        let Some(s) = self.session.as_mut() else {
            return (0, Err("no session: its start failed".into()));
        };
        let m = s.churner.next();
        let snap = tr.on().then(Snap::take);
        let t0 = tr.begin_op(i as u32);
        let res = (|| -> abt_core::Result<IncrementalReport> {
            let (solver, churner) = (&mut s.solver, &mut s.churner);
            tr.call("active.incremental.mutate", || churner.apply(solver, m))?;
            tr.call("active.incremental.solve", || solver.solve())
        })();
        let ns = tr.end_op(t0);
        let rep = match res {
            Ok(r) => r,
            Err(e) => return (ns, Err(format!("{m:?}: {e}"))),
        };
        if let Some(snap) = snap {
            snap.since().record_lp(tr);
            tr.count("incremental.components", rep.components as f64);
            tr.count("incremental.reused", rep.reused as f64);
            tr.count("incremental.warm_attempts", rep.warm_attempts as f64);
            tr.count("incremental.warm_hits", rep.warm_hits as f64);
            tr.count("incremental.cold_solves", rep.cold_solves as f64);
        }
        if answer_digest(m, &rep) != self.refs[k] {
            return (
                ns,
                Err(format!("slice op {k}: answer differs from the warm-up's")),
            );
        }
        let mass: i64 = s.solver.jobs().iter().map(|j| j.length).sum();
        let lp = rep.lp.objective;
        if lp < Rat::new(mass as i128, G as i128) {
            return (ns, Err(format!("LP1 {lp} below the mass bound {mass}/{G}")));
        }
        if i == k && (k % SESSION_OPS + 1).is_multiple_of(SAMPLE_EVERY) {
            let scratch = match from_scratch(s.solver.jobs()) {
                Ok(lp) => lp,
                Err(e) => return (ns, Err(format!("from-scratch solve: {e}"))),
            };
            self.cost += lp.to_f64();
            self.bound += scratch.to_f64();
            if lp != scratch {
                return (
                    ns,
                    Err(format!("incremental LP1 {lp} != from-scratch {scratch}")),
                );
            }
        }
        (ns, Ok(()))
    }

    fn cost_sums(&self) -> (f64, f64) {
        (self.cost, self.bound)
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn digest(&self) -> u64 {
        let mut f = Fnv::new();
        f.u64(self.fingerprint);
        for &r in &self.refs {
            f.u64(r);
        }
        f.finish()
    }

    fn describe(&self) -> String {
        format!(
            "{STRIPES} stripes x {STRIPE_JOBS} jobs, g={G}, ~half live; slices of {SESSIONS} \
             sessions of {SESSION_OPS} ops; store seeded and re-attached in set-up"
        )
    }

    fn layers(&self, tr: &Tracer, m: &mut Metrics) {
        let ops = tr.ops() as f64;
        let per = |v: f64| if ops > 0.0 { v / ops } else { 0.0 };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        lp_layer(tr, ops, m);
        m.insert(
            "active.incremental.mutate_ms_per_op",
            (per(tr.ms("active.incremental.mutate")), "ms/op"),
        );
        m.insert(
            "active.incremental.solve_ms_per_op",
            (per(tr.ms("active.incremental.solve")), "ms/op"),
        );
        let comps = tr.counter("incremental.components");
        m.insert(
            "active.incremental.components_per_op",
            (per(comps), "count/op"),
        );
        m.insert(
            "active.incremental.reuse_ratio",
            (ratio(tr.counter("incremental.reused"), comps), "ratio"),
        );
        m.insert(
            "active.incremental.warm_hit_ratio",
            (
                ratio(
                    tr.counter("incremental.warm_hits"),
                    tr.counter("incremental.warm_attempts"),
                ),
                "ratio",
            ),
        );
        m.insert(
            "active.incremental.cold_solves_per_op",
            (per(tr.counter("incremental.cold_solves")), "count/op"),
        );
        m.insert(
            "active.admission.rejects",
            (tr.counter("lp.admission_rejects"), "count"),
        );
        m.insert("active.store.attach_ms", (self.store.attach_ms, "ms"));
        m.insert(
            "active.store.checkpoint_ms",
            (self.store.checkpoint_ms, "ms"),
        );
        m.insert(
            "active.store.state_bytes",
            (self.store.state_bytes as f64, "bytes"),
        );
    }
}
