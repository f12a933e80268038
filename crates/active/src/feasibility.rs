//! The flow-based feasibility oracle for the active-time model (Fig. 2).
//!
//! Given a set `A` of active slots, the instance is feasible iff the
//! max-flow on `G_feas` equals `P = Σ_j p_j`, where `G_feas` has a source
//! arc of capacity `p_j` per job, a unit arc from job `j` to every active
//! slot in its window, and an arc of capacity `g` from every active slot to
//! the sink. Integrality of max-flow turns a feasible fractional assignment
//! into an integral schedule for free.
//!
//! [`feasible_on`] and [`schedule_on`] answer one check each, behind cheap
//! prechecks and on a flow of their own; the §3 rounding grows one
//! [`FeasibilitySession`] through all its checks.
//!
//! # The implicit network
//!
//! Nothing of `G_feas` is stored. The open slots are kept sorted, so the
//! slots a job has arcs to — the open slots of its window `(r_j, d_j]` —
//! are one index range `[lo, hi)` of them, found by two binary searches
//! (the event-point structure of Chang–Gabow–Khuller, arXiv:1208.0312). An
//! integral flow is an assignment of job units to slots, kept in flat
//! buffers: per slot its load and the units it holds, per job the units it
//! has placed. Its residual network has exactly these source–sink paths:
//! source → a job short of `p_j` → an open slot of its window that the job
//! does not use → either the sink (the slot holds fewer than `g` units) or,
//! the slot being full, a job holding it, which moves that unit to a slot
//! of its own window it does not use → … . [`FeasibilitySession`] first
//! fills greedily (every path of one slot), then augments along such paths
//! found by breadth-first search until none is left.
//!
//! # Why the verdicts are Dinic's
//!
//! A flow without an augmenting path is maximum, and the value of a maximum
//! flow is unique, so the verdict "max-flow = `Σ p_j`" is the one Dinic's
//! algorithm on the explicit network gives, for every slot set and job
//! subset. The cheap prechecks reject only slot sets whose max-flow is
//! short anyway. The *assignment* is not unique: the schedule read from the
//! flow is a valid schedule on the given slots, but it may place units in
//! other slots than an explicit max-flow would.
//!
//! # Growing sessions
//!
//! Adding a job or a slot adds nodes and arcs to `G_feas` and removes none,
//! so a flow stays a flow: a [`FeasibilitySession`] keeps it and each
//! [`probe`](FeasibilitySession::probe) augments only the demand not yet
//! routed — the jobs added since the last probe and those the last probe
//! left short. A search that fails from a job leaves it short until a slot
//! is added: the nodes it reached can reach no free capacity, and routing
//! other demand only reverses arcs outside them. So one pass over the short
//! jobs reaches the maximum, and a probe that fails keeps its partial flow
//! for the next one.

use abt_core::{ActiveSchedule, Instance, JobId, Time};

/// Whether every job of `inst` fits into the active slots `slots` (sorted
/// or not, duplicates allowed).
pub fn feasible_on(inst: &Instance, slots: &[Time]) -> bool {
    saturated(inst, slots).is_some()
}

/// A schedule of every job of `inst` on the active slots `slots`, if they
/// all fit.
pub fn schedule_on(inst: &Instance, slots: &[Time]) -> Option<ActiveSchedule> {
    saturated(inst, slots).map(|flow| flow.schedule())
}

/// A session holding a maximum flow of every job of `inst` on `slots`, if
/// it routes all their demand. The max-flow runs under the always-on
/// `active.flow` span.
fn saturated<'a>(inst: &'a Instance, slots: &[Time]) -> Option<FeasibilitySession<'a>> {
    let mut sorted: Vec<Time> = slots.to_vec();
    sorted.sort_unstable();
    sorted.dedup();

    // Cheap necessary conditions before the flow; the exact solvers probe
    // this oracle with many infeasible slot sets, and both checks reject
    // the bulk of them in O(n log m): each job needs p_j open slots inside
    // its window, and the total demand cannot exceed g units per open slot
    // (compared in i128: g·m overflows i64 for a huge g).
    let mut total = 0i128;
    for j in inst.jobs() {
        total += i128::from(j.length);
        let lo = sorted.partition_point(|&t| t <= j.release);
        let hi = sorted.partition_point(|&t| t <= j.deadline);
        if ((hi - lo) as i64) < j.length {
            return None;
        }
    }
    if total > inst.g() as i128 * sorted.len() as i128 {
        return None;
    }

    let _span = abt_core::obs_span!("active.flow");
    let mut flow = FeasibilitySession::on_slots(inst, sorted);
    for job in 0..inst.len() {
        flow.add_job(job);
    }
    flow.saturate().then_some(flow)
}

/// No unit or job: the end of a list, or a node not reached.
const NONE: usize = usize::MAX;

/// A job of a session.
#[derive(Debug)]
struct SessionJob {
    id: JobId,
    /// `p_j`.
    length: usize,
    /// Units placed, and the first of them (a list through `Unit::job_next`).
    held: usize,
    first: usize,
    /// Open-slot positions `[lo, hi)` of its window, valid while `at` is the
    /// session's slot version.
    lo: usize,
    hi: usize,
    at: usize,
    /// Search stamp, and the unit it was reached through (its unit in a
    /// full slot).
    seen: usize,
    via: usize,
}

/// An open slot of a session.
#[derive(Debug)]
struct SessionSlot {
    t: Time,
    /// Units held, and the first of them (a list through `Unit::next`).
    load: usize,
    first: usize,
    /// Search stamp and the job it was reached from; `held_by` stamps the
    /// slots of the job being expanded.
    seen: usize,
    via: usize,
    held_by: usize,
}

impl SessionSlot {
    fn new(t: Time) -> Self {
        SessionSlot {
            t,
            load: 0,
            first: NONE,
            seen: 0,
            via: NONE,
            held_by: 0,
        }
    }
}

/// One unit of a job placed in a slot.
#[derive(Debug)]
struct Unit {
    job: usize,
    slot: usize,
    /// The job's next unit.
    job_next: usize,
    /// Neighbours in the slot's holder list.
    prev: usize,
    next: usize,
}

/// A maximum flow on the implicit `G_feas` that grows with its network:
/// jobs and slots are only ever added, and each [`probe`](Self::probe)
/// augments the flow it already has (see the module docs).
#[derive(Debug)]
pub struct FeasibilitySession<'a> {
    inst: &'a Instance,
    /// Open slots ascending, and the index into `slots` of each (stable as
    /// slots are inserted).
    times: Vec<Time>,
    ids: Vec<usize>,
    slots: Vec<SessionSlot>,
    jobs: Vec<SessionJob>,
    units: Vec<Unit>,
    /// Jobs added since the last probe or left short by it.
    pending: Vec<usize>,
    /// Bumped by every slot insertion (invalidates cached windows).
    version: usize,
    /// Search stamps: `epoch` per augmenting search, kept after a failed
    /// one; `mark` per expanded job.
    epoch: usize,
    mark: usize,
    queue: Vec<usize>,
}

impl<'a> FeasibilitySession<'a> {
    /// An empty session for jobs and slots of `inst`.
    pub fn new(inst: &'a Instance) -> Self {
        Self::on_slots(inst, Vec::new())
    }

    /// A session open on `sorted` (ascending, distinct).
    fn on_slots(inst: &'a Instance, sorted: Vec<Time>) -> Self {
        let slots = sorted.iter().map(|&t| SessionSlot::new(t)).collect();
        FeasibilitySession {
            inst,
            ids: (0..sorted.len()).collect(),
            times: sorted,
            slots,
            jobs: Vec::new(),
            units: Vec::new(),
            pending: Vec::new(),
            version: 0,
            epoch: 0,
            mark: 0,
            queue: Vec::new(),
        }
    }

    /// Adds job `job` of the instance; its demand is routed by the next
    /// probe.
    pub fn add_job(&mut self, job: JobId) {
        self.pending.push(self.jobs.len());
        self.jobs.push(SessionJob {
            id: job,
            length: self.inst.job(job).length as usize,
            held: 0,
            first: NONE,
            lo: 0,
            hi: 0,
            at: usize::MAX,
            seen: 0,
            via: NONE,
        });
    }

    /// Opens slot `t`; `false` if it was open already.
    pub fn add_slot(&mut self, t: Time) -> bool {
        let pos = self.times.partition_point(|&s| s < t);
        if self.times.get(pos) == Some(&t) {
            return false;
        }
        self.times.insert(pos, t);
        self.ids.insert(pos, self.slots.len());
        self.slots.push(SessionSlot::new(t));
        self.version += 1;
        true
    }

    /// The open slots, ascending.
    pub fn slots(&self) -> &[Time] {
        &self.times
    }

    /// Whether every job added so far fits into the slots open so far:
    /// augments the flow to a maximum and compares it with their demand.
    /// Runs under the always-on `active.flow` span.
    pub fn probe(&mut self) -> bool {
        let _span = abt_core::obs_span!("active.flow");
        self.saturate()
    }

    /// The schedule the flow describes, on the open slots: valid after a
    /// successful [`probe`](Self::probe) with every job of the instance
    /// added (rows of jobs not added are empty).
    pub fn schedule(&self) -> ActiveSchedule {
        ActiveSchedule::new(self.times.iter().copied(), self.assignment())
    }

    /// Per instance job, the slots of its placed units.
    fn assignment(&self) -> Vec<Vec<Time>> {
        let mut rows = vec![Vec::new(); self.inst.len()];
        for job in &self.jobs {
            let row: &mut Vec<Time> = &mut rows[job.id];
            row.reserve(job.held);
            let mut u = job.first;
            while u != NONE {
                row.push(self.slots[self.units[u].slot].t);
                u = self.units[u].job_next;
            }
        }
        rows
    }

    /// [`probe`](Self::probe) without the span: fill the pending jobs
    /// greedily, then augment what is left short.
    fn saturate(&mut self) -> bool {
        let pending = std::mem::take(&mut self.pending);
        for &j in &pending {
            self.fill(j);
        }
        self.epoch += 1;
        for &j in &pending {
            while self.jobs[j].held < self.jobs[j].length {
                // A job a failed search reached cannot reach free capacity.
                if self.jobs[j].seen == self.epoch || !self.augment(j) {
                    self.pending.push(j);
                    break;
                }
            }
        }
        self.pending.is_empty()
    }

    /// Places units of job `j` in the free capacity of its window, left to
    /// right.
    fn fill(&mut self, j: usize) {
        if self.jobs[j].held == self.jobs[j].length {
            return;
        }
        self.mark_held(j);
        let (lo, hi) = self.window(j);
        let g = self.inst.g();
        for pos in lo..hi {
            let s = self.ids[pos];
            if self.slots[s].load < g && self.slots[s].held_by != self.mark {
                self.place(j, s);
                if self.jobs[j].held == self.jobs[j].length {
                    return;
                }
            }
        }
    }

    /// One breadth-first search for an augmenting path from the short job
    /// `root`; routes one more of its units if it finds one. A failed
    /// search leaves its stamps (the epoch is kept): what it reached is
    /// dead until a slot is added.
    fn augment(&mut self, root: usize) -> bool {
        let epoch = self.epoch;
        let g = self.inst.g();
        self.queue.clear();
        self.queue.push(root);
        self.jobs[root].seen = epoch;
        let mut next = 0;
        while next < self.queue.len() {
            let j = self.queue[next];
            next += 1;
            self.mark_held(j);
            let (lo, hi) = self.window(j);
            for pos in lo..hi {
                let s = self.ids[pos];
                let slot = &mut self.slots[s];
                if slot.seen == epoch || slot.held_by == self.mark {
                    continue;
                }
                slot.seen = epoch;
                slot.via = j;
                if slot.load < g {
                    self.shift_into(root, s);
                    self.epoch += 1;
                    return true;
                }
                let mut u = slot.first;
                while u != NONE {
                    let holder = &mut self.jobs[self.units[u].job];
                    if holder.seen != epoch {
                        holder.seen = epoch;
                        holder.via = u;
                        self.queue.push(self.units[u].job);
                    }
                    u = self.units[u].next;
                }
            }
        }
        false
    }

    /// Routes the path the search found into the free slot `s`: each job on
    /// it moves its unit from the full slot it was reached through to the
    /// next slot, and `root` places a new unit.
    fn shift_into(&mut self, root: usize, mut s: usize) {
        loop {
            let j = self.slots[s].via;
            if j == root {
                self.place(root, s);
                return;
            }
            let u = self.jobs[j].via;
            let from = self.units[u].slot;
            self.unlink(u);
            self.link(u, s);
            s = from;
        }
    }

    /// Stamps the slots job `j` holds with a fresh `mark`.
    fn mark_held(&mut self, j: usize) {
        self.mark += 1;
        let mut u = self.jobs[j].first;
        while u != NONE {
            self.slots[self.units[u].slot].held_by = self.mark;
            u = self.units[u].job_next;
        }
    }

    /// The open-slot positions `[lo, hi)` of job `j`'s window.
    fn window(&mut self, j: usize) -> (usize, usize) {
        let job = &mut self.jobs[j];
        if job.at != self.version {
            let w = self.inst.job(job.id);
            job.lo = self.times.partition_point(|&t| t <= w.release);
            job.hi = self.times.partition_point(|&t| t <= w.deadline);
            job.at = self.version;
        }
        (job.lo, job.hi)
    }

    /// A new unit of job `j` in slot `s`.
    fn place(&mut self, j: usize, s: usize) {
        let u = self.units.len();
        let job = &mut self.jobs[j];
        self.units.push(Unit {
            job: j,
            slot: s,
            job_next: job.first,
            prev: NONE,
            next: NONE,
        });
        job.first = u;
        job.held += 1;
        self.link(u, s);
    }

    /// Puts unit `u` into slot `s`'s holder list.
    fn link(&mut self, u: usize, s: usize) {
        let slot = &mut self.slots[s];
        let first = slot.first;
        slot.first = u;
        slot.load += 1;
        if first != NONE {
            self.units[first].prev = u;
        }
        let unit = &mut self.units[u];
        unit.slot = s;
        unit.prev = NONE;
        unit.next = first;
    }

    /// Takes unit `u` out of its slot's holder list.
    fn unlink(&mut self, u: usize) {
        let Unit {
            slot, prev, next, ..
        } = self.units[u];
        if prev == NONE {
            self.slots[slot].first = next;
        } else {
            self.units[prev].next = next;
        }
        if next != NONE {
            self.units[next].prev = prev;
        }
        self.slots[slot].load -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abt_core::active_schedule::horizon_slots;

    #[test]
    fn all_slots_feasible_when_capacity_suffices() {
        let inst = Instance::from_triples([(0, 3, 2), (0, 3, 2), (1, 4, 1)], 2).unwrap();
        let slots = horizon_slots(&inst).unwrap();
        let sched = schedule_on(&inst, &slots).expect("feasible");
        sched.validate(&inst).unwrap();
    }

    #[test]
    fn capacity_binds() {
        // Three unit jobs confined to one slot, g = 2: infeasible.
        let inst = Instance::from_triples([(0, 1, 1), (0, 1, 1), (0, 1, 1)], 2).unwrap();
        assert!(!feasible_on(&inst, &[1]));
        let inst2 = inst.with_g(3).unwrap();
        assert!(feasible_on(&inst2, &[1]));
    }

    #[test]
    fn window_binds() {
        let inst = Instance::from_triples([(2, 4, 2)], 1).unwrap();
        assert!(!feasible_on(&inst, &[1, 2, 3])); // slot 4 needed
        assert!(feasible_on(&inst, &[3, 4]));
        assert!(!feasible_on(&inst, &[3])); // not enough slots
    }

    #[test]
    fn subset_feasibility() {
        let inst = Instance::from_triples([(0, 2, 2), (0, 2, 2), (4, 6, 1)], 1).unwrap();
        let subset = |jobs: &[JobId]| {
            Instance::new(jobs.iter().map(|&j| *inst.job(j)).collect(), inst.g()).unwrap()
        };
        assert!(feasible_on(&subset(&[0]), &[1, 2]));
        assert!(!feasible_on(&subset(&[0, 1]), &[1, 2]));
        assert!(feasible_on(&subset(&[0, 2]), &[1, 2, 5]));
    }

    #[test]
    fn extracted_schedule_is_always_valid() {
        // Paper Fig. 3-ish mix with full and non-full slots.
        let inst = Instance::from_triples([(0, 6, 3), (1, 5, 2), (2, 4, 2), (0, 2, 1)], 2).unwrap();
        let slots = horizon_slots(&inst).unwrap();
        let sched = schedule_on(&inst, &slots).unwrap();
        sched.validate(&inst).unwrap();
        assert_eq!(sched.cost(), 6);
    }

    #[test]
    fn duplicate_and_unsorted_slots_tolerated() {
        let inst = Instance::from_triples([(0, 3, 2)], 1).unwrap();
        let sched = schedule_on(&inst, &[3, 1, 3, 2, 1]).unwrap();
        sched.validate(&inst).unwrap();
    }

    #[test]
    fn augmenting_paths_move_holders_of_full_slots() {
        // g = 1. Job 0 fills greedily into slot 1, the only slot job 1 can
        // use: job 1 routes only by moving job 0 to slot 2.
        let inst = Instance::from_triples([(0, 2, 1), (0, 1, 1)], 1).unwrap();
        let sched = schedule_on(&inst, &[1, 2]).expect("feasible");
        sched.validate(&inst).unwrap();
        assert_eq!(sched.job_slots(0), &[2]);
        // A chain: each job must shift one slot right for job 3 to fit.
        let inst = Instance::from_triples([(0, 2, 1), (1, 3, 1), (2, 4, 1), (0, 1, 1)], 1).unwrap();
        let sched = schedule_on(&inst, &[1, 2, 3, 4]).expect("feasible");
        sched.validate(&inst).unwrap();
    }

    #[test]
    fn a_session_grows_through_failed_probes() {
        // g = 1: two unit jobs in (0, 2] need both slots.
        let inst = Instance::from_triples([(0, 2, 1), (0, 2, 1), (2, 4, 2)], 1).unwrap();
        let mut flow = FeasibilitySession::new(&inst);
        flow.add_job(0);
        flow.add_job(1);
        assert!(flow.add_slot(2));
        assert!(!flow.probe()); // one of the two is short
        assert!(flow.add_slot(1));
        assert!(!flow.add_slot(1));
        assert!(flow.probe()); // the short one routes into slot 1
        flow.add_job(2);
        assert!(flow.add_slot(4));
        assert!(!flow.probe());
        assert!(flow.add_slot(3));
        assert!(flow.probe());
        assert_eq!(flow.slots(), &[1, 2, 3, 4]);
        flow.schedule().validate(&inst).unwrap();
    }
}
