//! The LP-rounding 2-approximation for active time (§3.2–3.4, Theorem 2).
//!
//! Deadlines are processed left to right. Per segment `i` (with mass
//! `Y_i`), the `⌊Y_i⌋` *fully open* right-shifted slots open integrally for
//! free. The fractional remainder — merged with at most one *proxy* slot
//! carried from earlier iterations — is handled by value:
//!
//! * `= 1`:  the slot became fully open by the merge; open it (footnote 4);
//! * `≥ ½` (*half open*): open it, charging its own `y` at most twice;
//! * `< ½` (*barely open*): try to **close** it — feasible (by max-flow on
//!   the slots opened so far, jobs with processed deadlines) ⇒ carry it as
//!   a proxy; infeasible ⇒ open it and charge it to the earliest fully
//!   open slot without a **dependent**, else complete a **trio**
//!   (full + dependent + this, `Σy ≥ 3/2`), else become the **filler** of a
//!   half-open slot (`Σy ≥ 1`). Lemma 6 proves a charge target always
//!   exists; the implementation still carries a defensive fallback that
//!   opens the slot and flags the ledger (`anomalies`), plus a final
//!   feasibility repair (`repair_slots`) — both remain 0 across the entire
//!   test and experiment suite.
//!
//! The outcome carries the exact LP objective so callers can assert
//! `cost ≤ 2·LP ≤ 2·OPT` with rational arithmetic.
//!
//! # One growing flow
//!
//! Every feasibility check of the rounding — each barely-open slot's
//! probe, Lemma 5's final check and the defensive repair's checks — runs
//! on one [`FeasibilitySession`]. Between two checks the rounding only
//! adds: the jobs of the next deadline and the slots it opens; it never
//! closes a slot (a closable slot is carried as a proxy and never opened)
//! and never drops a job. Adding nodes and arcs keeps the flow it has a
//! valid flow, so each probe augments only the demand not yet routed, and a
//! probe that fails keeps its partial flow: the slot opens and the next
//! check resumes from there. The final check completes that same flow and
//! its schedule is the answer. A maximum flow's value is unique, so every
//! verdict, and with it every opened slot, charge and cost, is the one a
//! from-scratch max-flow per check gives (`tests/proptest_feasibility.rs`
//! pins this against the explicit Dinic network).
//!
//! The LP answer and its right-shift are per run; the schedule this
//! produces is per slot, so [`lp_rounding_from`] refuses a horizon past
//! [`MAX_HORIZON_SLOTS`](abt_core::active_schedule::MAX_HORIZON_SLOTS)
//! before it lists a slot.

use crate::feasibility::FeasibilitySession;
use crate::lp_model::{solve_active_lp, ActiveLp};
use crate::right_shift::{right_shift, Segment};
use abt_core::active_schedule::horizon_slots;
use abt_core::{ActiveSchedule, Error, Instance, Result, Time};
use abt_lp::Rat;

/// How an opened slot was paid for (for the experiment tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeKind {
    /// A right-shifted fully open slot (cost 1 charged to its own `y = 1`).
    FullyOpen,
    /// A half-open slot charged to itself (`y ≥ ½`).
    SelfHalf,
    /// A barely open slot charged as a dependent of a fully open slot.
    Dependent,
    /// A barely open slot completing a trio.
    Trio,
    /// A barely open slot filling a half-open slot.
    Filler,
    /// Defensive fallback — should never occur (Lemma 6).
    Anomaly,
}

/// Outcome of the rounding.
#[derive(Debug, Clone)]
pub struct RoundingOutcome {
    /// The integrally opened slots, ascending.
    pub opened: Vec<Time>,
    /// A feasible integral schedule on those slots.
    pub schedule: ActiveSchedule,
    /// The exact optimal LP objective (lower bound on integral OPT).
    pub lp_objective: Rat,
    /// `opened.len()` as an integer cost.
    pub cost: i64,
    /// Charge-kind tally, indexed by the order of [`ChargeKind`] variants.
    pub charges: Vec<(ChargeKind, usize)>,
    /// Times the defensive charging fallback fired (expected 0).
    pub anomalies: usize,
    /// Slots added by the final feasibility repair (expected 0).
    pub repair_slots: usize,
}

impl RoundingOutcome {
    /// Whether the 2-approximation certificate holds: `cost ≤ 2 · LP`.
    pub fn within_two_lp(&self) -> bool {
        let two_lp = self.lp_objective.mul(&Rat::from_int(2));
        Rat::from_int(self.cost) <= two_lp
    }
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

    /// Charges a barely open slot of value `v`; returns how.
    fn charge_barely(&mut self, v: Rat) -> ChargeKind {
        let half = Rat::new(1, 2);
        // (a) earliest fully open slot without dependent (and not in a trio).
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
        // (b) earliest fully open slot whose dependent can complete a trio.
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
        // (c) earliest half-open slot that this can fill.
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

/// Rounds the optimal LP solution of `inst` into an integral schedule of
/// cost at most `2·LP ≤ 2·OPT`.
pub fn lp_rounding(inst: &Instance) -> Result<RoundingOutcome> {
    let lp = solve_active_lp(inst)?;
    lp_rounding_from(inst, &lp)
}

/// Rounding given an already-solved LP (lets experiments reuse the solve).
/// §3.1 right-shifting and the §3 rounding run under the always-on
/// `active.rounding` span; inside it, `active.right_shift` times §3.1 and
/// `active.flow` every max-flow feasibility check. A horizon longer than
/// the per-slot schedule accepts is refused with
/// [`Error::HorizonTooLong`].
pub fn lp_rounding_from(inst: &Instance, lp: &ActiveLp) -> Result<RoundingOutcome> {
    let _span = abt_core::obs_span!("active.rounding");
    let slots = horizon_slots(inst)?;
    let rs = {
        let _span = abt_core::obs_span!("active.right_shift");
        right_shift(inst, lp)
    };
    round_segments(inst, &rs.segments, &slots, lp.objective)
}

/// The §3 rounding of right-shifted `segments`; the defensive repair opens
/// slots of `slots` (the horizon, ascending) from the right.
pub(crate) fn round_segments(
    inst: &Instance,
    segments: &[Segment],
    slots: &[Time],
    lp_objective: Rat,
) -> Result<RoundingOutcome> {
    let half = Rat::new(1, 2);

    // The opened slots and the jobs of the processed deadlines, with one
    // flow on them that every probe, the final check and the repair grow.
    let mut flow = FeasibilitySession::new(inst);
    let mut ledger = Ledger::new();
    let mut proxy: Option<(Rat, Time)> = None;
    let mut anomalies = 0usize;

    for seg in segments {
        for &job in &seg.jobs {
            flow.add_job(job);
        }
        let y = seg.y_sum;
        let floor = y.floor() as i64;
        let fr = y.fract();
        // Open the ⌊Y_i⌋ fully open right-shifted slots.
        for k in 0..floor {
            let t = seg.deadline - k;
            flow.add_slot(t);
            ledger.add_full(t);
        }
        // Build the fractional residue items: at most one half-open slot and
        // one barely/merged item (§3.4 "Dealing with a proxy slot").
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
                    // fr > ½: a half-open slot plus a barely open residue.
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
                // Became fully open through the merge (footnote 4).
                flow.add_slot(loc);
                ledger.add_full(loc);
            } else if v >= half {
                flow.add_slot(loc);
                ledger.add_half(loc, v);
            } else if flow.probe() {
                // Barely open and closable: carry it as a proxy.
                proxy = Some((v, loc));
            } else {
                // Barely open and needed: the probe's partial flow stays,
                // and the next probe resumes it with this slot open.
                flow.add_slot(loc);
                if ledger.charge_barely(v) == ChargeKind::Anomaly {
                    anomalies += 1;
                }
            }
        }
    }

    // Final feasibility (guaranteed by Lemma 5; repaired defensively): the
    // same flow, completed; its schedule is the answer.
    debug_assert_eq!(
        segments.iter().map(|seg| seg.jobs.len()).sum::<usize>(),
        inst.len(),
        "the segments partition the jobs"
    );
    let mut repair_slots = 0usize;
    let mut feasible = flow.probe();
    for &t in slots.iter().rev() {
        if feasible {
            break;
        }
        if flow.add_slot(t) {
            repair_slots += 1;
            feasible = flow.probe();
        }
    }
    if !feasible {
        return Err(Error::Infeasible(
            "rounding could not recover feasibility".into(),
        ));
    }
    let schedule = flow.schedule();
    let opened = flow.slots().to_vec();

    let cost = opened.len() as i64;
    let charges = vec![
        (ChargeKind::FullyOpen, ledger.tally[0]),
        (ChargeKind::SelfHalf, ledger.tally[1]),
        (ChargeKind::Dependent, ledger.tally[2]),
        (ChargeKind::Trio, ledger.tally[3]),
        (ChargeKind::Filler, ledger.tally[4]),
        (ChargeKind::Anomaly, ledger.tally[5]),
    ];
    Ok(RoundingOutcome {
        opened,
        schedule,
        lp_objective,
        cost,
        charges,
        anomalies,
        repair_slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(p: i64, q: i64) -> Rat {
        Rat::new(p as i128, q as i128)
    }

    #[test]
    fn ledger_charges_dependent_then_trio_then_filler() {
        // Drive the private ledger through every charge path (Lemma 6's
        // case analysis): these arise from non-vertex optimal LP solutions,
        // which our simplex never emits, so they need direct coverage.
        let mut ledger = Ledger::new();
        ledger.add_full(10);
        // First barely open slot becomes the dependent of slot 10.
        assert_eq!(ledger.charge_barely(rat(2, 5)), ChargeKind::Dependent);
        // Second one completes the trio (2/5 + 2/5 ≥ 1/2).
        assert_eq!(ledger.charge_barely(rat(2, 5)), ChargeKind::Trio);
        // No fully open slot left; a half-open slot takes a filler.
        ledger.add_half(20, rat(3, 5));
        assert_eq!(ledger.charge_barely(rat(2, 5)), ChargeKind::Filler);
        // Nothing left to charge: the defensive fallback fires.
        assert_eq!(ledger.charge_barely(rat(2, 5)), ChargeKind::Anomaly);
        assert_eq!(ledger.tally, [1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn ledger_prefers_earliest_targets() {
        let mut ledger = Ledger::new();
        ledger.add_full(30);
        ledger.add_full(5);
        assert_eq!(ledger.charge_barely(rat(1, 5)), ChargeKind::Dependent);
        // The earlier slot (t = 5) must have received the dependent.
        let early = ledger.fulls.iter().find(|f| f.t == 5).unwrap();
        assert!(early.dependent.is_some());
        let late = ledger.fulls.iter().find(|f| f.t == 30).unwrap();
        assert!(late.dependent.is_none());
    }

    #[test]
    fn ledger_trio_requires_half_total() {
        let mut ledger = Ledger::new();
        ledger.add_full(1);
        assert_eq!(ledger.charge_barely(rat(1, 10)), ChargeKind::Dependent);
        // 1/10 + 1/10 < 1/2: no trio possible, no half-open slot: anomaly.
        assert_eq!(ledger.charge_barely(rat(1, 10)), ChargeKind::Anomaly);
        // A (2/5)-dependent on a fresh full slot can trio with 1/10.
        ledger.add_full(2);
        assert_eq!(ledger.charge_barely(rat(2, 5)), ChargeKind::Dependent);
        assert_eq!(ledger.charge_barely(rat(1, 10)), ChargeKind::Trio);
    }

    #[test]
    fn ledger_filler_requires_unit_total() {
        let mut ledger = Ledger::new();
        ledger.add_half(7, rat(1, 2));
        // 1/2 + 1/3 < 1: cannot fill.
        assert_eq!(ledger.charge_barely(rat(1, 3)), ChargeKind::Anomaly);
        // 1/2 + 1/2... a barely open value is < 1/2 by definition; 49/100
        // works: 1/2 + 49/100 < 1 still fails; use a bigger half slot.
        ledger.add_half(9, rat(3, 5));
        assert_eq!(ledger.charge_barely(rat(2, 5)), ChargeKind::Filler);
    }

    fn check(inst: &Instance) -> RoundingOutcome {
        let out = lp_rounding(inst).unwrap();
        out.schedule.validate(inst).unwrap();
        assert_eq!(out.anomalies, 0, "charging fallback fired");
        assert_eq!(out.repair_slots, 0, "feasibility repair fired");
        assert!(
            out.within_two_lp(),
            "cost {} > 2·LP {}",
            out.cost,
            out.lp_objective
        );
        out
    }

    #[test]
    fn simple_instances() {
        check(&Instance::from_triples([(0, 4, 2), (1, 3, 2)], 2).unwrap());
        check(&Instance::from_triples([(0, 10, 4)], 1).unwrap());
        check(&Instance::from_triples([(0, 3, 1), (1, 4, 2), (2, 6, 3)], 2).unwrap());
    }

    #[test]
    fn integrality_gap_instance() {
        // §3.5, g = 3: LP = g + 1, rounding must stay within 2·LP and be
        // feasible; integral OPT is 2g.
        let g = 3usize;
        let mut triples = Vec::new();
        for pair in 0..g as i64 {
            let a = 2 * pair;
            for _ in 0..=g {
                triples.push((a, a + 2, 1i64));
            }
        }
        let inst = Instance::from_triples(triples, g).unwrap();
        let out = check(&inst);
        assert_eq!(out.cost, 2 * g as i64); // rounding hits integral OPT here
    }

    #[test]
    fn tight_windows_force_full_slots() {
        // Fully packed instance: LP = OPT = 5, rounding should open exactly 5.
        let inst = Instance::from_triples([(0, 5, 5), (0, 5, 5)], 2).unwrap();
        let out = check(&inst);
        assert_eq!(out.cost, 5);
        assert_eq!(out.lp_objective, Rat::from_int(5));
    }

    #[test]
    fn proxy_paths_are_exercised() {
        // Staggered deadlines with slack create barely open slots that the
        // flow check closes (proxies) or charges.
        let inst =
            Instance::from_triples([(0, 4, 1), (0, 7, 2), (3, 9, 2), (5, 12, 1), (8, 14, 2)], 3)
                .unwrap();
        let out = check(&inst);
        assert!(out.cost >= 2);
    }

    #[test]
    fn infeasible_instance_errors() {
        let inst = Instance::from_triples([(0, 1, 1), (0, 1, 1)], 1).unwrap();
        assert!(matches!(lp_rounding(&inst), Err(Error::Infeasible(_))));
    }

    #[test]
    fn pseudorandom_sweep_respects_two_lp() {
        let mut state = 0xDEADBEEFu64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..30 {
            let n = 2 + next(5) as usize;
            let g = 1 + next(3) as usize;
            let mut triples = Vec::new();
            for _ in 0..n {
                let r = next(6) as i64;
                let len = 1 + next(3) as i64;
                let d = r + len + next(4) as i64;
                triples.push((r, d, len));
            }
            let inst = Instance::from_triples(triples, g).unwrap();
            match lp_rounding(&inst) {
                Ok(_) => {
                    check(&inst);
                }
                Err(Error::Infeasible(_)) => {} // tight random windows may not fit
                Err(e) => panic!("unexpected error {e}"),
            }
        }
    }
}
