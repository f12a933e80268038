//! Fault-injection tests for the supervision ladder at the active-time
//! layer: injected failures in the pivot loop, FTRAN, the certifier, and
//! the supervisor entry must either demote (bit-identical objectives,
//! nonzero `demotions`, zero `quarantined`) or quarantine cleanly (typed
//! [`SolveError::Partial`] with exact healthy objectives).
//!
//! Compiled only with `--features fault-injection`; every test holds the
//! process-global [`faultinject::exclusive`] guard, so exact-zero
//! telemetry assertions are safe *within this binary*.

#![cfg(feature = "fault-injection")]

use abt_active::{
    lp_telemetry, solve_active_lp_with, try_solve_active_lp_with, IncrementalSolver, LpOptions,
    SolveError,
};
use abt_core::faultinject::{self, FaultSpec, IoFault};
use abt_core::{obs, Error, Instance, Job, SolveFailure};
use abt_workloads::{online_arrivals, OnlineArrivalsConfig};

/// Six well-separated clusters of three overlapping jobs each: a sharded
/// solve with enough pivot work that `every:k` failpoints fire several
/// times whichever component the scheduler runs first.
fn striped_instance() -> Instance {
    let mut triples = Vec::new();
    for c in 0..6i64 {
        let base = 100 * c;
        triples.push((base, base + 6, 3));
        triples.push((base + 1, base + 5, 2));
        triples.push((base + 2, base + 6, 3));
    }
    Instance::from_triples(triples, 2).unwrap()
}

/// Tentpole differential: with failpoints firing in three layers (pivot
/// loop, FTRAN, certifier), the sharded solve completes without abort
/// and returns objectives bit-identical to the fault-free run —
/// demotions absorb every injected fault, nothing quarantines.
#[test]
fn intermittent_faults_in_three_layers_demote_but_stay_bit_identical() {
    let _guard = faultinject::exclusive();
    let inst = striped_instance();
    let modes = [LpOptions::default()];
    let baseline: Vec<_> = modes
        .iter()
        .map(|o| solve_active_lp_with(&inst, o).unwrap().objective)
        .collect();

    faultinject::configure("panic_in_pivot", FaultSpec::panic_every(4));
    faultinject::configure("panic_in_ftran", FaultSpec::panic_every(7));
    faultinject::configure("slow_certify", FaultSpec::delay_nth(3, 1));
    let before = lp_telemetry();
    for (opts, expect) in modes.iter().zip(&baseline) {
        let lp = solve_active_lp_with(&inst, opts).unwrap();
        assert_eq!(lp.objective, *expect, "demotion must never change answers");
    }
    let d = lp_telemetry().delta(&before);
    assert!(d.demotions >= 1, "injected faults must demote");
    assert_eq!(d.quarantined, 0, "the dense rungs absorb every fault");
    assert_eq!(
        d.fallbacks, 0,
        "demoted solves are certified, not fallen back"
    );

    // Fault-free control: with the registry cleared, the same solves
    // record zero demotions, budget trips, and quarantines.
    faultinject::reset();
    let before = lp_telemetry();
    for (opts, expect) in modes.iter().zip(&baseline) {
        assert_eq!(
            solve_active_lp_with(&inst, opts).unwrap().objective,
            *expect
        );
    }
    let d = lp_telemetry().delta(&before);
    assert_eq!((d.demotions, d.budget_trips, d.quarantined), (0, 0, 0));
}

/// Supervisor-entry crashes quarantine every component: the typed
/// partial-result error carries them all, the legacy surface flattens to
/// [`Error::Quarantined`], and recovery after clearing the registry is
/// bit-identical to the fault-free baseline.
#[test]
fn supervisor_entry_crashes_quarantine_components_with_typed_partials() {
    let _guard = faultinject::exclusive();
    let inst = striped_instance();
    let opts = LpOptions::default();
    let baseline = solve_active_lp_with(&inst, &opts).unwrap().objective;

    faultinject::configure("fail_nth_solve", FaultSpec::panic_every(1));
    let before = lp_telemetry();
    match try_solve_active_lp_with(&inst, &opts) {
        Err(SolveError::Partial(p)) => {
            assert_eq!(p.quarantined.len(), 6, "all six components crash");
            assert!(p.healthy.is_empty());
            assert!(p
                .quarantined
                .iter()
                .all(|q| matches!(q.failure, SolveFailure::Panicked(_))));
        }
        other => panic!("expected a partial solve, got {other:?}"),
    }
    assert!(matches!(
        solve_active_lp_with(&inst, &opts),
        Err(Error::Quarantined(_))
    ));
    assert!(lp_telemetry().delta(&before).quarantined >= 6);

    faultinject::reset();
    let lp = solve_active_lp_with(&inst, &opts).unwrap();
    assert_eq!(lp.objective, baseline);
}

/// Satellite: a quarantined [`IncrementalSolver`] component is skipped
/// (not retried) on later solves, is re-admitted and solved cold once the
/// offending job is removed, and the clean components are served from the
/// content cache throughout — never re-solved.
#[test]
fn incremental_quarantine_readmits_on_content_change_without_resolving_clean_blocks() {
    let _guard = faultinject::exclusive();
    let mut solver = IncrementalSolver::new(2).unwrap();
    solver.add_job(Job::new(0, 4, 2));
    solver.add_job(Job::new(100, 104, 3));
    solver.add_job(Job::new(200, 203, 1));
    let clean = solver.solve().unwrap();
    // All three singletons solve cold; none can be content-reused.
    assert_eq!((clean.components, clean.reused), (3, 0));
    let clean_objective = clean.lp.objective;

    // A fourth, far-apart job arrives and its (only dirty) component
    // crashes at supervisor entry.
    let bad = solver.add_job(Job::new(300, 306, 3));
    faultinject::configure("fail_nth_solve", FaultSpec::panic_nth(1));
    let partial = match solver.try_solve() {
        Err(SolveError::Partial(p)) => p,
        other => panic!("expected a partial solve, got {other:?}"),
    };
    assert_eq!(partial.quarantined.len(), 1);
    assert_eq!(partial.quarantined[0].jobs.len(), 1);
    assert_eq!(partial.healthy.len(), 3, "clean blocks keep serving");
    assert_eq!(partial.healthy_objective, clean_objective);
    assert_eq!(solver.quarantined(), 1);

    // The failpoint is gone, but the quarantined key is not retried:
    // re-admission is content-driven, not time-driven.
    faultinject::reset();
    let before = lp_telemetry();
    match solver.try_solve() {
        Err(SolveError::Partial(p)) => {
            assert_eq!(p.quarantined.len(), 1);
            assert_eq!(p.healthy_objective, clean_objective);
        }
        other => panic!("expected the quarantine to persist, got {other:?}"),
    }
    let d = lp_telemetry().delta(&before);
    assert_eq!(d.solves, 0, "no component may re-solve on a skip pass");

    // Removing the offending job re-admits by content: the component
    // disappears, its stale quarantine entry is pruned, and the clean
    // blocks are reused verbatim — zero cold solves.
    solver.remove_job(bad).unwrap();
    let report = solver.solve().unwrap();
    assert_eq!(report.components, 3);
    assert_eq!(report.reused, 3, "clean components never re-solve");
    assert_eq!(report.cold_solves, 0);
    assert_eq!(report.lp.objective, clean_objective);
    assert_eq!(solver.quarantined(), 0, "stale quarantine keys are pruned");

    // Manual re-admission: the same bad content, quarantined again, is
    // retried after `clear_quarantine` (the registry is already clean).
    solver.add_job(Job::new(300, 306, 3));
    faultinject::configure("fail_nth_solve", FaultSpec::panic_nth(1));
    assert!(solver.try_solve().is_err());
    faultinject::reset();
    solver.clear_quarantine();
    let report = solver.solve().unwrap();
    assert_eq!(report.reused, 3, "clean blocks are still cache hits");
    assert_eq!(
        report.cold_solves, 1,
        "the re-admitted component solves exactly once"
    );
}

/// Observability satellite (PR 10): with tracing armed, injected pivot
/// faults leave `supervise.demotion` events in the flight recorder —
/// parented under the demoting component's `solve.component` span, with
/// the failure and both rung names as structured fields, and *sequenced
/// before* the span's close entry (spans are pushed to the ring at
/// close, so correct ordering means every demotion's `seq` precedes its
/// parent span's `seq`). Injected checkpoint corruption likewise leaves
/// `persist.corrupt` events, each absorbed by a later `persist.recovery`.
#[test]
fn flight_recorder_captures_demotion_and_recovery_events_in_order() {
    let _guard = faultinject::exclusive();
    let inst = striped_instance();
    obs::set_tracing(true);
    obs::recorder::clear();

    faultinject::configure("panic_in_pivot", FaultSpec::panic_every(4));
    solve_active_lp_with(&inst, &LpOptions::default()).unwrap();
    faultinject::reset();
    let entries = obs::recorder::entries();

    let demotions: Vec<_> = entries
        .iter()
        .filter(|e| e.name == "supervise.demotion")
        .collect();
    assert!(!demotions.is_empty(), "injected pivot panics must demote");
    for d in &demotions {
        let field = |k| {
            d.fields
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.as_str())
                .unwrap_or_else(|| panic!("demotion event missing `{k}`: {d:?}"))
        };
        assert!(field("failure").contains("panic"), "failure: {d:?}");
        let ladder = ["cold revised", "dense hybrid", "dense exact"];
        let from = ladder.iter().position(|r| *r == field("from")).unwrap();
        let to = ladder.iter().position(|r| *r == field("to")).unwrap();
        assert_eq!(to, from + 1, "demotions step one rung down: {d:?}");
        // Ordering: the demotion happened inside a still-open
        // `solve.component` span, so the span's close entry (where it is
        // pushed to the ring) must carry a later sequence number.
        let parent = entries
            .iter()
            .find(|e| e.span == d.parent)
            .unwrap_or_else(|| panic!("demotion parent span {} never closed", d.parent));
        assert_eq!(parent.name, "solve.component");
        assert!(
            d.seq < parent.seq,
            "event {} vs span close {}",
            d.seq,
            parent.seq
        );
    }

    // Phase 2 — persistence: build a durable store cleanly, then re-attach
    // with `corrupt_read` firing. Every corruption detection must appear
    // as a `persist.corrupt` event and be absorbed by a `persist.recovery`
    // event sequenced after it.
    let dir = std::env::temp_dir().join(format!("abt-fi-recorder-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut solver = IncrementalSolver::new(2).unwrap();
    solver.attach_store(&dir).unwrap();
    for (r, d, p) in [(0i64, 6i64, 3i64), (100, 105, 2), (200, 206, 3)] {
        solver.add_job(Job::new(r, d, p));
    }
    solver.solve().unwrap();
    solver.checkpoint_now();

    obs::recorder::clear();
    faultinject::configure("corrupt_read", FaultSpec::io_every(IoFault::CorruptRead, 1));
    let before = lp_telemetry();
    let mut solver = IncrementalSolver::new(2).unwrap();
    solver
        .attach_store(&dir)
        .expect("corruption is absorbed, never surfaced");
    faultinject::reset();
    let d = lp_telemetry().delta(&before);
    assert!(d.state_corrupt > 0, "the armed corrupt_read never fired");

    let entries = obs::recorder::entries();
    obs::set_tracing(false);
    let seqs = |name: &str| -> Vec<u64> {
        entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.seq)
            .collect()
    };
    let corrupt = seqs("persist.corrupt");
    let recovery = seqs("persist.recovery");
    assert_eq!(
        corrupt.len() as u64,
        d.state_corrupt,
        "events mirror counters"
    );
    assert_eq!(recovery.len() as u64, d.recoveries);
    assert!(recovery.len() >= corrupt.len());
    assert!(
        corrupt.iter().max() < recovery.iter().max(),
        "each corruption must be followed by a completed recovery"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Durable-state satellite (PR 8): with the persist layer's I/O
/// failpoints firing — `torn_write` truncating checkpoints after the
/// atomic rename, `corrupt_read` flipping bytes on every other load —
/// repeated attach/solve/checkpoint cycles must keep every exact
/// objective bit-identical to from-scratch solves. Every injected
/// corruption surfaces internally as `StateCorrupt`, demotes to a cold
/// (or partial) rebuild, and is matched by a completed recovery: no
/// panics, no wrong answers, no solver-component quarantines.
#[test]
fn injected_io_corruption_demotes_to_cold_rebuilds_bit_identically() {
    let _guard = faultinject::exclusive();
    let cfg = OnlineArrivalsConfig {
        clusters: 6,
        jobs_per_cluster: 3,
        templates: 2,
        g: 2,
        span: 12,
        gap: 3,
        max_len: 3,
    };
    let oa = online_arrivals(&cfg, 17);
    let total = oa.jobs.len();
    let cycles = 4;
    let dir = std::env::temp_dir().join(format!("abt-fi-io-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    faultinject::configure("torn_write", FaultSpec::io_every(IoFault::TornWrite, 2));
    faultinject::configure("corrupt_read", FaultSpec::io_every(IoFault::CorruptRead, 3));
    let before = lp_telemetry();
    for cycle in 1..=cycles {
        let target = total * cycle / cycles;
        let mut solver = IncrementalSolver::new(cfg.g).unwrap();
        let report = solver
            .attach_store(&dir)
            .expect("injected corruption must be absorbed, never surfaced");
        assert!(
            report.resumed_jobs <= target,
            "cycle {cycle}: recovery resumed more jobs than were ever journaled"
        );
        for job in &oa.jobs[report.resumed_jobs..target] {
            solver.add_job(*job);
        }
        let rep = solver.solve().expect("prefixes are feasible");
        let scratch = solve_active_lp_with(&oa.prefix_instance(target), &LpOptions::default())
            .unwrap()
            .objective;
        assert_eq!(
            rep.lp.objective, scratch,
            "cycle {cycle}: corruption must never move the exact objective"
        );
        solver.checkpoint_now();
    }
    let d = lp_telemetry().delta(&before);
    assert!(d.state_corrupt > 0, "the armed I/O failpoints never fired");
    assert!(
        d.recoveries >= d.state_corrupt,
        "every corruption detection ({}) must be absorbed by a completed recovery ({})",
        d.state_corrupt,
        d.recoveries
    );
    assert_eq!(
        d.quarantined, 0,
        "I/O corruption demotes persisted state, never solver components"
    );

    // Fault-free control: with the registry cleared, the surviving state
    // attaches cleanly and the full set still solves bit-identically.
    faultinject::reset();
    let mut solver = IncrementalSolver::new(cfg.g).unwrap();
    let report = solver.attach_store(&dir).unwrap();
    for job in &oa.jobs[report.resumed_jobs..] {
        solver.add_job(*job);
    }
    let rep = solver.solve().unwrap();
    let scratch = solve_active_lp_with(&oa.instance(), &LpOptions::default())
        .unwrap()
        .objective;
    assert_eq!(rep.lp.objective, scratch);
    std::fs::remove_dir_all(&dir).ok();
}
