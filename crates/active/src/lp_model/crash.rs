//! Tests of LP1's crash start ([`super::crash_start`]), test-only.
//!
//! The unit tests pin the greedy's cases on hand-made instances: a start
//! that covers every job (no phase 1), one that leaves a job short (phase
//! 1 runs from the start), saturating fills (the start is nonsingular and
//! within its bounds and VUBs), infeasibility, and a starved pivot budget.
//! The property test runs every component of generated instances three
//! ways — started, with no start, and through the dense exact simplex —
//! and requires the same status and objective bit for bit, and a start
//! that is nonsingular and within its bounds and VUBs.

use super::{
    build_component_lp, components, lp_telemetry, slot_runs, solve_active_lp_with, ComponentLp,
    DecomposeMode, LpOptions,
};
use abt_core::{Error, Instance};
use abt_lp::{
    solve_lp, LpReport, Rat, SolverBackend, SparseLu, StandardForm, StartBasis, VarState,
};
use abt_workloads::{
    many_components, online_arrivals, random_active_feasible, vub_heavy, ManyComponentsConfig,
    OnlineArrivalsConfig, RandomConfig, VubHeavyConfig,
};
use proptest::prelude::*;

/// Every component block of `inst` under the default options.
fn blocks(inst: &Instance) -> Vec<ComponentLp> {
    let runs = slot_runs(inst);
    components(inst, &runs, DecomposeMode::Auto)
        .iter()
        .map(|comp| build_component_lp(inst, &LpOptions::default(), &runs, comp))
        .collect()
}

/// The single block of a connected instance.
fn block(inst: &Instance) -> ComponentLp {
    let mut all = blocks(inst);
    assert_eq!(all.len(), 1, "a connected instance is one component");
    all.pop().unwrap()
}

/// The cold revised solve of `clp`, from its crash start or from the
/// all-slack basis.
fn cold(clp: &ComponentLp, started: bool) -> LpReport {
    let start = if started { clp.start.as_ref() } else { None };
    solve_lp(&clp.lp, &abt_lp::LpOptions::new().start(start)).expect("clean cold solve")
}

/// Checks, in exact arithmetic, that `start` maps onto `clp`'s standard
/// form, that its basis is nonsingular, and that every basic value lies
/// within its bounds and VUBs (artificials may be positive: that is the
/// residual phase 1 works off). Returns the sum of the basic artificials.
fn start_residual(clp: &ComponentLp, start: &StartBasis) -> Result<Rat, String> {
    let sf = StandardForm::build(&clp.lp);
    let snap = start.snapshot(&sf).ok_or("start does not map")?;
    // The value a nonbasic column rests at. Keys (the `Y`) are never
    // basic in the crash start, so a glued dependent rests at its key's
    // resting value and every basis column is a plain one.
    let rest = |j: usize| -> Result<Rat, String> {
        Ok(match snap.state[j] {
            VarState::AtUpper => sf.upper[j].ok_or("AtUpper without a bound")?,
            VarState::AtVub => {
                let k = sf.vub[j].ok_or("AtVub without a key")?;
                match snap.state[k] {
                    VarState::AtUpper => sf.upper[k].ok_or("key AtUpper without a bound")?,
                    VarState::AtLower => Rat::ZERO,
                    other => return Err(format!("key of a glued column is {other:?}")),
                }
            }
            _ => Rat::ZERO,
        })
    };
    let mut rhs = sf.b.clone();
    for j in 0..sf.ncols {
        if snap.state[j] == VarState::Basic {
            continue;
        }
        let v = rest(j)?;
        if v.signum() != 0 {
            for &(i, a) in &sf.cols[j] {
                rhs[i] = rhs[i].sub(&v.mul(&a));
            }
        }
    }
    let cols: Vec<Vec<(usize, Rat)>> = snap.basis.iter().map(|&j| sf.cols[j].to_vec()).collect();
    let lu = SparseLu::factor(sf.m, &cols).ok_or("singular start")?;
    let xb = lu.solve(&rhs);
    let mut residual = Rat::ZERO;
    for (i, &j) in snap.basis.iter().enumerate() {
        let x = xb[i];
        if x.signum() < 0 {
            return Err(format!("column {j} starts negative: {x}"));
        }
        if let Some(u) = sf.upper[j] {
            if x > u {
                return Err(format!("column {j} starts above its bound: {x} > {u}"));
            }
        }
        if let Some(k) = sf.vub[j] {
            if snap.state[k] == VarState::Basic {
                return Err(format!("the key of column {j} is basic"));
            }
            if x > rest(k)? {
                return Err(format!("column {j} starts above its VUB key"));
            }
        }
        if sf.artificial[j] {
            residual = residual.add(&x);
        }
    }
    Ok(residual)
}

/// The started, no-start and dense exact solves of `clp` agree on status
/// and objective, and the start is nonsingular and within its bounds.
fn check_block(clp: &ComponentLp) -> Result<(), String> {
    let start = clp
        .start
        .as_ref()
        .ok_or("the default encoding builds a start")?;
    start_residual(clp, start)?;
    let dense = solve_lp(
        &clp.lp,
        &abt_lp::LpOptions::new().backend(SolverBackend::DenseExact),
    )
    .map_err(|f| f.to_string())?
    .solution;
    for start in [Some(start), None] {
        let sol = solve_lp(&clp.lp, &abt_lp::LpOptions::new().start(start))
            .map_err(|f| format!("started {}: {f}", start.is_some()))?
            .solution;
        if sol.status != dense.status || sol.objective != dense.objective {
            return Err(format!(
                "started {}: {:?} {} vs dense exact {:?} {}",
                start.is_some(),
                sol.status,
                sol.objective,
                dense.status,
                dense.objective
            ));
        }
    }
    Ok(())
}

fn check_instance(inst: &Instance) -> Result<(), TestCaseError> {
    for clp in blocks(inst) {
        check_block(&clp).map_err(TestCaseError::fail)?;
    }
    Ok(())
}

#[test]
fn a_start_covering_every_job_skips_phase_1() {
    let inst = Instance::from_triples([(0, 4, 2), (1, 3, 2), (2, 6, 3)], 2).unwrap();
    let clp = block(&inst);
    assert_eq!(
        start_residual(&clp, clp.start.as_ref().unwrap()),
        Ok(Rat::ZERO)
    );
    let started = cold(&clp, true);
    let plain = cold(&clp, false);
    assert_eq!(started.stats.phase1_pivots, 0);
    assert!(
        plain.stats.phase1_pivots > 0,
        "the all-slack start searches"
    );
    assert_eq!(started.solution.objective, plain.solution.objective);
}

#[test]
fn a_start_leaving_a_job_short_runs_phase_1_from_it() {
    // (deadline, release) order fills job 2 (window (3, 8]) before job 0
    // (window (4, 8], which needs all four of its slots): job 2 takes slot
    // 5 and leaves job 0 one unit short.
    let inst = Instance::from_triples([(4, 8, 4), (3, 5, 2), (3, 8, 3)], 2).unwrap();
    let clp = block(&inst);
    assert_eq!(
        start_residual(&clp, clp.start.as_ref().unwrap()),
        Ok(Rat::ONE)
    );
    let started = cold(&clp, true);
    let plain = cold(&clp, false);
    assert!(
        started.stats.phase1_pivots > 0,
        "phase 1 runs from the start"
    );
    assert!(started.stats.phase1_pivots < plain.stats.phase1_pivots);
    assert_eq!(started.solution.objective, plain.solution.objective);
}

#[test]
fn saturating_fills_give_a_nonsingular_in_bounds_start() {
    // One run of width 4 and one of width 2, g = 2: job 0 glues 4 units
    // to the first run, job 1 takes its remainder 3 < 4 there, and job 2
    // saturates the 1 unit of room left before gluing 2 to the second
    // run — a basic x in a capacity row in place of its slack.
    let inst = Instance::from_triples([(0, 4, 4), (0, 4, 3), (0, 6, 3)], 2).unwrap();
    let clp = block(&inst);
    let start = clp.start.as_ref().unwrap();
    let in_cap_rows = start.rows[..2]
        .iter()
        .filter(|r| matches!(r, abt_lp::RowStart::Var(_)))
        .count();
    assert_eq!(in_cap_rows, 1, "one capacity row is saturated: {start:?}");
    assert_eq!(start_residual(&clp, start), Ok(Rat::ZERO));
    assert_eq!(cold(&clp, true).stats.phase1_pivots, 0);
    check_block(&clp).unwrap();
}

#[test]
fn infeasible_components_stay_infeasible() {
    // Two unit jobs in one slot with g = 1: the start leaves one short,
    // phase 1 cannot cover it, the float pass claims infeasibility and the
    // exact rungs decide it.
    let inst = Instance::from_triples([(0, 1, 1), (0, 1, 1)], 1).unwrap();
    let clp = block(&inst);
    assert_eq!(
        start_residual(&clp, clp.start.as_ref().unwrap()),
        Ok(Rat::ONE)
    );
    let opts = abt_lp::LpOptions::new().start(clp.start.as_ref());
    assert_eq!(
        solve_lp(&clp.lp, &opts).unwrap_err(),
        abt_core::SolveFailure::Infeasible
    );
    assert!(matches!(
        solve_active_lp_with(&inst, &LpOptions::default()),
        Err(Error::Infeasible(_))
    ));
}

#[test]
fn a_starved_pivot_budget_still_demotes_and_never_quarantines() {
    // The short start needs phase-1 pivots, so a one-pivot budget trips
    // the cold rung; the dense rungs answer exactly. (Lower-bound checks
    // only: the counters are process-global.)
    let inst = Instance::from_triples([(4, 8, 4), (3, 5, 2), (3, 8, 3)], 2).unwrap();
    let reference = solve_active_lp_with(&inst, &LpOptions::default()).unwrap();
    let before = lp_telemetry();
    let starved = solve_active_lp_with(&inst, &LpOptions::default().pivot_budget(1)).unwrap();
    let d = lp_telemetry().delta(&before);
    assert_eq!(starved.objective, reference.objective);
    assert!(d.budget_trips >= 1 && d.demotions >= 1, "{d:?}");
}

/// A generated instance of one of five families, as drawn by the property
/// tests: random feasible windows (`family` 0), the same with zero window
/// slack (1), VUB-heavy nests (2), many components (3) and an
/// online-arrivals prefix (4 and up).
pub(crate) fn generated(family: usize, seed: u64, n: usize, g: usize, horizon: i64) -> Instance {
    match family {
        // Random feasible windows, and the same with zero window slack
        // (tight windows: every assignment forced).
        0 | 1 => random_active_feasible(
            &RandomConfig {
                n,
                g,
                horizon,
                max_len: 5,
                slack_factor: if family == 0 { 1.0 } else { 0.0 },
            },
            seed,
        ),
        2 => vub_heavy(
            &VubHeavyConfig {
                n,
                g: g.max(2),
                horizon: horizon.max(16),
                max_len: 4,
                fan_in: 2 + n % 3,
            },
            seed,
        ),
        3 => many_components(
            &ManyComponentsConfig {
                components: 1 + n % 5,
                jobs_per_component: 1 + g,
                g,
                span: 6 + horizon % 8,
                gap: 1 + horizon % 4,
                max_len: 3,
                slack_factor: 1.0,
            },
            seed,
        ),
        _ => {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn started_solves_match_no_start_and_dense_exact(
        family in 0usize..5,
        seed in 0u64..1_000_000,
        n in 2usize..14,
        g in 1usize..5,
        horizon in 8i64..30,
    ) {
        check_instance(&generated(family, seed, n, g, horizon))?;
    }
}
