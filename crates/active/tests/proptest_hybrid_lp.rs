//! Differential property tests for the LP pipeline: on feasible random
//! active-time instances, every `LpOptions` configuration — VUB encoding ×
//! decomposition, full Dantzig pricing, and a one-pivot budget that hands
//! every component to the supervision ladder's dense hybrid rung — must
//! reproduce the per-slot LP1 of §3 bit for bit on status and objective,
//! and the open runs, disaggregated per slot, must stay a valid
//! fractional opening.
//!
//! The oracle, [`per_slot_lp1`], writes the per-slot model out row by row
//! and solves it with the pure exact-rational dense simplex. It shares no
//! code with the crate's coalesced model builder.

use abt_active::{fractional_feasible, solve_active_lp_with, DecomposeMode, LpOptions, VubMode};
use abt_core::active_schedule::horizon_slots;
use abt_core::{Instance, Time};
use abt_lp::{Cmp, LpProblem, LpStatus, Rat};
use abt_workloads::{
    many_components, random_active_feasible, vub_heavy, ManyComponentsConfig, RandomConfig,
    VubHeavyConfig,
};
use proptest::prelude::*;

/// The per-slot LP1 of §3 over the horizon slots `t ∈ (min r_j, max d_j]`:
/// minimize `Σ_t y_t` subject to `y_t ≤ 1`, `x_{t,j} ≤ y_t`,
/// `Σ_j x_{t,j} ≤ g·y_t` and `Σ_t x_{t,j} ≥ p_j`, every bound an explicit
/// row, solved by the pure exact-rational dense simplex. `None` when
/// infeasible.
fn per_slot_lp1(inst: &Instance) -> Option<Rat> {
    let slots: Vec<Time> = (inst.min_release() + 1..=inst.max_deadline()).collect();
    let mut lp: LpProblem<Rat> = LpProblem::new();
    let y: Vec<usize> = slots.iter().map(|_| lp.add_var(Rat::ONE)).collect();
    for &yt in &y {
        lp.add_constraint(vec![(yt, Rat::ONE)], Cmp::Le, Rat::ONE);
    }
    let mut load: Vec<Vec<(usize, Rat)>> = vec![Vec::new(); slots.len()];
    for job in inst.jobs() {
        let mut units = Vec::new();
        for (si, &t) in slots.iter().enumerate() {
            if job.release < t && t <= job.deadline {
                let x = lp.add_var(Rat::ZERO);
                lp.add_constraint(
                    vec![(x, Rat::ONE), (y[si], Rat::from_int(-1))],
                    Cmp::Le,
                    Rat::ZERO,
                );
                load[si].push((x, Rat::ONE));
                units.push((x, Rat::ONE));
            }
        }
        lp.add_constraint(units, Cmp::Ge, Rat::from_int(job.length));
    }
    let g = Rat::from_int(inst.g() as i64);
    for (si, mut terms) in load.into_iter().enumerate() {
        terms.push((y[si], g.neg()));
        lp.add_constraint(terms, Cmp::Le, Rat::ZERO);
    }
    let sol = abt_lp::solve(&lp);
    match sol.status {
        LpStatus::Optimal => Some(sol.objective),
        LpStatus::Infeasible => None,
        LpStatus::Unbounded => unreachable!("LP1 is bounded below by 0"),
    }
}

/// The differential grid: every VUB encoding × decomposition mode, full
/// Dantzig pricing, and a one-pivot budget.
fn variants() -> Vec<LpOptions> {
    let mut v = Vec::new();
    for vub in [VubMode::Rows, VubMode::Implicit] {
        for decompose in [DecomposeMode::Off, DecomposeMode::Auto] {
            v.push(LpOptions {
                vub,
                decompose,
                ..LpOptions::default()
            });
        }
    }
    // The default model priced with full Dantzig sweeps instead of the
    // partial-pricing window.
    v.push(LpOptions::default().pricing_window(0));
    // A one-pivot budget trips the cold revised rung on every non-trivial
    // component, so the ladder's dense hybrid rung answers: the dense
    // `f64` tableau plus its exact certificate, end to end.
    v.push(LpOptions::default().pivot_budget(1));
    v
}

fn assert_all_variants_match(inst: &Instance) -> Result<(), TestCaseError> {
    let oracle = per_slot_lp1(inst).expect("instances are feasible by construction");
    for opts in variants() {
        let lp = solve_active_lp_with(inst, &opts).unwrap();
        prop_assert_eq!(lp.objective, oracle, "{:?}", opts);
        let slots = horizon_slots(inst).unwrap();
        let mut sum = Rat::ZERO;
        for y in &lp.slot_values(&slots) {
            prop_assert!(y.signum() >= 0 && *y <= Rat::ONE, "{:?}", opts);
            sum = sum.add(y);
        }
        prop_assert_eq!(sum, oracle, "{:?}: Σy must equal the objective", opts);
    }
    Ok(())
}

#[test]
fn all_configurations_agree_on_objective() {
    // Coalescing, the VUB encoding, sharding, and the ladder rung change
    // the model size and the pivot arithmetic, never the exact optimum.
    let cases = [
        Instance::from_triples([(0, 4, 2), (1, 3, 2)], 2).unwrap(),
        Instance::from_triples([(0, 3, 1), (1, 4, 2), (2, 6, 3)], 2).unwrap(),
        Instance::from_triples([(0, 10, 4)], 1).unwrap(),
        Instance::from_triples([(0, 6, 2), (3, 8, 4), (0, 2, 2), (4, 12, 3)], 3).unwrap(),
        Instance::from_triples([(0, 20, 3), (5, 25, 4), (10, 30, 2)], 2).unwrap(),
    ];
    for inst in &cases {
        assert_all_variants_match(inst).unwrap();
    }
}

#[test]
fn degenerate_zero_slack_and_single_run_instances_agree() {
    // (a) All-zero window slack — every x is forced, most LP rows are
    // tight; (b) a single super-slot — all jobs share one window, so the
    // coalesced model has exactly one run and the bound `Y ≤ w` is the
    // only capacity on it.
    let zero_slack =
        Instance::from_triples([(0, 3, 3), (1, 4, 3), (2, 5, 3), (0, 2, 2)], 3).unwrap();
    let single_run =
        Instance::from_triples([(0, 8, 5), (0, 8, 3), (0, 8, 4), (0, 8, 2)], 2).unwrap();
    for inst in [&zero_slack, &single_run] {
        assert_all_variants_match(inst).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn all_backend_bounds_configs_preserve_lp1_exactly(
        seed in 0u64..1_000_000,
        n in 4usize..14,
        g in 1usize..4,
        horizon in 10i64..26,
        max_len in 1i64..5,
    ) {
        let cfg = RandomConfig { n, g, horizon, max_len, slack_factor: 1.0 };
        let inst = random_active_feasible(&cfg, seed);
        if inst.jobs().is_empty() {
            return Ok(());
        }
        assert_all_variants_match(&inst)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn degenerate_zero_slack_instances_preserve_lp1_exactly(
        seed in 0u64..1_000_000,
        n in 4usize..12,
        g in 1usize..4,
        horizon in 8i64..20,
        max_len in 1i64..5,
    ) {
        // Zero window slack: every job's window equals its length, so all
        // assignments are forced and most LP rows are tight (maximal
        // degeneracy for the pivoting rules).
        let cfg = RandomConfig { n, g, horizon, max_len, slack_factor: 0.0 };
        let inst = random_active_feasible(&cfg, seed);
        if inst.jobs().is_empty() {
            return Ok(());
        }
        assert_all_variants_match(&inst)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn vub_heavy_nested_instances_preserve_lp1_exactly(
        seed in 0u64..1_000_000,
        n in 6usize..16,
        g in 2usize..5,
        fan_in in 2usize..5,
        horizon in 16i64..40,
    ) {
        // The VUB stress family: laminar nested windows with `fan_in` jobs
        // per window (after Cao et al., arXiv:2207.12507) maximize the
        // per-interval job fan-in, i.e. the number of `x ≤ Y` caps per key.
        let cfg = VubHeavyConfig { n, g, horizon, max_len: 4, fan_in };
        let inst = vub_heavy(&cfg, seed);
        if inst.jobs().is_empty() {
            return Ok(());
        }
        assert_all_variants_match(&inst)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn component_sharding_preserves_lp1_exactly(
        seed in 0u64..1_000_000,
        components in 1usize..7,
        jobs_per in 1usize..5,
        g in 1usize..4,
        span in 6i64..14,
        gap in 1i64..5,
    ) {
        // The decomposition stress family: `components` isolated clusters
        // (degenerate corners included — a single cluster collapses Auto to
        // the monolithic path, and one job per cluster makes every
        // component a singleton). `DecomposeMode::Auto` must reproduce the
        // monolithic `Off` objective bit for bit under both VubMode
        // encodings, and the stitched runs, disaggregated per slot, must
        // stay a feasible fractional opening.
        let cfg = ManyComponentsConfig {
            components,
            jobs_per_component: jobs_per,
            g,
            span,
            gap,
            max_len: 3,
            slack_factor: 1.0,
        };
        let inst = many_components(&cfg, seed);
        if inst.jobs().is_empty() {
            return Ok(());
        }
        let oracle = solve_active_lp_with(&inst, &LpOptions::pr3_monolithic())
            .expect("instances are feasible by construction");
        for vub in [VubMode::Rows, VubMode::Implicit] {
            for decompose in [DecomposeMode::Off, DecomposeMode::Auto] {
                let opts = LpOptions { vub, decompose, ..LpOptions::default() };
                let lp = solve_active_lp_with(&inst, &opts).unwrap();
                prop_assert_eq!(lp.objective, oracle.objective, "{:?}", opts);
                let slots = horizon_slots(&inst).unwrap();
                let y = lp.slot_values(&slots);
                let mut sum = Rat::ZERO;
                for y in &y {
                    prop_assert!(y.signum() >= 0 && *y <= Rat::ONE, "{:?}", opts);
                    sum = sum.add(y);
                }
                prop_assert_eq!(
                    sum,
                    oracle.objective,
                    "{:?}: stitched Σy must equal the objective",
                    opts
                );
                // Under the default encoding, certify the stitched runs
                // actually supports a fractional schedule (LP2).
                if vub == VubMode::Implicit {
                    prop_assert!(
                        fractional_feasible(&inst, &slots, &y),
                        "{:?}: stitched runs must be LP2-feasible",
                        opts
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn single_super_slot_instances_preserve_lp1_exactly(
        seed in 0u64..1_000_000,
        n in 2usize..8,
        g in 2usize..5,
        width in 6i64..14,
    ) {
        // Every job shares the window (0, width]: the coalesced model has a
        // single super-slot, so the entire capacity structure lives in the
        // variable bound Y ≤ width.
        let mut triples = Vec::new();
        let mut used = 0i64;
        for i in 0..n {
            let len = 1 + (seed >> (i % 16)) as i64 % width.min(4);
            if used + len > g as i64 * width {
                break;
            }
            used += len;
            triples.push((0i64, width, len));
        }
        if triples.is_empty() {
            return Ok(());
        }
        let inst = Instance::from_triples(triples, g).unwrap();
        assert_all_variants_match(&inst)?;
    }
}
