//! Differential property tests for the warm-start subsystem (PR 5):
//! batched sibling solves (`WarmMode::Batch`) and incremental re-solves
//! (`IncrementalSolver`) must reproduce the cold `DecomposeMode::Auto`
//! objective **bit for bit** under both `VubMode` encodings, and the
//! stitched per-slot `y` must remain a feasible fractional opening
//! (certified against LP2 by the `fractional_feasible` oracle).

use abt_active::{
    fractional_feasible, solve_active_lp_with, IncrementalSolver, LpOptions, VubMode, WarmMode,
};
use abt_lp::Rat;
use abt_workloads::{many_components, online_arrivals, ManyComponentsConfig, OnlineArrivalsConfig};
use proptest::prelude::*;

/// Asserts `WarmMode::Batch` ≡ cold `Auto` on `inst` under both
/// `VubMode` encodings, plus LP2 feasibility of the stitched `y` under the
/// default encoding.
fn assert_batch_matches_cold(inst: &abt_core::Instance) -> Result<(), TestCaseError> {
    let cold = solve_active_lp_with(inst, &LpOptions::default())
        .expect("instances are feasible by construction");
    for vub in [VubMode::Rows, VubMode::Implicit] {
        let opts = LpOptions {
            vub,
            warm: WarmMode::Batch,
            ..LpOptions::default()
        };
        let warm = solve_active_lp_with(inst, &opts).unwrap();
        prop_assert_eq!(warm.objective, cold.objective, "{:?}", opts);
        let mut sum = Rat::ZERO;
        for y in &warm.y {
            prop_assert!(y.signum() >= 0 && *y <= Rat::ONE, "{:?}", opts);
            sum = sum.add(y);
        }
        prop_assert_eq!(
            sum,
            cold.objective,
            "{:?}: Σy must equal the objective",
            opts
        );
        if vub == VubMode::Implicit {
            prop_assert!(
                fractional_feasible(inst, &warm.slots, &warm.y),
                "{:?}: warm-batched y must be LP2-feasible",
                opts
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn warm_batched_preserves_lp1_exactly_on_online_arrivals(
        seed in 0u64..1_000_000,
        clusters in 2usize..9,
        jobs_per in 1usize..5,
        templates in 1usize..4,
        g in 2usize..4,
    ) {
        let cfg = OnlineArrivalsConfig {
            clusters,
            jobs_per_cluster: jobs_per,
            templates,
            g,
            span: 12,
            gap: 3,
            max_len: 3,
        };
        let inst = online_arrivals(&cfg, seed).instance();
        assert_batch_matches_cold(&inst)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn warm_batched_preserves_lp1_exactly_on_many_components(
        seed in 0u64..1_000_000,
        components in 1usize..7,
        jobs_per in 1usize..4,
        g in 1usize..4,
    ) {
        // The block-diagonal family with *random* window slack: component
        // shapes repeat only sometimes, so this exercises mixed
        // hit/miss/singleton-group paths of the planner.
        let cfg = ManyComponentsConfig {
            components,
            jobs_per_component: jobs_per,
            g,
            span: 12,
            gap: 3,
            max_len: 3,
            slack_factor: 1.0,
        };
        let inst = many_components(&cfg, seed);
        if inst.jobs().is_empty() {
            return Ok(());
        }
        assert_batch_matches_cold(&inst)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn incremental_replay_matches_from_scratch_prefixes(
        seed in 0u64..1_000_000,
        clusters in 1usize..6,
        jobs_per in 1usize..4,
        g in 2usize..4,
        vub_implicit in 0usize..2,
    ) {
        // Replay an arrival stream through the incremental driver and
        // check *every* prefix against a from-scratch cold solve: exact
        // objective equality plus LP2 feasibility of the stitched y.
        let opts = LpOptions {
            vub: if vub_implicit == 1 { VubMode::Implicit } else { VubMode::Rows },
            ..LpOptions::default()
        };
        let cfg = OnlineArrivalsConfig {
            clusters,
            jobs_per_cluster: jobs_per,
            templates: 2.min(clusters),
            g,
            span: 10,
            gap: 2,
            max_len: 3,
        };
        let oa = online_arrivals(&cfg, seed);
        let mut solver = IncrementalSolver::with_options(g, opts).unwrap();
        for (k, job) in oa.jobs.iter().enumerate() {
            solver.add_job(*job);
            let rep = solver.solve().unwrap();
            let prefix = oa.prefix_instance(k + 1);
            let scratch = solve_active_lp_with(&prefix, &opts).unwrap();
            prop_assert_eq!(
                rep.lp.objective,
                scratch.objective,
                "prefix {} under {:?}",
                k + 1,
                opts
            );
            let mut sum = Rat::ZERO;
            for y in &rep.lp.y {
                prop_assert!(y.signum() >= 0 && *y <= Rat::ONE);
                sum = sum.add(y);
            }
            prop_assert_eq!(sum, scratch.objective);
        }
        // Certify the final stitched y against LP2 once per case (the
        // oracle itself solves an LP, so per-prefix checks would dominate
        // the test's runtime).
        let rep = solver.solve().unwrap();
        prop_assert!(fractional_feasible(
            &oa.instance(),
            &rep.lp.slots,
            &rep.lp.y
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn incremental_mutations_match_from_scratch(
        seed in 0u64..1_000_000,
        clusters in 2usize..6,
        g in 2usize..4,
    ) {
        // Beyond arrivals: removals and window edits must leave the
        // driver bit-identical to from-scratch solves of the mutated set.
        let cfg = OnlineArrivalsConfig {
            clusters,
            jobs_per_cluster: 3,
            templates: 2,
            g,
            span: 10,
            gap: 2,
            max_len: 3,
        };
        let oa = online_arrivals(&cfg, seed);
        let mut solver = IncrementalSolver::new(g).unwrap();
        let ids: Vec<_> = oa.jobs.iter().map(|j| solver.add_job(*j)).collect();
        solver.solve().unwrap();
        // Remove every third job.
        for id in ids.iter().step_by(3) {
            solver.remove_job(*id).unwrap();
        }
        // Widen the second job of each surviving stripe by one slot each way
        // (clamped to keep windows positive).
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 1 {
                let job = oa.jobs[i];
                solver
                    .update_window(*id, (job.release - 1).max(0), job.deadline + 1)
                    .unwrap();
            }
        }
        let rep = solver.solve().unwrap();
        let scratch = solve_active_lp_with(&solver.instance().unwrap(), &LpOptions::default())
            .unwrap();
        prop_assert_eq!(rep.lp.objective, scratch.objective);
        prop_assert!(fractional_feasible(
            &solver.instance().unwrap(),
            &rep.lp.slots,
            &rep.lp.y
        ));
    }
}
