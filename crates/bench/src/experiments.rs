//! The experiment suite: one function per paper artifact, `e1`–`e25`, each
//! documented with the figure or claim it regenerates (the `experiments`
//! binary runs them in order). Each returns an [`ExperimentReport`] whose
//! table is the regenerated figure/claim.

#![allow(clippy::type_complexity)] // ad-hoc closures over small stat tuples

use crate::table::{ratio, Table};
use abt_active::{
    exact_active_time, fractional_feasible, is_minimal, lp_rounding, minimal_feasible, right_shift,
    schedule_on, solve_active_lp, ClosingOrder,
};
use abt_busy::placement_from_starts;
use abt_busy::{
    alicherry_bhatia_run, exact_busy_time, first_fit, greedy_tracking, kumar_rudra_run,
    preemptive_bounded, preemptive_lower_bound, preemptive_unbounded, solve_flexible,
    solve_with_placement, span_place, FirstFitOrder, IntervalAlgo,
};
use abt_core::active_schedule::horizon_slots;
use abt_core::parallel_map;
use abt_core::{busy_lower_bounds, within_factor, DemandProfile, Instance};
use abt_lp::Rat;
use abt_workloads::{
    busy_g_sweep, busy_laminar_nested, busy_release_stream, fig10_flexible_factor4, fig1_example,
    fig3_minimal_tight, fig6_greedy_tracking_tight, fig8_interval_tight, fig9_dp_profile_tight,
    integrality_gap, optical_trace, random_active_feasible, random_clique, random_interval,
    random_laminar, random_proper, vm_trace, BusyLaminarConfig, BusyStreamConfig,
    OpticalTraceConfig, RandomConfig, VmTraceConfig,
};

/// One experiment's regenerated artifact.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Identifier (`e1` … `e25`).
    pub id: &'static str,
    /// Paper artifact it reproduces.
    pub title: String,
    /// The claim being checked.
    pub claim: String,
    /// The regenerated table.
    pub table: Table,
    /// Pass/fail style observations.
    pub notes: Vec<String>,
    /// Experiment-defined headline ratio, copied into the experiment's
    /// `BENCH_lp.json` row (`e21` reports its Auto-vs-Off LP1 speedup
    /// here); `None` for experiments without one.
    pub speedup: Option<f64>,
    /// Per-algorithm busy-time summaries, copied into the experiment's
    /// `BENCH_lp.json` row (`busy_algos`; the `LpRounding` entry also
    /// becomes the row's headline `busy_cost`/`busy_ratio`). Empty for
    /// experiments without a gated busy sweep (everything but E24/E25).
    pub busy: Vec<BusyAlgoSummary>,
}

/// One algorithm's aggregate over a busy experiment's instance families:
/// total cost and the worst observed cost/lower-bound ratio. Costs are
/// exact integers and the instance streams are seeded, so both values
/// are bit-deterministic and `perf_gate` can compare them across runs.
#[derive(Debug, Clone)]
pub struct BusyAlgoSummary {
    /// `IntervalAlgo::name()` of the algorithm.
    pub algo: String,
    /// Total busy time summed over every instance of the experiment.
    pub cost: u64,
    /// Max over instances of `cost / busy_lower_bounds(inst).best()`.
    pub ratio: f64,
}

impl ExperimentReport {
    /// Renders the report as Markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = format!(
            "### {} — {}\n\n*Claim:* {}\n\n",
            self.id.to_uppercase(),
            self.title,
            self.claim
        );
        s.push_str(&self.table.to_markdown());
        if !self.notes.is_empty() {
            s.push('\n');
            for n in &self.notes {
                s.push_str(&format!("- {n}\n"));
            }
        }
        s
    }
}

/// E1 — Fig. 1: the seven-job example, `g = 3`.
pub fn e1() -> ExperimentReport {
    let inst = fig1_example();
    let exact = exact_busy_time(&inst, None).unwrap();
    let lb = busy_lower_bounds(&inst);
    let mut table = Table::new(["algorithm", "busy time", "machines", "vs OPT"]);
    table.row([
        "exact (B&B)".to_string(),
        exact.cost.to_string(),
        exact.schedule.machine_count().to_string(),
        "1.0000".to_string(),
    ]);
    let mut notes = vec![format!(
        "lower bounds: mass={} span={} profile={}; OPT={}",
        lb.mass, lb.span, lb.profile, exact.cost
    )];
    for algo in IntervalAlgo::all() {
        let s = algo.run(&inst).unwrap();
        s.validate(&inst).unwrap();
        let c = s.total_busy_time(&inst);
        table.row([
            algo.name().to_string(),
            c.to_string(),
            s.machine_count().to_string(),
            ratio(c, exact.cost),
        ]);
    }
    notes.push(format!(
        "optimal packing uses {} machines as in the figure",
        exact.schedule.machine_count()
    ));
    ExperimentReport {
        id: "e1",
        busy: Vec::new(),
        speedup: None,
        title: "Fig. 1 — optimal packing of seven interval jobs (g = 3)".into(),
        claim: "the instance packs onto two machines; every algorithm stays within its factor"
            .into(),
        table,
        notes,
    }
}

/// E2 — Fig. 3 + Theorem 1: minimal feasible solutions approach `3·OPT`.
pub fn e2() -> ExperimentReport {
    let gs = vec![3usize, 4, 6, 8, 12, 16, 24, 32];
    let rows = parallel_map(gs, |g| {
        let f = fig3_minimal_tight(g);
        let paper_ok = schedule_on(&f.instance, &f.adversarial_slots).is_some();
        // Our own minimal-feasible runs (best and worst over orders), each
        // minimal by construction; verify the worst one explicitly.
        let mut worst: Option<Vec<i64>> = None;
        let mut best = i64::MAX;
        for order in [
            ClosingOrder::LeftToRight,
            ClosingOrder::RightToLeft,
            ClosingOrder::OutsideIn,
            ClosingOrder::CenterOut,
            ClosingOrder::Shuffled(g as u64),
        ] {
            let res = minimal_feasible(&f.instance, order).unwrap();
            best = best.min(res.slots.len() as i64);
            if worst.as_ref().is_none_or(|w| res.slots.len() > w.len()) {
                worst = Some(res.slots);
            }
        }
        let worst = worst.unwrap();
        let worst_minimal = is_minimal(&f.instance, &worst);
        let opt_feasible = schedule_on(
            &f.instance,
            &((g as i64 + 1)..=(2 * g as i64)).collect::<Vec<_>>(),
        )
        .is_some();
        (
            g,
            f.opt,
            paper_ok,
            best,
            worst.len() as i64,
            worst_minimal,
            opt_feasible,
        )
    });
    let mut table = Table::new([
        "g",
        "OPT",
        "worst minimal",
        "ratio",
        "paper bound (3g-2)/g",
        "best minimal",
    ]);
    let mut notes = Vec::new();
    let mut all_ok = true;
    let mut hits_bound = true;
    for (g, opt, paper_ok, best, worst, worst_min, opt_ok) in rows {
        all_ok &= paper_ok && worst_min && opt_ok;
        hits_bound &= worst == 3 * g as i64 - 2;
        table.row([
            g.to_string(),
            opt.to_string(),
            worst.to_string(),
            ratio(worst, opt),
            format!("{:.4}", (3 * g as i64 - 2) as f64 / g as f64),
            best.to_string(),
        ]);
    }
    notes.push(format!(
        "worst-order minimal solution verified minimal; paper's 3g−2 packing verified feasible; OPT-sized set verified feasible: {}",
        if all_ok { "yes" } else { "NO (unexpected)" }
    ));
    notes.push(format!(
        "the worst closing order attains exactly 3g−2 on every g: {}",
        if hits_bound { "yes" } else { "no" }
    ));
    notes.push("ratio approaches 3 as g grows, matching Theorem 1's tightness".into());
    ExperimentReport {
        id: "e2",
        busy: Vec::new(),
        speedup: None,
        title: "Fig. 3 — tightness of the minimal-feasible 3-approximation".into(),
        claim: "a minimal feasible solution of cost 3g−2 exists while OPT = g".into(),
        table,
        notes,
    }
}

/// E3 — Fig. 4 / Lemma 3: right-shifting preserves cost and feasibility.
pub fn e3() -> ExperimentReport {
    let mut table = Table::new([
        "instance",
        "LP cost",
        "shifted cost",
        "fractionally feasible",
    ]);
    let mut notes = Vec::new();
    let mut cases: Vec<(String, Instance)> = vec![
        (
            "staggered-3".into(),
            Instance::from_triples([(0, 4, 2), (1, 3, 2), (2, 6, 1)], 2).unwrap(),
        ),
        (
            "mixed-4".into(),
            Instance::from_triples([(0, 3, 1), (0, 3, 1), (1, 5, 3), (2, 4, 1)], 2).unwrap(),
        ),
    ];
    for seed in 0..6u64 {
        let cfg = RandomConfig {
            n: 8,
            g: 2,
            horizon: 14,
            max_len: 4,
            slack_factor: 1.0,
        };
        cases.push((format!("random-{seed}"), random_active_feasible(&cfg, seed)));
    }
    // The per-instance LP1 solves are independent: fan them out.
    let results = parallel_map(cases, |(name, inst)| {
        let lp = solve_active_lp(&inst).ok()?;
        let rs = right_shift(&inst, &lp);
        let shifted_cost = rs
            .segments
            .iter()
            .fold(Rat::ZERO, |acc, s| acc.add(&s.y_sum));
        let slots = horizon_slots(&inst).ok()?;
        let feasible = fractional_feasible(&inst, &slots, &rs.shifted_y(&slots));
        Some((name, lp.objective, shifted_cost, feasible))
    });
    let mut all_ok = true;
    for (name, objective, shifted_cost, feasible) in results.into_iter().flatten() {
        all_ok &= feasible && shifted_cost == objective;
        table.row([
            name,
            objective.to_string(),
            shifted_cost.to_string(),
            feasible.to_string(),
        ]);
    }
    notes.push(format!(
        "cost preserved and feasibility maintained on every instance: {}",
        if all_ok { "yes" } else { "NO" }
    ));
    ExperimentReport {
        id: "e3",
        busy: Vec::new(),
        speedup: None,
        title: "Fig. 4 / Lemma 3 — right-shifting the optimal LP solution".into(),
        claim: "pushing y-mass to segment ends keeps the LP feasible at unchanged cost".into(),
        table,
        notes,
    }
}

/// E4 — §3.5: the LP integrality gap `2g/(g+1) → 2`.
pub fn e4() -> ExperimentReport {
    let gs = vec![2usize, 3, 4, 5, 8, 12, 16];
    let rows = parallel_map(gs, |g| {
        let ig = integrality_gap(g);
        let lp = solve_active_lp(&ig.instance).unwrap();
        let ip = if g <= 4 {
            exact_active_time(&ig.instance, Some(50_000_000))
                .map(|r| r.slots.len() as i64)
                .ok()
        } else {
            None
        };
        (g, lp.objective, ig.lp_opt, ig.ip_opt, ip)
    });
    let mut table = Table::new([
        "g",
        "LP (measured)",
        "LP (paper g+1)",
        "IP (paper 2g)",
        "IP (exact)",
        "gap",
    ]);
    let mut notes = Vec::new();
    let mut lp_ok = true;
    for (g, lp_measured, lp_paper, ip_paper, ip_exact) in rows {
        lp_ok &= lp_measured == Rat::from_int(lp_paper);
        if let Some(ip) = ip_exact {
            lp_ok &= ip == ip_paper;
        }
        table.row([
            g.to_string(),
            lp_measured.to_string(),
            lp_paper.to_string(),
            ip_paper.to_string(),
            ip_exact.map_or("-".into(), |v| v.to_string()),
            format!("{:.4}", ip_paper as f64 / lp_paper as f64),
        ]);
    }
    notes.push(format!(
        "measured LP optimum equals g+1 on every g (and exact IP equals 2g where checked): {}",
        if lp_ok { "yes" } else { "NO" }
    ));
    notes.push("gap = 2g/(g+1) → 2, so 2 is the best factor achievable from LP1".into());
    ExperimentReport {
        id: "e4",
        busy: Vec::new(),
        speedup: None,
        title: "§3.5 — integrality gap of the active-time LP".into(),
        claim: "IP/LP = 2g/(g+1) on the gap family".into(),
        table,
        notes,
    }
}

/// E5 — Theorem 2: LP rounding stays within 2·LP (and the ledger's
/// machinery — dependents/trios/fillers — is exercised).
pub fn e5() -> ExperimentReport {
    let mut grid = Vec::new();
    for seed in 0..12u64 {
        for (n, g, horizon, slack) in [
            (8, 2, 16, 1.0),
            (10, 3, 20, 0.5),
            (12, 2, 24, 2.0),
            (14, 4, 20, 1.5),
        ] {
            grid.push((seed, n, g, horizon, slack));
        }
    }
    let results = parallel_map(grid, |(seed, n, g, horizon, slack)| {
        let cfg = RandomConfig {
            n,
            g,
            horizon,
            max_len: 5,
            slack_factor: slack,
        };
        let inst = random_active_feasible(&cfg, seed);
        let out = lp_rounding(&inst).ok()?;
        out.schedule.validate(&inst).unwrap();
        let exact = if inst.max_deadline() <= 18 {
            exact_active_time(&inst, Some(20_000_000))
                .ok()
                .map(|r| r.slots.len() as i64)
        } else {
            None
        };
        Some((out, exact))
    });
    let mut table = Table::new([
        "family",
        "instances",
        "max cost/LP",
        "max cost/OPT",
        "anomalies",
        "repairs",
    ]);
    let mut worst_lp = Rat::ZERO;
    let mut worst_opt = Rat::ZERO;
    let mut count = 0usize;
    let mut anomalies = 0usize;
    let mut repairs = 0usize;
    let mut charge_totals = [0usize; 5];
    for r in results.into_iter().flatten() {
        let (out, exact) = r;
        count += 1;
        anomalies += out.anomalies;
        repairs += out.repair_slots;
        let cost_over_lp = Rat::from_int(out.cost).div(&out.lp_objective);
        if cost_over_lp > worst_lp {
            worst_lp = cost_over_lp;
        }
        if let Some(opt) = exact {
            let f = Rat::new(out.cost.into(), opt.into());
            if f > worst_opt {
                worst_opt = f;
            }
        }
        for (i, (_, c)) in out.charges.iter().take(5).enumerate() {
            charge_totals[i] += c;
        }
    }
    table.row([
        "random feasible".to_string(),
        count.to_string(),
        format!("{:.4}", worst_lp.to_f64()),
        format!("{:.4}", worst_opt.to_f64()),
        anomalies.to_string(),
        repairs.to_string(),
    ]);
    let notes =
        vec![
            format!(
            "charge tally — fully open: {}, self(half): {}, dependents: {}, trios: {}, fillers: {}",
            charge_totals[0], charge_totals[1], charge_totals[2], charge_totals[3], charge_totals[4]
        ),
            "max cost/LP ≤ 2 with zero anomalies and zero repairs, as Theorem 2 requires".into(),
        ];
    ExperimentReport {
        id: "e5",
        busy: Vec::new(),
        speedup: None,
        title: "Theorem 2 — LP rounding 2-approximation".into(),
        claim: "rounded cost ≤ 2·LP ≤ 2·OPT on every instance".into(),
        table,
        notes,
    }
}

/// E6 — Figs. 6–7: GreedyTracking's factor 3 is tight.
pub fn e6() -> ExperimentReport {
    let gs = vec![2usize, 3, 4, 6, 8, 16, 32];
    let rows = parallel_map(gs, |g| {
        let f = fig6_greedy_tracking_tight(g, 10);
        let adv_ratio = Rat::new(f.adversarial_cost.into(), f.opt_upper.into());
        // Our deterministic GreedyTracking on the adversarial placement.
        let placement = placement_from_starts(&f.instance, f.adversarial_starts.clone()).unwrap();
        let gt = solve_with_placement(&f.instance, &placement, IntervalAlgo::GreedyTracking)
            .unwrap()
            .schedule
            .total_busy_time(&f.instance);
        (g, f.adversarial_cost, f.opt_upper, adv_ratio, gt)
    });
    let mut table = Table::new([
        "g",
        "Fig.7 bundling",
        "OPT upper",
        "ratio",
        "paper limit",
        "our GT (same placement)",
    ]);
    for (g, adv, opt, r, gt) in rows {
        table.row([
            g.to_string(),
            adv.to_string(),
            opt.to_string(),
            format!("{:.4}", r.to_f64()),
            "3.0000".to_string(),
            gt.to_string(),
        ]);
    }
    let notes = vec![
        "the Fig. 7 bundling is a valid union-of-g-tracks schedule; its ratio approaches 3 as g grows and ε→0".into(),
        "our deterministic tie-breaking extracts aligned tracks and lands well below the worst case — the gap is a tie-breaking artifact the paper's analysis allows".into(),
    ];
    ExperimentReport {
        id: "e6",
        busy: Vec::new(),
        speedup: None,
        title: "Figs. 6–7 — tightness of GreedyTracking's factor 3".into(),
        claim: "a valid GreedyTracking output costs 3g(2−ε) against OPT ≤ 2g + 2 − ε".into(),
        table,
        notes,
    }
}

/// E7 — Fig. 8 + Theorem 3/8: KR and AB are 2-approximate on interval
/// jobs, and the factor is approachable.
pub fn e7() -> ExperimentReport {
    let eps_list = vec![(400i64, 100i64), (100, 30), (20, 5), (4, 1)];
    let rows = parallel_map(eps_list, |(eps, eps1)| {
        let f = fig8_interval_tight(eps, eps1);
        let exact = exact_busy_time(&f.instance, None).unwrap();
        let kr = kumar_rudra_run(&f.instance).unwrap();
        let ab = alicherry_bhatia_run(&f.instance).unwrap();
        let krc = kr.schedule.total_busy_time(&f.instance);
        let abc = ab.schedule.total_busy_time(&f.instance);
        (eps, eps1, f.opt, exact.cost, f.bad_output, krc, abc)
    });
    let mut table = Table::new([
        "ε (ticks)",
        "ε′",
        "OPT (paper)",
        "OPT (exact)",
        "paper bad output",
        "bad/OPT",
        "KR",
        "AB",
    ]);
    let mut opt_ok = true;
    for (eps, eps1, opt_paper, opt_exact, bad, krc, abc) in rows {
        opt_ok &= opt_paper == opt_exact;
        table.row([
            eps.to_string(),
            eps1.to_string(),
            opt_paper.to_string(),
            opt_exact.to_string(),
            bad.to_string(),
            ratio(bad, opt_exact),
            krc.to_string(),
            abc.to_string(),
        ]);
    }
    let notes = vec![
        format!("exact OPT equals the paper's 1+ε on every ε: {}", if opt_ok { "yes" } else { "NO" }),
        "the paper's possible output approaches ratio 2 as ε→0; both implementations stay ≤ 2×profile by construction".into(),
    ];
    ExperimentReport {
        id: "e7",
        busy: Vec::new(),
        speedup: None,
        title: "Fig. 8 — tightness of the interval 2-approximations".into(),
        claim: "KR/AB never exceed 2×profile; an output of cost 2+ε+ε′ vs OPT 1+ε is possible"
            .into(),
        table,
        notes,
    }
}

/// E8 — Fig. 9 / Lemma 7: the span-optimal placement's demand profile is
/// within (and can approach) 2× the optimal structure's profile.
pub fn e8() -> ExperimentReport {
    let gs = vec![2usize, 3, 4, 6, 8, 12];
    let rows = parallel_map(gs, |g| {
        let f = fig9_dp_profile_tight(g, 4);
        let adv = f.instance.fix_starts(&f.adversarial_starts).unwrap();
        let fri = f.instance.fix_starts(&f.friendly_starts).unwrap();
        let profile = |inst: &Instance| {
            DemandProfile::new(&inst.jobs().iter().map(|j| j.window()).collect::<Vec<_>>()).cost(g)
        };
        let adv_span = adv.interval_span().unwrap();
        let fri_span = fri.interval_span().unwrap();
        // Our span solver should find the adversarial (smaller) span.
        let our = span_place(&f.instance);
        (
            g,
            adv_span,
            fri_span,
            profile(&adv),
            profile(&fri),
            our.cost,
        )
    });
    let mut table = Table::new([
        "g",
        "span (DP/adversarial)",
        "span (friendly)",
        "profile (DP)",
        "profile (friendly)",
        "profile ratio",
        "our solver span",
    ]);
    let mut solver_ok = true;
    for (g, advs, fris, advp, frip, ours) in rows {
        // The exact solver applies up to 127 jobs (g ≤ 8 here); beyond
        // that the greedy fallback may land on the friendly placement.
        if g <= 8 {
            solver_ok &= ours <= advs;
        }
        table.row([
            g.to_string(),
            advs.to_string(),
            fris.to_string(),
            advp.to_string(),
            frip.to_string(),
            ratio(advp, frip),
            ours.to_string(),
        ]);
    }
    let notes = vec![
        format!(
            "our exact placement solver attains the span-optimal (adversarial) cost wherever it applies (n ≤ 127, i.e. g ≤ 8): {}",
            if solver_ok { "yes" } else { "NO" }
        ),
        "profile(DP)/profile(friendly) climbs towards 2 with g, reproducing Lemma 7's tight family".into(),
    ];
    ExperimentReport {
        id: "e8",
        busy: Vec::new(),
        speedup: None,
        title: "Fig. 9 / Lemma 7 — demand profile of the span-optimal placement".into(),
        claim: "span minimization can double the demand profile, but never worse".into(),
        table,
        notes,
    }
}

/// E9 — Figs. 10–12 / Theorem 10: the KR/AB flexible pipeline approaches 4.
pub fn e9() -> ExperimentReport {
    let gs = vec![3usize, 4, 6, 8, 12, 16];
    let rows = parallel_map(gs, |g| {
        let f = fig10_flexible_factor4(g, 60, 20);
        f.bad_schedule.validate(&f.instance).unwrap();
        let placement = placement_from_starts(&f.instance, f.adversarial_starts.clone()).unwrap();
        let mut costs = Vec::new();
        for algo in [IntervalAlgo::KumarRudra, IntervalAlgo::AlicherryBhatia] {
            let out = solve_with_placement(&f.instance, &placement, algo).unwrap();
            costs.push(out.schedule.total_busy_time(&f.instance));
        }
        (g, f.opt_upper, f.bad_cost, costs)
    });
    let mut table = Table::new([
        "g",
        "OPT upper",
        "Fig.12 bundling",
        "Fig.12/OPT",
        "paper limit",
        "our KR",
        "our AB",
    ]);
    for (g, opt, bad, costs) in rows {
        table.row([
            g.to_string(),
            opt.to_string(),
            bad.to_string(),
            ratio(bad, opt),
            "4.0000".to_string(),
            costs[0].to_string(),
            costs[1].to_string(),
        ]);
    }
    let notes = vec![
        "the Fig. 12 bundling is a valid schedule a KR/AB run may output (two demand bands × two machines per gadget, each kept busy a full unit); its ratio climbs to 4 with g".into(),
        "our deterministic level assignment packs the unit layer into one band, so the implemented KR/AB land near 2× instead — the same tie-breaking slack as E6".into(),
    ];
    ExperimentReport {
        id: "e9",
        busy: Vec::new(),
        speedup: None,
        title: "Figs. 10–12 / Theorem 10 — flexible pipeline factor 4".into(),
        claim: "KR/AB after span placement can approach 4×OPT; never exceed it".into(),
        table,
        notes,
    }
}

/// E10 — head-to-head on active time: minimal-feasible orders vs LP
/// rounding vs exact.
pub fn e10() -> ExperimentReport {
    let mut grid = Vec::new();
    for seed in 0..10u64 {
        for (g, slack) in [(2usize, 0.5f64), (3, 1.0), (4, 2.0)] {
            grid.push((seed, g, slack));
        }
    }
    let rows = parallel_map(grid, |(seed, g, slack)| {
        let cfg = RandomConfig {
            n: 10,
            g,
            horizon: 16,
            max_len: 4,
            slack_factor: slack,
        };
        let inst = random_active_feasible(&cfg, seed);
        let exact = exact_active_time(&inst, Some(20_000_000)).ok()?.slots.len() as i64;
        let round = lp_rounding(&inst).ok()?.cost;
        let mut minimal_best = i64::MAX;
        let mut minimal_worst = 0i64;
        for order in [
            ClosingOrder::LeftToRight,
            ClosingOrder::RightToLeft,
            ClosingOrder::OutsideIn,
            ClosingOrder::CenterOut,
            ClosingOrder::Shuffled(seed),
        ] {
            let c = minimal_feasible(&inst, order).ok()?.slots.len() as i64;
            minimal_best = minimal_best.min(c);
            minimal_worst = minimal_worst.max(c);
        }
        Some((exact, round, minimal_best, minimal_worst))
    });
    let mut table = Table::new([
        "metric",
        "LP rounding",
        "minimal (best order)",
        "minimal (worst order)",
    ]);
    let data: Vec<_> = rows.into_iter().flatten().collect();
    let mean = |f: &dyn Fn(&(i64, i64, i64, i64)) -> f64| -> f64 {
        data.iter().map(f).sum::<f64>() / data.len() as f64
    };
    table.row([
        "mean cost / OPT".to_string(),
        format!("{:.4}", mean(&|r| r.1 as f64 / r.0 as f64)),
        format!("{:.4}", mean(&|r| r.2 as f64 / r.0 as f64)),
        format!("{:.4}", mean(&|r| r.3 as f64 / r.0 as f64)),
    ]);
    let max = |f: &dyn Fn(&(i64, i64, i64, i64)) -> f64| -> f64 {
        data.iter().map(f).fold(0.0, f64::max)
    };
    table.row([
        "max cost / OPT".to_string(),
        format!("{:.4}", max(&|r| r.1 as f64 / r.0 as f64)),
        format!("{:.4}", max(&|r| r.2 as f64 / r.0 as f64)),
        format!("{:.4}", max(&|r| r.3 as f64 / r.0 as f64)),
    ]);
    let wins = data.iter().filter(|r| r.1 < r.2).count();
    let notes = vec![
        format!("{} instances solved to optimality for reference", data.len()),
        format!("LP rounding strictly beats the best minimal order on {wins} of {} instances", data.len()),
        "rounding stays ≤ 2·OPT, minimal stays ≤ 3·OPT, matching Theorems 1–2; in the mean both are far better".into(),
    ];
    ExperimentReport {
        id: "e10",
        busy: Vec::new(),
        speedup: None,
        title: "Active time head-to-head (random feasible families)".into(),
        claim: "LP rounding (≤2) dominates minimal-feasible (≤3) in the worst case".into(),
        table,
        notes,
    }
}

/// E11 — head-to-head on busy time: the four interval algorithms across
/// families and traces.
pub fn e11() -> ExperimentReport {
    struct Family {
        name: &'static str,
        instances: Vec<Instance>,
    }
    let mut families = Vec::new();
    families.push(Family {
        name: "uniform interval",
        instances: (0..8)
            .map(|s| {
                random_interval(
                    &RandomConfig {
                        n: 40,
                        g: 3,
                        horizon: 120,
                        max_len: 20,
                        slack_factor: 0.0,
                    },
                    s,
                )
            })
            .collect(),
    });
    families.push(Family {
        name: "proper",
        instances: (0..8)
            .map(|s| {
                random_proper(
                    &RandomConfig {
                        n: 30,
                        g: 3,
                        horizon: 90,
                        max_len: 12,
                        slack_factor: 0.0,
                    },
                    s,
                )
            })
            .collect(),
    });
    families.push(Family {
        name: "clique",
        instances: (0..8)
            .map(|s| {
                random_clique(
                    &RandomConfig {
                        n: 30,
                        g: 3,
                        horizon: 80,
                        max_len: 0,
                        slack_factor: 0.0,
                    },
                    s,
                )
            })
            .collect(),
    });
    families.push(Family {
        name: "laminar",
        instances: (0..8)
            .map(|s| {
                random_laminar(
                    &RandomConfig {
                        n: 24,
                        g: 3,
                        horizon: 96,
                        max_len: 0,
                        slack_factor: 0.0,
                    },
                    s,
                )
            })
            .collect(),
    });
    families.push(Family {
        name: "optical trace",
        instances: (0..8)
            .map(|s| optical_trace(&OpticalTraceConfig::default(), s))
            .collect(),
    });
    families.push(Family {
        name: "VM trace (flexible)",
        instances: (0..6)
            .map(|s| {
                vm_trace(
                    &VmTraceConfig {
                        n: 40,
                        ..Default::default()
                    },
                    s,
                )
            })
            .collect(),
    });

    let mut table = Table::new(["family", "algorithm", "mean cost/LB", "max cost/LB", "wins"]);
    let mut notes: Vec<String> = Vec::new();
    for fam in families {
        let algos = IntervalAlgo::all();
        // cost matrix: per instance per algo.
        let costs: Vec<Vec<i64>> = parallel_map(fam.instances.clone(), |inst| {
            algos
                .iter()
                .map(|algo| {
                    let out = solve_flexible(&inst, *algo).unwrap();
                    out.schedule.validate(&inst).unwrap();
                    out.schedule.total_busy_time(&inst)
                })
                .collect()
        });
        let lbs: Vec<i64> = fam
            .instances
            .iter()
            .map(|inst| {
                if inst.is_interval_instance() {
                    busy_lower_bounds(inst).best()
                } else {
                    let p = span_place(inst);
                    busy_lower_bounds(inst).mass.max(p.cost)
                }
            })
            .collect();
        for (ai, algo) in algos.iter().enumerate() {
            let ratios: Vec<f64> = costs
                .iter()
                .zip(&lbs)
                .map(|(c, &lb)| c[ai] as f64 / lb.max(1) as f64)
                .collect();
            let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
            let max = ratios.iter().fold(0.0f64, |a, &b| a.max(b));
            let wins = costs
                .iter()
                .filter(|c| c[ai] == *c.iter().min().unwrap())
                .count();
            table.row([
                fam.name.to_string(),
                algo.name().to_string(),
                format!("{mean:.4}"),
                format!("{max:.4}"),
                wins.to_string(),
            ]);
        }
    }
    notes.push(
        "LB = max(mass, span/OPT∞, profile); ratios stay within each algorithm's factor".into(),
    );
    notes.push("KR/AB (factor 2) usually win on interval families; GreedyTracking is competitive and wins on track-friendly (laminar/optical) inputs".into());
    ExperimentReport {
        id: "e11",
        busy: Vec::new(),
        speedup: None,
        title: "Busy time head-to-head across families and traces".into(),
        claim: "who wins where: factor-2 algorithms vs GreedyTracking vs FirstFit".into(),
        table,
        notes,
    }
}

/// E12 — §4.4: preemptive busy time (exact unbounded, 2-approx bounded).
pub fn e12() -> ExperimentReport {
    let mut grid = Vec::new();
    for seed in 0..12u64 {
        for g in [2usize, 4, 8] {
            grid.push((seed, g));
        }
    }
    let rows = parallel_map(grid, |(seed, g)| {
        let cfg = RandomConfig {
            n: 25,
            g,
            horizon: 80,
            max_len: 10,
            slack_factor: 1.0,
        };
        let inst = abt_workloads::random_flexible(&cfg, seed);
        let unbounded = preemptive_unbounded(&inst);
        let bounded = preemptive_bounded(&inst);
        bounded.validate(&inst).unwrap();
        let lb = preemptive_lower_bound(&inst);
        (g, unbounded.cost, bounded.total_busy_time(), lb)
    });
    let mut table = Table::new(["g", "OPT∞ (exact)", "bounded cost", "LB", "cost/LB"]);
    let mut worst = 0.0f64;
    for (g, unb, bnd, lb) in rows {
        let r = bnd as f64 / lb as f64;
        worst = worst.max(r);
        table.row([
            g.to_string(),
            unb.to_string(),
            bnd.to_string(),
            lb.to_string(),
            format!("{r:.4}"),
        ]);
    }
    let notes = vec![
        format!("worst bounded/LB ratio observed: {worst:.4} (Theorem 7 guarantees ≤ 2)"),
        "the unbounded greedy is exact (Theorem 6); cross-validated against the rightmost-covering oracle in unit tests".into(),
    ];
    ExperimentReport {
        id: "e12",
        busy: Vec::new(),
        speedup: None,
        title: "§4.4 — preemptive busy time".into(),
        claim: "exact greedy for unbounded g; 2-approximation for bounded g".into(),
        table,
        notes,
    }
}

/// E13 — footnote 1 special cases: proper and clique instances.
pub fn e13() -> ExperimentReport {
    let mut table = Table::new([
        "family",
        "FirstFit(len)",
        "FirstFit(release)",
        "GreedyTracking",
        "KR",
        "LB",
    ]);
    let mut notes = Vec::new();
    let mut worst_release_proper = 0f64;
    for (name, instances) in [
        (
            "proper",
            (0..10)
                .map(|s| {
                    random_proper(
                        &RandomConfig {
                            n: 24,
                            g: 3,
                            horizon: 80,
                            max_len: 10,
                            slack_factor: 0.0,
                        },
                        s,
                    )
                })
                .collect::<Vec<_>>(),
        ),
        (
            "clique",
            (0..10)
                .map(|s| {
                    random_clique(
                        &RandomConfig {
                            n: 24,
                            g: 3,
                            horizon: 60,
                            max_len: 0,
                            slack_factor: 0.0,
                        },
                        s,
                    )
                })
                .collect::<Vec<_>>(),
        ),
    ] {
        for inst in &instances {
            let lb = busy_lower_bounds(inst).best();
            let ff_len = first_fit(inst, FirstFitOrder::LengthDesc)
                .unwrap()
                .total_busy_time(inst);
            let ff_rel = first_fit(inst, FirstFitOrder::ByRelease)
                .unwrap()
                .total_busy_time(inst);
            let gt = greedy_tracking(inst).unwrap().total_busy_time(inst);
            let kr = kumar_rudra_run(inst)
                .unwrap()
                .schedule
                .total_busy_time(inst);
            if name == "proper" {
                worst_release_proper = worst_release_proper.max(ff_rel as f64 / lb as f64);
                assert!(
                    within_factor(ff_rel, 2, lb),
                    "release order must be ≤2 on proper"
                );
            }
            table.row([
                name.to_string(),
                ff_len.to_string(),
                ff_rel.to_string(),
                gt.to_string(),
                kr.to_string(),
                lb.to_string(),
            ]);
        }
    }
    notes.push(format!(
        "order-by-release FirstFit stays within 2×LB on every proper instance (worst {worst_release_proper:.4}), matching footnote 1"
    ));
    ExperimentReport {
        id: "e13",
        busy: Vec::new(),
        speedup: None,
        title: "Footnote 1 — special instance classes".into(),
        claim: "FirstFit by release is 2-approximate on proper instances; cliques behave like the greedy special case".into(),
        table,
        notes,
    }
}

/// E14 — ablation: how much the closing order of the minimal-feasible
/// algorithm matters, per instance family (the knob Theorem 1 makes
/// irrelevant in the worst case but not in practice).
pub fn e14() -> ExperimentReport {
    let orders = [
        ("LeftToRight", ClosingOrder::LeftToRight),
        ("RightToLeft", ClosingOrder::RightToLeft),
        ("OutsideIn", ClosingOrder::OutsideIn),
        ("CenterOut", ClosingOrder::CenterOut),
        ("Shuffled", ClosingOrder::Shuffled(12345)),
    ];
    struct Fam {
        name: &'static str,
        instances: Vec<Instance>,
    }
    let fams = vec![
        Fam {
            name: "loose windows",
            instances: (0..10)
                .map(|s| {
                    random_active_feasible(
                        &RandomConfig {
                            n: 12,
                            g: 3,
                            horizon: 24,
                            max_len: 4,
                            slack_factor: 2.0,
                        },
                        s,
                    )
                })
                .collect(),
        },
        Fam {
            name: "tight windows",
            instances: (0..10)
                .map(|s| {
                    random_active_feasible(
                        &RandomConfig {
                            n: 12,
                            g: 3,
                            horizon: 24,
                            max_len: 4,
                            slack_factor: 0.3,
                        },
                        s,
                    )
                })
                .collect(),
        },
        Fam {
            name: "fig3 gadget (g=6)",
            instances: vec![fig3_minimal_tight(6).instance],
        },
    ];
    let mut table = Table::new(["family", "order", "mean cost", "max cost"]);
    let mut notes = Vec::new();
    for fam in fams {
        let mut best_mean = f64::INFINITY;
        let mut best_name = "";
        for (name, order) in orders {
            let costs: Vec<i64> = fam
                .instances
                .iter()
                .filter_map(|inst| minimal_feasible(inst, order).ok())
                .map(|r| r.slots.len() as i64)
                .collect();
            let mean = costs.iter().sum::<i64>() as f64 / costs.len() as f64;
            if mean < best_mean {
                best_mean = mean;
                best_name = name;
            }
            table.row([
                fam.name.to_string(),
                name.to_string(),
                format!("{mean:.2}"),
                costs.iter().max().unwrap().to_string(),
            ]);
        }
        notes.push(format!("{}: best order is {best_name}", fam.name));
    }
    notes.push(
        "every order is guaranteed ≤ 3·OPT (Theorem 1); the spread below 3 is pure heuristics"
            .into(),
    );
    ExperimentReport {
        id: "e14",
        busy: Vec::new(),
        speedup: None,
        title: "Ablation — closing orders for minimal-feasible".into(),
        claim: "Theorem 1 holds for any order; the constant in practice depends on it".into(),
        table,
        notes,
    }
}

/// E15 — ablation: GreedyTracking's tie-breaking on the Fig. 6 gadget.
/// The 3-approximation is tie-break independent; the realized constant is
/// not — randomized tie-breaks interpolate between the aligned (good) and
/// the paper's mixed (bad) track extraction.
pub fn e15() -> ExperimentReport {
    let gs = vec![2usize, 3, 4];
    let rows = parallel_map(gs, |g| {
        let f = fig6_greedy_tracking_tight(g, 10);
        let fixed = f.instance.fix_starts(&f.adversarial_starts).unwrap();
        let mut costs: Vec<i64> = Vec::new();
        for seed in 0..16u64 {
            let run = abt_busy::greedy_tracking_seeded(&fixed, seed).unwrap();
            run.schedule.validate(&fixed).unwrap();
            costs.push(run.schedule.total_busy_time(&fixed));
        }
        costs.sort_unstable();
        (g, f.opt_upper, costs)
    });
    let mut table = Table::new([
        "g",
        "OPT upper",
        "min over seeds",
        "median",
        "max",
        "max/OPT",
    ]);
    for (g, opt, costs) in rows {
        let median = costs[costs.len() / 2];
        table.row([
            g.to_string(),
            opt.to_string(),
            costs[0].to_string(),
            median.to_string(),
            costs.last().unwrap().to_string(),
            ratio(*costs.last().unwrap(), opt),
        ]);
    }
    ExperimentReport {
        id: "e15",
        busy: Vec::new(),
        speedup: None,
        title: "Ablation — GreedyTracking tie-breaking on the Fig. 6 gadget".into(),
        claim: "all tie-breaks stay ≤ 3×; the spread shows how the gadget exploits them".into(),
        table,
        notes: vec![
            "16 seeded tie-break permutations per g; every output validated and within the factor-3 guarantee".into(),
        ],
    }
}

/// E16 — the online setting (§1.3 related work): release-ordered
/// irrevocable assignment vs the offline algorithms.
pub fn e16() -> ExperimentReport {
    let mut table = Table::new([
        "family",
        "online FF",
        "offline FF(len)",
        "offline GT",
        "LB",
        "online/LB",
    ]);
    let mut worst = 0f64;
    for seed in 0..8u64 {
        let inst = random_interval(
            &RandomConfig {
                n: 30,
                g: 3,
                horizon: 90,
                max_len: 15,
                slack_factor: 0.0,
            },
            seed,
        );
        let online = abt_busy::online_first_fit(&inst).unwrap();
        online.validate(&inst).unwrap();
        let on = online.total_busy_time(&inst);
        let ff = first_fit(&inst, FirstFitOrder::LengthDesc)
            .unwrap()
            .total_busy_time(&inst);
        let gt = greedy_tracking(&inst).unwrap().total_busy_time(&inst);
        let lb = busy_lower_bounds(&inst).best();
        worst = worst.max(on as f64 / lb as f64);
        table.row([
            format!("uniform (seed {seed})"),
            on.to_string(),
            ff.to_string(),
            gt.to_string(),
            lb.to_string(),
            ratio(on, lb),
        ]);
    }
    ExperimentReport {
        id: "e16",
        busy: Vec::new(),
        speedup: None,
        title: "Online busy time — release-ordered FirstFit".into(),
        claim: "irrevocable online assignment pays a premium over the offline algorithms but stays modest on non-adversarial inputs".into(),
        table,
        notes: vec![format!(
            "worst online/LB observed: {worst:.4}; deterministic online algorithms cannot beat g-competitive in the worst case (Shalom et al.)"
        )],
    }
}

/// E17 — the width-demand generalization (Khandekar et al., discussed in
/// §1): the narrow/wide FirstFit 5-approximation.
pub fn e17() -> ExperimentReport {
    use abt_busy::{width_first_fit, WideJob, WidthInstance};
    use rand_free::XorShift;
    let mut table = Table::new(["g", "n", "cost", "LB (mass/span)", "cost/LB"]);
    let mut worst = 0f64;
    for (g, n, seed) in [
        (4usize, 30usize, 1u64),
        (8, 60, 2),
        (8, 60, 3),
        (16, 120, 4),
    ] {
        let mut rng = XorShift::new(seed);
        let mut jobs = Vec::new();
        for _ in 0..n {
            let r = rng.next(200) as i64;
            let len = 1 + rng.next(25) as i64;
            let w = 1 + rng.next(g as u64) as usize;
            jobs.push(WideJob {
                job: abt_core::Job::interval(r, r + len),
                width: w,
            });
        }
        let inst = WidthInstance::new(jobs, g).unwrap();
        let s = width_first_fit(&inst);
        s.validate(&inst).unwrap();
        let cost = s.total_busy_time(&inst);
        let lb = inst.mass_bound().max(inst.span_bound());
        worst = worst.max(cost as f64 / lb as f64);
        table.row([
            g.to_string(),
            n.to_string(),
            cost.to_string(),
            lb.to_string(),
            ratio(cost, lb),
        ]);
    }
    ExperimentReport {
        id: "e17",
        busy: Vec::new(),
        speedup: None,
        title: "Width-demand generalization — narrow/wide FirstFit".into(),
        claim: "the Khandekar split stays within 5x of max(mass, span)".into(),
        table,
        notes: vec![format!("worst cost/LB observed: {worst:.4} (guarantee 5)")],
    }
}

/// E18 — the Mertzios et al. maximization dual: throughput within a
/// busy-time budget.
pub fn e18() -> ExperimentReport {
    use abt_busy::{budgeted_exact, budgeted_greedy};
    let mut table = Table::new([
        "budget",
        "greedy accepted",
        "exact accepted",
        "greedy/exact",
    ]);
    let mut worst = 1.0f64;
    let inst = random_interval(
        &RandomConfig {
            n: 8,
            g: 2,
            horizon: 24,
            max_len: 6,
            slack_factor: 0.0,
        },
        5,
    );
    let full_cost = solve_flexible(&inst, IntervalAlgo::GreedyTracking)
        .unwrap()
        .schedule
        .total_busy_time(&inst);
    for frac in [4i64, 2, 1] {
        let budget = full_cost / frac;
        let greedy = budgeted_greedy(&inst, budget).unwrap();
        greedy.validate(&inst, budget).unwrap();
        let exact = budgeted_exact(&inst, budget, 50_000_000).unwrap();
        if exact > 0 {
            worst = worst.min(greedy.accepted() as f64 / exact as f64);
        }
        table.row([
            budget.to_string(),
            greedy.accepted().to_string(),
            exact.to_string(),
            if exact > 0 {
                ratio(greedy.accepted() as i64, exact as i64)
            } else {
                "-".into()
            },
        ]);
    }
    ExperimentReport {
        id: "e18",
        busy: Vec::new(),
        speedup: None,
        title: "Maximization dual — throughput within a busy-time budget".into(),
        claim: "greedy admission tracks the exact optimum as the budget tightens".into(),
        table,
        notes: vec![format!("worst greedy/exact ratio: {worst:.4}")],
    }
}

/// E19 — LP1 solver scaling: the VUB-aware revised simplex vs the same
/// revised solver with explicit `x ≤ Y` rows
/// ([`LpOptions::pr2_revised_bounds`](abt_active::LpOptions::pr2_revised_bounds))
/// as `n` grows. Exact objectives must agree bit for bit. Both columns
/// run **monolithically** (`DecomposeMode::Off`) so the comparison
/// isolates the VUB encoding — the shipping default additionally shards
/// by interval-graph components, measured separately by E21.
pub fn e19() -> ExperimentReport {
    use crate::stats::time_best_ms;
    use abt_active::{lp_telemetry, solve_active_lp_with, LpOptions};

    let mut table = Table::new([
        "n",
        "g",
        "horizon",
        "vub_implicit ms",
        "PR-2 revised ms",
        "vs PR-2",
        "objective",
        "fallbacks",
    ]);
    let mut notes = Vec::new();
    let mut all_match = true;
    let mut any_fallback = false;
    for (n, g, horizon, reps) in [
        (40usize, 4usize, 100i64, 3usize),
        (200, 4, 400, 2),
        (1000, 4, 2000, 1),
    ] {
        let cfg = RandomConfig {
            n,
            g,
            horizon,
            max_len: 5,
            slack_factor: 1.0,
        };
        let inst = random_active_feasible(&cfg, 7);
        let before = lp_telemetry();
        let (vub_ms, vub) = time_best_ms(reps, || {
            solve_active_lp_with(&inst, &LpOptions::pr3_monolithic())
                .expect("feasible by construction")
        });
        let after = lp_telemetry();
        any_fallback |= after.fallbacks > before.fallbacks;
        let (pr2_ms, pr2) = time_best_ms(reps, || {
            solve_active_lp_with(&inst, &LpOptions::pr2_revised_bounds())
                .expect("feasible by construction")
        });
        all_match &= pr2.objective == vub.objective;
        table.row([
            n.to_string(),
            g.to_string(),
            horizon.to_string(),
            format!("{vub_ms:.1}"),
            format!("{pr2_ms:.1}"),
            format!("{:.2}x", pr2_ms / vub_ms),
            vub.objective.to_string(),
            (after.fallbacks - before.fallbacks).to_string(),
        ]);
    }
    notes.push(format!(
        "exact objectives bit-identical across both encodings: {}",
        if all_match { "yes" } else { "NO" }
    ));
    notes.push(format!(
        "exact fallbacks on this family: {}",
        if any_fallback {
            "YES (unexpected)"
        } else {
            "none"
        }
    ));
    ExperimentReport {
        id: "e19",
        busy: Vec::new(),
        speedup: None,
        title: "LP1 solver scaling — VUB-aware revised simplex vs x ≤ Y rows".into(),
        claim: "eliminating the O(n²) x ≤ Y rows keeps LP1 solvable at n in the thousands".into(),
        table,
        notes,
    }
}

/// E20 — VUB-heavy stress sweep: nested windows with high per-window job
/// fan-in (after Cao et al., arXiv:2207.12507) maximize the number of
/// `x_{I,j} ≤ Y_I` caps per interval. Compares the VUB-aware default
/// against the PR-2 encoding (caps as rows) and records the iteration
/// telemetry of the VUB runs. The independent LP1 solves of the grid run
/// through [`parallel_map`].
pub fn e20() -> ExperimentReport {
    use crate::stats::time_best_ms;
    use abt_active::{lp_telemetry, solve_active_lp_with, LpOptions};
    use abt_workloads::{vub_heavy, VubHeavyConfig};

    let grid: Vec<(usize, usize, usize, i64)> = vec![
        // (n, g, fan_in, horizon)
        (48, 4, 4, 96),
        (96, 4, 6, 192),
        (192, 6, 8, 384),
        (384, 8, 12, 768),
        (768, 8, 16, 1536),
    ];
    let instances: Vec<_> = grid
        .into_iter()
        .map(|(n, g, fan_in, horizon)| {
            let cfg = VubHeavyConfig {
                n,
                g,
                horizon,
                max_len: 4,
                fan_in,
            };
            (n, fan_in, vub_heavy(&cfg, 11))
        })
        .collect();
    // Two homogeneous parallel phases with one telemetry window each: the
    // counters are process-global atomics, so a per-cell delta taken
    // inside `parallel_map` would absorb the concurrent cells' work — an
    // aggregate delta around a phase that runs only one configuration is
    // exact (it is the sum of that configuration's per-solve
    // contributions).
    let before = lp_telemetry();
    let vub_runs = parallel_map(instances.clone(), |(_, _, inst)| {
        time_best_ms(2, || {
            solve_active_lp_with(&inst, &LpOptions::default()).expect("feasible by construction")
        })
    });
    let vub_telemetry = lp_telemetry().delta(&before);
    let rows_runs = parallel_map(instances.clone(), |(_, _, inst)| {
        time_best_ms(2, || {
            solve_active_lp_with(&inst, &LpOptions::pr2_revised_bounds())
                .expect("feasible by construction")
        })
    });
    let mut table = Table::new([
        "n (target)",
        "fan-in",
        "jobs",
        "vub_implicit ms",
        "x≤Y rows ms",
        "speedup",
        "objective",
    ]);
    let mut notes = Vec::new();
    let mut all_match = true;
    for (((n, fan_in, inst), (vub_ms, vub)), (rows_ms, rows_lp)) in
        instances.iter().zip(&vub_runs).zip(&rows_runs)
    {
        all_match &= vub.objective == rows_lp.objective;
        table.row([
            n.to_string(),
            fan_in.to_string(),
            inst.len().to_string(),
            format!("{vub_ms:.1}"),
            format!("{rows_ms:.1}"),
            format!("{:.2}x", rows_ms / vub_ms),
            vub.objective.to_string(),
        ]);
    }
    notes.push(format!(
        "objectives bit-identical between the VUB and row encodings on every instance: {}",
        if all_match { "yes" } else { "NO" }
    ));
    notes.push(format!(
        "exact fallbacks during the VUB runs: {}",
        if vub_telemetry.fallbacks == 0 {
            "none".to_string()
        } else {
            format!("{} (unexpected)", vub_telemetry.fallbacks)
        }
    ));
    notes.push(format!(
        "VUB-run telemetry across the sweep: {} pivots, {} bound/VUB flips, {} LU refactorizations, {:.1} ms exact certification",
        vub_telemetry.pivots,
        vub_telemetry.bound_flips,
        vub_telemetry.refactorizations,
        vub_telemetry.certify_nanos as f64 / 1e6
    ));
    notes.push(
        "nested windows put every deep interval inside all ancestor windows, so the row encoding carries one cap row per (job, interval) pair while the VUB encoding keeps the basis at one row per interval + one per job".into(),
    );
    ExperimentReport {
        id: "e20",
        busy: Vec::new(),
        speedup: None,
        title: "VUB-heavy nested-window sweep — implicit VUB families vs cap rows".into(),
        claim: "Schrage-style VUB pivoting removes the O(n²) cap rows from the working basis"
            .into(),
        table,
        notes,
    }
}

/// E21 — decomposition scaling: block-diagonal `many_components`
/// instances solved as one monolithic LP1 (`DecomposeMode::Off`) vs
/// sharded along the connected components of the job-window interval
/// graph (`DecomposeMode::Auto`, the default), which fans the
/// per-component sub-LPs through `parallel_map`. Objectives must agree bit
/// for bit — the blocks share nothing, so the stitched rational sum *is*
/// the monolithic optimum. The Auto-vs-Off speedup at the largest size is the headline
/// recorded into `BENCH_lp.json`; the pivot/refactorization counts of the
/// Auto phase are deterministic per instance and gated by CI.
pub fn e21() -> ExperimentReport {
    use crate::stats::time_best_ms;
    use abt_active::{lp_telemetry, solve_active_lp_with, vars_per_solve_snapshot, LpOptions};
    use abt_workloads::{many_components, ManyComponentsConfig};

    let grid: Vec<(usize, usize, usize)> = vec![
        // (components, jobs_per_component, reps)
        (16, 5, 3),
        (64, 5, 2),
        (256, 5, 2),
    ];
    let instances: Vec<_> = grid
        .into_iter()
        .map(|(k, jpc, reps)| {
            let cfg = ManyComponentsConfig {
                components: k,
                jobs_per_component: jpc,
                g: 3,
                span: 16,
                gap: 4,
                max_len: 4,
                slack_factor: 1.0,
            };
            (k, reps, many_components(&cfg, 13))
        })
        .collect();
    // One telemetry window around the Auto phase: the sharding counters
    // (components solved, fallbacks) and the variable-count histogram
    // (the largest component) are scoped to the decomposed runs only.
    // The Auto solves parallelize *internally* (components through
    // `parallel_map`), so the grid itself runs sequentially — no
    // nested-pool skew in the timings.
    let before = lp_telemetry();
    let vars_before = vars_per_solve_snapshot();
    let auto_runs: Vec<_> = instances
        .iter()
        .map(|(_, reps, inst)| {
            time_best_ms(*reps, || {
                solve_active_lp_with(inst, &LpOptions::default()).expect("feasible by construction")
            })
        })
        .collect();
    let auto_telemetry = lp_telemetry().delta(&before);
    let largest_component = vars_per_solve_snapshot()
        .delta(&vars_before)
        .percentile(1.0);
    let off_runs: Vec<_> = instances
        .iter()
        .map(|(_, reps, inst)| {
            time_best_ms(*reps, || {
                solve_active_lp_with(inst, &LpOptions::pr3_monolithic())
                    .expect("feasible by construction")
            })
        })
        .collect();
    let mut table = Table::new([
        "components",
        "jobs",
        "auto ms",
        "monolithic ms",
        "speedup",
        "objective",
    ]);
    let mut headline = None;
    for (((k, _, inst), (auto_ms, auto)), (off_ms, off)) in
        instances.iter().zip(&auto_runs).zip(&off_runs)
    {
        assert_eq!(
            auto.objective, off.objective,
            "sharded LP1 must reproduce the monolithic objective exactly"
        );
        let speedup = off_ms / auto_ms;
        headline = Some(speedup); // the grid ascends: keep the largest size
        table.row([
            k.to_string(),
            inst.len().to_string(),
            format!("{auto_ms:.1}"),
            format!("{off_ms:.1}"),
            format!("{speedup:.2}x"),
            auto.objective.to_string(),
        ]);
    }
    let notes = vec![
        "objectives bit-identical between Auto and Off on every instance (asserted)".into(),
        format!(
            "exact fallbacks during the Auto runs: {}",
            if auto_telemetry.fallbacks == 0 {
                "none".to_string()
            } else {
                format!("{} (unexpected)", auto_telemetry.fallbacks)
            }
        ),
        format!(
            "Auto-phase telemetry: {} sharded solves over {} component sub-LPs (largest component ≤ {} LP variables), {} pivots, {} LU refactorizations",
            auto_telemetry.sharded_solves,
            auto_telemetry.components,
            largest_component,
            auto_telemetry.pivots,
            auto_telemetry.refactorizations,
        ),
        "LP1 is block-diagonal across interval-graph components: the monolith pays superlinear simplex cost on one big basis, the sharded solve pays it on many small ones and runs them on all cores".into(),
    ];
    ExperimentReport {
        id: "e21",
        busy: Vec::new(),
        speedup: headline,
        title: "Decomposition scaling — component-sharded LP1 vs the monolith".into(),
        claim: "sharding LP1 along interval-graph components preserves the exact optimum and wins wall-clock at scale".into(),
        table,
        notes,
    }
}

/// E22 — incremental re-solve effort: the `online_arrivals` family
/// solved from scratch by the default sharded solve across a grid of
/// sizes, plus a replay of the arrival stream through `IncrementalSolver`
/// vs from-scratch re-solves per arrival. The gated headline is **solve
/// effort**: the replay's pivot ratio, from-scratch over incremental
/// (deterministic per instance); the final objectives are asserted
/// bit-identical.
pub fn e22() -> ExperimentReport {
    use crate::stats::time_best_ms;
    use abt_active::{lp_telemetry, solve_active_lp_with, IncrementalSolver, LpOptions};
    use abt_workloads::{online_arrivals, OnlineArrivalsConfig};

    let cfg = |clusters| OnlineArrivalsConfig {
        clusters,
        jobs_per_cluster: 4,
        templates: 2,
        g: 3,
        span: 16,
        gap: 4,
        max_len: 4,
    };
    let grid: Vec<(usize, usize)> = vec![
        // (clusters, reps)
        (8, 3),
        (32, 2),
        (128, 2),
    ];
    let mut table = Table::new(["clusters", "jobs", "cold ms", "cold pivots", "objective"]);
    let mut notes = Vec::new();
    let mut fallbacks = 0u64;
    for (clusters, reps) in grid {
        let inst = online_arrivals(&cfg(clusters), 17).instance();
        let before = lp_telemetry();
        let (ms, lp) = time_best_ms(reps, || {
            solve_active_lp_with(&inst, &LpOptions::default()).expect("feasible by construction")
        });
        let t = lp_telemetry().delta(&before);
        fallbacks += t.fallbacks;
        table.row([
            clusters.to_string(),
            inst.len().to_string(),
            format!("{ms:.1}"),
            t.pivots.to_string(),
            lp.objective.to_string(),
        ]);
    }
    // Incremental replay at the middle size: every arrival re-solves only
    // its dirty component; the from-scratch driver re-solves the whole
    // prefix each time.
    let oa = online_arrivals(&cfg(32), 17);
    let before = lp_telemetry();
    let mut solver = IncrementalSolver::new(oa.g).expect("g ≥ 1");
    let mut last = None;
    for job in &oa.jobs {
        solver.add_job(*job);
        last = Some(solver.solve().expect("prefixes are feasible"));
    }
    let inc_t = lp_telemetry().delta(&before);
    let before = lp_telemetry();
    let mut scratch_obj = None;
    for k in 1..=oa.jobs.len() {
        let prefix = oa.prefix_instance(k);
        let lp =
            solve_active_lp_with(&prefix, &LpOptions::default()).expect("prefixes are feasible");
        scratch_obj = Some(lp.objective);
    }
    let scratch_t = lp_telemetry().delta(&before);
    let last = last.expect("at least one arrival");
    assert_eq!(
        last.lp.objective,
        scratch_obj.expect("at least one prefix"),
        "the incremental replay must end at the from-scratch objective"
    );
    fallbacks += inc_t.fallbacks + scratch_t.fallbacks;
    let inc_ratio = scratch_t.pivots as f64 / inc_t.pivots.max(1) as f64;
    notes.push(format!(
        "incremental replay of {} arrivals: {} pivots total vs {} for from-scratch re-solves per arrival ({inc_ratio:.1}x less effort), final objectives bit-identical (asserted)",
        oa.jobs.len(),
        inc_t.pivots,
        scratch_t.pivots,
    ));
    notes.push(format!(
        "exact fallbacks across the sweep: {}",
        if fallbacks == 0 {
            "none".to_string()
        } else {
            format!("{fallbacks} (unexpected)")
        }
    ));
    notes.push(
        "the effort ratio (from-scratch/incremental pivot counts, deterministic per instance) is the gated headline".into(),
    );
    ExperimentReport {
        id: "e22",
        busy: Vec::new(),
        speedup: Some(inc_ratio),
        title: "Incremental re-solve effort — online arrivals".into(),
        claim: "incremental re-solves cut pivot effort ≥1.5x versus from-scratch re-solves per arrival, at unchanged exact objectives".into(),
        table,
        notes,
    }
}

/// E23 — durable-state recovery: crash-restart replay, corrupt-state
/// absorption, the restart-storm guard, and admission control, all at
/// bit-identical objectives.
pub fn e23() -> ExperimentReport {
    use abt_active::{
        admission_precheck, lp_telemetry, solve_active_lp, IncrementalSolver, SolveError,
        MAX_RECOVERY_ATTEMPTS,
    };
    use abt_core::Job;
    use abt_workloads::{online_arrivals, OnlineArrivalsConfig};

    fn state_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("abt-e23-{tag}-{}-{n}", std::process::id()))
    }

    let cfg = OnlineArrivalsConfig {
        clusters: 12,
        jobs_per_cluster: 4,
        templates: 2,
        g: 3,
        span: 16,
        gap: 4,
        max_len: 4,
    };
    let oa = online_arrivals(&cfg, 23);
    let scratch = solve_active_lp(&oa.instance()).expect("feasible by construction");
    let mut table = Table::new([
        "scenario",
        "arrivals",
        "resumed",
        "replayed ops",
        "corruption",
        "objective",
        "bit-identical",
    ]);
    let mut notes = Vec::new();
    let before = lp_telemetry();

    // Scenario 1 — crash-restart mid-stream: journal every arrival, drop
    // the solver at the halfway point (no checkpoint of the tail), then
    // recover and finish the trace.
    let dir = state_dir("crash");
    let half = oa.jobs.len() / 2;
    let tail = 4; // arrivals journaled after the last solve's checkpoint
    {
        let mut solver = IncrementalSolver::new(oa.g).expect("g ≥ 1");
        solver.attach_store(&dir).expect("fresh state dir");
        for job in &oa.jobs[..half - tail] {
            solver.add_job(*job);
        }
        solver.solve().expect("prefixes are feasible");
        for job in &oa.jobs[half - tail..half] {
            solver.add_job(*job);
        }
        // Dropped here without checkpoint_now: the journal tail is the
        // only record of the last arrivals — the crash the WAL exists for.
    }
    let mut solver = IncrementalSolver::new(oa.g).expect("g ≥ 1");
    let rec = solver.attach_store(&dir).expect("recoverable state dir");
    assert_eq!(rec.resumed_jobs, half, "every journaled arrival recovered");
    assert_eq!(rec.replayed_ops, tail, "the un-checkpointed tail replayed");
    for job in &oa.jobs[half..] {
        solver.add_job(*job);
    }
    let resumed = solver.solve().expect("feasible by construction");
    table.row([
        "crash + journal replay".into(),
        oa.jobs.len().to_string(),
        rec.resumed_jobs.to_string(),
        rec.replayed_ops.to_string(),
        rec.corruption_events.to_string(),
        resumed.lp.objective.to_string(),
        (resumed.lp.objective == scratch.objective).to_string(),
    ]);
    assert_eq!(resumed.lp.objective, scratch.objective);
    std::fs::remove_dir_all(&dir).ok();

    // Scenario 2 — checkpointed resume: a clean shutdown's state
    // comes back with its content cache, so the resumed solve is pure
    // cache hits.
    let dir = state_dir("resume");
    {
        let mut solver = IncrementalSolver::new(oa.g).expect("g ≥ 1");
        solver.attach_store(&dir).expect("fresh state dir");
        for job in &oa.jobs {
            solver.add_job(*job);
        }
        solver.solve().expect("feasible");
        solver.checkpoint_now();
    }
    let mut solver = IncrementalSolver::new(oa.g).expect("g ≥ 1");
    let rec = solver.attach_store(&dir).expect("recoverable state dir");
    let again = solver.solve().expect("feasible");
    table.row([
        "checkpointed resume".into(),
        oa.jobs.len().to_string(),
        rec.resumed_jobs.to_string(),
        rec.replayed_ops.to_string(),
        rec.corruption_events.to_string(),
        again.lp.objective.to_string(),
        (again.lp.objective == scratch.objective).to_string(),
    ]);
    assert_eq!(again.lp.objective, scratch.objective);
    notes.push(format!(
        "the resume re-solved {} components with {} cache reuses (restored blocks: {})",
        again.components, again.reused, rec.restored_blocks
    ));
    std::fs::remove_dir_all(&dir).ok();

    // Scenario 3 — corrupt checkpoint: bit rot is detected, the state is
    // discarded, and a cold rebuild lands on the same objective.
    let dir = state_dir("rot");
    {
        let mut solver = IncrementalSolver::new(oa.g).expect("g ≥ 1");
        solver.attach_store(&dir).expect("fresh state dir");
        for job in &oa.jobs {
            solver.add_job(*job);
        }
        solver.solve().expect("feasible");
        solver.checkpoint_now();
    }
    let ckpt = dir.join("checkpoint.abt");
    let mut bytes = std::fs::read(&ckpt).expect("checkpoint written");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&ckpt, &bytes).expect("rewrite");
    let mut solver = IncrementalSolver::new(oa.g).expect("g ≥ 1");
    let rec = solver
        .attach_store(&dir)
        .expect("corruption is absorbed, not returned");
    assert!(rec.cold_start && rec.corruption_events > 0);
    for job in &oa.jobs {
        solver.add_job(*job);
    }
    let rebuilt = solver.solve().expect("feasible");
    table.row([
        "corrupt checkpoint → cold".into(),
        oa.jobs.len().to_string(),
        rec.resumed_jobs.to_string(),
        rec.replayed_ops.to_string(),
        rec.corruption_events.to_string(),
        rebuilt.lp.objective.to_string(),
        (rebuilt.lp.objective == scratch.objective).to_string(),
    ]);
    assert_eq!(rebuilt.lp.objective, scratch.objective);
    std::fs::remove_dir_all(&dir).ok();

    // Scenario 4 — restart storm: recovery that keeps dying trips the
    // guard, quarantines the state files, and starts cold without a
    // crash loop.
    let dir = state_dir("storm");
    {
        let mut solver = IncrementalSolver::new(oa.g).expect("g ≥ 1");
        solver.attach_store(&dir).expect("fresh state dir");
        solver.add_job(oa.jobs[0]);
        solver.checkpoint_now();
    }
    let sd = abt_core::StateDir::open(&dir).expect("state dir");
    for _ in 0..MAX_RECOVERY_ATTEMPTS {
        sd.bump_recovery_attempts().expect("counter writable");
    }
    let mut solver = IncrementalSolver::new(oa.g).expect("g ≥ 1");
    let rec = solver.attach_store(&dir).expect("storm guard absorbs");
    assert!(rec.storm_quarantined && solver.is_empty());
    table.row([
        "restart storm → quarantine".into(),
        "1".into(),
        rec.resumed_jobs.to_string(),
        rec.replayed_ops.to_string(),
        rec.corruption_events.to_string(),
        "-".into(),
        "n/a (cold start)".into(),
    ]);
    notes.push(format!(
        "storm guard quarantined the state into {:?} after {MAX_RECOVERY_ATTEMPTS} dead recoveries — service continued cold",
        dir.join("quarantined-0").file_name().unwrap_or_default()
    ));
    std::fs::remove_dir_all(&dir).ok();

    // Scenario 5 — admission control: an overload burst bounces with a
    // witness before any LP is built; dropping it restores service.
    let mut solver = IncrementalSolver::new(1).expect("g ≥ 1");
    let ok_id = solver.add_job(Job::new(0, 4, 2));
    let ok_obj = solver.solve().expect("feasible").lp.objective;
    let burst: Vec<_> = (0..3).map(|_| solver.add_job(Job::new(0, 2, 2))).collect();
    let rejected = matches!(solver.try_solve(), Err(SolveError::Rejected(_)));
    assert!(rejected, "the overload burst must bounce at admission");
    for id in burst {
        solver.remove_job(id).expect("live handle");
    }
    let after = solver.solve().expect("feasible again");
    assert_eq!(after.lp.objective, ok_obj);
    let _ = ok_id;
    table.row([
        "admission-reject burst".into(),
        "4".into(),
        "-".into(),
        "-".into(),
        "0".into(),
        after.lp.objective.to_string(),
        (after.lp.objective == ok_obj).to_string(),
    ]);
    // And the precheck is sound on the full trace (never bounces feasible).
    assert!(admission_precheck(&oa.instance()).is_ok());

    let d = lp_telemetry().delta(&before);
    notes.push(format!(
        "persist telemetry: {} restores, {} recoveries, {} corruption detections, {} admission rejects",
        d.persist_restores, d.recoveries, d.state_corrupt, d.admission_rejects
    ));
    notes.push(
        "every corruption detection is matched by a recovery (state_corrupt ≤ recoveries) — the perf gate fails otherwise".into(),
    );
    assert!(
        d.state_corrupt <= d.recoveries,
        "a corruption without a matching recovery means the absorption path broke"
    );
    ExperimentReport {
        id: "e23",
        busy: Vec::new(),
        speedup: None,
        title: "Durable state — crash recovery, corruption absorption, and admission control"
            .into(),
        claim: "kill-and-restart replay resumes bit-identically; every injected corruption demotes to a cold rebuild with the exact objective intact; provably-infeasible bursts bounce at admission".into(),
        table,
        notes,
    }
}

/// E24 — busy head-to-head with the LP-rounding solver: the four
/// combinatorial algorithms plus LP rounding vs the exact optimum,
/// across the busy workload families.
pub fn e24() -> ExperimentReport {
    struct Family {
        name: &'static str,
        instances: Vec<Instance>,
    }
    let families = vec![
        Family {
            name: "uniform interval",
            instances: (0..6)
                .map(|s| {
                    random_interval(
                        &RandomConfig {
                            n: 10,
                            g: 3,
                            horizon: 30,
                            max_len: 8,
                            slack_factor: 0.0,
                        },
                        s,
                    )
                })
                .collect(),
        },
        Family {
            name: "laminar nested",
            instances: (0..6)
                .map(|s| {
                    busy_laminar_nested(
                        &BusyLaminarConfig {
                            n: 10,
                            g: 3,
                            horizon: 32,
                            fan_in: 3,
                        },
                        s,
                    )
                })
                .collect(),
        },
        Family {
            name: "release stream",
            instances: (0..6)
                .map(|s| {
                    busy_release_stream(
                        &BusyStreamConfig {
                            n: 10,
                            g: 3,
                            max_gap: 3,
                            max_len: 8,
                        },
                        s,
                    )
                })
                .collect(),
        },
    ];

    let mut table = Table::new(["family", "algorithm", "mean cost/OPT", "max cost/OPT"]);
    let mut totals: Vec<(String, u64, f64)> = IntervalAlgo::all()
        .iter()
        .map(|a| (a.name().to_string(), 0u64, 0f64))
        .collect();
    for fam in &families {
        let exacts: Vec<i64> = fam
            .instances
            .iter()
            .map(|inst| exact_busy_time(inst, Some(50_000_000)).unwrap().cost)
            .collect();
        for (ai, algo) in IntervalAlgo::all().iter().enumerate() {
            let mut sum = 0.0;
            let mut max = 0.0f64;
            for (inst, &opt) in fam.instances.iter().zip(&exacts) {
                let s = algo.run(inst).unwrap();
                s.validate(inst).unwrap();
                let c = s.total_busy_time(inst);
                let factor = match algo {
                    IntervalAlgo::FirstFit => 4,
                    IntervalAlgo::GreedyTracking => 3,
                    _ => 2,
                };
                assert!(
                    within_factor(c, factor, opt),
                    "{} cost {c} > {factor}×OPT {opt}",
                    algo.name()
                );
                assert!(c >= opt, "{} undercut the optimum", algo.name());
                let r = c as f64 / opt as f64;
                sum += r;
                max = max.max(r);
                totals[ai].1 += c as u64;
                totals[ai].2 = totals[ai].2.max(r);
            }
            table.row([
                fam.name.to_string(),
                algo.name().to_string(),
                format!("{:.4}", sum / fam.instances.len() as f64),
                format!("{max:.4}"),
            ]);
        }
    }
    let notes = vec![
        "every algorithm stays within its proven factor of the exact optimum on all instances"
            .into(),
        "LP rounding coincides with Kumar–Rudra's padding (⌈z*⌉ = ⌈D/g⌉), so its integral costs match KR's".into(),
        "the busy LP is separable: its optimum Σ len·max(D/g, 1) is computed in closed form, no simplex runs".into(),
    ];
    ExperimentReport {
        id: "e24",
        busy: totals
            .into_iter()
            .map(|(algo, cost, ratio)| BusyAlgoSummary { algo, cost, ratio })
            .collect(),
        speedup: None,
        title: "Busy head-to-head — LP rounding vs the combinatorial zoo vs exact".into(),
        claim: "LP rounding (≤2 vs profile, ≤4 vs its LP value) and the four combinatorial algorithms all stay within factor of the exact optimum".into(),
        table,
        notes,
    }
}

/// E25 — busy `g`-sweep scaling: one fixed interval job set instantiated
/// at every capacity, every algorithm's cost/lower-bound ratio per `g`.
pub fn e25() -> ExperimentReport {
    let cfg = RandomConfig {
        n: 40,
        g: 1, // ignored by the sweep
        horizon: 120,
        max_len: 20,
        slack_factor: 0.0,
    };
    let gs = [1usize, 2, 4, 8, 16];
    let seeds: Vec<u64> = (0..4).collect();
    let mut table = Table::new([
        "g",
        "algorithm",
        "mean cost/LB",
        "max cost/LB",
        "total cost",
    ]);
    let mut totals: Vec<(String, u64, f64)> = IntervalAlgo::all()
        .iter()
        .map(|a| (a.name().to_string(), 0u64, 0f64))
        .collect();
    for &g in &gs {
        for (ai, algo) in IntervalAlgo::all().iter().enumerate() {
            let mut sum = 0.0;
            let mut max = 0.0f64;
            let mut cost_g = 0u64;
            for &seed in &seeds {
                let sweep = busy_g_sweep(&cfg, &[g], seed);
                let (_, inst) = &sweep[0];
                let lb = busy_lower_bounds(inst).best();
                let s = algo.run(inst).unwrap();
                s.validate(inst).unwrap();
                let c = s.total_busy_time(inst);
                let factor = match algo {
                    IntervalAlgo::FirstFit => 4,
                    IntervalAlgo::GreedyTracking => 3,
                    _ => 2,
                };
                assert!(
                    within_factor(c, factor, lb),
                    "{} at g={g}: cost {c} > {factor}×LB {lb}",
                    algo.name()
                );
                let r = c as f64 / lb as f64;
                sum += r;
                max = max.max(r);
                cost_g += c as u64;
                totals[ai].1 += c as u64;
                totals[ai].2 = totals[ai].2.max(r);
            }
            table.row([
                g.to_string(),
                algo.name().to_string(),
                format!("{:.4}", sum / seeds.len() as f64),
                format!("{max:.4}"),
                cost_g.to_string(),
            ]);
        }
    }
    let notes = vec![
        "the same 40-job interval set at every g: busy time falls as capacity grows, while the cost/LB ratio stays within each algorithm's factor".into(),
    ];
    ExperimentReport {
        id: "e25",
        busy: totals
            .into_iter()
            .map(|(algo, cost, ratio)| BusyAlgoSummary { algo, cost, ratio })
            .collect(),
        speedup: None,
        title: "Busy g-sweep — cost and approximation ratio vs machine capacity".into(),
        claim: "every algorithm's cost/lower-bound ratio stays within its factor across g ∈ {1, 2, 4, 8, 16}".into(),
        table,
        notes,
    }
}

/// Tiny xorshift for experiment-local randomness.
mod rand_free {
    pub struct XorShift(u64);
    impl XorShift {
        pub fn new(seed: u64) -> Self {
            XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
        }
        pub fn next(&mut self, m: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % m
        }
    }
}
