//! Golden tests: the closed-form quantities of every paper gadget, exactly
//! as the paper states them, across a parameter grid.

use abt_core::{within_frac_factor, DemandProfile};
use abt_lp::Rat;
use abt_workloads::{
    fig10_flexible_factor4, fig3_minimal_tight, fig6_greedy_tracking_tight, fig8_interval_tight,
    fig9_dp_profile_tight, integrality_gap, SCALE,
};

/// The exact ratio `a/b` of two costs.
fn ratio(a: i64, b: i64) -> Rat {
    Rat::new(a.into(), b.into())
}

#[test]
fn fig3_closed_forms() {
    for g in 3..=12usize {
        let f = fig3_minimal_tight(g);
        let gi = g as i64;
        // Mass is exactly g² (the paper's optimality argument divides by g).
        assert_eq!(f.instance.total_length(), gi * gi);
        assert_eq!(f.opt, gi);
        assert_eq!(f.adversarial_slots.len() as i64, 3 * gi - 2);
        // Job census: 2 long + (g−2) rigid + 2(g−2) unit.
        assert_eq!(f.instance.len(), 2 + (g - 2) + 2 * (g - 2));
    }
}

#[test]
fn integrality_gap_closed_forms() {
    for g in 2..=16usize {
        let ig = integrality_gap(g);
        let gi = g as i64;
        assert_eq!(ig.lp_opt, gi + 1);
        assert_eq!(ig.ip_opt, 2 * gi);
        assert_eq!(ig.instance.len(), g * (g + 1));
        // The gap 2g/(g+1) is increasing in g and below 2.
        assert!(within_frac_factor(ig.ip_opt, 2, 1, ig.lp_opt));
        assert!(ratio(ig.ip_opt, ig.lp_opt) < Rat::from_int(2));
        if g >= 3 {
            let prev = integrality_gap(g - 1);
            assert!(
                ratio(ig.ip_opt, ig.lp_opt) > ratio(prev.ip_opt, prev.lp_opt),
                "gap must increase with g"
            );
        }
    }
}

#[test]
fn fig6_closed_forms() {
    for g in 1..=8usize {
        let eps = 10;
        let f = fig6_greedy_tracking_tight(g, eps);
        let gi = g as i64;
        // 2g² unit interval jobs + 2g flexible jobs.
        assert_eq!(f.instance.len(), 2 * g * g + 2 * g);
        // Paper (scaled): bad = 3g(2U − ε), OPT ≤ 2gU + 2U − ε.
        assert_eq!(f.adversarial_cost, 3 * gi * (2 * SCALE - eps));
        assert_eq!(f.opt_upper, 2 * gi * SCALE + 2 * SCALE - eps);
        // Ratio below 3, increasing in g.
        assert!(ratio(f.adversarial_cost, f.opt_upper) < Rat::from_int(3));
    }
}

#[test]
fn fig8_closed_forms() {
    for (eps, eps1) in [(100i64, 30i64), (50, 10), (8, 3)] {
        let f = fig8_interval_tight(eps, eps1);
        assert_eq!(f.instance.len(), 5);
        assert_eq!(f.instance.g(), 2);
        assert_eq!(f.opt, SCALE + eps);
        assert_eq!(f.bad_output, 2 * SCALE + eps + eps1);
        // bad/opt < 2 always, → 2 as ε → 0.
        assert!(ratio(f.bad_output, f.opt) < Rat::from_int(2));
    }
}

#[test]
fn fig9_profile_ratio_increases_towards_two() {
    let mut prev: Option<Rat> = None;
    for g in 2..=8usize {
        let f = fig9_dp_profile_tight(g, 4);
        let adv = f.instance.fix_starts(&f.adversarial_starts).unwrap();
        let fri = f.instance.fix_starts(&f.friendly_starts).unwrap();
        let profile = |inst: &abt_core::Instance| -> i64 {
            DemandProfile::new(&inst.jobs().iter().map(|j| j.window()).collect::<Vec<_>>()).cost(g)
        };
        let r = ratio(profile(&adv), profile(&fri));
        assert!(r < Rat::from_int(2), "Lemma 7: at most 2");
        if let Some(p) = prev {
            assert!(r > p, "ratio must increase with g");
        }
        prev = Some(r);
    }
}

#[test]
fn fig10_closed_forms() {
    for g in 3..=8usize {
        let (eps, eps1) = (60, 20);
        let f = fig10_flexible_factor4(g, eps, eps1);
        let gi = g as i64;
        assert_eq!(f.opt_upper, gi * SCALE + (gi - 1) * 2 * eps);
        assert_eq!(f.bad_cost, SCALE + (gi - 1) * (4 * SCALE + 3 * eps));
        assert!(ratio(f.bad_cost, f.opt_upper) < Rat::from_int(4));
        // Job census: 1 + (g−1)(g + 2g−2 + 2 + 2) + (g−1) flexible.
        assert_eq!(f.instance.len(), 1 + (g - 1) * (3 * g + 2) + (g - 1));
    }
}
