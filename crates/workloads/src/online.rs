//! The **online-arrivals** workload: jobs stream into a fixed horizon,
//! stripe by stripe, drawn from a small set of window-layout templates.
//!
//! This is the stress family for the warm-start subsystem (PR 5): each
//! *stripe* (an isolated cluster, as in
//! [`many_components`](crate::random::many_components)) receives its jobs
//! from one of `templates` fixed window layouts, so the LP1 components of
//! same-template stripes are **structural twins** — identical run
//! structure and per-job run spans, different job lengths. That is
//! exactly the shape the batch planner (`WarmMode::Batch` in
//! `abt-active::lp_model`) groups for warm-started sibling solves, and
//! the arrival stream (stripe-major order) is exactly the regime the
//! incremental driver (`abt-active::incremental`) serves: every arrival
//! dirties one component whose shape echoes earlier ones. The online
//! active-time setting follows Chang–Khuller–Mukherjee (arXiv:1610.08154);
//! the nested/structured window layouts follow Cao et al.
//! (arXiv:2207.12507).
//!
//! Feasibility is guaranteed exactly. Each drawn length is first capped
//! by the endpoint-interval constraints (`Σ_{windows ⊆ [a,b]} len ≤
//! g·(b−a)`, with one unit reserved for every job still to come), then
//! shortened until the stripe so far, plus those reserved units, passes
//! the exact `G_feas` max-flow of Fig. 2: the interval caps alone miss
//! that a slot covered by fewer than `g` windows hosts fewer than `g`
//! units. Every prefix of the arrival order only removes jobs, so
//! prefixes stay feasible too.

use abt_core::{Instance, Job};
use abt_flow::{max_flow, FlowGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of the online-arrivals family.
#[derive(Debug, Clone, Copy)]
pub struct OnlineArrivalsConfig {
    /// Number of stripes (isolated clusters) jobs arrive into.
    pub clusters: usize,
    /// Jobs per stripe (every stripe receives exactly this many).
    pub jobs_per_cluster: usize,
    /// Distinct window-layout templates; stripe `c` uses template
    /// `c % templates`, so each template has `clusters / templates`
    /// structural twins.
    pub templates: usize,
    /// Capacity `g`.
    pub g: usize,
    /// Horizon width of each stripe.
    pub span: i64,
    /// Idle gap between consecutive stripes (≥ 1 keeps windows disjoint).
    pub gap: i64,
    /// Maximum job length.
    pub max_len: i64,
}

impl Default for OnlineArrivalsConfig {
    fn default() -> Self {
        OnlineArrivalsConfig {
            clusters: 8,
            jobs_per_cluster: 4,
            templates: 2,
            g: 3,
            span: 16,
            gap: 4,
            max_len: 4,
        }
    }
}

/// An online-arrivals trace: the jobs in **arrival order** (stripe-major)
/// plus the capacity they arrive under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineArrivals {
    /// Capacity `g`.
    pub g: usize,
    /// Jobs in arrival order.
    pub jobs: Vec<Job>,
}

impl OnlineArrivals {
    /// The full trace as an [`Instance`] (all arrivals landed).
    pub fn instance(&self) -> Instance {
        Instance::new(self.jobs.clone(), self.g).expect("trace is feasible by construction")
    }

    /// The first `k` arrivals as an [`Instance`] (`k` clamped to the
    /// trace length). Every prefix is feasible — the lengths satisfy the
    /// full trace's Hall constraints, and a prefix only removes jobs.
    pub fn prefix_instance(&self, k: usize) -> Instance {
        let k = k.min(self.jobs.len());
        Instance::new(self.jobs[..k].to_vec(), self.g).expect("prefixes stay feasible")
    }
}

/// Generates an online-arrivals trace (deterministic per seed). See the
/// module docs for the construction.
///
/// # Panics
///
/// On a config that cannot guarantee feasibility or structure:
/// `clusters == 0`, `jobs_per_cluster == 0`, `templates == 0`, `g == 0`,
/// `span < 4`, `gap < 1`, `max_len < 1`, or
/// `jobs_per_cluster > 2 * g` (template windows are at least 2 slots
/// wide, so any endpoint interval has capacity `≥ 2g` — enough to hand
/// every job at least one unit whatever the earlier draws took).
pub fn online_arrivals(cfg: &OnlineArrivalsConfig, seed: u64) -> OnlineArrivals {
    assert!(cfg.clusters > 0, "clusters must be positive");
    assert!(
        cfg.jobs_per_cluster > 0,
        "jobs_per_cluster must be positive"
    );
    assert!(cfg.templates > 0, "templates must be positive");
    assert!(cfg.g > 0, "g must be positive");
    assert!(cfg.span >= 4, "span must be at least 4");
    assert!(cfg.gap >= 1, "gap must be at least 1");
    assert!(cfg.max_len >= 1, "max_len must be at least 1");
    assert!(
        cfg.jobs_per_cluster <= 2 * cfg.g,
        "jobs_per_cluster > 2g cannot guarantee feasible lengths"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    // Fixed window layouts: every window straddles the stripe midpoint,
    // so each stripe is one connected component.
    let mid = cfg.span / 2;
    let layouts: Vec<Vec<(i64, i64)>> = (0..cfg.templates)
        .map(|_| {
            (0..cfg.jobs_per_cluster)
                .map(|_| {
                    let lo = rng.gen_range(0..mid);
                    let hi = rng.gen_range(mid + 1..=cfg.span);
                    (lo, hi)
                })
                .collect()
        })
        .collect();
    let g = cfg.g as i64;
    let mut jobs = Vec::with_capacity(cfg.clusters * cfg.jobs_per_cluster);
    for c in 0..cfg.clusters {
        let layout = &layouts[c % cfg.templates];
        let base = c as i64 * (cfg.span + cfg.gap);
        // Length caps from the endpoint intervals: for every interval
        // [a, b] holding this window, Σ_{windows ⊆ [a,b]} len ≤ g·(b − a).
        // Each job's cap reserves one unit for every *later* job inside
        // the same interval, which keeps every cap ≥ 1: with
        // `jobs_per_cluster ≤ 2g` and window widths ≥ 2, an interval
        // containing m windows has capacity g·(b−a) ≥ 2g ≥ m. The rng
        // stream is consumed uniformly (shapes stay template-fixed), and
        // every prefix of the stripe only loosens the constraints.
        let mut lens: Vec<i64> = Vec::with_capacity(layout.len());
        for (k, &(lo, hi)) in layout.iter().enumerate() {
            let desired = rng.gen_range(1..=cfg.max_len.min(hi - lo));
            let mut cap = i64::MAX;
            for &(a, _) in layout {
                for &(_, b) in layout {
                    if a > lo || b < hi {
                        continue; // [a, b] must contain this window
                    }
                    let assigned: i64 = layout
                        .iter()
                        .zip(&lens)
                        .filter(|(&(l, h), _)| a <= l && h <= b)
                        .map(|(_, &len)| len)
                        .sum();
                    let future = layout[k + 1..]
                        .iter()
                        .filter(|&&(l, h)| a <= l && h <= b)
                        .count() as i64;
                    cap = cap.min(g * (b - a) - assigned - future);
                }
            }
            debug_assert!(cap >= 1, "the 2g guard keeps every cap positive");
            // The caps above ignore that a slot covered by fewer than g
            // windows hosts fewer than g units, so check the stripe so far
            // exactly, with one unit reserved for each later job, and
            // shorten this job until it fits. Length 1 always fits: that
            // is the previous job's check. A trace that fits never
            // shortens here, so it comes out as before.
            let mut len = desired.min(cap);
            let later = layout[k + 1..].iter().map(|&(l, h)| (l, h, 1));
            while len > 1 {
                let stripe: Vec<(i64, i64, i64)> = layout
                    .iter()
                    .zip(lens.iter().chain([&len]))
                    .map(|(&(l, h), &p)| (l, h, p))
                    .chain(later.clone())
                    .collect();
                if stripe_feasible(&stripe, cfg.g) {
                    break;
                }
                len -= 1;
            }
            lens.push(len);
        }
        for (&(lo, hi), &len) in layout.iter().zip(&lens) {
            jobs.push(Job::new(base + lo, base + hi, len));
        }
    }
    OnlineArrivals { g: cfg.g, jobs }
}

/// Whether jobs `(release, deadline, length)` fit at capacity `g` with
/// every slot of their horizon open: the max-flow on `G_feas` (Fig. 2)
/// saturates every job's demand. A job may use the slots
/// `release + 1 ..= deadline`.
fn stripe_feasible(jobs: &[(i64, i64, i64)], g: usize) -> bool {
    let lo = jobs.iter().map(|j| j.0).min().unwrap_or(0);
    let hi = jobs.iter().map(|j| j.1).max().unwrap_or(0);
    let slots = (hi - lo).max(0) as usize;
    // Nodes: source, the jobs, the slots, sink.
    let (s, t) = (0, jobs.len() + slots + 1);
    let slot = |time: i64| jobs.len() + (time - lo) as usize;
    let mut net = FlowGraph::new(t + 1);
    for (i, &(r, d, p)) in jobs.iter().enumerate() {
        net.add_edge(s, 1 + i, p);
        for time in r + 1..=d {
            net.add_edge(1 + i, slot(time), 1);
        }
    }
    for time in lo + 1..=hi {
        net.add_edge(slot(time), t, g as i64);
    }
    max_flow(&mut net, s, t).value == jobs.iter().map(|j| j.2).sum::<i64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_and_striped() {
        let cfg = OnlineArrivalsConfig::default();
        let oa = online_arrivals(&cfg, 9);
        assert_eq!(online_arrivals(&cfg, 9), oa, "deterministic per seed");
        assert_eq!(oa.jobs.len(), cfg.clusters * cfg.jobs_per_cluster);
        // Every job lies inside its stripe; stripes never overlap.
        let stride = cfg.span + cfg.gap;
        for (i, j) in oa.jobs.iter().enumerate() {
            let c = (i / cfg.jobs_per_cluster) as i64;
            assert!(
                j.release >= c * stride && j.deadline <= c * stride + cfg.span,
                "{j:?} escapes stripe {c}"
            );
        }
    }

    #[test]
    fn same_template_stripes_are_structural_twins() {
        let cfg = OnlineArrivalsConfig {
            clusters: 6,
            templates: 2,
            ..Default::default()
        };
        let oa = online_arrivals(&cfg, 4);
        let jp = cfg.jobs_per_cluster;
        let stride = cfg.span + cfg.gap;
        // Window offsets of stripes c and c + templates match slot by slot.
        for c in 0..cfg.clusters - cfg.templates {
            for k in 0..jp {
                let a = oa.jobs[c * jp + k];
                let b = oa.jobs[(c + cfg.templates) * jp + k];
                let shift = cfg.templates as i64 * stride;
                assert_eq!(a.release + shift, b.release, "layouts must repeat");
                assert_eq!(a.deadline + shift, b.deadline);
            }
        }
    }

    #[test]
    fn every_prefix_is_carved_feasible() {
        let cfg = OnlineArrivalsConfig {
            clusters: 5,
            g: 2,
            jobs_per_cluster: 4,
            ..Default::default()
        };
        for seed in 0..40 {
            let oa = online_arrivals(&cfg, seed);
            for k in 0..=oa.jobs.len() {
                let inst = oa.prefix_instance(k);
                assert_eq!(inst.len(), k);
                assert!(
                    stripe_feasible(&triples(&inst), cfg.g),
                    "seed {seed}, prefix {k}"
                );
            }
        }
    }

    fn triples(inst: &Instance) -> Vec<(i64, i64, i64)> {
        inst.jobs()
            .iter()
            .map(|j| (j.release, j.deadline, j.length))
            .collect()
    }

    #[test]
    fn under_covered_slots_shorten_the_draw() {
        // The endpoint-interval caps alone gave stripe 3 of this trace
        // the jobs (39,42,3), (38,42,2) and (39,42,3): 8 units, but the
        // covered slots host only 7.
        let cfg = OnlineArrivalsConfig {
            clusters: 4,
            jobs_per_cluster: 3,
            templates: 2,
            g: 2,
            span: 10,
            gap: 2,
            max_len: 3,
        };
        let oa = online_arrivals(&cfg, 431);
        assert!(stripe_feasible(&triples(&oa.instance()), cfg.g));
        let stripe3: Vec<(i64, i64, i64)> = triples(&oa.instance())[9..].to_vec();
        assert_eq!(
            stripe3.iter().map(|j| (j.0, j.1)).collect::<Vec<_>>(),
            [(39, 42), (38, 42), (39, 42)]
        );
        assert!(stripe3.iter().map(|j| j.2).sum::<i64>() <= 7);
    }

    #[test]
    fn g_feas_counts_what_covered_slots_host() {
        // Slot 39 is covered only by the middle window, so it hosts 1
        // unit at g = 2, not 2.
        assert!(!stripe_feasible(
            &[(39, 42, 3), (38, 42, 2), (39, 42, 3)],
            2
        ));
        assert!(stripe_feasible(&[(39, 42, 3), (38, 42, 1), (39, 42, 3)], 2));
        assert!(stripe_feasible(&[], 1));
    }

    #[test]
    fn tight_configs_stay_feasible_across_seeds() {
        // Regression for the carving bug: narrow shared windows with
        // saturating draws used to panic (len clamped to 0) or underflow.
        // The Hall-cap construction must stay panic-free and positive on
        // the tightest guard-passing configs, across many seeds.
        for (g, jobs_per, span) in [(1usize, 2usize, 4i64), (2, 4, 12), (3, 6, 8)] {
            for seed in 0..600u64 {
                let cfg = OnlineArrivalsConfig {
                    clusters: 4,
                    jobs_per_cluster: jobs_per,
                    templates: 2,
                    g,
                    span,
                    gap: 2,
                    max_len: 4.min(span - 1),
                };
                let oa = online_arrivals(&cfg, seed);
                assert_eq!(oa.jobs.len(), cfg.clusters * jobs_per);
                assert!(oa.jobs.iter().all(|j| j.length >= 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "jobs_per_cluster > 2g")]
    fn overfull_config_rejected() {
        let cfg = OnlineArrivalsConfig {
            g: 1,
            jobs_per_cluster: 3,
            ..Default::default()
        };
        online_arrivals(&cfg, 0);
    }
}
