//! Admission control for the active-time solver: a sound,
//! near-linear-time **necessary** feasibility condition checked at the
//! service boundary, so requests that cannot possibly be scheduled bounce
//! with a typed [`AdmissionReject`] *before* any LP is built.
//!
//! # The condition
//!
//! Chang–Gabow–Khuller's feasibility characterization (the deficiency
//! form of Hall's theorem for the bipartite job-unit/slot graph behind
//! `G_feas`) implies in particular the **interval load condition**: for
//! every pair of time points `a < b`, the jobs whose whole window fits
//! inside `[a, b)` demand at most what the interval can supply,
//!
//! ```text
//!   Σ { length(j) : a ≤ release(j), deadline(j) ≤ b }  ≤  g · (b − a).
//! ```
//!
//! Violating any such interval proves infeasibility outright (every unit
//! of those jobs must land in `[a, b)`, which has only `g·(b−a)` slot
//! capacity), so a rejection here is *sound*: the solver would have
//! returned [`Error::Infeasible`](abt_core::Error) after doing all the
//! work. The converse does not hold in general — instances passing the
//! precheck can still be infeasible (the full max-flow oracle in
//! [`crate::feasibility`] is the complete test) — which is exactly the
//! right trade for an admission gate: **never bounce a feasible request,
//! bounce the obviously-doomed ones for free.**
//!
//! # Algorithm
//!
//! Only endpoints matter: a maximal violated interval has `a` at some
//! job's release and `b` at some job's deadline. Sweep `b` over the
//! distinct deadlines ascending, maintaining over the distinct releases
//! `a` the value `f(a) = S(a) + g·a`, where `S(a)` is the total length of
//! already-swept jobs (deadline ≤ b) with release ≥ a. Admitting a job
//! range-adds its length onto the prefix of releases `≤ release(j)`; the
//! condition fails iff some prefix maximum of `f` over releases `< b`
//! exceeds `g·b`. A lazy max segment tree gives O((n + checks) · log n)
//! overall — essentially free next to even one simplex pivot.
//!
//! # Per component
//!
//! The condition decomposes over the connected components of the
//! job-window interval graph. Component spans are disjoint in time, so
//! the jobs confined to any `[a, b)` split into per-component sets, each
//! confined to a disjoint sub-interval of `[a, b)` whose capacities sum
//! to at most `g·(b − a)`. Hence the instance passes iff every component
//! passes, and a component's witness is a witness for the instance. The
//! first violated deadline `b` is the same either way: a component's
//! deadlines all lie before the next component's, so the earliest failing
//! component holds it. Only the witness's left end `a` may differ.
//!
//! A component whose LP1 block solved `Optimal` passes: its jobs confined
//! to `[a, b)` place their `x` only in runs inside `[a, b)`, whose `Y`
//! sum to at most `b − a`, so their demand is at most `g·(b − a)`. The
//! incremental driver ([`crate::incremental`]) therefore checks only the
//! components its content cache cannot serve.

use abt_core::{Instance, Time};
use std::fmt;

/// A request bounced by [`admission_precheck`]: a witness interval whose
/// confined jobs demand more slot capacity than the interval holds. The
/// witness is a *proof of infeasibility* for the offered instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionReject {
    /// The violated interval `[a, b)` (a witness; there may be others).
    pub window: (Time, Time),
    /// Total length of the jobs whose windows fit inside `window`.
    pub demand: i64,
    /// What the interval can supply: `g · (b − a)`.
    pub capacity: i64,
}

impl fmt::Display for AdmissionReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "jobs confined to [{}, {}) demand {} slot-units but the interval supplies only {}",
            self.window.0, self.window.1, self.demand, self.capacity
        )
    }
}

/// Lazy max segment tree with range add and prefix-max query, tracking an
/// argmax leaf for the rejection witness.
struct MaxTree {
    n: usize,
    /// Node max (with pending adds of ancestors *not* applied).
    max: Vec<i128>,
    /// Argmax leaf index under each node.
    arg: Vec<usize>,
    /// Pending add per node (applies to the whole subtree).
    lazy: Vec<i128>,
}

impl MaxTree {
    fn new(leaves: &[i128]) -> MaxTree {
        let n = leaves.len();
        let mut t = MaxTree {
            n,
            max: vec![i128::MIN; 4 * n.max(1)],
            arg: vec![0; 4 * n.max(1)],
            lazy: vec![0; 4 * n.max(1)],
        };
        if n > 0 {
            t.build(1, 0, n, leaves);
        }
        t
    }

    fn build(&mut self, node: usize, lo: usize, hi: usize, leaves: &[i128]) {
        if hi - lo == 1 {
            self.max[node] = leaves[lo];
            self.arg[node] = lo;
            return;
        }
        let mid = lo + (hi - lo) / 2;
        self.build(2 * node, lo, mid, leaves);
        self.build(2 * node + 1, mid, hi, leaves);
        self.pull(node);
    }

    fn pull(&mut self, node: usize) {
        let (l, r) = (2 * node, 2 * node + 1);
        if self.max[l] >= self.max[r] {
            self.max[node] = self.max[l];
            self.arg[node] = self.arg[l];
        } else {
            self.max[node] = self.max[r];
            self.arg[node] = self.arg[r];
        }
    }

    fn push(&mut self, node: usize) {
        let add = self.lazy[node];
        if add != 0 {
            for child in [2 * node, 2 * node + 1] {
                self.max[child] += add;
                self.lazy[child] += add;
            }
            self.lazy[node] = 0;
        }
    }

    /// Adds `v` on the leaf range `[l, r)`.
    fn add(&mut self, l: usize, r: usize, v: i128) {
        if self.n > 0 && l < r {
            self.add_rec(1, 0, self.n, l, r, v);
        }
    }

    fn add_rec(&mut self, node: usize, lo: usize, hi: usize, l: usize, r: usize, v: i128) {
        if r <= lo || hi <= l {
            return;
        }
        if l <= lo && hi <= r {
            self.max[node] += v;
            self.lazy[node] += v;
            return;
        }
        self.push(node);
        let mid = lo + (hi - lo) / 2;
        self.add_rec(2 * node, lo, mid, l, r, v);
        self.add_rec(2 * node + 1, mid, hi, l, r, v);
        self.pull(node);
    }

    /// Max (and its argmax leaf) over the leaf range `[l, r)`.
    fn query(&mut self, l: usize, r: usize) -> Option<(i128, usize)> {
        if self.n == 0 || l >= r {
            return None;
        }
        self.query_rec(1, 0, self.n, l, r)
    }

    fn query_rec(
        &mut self,
        node: usize,
        lo: usize,
        hi: usize,
        l: usize,
        r: usize,
    ) -> Option<(i128, usize)> {
        if r <= lo || hi <= l {
            return None;
        }
        if l <= lo && hi <= r {
            return Some((self.max[node], self.arg[node]));
        }
        self.push(node);
        let mid = lo + (hi - lo) / 2;
        let a = self.query_rec(2 * node, lo, mid, l, r);
        let b = self.query_rec(2 * node + 1, mid, hi, l, r);
        match (a, b) {
            (Some(x), Some(y)) => Some(if x.0 >= y.0 { x } else { y }),
            (x, None) => x,
            (None, y) => y,
        }
    }
}

/// Checks the interval load condition (see the module docs) in
/// O(n log n). `Ok(())` admits the instance to the solver; `Err` carries
/// a witness interval proving it infeasible. Never rejects a feasible
/// instance.
pub fn admission_precheck(inst: &Instance) -> Result<(), AdmissionReject> {
    if inst.is_empty() {
        return Ok(());
    }
    let g = inst.g() as i128;
    // Distinct releases ascending: the candidate left endpoints `a`.
    let mut releases: Vec<Time> = inst.jobs().iter().map(|j| j.release).collect();
    releases.sort_unstable();
    releases.dedup();
    // Jobs grouped by deadline ascending: the sweep order of `b`.
    let mut by_deadline: Vec<usize> = (0..inst.len()).collect();
    by_deadline.sort_unstable_by_key(|&j| inst.job(j).deadline);
    let leaves: Vec<i128> = releases.iter().map(|&a| g * a as i128).collect();
    let mut tree = MaxTree::new(&leaves);
    let mut i = 0;
    while i < by_deadline.len() {
        let b = inst.job(by_deadline[i]).deadline;
        // Admit every job with this deadline before checking it.
        while i < by_deadline.len() && inst.job(by_deadline[i]).deadline == b {
            let job = inst.job(by_deadline[i]);
            // All candidate `a ≤ release(j)` gain this job's demand.
            let hi = releases.partition_point(|&a| a <= job.release);
            tree.add(0, hi, job.length as i128);
            i += 1;
        }
        // Check every `a < b` (an `a ≥ b` confines no jobs: r < d ≤ b).
        let hi = releases.partition_point(|&a| a < b);
        if let Some((best, arg)) = tree.query(0, hi) {
            if best > g * b as i128 {
                let a = releases[arg];
                // demand = f(a) − g·a; both fit i64 (sums of job lengths).
                let demand = (best - g * a as i128) as i64;
                let capacity = (g * (b - a) as i128) as i64;
                return Err(AdmissionReject {
                    window: (a, b),
                    demand,
                    capacity,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_model::{components, slot_runs, DecomposeMode};
    use abt_core::Job;
    use proptest::prelude::*;

    fn inst(g: usize, jobs: &[(i64, i64, i64)]) -> Instance {
        Instance::new(jobs.iter().map(|&(r, d, p)| Job::new(r, d, p)).collect(), g).unwrap()
    }

    #[test]
    fn admits_feasible_instances() {
        assert_eq!(
            admission_precheck(&inst(2, &[(0, 4, 2), (1, 3, 2)])),
            Ok(())
        );
        assert_eq!(
            admission_precheck(&inst(1, &[(0, 2, 1), (0, 2, 1), (2, 4, 2)])),
            Ok(())
        );
        // Exactly at capacity is still admitted.
        assert_eq!(
            admission_precheck(&inst(2, &[(0, 2, 2), (0, 2, 2)])),
            Ok(())
        );
        assert_eq!(
            admission_precheck(&Instance::new(Vec::new(), 1).unwrap()),
            Ok(())
        );
    }

    #[test]
    fn rejects_point_overload_with_witness() {
        let rej = admission_precheck(&inst(1, &[(0, 1, 1), (0, 1, 1)])).unwrap_err();
        assert_eq!(rej.window, (0, 1));
        assert_eq!(rej.demand, 2);
        assert_eq!(rej.capacity, 1);
    }

    #[test]
    fn rejects_interior_interval_overload() {
        // The full horizon [0, 9) has plenty of room; only the jobs
        // confined to [3, 6) overload it: 3+2+2 = 7 > 2·3 = 6.
        let rej = admission_precheck(&inst(2, &[(0, 9, 1), (3, 6, 3), (3, 6, 2), (4, 6, 2)]))
            .unwrap_err();
        assert_eq!(rej.window, (3, 6));
        assert_eq!(rej.demand, 7);
        assert_eq!(rej.capacity, 6);
    }

    #[test]
    fn negative_times_are_handled() {
        // Windows straddling zero: the arithmetic is signed throughout.
        assert_eq!(
            admission_precheck(&inst(1, &[(-4, -1, 2), (-2, 2, 2)])),
            Ok(())
        );
        let rej = admission_precheck(&inst(1, &[(-3, -1, 2), (-3, -1, 1)])).unwrap_err();
        assert_eq!(rej.window, (-3, -1));
        assert_eq!(rej.demand, 3);
        assert_eq!(rej.capacity, 2);
    }

    #[test]
    fn never_rejects_a_schedulable_stream() {
        // A staircase of back-to-back saturated windows at g = 1: every
        // interval is filled exactly to capacity, none over.
        let feasible: Vec<(i64, i64, i64)> = (0..40i64).map(|k| (2 * k, 2 * k + 2, 2)).collect();
        assert_eq!(admission_precheck(&inst(1, &feasible)), Ok(()));
        // Overlapping chains at g = 2 that sum to capacity on [0, 42).
        let overlapping: Vec<(i64, i64, i64)> = (0..40i64)
            .flat_map(|k| [(k, k + 3, 1), (k, k + 2, 1)])
            .collect();
        assert_eq!(admission_precheck(&inst(2, &overlapping)), Ok(()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn the_verdict_decomposes_over_components(
            g in 1usize..4,
            raw in proptest::collection::vec((0i64..5, 0i64..10, 1i64..4, 0i64..4), 1..30),
        ) {
            // Up to five clusters 14 apart; the widest windows reach into
            // the next cluster, so clusters sometimes merge.
            let jobs: Vec<(i64, i64, i64)> = raw
                .iter()
                .map(|&(c, t, p, slack)| (14 * c + t, 14 * c + t + p + slack, p))
                .collect();
            let whole = inst(g, &jobs);
            let runs = slot_runs(&whole);
            let mut first: Option<AdmissionReject> = None;
            for comp in components(&whole, &runs, DecomposeMode::Auto) {
                let sub = Instance::new(comp.jobs.iter().map(|&j| *whole.job(j)).collect(), g)
                    .unwrap();
                let Err(rej) = admission_precheck(&sub) else {
                    continue;
                };
                // The witness is a real violation of the whole instance.
                let (a, b) = rej.window;
                let confined: i64 = whole
                    .jobs()
                    .iter()
                    .filter(|j| a <= j.release && j.deadline <= b)
                    .map(|j| j.length)
                    .sum();
                prop_assert_eq!(confined, rej.demand);
                prop_assert_eq!(rej.capacity, g as i64 * (b - a));
                prop_assert!(confined > rej.capacity, "{:?}", rej);
                first.get_or_insert(rej);
            }
            match (admission_precheck(&whole), first) {
                (Ok(()), None) => {}
                // The first failing component, in time order, fails at the
                // whole sweep's first violated deadline.
                (Err(w), Some(f)) => prop_assert_eq!(w.window.1, f.window.1),
                (w, f) => {
                    return Err(TestCaseError::fail(format!(
                        "whole instance {w:?}, components {f:?}"
                    )))
                }
            }
        }
    }
}
