//! Lower bounds on optimal cost, for both models.
//!
//! Busy time (Observations 2–4): the **mass bound** `ℓ(J)/g`, the **span
//! bound** `OPT_∞(J)`, and — for placed/interval jobs — the strictly
//! stronger **demand-profile bound** `Σ_i ⌈|A(I_i)|/g⌉·ℓ(I_i)`.
//!
//! Active time: per connected component of the job windows, `⌈P_c/g⌉`
//! (every active slot holds at most `g` units) and the longest job (each
//! unit of a job needs its own slot), summed over the components.

use crate::instance::Instance;
use crate::jobs::Job;
use crate::profile::DemandProfile;

/// Lower bounds for the busy-time objective on an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyBounds {
    /// `⌈ℓ(J)/g⌉` (Observation 2, rounded up — costs are integer ticks).
    pub mass: i64,
    /// For interval instances: the span `Sp(J) = OPT_∞` (Observation 3).
    /// For flexible instances this field is the span of the *window union*,
    /// which is a valid but weaker bound; use the span solvers in `abt-busy`
    /// for the true `OPT_∞`.
    pub span: i64,
    /// For interval instances: the demand-profile bound (Observation 4).
    /// 0 for flexible instances (profile undefined before placement).
    pub profile: i64,
}

impl BusyBounds {
    /// The best (largest) of the bounds.
    pub fn best(&self) -> i64 {
        self.mass.max(self.span).max(self.profile)
    }
}

/// Computes the busy-time lower bounds for `inst`.
pub fn busy_lower_bounds(inst: &Instance) -> BusyBounds {
    let g = i64::try_from(inst.g()).unwrap_or(i64::MAX);
    let mass = div_ceil_i64(inst.total_length(), g);
    if inst.is_interval_instance() {
        let ivs: Vec<_> = inst.jobs().iter().map(|j| j.window()).collect();
        let profile = DemandProfile::new(&ivs).cost(inst.g());
        let span = inst.window_union().measure();
        BusyBounds {
            mass,
            span,
            profile,
        }
    } else {
        // Window union over-covers what jobs can occupy, but every busy
        // instant lies inside some window, and OPT_∞ ≥ ... is NOT implied by
        // the window union; the only always-valid cheap bounds here are mass
        // and the largest single job length.
        let longest = inst.jobs().iter().map(|j| j.length).max().unwrap_or(0);
        BusyBounds {
            mass,
            span: longest,
            profile: 0,
        }
    }
}

/// Lower bound for the active-time objective: the sum, over the connected
/// components of the job-window interval graph, of `max(⌈P_c/g⌉,
/// max_{j∈c} p_j)`, where `P_c` is the component's total length.
/// Components share no slot, so their optima add; inside one, an active
/// slot holds at most `g` units and a job needs `p_j` distinct slots. The
/// sum is never below `⌈P/g⌉` and never above OPT. O(n log n): the jobs
/// are swept in release order, and a job joins the current component
/// while its release is before the component's end (a window `[r, d)`
/// covers the slots `r + 1 ..= d`).
pub fn active_lower_bound(inst: &Instance) -> i64 {
    let g = i64::try_from(inst.g()).unwrap_or(i64::MAX);
    let mut jobs: Vec<&Job> = inst.jobs().iter().collect();
    jobs.sort_unstable_by_key(|j| j.release);
    let mut jobs = jobs.into_iter().peekable();
    let mut bound = 0;
    while let Some(first) = jobs.next() {
        let (mut end, mut mass, mut longest) = (first.deadline, first.length, first.length);
        while let Some(j) = jobs.next_if(|j| j.release < end) {
            end = end.max(j.deadline);
            mass += j.length;
            longest = longest.max(j.length);
        }
        bound += div_ceil_i64(mass, g).max(longest);
    }
    bound
}

/// `⌈a / b⌉` for `a ≥ 0` and `b ≥ 1`, with no intermediate that can
/// overflow (`a + b − 1` does for `b` near `i64::MAX`).
#[inline]
fn div_ceil_i64(a: i64, b: i64) -> i64 {
    a / b + i64::from(a % b != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mass_bound_can_be_weak() {
        // g disjoint unit interval jobs (the paper's example after Obs. 3):
        // mass bound is 1 (with g = 4), optimal is 4.
        let g = 4usize;
        let jobs: Vec<Job> = (0..g as i64)
            .map(|i| Job::interval(2 * i, 2 * i + 1))
            .collect();
        let inst = Instance::new(jobs, g).unwrap();
        let b = busy_lower_bounds(&inst);
        assert_eq!(b.mass, 1);
        assert_eq!(b.span, g as i64); // span bound is tight here
        assert_eq!(b.profile, g as i64);
    }

    #[test]
    fn span_bound_can_be_weak() {
        // g² identical unit interval jobs: span bound is 1, optimal is g.
        let g = 4usize;
        let jobs: Vec<Job> = (0..g * g).map(|_| Job::interval(0, 1)).collect();
        let inst = Instance::new(jobs, g).unwrap();
        let b = busy_lower_bounds(&inst);
        assert_eq!(b.span, 1);
        assert_eq!(b.mass, g as i64); // mass bound is tight here
        assert_eq!(b.profile, g as i64); // profile bound matches
        assert_eq!(b.best(), g as i64);
    }

    #[test]
    fn profile_dominates_both_weak_bounds() {
        // Mixed instance where profile > max(mass, span).
        let jobs = vec![
            Job::interval(0, 2),
            Job::interval(0, 2),
            Job::interval(0, 2),
            Job::interval(10, 11),
        ];
        let inst = Instance::new(jobs, 2).unwrap();
        let b = busy_lower_bounds(&inst);
        assert_eq!(b.mass, 4); // ceil(7/2)
        assert_eq!(b.span, 3);
        assert_eq!(b.profile, 2 * 2 + 1); // ceil(3/2)*2 + 1
        assert_eq!(b.best(), 5);
    }

    #[test]
    fn active_bound_combines_mass_and_covering() {
        // One component of four unit jobs, g = 2: ⌈4/2⌉ = 2.
        let inst = Instance::from_triples([(0, 2, 1), (0, 2, 1), (0, 2, 1), (0, 9, 1)], 2).unwrap();
        assert_eq!(active_lower_bound(&inst), 2);
        // Mass bound dominates when windows are loose.
        let inst2 = Instance::from_triples([(0, 100, 30), (0, 100, 30)], 1).unwrap();
        assert_eq!(active_lower_bound(&inst2), 60);
        // A job needs a slot per unit, whatever `g` is.
        let long = Instance::from_triples([(0, 10, 10)], 3).unwrap();
        assert_eq!(active_lower_bound(&long), 10);
    }

    #[test]
    fn active_bound_sums_the_components() {
        // Windows that only touch share no slot: three components, each
        // needing its own slots. ⌈P/g⌉ alone would read ⌈5/3⌉ = 2.
        let inst =
            Instance::from_triples([(0, 3, 2), (3, 6, 1), (1, 2, 1), (10, 12, 1)], 3).unwrap();
        assert_eq!(active_lower_bound(&inst), 2 + 1 + 1);
        // A late release still joins a component its window overlaps.
        let chain = Instance::from_triples([(0, 4, 1), (5, 9, 1), (3, 6, 3)], 1).unwrap();
        assert_eq!(active_lower_bound(&chain), 5);
        assert_eq!(active_lower_bound(&Instance::new(vec![], 2).unwrap()), 0);
    }
}
