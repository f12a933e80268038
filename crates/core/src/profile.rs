//! Interesting intervals and the demand profile (Definitions 11–13).
//!
//! For a set of *placed* intervals (interval jobs, or flexible jobs whose
//! start times have been fixed), an **interesting interval** is a maximal
//! interval in which no job begins or ends. The **raw demand** `|A(t)|` is
//! constant over an interesting interval; the **demand** is
//! `D(t) = ⌈|A(t)|/g⌉`. The **demand profile** is the sequence of
//! `(interesting interval, raw demand)` pairs, and
//! `Σ_i D(I_i)·ℓ(I_i)` lower-bounds the optimal busy time (Observation 4):
//! any feasible solution keeps `⌈|A(I_i)|/g⌉` machines busy throughout
//! `I_i`.

use crate::time::{Interval, Time};

/// The demand profile of a collection of placed intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemandProfile {
    /// `(interesting interval, raw demand over it)`, sorted by time, with
    /// zero-demand gaps included between the min and max breakpoints.
    segments: Vec<(Interval, usize)>,
}

impl DemandProfile {
    /// Builds the profile of `intervals` (empty intervals are ignored).
    pub fn new(intervals: &[Interval]) -> Self {
        let mut events: Vec<(Time, i32)> = Vec::with_capacity(intervals.len() * 2);
        for iv in intervals {
            if !iv.is_empty() {
                events.push((iv.start, 1));
                events.push((iv.end, -1));
            }
        }
        events.sort_unstable();
        let mut segments = Vec::new();
        let mut cur = 0i32;
        let mut idx = 0;
        while idx < events.len() {
            let t = events[idx].0;
            // Close the previous segment at t.
            if let Some(&(prev_t, _)) = events.get(idx.wrapping_sub(1)).filter(|_| idx > 0) {
                if prev_t < t && cur != 0 {
                    segments.push((Interval::new(prev_t, t), cur as usize));
                } else if prev_t < t {
                    segments.push((Interval::new(prev_t, t), 0));
                }
            }
            while idx < events.len() && events[idx].0 == t {
                cur += events[idx].1;
                idx += 1;
            }
        }
        DemandProfile { segments }
    }

    /// The `(interesting interval, raw demand)` segments, including
    /// zero-demand gaps interior to the horizon.
    pub fn segments(&self) -> &[(Interval, usize)] {
        &self.segments
    }

    /// Raw demand `|A(t)|` at a time point (0 outside the horizon).
    pub fn raw_demand_at(&self, t: Time) -> usize {
        self.segments
            .iter()
            .find(|(iv, _)| iv.contains(t))
            .map(|&(_, d)| d)
            .unwrap_or(0)
    }

    /// The profile lower bound `Σ_i ⌈|A(I_i)|/g⌉ · ℓ(I_i)` on optimal busy
    /// time (Observation 4).
    pub fn cost(&self, g: usize) -> i64 {
        self.segments
            .iter()
            .map(|&(iv, d)| div_ceil(d, g) as i64 * iv.len())
            .sum()
    }

    /// Σ over segments of raw demand × length = total mass of the intervals.
    pub fn mass(&self) -> i64 {
        self.segments
            .iter()
            .map(|&(iv, d)| d as i64 * iv.len())
            .sum()
    }

    /// Measure of `{t : |A(t)| ≥ 1}` — the span of the placed intervals.
    pub fn span(&self) -> i64 {
        self.segments
            .iter()
            .filter(|&&(_, d)| d > 0)
            .map(|&(iv, _)| iv.len())
            .sum()
    }

    /// Maximum raw demand over the horizon.
    pub fn max_raw_demand(&self) -> usize {
        self.segments.iter().map(|&(_, d)| d).max().unwrap_or(0)
    }

    /// Dummy intervals that raise every positive-demand segment's raw demand
    /// to the next multiple of `g` without changing the demand `D`
    /// (the padding step of Kumar–Rudra / Alicherry–Bhatia, Appendix A:
    /// adding `(c+1)g − |A(I_i)|` jobs spanning `I_i` when
    /// `cg < |A(I_i)| ≤ (c+1)g`).
    pub fn padding_to_multiple(&self, g: usize) -> Vec<Interval> {
        let mut dummies = Vec::new();
        for &(iv, d) in &self.segments {
            if d == 0 {
                continue;
            }
            let target = div_ceil(d, g) * g;
            for _ in d..target {
                dummies.push(iv);
            }
        }
        dummies
    }
}

#[inline]
fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ivs() -> Vec<Interval> {
        vec![
            Interval::new(0, 4),
            Interval::new(2, 6),
            Interval::new(2, 6),
            Interval::new(8, 10),
        ]
    }

    #[test]
    fn segments_partition_horizon() {
        let p = DemandProfile::new(&ivs());
        let segs = p.segments();
        assert_eq!(
            segs,
            &[
                (Interval::new(0, 2), 1),
                (Interval::new(2, 4), 3),
                (Interval::new(4, 6), 2),
                (Interval::new(6, 8), 0),
                (Interval::new(8, 10), 1),
            ]
        );
        // At most 2n interesting intervals (Definition 12 discussion).
        assert!(segs.len() <= 2 * ivs().len());
    }

    #[test]
    fn demand_queries() {
        let p = DemandProfile::new(&ivs());
        assert_eq!(p.raw_demand_at(0), 1);
        assert_eq!(p.raw_demand_at(3), 3);
        assert_eq!(p.raw_demand_at(7), 0);
        assert_eq!(p.raw_demand_at(-1), 0);
        assert_eq!(p.raw_demand_at(10), 0);
    }

    #[test]
    fn profile_cost_and_mass_and_span() {
        let p = DemandProfile::new(&ivs());
        // g = 2: ceil demands are 1,2,1,0,1 over lengths 2,2,2,2,2
        assert_eq!(p.cost(2), (2 + 4 + 2) + 2);
        assert_eq!(p.mass(), 4 + 4 + 4 + 2);
        assert_eq!(p.span(), 6 + 2);
        assert_eq!(p.max_raw_demand(), 3);
    }

    #[test]
    fn profile_cost_with_g1_is_mass() {
        let p = DemandProfile::new(&ivs());
        assert_eq!(p.cost(1), p.mass());
    }

    #[test]
    fn padding_makes_multiples_without_changing_demand() {
        let p = DemandProfile::new(&ivs());
        let g = 2;
        let dummies = p.padding_to_multiple(g);
        let mut all = ivs();
        all.extend(dummies);
        let padded = DemandProfile::new(&all);
        for &(iv, d) in padded.segments() {
            if d > 0 {
                assert_eq!(d % g, 0, "segment {iv} has non-multiple demand {d}");
            }
        }
        assert_eq!(
            padded.cost(g),
            p.cost(g),
            "padding must not change the profile bound"
        );
    }

    #[test]
    fn empty_profile() {
        let p = DemandProfile::new(&[]);
        assert!(p.segments().is_empty());
        assert_eq!(p.cost(3), 0);
        assert_eq!(p.span(), 0);
        assert_eq!(p.max_raw_demand(), 0);
    }
}
