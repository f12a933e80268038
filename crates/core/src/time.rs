//! Integer time ("ticks"), half-open intervals, and interval-set measure.
//!
//! The busy-time model of the paper allows real-valued release times,
//! deadlines and start times. Every construction in the paper, however, only
//! ever distinguishes the O(2n) *interesting intervals* between consecutive
//! job endpoints, so an exact integer representation loses nothing: we scale
//! all inputs to integer **ticks** (`Time = i64`). Gadgets that use an
//! infinitesimal ε (Figs. 6–12) are generated with ε = 1 tick and the unit
//! length = some large `SCALE`, keeping all arithmetic exact.

/// A point in time, measured in integer ticks.
pub type Time = i64;

/// A half-open time interval `[start, end)`.
///
/// The paper (Definition 9) writes intervals as `I = [a, b)` with length
/// `ℓ(I) = b − a`; we keep exactly that convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Interval {
    /// Inclusive left endpoint.
    pub start: Time,
    /// Exclusive right endpoint.
    pub end: Time,
}

impl Interval {
    /// Creates `[start, end)`. Panics if `end < start` (empty intervals with
    /// `end == start` are allowed and have length 0).
    #[inline]
    pub fn new(start: Time, end: Time) -> Self {
        assert!(end >= start, "interval end {end} precedes start {start}");
        Interval { start, end }
    }

    /// Length `ℓ(I) = end − start` (the paper's Definition 9; for a single
    /// interval the span equals the length).
    #[inline]
    pub fn len(&self) -> i64 {
        self.end - self.start
    }

    /// Whether the interval is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether time point `t` lies in `[start, end)`.
    #[inline]
    pub fn contains(&self, t: Time) -> bool {
        self.start <= t && t < self.end
    }

    /// Whether `self` fully contains `other`.
    #[inline]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Whether the two intervals overlap on a set of positive measure.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Intersection `self ∩ other`, or `None` if it has measure zero.
    #[inline]
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let s = self.start.max(other.start);
        let e = self.end.min(other.end);
        if s < e {
            Some(Interval { start: s, end: e })
        } else {
            None
        }
    }

    /// The smallest interval containing both (the "hull").
    #[inline]
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Shifts the interval by `delta` ticks.
    #[inline]
    pub fn shift(&self, delta: i64) -> Interval {
        Interval {
            start: self.start + delta,
            end: self.end + delta,
        }
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A set of disjoint, sorted, non-adjacent half-open intervals.
///
/// This is the workhorse for busy-time bookkeeping: the busy time of a
/// machine is the measure of the union of its jobs' intervals
/// (`Sp(S)` in Definition 10), and the span of an instance is the measure of
/// the union of all job intervals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    parts: Vec<Interval>,
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        IntervalSet { parts: Vec::new() }
    }

    /// Builds the union of arbitrary (possibly overlapping, unsorted)
    /// intervals, merging touching pieces.
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        let mut v: Vec<Interval> = iter.into_iter().filter(|i| !i.is_empty()).collect();
        v.sort_unstable();
        let mut parts: Vec<Interval> = Vec::with_capacity(v.len());
        for iv in v {
            match parts.last_mut() {
                Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
                _ => parts.push(iv),
            }
        }
        IntervalSet { parts }
    }

    /// Inserts one interval, keeping the canonical merged form.
    pub fn insert(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        // Find the insertion window of intervals that touch `iv`.
        let lo = self.parts.partition_point(|p| p.end < iv.start);
        let hi = self.parts.partition_point(|p| p.start <= iv.end);
        if lo == hi {
            self.parts.insert(lo, iv);
        } else {
            let start = self.parts[lo].start.min(iv.start);
            let end = self.parts[hi - 1].end.max(iv.end);
            self.parts
                .splice(lo..hi, std::iter::once(Interval { start, end }));
        }
    }

    /// Total measure of the set (`Sp` of the underlying union).
    pub fn measure(&self) -> i64 {
        self.parts.iter().map(Interval::len).sum()
    }

    /// The maximal disjoint components, sorted.
    pub fn components(&self) -> &[Interval] {
        &self.parts
    }

    /// Whether `t` is covered.
    pub fn contains(&self, t: Time) -> bool {
        let i = self.parts.partition_point(|p| p.end <= t);
        i < self.parts.len() && self.parts[i].contains(t)
    }

    /// Whether the whole interval `iv` is covered.
    pub fn covers(&self, iv: &Interval) -> bool {
        if iv.is_empty() {
            return true;
        }
        let i = self.parts.partition_point(|p| p.end <= iv.start);
        i < self.parts.len() && self.parts[i].contains_interval(iv)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        IntervalSet::from_intervals(iter)
    }
}

/// Span of a collection of intervals: the measure of their union
/// (Definition 10, "projection onto the time axis").
pub fn span<I: IntoIterator<Item = Interval>>(iter: I) -> i64 {
    IntervalSet::from_intervals(iter).measure()
}

/// Sum of interval lengths (the paper's "mass" / `ℓ(S)`, Definition 10).
pub fn mass<'a, I: IntoIterator<Item = &'a Interval>>(iter: I) -> i64 {
    iter.into_iter().map(Interval::len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let a = Interval::new(2, 7);
        assert_eq!(a.len(), 5);
        assert!(a.contains(2));
        assert!(!a.contains(7));
        assert!(!a.is_empty());
        assert!(Interval::new(3, 3).is_empty());
    }

    #[test]
    fn interval_overlap_and_intersection() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 15);
        let c = Interval::new(10, 20);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // half-open: touching is not overlapping
        assert_eq!(a.intersect(&b), Some(Interval::new(5, 10)));
        assert_eq!(a.intersect(&c), None);
        assert_eq!(a.hull(&c), Interval::new(0, 20));
    }

    #[test]
    #[should_panic]
    fn interval_rejects_reversed_endpoints() {
        let _ = Interval::new(5, 4);
    }

    #[test]
    fn union_merges_overlapping_and_touching() {
        let s = IntervalSet::from_intervals([
            Interval::new(0, 3),
            Interval::new(2, 5),
            Interval::new(5, 7), // touching: merged
            Interval::new(9, 12),
        ]);
        assert_eq!(s.components(), &[Interval::new(0, 7), Interval::new(9, 12)]);
        assert_eq!(s.measure(), 10);
        assert_eq!(s.components().len(), 2);
    }

    #[test]
    fn insert_matches_bulk_union() {
        let ivs = [
            Interval::new(10, 20),
            Interval::new(0, 5),
            Interval::new(4, 11),
            Interval::new(30, 31),
            Interval::new(19, 30),
        ];
        let bulk = IntervalSet::from_intervals(ivs);
        let mut inc = IntervalSet::new();
        for iv in ivs {
            inc.insert(iv);
        }
        assert_eq!(bulk, inc);
        assert_eq!(inc.measure(), 31);
        assert_eq!(inc.components().len(), 1);
    }

    #[test]
    fn insert_between_components() {
        let mut s = IntervalSet::from_intervals([Interval::new(0, 2), Interval::new(10, 12)]);
        s.insert(Interval::new(5, 6));
        assert_eq!(s.components().len(), 3);
        s.insert(Interval::new(1, 11));
        assert_eq!(s.components().len(), 1);
        assert_eq!(s.measure(), 12);
    }

    #[test]
    fn coverage_queries() {
        let s = IntervalSet::from_intervals([Interval::new(0, 5), Interval::new(8, 12)]);
        assert!(s.contains(0));
        assert!(!s.contains(5));
        assert!(s.contains(11));
        assert!(s.covers(&Interval::new(1, 4)));
        assert!(!s.covers(&Interval::new(4, 9)));
    }

    #[test]
    fn span_and_mass() {
        let ivs = [
            Interval::new(0, 4),
            Interval::new(2, 6),
            Interval::new(10, 11),
        ];
        assert_eq!(span(ivs), 7);
        assert_eq!(mass(ivs.iter()), 9);
    }

    #[test]
    fn span_of_pair_matches_definition_10() {
        // Sp({I, I'}) = ℓ(I) + Sp(I') − ℓ(I ∩ I')
        let i1 = Interval::new(0, 6);
        let i2 = Interval::new(4, 9);
        let lhs = span([i1, i2]);
        let overlap = i1.intersect(&i2).map_or(0, |iv| iv.len());
        let rhs = i1.len() + i2.len() - overlap;
        assert_eq!(lhs, rhs);
    }
}
