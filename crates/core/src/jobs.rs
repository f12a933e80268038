//! Jobs: the common input object for both the active-time and busy-time
//! models.
//!
//! A job `j` has a release time `r_j`, a deadline `d_j` and a processing
//! length `p_j` with `r_j + p_j ≤ d_j`. In the **active-time** model these
//! are integral and the job occupies `p_j` (not necessarily consecutive)
//! unit slots inside its window. In the **busy-time** model the job runs
//! non-preemptively as the interval `[s_j, s_j + p_j)` for a chosen start
//! `s_j ∈ [r_j, d_j − p_j]`.

use crate::time::{Interval, Time};

/// Identifier of a job: its index in the owning [`crate::Instance`].
pub type JobId = usize;

/// A single job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Job {
    /// Release time `r_j`: the job cannot run before this.
    pub release: Time,
    /// Deadline `d_j`: the job must finish by this.
    pub deadline: Time,
    /// Processing length `p_j > 0`.
    pub length: i64,
}

impl Job {
    /// Creates a job; panics if parameters are inconsistent. Use
    /// [`Job::try_new`] for fallible construction.
    pub fn new(release: Time, deadline: Time, length: i64) -> Self {
        Job::try_new(release, deadline, length).expect("invalid job parameters")
    }

    /// Fallible constructor enforcing `p ≥ 1` and `r + p ≤ d`.
    pub fn try_new(release: Time, deadline: Time, length: i64) -> Option<Self> {
        if length < 1 || release.checked_add(length)? > deadline {
            return None;
        }
        Some(Job {
            release,
            deadline,
            length,
        })
    }

    /// Convenience constructor for an **interval job** (`d = r + p`,
    /// Definition 8): the job has no slack and must run as `[r, d)`.
    pub fn interval(release: Time, end: Time) -> Self {
        Job::new(release, end, end - release)
    }

    /// The job's window `[r_j, d_j)`.
    #[inline]
    pub fn window(&self) -> Interval {
        Interval::new(self.release, self.deadline)
    }

    /// Scheduling slack `d_j − r_j − p_j` (0 for interval jobs).
    #[inline]
    pub fn slack(&self) -> i64 {
        self.deadline - self.release - self.length
    }

    /// Whether this is an interval job (`p_j = d_j − r_j`).
    #[inline]
    pub fn is_interval(&self) -> bool {
        self.slack() == 0
    }

    /// Latest feasible non-preemptive start time `d_j − p_j`.
    #[inline]
    pub fn latest_start(&self) -> Time {
        self.deadline - self.length
    }

    /// The run interval `[s, s + p_j)` for start time `s`; `None` if `s`
    /// violates the window.
    pub fn run_at(&self, start: Time) -> Option<Interval> {
        if start < self.release || start > self.latest_start() {
            return None;
        }
        Some(Interval::new(start, start + self.length))
    }
}

impl std::fmt::Display for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "r={} d={} p={}",
            self.release, self.deadline, self.length
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_construction_and_accessors() {
        let j = Job::new(2, 10, 3);
        assert_eq!(j.window(), Interval::new(2, 10));
        assert_eq!(j.slack(), 5);
        assert_eq!(j.latest_start(), 7);
        assert!(!j.is_interval());
    }

    #[test]
    fn try_new_rejects_bad_jobs() {
        assert!(Job::try_new(0, 5, 0).is_none());
        assert!(Job::try_new(0, 5, -1).is_none());
        assert!(Job::try_new(0, 5, 6).is_none());
        assert!(Job::try_new(3, 3, 1).is_none());
        assert!(Job::try_new(0, 5, 5).is_some());
        assert!(Job::try_new(i64::MAX - 1, i64::MAX, 2).is_none()); // overflow-safe
    }

    #[test]
    fn interval_jobs() {
        let j = Job::interval(4, 9);
        assert!(j.is_interval());
        assert_eq!(j.length, 5);
    }

    #[test]
    fn run_at_respects_window() {
        let j = Job::new(2, 10, 3);
        assert_eq!(j.run_at(2), Some(Interval::new(2, 5)));
        assert_eq!(j.run_at(7), Some(Interval::new(7, 10)));
        assert_eq!(j.run_at(1), None);
        assert_eq!(j.run_at(8), None);
    }

    #[test]
    fn liveness() {
        // A job is live at `t ∈ [r_j, d_j)` in the busy-time sense
        // (Definition 11): its window contains `t`.
        let j = Job::new(2, 10, 3).window();
        assert!(!j.contains(1));
        assert!(j.contains(2));
        assert!(j.contains(9));
        assert!(!j.contains(10));
    }
}
