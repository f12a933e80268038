//! Problem instances: a set of jobs plus the parallelism bound `g`.

use crate::error::{Error, Result};
use crate::jobs::{Job, JobId};
use crate::time::{Interval, IntervalSet, Time};

/// A scheduling instance for either model: jobs `J` and the machine
/// capacity / parallelism parameter `g` (at most `g` jobs run concurrently
/// on one machine).
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Instance {
    jobs: Vec<Job>,
    g: usize,
}

impl Instance {
    /// Creates an instance, validating every job and `g ≥ 1`.
    pub fn new(jobs: Vec<Job>, g: usize) -> Result<Self> {
        if g == 0 {
            return Err(Error::InvalidInstance(
                "capacity g must be at least 1".into(),
            ));
        }
        for (idx, j) in jobs.iter().enumerate() {
            if j.length < 1 {
                return Err(Error::InvalidJob {
                    job: idx,
                    reason: format!("length {} must be positive", j.length),
                });
            }
            // `Job::try_new`'s rule: a window end past `i64` is too short.
            if j.release
                .checked_add(j.length)
                .is_none_or(|end| end > j.deadline)
            {
                return Err(Error::InvalidJob {
                    job: idx,
                    reason: format!(
                        "window [{}, {}) too short for length {}",
                        j.release, j.deadline, j.length
                    ),
                });
            }
        }
        Ok(Instance { jobs, g })
    }

    /// Builds an instance from `(release, deadline, length)` triples.
    pub fn from_triples<I: IntoIterator<Item = (Time, Time, i64)>>(
        iter: I,
        g: usize,
    ) -> Result<Self> {
        Instance::new(
            iter.into_iter()
                .map(|(r, d, p)| Job {
                    release: r,
                    deadline: d,
                    length: p,
                })
                .collect(),
            g,
        )
    }

    /// The jobs, indexed by [`JobId`].
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Job by id.
    #[inline]
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id]
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the instance has no jobs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The parallelism bound `g`.
    #[inline]
    pub fn g(&self) -> usize {
        self.g
    }

    /// Returns a copy with a different capacity.
    pub fn with_g(&self, g: usize) -> Result<Self> {
        Instance::new(self.jobs.clone(), g)
    }

    /// Total processing mass `P = Σ_j p_j`.
    pub fn total_length(&self) -> i64 {
        self.jobs.iter().map(|j| j.length).sum()
    }

    /// Earliest release time (0 for an empty instance).
    pub fn min_release(&self) -> Time {
        self.jobs.iter().map(|j| j.release).min().unwrap_or(0)
    }

    /// Latest deadline `T = max_j d_j` (0 for an empty instance).
    pub fn max_deadline(&self) -> Time {
        self.jobs.iter().map(|j| j.deadline).max().unwrap_or(0)
    }

    /// The horizon `[min_release, max_deadline)`.
    pub fn horizon(&self) -> Interval {
        Interval::new(
            self.min_release(),
            self.max_deadline().max(self.min_release()),
        )
    }

    /// Whether every job is an interval job (`p_j = d_j − r_j`).
    pub fn is_interval_instance(&self) -> bool {
        self.jobs.iter().all(Job::is_interval)
    }

    /// Union of all job *windows*.
    pub fn window_union(&self) -> IntervalSet {
        self.jobs.iter().map(|j| j.window()).collect()
    }

    /// For an interval instance: the span `Sp(J)` of the (fixed) job
    /// intervals — the paper's `OPT_∞(J)` for interval jobs
    /// (Observation 3 discussion). Errors on flexible jobs.
    pub fn interval_span(&self) -> Result<i64> {
        if !self.is_interval_instance() {
            return Err(Error::Unsupported(
                "interval_span requires an instance of interval jobs".into(),
            ));
        }
        Ok(self.window_union().measure())
    }

    /// Converts a flexible instance into an instance of interval jobs given a
    /// start time for every job (the "fix the positions" step used after the
    /// unbounded-`g` placement, §4.3). Validates the starts.
    pub fn fix_starts(&self, starts: &[Time]) -> Result<Instance> {
        if starts.len() != self.jobs.len() {
            return Err(Error::InvalidInstance(format!(
                "got {} start times for {} jobs",
                starts.len(),
                self.jobs.len()
            )));
        }
        let mut jobs = Vec::with_capacity(self.jobs.len());
        for (idx, (j, &s)) in self.jobs.iter().zip(starts).enumerate() {
            let run = j.run_at(s).ok_or_else(|| Error::InvalidJob {
                job: idx,
                reason: format!(
                    "start {s} outside window [{}, {}]",
                    j.release,
                    j.latest_start()
                ),
            })?;
            jobs.push(Job::interval(run.start, run.end));
        }
        Instance::new(jobs, self.g)
    }

    /// Job ids sorted by non-increasing length, ties broken by release then id
    /// (the deterministic order used by FirstFit).
    pub fn ids_by_length_desc(&self) -> Vec<JobId> {
        let mut ids: Vec<JobId> = (0..self.jobs.len()).collect();
        ids.sort_by_key(|&i| {
            let j = &self.jobs[i];
            (std::cmp::Reverse(j.length), j.release, i)
        });
        ids
    }

    /// Job ids sorted by deadline, ties by release then id (EDF order).
    pub fn ids_by_deadline(&self) -> Vec<JobId> {
        let mut ids: Vec<JobId> = (0..self.jobs.len()).collect();
        ids.sort_by_key(|&i| {
            let j = &self.jobs[i];
            (j.deadline, j.release, i)
        });
        ids
    }

    /// Appends a job, returning its id.
    pub fn push(&mut self, job: Job) -> JobId {
        self.jobs.push(job);
        self.jobs.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Instance {
        Instance::from_triples([(0, 4, 2), (1, 3, 2), (2, 8, 3)], 2).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let inst = demo();
        assert_eq!(inst.len(), 3);
        assert_eq!(inst.g(), 2);
        assert_eq!(inst.total_length(), 7);
        assert_eq!(inst.min_release(), 0);
        assert_eq!(inst.max_deadline(), 8);
        assert_eq!(inst.horizon(), Interval::new(0, 8));
        assert!(!inst.is_interval_instance());
    }

    #[test]
    fn rejects_invalid() {
        assert!(Instance::from_triples([(0, 4, 2)], 0).is_err());
        assert!(Instance::from_triples([(0, 4, 5)], 1).is_err());
        assert!(Instance::from_triples([(0, 4, 0)], 1).is_err());
        // A job whose window end `r + p` is past `i64`.
        assert!(matches!(
            Instance::from_triples([(i64::MAX - 1, i64::MAX, 5)], 1),
            Err(Error::InvalidJob { job: 0, .. })
        ));
    }

    #[test]
    fn interval_detection_and_span() {
        let inst = Instance::new(
            vec![
                Job::interval(0, 3),
                Job::interval(2, 6),
                Job::interval(10, 12),
            ],
            2,
        )
        .unwrap();
        assert!(inst.is_interval_instance());
        assert_eq!(inst.interval_span().unwrap(), 6 + 2);
        assert!(demo().interval_span().is_err());
    }

    #[test]
    fn fix_starts_converts_to_interval_jobs() {
        let inst = demo();
        let fixed = inst.fix_starts(&[1, 1, 4]).unwrap();
        assert!(fixed.is_interval_instance());
        assert_eq!(fixed.job(0).window(), Interval::new(1, 3));
        assert_eq!(fixed.job(2).window(), Interval::new(4, 7));
        assert!(inst.fix_starts(&[3, 1, 4]).is_err()); // job 0 can start at 2 the latest
        assert!(inst.fix_starts(&[1, 1]).is_err());
    }

    #[test]
    fn orderings() {
        let inst = demo();
        assert_eq!(inst.ids_by_length_desc(), vec![2, 0, 1]);
        assert_eq!(inst.ids_by_deadline(), vec![1, 0, 2]);
    }
}
