//! Busy time with job **widths** (the Khandekar et al. generalization the
//! paper discusses in §1): each job demands `w_j ≤ g` units of its
//! machine's capacity, and the running jobs' total width may not exceed
//! `g`. The paper's unit-width results are the special case `w_j = 1`.
//!
//! The 5-approximation splits jobs by width: **wide** jobs (`w_j > g/2`)
//! cannot share a machine pairwise, so each gets its own machine — that
//! costs exactly their span sum, at most 2× the optimum restricted to wide
//! jobs (any machine runs at most one wide job at a time, making wide jobs
//! a unit-capacity sub-instance). **Narrow** jobs (`w_j ≤ g/2`) go through
//! width-aware FirstFit in non-increasing length order.

use crate::firstfit::fits;
use abt_core::{Error, IntervalSet, Job, JobId, Result, Time};

/// A job with a capacity demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideJob {
    /// The underlying (interval) job.
    pub job: Job,
    /// Capacity demand `1 ≤ w ≤ g`.
    pub width: usize,
}

/// An instance of width-demand interval jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidthInstance {
    jobs: Vec<WideJob>,
    g: usize,
}

impl WidthInstance {
    /// Builds an instance; every job must be an interval job with
    /// `1 ≤ width ≤ g`.
    pub fn new(jobs: Vec<WideJob>, g: usize) -> Result<Self> {
        if g == 0 {
            return Err(Error::InvalidInstance(
                "capacity g must be at least 1".into(),
            ));
        }
        for (i, wj) in jobs.iter().enumerate() {
            if !wj.job.is_interval() {
                return Err(Error::InvalidJob {
                    job: i,
                    reason: "width-demand scheduling requires interval jobs".into(),
                });
            }
            if wj.width == 0 || wj.width > g {
                return Err(Error::InvalidJob {
                    job: i,
                    reason: format!("width {} outside 1..={g}", wj.width),
                });
            }
        }
        Ok(WidthInstance { jobs, g })
    }

    /// The jobs.
    pub fn jobs(&self) -> &[WideJob] {
        &self.jobs
    }

    /// Machine capacity.
    pub fn g(&self) -> usize {
        self.g
    }

    /// The width-weighted mass bound `⌈Σ w_j·p_j / g⌉ ≤ OPT`.
    pub fn mass_bound(&self) -> i64 {
        let mass: i64 = self
            .jobs
            .iter()
            .map(|wj| wj.width as i64 * wj.job.length)
            .sum();
        (mass + self.g as i64 - 1) / self.g as i64
    }

    /// The span bound `Sp(J) ≤ OPT`.
    pub fn span_bound(&self) -> i64 {
        IntervalSet::from_intervals(self.jobs.iter().map(|wj| wj.job.window())).measure()
    }
}

/// A machine assignment for a width instance.
#[derive(Debug, Clone, Default)]
pub struct WidthSchedule {
    /// `machines[m]` = job ids on machine `m`.
    pub machines: Vec<Vec<JobId>>,
}

impl WidthSchedule {
    /// Total busy time (union span per machine).
    pub fn total_busy_time(&self, inst: &WidthInstance) -> i64 {
        self.machines
            .iter()
            .map(|ids| {
                IntervalSet::from_intervals(ids.iter().map(|&j| inst.jobs()[j].job.window()))
                    .measure()
            })
            .sum()
    }

    /// Validates: every job exactly once; per machine, total running width
    /// never exceeds `g`.
    pub fn validate(&self, inst: &WidthInstance) -> Result<()> {
        let mut seen = vec![false; inst.jobs().len()];
        for (m, ids) in self.machines.iter().enumerate() {
            let mut events: Vec<(Time, i64)> = Vec::new();
            for &j in ids {
                if seen[j] {
                    return Err(Error::InvalidSchedule(format!("job {j} scheduled twice")));
                }
                seen[j] = true;
                let wj = inst.jobs()[j];
                events.push((wj.job.release, wj.width as i64));
                events.push((wj.job.deadline, -(wj.width as i64)));
            }
            events.sort_unstable();
            let mut load = 0i64;
            for (_, d) in events {
                load += d;
                if load > inst.g() as i64 {
                    return Err(Error::InvalidSchedule(format!(
                        "machine {m} exceeds width capacity {}",
                        inst.g()
                    )));
                }
            }
        }
        if let Some(j) = seen.iter().position(|&s| !s) {
            return Err(Error::InvalidSchedule(format!("job {j} unscheduled")));
        }
        Ok(())
    }
}

/// The narrow/wide FirstFit 5-approximation.
pub fn width_first_fit(inst: &WidthInstance) -> WidthSchedule {
    let g = inst.g() as i64;
    let mut ids: Vec<JobId> = (0..inst.jobs().len()).collect();
    ids.sort_by_key(|&j| {
        let wj = inst.jobs()[j];
        (std::cmp::Reverse(wj.job.length), wj.job.release, j)
    });

    let mut machines: Vec<Vec<JobId>> = Vec::new();
    // Wide jobs: one machine each.
    for &j in ids.iter().filter(|&&j| 2 * inst.jobs()[j].width as i64 > g) {
        machines.push(vec![j]);
    }
    // Narrow jobs: width-aware FirstFit into fresh machines.
    let narrow_start = machines.len();
    for &j in ids
        .iter()
        .filter(|&&j| 2 * inst.jobs()[j].width as i64 <= g)
    {
        let wj = inst.jobs()[j];
        let iv = wj.job.window();
        let slot = machines[narrow_start..]
            .iter()
            .position(|ids| {
                let running = ids.iter().map(|&o| {
                    let wo = inst.jobs()[o];
                    (wo.job.window(), wo.width)
                });
                fits(running, iv, wj.width, inst.g())
            })
            .map(|p| p + narrow_start);
        match slot {
            Some(m) => machines[m].push(j),
            None => machines.push(vec![j]),
        }
    }
    WidthSchedule { machines }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abt_core::within_factor;

    fn wj(r: i64, d: i64, w: usize) -> WideJob {
        WideJob {
            job: Job::interval(r, d),
            width: w,
        }
    }

    #[test]
    fn construction_validates() {
        assert!(WidthInstance::new(vec![wj(0, 5, 3)], 2).is_err()); // width > g
        assert!(WidthInstance::new(vec![wj(0, 5, 0)], 2).is_err());
        assert!(WidthInstance::new(
            vec![WideJob {
                job: Job::new(0, 9, 3),
                width: 1
            }],
            2
        )
        .is_err()); // flexible job
        assert!(WidthInstance::new(vec![wj(0, 5, 2)], 2).is_ok());
    }

    #[test]
    fn unit_widths_reduce_to_plain_firstfit_capacity() {
        let inst = WidthInstance::new(vec![wj(0, 4, 1), wj(0, 4, 1), wj(0, 4, 1)], 2).unwrap();
        let s = width_first_fit(&inst);
        s.validate(&inst).unwrap();
        assert_eq!(s.total_busy_time(&inst), 8); // 2 machines × 4
    }

    #[test]
    fn wide_jobs_get_own_machines() {
        // Two width-3 jobs (g = 4) overlap: they cannot share.
        let inst = WidthInstance::new(vec![wj(0, 6, 3), wj(2, 8, 3), wj(0, 8, 1)], 4).unwrap();
        let s = width_first_fit(&inst);
        s.validate(&inst).unwrap();
        // wide: [0,6) and [2,8) on own machines; narrow [0,8) on its own.
        assert_eq!(s.total_busy_time(&inst), 6 + 6 + 8);
    }

    #[test]
    fn narrow_jobs_pack_by_width() {
        // Four width-2 jobs over the same interval, g = 4: two per machine.
        let inst = WidthInstance::new(vec![wj(0, 5, 2), wj(0, 5, 2), wj(0, 5, 2), wj(0, 5, 2)], 4)
            .unwrap();
        let s = width_first_fit(&inst);
        s.validate(&inst).unwrap();
        assert_eq!(s.total_busy_time(&inst), 10);
    }

    #[test]
    fn five_approximation_on_pseudorandom_instances() {
        let mut state = 0xD1CEu64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..30 {
            let n = 3 + next(10) as usize;
            let g = 2 + next(6) as usize;
            let mut jobs = Vec::new();
            for _ in 0..n {
                let r = next(20) as i64;
                let len = 1 + next(8) as i64;
                let w = 1 + next(g as u64) as usize;
                jobs.push(wj(r, r + len, w));
            }
            let inst = WidthInstance::new(jobs, g).unwrap();
            let s = width_first_fit(&inst);
            s.validate(&inst).unwrap();
            let lb = inst.mass_bound().max(inst.span_bound());
            assert!(
                within_factor(s.total_busy_time(&inst), 5, lb),
                "width FirstFit exceeded 5×LB"
            );
        }
    }

    #[test]
    fn capacity_violations_detected() {
        let inst = WidthInstance::new(vec![wj(0, 5, 3), wj(1, 4, 3)], 4).unwrap();
        let bad = WidthSchedule {
            machines: vec![vec![0, 1]],
        };
        assert!(bad.validate(&inst).is_err());
        let missing = WidthSchedule {
            machines: vec![vec![0]],
        };
        assert!(missing.validate(&inst).is_err());
        let dup = WidthSchedule {
            machines: vec![vec![0, 0], vec![1]],
        };
        assert!(dup.validate(&inst).is_err());
    }
}
