//! Online busy-time scheduling (the Shalom et al. setting discussed in
//! §1.3): interval jobs arrive in release order and must be assigned to a
//! machine irrevocably on arrival.
//!
//! No deterministic algorithm beats `g`-competitive on general instances;
//! greedy FirstFit is the standard `O(g)`-competitive baseline. The
//! [`OnlineScheduler`] keeps per-machine occupancy incrementally so each
//! arrival costs `O(machines × jobs-per-machine)` — a genuinely online data
//! structure rather than a replay of the offline code.

use crate::firstfit::fits;
use abt_core::{Bundle, BusySchedule, Error, Instance, Interval, JobId, Result};

/// Incremental online scheduler for interval jobs.
#[derive(Debug, Clone)]
pub struct OnlineScheduler {
    g: usize,
    machines: Vec<Vec<Interval>>,
    assignments: Vec<(JobId, Interval, usize)>,
    last_release: Option<i64>,
}

impl OnlineScheduler {
    /// New scheduler for machines of capacity `g`.
    pub fn new(g: usize) -> Self {
        assert!(g >= 1);
        OnlineScheduler {
            g,
            machines: Vec::new(),
            assignments: Vec::new(),
            last_release: None,
        }
    }

    /// Handles the arrival of interval job `id` running as `iv`; returns the
    /// machine index it was irrevocably assigned to. Arrivals must come in
    /// non-decreasing release order (the online model).
    pub fn arrive(&mut self, id: JobId, iv: Interval) -> Result<usize> {
        if let Some(prev) = self.last_release {
            if iv.start < prev {
                return Err(Error::Unsupported(format!(
                    "online arrivals must be release-ordered ({} after {prev})",
                    iv.start
                )));
            }
        }
        self.last_release = Some(iv.start);
        let m = self
            .machines
            .iter()
            .position(|mach| fits(mach.iter().map(|&o| (o, 1)), iv, 1, self.g))
            .unwrap_or_else(|| {
                self.machines.push(Vec::new());
                self.machines.len() - 1
            });
        self.machines[m].push(iv);
        self.assignments.push((id, iv, m));
        Ok(m)
    }

    /// Number of machines opened so far.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Current total busy time.
    pub fn total_busy_time(&self) -> i64 {
        self.machines
            .iter()
            .map(|m| abt_core::IntervalSet::from_intervals(m.iter().copied()).measure())
            .sum()
    }

    /// Converts the history into a [`BusySchedule`] over `n` jobs.
    pub fn into_schedule(self, machines_hint: usize) -> BusySchedule {
        let mut bundles = vec![Bundle::new(); self.machines.len().max(machines_hint)];
        for (id, iv, m) in self.assignments {
            bundles[m].items.push((id, iv.start));
        }
        BusySchedule { bundles }
    }
}

/// Runs the online scheduler over a whole interval instance (jobs presented
/// in release order) and returns the final schedule.
pub fn online_first_fit(inst: &Instance) -> Result<BusySchedule> {
    if !inst.is_interval_instance() {
        return Err(Error::Unsupported(
            "online_first_fit requires interval jobs".into(),
        ));
    }
    let mut ids: Vec<JobId> = (0..inst.len()).collect();
    ids.sort_by_key(|&j| (inst.job(j).release, inst.job(j).deadline, j));
    let mut sched = OnlineScheduler::new(inst.g());
    for id in ids {
        sched.arrive(id, inst.job(id).window())?;
    }
    let out = sched.into_schedule(0);
    debug_assert!(out.validate(inst).is_ok());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_busy_time;
    use crate::firstfit::{first_fit, FirstFitOrder};
    use abt_core::{within_factor, Job};

    fn interval_inst(ivs: &[(i64, i64)], g: usize) -> Instance {
        Instance::new(ivs.iter().map(|&(a, b)| Job::interval(a, b)).collect(), g).unwrap()
    }

    #[test]
    fn matches_offline_release_order_firstfit() {
        let mut state = 0x0A11u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..20 {
            let n = 3 + next(10) as usize;
            let g = 1 + next(3) as usize;
            let mut ivs = Vec::new();
            for _ in 0..n {
                let r = next(20) as i64;
                ivs.push((r, r + 1 + next(8) as i64));
            }
            let inst = interval_inst(&ivs, g);
            let online = online_first_fit(&inst).unwrap();
            online.validate(&inst).unwrap();
            let offline = first_fit(&inst, FirstFitOrder::ByRelease).unwrap();
            assert_eq!(
                online.total_busy_time(&inst),
                offline.total_busy_time(&inst),
                "online replay must equal offline release-order FirstFit"
            );
        }
    }

    #[test]
    fn rejects_out_of_order_arrivals() {
        let mut s = OnlineScheduler::new(2);
        s.arrive(0, Interval::new(5, 8)).unwrap();
        assert!(s.arrive(1, Interval::new(3, 9)).is_err());
    }

    #[test]
    fn incremental_state_is_consistent() {
        let mut s = OnlineScheduler::new(2);
        assert_eq!(s.arrive(0, Interval::new(0, 4)).unwrap(), 0);
        assert_eq!(s.arrive(1, Interval::new(1, 5)).unwrap(), 0); // fits, g=2
        assert_eq!(s.arrive(2, Interval::new(2, 6)).unwrap(), 1); // overflow
        assert_eq!(s.machine_count(), 2);
        assert_eq!(s.total_busy_time(), 5 + 4);
        let inst = interval_inst(&[(0, 4), (1, 5), (2, 6)], 2);
        s.into_schedule(0).validate(&inst).unwrap();
    }

    #[test]
    fn adversarial_nested_arrivals_hurt_online() {
        // The classic online pain: a long job arrives first, then g
        // disjoint short jobs that offline would stack with it. Online
        // FirstFit co-locates the shorts with the long job greedily, while
        // offline groups the shorts per time slot — the gap grows with the
        // horizon. Verify online stays within g× of exact offline.
        let g = 3;
        let mut ivs = vec![(0i64, 100i64)];
        for k in 0..12 {
            ivs.push((k * 8, k * 8 + 1));
        }
        let inst = interval_inst(&ivs, g);
        let online = online_first_fit(&inst).unwrap();
        online.validate(&inst).unwrap();
        let exact = exact_busy_time(&inst, Some(20_000_000)).unwrap();
        assert!(within_factor(
            online.total_busy_time(&inst),
            g as i64 + 1,
            exact.cost
        ));
        assert!(online.total_busy_time(&inst) >= exact.cost);
    }
}
