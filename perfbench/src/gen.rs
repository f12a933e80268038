//! Seeded inputs: a SplitMix64 stream, FNV-1a fingerprints, and the job
//! generators of the workloads.
//!
//! Active-time job sets are carved from a reference schedule: every job is
//! assigned `p` distinct unit cells of its window whose load stays at most
//! `g`, so the instance is feasible by construction. Busy-time instances
//! need no carving (machines are unbounded).

use abt_core::Job;

/// SplitMix64: small, fast, and the same stream on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by the run seed and a label, so each workload (and
    /// each generator inside it) draws independent numbers.
    pub fn new(seed: u64, label: &str) -> Rng {
        let mut f = Fnv::new();
        f.bytes(label.as_bytes());
        f.u64(seed);
        Rng(f.finish())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let width = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % width) as i64
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index into an empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

/// 64-bit FNV-1a, used for input fingerprints and result digests.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn i128(&mut self, v: i128) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Shape of a carved active-time job set.
pub struct Carve {
    pub jobs: usize,
    pub g: usize,
    /// The reference schedule's cells (cell `t` is slot `t + 1`).
    pub cells: std::ops::Range<i64>,
    pub max_len: i64,
}

/// Carves `c.jobs` jobs out of a reference schedule over `c.cells` with
/// capacity `c.g`: each job gets a length `p ≤ max_len`, a window `[r, d)`
/// drawn by `window(rng, p)`, and `p` cells of that window that still have
/// spare capacity, which it occupies in the reference schedule. Windows
/// may reach past `c.cells`; the reference schedule is all that
/// feasibility needs.
pub fn carve(
    rng: &mut Rng,
    c: &Carve,
    mut window: impl FnMut(&mut Rng, i64) -> (i64, i64),
) -> Vec<Job> {
    let base = c.cells.start;
    let mut load = vec![0usize; (c.cells.end - base) as usize];
    let mut out = Vec::with_capacity(c.jobs);
    let mut attempts = 0usize;
    while out.len() < c.jobs {
        attempts += 1;
        assert!(
            attempts < 1000 * c.jobs,
            "carving ran out of capacity: {} of {} jobs placed",
            out.len(),
            c.jobs
        );
        let p = rng.range(1, c.max_len);
        let (r, d) = window(rng, p);
        let cell = |t: i64| (t - base) as usize;
        let mut free: Vec<i64> = (r.max(base)..d.min(c.cells.end))
            .filter(|&t| load[cell(t)] < c.g)
            .collect();
        if (free.len() as i64) < p {
            continue;
        }
        // Least-loaded cells first (ties left to right): keeps the
        // reference schedule level so later jobs still fit.
        free.sort_by_key(|&t| (load[cell(t)], t));
        for &t in &free[..p as usize] {
            load[cell(t)] += 1;
        }
        out.push(Job::new(r, d, p));
    }
    out
}

/// Whether the windows form one connected interval graph (consecutive
/// windows in release order share at least one slot).
pub fn connected(jobs: &[Job]) -> bool {
    let mut ws: Vec<(i64, i64)> = jobs.iter().map(|j| (j.release, j.deadline)).collect();
    ws.sort_unstable();
    let mut reach = i64::MIN;
    for (i, &(r, d)) in ws.iter().enumerate() {
        if i > 0 && r >= reach {
            return false;
        }
        reach = reach.max(d);
    }
    true
}

/// Flexible busy-time jobs over `0..horizon`: length `1..=max_len`, slack
/// about one length (uniform in `p/2..=3p/2`).
pub fn flexible_busy(rng: &mut Rng, n: usize, horizon: i64, max_len: i64) -> Vec<Job> {
    (0..n)
        .map(|_| {
            let p = rng.range(1, max_len);
            let w = p + rng.range(p / 2, (3 * p) / 2);
            let r = rng.range(0, horizon - w);
            Job::new(r, r + w, p)
        })
        .collect()
}
