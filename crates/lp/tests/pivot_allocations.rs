//! A pivot of the bounded revised simplex allocates nothing but the
//! amortized growth of the eta slab and the glued lists: each solve
//! allocates its work vectors once and reuses them on every iteration.
//! A pass that allocated fresh vectors per FTRAN, BTRAN or eta would make
//! several allocations per pivot. A refactorization allocates nothing
//! either: the LU refactors in place through a workspace the solve keeps,
//! where a fresh factor made about four allocations per row.
//!
//! Two tests in a binary of their own, under a counting global allocator
//! that counts only on the thread that arms it.

use abt_lp::{
    solve_bounded_f64_with, BoundedBasis, BoundedOptions, BoundedStatus, BudgetKind, Cmp,
    LpProblem, StandardForm,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations and reallocations on this thread while armed.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note() {
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counting touches only a
// thread-local `Cell` with a constant initializer and no destructor, so it
// never allocates or frees.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    (out, COUNT.with(|c| c.replace(None)).unwrap_or(0))
}

/// SplitMix64: each block below is drawn from one seed.
struct Draw(u64);

impl Draw {
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        lo + ((z ^ (z >> 31)) % (hi - lo + 1) as u64) as i64
    }
}

/// An LP1-shaped block: 40 runs `I` of width 1–4, each a key `Y_I ≤ w_I`
/// of cost 1; 30 jobs over 1–6 consecutive runs each, with a dependent
/// `x_{I,j} ≤ Y_I` per run of the window; capacity rows
/// `Σ_j x_{I,j} − 4·Y_I ≤ 0` and demand rows `Σ_I x_{I,j} ≥ p_j`. Each
/// `p_j` sums a random share of its runs that fits what earlier jobs left,
/// so the block is feasible.
fn lp1_block(seed: u64) -> LpProblem<f64> {
    const RUNS: usize = 40;
    let mut d = Draw(seed);
    let mut lp: LpProblem<f64> = LpProblem::new();
    let widths: Vec<i64> = (0..RUNS).map(|_| d.int(1, 4)).collect();
    let keys: Vec<usize> = widths
        .iter()
        .map(|&w| {
            let y = lp.add_var(1.0);
            lp.set_upper(y, w as f64);
            y
        })
        .collect();
    let mut left: Vec<i64> = widths.iter().map(|w| 4 * w).collect();
    let mut capacity: Vec<Vec<(usize, f64)>> = vec![Vec::new(); RUNS];
    let mut demand = Vec::new();
    for _ in 0..30 {
        let lo = d.int(0, RUNS as i64 - 1) as usize;
        let hi = (lo + d.int(1, 6) as usize).min(RUNS);
        let mut p = 0;
        let terms: Vec<(usize, f64)> = (lo..hi)
            .map(|run| {
                let share = d.int(0, widths[run].min(left[run]));
                left[run] -= share;
                p += share;
                let x = lp.add_var(0.0);
                lp.set_vub(x, keys[run]);
                capacity[run].push((x, 1.0));
                (x, 1.0)
            })
            .collect();
        demand.push((terms, p.max(1) as f64));
    }
    for (run, mut terms) in capacity.into_iter().enumerate() {
        if !terms.is_empty() {
            terms.push((keys[run], -4.0));
            lp.add_constraint(terms, Cmp::Le, 0.0);
        }
    }
    for (terms, p) in demand {
        lp.add_constraint(terms, Cmp::Ge, p);
    }
    lp
}

#[test]
fn pivots_allocate_less_than_once_each() {
    for seed in 1..=7 {
        let sf = StandardForm::build(&lp1_block(seed));
        let solve = |pivot_budget| {
            let opts = BoundedOptions {
                pivot_budget,
                ..BoundedOptions::default()
            };
            solve_bounded_f64_with(&sf, &opts, None)
        };
        // The warm-up: the whole pass, which also shows that both budgets
        // below stop it early.
        let whole = solve(0);
        assert_eq!(whole.status, BoundedStatus::Optimal, "seed {seed}");
        assert!(
            whole.stats.pivots > 60,
            "seed {seed}: {} pivots",
            whole.stats.pivots
        );
        let (short, short_allocs) = counted(|| solve(10));
        let (long, long_allocs) = counted(|| solve(60));
        let stopped = |out: &BoundedBasis, budget: u64| {
            assert_eq!(out.status, BoundedStatus::Budget(BudgetKind::Pivots));
            assert_eq!(
                (out.stats.pivots, out.stats.refactorizations),
                (budget, 0),
                "seed {seed}"
            );
        };
        stopped(&short, 10);
        stopped(&long, 60);
        let extra = long_allocs - short_allocs;
        eprintln!(
            "seed {seed}: {} pivots in the whole pass; {short_allocs} allocations at \
             budget 10, {long_allocs} at budget 60",
            whole.stats.pivots
        );
        assert!(
            extra < 50,
            "seed {seed}: 50 more pivots made {extra} more allocations"
        );
    }
}

#[test]
fn refactorizations_allocate_nothing() {
    let mut extra = 0;
    for seed in 1..=7 {
        let sf = StandardForm::build(&lp1_block(seed));
        let solve = |pivot_budget| {
            let opts = BoundedOptions {
                pivot_budget,
                ..BoundedOptions::default()
            };
            solve_bounded_f64_with(&sf, &opts, None)
        };
        // The first budget whose pass refactorizes: its last pivot filled
        // the eta file.
        let whole = solve(0);
        assert!(
            whole.stats.refactorizations > 0,
            "seed {seed}: no refactorization"
        );
        let first = (1..=whole.stats.pivots)
            .find(|&budget| solve(budget).stats.refactorizations > 0)
            .expect("some budget refactorizes");
        let (before, before_allocs) = counted(|| solve(first - 1));
        let (after, after_allocs) = counted(|| solve(first));
        assert_eq!(before.stats.refactorizations, 0, "seed {seed}");
        assert_eq!(after.stats.refactorizations, 1, "seed {seed}");
        eprintln!(
            "seed {seed}: the pass refactorizes at pivot {first}; {before_allocs} allocations \
             stopped before it, {after_allocs} across it"
        );
        extra += after_allocs.saturating_sub(before_allocs);
    }
    // The pivots that filled the eta files may grow a glued list between
    // them (one does); a factor that allocated would add one or more per
    // seed, and a fresh one about four per row.
    assert!(
        extra <= 1,
        "seven refactorizations and their pivots made {extra} allocations"
    );
}
