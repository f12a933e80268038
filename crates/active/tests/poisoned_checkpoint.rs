//! A checkpoint whose frame is sound but which carries a cached block
//! whose run count disagrees with its content key — drifted persisted
//! state — is read, and the block is rejected on first use: the first
//! solve after attach drops it, records exactly one corruption absorbed by
//! one recovery, and solves the component cold to the from-scratch
//! optimum. A later attach reads the replacement block and reuses it.
//! This is the only test in its binary, so the process-wide counters move
//! for it alone.

use abt_active::store::{CHECKPOINT_FILE, KIND_CHECKPOINT};
use abt_active::{lp_telemetry, solve_active_lp, IncrementalSolver};
use abt_core::persist::{write_atomic, Enc};
use abt_core::{Instance, Job};

/// A checkpoint of `jobs` at capacity `g` with one cached block under
/// their content key (all releases 0 here, so the key is the jobs
/// themselves) holding `runs` runs of mass 1 and objective 999.
fn poisoned_checkpoint(g: usize, jobs: &[Job], runs: usize) -> Vec<u8> {
    let put_rat = |e: &mut Enc, n: i128| {
        e.put_i128(n);
        e.put_i128(1);
    };
    let mut e = Enc::new();
    e.put_usize(g);
    e.put_u64(0);
    e.put_usize(jobs.len());
    for job in jobs {
        e.put_u8(1);
        e.put_i64(job.release);
        e.put_i64(job.deadline);
        e.put_i64(job.length);
    }
    e.put_usize(1);
    let mut key: Vec<(i64, i64, i64)> = jobs
        .iter()
        .map(|j| (j.release, j.deadline, j.length))
        .collect();
    key.sort_unstable();
    e.put_usize(key.len());
    for (r, d, p) in key {
        e.put_i64(r);
        e.put_i64(d);
        e.put_i64(p);
    }
    e.put_usize(runs);
    for _ in 0..runs {
        put_rat(&mut e, 1);
    }
    put_rat(&mut e, 999);
    e.put_usize(0);
    e.into_bytes()
}

#[test]
fn a_poisoned_checkpoint_block_is_dropped_on_first_use() {
    let g = 2;
    // One component over the runs (0, 3] and (3, 4]: two runs, not three.
    let jobs = [Job::new(0, 4, 2), Job::new(0, 3, 2)];
    let optimum = solve_active_lp(&Instance::new(jobs.to_vec(), g).unwrap())
        .unwrap()
        .objective;
    let dir = std::env::temp_dir().join(format!("abt-poisoned-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let payload = poisoned_checkpoint(g, &jobs, 3);
    write_atomic(&dir.join(CHECKPOINT_FILE), KIND_CHECKPOINT, &payload).unwrap();

    let mut solver = IncrementalSolver::new(g).unwrap();
    let rep = solver.attach_store(&dir).unwrap();
    assert!(!rep.cold_start, "the frame is sound: {rep:?}");
    assert_eq!((rep.resumed_jobs, rep.restored_blocks), (2, 1));
    assert_eq!(rep.corruption_events, 0);
    let before = lp_telemetry();
    let solved = solver.solve().unwrap();
    let d = lp_telemetry().delta(&before);
    assert_eq!((d.state_corrupt, d.recoveries), (1, 1));
    assert_eq!((solved.reused, solved.cold_solves), (0, 1));
    assert_eq!(solved.lp.objective, optimum);
    assert!(solver.checkpoint_now());
    drop(solver);

    // The cold solve's block replaced the poisoned one on disk.
    let mut solver = IncrementalSolver::new(g).unwrap();
    solver.attach_store(&dir).unwrap();
    let before = lp_telemetry();
    let again = solver.solve().unwrap();
    let d = lp_telemetry().delta(&before);
    assert_eq!((d.state_corrupt, d.recoveries), (0, 0));
    assert_eq!((again.reused, again.cold_solves), (1, 0));
    assert_eq!(again.lp.objective, optimum);
    std::fs::remove_dir_all(&dir).ok();
}
