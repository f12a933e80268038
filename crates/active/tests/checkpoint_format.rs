//! A state directory in the earlier checkpoint layout — the one that also
//! carried basis-snapshot pools, sealed as frame format version 1 — is
//! refused as a whole, never misread: attach discards the checkpoint and
//! its journal, starts cold, and records exactly one corruption absorbed
//! by one recovery. This is the only test in its binary, so the
//! process-wide counters move for it alone.

use abt_active::store::{CHECKPOINT_FILE, JOURNAL_FILE, KIND_CHECKPOINT, KIND_JOURNAL};
use abt_active::{inspect_store, lp_telemetry, solve_active_lp, IncrementalSolver};
use abt_core::persist::{checksum, Enc, MAGIC};
use abt_core::{Instance, Job};
use abt_lp::Rat;

/// The frame format version of the earlier layout.
const OLD_VERSION: u16 = 1;

/// The frame header of the earlier format: magic, version, kind, length.
fn old_header(kind: u16, len: u64) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&OLD_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out
}

fn put_job(e: &mut Enc, job: Job) {
    e.put_i64(job.release);
    e.put_i64(job.deadline);
    e.put_i64(job.length);
}

/// A checkpoint in the earlier field order: `g`, `seq`, the job slots,
/// the content cache, the shape-keyed snapshot pools, the quarantine.
fn old_checkpoint(g: usize, job: Job, pools: bool) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_usize(g);
    e.put_u64(1);
    e.put_usize(1);
    e.put_u8(1);
    put_job(&mut e, job);
    // One cached block: the job alone, one run of its window, Y = p/g.
    e.put_usize(1);
    e.put_usize(1);
    put_job(&mut e, Job::new(0, job.deadline - job.release, job.length));
    e.put_usize(1);
    let y = Rat::new(job.length as i128, g as i128);
    for _ in 0..2 {
        e.put_i128(y.numer());
        e.put_i128(y.denom());
    }
    // Shape pools: (run count, per-job run spans) → reference pivots and
    // snapshots of (m, ncols, basis, state bytes).
    if pools {
        e.put_usize(1);
        e.put_usize(1);
        e.put_usize(1);
        e.put_usize(0);
        e.put_usize(1);
        e.put_u64(3);
        e.put_usize(1);
        e.put_usize(2);
        e.put_usize(4);
        e.put_usize(1);
        e.put_usize(3);
        for state in [1u8, 0, 1, 0] {
            e.put_u8(state);
        }
    } else {
        e.put_usize(0);
    }
    e.put_usize(0);
    let payload = e.into_bytes();
    let mut frame = old_header(KIND_CHECKPOINT, payload.len() as u64);
    frame.extend_from_slice(&payload);
    let sum = checksum(&frame);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame
}

/// A journal in the earlier format holding one journaled arrival past the
/// checkpoint.
fn old_journal(id: usize, job: Job) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_u64(2);
    e.put_u8(1);
    e.put_usize(id);
    put_job(&mut e, job);
    let rec = e.into_bytes();
    let mut out = old_header(KIND_JOURNAL, 0);
    out.extend_from_slice(&(rec.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(&rec).to_le_bytes());
    out.extend_from_slice(&rec);
    out
}

#[test]
fn a_parent_format_state_dir_is_refused_not_misread() {
    let g = 2;
    let (first, second) = (Job::new(0, 4, 2), Job::new(10, 14, 3));
    for pools in [true, false] {
        let dir =
            std::env::temp_dir().join(format!("abt-old-format-{pools}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(CHECKPOINT_FILE), old_checkpoint(g, first, pools)).unwrap();
        std::fs::write(dir.join(JOURNAL_FILE), old_journal(1, second)).unwrap();

        let before = lp_telemetry();
        let mut solver = IncrementalSolver::new(g).unwrap();
        let rep = solver
            .attach_store(&dir)
            .expect("drift is absorbed, not surfaced");
        let d = lp_telemetry().delta(&before);
        assert!(rep.cold_start, "pools {pools}: {rep:?}");
        assert_eq!(rep.corruption_events, 1);
        assert_eq!((rep.resumed_jobs, rep.replayed_ops), (0, 0));
        assert_eq!(rep.restored_blocks, 0);
        assert!(
            solver.is_empty(),
            "neither the checkpoint nor the journal is read"
        );
        assert_eq!((d.state_corrupt, d.recoveries), (1, 1));
        assert_eq!(d.persist_restores, 0);

        // Both files were replaced: a fresh empty checkpoint and an empty
        // journal, which a second attach reads cleanly.
        let inspection = inspect_store(&dir).unwrap();
        let ckpt = inspection.checkpoint.expect("re-baselined checkpoint");
        assert_eq!((ckpt.live_jobs, ckpt.blocks), (0, 0));
        assert_eq!(inspection.journal_records, 0);

        // The cold solver answers exactly.
        solver.add_job(first);
        solver.add_job(second);
        let rebuilt = solver.solve().unwrap();
        let inst = Instance::new(vec![first, second], g).unwrap();
        assert_eq!(
            rebuilt.lp.objective,
            solve_active_lp(&inst).unwrap().objective
        );
        drop(solver);
        let mut again = IncrementalSolver::new(g).unwrap();
        let rep = again.attach_store(&dir).unwrap();
        assert!(!rep.cold_start);
        assert_eq!((rep.corruption_events, rep.resumed_jobs), (0, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
