//! Property tests for the durable-state layer (PR 8): the persist codec
//! must round-trip bit-for-bit, reject *every* single-byte corruption of
//! a sealed frame, and never panic on arbitrarily mutated bytes; and the
//! full attach/checkpoint/re-attach cycle must preserve exact objectives
//! no matter what happens to the state files in between — persisted state
//! is a hint, never an input the answers depend on.

use abt_active::{solve_active_lp_with, IncrementalSolver, LpOptions};
use abt_core::persist::{open_frame, seal};
use abt_core::Job;
use abt_lp::Rat;
use abt_workloads::{online_arrivals, OnlineArrivalsConfig};
use proptest::collection;
use proptest::prelude::*;
use std::sync::OnceLock;

fn tmp_state_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("abt-pp-{tag}-{}-{n}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn sealed_frames_reject_every_single_byte_corruption(
        payload_raw in collection::vec(0usize..256, 0..64),
        pos in 0usize..4096,
        mask in 1usize..256,
        cut in 0usize..4096,
    ) {
        let payload: Vec<u8> = payload_raw.iter().map(|&b| b as u8).collect();
        let framed = seal(7, &payload);
        prop_assert_eq!(open_frame(7, &framed).expect("pristine frame"), &payload[..]);

        // Deterministic, not probabilistic: the exact-length check pins
        // the layout and FNV-1a's xor-then-multiply chain is injective in
        // each input byte, so *every* single-byte flip must be caught.
        let mut flipped = framed.clone();
        let p = pos % flipped.len();
        flipped[p] ^= mask as u8;
        prop_assert!(
            open_frame(7, &flipped).is_err(),
            "single-byte flip at {} of {} went undetected",
            p,
            flipped.len()
        );

        // Every proper truncation and any kind drift must be rejected too.
        prop_assert!(open_frame(7, &framed[..cut % framed.len()]).is_err());
        prop_assert!(open_frame(8, &framed).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn attach_checkpoint_reattach_preserves_objectives_and_warm_capital(
        seed in 0u64..1_000_000,
        clusters in 2usize..5,
        jobs_per in 1usize..4,
        g in 2usize..4,
    ) {
        let cfg = OnlineArrivalsConfig {
            clusters,
            jobs_per_cluster: jobs_per,
            templates: 2.min(clusters),
            g,
            span: 12,
            gap: 3,
            max_len: 3,
        };
        let oa = online_arrivals(&cfg, seed);
        let dir = tmp_state_dir("roundtrip");
        let expected = solve_active_lp_with(&oa.instance(), &LpOptions::default())
            .expect("feasible by construction")
            .objective;

        let first = {
            let mut solver = IncrementalSolver::new(g).unwrap();
            let rep = solver.attach_store(&dir).expect("fresh dir");
            prop_assert!(rep.cold_start);
            for job in &oa.jobs {
                solver.add_job(*job);
            }
            let rep = solver.solve().unwrap();
            prop_assert!(solver.checkpoint_now(), "checkpoint must not degrade");
            rep
        };
        prop_assert_eq!(first.lp.objective, expected);

        let mut solver = IncrementalSolver::new(g).unwrap();
        let rec = solver.attach_store(&dir).expect("pristine state dir");
        prop_assert_eq!(rec.resumed_jobs, oa.jobs.len());
        prop_assert_eq!(rec.corruption_events, 0);
        prop_assert!(!rec.cold_start);
        let second = solver.solve().unwrap();
        prop_assert_eq!(second.lp.objective, expected, "re-attach must be bit-identical");
        prop_assert_eq!(
            second.cold_solves, 0,
            "a pristine resume restores the full content cache — nothing re-solves cold"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A pristine persisted state built once: a checkpoint covering five jobs
/// plus a one-record journal tail, with the exact full-set objective.
struct Pristine {
    g: usize,
    jobs: Vec<Job>,
    checkpoint: Vec<u8>,
    journal: Vec<u8>,
    objective: Rat,
}

fn pristine() -> &'static Pristine {
    static PRISTINE: OnceLock<Pristine> = OnceLock::new();
    PRISTINE.get_or_init(|| {
        let cfg = OnlineArrivalsConfig {
            clusters: 3,
            jobs_per_cluster: 2,
            templates: 2,
            g: 2,
            span: 12,
            gap: 3,
            max_len: 3,
        };
        let oa = online_arrivals(&cfg, 5);
        let dir = tmp_state_dir("pristine");
        {
            let mut solver = IncrementalSolver::new(cfg.g).unwrap();
            solver.attach_store(&dir).expect("fresh dir");
            let (head, tail) = oa.jobs.split_at(oa.jobs.len() - 1);
            for job in head {
                solver.add_job(*job);
            }
            solver.solve().expect("feasible by construction");
            assert!(solver.checkpoint_now());
            // One journaled arrival past the checkpoint, so mutations can
            // hit a live journal record, not just the checkpoint frame.
            solver.add_job(tail[0]);
        }
        let checkpoint = std::fs::read(dir.join("checkpoint.abt")).expect("checkpoint written");
        let journal = std::fs::read(dir.join("journal.abt")).expect("journal written");
        assert!(journal.len() > 16, "the journal must hold a real record");
        std::fs::remove_dir_all(&dir).ok();
        let objective = solve_active_lp_with(&oa.instance(), &LpOptions::default())
            .expect("feasible by construction")
            .objective;
        Pristine {
            g: cfg.g,
            jobs: oa.jobs,
            checkpoint,
            journal,
            objective,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn attach_absorbs_arbitrary_state_file_mutations_without_panics_or_wrong_answers(
        which in 0usize..2,
        kind in 0usize..3,
        pos in 0usize..1 << 16,
        mask in 1usize..256,
        junk in collection::vec(0usize..256, 1..24),
    ) {
        let p = pristine();
        let mut checkpoint = p.checkpoint.clone();
        let mut journal = p.journal.clone();
        {
            let target = if which == 0 { &mut checkpoint } else { &mut journal };
            match kind {
                // Flip one byte anywhere in the file.
                0 => {
                    let at = pos % target.len();
                    target[at] ^= mask as u8;
                }
                // Truncate to any proper prefix (torn write / torn tail).
                1 => target.truncate(pos % target.len()),
                // Append junk past the frame.
                _ => target.extend(junk.iter().map(|&b| b as u8)),
            }
        }
        let dir = tmp_state_dir("mutate");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("checkpoint.abt"), &checkpoint).unwrap();
        std::fs::write(dir.join("journal.abt"), &journal).unwrap();

        // Whatever the mutation did, attach must absorb it: a typed
        // internal rejection demoting to a cold (or partial) rebuild —
        // never a panic, never an error surfaced to the caller.
        let mut solver = IncrementalSolver::new(p.g).unwrap();
        let rec = solver.attach_store(&dir).expect("corruption is absorbed, not surfaced");
        prop_assert!(
            rec.resumed_jobs <= p.jobs.len(),
            "recovery can only resume journaled arrivals"
        );

        // Top the solver back up to the full set; the exact objective
        // must be bit-identical to the from-scratch solve regardless of
        // how much persisted state survived.
        for job in &p.jobs[rec.resumed_jobs..] {
            solver.add_job(*job);
        }
        let rep = solver.solve().expect("feasible by construction");
        prop_assert_eq!(rep.lp.objective, p.objective);
        std::fs::remove_dir_all(&dir).ok();
    }
}
