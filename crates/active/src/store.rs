//! Durable solver state for the incremental path: checkpoint +
//! write-ahead journal over `abt-core::persist`, with journaled recovery,
//! checkpoint compaction, and the restart-storm guard.
//!
//! # Lifecycle
//!
//! [`IncrementalSolver::attach_store`](crate::IncrementalSolver::attach_store)
//! opens a state directory and recovers whatever it holds:
//!
//! 1. **Storm guard** — if the recovery-attempt counter has reached
//!    [`MAX_RECOVERY_ATTEMPTS`] (meaning recovery itself keeps dying
//!    before completing), the state files are moved into a `quarantined-N`
//!    subdirectory and the solver starts cold. A poisoned state file can
//!    cost cached work, never a crash loop.
//! 2. **Checkpoint** — the framed `checkpoint.abt` is validated
//!    (checksum, version, kind) and decoded under full structural
//!    validation (job invariants, rational denominators, failure tags).
//!    *Any* drift — including a capacity `g` different from
//!    the attaching solver's — rejects the checkpoint **and** the journal
//!    (journal ops are meaningless without the base state they mutate)
//!    and rebuilds cold, recording `state_corrupt` + `recoveries`.
//! 3. **Journal tail** — records with sequence numbers past the
//!    checkpoint's are re-applied in order. A torn tail (partial final
//!    record) is the normal shape of a crash mid-append and is dropped
//!    silently; a mid-stream checksum mismatch or an op that does not
//!    apply cleanly is corruption — the checkpoint state is kept (it is
//!    self-consistent) and the journal is discarded.
//! 4. **Re-baseline** — recovery ends by writing a fresh checkpoint of
//!    the recovered state and truncating the journal, then clearing the
//!    attempt counter. Disk is again exactly one checkpoint + empty
//!    journal.
//!
//! Thereafter every mutation ([`add_job`](crate::IncrementalSolver::add_job)
//! / [`remove_job`](crate::IncrementalSolver::remove_job) /
//! [`update_window`](crate::IncrementalSolver::update_window)) appends a
//! WAL record *before* the in-memory mutation is acted on, and every
//! [`CHECKPOINT_EVERY`] ops a solve is followed by checkpoint compaction
//! (write checkpoint, truncate journal).
//!
//! # The reject-don't-trust invariant
//!
//! Decoded state is a **performance hint, never an authority**: restored
//! cache blocks are revalidated against their component's shape on every
//! hit, and any validation failure surfaces as
//! [`SolveFailure::StateCorrupt`] absorbed by a cold re-solve. Exactness
//! therefore never depends on the disk: a restored solver and a cold one
//! produce bit-identical objectives, always.
//!
//! An I/O error *while serving* (journal append or checkpoint write
//! failing) degrades the store — persistence stops, the solver keeps
//! serving from memory — because a scheduling service must not fail
//! writes it already acknowledged. [`SolveStateStore::degraded`] reports
//! it.
//!
//! # Format
//!
//! A checkpoint payload holds the capacity `g`, the journal sequence
//! number it covers, the job slots (dead handles included), the content
//! cache and the quarantine, in that order. Checkpoints of the earlier
//! layout, which also carried basis-snapshot pools, were sealed under
//! frame format version 1 (see [`abt_core::persist::FORMAT_VERSION`]):
//! attach refuses them like any other drift and rebuilds cold.

use crate::incremental::{CachedBlock, ContentKey};
use crate::lp_model::{record_persist_restores, record_recovery, record_state_corrupt};
use abt_core::persist::{self, Dec, Enc, Journal, PersistError, StateDir};
use abt_core::{BudgetKind, Job, SolveFailure, Time};
use abt_lp::Rat;
use std::collections::HashMap;
use std::path::Path;

/// Frame kind of `checkpoint.abt`.
pub const KIND_CHECKPOINT: u16 = 1;
/// Frame kind of `journal.abt`.
pub const KIND_JOURNAL: u16 = 2;

/// Checkpoint file name inside a state directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.abt";
/// Journal file name inside a state directory.
pub const JOURNAL_FILE: &str = "journal.abt";

/// Recovery attempts after which the storm guard moves the state aside
/// and starts cold instead of crash-looping.
pub const MAX_RECOVERY_ATTEMPTS: u32 = 3;

/// Journal ops between checkpoint compactions.
pub const CHECKPOINT_EVERY: u64 = 16;

/// What [`crate::IncrementalSolver::attach_store`] recovered.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Live jobs in the solver after recovery.
    pub resumed_jobs: usize,
    /// Journal records re-applied over the checkpoint.
    pub replayed_ops: usize,
    /// Content-cache blocks restored from the checkpoint.
    pub restored_blocks: usize,
    /// Corruption detections absorbed during this recovery (each also
    /// recorded in the process-wide telemetry).
    pub corruption_events: usize,
    /// Whether the restart-storm guard quarantined the state directory.
    pub storm_quarantined: bool,
    /// Whether the solver starts with no persisted state at all (a fresh
    /// directory, or everything discarded as corrupt / quarantined).
    pub cold_start: bool,
}

/// One write-ahead-journal operation (mirrors the mutating surface of
/// [`crate::IncrementalSolver`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JournalOp {
    /// `add_job`: `id` is the handle the solver will assign (always the
    /// next slot index, which replay verifies).
    Add {
        /// Handle assigned to the job.
        id: usize,
        /// The job added.
        job: Job,
    },
    /// `remove_job`.
    Remove {
        /// Handle removed.
        id: usize,
    },
    /// `update_window`: the job keeps its length.
    Edit {
        /// Handle edited.
        id: usize,
        /// New release.
        release: Time,
        /// New deadline.
        deadline: Time,
    },
}

impl JournalOp {
    fn encode(&self, seq: u64) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_u64(seq);
        match self {
            JournalOp::Add { id, job } => {
                e.put_u8(1);
                e.put_usize(*id);
                e.put_i64(job.release);
                e.put_i64(job.deadline);
                e.put_i64(job.length);
            }
            JournalOp::Remove { id } => {
                e.put_u8(2);
                e.put_usize(*id);
            }
            JournalOp::Edit {
                id,
                release,
                deadline,
            } => {
                e.put_u8(3);
                e.put_usize(*id);
                e.put_i64(*release);
                e.put_i64(*deadline);
            }
        }
        e.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<(u64, JournalOp), PersistError> {
        let mut d = Dec::new(bytes);
        let seq = d.u64()?;
        let op = match d.u8()? {
            1 => {
                let id = d.usize()?;
                let (r, dl, p) = (d.i64()?, d.i64()?, d.i64()?);
                let job = Job::try_new(r, dl, p).ok_or_else(|| {
                    PersistError::Malformed(format!("journal add of invalid job [{r}, {dl}) × {p}"))
                })?;
                JournalOp::Add { id, job }
            }
            2 => JournalOp::Remove { id: d.usize()? },
            3 => JournalOp::Edit {
                id: d.usize()?,
                release: d.i64()?,
                deadline: d.i64()?,
            },
            t => {
                return Err(PersistError::Malformed(format!(
                    "unknown journal op tag {t}"
                )))
            }
        };
        d.finish()?;
        Ok((seq, op))
    }
}

/// The decoded contents of a checkpoint.
pub(crate) struct PersistedState {
    /// Capacity the state was taken at (must match the attaching solver).
    pub(crate) g: usize,
    /// Last journal sequence number the checkpoint covers.
    pub(crate) seq: u64,
    /// Job slots, dead handles included (handle = index).
    pub(crate) jobs: Vec<Option<Job>>,
    /// Content-keyed cache blocks.
    pub(crate) blocks: Vec<(ContentKey, CachedBlock)>,
    /// Quarantined content keys with their root-cause failures.
    pub(crate) quarantine: Vec<(ContentKey, SolveFailure)>,
}

fn encode_rat(e: &mut Enc, r: &Rat) {
    e.put_i128(r.numer());
    e.put_i128(r.denom());
}

fn decode_rat(d: &mut Dec<'_>) -> Result<Rat, PersistError> {
    let n = d.i128()?;
    let den = d.i128()?;
    if den <= 0 {
        return Err(PersistError::Malformed(format!(
            "rational with non-positive denominator {den}"
        )));
    }
    Ok(Rat::new(n, den))
}

fn encode_content_key(e: &mut Enc, key: &ContentKey) {
    e.put_usize(key.len());
    for &(r, d, p) in key {
        e.put_i64(r);
        e.put_i64(d);
        e.put_i64(p);
    }
}

fn decode_content_key(d: &mut Dec<'_>) -> Result<ContentKey, PersistError> {
    let n = d.count(24)?;
    let mut key = Vec::with_capacity(n);
    for _ in 0..n {
        key.push((d.i64()?, d.i64()?, d.i64()?));
    }
    Ok(key)
}

fn encode_failure(e: &mut Enc, f: &SolveFailure) {
    match f {
        SolveFailure::Panicked(msg) => {
            e.put_u8(0);
            e.put_str(msg);
        }
        SolveFailure::BudgetExceeded(k) => {
            e.put_u8(1);
            e.put_u8(match k {
                BudgetKind::Pivots => 0,
                BudgetKind::Time => 1,
            });
        }
        SolveFailure::NumericalStall => e.put_u8(2),
        SolveFailure::Infeasible => e.put_u8(4),
        SolveFailure::StateCorrupt(msg) => {
            e.put_u8(5);
            e.put_str(msg);
        }
    }
}

fn decode_failure(d: &mut Dec<'_>) -> Result<SolveFailure, PersistError> {
    Ok(match d.u8()? {
        0 => SolveFailure::Panicked(d.str_()?),
        1 => SolveFailure::BudgetExceeded(match d.u8()? {
            0 => BudgetKind::Pivots,
            1 => BudgetKind::Time,
            b => {
                return Err(PersistError::Malformed(format!("unknown budget kind {b}")));
            }
        }),
        2 => SolveFailure::NumericalStall,
        4 => SolveFailure::Infeasible,
        5 => SolveFailure::StateCorrupt(d.str_()?),
        t => return Err(PersistError::Malformed(format!("unknown failure tag {t}"))),
    })
}

/// Serializes the solver state into a checkpoint payload. The inverse of
/// [`decode_state`].
pub(crate) fn encode_state(
    g: usize,
    seq: u64,
    jobs: &[Option<Job>],
    blocks: &HashMap<ContentKey, CachedBlock>,
    quarantine: &HashMap<ContentKey, SolveFailure>,
) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_usize(g);
    e.put_u64(seq);
    e.put_usize(jobs.len());
    for slot in jobs {
        match slot {
            None => e.put_u8(0),
            Some(job) => {
                e.put_u8(1);
                e.put_i64(job.release);
                e.put_i64(job.deadline);
                e.put_i64(job.length);
            }
        }
    }
    e.put_usize(blocks.len());
    for (key, block) in blocks {
        encode_content_key(&mut e, key);
        e.put_usize(block.y_runs.len());
        for y in &block.y_runs {
            encode_rat(&mut e, y);
        }
        encode_rat(&mut e, &block.objective);
    }
    e.put_usize(quarantine.len());
    for (key, failure) in quarantine {
        encode_content_key(&mut e, key);
        encode_failure(&mut e, failure);
    }
    e.into_bytes()
}

/// Deserializes a checkpoint payload under full structural validation:
/// every job re-passes [`Job::try_new`], every rational has a positive
/// denominator, every failure tag is known, and every count is capped by
/// the remaining input. Any deviation is a typed [`PersistError`] —
/// never a panic, never a trusted value.
pub(crate) fn decode_state(payload: &[u8]) -> Result<PersistedState, PersistError> {
    let mut d = Dec::new(payload);
    let g = d.usize()?;
    if g == 0 {
        return Err(PersistError::Malformed("checkpoint with g = 0".into()));
    }
    let seq = d.u64()?;
    let njobs = d.count(1)?;
    let mut jobs = Vec::with_capacity(njobs);
    for i in 0..njobs {
        match d.u8()? {
            0 => jobs.push(None),
            1 => {
                let (r, dl, p) = (d.i64()?, d.i64()?, d.i64()?);
                let job = Job::try_new(r, dl, p).ok_or_else(|| {
                    PersistError::Malformed(format!(
                        "checkpoint job slot {i} is invalid: [{r}, {dl}) × {p}"
                    ))
                })?;
                jobs.push(Some(job));
            }
            t => return Err(PersistError::Malformed(format!("unknown job-slot tag {t}"))),
        }
    }
    let nblocks = d.count(1)?;
    let mut blocks = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        let key = decode_content_key(&mut d)?;
        let nruns = d.count(32)?;
        let mut y_runs = Vec::with_capacity(nruns);
        for _ in 0..nruns {
            y_runs.push(decode_rat(&mut d)?);
        }
        let objective = decode_rat(&mut d)?;
        blocks.push((key, CachedBlock { y_runs, objective }));
    }
    let nquar = d.count(1)?;
    let mut quarantine = Vec::with_capacity(nquar);
    for _ in 0..nquar {
        let key = decode_content_key(&mut d)?;
        quarantine.push((key, decode_failure(&mut d)?));
    }
    d.finish()?;
    Ok(PersistedState {
        g,
        seq,
        jobs,
        blocks,
        quarantine,
    })
}

/// The attached durable-state handle of an
/// [`IncrementalSolver`](crate::IncrementalSolver): journal + checkpoint
/// lifecycle over one [`StateDir`].
pub struct SolveStateStore {
    dir: StateDir,
    journal: Option<Journal>,
    /// Last journal sequence number handed out.
    seq: u64,
    /// Sequence number the on-disk checkpoint covers.
    checkpoint_seq: u64,
    degraded: bool,
}

impl SolveStateStore {
    /// Opens `root` and recovers its state (see the module docs for the
    /// full recovery procedure). Returns the store, the recovered state
    /// (`None` on a cold start), and the recovery report. `Err` only on
    /// genuine I/O failures (permissions, disk full) — corruption is
    /// *absorbed*, not returned.
    pub(crate) fn attach(
        root: &Path,
        expected_g: usize,
    ) -> Result<(SolveStateStore, Option<PersistedState>, RecoveryReport), PersistError> {
        let dir = StateDir::open(root)?;
        let mut report = RecoveryReport::default();
        let absorb_corruption = |report: &mut RecoveryReport| {
            record_state_corrupt();
            record_recovery();
            report.corruption_events += 1;
        };
        // Storm guard: recovery itself keeps dying — stop trusting the
        // state files at all.
        if dir.recovery_attempts() >= MAX_RECOVERY_ATTEMPTS {
            dir.quarantine(&[CHECKPOINT_FILE, JOURNAL_FILE])?;
            record_recovery();
            report.storm_quarantined = true;
            report.cold_start = true;
            let journal = Journal::create(&dir.file(JOURNAL_FILE), KIND_JOURNAL)?;
            return Ok((
                SolveStateStore {
                    dir,
                    journal: Some(journal),
                    seq: 0,
                    checkpoint_seq: 0,
                    degraded: false,
                },
                None,
                report,
            ));
        }
        dir.bump_recovery_attempts()?;
        // Checkpoint: reject-on-any-drift, including a mismatched g.
        let mut state: Option<PersistedState> = None;
        let mut had_files = false;
        match persist::read_frame(&dir.file(CHECKPOINT_FILE), KIND_CHECKPOINT) {
            Ok(None) => {}
            Ok(Some(payload)) => {
                had_files = true;
                match decode_state(&payload) {
                    Ok(s) if s.g == expected_g => state = Some(s),
                    Ok(_) | Err(_) => absorb_corruption(&mut report),
                }
            }
            Err(_) => {
                had_files = true;
                absorb_corruption(&mut report);
            }
        }
        // Journal tail: only meaningful over a valid checkpoint.
        let mut replayed = 0usize;
        if let Some(s) = &mut state {
            match Journal::replay(&dir.file(JOURNAL_FILE), KIND_JOURNAL) {
                Ok(None) => {}
                Ok(Some(rep)) => {
                    let mut corrupt = false;
                    for rec in &rep.records {
                        match JournalOp::decode(rec) {
                            Ok((seq, op)) if seq > s.seq => {
                                if apply_op(&mut s.jobs, &op) {
                                    s.seq = seq;
                                    replayed += 1;
                                } else {
                                    corrupt = true;
                                    break;
                                }
                            }
                            Ok(_) => {} // covered by the checkpoint
                            Err(_) => {
                                corrupt = true;
                                break;
                            }
                        }
                    }
                    if corrupt {
                        // Keep the (self-consistent) checkpoint state;
                        // the journal tail past this point is lost.
                        absorb_corruption(&mut report);
                    }
                }
                Err(_) => absorb_corruption(&mut report),
            }
        } else if !had_files && dir.file(JOURNAL_FILE).exists() {
            // A journal with no checkpoint at all: the lifecycle always
            // writes a checkpoint before creating a journal, so the base
            // state these ops mutate is missing — its own corruption
            // event. (A *corrupt* checkpoint was already counted above,
            // and the journal is discarded with it.)
            absorb_corruption(&mut report);
        }
        report.replayed_ops = replayed;
        if let Some(s) = &state {
            report.restored_blocks = s.blocks.len();
            if report.restored_blocks > 0 {
                record_persist_restores(report.restored_blocks as u64);
            }
            // A genuine resume (state came off disk) is a recovery event.
            record_recovery();
        } else {
            report.cold_start = true;
        }
        let seq = state.as_ref().map(|s| s.seq).unwrap_or(0);
        let mut store = SolveStateStore {
            dir,
            journal: None,
            seq,
            checkpoint_seq: seq,
            degraded: false,
        };
        // Re-baseline: one checkpoint of the recovered state, an empty
        // journal, a cleared attempt counter.
        let payload = match &state {
            Some(s) => encode_state_from_vecs(s),
            None => encode_state(expected_g, 0, &[], &HashMap::new(), &HashMap::new()),
        };
        store.write_checkpoint(&payload)?;
        store.dir.clear_recovery_attempts();
        Ok((store, state, report))
    }

    /// Whether an I/O failure while serving disabled persistence (the
    /// solver keeps serving from memory).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Last journal sequence number handed out.
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// Whether enough ops accumulated since the last checkpoint that the
    /// next solve should compact.
    pub(crate) fn checkpoint_due(&self) -> bool {
        !self.degraded && self.seq - self.checkpoint_seq >= CHECKPOINT_EVERY
    }

    /// Appends `op` to the WAL (fsynced) *before* the caller applies it
    /// in memory. An append failure degrades the store.
    pub(crate) fn log_op(&mut self, op: &JournalOp) {
        if self.degraded {
            return;
        }
        self.seq += 1;
        let rec = op.encode(self.seq);
        let ok = match &mut self.journal {
            Some(j) => j.append(&rec).is_ok(),
            None => match Journal::open_append(&self.dir.file(JOURNAL_FILE), KIND_JOURNAL) {
                Ok(mut j) => {
                    let ok = j.append(&rec).is_ok();
                    self.journal = Some(j);
                    ok
                }
                Err(_) => false,
            },
        };
        if !ok {
            self.degraded = true;
            self.journal = None;
        }
    }

    /// Writes `payload` as the checkpoint and truncates the journal —
    /// compaction. A failure degrades the store.
    pub(crate) fn checkpoint(&mut self, payload: &[u8], seq: u64) {
        if self.degraded {
            return;
        }
        if self.write_checkpoint(payload).is_err() {
            self.degraded = true;
            self.journal = None;
        } else {
            self.checkpoint_seq = seq;
        }
    }

    fn write_checkpoint(&mut self, payload: &[u8]) -> Result<(), PersistError> {
        persist::write_atomic(&self.dir.file(CHECKPOINT_FILE), KIND_CHECKPOINT, payload)?;
        self.journal = Some(Journal::create(&self.dir.file(JOURNAL_FILE), KIND_JOURNAL)?);
        Ok(())
    }
}

/// Re-encodes a decoded state (recovery's re-baseline checkpoint).
fn encode_state_from_vecs(s: &PersistedState) -> Vec<u8> {
    let blocks: HashMap<ContentKey, CachedBlock> = s
        .blocks
        .iter()
        .map(|(k, b)| (k.clone(), b.clone()))
        .collect();
    let quarantine: HashMap<ContentKey, SolveFailure> = s
        .quarantine
        .iter()
        .map(|(k, f)| (k.clone(), f.clone()))
        .collect();
    encode_state(s.g, s.seq, &s.jobs, &blocks, &quarantine)
}

/// Applies one journal op to a job-slot vector; `false` when the op does
/// not fit the state (corruption).
fn apply_op(jobs: &mut Vec<Option<Job>>, op: &JournalOp) -> bool {
    match op {
        JournalOp::Add { id, job } => {
            if *id != jobs.len() {
                return false;
            }
            jobs.push(Some(*job));
            true
        }
        JournalOp::Remove { id } => match jobs.get_mut(*id) {
            Some(slot @ Some(_)) => {
                *slot = None;
                true
            }
            _ => false,
        },
        JournalOp::Edit {
            id,
            release,
            deadline,
        } => {
            let Some(slot) = jobs.get_mut(*id).and_then(Option::as_mut) else {
                return false;
            };
            let Some(updated) = Job::try_new(*release, *deadline, slot.length) else {
                return false;
            };
            *slot = updated;
            true
        }
    }
}

/// A read-only health summary of a state directory (`abt recover`).
#[derive(Debug, Clone)]
pub struct StoreInspection {
    /// Decoded checkpoint summary, when the checkpoint is valid.
    pub checkpoint: Option<CheckpointSummary>,
    /// Why the checkpoint was rejected, when it was.
    pub checkpoint_error: Option<String>,
    /// Valid journal records on disk.
    pub journal_records: usize,
    /// Journal ops past the checkpoint (would replay on attach).
    pub pending_ops: usize,
    /// Whether the journal ends in a torn (partial) record.
    pub journal_torn_tail: bool,
    /// Why the journal was rejected, when it was.
    pub journal_error: Option<String>,
    /// Current recovery-attempt counter (nonzero means a recovery died
    /// mid-flight; [`MAX_RECOVERY_ATTEMPTS`] triggers the storm guard).
    pub recovery_attempts: u32,
}

/// Key figures of a valid checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointSummary {
    /// Capacity `g` the state was taken at.
    pub g: usize,
    /// Journal sequence number the checkpoint covers.
    pub seq: u64,
    /// Live jobs.
    pub live_jobs: usize,
    /// Cached component blocks.
    pub blocks: usize,
    /// Quarantined content keys.
    pub quarantined: usize,
}

/// Inspects a state directory without mutating it or recording telemetry:
/// the diagnosis half of `abt recover`.
pub fn inspect_store(root: impl AsRef<Path>) -> Result<StoreInspection, PersistError> {
    let dir = StateDir::open(root.as_ref())?;
    let mut out = StoreInspection {
        checkpoint: None,
        checkpoint_error: None,
        journal_records: 0,
        pending_ops: 0,
        journal_torn_tail: false,
        journal_error: None,
        recovery_attempts: dir.recovery_attempts(),
    };
    let mut ckpt_seq = 0u64;
    match persist::read_frame(&dir.file(CHECKPOINT_FILE), KIND_CHECKPOINT) {
        Ok(None) => out.checkpoint_error = Some("missing".into()),
        Ok(Some(payload)) => match decode_state(&payload) {
            Ok(s) => {
                ckpt_seq = s.seq;
                out.checkpoint = Some(CheckpointSummary {
                    g: s.g,
                    seq: s.seq,
                    live_jobs: s.jobs.iter().flatten().count(),
                    blocks: s.blocks.len(),
                    quarantined: s.quarantine.len(),
                });
            }
            Err(e) => out.checkpoint_error = Some(e.to_string()),
        },
        Err(e) => out.checkpoint_error = Some(e.to_string()),
    }
    match Journal::replay(&dir.file(JOURNAL_FILE), KIND_JOURNAL) {
        Ok(None) => out.journal_error = Some("missing".into()),
        Ok(Some(rep)) => {
            out.journal_records = rep.records.len();
            out.journal_torn_tail = rep.torn_tail;
            for rec in &rep.records {
                match JournalOp::decode(rec) {
                    Ok((seq, _)) if seq > ckpt_seq => out.pending_ops += 1,
                    Ok(_) => {}
                    Err(e) => {
                        out.journal_error = Some(e.to_string());
                        break;
                    }
                }
            }
        }
        Err(e) => out.journal_error = Some(e.to_string()),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_op_codec_roundtrip() {
        let ops = [
            JournalOp::Add {
                id: 3,
                job: Job::new(-2, 5, 4),
            },
            JournalOp::Remove { id: 0 },
            JournalOp::Edit {
                id: 7,
                release: 10,
                deadline: 20,
            },
        ];
        for (i, op) in ops.iter().enumerate() {
            let bytes = op.encode(i as u64 + 1);
            let (seq, back) = JournalOp::decode(&bytes).unwrap();
            assert_eq!(seq, i as u64 + 1);
            assert_eq!(&back, op);
        }
        // An Add of an invalid job is rejected at decode, tag drift too.
        let mut e = Enc::new();
        e.put_u64(1);
        e.put_u8(1);
        e.put_usize(0);
        e.put_i64(5);
        e.put_i64(2); // deadline < release
        e.put_i64(1);
        assert!(JournalOp::decode(&e.into_bytes()).is_err());
        let mut e = Enc::new();
        e.put_u64(1);
        e.put_u8(9);
        assert!(JournalOp::decode(&e.into_bytes()).is_err());
    }

    #[test]
    fn state_codec_roundtrip_and_validation() {
        let jobs = vec![Some(Job::new(0, 4, 2)), None, Some(Job::new(6, 9, 1))];
        let mut blocks = HashMap::new();
        blocks.insert(
            vec![(0i64, 4i64, 2i64)],
            CachedBlock {
                y_runs: vec![Rat::new(1, 2), Rat::new(3, 4)],
                objective: Rat::new(5, 4),
            },
        );
        let mut quarantine = HashMap::new();
        quarantine.insert(
            vec![(0i64, 1i64, 1i64)],
            SolveFailure::BudgetExceeded(BudgetKind::Time),
        );
        let payload = encode_state(3, 42, &jobs, &blocks, &quarantine);
        let s = decode_state(&payload).unwrap();
        assert_eq!(s.g, 3);
        assert_eq!(s.seq, 42);
        assert_eq!(s.jobs, jobs);
        assert_eq!(s.blocks.len(), 1);
        assert_eq!(s.blocks[0].1.objective, Rat::new(5, 4));
        assert_eq!(s.quarantine.len(), 1);
        // Every truncation is a typed reject.
        for cut in [0, 1, 8, payload.len() / 2, payload.len() - 1] {
            assert!(decode_state(&payload[..cut]).is_err());
        }
        // g = 0 is malformed.
        let bad = encode_state(0, 0, &[], &HashMap::new(), &HashMap::new());
        assert!(decode_state(&bad).is_err());
    }

    #[test]
    fn budget_failures_roundtrip_and_unknown_kinds_are_refused() {
        for kind in [BudgetKind::Pivots, BudgetKind::Time] {
            let mut e = Enc::new();
            encode_failure(&mut e, &SolveFailure::BudgetExceeded(kind));
            let bytes = e.into_bytes();
            let back = decode_failure(&mut Dec::new(&bytes)).unwrap();
            assert_eq!(back, SolveFailure::BudgetExceeded(kind));
        }
        // Tag 2 named a refactorization budget that no solve ever set.
        let err = decode_failure(&mut Dec::new(&[1, 2])).unwrap_err();
        assert!(err.to_string().contains("unknown budget kind 2"), "{err}");
    }
}
