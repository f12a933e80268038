//! Crash-safe persistence substrate: a versioned, checksummed binary
//! codec plus atomic file replacement, an append-only journal, and the
//! state-directory lifecycle (recovery-attempt accounting and the
//! restart-storm quarantine).
//!
//! # The reject-don't-trust invariant
//!
//! Everything above this module (job slots, component cache blocks,
//! quarantine keys — see `abt-active`'s store) treats persisted bytes as
//! an **untrusted hint**: any drift — wrong magic, wrong format version,
//! wrong frame kind, checksum mismatch, or a payload that decodes to an
//! out-of-shape value — is a [`PersistError`] that the caller converts to
//! [`SolveFailure::StateCorrupt`](crate::SolveFailure) and absorbs by
//! discarding the state and rebuilding cold. Persistence can therefore
//! cost cached work but never correctness: no decoded value is acted on
//! before it re-passes the same validation a freshly computed one would.
//!
//! # Frame format
//!
//! Every state file is one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "ABTS"
//! 4       2     format version (little-endian u16)
//! 6       2     frame kind (caller-chosen u16; e.g. checkpoint vs journal)
//! 8       8     payload length (little-endian u64)
//! 16      len   payload
//! 16+len  8     FNV-1a 64 checksum of bytes [0, 16+len)
//! ```
//!
//! [`seal`] produces a frame, [`open_frame`] validates one. The payload
//! itself is written with [`Enc`] and read back with [`Dec`] — a
//! little-endian, length-prefixed primitive codec whose decoder never
//! panics and never allocates more than the input could justify (every
//! count is capped by the bytes remaining).
//!
//! # Durability protocol
//!
//! [`write_atomic`] writes `<file>.tmp`, fsyncs it, renames it over the
//! target, and fsyncs the directory — a crash at any point leaves either
//! the old frame or the new one, never a torn hybrid. The [`Journal`] is
//! the complementary append-only half: records are individually
//! checksummed and fsynced, and [`Journal::replay`] stops cleanly at a
//! torn tail (the expected shape of a crash mid-append) while reporting a
//! mid-stream checksum mismatch as corruption.
//!
//! # Fault injection
//!
//! Under the `fault-injection` feature the two I/O failpoints of
//! [`crate::faultinject`] fire here: `torn_write` truncates a just-written
//! state file (modelling a lying disk that acknowledged a partial write),
//! and `corrupt_read` flips one payload byte on load (bit rot). Both must
//! surface as [`PersistError`]s on the next load — the fault-injection
//! suite asserts that every injected corruption demotes to a cold rebuild
//! with bit-identical objectives.

use crate::faultinject;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// First bytes of every state file.
pub const MAGIC: [u8; 4] = *b"ABTS";

/// Current on-disk format version. Bump on any layout change: old files
/// then fail [`open_frame`] with [`PersistError::BadVersion`] and are
/// rebuilt cold, which is always safe. Version 2: the checkpoint payload
/// no longer carries basis-snapshot pools.
pub const FORMAT_VERSION: u16 = 2;

/// Size of the fixed frame header (magic + version + kind + length).
const HEADER_LEN: usize = 16;

/// Size of the trailing checksum.
const TRAILER_LEN: usize = 8;

/// Why persisted bytes were rejected. Every variant is terminal for the
/// file that produced it: callers discard the state and rebuild cold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// An operating-system I/O error (message preserved).
    Io(String),
    /// The input ended before a declared field.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    BadVersion {
        /// Version found in the header.
        found: u16,
        /// Version this build writes and reads.
        expected: u16,
    },
    /// The frame kind does not match what the caller expected (e.g. a
    /// journal file where a checkpoint should be).
    BadKind {
        /// Kind tag found in the header.
        found: u16,
        /// Kind tag the caller expected.
        expected: u16,
    },
    /// The trailing FNV-1a checksum does not match the frame bytes.
    ChecksumMismatch,
    /// The payload decoded to a structurally invalid value (bad tag,
    /// impossible count, shape drift, non-UTF-8 string, ...).
    Malformed(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(m) => write!(f, "i/o error: {m}"),
            PersistError::Truncated { need, have } => {
                write!(f, "truncated: needed {need} bytes, {have} remain")
            }
            PersistError::BadMagic => write!(f, "bad magic (not an abt state file)"),
            PersistError::BadVersion { found, expected } => {
                write!(f, "format version {found} (this build reads {expected})")
            }
            PersistError::BadKind { found, expected } => {
                write!(f, "frame kind {found} where kind {expected} was expected")
            }
            PersistError::ChecksumMismatch => write!(f, "checksum mismatch"),
            PersistError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> PersistError {
        PersistError::Io(e.to_string())
    }
}

impl From<PersistError> for crate::SolveFailure {
    fn from(e: PersistError) -> crate::SolveFailure {
        crate::SolveFailure::StateCorrupt(e.to_string())
    }
}

/// FNV-1a 64-bit checksum — the same hash family `bench_record` and the
/// workload generators use; collision resistance is irrelevant here (the
/// threat model is accidental corruption, not adversaries).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian primitive encoder. All multi-byte integers are
/// little-endian; counts and lengths are `u64`; strings are
/// length-prefixed UTF-8.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i128`.
    pub fn put_i128(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u64` (the on-disk format is
    /// width-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a bool as one byte (`0`/`1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Little-endian primitive decoder over a borrowed byte slice. Every
/// accessor returns a typed [`PersistError`] instead of panicking, and
/// [`Dec::count`] caps declared element counts by the bytes remaining, so
/// arbitrarily mutated or truncated input can neither panic the decoder
/// nor trick it into an absurd allocation.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails with [`PersistError::Malformed`] unless every byte was
    /// consumed — trailing garbage means the payload is not what the
    /// encoder wrote.
    pub fn finish(&self) -> Result<(), PersistError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(PersistError::Malformed(format!(
                "{} trailing bytes",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, PersistError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, PersistError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a little-endian `i128`.
    pub fn i128(&mut self) -> Result<i128, PersistError> {
        let b = self.take(16)?;
        Ok(i128::from_le_bytes(b.try_into().expect("16-byte slice")))
    }

    /// Reads a `usize` written by [`Enc::put_usize`]; fails on values that
    /// do not fit the platform's `usize`.
    pub fn usize(&mut self) -> Result<usize, PersistError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| PersistError::Malformed(format!("usize overflow: {v}")))
    }

    /// Reads a bool; any byte other than `0`/`1` is malformed.
    pub fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(PersistError::Malformed(format!("bad bool byte {b}"))),
        }
    }

    /// Reads an element count for a collection whose elements occupy at
    /// least `min_elem_bytes` each, rejecting counts the remaining input
    /// could not possibly hold — the guard that makes `Vec::with_capacity`
    /// on decoded counts safe against corrupted length fields.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, PersistError> {
        let n = self.usize()?;
        let cap = self.remaining() / min_elem_bytes.max(1);
        if n > cap {
            return Err(PersistError::Malformed(format!(
                "count {n} exceeds what {} remaining bytes can hold",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string written by [`Enc::put_str`].
    pub fn str_(&mut self) -> Result<String, PersistError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Malformed("non-UTF-8 string".into()))
    }
}

/// Wraps `payload` in a checksummed frame of the given `kind` (see the
/// module docs for the layout).
pub fn seal(kind: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates a frame (magic, version, expected `kind`, declared length,
/// checksum) and returns its payload slice. Any drift is a typed
/// [`PersistError`] — the caller rebuilds cold.
pub fn open_frame(kind: u16, bytes: &[u8]) -> Result<&[u8], PersistError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(PersistError::Truncated {
            need: HEADER_LEN + TRAILER_LEN,
            have: bytes.len(),
        });
    }
    if bytes[..4] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FORMAT_VERSION {
        return Err(PersistError::BadVersion {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let found_kind = u16::from_le_bytes([bytes[6], bytes[7]]);
    if found_kind != kind {
        return Err(PersistError::BadKind {
            found: found_kind,
            expected: kind,
        });
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let expected_total = (HEADER_LEN + TRAILER_LEN) as u64 + len;
    if expected_total != bytes.len() as u64 {
        return Err(PersistError::Truncated {
            need: expected_total as usize,
            have: bytes.len(),
        });
    }
    let body = &bytes[..bytes.len() - TRAILER_LEN];
    let stored = u64::from_le_bytes(
        bytes[bytes.len() - TRAILER_LEN..]
            .try_into()
            .expect("8-byte slice"),
    );
    if checksum(body) != stored {
        return Err(PersistError::ChecksumMismatch);
    }
    Ok(&body[HEADER_LEN..])
}

/// Best-effort fsync of a file's parent directory (makes the rename of
/// [`write_atomic`] itself durable). Errors are swallowed: some
/// filesystems refuse directory fsyncs, and the worst case is the
/// pre-rename state after a power cut — exactly what the recovery path
/// already handles.
fn sync_parent_dir(path: &Path) {
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Atomically replaces `path` with a sealed frame of `kind` around
/// `payload`: write `<path>.tmp`, fsync, rename over `path`, fsync the
/// directory. A crash at any point leaves the old frame or the new one.
///
/// The `torn_write` failpoint fires after the rename and truncates the
/// final file — modelling a disk that acknowledged a write it did not
/// complete, the failure mode the atomic protocol cannot rule out. The
/// torn frame fails validation on the next load.
pub fn write_atomic(path: &Path, kind: u16, payload: &[u8]) -> Result<(), PersistError> {
    let framed = seal(kind, payload);
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&framed)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    if faultinject::io_fault("torn_write") == Some(faultinject::IoFault::TornWrite) {
        let f = fs::OpenOptions::new().write(true).open(path)?;
        f.set_len((framed.len() / 2) as u64)?;
    }
    Ok(())
}

/// Reads and validates the frame at `path`, returning its payload.
/// `Ok(None)` when the file does not exist (a fresh state dir, not an
/// error); every other deviation is a typed [`PersistError`].
///
/// The `corrupt_read` failpoint flips one mid-file byte before
/// validation — modelling bit rot, which the checksum must catch.
pub fn read_frame(path: &Path, kind: u16) -> Result<Option<Vec<u8>>, PersistError> {
    let mut bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if faultinject::io_fault("corrupt_read") == Some(faultinject::IoFault::CorruptRead)
        && !bytes.is_empty()
    {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
    }
    Ok(Some(open_frame(kind, &bytes)?.to_vec()))
}

/// Append-only write-ahead journal. The file starts with a bare frame
/// header (magic, version, kind, zero length — no trailing checksum,
/// since the file grows); each appended record is
/// `u32 payload-length · u64 FNV-1a of the payload · payload`, fsynced.
pub struct Journal {
    file: fs::File,
    kind: u16,
}

/// What [`Journal::replay`] recovered.
pub struct JournalReplay {
    /// The record payloads, in append order, up to the first torn record.
    pub records: Vec<Vec<u8>>,
    /// Whether a torn tail was dropped (a partial final record — the
    /// expected shape of a crash mid-append, not corruption).
    pub torn_tail: bool,
}

impl Journal {
    fn header(kind: u16) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[..4].copy_from_slice(&MAGIC);
        h[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        h[6..8].copy_from_slice(&kind.to_le_bytes());
        // Length stays zero: journals grow; records are self-delimiting.
        h
    }

    /// Creates (or truncates) the journal at `path`.
    pub fn create(path: &Path, kind: u16) -> Result<Journal, PersistError> {
        let mut file = fs::File::create(path)?;
        file.write_all(&Journal::header(kind))?;
        file.sync_all()?;
        sync_parent_dir(path);
        Ok(Journal { file, kind })
    }

    /// Opens the journal at `path` for appending, creating it when
    /// missing. The existing header must validate; a corrupt header is a
    /// [`PersistError`] (the caller discards the journal).
    pub fn open_append(path: &Path, kind: u16) -> Result<Journal, PersistError> {
        match fs::read(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Journal::create(path, kind),
            Err(e) => Err(e.into()),
            Ok(bytes) => {
                Journal::check_header(kind, &bytes)?;
                let file = fs::OpenOptions::new().append(true).open(path)?;
                Ok(Journal { file, kind })
            }
        }
    }

    fn check_header(kind: u16, bytes: &[u8]) -> Result<(), PersistError> {
        if bytes.len() < HEADER_LEN {
            return Err(PersistError::Truncated {
                need: HEADER_LEN,
                have: bytes.len(),
            });
        }
        if bytes[..4] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != FORMAT_VERSION {
            return Err(PersistError::BadVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let found_kind = u16::from_le_bytes([bytes[6], bytes[7]]);
        if found_kind != kind {
            return Err(PersistError::BadKind {
                found: found_kind,
                expected: kind,
            });
        }
        Ok(())
    }

    /// Appends one record and fsyncs it — the WAL discipline: the record
    /// is durable before the in-memory mutation it describes is acted on.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), PersistError> {
        let mut rec = Vec::with_capacity(12 + payload.len());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&checksum(payload).to_le_bytes());
        rec.extend_from_slice(payload);
        self.file.write_all(&rec)?;
        self.file.sync_data()?;
        Ok(())
    }

    /// The frame kind this journal was opened with.
    pub fn kind(&self) -> u16 {
        self.kind
    }

    /// Replays the journal at `path`. `Ok(None)` when the file does not
    /// exist. A partial final record is a torn tail (dropped, flagged,
    /// not an error); a mid-stream checksum mismatch or a bad header is
    /// corruption and fails the whole replay.
    ///
    /// The `corrupt_read` failpoint flips one mid-file byte before
    /// parsing, like [`read_frame`].
    pub fn replay(path: &Path, kind: u16) -> Result<Option<JournalReplay>, PersistError> {
        let mut bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        if faultinject::io_fault("corrupt_read") == Some(faultinject::IoFault::CorruptRead)
            && bytes.len() > HEADER_LEN
        {
            // Flip a byte past the header: header corruption is the less
            // interesting failure (whole-journal reject), record corruption
            // exercises the mid-stream checksum path.
            let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
            bytes[mid] ^= 0x40;
        }
        Journal::check_header(kind, &bytes)?;
        let mut records = Vec::new();
        let mut pos = HEADER_LEN;
        let mut torn_tail = false;
        while pos < bytes.len() {
            if bytes.len() - pos < 12 {
                torn_tail = true;
                break;
            }
            let len =
                u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4-byte slice")) as usize;
            let stored =
                u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8-byte slice"));
            if bytes.len() - pos - 12 < len {
                torn_tail = true;
                break;
            }
            let payload = &bytes[pos + 12..pos + 12 + len];
            if checksum(payload) != stored {
                // A full-length record with a wrong checksum is bit rot,
                // not a crash artifact: fail the replay.
                return Err(PersistError::ChecksumMismatch);
            }
            records.push(payload.to_vec());
            pos += 12 + len;
        }
        Ok(Some(JournalReplay { records, torn_tail }))
    }
}

/// Name of the recovery-attempt counter file inside a state directory.
const ATTEMPTS_FILE: &str = "recovery.attempts";

/// A solver state directory: path bookkeeping, the recovery-attempt
/// counter behind the restart-storm guard, and the quarantine move-aside.
///
/// The attempt counter is deliberately plain text (not framed): it must
/// survive — and be inspectable — precisely when the framed files are the
/// problem.
pub struct StateDir {
    root: PathBuf,
}

impl StateDir {
    /// Opens (creating if needed) the state directory at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<StateDir, PersistError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(StateDir { root })
    }

    /// The directory path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of a file inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// The current recovery-attempt count (0 when the counter file is
    /// missing or unreadable — an unreadable counter must not block
    /// recovery, it only weakens the storm guard by one cycle).
    pub fn recovery_attempts(&self) -> u32 {
        fs::read_to_string(self.file(ATTEMPTS_FILE))
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0)
    }

    /// Increments and persists the recovery-attempt counter, returning
    /// the new value. Called at the *start* of recovery; a recovery that
    /// completes calls [`StateDir::clear_recovery_attempts`], so a
    /// counter that keeps climbing means recovery itself is crashing —
    /// the restart storm the guard exists for.
    pub fn bump_recovery_attempts(&self) -> Result<u32, PersistError> {
        let next = self.recovery_attempts() + 1;
        // Plain (non-atomic) write: a torn counter reads as 0, which only
        // grants the storm guard one extra cycle.
        fs::write(self.file(ATTEMPTS_FILE), format!("{next}\n"))?;
        Ok(next)
    }

    /// Removes the recovery-attempt counter (recovery completed).
    pub fn clear_recovery_attempts(&self) {
        let _ = fs::remove_file(self.file(ATTEMPTS_FILE));
    }

    /// Moves the named files (those that exist) into a fresh
    /// `quarantined-N` subdirectory and returns its path — the
    /// restart-storm guard's move-aside: the state is preserved for
    /// offline inspection, the directory is clean for a cold start, and
    /// the process never crash-loops on a poisoned file.
    pub fn quarantine(&self, names: &[&str]) -> Result<PathBuf, PersistError> {
        let dir = (0u32..)
            .map(|n| self.root.join(format!("quarantined-{n}")))
            .find(|p| !p.exists())
            .expect("some quarantine index is free");
        fs::create_dir_all(&dir)?;
        for name in names {
            let src = self.file(name);
            if src.exists() {
                fs::rename(&src, dir.join(name))?;
            }
        }
        self.clear_recovery_attempts();
        Ok(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("abt-persist-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn enc_dec_roundtrip() {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_u16(1234);
        e.put_u32(u32::MAX);
        e.put_u64(u64::MAX - 1);
        e.put_i64(-42);
        e.put_i128(-(1i128 << 100));
        e.put_usize(99);
        e.put_bool(true);
        e.put_str("héllo");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 1234);
        assert_eq!(d.u32().unwrap(), u32::MAX);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.i128().unwrap(), -(1i128 << 100));
        assert_eq!(d.usize().unwrap(), 99);
        assert!(d.bool().unwrap());
        assert_eq!(d.str_().unwrap(), "héllo");
        d.finish().unwrap();
    }

    #[test]
    fn dec_rejects_truncation_bad_bools_and_greedy_counts() {
        let mut d = Dec::new(&[1, 2]);
        assert!(matches!(d.u64(), Err(PersistError::Truncated { .. })));
        let mut d = Dec::new(&[7]);
        assert!(matches!(d.bool(), Err(PersistError::Malformed(_))));
        // A count field claiming more elements than the input holds.
        let mut e = Enc::new();
        e.put_usize(1_000_000);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.count(8), Err(PersistError::Malformed(_))));
        // Trailing garbage is rejected by finish().
        let d = Dec::new(&[0]);
        assert!(d.finish().is_err());
    }

    #[test]
    fn frame_roundtrip_and_rejections() {
        let framed = seal(3, b"payload");
        assert_eq!(open_frame(3, &framed).unwrap(), b"payload");
        // Wrong kind.
        assert!(matches!(
            open_frame(4, &framed),
            Err(PersistError::BadKind {
                found: 3,
                expected: 4
            })
        ));
        // Any single flipped payload byte breaks the checksum.
        let mut bad = framed.clone();
        bad[HEADER_LEN + 2] ^= 1;
        assert!(matches!(
            open_frame(3, &bad),
            Err(PersistError::ChecksumMismatch)
        ));
        // Truncation at every prefix is a typed reject, never a panic.
        for cut in 0..framed.len() {
            assert!(open_frame(3, &framed[..cut]).is_err());
        }
        // Wrong magic and wrong version.
        let mut bad = framed.clone();
        bad[0] = b'X';
        assert!(matches!(open_frame(3, &bad), Err(PersistError::BadMagic)));
        let mut bad = framed;
        bad[4] = FORMAT_VERSION as u8 + 1;
        assert!(matches!(
            open_frame(3, &bad),
            Err(PersistError::BadVersion { .. })
        ));
    }

    #[test]
    fn write_atomic_read_frame_roundtrip() {
        let dir = tmpdir("atomic");
        let path = dir.join("state.abt");
        assert_eq!(read_frame(&path, 1).unwrap(), None, "missing file is None");
        write_atomic(&path, 1, b"hello").unwrap();
        assert_eq!(read_frame(&path, 1).unwrap().unwrap(), b"hello");
        // Overwrite is atomic and leaves no .tmp behind.
        write_atomic(&path, 1, b"world").unwrap();
        assert_eq!(read_frame(&path, 1).unwrap().unwrap(), b"world");
        assert!(!dir.join("state.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_append_replay_and_torn_tail() {
        let dir = tmpdir("journal");
        let path = dir.join("journal.abt");
        assert!(Journal::replay(&path, 2).unwrap().is_none());
        let mut j = Journal::create(&path, 2).unwrap();
        j.append(b"one").unwrap();
        j.append(b"two").unwrap();
        drop(j);
        // Re-open for append, like a restarted process.
        let mut j = Journal::open_append(&path, 2).unwrap();
        j.append(b"three").unwrap();
        drop(j);
        let rep = Journal::replay(&path, 2).unwrap().unwrap();
        assert_eq!(
            rep.records,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        assert!(!rep.torn_tail);
        // Tear the tail mid-record: replay keeps the durable prefix.
        let len = fs::metadata(&path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);
        let rep = Journal::replay(&path, 2).unwrap().unwrap();
        assert_eq!(rep.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(rep.torn_tail);
        // Mid-stream bit rot (not a tear) fails the whole replay.
        let mut bytes = fs::read(&path).unwrap();
        let mid = HEADER_LEN + 12 + 1; // inside record "one"'s payload
        bytes[mid] ^= 1;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Journal::replay(&path, 2),
            Err(PersistError::ChecksumMismatch)
        ));
        // Wrong kind on open_append is rejected too.
        assert!(Journal::open_append(&path, 9).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn statedir_attempts_and_quarantine() {
        let dir = tmpdir("statedir");
        let sd = StateDir::open(&dir).unwrap();
        assert_eq!(sd.recovery_attempts(), 0);
        assert_eq!(sd.bump_recovery_attempts().unwrap(), 1);
        assert_eq!(sd.bump_recovery_attempts().unwrap(), 2);
        assert_eq!(sd.recovery_attempts(), 2);
        sd.clear_recovery_attempts();
        assert_eq!(sd.recovery_attempts(), 0);
        // Quarantine moves the named files aside and resets the counter.
        fs::write(sd.file("checkpoint.abt"), b"x").unwrap();
        fs::write(sd.file("journal.abt"), b"y").unwrap();
        sd.bump_recovery_attempts().unwrap();
        let q = sd
            .quarantine(&["checkpoint.abt", "journal.abt", "absent.abt"])
            .unwrap();
        assert!(q.join("checkpoint.abt").exists());
        assert!(q.join("journal.abt").exists());
        assert!(!sd.file("checkpoint.abt").exists());
        assert_eq!(sd.recovery_attempts(), 0);
        // A second quarantine lands in a fresh numbered dir.
        fs::write(sd.file("checkpoint.abt"), b"z").unwrap();
        let q2 = sd.quarantine(&["checkpoint.abt"]).unwrap();
        assert_ne!(q, q2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
