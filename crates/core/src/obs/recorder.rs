//! Bounded ring-buffer flight recorder.
//!
//! While tracing is armed ([`crate::obs::trace::set_tracing`]), every
//! span close and [`crate::obs::trace::event`] emission appends a
//! [`TraceEntry`] here. The buffer is bounded ([`set_capacity`],
//! default [`DEFAULT_CAPACITY`]): on overflow the **oldest** entries are
//! evicted and counted in [`dropped`], so a dump after an incident
//! always holds the most recent window — the flight-recorder contract.
//!
//! # Dump format (JSONL)
//!
//! [`dump_jsonl`] renders one JSON object per line, in append (`seq`)
//! order:
//!
//! ```json
//! {"seq":17,"kind":"span","name":"solve.pivot","thread":3,"span":12,"parent":11,"start_us":8123,"dur_us":455,"fields":{"vars":"120"}}
//! {"seq":18,"kind":"event","name":"supervise.demotion","thread":3,"parent":12,"start_us":8600,"fields":{"failure":"numerical stall","from":"cold revised","to":"dense hybrid"}}
//! ```
//!
//! * `seq` — global append order (events interleave with span *closes*;
//!   a parent span therefore appears after its children).
//! * `span` / `parent` — span ids; `parent` 0 means a root. Events
//!   carry only `parent` (the innermost span open on their thread).
//! * `start_us` / `dur_us` — microseconds since the process
//!   observability epoch / span duration.
//!
//! [`validate_jsonl`] re-parses a dump and tallies span/event kinds —
//! the CI smoke check and `abt trace --check` run on it.

use crate::json::{escape_into, Json};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, OnceLock};

/// Default ring capacity (entries), sized to hold the full span/event
/// stream of a mid-size experiment sweep.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Whether a [`TraceEntry`] is a closed span or a point-in-time event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A closed [`crate::obs::trace::Span`] with a duration.
    Span,
    /// A point-in-time structured event.
    Event,
}

/// One flight-recorder entry (see the module docs for the dump format).
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Global append order.
    pub seq: u64,
    /// Span close or event.
    pub kind: EntryKind,
    /// Span/event name (`solve.pivot`, `supervise.demotion`, …).
    pub name: &'static str,
    /// Dense ordinal of the emitting thread.
    pub thread: u64,
    /// Span id (0 for events).
    pub span: u64,
    /// Parent span id (0 = root / no open span).
    pub parent: u64,
    /// Microseconds since the process observability epoch.
    pub start_us: u64,
    /// Span duration in microseconds (0 for events).
    pub dur_us: u64,
    /// Structured `key=value` payload.
    pub fields: Vec<(&'static str, String)>,
}

struct Ring {
    buf: VecDeque<TraceEntry>,
    cap: usize,
    dropped: u64,
    next_seq: u64,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            buf: VecDeque::new(),
            cap: DEFAULT_CAPACITY,
            dropped: 0,
            next_seq: 1,
        })
    })
}

fn push(mut entry: TraceEntry) {
    let mut ring = ring().lock().expect("flight recorder poisoned");
    entry.seq = ring.next_seq;
    ring.next_seq += 1;
    if ring.buf.len() >= ring.cap {
        ring.buf.pop_front();
        ring.dropped += 1;
    }
    ring.buf.push_back(entry);
}

/// Appends a closed span (called by the span guard's `Drop`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn push_span(
    name: &'static str,
    span: u64,
    parent: u64,
    thread: u64,
    start_us: u64,
    dur_us: u64,
    fields: Vec<(&'static str, String)>,
) {
    push(TraceEntry {
        seq: 0,
        kind: EntryKind::Span,
        name,
        thread,
        span,
        parent,
        start_us,
        dur_us,
        fields,
    });
}

/// Appends a point-in-time event.
pub(crate) fn push_event(
    name: &'static str,
    parent: u64,
    thread: u64,
    start_us: u64,
    fields: Vec<(&'static str, String)>,
) {
    push(TraceEntry {
        seq: 0,
        kind: EntryKind::Event,
        name,
        thread,
        span: 0,
        parent,
        start_us,
        dur_us: 0,
        fields,
    });
}

/// Resizes the ring (evicting oldest entries if shrinking below the
/// current length).
pub fn set_capacity(cap: usize) {
    let mut ring = ring().lock().expect("flight recorder poisoned");
    ring.cap = cap.max(1);
    while ring.buf.len() > ring.cap {
        ring.buf.pop_front();
        ring.dropped += 1;
    }
}

/// Number of entries evicted by the bound so far.
pub fn dropped() -> u64 {
    ring().lock().expect("flight recorder poisoned").dropped
}

/// Number of entries currently buffered.
pub fn len() -> usize {
    ring().lock().expect("flight recorder poisoned").buf.len()
}

/// Clears the buffer (the eviction counter is kept).
pub fn clear() {
    ring().lock().expect("flight recorder poisoned").buf.clear();
}

/// Copies the buffered entries out in append order.
pub fn entries() -> Vec<TraceEntry> {
    ring()
        .lock()
        .expect("flight recorder poisoned")
        .buf
        .iter()
        .cloned()
        .collect()
}

fn render_line(out: &mut String, e: &TraceEntry) {
    out.push_str(&format!(
        "{{\"seq\":{},\"kind\":\"{}\",\"name\":\"",
        e.seq,
        match e.kind {
            EntryKind::Span => "span",
            EntryKind::Event => "event",
        }
    ));
    escape_into(out, e.name);
    out.push_str(&format!("\",\"thread\":{}", e.thread));
    if e.kind == EntryKind::Span {
        out.push_str(&format!(",\"span\":{}", e.span));
    }
    out.push_str(&format!(
        ",\"parent\":{},\"start_us\":{}",
        e.parent, e.start_us
    ));
    if e.kind == EntryKind::Span {
        out.push_str(&format!(",\"dur_us\":{}", e.dur_us));
    }
    if !e.fields.is_empty() {
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in e.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(out, k);
            out.push_str("\":\"");
            escape_into(out, v);
            out.push('"');
        }
        out.push('}');
    }
    out.push_str("}\n");
}

/// Renders the buffered entries as JSONL (see the module docs).
pub fn dump_jsonl() -> String {
    let mut out = String::new();
    for e in entries() {
        render_line(&mut out, &e);
    }
    out
}

/// Writes [`dump_jsonl`] to `path`.
pub fn dump_to_file(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, dump_jsonl())
}

/// Per-kind tallies of a parsed dump (see [`validate_jsonl`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DumpSummary {
    /// Parsed line count.
    pub lines: usize,
    /// Span close count per span name.
    pub span_kinds: BTreeMap<String, u64>,
    /// Event count per event name.
    pub event_kinds: BTreeMap<String, u64>,
}

/// Parses a flight-recorder JSONL dump back, checking each line is a
/// well-formed JSON object of strings, numbers and nested objects (the
/// only value kinds [`dump_jsonl`] writes) with the required
/// `seq`/`kind`/`name` keys, and tallies span/event kinds. Errors name
/// the first offending line. Empty input is valid (an empty recorder
/// dumps nothing).
pub fn validate_jsonl(text: &str) -> Result<DumpSummary, String> {
    let mut summary = DumpSummary::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let obj = match &value {
            Json::Object(obj) if obj.values().all(is_dump_value) => obj,
            _ => {
                return Err(format!(
                    "line {}: not an object of strings, numbers and objects",
                    i + 1
                ))
            }
        };
        let kind = match obj.get("kind") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err(format!("line {}: missing string key \"kind\"", i + 1)),
        };
        let name = match obj.get("name") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err(format!("line {}: missing string key \"name\"", i + 1)),
        };
        if !matches!(obj.get("seq"), Some(Json::Num(_))) {
            return Err(format!("line {}: missing numeric key \"seq\"", i + 1));
        }
        match kind.as_str() {
            "span" => *summary.span_kinds.entry(name).or_insert(0) += 1,
            "event" => *summary.event_kinds.entry(name).or_insert(0) += 1,
            other => return Err(format!("line {}: unknown kind {other:?}", i + 1)),
        }
        summary.lines += 1;
    }
    Ok(summary)
}

/// Whether `v` is a value kind a dump line may hold: a string, a number,
/// or an object of those.
fn is_dump_value(v: &Json) -> bool {
    match v {
        Json::Str(_) | Json::Num(_) => true,
        Json::Object(m) => m.values().all(is_dump_value),
        Json::Array(_) | Json::Bool(_) | Json::Null => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_roundtrips_through_the_validator() {
        let mut out = String::new();
        render_line(
            &mut out,
            &TraceEntry {
                seq: 1,
                kind: EntryKind::Span,
                name: "solve.pivot",
                thread: 2,
                span: 10,
                parent: 9,
                start_us: 100,
                dur_us: 55,
                fields: vec![("vars", "12".into()), ("note", "a \"quoted\"\nline".into())],
            },
        );
        render_line(
            &mut out,
            &TraceEntry {
                seq: 2,
                kind: EntryKind::Event,
                name: "supervise.demotion",
                thread: 2,
                span: 0,
                parent: 10,
                start_us: 120,
                dur_us: 0,
                fields: vec![("failure", "numerical stall".into())],
            },
        );
        let summary = validate_jsonl(&out).expect("dump must validate");
        assert_eq!(summary.lines, 2);
        assert_eq!(summary.span_kinds.get("solve.pivot"), Some(&1));
        assert_eq!(summary.event_kinds.get("supervise.demotion"), Some(&1));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_jsonl("{\"seq\":1}").is_err(), "missing kind/name");
        assert!(validate_jsonl("not json").is_err());
        assert!(validate_jsonl("{\"seq\":1,\"kind\":\"span\",\"name\":\"x\"} trailing").is_err());
        assert!(
            validate_jsonl("{\"seq\":1,\"kind\":\"span\",\"name\":\"x\",\"ok\":true}").is_err()
        );
        assert_eq!(validate_jsonl("").unwrap(), DumpSummary::default());
    }

    #[test]
    fn ring_bound_evicts_oldest() {
        // The ring is process-global; exercise the bound through the
        // internal push with a scratch capacity, then restore.
        let original_cap = {
            let r = ring().lock().unwrap();
            r.cap
        };
        set_capacity(4);
        clear();
        for _ in 0..10 {
            push_event("test.recorder.evict", 0, 0, 0, Vec::new());
        }
        assert!(len() <= 4);
        let tail = entries();
        // Entries are the most recent ones, in seq order.
        for pair in tail.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
        set_capacity(original_cap);
        clear();
    }
}
