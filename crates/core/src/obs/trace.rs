//! Span/event tracing over the solve pipeline.
//!
//! A [`Span`] is an RAII guard ([`span`] / [`span_with`] / the
//! [`obs_span!`](crate::obs_span) macro) timing one named phase of work
//! — `solve.decompose`, `solve.pivot`, `solve.certify`,
//! `solve.stitch`, `solve.component`, … Guards nest per thread: a span
//! opened while another is live on the same thread records it as its
//! parent, so a flight-recorder dump reconstructs the per-thread span
//! tree of a solve.
//!
//! Two cost tiers, switched at runtime:
//!
//! * **Rollups — always on.** Every span close adds its duration to a
//!   per-name `(count, total nanoseconds)` pair in the metrics registry
//!   ([`span_rollups`]); this is a couple of relaxed atomic adds plus
//!   two monotonic clock reads per span, which is noise next to the LP
//!   work a span wraps and never perturbs solver decisions (pivot
//!   counts are bit-identical with tracing on or off). The CLI's
//!   per-phase time breakdown reads these.
//! * **Flight recording — off by default.** When the runtime switch
//!   ([`set_tracing`]) is armed, span closes and [`event`] emissions
//!   additionally append structured entries to the bounded ring buffer
//!   in [`crate::obs::recorder`]. Disabled, a span pays one relaxed
//!   atomic load for the check and allocates nothing for its fields.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use super::{metrics, recorder};

static TRACING: AtomicBool = AtomicBool::new(false);

/// Arms or disarms the flight recorder at runtime. Disarmed (the
/// default), spans still feed the always-on rollups but nothing is
/// appended to the ring buffer and span fields are never materialized.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether the flight recorder is currently armed.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Monotonic process clock origin shared by every span and event.
fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the first observability call of the
/// process (the timestamp base of flight-recorder entries).
pub fn now_micros() -> u64 {
    process_epoch().elapsed().as_micros() as u64
}

/// Small dense integer id of the calling thread (assigned on first use;
/// stable for the thread's lifetime). Flight-recorder entries carry it
/// so per-thread span trees can be reassembled from a dump.
pub fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|t| *t)
}

thread_local! {
    /// Stack of open span ids on this thread (parent linkage).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The span id of the innermost open span on this thread (0 = none).
/// Events attach to it as their parent.
pub fn current_span() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// An RAII guard timing one named phase. Created by [`span`] /
/// [`span_with`]; closing (dropping) the guard feeds the per-name
/// rollup and — when tracing is armed — appends a flight-recorder
/// entry.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    start_us: u64,
    started: Instant,
    fields: Vec<(&'static str, String)>,
}

impl Span {
    /// Attaches a `key=value` field to the span's flight-recorder entry.
    /// A no-op while tracing is disarmed, so values are only formatted
    /// when a recorder is listening.
    pub fn field(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if tracing_enabled() {
            self.fields.push((key, value.to_string()));
        }
    }
}

/// Opens a span named `name` on the current thread.
pub fn span(name: &'static str) -> Span {
    let id = next_span_id();
    let parent = current_span();
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    Span {
        name,
        id,
        parent,
        start_us: now_micros(),
        started: Instant::now(),
        fields: Vec::new(),
    }
}

/// [`span`] with initial fields. The `make_fields` closure runs only
/// when tracing is armed.
pub fn span_with(
    name: &'static str,
    make_fields: impl FnOnce() -> Vec<(&'static str, String)>,
) -> Span {
    let mut s = span(name);
    if tracing_enabled() {
        s.fields = make_fields();
    }
    s
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur = self.started.elapsed();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop our own id; tolerate (skip) nothing else — guards are
            // strictly nested by construction, but a leaked guard
            // crossing threads must not corrupt another thread's stack.
            if stack.last() == Some(&self.id) {
                stack.pop();
            }
        });
        rollup(self.name, dur.as_nanos() as u64);
        if tracing_enabled() {
            recorder::push_span(
                self.name,
                self.id,
                self.parent,
                thread_ordinal(),
                self.start_us,
                dur.as_micros() as u64,
                std::mem::take(&mut self.fields),
            );
        }
    }
}

/// Emits a structured point-in-time event (`supervise.demotion`,
/// `persist.recovery`, …) into the flight recorder, parented to the
/// innermost open span of the calling thread. A no-op while tracing is
/// disarmed; the `make_fields` closure runs only when armed.
pub fn event(name: &'static str, make_fields: impl FnOnce() -> Vec<(&'static str, String)>) {
    if !tracing_enabled() {
        return;
    }
    recorder::push_event(
        name,
        current_span(),
        thread_ordinal(),
        now_micros(),
        make_fields(),
    );
}

/// Per-span-name duration rollup handles, resolved once per name.
fn rollup(name: &'static str, nanos: u64) {
    type Handles = (&'static metrics::Counter, &'static metrics::Counter);
    static ROLLUPS: OnceLock<Mutex<std::collections::BTreeMap<&'static str, Handles>>> =
        OnceLock::new();
    let map = ROLLUPS.get_or_init(|| Mutex::new(std::collections::BTreeMap::new()));
    let (count, total) = {
        let mut map = map.lock().expect("span rollup lock poisoned");
        *map.entry(name).or_insert_with(|| {
            // Leak the two derived names once per distinct span name.
            let count: &'static str = Box::leak(format!("span.{name}.count").into_boxed_str());
            let nanos: &'static str = Box::leak(format!("span.{name}.nanos").into_boxed_str());
            (metrics::counter(count), metrics::counter(nanos))
        })
    };
    count.inc();
    total.add(nanos);
}

/// Cumulative span rollups: `(span name, close count, total
/// nanoseconds)` per distinct span name seen so far, sorted by name.
/// Diff two calls to scope rollups to a region (all values are
/// monotone).
pub fn span_rollups() -> Vec<(String, u64, u64)> {
    // Rollup metric names are `span.<name>.count` / `span.<name>.nanos`;
    // read them back through the registry's text exposition to avoid a
    // second bookkeeping structure.
    let mut out = Vec::new();
    let mut counts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut nanos: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for line in metrics::render().lines() {
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<u64>() else {
            continue;
        };
        if let Some(core) = name
            .strip_prefix("span.")
            .and_then(|n| n.strip_suffix(".count"))
        {
            counts.insert(core.to_string(), value);
        } else if let Some(core) = name
            .strip_prefix("span.")
            .and_then(|n| n.strip_suffix(".nanos"))
        {
            nanos.insert(core.to_string(), value);
        }
    }
    for (name, count) in counts {
        let total = nanos.get(&name).copied().unwrap_or(0);
        out.push((name, count, total));
    }
    out
}

/// Opens an RAII span guard: `obs_span!("solve.pivot")` or
/// `obs_span!("solve.component", vars = lp.num_vars())`. Field values
/// are formatted only when tracing is armed.
#[macro_export]
macro_rules! obs_span {
    ($name:expr) => {
        $crate::obs::trace::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::obs::trace::span_with($name, || {
            vec![$((stringify!($key), $value.to_string())),+]
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_roll_up() {
        let before: std::collections::BTreeMap<String, (u64, u64)> = span_rollups()
            .into_iter()
            .map(|(n, c, t)| (n, (c, t)))
            .collect();
        {
            let _outer = span("test.trace.outer");
            assert_ne!(current_span(), 0);
            let outer_id = current_span();
            {
                let inner = span("test.trace.inner");
                assert_eq!(inner.parent, outer_id);
                assert_eq!(current_span(), inner.id);
            }
            assert_eq!(current_span(), outer_id);
        }
        assert_eq!(current_span(), 0);
        let after: std::collections::BTreeMap<String, (u64, u64)> = span_rollups()
            .into_iter()
            .map(|(n, c, t)| (n, (c, t)))
            .collect();
        for name in ["test.trace.outer", "test.trace.inner"] {
            let b = before.get(name).copied().unwrap_or((0, 0));
            let a = after.get(name).copied().unwrap_or((0, 0));
            assert_eq!(a.0 - b.0, 1, "{name} closed once");
        }
    }

    #[test]
    fn fields_are_skipped_while_disarmed() {
        // Tracing is process-global; this test only checks the disarmed
        // path, so it must not arm it.
        let mut s = span("test.trace.fields");
        if !tracing_enabled() {
            s.field("k", "v");
            assert!(s.fields.is_empty());
        }
    }

    #[test]
    fn thread_ordinals_are_stable_and_distinct() {
        let here = thread_ordinal();
        assert_eq!(here, thread_ordinal());
        let other = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(here, other);
    }
}
