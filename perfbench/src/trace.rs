//! The benchmark's own spans and counters, recorded from outside the
//! program around each public call.
//!
//! Every op gets an op span; each public call inside it is a child span
//! named after its layer and carrying the op's id. Counters are deltas the
//! workload takes at op boundaries, outside the op timer. Nothing here
//! arms the program's flight recorder: `obs::set_tracing` stays off in
//! traced and untraced runs alike.

use std::collections::BTreeMap;
use std::time::Instant;

struct SpanRec {
    op: u32,
    layer: &'static str,
    nanos: u64,
}

#[derive(Default)]
pub struct Tracer {
    on: bool,
    op: u32,
    spans: Vec<SpanRec>,
    counters: BTreeMap<String, f64>,
}

impl Tracer {
    /// Arms or disarms recording for the ops that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts op `id`'s span; the returned clock also times untraced ops.
    pub fn begin_op(&mut self, id: u32) -> Instant {
        self.op = id;
        Instant::now()
    }

    /// Closes the op span opened at `start`; returns its duration.
    pub fn end_op(&mut self, start: Instant) -> u64 {
        let nanos = start.elapsed().as_nanos() as u64;
        if self.on {
            self.spans.push(SpanRec {
                op: self.op,
                layer: "op",
                nanos,
            });
        }
        nanos
    }

    /// Runs one public call of the program as a child span of the op.
    #[inline]
    pub fn call<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.spans.push(SpanRec {
            op: self.op,
            layer,
            nanos: t.elapsed().as_nanos() as u64,
        });
        r
    }

    /// Adds `v` to counter `name` (traced ops only).
    pub fn count(&mut self, name: &str, v: f64) {
        if !self.on {
            return;
        }
        match self.counters.get_mut(name) {
            Some(c) => *c += v,
            None => {
                self.counters.insert(name.to_string(), v);
            }
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// The counters that count work rather than time (every name not
    /// ending in `_ms`), cumulative over the traced ops so far.
    pub fn exact_counters(&self) -> BTreeMap<String, f64> {
        self.counters
            .iter()
            .filter(|(name, _)| !name.ends_with("_ms"))
            .map(|(name, &v)| (name.clone(), v))
            .collect()
    }

    /// Traced ops recorded so far.
    pub fn ops(&self) -> usize {
        self.spans.iter().filter(|s| s.layer == "op").count()
    }

    /// Total milliseconds of `layer` spans.
    pub fn ms(&self, layer: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.nanos)
            .sum();
        ns as f64 / 1e6
    }

    /// Op time not covered by any child span, in milliseconds. Children of
    /// one op run one after another, so their union is their sum.
    pub fn unattributed_ms(&self) -> f64 {
        let mut per_op: BTreeMap<u32, i128> = BTreeMap::new();
        for s in &self.spans {
            let v = i128::from(s.nanos);
            *per_op.entry(s.op).or_insert(0) += if s.layer == "op" { v } else { -v };
        }
        per_op.values().sum::<i128>() as f64 / 1e6
    }
}

/// Given [`Tracer::exact_counters`] taken at the end of each traced slice,
/// names every counter whose per-slice count is not the same in every
/// traced slice (every slice runs the same ops on the same inputs).
pub fn unrepeated_counters(at_slice_end: &[BTreeMap<String, f64>]) -> Vec<String> {
    let per_slice = |k: usize, name: &str| {
        let before = if k == 0 {
            0.0
        } else {
            at_slice_end[k - 1].get(name).copied().unwrap_or(0.0)
        };
        at_slice_end[k].get(name).copied().unwrap_or(0.0) - before
    };
    let Some(last) = at_slice_end.last() else {
        return Vec::new();
    };
    last.keys()
        .filter_map(|name| {
            let counts: Vec<f64> = (0..at_slice_end.len())
                .map(|k| per_slice(k, name))
                .collect();
            counts
                .iter()
                .any(|&c| c != counts[0])
                .then(|| format!("exact counter {name} differs between traced slices: {counts:?}"))
        })
        .collect()
}

/// The program's own cumulative counters: LP telemetry, busy-LP
/// telemetry, and the always-on `solve.*` span rollups. Diff two
/// snapshots taken at op boundaries to get one op's share.
pub struct Snap {
    lp: abt_active::LpTelemetry,
    busy: abt_busy::BusyLpTelemetry,
    rollups: Vec<(String, u64, u64)>,
}

/// What one op added to the program's counters.
pub struct SnapDelta {
    pub lp: abt_active::LpTelemetry,
    pub busy: abt_busy::BusyLpTelemetry,
    rollups: BTreeMap<String, (u64, u64)>,
}

impl Snap {
    pub fn take() -> Snap {
        Snap {
            lp: abt_active::lp_telemetry(),
            busy: abt_busy::busy_lp_telemetry(),
            rollups: abt_core::obs::span_rollups(),
        }
    }

    pub fn since(&self) -> SnapDelta {
        let now = Snap::take();
        let before: BTreeMap<&str, (u64, u64)> = self
            .rollups
            .iter()
            .map(|(n, c, ns)| (n.as_str(), (*c, *ns)))
            .collect();
        let rollups = now
            .rollups
            .iter()
            .map(|(n, c, ns)| {
                let (c0, ns0) = before.get(n.as_str()).copied().unwrap_or((0, 0));
                (n.clone(), (c - c0, ns - ns0))
            })
            .collect();
        SnapDelta {
            lp: now.lp.delta(&self.lp),
            busy: now.busy.delta(&self.busy),
            rollups,
        }
    }
}

impl SnapDelta {
    /// Milliseconds spent in the program's `name` span.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.rollups
            .get(name)
            .map_or(0.0, |&(_, ns)| ns as f64 / 1e6)
    }

    /// Times the program's `name` span closed.
    pub fn span_count(&self, name: &str) -> f64 {
        self.rollups.get(name).map_or(0.0, |&(c, _)| c as f64)
    }

    /// Adds the LP-layer counters of this op to `tr`.
    pub fn record_lp(&self, tr: &mut Tracer) {
        let d = &self.lp;
        tr.count("lp.pivots", d.pivots as f64);
        tr.count("lp.bound_flips", d.bound_flips as f64);
        tr.count("lp.refactorizations", d.refactorizations as f64);
        tr.count("lp.solves", d.solves as f64);
        tr.count("lp.fallbacks", d.fallbacks as f64);
        tr.count("lp.demotions", d.demotions as f64);
        tr.count("lp.interval_accepts", d.interval_accepts as f64);
        tr.count("lp.interval_escalations", d.interval_escalations as f64);
        tr.count("lp.warm_pivots_saved", d.warm_pivots_saved as f64);
        tr.count("lp.admission_rejects", d.admission_rejects as f64);
        tr.count("lp.pivot_ms", self.span_ms("solve.pivot"));
        tr.count("lp.certify_ms", self.span_ms("solve.certify"));
        tr.count("lp.warm_ms", self.span_ms("solve.warm"));
        tr.count("lp.decompose_ms", self.span_ms("solve.decompose"));
        tr.count("lp.stitch_ms", self.span_ms("solve.stitch"));
        tr.count("lp.component_ms", self.span_ms("solve.component"));
        tr.count("lp.components", self.span_count("solve.component"));
    }
}

/// Writes the LP-layer per-op metrics recorded by [`SnapDelta::record_lp`]
/// over `ops` traced ops.
pub fn lp_layer(tr: &Tracer, ops: f64, m: &mut crate::Metrics) {
    let per = |v: f64| if ops > 0.0 { v / ops } else { 0.0 };
    let accepts = tr.counter("lp.interval_accepts");
    let proofs = accepts + tr.counter("lp.interval_escalations");
    m.insert(
        "lp.pivots_per_op",
        (per(tr.counter("lp.pivots")), "count/op"),
    );
    m.insert(
        "lp.bound_flips_per_op",
        (per(tr.counter("lp.bound_flips")), "count/op"),
    );
    m.insert(
        "lp.refactorizations_per_op",
        (per(tr.counter("lp.refactorizations")), "count/op"),
    );
    m.insert(
        "lp.pivot_ms_per_op",
        (per(tr.counter("lp.pivot_ms")), "ms/op"),
    );
    m.insert(
        "lp.certify_ms_per_op",
        (per(tr.counter("lp.certify_ms")), "ms/op"),
    );
    m.insert(
        "lp.interval_accept_ratio",
        (if proofs > 0.0 { accepts / proofs } else { 0.0 }, "ratio"),
    );
    m.insert(
        "lp.solves_per_op",
        (per(tr.counter("lp.solves")), "count/op"),
    );
    m.insert("lp.fallbacks", (tr.counter("lp.fallbacks"), "count"));
    m.insert("lp.demotions", (tr.counter("lp.demotions"), "count"));
    m.insert(
        "lp.decompose_ms_per_op",
        (per(tr.counter("lp.decompose_ms")), "ms/op"),
    );
    m.insert(
        "lp.stitch_ms_per_op",
        (per(tr.counter("lp.stitch_ms")), "ms/op"),
    );
    m.insert(
        "lp.components_per_op",
        (per(tr.counter("lp.components")), "count/op"),
    );
    m.insert(
        "lp.warm_ms_per_op",
        (per(tr.counter("lp.warm_ms")), "ms/op"),
    );
    m.insert(
        "lp.warm_pivots_saved_per_op",
        (per(tr.counter("lp.warm_pivots_saved")), "count/op"),
    );
}
