//! `active_dense`: the work of `abt active <file> rounding`, from the
//! instance text to a validated schedule — `io::read_instance` →
//! `solve_active_lp` → `lp_rounding_from` → `ActiveSchedule::validate`.

use crate::gen::{carve, connected, Carve, Fnv, Rng};
use crate::trace::{lp_layer, Snap, Tracer};
use crate::{Metrics, OpResult, Workload};
use abt_active::{lp_rounding_from, solve_active_lp, RoundingOutcome};
use abt_core::{io, Instance};
use abt_lp::Rat;

/// Inputs per run: each slice solves every one once.
const INPUTS: usize = 100;
/// Jobs per input, and the reference schedule's cells. Small enough that
/// an op takes a few milliseconds, so a 25 s run repeats each op about
/// 70 times and its fastest repetition finds the host's quiet moments.
const JOBS: usize = 30;
const CELLS: i64 = 42;
/// Converts `--seconds` into slices (see `Workload::nominal_ops_per_s`).
const NOMINAL_OPS_PER_S: f64 = 280.0;

pub struct Active {
    texts: Vec<String>,
    /// Per input: the warm-up's result digest and exact LP1 optimum.
    refs: Vec<(u64, f64)>,
    fingerprint: u64,
    cost: f64,
    bound: f64,
}

impl Active {
    /// Feasible single-component instances: n = 30, g = 4, lengths ≤ 8,
    /// windows of about twice the length, over 42 reference cells. Set-up
    /// runs every input once and keeps its result as the reference.
    pub fn dense(seed: u64) -> Result<Active, String> {
        let mut rng = Rng::new(seed, "active_dense");
        let shape = Carve {
            jobs: JOBS,
            g: 4,
            cells: 0..CELLS,
            max_len: 8,
        };
        let texts: Vec<String> = (0..INPUTS)
            .map(|_| loop {
                let jobs = carve(&mut rng, &shape, |rng, p| {
                    let w = p + rng.range(p / 2, (3 * p + 1) / 2);
                    let r = rng.range(0, CELLS - w);
                    (r, r + w)
                });
                if connected(&jobs) {
                    break text(jobs, shape.g);
                }
            })
            .collect();
        let mut fp = Fnv::new();
        let mut refs = Vec::with_capacity(texts.len());
        for (k, t) in texts.iter().enumerate() {
            fp.bytes(t.as_bytes());
            let (lp, out) = solve(t, &mut Tracer::default())
                .map_err(|e| format!("warm-up of input {k}: {e}"))?;
            refs.push((digest(&lp, &out), lp.to_f64()));
        }
        Ok(Active {
            texts,
            refs,
            fingerprint: fp.finish(),
            cost: 0.0,
            bound: 0.0,
        })
    }
}

fn text(jobs: Vec<abt_core::Job>, g: usize) -> String {
    io::write_instance(&Instance::new(jobs, g).expect("carved jobs are valid"))
}

/// The op: parse, LP1, rounding, validation, each public call a child
/// span of `tr`'s op.
fn solve(text: &str, tr: &mut Tracer) -> abt_core::Result<(Rat, RoundingOutcome)> {
    let inst = tr.call("core.io", || io::read_instance(text))?;
    let lp = tr.call("active.lp_model", || solve_active_lp(&inst))?;
    let out = tr.call("active.rounding", || lp_rounding_from(&inst, &lp))?;
    tr.call("core.validate", || out.schedule.validate(&inst))?;
    Ok((lp.objective, out))
}

fn digest(lp: &Rat, out: &RoundingOutcome) -> u64 {
    let mut f = Fnv::new();
    f.i128(lp.numer());
    f.i128(lp.denom());
    f.i64(out.cost);
    for &t in &out.opened {
        f.i64(t);
    }
    f.finish()
}

impl Workload for Active {
    fn slice_len(&self) -> usize {
        self.texts.len()
    }

    fn nominal_ops_per_s(&self) -> f64 {
        NOMINAL_OPS_PER_S
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpResult {
        let k = i % self.texts.len();
        let text = &self.texts[k];
        let snap = tr.on().then(Snap::take);
        let t0 = tr.begin_op(i as u32);
        let res = solve(text, tr);
        let ns = tr.end_op(t0);
        let (lp, out) = match res {
            Ok(r) => r,
            Err(e) => return (ns, Err(e.to_string())),
        };
        if let Some(snap) = snap {
            snap.since().record_lp(tr);
            tr.count("rounding.opened", out.opened.len() as f64);
            tr.count("rounding.anomalies", out.anomalies as f64);
            tr.count("rounding.repair_slots", out.repair_slots as f64);
        }
        let (want, lp_ref) = self.refs[k];
        self.cost += out.cost as f64;
        self.bound += lp_ref;
        if !out.within_two_lp() {
            return (ns, Err(format!("cost {} > 2·LP1 {lp}", out.cost)));
        }
        if digest(&lp, &out) != want {
            return (
                ns,
                Err(format!("input {k}: result differs from the warm-up's")),
            );
        }
        (ns, Ok(()))
    }

    fn cost_sums(&self) -> (f64, f64) {
        (self.cost, self.bound)
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn digest(&self) -> u64 {
        let mut f = Fnv::new();
        f.u64(self.fingerprint);
        for &(d, _) in &self.refs {
            f.u64(d);
        }
        f.finish()
    }

    fn describe(&self) -> String {
        format!(
            "{} instances, n={JOBS} g=4 len<=8 slack~1x over {CELLS} cells, single component",
            self.texts.len()
        )
    }

    fn layers(&self, tr: &Tracer, m: &mut Metrics) {
        let ops = tr.ops() as f64;
        let per = |v: f64| if ops > 0.0 { v / ops } else { 0.0 };
        lp_layer(tr, ops, m);
        let lp_model = tr.ms("active.lp_model");
        let phases = tr.counter("lp.decompose_ms")
            + tr.counter("lp.component_ms")
            + tr.counter("lp.stitch_ms");
        m.insert("active.lp_model.ms_per_op", (per(lp_model), "ms/op"));
        m.insert(
            "active.lp_model.self_ms_per_op",
            (per(lp_model - phases), "ms/op"),
        );
        m.insert(
            "active.rounding.ms_per_op",
            (per(tr.ms("active.rounding")), "ms/op"),
        );
        m.insert(
            "active.rounding.opened_per_op",
            (per(tr.counter("rounding.opened")), "count/op"),
        );
        m.insert(
            "active.rounding.anomalies",
            (tr.counter("rounding.anomalies"), "count"),
        );
        m.insert(
            "active.rounding.repair_slots",
            (tr.counter("rounding.repair_slots"), "count"),
        );
        m.insert("core.io.ms_per_op", (per(tr.ms("core.io")), "ms/op"));
        m.insert(
            "core.validate.ms_per_op",
            (per(tr.ms("core.validate")), "ms/op"),
        );
    }
}
