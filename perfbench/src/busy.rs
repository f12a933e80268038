//! `busy_flexible`: the work of `abt busy <file> <algo>` with the algorithm
//! rotating over `ff gt kr ab lp` — `io::read_instance` → `span_place` →
//! `Instance::fix_starts` → `IntervalAlgo::run` → `BusySchedule::validate`.

use crate::gen::{flexible_busy, Fnv, Rng};
use crate::trace::{lp_layer, Snap, Tracer};
use crate::{Metrics, OpResult, Workload};
use abt_busy::{span_exact, span_place, IntervalAlgo, SpanPlacement};
use abt_core::{busy_lower_bounds, io, BusySchedule, Instance};

const INPUTS: usize = 24;

/// An interval algorithm and the names it reports under.
struct Algo {
    algo: IntervalAlgo,
    /// Its span's layer name (the `abt-busy` module).
    layer: &'static str,
    /// The factor it is certified to stay within against max(mass bound,
    /// OPT∞): GreedyTracking 3 (Theorem 5), the others 4.
    factor: i64,
    ms_metric: &'static str,
    ratio_metric: &'static str,
}

const ALGOS: [Algo; 5] = [
    Algo {
        algo: IntervalAlgo::FirstFit,
        layer: "busy.firstfit",
        factor: 4,
        ms_metric: "busy.firstfit.ms_per_op",
        ratio_metric: "busy.firstfit.cost_ratio",
    },
    Algo {
        algo: IntervalAlgo::GreedyTracking,
        layer: "busy.greedy_tracking",
        factor: 3,
        ms_metric: "busy.greedy_tracking.ms_per_op",
        ratio_metric: "busy.greedy_tracking.cost_ratio",
    },
    Algo {
        algo: IntervalAlgo::KumarRudra,
        layer: "busy.kumar_rudra",
        factor: 4,
        ms_metric: "busy.kumar_rudra.ms_per_op",
        ratio_metric: "busy.kumar_rudra.cost_ratio",
    },
    Algo {
        algo: IntervalAlgo::AlicherryBhatia,
        layer: "busy.alicherry_bhatia",
        factor: 4,
        ms_metric: "busy.alicherry_bhatia.ms_per_op",
        ratio_metric: "busy.alicherry_bhatia.cost_ratio",
    },
    Algo {
        algo: IntervalAlgo::LpRounding,
        layer: "busy.lp_rounding",
        factor: 4,
        ms_metric: "busy.lp_rounding.ms_per_op",
        ratio_metric: "busy.lp_rounding.cost_ratio",
    },
];

pub struct Busy {
    texts: Vec<String>,
    /// Per input: max(mass bound, exact OPT∞).
    bounds: Vec<i64>,
    /// Per (input, algorithm): the warm-up's result digest.
    refs: Vec<u64>,
    fingerprint: u64,
    cost: f64,
    bound: f64,
}

impl Busy {
    /// All-flexible instances in the exact-placement regime: n = 100,
    /// g = 3, lengths ≤ 16, slack about one length, horizon 4n.
    pub fn new(seed: u64) -> Result<Busy, String> {
        let mut rng = Rng::new(seed, "busy_flexible");
        let mut fp = Fnv::new();
        let mut texts = Vec::with_capacity(INPUTS);
        let mut bounds = Vec::with_capacity(INPUTS);
        for k in 0..INPUTS {
            let inst = Instance::new(flexible_busy(&mut rng, 100, 400, 16), 3)
                .map_err(|e| format!("input {k}: {e}"))?;
            let opt_inf = span_exact(&inst)
                .map_err(|e| format!("input {k}: {e}"))?
                .cost;
            bounds.push(busy_lower_bounds(&inst).mass.max(opt_inf));
            let t = io::write_instance(&inst);
            fp.bytes(t.as_bytes());
            texts.push(t);
        }
        let mut refs = Vec::with_capacity(INPUTS * ALGOS.len());
        for (k, t) in texts.iter().enumerate() {
            for a in &ALGOS {
                let (p, s, inst) = solve(t, a, &mut Tracer::default())
                    .map_err(|e| format!("warm-up of input {k}: {e}"))?;
                refs.push(digest(&p, &s, &inst));
            }
        }
        Ok(Busy {
            texts,
            bounds,
            refs,
            fingerprint: fp.finish(),
            cost: 0.0,
            bound: 0.0,
        })
    }
}

type Solved = (SpanPlacement, BusySchedule, Instance);

/// The op: parse, min-span placement, the interval algorithm, validation,
/// each public call a child span of `tr`'s op.
fn solve(text: &str, a: &Algo, tr: &mut Tracer) -> abt_core::Result<Solved> {
    let inst = tr.call("core.io", || io::read_instance(text))?;
    let placement = tr.call("busy.span", || span_place(&inst));
    let fixed = inst.fix_starts(&placement.starts)?;
    let schedule = BusySchedule {
        bundles: tr.call(a.layer, || a.algo.run(&fixed))?.bundles,
    };
    tr.call("core.validate", || schedule.validate(&inst))?;
    Ok((placement, schedule, inst))
}

fn digest(p: &SpanPlacement, s: &BusySchedule, inst: &Instance) -> u64 {
    let mut f = Fnv::new();
    f.i64(p.cost);
    f.i64(s.total_busy_time(inst));
    for b in &s.bundles {
        f.u64(b.items.len() as u64);
        for &(j, t) in &b.items {
            f.u64(j as u64);
            f.i64(t);
        }
    }
    f.finish()
}

impl Workload for Busy {
    fn slice_len(&self) -> usize {
        self.texts.len() * ALGOS.len()
    }

    fn nominal_ops_per_s(&self) -> f64 {
        230.0
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpResult {
        let k = (i / ALGOS.len()) % self.texts.len();
        let a = &ALGOS[i % ALGOS.len()];
        let text = &self.texts[k];
        let snap = tr.on().then(Snap::take);
        let t0 = tr.begin_op(i as u32);
        let res = solve(text, a, tr);
        let ns = tr.end_op(t0);
        let (placement, schedule, inst) = match res {
            Ok(r) => r,
            Err(e) => return (ns, Err(e.to_string())),
        };
        let cost = schedule.total_busy_time(&inst);
        let lb = self.bounds[k];
        if let Some(snap) = snap {
            let d = snap.since();
            d.record_lp(tr);
            tr.count("busy.span.exact", f64::from(u8::from(placement.exact)));
            tr.count(&format!("{}.cost", a.layer), cost as f64);
            tr.count(&format!("{}.bound", a.layer), lb as f64);
            tr.count(&format!("{}.ops", a.layer), 1.0);
            tr.count("busy.lp.pivots", d.busy.pivots as f64);
            tr.count("busy.lp.demotions", d.busy.demotions as f64);
        }
        self.cost += cost as f64;
        self.bound += lb as f64;
        if cost > a.factor * lb {
            return (
                ns,
                Err(format!(
                    "{}: cost {cost} > {} × lower bound {lb}",
                    a.layer, a.factor
                )),
            );
        }
        if digest(&placement, &schedule, &inst) != self.refs[k * ALGOS.len() + i % ALGOS.len()] {
            return (
                ns,
                Err(format!(
                    "input {k}, {}: result differs from the warm-up's",
                    a.layer
                )),
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
        for &b in &self.bounds {
            f.i64(b);
        }
        for &d in &self.refs {
            f.u64(d);
        }
        f.finish()
    }

    fn describe(&self) -> String {
        format!(
            "{} instances x {} algorithms, n=100 g=3 len<=16 slack~1x horizon 400, all flexible",
            self.texts.len(),
            ALGOS.len()
        )
    }

    fn layers(&self, tr: &Tracer, m: &mut Metrics) {
        let ops = tr.ops() as f64;
        let per = |v: f64| if ops > 0.0 { v / ops } else { 0.0 };
        lp_layer(tr, ops, m);
        m.insert("busy.span.ms_per_op", (per(tr.ms("busy.span")), "ms/op"));
        m.insert(
            "busy.span.exact_share",
            (per(tr.counter("busy.span.exact")), "ratio"),
        );
        for a in &ALGOS {
            let n = tr.counter(&format!("{}.ops", a.layer));
            let lb = tr.counter(&format!("{}.bound", a.layer));
            let cost = tr.counter(&format!("{}.cost", a.layer));
            m.insert(
                a.ms_metric,
                (if n > 0.0 { tr.ms(a.layer) / n } else { 0.0 }, "ms/op"),
            );
            m.insert(
                a.ratio_metric,
                (if lb > 0.0 { cost / lb } else { 0.0 }, "ratio"),
            );
        }
        let lp_ops = tr.counter("busy.lp_rounding.ops");
        m.insert(
            "busy.lp_rounding.pivots_per_op",
            (
                if lp_ops > 0.0 {
                    tr.counter("busy.lp.pivots") / lp_ops
                } else {
                    0.0
                },
                "count/op",
            ),
        );
        m.insert(
            "busy.lp_rounding.demotions",
            (tr.counter("busy.lp.demotions"), "count"),
        );
        m.insert("core.io.ms_per_op", (per(tr.ms("core.io")), "ms/op"));
        m.insert(
            "core.validate.ms_per_op",
            (per(tr.ms("core.validate")), "ms/op"),
        );
    }
}
