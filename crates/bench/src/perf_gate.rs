//! The CI perf gate over `BENCH_lp.json`: [`gate`] checks a fresh record
//! against the committed one by the [`RULES`] table, field by field
//! through [`crate::bench_record`], so timing noise in unrelated fields
//! never trips it. Consecutive rules over the same rows are checked row
//! by row, so their failures interleave per row.
//!
//! The `perf_gate` binary runs it. Its `--correctness-only` switch skips
//! the `timing` rules (speedup, solve effort, certify and p99 time), which
//! fault injection skews: demoted solves land on dense rungs and injected
//! certifier delays inflate certify time. The share of certifications
//! swept in integers is a deterministic count that fault injection leaves
//! alone, so that rule runs in both modes.

use crate::bench_record::{BenchRecord, ExperimentRecord, LpSimplexRecord};

/// The rows a rule reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rows {
    /// The headline `lp_simplex` record.
    Headline,
    /// Every fresh experiment row.
    Every,
    /// These experiment ids, where the fresh record has them.
    Fresh(&'static [&'static str]),
    /// These experiment ids, where both records have them.
    Both(&'static [&'static str]),
}

/// The value a rule gates.
#[derive(Clone, Copy)]
pub enum Value {
    /// A headline number.
    Headline(fn(&LpSimplexRecord) -> f64),
    /// 1 when a headline text differs between the records, else 0.
    Changed(fn(&LpSimplexRecord) -> String),
    /// An experiment-row column ([`crate::bench_record::COLUMNS`]).
    Column(&'static str),
    /// `a / (a + b)` of two row columns; a row where both are 0 is
    /// skipped.
    Share(&'static str, &'static str),
    /// The ratio of each algorithm in the committed row's `busy_algos`.
    BusyRatios,
}

/// When a fresh value fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cmp {
    /// Above the threshold.
    Above,
    /// Above another column of the same fresh row.
    AboveColumn(&'static str),
    /// Below the threshold.
    Below,
    /// Above `threshold ×` the committed value.
    AboveCommitted,
    /// Below `threshold ×` the committed value.
    BelowCommitted,
}

/// What a failed check hands its rule's message.
pub struct Hit<'a> {
    /// The experiment id (empty for the headline).
    pub id: &'a str,
    /// The busy algorithm ([`Value::BusyRatios`]; empty otherwise).
    pub algo: &'a str,
    /// The fresh experiment row.
    pub row: Option<&'a ExperimentRecord>,
    /// The committed and fresh headline records.
    pub headline: (&'a LpSimplexRecord, &'a LpSimplexRecord),
    /// The committed value.
    pub committed: f64,
    /// The fresh value; `None` when the fresh row dropped it.
    pub fresh: Option<f64>,
    /// The bound the fresh value crossed.
    pub limit: f64,
    /// The threshold as a rounded percentage.
    pub percent: f64,
}

impl Hit<'_> {
    /// The fresh value (0 when dropped).
    fn now(&self) -> f64 {
        self.fresh.unwrap_or_default()
    }

    /// Column `key` of the fresh row.
    fn column(&self, key: &str) -> f64 {
        self.row.map_or(0.0, |r| r.column(key))
    }
}

/// One check of the gate.
pub struct Rule {
    /// Short name.
    pub name: &'static str,
    /// The rows it reads.
    pub rows: Rows,
    /// The value it gates.
    pub value: Value,
    /// When the fresh value fails. A value the fresh row dropped always
    /// fails.
    pub fails_if: Cmp,
    /// The threshold `fails_if` applies.
    pub threshold: f64,
    /// Skip a value whose committed side is 0 or less: the record
    /// predates the field, or the run measured nothing.
    pub skip_zero_committed: bool,
    /// A timing or solve-effort check, which `--correctness-only` skips.
    pub timing: bool,
    /// The failure message.
    pub message: fn(&Hit) -> String,
}

/// The defaults each rule of [`RULES`] overrides.
const RULE: Rule = Rule {
    name: "",
    rows: Rows::Headline,
    value: Value::BusyRatios,
    fails_if: Cmp::Above,
    threshold: 0.0,
    skip_zero_committed: false,
    timing: false,
    message: |_| String::new(),
};

/// Every check the gate makes, in the order it reports failures. Each
/// comment gives the reason for its rules.
#[rustfmt::skip]
pub const RULES: &[Rule] = &[
    // The exact optimum must never move, and other configuration names
    // would make a silent cross-generation comparison.
    Rule { name: "objective", value: Value::Changed(|s| s.objective.clone()),
        message: |h| format!("exact objective changed: committed {:?}, fresh {:?}", h.headline.0.objective, h.headline.1.objective),
        ..RULE },
    Rule { name: "configurations", value: Value::Changed(|s| format!("{}→{}", s.baseline, s.candidate)),
        message: |Hit { headline: (c, f), .. }| format!("gated configurations changed: committed {}→{}, fresh {}→{}",
            c.baseline, c.candidate, f.baseline, f.candidate),
        ..RULE },
    Rule { name: "speedup", value: Value::Headline(|s| s.speedup), fails_if: Cmp::BelowCommitted, threshold: 0.7, timing: true,
        message: |h| format!("speedup regressed: fresh {:.2}x < {:.2}x ({}% of committed {:.2}x)", h.now(), h.limit, h.percent, h.committed),
        ..RULE },
    Rule { name: "candidate_fallback", value: Value::Headline(|s| f64::from(u8::from(s.fallback))),
        message: |_| "lp_simplex candidate solve hit the exact fallback".into(),
        ..RULE },
    // Every current workload is non-adversarial; a quarantine means the
    // ladder's dense rungs failed on a clean workload; e23 injects
    // corruption, and a detection without a completed recovery means the
    // cold-rebuild absorption died.
    Rule { name: "fallback_rate", rows: Rows::Every, value: Value::Column("fallback_rate"),
        message: |h| format!("experiment {} reports fallback_rate {:.4} over {} LP solves (must be 0 on non-adversarial workloads)",
            h.id, h.now(), h.column("lp_solves") as u64),
        ..RULE },
    Rule { name: "quarantined", rows: Rows::Every, value: Value::Column("quarantined"),
        message: |h| format!("experiment {} reports {} quarantined components (must be 0: a fault-free run must never abandon a component)",
            h.id, h.now() as u64),
        ..RULE },
    Rule { name: "state_corrupt", rows: Rows::Every, value: Value::Column("state_corrupt"), fails_if: Cmp::AboveColumn("recoveries"),
        message: |h| format!("experiment {} reports {} corruption detections but only {} recoveries (every StateCorrupt must be absorbed by a completed recovery)",
            h.id, h.now() as u64, h.limit as u64),
        ..RULE },
    // Pivot and refactorization counts are deterministic per instance, so
    // an excess is algorithmic: a broken glue-eta path (e20), component
    // split (e21) or content cache (e22).
    Rule { name: "effort_pivots", rows: Rows::Both(&["e20", "e21", "e22"]), value: Value::Column("lp_pivots"),
        fails_if: Cmp::AboveCommitted, threshold: 1.3, timing: true, message: |h| effort(h, "pivots"), ..RULE },
    Rule { name: "effort_refactorizations", rows: Rows::Both(&["e20", "e21", "e22"]), value: Value::Column("lp_refactorizations"),
        fails_if: Cmp::AboveCommitted, threshold: 1.3, timing: true, message: |h| effort(h, "refactorizations"), ..RULE },
    // LP1's data are small integers, so every certification here should
    // prove its reduced-cost signs in integers (`interval_accepts`); one
    // that needed `Rat` for some column family (`interval_escalations`)
    // means the integer evaluation stopped covering LP1. The columns keep
    // the names of the interval tier the integer sweep replaced.
    Rule { name: "accept_rate", rows: Rows::Fresh(&["e21", "e22"]), value: Value::Share("interval_accepts", "interval_escalations"),
        fails_if: Cmp::Below, threshold: 0.9,
        message: |h| format!("{} integer sweep share collapsed: {} of {} certifications proved every reduced-cost sign in integers = {:.3} < {}",
            h.id, h.column("interval_accepts") as u64, (h.column("interval_accepts") + h.column("interval_escalations")) as u64, h.now(), h.limit),
        ..RULE },
    // Loose: a certifier that falls back to `Rat` or the LU multiplies
    // certify time well past 1.5×; the p99 is noisy and bucket-quantized,
    // so only a rise past 3× counts.
    Rule { name: "certify_ms", rows: Rows::Both(&["e19", "e22"]), value: Value::Column("lp_certify_ms"),
        fails_if: Cmp::AboveCommitted, threshold: 1.5, skip_zero_committed: true, timing: true,
        message: |h| regressed(h, "certify time", 3, " ms") },
    Rule { name: "p99_ms", rows: Rows::Both(&["e19", "e21", "e22"]), value: Value::Column("lp_p99_ms"),
        fails_if: Cmp::AboveCommitted, threshold: 3.0, skip_zero_committed: true, timing: true,
        message: |h| regressed(h, "p99 solve latency", 3, " ms") },
    // Busy costs are exact integers on seeded streams, so any excess is an
    // approximation-quality regression, never noise.
    Rule { name: "busy_ratio", rows: Rows::Both(&["e24", "e25"]), value: Value::BusyRatios, fails_if: Cmp::AboveCommitted,
        threshold: 1.05, skip_zero_committed: true,
        message: |h| match h.fresh {
            None => format!("{} busy sweep dropped algorithm {}: committed records it, fresh does not", h.id, h.algo),
            Some(_) => regressed(h, &format!("{} approximation ratio", h.algo), 4, ""),
        },
        ..RULE },
];

fn effort(h: &Hit, what: &str) -> String {
    let (fresh, committed) = (h.now() as u64, h.committed as u64);
    format!(
        "{} solve effort regressed: fresh {fresh} {what} > {:.0} ({}% of committed {committed})",
        h.id, h.limit, h.percent
    )
}

/// `"<id> <what> regressed: fresh F > L (P% of committed C)"`, each
/// number to `digits` places followed by `unit`.
fn regressed(h: &Hit, what: &str, digits: usize, unit: &str) -> String {
    format!(
        "{} {what} regressed: fresh {:.digits$}{unit} > {:.digits$}{unit} ({}% of committed {:.digits$}{unit})",
        h.id,
        h.now(),
        h.limit,
        h.percent,
        h.committed
    )
}

impl Rule {
    /// The rows this rule reads: `(id, committed row, fresh row)`.
    fn pairs<'a>(
        &self,
        committed: &'a BenchRecord,
        fresh: &'a BenchRecord,
    ) -> Vec<(
        &'a str,
        Option<&'a ExperimentRecord>,
        Option<&'a ExperimentRecord>,
    )> {
        let find = |rec: &'a BenchRecord, id: &str| rec.experiments.iter().find(|e| e.id == id);
        match self.rows {
            Rows::Headline => vec![("", None, None)],
            Rows::Every => fresh
                .experiments
                .iter()
                .map(|e| (e.id.as_str(), find(committed, &e.id), Some(e)))
                .collect(),
            Rows::Fresh(ids) => ids
                .iter()
                .filter_map(|&id| Some((id, find(committed, id), Some(find(fresh, id)?))))
                .collect(),
            Rows::Both(ids) => ids
                .iter()
                .filter_map(|&id| Some((id, Some(find(committed, id)?), Some(find(fresh, id)?))))
                .collect(),
        }
    }

    /// `(algo, committed, fresh)` for each value the rule compares on one
    /// row; `fresh` is `None` when the fresh row dropped a busy algorithm.
    fn readings<'a>(
        &self,
        (c, f): (&LpSimplexRecord, &LpSimplexRecord),
        (c_row, f_row): (Option<&'a ExperimentRecord>, Option<&'a ExperimentRecord>),
    ) -> Vec<(&'a str, f64, Option<f64>)> {
        let column = |row: Option<&ExperimentRecord>, key| row.map_or(0.0, |r| r.column(key));
        match self.value {
            Value::Headline(field) => vec![("", field(c), Some(field(f)))],
            Value::Changed(text) => vec![("", 0.0, Some(f64::from(u8::from(text(c) != text(f)))))],
            Value::Column(key) => vec![("", column(c_row, key), Some(column(f_row, key)))],
            Value::Share(a, b) => {
                let share = |row| {
                    let (a, b) = (column(row, a), column(row, b));
                    (a + b > 0.0).then(|| a / (a + b))
                };
                let committed = share(c_row).unwrap_or(0.0);
                share(f_row)
                    .map(|f| ("", committed, Some(f)))
                    .into_iter()
                    .collect()
            }
            Value::BusyRatios => {
                let (Some(c_row), Some(f_row)) = (c_row, f_row) else {
                    return Vec::new();
                };
                let fresh = |algo: &str| f_row.busy_algos.iter().find(|b| b.algo == algo);
                c_row
                    .busy_algos
                    .iter()
                    .map(|b| (b.algo.as_str(), b.ratio, fresh(&b.algo).map(|b| b.ratio)))
                    .collect()
            }
        }
    }
}

/// Checks `fresh` against `committed` by every rule in [`RULES`], or by
/// the non-`timing` ones when `correctness_only`. Returns the summary
/// line and one message per failure, in [`RULES`] order.
pub fn gate(
    committed: &BenchRecord,
    fresh: &BenchRecord,
    correctness_only: bool,
) -> (String, Vec<String>) {
    let rules: Vec<&Rule> = RULES
        .iter()
        .filter(|r| !(correctness_only && r.timing))
        .collect();
    let headline = (&committed.lp_simplex, &fresh.lp_simplex);
    let mut failures = Vec::new();
    for block in rules.chunk_by(|a, b| a.rows == b.rows) {
        for (id, c_row, f_row) in block[0].pairs(committed, fresh) {
            for rule in block {
                for (algo, committed, fresh) in rule.readings(headline, (c_row, f_row)) {
                    let limit = match rule.fails_if {
                        Cmp::Above | Cmp::Below => rule.threshold,
                        Cmp::AboveColumn(key) => f_row.map_or(0.0, |r| r.column(key)),
                        Cmp::AboveCommitted | Cmp::BelowCommitted => committed * rule.threshold,
                    };
                    let failed = match fresh {
                        None => true,
                        Some(_) if rule.skip_zero_committed && committed <= 0.0 => false,
                        Some(f) if matches!(rule.fails_if, Cmp::Below | Cmp::BelowCommitted) => {
                            f < limit
                        }
                        Some(f) => f > limit,
                    };
                    if failed {
                        failures.push((rule.message)(&Hit {
                            id,
                            algo,
                            row: f_row,
                            headline,
                            committed,
                            fresh,
                            limit,
                            percent: (rule.threshold * 100.0).round(),
                        }));
                    }
                }
            }
        }
    }
    let (c, f) = headline;
    let floor = rules
        .iter()
        .find(|r| r.name == "speedup")
        .map_or(0.0, |r| c.speedup * r.threshold);
    let summary = format!(
        "perf_gate: objective {} (committed {}), speedup {:.2}x (committed {:.2}x, floor {:.2}x), {} experiments checked",
        f.objective,
        c.objective,
        f.speedup,
        c.speedup,
        floor,
        fresh.experiments.len()
    );
    (summary, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> BenchRecord {
        BenchRecord::from_json(include_str!("../../../BENCH_lp.json")).unwrap()
    }

    fn row<'a>(rec: &'a mut BenchRecord, id: &str) -> &'a mut ExperimentRecord {
        rec.experiments.iter_mut().find(|e| e.id == id).unwrap()
    }

    fn set(rec: &mut BenchRecord, id: &str, key: &'static str, value: f64) {
        assert!(row(rec, id).columns.insert(key, value).is_some(), "{key}");
    }

    /// The failures of a doctored copy of the committed record against it.
    fn failures(doctor: impl FnOnce(&mut BenchRecord)) -> Vec<String> {
        let committed = committed();
        let mut fresh = committed.clone();
        doctor(&mut fresh);
        gate(&committed, &fresh, false).1
    }

    /// A doctored copy trips exactly rule `name`, with `message`.
    fn trips(name: &str, doctor: impl FnOnce(&mut BenchRecord), message: &str) {
        assert!(RULES.iter().any(|r| r.name == name), "{name}");
        assert_eq!(failures(doctor), [message], "{name}");
    }

    /// The committed value of column `key` in row `id`.
    fn committed_column(id: &str, key: &str) -> f64 {
        row(&mut committed(), id).column(key)
    }

    /// Rule `name`'s threshold.
    fn threshold(name: &str) -> f64 {
        RULES.iter().find(|r| r.name == name).unwrap().threshold
    }

    /// An `AboveCommitted` rule trips on row `id` when its column `key` is
    /// doctored to `threshold + 1` times the committed value, rounded up
    /// to a whole number (the effort columns are counts). Returns
    /// `(fresh, limit, percent, committed)` for the expected message.
    fn above_committed(name: &str, id: &str, key: &'static str) -> (f64, f64, f64, f64) {
        let (committed, t) = (committed_column(id, key), threshold(name));
        assert!(committed > 0.0, "{id} {key}");
        (
            (committed * (t + 1.0)).ceil(),
            committed * t,
            (t * 100.0).round(),
            committed,
        )
    }

    #[test]
    fn committed_record_passes_against_itself() {
        let rec = committed();
        let (summary, failures) = gate(&rec, &rec, false);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(
            summary,
            "perf_gate: objective 23489/24 (committed 23489/24), speedup 3.03x (committed 3.03x, floor 2.12x), 25 experiments checked"
        );
    }

    #[test]
    fn objective_rule() {
        trips(
            "objective",
            |r| r.lp_simplex.objective = "1/2".into(),
            r#"exact objective changed: committed "23489/24", fresh "1/2""#,
        );
    }

    #[test]
    fn configurations_rule() {
        trips(
            "configurations",
            |r| r.lp_simplex.candidate = "dense".into(),
            "gated configurations changed: committed revised_bounds→vub_implicit, fresh revised_bounds→dense",
        );
    }

    #[test]
    fn speedup_rule() {
        trips(
            "speedup",
            |r| r.lp_simplex.speedup = 2.0,
            "speedup regressed: fresh 2.00x < 2.12x (70% of committed 3.03x)",
        );
    }

    #[test]
    fn candidate_fallback_rule() {
        trips(
            "candidate_fallback",
            |r| r.lp_simplex.fallback = true,
            "lp_simplex candidate solve hit the exact fallback",
        );
    }

    #[test]
    fn fallback_rate_rule() {
        trips(
            "fallback_rate",
            |r| set(r, "e3", "fallback_rate", 0.25),
            "experiment e3 reports fallback_rate 0.2500 over 16 LP solves (must be 0 on non-adversarial workloads)",
        );
    }

    #[test]
    fn quarantined_rule() {
        trips(
            "quarantined",
            |r| set(r, "e3", "quarantined", 2.0),
            "experiment e3 reports 2 quarantined components (must be 0: a fault-free run must never abandon a component)",
        );
    }

    #[test]
    fn state_corrupt_rule() {
        // e23 records 1 detection against 4 recoveries.
        trips(
            "state_corrupt",
            |r| set(r, "e23", "state_corrupt", 5.0),
            "experiment e23 reports 5 corruption detections but only 4 recoveries (every StateCorrupt must be absorbed by a completed recovery)",
        );
    }

    #[test]
    fn effort_pivots_rule() {
        let (fresh, limit, percent, base) = above_committed("effort_pivots", "e21", "lp_pivots");
        trips(
            "effort_pivots",
            |r| set(r, "e21", "lp_pivots", fresh),
            &format!("e21 solve effort regressed: fresh {fresh} pivots > {limit:.0} ({percent}% of committed {base})"),
        );
    }

    #[test]
    fn effort_refactorizations_rule() {
        let (fresh, limit, percent, base) =
            above_committed("effort_refactorizations", "e20", "lp_refactorizations");
        trips(
            "effort_refactorizations",
            |r| set(r, "e20", "lp_refactorizations", fresh),
            &format!("e20 solve effort regressed: fresh {fresh} refactorizations > {limit:.0} ({percent}% of committed {base})"),
        );
    }

    #[test]
    fn accept_rate_rule() {
        // As many `Rat` sweeps as integer ones: a share of one half.
        let accepts = committed_column("e22", "interval_accepts");
        assert!(threshold("accept_rate") > 0.5 && accepts > 0.0);
        trips(
            "accept_rate",
            |r| set(r, "e22", "interval_escalations", accepts),
            &format!(
                "e22 integer sweep share collapsed: {accepts} of {} certifications proved every \
                 reduced-cost sign in integers = 0.500 < {}",
                2.0 * accepts,
                threshold("accept_rate")
            ),
        );
        // A row without certifications (only dense exact solves) is skipped.
        assert!(failures(|r| set(r, "e22", "interval_accepts", 0.0)).is_empty());
    }

    #[test]
    fn certify_ms_rule() {
        let (fresh, limit, percent, base) = above_committed("certify_ms", "e19", "lp_certify_ms");
        trips(
            "certify_ms",
            |r| set(r, "e19", "lp_certify_ms", fresh),
            &format!("e19 certify time regressed: fresh {fresh:.3} ms > {limit:.3} ms ({percent}% of committed {base:.3} ms)"),
        );
        // Skipped when the committed value is 0.
        let mut committed = committed();
        set(&mut committed, "e19", "lp_certify_ms", 0.0);
        let mut fresh = committed.clone();
        set(&mut fresh, "e19", "lp_certify_ms", 50.0);
        assert!(gate(&committed, &fresh, false).1.is_empty());
    }

    #[test]
    fn p99_ms_rule() {
        let (fresh, limit, percent, base) = above_committed("p99_ms", "e21", "lp_p99_ms");
        trips(
            "p99_ms",
            |r| set(r, "e21", "lp_p99_ms", fresh),
            &format!("e21 p99 solve latency regressed: fresh {fresh:.3} ms > {limit:.3} ms ({percent}% of committed {base:.3} ms)"),
        );
        // Skipped when the committed value is 0.
        let mut committed = committed();
        set(&mut committed, "e21", "lp_p99_ms", 0.0);
        let mut fresh = committed.clone();
        set(&mut fresh, "e21", "lp_p99_ms", 1.0);
        assert!(gate(&committed, &fresh, false).1.is_empty());
    }

    #[test]
    fn busy_ratio_rule() {
        trips(
            "busy_ratio",
            |r| row(r, "e24").busy_algos.retain(|b| b.algo != "FirstFit"),
            "e24 busy sweep dropped algorithm FirstFit: committed records it, fresh does not",
        );
        trips(
            "busy_ratio",
            |r| {
                let algos = &mut row(r, "e25").busy_algos;
                algos.iter_mut().find(|b| b.algo == "LpRounding").unwrap().ratio = 2.0;
            },
            "e25 LpRounding approximation ratio regressed: fresh 2.0000 > 1.9607 (105% of committed 1.8673)",
        );
    }

    #[test]
    fn correctness_only_skips_exactly_the_timing_checks() {
        let timing: Vec<&str> = RULES.iter().filter(|r| r.timing).map(|r| r.name).collect();
        assert_eq!(
            timing,
            [
                "speedup",
                "effort_pivots",
                "effort_refactorizations",
                "certify_ms",
                "p99_ms"
            ]
        );
        let committed = committed();
        let mut fresh = committed.clone();
        fresh.lp_simplex.speedup = 0.5;
        set(&mut fresh, "e20", "lp_pivots", 1e9);
        set(&mut fresh, "e20", "lp_refactorizations", 1e9);
        set(&mut fresh, "e22", "lp_certify_ms", 1e6);
        set(&mut fresh, "e21", "lp_p99_ms", 1e6);
        assert_eq!(gate(&committed, &fresh, false).1.len(), 5);
        let (summary, failures) = gate(&committed, &fresh, true);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(summary.contains("floor 0.00x"), "{summary}");
        // Every correctness rule still runs.
        fresh.lp_simplex.objective = "1/2".into();
        fresh.lp_simplex.fallback = true;
        set(&mut fresh, "e23", "state_corrupt", 5.0);
        set(&mut fresh, "e22", "interval_escalations", 1e6);
        row(&mut fresh, "e24").busy_algos.clear();
        assert_eq!(gate(&committed, &fresh, true).1.len(), 1 + 1 + 1 + 1 + 5);
    }
}
