//! Fixed-work benchmark of three user paths of the active/busy-time
//! solvers: `abt active … rounding`, `abt replay`-style incremental
//! churn, and `abt busy …`, driven through the public functions of
//! `abt-core`, `abt-lp`, `abt-active` and `abt-busy`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client runs ops back to back (a closed loop). The op sequence is a
//! pure function of (workload, seed, seconds): `--seconds` sets how many
//! ops run through a fixed per-workload rate, never through a clock, so
//! two runs of one seed do identical work. Set-up (input generation,
//! reference answers, store seeding, warm-up) runs `SETUP_REPS` times:
//! once before the first op, and again before evenly spaced slices, so the
//! median, `setup_s`, samples the host across the run rather than in its
//! first seconds. Every op is checked outside its timer.
//!
//! A run is a number of slices, and every slice repeats the same pass of
//! distinct ops. An op's latency is the fastest of its repetitions: a
//! slower repetition of identical work measures interference from other
//! tenants of the machine, not the program. The client thread moves to the
//! next CPU it may use every two slices (see `affinity`). Every reported
//! time is scaled to a reference clock by a kernel sampled beside the ops
//! (see `clock`); the unscaled wall-clock figures are printed too.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` odd slices record spans and counters around each
//! public call and the line carries the per-layer metrics, plus the
//! tracing overhead measured against the even, untraced slices.

mod active;
mod affinity;
mod busy;
mod churn;
mod clock;
mod gen;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest slices a run is cut into, so every op has repetitions to take
/// the fastest of (half of them, in a traced run).
const MIN_SLICES: usize = 8;
/// Fewest distinct ops in a slice, so at least 10 latencies lie beyond p90.
const MIN_DISTINCT_OPS: usize = 100;
/// Ops between two samples of the clock kernel (it is also sampled at the
/// start of every slice, after the client may have moved).
const CLOCK_EVERY: usize = 8;

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// One op's outcome: its duration, and whether it and its checks passed.
pub type OpResult = (u64, Result<(), String>);

/// A workload after set-up: inputs generated, references computed,
/// warm-up done.
pub trait Workload {
    /// Ops in one slice. Every slice runs the same ops on the same inputs:
    /// op `i` and op `i + slice_len()` do identical work.
    fn slice_len(&self) -> usize;
    /// The fixed rate that turns `--seconds` into an op count, so that the
    /// work never depends on a clock.
    fn nominal_ops_per_s(&self) -> f64;
    /// Runs op `i` of the fixed sequence, timing it with `tr`, then checks
    /// its result outside the timer.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpResult;
    /// Σ op cost and Σ certified lower bound over the ops run.
    fn cost_sums(&self) -> (f64, f64);
    /// Fingerprint of the generated inputs.
    fn fingerprint(&self) -> u64;
    /// Digest of the inputs and every reference answer; set-up
    /// repetitions must agree on it.
    fn digest(&self) -> u64;
    /// One line on the input shape.
    fn describe(&self) -> String;
    /// Per-layer metrics from the traced ops.
    fn layers(&self, tr: &Tracer, m: &mut Metrics);
}

/// Builds a workload; `Err` names an unknown workload or a set-up failure.
fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "active_dense" => Ok(Box::new(active::Active::dense(seed)?)),
        "arrival_churn" => Ok(Box::new(churn::Churn::new(seed)?)),
        "busy_flexible" => Ok(Box::new(busy::Busy::new(seed)?)),
        other => Err(format!(
            "unknown workload '{other}' (want active_dense, arrival_churn or busy_flexible)"
        )),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (want 0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload W --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, started: Instant) -> Result<(), String> {
    let cpus = affinity::allowed();
    let mut moved = !cpus.is_empty();
    let mut move_to = |k: usize| {
        if !cpus.is_empty() {
            moved &= affinity::move_to(cpus[k % cpus.len()], &cpus);
        }
    };

    // The first set-up, timed from process start, is the one the ops use.
    let mut setups = SetupTimes::default();
    let mut clock_ns = Vec::new();
    let mut w = setups.run(args, started, &mut clock_ns)?;

    let slice = w.slice_len();
    if slice < MIN_DISTINCT_OPS {
        return Err(format!(
            "a slice of {slice} ops is shorter than {MIN_DISTINCT_OPS}"
        ));
    }
    let slices =
        ((args.seconds * w.nominal_ops_per_s() / slice as f64).ceil() as usize).max(MIN_SLICES);
    let n_ops = slices * slice;
    // The slices before which set-up runs again; MIN_SLICES >= SETUP_REPS
    // keeps them distinct.
    let setup_before: Vec<usize> = (1..SETUP_REPS).map(|r| r * slices / SETUP_REPS).collect();

    let mut tr = Tracer::default();
    // Per distinct op: its fastest repetition, scaled to the reference
    // clock, in the untraced and in the traced slices, and its fastest
    // unscaled untraced repetition (infinite while it has none).
    let mut best_ns = vec![f64::INFINITY; slice];
    let mut traced_best_ns = vec![f64::INFINITY; slice];
    let mut wall_best_ns = vec![f64::INFINITY; slice];
    let mut clock_now = 0.0;
    let mut slice_ns = vec![0u64; slices];
    let mut slice_ok = vec![0usize; slices];
    let mut failed = 0usize;
    let mut first_failure: Option<String> = None;
    let mut exact_at_slice_end = Vec::new();
    for i in 0..n_ops {
        let s = i / slice;
        if i % slice == 0 {
            // Every two slices, so traced and untraced slices share CPUs.
            move_to(s / 2);
            if setup_before.contains(&s) {
                drop(setups.run(args, Instant::now(), &mut clock_ns)?);
            }
        }
        if i % slice == 0 || i % CLOCK_EVERY == 0 {
            clock_now = clock::sample();
            clock_ns.push(clock_now);
        }
        tr.set_on(args.trace && s % 2 == 1);
        let outcome = catch_unwind(AssertUnwindSafe(|| w.op(i, &mut tr))).unwrap_or_else(|p| {
            (
                0,
                Err(format!("panicked: {}", abt_core::panic_message(&*p))),
            )
        });
        match outcome {
            (ns, Ok(())) => {
                slice_ns[s] += ns;
                slice_ok[s] += 1;
                let best = if tr.on() {
                    &mut traced_best_ns[i % slice]
                } else {
                    let wall = &mut wall_best_ns[i % slice];
                    *wall = wall.min(ns as f64);
                    &mut best_ns[i % slice]
                };
                *best = best.min(clock::scaled(ns as f64, clock_now));
            }
            (_, Err(e)) => {
                failed += 1;
                first_failure.get_or_insert_with(|| format!("op {i}: {e}"));
            }
        }
        if tr.on() && (i + 1) % slice == 0 {
            exact_at_slice_end.push(tr.exact_counters());
        }
    }
    let mut self_check = Vec::new();
    if setups.digests.iter().any(|&d| d != setups.digests[0]) {
        self_check.push(format!(
            "set-up repetitions disagree: digests {:x?}",
            setups.digests
        ));
    }
    self_check.extend(trace::unrepeated_counters(&exact_at_slice_end));

    let lat_ns = fastest(&best_ns);
    let untraced_ops_per_s = ops_per_s(&lat_ns);
    let p50 = percentile(&lat_ns, 0.5) / 1e6;
    let p90 = percentile(&lat_ns, 0.9) / 1e6;
    let wall_ns = fastest(&wall_best_ns);
    let (cost, bound) = w.cost_sums();
    let error_rate = failed as f64 / n_ops as f64;

    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    if moved {
        println!("client moved over CPUs {cpus:?} in turn");
    } else {
        println!("client not moved: CPU affinity unavailable");
    }
    println!(
        "inputs: {}; fingerprint {:016x}",
        w.describe(),
        w.fingerprint()
    );
    println!(
        "ops: {n_ops} in {slices} slices of {slice}; {failed} failed (error_rate {error_rate}); \
         latencies (fastest repetition of each distinct op) {}; p90/p50 {:.3}",
        lat_ns.len(),
        if p50 > 0.0 { p90 / p50 } else { 0.0 }
    );
    let slice_rates: Vec<String> = (0..slices)
        .map(|s| {
            format!(
                "{:.1}",
                slice_ok[s] as f64 / (slice_ns[s].max(1) as f64 / 1e9)
            )
        })
        .collect();
    println!("ops/s per slice: {}", slice_rates.join(" "));
    let quantiles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95]
        .iter()
        .map(|&q| format!("p{}={:.3}", q * 100.0, percentile(&lat_ns, q) / 1e6))
        .collect();
    println!("op latency ms: {}", quantiles.join(" "));
    println!(
        "clock kernel ns: fastest {} median {} slowest {} over {} samples; \
         times scaled to the reference clock (kernel {} ns)",
        clock_ns.iter().copied().fold(f64::INFINITY, f64::min),
        median(&clock_ns),
        clock_ns.iter().copied().fold(0.0, f64::max),
        clock_ns.len(),
        clock::REFERENCE_NS
    );
    println!(
        "unscaled wall clock: ops_per_s {} op_p50_ms {} op_p90_ms {} setup_s {}",
        ops_per_s(&wall_ns),
        percentile(&wall_ns, 0.5) / 1e6,
        percentile(&wall_ns, 0.9) / 1e6,
        median(&setups.wall_s)
    );
    if let Some(f) = &first_failure {
        println!("first failure: {f}");
    }
    for c in &self_check {
        println!("self-check FAILED: {c}");
    }

    let mut m = Metrics::new();
    if args.trace {
        let traced_ops_per_s = ops_per_s(&fastest(&traced_best_ns));
        for &(name, unit, _) in PER_LAYER {
            m.insert(name, (0.0, unit));
        }
        w.layers(&tr, &mut m);
        let ops = tr.ops().max(1) as f64;
        let op_ms = tr.ms("op");
        let unattributed = tr.unattributed_ms();
        m.insert("op.ms_per_op", (op_ms / ops, "ms/op"));
        m.insert("op.unattributed_ms_per_op", (unattributed / ops, "ms/op"));
        m.insert(
            "op.unattributed_share",
            (
                if op_ms > 0.0 {
                    unattributed / op_ms
                } else {
                    0.0
                },
                "ratio",
            ),
        );
        m.insert(
            "trace.overhead_ratio",
            (
                if traced_ops_per_s > 0.0 {
                    untraced_ops_per_s / traced_ops_per_s
                } else {
                    0.0
                },
                "ratio",
            ),
        );
        for name in m.keys() {
            if !PER_LAYER.iter().any(|&(n, _, _)| n == *name) {
                return Err(format!("metric {name} is missing from the per-layer table"));
            }
        }
    } else {
        m.insert("ops_per_s", (untraced_ops_per_s, "1/s"));
        m.insert("op_p50_ms", (p50, "ms"));
        m.insert("op_p90_ms", (p90, "ms"));
        m.insert("peak_rss_mb", (peak_rss_mib()?, "MiB"));
        m.insert("setup_s", (median(&setups.scaled_s), "s"));
        m.insert(
            "cost_ratio",
            (if bound > 0.0 { cost / bound } else { 0.0 }, "ratio"),
        );
    }
    for (name, (v, unit)) in &m {
        println!("metric {name} = {v} {unit}");
    }
    if args.trace {
        let exact: Vec<&str> = PER_LAYER.iter().filter(|l| l.2).map(|l| l.0).collect();
        println!("exact counters: {}", exact.join(","));
        println!(
            "traced ops: {}; setup_s reps: {:?}; error_rate {error_rate}",
            tr.ops(),
            setups.scaled_s
        );
    } else {
        println!("metric error_rate = {error_rate} ratio (also in attempted/failed)");
    }

    let correct = failed == 0 && self_check.is_empty();
    let body: Vec<String> = m
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {n_ops}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

/// The set-up repetitions of a run: each one's wall time, its time scaled
/// to the reference clock sampled before and after it, and the digest of
/// its inputs and reference answers.
#[derive(Default)]
struct SetupTimes {
    wall_s: Vec<f64>,
    scaled_s: Vec<f64>,
    digests: Vec<u64>,
}

impl SetupTimes {
    /// Sets the workload up once, timed from `t0`.
    fn run(
        &mut self,
        args: &Args,
        t0: Instant,
        clock_ns: &mut Vec<f64>,
    ) -> Result<Box<dyn Workload>, String> {
        let before = clock::sample();
        let w = setup(&args.workload, args.seed)?;
        let wall = t0.elapsed().as_secs_f64();
        let after = clock::sample();
        clock_ns.extend([before, after]);
        self.wall_s.push(wall);
        self.scaled_s
            .push(clock::scaled(wall, (before + after) / 2.0));
        self.digests.push(w.digest());
        Ok(w)
    }
}

/// A JSON number: finite values as Rust prints them (shortest round-trip
/// form, all digits kept).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The latencies of the distinct ops that completed at least once, sorted.
fn fastest(best_ns: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = best_ns
        .iter()
        .copied()
        .filter(|ns| ns.is_finite())
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Ops per second of op time: distinct ops ÷ the sum of their latencies.
fn ops_per_s(lat_ns: &[f64]) -> f64 {
    let total: f64 = lat_ns.iter().sum();
    if total > 0.0 {
        lat_ns.len() as f64 / (total / 1e9)
    } else {
        0.0
    }
}

/// Median of `v` (0 when empty).
fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted `v`, in its units (0 when empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Every per-layer metric a traced run reports: (name, unit, exact).
/// Layers a workload does not exercise read 0. An exact metric counts
/// work, not time, and must repeat bit for bit across runs of one seed.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("lp.pivots_per_op", "count/op", true),
    ("lp.bound_flips_per_op", "count/op", true),
    ("lp.refactorizations_per_op", "count/op", true),
    ("lp.pivot_ms_per_op", "ms/op", false),
    ("lp.certify_ms_per_op", "ms/op", false),
    ("lp.interval_accept_ratio", "ratio", true),
    ("lp.solves_per_op", "count/op", true),
    ("lp.fallbacks", "count", true),
    ("lp.demotions", "count", true),
    ("active.lp_model.ms_per_op", "ms/op", false),
    ("active.lp_model.self_ms_per_op", "ms/op", false),
    ("lp.decompose_ms_per_op", "ms/op", false),
    ("lp.stitch_ms_per_op", "ms/op", false),
    ("lp.components_per_op", "count/op", true),
    ("active.rounding.ms_per_op", "ms/op", false),
    ("active.rounding.opened_per_op", "count/op", true),
    ("active.rounding.anomalies", "count", true),
    ("active.rounding.repair_slots", "count", true),
    ("active.incremental.mutate_ms_per_op", "ms/op", false),
    ("active.incremental.solve_ms_per_op", "ms/op", false),
    ("active.incremental.components_per_op", "count/op", true),
    ("active.incremental.reuse_ratio", "ratio", true),
    ("active.incremental.warm_hit_ratio", "ratio", true),
    ("active.incremental.cold_solves_per_op", "count/op", true),
    ("lp.warm_ms_per_op", "ms/op", false),
    ("lp.warm_pivots_saved_per_op", "count/op", true),
    ("active.admission.rejects", "count", true),
    ("active.store.attach_ms", "ms", false),
    ("active.store.checkpoint_ms", "ms", false),
    ("active.store.state_bytes", "bytes", true),
    ("busy.span.ms_per_op", "ms/op", false),
    ("busy.span.exact_share", "ratio", true),
    ("busy.firstfit.ms_per_op", "ms/op", false),
    ("busy.greedy_tracking.ms_per_op", "ms/op", false),
    ("busy.kumar_rudra.ms_per_op", "ms/op", false),
    ("busy.alicherry_bhatia.ms_per_op", "ms/op", false),
    ("busy.lp_rounding.ms_per_op", "ms/op", false),
    ("busy.lp_rounding.pivots_per_op", "count/op", true),
    ("busy.lp_rounding.demotions", "count", true),
    ("busy.firstfit.cost_ratio", "ratio", true),
    ("busy.greedy_tracking.cost_ratio", "ratio", true),
    ("busy.kumar_rudra.cost_ratio", "ratio", true),
    ("busy.alicherry_bhatia.cost_ratio", "ratio", true),
    ("busy.lp_rounding.cost_ratio", "ratio", true),
    ("core.io.ms_per_op", "ms/op", false),
    ("core.validate.ms_per_op", "ms/op", false),
    ("op.ms_per_op", "ms/op", false),
    ("op.unattributed_ms_per_op", "ms/op", false),
    ("op.unattributed_share", "ratio", false),
    ("trace.overhead_ratio", "ratio", false),
];
