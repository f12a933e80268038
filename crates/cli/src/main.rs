//! `abt` — command-line front end for the active/busy-time schedulers.
//!
//! ```text
//! abt gen <family> [seed]            generate an instance to stdout
//! abt bounds <file>                  print lower bounds
//! abt solve <file>                   exact LP1 optimum + solve telemetry
//! abt active <file> <algo>           minimal|rounding|exact|unit
//! abt busy <file> <algo>             ff|gt|kr|ab|lp|exact|preempt
//! abt incremental [clusters] [jobs_per_cluster] [seed]
//!                                    replay an online-arrivals trace
//!                                    through the incremental LP1 solver
//! abt replay --state-dir DIR [clusters] [jobs_per_cluster] [seed]
//!                                    the durable twin of `incremental`:
//!                                    recover the solver from DIR, resume
//!                                    the trace where it left off, journal
//!                                    every arrival (crash-safe — SIGKILL
//!                                    and rerun resumes bit-identically)
//! abt recover <dir> [--compact]      inspect a state directory's health;
//!                                    --compact folds the journal into a
//!                                    fresh checkpoint
//! abt trace <dump.jsonl> [--expect kinds]
//!                                    validate a flight-recorder dump and
//!                                    print its span/event kind tallies
//! ```
//!
//! The trace of `incremental` and `replay` needs `clusters ≥ 1`,
//! `1 ≤ jobs_per_cluster ≤ 2·g` (g = 3) and at most 2²⁴ jobs in all;
//! other values are usage errors.
//!
//! `solve` and `incremental` also accept `--pivot-budget N` and
//! `--time-budget-ms N`: per-attempt solve budgets (0 = unlimited). A
//! tripped budget demotes the solve down the supervision ladder (see
//! `abt-active`'s `supervise` module) — the answer stays exact; the
//! printed telemetry shows how many attempts demoted, tripped a budget,
//! were answered by the ladder's last rung (dense exact), or were
//! quarantined.
//!
//! The supervision summary line of `solve`, `incremental` and `replay`
//! also counts how the certifications went: those whose reduced-cost signs
//! were proven wholly in integers, those where some column family needed
//! exact rationals (`Rat`; none on integral data), and those whose exact
//! values came from the exact LU.
//!
//! `solve`, `incremental`, and `replay` accept two observability flags
//! (see `abt-core`'s `obs` module): `--trace-out PATH` arms solve-pipeline
//! tracing and writes the flight-recorder JSONL dump to PATH when the
//! command finishes — including after a quarantine error or panic — and
//! `--metrics` prints the full metrics-registry exposition after the
//! command's own output: a `name value` line per counter, and
//! `name_count`, `name_p50`, `name_p90` and `name_p99` lines per
//! histogram (one observation per certified LP solve in
//! `lp.solve_latency_us`, `lp.pivots_per_solve` and `lp.vars_per_solve`).
//! Each of the three also prints a one-line per-phase time breakdown from
//! the always-on span rollups: `solve` splits into
//! decompose/pivot/certify/stitch, then prints a `pivot split:` line
//! dividing the pivot phase into the float pass's LU factorizations
//! (`factor`, the `solve.factor` spans) and the rest, and
//! `incremental` and `replay` into admission/regroup/pivot/certify/stitch
//! (the incremental driver's own spans around the LP
//! ones). `incremental`'s totals line also counts the jobs the driver
//! re-partitioned into components (`incremental.jobs_regrouped`).
//! `busy` with an interval algorithm (`ff`, `gt`, `kr`, `ab`, `lp`) prints
//! the same kind of line for its three phases: reading the instance file's
//! text (`parse`, `abt-core`'s `core.parse` span), the min-span placement
//! (`span`) and the interval algorithm's packing (`pack`); `kr` and `lp`
//! then print a `pack split:` line dividing `pack` into Kumar–Rudra's
//! `levels` (padding, level caps, phase 1), `bands` (phase 2) and the
//! rest (the demand profile, which `lp` builds once for its LP value and
//! Kumar–Rudra, and `lp`'s checks), and `ab` one dividing it into its
//! track extractions (`tracks`) and the rest. `active …
//! rounding` prints one for the LP pipeline (decompose/pivot/certify/
//! stitch) and the §3.1 right-shift plus §3 rounding (`rounding`), then
//! the same `pivot split:` line as `solve`, then a
//! `rounding split:` line dividing that phase into the right-shift, the
//! max-flow feasibility checks (`flow`) and the rest. `active … minimal`
//! divides its algorithm into the max-flow checks (`flow`) and the rest,
//! and `active … exact` its search into the LP1 bound (`lp1`), the
//! max-flow checks and the rest.
//!
//! `solve` answers in open runs, so it answers any horizon whose length
//! fits `i64`. `active … minimal` and `active … rounding` list the
//! horizon's slots, so they refuse a horizon longer than `abt-core`'s
//! `MAX_HORIZON_SLOTS` with a typed error (exit 2); `active … exact` is
//! one search over event-point runs, so it answers long horizons too, and
//! refuses (exit 2) only runs whose caps sum past that limit, such as a
//! job longer than it.
//! `busy … kr|lp` pad the demand profile with dummy jobs to a multiple of
//! `g`, so they refuse a padding past `abt-busy`'s `MAX_PADDED_DEMAND`
//! (2²⁴ units, reached by a huge `g`) with a typed error (exit 2).
//!
//! Every command writes its output through one writer. When the reader
//! goes away (`abt … | head`), the command stops at the failed write and
//! exits 0 without a message.
//!
//! A command-line mistake (an unknown subcommand or algorithm, a missing
//! or malformed argument or flag value, out-of-range trace parameters)
//! prints `error: …` and the usage text and exits 2. A typed refusal or an
//! input error (an unreadable or malformed instance file, an infeasible
//! instance, an unsupported request, a state dir that does not match the
//! trace) prints the one `error: …` line and exits 2.
//!
//! Instance files use the `abt-core::io` text format (`g <k>` then one
//! `job <r> <d> <p>` per line; `#` comments allowed).

use abt_active::{
    exact_active_time, exact_unit_active_time, inspect_store, lp_rounding, lp_telemetry,
    minimal_feasible, solve_active_lp_with, ClosingOrder, IncrementalReport, IncrementalSolver,
    LpOptions,
};
use abt_busy::{
    exact_busy_time, preemptive_bounded, preemptive_unbounded, solve_flexible, IntervalAlgo,
};
use abt_core::active_schedule::horizon_len;
use abt_core::obs;
use abt_core::{active_lower_bound, busy_lower_bounds, io, Instance, Job};
use abt_workloads::{
    fig1_example, fig3_minimal_tight, integrality_gap, online_arrivals, optical_trace,
    random_flexible, random_interval, vm_trace, OnlineArrivalsConfig, OpticalTraceConfig,
    RandomConfig, VmTraceConfig,
};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Duration;

/// Flight-recorder dump path from `--trace-out`, visible to the panic
/// hook: a quarantine panic dumps the recorder before the process dies.
static TRACE_OUT: OnceLock<String> = OnceLock::new();

fn dump_trace() {
    if let Some(path) = TRACE_OUT.get() {
        match obs::dump_to_file(std::path::Path::new(path)) {
            Ok(()) => eprintln!("wrote flight-recorder dump {path}"),
            Err(e) => eprintln!("could not write flight-recorder dump {path}: {e}"),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Arm tracing before any solver work so the dump covers the whole
    // command; the flag itself is stripped later by `parse_budgets`.
    if let Some(i) = args.iter().position(|a| a == "--trace-out") {
        if let Some(path) = args.get(i + 1) {
            let _ = TRACE_OUT.set(path.clone());
            obs::set_tracing(true);
            let default_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                dump_trace();
                default_hook(info);
            }));
        }
    }
    let print_metrics = args.iter().any(|a| a == "--metrics");
    let mut out = std::io::stdout();
    let result = run(
        &args.iter().map(String::as_str).collect::<Vec<_>>(),
        &mut out,
    )
    .and_then(|()| {
        if print_metrics {
            write!(out, "{}", obs::metrics::render())?;
        }
        out.flush()?;
        Ok(())
    });
    // Dump on success and on typed errors alike — a quarantined solve is
    // exactly when the flight recorder matters most.
    dump_trace();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`abt … | head`): nothing is left to say.
        Err(Stop::Output(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Stop::Output(e)) => {
            eprintln!("error: writing output: {e}");
            ExitCode::FAILURE
        }
        Err(Stop::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        Err(Stop::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage:\n  abt gen <interval|flexible|vm|optical|fig1|fig3|gap> [seed]\n  \
                 abt bounds <file>\n  \
                 abt solve <file> [--pivot-budget N] [--time-budget-ms N] \
                 [--trace-out PATH] [--metrics]\n  \
                 abt active <file> <minimal|rounding|exact|unit>\n  \
                 abt busy <file> <ff|gt|kr|ab|lp|exact|preempt>\n  \
                 abt incremental [clusters] [jobs_per_cluster] [seed] \
                 [--pivot-budget N] [--time-budget-ms N] \
                 [--trace-out PATH] [--metrics]\n  \
                 abt replay --state-dir DIR [clusters] [jobs_per_cluster] [seed] \
                 [--throttle-ms N] [budget flags] [--trace-out PATH] [--metrics]\n  \
                 abt recover <dir> [--compact]\n  \
                 abt trace <dump.jsonl> [--expect kind1,kind2]"
            );
            ExitCode::from(2)
        }
    }
}

/// Why a command stopped short of success.
enum Stop {
    /// A command-line mistake: reported with the usage text, exit 2.
    Usage(String),
    /// A typed refusal or an input error: one `error:` line, exit 2.
    Failed(String),
    /// Writing to stdout failed.
    Output(std::io::Error),
}

/// A typed refusal or an input error, as a [`Stop::Failed`].
fn failed(e: impl std::fmt::Display) -> Stop {
    Stop::Failed(e.to_string())
}

impl From<String> for Stop {
    fn from(msg: String) -> Stop {
        Stop::Usage(msg)
    }
}

impl From<&str> for Stop {
    fn from(msg: &str) -> Stop {
        Stop::Usage(msg.into())
    }
}

impl From<std::io::Error> for Stop {
    fn from(e: std::io::Error) -> Stop {
        Stop::Output(e)
    }
}

fn load(path: &str) -> Result<Instance, Stop> {
    let text = std::fs::read_to_string(path).map_err(|e| failed(format!("reading {path}: {e}")))?;
    io::read_instance(&text).map_err(failed)
}

/// Splits the solve-budget flags (`--pivot-budget N`, `--time-budget-ms
/// N`) out of `args`, returning the remaining positional arguments and an
/// [`LpOptions`] with the budgets applied (0 = unlimited). The observability
/// flags (`--trace-out PATH`, `--metrics`) are stripped here too — they
/// are handled process-wide in `main`.
fn parse_budgets<'a>(args: &[&'a str]) -> Result<(Vec<&'a str>, LpOptions), String> {
    let mut opts = LpOptions::default();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match *a {
            "--metrics" => {}
            "--trace-out" => {
                it.next().ok_or("--trace-out needs a path")?;
            }
            "--pivot-budget" | "--time-budget-ms" => {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                let n: u64 = v.parse().map_err(|_| format!("bad {a} value '{v}'"))?;
                if *a == "--pivot-budget" {
                    opts.pricing.pivot_budget = n;
                } else {
                    opts.pricing.time_budget = (n > 0).then(|| Duration::from_millis(n));
                }
            }
            other => positional.push(other),
        }
    }
    Ok((positional, opts))
}

/// The most jobs an `incremental` or `replay` trace may hold (2²⁴, the
/// same limit as `MAX_HORIZON_SLOTS`): the generator allocates the whole
/// trace up front.
const MAX_TRACE_JOBS: u64 = 1 << 24;

/// The online-arrivals trace config for `incremental` and `replay`,
/// checked at the input boundary: the generator guarantees a feasible
/// trace only for `clusters ≥ 1` and `1 ≤ jobs_per_cluster ≤ 2·g`, and
/// asserts it, so an out-of-range request must be a usage error here. So
/// is a trace of more than [`MAX_TRACE_JOBS`] jobs.
fn arrivals_config(clusters: u64, jobs_per_cluster: u64) -> Result<OnlineArrivalsConfig, String> {
    let base = OnlineArrivalsConfig::default();
    if clusters == 0 {
        return Err("clusters must be at least 1".into());
    }
    let max_jobs = 2 * base.g as u64;
    if !(1..=max_jobs).contains(&jobs_per_cluster) {
        return Err(format!(
            "jobs_per_cluster must be in 1..={max_jobs} (2·g with g = {})",
            base.g
        ));
    }
    if clusters.saturating_mul(jobs_per_cluster) > MAX_TRACE_JOBS {
        return Err(format!(
            "clusters × jobs_per_cluster must be at most {MAX_TRACE_JOBS} jobs"
        ));
    }
    Ok(OnlineArrivalsConfig {
        clusters: clusters as usize,
        jobs_per_cluster: jobs_per_cluster as usize,
        ..base
    })
}

/// One-line supervision summary from a telemetry delta: the ladder's
/// demotions, budget trips, answers from its dense exact rung
/// (`lp.fallbacks`) and quarantines, then how many certifications proved
/// every reduced-cost sign in integers, how many needed `Rat` for some
/// column family, and how many fell back to the exact LU.
fn supervision_summary(d: &abt_active::LpTelemetry) -> String {
    format!(
        "supervision: {} demotions ({} budget trips), {} dense-exact answers, {} quarantined; \
         certify: {} integer sweeps, {} Rat sweeps, {} LU ({:.1} ms)",
        d.demotions,
        d.budget_trips,
        d.fallbacks,
        d.quarantined,
        d.interval_accepts,
        d.interval_escalations,
        d.certify_lu,
        d.certify_nanos as f64 / 1e6,
    )
}

/// The component LPs a `solve` call solved: `lp.components` counts only
/// sharded solves, and an unsharded solve is one component (its one LP,
/// or none on an empty instance).
fn components_solved(d: &abt_active::LpTelemetry) -> u64 {
    if d.sharded_solves > 0 {
        d.components
    } else {
        d.solves
    }
}

/// Total nanoseconds of the span `name` in `rollups` (0 if it never
/// closed).
fn span_nanos(rollups: &[(String, u64, u64)], name: &str) -> u64 {
    rollups
        .iter()
        .find(|(n, _, _)| n == name)
        .map_or(0, |&(_, _, nanos)| nanos)
}

/// `"<head>: <label> X ms, …"` over `(label, nanoseconds)` parts.
fn ms_line(head: &str, parts: &[(&str, u64)]) -> String {
    let parts: Vec<String> = parts
        .iter()
        .map(|&(label, nanos)| format!("{label} {:.1} ms", nanos as f64 / 1e6))
        .collect();
    format!("{head}: {}", parts.join(", "))
}

/// One-line per-phase wall-time breakdown from the always-on span
/// rollups: `(label, span name)` per phase. The CLI is one command per
/// process, so the cumulative rollup totals are exactly this command's
/// totals.
fn phase_line(phases: &[(&str, &str)]) -> String {
    let rollups = obs::span_rollups();
    let parts: Vec<(&str, u64)> = phases
        .iter()
        .map(|&(label, span)| (label, span_nanos(&rollups, span)))
        .collect();
    ms_line("phases", &parts)
}

/// The LP pipeline's phases (`solve`).
fn phase_breakdown() -> String {
    phase_line(&[
        ("decompose", "solve.decompose"),
        ("pivot", "solve.pivot"),
        ("certify", "solve.certify"),
        ("stitch", "solve.stitch"),
    ])
}

/// `active … rounding`'s phases: the LP pipeline's, then §3.1
/// right-shifting plus §3 rounding (`active.rounding`).
fn rounding_phases() -> String {
    phase_line(&[
        ("decompose", "solve.decompose"),
        ("pivot", "solve.pivot"),
        ("certify", "solve.certify"),
        ("stitch", "solve.stitch"),
        ("rounding", "active.rounding"),
    ])
}

/// `"<head>: <label> X ms, …, rest Z ms"`: the span `total` divided into
/// `(label, span)` parts, each nested inside it, and the rest. The parts
/// sum to the total.
fn split_line(head: &str, total: &str, parts: &[(&str, &str)]) -> String {
    let rollups = obs::span_rollups();
    let mut line: Vec<(&str, u64)> = parts
        .iter()
        .map(|&(label, span)| (label, span_nanos(&rollups, span)))
        .collect();
    let inner: u64 = line.iter().map(|&(_, nanos)| nanos).sum();
    line.push(("rest", span_nanos(&rollups, total).saturating_sub(inner)));
    ms_line(head, &line)
}

/// `solve`'s and `active … rounding`'s split of the pivot phase: the
/// float pass's LU factorizations (`solve.factor`: the start factor and
/// each refactorization) and the rest.
fn pivot_split() -> String {
    split_line("pivot split", "solve.pivot", &[("factor", "solve.factor")])
}

/// `active … rounding`'s split of its `rounding` phase: §3.1
/// right-shifting (`active.right_shift`), the max-flow feasibility checks
/// (`active.flow`), and the rest of the §3 rounding.
fn rounding_split() -> String {
    split_line(
        "rounding split",
        "active.rounding",
        &[
            ("right-shift", "active.right_shift"),
            ("flow", "active.flow"),
        ],
    )
}

/// `active … minimal`'s phases: its max-flow feasibility checks
/// (`active.flow`) and the rest of minimal-feasible (`active.minimal`).
fn minimal_phases() -> String {
    split_line("phases", "active.minimal", &[("flow", "active.flow")])
}

/// `active … exact`'s phases: its LP1 bound (`active.exact.lp1`), its
/// max-flow feasibility checks (`active.flow`) and the rest of the search
/// (`active.exact`).
fn exact_phases() -> String {
    split_line(
        "phases",
        "active.exact",
        &[("lp1", "active.exact.lp1"), ("flow", "active.flow")],
    )
}

/// `busy … kr|lp|ab`'s split of its `pack` phase: Kumar–Rudra's padding,
/// level caps and phase 1 (`levels`) and its phase 2 (`bands`), or
/// Alicherry–Bhatia's track extractions (`tracks`), then the rest. `None`
/// for the algorithms without sub-spans.
fn pack_split(algo: IntervalAlgo) -> Option<String> {
    let parts: &[(&str, &str)] = match algo {
        IntervalAlgo::KumarRudra | IntervalAlgo::LpRounding => {
            &[("levels", "busy.kr.levels"), ("bands", "busy.kr.bands")]
        }
        IntervalAlgo::AlicherryBhatia => &[("tracks", "busy.ab.tracks")],
        IntervalAlgo::FirstFit | IntervalAlgo::GreedyTracking => return None,
    };
    Some(split_line("pack split", "busy.pack", parts))
}

/// The incremental driver's phases (`incremental`, `replay`).
fn incremental_phases() -> String {
    phase_line(&[
        ("admission", "incremental.admission"),
        ("regroup", "incremental.regroup"),
        ("pivot", "solve.pivot"),
        ("certify", "solve.certify"),
        ("stitch", "incremental.stitch"),
    ])
}

/// Jobs the incremental driver re-partitioned into components so far.
fn jobs_regrouped() -> u64 {
    obs::counter("incremental.jobs_regrouped").get()
}

/// Adds each numbered arrival to `solver` and re-solves, printing one
/// line per arrival and pausing `throttle_ms` after each (0 = none); the
/// loop of `incremental` and `replay`. Returns the last report, if any.
fn solve_arrivals<'a>(
    out: &mut dyn Write,
    solver: &mut IncrementalSolver,
    arrivals: impl Iterator<Item = (usize, &'a Job)>,
    throttle_ms: u64,
) -> Result<Option<IncrementalReport>, Stop> {
    let mut last = None;
    for (i, job) in arrivals {
        solver.add_job(*job);
        let rep = solver.solve().map_err(failed)?;
        writeln!(
            out,
            "arrival {i:>3}: job [{:>4}, {:>4}) len {} → LP1 = {}  \
             (components {}, reused {}, cold {})",
            job.release,
            job.deadline,
            job.length,
            rep.lp.objective,
            rep.components,
            rep.reused,
            rep.cold_solves
        )?;
        last = Some(rep);
        if throttle_ms > 0 {
            std::thread::sleep(Duration::from_millis(throttle_ms));
        }
    }
    Ok(last)
}

fn run(args: &[&str], out: &mut dyn Write) -> Result<(), Stop> {
    match args {
        ["gen", family, rest @ ..] => {
            let seed: u64 = rest
                .first()
                .map_or(Ok(0), |s| s.parse().map_err(|_| "bad seed"))?;
            let inst = match *family {
                "interval" => random_interval(&RandomConfig::default(), seed),
                "flexible" => random_flexible(&RandomConfig::default(), seed),
                "vm" => vm_trace(&VmTraceConfig::default(), seed),
                "optical" => optical_trace(&OpticalTraceConfig::default(), seed),
                "fig1" => fig1_example(),
                "fig3" => fig3_minimal_tight(4).instance,
                "gap" => integrality_gap(3).instance,
                other => return Err(format!("unknown family '{other}'").into()),
            };
            write!(out, "{}", io::write_instance(&inst))?;
            Ok(())
        }
        ["bounds", path] => {
            let inst = load(path)?;
            writeln!(
                out,
                "jobs: {}  g: {}  horizon: {}",
                inst.len(),
                inst.g(),
                inst.horizon()
            )?;
            writeln!(
                out,
                "active-time lower bound: {}",
                active_lower_bound(&inst)
            )?;
            let b = busy_lower_bounds(&inst);
            writeln!(
                out,
                "busy-time bounds: mass={} span={} profile={}",
                b.mass, b.span, b.profile
            )?;
            Ok(())
        }
        ["solve", rest @ ..] => {
            let (positional, opts) = parse_budgets(rest)?;
            let [path] = positional[..] else {
                return Err("solve takes exactly one instance file".into());
            };
            let inst = load(path)?;
            let before = lp_telemetry();
            let lp = solve_active_lp_with(&inst, &opts).map_err(failed)?;
            let d = lp_telemetry().delta(&before);
            let horizon = horizon_len(inst.min_release(), inst.max_deadline()).map_err(failed)?;
            writeln!(out, "LP1 optimum: {}", lp.objective)?;
            writeln!(
                out,
                "fractionally open slots: {} of {horizon} in {} runs",
                lp.open_slots(),
                lp.runs.len()
            )?;
            writeln!(
                out,
                "solves: {} ({} components), {} pivots ({} in phase 1), {} refactorizations, {} fallbacks",
                d.solves,
                components_solved(&d),
                d.pivots,
                d.phase1_pivots,
                d.refactorizations,
                d.fallbacks
            )?;
            writeln!(out, "{}", supervision_summary(&d))?;
            writeln!(out, "{}", phase_breakdown())?;
            writeln!(out, "{}", pivot_split())?;
            Ok(())
        }
        ["active", path, algo] => {
            let inst = load(path)?;
            let (cost, slots) = match *algo {
                "minimal" => {
                    let r = minimal_feasible(&inst, ClosingOrder::LeftToRight).map_err(failed)?;
                    writeln!(out, "{}", minimal_phases())?;
                    (r.slots.len(), r.slots)
                }
                "rounding" => {
                    let r = lp_rounding(&inst).map_err(failed)?;
                    writeln!(
                        out,
                        "LP = {}, certified cost ≤ 2·LP: {}",
                        r.lp_objective,
                        r.within_two_lp()
                    )?;
                    writeln!(out, "{}", rounding_phases())?;
                    writeln!(out, "{}", pivot_split())?;
                    writeln!(out, "{}", rounding_split())?;
                    (r.opened.len(), r.opened)
                }
                "exact" => {
                    let r = exact_active_time(&inst, Some(500_000_000)).map_err(failed)?;
                    writeln!(out, "{}", exact_phases())?;
                    (r.slots.len(), r.slots)
                }
                "unit" => {
                    let r = exact_unit_active_time(&inst).map_err(failed)?;
                    (r.slots.len(), r.slots)
                }
                other => return Err(format!("unknown active algorithm '{other}'").into()),
            };
            writeln!(out, "active time: {cost}")?;
            writeln!(out, "active slots: {slots:?}")?;
            Ok(())
        }
        ["busy", path, algo] => {
            let inst = load(path)?;
            let algo = match *algo {
                "ff" => IntervalAlgo::FirstFit,
                "gt" => IntervalAlgo::GreedyTracking,
                "kr" => IntervalAlgo::KumarRudra,
                "ab" => IntervalAlgo::AlicherryBhatia,
                "lp" => IntervalAlgo::LpRounding,
                "exact" => {
                    let r = exact_busy_time(&inst, Some(500_000_000)).map_err(failed)?;
                    writeln!(
                        out,
                        "busy time: {} on {} machines",
                        r.cost,
                        r.schedule.machine_count()
                    )?;
                    return Ok(());
                }
                "preempt" => {
                    let u = preemptive_unbounded(&inst);
                    let b = preemptive_bounded(&inst);
                    writeln!(out, "preemptive OPT∞: {}", u.cost)?;
                    writeln!(
                        out,
                        "bounded-g 2-approx: {} on {} machines",
                        b.total_busy_time(),
                        b.machine_count()
                    )?;
                    return Ok(());
                }
                other => return Err(format!("unknown busy algorithm '{other}'").into()),
            };
            let schedule = solve_flexible(&inst, algo).map_err(failed)?.schedule;
            schedule.validate(&inst).map_err(failed)?;
            writeln!(
                out,
                "busy time: {} on {} machines",
                schedule.total_busy_time(&inst),
                schedule.machine_count()
            )?;
            for (m, b) in schedule.bundles.iter().enumerate() {
                if !b.items.is_empty() {
                    writeln!(out, "machine {m}: {:?}", b.items)?;
                }
            }
            writeln!(
                out,
                "{}",
                phase_line(&[
                    ("parse", "core.parse"),
                    ("span", "busy.span"),
                    ("pack", "busy.pack")
                ])
            )?;
            if let Some(split) = pack_split(algo) {
                writeln!(out, "{split}")?;
            }
            Ok(())
        }
        ["incremental", rest @ ..] => {
            let (positional, opts) = parse_budgets(rest)?;
            let parse_at = |i: usize, default: u64| -> Result<u64, String> {
                positional.get(i).map_or(Ok(default), |s| {
                    s.parse().map_err(|_| format!("bad argument '{s}'"))
                })
            };
            let cfg = arrivals_config(parse_at(0, 8)?, parse_at(1, 4)?)?;
            let seed = parse_at(2, 0)?;
            let oa = online_arrivals(&cfg, seed);
            writeln!(
                out,
                "online-arrivals trace: {} jobs into {} stripes (g = {}, {} templates, seed {seed})",
                oa.jobs.len(),
                cfg.clusters,
                oa.g,
                cfg.templates
            )?;
            let before = lp_telemetry();
            let regrouped = jobs_regrouped();
            let mut solver = IncrementalSolver::with_options(oa.g, opts).map_err(failed)?;
            solve_arrivals(out, &mut solver, oa.jobs.iter().enumerate(), 0)?;
            let d = lp_telemetry().delta(&before);
            writeln!(
                out,
                "replay totals: {} LP solves, {} pivots, {} fallbacks, {} jobs regrouped",
                d.solves,
                d.pivots,
                d.fallbacks,
                jobs_regrouped() - regrouped
            )?;
            writeln!(out, "{}", supervision_summary(&d))?;
            writeln!(out, "{}", incremental_phases())?;
            Ok(())
        }
        ["replay", rest @ ..] => {
            let (positional, opts) = parse_budgets(rest)?;
            // Pull the replay-specific flags out of the leftovers.
            let mut state_dir: Option<&str> = None;
            let mut throttle_ms: u64 = 0;
            let mut free = Vec::new();
            let mut it = positional.iter();
            while let Some(a) = it.next() {
                match *a {
                    "--state-dir" => {
                        state_dir = Some(it.next().ok_or("--state-dir needs a value")?);
                    }
                    "--throttle-ms" => {
                        let v = it.next().ok_or("--throttle-ms needs a value")?;
                        throttle_ms = v.parse().map_err(|_| format!("bad --throttle-ms '{v}'"))?;
                    }
                    other => free.push(other),
                }
            }
            let state_dir = state_dir.ok_or("replay requires --state-dir DIR")?;
            let parse_at = |i: usize, default: u64| -> Result<u64, String> {
                free.get(i).map_or(Ok(default), |s| {
                    s.parse().map_err(|_| format!("bad argument '{s}'"))
                })
            };
            let cfg = arrivals_config(parse_at(0, 8)?, parse_at(1, 4)?)?;
            let seed = parse_at(2, 0)?;
            let oa = online_arrivals(&cfg, seed);
            let before = lp_telemetry();
            let mut solver = IncrementalSolver::with_options(oa.g, opts).map_err(failed)?;
            let rec = solver.attach_store(state_dir).map_err(failed)?;
            writeln!(
                out,
                "recovery: {} jobs resumed ({} journal ops replayed, {} blocks restored), \
                 {} corruption events absorbed{}{}",
                rec.resumed_jobs,
                rec.replayed_ops,
                rec.restored_blocks,
                rec.corruption_events,
                if rec.storm_quarantined {
                    "; restart storm → state quarantined"
                } else {
                    ""
                },
                if rec.cold_start { "; cold start" } else { "" },
            )?;
            // Resume where the journal left off: each arrival is exactly
            // one add_job, so the job count is the stream position.
            let done = solver.len();
            if done > oa.jobs.len() {
                return Err(failed(format!(
                    "state dir holds {done} jobs but the trace has only {} — \
                     wrong trace parameters or seed for this state dir?",
                    oa.jobs.len()
                )));
            }
            writeln!(
                out,
                "online-arrivals trace: {} jobs into {} stripes (g = {}, seed {seed}); \
                 resuming at arrival {done}",
                oa.jobs.len(),
                cfg.clusters,
                oa.g,
            )?;
            let arrivals = oa.jobs.iter().enumerate().skip(done);
            let objective = match solve_arrivals(out, &mut solver, arrivals, throttle_ms)? {
                Some(rep) => rep.lp.objective,
                // Fully caught up already: one clean re-solve for the line.
                None => solver.solve().map_err(failed)?.lp.objective,
            };
            solver.checkpoint_now();
            let d = lp_telemetry().delta(&before);
            writeln!(
                out,
                "persist: {} restores, {} recoveries, {} state-corrupt, {} admission rejects{}",
                d.persist_restores,
                d.recoveries,
                d.state_corrupt,
                d.admission_rejects,
                if solver.store_degraded() {
                    " (store degraded: persistence stopped, served from memory)"
                } else {
                    ""
                },
            )?;
            writeln!(out, "{}", supervision_summary(&d))?;
            writeln!(out, "{}", incremental_phases())?;
            writeln!(out, "final objective: {objective}")?;
            Ok(())
        }
        ["trace", rest @ ..] => {
            // Validate a flight-recorder JSONL dump (written by
            // `--trace-out` on solve/incremental/replay, or by the bench
            // harness): every line must parse as a recorder entry.
            // `--expect kind1,kind2` additionally requires each named
            // span/event kind to appear at least once.
            let mut expect: Vec<&str> = Vec::new();
            let mut file: Option<&str> = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match *a {
                    "--expect" => {
                        let v = it.next().ok_or("--expect needs a comma-separated list")?;
                        expect.extend(v.split(',').filter(|s| !s.is_empty()));
                    }
                    // `--check` is accepted as an explicit alias for the
                    // positional form.
                    "--check" => {
                        file = Some(it.next().ok_or("--check needs a file")?);
                    }
                    other if file.is_none() => file = Some(other),
                    other => return Err(format!("unexpected trace argument '{other}'").into()),
                }
            }
            let file = file.ok_or("trace takes a flight-recorder JSONL dump file")?;
            let text = std::fs::read_to_string(file)
                .map_err(|e| failed(format!("reading {file}: {e}")))?;
            let summary = obs::validate_jsonl(&text).map_err(|e| failed(format!("{file}: {e}")))?;
            writeln!(out, "{file}: {} entries, all valid", summary.lines)?;
            for (kind, n) in &summary.span_kinds {
                writeln!(out, "  span  {kind}: {n}")?;
            }
            for (kind, n) in &summary.event_kinds {
                writeln!(out, "  event {kind}: {n}")?;
            }
            for kind in expect {
                if !summary.span_kinds.contains_key(kind) && !summary.event_kinds.contains_key(kind)
                {
                    return Err(failed(format!(
                        "expected span/event kind '{kind}' not in {file}"
                    )));
                }
            }
            writeln!(out, "trace: OK")?;
            Ok(())
        }
        ["recover", rest @ ..] => {
            let (dir, compact) = match rest {
                [dir] => (*dir, false),
                [dir, "--compact"] | ["--compact", dir] => (*dir, true),
                _ => return Err("recover takes <dir> and optionally --compact".into()),
            };
            let ins = inspect_store(dir).map_err(failed)?;
            match (&ins.checkpoint, &ins.checkpoint_error) {
                (Some(c), _) => {
                    writeln!(
                out,
                    "checkpoint: ok (g = {}, seq {}, {} live jobs, {} blocks, {} quarantined keys)",
                    c.g, c.seq, c.live_jobs, c.blocks, c.quarantined
                )
                }
                (None, Some(e)) => writeln!(out, "checkpoint: REJECTED — {e}"),
                (None, None) => writeln!(out, "checkpoint: missing"),
            }?;
            match &ins.journal_error {
                Some(e) if e == "missing" => writeln!(out, "journal: missing"),
                Some(e) => writeln!(out, "journal: REJECTED — {e}"),
                None => writeln!(
                    out,
                    "journal: ok ({} records, {} pending past the checkpoint{})",
                    ins.journal_records,
                    ins.pending_ops,
                    if ins.journal_torn_tail {
                        "; torn tail"
                    } else {
                        ""
                    }
                ),
            }?;
            writeln!(
                out,
                "recovery attempts: {} (storm guard trips at {})",
                ins.recovery_attempts,
                abt_active::MAX_RECOVERY_ATTEMPTS
            )?;
            if compact {
                // Recover through the real attach path (absorbing any
                // corruption exactly as a solver would), then fold the
                // journal into a fresh checkpoint.
                let g = ins.checkpoint.as_ref().map_or(1, |c| c.g);
                let mut solver = IncrementalSolver::new(g).map_err(failed)?;
                let rec = solver.attach_store(dir).map_err(failed)?;
                solver.checkpoint_now();
                writeln!(
                    out,
                    "compacted: {} jobs, {} ops folded, {} corruption events absorbed",
                    rec.resumed_jobs, rec.replayed_ops, rec.corruption_events
                )?;
            }
            Ok(())
        }
        _ => Err("missing or unknown subcommand".into()),
    }
}
