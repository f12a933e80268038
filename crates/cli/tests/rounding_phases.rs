//! `abt active … rounding` says where its time went: one
//! `phases: decompose …, pivot …, certify …, stitch …, rounding …` line
//! read from the always-on span rollups (the LP pipeline's `solve.*`
//! spans, then `active.rounding` around §3.1 right-shifting plus the §3
//! rounding), one `pivot split: factor …, rest …` line dividing the
//! `pivot` phase (the float pass's LU factorizations, `solve.factor`,
//! and the rest; `abt solve` prints it too), and one `rounding split:
//! right-shift …, flow …, rest …` line dividing the `rounding` phase
//! (`active.right_shift`, the `active.flow` max-flow checks, and the
//! rest). `abt active … minimal`
//! prints `phases: flow …, rest …` and `abt active … exact` prints
//! `phases: lp1 …, flow …, rest …`, each dividing its algorithm's span.

use std::process::Command;
use std::time::Instant;

/// The `(label, ms)` parts of the line of `stdout` that starts with
/// `head`.
fn parts<'a>(stdout: &'a str, head: &str) -> Vec<(&'a str, f64)> {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(head))
        .unwrap_or_else(|| panic!("no '{head}' line:\n{stdout}"));
    line.split(", ")
        .map(|part| {
            let (label, ms) = part
                .strip_suffix(" ms")
                .and_then(|p| p.split_once(' '))
                .unwrap_or_else(|| panic!("malformed phase '{part}'"));
            (label, ms.parse().expect("phase time is a number"))
        })
        .collect()
}

/// The stdout of `abt active <instance> <algo>` on a small instance, and
/// the wall time of the process in ms.
fn active(algo: &str) -> (String, f64) {
    abt(&["active"], Some(algo))
}

/// The stdout of `abt <command…> <instance> [algo]` on a small instance,
/// and the wall time of the process in ms.
fn abt(command: &[&str], algo: Option<&str>) -> (String, f64) {
    let tag = command
        .iter()
        .chain(&algo)
        .copied()
        .collect::<Vec<_>>()
        .join("-");
    let dir =
        std::env::temp_dir().join(format!("abt-rounding-phases-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("active.txt");
    std::fs::write(
        &file,
        "g 2\njob 0 10 3\njob 2 12 4\njob 5 20 2\njob 1 9 5\njob 14 30 6\n",
    )
    .unwrap();
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_abt"))
        .args(command)
        .arg(&file)
        .args(algo)
        .output()
        .expect("spawn abt");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "abt {tag}:\n{stdout}");
    (stdout, wall_ms)
}

/// Asserts that `stdout`'s `pivot split:` line divides `pivot_ms` into
/// the LU factorizations and the rest: equal sums up to the 0.05 ms each
/// printed figure rounds off.
fn assert_pivot_split(stdout: &str, pivot_ms: f64) {
    let split = parts(stdout, "pivot split: ");
    let labels: Vec<&str> = split.iter().map(|&(l, _)| l).collect();
    assert_eq!(labels, ["factor", "rest"], "{stdout}");
    assert!(split.iter().all(|&(_, ms)| ms >= 0.0), "{stdout}");
    let sum: f64 = split.iter().map(|&(_, ms)| ms).sum();
    assert!((sum - pivot_ms).abs() <= 0.1 + 1e-9, "{stdout}");
}

#[test]
fn rounding_prints_lp_and_rounding_phases() {
    let (stdout, _) = active("rounding");
    let phases = parts(&stdout, "phases: ");
    let labels: Vec<&str> = phases.iter().map(|&(l, _)| l).collect();
    assert_eq!(
        labels,
        ["decompose", "pivot", "certify", "stitch", "rounding"],
        "{stdout}"
    );
    assert!(phases.iter().all(|&(_, ms)| ms >= 0.0), "{stdout}");
    assert_pivot_split(&stdout, phases[1].1);
    let split = parts(&stdout, "rounding split: ");
    let labels: Vec<&str> = split.iter().map(|&(l, _)| l).collect();
    assert_eq!(labels, ["right-shift", "flow", "rest"], "{stdout}");
    assert!(split.iter().all(|&(_, ms)| ms >= 0.0), "{stdout}");
    // The split divides the rounding phase: equal sums up to the 0.05 ms
    // each printed figure rounds off.
    let sum: f64 = split.iter().map(|&(_, ms)| ms).sum();
    assert!((sum - phases[4].1).abs() <= 0.2 + 1e-9, "{stdout}");
}

#[test]
fn minimal_and_exact_print_their_phases() {
    for (algo, want) in [
        ("minimal", &["flow", "rest"][..]),
        ("exact", &["lp1", "flow", "rest"][..]),
    ] {
        let (stdout, wall_ms) = active(algo);
        let phases = parts(&stdout, "phases: ");
        let labels: Vec<&str> = phases.iter().map(|&(l, _)| l).collect();
        assert_eq!(labels, want, "{stdout}");
        assert!(phases.iter().all(|&(_, ms)| ms >= 0.0), "{stdout}");
        // The parts divide the algorithm's span, so their sum is its time,
        // which the process's wall time contains.
        let sum: f64 = phases.iter().map(|&(_, ms)| ms).sum();
        assert!(sum <= wall_ms, "{wall_ms} ms:\n{stdout}");
        assert!(stdout.contains("active time: "), "{stdout}");
    }
}

#[test]
fn solve_splits_its_pivot_phase() {
    let (stdout, _) = abt(&["solve"], None);
    let phases = parts(&stdout, "phases: ");
    let labels: Vec<&str> = phases.iter().map(|&(l, _)| l).collect();
    assert_eq!(
        labels,
        ["decompose", "pivot", "certify", "stitch"],
        "{stdout}"
    );
    assert_pivot_split(&stdout, phases[1].1);
}
