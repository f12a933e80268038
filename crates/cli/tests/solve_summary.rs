//! `abt solve` reports the LP1 solve effort of the run on one line:
//! `solves: S (C components), P pivots (P1 in phase 1), R
//! refactorizations, F fallbacks`, every count from the same
//! `lp_telemetry()` delta, `C` the component LPs the call solved (1 on a
//! connected instance); the answer's shape on another:
//! `fractionally open slots: X of H in R runs`, `H` the horizon's length;
//! and on its `supervision:` line how its certifications went (`certify: A
//! integer sweeps, R Rat sweeps, L LU (…)`): on integral data every
//! reduced-cost sign is proven in integers and none needs the exact LU.

use std::process::Command;

/// The counts of a `solves:` line, in order, or `None` when the line does
/// not have the pinned shape.
fn counts(line: &str) -> Option<[u64; 6]> {
    let rest = line.strip_prefix("solves: ")?;
    let (solves, rest) = rest.split_once(" (")?;
    let (components, rest) = rest.split_once(" components), ")?;
    let (pivots, rest) = rest.split_once(" pivots (")?;
    let (phase1, rest) = rest.split_once(" in phase 1), ")?;
    let (refactorizations, rest) = rest.split_once(" refactorizations, ")?;
    let fallbacks = rest.strip_suffix(" fallbacks")?;
    let mut out = [0u64; 6];
    for (slot, field) in out.iter_mut().zip([
        solves,
        components,
        pivots,
        phase1,
        refactorizations,
        fallbacks,
    ]) {
        *slot = field.parse().ok()?;
    }
    Some(out)
}

/// `abt solve` on an instance file holding `text`, in a directory of its
/// own named after `tag`; returns stdout.
fn solve(tag: &str, text: &str) -> String {
    let dir = std::env::temp_dir().join(format!("abt-solve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("active.txt");
    std::fs::write(&file, text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_abt"))
        .args(["solve", file.to_str().unwrap()])
        .output()
        .expect("spawn abt");
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "abt solve:\n{stdout}");
    stdout
}

/// The counts of the `solves:` line of `stdout`.
fn solves_line(stdout: &str) -> [u64; 6] {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("solves: "))
        .unwrap_or_else(|| panic!("no solves line:\n{stdout}"));
    counts(line).unwrap_or_else(|| panic!("malformed solves line '{line}'"))
}

#[test]
fn solve_prints_pivots_phase1_refactorizations_and_fallbacks() {
    let stdout = solve(
        "summary",
        "g 2\njob 0 10 3\njob 2 12 4\njob 5 20 2\njob 1 9 5\njob 14 30 6\n",
    );
    let [solves, components, pivots, phase1, _refactorizations, fallbacks] = solves_line(&stdout);
    let line = stdout.lines().find(|l| l.starts_with("solves: ")).unwrap();
    assert_eq!(solves, 1, "{line}");
    assert_eq!(
        components, 1,
        "a connected instance is one component: {line}"
    );
    assert!(pivots > 0 && phase1 <= pivots, "{line}");
    assert_eq!(fallbacks, 0, "{line}");
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("fractionally open slots: "))
        .unwrap_or_else(|| panic!("no open-slots line:\n{stdout}"));
    let (open, rest) = line.split_once(" of ").expect("X of H");
    let (horizon, runs) = rest.split_once(" in ").expect("H in R runs");
    let open: u64 = open.parse().unwrap();
    let runs: u64 = runs.strip_suffix(" runs").unwrap().parse().unwrap();
    assert_eq!(horizon, "30", "{line}");
    assert!(runs >= 1 && open >= runs && open <= 30, "{line}");
}

#[test]
fn solve_counts_the_components_it_solved() {
    let stdout = solve(
        "components",
        "g 2\njob 0 10 3\njob 2 12 4\njob 40 50 2\njob 41 49 5\n",
    );
    let [solves, components, ..] = solves_line(&stdout);
    assert_eq!((solves, components), (2, 2), "{stdout}");
}

/// The `A`, `R` and `L` of a `supervision:` line's `certify: A integer
/// sweeps, R Rat sweeps, L LU (…)`, or `None` when it has another shape.
fn certify_counts(line: &str) -> Option<[u64; 3]> {
    let (_, rest) = line.split_once("; certify: ")?;
    let (ints, rest) = rest.split_once(" integer sweeps, ")?;
    let (rats, rest) = rest.split_once(" Rat sweeps, ")?;
    let (lu, _) = rest.split_once(" LU (")?;
    Some([ints.parse().ok()?, rats.parse().ok()?, lu.parse().ok()?])
}

#[test]
fn solve_certifies_an_integral_instance_without_the_lu() {
    let stdout = solve(
        "lu",
        "g 2\njob 0 10 3\njob 2 12 4\njob 5 20 2\njob 1 9 5\njob 14 30 6\n\
         job 40 50 2\njob 41 49 5\n",
    );
    let line = stdout
        .lines()
        .find(|l| l.starts_with("supervision: "))
        .unwrap_or_else(|| panic!("no supervision line:\n{stdout}"));
    let [solves, ..] = solves_line(&stdout);
    assert_eq!(certify_counts(line), Some([solves, 0, 0]), "{line}");
}
