//! `abt solve` reports the LP1 solve effort of the run on one line:
//! `solves: S (C components), P pivots (P1 in phase 1), R
//! refactorizations, F fallbacks`, every count from the same
//! `lp_telemetry()` delta; and the answer's shape on another:
//! `fractionally open slots: X of H in R runs`, `H` the horizon's length.

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

#[test]
fn solve_prints_pivots_phase1_refactorizations_and_fallbacks() {
    let dir = std::env::temp_dir().join(format!("abt-solve-summary-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("active.txt");
    std::fs::write(
        &file,
        "g 2\njob 0 10 3\njob 2 12 4\njob 5 20 2\njob 1 9 5\njob 14 30 6\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_abt"))
        .args(["solve", file.to_str().unwrap()])
        .output()
        .expect("spawn abt");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "abt solve:\n{stdout}");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("solves: "))
        .unwrap_or_else(|| panic!("no solves line:\n{stdout}"));
    let [solves, _components, pivots, phase1, _refactorizations, fallbacks] =
        counts(line).unwrap_or_else(|| panic!("malformed solves line '{line}'"));
    assert_eq!(solves, 1, "{line}");
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
    std::fs::remove_dir_all(&dir).ok();
}
