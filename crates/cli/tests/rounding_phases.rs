//! `abt active … rounding` says where its time went: one
//! `phases: decompose …, pivot …, certify …, stitch …, rounding …` line
//! read from the always-on span rollups (the LP pipeline's `solve.*`
//! spans, then `active.rounding` around §3.1 right-shifting plus the §3
//! rounding), and one `rounding split: right-shift …, flow …, rest …`
//! line dividing the `rounding` phase (`active.right_shift`, the
//! `active.rounding.flow` max-flow checks, and the rest).

use std::process::Command;

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

#[test]
fn rounding_prints_lp_and_rounding_phases() {
    let dir = std::env::temp_dir().join(format!("abt-rounding-phases-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("active.txt");
    std::fs::write(
        &file,
        "g 2\njob 0 10 3\njob 2 12 4\njob 5 20 2\njob 1 9 5\njob 14 30 6\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_abt"))
        .args(["active", file.to_str().unwrap(), "rounding"])
        .output()
        .expect("spawn abt");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "abt active rounding:\n{stdout}");
    let phases = parts(&stdout, "phases: ");
    let labels: Vec<&str> = phases.iter().map(|&(l, _)| l).collect();
    assert_eq!(
        labels,
        ["decompose", "pivot", "certify", "stitch", "rounding"],
        "{stdout}"
    );
    assert!(phases.iter().all(|&(_, ms)| ms >= 0.0), "{stdout}");
    let split = parts(&stdout, "rounding split: ");
    let labels: Vec<&str> = split.iter().map(|&(l, _)| l).collect();
    assert_eq!(labels, ["right-shift", "flow", "rest"], "{stdout}");
    assert!(split.iter().all(|&(_, ms)| ms >= 0.0), "{stdout}");
    // The split divides the rounding phase: equal sums up to the 0.05 ms
    // each printed figure rounds off.
    let sum: f64 = split.iter().map(|&(_, ms)| ms).sum();
    assert!((sum - phases[4].1).abs() <= 0.2 + 1e-9, "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
