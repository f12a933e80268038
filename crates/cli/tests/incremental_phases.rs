//! `abt incremental` and `abt replay` say where their time went: one
//! `phases: admission …, regroup …, pivot …, certify …, stitch …`
//! line read from the always-on span rollups (the incremental driver's
//! `incremental.*` spans around the LP pipeline's `solve.*` ones), and
//! `incremental`'s totals line counts the jobs the driver re-partitioned.

use std::process::Command;

const LABELS: [&str; 5] = ["admission", "regroup", "pivot", "certify", "stitch"];

fn abt(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_abt"))
        .args(args)
        .output()
        .expect("spawn abt");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "abt {args:?}:\n{stdout}");
    stdout
}

/// The phase labels of the `phases:` line, after checking each time.
fn phase_labels(stdout: &str) -> Vec<String> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("phases: "))
        .unwrap_or_else(|| panic!("no phases line:\n{stdout}"));
    line["phases: ".len()..]
        .split(", ")
        .map(|part| {
            let (label, ms) = part
                .strip_suffix(" ms")
                .and_then(|p| p.split_once(' '))
                .unwrap_or_else(|| panic!("malformed phase '{part}'"));
            let ms: f64 = ms.parse().expect("phase time is a number");
            assert!(ms >= 0.0, "{line}");
            label.to_string()
        })
        .collect()
}

#[test]
fn incremental_prints_its_own_phases_and_regroup_count() {
    let stdout = abt(&["incremental", "8", "4", "0"]);
    assert_eq!(phase_labels(&stdout), LABELS);
    // Every window of a stripe holds the stripe's midpoint, so an arrival
    // regroups exactly its own stripe: 1 + 2 + 3 + 4 jobs per stripe,
    // 8 stripes. Regrouping the whole job set each time would be 528.
    let totals = stdout
        .lines()
        .find(|l| l.starts_with("replay totals: "))
        .unwrap_or_else(|| panic!("no totals line:\n{stdout}"));
    assert!(totals.ends_with(", 80 jobs regrouped"), "{totals}");
}

#[test]
fn replay_prints_the_incremental_phases() {
    let dir = std::env::temp_dir().join(format!("abt-incr-phases-{}", std::process::id()));
    let stdout = abt(&[
        "replay",
        "--state-dir",
        dir.to_str().unwrap(),
        "3",
        "3",
        "11",
    ]);
    assert_eq!(phase_labels(&stdout), LABELS);
    std::fs::remove_dir_all(&dir).ok();
}
