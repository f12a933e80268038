//! `abt active … rounding` says where its time went: one
//! `phases: decompose …, pivot …, certify …, stitch …, rounding …` line
//! read from the always-on span rollups (the LP pipeline's `solve.*`
//! spans, then `active.rounding` around §3.1 right-shifting plus the §3
//! rounding).

use std::process::Command;

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
    let line = stdout
        .lines()
        .find(|l| l.starts_with("phases: "))
        .unwrap_or_else(|| panic!("no phases line:\n{stdout}"));
    let parts: Vec<(&str, f64)> = line["phases: ".len()..]
        .split(", ")
        .map(|part| {
            let (label, ms) = part
                .strip_suffix(" ms")
                .and_then(|p| p.split_once(' '))
                .unwrap_or_else(|| panic!("malformed phase '{part}'"));
            (label, ms.parse().expect("phase time is a number"))
        })
        .collect();
    let labels: Vec<&str> = parts.iter().map(|&(l, _)| l).collect();
    assert_eq!(
        labels,
        ["decompose", "pivot", "certify", "stitch", "rounding"],
        "{line}"
    );
    assert!(parts.iter().all(|&(_, ms)| ms >= 0.0), "{line}");
    std::fs::remove_dir_all(&dir).ok();
}
