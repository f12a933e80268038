//! `abt busy` with an interval algorithm says where its time went: one
//! `phases: parse X ms, span Y ms, pack Z ms` line read from the
//! always-on span rollups (`core.parse` around reading the instance text,
//! `busy.span` around the min-span placement, `busy.pack` around the
//! interval algorithm), and for `kr`, `lp` and `ab` a
//! `pack split:` line dividing the pack phase into Kumar–Rudra's
//! `levels` and `bands` or Alicherry–Bhatia's `tracks`, then the rest.

use std::process::Command;

/// The `(label, ms)` parts of the line starting with `head`, if any.
fn parts<'a>(stdout: &'a str, head: &str) -> Option<Vec<(&'a str, f64)>> {
    let line = stdout.lines().find_map(|l| l.strip_prefix(head))?;
    Some(
        line.split(", ")
            .map(|part| {
                let (label, ms) = part
                    .strip_suffix(" ms")
                    .and_then(|p| p.split_once(' '))
                    .unwrap_or_else(|| panic!("malformed part '{part}' in:\n{stdout}"));
                (label, ms.parse().expect("part time is a number"))
            })
            .collect(),
    )
}

#[test]
fn busy_prints_span_and_pack_phases() {
    let dir = std::env::temp_dir().join(format!("abt-busy-phases-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("flexible.txt");
    std::fs::write(
        &file,
        "g 2\njob 0 10 3\njob 2 12 4\njob 5 20 2\njob 1 9 5\njob 14 30 6\n",
    )
    .unwrap();
    for (algo, split_labels) in [
        ("ff", None),
        ("gt", None),
        ("kr", Some(&["levels", "bands", "rest"][..])),
        ("ab", Some(&["tracks", "rest"][..])),
        ("lp", Some(&["levels", "bands", "rest"][..])),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_abt"))
            .args(["busy", file.to_str().unwrap(), algo])
            .output()
            .expect("spawn abt");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "abt busy {algo}:\n{stdout}");
        let phases = parts(&stdout, "phases: ")
            .unwrap_or_else(|| panic!("abt busy {algo}: no phases line:\n{stdout}"));
        let labels: Vec<&str> = phases.iter().map(|&(l, _)| l).collect();
        assert_eq!(
            labels,
            ["parse", "span", "pack"],
            "abt busy {algo}:\n{stdout}"
        );
        assert!(phases.iter().all(|&(_, ms)| ms >= 0.0), "{stdout}");
        let split = parts(&stdout, "pack split: ");
        let Some(want) = split_labels else {
            assert!(
                split.is_none(),
                "abt busy {algo} has no pack split:\n{stdout}"
            );
            continue;
        };
        let split = split.unwrap_or_else(|| panic!("abt busy {algo}: no pack split:\n{stdout}"));
        let labels: Vec<&str> = split.iter().map(|&(l, _)| l).collect();
        assert_eq!(labels, want, "abt busy {algo}:\n{stdout}");
        assert!(split.iter().all(|&(_, ms)| ms >= 0.0), "{stdout}");
        // The split divides the pack phase: equal sums up to the 0.05 ms
        // rounding of each printed part.
        let sum: f64 = split.iter().map(|&(_, ms)| ms).sum();
        let bound = 0.05 * (split.len() + 1) as f64 + 1e-9;
        assert!(
            (sum - phases[2].1).abs() <= bound,
            "abt busy {algo}:\n{stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
