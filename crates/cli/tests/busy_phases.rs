//! `abt busy` with an interval algorithm says where its time went: one
//! `phases: span X ms, pack Y ms` line read from the always-on span
//! rollups (`busy.span` around the min-span placement, `busy.pack`
//! around the interval algorithm).

use std::process::Command;

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
    for algo in ["ff", "gt", "kr", "ab", "lp"] {
        let out = Command::new(env!("CARGO_BIN_EXE_abt"))
            .args(["busy", file.to_str().unwrap(), algo])
            .output()
            .expect("spawn abt");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "abt busy {algo}:\n{stdout}");
        let line = stdout
            .lines()
            .find(|l| l.starts_with("phases: "))
            .unwrap_or_else(|| panic!("abt busy {algo}: no phases line:\n{stdout}"));
        let parts: Vec<(&str, f64)> = line["phases: ".len()..]
            .split(", ")
            .map(|part| {
                let (label, ms) = part
                    .strip_suffix(" ms")
                    .and_then(|p| p.split_once(' '))
                    .unwrap_or_else(|| panic!("abt busy {algo}: malformed phase '{part}'"));
                (label, ms.parse().expect("phase time is a number"))
            })
            .collect();
        let labels: Vec<&str> = parts.iter().map(|&(l, _)| l).collect();
        assert_eq!(labels, ["span", "pack"], "abt busy {algo}: {line}");
        assert!(parts.iter().all(|&(_, ms)| ms >= 0.0), "{line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
