//! Horizons past the per-slot limit end in a typed refusal (exit 2), not
//! an abort or a panic: a horizon of 8·10⁹ slots used to abort `solve`,
//! `active … rounding` and `active … minimal` on a 64 GB allocation, and
//! one whose length overflows `i64` made `solve`, `active … minimal` and
//! `active … exact` panic. `active … exact` branches over event-point runs
//! past 2048 slots, so it still answers the 8·10⁹ instance.

use std::process::{Command, Output};

fn abt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_abt"))
        .args(args)
        .output()
        .expect("spawn abt")
}

#[test]
fn long_horizons_are_refused_with_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("abt-long-horizon-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let long = dir.join("long.txt");
    std::fs::write(
        &long,
        "g 2\njob 0 8000000000 3\njob 1 8000000001 2\njob 5 7999999990 4\n\
         job 2 9 1\njob 7999999000 8000000000 5\n",
    )
    .unwrap();
    let extreme = dir.join("extreme.txt");
    std::fs::write(
        &extreme,
        "g 1\njob -9223372036854775000 9223372036854775000 5\n",
    )
    .unwrap();
    for (file, slots) in [(&long, "8000000001"), (&extreme, "18446744073709550000")] {
        let path = file.to_str().unwrap();
        let mut runs = vec![
            vec!["solve", path],
            vec!["active", path, "rounding"],
            vec!["active", path, "minimal"],
        ];
        if file == &extreme {
            runs.push(vec!["active", path, "exact"]);
        }
        for args in runs {
            let out = abt(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "abt {args:?}:\n{stderr}");
            assert!(
                stderr.contains(&format!("error: horizon of {slots} slots exceeds")),
                "abt {args:?}:\n{stderr}"
            );
        }
    }
    let out = abt(&["active", long.to_str().unwrap(), "exact"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("active time: 8"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
