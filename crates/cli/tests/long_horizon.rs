//! Long horizons are answered where no per-slot output is made and
//! refused with a typed error (exit 2) where it is, never an abort or a
//! panic. A horizon of 8·10⁹ slots used to abort `solve`, `active …
//! rounding` and `active … minimal` on a 64 GB allocation; LP1 now answers
//! in open runs, so `solve` prints its optimum, and the commands that list
//! slots refuse it before allocating. A horizon whose length overflows
//! `i64` made `solve`, `active … minimal` and `active … exact` panic; every
//! command refuses it. `active … exact` is one search over event-point
//! runs, so it answers the 8·10⁹ instance; a run ending at `i64::MAX`
//! that its search left closed made it list all of `i64` (`capacity
//! overflow`). `busy … preempt` looped forever
//! on a deadline from 2⁶² up: the closed gap before the first open
//! component wrapped to 0, so nothing ever opened.

mod common;

use common::abt_within;
use std::process::{Command, Output};
use std::time::Duration;

fn abt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_abt"))
        .args(args)
        .output()
        .expect("spawn abt")
}

#[test]
fn long_horizons_are_answered_in_runs_and_refused_per_slot() {
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
    let refusals = [
        (&long, "8000000001", vec!["rounding", "minimal"]),
        (
            &extreme,
            "18446744073709550000",
            vec!["solve", "rounding", "minimal", "exact"],
        ),
    ];
    for (file, slots, commands) in refusals {
        let path = file.to_str().unwrap();
        for command in commands {
            let args = match command {
                "solve" => vec!["solve", path],
                algo => vec!["active", path, algo],
            };
            let out = abt(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "abt {args:?}:\n{stderr}");
            assert!(
                stderr.contains(&format!("error: horizon of {slots} slots exceeds")),
                "abt {args:?}:\n{stderr}"
            );
        }
    }
    // LP1 answers with the mass bound 15/2, at most the integral optimum 8.
    let out = abt(&["solve", long.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("LP1 optimum: 15/2\n"), "{stdout}");
    assert!(stdout.contains(" of 8000000001 in "), "{stdout}");
    assert!(stdout.contains(", 0 fallbacks\n"), "{stdout}");
    let out = abt(&["active", long.to_str().unwrap(), "exact"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("active time: 8"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn preempt_answers_deadlines_from_two_to_the_62() {
    let dir = std::env::temp_dir().join(format!("abt-preempt-far-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for deadline in [
        "4611686018427387903",
        "4611686018427387904",
        "9223372036854775807",
    ] {
        let file = dir.join(format!("d{deadline}.txt"));
        std::fs::write(&file, format!("g 2\njob 0 {deadline} 2\n")).unwrap();
        let args = ["busy", file.to_str().unwrap(), "preempt"];
        let out = abt_within(&args, Duration::from_secs(20));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "abt {args:?}:\n{stdout}");
        assert!(
            stdout.contains("preemptive OPT∞: 2\n"),
            "abt {args:?}:\n{stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exact_answers_runs_ending_at_i64_max() {
    // The search closes the run [0, i64::MAX − 1) and opens the last two
    // slots; the closed run's empty range used to wrap to all of `i64`.
    let dir = std::env::temp_dir().join(format!("abt-exact-far-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("far.txt");
    std::fs::write(
        &file,
        "g 1\njob 0 9223372036854775807 1\njob 9223372036854775806 9223372036854775807 1\n",
    )
    .unwrap();
    let args = ["active", file.to_str().unwrap(), "exact"];
    let out = abt_within(&args, Duration::from_secs(20));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "abt {args:?}:\n{stdout}{stderr}");
    assert!(
        stdout.contains("active time: 2\n"),
        "abt {args:?}:\n{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
