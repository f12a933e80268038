//! A capacity `g` near `i64::MAX` is answered like any other, or refused
//! with a typed error where the answer's size grows with `g`. Three
//! capacity computations used to wrap: the feasibility oracle's `g · m`
//! precheck made `active … minimal|rounding|exact` report "infeasible" at
//! `g = 2⁶²`, the bounds' `⌈P/g⌉` printed a negative active-time bound and
//! mass at `g = i64::MAX`, and the unit-jobs solver's `⌈n/g⌉` left it with
//! no slot to open ("Hall condition violated unexpectedly"). And `busy …
//! kr|lp` padded the demand profile with `g − 1` dummy jobs at `g = 2⁶²`
//! until the process was killed; they now refuse it (exit 2). A long job
//! is refused the same way by `active … exact`, whose feasibility checks
//! list every run at its cap: at 10⁹ slots it aborted on an 8 GB
//! allocation.
//!
//! A job of length 2⁶¹ or more made every interval arm of `busy` fail:
//! the min-span search's "no cover" cost, about 2⁶¹, tied with the job's
//! own span, so the placement walk pushed intervals until memory ran out,
//! or built a reversed one and panicked.
//!
//! Every child runs with its address space capped at 1 GiB, so a run that
//! grows with `g` fails fast instead of exhausting the machine's memory,
//! and is killed if it is still running after 20 s.

mod common;

use common::abt_within;
use std::process::Output;
use std::time::Duration;

/// `abt args… <file>` on an instance file holding `text`, under the
/// address-space cap and the time limit.
fn abt(name: &str, text: &str, args: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!("abt-huge-g-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("inst.txt");
    std::fs::write(&file, text).unwrap();
    let (cmd, rest) = args.split_first().unwrap();
    let mut full = vec![*cmd, file.to_str().unwrap()];
    full.extend(rest);
    let out = abt_within(&full, Duration::from_secs(20));
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// The stdout of [`abt`], after asserting success.
fn answer(name: &str, text: &str, args: &[&str]) -> String {
    let out = abt(name, text, args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "abt {args:?}:\n{stdout}{stderr}");
    stdout
}

#[test]
fn active_algorithms_answer_at_g_two_to_the_62() {
    for algo in ["minimal", "rounding", "exact"] {
        let stdout = answer(
            algo,
            "g 4611686018427387904\njob 0 2 2\n",
            &["active", algo],
        );
        assert!(stdout.contains("active time: 2\n"), "{algo}:\n{stdout}");
    }
}

#[test]
fn bounds_stay_positive_at_g_max() {
    let stdout = answer("bounds", "g 9223372036854775807\njob 0 2 2\n", &["bounds"]);
    assert!(stdout.contains("active-time lower bound: 1\n"), "{stdout}");
    assert!(stdout.contains("mass=1 "), "{stdout}");
}

#[test]
fn unit_jobs_share_a_slot_at_g_max() {
    let stdout = answer(
        "unit",
        "g 9223372036854775807\njob 0 1 1\njob 0 1 1\n",
        &["active", "unit"],
    );
    assert!(stdout.contains("active time: 1\n"), "{stdout}");
}

#[test]
fn kumar_rudra_and_lp_refuse_a_huge_padding() {
    for algo in ["kr", "lp"] {
        let out = abt(algo, "g 4611686018427387904\njob 0 2 2\n", &["busy", algo]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{algo}:\n{stderr}");
        assert!(
            stderr.contains(
                "error: unsupported: Kumar–Rudra would pad the demand profile to \
                 4611686018427387904 units, past the limit of 16777216\n"
            ),
            "{algo}:\n{stderr}"
        );
    }
}

#[test]
fn exact_refuses_a_job_past_the_per_slot_limit() {
    let out = abt(
        "exact-long",
        "g 1\njob 0 1000000000 1000000000\n",
        &["active", "exact"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains(
            "error: unsupported: the exact search would list up to 1000000000 slots, \
             past the per-slot limit of 16777216"
        ),
        "{stderr}"
    );
}

#[test]
fn busy_places_a_job_of_length_two_to_the_61() {
    // A rigid job of length 2⁶¹, and a flexible one of that length in a
    // window twice as long: one machine busy for the job's length.
    let rigid = "g 3\njob 0 2305843009213693952 2305843009213693952\n";
    let flexible = "g 3\njob 0 4611686018427387904 2305843009213693952\n";
    for (shape, text) in [("rigid", rigid), ("flexible", flexible)] {
        for algo in ["ff", "gt", "kr", "ab", "lp"] {
            let stdout = answer(&format!("long-{shape}-{algo}"), text, &["busy", algo]);
            assert!(
                stdout.contains("busy time: 2305843009213693952 on 1 machines\n"),
                "{shape} {algo}:\n{stdout}"
            );
        }
    }
}
