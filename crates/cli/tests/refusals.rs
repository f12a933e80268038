//! A typed refusal or an input error prints one `error: …` line and exits
//! 2; only a command-line mistake (an unknown subcommand or algorithm, a
//! bad flag value) adds the usage text. `trace_params.rs` pins the usage
//! text for out-of-range trace parameters.

mod common;

use common::abt_within;
use std::path::PathBuf;
use std::time::Duration;

/// `abt args…`'s stderr, asserting that it exited 2.
fn stderr_of(args: &[&str]) -> String {
    let out = abt_within(args, Duration::from_secs(20));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "abt {args:?}:\n{stderr}");
    stderr
}

/// A directory of its own named after `tag`, holding `active.txt` with
/// `text`; returns the file's path.
fn instance(tag: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("abt-refusals-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("active.txt");
    std::fs::write(&file, text).unwrap();
    file
}

#[test]
fn refusals_and_input_errors_print_one_line_without_the_usage() {
    let flexible = instance("flexible", "g 1\njob 0 10 5\n");
    let infeasible = instance("infeasible", "g 1\njob 0 1 1\njob 0 1 1\n");
    let missing =
        std::env::temp_dir().join(format!("abt-refusals-{}-missing.txt", std::process::id()));
    let (flexible, infeasible, missing) = (
        flexible.to_str().unwrap(),
        infeasible.to_str().unwrap(),
        missing.to_str().unwrap(),
    );
    let cases = [
        (
            vec!["busy", flexible, "exact"],
            "error: unsupported: exact_busy_time requires interval jobs".to_string(),
        ),
        (
            vec!["active", missing, "rounding"],
            format!("error: reading {missing}: "),
        ),
        (vec!["solve", infeasible], "error: infeasible: ".to_string()),
    ];
    for (args, head) in cases {
        let stderr = stderr_of(&args);
        assert_eq!(stderr.lines().count(), 1, "abt {args:?}:\n{stderr}");
        assert!(stderr.starts_with(&head), "abt {args:?}:\n{stderr}");
    }
    for file in [flexible, infeasible] {
        std::fs::remove_dir_all(std::path::Path::new(file).parent().unwrap()).ok();
    }
}

#[test]
fn command_line_mistakes_print_the_usage() {
    let file = instance("usage", "g 1\njob 0 10 5\n");
    let file = file.to_str().unwrap();
    for args in [
        &["frobnicate"][..],
        &["busy", file, "bogus"],
        &["active", file, "bogus"],
        &["solve", file, "--pivot-budget", "many"],
        &["solve", file, "--certify", "exact"],
    ] {
        let stderr = stderr_of(args);
        assert!(stderr.starts_with("error: "), "abt {args:?}:\n{stderr}");
        assert!(stderr.contains("\nusage:\n"), "abt {args:?}:\n{stderr}");
    }
    std::fs::remove_dir_all(std::path::Path::new(file).parent().unwrap()).ok();
}
