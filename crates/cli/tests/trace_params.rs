//! Out-of-range online-arrivals parameters are usage errors at the CLI
//! boundary: `abt incremental` and `abt replay` exit 2 with the usage text
//! instead of letting the trace generator's asserts abort the process,
//! and `replay` refuses before it touches the state dir.

use std::process::Command;

fn abt(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_abt"))
        .args(args)
        .output()
        .expect("spawn abt")
}

fn assert_usage_error(out: &std::process::Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{what} panicked:\n{stderr}");
    assert!(
        stderr.contains("usage:"),
        "{what}: no usage text:\n{stderr}"
    );
}

#[test]
fn out_of_range_trace_parameters_exit_2_without_panicking() {
    // Zero clusters, and 7 jobs per cluster against the default g = 3
    // (the generator caps a cluster at 2·g jobs), and zero jobs.
    for args in [
        &["incremental", "0"][..],
        &["incremental", "8", "7"],
        &["incremental", "8", "0"],
    ] {
        assert_usage_error(&abt(args), &args.join(" "));
    }
    let dir = std::env::temp_dir().join(format!("abt-trace-params-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let state = dir.to_str().unwrap();
    for args in [
        &["replay", "--state-dir", state, "0"][..],
        &["replay", "--state-dir", state, "8", "7"],
    ] {
        assert_usage_error(&abt(args), &args.join(" "));
        assert!(!dir.exists(), "replay created {state} before refusing");
    }
}
