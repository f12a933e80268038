//! Out-of-range online-arrivals parameters are usage errors at the CLI
//! boundary: `abt incremental` and `abt replay` exit 2 with the usage text
//! instead of letting the trace generator's asserts abort the process,
//! and `replay` refuses before it touches the state dir. A trace of more
//! than 2²⁴ jobs is refused the same way: `incremental 99999999999 2 1`
//! aborted on a 4.8 TB allocation.

use std::process::{Command, Output, Stdio};
use std::time::Duration;

/// `abt args…` with its address space capped at 1 GiB, so a request that
/// allocates for its size fails fast instead of exhausting the machine.
fn abt_capped(args: &[&str]) -> Command {
    let mut cmd = Command::new("sh");
    cmd.arg("-c")
        .arg("ulimit -v 1048576 && exec \"$0\" \"$@\"")
        .arg(env!("CARGO_BIN_EXE_abt"))
        .args(args);
    cmd
}

fn abt(args: &[&str]) -> Output {
    abt_capped(args).output().expect("spawn sh")
}

fn assert_usage_error(out: &Output, what: &str) {
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
    // (the generator caps a cluster at 2·g jobs), zero jobs, and traces
    // of more than 2²⁴ jobs.
    for args in [
        &["incremental", "0"][..],
        &["incremental", "8", "7"],
        &["incremental", "8", "0"],
        &["incremental", "99999999999", "2", "1"],
        &["incremental", "8388609", "2", "1"],
    ] {
        assert_usage_error(&abt(args), &args.join(" "));
    }
    let dir = std::env::temp_dir().join(format!("abt-trace-params-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let state = dir.to_str().unwrap();
    for args in [
        &["replay", "--state-dir", state, "0"][..],
        &["replay", "--state-dir", state, "8", "7"],
        &["replay", "--state-dir", state, "99999999999", "2", "1"],
    ] {
        assert_usage_error(&abt(args), &args.join(" "));
        assert!(!dir.exists(), "replay created {state} before refusing");
    }
}

#[test]
fn two_million_jobs_are_within_the_limit() {
    // Still running after a second (a refusal exits at once), or done.
    let mut child = abt_capped(&["incremental", "1000000", "2", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sh");
    std::thread::sleep(Duration::from_secs(1));
    let finished = child.try_wait().expect("poll abt");
    if finished.is_none() {
        child.kill().ok();
    }
    let out = child.wait_with_output().expect("collect abt");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("error"), "{stderr}");
    assert!(finished.is_none_or(|status| status.success()), "{stderr}");
}
