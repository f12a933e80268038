//! `abt` ends quietly when its reader goes away: a write to a closed
//! stdout (`abt busy … | head -c 100`) is a finished run — exit 0, nothing
//! on stderr — not a `failed printing to stdout` panic.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

#[test]
fn busy_into_a_closed_pipe_exits_zero_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("abt-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("interval.txt");
    // 3,000 interval jobs: enough work that the read end is gone before
    // the first line is written.
    let mut text = String::from("g 1\n");
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..3000 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let r = state % 12_000;
        let p = 1 + (state >> 32) % 16;
        writeln!(text, "job {r} {} {p}", r + p).unwrap();
    }
    std::fs::write(&file, text).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_abt"))
        .args(["busy", file.to_str().unwrap(), "ff"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn abt");
    // Close the read end before reading anything: every write now fails.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for abt");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "abt panicked:\n{stderr}");
    assert!(
        out.status.success(),
        "abt exited {:?}:\n{stderr}",
        out.status
    );
    assert!(stderr.is_empty(), "abt wrote to stderr:\n{stderr}");
}
