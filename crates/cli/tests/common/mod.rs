//! The capped `abt` runner shared by the CLI's integration tests.

use std::io::Read;
use std::process::{Command, Output, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `abt args…` with its address space capped at 1 GiB, so a request that
/// allocates for its size fails fast instead of exhausting the machine's
/// memory.
pub fn abt_capped(args: &[&str]) -> Command {
    let mut cmd = Command::new("sh");
    cmd.arg("-c")
        .arg("ulimit -v 1048576 && exec \"$0\" \"$@\"")
        .arg(env!("CARGO_BIN_EXE_abt"))
        .args(args);
    cmd
}

/// [`abt_capped`] run to completion; panics if it is still running after
/// `limit`, once it has been killed. Both pipes are read while it runs, so
/// a child that writes more than a pipe buffer cannot stall.
pub fn abt_within(args: &[&str], limit: Duration) -> Output {
    let mut child = abt_capped(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sh");
    let stdout = drain(child.stdout.take().expect("piped stdout"));
    let stderr = drain(child.stderr.take().expect("piped stderr"));
    let started = Instant::now();
    let mut late = false;
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll abt") {
            break status;
        }
        if started.elapsed() > limit {
            late = true;
            child.kill().ok();
            break child.wait().expect("reap abt");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let out = Output {
        status,
        stdout: stdout.join().expect("stdout reader"),
        stderr: stderr.join().expect("stderr reader"),
    };
    assert!(!late, "abt {args:?} still running after {limit:?}");
    out
}

/// Reads `pipe` to its end on a thread of its own.
fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        pipe.read_to_end(&mut bytes).expect("read abt's output");
        bytes
    })
}
