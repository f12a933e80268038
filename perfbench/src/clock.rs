//! Scaling op times to a reference clock.
//!
//! On a shared virtual machine the host moves the CPU clock in steps as its
//! other tenants come and go. A compute-only kernel's fastest time sits on
//! discrete levels a few percent apart, over a range of about 12 %, and a
//! level can hold for minutes, so a whole run may see only one of them. The
//! fastest repetition of every op moves with that level, whatever the run
//! does to find quiet moments. So the run samples the kernel beside its ops
//! and scales every time it reports to the reference clock, the clock at
//! which the kernel takes [`REFERENCE_NS`].
//!
//! The kernel is benchmark code, not program code, so a change to the
//! program moves the scaled times exactly as it moves the wall-clock times
//! at one clock level.

use std::hint::black_box;
use std::time::Instant;

/// Steps of the kernel: 6 dependent one-cycle ALU operations each, so
/// about 24,000 cycles, and nothing in memory.
const STEPS: u32 = 4000;
/// Kernel runs per sample; a sample is the fastest of them.
const REPS: u64 = 16;
/// The kernel's time at the reference clock: about its median sample on
/// the 2-vCPU Xeon (Sapphire Rapids) VM the bounds were set on, so scaled
/// times there read close to wall-clock times.
pub const REFERENCE_NS: f64 = 10_000.0;

#[inline(never)]
fn kernel(mut x: u64) -> u64 {
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// The kernel's fastest time over `REPS` runs, in nanoseconds.
pub fn sample() -> f64 {
    let mut best = u64::MAX;
    for r in 0..REPS {
        let t = Instant::now();
        black_box(kernel(black_box(0x9E37_79B9_7F4A_7C15 ^ r)));
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best as f64
}

/// Turns a wall time measured while the kernel took `sample_ns` into time
/// at the reference clock.
pub fn scaled(wall: f64, sample_ns: f64) -> f64 {
    wall * REFERENCE_NS / sample_ns
}
