//! Moving the client thread from CPU to CPU.
//!
//! On a shared virtual machine each virtual CPU sits on a host core whose
//! other tenants come and go, so at one moment one CPU can run the same op
//! 1.5× slower than another, for seconds or for a whole run. The run moves
//! the client thread between the CPUs it may use, so every op is repeated
//! on each of them and its fastest repetition is not hostage to the CPU the
//! thread happened to start on.

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Mask words: 1024 CPUs, the size of glibc's `cpu_set_t`.
const WORDS: usize = 16;

/// The CPUs the calling thread may run on (empty if that is unknown).
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpus`; returns whether the kernel
/// accepted it.
fn set(cpus: &[usize]) -> bool {
    let mut mask = [0u64; WORDS];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Moves the calling thread onto `cpu`, then lets it run on all of
/// `allowed` again. The scheduler leaves a running thread where it is, and
/// the program's worker pools, sized by `available_parallelism()`, still
/// see every allowed CPU.
pub fn move_to(cpu: usize, allowed: &[usize]) -> bool {
    set(&[cpu]) && set(allowed)
}
