//! Pins `point_tcp` to one CPU.
//!
//! On a small virtual machine a loopback request/reply whose caller and
//! server threads sit on different vCPUs waits for a cross-vCPU wake-up,
//! whose cost swings with the host's load: on a 2-vCPU VM, unpinned
//! `point_tcp` ranged from 7k to 26k ops/s between runs of the same code,
//! and from 28k to 32k pinned. The in-process workloads hand no request
//! between threads, and their shard scans, WAL syncs and compactions use
//! the second CPU, so they stay unpinned.

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to the highest-numbered CPU it may run on. Returns that CPU, or `None`
/// where pinning is unsupported or refused (the run then goes unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // glibc's `cpu_set_t`: a 1024-bit mask.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let size = WORDS * std::mem::size_of::<u64>();
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly `size` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)?;
    let mut only = [0u64; WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a readable buffer of exactly `size` bytes, and
    // pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, size, only.as_ptr()) } == 0).then_some(cpu)
}

/// Pinning is only implemented for Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
