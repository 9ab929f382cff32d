//! CPU affinity through the libc symbols std already links, declared
//! here so the benchmark needs no crate from outside the repo.
//!
//! `sched_setaffinity(0, ..)` binds the calling thread; threads it
//! spawns afterwards inherit the mask. That is how a workload pins
//! "the process": the main thread pins itself before it launches
//! anything.

/// `cpu_set_t` is 1024 bits on Linux.
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// CPUs the calling thread may run on, ascending. Empty when the host
/// gives no answer (not Linux), which callers report as non-comparable.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) };
        if rc == 0 {
            return (0..WORDS * 64)
                .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Bind the calling thread to `cpus`. Returns whether the kernel
/// accepted the mask.
pub fn set_cpus(cpus: &[usize]) -> bool {
    let mut mask = [0u64; WORDS];
    for &c in cpus {
        if c >= WORDS * 64 {
            return false;
        }
        mask[c / 64] |= 1 << (c % 64);
    }
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        return !cpus.is_empty() && unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) } == 0;
    }
    #[allow(unreachable_code)]
    false
}

/// Bind the calling thread to one CPU.
pub fn pin(cpu: usize) -> bool {
    set_cpus(&[cpu])
}

/// The CPU native PE `pe` runs on: PE 0 on the highest allowed CPU (where
/// the launching thread, and so every service context, is pinned), PE 1
/// on the next one down, wrapping when PEs outnumber CPUs.
pub fn pe_cpu(allowed: &[usize], pe: usize) -> Option<usize> {
    let n = allowed.len();
    (n > 0).then(|| allowed[n - 1 - pe % n])
}

/// The CPUs of native PEs `0..npes`, as a JSON list for the provenance line.
pub fn pe_cpu_list(allowed: &[usize], npes: usize) -> String {
    let cpus: Vec<String> = (0..npes)
        .filter_map(|pe| pe_cpu(allowed, pe))
        .map(|c| c.to_string())
        .collect();
    format!("[{}]", cpus.join(", "))
}

/// Peak resident set of this process in MiB, from `getrusage`.
pub fn peak_rss_mib() -> f64 {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn getrusage(who: i32, usage: *mut i64) -> i32;
        }
        // `struct rusage` on 64-bit Linux: two timevals (4 longs), then
        // 14 longs of which the first is `ru_maxrss` in KiB.
        let mut usage = [0i64; 18];
        // SAFETY: `usage` is a writable buffer of `sizeof(struct rusage)`.
        if unsafe { getrusage(0, usage.as_mut_ptr()) } == 0 {
            return usage[4] as f64 / 1024.0;
        }
    }
    0.0
}
