//! Spreading a single-client run's passes over the host's CPUs.
//!
//! On a shared host one CPU can be slowed by a neighbour for minutes, and
//! a single-threaded process tends to stay on the CPU it started on, so
//! whole runs would land on the slow or the fast one. Pinning pass `k` to
//! CPU `k mod n` gives every run the same mix of CPUs.

#[cfg(target_os = "linux")]
mod imp {
    /// Mask words: room for 1024 CPUs, glibc's `cpu_set_t`.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    }

    pub fn pin(cpus: &[usize]) {
        let mut mask = [0u64; WORDS];
        for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread. A failure leaves the
        // affinity as it was, which only loses the spreading.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpus: &[usize]) {}
}

/// The CPUs this thread may run on (empty where unknown).
pub fn allowed() -> Vec<usize> {
    imp::allowed()
}

/// Restricts the calling thread to `cpus`.
pub fn pin(cpus: &[usize]) {
    imp::pin(cpus);
}
