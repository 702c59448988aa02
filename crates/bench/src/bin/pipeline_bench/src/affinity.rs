//! Pin the whole process to one CPU.
//!
//! On the two-vCPU reference sandbox the guest scheduler's placement of
//! the threads a flight ping-pongs between is sticky for minutes at a
//! time: all on one vCPU, a confirm query's round trip reads ~21 µs;
//! split across the two, ~85 µs, because every hop then crosses vCPUs
//! through the hypervisor — a 2.4× "regime" in every latency that has
//! nothing to do with the code under test (measured; see the README).
//! Threads inherit their creator's mask, so pinning the main thread
//! before anything is spawned pins the library's listener and session
//! threads too, and every hop stays on one vCPU.

/// Pin the calling thread (and every thread it spawns from now on) to
/// the lowest CPU it is currently allowed on. Returns that CPU, or
/// `None` when the platform has no such call or it was refused — the
/// run then goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    imp::pin_to_one_cpu()
}

#[cfg(target_os = "linux")]
mod imp {
    /// Words of a 1024-CPU mask, the C library's `cpu_set_t`.
    const MASK_WORDS: usize = 16;

    extern "C" {
        // From the C library the standard library already links.
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn pin_to_one_cpu() -> Option<usize> {
        let mut mask = [0u64; MASK_WORDS];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
        // bytes; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = mask.iter().position(|w| *w != 0)?;
        let bit = mask[word].trailing_zeros() as usize;
        let mut one = [0u64; MASK_WORDS];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live buffer of exactly `bytes` bytes that
        // the call only reads; pid 0 names the calling thread.
        if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
            return None;
        }
        Some(word * 64 + bit)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin_to_one_cpu() -> Option<usize> {
        None
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    #[test]
    fn pinning_leaves_one_cpu_and_children_inherit_it() {
        // In a thread of its own, so the test harness stays unpinned.
        std::thread::spawn(|| {
            let Some(cpu) = super::pin_to_one_cpu() else {
                return; // refused (e.g. by a sandbox policy): nothing to check
            };
            let seen = std::thread::spawn(|| std::thread::available_parallelism().unwrap().get())
                .join()
                .unwrap();
            assert_eq!(
                seen, 1,
                "a child of the thread pinned to cpu {cpu} sees {seen} CPUs"
            );
        })
        .join()
        .unwrap();
    }
}
