//! Pinning the calling thread (and every thread it spawns afterwards)
//! to one CPU.
//!
//! A coordinator and an edge thread that ping-pong over a socket each
//! block while the other works. On two free vCPUs every hand-off then
//! wakes an idle CPU, and under a hypervisor that wake-up costs 20–50 µs
//! and varies run to run; on one CPU the hand-off is a context switch.
//! The TCP workload and the link probes therefore run pinned.

/// Restores the previous affinity when dropped.
pub struct Pinned {
    #[cfg(target_os = "linux")]
    previous: linux::CpuSet,
}

/// Pins the calling thread to the highest-numbered CPU it may run on.
/// `None` where that is not possible (not Linux, or the call failed):
/// the caller then runs unpinned and says so in its output.
pub fn to_last_cpu() -> Option<Pinned> {
    #[cfg(target_os = "linux")]
    {
        let previous = linux::get()?;
        let last = previous.last()?;
        linux::set(&linux::CpuSet::only(last))?;
        Some(Pinned { previous })
    }
    #[cfg(not(target_os = "linux"))]
    None
}

#[cfg(target_os = "linux")]
impl Drop for Pinned {
    fn drop(&mut self) {
        // Failing to widen the mask again only leaves later phases on
        // one CPU; there is nobody to report it to from a destructor.
        let _ = linux::set(&self.previous);
    }
}

#[cfg(target_os = "linux")]
mod linux {
    /// Room for 1 024 CPUs, the size glibc's `cpu_set_t` has.
    const WORDS: usize = 16;

    #[derive(Clone, Copy)]
    pub struct CpuSet([u64; WORDS]);

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    impl CpuSet {
        pub fn only(cpu: usize) -> CpuSet {
            let mut words = [0u64; WORDS];
            words[cpu / 64] = 1 << (cpu % 64);
            CpuSet(words)
        }

        pub fn last(&self) -> Option<usize> {
            (0..WORDS * 64)
                .rev()
                .find(|cpu| self.0[cpu / 64] & (1 << (cpu % 64)) != 0)
        }
    }

    pub fn get() -> Option<CpuSet> {
        let mut set = CpuSet([0; WORDS]);
        // SAFETY: `mask` points at `WORDS * 8` writable bytes, the size
        // passed; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, WORDS * 8, set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> Option<()> {
        // SAFETY: `mask` points at `WORDS * 8` readable bytes, the size
        // passed; pid 0 is the calling thread.
        let rc = unsafe { sched_setaffinity(0, WORDS * 8, set.0.as_ptr()) };
        (rc == 0).then_some(())
    }
}
