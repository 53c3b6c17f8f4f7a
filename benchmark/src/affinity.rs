//! Which CPUs the benchmark thread runs on (Linux `sched_setaffinity`).
//!
//! On a shared host each CPU is slowed by other tenants in phases of its
//! own, some longer than a run. The untraced samples therefore rotate over
//! every CPU the process may use, one sample at a time, so that a run sees
//! each CPU's fast phases and not only those of the CPU it started on. The
//! engine still runs on one thread.

use std::os::raw::c_int;

/// `cpu_set_t` holds 1024 bits.
const WORDS: usize = 16;

/// A CPU mask in the layout of `cpu_set_t`.
pub type Mask = [u64; WORDS];

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// The calling thread's CPU mask; empty where the kernel does not give it.
pub fn current() -> Mask {
    let mut mask = [0; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    if rc == 0 {
        mask
    } else {
        [0; WORDS]
    }
}

/// Restrict the calling thread to `mask`. Returns whether the kernel
/// accepted it; on failure the thread keeps its mask.
pub fn set(mask: &Mask) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

/// The CPUs in `mask`, in increasing order.
pub fn cpus(mask: &Mask) -> Vec<usize> {
    (0..WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// The mask that holds only `cpu`.
pub fn only(cpu: usize) -> Mask {
    let mut mask = [0; WORDS];
    if let Some(word) = mask.get_mut(cpu / 64) {
        *word = 1 << (cpu % 64);
    }
    mask
}
