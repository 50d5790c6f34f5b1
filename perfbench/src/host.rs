//! Host probes: a fixed CPU-bound loop and a fixed pointer-chasing loop,
//! timed at the start and end of every run. They are diagnostics, not
//! gated: when two sets of runs disagree, a matching shift here points
//! at the host rather than the program.

use std::fmt;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::Metrics;

/// 16 MiB of `u32` links: larger than any last-level cache here.
const CHASE_SLOTS: usize = 1 << 22;
const CHASE_HOPS: usize = 1 << 21;
const SPIN_ITERS: u64 = 30_000_000;

pub struct Probe {
    /// Milliseconds for the CPU loop.
    pub cpu_ms: f64,
    /// Nanoseconds per dependent memory load.
    pub mem_ns: f64,
}

pub fn probe() -> Probe {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..SPIN_ITERS {
        x = x.rotate_left(7).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ i;
    }
    black_box(x);
    let cpu_ms = t.elapsed().as_secs_f64() * 1e3;

    // Sattolo's shuffle: one cycle through every slot, so each load
    // depends on the previous one and the prefetcher cannot help.
    let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
    let mut rng = StdRng::seed_from_u64(0x0C4A_5E00);
    for i in (1..CHASE_SLOTS).rev() {
        let j = rng.gen_range(0..i);
        next.swap(i, j);
    }
    let t = Instant::now();
    let mut at = 0u32;
    for _ in 0..CHASE_HOPS {
        at = next[at as usize];
    }
    black_box(at);
    let mem_ns = t.elapsed().as_secs_f64() * 1e9 / CHASE_HOPS as f64;
    Probe { cpu_ms, mem_ns }
}

/// The CPUs the calling thread may run on, ascending.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread — and every thread it spawns afterwards — to
/// `cpu`; false if the kernel refused.
#[cfg(target_os = "linux")]
pub fn pin_to(cpu: usize) -> bool {
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

/// Lowers the calling thread's priority to nice 19; threads it spawns
/// afterwards inherit it. Linux applies `setpriority` with pid 0 to the
/// calling thread alone.
#[cfg(target_os = "linux")]
pub fn lowest_priority() -> bool {
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: a plain system call on the calling thread; no memory is
    // passed.
    unsafe { setpriority(PRIO_PROCESS, 0, 19) == 0 }
}

/// glibc's `cpu_set_t`: 1024 CPUs.
#[cfg(target_os = "linux")]
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to(_cpu: usize) -> bool {
    false
}

#[cfg(not(target_os = "linux"))]
pub fn lowest_priority() -> bool {
    false
}

impl Probe {
    pub fn put(&self, m: &mut Metrics, when: &str) {
        m.put(format!("host.cpu_ms.{when}"), self.cpu_ms, "ms");
        m.put(format!("host.mem_ns.{when}"), self.mem_ns, "ns");
    }
}

impl fmt::Display for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu {:.2} ms, mem {:.1} ns/hop",
            self.cpu_ms, self.mem_ns
        )
    }
}
