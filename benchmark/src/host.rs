//! What the harness asks of the host: one CPU to itself, a gauge of
//! how contended that CPU is, memory high-water marks, and counts of
//! allocations, context switches and CPU time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every allocation the process makes. Installed as the global
/// allocator of the benchmark binary so `sim.allocs_per_run` and
/// `server.allocs_per_op` are exact counts, comparable across commits.
pub struct CountingAlloc;

// Relaxed: these are statistics, they publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see alloc).
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from `System` with this layout (see alloc).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// (allocation calls, bytes requested) since process start, all threads.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1024 CPUs.
    pub type CpuSet = [u64; 16];

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub rest: [i64; 14],
    }

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// The calling thread's CPU mask, to hand back to [`set_affinity`].
#[cfg(target_os = "linux")]
pub fn affinity() -> Option<[u64; 16]> {
    let mut mask: sys::CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable cpu_set_t of the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of::<sys::CpuSet>(), &mut mask) };
    (rc == 0).then_some(mask)
}

/// Restrict the calling thread (and every thread it spawns from now
/// on) to `mask`. False when the kernel refuses.
#[cfg(target_os = "linux")]
pub fn set_affinity(mask: &[u64; 16]) -> bool {
    // SAFETY: `mask` is a live cpu_set_t of the size passed; pid 0
    // names the calling thread.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of::<sys::CpuSet>(), mask) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn affinity() -> Option<[u64; 16]> {
    None
}

#[cfg(not(target_os = "linux"))]
pub fn set_affinity(_mask: &[u64; 16]) -> bool {
    false
}

/// Pin the calling thread to the highest-numbered CPU it may run on
/// (CPU 0 takes most of a small guest's interrupts). Returns the mask
/// it had before, so an unpinned measurement can restore it, or `None`
/// when pinning was refused — a loopback round trip then crosses
/// vCPUs, which on this class of host is several times slower and far
/// noisier, so the caller reports `host.pinned = 0`.
pub fn pin_to_one_cpu() -> Option<[u64; 16]> {
    let before = affinity()?;
    let cpu = (0..1024)
        .rev()
        .find(|c| before[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    set_affinity(&one).then_some(before)
}

/// Process-wide CPU seconds (user + system) and context switches
/// (voluntary + involuntary).
#[cfg(target_os = "linux")]
pub fn cpu_and_switches() -> (f64, u64) {
    let mut ru = sys::Rusage::default();
    // SAFETY: `ru` is a live, writable struct with the layout of
    // `struct rusage`; 0 is RUSAGE_SELF.
    if unsafe { sys::getrusage(0, &mut ru) } != 0 {
        return (0.0, 0);
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    (
        secs(ru.utime) + secs(ru.stime),
        (ru.rest[12] + ru.rest[13]) as u64,
    )
}

#[cfg(not(target_os = "linux"))]
pub fn cpu_and_switches() -> (f64, u64) {
    (0.0, 0)
}

/// A `Vm*` line of `/proc/self/status`, in KiB (0 where there is no
/// procfs).
fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process so far, KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Resident set of this process now, KiB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// The core-speed gauge: one pass of a fixed dependent integer chain
/// that lives in registers, in ms. Its time moves only with how fast
/// the core itself is running (frequency, a busy sibling thread), not
/// with the program under test.
pub fn spin_ms() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..2_000_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        x ^= x >> 29;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// The memory-latency gauge: a dependent-load walk round one random
/// cycle through a buffer far larger than the caches, on 4 KiB pages.
/// Inside a guest every step is a TLB miss and a two-dimensional page
/// walk, so its time follows what the neighbours leave of the shared
/// cache — the same thing the simulator's walks over a many-core
/// machine's state wait for. Sampled beside the timed ops (see
/// `harness`), it is what separates "the code got slower" from "the
/// host's memory got slower".
pub struct Chase {
    next: Vec<u32>,
    at: u32,
}

impl Chase {
    /// Dependent loads per sample.
    const STEPS: usize = 40_000;
    /// Slots in the cycle: 64 MiB of `u32`.
    const SLOTS: usize = 16 << 20;

    pub fn new() -> Chase {
        // Sattolo's algorithm: a single cycle through every slot, from
        // a fixed xorshift stream (the gauge is the same on every run).
        let mut next: Vec<u32> = (0..Self::SLOTS as u32).collect();
        let mut s = 0x0123_4567_89AB_CDEFu64;
        for i in (1..Self::SLOTS).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            next.swap(i, (s % i as u64) as usize);
        }
        let mut c = Chase { next, at: 0 };
        c.sample_ns(); // fault the walk's first pages in
        c
    }

    /// One sample: ns per dependent load.
    pub fn sample_ns(&mut self) -> f64 {
        let t = Instant::now();
        let mut a = self.at;
        for _ in 0..Self::STEPS {
            a = self.next[a as usize];
        }
        self.at = std::hint::black_box(a);
        t.elapsed().as_secs_f64() * 1e9 / Self::STEPS as f64
    }
}

/// Host copy bandwidth in GB/s over a buffer far larger than any
/// cache: the memory-side ceiling the simulator's walks sit under.
pub fn copy_gbs() -> f64 {
    const WORDS: usize = 4 << 20; // 32 MiB each way
    let src = vec![1u64; WORDS];
    let mut dst = vec![0u64; WORDS];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (2 * WORDS * 8) as f64 / best / 1e9
}
