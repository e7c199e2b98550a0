//! The simulated machine's host memory, measured in-process: build the
//! 65 536-TCU `fft_xmt64k_n8192` machine and run it to completion. Its
//! 8 192 threads only ever reach 256 of the 2 048 clusters, so the
//! other clusters must cost their 32-byte issue records and no register
//! store; this gate holds what building and running add to VmRSS to
//! 24 MiB (a full register file in every TCU puts it near 32).
//!
//! Its own test binary, so no other test allocates in the process while
//! VmRSS is read.

use xmt_fft::golden::scaling_cases;

const CASE: &str = "fft_xmt64k_n8192";
const MAX_GROWTH_KIB: u64 = 24 * 1024;

/// Resident set size in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[test]
fn the_64k_machine_builds_and_runs_in_24_mib() {
    let Some(before) = vm_rss_kib() else {
        eprintln!("machine_memory: skipped, /proc/self/status has no VmRSS here");
        return;
    };
    let case = scaling_cases()
        .into_iter()
        .find(|c| c.name == CASE)
        .expect("the 64k scaling case exists");
    let mut m = case.machine();
    let built = vm_rss_kib().unwrap();
    let report = m.run().expect("the 64k case completes");
    assert_eq!(report.stats.threads, 8192);
    let grown = vm_rss_kib().unwrap().saturating_sub(before);
    eprintln!(
        "machine_memory: {CASE} VmRSS +{} KiB to build, +{grown} KiB after the run",
        built.saturating_sub(before)
    );
    assert!(
        grown <= MAX_GROWTH_KIB,
        "{CASE} grew VmRSS by {grown} KiB (limit {MAX_GROWTH_KIB})"
    );
    drop(m);
}
