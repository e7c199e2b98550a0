//! The simulated machine's host memory, measured in-process: build a
//! paper-scale machine and run it to completion, and hold what that
//! adds to VmRSS.
//!
//! * `fft_xmt64k_n8192`: its 8 192 threads only ever reach 256 of the
//!   2 048 clusters, and its 6 152 lines about 3 sets of each of the
//!   2 048 modules' caches, so the other clusters must cost no issue
//!   records, register store or store slots, and the other sets no tag
//!   words, and the butterfly's stage rings and the modules' queues
//!   hold only what waits at once; 5.75 MiB, ~5 450 KiB today (slots
//!   for every ring and buffers per module put it near 6.8, issue
//!   records and tag arrays born up front near 16, a full register
//!   file in every TCU near 32).
//! * `fft_xmt8k_n65536` (`#[ignore]`d: slow unoptimised): every TCU
//!   runs a thread with up to 8 transactions in flight, which travel
//!   as their own tags, the flits waiting at a network's destination
//!   ports share one arena sized to what waits at once, and so do the
//!   requests and responses waiting in the memory modules; 8 MiB,
//!   ~7 700 KiB today (buffers per module put it near 8.7, a buffer
//!   per destination port near 12.5, a transaction table looked up at
//!   every hop near 14.6).
//!
//! Each test measures in a child process of its own (this test binary
//! again, running only that test), so nothing else allocates in the
//! process while VmRSS is read, and no memory another machine freed is
//! there to be reused.

use std::process::Command;
use xmt_fft::golden::scaling_cases;

/// Set in the child process that measures.
const CHILD: &str = "MACHINE_MEMORY_CHILD";

/// Resident set size in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Build and run scaling case `name`, which starts `threads` threads,
/// and hold the VmRSS it adds to `max_kib` — in a child process that
/// runs only `test`, this one.
fn grows_at_most(test: &str, name: &str, threads: u64, max_kib: u64) {
    if std::env::var_os(CHILD).is_none() {
        let child = Command::new(std::env::current_exe().unwrap())
            .args([test, "--exact", "--include-ignored", "--nocapture"])
            .env(CHILD, "1")
            .output()
            .expect("the test binary runs again");
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success(),
            "{test} failed in its process:\n{stdout}"
        );
        assert!(stdout.contains("1 passed"), "{test} did not run:\n{stdout}");
        return;
    }
    let Some(before) = vm_rss_kib() else {
        eprintln!("machine_memory: skipped, /proc/self/status has no VmRSS here");
        return;
    };
    let case = scaling_cases()
        .into_iter()
        .find(|c| c.name == name)
        .expect("the scaling case exists");
    let mut m = case.machine();
    let built = vm_rss_kib().unwrap();
    let report = m.run().expect("the scaling case completes");
    assert_eq!(report.stats.threads, threads);
    let grown = vm_rss_kib().unwrap().saturating_sub(before);
    eprintln!(
        "machine_memory: {name} VmRSS +{} KiB to build, +{grown} KiB after the run",
        built.saturating_sub(before)
    );
    assert!(
        grown <= max_kib,
        "{name} grew VmRSS by {grown} KiB (limit {max_kib})"
    );
    drop(m);
}

#[test]
fn the_64k_machine_builds_and_runs_in_5_75_mib() {
    let test = "the_64k_machine_builds_and_runs_in_5_75_mib";
    grows_at_most(test, "fft_xmt64k_n8192", 8192, 23 * 256);
}

#[test]
#[ignore = "slow unoptimised; ci.sh runs it in release"]
fn the_dense_8k_machine_builds_and_runs_in_8_mib() {
    let test = "the_dense_8k_machine_builds_and_runs_in_8_mib";
    grows_at_most(test, "fft_xmt8k_n65536", 73_728, 8 * 1024);
}
