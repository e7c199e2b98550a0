//! The job table's memory per finished job, measured in-process: one
//! `Server`, 16 keys of the `svc_hit` request shape (512-point FFTs on
//! the golden configuration) computed once, then 40 000 cache-hit jobs
//! over them in sweeps of 16 submits and 16 waits. Every id stays
//! reachable, so the table grows by one row per job; this gate holds
//! that row — plus the map's own overhead and whatever a hit leaves
//! behind — to half a KiB.
//!
//! Its own test binary, so no other test allocates in the process while
//! VmRSS is read.

use xmt_server::{JobHandle, Server, ServerConfig, SimRequest};

const KEYS: u64 = 16;
const JOBS: u64 = 40_000;
const MAX_KIB_PER_JOB: f64 = 0.5;

/// Resident set size in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[test]
fn a_finished_job_costs_under_half_a_kib() {
    if vm_rss_kib().is_none() {
        eprintln!("job_table_memory: skipped, /proc/self/status has no VmRSS here");
        return;
    }
    let arch = xmt_fft::golden::golden_config();
    let copies = xmt_fft::default_copies(512, arch.memory_modules);
    let reqs: Vec<SimRequest> = (0..KEYS)
        .map(|seed| SimRequest::fft(&[512], copies, seed, &arch))
        .collect();
    let srv = Server::start(ServerConfig {
        workers: 1,
        quantum: 2_400,
        ..ServerConfig::default()
    })
    .unwrap();
    for req in &reqs {
        let r = srv.submit(req.clone()).unwrap().wait().unwrap();
        assert!(r.outcome.is_completed() && !r.from_cache);
    }
    let before = vm_rss_kib().unwrap();
    for _ in 0..JOBS / KEYS {
        let sweep: Vec<JobHandle> = reqs
            .iter()
            .map(|r| srv.submit(r.clone()).unwrap())
            .collect();
        for h in sweep {
            assert!(h.wait().unwrap().from_cache);
        }
    }
    let grown = vm_rss_kib().unwrap().saturating_sub(before);
    let per_job = grown as f64 / JOBS as f64;
    eprintln!("job_table_memory: VmRSS +{grown} KiB over {JOBS} jobs = {per_job:.3} KiB/job");
    assert!(
        per_job <= MAX_KIB_PER_JOB,
        "{per_job:.3} KiB per finished job (limit {MAX_KIB_PER_JOB})"
    );
}
