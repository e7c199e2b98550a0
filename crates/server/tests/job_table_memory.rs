//! The job table's memory per finished job, measured in-process on a
//! `Server` per phase with the service workloads' shape (512-point
//! FFTs on the golden configuration, quantum 2 400). Two phases:
//!
//! - 16 keys computed once, then 40 000 cache-hit jobs over them in
//!   sweeps of 16 submits and 16 waits, each submission with an
//!   idempotency token of its own, as a network client sends them. The
//!   table keeps the newest 4 096 terminal jobs and retires the rest,
//!   so after the hits `retired` is exactly 40 016 − 4 096, and the
//!   VmRSS the hits add is that of a bounded table whose rows sit in
//!   one slab, found through an index of slot numbers, with one tenant
//!   name for all their tokens: held to 0.029 KiB per hit (8 runs read
//!   0.023–0.026; rows in a map of 88-byte buckets with two tenant
//!   strings per tokened row read 0.060–0.077, and a table keeping
//!   every row ~0.13). The structure is asserted too: the slab has made
//!   no more slots than the 4 096 terminal rows and the unfinished ones
//!   (a hit makes room before it enters the table), and the token store
//!   holds one tenant name.
//! - 4 096 cache hits fill the table to its bound, then 2 000
//!   never-seen jobs, each run in at least four slices, are held to
//!   half a KiB per job. Each keeps its own report, whose bytes are
//!   subtracted; between slices a paused job keeps its machine, and the
//!   gate shows the machine is gone once the job resolves.
//!
//! Two exact counts of the work a hit must not do. Every job shares one
//! `(dims, copies)`, so the server builds and encodes that program once
//! to make content addresses: after the hits `programs_digested` is
//! exactly 1. And a resident hit resolves at admission without waking
//! the worker: the 40 000 hits add fewer than 40 `idle_wakeups` (a
//! server that woke its idle worker on every resolved job adds about
//! one per hit).
//!
//! Each phase runs in a child process of its own (this test binary
//! again, with `JOB_TABLE_MEMORY_PHASE` naming the phase), on a server
//! of its own warmed up by computing the 16 keys, so nothing else
//! allocates in the process while VmRSS is read, and memory one phase
//! grew is never charged to the other.

use std::process::Command;
use xmt_server::{JobHandle, Server, ServerConfig, SimRequest, Submission};

const KEYS: u64 = 16;
const HITS: u64 = 40_000;
const COLD: u64 = 2_000;
/// Terminal jobs the table keeps (the server's bound).
const RETAINED: u64 = 4_096;
const MAX_KIB_PER_HIT: f64 = 0.029;
const MAX_KIB_PER_COLD_JOB: f64 = 0.5;

/// Resident set size in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Hold the VmRSS that `run`'s `jobs` jobs add, less the report bytes
/// `run` returns they keep, to `max_kib` per job.
fn gate(what: &str, jobs: u64, max_kib: f64, run: impl FnOnce() -> usize) {
    let before = vm_rss_kib().unwrap();
    let reports = run() as f64 / 1024.0;
    let grown = vm_rss_kib().unwrap().saturating_sub(before);
    let per_job = (grown as f64 - reports) / jobs as f64;
    eprintln!(
        "job_table_memory: {what}: VmRSS +{grown} KiB ({reports:.0} KiB of it reports) \
         over {jobs} jobs = {per_job:.3} KiB/job"
    );
    assert!(
        per_job <= max_kib,
        "{what}: {per_job:.3} KiB per finished job (limit {max_kib})"
    );
}

/// Set in a child process to the phase it measures.
const PHASE: &str = "JOB_TABLE_MEMORY_PHASE";

#[test]
fn a_finished_job_costs_under_half_a_kib() {
    if vm_rss_kib().is_none() {
        eprintln!("job_table_memory: skipped, /proc/self/status has no VmRSS here");
        return;
    }
    match std::env::var(PHASE).ok().as_deref() {
        None => ["hits", "cold"]
            .into_iter()
            .for_each(in_a_process_of_its_own),
        Some("hits") => cache_hits(),
        Some("cold") => sliced_cold_jobs(),
        Some(other) => panic!("{PHASE}={other} names no phase"),
    }
}

/// Run this test again in a child process that measures `phase`.
fn in_a_process_of_its_own(phase: &str) {
    let test = "a_finished_job_costs_under_half_a_kib";
    let child = Command::new(std::env::current_exe().unwrap())
        .args([test, "--exact", "--nocapture"])
        .env(PHASE, phase)
        .output()
        .expect("the test binary runs again");
    eprint!("{}", String::from_utf8_lossy(&child.stderr));
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(
        child.status.success(),
        "the {phase} phase failed in its process:\n{stdout}"
    );
    assert!(
        stdout.contains("1 passed"),
        "the {phase} phase did not run:\n{stdout}"
    );
}

/// Key `seed`'s request: a 512-point FFT on the golden configuration.
fn req(seed: u64) -> SimRequest {
    let arch = xmt_fft::golden::golden_config();
    let copies = xmt_fft::default_copies(512, arch.memory_modules);
    SimRequest::fft(&[512], copies, seed, &arch)
}

/// Compute key `seed`, never seen before, in four or more slices;
/// returns the bytes of the report it keeps.
fn cold(srv: &Server, seed: u64) -> usize {
    let r = srv.submit(req(seed)).unwrap().wait().unwrap();
    assert!(r.outcome.is_completed() && !r.from_cache && r.slices >= 4);
    r.bytes.len()
}

/// A one-worker server, quantum 2 400, that has computed the 16 keys.
fn warmed_server() -> Server {
    let srv = Server::start(ServerConfig {
        workers: 1,
        quantum: 2_400,
        ..ServerConfig::default()
    })
    .unwrap();
    for seed in 0..KEYS {
        cold(&srv, seed);
    }
    srv
}

/// `n` sweeps of cache hits over `keys`: 16 submits, then 16 waits.
/// Each submission carries an idempotency token of its own, as a
/// network client's do.
fn hit_sweeps(srv: &Server, keys: &[SimRequest], n: u64) {
    for sweep in 0..n {
        let token = |k: usize| sweep * KEYS + k as u64 + 1;
        let sweep: Vec<JobHandle> = (keys.iter().enumerate())
            .map(|(k, r)| srv.submit_with(Submission::new(r.clone()).token(token(k))))
            .map(Result::unwrap)
            .collect();
        for h in sweep {
            assert!(h.wait().unwrap().from_cache);
        }
    }
}

fn cache_hits() {
    let srv = warmed_server();
    let keys: Vec<SimRequest> = (0..KEYS).map(req).collect();
    let idle_before = srv.stats().idle_wakeups;
    gate("cache hits", HITS, MAX_KIB_PER_HIT, || {
        hit_sweeps(&srv, &keys, HITS / KEYS);
        0
    });
    let stats = srv.stats();
    assert_eq!(
        stats.retired,
        KEYS + HITS - RETAINED,
        "the table keeps the newest {RETAINED} terminal jobs"
    );
    assert_eq!(
        stats.programs_digested, 1,
        "one (dims, copies): one program built for its addresses"
    );
    let (slots, unfinished, tenants) = srv.table_footprint();
    eprintln!("job_table_memory: the table's slab has {slots} slots");
    assert!(
        slots <= RETAINED as usize + unfinished,
        "{slots} row slots for {RETAINED} terminal and {unfinished} unfinished rows"
    );
    assert_eq!(tenants, 1, "one tenant name, however many tokens it claims");
    let idle = stats.idle_wakeups - idle_before;
    eprintln!("job_table_memory: {HITS} cache hits woke the idle worker {idle} times");
    assert!(
        idle < HITS / 1000,
        "{idle} idle worker wake-ups over {HITS} hits resolved at admission"
    );
}

/// The cold jobs start on a table already at its bound, as on a server
/// that has been up a while: each one retires a row.
fn sliced_cold_jobs() {
    let srv = warmed_server();
    let keys: Vec<SimRequest> = (0..KEYS).map(req).collect();
    hit_sweeps(&srv, &keys, RETAINED / KEYS);
    assert_eq!(srv.stats().retired, KEYS, "the table is at its bound");
    gate("sliced cold jobs", COLD, MAX_KIB_PER_COLD_JOB, || {
        (KEYS..KEYS + COLD).map(|seed| cold(&srv, seed)).sum()
    });
}
