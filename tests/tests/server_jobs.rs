//! End-to-end contracts of the batch job server (`xmt-server`):
//!
//! - **Preemption equivalence** — a job sliced into quanta, its machine
//!   kept between slices round-robin, finishes with *byte-identical*
//!   report bytes to an uninterrupted run, on every golden case.
//! - **Stream continuity** — a probed job's streamed interval rows are
//!   identical across preemption (the probe stays on the paused
//!   machine, so slicing is invisible in the stream).
//! - **Cache identity** — resubmitting a bit-identical request is
//!   served from the content-addressed cache with byte-equal report
//!   bytes, and changing only the advance engine still hits (engines
//!   are bit-identical by contract). Persisted cache entries survive a
//!   server restart.
//! - **Worker-kill survival** — killing a worker mid-job discards the
//!   in-flight slice and the machine; the job runs again from cycle 0
//!   and still produces byte-identical results (the CI smoke test).
//! - **Queue determinism** — concurrent submitters racing the same
//!   requests through any pool shape all observe the same bytes
//!   (property-based).

use proptest::prelude::*;
use std::time::Duration;
use xmt_fft::golden;
use xmt_server::{
    decode_request, encode_report, encode_request, JobError, JobHandle, JobResult, JobState,
    Server, ServerConfig, SimRequest,
};

fn server(workers: usize, quantum: u64) -> Server {
    Server::start(ServerConfig {
        workers,
        quantum,
        cache_entries: 32,
        cache_dir: None,
        ..ServerConfig::default()
    })
    .unwrap()
}

/// Every wait in this suite is deadline-bounded: a hung scheduler must
/// fail the test with [`JobError::Timeout`], not wedge the harness.
fn finish(h: &JobHandle) -> Result<JobResult, JobError> {
    h.wait_deadline(Duration::from_secs(300))
}

/// The expected canonical report bytes for a golden case, computed by
/// running the machine directly (no server involved).
fn direct_bytes(name: &str) -> Vec<u8> {
    let case = golden::cases()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("unknown case {name}"));
    encode_report(&case.run())
}

/// Preempting at quiescent points and continuing round-robin must be
/// invisible in the result: byte-identical to an uninterrupted run,
/// for every golden case.
#[test]
fn preempt_resume_bit_identical_on_every_golden_case() {
    let sliced_srv = server(2, 700);
    for case in golden::cases() {
        let want = direct_bytes(case.name);
        let got = finish(
            &sliced_srv
                .submit(SimRequest::golden(case.name).unwrap())
                .unwrap(),
        )
        .unwrap();
        assert!(got.outcome.is_completed(), "{} must complete", case.name);
        assert_eq!(got.bytes, want, "{}: sliced != uninterrupted", case.name);
    }
}

/// The long FFT case actually exercises multiple slices (short cases
/// may fit one quantum; this one cannot).
#[test]
fn long_job_takes_multiple_slices() {
    let srv = server(1, 700);
    let r = finish(
        &srv.submit(SimRequest::golden("fft_radix8_n512").unwrap())
            .unwrap(),
    )
    .unwrap();
    assert!(
        r.slices > 1,
        "10k cycles over quantum 700: got {}",
        r.slices
    );
    assert_eq!(r.bytes, direct_bytes("fft_radix8_n512"));
}

/// Streamed interval rows are identical whether the job runs in one
/// slice or many: the probe stays on the paused machine, so preemption
/// neither perturbs nor duplicates samples. A subscriber that takes the stream only
/// after the job is `Done` still gets every row: a finished job keeps
/// its parked receiver.
#[test]
fn probe_stream_is_identical_across_preemption() {
    let probed = |quantum: u64, take_after_done: bool| {
        let srv = server(1, quantum);
        let mut h = srv
            .submit(
                SimRequest::golden("fft_radix8_n512")
                    .unwrap()
                    .with_sim(|s| s.probed(64)),
            )
            .unwrap();
        let (rows, r): (Vec<_>, _) = if take_after_done {
            let r = finish(&h).unwrap();
            assert_eq!(h.poll().state, JobState::Done);
            let rx = h.take_stream().expect("a finished job keeps its stream");
            (rx.iter().collect(), r)
        } else {
            let rx = h.take_stream().expect("probed request streams");
            (rx.iter().collect(), finish(&h).unwrap())
        };
        assert!(r.outcome.is_completed());
        (rows, r.bytes)
    };
    let (whole_rows, whole_bytes) = probed(u64::MAX, false);
    let (sliced_rows, sliced_bytes) = probed(900, false);
    let (late_rows, late_bytes) = probed(900, true);
    assert!(!whole_rows.is_empty());
    assert_eq!(
        sliced_rows, whole_rows,
        "the sliced stream must be indistinguishable from the uninterrupted one"
    );
    assert_eq!(late_rows, whole_rows, "rows taken after Done are all there");
    assert_eq!(sliced_bytes, whole_bytes);
    assert_eq!(late_bytes, whole_bytes);
}

/// The content cache returns byte-identical results, ignores the
/// advance engine (bit-identity contract), and distinguishes fault
/// seeds.
#[test]
fn cache_hits_are_byte_equal_and_engine_blind() {
    let srv = server(2, u64::MAX);
    let first = finish(
        &srv.submit(SimRequest::golden("spawn_storm").unwrap())
            .unwrap(),
    )
    .unwrap();
    assert!(!first.from_cache);
    // Same request again: served from cache, byte-equal.
    let again = finish(
        &srv.submit(SimRequest::golden("spawn_storm").unwrap())
            .unwrap(),
    )
    .unwrap();
    assert!(again.from_cache);
    assert_eq!(again.bytes, first.bytes);
    // Engine change: still a hit (engines are bit-identical).
    let ref_engine = finish(
        &srv.submit(
            SimRequest::golden("spawn_storm")
                .unwrap()
                .with_sim(|s| s.engine(xmt_sim::Engine::Reference)),
        )
        .unwrap(),
    )
    .unwrap();
    assert!(ref_engine.from_cache, "engine is not in the cache key");
    assert_eq!(ref_engine.bytes, first.bytes);
    // `Engine::Threaded` (wire tag 2, a name for FastForward) still
    // decodes and hits.
    let threaded = SimRequest::golden("spawn_storm")
        .unwrap()
        .with_sim(|s| s.engine(xmt_sim::Engine::Threaded { threads: 2 }));
    let threaded = decode_request(&encode_request(&threaded)).unwrap();
    let threaded = finish(&srv.submit(threaded).unwrap()).unwrap();
    assert!(threaded.from_cache, "engine is not in the cache key");
    assert_eq!(threaded.bytes, first.bytes);
    // Fault-seed change: a different result, not a false hit.
    let seeded = finish(
        &srv.submit(
            SimRequest::golden("spawn_storm")
                .unwrap()
                .with_sim(|s| s.faults(xmt_sim::FaultPlan::new(42).dram_flips(0.01, 0.001))),
        )
        .unwrap(),
    )
    .unwrap();
    assert!(!seeded.from_cache, "fault seed is in the cache key");
}

/// A persisted cache directory serves byte-identical results across a
/// full server restart.
#[test]
fn persisted_cache_survives_server_restart() {
    let dir = std::env::temp_dir().join(format!("xmt-server-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServerConfig {
        workers: 1,
        quantum: u64::MAX,
        cache_entries: 8,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let first = {
        let srv = Server::start(cfg()).unwrap();
        finish(
            &srv.submit(SimRequest::golden("ps_tickets").unwrap())
                .unwrap(),
        )
        .unwrap()
    };
    assert!(!first.from_cache);
    let revived = {
        let srv = Server::start(cfg()).unwrap();
        finish(
            &srv.submit(SimRequest::golden("ps_tickets").unwrap())
                .unwrap(),
        )
        .unwrap()
    };
    assert!(revived.from_cache, "restart must hit the persisted entry");
    assert_eq!(revived.bytes, first.bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CI smoke test: submit a sweep, kill a worker mid-job, and
/// verify the preempted and rerun results are bit-identical to direct
/// runs and that resubmitting the sweep is served from cache with the
/// same bytes.
#[test]
fn killed_worker_job_resumes_bit_identically() {
    let srv = server(1, 800);
    let handles: Vec<_> = srv
        .submit_batch(SimRequest::paper_batch())
        .into_iter()
        .map(|h| h.unwrap())
        .collect();
    // Kill the (only) worker while the batch is in flight; the
    // replacement runs the rolled-back job again from cycle 0.
    srv.kill_worker();
    for (h, case) in handles.iter().zip(golden::cases()) {
        let r = finish(h).unwrap();
        assert!(
            r.outcome.is_completed(),
            "{} must survive the kill",
            case.name
        );
        assert_eq!(
            r.bytes,
            direct_bytes(case.name),
            "{}: post-kill rerun diverged",
            case.name
        );
        assert_eq!(h.poll().state, JobState::Done);
    }
    // The whole sweep again: every row served from cache, byte-equal.
    for (h, case) in srv
        .submit_batch(SimRequest::paper_batch())
        .into_iter()
        .map(|h| h.unwrap())
        .zip(golden::cases())
    {
        let r = finish(&h).unwrap();
        assert!(r.from_cache, "{}: expected a cache hit", case.name);
        assert_eq!(r.bytes, direct_bytes(case.name));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Queue determinism: any mix of concurrent submitters, pool sizes
    /// and quanta yields the same canonical bytes for every request —
    /// scheduling interleave and cache warm-up order are invisible.
    #[test]
    fn concurrent_submitters_observe_identical_bytes(
        picks in proptest::collection::vec(0usize..3, 1..5),
        submitters in 1usize..4,
        workers in 1usize..4,
        sliced in any::<bool>(),
    ) {
        // The three cheap golden cases keep the property fast.
        let names = ["ps_tickets", "spawn_storm", "fpu_chain"];
        let expected: Vec<Vec<u8>> = names.iter().map(|n| direct_bytes(n)).collect();
        let quantum = if sliced { 300 } else { u64::MAX };
        let srv = server(workers, quantum);
        std::thread::scope(|scope| {
            for _ in 0..submitters {
                let picks = &picks;
                let expected = &expected;
                let srv = &srv;
                scope.spawn(move || {
                    for &p in picks {
                        let r = finish(
                            &srv.submit(SimRequest::golden(names[p]).unwrap()).unwrap(),
                        )
                        .unwrap();
                        assert_eq!(r.bytes, expected[p], "{} diverged", names[p]);
                    }
                });
            }
        });
    }
}
