//! Process-level crash safety: SIGKILL the `xmt_jobd` server mid-batch
//! and restart it on the same journal. Every submitted job must finish
//! under its original id with report bytes byte-identical to an
//! undisturbed in-process run, the probed job must regenerate a
//! byte-identical interval-row stream, and a pre-crash idempotency
//! token must still name the original job. No job may be lost or run
//! to two different results.
//!
//! The kill is a real `SIGKILL` ([`std::process::Child::kill`]) taken
//! while the first job is mid-run on a single worker — the journal's
//! torn-tail handling faces a genuine half-written file, not a polite
//! shutdown. The journal holds decisions, not machine state: the jobs
//! in flight at the kill run again from cycle 0 after the restart.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use xmt_server::{
    encode_row, Client, ClientConfig, JobState, Server, ServerConfig, SimRequest, Submission,
};

/// Start `xmt_jobd serve` on a fresh port, returning the child and the
/// scraped address.
fn spawn_server(journal: &std::path::Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xmt_jobd"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--journal",
            journal.to_str().unwrap(),
            "--workers",
            "1",
            "--quantum",
            "900",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn xmt_jobd");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read bound address");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .trim()
        .to_string();
    (child, addr)
}

#[test]
fn sigkill_mid_batch_restart_is_byte_identical_and_exactly_once() {
    let dir = std::env::temp_dir().join(format!("xmt-crash-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("jobd.journal");

    // Undisturbed references, computed in-process (no journal, no
    // sockets): canonical report bytes per case and the probed job's
    // full row stream.
    let names = ["fft_radix8_n512", "spawn_storm", "ps_tickets"];
    let reference = {
        let srv = Server::start(ServerConfig::default()).unwrap();
        let bytes: Vec<Vec<u8>> = names
            .iter()
            .map(|n| {
                srv.submit(SimRequest::golden(n).unwrap())
                    .unwrap()
                    .wait_deadline(Duration::from_secs(300))
                    .unwrap()
                    .bytes
            })
            .collect();
        let mut h = srv
            .submit(
                SimRequest::golden("fft_radix8_n512")
                    .unwrap()
                    .with_sim(|s| s.probed(64)),
            )
            .unwrap();
        let rx = h.take_stream().unwrap();
        let rows: Vec<Vec<u8>> = rx.iter().map(|r| encode_row(&r)).collect();
        h.wait_deadline(Duration::from_secs(300)).unwrap();
        (bytes, rows)
    };

    // Phase 1: submit the batch, then SIGKILL while the first job is
    // mid-run. One worker serializes the queue, so the kill point
    // guarantees the probed job (submitted last) has not started —
    // its stream must be wholly regenerated by the restart.
    let (mut child, addr) = spawn_server(&journal);
    let mut c = Client::connect(&addr, ClientConfig::default()).unwrap();
    let ids: Vec<u64> = names
        .iter()
        .map(|n| {
            c.submit(
                Submission::new(SimRequest::golden(n).unwrap())
                    .tenant("batch")
                    .token(7_000 + n.len() as u64),
            )
            .unwrap()
        })
        .collect();
    let probed_id = c
        .submit(Submission::new(
            SimRequest::golden("fft_radix8_n512")
                .unwrap()
                .with_sim(|s| s.probed(64)),
        ))
        .unwrap();
    // Wait for the first job to commit a slice (its progress lives only
    // in the killed process), then kill without warning.
    let t0 = Instant::now();
    loop {
        let st = c.poll(ids[0]).unwrap();
        if st.at_cycle > 0 {
            assert_ne!(
                st.state,
                JobState::Done,
                "quantum 900 over a ~10k-cycle FFT cannot finish in one slice"
            );
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "first slice never committed"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().unwrap();
    child.wait().unwrap();

    // Phase 2: restart on the same journal; unfinished jobs run again
    // from cycle 0 under their original ids.
    let (mut child2, addr2) = spawn_server(&journal);
    let mut c = Client::connect(&addr2, ClientConfig::default()).unwrap();
    // Stream first, then wait: the probed job restarted from scratch
    // and its regenerated rows must be byte-identical.
    let rows: Vec<Vec<u8>> = c
        .stream(probed_id, Duration::from_secs(300))
        .unwrap()
        .iter()
        .map(encode_row)
        .collect();
    for (id, want) in ids.iter().zip(&reference.0) {
        let r = c.wait(*id, Duration::from_secs(300)).unwrap();
        assert!(r.completed, "job {id} lost across SIGKILL");
        assert_eq!(&r.bytes, want, "job {id} diverged across SIGKILL");
    }
    assert!(
        c.wait(probed_id, Duration::from_secs(300))
            .unwrap()
            .completed
    );
    assert_eq!(rows, reference.1, "probed rows diverged across SIGKILL");

    // Exactly once: a pre-crash token resubmitted post-restart names
    // the original job instead of queueing a second execution, and the
    // restarted server accounts exactly one terminal state per job.
    let again = c
        .submit(
            Submission::new(SimRequest::golden("spawn_storm").unwrap())
                .tenant("batch")
                .token(7_000 + "spawn_storm".len() as u64),
        )
        .unwrap();
    assert_eq!(again, ids[1], "idempotency token lost across SIGKILL");
    let stats = c.stats().unwrap();
    assert_eq!(stats.server.tokens_reused, 1);
    assert_eq!(
        stats.server.completed, 4,
        "exactly one terminal state per submitted job: {stats:?}"
    );
    assert_eq!(stats.server.failed, 0);

    child2.kill().unwrap();
    child2.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
