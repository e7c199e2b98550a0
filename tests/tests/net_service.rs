//! Loopback soak of the networked job service: the TCP front end, the
//! blocking client, tenant quotas, load shedding, client deadlines,
//! connection drops, a worker kill and an in-process crash-restart on
//! the same journal — all against real sockets.
//!
//! The contract under test is the ISSUE's service-level one: every
//! in-quota submission completes **exactly once** with byte-identical
//! results, every rejection is a *typed* error ([`JobError`] over the
//! wire), and no adversarial client behaviour (torn frames, dropped
//! connections, expired deadlines) can wedge the server or leak its
//! threads — [`NetServer::stop`] must always join promptly.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use xmt_server::net::NetServer;
use xmt_server::{
    encode_report, encode_row, Client, ClientConfig, ClientError, JobError, Lane, QuotaPolicy,
    Server, ServerConfig, SimRequest, Submission,
};

/// A generous bound for any single wait in this suite.
const SOAK_WAIT: Duration = Duration::from_secs(300);

fn serve(cfg: ServerConfig) -> (Arc<Server>, NetServer) {
    let srv = Arc::new(Server::start(cfg).unwrap());
    let net = NetServer::bind(Arc::clone(&srv), "127.0.0.1:0").unwrap();
    (srv, net)
}

fn client(net: &NetServer) -> Client {
    Client::connect(&net.local_addr().to_string(), ClientConfig::default()).unwrap()
}

/// The canonical bytes for a golden case, computed with no server.
fn direct_bytes(name: &str) -> Vec<u8> {
    let case = xmt_fft::golden::cases()
        .into_iter()
        .chain(xmt_fft::golden::scaling_cases())
        .find(|c| c.name == name)
        .unwrap();
    encode_report(&case.run())
}

/// Multi-tenant soak: three tenants race the golden sweep through the
/// socket from their own connections while a worker is killed
/// mid-flight. Every job completes exactly once, byte-identical to the
/// direct run; nothing is lost, nothing runs twice.
#[test]
fn concurrent_tenants_survive_worker_kill_exactly_once() {
    let (srv, net) = serve(ServerConfig {
        workers: 3,
        quantum: 1_500,
        ..ServerConfig::default()
    });
    let names = ["ps_tickets", "fft_radix8_n512", "spawn_storm"];
    let expected: Vec<Vec<u8>> = names.iter().map(|n| direct_bytes(n)).collect();
    std::thread::scope(|s| {
        for tenant in ["alpha", "beta", "gamma"] {
            let net = &net;
            let expected = &expected;
            s.spawn(move || {
                let mut c = client(net);
                let ids: Vec<u64> = names
                    .iter()
                    .map(|n| {
                        c.submit(
                            Submission::new(SimRequest::golden(n).unwrap())
                                .tenant(tenant)
                                .lane(if tenant == "alpha" {
                                    Lane::High
                                } else {
                                    Lane::Normal
                                }),
                        )
                        .unwrap()
                    })
                    .collect();
                for (id, want) in ids.iter().zip(expected) {
                    let r = c.wait(*id, SOAK_WAIT).unwrap();
                    assert!(r.completed);
                    assert_eq!(&r.bytes, want, "tenant {tenant} diverged");
                }
            });
        }
        // Kill a worker while the sweep is in flight: jobs must resume
        // from their checkpoints on the survivors.
        std::thread::sleep(Duration::from_millis(30));
        srv.kill_worker();
    });
    let stats = srv.stats();
    assert_eq!(stats.submitted, 9);
    // Exactly once: every submission is accounted a single terminal
    // state, none lost, none double-counted (`completed` already
    // counts a dedupe follower).
    assert_eq!(stats.completed, 9, "every job exactly once: {stats:?}");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.queued, 0);
}

/// Quota fairness over the wire: an over-quota tenant is refused with
/// a typed [`JobError::QuotaExceeded`] while an in-quota tenant's jobs
/// complete undisturbed — and cache hits charge nothing, so a tenant
/// who only re-reads cached results never exhausts its bucket.
#[test]
fn over_quota_tenant_is_typed_rejected_in_quota_completes() {
    let (srv, net) = serve(ServerConfig {
        workers: 2,
        quantum: 2_000,
        quota: Some(QuotaPolicy {
            burst_cycles: 1,
            refill_cycles_per_sec: 0,
        }),
        ..ServerConfig::default()
    });
    let mut c = client(&net);
    // Greedy burns its whole bucket (and then some — debt is allowed
    // on an admitted job) on one long FFT.
    let sub = |tenant: &str| {
        Submission::new(SimRequest::golden("fft_radix8_n512").unwrap()).tenant(tenant)
    };
    let id = c.submit(sub("greedy")).unwrap();
    assert!(c.wait(id, SOAK_WAIT).unwrap().completed);
    // Deep in debt now: the next submission is refused, typed.
    match c.submit(sub("greedy")) {
        Err(ClientError::Server(JobError::QuotaExceeded)) => {}
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    // A frugal tenant re-reading the cached result is admitted (its
    // bucket is intact) and charged nothing: its balance stays full,
    // so repeated hits never exhaust it.
    for _ in 0..3 {
        let id = c.submit(sub("frugal")).unwrap();
        let r = c.wait(id, SOAK_WAIT).unwrap();
        assert!(r.from_cache, "identical bytes must hit the cache");
    }
    assert_eq!(
        srv.quota_level("frugal"),
        Some(1.0),
        "cache hits are free of quota charge"
    );
    let stats = c.stats().unwrap();
    assert_eq!(stats.server.rejected_quota, 1);
}

/// Load shedding over the wire: a full submission queue answers
/// [`JobError::Overloaded`] as a typed error, and the client does NOT
/// retry it (rejections are answers, not transport failures).
#[test]
fn overload_is_shed_with_typed_error() {
    let (_srv, net) = serve(ServerConfig {
        workers: 1,
        max_queued: 0,
        ..ServerConfig::default()
    });
    let mut c = client(&net);
    match c.submit(Submission::new(SimRequest::golden("ps_tickets").unwrap())) {
        Err(ClientError::Server(JobError::Overloaded)) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = c.stats().unwrap();
    assert_eq!(
        stats.server.rejected_overload, 1,
        "shed exactly once — the client must not auto-retry a rejection"
    );
}

/// Client-side deadlines and server-side wait bounds: an expired wait
/// surfaces [`JobError::Timeout`] but the job keeps running and a
/// later wait delivers it; torn frames and dropped connections leave
/// the server fully functional; stop() joins every thread promptly.
#[test]
fn deadlines_drops_and_torn_frames_dont_wedge_the_server() {
    let (srv, mut net) = serve(ServerConfig {
        workers: 1,
        quantum: 1_000,
        ..ServerConfig::default()
    });
    let mut c = client(&net);
    let id = c
        .submit(Submission::new(
            SimRequest::golden("fft_radix8_n512").unwrap(),
        ))
        .unwrap();
    match c.wait(id, Duration::ZERO) {
        Err(ClientError::Server(JobError::Timeout)) => {}
        Ok(r) => assert!(r.completed), // legitimately raced to done
        other => panic!("expected Timeout, got {other:?}"),
    }
    // Torn frame: promise 64 bytes, send 3, hang up. The server drops
    // the connection and carries on.
    for _ in 0..4 {
        let mut sock = std::net::TcpStream::connect(net.local_addr()).unwrap();
        sock.write_all(&[64, 0, 0, 0, 1, 2, 3]).unwrap();
        drop(sock);
    }
    // Mid-wait connection drop: start a wait, vanish. The connection
    // thread must notice and exit rather than wait forever.
    {
        let mut c2 = client(&net);
        let _ = c2.submit(Submission::new(
            SimRequest::golden("fft_radix8_n512").unwrap(),
        ));
        // (dropping c2 closes the socket mid-service)
    }
    // The original job still completes with the right bytes.
    let r = c.wait(id, SOAK_WAIT).unwrap();
    assert!(r.completed);
    assert_eq!(r.bytes, direct_bytes("fft_radix8_n512"));
    // stop() must join the accept thread and every connection thread
    // promptly despite the abuse above.
    let t0 = std::time::Instant::now();
    net.stop();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "stop() wedged for {:?}",
        t0.elapsed()
    );
    drop(srv);
}

/// Crash-restart from a journal snapshot: submit a mixed batch, take
/// a byte-level snapshot of the journal the moment the last submission
/// is acknowledged (every ack implies a durable, fsynced Submit
/// record — that is the admission contract), then start a second
/// server on the snapshot as if the first had crashed at that instant.
/// The jobs finish under their *original ids* with byte-identical
/// reports and byte-identical streamed probe rows, and idempotency
/// tokens survive the restart.
///
/// A blocker job pins the single worker under an unbounded quantum so
/// none of the interesting jobs can reach a terminal record before the
/// snapshot: the crash point is deterministic. The mid-execution crash
/// points (checkpointed slices, SIGKILL) are covered by the library's
/// journal test and the process-level crash test in
/// `crates/server/tests/`.
#[test]
fn restart_on_same_journal_finishes_exactly_once_byte_identical() {
    let dir = std::env::temp_dir().join(format!("xmt-net-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Reference rows for the probed job, computed on a journal-less
    // server (probe streams are deterministic).
    let reference_rows: Vec<Vec<u8>> = {
        let srv = Server::start(ServerConfig::default()).unwrap();
        let mut h = srv
            .submit(
                SimRequest::golden("fft_radix8_n512")
                    .unwrap()
                    .with_sim(|s| s.probed(64)),
            )
            .unwrap();
        let rx = h.take_stream().unwrap();
        let rows: Vec<_> = rx.iter().map(|r| encode_row(&r)).collect();
        h.wait_deadline(SOAK_WAIT).unwrap();
        rows
    };

    // Phase 1: one worker, unbounded quantum. The first submission
    // occupies the worker for its entire (uninterruptible) run, so the
    // four that follow are still queued — Submit records only — when
    // the journal is snapshotted.
    let (ids, probed_id) = {
        let (srv, net) = serve(ServerConfig {
            workers: 1,
            quantum: u64::MAX,
            journal: Some(dir.join("live.journal")),
            ..ServerConfig::default()
        });
        let mut c = client(&net);
        c.submit(Submission::new(SimRequest::golden("fft_radix8_n512").unwrap()).tenant("blocker"))
            .unwrap();
        let ids: Vec<u64> = ["fft_radix8_n512", "spawn_storm", "ps_tickets"]
            .iter()
            .map(|n| {
                c.submit(
                    Submission::new(SimRequest::golden(n).unwrap())
                        .tenant("t1")
                        .token(1_000 + n.len() as u64),
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
        // The crash image: journal bytes exactly as a power cut at
        // this instant would leave them.
        std::fs::copy(dir.join("live.journal"), dir.join("crash.journal")).unwrap();
        drop(net);
        drop(srv);
        (ids, probed_id)
    };

    // Phase 2: restart on the crash image. Jobs resume under their
    // original ids and finish byte-identically.
    let (srv2, net2) = serve(ServerConfig {
        workers: 2,
        quantum: 900,
        journal: Some(dir.join("crash.journal")),
        ..ServerConfig::default()
    });
    let mut c = client(&net2);
    for (id, name) in ids
        .iter()
        .zip(["fft_radix8_n512", "spawn_storm", "ps_tickets"])
    {
        let r = c.wait(*id, SOAK_WAIT).unwrap();
        assert!(r.completed, "{name} lost across restart");
        assert_eq!(
            r.bytes,
            direct_bytes(name),
            "{name} diverged across restart"
        );
    }
    // The probed job restarted from scratch (probe rings aren't
    // journaled) and its re-generated stream is byte-identical.
    let rows: Vec<Vec<u8>> = c
        .stream(probed_id, SOAK_WAIT)
        .unwrap()
        .iter()
        .map(encode_row)
        .collect();
    assert!(c.wait(probed_id, SOAK_WAIT).unwrap().completed);
    assert_eq!(
        rows, reference_rows,
        "streamed rows diverged across restart"
    );
    // Exactly once: resubmitting a pre-crash token maps to the old
    // job, not a new execution.
    let again = c
        .submit(
            Submission::new(SimRequest::golden("spawn_storm").unwrap())
                .tenant("t1")
                .token(1_000 + "spawn_storm".len() as u64),
        )
        .unwrap();
    assert_eq!(again, ids[1], "token lost across restart");
    assert_eq!(srv2.stats().tokens_reused, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
