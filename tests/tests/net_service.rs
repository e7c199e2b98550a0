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

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use xmt_server::net::{
    decode_response, encode_request_frame, split_frame, NetServer, Request, Response, PROTO_MAGIC,
};
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
        // Kill a worker while the sweep is in flight: its job must run
        // again from cycle 0 on the survivors.
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
/// points (sliced jobs, SIGKILL) are covered by the library's
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

/// A TCP relay for one connection to `to`, counting the frames the
/// client sends through it (by their length prefixes) and passing the
/// server's answers back untouched. Its threads end when the client
/// hangs up; join the handle after that.
fn counting_relay(to: SocketAddr) -> (SocketAddr, Arc<AtomicU64>, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let frames = Arc::new(AtomicU64::new(0));
    let count = Arc::clone(&frames);
    let relay = std::thread::spawn(move || {
        let (mut client, _) = listener.accept().unwrap();
        let mut server = TcpStream::connect(to).unwrap();
        for s in [&client, &server] {
            s.set_nodelay(true).unwrap();
        }
        let (mut back_from, mut back_to) =
            (server.try_clone().unwrap(), client.try_clone().unwrap());
        let back = std::thread::spawn(move || std::io::copy(&mut back_from, &mut back_to));
        // Client to server: a frame is counted when its 4-byte length
        // prefix is complete, and its payload is skipped.
        let (mut prefix, mut skip) = (Vec::new(), 0usize);
        let mut buf = [0u8; 4096];
        while let Ok(n @ 1..) = client.read(&mut buf) {
            let mut chunk = &buf[..n];
            while !chunk.is_empty() {
                if skip > 0 {
                    let k = skip.min(chunk.len());
                    (skip, chunk) = (skip - k, &chunk[k..]);
                } else {
                    prefix.push(chunk[0]);
                    chunk = &chunk[1..];
                    if prefix.len() == 4 {
                        skip = u32::from_le_bytes(prefix[..].try_into().unwrap()) as usize;
                        prefix.clear();
                        count.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            if server.write_all(&buf[..n]).is_err() {
                break;
            }
        }
        let _ = server.shutdown(std::net::Shutdown::Both);
        // The answer pump ends at the server's end of stream; an error
        // writing to a client that already hung up is no fault here.
        let _ = back.join().expect("the answer pump does not panic");
    });
    (addr, frames, relay)
}

/// One round trip per cache hit, counted exactly: a result already
/// resident when its submission is acknowledged comes back in the
/// acknowledgement, so a 16-key sweep of hits (16 submits, then 16
/// waits) sends 16 request frames, not 32; a cold job still sends its
/// submit and its wait. Every result equals a direct run, byte for
/// byte.
#[test]
fn a_resident_hit_costs_one_request_frame() {
    let (srv, net) = serve(ServerConfig {
        workers: 1,
        quantum: u64::MAX,
        ..ServerConfig::default()
    });
    let arch = xmt_fft::golden::golden_config();
    let key = |seed: u64| SimRequest::fft(&[16], 1, seed, &arch);
    let direct = |req: &SimRequest| encode_report(&req.builder().build().run().report);
    let keys: Vec<(SimRequest, Vec<u8>)> = (0..16)
        .map(|seed| {
            let req = key(seed);
            let bytes = direct(&req);
            (req, bytes)
        })
        .collect();
    // Prefill the cache past the relay.
    for (req, bytes) in &keys {
        let r = srv.submit(req.clone()).unwrap().wait().unwrap();
        assert_eq!(&r.bytes, bytes);
    }
    let (addr, frames, relay) = counting_relay(net.local_addr());
    let mut c = Client::connect(&addr.to_string(), ClientConfig::default()).unwrap();
    let ids: Vec<u64> = keys
        .iter()
        .map(|(req, _)| c.submit(Submission::new(req.clone())).unwrap())
        .collect();
    for (id, (_, bytes)) in ids.iter().zip(&keys) {
        let r = c.wait(*id, SOAK_WAIT).unwrap();
        assert!(r.completed && r.from_cache);
        assert_eq!(&r.bytes, bytes, "job {id}");
    }
    assert_eq!(frames.load(Ordering::SeqCst), 16, "one frame per hit");
    // A cold job: the single worker is held by a blocker run to its end
    // (no preemption), so the job cannot be terminal when its
    // submission is acknowledged.
    let blocker = srv
        .submit(SimRequest::golden("fft_radix8_n512").unwrap())
        .unwrap();
    let cold = key(99);
    let id = c.submit(Submission::new(cold.clone())).unwrap();
    let r = c.wait(id, SOAK_WAIT).unwrap();
    assert!(r.completed && !r.from_cache);
    assert_eq!(r.bytes, direct(&cold));
    assert_eq!(frames.load(Ordering::SeqCst), 18, "submit and wait");
    assert!(blocker.wait().unwrap().outcome.is_completed());
    drop(c);
    relay.join().unwrap();
}

/// One request frame over a raw socket, and its decoded response.
fn raw_rpc(sock: &mut TcpStream, req: &Request) -> Response {
    let (tag, body) = encode_request_frame(req);
    let mut frame = (9 + body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&PROTO_MAGIC.to_le_bytes());
    frame.push(tag);
    frame.extend_from_slice(&body);
    sock.write_all(&frame).unwrap();
    let mut len = [0u8; 4];
    sock.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    sock.read_exact(&mut payload).unwrap();
    let (tag, body) = split_frame(&payload).unwrap();
    decode_response(tag, body).unwrap()
}

/// A retired job is gone by id over TCP too: once 4 096 later jobs
/// have finished, `Wait`, `Poll`, `Cancel` and `Stream` on the first
/// job's id each answer the typed [`JobError::UnknownJob`], and the
/// connection goes on serving — the newest job still polls, and the
/// statistics frame counts the retirement.
#[test]
fn a_retired_id_answers_unknown_job_over_tcp() {
    let (srv, net) = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let req = || SimRequest::golden("ps_tickets").unwrap();
    let first = {
        let h = srv.submit(req()).unwrap();
        assert!(h.wait().unwrap().outcome.is_completed());
        h.id()
    };
    // Cache hits, their handles dropped.
    let mut last = first;
    for _ in 0..4_096 {
        let h = srv.submit(req()).unwrap();
        assert!(h.wait().unwrap().from_cache);
        last = h.id();
    }
    assert_eq!(srv.stats().retired, 1);
    let mut sock = TcpStream::connect(net.local_addr()).unwrap();
    sock.set_read_timeout(Some(SOAK_WAIT)).unwrap();
    for req in [
        Request::Wait {
            id: first,
            timeout_ms: 1_000,
        },
        Request::Poll(first),
        Request::Cancel(first),
        Request::Stream(first),
    ] {
        match raw_rpc(&mut sock, &req) {
            Response::Err(Some(JobError::UnknownJob)) => {}
            other => panic!("{req:?}: expected UnknownJob, got {other:?}"),
        }
    }
    match raw_rpc(&mut sock, &Request::Poll(last)) {
        Response::Status(s) => assert!(s.from_cache),
        other => panic!("expected the newest job's status, got {other:?}"),
    }
    match raw_rpc(&mut sock, &Request::Stats) {
        Response::Stats(s) => assert_eq!(s.server.retired, 1),
        other => panic!("expected stats, got {other:?}"),
    }
}
