//! The job server: a sharded pool of host worker threads over a
//! two-lane round-robin preemptive scheduler with admission control
//! and a write-ahead journal. This module is the front: configuration,
//! admission, handles. `state` holds the scheduler state and the job
//! lifecycle — the only code that changes a job's state — `worker`
//! the pool threads that run slices, `recovery` the rebuild from a
//! replayed journal.
//!
//! Admission control: the run queues are bounded
//! ([`ServerConfig::max_queued`]) and shed load with
//! [`JobError::Overloaded`] instead of queueing without bound. With a
//! [`QuotaPolicy`] configured, each tenant spends a token bucket
//! denominated in *simulated cycles*: admission requires a positive
//! balance, every committed slice debits the cycles it burned, and the
//! bucket refills in wall-clock time. Cache hits debit nothing — a
//! resubmitted sweep is free.
//!
//! Durability: with [`ServerConfig::journal`] set, every accepted
//! submission is fsynced to the write-ahead journal *before* its
//! handle is returned, preemption commits append the latest checkpoint
//! bytes, and terminal states append the result.
//! [`Server::start`] replays the journal (see [`crate::journal`]),
//! requeues in-flight jobs at their last quiescent checkpoint, and
//! compacts the file — so a `SIGKILL` mid-batch costs at most the
//! torn tail record, and the restarted batch finishes with
//! byte-identical results.

mod recovery;
mod state;
mod worker;

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use self::state::State;
use crate::cache::{CacheStats, ResultCache};
use crate::job::{JobError, JobId, JobResult, JobStatus, Lane};
use crate::journal::{Journal, Record};
use crate::request::SimRequest;
use crate::wire;
use xmt_sim::IntervalRow;

/// Per-tenant token-bucket quota, denominated in simulated cycles.
///
/// Every tenant starts (and caps out) at `burst_cycles`; a committed
/// slice debits the cycles it simulated, and the balance refills at
/// `refill_cycles_per_sec` of wall-clock time. Admission only requires
/// a *positive* balance — one oversized job may run the bucket into
/// debt, which the tenant then pays off in refill time. Cache hits
/// debit nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaPolicy {
    /// Bucket capacity and starting balance, in simulated cycles.
    pub burst_cycles: u64,
    /// Refill rate, in simulated cycles per wall-clock second (0 =
    /// a fixed allowance that never refills).
    pub refill_cycles_per_sec: u64,
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Preemption quantum in *simulated* cycles: a job is checkpointed
    /// and requeued after at most this many cycles per slice.
    pub quantum: u64,
    /// Result-cache capacity (entries resident in memory).
    pub cache_entries: usize,
    /// Persistence directory for the result cache (`None` =
    /// memory-only).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Bound on jobs waiting in the run queues (running jobs and
    /// dedupe followers don't count). Submissions past it are shed
    /// with [`JobError::Overloaded`]; `0` rejects everything.
    pub max_queued: usize,
    /// Per-tenant token-bucket quota; `None` = unmetered.
    pub quota: Option<QuotaPolicy>,
    /// Write-ahead journal path; `None` = no crash durability.
    pub journal: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            quantum: 100_000,
            cache_entries: 64,
            cache_dir: None,
            max_queued: 1024,
            quota: None,
            journal: None,
        }
    }
}

/// One submission with its admission metadata. [`Server::submit`] is
/// the shorthand for the default tenant/lane/no-token form.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// The job to run.
    pub req: SimRequest,
    /// Billing identity for quota accounting (defaults to
    /// `"default"`).
    pub tenant: String,
    /// Scheduling lane.
    pub lane: Lane,
    /// Client idempotency token, scoped per tenant (0 = none).
    /// Resubmitting the same `(tenant, token)` — e.g. a network client
    /// retrying after a timeout — returns a handle to the *original*
    /// job instead of queueing a duplicate.
    pub token: u64,
}

impl Submission {
    /// A submission with default metadata: tenant `"default"`, the
    /// `Normal` lane, no idempotency token.
    pub fn new(req: SimRequest) -> Submission {
        Submission {
            req,
            tenant: "default".to_string(),
            lane: Lane::Normal,
            token: 0,
        }
    }

    /// Set the billing tenant.
    pub fn tenant(mut self, tenant: &str) -> Submission {
        self.tenant = tenant.to_string();
        self
    }

    /// Set the scheduling lane.
    pub fn lane(mut self, lane: Lane) -> Submission {
        self.lane = lane;
        self
    }

    /// Set the idempotency token (0 = none).
    pub fn token(mut self, token: u64) -> Submission {
        self.token = token;
        self
    }
}

/// Scheduler and admission counters, from [`Server::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Submissions accepted (including dedupe followers; excluding
    /// token-reuse returns and rejections).
    pub submitted: u64,
    /// Jobs resolved `Done` (including followers and cache hits).
    pub completed: u64,
    /// Jobs resolved `Failed`.
    pub failed: u64,
    /// Jobs resolved `Cancelled`.
    pub cancelled: u64,
    /// Submissions collapsed onto an identical batch row.
    pub deduped: u64,
    /// Submissions answered with an existing job via idempotency
    /// token.
    pub tokens_reused: u64,
    /// Submissions shed with [`JobError::Overloaded`].
    pub rejected_overload: u64,
    /// Submissions refused with [`JobError::QuotaExceeded`].
    pub rejected_quota: u64,
    /// Jobs waiting in the run queues right now.
    pub queued: usize,
    /// Current journal file size in bytes (0 without a journal).
    pub journal_bytes: u64,
}

// The statistics frame's server half, in wire order.
xmt_sim::word_codec!(
    pub(crate) ServerStats,
    10,
    [
        submitted,
        completed,
        failed,
        cancelled,
        deduped,
        tokens_reused,
        rejected_overload,
        rejected_quota,
        queued,
        journal_bytes,
    ]
);

pub(crate) struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    cache: Mutex<ResultCache>,
    quantum: u64,
    max_queued: usize,
    quota: Option<QuotaPolicy>,
    /// The write-ahead journal. Lock order: `state` before `journal`,
    /// never the reverse.
    journal: Mutex<Option<Journal>>,
}

/// Unwrap a `lock()` or condvar wait, recovering the guard when another
/// thread panicked while holding the mutex. Every lock in the service
/// goes through here: one panic must cost at most the request it
/// happened in, not every later submit, poll, wait and stats call.
/// Nothing under these locks writes a field in pieces, so what a panic
/// can leave behind is at worst a transition half applied (say, a
/// primary resolved before its followers), never a torn value.
fn unpoison<G>(r: LockResult<G>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Append records to the journal, best-effort (a failed append only
/// costs restart work — the in-memory result already stands, and
/// replay re-executes anything not recorded), then wake whoever waits
/// on the state they describe.
fn publish(shared: &Shared, recs: &[Record]) {
    if !recs.is_empty() {
        if let Some(j) = unpoison(shared.journal.lock()).as_mut() {
            for r in recs {
                if j.append(r).is_err() {
                    break;
                }
            }
        }
    }
    shared.cv.notify_all();
}

/// The journal record of an accepted submission.
fn submit_record(id: JobId, sub: &Submission) -> Record {
    Record::Submit {
        id,
        tenant: sub.tenant.clone(),
        lane: sub.lane,
        token: sub.token,
        req: wire::encode_request(&sub.req),
    }
}

/// The batch job server. Dropping it shuts the pool down: pending jobs
/// resolve to [`JobError::Shutdown`] and all workers are joined — but
/// with a journal configured their submissions stay durable, so a
/// restart on the same path resumes them.
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// A submitted job: poll, wait, stream, cancel. Handles outlive the
/// server (they hold the shared state), but a job can only make
/// progress while the server is alive.
pub struct JobHandle {
    id: JobId,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.id).finish()
    }
}

impl Server {
    /// Start a server with the given pool shape. With
    /// [`ServerConfig::journal`] set, replays the journal first:
    /// finished jobs come back resolved with their recorded bytes,
    /// in-flight jobs re-enter the run queues at their last quiescent
    /// checkpoint, and the journal file is compacted. The only error
    /// source is journal I/O — a journal-less server cannot fail to
    /// start.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let workers = cfg.workers.max(1);
        Server::start_with(cfg, workers)
    }

    /// [`Server::start`] with exactly `workers` threads (none: jobs
    /// are admitted and recovered but never run — what the recovery
    /// tests look at).
    fn start_with(cfg: ServerConfig, workers: usize) -> std::io::Result<Server> {
        let mut st = State::default();
        let journal = match &cfg.journal {
            None => None,
            Some(path) => {
                let replay = Journal::replay(path)?;
                let compact = recovery::recover(&mut st, replay.jobs);
                Some(Journal::rewrite(path, &compact)?)
            }
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(st),
            cv: Condvar::new(),
            cache: Mutex::new(ResultCache::new(cfg.cache_entries, cfg.cache_dir)),
            quantum: cfg.quantum.max(1),
            max_queued: cfg.max_queued,
            quota: cfg.quota,
            journal: Mutex::new(journal),
        });
        let workers = (0..workers)
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || worker::run(&sh))
            })
            .collect();
        Ok(Server {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Queue one request under the default tenant and lane; returns
    /// its handle, or a typed admission error
    /// ([`JobError::Overloaded`], [`JobError::QuotaExceeded`], …).
    pub fn submit(&self, req: SimRequest) -> Result<JobHandle, JobError> {
        self.submit_with(Submission::new(req))
    }

    /// Queue one submission with explicit tenant/lane/token metadata.
    pub fn submit_with(&self, sub: Submission) -> Result<JobHandle, JobError> {
        self.admit(sub, None)
    }

    /// Queue a batch (e.g. [`SimRequest::paper_batch`]) in submission
    /// order, collapsing identical rows: rows with equal content
    /// addresses execute **once**, and the result fans out to every
    /// handle (followers report `deduped` in their status). Each row
    /// admits or rejects independently.
    pub fn submit_batch(&self, reqs: Vec<SimRequest>) -> Vec<Result<JobHandle, JobError>> {
        self.submit_batch_with(reqs.into_iter().map(Submission::new).collect())
    }

    /// [`Server::submit_batch`] with explicit per-row metadata.
    /// Dedupe only collapses unprobed, untokened rows (a probed job's
    /// value is its stream; a tokened row keeps idempotency
    /// semantics) of this one call: batch membership is not journaled,
    /// so after a restart every unfinished row runs on its own and
    /// identical ones meet in the result cache instead.
    pub fn submit_batch_with(&self, subs: Vec<Submission>) -> Vec<Result<JobHandle, JobError>> {
        let mut primaries: HashMap<u64, JobId> = HashMap::new();
        subs.into_iter()
            .map(|sub| {
                let dedupable = sub.req.sim.probe_interval.is_none() && sub.token == 0;
                let digest_key = dedupable.then(|| sub.req.digest());
                let primary = digest_key.and_then(|d| primaries.get(&d).copied());
                let r = self.admit(sub, primary);
                if let (Ok(h), Some(d), None) = (&r, digest_key, primary) {
                    primaries.insert(d, h.id());
                }
                r
            })
            .collect()
    }

    /// Admission: shutdown check, idempotency-token lookup, queue
    /// bound, quota, journal, insert. `dedup_of` marks a batch
    /// follower (skips the queue/quota checks — followers cost no
    /// execution).
    fn admit(&self, sub: Submission, dedup_of: Option<JobId>) -> Result<JobHandle, JobError> {
        let digest = sub.req.digest();
        let mut st = unpoison(self.shared.state.lock());
        if st.shutdown {
            return Err(JobError::Shutdown);
        }
        if sub.token != 0 {
            if let Some(&id) = st.tokens.get(&(sub.tenant.clone(), sub.token)) {
                st.stats.tokens_reused += 1;
                return Ok(self.handle_to(id));
            }
        }
        let primary = dedup_of.filter(|p| st.jobs.contains_key(p));
        if primary.is_none() {
            if st.queued() >= self.shared.max_queued {
                st.stats.rejected_overload += 1;
                return Err(JobError::Overloaded);
            }
            // Admission needs a positive balance, nothing more.
            if let Some(q) = &self.shared.quota {
                if st.bucket(q, &sub.tenant).level <= 0.0 {
                    st.stats.rejected_quota += 1;
                    return Err(JobError::QuotaExceeded);
                }
            }
        }
        let id = st.next_id;
        // Durability before acknowledgement: the Submit record is
        // fsynced while we still hold the state lock (order: state →
        // journal), so an accepted handle implies a replayable job.
        if let Some(j) = unpoison(self.shared.journal.lock()).as_mut() {
            if j.append(&submit_record(id, &sub)).is_err() {
                return Err(JobError::Journal);
            }
        }
        st.insert(id, sub, digest);
        let recs = match primary {
            Some(pid) => st.follow(id, pid),
            None => {
                st.enqueue(id);
                Vec::new()
            }
        };
        drop(st);
        publish(&self.shared, &recs);
        Ok(self.handle_to(id))
    }

    fn handle_to(&self, id: JobId) -> JobHandle {
        JobHandle {
            id,
            shared: Arc::clone(&self.shared),
        }
    }

    /// A handle to an existing job by id (`None` for unknown ids) —
    /// how the network layer reattaches to journal-recovered jobs.
    pub fn handle(&self, id: JobId) -> Option<JobHandle> {
        let known = unpoison(self.shared.state.lock()).jobs.contains_key(&id);
        known.then(|| self.handle_to(id))
    }

    /// Kill one worker mid-job (failure-injection hook): the next
    /// slice to finish anywhere in the pool is discarded as if its
    /// thread died, the job rolls back to its last checkpoint, and the
    /// thread exits. A replacement worker is spawned immediately so
    /// the pool keeps its strength.
    pub fn kill_worker(&self) {
        unpoison(self.shared.state.lock()).kill_requests += 1;
        let sh = Arc::clone(&self.shared);
        unpoison(self.workers.lock()).push(std::thread::spawn(move || worker::run(&sh)));
        self.shared.cv.notify_all();
    }

    /// Result-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        unpoison(self.shared.cache.lock()).stats()
    }

    /// Scheduler and admission counters.
    pub fn stats(&self) -> ServerStats {
        let mut s = {
            let st = unpoison(self.shared.state.lock());
            ServerStats {
                queued: st.queued(),
                ..st.stats
            }
        };
        if let Some(j) = unpoison(self.shared.journal.lock()).as_ref() {
            s.journal_bytes = j.len();
        }
        s
    }

    /// A tenant's current quota balance in simulated cycles (`None`
    /// when unmetered or the tenant has never submitted). Negative =
    /// in debt, paying it off in refill time.
    pub fn quota_level(&self, tenant: &str) -> Option<f64> {
        let quota = self.shared.quota?;
        let mut st = unpoison(self.shared.state.lock());
        let b = st.buckets.get_mut(tenant)?;
        b.refill(&quota);
        Some(b.level)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        unpoison(self.shared.state.lock()).shut_down();
        self.shared.cv.notify_all();
        for h in unpoison(self.workers.lock()).drain(..) {
            let _ = h.join();
        }
    }
}

impl JobHandle {
    /// The server-assigned job id (stable across a journal-replayed
    /// restart).
    pub fn id(&self) -> JobId {
        self.id
    }

    /// A snapshot of the job's current state.
    pub fn poll(&self) -> JobStatus {
        let st = unpoison(self.shared.state.lock());
        st.jobs.get(&self.id).expect("job entry exists").status
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(&self) -> Result<JobResult, JobError> {
        self.wait_until(None)
    }

    /// [`JobHandle::wait`] with a deadline: [`JobError::Timeout`] if
    /// the job hasn't resolved within `timeout`. The job keeps
    /// running — only this wait gives up, and a later wait can still
    /// collect the result.
    pub fn wait_deadline(&self, timeout: Duration) -> Result<JobResult, JobError> {
        // A timeout past the end of the clock is no deadline.
        self.wait_until(Instant::now().checked_add(timeout))
    }

    /// Waits under the lock for the terminal value, then builds the
    /// public result from it — decoding a report — with the lock
    /// released.
    fn wait_until(&self, deadline: Option<Instant>) -> Result<JobResult, JobError> {
        let mut st = unpoison(self.shared.state.lock());
        let terminal = loop {
            if let Some(r) = &st.jobs.get(&self.id).expect("job entry exists").result {
                break r.clone();
            }
            if st.shutdown {
                return Err(JobError::Shutdown);
            }
            st = match deadline {
                None => unpoison(self.shared.cv.wait(st)),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(JobError::Timeout);
                    }
                    unpoison(self.shared.cv.wait_timeout(st, deadline - now)).0
                }
            };
        };
        drop(st);
        terminal.into_result()
    }

    /// Ask the server to cancel the job. Queued jobs cancel
    /// immediately; a running slice is abandoned at its next commit
    /// point. Cancelling a dedupe primary cancels its followers (they
    /// share one execution). A job that already finished keeps its
    /// result.
    pub fn cancel(&self) {
        let recs = unpoison(self.shared.state.lock()).cancel(self.id);
        publish(&self.shared, &recs);
    }

    /// Take the probe-row stream (probed requests only; `None` for
    /// unprobed requests or if already taken). Rows arrive slice by
    /// slice as the job runs; the channel closes at the terminal
    /// state.
    pub fn take_stream(&mut self) -> Option<mpsc::Receiver<IntervalRow>> {
        let mut st = unpoison(self.shared.state.lock());
        st.jobs.get_mut(&self.id).and_then(|e| e.stream_rx.take())
    }
}

#[cfg(test)]
mod tests {
    use super::state::HIGH_BURST;
    use super::submit_record;
    use super::*;
    use crate::job::JobState;
    use xmt_sim::{RunStatus, SimError};

    fn tiny_server(workers: usize, quantum: u64) -> Server {
        Server::start(ServerConfig {
            workers,
            quantum,
            cache_entries: 8,
            cache_dir: None,
            ..ServerConfig::default()
        })
        .expect("journal-less start cannot fail")
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("xmt-server-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn single_job_completes_with_report() {
        let srv = tiny_server(1, 1_000_000);
        let h = srv
            .submit(SimRequest::golden("ps_tickets").unwrap())
            .unwrap();
        let r = h.wait().unwrap();
        assert!(r.outcome.is_completed());
        assert!(r.outcome.report.stats.cycles > 0);
        assert!(!r.from_cache);
        assert_eq!(r.slices, 1, "fits in one quantum");
        let status = h.poll();
        assert_eq!(status.state, JobState::Done);
        assert!(!status.deduped);
    }

    /// A request no machine can be built from must not take the worker
    /// with it: built in-process it resolves `Failed` with the typed
    /// error, and the next job on the same, only worker completes.
    #[test]
    fn bad_geometry_fails_typed_and_the_worker_lives() {
        let srv = tiny_server(1, u64::MAX);
        let limit = Duration::from_secs(30);
        let mut bad = SimRequest::golden("ps_tickets").unwrap();
        bad.sim.arch.tcus_per_cluster = 128;
        let r = srv.submit(bad).unwrap().wait_deadline(limit).unwrap();
        assert!(
            matches!(
                r.outcome.status,
                RunStatus::Failed(SimError::InvalidConfig { .. })
            ),
            "got {:?}",
            r.outcome.status
        );
        let next = srv
            .submit(SimRequest::golden("ps_tickets").unwrap())
            .unwrap()
            .wait_deadline(limit)
            .unwrap();
        assert!(next.outcome.is_completed());
    }

    #[test]
    fn preempted_job_matches_uninterrupted_run() {
        let whole = tiny_server(1, u64::MAX)
            .submit(SimRequest::golden("fft_radix8_n512").unwrap())
            .unwrap()
            .wait()
            .unwrap();
        let srv = tiny_server(2, 1_000);
        let h = srv
            .submit(SimRequest::golden("fft_radix8_n512").unwrap())
            .unwrap();
        let sliced = h.wait().unwrap();
        assert!(
            sliced.slices > 1,
            "quantum 1000 must preempt a 10k-cycle run"
        );
        assert_eq!(sliced.bytes, whole.bytes, "byte-identical report");
    }

    #[test]
    fn second_submit_hits_the_cache_byte_equal() {
        let srv = tiny_server(1, u64::MAX);
        let first = srv
            .submit(SimRequest::golden("ps_tickets").unwrap())
            .unwrap()
            .wait()
            .unwrap();
        let second = srv
            .submit(SimRequest::golden("ps_tickets").unwrap())
            .unwrap()
            .wait()
            .unwrap();
        assert!(!first.from_cache);
        assert!(second.from_cache);
        assert_eq!(second.slices, 0);
        assert_eq!(first.bytes, second.bytes);
        let cs = srv.cache_stats();
        assert!(cs.hits >= 1, "cache counters: {cs:?}");
    }

    #[test]
    fn failed_job_surfaces_partial_report() {
        // A stuck TCU + watchdog: the run fails with Stalled but the
        // partial report still carries the cycles burned.
        let req = SimRequest::golden("fft_radix8_n512")
            .unwrap()
            .with_sim(|s| {
                s.faults(xmt_sim::FaultPlan::new(7).stuck_tcu(1, 3))
                    .watchdog(5_000)
            });
        let srv = tiny_server(1, u64::MAX);
        let r = srv.submit(req).unwrap().wait().unwrap();
        match &r.outcome.status {
            RunStatus::Failed(SimError::Stalled { at_cycle, .. }) => {
                assert!(*at_cycle > 0);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
        assert!(r.outcome.report.stats.cycles > 0, "partial report present");
        // Failures are not cached: resubmit computes again.
        let again = srv
            .submit(
                SimRequest::golden("fft_radix8_n512")
                    .unwrap()
                    .with_sim(|s| {
                        s.faults(xmt_sim::FaultPlan::new(7).stuck_tcu(1, 3))
                            .watchdog(5_000)
                    }),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert!(!again.from_cache);
        assert_eq!(again.bytes, r.bytes, "failure replays deterministically");
    }

    #[test]
    fn cancel_queued_job() {
        // Single worker busy with a long job; the queued one cancels
        // without ever running.
        let srv = tiny_server(1, 500);
        let long = srv
            .submit(SimRequest::golden("fft_radix8_n512").unwrap())
            .unwrap();
        let victim = srv
            .submit(SimRequest::golden("spawn_storm").unwrap())
            .unwrap();
        victim.cancel();
        assert_eq!(victim.wait().unwrap_err(), JobError::Cancelled);
        assert!(long.wait().unwrap().outcome.is_completed());
    }

    #[test]
    fn shutdown_resolves_pending_jobs() {
        let srv = tiny_server(1, 100);
        let h = srv
            .submit(SimRequest::golden("fft_radix8_n512").unwrap())
            .unwrap();
        drop(srv);
        // Either it finished before the drop, or it reports Shutdown.
        match h.wait() {
            Ok(r) => assert!(r.outcome.is_completed()),
            Err(e) => assert_eq!(e, JobError::Shutdown),
        }
    }

    #[test]
    fn wait_deadline_times_out_then_delivers() {
        let srv = tiny_server(1, 1_000);
        let h = srv
            .submit(SimRequest::golden("fft_radix8_n512").unwrap())
            .unwrap();
        assert_eq!(
            h.wait_deadline(Duration::ZERO).unwrap_err(),
            JobError::Timeout,
            "a multi-slice run cannot resolve in zero time"
        );
        let r = h.wait_deadline(Duration::from_secs(120)).unwrap();
        assert!(r.outcome.is_completed());
    }

    #[test]
    fn high_lane_drains_first_with_antistarvation() {
        let mut st = State::default();
        st.queues[0].extend([10, 11]);
        st.queues[1].extend([20, 21, 22, 23, 24]);
        let order: Vec<JobId> = std::iter::from_fn(|| st.pop_id()).collect();
        assert_eq!(
            order,
            vec![20, 21, 22, 10, 23, 24, 11],
            "express first, one Normal grant per {HIGH_BURST} High pops"
        );
    }

    #[test]
    fn overload_sheds_with_typed_error() {
        let srv = Server::start(ServerConfig {
            workers: 1,
            quantum: u64::MAX,
            max_queued: 0,
            ..ServerConfig::default()
        })
        .unwrap();
        let err = srv
            .submit(SimRequest::golden("ps_tickets").unwrap())
            .unwrap_err();
        assert_eq!(err, JobError::Overloaded);
        assert_eq!(srv.stats().rejected_overload, 1);
    }

    #[test]
    fn quota_debits_cycles_and_rejects_exhausted_tenants() {
        let srv = Server::start(ServerConfig {
            workers: 1,
            quantum: u64::MAX,
            quota: Some(QuotaPolicy {
                burst_cycles: 1,
                refill_cycles_per_sec: 0,
            }),
            ..ServerConfig::default()
        })
        .unwrap();
        let sub = |tenant: &str| {
            Submission::new(SimRequest::golden("ps_tickets").unwrap()).tenant(tenant)
        };
        // First job admits on the initial balance and drives the
        // bucket deep into debt.
        let r = srv.submit_with(sub("meter")).unwrap().wait().unwrap();
        assert!(r.outcome.is_completed());
        let level = srv.quota_level("meter").unwrap();
        assert!(level < 0.0, "bucket in debt after the run: {level}");
        assert_eq!(
            srv.submit_with(sub("meter")).unwrap_err(),
            JobError::QuotaExceeded
        );
        assert_eq!(srv.stats().rejected_quota, 1);
        // An untouched tenant is unaffected — and its cache hit
        // charges nothing.
        let hit = srv.submit_with(sub("fresh")).unwrap().wait().unwrap();
        assert!(hit.from_cache);
        assert_eq!(
            srv.quota_level("fresh").unwrap(),
            1.0,
            "cache hits are free"
        );
    }

    #[test]
    fn batch_dedupe_collapses_identical_rows() {
        let srv = tiny_server(2, u64::MAX);
        let row = || SimRequest::golden("ps_tickets").unwrap();
        let handles: Vec<JobHandle> = srv
            .submit_batch(vec![
                row(),
                row(),
                SimRequest::golden("spawn_storm").unwrap(),
                row(),
            ])
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let results: Vec<JobResult> = handles.iter().map(|h| h.wait().unwrap()).collect();
        assert_eq!(results[0].bytes, results[1].bytes);
        assert_eq!(results[0].bytes, results[3].bytes);
        assert_ne!(results[0].bytes, results[2].bytes);
        assert!(!handles[0].poll().deduped, "first row is the primary");
        assert!(handles[1].poll().deduped);
        assert!(handles[3].poll().deduped);
        assert_eq!(srv.stats().deduped, 2);
        // Only two executions ever touched the cache path.
        assert_eq!(srv.cache_stats().misses, 2, "one execution per unique row");
    }

    #[test]
    fn token_resubmission_is_idempotent() {
        let srv = tiny_server(1, u64::MAX);
        let req = SimRequest::golden("ps_tickets").unwrap();
        let a = srv
            .submit_with(Submission::new(req.clone()).tenant("t").token(42))
            .unwrap();
        let b = srv
            .submit_with(Submission::new(req.clone()).tenant("t").token(42))
            .unwrap();
        assert_eq!(a.id(), b.id(), "same (tenant, token) names the same job");
        assert_eq!(srv.stats().tokens_reused, 1);
        let c = srv
            .submit_with(Submission::new(req).tenant("u").token(42))
            .unwrap();
        assert_ne!(a.id(), c.id(), "tokens are scoped per tenant");
        assert_eq!(a.wait().unwrap().bytes, c.wait().unwrap().bytes);
    }

    #[test]
    fn journal_restart_resumes_and_matches() {
        let dir = scratch("restart");
        let journal = dir.join("jobs.journal");
        let reference = tiny_server(1, u64::MAX)
            .submit(SimRequest::golden("fft_radix8_n512").unwrap())
            .unwrap()
            .wait()
            .unwrap();
        let cfg = || ServerConfig {
            workers: 1,
            quantum: 700,
            journal: Some(journal.clone()),
            ..ServerConfig::default()
        };
        let id = {
            let srv = Server::start(cfg()).unwrap();
            let h = srv
                .submit(SimRequest::golden("fft_radix8_n512").unwrap())
                .unwrap();
            // Drop mid-run (or just after — either way the journal
            // carries the job) without waiting.
            h.id()
        };
        let srv2 = Server::start(cfg()).unwrap();
        let h2 = srv2.handle(id).expect("job recovered from journal");
        let r = h2.wait().unwrap();
        assert!(r.outcome.is_completed());
        assert_eq!(
            r.bytes, reference.bytes,
            "recovered run is byte-identical to an uninterrupted one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    /// Both limits at `u64::MAX` are reachable through the request
    /// decoder; they mean "no limit", not an overflow that kills the
    /// worker (debug) or reports a healthy job `Stalled` (release).
    #[test]
    fn unbounded_limits_from_a_decoded_request_resolve_done() {
        let req = SimRequest::golden("ps_tickets")
            .unwrap()
            .with_sim(|s| s.watchdog(u64::MAX).max_cycles(u64::MAX));
        let req = wire::decode_request(&wire::encode_request(&req)).unwrap();
        let r = tiny_server(1, u64::MAX)
            .submit(req)
            .unwrap()
            .wait_deadline(Duration::from_secs(30))
            .unwrap();
        assert!(r.outcome.is_completed(), "got {:?}", r.outcome.status);
        assert_eq!(r.outcome.report.stats.cycles, 135);
    }

    /// A restart must not change what a tenant's job means: two
    /// tenants' identical, separately submitted, tokened jobs come back
    /// from the journal as two independent jobs — cancelling one leaves
    /// the other to run on its own and bill its own tenant.
    #[test]
    fn recovered_duplicates_stay_independent() {
        let dir = scratch("independent");
        let cfg = || ServerConfig {
            workers: 1,
            quantum: u64::MAX,
            journal: Some(dir.join("jobs.journal")),
            quota: Some(QuotaPolicy {
                burst_cycles: 1_000_000,
                refill_cycles_per_sec: 0,
            }),
            ..ServerConfig::default()
        };
        let sub = |tenant: &str, token: u64| {
            Submission::new(SimRequest::golden("ps_tickets").unwrap())
                .tenant(tenant)
                .token(token)
        };
        // No workers: both jobs are journaled and still unfinished
        // when the server goes away.
        let (alice, bob) = {
            let srv = Server::start_with(cfg(), 0).unwrap();
            let a = srv.submit_with(sub("alice", 1)).unwrap().id();
            let b = srv.submit_with(sub("bob", 2)).unwrap().id();
            (a, b)
        };
        {
            let srv = Server::start_with(cfg(), 0).unwrap();
            let (a, b) = (srv.handle(alice).unwrap(), srv.handle(bob).unwrap());
            assert!(!b.poll().deduped, "recovery must not re-collapse");
            a.cancel();
            assert_eq!(a.wait().unwrap_err(), JobError::Cancelled);
            assert_eq!(b.poll().state, JobState::Queued, "bob rode alice's job");
            assert_eq!(srv.stats().deduped, 0);
        }
        let srv = Server::start(cfg()).unwrap();
        let b = srv.handle(bob).unwrap();
        let r = b.wait_deadline(Duration::from_secs(30)).unwrap();
        assert!(r.outcome.is_completed() && !r.from_cache);
        assert!(!b.poll().deduped);
        assert_eq!(
            srv.handle(alice).unwrap().wait().unwrap_err(),
            JobError::Cancelled
        );
        assert!(
            srv.quota_level("bob").unwrap() < 1_000_000.0,
            "bob pays for bob's run"
        );
        assert_eq!(srv.quota_level("alice"), None, "alice is billed nothing");
        let stats = srv.stats();
        assert_eq!(
            (stats.completed, stats.cancelled, stats.deduped),
            (1, 1, 0),
            "{stats:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One panic under the state lock poisons the mutex; every later
    /// call must recover the guard instead of panicking in turn.
    #[test]
    fn a_panic_under_the_state_lock_poisons_nothing() {
        let srv = tiny_server(1, u64::MAX);
        let shared = Arc::clone(&srv.shared);
        let panicked = std::thread::spawn(move || {
            let _held = shared.state.lock().unwrap();
            panic!("injected panic while holding the state lock");
        })
        .join();
        assert!(panicked.is_err() && srv.shared.state.is_poisoned());
        let limit = Duration::from_secs(30);
        let run = || {
            let h = srv
                .submit(SimRequest::golden("ps_tickets").unwrap())
                .unwrap();
            let r = h.wait_deadline(limit).unwrap();
            assert_eq!(h.poll().state, JobState::Done);
            r
        };
        let (cold, hit) = (run(), run());
        assert!(!cold.from_cache && hit.from_cache);
        assert_eq!(cold.bytes, hit.bytes);
        let stats = srv.stats();
        assert_eq!((stats.submitted, stats.completed), (2, 2), "{stats:?}");
    }

    /// The byte formats, pinned across commits: a fixed single-worker
    /// scenario — a cold job sliced into four commits, a cache hit, a
    /// batch follower, a cancel and a stuck-TCU failure — with a
    /// journal and a persisted cache, hashed (FNV-1a) file by file and
    /// result frame by result frame. The constants were captured by
    /// running this test at the parent of the change that made results
    /// shared bytes; every submission lands before the worker starts,
    /// so the record order is the same on every run.
    #[test]
    fn journal_cache_and_result_bytes_are_pinned() {
        use xmt_sim::simcfg::fnv1a;
        let dir = scratch("pinned");
        let cfg = ServerConfig {
            workers: 1,
            quantum: 2_500,
            cache_dir: Some(dir.join("cache")),
            journal: Some(dir.join("jobs.journal")),
            ..ServerConfig::default()
        };
        let srv = Server::start_with(cfg, 0).unwrap();
        let golden = |name| SimRequest::golden(name).unwrap();
        let stuck = golden("fft_radix8_n512").with_sim(|s| {
            s.faults(xmt_sim::FaultPlan::new(7).stuck_tcu(1, 3))
                .watchdog(5_000)
        });
        let mut handles: Vec<JobHandle> = [
            golden("fft_radix8_n512"),
            golden("ps_tickets"),
            golden("ps_tickets"),
        ]
        .into_iter()
        .map(|r| srv.submit(r).unwrap())
        .collect();
        let batch = vec![golden("spawn_storm"), golden("spawn_storm")];
        handles.extend(srv.submit_batch(batch).into_iter().map(Result::unwrap));
        handles.push(srv.submit(golden("fpu_chain")).unwrap());
        handles[5].cancel();
        handles.push(srv.submit(stuck).unwrap());
        let sh = Arc::clone(&srv.shared);
        srv.workers
            .lock()
            .unwrap()
            .push(std::thread::spawn(move || worker::run(&sh)));
        let mut seen = Vec::new();
        for h in &handles {
            match h.wait_deadline(Duration::from_secs(120)) {
                Ok(r) => seen.push((
                    format!(
                        "result {} slices {} cache {}",
                        h.id(),
                        r.slices,
                        r.from_cache
                    ),
                    fnv1a(&crate::net::encode_result(&r)),
                )),
                Err(e) => seen.push((format!("result {} {e:?}", h.id()), 0)),
            }
        }
        drop(srv);
        seen.push((
            "journal".into(),
            fnv1a(&std::fs::read(dir.join("jobs.journal")).unwrap()),
        ));
        let mut reps: Vec<_> = std::fs::read_dir(dir.join("cache"))
            .unwrap()
            .map(|f| f.unwrap().path())
            .collect();
        reps.sort();
        for rep in reps {
            let name = rep.file_name().unwrap().to_string_lossy().into_owned();
            seen.push((name, fnv1a(&std::fs::read(&rep).unwrap())));
        }
        let seen: Vec<(&str, u64)> = seen.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(seen, PINNED_BYTES);
        let _ = std::fs::remove_dir_all(&dir);
    }

    const PINNED_BYTES: [(&str, u64); 11] = [
        ("result 0 slices 4 cache false", 0x9ff25554f07057cf),
        ("result 1 slices 1 cache false", 0x3c8120d5f7ef8721),
        ("result 2 slices 0 cache true", 0xd20ff95cf0e27bcf),
        ("result 3 slices 1 cache false", 0x129268e302d3fb14),
        ("result 4 slices 1 cache false", 0x129268e302d3fb14),
        ("result 5 Cancelled", 0x0000000000000000),
        ("result 6 slices 1 cache false", 0x2c589da292518f79),
        ("journal", 0x566b66f2520574d2),
        ("09d93dd34e0a4398.rep", 0xbb9aa90c58cb3da1),
        ("64d7c9947dfe04cd.rep", 0x71227a1431ac04e6),
        ("c80f9986e155b0d6.rep", 0x993cab7dc1503657),
    ];

    /// Compaction is a fixpoint: recovery walks every job through the
    /// live transitions, so what it writes back is what it would read
    /// — a second restart finds the same jobs in the same states and
    /// rewrites the same bytes.
    #[test]
    fn compaction_is_a_fixpoint() {
        let dir = scratch("fixpoint");
        let path = dir.join("jobs.journal");
        let fft = SimRequest::golden("fft_radix8_n512").unwrap();
        let stuck = fft.clone().with_sim(|s| {
            s.faults(xmt_sim::FaultPlan::new(7).stuck_tcu(1, 3))
                .watchdog(5_000)
        });
        let tickets = SimRequest::golden("ps_tickets").unwrap();
        let report = wire::encode_report(&tickets.builder().build().run().report);
        let (at_cycle, checkpoint) = {
            let mut m = fft.builder().build();
            let at = m.run_until(1_000).at_cycle();
            (at, m.checkpoint_bytes().unwrap())
        };
        // A finished, a cancelled, a failed, a paused (its first
        // commit superseded) and a probed job (whose commit replay
        // ignores).
        let reqs = [
            tickets,
            SimRequest::golden("spawn_storm").unwrap(),
            stuck,
            fft.clone(),
            fft.clone().with_sim(|s| s.probed(64)),
        ];
        let commit = |id, at_cycle, checkpoint: &[u8]| Record::Commit {
            id,
            at_cycle,
            checkpoint: checkpoint.to_vec(),
        };
        {
            let mut j = Journal::open(&path).unwrap();
            for (id, req) in reqs.iter().enumerate() {
                let sub = Submission::new(req.clone()).tenant("t").token(id as u64);
                j.append(&submit_record(id as u64, &sub)).unwrap();
            }
            for rec in [
                commit(3, 7, &[1, 2, 3]),
                Record::Done {
                    id: 0,
                    slices: 1,
                    from_cache: false,
                    report: report.clone(),
                },
                Record::Cancelled { id: 1 },
                Record::Failed { id: 2 },
                commit(3, at_cycle, &checkpoint),
                commit(4, at_cycle, &checkpoint),
            ] {
                j.append(&rec).unwrap();
            }
        }
        let written = std::fs::read(&path).unwrap();
        let cfg = || ServerConfig {
            workers: 1,
            quantum: 2_000,
            journal: Some(path.clone()),
            ..ServerConfig::default()
        };
        // Restart without workers, so nothing moves between recovery
        // and the drop.
        let restart = || {
            let srv = Server::start_with(cfg(), 0).unwrap();
            let seen: Vec<_> = (0..5)
                .map(|id| {
                    let h = srv.handle(id).unwrap();
                    let result = h.wait_deadline(Duration::ZERO).map(|r| r.bytes);
                    (h.poll(), result)
                })
                .collect();
            (seen, srv.stats())
        };
        let first = restart();
        let a = std::fs::read(&path).unwrap();
        let second = restart();
        let b = std::fs::read(&path).unwrap();
        assert!(a.len() < written.len(), "compaction drops dead records");
        assert_eq!(a, b, "a second restart rewrites the same bytes");
        assert_eq!(first, second, "and finds the same jobs");
        let states: Vec<_> = first.0.iter().map(|(s, _)| (s.state, s.at_cycle)).collect();
        assert_eq!(
            states,
            [
                (JobState::Done, 135),
                (JobState::Cancelled, 0),
                (JobState::Queued, 0),
                (JobState::Paused, at_cycle),
                (JobState::Queued, 0),
            ]
        );
        assert_eq!(first.0[0].1, Ok(report));
        // With workers the unfinished three run out as they would
        // have: the failure repeats, the paused job continues from its
        // checkpoint to the uninterrupted run's bytes.
        let srv = Server::start(cfg()).unwrap();
        let wait = |id| {
            let h = srv.handle(id).unwrap();
            h.wait_deadline(Duration::from_secs(120)).unwrap()
        };
        assert!(matches!(
            wait(2).outcome.status,
            RunStatus::Failed(SimError::Stalled { .. })
        ));
        let whole = wire::encode_report(&fft.builder().build().run().report);
        assert_eq!(wait(3).bytes, whole);
        assert_eq!(wait(4).bytes, whole);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
