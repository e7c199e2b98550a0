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
//! resubmitted sweep is free. An admitted submission whose result is
//! resident in the cache's memory tier resolves at admission, without
//! a worker.
//!
//! Content addresses: a submission's key is [`SimRequest::digest`],
//! whose program half is memoized per server by the request's program
//! key (golden name, or FFT shape) — a hit builds no program.
//!
//! Durability: with [`ServerConfig::journal`] set, every accepted
//! submission is fsynced to the write-ahead journal *before* its
//! handle is returned, and terminal states append the result;
//! preemption writes nothing (a paused job keeps its machine in
//! memory). [`Server::start`] replays the journal (see
//! [`crate::journal`]), requeues in-flight jobs to run again from cycle
//! 0, and compacts the file — so a `SIGKILL` mid-batch costs at most
//! the torn tail record and the in-flight jobs' progress, and the
//! restarted batch finishes with byte-identical results.

mod recovery;
mod state;
mod worker;

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use self::state::{Ended, State, Terminal};
use crate::cache::{CacheStats, ResultCache};
use crate::job::{JobError, JobId, JobResult, JobState, JobStatus, Lane};
use crate::journal::{Journal, Record};
use crate::request::{ProgramKey, SimRequest};
use crate::wire;
use xmt_sim::{program_digest, IntervalRow};

/// Programs the address memo holds; a miss past it starts the memo
/// over.
const PROGRAM_MEMO_ENTRIES: usize = 256;

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
    /// Preemption quantum in *simulated* cycles: a job is paused at
    /// its next quiescent point past this many cycles per slice and
    /// requeued.
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
    /// Programs built and encoded to make a content address: the
    /// address memo's misses. A request whose golden name or FFT
    /// shape was seen before costs none.
    pub programs_digested: u64,
    /// Returns from an idle worker's wait that found no job to run and
    /// no shutdown: wake-ups spent on nothing. A cache hit answered at
    /// admission wakes no worker, so it adds none.
    pub idle_wakeups: u64,
    /// Terminal jobs retired from the job table: past the newest 4 096
    /// terminal jobs, the oldest leaves (once no handle names it), and
    /// its id answers [`JobError::UnknownJob`].
    pub retired: u64,
}

// The statistics frame's server half, in wire order.
xmt_sim::word_codec!(
    pub(crate) ServerStats,
    13,
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
        programs_digested,
        idle_wakeups,
        retired,
    ]
);

/// The program half of content addresses, memoized: program key →
/// program digest, at most `capacity` of them.
struct ProgramMemo {
    capacity: usize,
    digests: HashMap<ProgramKey<'static>, u64>,
    /// Misses: programs built and encoded.
    digested: u64,
}

impl ProgramMemo {
    fn new(capacity: usize) -> ProgramMemo {
        ProgramMemo {
            capacity,
            digests: HashMap::new(),
            digested: 0,
        }
    }
}

/// The content address of `req` — [`SimRequest::digest`]'s value —
/// with its program half from `memo`. A miss builds and encodes the
/// program with the memo unlocked; a full memo starts over.
fn address(memo: &Mutex<ProgramMemo>, req: &SimRequest) -> u64 {
    let key = req.program_key();
    let known = {
        let m = unpoison(memo.lock());
        // The memo's owned keys, read as keys borrowing for as long as
        // `key` does: the lookup copies nothing out of the request.
        let digests: &HashMap<ProgramKey<'_>, u64> = &m.digests;
        digests.get(&key).copied()
    };
    let program = known.unwrap_or_else(|| {
        let digest = program_digest(&req.program());
        let mut m = unpoison(memo.lock());
        if m.digests.len() >= m.capacity {
            m.digests.clear();
        }
        m.digests.insert(key.into_owned(), digest);
        m.digested += 1;
        digest
    });
    req.digest_with(program)
}

pub(crate) struct Shared {
    state: Mutex<State>,
    /// Where [`JobHandle::wait`] sleeps, and only it: signalled to all
    /// when a job resolves ([`publish`]) and at shutdown.
    cv: Condvar,
    /// Where idle workers sleep, and only they: signalled once per job
    /// admission enqueues, and to all at shutdown, at a worker kill
    /// and when a kill's rollback requeues its job.
    work: Condvar,
    /// The result cache. Lock order: `state` before `cache`, never
    /// the reverse.
    cache: Mutex<ResultCache>,
    programs: Mutex<ProgramMemo>,
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

/// Journal the jobs that ended as one batch with one fsync,
/// best-effort (a failed append only costs restart work — the
/// in-memory result already stands, and replay re-executes anything
/// not recorded), then wake the handles waiting for results. When
/// nothing ended there is nothing to journal and nobody to wake.
fn publish(shared: &Shared, ended: &[Ended]) {
    if ended.is_empty() {
        return;
    }
    if let Some(j) = unpoison(shared.journal.lock()).as_mut() {
        let _ = j.append_frames(|b| ended.iter().for_each(|e| e.put_frame(b)));
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
/// restart on the same path runs them again.
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
    /// in-flight jobs re-enter the run queues to run from cycle 0, and
    /// the journal file is compacted. The only error
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
        let programs = Mutex::new(ProgramMemo::new(PROGRAM_MEMO_ENTRIES));
        let journal = match &cfg.journal {
            None => None,
            Some(path) => {
                let replay = Journal::replay(path)?;
                let compact = recovery::recover(&mut st, replay, &programs);
                Some(Journal::rewrite(path, &compact)?)
            }
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(st),
            cv: Condvar::new(),
            work: Condvar::new(),
            cache: Mutex::new(ResultCache::new(cfg.cache_entries, cfg.cache_dir)),
            programs,
            quantum: cfg.quantum.max(1),
            max_queued: cfg.max_queued,
            quota: cfg.quota,
            journal: Mutex::new(journal),
        });
        let srv = Server {
            shared,
            workers: Mutex::new(Vec::new()),
        };
        for _ in 0..workers {
            srv.spawn_worker();
        }
        Ok(srv)
    }

    /// One more worker thread in the pool.
    fn spawn_worker(&self) {
        let sh = Arc::clone(&self.shared);
        unpoison(self.workers.lock()).push(std::thread::spawn(move || worker::run(&sh)));
    }

    /// Queue one request under the default tenant and lane; returns
    /// its handle, or a typed admission error
    /// ([`JobError::Overloaded`], [`JobError::QuotaExceeded`], …).
    pub fn submit(&self, req: SimRequest) -> Result<JobHandle, JobError> {
        self.submit_with(Submission::new(req))
    }

    /// Queue one submission with explicit tenant/lane/token metadata.
    pub fn submit_with(&self, sub: Submission) -> Result<JobHandle, JobError> {
        let digest = address(&self.shared.programs, &sub.req);
        self.admit(sub, digest, None)
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
                let digest = address(&self.shared.programs, &sub.req);
                let digest_key = dedupable.then_some(digest);
                let primary = digest_key.and_then(|d| primaries.get(&d).copied());
                let r = self.admit(sub, digest, primary);
                if let (Ok(h), Some(d), None) = (&r, digest_key, primary) {
                    primaries.insert(d, h.id());
                }
                r
            })
            .collect()
    }

    /// Admission: shutdown check, idempotency-token lookup, queue
    /// bound, quota, journal, insert, then follow, answer from the
    /// cache, or enqueue. `digest` is the content address; `dedup_of`
    /// marks a batch follower (skips the queue/quota checks —
    /// followers cost no execution).
    fn admit(
        &self,
        sub: Submission,
        digest: u64,
        dedup_of: Option<JobId>,
    ) -> Result<JobHandle, JobError> {
        let cacheable = sub.req.sim.probe_interval.is_none();
        let mut st = unpoison(self.shared.state.lock());
        if st.shutdown {
            return Err(JobError::Shutdown);
        }
        if sub.token != 0 {
            if let Some(id) = st.tokens.get(&sub.tenant, sub.token) {
                st.stats.tokens_reused += 1;
                return Ok(self.handle_to(&mut st, id));
            }
        }
        let primary = dedup_of.filter(|&p| st.jobs.contains(p));
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
        // A result resident in memory answers at once, through the
        // worker's transitions: nobody holds the handle yet, so nobody
        // waits to be woken, and no worker is. Anything else — a miss,
        // a result only on disk — waits for a worker, which looks again.
        let hit = if primary.is_none() && cacheable {
            let resident = unpoison(self.shared.cache.lock()).get_resident(digest);
            resident.map(|(report, cycles)| Terminal::hit(report, cycles))
        } else {
            None
        };
        // A hit is terminal at once: a full table retires its oldest
        // terminal row first, and the hit's row takes that slot.
        if hit.is_some() {
            st.make_room();
        }
        st.insert(id, sub, digest);
        let ended = match (primary, hit) {
            (Some(pid), _) => st.follow(id, pid),
            (None, Some(hit)) => st.resolve(id, hit),
            (None, None) => {
                st.enqueue(id);
                let h = self.handle_to(&mut st, id);
                drop(st);
                // One job: one idle worker to wake.
                self.shared.work.notify_one();
                return Ok(h);
            }
        };
        let h = self.handle_to(&mut st, id);
        drop(st);
        publish(&self.shared, &ended);
        Ok(h)
    }

    /// A handle to `id`, which is in the table: pinned under the same
    /// lock, so the row stays until the handle drops.
    fn handle_to(&self, st: &mut State, id: JobId) -> JobHandle {
        st.pin(id);
        JobHandle {
            id,
            shared: Arc::clone(&self.shared),
        }
    }

    /// A handle to an existing job by id (`None` for an id never issued
    /// or retired) — how the network layer reattaches to
    /// journal-recovered jobs.
    pub fn handle(&self, id: JobId) -> Option<JobHandle> {
        let mut st = unpoison(self.shared.state.lock());
        st.jobs.contains(id).then(|| self.handle_to(&mut st, id))
    }

    /// The job table's storage, for memory tests: the slots its row slab
    /// has made (rows plus vacated slots), the rows unfinished, and the
    /// tenant names its token store holds.
    #[doc(hidden)]
    pub fn table_footprint(&self) -> (usize, usize, usize) {
        let st = unpoison(self.shared.state.lock());
        (st.jobs.slots(), st.jobs.unfinished(), st.tokens.tenants())
    }

    /// Kill one worker mid-job (failure-injection hook): the next
    /// slice to finish anywhere in the pool is discarded as if its
    /// thread died, the job starts over from cycle 0, and the thread
    /// exits. A replacement worker is spawned immediately so the pool
    /// keeps its strength.
    pub fn kill_worker(&self) {
        unpoison(self.shared.state.lock()).kill_requests += 1;
        self.spawn_worker();
        self.shared.work.notify_all();
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
        s.programs_digested = unpoison(self.shared.programs.lock()).digested;
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
        self.shared.work.notify_all();
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
        // The handle pins its row, so the fallback is never read.
        st.jobs.get(self.id).map_or(GONE, |e| e.status)
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

    /// [`JobHandle::wait_deadline`] straight to the wire: the result's
    /// [`crate::net::encode_result`] bytes appended to `out`, the
    /// completed report copied once from its shared allocation and not
    /// decoded. With `Duration::ZERO` it never blocks: a peek at a job
    /// that may already be terminal.
    pub(crate) fn put_result(&self, timeout: Duration, out: &mut Vec<u8>) -> Result<(), JobError> {
        self.terminal_until(Instant::now().checked_add(timeout))?
            .put_result(out)
    }

    /// Builds the public result from the terminal value — decoding a
    /// report — with the lock released.
    fn wait_until(&self, deadline: Option<Instant>) -> Result<JobResult, JobError> {
        self.terminal_until(deadline)?.into_result()
    }

    /// Waits under the lock for the terminal value (a clone sharing the
    /// report), until `deadline` if there is one.
    fn terminal_until(&self, deadline: Option<Instant>) -> Result<Terminal, JobError> {
        let mut st = unpoison(self.shared.state.lock());
        loop {
            let Some(e) = st.jobs.get(self.id) else {
                return Err(JobError::UnknownJob);
            };
            if let Some(r) = &e.result {
                return Ok(r.clone());
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
        }
    }

    /// Ask the server to cancel the job. Queued jobs cancel
    /// immediately; a running slice is abandoned at its next commit
    /// point. Cancelling a dedupe primary cancels its followers (they
    /// share one execution). A job that already finished keeps its
    /// result.
    pub fn cancel(&self) {
        let ended = unpoison(self.shared.state.lock()).cancel(self.id);
        publish(&self.shared, &ended);
    }

    /// Take the probe-row stream (probed requests only; `None` for
    /// unprobed requests or if already taken). Rows arrive slice by
    /// slice as the job runs; the channel closes at the terminal
    /// state.
    pub fn take_stream(&mut self) -> Option<mpsc::Receiver<IntervalRow>> {
        let mut st = unpoison(self.shared.state.lock());
        let rx = st.jobs.get_mut(self.id).and_then(|e| e.stream_rx.take());
        rx.map(|rx| *rx)
    }
}

/// What [`JobHandle::poll`] would report for a row that is gone.
const GONE: JobStatus = JobStatus {
    state: JobState::Cancelled,
    at_cycle: 0,
    slices: 0,
    from_cache: false,
    deduped: false,
};

impl Drop for JobHandle {
    /// The row this handle pinned may retire now.
    fn drop(&mut self) {
        unpoison(self.shared.state.lock()).unpin(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::state::{HIGH_BURST, RETAINED_JOBS};
    use super::submit_record;
    use super::*;
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

    /// The cycles a cold run files with its cache entry, which a hit
    /// resolves with undecoded, are its report's and its outcome's.
    #[test]
    fn a_cache_entry_carries_its_runs_cycles() {
        let srv = tiny_server(1, 2_400);
        let req = SimRequest::golden("fft_radix8_n512").unwrap();
        let cold = srv.submit(req.clone()).unwrap().wait().unwrap();
        assert!(!cold.from_cache && cold.slices >= 2);
        let entry = unpoison(srv.shared.cache.lock()).get_resident(req.digest());
        let (bytes, cycles) = entry.expect("the cold run was cached");
        assert_eq!(bytes[..], cold.bytes[..]);
        assert_eq!(cycles, wire::decode_report(&bytes).unwrap().stats.cycles);
        assert_eq!(cycles, cold.outcome.at_cycle());
        let hit = srv.submit(req).unwrap();
        assert_eq!(hit.poll().at_cycle, cycles);
        assert_eq!(hit.wait().unwrap().outcome.at_cycle(), cycles);
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

    /// A killed worker takes the job's paused machine with it, and the
    /// job starts over from cycle 0. The subscriber still gets the
    /// uninterrupted row stream with each row once, the report is the
    /// direct run's, and the tenant's bucket — which never refills —
    /// ends where a run without the kill leaves it.
    #[test]
    fn a_killed_probed_job_starts_over_without_resending_or_rebilling() {
        let req = SimRequest::golden("fft_radix8_n512")
            .unwrap()
            .with_sim(|s| s.probed(64));
        let burst = 1_000_000;
        let run = |quantum: u64, kill: bool| {
            let cfg = ServerConfig {
                workers: 1,
                quantum,
                quota: Some(QuotaPolicy {
                    burst_cycles: burst,
                    refill_cycles_per_sec: 0,
                }),
                ..ServerConfig::default()
            };
            // The worker starts once the kill is aimed: nothing runs
            // before it.
            let srv = Server::start_with(cfg, 0).unwrap();
            let mut h = srv
                .submit_with(Submission::new(req.clone()).tenant("t"))
                .unwrap();
            let rx = h.take_stream().unwrap();
            if kill {
                // What `kill_worker` does, with the kill aimed at the
                // slice that commits after two committed ones: it lands
                // part-way through the job, never after its end, and the
                // run that starts over passes a pause that was already
                // streamed and billed before it reaches new cycles.
                let mut st = unpoison(srv.shared.state.lock());
                let e = st.jobs.get(h.id()).unwrap();
                assert!(e.result.is_none(), "the job outran the kill");
                st.kill_requests += 1;
                st.kill_aim = Some((h.id(), 2));
                drop(st);
                srv.spawn_worker();
            }
            srv.spawn_worker();
            let r = h.wait_deadline(Duration::from_secs(120)).unwrap();
            assert!(r.outcome.is_completed());
            assert_eq!(unpoison(srv.shared.state.lock()).kill_requests, 0);
            let rows: Vec<IntervalRow> = rx.iter().collect();
            (rows, r.bytes, r.slices, srv.quota_level("t").unwrap())
        };
        let (whole_rows, _, _, _) = run(u64::MAX, false);
        let (rows, bytes, slices, level) = run(900, false);
        let (killed_rows, killed_bytes, killed_slices, killed_level) = run(900, true);
        let direct = req.builder().build().run().report;
        assert!(!whole_rows.is_empty());
        assert_eq!(rows, whole_rows);
        assert_eq!(killed_rows, whole_rows, "each row once, in order");
        assert_eq!(bytes, wire::encode_report(&direct));
        assert_eq!(killed_bytes, bytes);
        assert!(
            killed_slices > slices,
            "the run started over after the kill"
        );
        assert_eq!(level, (burst - direct.stats.cycles) as f64);
        assert_eq!(killed_level, level, "no cycle is billed twice");
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

    /// The memoized address is [`SimRequest::digest`]'s value for every
    /// golden case and for FFTs of 1, 2 and 3 dimensions × copies 1 and
    /// 2 × two input seeds. The seeds share one memo entry and get
    /// different addresses.
    #[test]
    fn memoized_addresses_are_the_digest() {
        let memo = Mutex::new(ProgramMemo::new(PROGRAM_MEMO_ENTRIES));
        let goldens = xmt_fft::golden::cases()
            .into_iter()
            .chain(xmt_fft::golden::scaling_cases());
        for case in goldens {
            let req = SimRequest::golden(case.name).unwrap();
            assert_eq!(address(&memo, &req), req.digest(), "{}", case.name);
        }
        let arch = xmt_sim::XmtConfig::xmt_4k().scaled_to(4);
        let shapes: [&[usize]; 3] = [&[64], &[16, 64], &[8, 8, 8]];
        for dims in shapes {
            for copies in [1, 2] {
                let entries = || unpoison(memo.lock()).digests.len();
                let before = entries();
                let [a, b] = [1, 2].map(|seed| {
                    let req = SimRequest::fft(dims, copies, seed, &arch);
                    let d = address(&memo, &req);
                    assert_eq!(d, req.digest(), "{dims:?} x{copies} seed {seed}");
                    d
                });
                assert_ne!(a, b, "the seed is in the address");
                assert_eq!(entries(), before + 1, "two seeds, one program");
            }
        }
        let m = unpoison(memo.lock());
        assert_eq!(m.digested, m.digests.len() as u64, "one miss per program");
    }

    /// More programs than the memo holds: every address still equals
    /// the digest, and the memo never holds more than its capacity.
    #[test]
    fn a_full_memo_starts_over_and_stays_exact() {
        let memo = Mutex::new(ProgramMemo::new(3));
        let arch = xmt_sim::XmtConfig::xmt_4k().scaled_to(4);
        let reqs: Vec<SimRequest> = SimRequest::paper_batch()
            .into_iter()
            .chain([64, 128, 256].map(|n| SimRequest::fft(&[n], 1, 0, &arch)))
            .collect();
        for _ in 0..2 {
            for req in &reqs {
                assert_eq!(address(&memo, req), req.digest());
                assert!(unpoison(memo.lock()).digests.len() <= 3);
            }
        }
        assert!(unpoison(memo.lock()).digested > reqs.len() as u64);
    }

    /// A result resident in memory answers at admission: with no worker
    /// at all, a plain submission resolves `Done` from the cache in zero
    /// slices, while its probed twin — which the cache cannot serve —
    /// waits. A would-be hit still passes the gates first: a tenant in
    /// debt and a full queue are refused.
    #[test]
    fn a_resident_hit_resolves_at_admission_after_the_gates() {
        let quota = QuotaPolicy {
            burst_cycles: 1_000,
            refill_cycles_per_sec: 0,
        };
        let srv = Server::start_with(
            ServerConfig {
                max_queued: 1,
                quota: Some(quota),
                ..ServerConfig::default()
            },
            0,
        )
        .unwrap();
        let req = SimRequest::golden("ps_tickets").unwrap();
        let report = wire::encode_report(&req.builder().build().run().report);
        unpoison(srv.shared.cache.lock()).insert(req.digest(), report.clone(), 135);
        let h = srv.submit(req.clone()).unwrap();
        assert_eq!(
            h.poll(),
            JobStatus {
                state: JobState::Done,
                at_cycle: 135,
                slices: 0,
                from_cache: true,
                deduped: false,
            }
        );
        let r = h.wait_deadline(Duration::ZERO).unwrap();
        assert!(r.from_cache && r.slices == 0 && r.bytes == report);
        assert_eq!(srv.quota_level("default"), Some(1_000.0), "hits are free");

        unpoison(srv.shared.state.lock())
            .bucket(&quota, "debtor")
            .level -= 2_000.0;
        let in_debt = Submission::new(req.clone()).tenant("debtor");
        assert_eq!(
            srv.submit_with(in_debt).unwrap_err(),
            JobError::QuotaExceeded
        );

        let probed = srv.submit(req.clone().with_sim(|s| s.probed(64))).unwrap();
        assert_eq!(probed.poll().state, JobState::Queued);
        assert_eq!(srv.submit(req).unwrap_err(), JobError::Overloaded);

        let stats = srv.stats();
        assert_eq!(
            (
                stats.completed,
                stats.rejected_quota,
                stats.rejected_overload
            ),
            (1, 1, 1),
            "{stats:?}"
        );
        assert_eq!(stats.programs_digested, 1, "one program, one build");
        let cs = srv.cache_stats();
        assert_eq!((cs.hits, cs.misses), (1, 0), "refusals look nothing up");
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
    /// scenario — a cold job run in four slices, a cache hit, a batch
    /// follower, a cancel and a stuck-TCU failure — with a journal and
    /// a persisted cache, hashed (FNV-1a) file by file and result frame
    /// by result frame. The result-frame and `.rep` constants were
    /// captured by running this test at the parent of the change that
    /// made results shared bytes; every submission lands before the
    /// worker starts, so the record order is the same on every run.
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
        srv.spawn_worker();
        let mut seen = Vec::new();
        for h in &handles {
            match h.wait_deadline(Duration::from_secs(120)) {
                Ok(r) => {
                    // The bytes a `RESP_RESOLVED` acknowledgement carries
                    // after the id, built from the stored report, are
                    // these: the hashes below pin both frames.
                    let mut peeked = Vec::new();
                    h.put_result(Duration::ZERO, &mut peeked).unwrap();
                    assert_eq!(peeked, crate::net::encode_result(&r), "job {}", h.id());
                    seen.push((
                        format!(
                            "result {} slices {} cache {}",
                            h.id(),
                            r.slices,
                            r.from_cache
                        ),
                        fnv1a(&peeked),
                    ))
                }
                Err(e) => {
                    let peeked = h.put_result(Duration::ZERO, &mut Vec::new());
                    assert_eq!(peeked, Err(e), "job {}", h.id());
                    seen.push((format!("result {} {e:?}", h.id()), 0))
                }
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
        // Re-captured when preemption stopped journaling `Commit`s: the
        // file lost the cold job's three checkpoints and nothing else
        // (it was 0x566b66f2520574d2).
        ("journal", 0xf9ff54ae5a29af2b),
        ("09d93dd34e0a4398.rep", 0xbb9aa90c58cb3da1),
        ("64d7c9947dfe04cd.rep", 0x71227a1431ac04e6),
        ("c80f9986e155b0d6.rep", 0x993cab7dc1503657),
    ];

    /// A restart keeps what the live table would: every unfinished job
    /// and the newest [`state::RETAINED_JOBS`] terminal ones by the
    /// order their records were written, and compaction writes only
    /// those. The highest id issued was retired, so the compacted file
    /// carries it in an empty `Commit`: no restart issues it again.
    #[test]
    fn a_restart_keeps_the_newest_terminal_jobs() {
        let dir = scratch("retention");
        let path = dir.join("jobs.journal");
        let tickets = SimRequest::golden("ps_tickets").unwrap();
        let report = wire::encode_report(&tickets.builder().build().run().report);
        const JOBS: u64 = 5_003;
        let unfinished = [7, 3_000, 5_001];
        {
            let mut j = Journal::open(&path).unwrap();
            let subs: Vec<Record> = (0..JOBS)
                .map(|id| submit_record(id, &Submission::new(tickets.clone()).token(id + 1)))
                .collect();
            j.append_all(&subs).unwrap();
            // The highest id finishes first: it is the oldest result.
            let dones: Vec<Record> = (0..JOBS)
                .rev()
                .filter(|id| !unfinished.contains(id))
                .map(|id| Record::Done {
                    id,
                    slices: 1,
                    from_cache: false,
                    report: report.clone(),
                })
                .collect();
            j.append_all(&dones).unwrap();
        }
        assert_eq!(Journal::replay(&path).unwrap().jobs.len(), JOBS as usize);
        // The newest 4 096 results are those of the lowest finished ids.
        let kept = |id: u64| id <= 4_097 || unfinished.contains(&id);
        let cfg = || ServerConfig {
            journal: Some(path.clone()),
            ..ServerConfig::default()
        };
        let check = |srv: &Server, retired| {
            let stats = srv.stats();
            assert_eq!((stats.retired, stats.queued), (retired, 3), "{stats:?}");
            for id in 0..JOBS {
                let state = srv.handle(id).map(|h| h.poll().state);
                let want = if unfinished.contains(&id) {
                    Some(JobState::Queued)
                } else {
                    kept(id).then_some(JobState::Done)
                };
                assert_eq!(state, want, "job {id}");
            }
        };
        check(&Server::start_with(cfg(), 0).unwrap(), 904);
        let a = std::fs::read(&path).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.next_id, JOBS);
        let ids: Vec<u64> = replay.jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, (0..JOBS).filter(|&id| kept(id)).collect::<Vec<_>>());
        let ended = replay.jobs.iter().filter(|j| j.terminal.is_some()).count();
        assert_eq!(ended, RETAINED_JOBS);
        // Exactly those jobs' records, and the watermark.
        let mut tags = [0usize; 5];
        let mut rest = &a[..];
        while !rest.is_empty() {
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            tags[usize::from(rest[12])] += 1;
            rest = &rest[12 + len..];
        }
        assert_eq!(tags, [RETAINED_JOBS + 3, 1, RETAINED_JOBS, 0, 0]);
        // A second restart finds the same jobs, rewrites the same bytes
        // and issues the next id, not the retired one.
        let srv = Server::start_with(cfg(), 0).unwrap();
        check(&srv, 0);
        assert_eq!(std::fs::read(&path).unwrap(), a, "compaction is a fixpoint");
        assert_eq!(srv.submit(tickets).unwrap().id(), JOBS);
        drop(srv);
        let _ = std::fs::remove_dir_all(&dir);
    }

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
        // A finished, a cancelled, a failed, a paused and a probed job.
        // The last two have `Commit`s, as servers that serialized
        // paused machines wrote them: replay ignores those.
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
                (JobState::Queued, 0),
                (JobState::Queued, 0),
            ]
        );
        assert_eq!(first.0[0].1, Ok(report));
        // With workers the unfinished three run again from cycle 0:
        // the failure repeats, and the job that was paused finishes
        // with the uninterrupted run's bytes.
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
