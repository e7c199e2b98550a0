//! The job server: a sharded pool of host worker threads over a
//! two-lane round-robin preemptive scheduler with admission control
//! and a write-ahead journal.
//!
//! Scheduling model: two FIFO run queues of job ids — a `High` express
//! lane and the default `Normal` lane — under a mutex+condvar. A
//! worker pops the head (`High` first, with a bounded anti-starvation
//! share for `Normal`), rebuilds the job's machine — from scratch on
//! its first slice, from its serialized checkpoint on later ones — and
//! advances it by one *quantum* of simulated cycles
//! ([`Machine::run_until`]). A job that outlives its quantum is
//! checkpointed at the quiescent pause point, serialized back to
//! bytes, and pushed to the *back* of its lane: round-robin fairness,
//! so paper-scale runs interleave with short sweep rows instead of
//! starving them. Machines never cross threads — only requests and
//! checkpoint bytes live in shared state, which keeps every worker's
//! machine fully thread-local (the threaded engine's `Box<dyn
//! Network>` internals are never `Send`-required).
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
//!
//! Failure injection: [`Server::kill_worker`] marks one pending kill
//! and spawns a replacement thread. The next worker to finish a slice
//! consumes the kill *instead of committing*: its slice's results
//! (checkpoint, streamed rows, even a terminal report) are discarded
//! as if the thread had died mid-job, the job is requeued exactly as
//! it was popped, and the thread exits. Because every slice starts
//! from a deterministic checkpoint, the rerun is bit-identical — the
//! contract the server smoke test pins.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cache::{CacheStats, ResultCache};
use crate::job::{JobError, JobId, JobResult, JobState, JobStatus, Lane};
use crate::journal::{Journal, Record, Terminal};
use crate::request::SimRequest;
use crate::wire;
use xmt_sim::{
    Checkpoint, IntervalProbe, IntervalRow, Machine, MachineStats, Probe, RunOutcome, RunStatus,
    SimError, UtilizationReport,
};

/// Consecutive `High`-lane pops a worker may take while `Normal` work
/// waits, before the scheduler grants `Normal` one pop.
const HIGH_BURST: u32 = 3;

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

/// One tenant's bucket: balance plus the wall-clock instant it was
/// last brought current.
struct Bucket {
    level: f64,
    last: Instant,
}

impl Bucket {
    fn full(q: &QuotaPolicy) -> Bucket {
        Bucket {
            level: q.burst_cycles as f64,
            last: Instant::now(),
        }
    }

    fn refill(&mut self, q: &QuotaPolicy) {
        let dt = self.last.elapsed().as_secs_f64();
        self.last = Instant::now();
        self.level = (self.level + dt * q.refill_cycles_per_sec as f64).min(q.burst_cycles as f64);
    }

    /// Bring the bucket current and say whether a new job may enter.
    fn admit(&mut self, q: &QuotaPolicy) -> bool {
        self.refill(q);
        self.level > 0.0
    }
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

/// Everything the server knows about one job.
struct JobEntry {
    req: SimRequest,
    digest: u64,
    tenant: String,
    lane: Lane,
    state: JobState,
    at_cycle: u64,
    slices: u32,
    from_cache: bool,
    /// True for a dedupe follower: this entry never executes, its
    /// result fans out from its batch primary.
    deduped: bool,
    /// Dedupe followers to resolve when this (primary) job resolves.
    followers: Vec<JobId>,
    /// Serialized checkpoint between slices (`None` before the first
    /// slice and after a terminal state).
    checkpoint: Option<Vec<u8>>,
    /// The paused machine's probe, carried across slices so the
    /// resumed sample stream is bit-identical to an uninterrupted
    /// run's (see [`IntervalProbe::into_carried`]). `None` for
    /// unprobed jobs and before the first probed slice.
    probe: Option<IntervalProbe>,
    /// Probe samples already streamed to the subscriber — the carried
    /// probe's ring holds the whole history, so each commit sends only
    /// the rows past this watermark.
    rows_sent: u64,
    cancelled: bool,
    /// Live end of the probe-row stream; dropped at terminal states so
    /// the receiver's iteration ends.
    stream: Option<mpsc::Sender<IntervalRow>>,
    /// Receiver end, parked here until a subscriber takes it
    /// ([`JobHandle::take_stream`]).
    stream_rx: Option<mpsc::Receiver<IntervalRow>>,
    result: Option<Result<JobResult, JobError>>,
}

impl JobEntry {
    fn fresh(req: SimRequest, digest: u64, tenant: String, lane: Lane) -> JobEntry {
        let (stream, stream_rx) = if req.sim.probe_interval.is_some() {
            let (tx, rx) = mpsc::channel();
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        JobEntry {
            req,
            digest,
            tenant,
            lane,
            state: JobState::Queued,
            at_cycle: 0,
            slices: 0,
            from_cache: false,
            deduped: false,
            followers: Vec::new(),
            checkpoint: None,
            probe: None,
            rows_sent: 0,
            cancelled: false,
            stream,
            stream_rx,
            result: None,
        }
    }
}

fn lane_idx(lane: Lane) -> usize {
    match lane {
        Lane::Normal => 0,
        Lane::High => 1,
    }
}

/// Scheduler state under the mutex.
struct State {
    /// Run queues by lane: `[Normal, High]`.
    queues: [VecDeque<JobId>; 2],
    /// Consecutive `High` pops taken while `Normal` work waited.
    high_streak: u32,
    jobs: HashMap<JobId, JobEntry>,
    next_id: JobId,
    shutdown: bool,
    /// Pending worker kills ([`Server::kill_worker`]); consumed at
    /// slice commit.
    kill_requests: usize,
    /// Idempotency map: `(tenant, token)` → the job it first named.
    tokens: HashMap<(String, u64), JobId>,
    /// Per-tenant quota buckets (only with a [`QuotaPolicy`]).
    buckets: HashMap<String, Bucket>,
    stats: ServerStats,
}

impl State {
    /// Resolve a job to a terminal state and fan the result out to its
    /// dedupe followers. Returns the journal records to append (the
    /// caller appends them *after* dropping the state lock). Jobs that
    /// already resolved are left untouched.
    fn resolve(
        &mut self,
        id: JobId,
        state: JobState,
        result: Result<JobResult, JobError>,
    ) -> Vec<Record> {
        let mut recs = Vec::new();
        let mut pending = vec![id];
        while let Some(jid) = pending.pop() {
            let followers = {
                let Some(e) = self.jobs.get_mut(&jid) else {
                    continue;
                };
                if e.result.is_some() {
                    continue;
                }
                e.state = state;
                e.checkpoint = None;
                e.probe = None;
                e.stream = None;
                if e.deduped {
                    // Followers never ran; mirror the primary's
                    // progress marks so their status reads sensibly.
                    if let Ok(r) = &result {
                        e.at_cycle = r.outcome.at_cycle();
                        e.from_cache = r.from_cache;
                    }
                }
                e.result = Some(result.clone());
                std::mem::take(&mut e.followers)
            };
            match state {
                JobState::Done => self.stats.completed += 1,
                JobState::Failed => self.stats.failed += 1,
                JobState::Cancelled => self.stats.cancelled += 1,
                _ => {}
            }
            let rec = match (state, &result) {
                (JobState::Done, Ok(r)) => Some(Record::Done {
                    id: jid,
                    slices: r.slices,
                    from_cache: r.from_cache,
                    report: r.bytes.clone(),
                }),
                (JobState::Failed, _) => Some(Record::Failed { id: jid }),
                (JobState::Cancelled, _) => Some(Record::Cancelled { id: jid }),
                _ => None,
            };
            recs.extend(rec);
            pending.extend(followers);
        }
        recs
    }

    /// Debit a committed slice's simulated cycles from its tenant's
    /// bucket (no-op when unmetered).
    fn charge(&mut self, quota: &Option<QuotaPolicy>, tenant: &str, cycles: u64) {
        if cycles == 0 {
            return;
        }
        if let Some(q) = quota {
            let b = self
                .buckets
                .entry(tenant.to_string())
                .or_insert_with(|| Bucket::full(q));
            b.refill(q);
            b.level -= cycles as f64;
        }
    }
}

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

/// Append records to the journal, best-effort (a failed append only
/// costs restart work — the in-memory result already stands, and
/// replay re-executes anything not recorded).
fn journal_append(shared: &Shared, recs: &[Record]) {
    if recs.is_empty() {
        return;
    }
    if let Some(j) = shared.journal.lock().unwrap().as_mut() {
        for r in recs {
            if j.append(r).is_err() {
                break;
            }
        }
    }
}

/// What one worker slice produced (built outside the lock).
struct SliceOut {
    /// `Some` when the run ended (completed or failed) this slice.
    terminal: Option<RunOutcome>,
    /// Serialized checkpoint when the job was preempted instead.
    cp_bytes: Option<Vec<u8>>,
    at_cycle: u64,
    /// Probe rows not yet streamed (the tail past the job's
    /// `rows_sent` watermark).
    rows: Vec<IntervalRow>,
    /// The machine's probe, to carry into the next slice.
    probe: Option<IntervalProbe>,
    /// The new `rows_sent` watermark after `rows` are delivered.
    rows_sent: u64,
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
        let mut st = State {
            queues: [VecDeque::new(), VecDeque::new()],
            high_streak: 0,
            jobs: HashMap::new(),
            next_id: 0,
            shutdown: false,
            kill_requests: 0,
            tokens: HashMap::new(),
            buckets: HashMap::new(),
            stats: ServerStats::default(),
        };
        let journal = match &cfg.journal {
            None => None,
            Some(path) => {
                let replay = Journal::replay(path)?;
                let compact = recover(&mut st, replay.jobs);
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
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&sh))
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
    /// semantics).
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
        let Submission {
            req,
            tenant,
            lane,
            token,
        } = sub;
        let mut st = self.shared.state.lock().unwrap();
        if st.shutdown {
            return Err(JobError::Shutdown);
        }
        if token != 0 {
            if let Some(&id) = st.tokens.get(&(tenant.clone(), token)) {
                st.stats.tokens_reused += 1;
                drop(st);
                return Ok(JobHandle {
                    id,
                    shared: Arc::clone(&self.shared),
                });
            }
        }
        let follower = dedup_of.filter(|p| st.jobs.contains_key(p));
        if follower.is_none() {
            if st.queues[0].len() + st.queues[1].len() >= self.shared.max_queued {
                st.stats.rejected_overload += 1;
                return Err(JobError::Overloaded);
            }
            if let Some(q) = &self.shared.quota {
                let b = st
                    .buckets
                    .entry(tenant.clone())
                    .or_insert_with(|| Bucket::full(q));
                if !b.admit(q) {
                    st.stats.rejected_quota += 1;
                    return Err(JobError::QuotaExceeded);
                }
            }
        }
        let id = st.next_id;
        // Durability before acknowledgement: the Submit record is
        // fsynced while we still hold the state lock (order: state →
        // journal), so an accepted handle implies a replayable job.
        if let Some(j) = self.shared.journal.lock().unwrap().as_mut() {
            let rec = Record::Submit {
                id,
                tenant: tenant.clone(),
                lane,
                token,
                req: wire::encode_request(&req),
            };
            if j.append(&rec).is_err() {
                return Err(JobError::Journal);
            }
        }
        st.next_id += 1;
        let mut entry = JobEntry::fresh(req, digest, tenant.clone(), lane);
        let mut recs = Vec::new();
        match follower {
            Some(pid) => {
                entry.deduped = true;
                st.stats.deduped += 1;
                st.jobs.insert(id, entry);
                // The primary may already have resolved (it was
                // submitted moments ago in this same batch): fan out
                // now instead of registering with a finished job.
                let done = st.jobs.get(&pid).and_then(|p| p.result.clone());
                match done {
                    Some(r) => {
                        let state = match &r {
                            Ok(jr) if jr.outcome.is_completed() => JobState::Done,
                            Ok(_) => JobState::Failed,
                            Err(_) => JobState::Cancelled,
                        };
                        recs = st.resolve(id, state, r);
                    }
                    None => st
                        .jobs
                        .get_mut(&pid)
                        .expect("primary entry exists")
                        .followers
                        .push(id),
                }
            }
            None => {
                st.jobs.insert(id, entry);
                st.queues[lane_idx(lane)].push_back(id);
            }
        }
        if token != 0 {
            st.tokens.insert((tenant, token), id);
        }
        st.stats.submitted += 1;
        drop(st);
        journal_append(&self.shared, &recs);
        self.shared.cv.notify_all();
        Ok(JobHandle {
            id,
            shared: Arc::clone(&self.shared),
        })
    }

    /// A handle to an existing job by id (`None` for unknown ids) —
    /// how the network layer reattaches to journal-recovered jobs.
    pub fn handle(&self, id: JobId) -> Option<JobHandle> {
        let st = self.shared.state.lock().unwrap();
        st.jobs.contains_key(&id).then(|| JobHandle {
            id,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Kill one worker mid-job (failure-injection hook): the next
    /// slice to finish anywhere in the pool is discarded as if its
    /// thread died, the job rolls back to its last checkpoint, and the
    /// thread exits. A replacement worker is spawned immediately so
    /// the pool keeps its strength.
    pub fn kill_worker(&self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.kill_requests += 1;
        }
        let sh = Arc::clone(&self.shared);
        self.workers
            .lock()
            .unwrap()
            .push(std::thread::spawn(move || worker_loop(&sh)));
        self.shared.cv.notify_all();
    }

    /// Result-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.lock().unwrap().stats()
    }

    /// Scheduler and admission counters.
    pub fn stats(&self) -> ServerStats {
        let mut s = {
            let st = self.shared.state.lock().unwrap();
            let mut s = st.stats;
            s.queued = st.queues[0].len() + st.queues[1].len();
            s
        };
        if let Some(j) = self.shared.journal.lock().unwrap().as_ref() {
            s.journal_bytes = j.len();
        }
        s
    }

    /// A tenant's current quota balance in simulated cycles (`None`
    /// when unmetered or the tenant has never submitted). Negative =
    /// in debt, paying it off in refill time.
    pub fn quota_level(&self, tenant: &str) -> Option<f64> {
        let quota = self.shared.quota?;
        let mut st = self.shared.state.lock().unwrap();
        let b = st.buckets.get_mut(tenant)?;
        b.refill(&quota);
        Some(b.level)
    }
}

/// Rebuild scheduler state from journal replay; returns the compacted
/// record list to rewrite the journal with. Non-terminal duplicates
/// (same content address, unprobed) re-collapse onto one primary,
/// exactly as batch dedupe admitted them.
fn recover(st: &mut State, jobs: Vec<crate::journal::RecoveredJob>) -> Vec<Record> {
    let mut compact = Vec::new();
    let mut primaries: HashMap<u64, JobId> = HashMap::new();
    for r in jobs {
        st.next_id = st.next_id.max(r.id + 1);
        let digest = r.req.digest();
        let probed = r.req.sim.probe_interval.is_some();
        if r.token != 0 {
            st.tokens.insert((r.tenant.clone(), r.token), r.id);
        }
        compact.push(Record::Submit {
            id: r.id,
            tenant: r.tenant.clone(),
            lane: r.lane,
            token: r.token,
            req: wire::encode_request(&r.req),
        });
        let mut entry = JobEntry::fresh(r.req, digest, r.tenant, r.lane);
        // A recorded Done whose bytes no longer decode (version skew)
        // falls through to re-execution — determinism regenerates it.
        let done = match &r.terminal {
            Some(Terminal::Done {
                slices,
                from_cache,
                report,
            }) => wire::decode_report(report)
                .ok()
                .map(|rep| (*slices, *from_cache, report.clone(), rep)),
            _ => None,
        };
        if let Some((slices, from_cache, bytes, report)) = done {
            entry.state = JobState::Done;
            entry.slices = slices;
            entry.from_cache = from_cache;
            entry.at_cycle = report.stats.cycles;
            entry.stream = None;
            entry.stream_rx = None;
            entry.result = Some(Ok(JobResult {
                outcome: RunOutcome {
                    status: RunStatus::Completed,
                    report,
                },
                bytes: bytes.clone(),
                from_cache,
                slices,
            }));
            st.stats.completed += 1;
            compact.push(Record::Done {
                id: r.id,
                slices,
                from_cache,
                report: bytes,
            });
        } else if matches!(r.terminal, Some(Terminal::Cancelled)) {
            entry.state = JobState::Cancelled;
            entry.stream = None;
            entry.stream_rx = None;
            entry.result = Some(Err(JobError::Cancelled));
            st.stats.cancelled += 1;
            compact.push(Record::Cancelled { id: r.id });
        } else if let Some(&pid) = (!probed).then(|| primaries.get(&digest)).flatten() {
            entry.deduped = true;
            st.stats.deduped += 1;
            let id = r.id;
            st.jobs.insert(id, entry);
            st.jobs
                .get_mut(&pid)
                .expect("recovered primary exists")
                .followers
                .push(id);
            st.stats.submitted += 1;
            continue;
        } else {
            // Re-execute: from the latest checkpoint when unprobed,
            // from scratch when probed (the probe ring is not
            // journaled; a deterministic rerun regenerates the
            // identical row stream).
            if !probed {
                primaries.insert(digest, r.id);
                if let Some((at, cp)) = r.checkpoint {
                    entry.at_cycle = at;
                    entry.state = JobState::Paused;
                    compact.push(Record::Commit {
                        id: r.id,
                        at_cycle: at,
                        checkpoint: cp.clone(),
                    });
                    entry.checkpoint = Some(cp);
                }
            }
            st.queues[lane_idx(entry.lane)].push_back(r.id);
        }
        st.stats.submitted += 1;
        st.jobs.insert(r.id, entry);
    }
    compact
}

impl Drop for Server {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            st.queues[0].clear();
            st.queues[1].clear();
            // No journal writes here: unresolved jobs keep their
            // Submit (and latest Commit) records, so a restart on the
            // same journal resumes them — drop and crash recover
            // identically.
            for e in st.jobs.values_mut() {
                if e.result.is_none() {
                    e.result = Some(Err(JobError::Shutdown));
                    e.stream = None;
                }
            }
        }
        self.shared.cv.notify_all();
        for h in self.workers.lock().unwrap().drain(..) {
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
        let st = self.shared.state.lock().unwrap();
        let e = st.jobs.get(&self.id).expect("job entry exists");
        JobStatus {
            state: e.state,
            at_cycle: e.at_cycle,
            slices: e.slices,
            from_cache: e.from_cache,
            deduped: e.deduped,
        }
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(&self) -> Result<JobResult, JobError> {
        let mut st = self.shared.state.lock().unwrap();
        loop {
            if let Some(r) = &st.jobs.get(&self.id).expect("job entry exists").result {
                return r.clone();
            }
            if st.shutdown {
                return Err(JobError::Shutdown);
            }
            st = self.shared.cv.wait(st).unwrap();
        }
    }

    /// [`JobHandle::wait`] with a deadline: [`JobError::Timeout`] if
    /// the job hasn't resolved within `timeout`. The job keeps
    /// running — only this wait gives up, and a later wait can still
    /// collect the result.
    pub fn wait_deadline(&self, timeout: Duration) -> Result<JobResult, JobError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock().unwrap();
        loop {
            if let Some(r) = &st.jobs.get(&self.id).expect("job entry exists").result {
                return r.clone();
            }
            if st.shutdown {
                return Err(JobError::Shutdown);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(JobError::Timeout);
            }
            st = self.shared.cv.wait_timeout(st, deadline - now).unwrap().0;
        }
    }

    /// Ask the server to cancel the job. Queued jobs cancel
    /// immediately; a running slice is abandoned at its next commit
    /// point. Cancelling a dedupe primary cancels its followers (they
    /// share one execution). A job that already finished keeps its
    /// result.
    pub fn cancel(&self) {
        let recs = {
            let mut st = self.shared.state.lock().unwrap();
            let Some(e) = st.jobs.get_mut(&self.id) else {
                return;
            };
            if e.result.is_some() {
                return;
            }
            e.cancelled = true;
            if e.state != JobState::Running {
                let id = self.id;
                for q in &mut st.queues {
                    q.retain(|&x| x != id);
                }
                st.resolve(id, JobState::Cancelled, Err(JobError::Cancelled))
            } else {
                Vec::new()
            }
        };
        journal_append(&self.shared, &recs);
        self.shared.cv.notify_all();
    }

    /// Take the probe-row stream (probed requests only; `None` for
    /// unprobed requests or if already taken). Rows arrive slice by
    /// slice as the job runs; the channel closes at the terminal
    /// state.
    pub fn take_stream(&mut self) -> Option<mpsc::Receiver<IntervalRow>> {
        self.shared
            .state
            .lock()
            .unwrap()
            .jobs
            .get_mut(&self.id)
            .and_then(|e| e.stream_rx.take())
    }
}

/// One popped unit of work: everything a worker needs to run a slice
/// without holding the lock.
struct Popped {
    id: JobId,
    req: SimRequest,
    digest: u64,
    cp_bytes: Option<Vec<u8>>,
    probe: Option<IntervalProbe>,
    rows_sent: u64,
}

/// Pop the next runnable id, `High` lane first with a bounded
/// anti-starvation share for `Normal`: after [`HIGH_BURST`]
/// consecutive express pops while `Normal` work waits, `Normal` gets
/// one.
fn pop_id(st: &mut State) -> Option<JobId> {
    let high_waiting = !st.queues[1].is_empty();
    let normal_waiting = !st.queues[0].is_empty();
    if high_waiting && normal_waiting && st.high_streak >= HIGH_BURST {
        st.high_streak = 0;
        return st.queues[0].pop_front();
    }
    if high_waiting {
        st.high_streak = if normal_waiting {
            st.high_streak + 1
        } else {
            0
        };
        return st.queues[1].pop_front();
    }
    st.high_streak = 0;
    st.queues[0].pop_front()
}

/// What one scheduling decision came to.
enum PopOutcome {
    /// Run this slice.
    Run(Box<Popped>),
    /// A cancelled job was resolved at pop; flush its records and look
    /// again.
    Flush(Vec<Record>),
    /// The pool is shutting down.
    Shutdown,
}

/// Pop the next runnable job, blocking on the condvar. `None` = this
/// worker should exit (shutdown).
fn next_job(shared: &Shared) -> Option<Popped> {
    loop {
        let out = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    break PopOutcome::Shutdown;
                }
                if let Some(id) = pop_id(&mut st) {
                    let e = st.jobs.get_mut(&id).expect("queued job entry exists");
                    if e.cancelled {
                        break PopOutcome::Flush(st.resolve(
                            id,
                            JobState::Cancelled,
                            Err(JobError::Cancelled),
                        ));
                    }
                    e.state = JobState::Running;
                    // Clone (not take) the checkpoint and probe: if
                    // this slice is discarded by a worker kill, the
                    // entry still holds the job's last committed
                    // state.
                    break PopOutcome::Run(Box::new(Popped {
                        id,
                        req: e.req.clone(),
                        digest: e.digest,
                        cp_bytes: e.checkpoint.clone(),
                        probe: e.probe.clone(),
                        rows_sent: e.rows_sent,
                    }));
                }
                st = shared.cv.wait(st).unwrap();
            }
        };
        match out {
            PopOutcome::Shutdown => return None,
            PopOutcome::Run(p) => return Some(*p),
            PopOutcome::Flush(recs) => {
                journal_append(shared, &recs);
                shared.cv.notify_all();
            }
        }
    }
}

/// An empty report for failures that precede the first cycle
/// (builder/resume rejections).
fn empty_report() -> xmt_sim::RunReport {
    xmt_sim::RunReport {
        stats: MachineStats::default(),
        spawns: Vec::new(),
        utilization: UtilizationReport::default(),
    }
}

/// How far one quantum got: either preempted with checkpoint bytes, or
/// a terminal outcome. Shared by the probed and unprobed paths.
struct Advanced {
    terminal: Option<RunOutcome>,
    cp_bytes: Option<Vec<u8>>,
    at_cycle: u64,
}

/// Advance a machine by one quantum.
fn advance<P: Probe>(m: &mut Machine<P>, target: u64) -> Result<Advanced, SimError> {
    let outcome = m.run_until(target);
    match outcome.status {
        RunStatus::Paused { at_cycle } => Ok(Advanced {
            terminal: None,
            cp_bytes: Some(m.checkpoint_bytes()?),
            at_cycle,
        }),
        _ => Ok(Advanced {
            at_cycle: outcome.at_cycle(),
            cp_bytes: None,
            terminal: Some(outcome),
        }),
    }
}

/// Build (or resume) the job's machine and run one quantum. Every
/// error along the way — corrupt checkpoint, invalid config, run
/// failure — funnels into the returned `Result`; run failures are
/// *not* errors here (they arrive as terminal outcomes with partial
/// reports).
///
/// Probed jobs carry their `IntervalProbe` across slices
/// ([`IntervalProbe::into_carried`]): the probe's delta baseline stays
/// at the last emitted boundary and the checkpoint restores every
/// cumulative counter it refers to, so the sample stream — including
/// the interval each pause splits — is bit-identical to an
/// uninterrupted run's. `rows_sent` is the subscriber's watermark;
/// only rows past it are returned for streaming.
fn run_slice(
    req: &SimRequest,
    cp_bytes: Option<&[u8]>,
    carried: Option<IntervalProbe>,
    rows_sent: u64,
    quantum: u64,
) -> Result<SliceOut, SimError> {
    let cp = cp_bytes.map(Checkpoint::from_bytes).transpose()?;
    let target = cp
        .as_ref()
        .map_or(0, Checkpoint::cycle)
        .saturating_add(quantum);
    let builder = req.builder();
    if let Some(fresh) = req.sim.interval_probe() {
        let probe = carried.map_or(fresh, IntervalProbe::into_carried);
        let mut m = match &cp {
            Some(c) => builder.resume_probed(c, probe)?,
            None => builder.try_build_probed(probe)?,
        };
        let a = advance(&mut m, target)?;
        let probe = m.into_probe();
        let all = probe.rows();
        // The ring holds the newest `all.len()` of `samples()` rows;
        // skip the ones the subscriber already has (rows lost to ring
        // overwrite are simply gone — same contract as `rows()`).
        let first = probe.samples() - all.len() as u64;
        let skip = rows_sent.saturating_sub(first) as usize;
        Ok(SliceOut {
            terminal: a.terminal,
            cp_bytes: a.cp_bytes,
            at_cycle: a.at_cycle,
            rows: all.into_iter().skip(skip).collect(),
            rows_sent: probe.samples(),
            probe: Some(probe),
        })
    } else {
        let mut m = match &cp {
            Some(c) => builder.resume(c)?,
            None => builder.try_build()?,
        };
        let a = advance(&mut m, target)?;
        Ok(SliceOut {
            terminal: a.terminal,
            cp_bytes: a.cp_bytes,
            at_cycle: a.at_cycle,
            rows: Vec::new(),
            probe: None,
            rows_sent: 0,
        })
    }
}

/// One worker thread: pop, slice, commit, repeat.
fn worker_loop(shared: &Shared) {
    while let Some(Popped {
        id,
        req,
        digest,
        cp_bytes,
        probe,
        rows_sent,
    }) = next_job(shared)
    {
        // First slice of an unprobed run: try the content cache before
        // building anything. (Probed runs bypass the cache — their
        // value is the stream.) Cache hits charge no quota.
        if cp_bytes.is_none() && req.sim.probe_interval.is_none() {
            let cached = shared.cache.lock().unwrap().get(digest);
            if let Some(bytes) = cached {
                if let Ok(report) = wire::decode_report(&bytes) {
                    let recs = {
                        let mut st = shared.state.lock().unwrap();
                        let e = st.jobs.get_mut(&id).expect("running job entry exists");
                        e.from_cache = true;
                        e.at_cycle = report.stats.cycles;
                        st.resolve(
                            id,
                            JobState::Done,
                            Ok(JobResult {
                                outcome: RunOutcome {
                                    status: RunStatus::Completed,
                                    report,
                                },
                                bytes,
                                from_cache: true,
                                slices: 0,
                            }),
                        )
                    };
                    journal_append(shared, &recs);
                    shared.cv.notify_all();
                    continue;
                }
                // A corrupt cached blob falls through and recomputes.
            }
        }

        let slice = run_slice(&req, cp_bytes.as_deref(), probe, rows_sent, shared.quantum);

        let mut cache_put: Option<(u64, Vec<u8>, u64)> = None;
        let recs = {
            let mut st = shared.state.lock().unwrap();
            // A pending kill consumes this slice instead of committing
            // it: roll the job back to its pre-slice state and die.
            if st.kill_requests > 0 {
                st.kill_requests -= 1;
                let e = st.jobs.get_mut(&id).expect("running job entry exists");
                if e.result.is_none() {
                    e.state = if e.checkpoint.is_some() {
                        JobState::Paused
                    } else {
                        JobState::Queued
                    };
                    let lane = e.lane;
                    st.queues[lane_idx(lane)].push_front(id);
                }
                drop(st);
                shared.cv.notify_all();
                return;
            }
            let e = st.jobs.get_mut(&id).expect("running job entry exists");
            if e.cancelled {
                st.resolve(id, JobState::Cancelled, Err(JobError::Cancelled))
            } else {
                e.slices += 1;
                let slices = e.slices;
                let tenant = e.tenant.clone();
                let prev_cycle = e.at_cycle;
                match slice {
                    Err(err) => {
                        // Construction/resume-level failure: terminal,
                        // with an empty partial report.
                        let outcome = RunOutcome {
                            status: RunStatus::Failed(err),
                            report: empty_report(),
                        };
                        let bytes = wire::encode_report(&outcome.report);
                        st.resolve(
                            id,
                            JobState::Failed,
                            Ok(JobResult {
                                outcome,
                                bytes,
                                from_cache: false,
                                slices,
                            }),
                        )
                    }
                    Ok(s) => {
                        e.at_cycle = s.at_cycle;
                        e.rows_sent = s.rows_sent;
                        if let Some(tx) = &e.stream {
                            for row in s.rows {
                                // A dropped receiver is fine — rows
                                // are best-effort observability, not
                                // results.
                                let _ = tx.send(row);
                            }
                        }
                        let burned = s.at_cycle.saturating_sub(prev_cycle);
                        match s.terminal {
                            None => {
                                // Preempted: commit the checkpoint and
                                // the carried probe, go to the back of
                                // the lane. Probed jobs skip the
                                // journal Commit — replay restarts
                                // them from scratch anyway.
                                let journal_cp = (e.probe.is_none() && s.probe.is_none())
                                    .then(|| s.cp_bytes.clone())
                                    .flatten();
                                e.checkpoint = s.cp_bytes;
                                e.probe = s.probe;
                                e.state = JobState::Paused;
                                let lane = e.lane;
                                st.queues[lane_idx(lane)].push_back(id);
                                st.charge(&shared.quota, &tenant, burned);
                                journal_cp
                                    .map(|checkpoint| {
                                        vec![Record::Commit {
                                            id,
                                            at_cycle: s.at_cycle,
                                            checkpoint,
                                        }]
                                    })
                                    .unwrap_or_default()
                            }
                            Some(outcome) => {
                                let bytes = wire::encode_report(&outcome.report);
                                let completed = outcome.is_completed();
                                if completed && req.sim.probe_interval.is_none() {
                                    cache_put = Some((digest, bytes.clone(), s.at_cycle));
                                }
                                st.charge(&shared.quota, &tenant, burned);
                                st.resolve(
                                    id,
                                    if completed {
                                        JobState::Done
                                    } else {
                                        JobState::Failed
                                    },
                                    Ok(JobResult {
                                        outcome,
                                        bytes,
                                        from_cache: false,
                                        slices,
                                    }),
                                )
                            }
                        }
                    }
                }
            }
        };
        if let Some((key, bytes, cycles)) = cache_put {
            shared.cache.lock().unwrap().insert(key, bytes, cycles);
        }
        journal_append(shared, &recs);
        shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SimRequest;

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
        let mut st = State {
            queues: [VecDeque::new(), VecDeque::new()],
            high_streak: 0,
            jobs: HashMap::new(),
            next_id: 0,
            shutdown: false,
            kill_requests: 0,
            tokens: HashMap::new(),
            buckets: HashMap::new(),
            stats: ServerStats::default(),
        };
        st.queues[0].extend([10, 11]);
        st.queues[1].extend([20, 21, 22, 23, 24]);
        let order: Vec<JobId> = std::iter::from_fn(|| pop_id(&mut st)).collect();
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
}
