//! Scheduler state and the job lifecycle: a job changes state only
//! through the [`State`]
//! transitions — `insert` (a new entry), `enqueue` / `follow` (it
//! waits in its lane, or rides an identical batch row), `start` (a
//! worker pops it), `pause` (checkpoint + carried probe → `Paused`),
//! `rollback` (a killed worker's slice is discarded), `cancel`, and
//! `resolve` (terminal state, fan-out to followers, counters, journal
//! record). Admission, the worker's slice commit and crash recovery
//! ([`super::recovery`]) all go through them, so a recovered job is in exactly
//! the state the live path would have left it in.

use std::collections::{HashMap, VecDeque};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use super::{QuotaPolicy, ServerStats, Submission};
use crate::job::{JobError, JobId, JobResult, JobState, JobStatus, Lane};
use crate::journal::Record;
use crate::request::SimRequest;
use crate::wire;
use xmt_sim::{IntervalProbe, IntervalRow};

/// Consecutive `High`-lane pops a worker may take while `Normal` work
/// waits, before the scheduler grants `Normal` one pop.
pub(super) const HIGH_BURST: u32 = 3;

/// One tenant's bucket: balance plus the wall-clock instant it was
/// last brought current.
pub(super) struct Bucket {
    pub(super) level: f64,
    pub(super) last: Instant,
}

impl Bucket {
    pub(super) fn full(q: &QuotaPolicy) -> Bucket {
        Bucket {
            level: q.burst_cycles as f64,
            last: Instant::now(),
        }
    }

    pub(super) fn refill(&mut self, q: &QuotaPolicy) {
        let dt = self.last.elapsed().as_secs_f64();
        self.last = Instant::now();
        self.level = (self.level + dt * q.refill_cycles_per_sec as f64).min(q.burst_cycles as f64);
    }
}

/// What a job carries from one slice to the next: everything a worker
/// needs, beside the request, to continue the run bit-identically.
/// Empty before the first slice and after a terminal state.
#[derive(Clone, Default)]
pub(super) struct SliceState {
    /// Serialized checkpoint to resume from (`None`: cycle zero).
    pub(super) checkpoint: Option<Vec<u8>>,
    /// The paused machine's probe, carried so the resumed sample
    /// stream is bit-identical to an uninterrupted run's (see
    /// [`IntervalProbe::into_carried`]). `None` for unprobed jobs.
    pub(super) probe: Option<IntervalProbe>,
    /// Probe samples already streamed to the subscriber — the carried
    /// probe's ring holds the whole history, so each commit sends only
    /// the rows past this watermark.
    pub(super) rows_sent: u64,
}

/// One row of the job table: what a reader can still ask for. A live
/// job also holds its [`Live`] part; [`State::resolve`] drops that, so
/// a finished job costs this row plus its share of the report bytes.
pub(super) struct JobEntry {
    /// What [`crate::JobHandle::poll`] reports. `deduped` marks a dedupe
    /// follower: the entry never executes, its result fans out from
    /// its batch primary.
    pub(super) status: JobStatus,
    /// Everything only an unfinished job needs; `None` once resolved.
    pub(super) live: Option<Box<Live>>,
    /// Receiver end of the probe-row stream, parked here until a
    /// subscriber takes it ([`crate::JobHandle::take_stream`]) — which
    /// may be after the job finished.
    pub(super) stream_rx: Option<mpsc::Receiver<IntervalRow>>,
    pub(super) result: Option<Terminal>,
}

/// The part of a job only its execution reads.
pub(super) struct Live {
    pub(super) req: SimRequest,
    pub(super) digest: u64,
    pub(super) tenant: String,
    pub(super) lane: Lane,
    /// Dedupe followers to resolve when this (primary) job resolves.
    pub(super) followers: Vec<JobId>,
    /// Where the next slice starts.
    pub(super) carry: SliceState,
    pub(super) cancelled: bool,
    /// Live end of the probe-row stream; dropped at terminal states so
    /// the receiver's iteration ends.
    pub(super) stream: Option<mpsc::Sender<IntervalRow>>,
}

/// A terminal result as the table holds it: what
/// [`crate::JobHandle::wait`] turns into the public
/// `Result<JobResult, JobError>`, outside the lock.
#[derive(Clone)]
pub(super) enum Terminal {
    /// A completed run: its canonical report bytes — the same
    /// allocation the result cache and the job's followers hold.
    Done {
        report: Arc<[u8]>,
        at_cycle: u64,
        slices: u32,
        from_cache: bool,
    },
    /// A failed run: the typed error and its partial report.
    Failed(Box<JobResult>),
    /// Cancelled, or the server shut down first.
    Err(JobError),
}

impl Terminal {
    /// A completed result from canonical report bytes that did not come
    /// from running — a cache hit, a journal-recovered `Done`. The bytes
    /// are decoded once to validate them; `None` when they no longer
    /// decode (a stale or corrupt blob): the caller runs the job instead.
    pub(super) fn completed(report: Arc<[u8]>, from_cache: bool, slices: u32) -> Option<Terminal> {
        let at_cycle = wire::decode_report(&report).ok()?.stats.cycles;
        Some(Terminal::Done {
            report,
            at_cycle,
            slices,
            from_cache,
        })
    }

    /// The public form. A completed report is decoded here, so callers
    /// hold no lock while it runs.
    pub(super) fn into_result(self) -> Result<JobResult, JobError> {
        match self {
            Terminal::Done {
                report,
                slices,
                from_cache,
                ..
            } => Ok(JobResult::completed(report.to_vec(), from_cache, slices)
                .expect("a stored report was encoded here or validated on the way in")),
            Terminal::Failed(r) => Ok(*r),
            Terminal::Err(e) => Err(e),
        }
    }
}

/// One popped unit of work: everything a worker needs to run a slice
/// without holding the lock.
pub(super) struct Popped {
    pub(super) id: JobId,
    pub(super) req: SimRequest,
    pub(super) digest: u64,
    pub(super) from: SliceState,
}

/// Scheduler state under the mutex.
#[derive(Default)]
pub(super) struct State {
    /// Run queues by lane, indexed by `Lane as usize`.
    pub(super) queues: [VecDeque<JobId>; 2],
    /// Consecutive `High` pops taken while `Normal` work waited.
    pub(super) high_streak: u32,
    pub(super) jobs: HashMap<JobId, JobEntry>,
    pub(super) next_id: JobId,
    pub(super) shutdown: bool,
    /// Pending worker kills ([`crate::Server::kill_worker`]); consumed at
    /// slice commit.
    pub(super) kill_requests: usize,
    /// Idempotency map: `(tenant, token)` → the job it first named.
    pub(super) tokens: HashMap<(String, u64), JobId>,
    /// Per-tenant quota buckets (only with a [`QuotaPolicy`]).
    pub(super) buckets: HashMap<String, Bucket>,
    pub(super) stats: ServerStats,
}

impl State {
    pub(super) fn queued(&self) -> usize {
        self.queues[0].len() + self.queues[1].len()
    }

    /// A new job enters the table under `id` (fresh from admission, or
    /// restored verbatim from the journal) and claims its idempotency
    /// token. It waits nowhere yet: [`State::enqueue`] or
    /// [`State::follow`] comes next.
    pub(super) fn insert(&mut self, id: JobId, sub: Submission, digest: u64) {
        let Submission {
            req,
            tenant,
            lane,
            token,
        } = sub;
        if token != 0 {
            self.tokens.insert((tenant.clone(), token), id);
        }
        let (stream, stream_rx) = if req.sim.probe_interval.is_some() {
            let (tx, rx) = mpsc::channel();
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        self.jobs.insert(
            id,
            JobEntry {
                status: JobStatus {
                    state: JobState::Queued,
                    at_cycle: 0,
                    slices: 0,
                    from_cache: false,
                    deduped: false,
                },
                live: Some(Box::new(Live {
                    req,
                    digest,
                    tenant,
                    lane,
                    followers: Vec::new(),
                    carry: SliceState::default(),
                    cancelled: false,
                    stream,
                })),
                stream_rx,
                result: None,
            },
        );
        self.next_id = self.next_id.max(id.saturating_add(1));
        self.stats.submitted += 1;
    }

    /// The live part of an unfinished job.
    pub(super) fn live(&mut self, id: JobId) -> &mut Live {
        (self.jobs.get_mut(&id).and_then(|e| e.live.as_deref_mut()))
            .expect("unfinished job entry exists")
    }

    /// The job waits at the back of its lane.
    pub(super) fn enqueue(&mut self, id: JobId) {
        let lane = self.live(id).lane;
        self.queues[lane as usize].push_back(id);
    }

    /// The job is a dedupe follower of `primary`: it never executes,
    /// the primary's result fans out to it — at once when the primary
    /// (submitted moments ago in the same batch) has already resolved.
    pub(super) fn follow(&mut self, id: JobId, primary: JobId) -> Vec<Record> {
        let e = self.jobs.get_mut(&id).expect("follower entry exists");
        e.status.deduped = true;
        self.stats.deduped += 1;
        let p = self.jobs.get_mut(&primary).expect("primary entry exists");
        if let Some(r) = p.result.clone() {
            return self.resolve(id, r);
        }
        let live = p.live.as_mut().expect("an unresolved job is live");
        live.followers.push(id);
        Vec::new()
    }

    /// Pop the next runnable id, `High` lane first with a bounded
    /// anti-starvation share for `Normal`: after [`HIGH_BURST`]
    /// consecutive express pops while `Normal` work waits, `Normal`
    /// gets one.
    pub(super) fn pop_id(&mut self) -> Option<JobId> {
        let [normal, high] = &mut self.queues;
        if high.is_empty() || (!normal.is_empty() && self.high_streak >= HIGH_BURST) {
            self.high_streak = 0;
            return normal.pop_front();
        }
        self.high_streak = if normal.is_empty() {
            0
        } else {
            self.high_streak + 1
        };
        high.pop_front()
    }

    /// A worker takes the next waiting job: it is `Running`, and the
    /// worker gets copies of its request and slice state. Copies, not
    /// the originals: if the slice is discarded by a worker kill, the
    /// entry still holds the job's last committed state.
    pub(super) fn start(&mut self) -> Option<Popped> {
        let id = self.pop_id()?;
        let e = self.jobs.get_mut(&id).expect("queued job entry exists");
        e.status.state = JobState::Running;
        let live = e.live.as_ref().expect("a queued job is live");
        Some(Popped {
            id,
            req: live.req.clone(),
            digest: live.digest,
            from: live.carry.clone(),
        })
    }

    /// Preemption: the job holds `carry` at `at_cycle` and is `Paused`
    /// (the caller requeues it). Returns the journal `Commit` — except
    /// for a probed job, which replay restarts from scratch anyway.
    pub(super) fn pause(&mut self, id: JobId, at_cycle: u64, carry: SliceState) -> Option<Record> {
        let commit = match (&carry.probe, &carry.checkpoint) {
            (None, Some(cp)) => Some(Record::Commit {
                id,
                at_cycle,
                checkpoint: cp.clone(),
            }),
            _ => None,
        };
        self.live(id).carry = carry;
        let e = self.jobs.get_mut(&id).expect("paused job entry exists");
        e.status.at_cycle = at_cycle;
        e.status.state = JobState::Paused;
        commit
    }

    /// A killed worker's slice is discarded: the job goes back to the
    /// head of its lane exactly as it was popped — or, when a cancel
    /// arrived while it ran, resolves now.
    pub(super) fn rollback(&mut self, id: JobId) -> Vec<Record> {
        let e = self.jobs.get_mut(&id).expect("running job entry exists");
        let (None, Some(live)) = (&e.result, &e.live) else {
            return Vec::new();
        };
        if live.cancelled {
            return self.resolve(id, Terminal::Err(JobError::Cancelled));
        }
        e.status.state = if live.carry.checkpoint.is_some() {
            JobState::Paused
        } else {
            JobState::Queued
        };
        self.queues[live.lane as usize].push_front(id);
        Vec::new()
    }

    /// A cancel request: a waiting job (or a follower) resolves at
    /// once, a running one at its slice commit, a finished one keeps
    /// its result.
    pub(super) fn cancel(&mut self, id: JobId) -> Vec<Record> {
        let Some(e) = self.jobs.get_mut(&id) else {
            return Vec::new();
        };
        let (None, Some(live)) = (&e.result, &mut e.live) else {
            return Vec::new();
        };
        live.cancelled = true;
        if e.status.state == JobState::Running {
            return Vec::new();
        }
        for q in &mut self.queues {
            q.retain(|&x| x != id);
        }
        self.resolve(id, Terminal::Err(JobError::Cancelled))
    }

    /// Resolve a job to the terminal state its result names (`Done`
    /// for a completed run, `Failed` for a failed one, `Cancelled` for
    /// an error), drop its live part, and fan the result out to its
    /// dedupe followers — each holding the same report allocation.
    /// Returns the journal records to append (the caller appends them
    /// *after* dropping the state lock). Jobs that already resolved are
    /// left untouched.
    pub(super) fn resolve(&mut self, id: JobId, result: Terminal) -> Vec<Record> {
        let (state, marks) = match &result {
            Terminal::Done {
                at_cycle,
                slices,
                from_cache,
                ..
            } => (JobState::Done, Some((*at_cycle, *slices, *from_cache))),
            Terminal::Failed(r) => (
                JobState::Failed,
                Some((r.outcome.at_cycle(), r.slices, r.from_cache)),
            ),
            Terminal::Err(_) => (JobState::Cancelled, None),
        };
        let mut recs = Vec::new();
        let mut pending = vec![id];
        while let Some(jid) = pending.pop() {
            let Some(e) = self.jobs.get_mut(&jid) else {
                continue;
            };
            if e.result.is_some() {
                continue;
            }
            e.status.state = state;
            if let Some((at_cycle, slices, from_cache)) = marks {
                // A job that never ran — a cache hit, a recovered
                // result, a follower — takes its progress marks from
                // the result; one that ran already has them.
                e.status.at_cycle = e.status.at_cycle.max(at_cycle);
                e.status.from_cache = from_cache;
                if !e.status.deduped {
                    e.status.slices = slices;
                }
            }
            e.result = Some(result.clone());
            if let Some(live) = e.live.take() {
                pending.extend(live.followers);
            }
            recs.push(match &result {
                Terminal::Done {
                    report,
                    slices,
                    from_cache,
                    ..
                } => {
                    self.stats.completed += 1;
                    Record::Done {
                        id: jid,
                        slices: *slices,
                        from_cache: *from_cache,
                        report: report.to_vec(),
                    }
                }
                Terminal::Failed(_) => {
                    self.stats.failed += 1;
                    Record::Failed { id: jid }
                }
                Terminal::Err(_) => {
                    self.stats.cancelled += 1;
                    Record::Cancelled { id: jid }
                }
            });
        }
        recs
    }

    /// The pool is going down: nothing waits any more and every
    /// unresolved handle reads `Shutdown`. No journal records: the jobs
    /// keep their `Submit` (and latest `Commit`), so a restart on the
    /// same journal resumes them — drop and crash recover identically.
    /// A slice still running commits into the live part as usual.
    pub(super) fn shut_down(&mut self) {
        self.shutdown = true;
        for q in &mut self.queues {
            q.clear();
        }
        for e in self.jobs.values_mut() {
            if e.result.is_none() {
                e.result = Some(Terminal::Err(JobError::Shutdown));
                if let Some(live) = &mut e.live {
                    live.stream = None;
                }
            }
        }
    }

    /// The tenant's bucket, created full on first use and brought
    /// current.
    pub(super) fn bucket(&mut self, q: &QuotaPolicy, tenant: &str) -> &mut Bucket {
        let b = self
            .buckets
            .entry(tenant.to_string())
            .or_insert_with(|| Bucket::full(q));
        b.refill(q);
        b
    }

    /// Debit a committed slice's simulated cycles from its tenant's
    /// bucket (no-op when unmetered).
    pub(super) fn charge(&mut self, quota: &Option<QuotaPolicy>, tenant: &str, cycles: u64) {
        if let (Some(q), true) = (quota, cycles > 0) {
            self.bucket(q, tenant).level -= cycles as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Server, ServerConfig};
    use super::*;
    use crate::JobHandle;

    /// A finished job costs one small row: the live part is boxed and
    /// gone, the report is a shared pointer.
    #[test]
    fn a_table_row_is_compact() {
        let row = std::mem::size_of::<JobEntry>();
        assert!(row <= 96, "JobEntry is {row} bytes");
    }

    /// One report allocation per result: the cache entry, the cold job
    /// that inserted it, a later cache hit, and a batch primary and its
    /// follower all hold the same bytes, not copies.
    #[test]
    fn cache_jobs_and_followers_share_one_report() {
        let srv = Server::start(ServerConfig {
            workers: 1,
            quantum: u64::MAX,
            ..ServerConfig::default()
        })
        .unwrap();
        let req = || SimRequest::golden("ps_tickets").unwrap();
        let cold = srv.submit(req()).unwrap();
        assert!(!cold.wait().unwrap().from_cache);
        let hit = srv.submit(req()).unwrap();
        assert!(hit.wait().unwrap().from_cache);
        let batch: Vec<JobHandle> = srv
            .submit_batch(vec![SimRequest::golden("spawn_storm").unwrap(); 2])
            .into_iter()
            .map(Result::unwrap)
            .collect();
        for h in &batch {
            h.wait().unwrap();
        }
        let st = srv.shared.state.lock().unwrap();
        let report = |h: &JobHandle| {
            let e = &st.jobs[&h.id()];
            assert!(e.live.is_none(), "a finished job keeps no live part");
            match &e.result {
                Some(Terminal::Done { report, .. }) => Arc::clone(report),
                _ => panic!("job {} is not Done", h.id()),
            }
        };
        let cached = srv.shared.cache.lock().unwrap().get(req().digest());
        let cached = cached.expect("the cold run was cached");
        assert!(Arc::ptr_eq(&report(&cold), &cached), "cold job vs cache");
        assert!(Arc::ptr_eq(&report(&hit), &cached), "cache hit vs cache");
        assert!(
            Arc::ptr_eq(&report(&batch[1]), &report(&batch[0])),
            "follower vs primary"
        );
    }
}
