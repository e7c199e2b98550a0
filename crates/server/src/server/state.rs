//! Scheduler state and the job lifecycle: a job changes state only
//! through the [`State`]
//! transitions — `insert` (a new entry), `enqueue` / `follow` (it
//! waits in its lane, or rides an identical batch row), `start` (a
//! worker pops it and takes its machine), `pause` (the machine is kept
//! → `Paused`), `rollback` (a killed worker's slice is discarded, and
//! the job starts over from cycle 0), `cancel`, and
//! `resolve` (terminal state, fan-out to followers, counters, journal
//! record, retirement past [`RETAINED_JOBS`]). Admission, the worker's
//! slice commit and crash recovery ([`super::recovery`]) all go through
//! them, so a recovered job is in exactly the state the live path would
//! have left it in.
//!
//! Retention: the table keeps every unfinished job and the newest
//! [`RETAINED_JOBS`] terminal ones, in resolution order. Past that the
//! oldest terminal row leaves the table and its idempotency token
//! leaves `tokens` — unless a [`crate::JobHandle`] still names it
//! (`pin`): then it leaves when the last such handle drops (`unpin`).
//! A lookup by id of a retired job finds nothing.
//!
//! Storage ([`Jobs`], [`Tokens`]): the rows live in one slab whose
//! vacated slots the next jobs reuse, found by id through an index of
//! slot numbers, and the terminal ones wait to retire in a FIFO of ids.
//! A tenant's name is held once, by the token store, and shared with
//! the rows whose tokens it keys.

use std::collections::{HashMap, VecDeque};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use super::{QuotaPolicy, ServerStats, Submission};
use crate::job::{JobError, JobId, JobResult, JobState, JobStatus, Lane};
use crate::journal::{self, Record};
use crate::net;
use crate::request::SimRequest;
use crate::wire;
use xmt_sim::{IntervalProbe, IntervalRow, Machine};

/// Terminal jobs the table keeps, newest by resolution: past this the
/// oldest retires (a row a handle still names, once the handle drops).
pub(super) const RETAINED_JOBS: usize = 4096;

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

/// One row of the job table: what a reader can still ask for. A live
/// job also holds its [`Live`] part; [`State::resolve`] drops that, so
/// a finished job costs this row plus its share of the report bytes.
/// Rows sit in the [`Jobs`] slab.
pub(super) struct JobEntry {
    /// What [`crate::JobHandle::poll`] reports. `deduped` marks a dedupe
    /// follower: the entry never executes, its result fans out from
    /// its batch primary.
    pub(super) status: JobStatus,
    /// Everything only an unfinished job needs; `None` once resolved.
    pub(super) live: Option<Box<Live>>,
    /// Receiver end of the probe-row stream, parked here until a
    /// subscriber takes it ([`crate::JobHandle::take_stream`]) — which
    /// may be after the job finished. Boxed: only probed jobs have one.
    pub(super) stream_rx: Option<Box<mpsc::Receiver<IntervalRow>>>,
    pub(super) result: Option<Terminal>,
    /// Live [`crate::JobHandle`]s naming this job: a row is retired
    /// only when none does.
    pub(super) pins: u32,
    /// Past the bound while a handle still named it: the row retires
    /// when the last such handle drops.
    held: bool,
    /// The idempotency token this job claimed, released when it
    /// retires.
    claim: Option<Claim>,
}

/// An idempotency token a job claimed: its tenant — the token store's
/// own string, shared — and the token.
struct Claim {
    tenant: Arc<str>,
    token: u64,
}

/// The part of a job only its execution reads.
pub(super) struct Live {
    pub(super) req: SimRequest,
    pub(super) digest: u64,
    pub(super) tenant: String,
    pub(super) lane: Lane,
    /// Dedupe followers to resolve when this (primary) job resolves.
    pub(super) followers: Vec<JobId>,
    /// The machine, paused where the last slice left it; `None` while
    /// the run is to start at cycle 0, and while a worker holds it.
    pub(super) machine: Option<Kept>,
    /// Probe rows already streamed to the subscriber. A run that starts
    /// over from cycle 0 (after a worker kill) sends only the rows past
    /// this mark.
    pub(super) rows_sent: u64,
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
    /// A cache hit: the entry's report bytes, shared, and the cycles
    /// its run took, as [`crate::ResultCache`] hands them out. The cache
    /// validated the bytes on the way in, so nothing is decoded here.
    pub(super) fn hit(report: Arc<[u8]>, at_cycle: u64) -> Terminal {
        Terminal::Done {
            report,
            at_cycle,
            slices: 0,
            from_cache: true,
        }
    }

    /// A journal-recovered `Done` from its report bytes. They are
    /// decoded once to validate them; `None` when they no longer decode
    /// (version skew): recovery runs the job again instead.
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

    /// The public form's [`crate::net::encode_result`] bytes, appended
    /// to `out`: a completed report is copied once, from its shared
    /// allocation, and not decoded.
    pub(super) fn put_result(&self, out: &mut Vec<u8>) -> Result<(), JobError> {
        match self {
            Terminal::Done {
                report,
                slices,
                from_cache,
                ..
            } => net::put_result(out, true, *from_cache, *slices, report),
            Terminal::Failed(r) => net::put_result(
                out,
                r.outcome.is_completed(),
                r.from_cache,
                r.slices,
                &r.bytes,
            ),
            Terminal::Err(e) => return Err(*e),
        }
        Ok(())
    }
}

/// A job [`State::resolve`] moved to its terminal state, as the journal
/// records it. A completed job's report is the shared allocation, not
/// a copy: a journaled server copies it once, into the record's frame.
pub(super) enum Ended {
    Done {
        id: JobId,
        slices: u32,
        from_cache: bool,
        report: Arc<[u8]>,
    },
    Failed(JobId),
    Cancelled(JobId),
}

impl Ended {
    /// The job that ended.
    pub(super) fn id(&self) -> JobId {
        match self {
            Ended::Done { id, .. } | Ended::Failed(id) | Ended::Cancelled(id) => *id,
        }
    }

    /// The journal record of this terminal state.
    pub(super) fn record(&self) -> Record {
        match self {
            Ended::Done {
                id,
                slices,
                from_cache,
                report,
            } => Record::Done {
                id: *id,
                slices: *slices,
                from_cache: *from_cache,
                report: report.to_vec(),
            },
            Ended::Failed(id) => Record::Failed { id: *id },
            Ended::Cancelled(id) => Record::Cancelled { id: *id },
        }
    }

    /// Append this terminal state's journal frame to `b`: a completed
    /// report goes from its shared allocation straight into the frame.
    pub(super) fn put_frame(&self, b: &mut Vec<u8>) {
        match self {
            Ended::Done {
                id,
                slices,
                from_cache,
                report,
            } => journal::put_frame(b, |p| {
                journal::put_done(p, *id, *slices, *from_cache, report)
            }),
            _ => journal::put_frame(b, |p| self.record().put(p)),
        }
    }
}

/// A paused job's machine, kept between slices: the next slice runs it
/// onward on whichever worker pops the job. The request fixes the
/// variant — a probed request's machine carries its `IntervalProbe`.
pub(super) enum Kept {
    Plain(Box<Machine>),
    Probed(Box<Machine<IntervalProbe>>),
}

/// One popped unit of work: everything a worker needs to run a slice
/// without holding the lock.
pub(super) struct Popped {
    pub(super) id: JobId,
    pub(super) req: SimRequest,
    pub(super) digest: u64,
    /// The paused machine (`None`: the run starts at cycle 0).
    pub(super) machine: Option<Kept>,
    pub(super) rows_sent: u64,
}

/// The job table: every row in one slab, a retired row's slot reused
/// by the next job, found by id through `index`. The terminal rows
/// wait to retire in `retiring`, oldest resolution first; only this
/// table knows where a row sits.
#[derive(Default)]
pub(super) struct Jobs {
    slab: Vec<Option<JobEntry>>,
    /// Vacated slots, reused before the slab grows.
    free: Vec<u32>,
    index: HashMap<JobId, u32>,
    /// Terminal jobs in resolution order, oldest first: the newest
    /// [`RETAINED_JOBS`] of them keep their rows.
    retiring: VecDeque<JobId>,
}

impl Jobs {
    pub(super) fn get(&self, id: JobId) -> Option<&JobEntry> {
        self.slab[*self.index.get(&id)? as usize].as_ref()
    }

    pub(super) fn get_mut(&mut self, id: JobId) -> Option<&mut JobEntry> {
        self.slab[*self.index.get(&id)? as usize].as_mut()
    }

    pub(super) fn contains(&self, id: JobId) -> bool {
        self.index.contains_key(&id)
    }

    /// Every row in the table.
    pub(super) fn iter_mut(&mut self) -> impl Iterator<Item = &mut JobEntry> {
        self.slab.iter_mut().flatten()
    }

    /// Rows in the table.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.index.len()
    }

    /// Rows with no terminal result yet.
    pub(super) fn unfinished(&self) -> usize {
        self.slab
            .iter()
            .flatten()
            .filter(|e| e.result.is_none())
            .count()
    }

    /// Slots the slab has made: rows plus vacated slots.
    pub(super) fn slots(&self) -> usize {
        self.slab.len()
    }

    /// `row` enters the table as `id`'s, in a vacated slot when there
    /// is one.
    fn insert(&mut self, id: JobId, row: JobEntry) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(row);
                slot
            }
            None => {
                self.slab.push(Some(row));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 rows")
            }
        };
        let old = self.index.insert(id, slot);
        debug_assert!(old.is_none(), "job {id} entered the table twice");
    }

    /// `id`'s row leaves the table, and its slot is free for the next.
    fn remove(&mut self, id: JobId) -> Option<JobEntry> {
        let slot = self.index.remove(&id)?;
        self.free.push(slot);
        self.slab[slot as usize].take()
    }

    /// Room for one more terminal row: when [`RETAINED_JOBS`] wait to
    /// retire, the oldest stops waiting. Returns its id when its row is
    /// to leave now; a row a handle still names is marked `held`
    /// instead, and leaves when the last such handle drops.
    fn make_room(&mut self) -> Option<JobId> {
        if self.retiring.len() < RETAINED_JOBS {
            return None;
        }
        let id = self.retiring.pop_front().expect("a full queue has a head");
        match self.get_mut(id) {
            Some(e) if e.pins > 0 => {
                e.held = true;
                None
            }
            _ => Some(id),
        }
    }

    /// `id` resolved: it waits to retire behind every terminal row
    /// resolved before it. Returns the oldest's id when, to keep
    /// [`RETAINED_JOBS`], its row is to leave now.
    fn file_terminal(&mut self, id: JobId) -> Option<JobId> {
        let out = self.make_room();
        self.retiring.push_back(id);
        out
    }
}

/// The idempotency map: tenant → token → the job the token first named,
/// until that job retires. A tenant's name is held once, as the key its
/// claims share; a tenant whose last claim is released leaves.
#[derive(Default)]
pub(super) struct Tokens(HashMap<Arc<str>, HashMap<u64, JobId>>);

impl Tokens {
    /// The job `(tenant, token)` names, if any.
    pub(super) fn get(&self, tenant: &str, token: u64) -> Option<JobId> {
        self.0.get(tenant)?.get(&token).copied()
    }

    /// `(tenant, token)` names `id` from now on.
    fn claim(&mut self, tenant: &str, token: u64, id: JobId) -> Claim {
        let tenant = match self.0.get_key_value(tenant) {
            Some((name, _)) => Arc::clone(name),
            None => Arc::from(tenant),
        };
        (self.0.entry(Arc::clone(&tenant)).or_default()).insert(token, id);
        Claim { tenant, token }
    }

    /// `id`'s claim is released — only while its token still names
    /// `id`: a later job may have claimed it.
    fn release(&mut self, claim: &Claim, id: JobId) {
        let Some(jobs) = self.0.get_mut(&*claim.tenant) else {
            return;
        };
        if jobs.get(&claim.token) == Some(&id) {
            jobs.remove(&claim.token);
            if jobs.is_empty() {
                self.0.remove(&*claim.tenant);
            }
        }
    }

    /// Tokens claimed, over every tenant.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.0.values().map(HashMap::len).sum()
    }

    /// Tenant names held.
    pub(super) fn tenants(&self) -> usize {
        self.0.len()
    }
}

/// Scheduler state under the mutex.
#[derive(Default)]
pub(super) struct State {
    /// Run queues by lane, indexed by `Lane as usize`.
    pub(super) queues: [VecDeque<JobId>; 2],
    /// Consecutive `High` pops taken while `Normal` work waited.
    pub(super) high_streak: u32,
    pub(super) jobs: Jobs,
    pub(super) next_id: JobId,
    pub(super) shutdown: bool,
    /// Pending worker kills ([`crate::Server::kill_worker`]); consumed at
    /// slice commit.
    pub(super) kill_requests: usize,
    /// Test hook: pending kills land only on this job's slice that
    /// commits after this many committed ones.
    #[cfg(test)]
    pub(super) kill_aim: Option<(JobId, u32)>,
    pub(super) tokens: Tokens,
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
        let claim = (token != 0).then(|| self.tokens.claim(&tenant, token, id));
        let (stream, stream_rx) = if req.sim.probe_interval.is_some() {
            let (tx, rx) = mpsc::channel();
            (Some(tx), Some(Box::new(rx)))
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
                    machine: None,
                    rows_sent: 0,
                    cancelled: false,
                    stream,
                })),
                stream_rx,
                result: None,
                pins: 0,
                held: false,
                claim,
            },
        );
        self.next_id = self.next_id.max(id.saturating_add(1));
        self.stats.submitted += 1;
    }

    /// Whether a pending kill consumes `id`'s slice committing now:
    /// any slice does, unless a test aims the kill.
    #[cfg_attr(not(test), allow(unused_variables))]
    pub(super) fn kill_lands(&self, id: JobId) -> bool {
        #[cfg(test)]
        if let Some(aim) = self.kill_aim {
            let e = self.jobs.get(id).expect("running job entry exists");
            if aim != (id, e.status.slices) {
                return false;
            }
        }
        self.kill_requests > 0
    }

    /// The live part of an unfinished job.
    pub(super) fn live(&mut self, id: JobId) -> &mut Live {
        (self.jobs.get_mut(id).and_then(|e| e.live.as_deref_mut()))
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
    pub(super) fn follow(&mut self, id: JobId, primary: JobId) -> Vec<Ended> {
        let e = self.jobs.get_mut(id).expect("follower entry exists");
        e.status.deduped = true;
        self.stats.deduped += 1;
        let p = self.jobs.get_mut(primary).expect("primary entry exists");
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
    /// worker gets a copy of its request and takes its paused machine.
    pub(super) fn start(&mut self) -> Option<Popped> {
        let id = self.pop_id()?;
        let e = self.jobs.get_mut(id).expect("queued job entry exists");
        e.status.state = JobState::Running;
        let live = e.live.as_mut().expect("a queued job is live");
        Some(Popped {
            id,
            req: live.req.clone(),
            digest: live.digest,
            machine: live.machine.take(),
            rows_sent: live.rows_sent,
        })
    }

    /// Preemption: the job keeps `machine`, paused at `at_cycle`, and
    /// is `Paused` (the caller requeues it). `at_cycle` only ever rises:
    /// a run that started over does not move it back, so its tenant is
    /// billed each cycle once.
    pub(super) fn pause(&mut self, id: JobId, at_cycle: u64, machine: Kept, rows_sent: u64) {
        let live = self.live(id);
        live.machine = Some(machine);
        live.rows_sent = rows_sent;
        let e = self.jobs.get_mut(id).expect("paused job entry exists");
        e.status.at_cycle = e.status.at_cycle.max(at_cycle);
        e.status.state = JobState::Paused;
    }

    /// A killed worker's slice is discarded, and the machine with it:
    /// the job goes back to the head of its lane to start over from
    /// cycle 0 — or, when a cancel arrived while it ran, resolves now.
    pub(super) fn rollback(&mut self, id: JobId) -> Vec<Ended> {
        let e = self.jobs.get_mut(id).expect("running job entry exists");
        let (None, Some(live)) = (&e.result, &e.live) else {
            return Vec::new();
        };
        if live.cancelled {
            return self.resolve(id, Terminal::Err(JobError::Cancelled));
        }
        e.status.state = JobState::Queued;
        self.queues[live.lane as usize].push_front(id);
        Vec::new()
    }

    /// A cancel request: a waiting job (or a follower) resolves at
    /// once, a running one at its slice commit, a finished one keeps
    /// its result.
    pub(super) fn cancel(&mut self, id: JobId) -> Vec<Ended> {
        let Some(e) = self.jobs.get_mut(id) else {
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
    /// dedupe followers — each holding the same report allocation. Each
    /// job resolved here joins the retention queue, the oldest past
    /// [`RETAINED_JOBS`] retiring first to make room.
    /// Returns what ended, one entry per job resolved here (the caller
    /// journals them and wakes the waiters *after* dropping the state
    /// lock); empty only when every job had already resolved, and those
    /// are left untouched.
    pub(super) fn resolve(&mut self, id: JobId, result: Terminal) -> Vec<Ended> {
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
        let mut ended = Vec::new();
        let mut pending = vec![id];
        while let Some(jid) = pending.pop() {
            let Some(e) = self.jobs.get_mut(jid) else {
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
            if let Some(old) = self.jobs.file_terminal(jid) {
                self.retire(old);
            }
            ended.push(match &result {
                Terminal::Done {
                    report,
                    slices,
                    from_cache,
                    ..
                } => {
                    self.stats.completed += 1;
                    Ended::Done {
                        id: jid,
                        slices: *slices,
                        from_cache: *from_cache,
                        report: Arc::clone(report),
                    }
                }
                Terminal::Failed(_) => {
                    self.stats.failed += 1;
                    Ended::Failed(jid)
                }
                Terminal::Err(_) => {
                    self.stats.cancelled += 1;
                    Ended::Cancelled(jid)
                }
            });
        }
        ended
    }

    /// Room for one more terminal job: when [`RETAINED_JOBS`] wait to
    /// retire, the oldest retires first (or is held, while a handle
    /// names it). Admission makes room before a resident hit enters
    /// the table, so the hit's row takes the vacated slot and a full
    /// table's slab does not grow.
    pub(super) fn make_room(&mut self) {
        if let Some(id) = self.jobs.make_room() {
            self.retire(id);
        }
    }

    /// The job's row and its idempotency token leave the table (the
    /// token only while it still names this job: a later job may have
    /// claimed it).
    fn retire(&mut self, id: JobId) {
        if let Some(claim) = self.jobs.remove(id).and_then(|e| e.claim) {
            self.tokens.release(&claim, id);
        }
        self.stats.retired += 1;
    }

    /// A handle to `id` is made: its row stays until the handle drops.
    pub(super) fn pin(&mut self, id: JobId) {
        if let Some(e) = self.jobs.get_mut(id) {
            e.pins += 1;
        }
    }

    /// A handle to `id` dropped: the last one lets a row past the bound
    /// retire.
    pub(super) fn unpin(&mut self, id: JobId) {
        let Some(e) = self.jobs.get_mut(id) else {
            return;
        };
        e.pins -= 1;
        if e.pins == 0 && e.held {
            self.retire(id);
        }
    }

    /// The pool is going down: nothing waits any more and every
    /// unresolved handle reads `Shutdown`. No journal records: the jobs
    /// keep their `Submit`, so a restart on the same journal runs them
    /// again — drop and crash recover identically.
    /// A slice still running commits into the live part as usual.
    pub(super) fn shut_down(&mut self) {
        self.shutdown = true;
        for q in &mut self.queues {
            q.clear();
        }
        for e in self.jobs.iter_mut() {
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
        bucket(&mut self.buckets, q, tenant)
    }

    /// Debit a committed slice's simulated cycles from the bucket of
    /// job `id`'s tenant, read from its row (no-op when unmetered).
    pub(super) fn charge(&mut self, quota: &Option<QuotaPolicy>, id: JobId, cycles: u64) {
        let (Some(q), true) = (quota, cycles > 0) else {
            return;
        };
        let live =
            (self.jobs.get(id).and_then(|e| e.live.as_deref())).expect("a running job is live");
        bucket(&mut self.buckets, q, &live.tenant).level -= cycles as f64;
    }
}

/// [`State::bucket`] on the bucket map alone, so the tenant may be
/// borrowed from the job table; the name is copied only for a tenant's
/// first bucket.
fn bucket<'a>(
    buckets: &'a mut HashMap<String, Bucket>,
    q: &QuotaPolicy,
    tenant: &str,
) -> &'a mut Bucket {
    if !buckets.contains_key(tenant) {
        buckets.insert(tenant.to_string(), Bucket::full(q));
    }
    let b = buckets.get_mut(tenant).expect("inserted above");
    b.refill(q);
    b
}

#[cfg(test)]
mod tests {
    use super::super::{Server, ServerConfig, Submission};
    use super::*;
    use crate::JobHandle;

    /// A server with no workers whose cache already holds `req`'s
    /// result: every submission of `req` resolves at admission.
    fn warm_server(req: &SimRequest) -> Server {
        let srv = Server::start_with(ServerConfig::default(), 0).unwrap();
        let report = wire::encode_report(&req.builder().build().run().report);
        let cycles = wire::decode_report(&report).unwrap().stats.cycles;
        let mut cache = srv.shared.cache.lock().unwrap();
        cache.insert(req.digest(), report, cycles);
        drop(cache);
        srv
    }

    /// Terminal rows in the table.
    fn terminal_rows(srv: &Server) -> usize {
        let st = srv.shared.state.lock().unwrap();
        st.jobs.len() - st.jobs.unfinished()
    }

    /// Past the bound the oldest terminal rows leave, their ids are
    /// unknown, and their tokens are free: reusing one admits a new
    /// job, while a kept job's token still names that job.
    #[test]
    fn the_oldest_terminal_jobs_retire_past_the_bound() {
        let req = SimRequest::golden("ps_tickets").unwrap();
        let srv = warm_server(&req);
        let sub = |token| Submission::new(req.clone()).tenant("t").token(token);
        let total = RETAINED_JOBS as u64 + 500;
        for token in 1..=total {
            let h = srv.submit_with(sub(token)).unwrap();
            assert_eq!(h.id(), token - 1);
        }
        assert_eq!(terminal_rows(&srv), RETAINED_JOBS);
        let stats = srv.stats();
        assert_eq!((stats.completed, stats.retired), (total, 500));
        assert!(srv.handle(0).is_none() && srv.handle(499).is_none());
        assert!(srv.handle(500).is_some() && srv.handle(total - 1).is_some());
        let st = srv.shared.state.lock().unwrap();
        assert_eq!((st.tokens.len(), st.tokens.tenants()), (RETAINED_JOBS, 1));
        drop(st);
        // Job 0's token was retired with it: a new job.
        assert_eq!(srv.submit_with(sub(1)).unwrap().id(), total);
        assert_eq!(srv.stats().tokens_reused, 0);
        // The newest kept job's token still answers with that job.
        assert_eq!(srv.submit_with(sub(total)).unwrap().id(), total - 1);
        assert_eq!(srv.stats().tokens_reused, 1);
        // The new job pushed one more row out: job 500.
        assert_eq!(srv.stats().retired, 501);
        assert!(srv.handle(500).is_none());
    }

    /// A handle held while 5 000 later jobs finish keeps its row: it
    /// polls, waits, streams and cancels as before, and the row retires
    /// when the handle drops.
    #[test]
    fn a_held_handle_keeps_its_row_until_it_drops() {
        let req = SimRequest::golden("ps_tickets").unwrap();
        let srv = warm_server(&req);
        srv.spawn_worker();
        let mut held = srv.submit(req.clone().with_sim(|s| s.probed(64))).unwrap();
        let first = held.wait().unwrap();
        let status = held.poll();
        for _ in 0..5_000 {
            assert!(srv.submit(req.clone()).unwrap().wait().unwrap().from_cache);
        }
        assert_eq!(srv.stats().retired, 5_001 - RETAINED_JOBS as u64 - 1);
        assert_eq!(held.poll(), status);
        assert_eq!(held.wait().unwrap().bytes, first.bytes);
        held.cancel();
        assert_eq!(held.poll(), status, "a finished job keeps its result");
        let rows: Vec<_> = held
            .take_stream()
            .expect("a probed job streams")
            .iter()
            .collect();
        assert!(!rows.is_empty(), "the rows wait for their subscriber");
        let id = held.id();
        assert!(srv.handle(id).is_some(), "a held row answers by id too");
        drop(held);
        assert!(srv.handle(id).is_none());
        assert_eq!(srv.stats().retired, 5_001 - RETAINED_JOBS as u64);
        assert_eq!(terminal_rows(&srv), RETAINED_JOBS);
    }

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
            let e = st.jobs.get(h.id()).unwrap();
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

    /// The job table as it was kept before its rows moved into a slab:
    /// a map of rows, a FIFO of retirees each carrying its own
    /// `(tenant, token)` strings, a map of held retirees and a token map
    /// keyed by `(String, u64)`, with the retention rules written
    /// against them as they stood. `model_test` holds [`State`] to it.
    #[derive(Default)]
    struct OldTable {
        jobs: HashMap<JobId, OldRow>,
        tokens: HashMap<(String, u64), JobId>,
        retiring: VecDeque<Retiree>,
        held: HashMap<JobId, Retiree>,
        queue: VecDeque<JobId>,
        completed: u64,
        cancelled: u64,
        retired: u64,
    }

    struct OldRow {
        /// `Some(true)` once done, `Some(false)` once cancelled.
        result: Option<bool>,
        pins: u32,
        /// Tenant, token and followers; `None` once resolved.
        live: Option<(String, u64, Vec<JobId>)>,
    }

    /// A terminal job waiting to retire, with the key it claimed.
    struct Retiree {
        id: JobId,
        token: Option<(String, u64)>,
    }

    impl OldTable {
        fn insert(&mut self, id: JobId, tenant: &str, token: u64) {
            if token != 0 {
                self.tokens.insert((tenant.to_string(), token), id);
            }
            let live = Some((tenant.to_string(), token, Vec::new()));
            let row = OldRow {
                result: None,
                pins: 0,
                live,
            };
            self.jobs.insert(id, row);
        }

        fn follow(&mut self, id: JobId, primary: JobId) {
            let p = self.jobs.get_mut(&primary).unwrap();
            match (&mut p.live, p.result) {
                (_, Some(done)) => self.resolve(id, done),
                (Some((_, _, followers)), None) => followers.push(id),
                (None, None) => unreachable!("an unresolved job is live"),
            }
        }

        fn resolve(&mut self, id: JobId, done: bool) {
            let mut pending = vec![id];
            while let Some(jid) = pending.pop() {
                let Some(row) = self.jobs.get_mut(&jid) else {
                    continue;
                };
                if row.result.is_some() {
                    continue;
                }
                row.result = Some(done);
                let mut token = None;
                if let Some((tenant, tok, followers)) = row.live.take() {
                    pending.extend(followers);
                    token = (tok != 0).then_some((tenant, tok));
                }
                self.retiring.push_back(Retiree { id: jid, token });
                if done {
                    self.completed += 1;
                } else {
                    self.cancelled += 1;
                }
            }
            while self.retiring.len() > RETAINED_JOBS {
                let r = self.retiring.pop_front().unwrap();
                if self.jobs.get(&r.id).is_some_and(|e| e.pins > 0) {
                    self.held.insert(r.id, r);
                } else {
                    self.retire(r);
                }
            }
        }

        fn retire(&mut self, r: Retiree) {
            self.jobs.remove(&r.id);
            if let Some(key) = r.token {
                if self.tokens.get(&key) == Some(&r.id) {
                    self.tokens.remove(&key);
                }
            }
            self.retired += 1;
        }

        fn pin(&mut self, id: JobId) {
            if let Some(e) = self.jobs.get_mut(&id) {
                e.pins += 1;
            }
        }

        fn unpin(&mut self, id: JobId) {
            let Some(e) = self.jobs.get_mut(&id) else {
                return;
            };
            e.pins -= 1;
            if e.pins == 0 {
                if let Some(r) = self.held.remove(&id) {
                    self.retire(r);
                }
            }
        }

        fn cancel(&mut self, id: JobId) {
            if self.jobs.get(&id).is_some_and(|e| e.result.is_none()) {
                self.queue.retain(|&x| x != id);
                self.resolve(id, false);
            }
        }
    }

    mod model_test {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;
        use std::collections::HashSet;

        const TENANTS: [&str; 3] = ["default", "acme", "batch"];

        /// How a new job enters the table.
        #[derive(Clone, Copy)]
        enum Kind {
            /// A resident cache hit: terminal at admission.
            Hit,
            /// A miss: it waits in its lane.
            Cold,
            /// A batch follower of this job, when the table has it.
            Follow(JobId),
        }

        /// [`State`] and [`OldTable`] driven by the same operations,
        /// through [`State`]'s transitions as admission and a worker
        /// call them, and the handles the test keeps.
        struct Lockstep {
            new: State,
            old: OldTable,
            handles: Vec<JobId>,
            fresh_token: u64,
            /// The most rows the table held after any operation.
            peak_rows: usize,
            req: SimRequest,
            report: Arc<[u8]>,
        }

        impl Lockstep {
            fn new() -> Lockstep {
                Lockstep {
                    new: State::default(),
                    old: OldTable::default(),
                    handles: Vec::new(),
                    fresh_token: 1_000,
                    peak_rows: 0,
                    req: SimRequest::golden("ps_tickets").unwrap(),
                    report: Arc::from(&b"report"[..]),
                }
            }

            fn done(&self) -> Terminal {
                Terminal::hit(Arc::clone(&self.report), 7)
            }

            /// A token by `mode`: none (0), one of eight reused ones
            /// (1), or one never used before (2).
            fn token(&mut self, mode: u32, pick: u32) -> u64 {
                match mode % 3 {
                    0 => 0,
                    1 => 1 + u64::from(pick % 8),
                    _ => {
                        self.fresh_token += 1;
                        self.fresh_token
                    }
                }
            }

            /// A submission as admission makes it: a token still
            /// claimed answers with its job, anything else is a new job
            /// of `kind`. The handle is kept, or dropped at once. A
            /// `replayed` submission enters as recovery inserts a
            /// journaled one, taking its token over from a job that may
            /// still claim it.
            fn submit(
                &mut self,
                tenant: &str,
                token: u64,
                kind: Kind,
                keep: bool,
                replayed: bool,
            ) -> Result<(), TestCaseError> {
                let claimed = self.new.tokens.get(tenant, token);
                let key = (tenant.to_string(), token);
                prop_assert_eq!(claimed, self.old.tokens.get(&key).copied(), "token answer");
                let id = match claimed.filter(|_| token != 0 && !replayed) {
                    Some(id) => id,
                    None => self.admit(tenant, token, kind),
                };
                self.new.pin(id);
                self.old.pin(id);
                if keep {
                    self.handles.push(id);
                } else {
                    self.new.unpin(id);
                    self.old.unpin(id);
                }
                Ok(())
            }

            fn admit(&mut self, tenant: &str, token: u64, kind: Kind) -> JobId {
                let id = self.new.next_id;
                let sub = Submission::new(self.req.clone())
                    .tenant(tenant)
                    .token(token);
                let primary = match kind {
                    Kind::Follow(p) => Some(p).filter(|&p| self.new.jobs.contains(p)),
                    _ => None,
                };
                if let (Kind::Hit, None) = (kind, primary) {
                    self.new.make_room();
                }
                self.new.insert(id, sub, 0);
                self.old.insert(id, tenant, token);
                match (kind, primary) {
                    (_, Some(p)) => {
                        self.new.follow(id, p);
                        self.old.follow(id, p);
                    }
                    (Kind::Hit, None) => {
                        self.new.resolve(id, self.done());
                        self.old.resolve(id, true);
                    }
                    _ => {
                        self.new.enqueue(id);
                        self.old.queue.push_back(id);
                    }
                }
                id
            }

            /// A worker takes the next waiting job and completes it.
            fn finish(&mut self) -> Result<(), TestCaseError> {
                let popped = self.new.start().map(|p| p.id);
                prop_assert_eq!(popped, self.old.queue.pop_front(), "next job");
                if let Some(id) = popped {
                    self.new.resolve(id, self.done());
                    self.old.resolve(id, true);
                }
                Ok(())
            }

            /// Everything a caller can observe of the table is the
            /// same on both sides, and the slab has made no more slots
            /// than the most rows alive at once.
            fn agree(&mut self) -> Result<(), TestCaseError> {
                let (new, old) = (&self.new, &self.old);
                prop_assert_eq!(
                    (new.stats.completed, new.stats.cancelled, new.stats.retired),
                    (old.completed, old.cancelled, old.retired)
                );
                prop_assert_eq!(new.jobs.len(), old.jobs.len(), "rows kept");
                for (&id, row) in &old.jobs {
                    let e = new.jobs.get(id);
                    prop_assert!(e.is_some(), "job {} is kept", id);
                    let e = e.unwrap();
                    prop_assert_eq!(e.result.is_some(), row.result.is_some(), "job {}", id);
                    prop_assert_eq!(e.pins, row.pins, "job {}'s handles", id);
                }
                prop_assert_eq!(new.tokens.len(), old.tokens.len(), "tokens claimed");
                for ((tenant, token), &id) in &old.tokens {
                    prop_assert_eq!(new.tokens.get(tenant, *token), Some(id));
                }
                let tenants: HashSet<&str> = old.tokens.keys().map(|(t, _)| t.as_str()).collect();
                prop_assert_eq!(new.tokens.tenants(), tenants.len(), "tenant names");
                self.peak_rows = self.peak_rows.max(old.jobs.len());
                let slots = new.jobs.slots();
                prop_assert!(
                    slots <= self.peak_rows + 1,
                    "{} slots for at most {} rows",
                    slots,
                    self.peak_rows
                );
                Ok(())
            }

            fn op(&mut self, (op, a, b): (u32, u32, u32)) -> Result<(), TestCaseError> {
                // The prefill's oldest rows hold the only claims of the
                // third tenant.
                let tenant = TENANTS[(b % 2) as usize];
                let (keep, replayed) = (a & 1 == 1, a >> 1 & 7 == 0);
                match op {
                    0..=2 => {
                        let token = self.token(a >> 4, b >> 2);
                        let kind = match op {
                            0 => Kind::Hit,
                            1 => Kind::Cold,
                            _ => Kind::Follow(u64::from(b >> 2) % self.new.next_id.max(1)),
                        };
                        self.submit(tenant, token, kind, keep, replayed)?;
                    }
                    3 => {
                        for _ in 0..=a % 3 {
                            self.finish()?;
                        }
                    }
                    4 => {
                        let id = u64::from(b) % self.new.next_id.max(1);
                        self.new.cancel(id);
                        self.old.cancel(id);
                    }
                    5 if !self.handles.is_empty() => {
                        let id = self.handles.swap_remove(b as usize % self.handles.len());
                        self.new.unpin(id);
                        self.old.unpin(id);
                    }
                    _ => {
                        for _ in 0..=a % 600 {
                            let token = self.token(b % 2 * 2, 0);
                            self.submit(tenant, token, Kind::Hit, false, false)?;
                        }
                    }
                }
                self.agree()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Random admissions — tokened and not, over three tenants,
            /// tokens reused, some replayed — cache hits, queued jobs a
            /// worker finishes, batch followers, cancels and handles
            /// kept and dropped, on a table first filled to a few
            /// hundred rows under its bound, so that rows retire,
            /// handles hold some past it and unfinished rows add slots:
            /// after every operation [`State`] answers every lookup as
            /// the old table did.
            #[test]
            fn the_slab_table_keeps_what_the_old_table_kept(
                under in 0u32..256,
                ops in proptest::collection::vec((0u32..7, any::<u32>(), any::<u32>()), 1..60),
            ) {
                let mut t = Lockstep::new();
                for i in 0..RETAINED_JOBS as u32 - 128 - under {
                    // The oldest rows' tenant claims nothing once they
                    // retire, the next 16 claim the reused tokens a
                    // replayed job may take over, and every 61st handle
                    // is kept, holding its row past the bound.
                    let tenant = TENANTS[if i < 128 { 2 } else { i as usize % 2 }];
                    let token = match i {
                        128..144 => t.token(1, i / 2),
                        _ => t.token(i % 2 * 2, 0),
                    };
                    t.submit(tenant, token, Kind::Hit, i % 61 == 0, false)?;
                }
                t.agree()?;
                for op in ops {
                    t.op(op)?;
                }
                for id in std::mem::take(&mut t.handles) {
                    t.new.unpin(id);
                    t.old.unpin(id);
                }
                t.agree()?;
                prop_assert_eq!(t.new.jobs.len(), t.old.jobs.len());
            }
        }
    }
}
