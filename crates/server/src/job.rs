//! Job-level data types: identity, lifecycle state, status snapshots
//! and terminal results. The live handle ([`crate::JobHandle`]) lives
//! with the server; these are the plain values it traffics in.

use crate::wire::{self, WireError};
use xmt_sim::{RunOutcome, RunStatus};

/// Server-assigned job identity (dense, submission-ordered; stable
/// across a journal-replayed restart).
pub type JobId = u64;

/// Scheduling lane for a submission. The scheduler drains `High`
/// before `Normal`, with a bounded anti-starvation share for `Normal`
/// (`State::pop_id`, `crates/server/src/server/state.rs`); within a
/// lane, preempted jobs round-robin as before. The discriminant is the
/// lane's byte in journal records and submit frames, and its index
/// among the scheduler's run queues.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Lane {
    /// The default lane: bulk sweeps, batch rows.
    #[default]
    Normal = 0,
    /// The express lane: interactive or deadline-bound requests.
    High = 1,
}

impl Lane {
    /// The lane of a wire byte (`lane as u8` is the other direction).
    pub(crate) fn from_code(code: u8) -> Result<Lane, WireError> {
        match code {
            0 => Ok(Lane::Normal),
            1 => Ok(Lane::High),
            _ => Err("bad lane tag"),
        }
    }
}

/// Where a job is in its lifecycle. The discriminant is the state's
/// wire code ([`crate::net::state_code`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// In the run queue, to start at cycle 0: never run, or starting
    /// over after a worker kill or a restart.
    Queued = 0,
    /// A worker is running a slice right now.
    Running = 1,
    /// Preempted at a quiescent point; requeued with its machine for
    /// its next slice.
    Paused = 2,
    /// Completed; the result carries a full report.
    Done = 3,
    /// The simulation stopped on a typed error; the result carries the
    /// partial report.
    Failed = 4,
    /// Cancelled before completion.
    Cancelled = 5,
}

/// A point-in-time snapshot of a job, from [`crate::JobHandle::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobStatus {
    /// Lifecycle state at the time of the poll.
    pub state: JobState,
    /// The simulated cycle the job has reached (last slice boundary).
    pub at_cycle: u64,
    /// Completed worker slices so far (0 for a cache hit).
    pub slices: u32,
    /// True when the result was served from the content cache.
    pub from_cache: bool,
    /// True when this job was collapsed onto an identical batch row
    /// (sweep-level dedupe): it never executes on its own, its result
    /// fans out from the primary.
    pub deduped: bool,
}

/// Why a job produced no simulation outcome — or why a submission was
/// rejected at admission. The discriminant is the error's wire code
/// ([`crate::net::err_code`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The job was cancelled via [`crate::JobHandle::cancel`].
    Cancelled = 0,
    /// The server shut down before the job finished.
    Shutdown = 1,
    /// A bounded wait ([`crate::JobHandle::wait_deadline`]) expired
    /// before the job reached a terminal state. The job keeps running;
    /// only the wait timed out.
    Timeout = 2,
    /// Load shedding: the bounded submission queue is full. Back off
    /// and resubmit.
    Overloaded = 3,
    /// The submitting tenant's token bucket is exhausted (quota is
    /// consumed in simulated cycles; it refills in wall-clock time).
    QuotaExceeded = 4,
    /// No job with the requested id exists on this server (bad id, or
    /// a journal that predates it).
    UnknownJob = 5,
    /// The write-ahead journal could not durably record the
    /// submission, so the job was **not** accepted (an acknowledged
    /// submission must survive a crash; an unjournalable one is
    /// refused instead of silently degrading).
    Journal = 6,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::Shutdown => write!(f, "server shut down before the job finished"),
            JobError::Timeout => write!(f, "wait deadline expired before the job finished"),
            JobError::Overloaded => write!(f, "submission queue full (load shed)"),
            JobError::QuotaExceeded => write!(f, "tenant quota exhausted"),
            JobError::UnknownJob => write!(f, "no such job id on this server"),
            JobError::Journal => write!(f, "journal append failed; submission not accepted"),
        }
    }
}

impl std::error::Error for JobError {}

/// A finished job, from [`crate::JobHandle::wait`].
#[derive(Debug, Clone)]
pub struct JobResult {
    /// How the run ended ([`xmt_sim::RunStatus::Completed`] or
    /// [`xmt_sim::RunStatus::Failed`] with a partial report — a pause
    /// never escapes the server).
    pub outcome: RunOutcome,
    /// The canonical encoded report ([`crate::wire::encode_report`]) —
    /// exactly the bytes the result cache stores, so byte-equality
    /// across cache hits is directly checkable.
    pub bytes: Vec<u8>,
    /// True when served from the content cache without running.
    pub from_cache: bool,
    /// Worker slices the job took (preemption count + 1, 0 on a cache
    /// hit).
    pub slices: u32,
}

impl JobResult {
    /// A completed result from its canonical report bytes — how a
    /// cache hit and a journal-recovered `Done` job come back without
    /// running. `Err` when the bytes no longer decode (a stale or
    /// corrupt blob): the caller runs the job instead.
    pub(crate) fn completed(
        bytes: Vec<u8>,
        from_cache: bool,
        slices: u32,
    ) -> Result<JobResult, WireError> {
        let report = wire::decode_report(&bytes)?;
        Ok(JobResult {
            outcome: RunOutcome {
                status: RunStatus::Completed,
                report,
            },
            bytes,
            from_cache,
            slices,
        })
    }
}
