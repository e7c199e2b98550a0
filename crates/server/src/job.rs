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
/// (see `crates/server/src/server.rs`); within a lane, preempted jobs
/// round-robin as before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Lane {
    /// The default lane: bulk sweeps, batch rows.
    #[default]
    Normal,
    /// The express lane: interactive or deadline-bound requests.
    High,
}

impl Lane {
    /// The lane's byte in journal records and submit frames, and its
    /// index among the scheduler's run queues.
    pub(crate) fn code(self) -> u8 {
        match self {
            Lane::Normal => 0,
            Lane::High => 1,
        }
    }

    /// Inverse of [`Lane::code`].
    pub(crate) fn from_code(code: u8) -> Result<Lane, WireError> {
        match code {
            0 => Ok(Lane::Normal),
            1 => Ok(Lane::High),
            _ => Err("bad lane tag"),
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// In the run queue, never run.
    Queued,
    /// A worker is running a slice right now.
    Running,
    /// Preempted at a quiescent checkpoint; requeued for its next
    /// slice.
    Paused,
    /// Completed; the result carries a full report.
    Done,
    /// The simulation stopped on a typed error; the result carries the
    /// partial report.
    Failed,
    /// Cancelled before completion.
    Cancelled,
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
/// rejected at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The job was cancelled via [`crate::JobHandle::cancel`].
    Cancelled,
    /// The server shut down before the job finished.
    Shutdown,
    /// A bounded wait ([`crate::JobHandle::wait_deadline`]) expired
    /// before the job reached a terminal state. The job keeps running;
    /// only the wait timed out.
    Timeout,
    /// Load shedding: the bounded submission queue is full. Back off
    /// and resubmit.
    Overloaded,
    /// The submitting tenant's token bucket is exhausted (quota is
    /// consumed in simulated cycles; it refills in wall-clock time).
    QuotaExceeded,
    /// No job with the requested id exists on this server (bad id, or
    /// a journal that predates it).
    UnknownJob,
    /// The write-ahead journal could not durably record the
    /// submission, so the job was **not** accepted (an acknowledged
    /// submission must survive a crash; an unjournalable one is
    /// refused instead of silently degrading).
    Journal,
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
