//! The worker pool. Scheduling model: two FIFO run queues of job ids — a `High` express
//! lane and the default `Normal` lane — under a mutex+condvar. A
//! worker pops the head (`High` first, with a bounded anti-starvation
//! share for `Normal`), rebuilds the job's machine — from scratch on
//! its first slice, from its serialized checkpoint on later ones — and
//! advances it by one *quantum* of simulated cycles
//! ([`xmt_sim::Machine::run_until`]). A job that outlives its quantum is
//! checkpointed at the quiescent pause point, serialized back to
//! bytes, and pushed to the *back* of its lane: round-robin fairness,
//! so paper-scale runs interleave with short sweep rows instead of
//! starving them. Machines never cross threads — only requests and
//! checkpoint bytes live in shared state, which keeps every worker's
//! machine fully thread-local (the threaded engine's `Box<dyn
//! Network>` internals are never `Send`-required).
//!
//! Failure injection: [`crate::Server::kill_worker`] marks one pending kill
//! and spawns a replacement thread. The next worker to finish a slice
//! consumes the kill *instead of committing*: its slice's results
//! (checkpoint, streamed rows, even a terminal report) are discarded
//! as if the thread had died mid-job, the job is requeued exactly as
//! it was popped, and the thread exits. Because every slice starts
//! from a deterministic checkpoint, the rerun is bit-identical — the
//! contract the server smoke test pins.

use std::sync::Arc;

use super::state::{Popped, SliceState, Terminal};
use super::{publish, unpoison, Shared};
use crate::job::{JobError, JobResult};
use crate::request::SimRequest;
use crate::wire;
use xmt_sim::{
    Checkpoint, IntervalProbe, IntervalRow, MachineStats, NoProbe, Probe, RunOutcome, RunStatus,
    SimError, UtilizationReport,
};

/// Pop the next runnable job, blocking on the condvar. `None` = this
/// worker should exit (shutdown).
fn next_job(shared: &Shared) -> Option<Popped> {
    let mut st = unpoison(shared.state.lock());
    loop {
        if st.shutdown {
            return None;
        }
        if let Some(p) = st.start() {
            return Some(p);
        }
        st = unpoison(shared.cv.wait(st));
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

/// What one worker slice produced (built outside the lock).
struct SliceOut {
    at_cycle: u64,
    /// Probe rows not yet streamed (the tail past the job's
    /// `rows_sent` watermark).
    rows: Vec<IntervalRow>,
    end: SliceEnd,
}

/// How a slice ended.
enum SliceEnd {
    /// The run ended, completed or failed.
    Ended(RunOutcome),
    /// The quantum ran out: the next slice starts from this.
    Paused(SliceState),
}

/// Build (or resume) the job's machine around `probe`, advance it to
/// `target`, and hand back the outcome, the checkpoint bytes when that
/// outcome is a pause, and the probe. Probed or not, one path.
fn run_quantum<P: Probe>(
    req: &SimRequest,
    cp: Option<&Checkpoint>,
    probe: P,
    target: u64,
) -> Result<(RunOutcome, Option<Vec<u8>>, P), SimError> {
    let builder = req.builder();
    let mut m = match cp {
        Some(c) => builder.resume_probed(c, probe)?,
        None => builder.try_build_probed(probe)?,
    };
    let outcome = m.run_until(target);
    let checkpoint = match outcome.status {
        RunStatus::Paused { .. } => Some(m.checkpoint_bytes()?),
        _ => None,
    };
    Ok((outcome, checkpoint, m.into_probe()))
}

/// Run one quantum of the job from `from`. Every error along the way —
/// corrupt checkpoint, invalid config — funnels into the returned
/// `Result`; run failures are *not* errors here (they arrive as
/// terminal outcomes with partial reports).
///
/// Probed jobs carry their `IntervalProbe` across slices
/// ([`IntervalProbe::into_carried`]): the probe's delta baseline stays
/// at the last emitted boundary and the checkpoint restores every
/// cumulative counter it refers to, so the sample stream — including
/// the interval each pause splits — is bit-identical to an
/// uninterrupted run's. `from.rows_sent` is the subscriber's
/// watermark; only rows past it are returned for streaming.
fn run_slice(req: &SimRequest, from: SliceState, quantum: u64) -> Result<SliceOut, SimError> {
    let cp = (from.checkpoint.as_deref())
        .map(Checkpoint::from_bytes)
        .transpose()?;
    let cp = cp.as_ref();
    let target = cp.map_or(0, Checkpoint::cycle).saturating_add(quantum);
    let (outcome, checkpoint, probe, rows) = match req.sim.interval_probe() {
        Some(fresh) => {
            let probe = from.probe.map_or(fresh, IntervalProbe::into_carried);
            let (outcome, checkpoint, probe) = run_quantum(req, cp, probe, target)?;
            let all = probe.rows();
            // The ring holds the newest `all.len()` of `samples()`
            // rows; skip the ones the subscriber already has (rows
            // lost to ring overwrite are simply gone — same contract
            // as `rows()`).
            let first = probe.samples() - all.len() as u64;
            let skip = from.rows_sent.saturating_sub(first) as usize;
            let rows = all.into_iter().skip(skip).collect();
            (outcome, checkpoint, Some(probe), rows)
        }
        None => {
            let (outcome, checkpoint, NoProbe) = run_quantum(req, cp, NoProbe, target)?;
            (outcome, checkpoint, None, Vec::new())
        }
    };
    Ok(SliceOut {
        at_cycle: outcome.at_cycle(),
        rows,
        end: match checkpoint {
            None => SliceEnd::Ended(outcome),
            Some(cp) => SliceEnd::Paused(SliceState {
                checkpoint: Some(cp),
                rows_sent: probe.as_ref().map_or(0, IntervalProbe::samples),
                probe,
            }),
        },
    })
}

/// One worker thread: pop, slice, commit, repeat.
pub(super) fn run(shared: &Shared) {
    while let Some(Popped {
        id,
        req,
        digest,
        from,
    }) = next_job(shared)
    {
        let cacheable = req.sim.probe_interval.is_none();
        // First slice of an unprobed run: try the content cache before
        // building anything. (Probed runs bypass the cache — their
        // value is the stream.) Cache hits charge no quota and share the
        // entry's bytes; a corrupt cached blob falls through and
        // recomputes.
        if from.checkpoint.is_none() && cacheable {
            let cached = unpoison(shared.cache.lock()).get(digest);
            if let Some(hit) = cached.and_then(|bytes| Terminal::completed(bytes, true, 0)) {
                let recs = unpoison(shared.state.lock()).resolve(id, hit);
                publish(shared, &recs);
                continue;
            }
        }

        let slice = run_slice(&req, from, shared.quantum);

        let mut cache_put: Option<(u64, Arc<[u8]>, u64)> = None;
        let mut st = unpoison(shared.state.lock());
        // A pending kill consumes this slice instead of committing
        // it: roll the job back to its pre-slice state and die.
        if st.kill_requests > 0 {
            st.kill_requests -= 1;
            let recs = st.rollback(id);
            drop(st);
            publish(shared, &recs);
            return;
        }
        let e = st.jobs.get_mut(&id).expect("running job entry exists");
        let live = e.live.as_mut().expect("a running job is live");
        let recs = if live.cancelled {
            st.resolve(id, Terminal::Err(JobError::Cancelled))
        } else {
            e.status.slices += 1;
            let slices = e.status.slices;
            // Construction/resume-level failure: terminal where the
            // job stood, with an empty partial report.
            let s = slice.unwrap_or_else(|err| SliceOut {
                at_cycle: e.status.at_cycle,
                rows: Vec::new(),
                end: SliceEnd::Ended(RunOutcome {
                    status: RunStatus::Failed(err),
                    report: empty_report(),
                }),
            });
            if let Some(tx) = &live.stream {
                for row in s.rows {
                    // A dropped receiver is fine — rows are
                    // best-effort observability, not results.
                    let _ = tx.send(row);
                }
            }
            let burned = s.at_cycle.saturating_sub(e.status.at_cycle);
            let tenant = live.tenant.clone();
            st.charge(&shared.quota, &tenant, burned);
            match s.end {
                // Preempted: commit the checkpoint and the carried
                // probe, go to the back of the lane.
                SliceEnd::Paused(carry) => {
                    let commit = st.pause(id, s.at_cycle, carry);
                    st.enqueue(id);
                    commit.into_iter().collect()
                }
                // Completed: the report is encoded once, and the job,
                // its followers and the cache entry share the bytes.
                SliceEnd::Ended(outcome) if outcome.is_completed() => {
                    let report: Arc<[u8]> = wire::encode_report(&outcome.report).into();
                    if cacheable {
                        cache_put = Some((digest, Arc::clone(&report), s.at_cycle));
                    }
                    let done = Terminal::Done {
                        report,
                        at_cycle: outcome.at_cycle(),
                        slices,
                        from_cache: false,
                    };
                    st.resolve(id, done)
                }
                SliceEnd::Ended(outcome) => {
                    let failed = JobResult {
                        bytes: wire::encode_report(&outcome.report),
                        outcome,
                        from_cache: false,
                        slices,
                    };
                    st.resolve(id, Terminal::Failed(Box::new(failed)))
                }
            }
        };
        drop(st);
        if let Some((key, bytes, cycles)) = cache_put {
            unpoison(shared.cache.lock()).insert(key, bytes, cycles);
        }
        publish(shared, &recs);
    }
}
