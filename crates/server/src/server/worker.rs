//! The worker pool. Scheduling model: two FIFO run queues of job ids — a `High` express
//! lane and the default `Normal` lane — under the state mutex, with
//! idle workers asleep on a condvar of their own (`Shared::work`). A
//! worker pops the head (`High` first, with a bounded anti-starvation
//! share for `Normal`), takes the job's paused machine — or builds one
//! on the first slice — and advances it by one *quantum* of simulated
//! cycles ([`xmt_sim::Machine::run_until`]). A job that outlives its
//! quantum stops at the quiescent pause point and goes to the *back* of
//! its lane with its machine: round-robin fairness, so paper-scale runs
//! interleave with short sweep rows instead of starving them. The next
//! slice runs that same machine onward on whichever worker pops it
//! (machines are `Send`); nothing is serialized between slices.
//!
//! Failure injection: [`crate::Server::kill_worker`] marks one pending kill
//! and spawns a replacement thread. The next worker to finish a slice
//! consumes the kill *instead of committing*: its slice's results
//! (the machine, streamed rows, even a terminal report) are discarded
//! as if the thread had died mid-job, the job goes back to the head of
//! its lane to start over from cycle 0, and the thread exits. Because
//! runs are deterministic the rerun is bit-identical; the row watermark
//! keeps it from sending a row twice and the job's `at_cycle`
//! high-water mark from billing a cycle twice — the contracts the
//! server tests pin.

use std::sync::Arc;

use super::state::{Kept, Popped, Terminal};
use super::{publish, unpoison, Shared};
use crate::job::{JobError, JobResult};
use crate::request::SimRequest;
use crate::wire;
use xmt_sim::{
    IntervalProbe, IntervalRow, Machine, MachineStats, Probe, RunOutcome, RunStatus, SimError,
    UtilizationReport,
};

/// Pop the next runnable job, sleeping on the workers' condvar while
/// there is none. `None` = this worker should exit (shutdown). A wake
/// that finds nothing to do counts in `idle_wakeups`.
fn next_job(shared: &Shared) -> Option<Popped> {
    let mut st = unpoison(shared.state.lock());
    let mut woke = false;
    loop {
        if st.shutdown {
            return None;
        }
        if let Some(p) = st.start() {
            return Some(p);
        }
        if woke {
            st.stats.idle_wakeups += 1;
        }
        st = unpoison(shared.work.wait(st));
        woke = true;
    }
}

/// An empty report for failures that precede the first cycle
/// (builder rejections).
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
    /// The watermark once `rows` are sent.
    rows_sent: u64,
    end: SliceEnd,
}

/// How a slice ended.
enum SliceEnd {
    /// The run ended, completed or failed.
    Ended(Box<RunOutcome>),
    /// The quantum ran out: the next slice runs this machine onward.
    Paused(Kept),
}

/// Advance `m` by one quantum. Probed or not, one path.
fn run_quantum<P: Probe>(m: &mut Machine<P>, quantum: u64) -> RunOutcome {
    m.run_until(m.stats.cycles.saturating_add(quantum))
}

/// The probe's rows past the subscriber's watermark `sent`. The ring
/// holds the newest `rows().len()` of `samples()` rows; rows lost to
/// ring overwrite are simply gone — same contract as `rows()`.
fn unsent(probe: &IntervalProbe, sent: u64) -> Vec<IntervalRow> {
    let all = probe.rows();
    let first = probe.samples() - all.len() as u64;
    let skip = sent.saturating_sub(first) as usize;
    all.into_iter().skip(skip).collect()
}

/// Run one quantum of the job on its paused machine, or on one built
/// from `req` when the run starts at cycle 0. A request no machine can
/// be built from is the returned error; run failures are *not* errors
/// here (they arrive as terminal outcomes with partial reports).
///
/// A probed job's machine keeps its `IntervalProbe`, so the sample
/// stream — including the interval each pause splits — is the
/// uninterrupted run's. `rows_sent` is the subscriber's watermark; only
/// rows past it are returned for streaming, which is also what makes a
/// run that starts over send each row once.
fn run_slice(
    req: &SimRequest,
    machine: Option<Kept>,
    rows_sent: u64,
    quantum: u64,
) -> Result<SliceOut, SimError> {
    let mut machine = match machine {
        Some(m) => m,
        None => {
            let builder = req.builder();
            match req.sim.interval_probe() {
                Some(probe) => Kept::Probed(Box::new(builder.try_build_probed(probe)?)),
                None => Kept::Plain(Box::new(builder.try_build()?)),
            }
        }
    };
    let (outcome, rows, samples) = match &mut machine {
        Kept::Plain(m) => (run_quantum(m, quantum), Vec::new(), 0),
        Kept::Probed(m) => {
            let outcome = run_quantum(m, quantum);
            (outcome, unsent(m.probe(), rows_sent), m.probe().samples())
        }
    };
    Ok(SliceOut {
        at_cycle: outcome.at_cycle(),
        rows,
        rows_sent: rows_sent.max(samples),
        end: match outcome.status {
            RunStatus::Paused { .. } => SliceEnd::Paused(machine),
            _ => SliceEnd::Ended(Box::new(outcome)),
        },
    })
}

/// One worker thread: pop, slice, commit, repeat.
pub(super) fn run(shared: &Shared) {
    while let Some(Popped {
        id,
        req,
        digest,
        machine,
        rows_sent,
    }) = next_job(shared)
    {
        let cacheable = req.sim.probe_interval.is_none();
        // An unprobed run about to start at cycle 0: try the content
        // cache before building anything. (Probed runs bypass the cache — their
        // value is the stream.) Admission already answered what was
        // resident when the job arrived; this lookup serves a job
        // queued before its key was cached, and results only on disk.
        // Cache hits charge no quota and share the entry's bytes; a
        // corrupt persisted file is a miss, and the job recomputes.
        if machine.is_none() && cacheable {
            let cached = unpoison(shared.cache.lock()).get_entry(digest);
            if let Some((report, cycles)) = cached {
                let hit = Terminal::hit(report, cycles);
                let ended = unpoison(shared.state.lock()).resolve(id, hit);
                publish(shared, &ended);
                continue;
            }
        }

        let slice = run_slice(&req, machine, rows_sent, shared.quantum);

        let mut cache_put: Option<(u64, Arc<[u8]>, u64)> = None;
        let mut st = unpoison(shared.state.lock());
        // A pending kill consumes this slice instead of committing
        // it: the slice and the machine are dropped, the job starts
        // over, and this thread dies.
        if st.kill_lands(id) {
            st.kill_requests -= 1;
            let ended = st.rollback(id);
            drop(st);
            shared.work.notify_all();
            publish(shared, &ended);
            return;
        }
        let e = st.jobs.get_mut(id).expect("running job entry exists");
        let live = e.live.as_mut().expect("a running job is live");
        let ended = if live.cancelled {
            st.resolve(id, Terminal::Err(JobError::Cancelled))
        } else {
            e.status.slices += 1;
            let slices = e.status.slices;
            // A machine that cannot be built: terminal where the job
            // stood, with an empty partial report.
            let s = slice.unwrap_or_else(|err| SliceOut {
                at_cycle: e.status.at_cycle,
                rows: Vec::new(),
                rows_sent,
                end: SliceEnd::Ended(Box::new(RunOutcome {
                    status: RunStatus::Failed(err),
                    report: empty_report(),
                })),
            });
            if let Some(tx) = &live.stream {
                for row in s.rows {
                    // A dropped receiver is fine — rows are
                    // best-effort observability, not results.
                    let _ = tx.send(row);
                }
            }
            let burned = s.at_cycle.saturating_sub(e.status.at_cycle);
            st.charge(&shared.quota, id, burned);
            match s.end {
                // Preempted: keep the machine, go to the back of the
                // lane. Nothing is journaled, and nobody woken: this
                // worker pops next itself.
                SliceEnd::Paused(machine) => {
                    st.pause(id, s.at_cycle, machine, s.rows_sent);
                    st.enqueue(id);
                    Vec::new()
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
                        outcome: *outcome,
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
        publish(shared, &ended);
    }
}
