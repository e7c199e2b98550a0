//! Crash recovery: the scheduler state rebuilt from a replayed journal
//! ([`crate::journal`]), by the live transitions of [`super::state`].

use std::sync::Mutex;

use super::state::{Ended, State, Terminal};
use super::{address, submit_record, ProgramMemo};
use crate::job::JobError;
use crate::journal::{Record, Replay};

/// Rebuild scheduler state from journal replay by walking each job
/// through the live transitions, and return the compacted record list
/// to rewrite the journal with: the `Submit` of every job the table
/// kept, then whatever those transitions journal. Finished jobs resolve
/// in the order their terminal records were written, so the table
/// retires the same jobs the live server would have, and they leave
/// the file. Nothing here decides anything admission or a
/// worker does not — in particular identical unfinished jobs are *not*
/// collapsed (which rows formed a batch is not journaled): each is
/// requeued on its own, and the first to finish serves the rest from
/// the result cache, as at admission. Addresses come through the
/// server's program memo, as at admission.
pub(super) fn recover(
    st: &mut State,
    replay: Replay,
    programs: &Mutex<ProgramMemo>,
) -> Vec<Record> {
    let mut submits = Vec::with_capacity(replay.jobs.len());
    let mut finished = Vec::new();
    for r in replay.jobs {
        submits.push((r.id, submit_record(r.id, &r.sub)));
        let digest = address(programs, &r.sub.req);
        st.insert(r.id, r.sub, digest);
        let ended = match r.terminal {
            // A recorded Done whose bytes no longer decode (version
            // skew) falls through to re-execution — determinism
            // regenerates it.
            Some(Record::Done {
                slices,
                from_cache,
                report,
                ..
            }) => Terminal::completed(report.into(), from_cache, slices),
            Some(Record::Cancelled { .. }) => Some(Terminal::Err(JobError::Cancelled)),
            // A `Failed` record only marks that it happened: like an
            // unfinished job, the run is repeated.
            _ => None,
        };
        match ended {
            Some(result) => finished.push((r.ended_at, r.id, result)),
            // From cycle 0: runs are deterministic, so the rerun
            // reproduces the report and every probe row.
            None => st.enqueue(r.id),
        }
    }
    finished.sort_by_key(|&(at, ..)| at);
    let mut ended = Vec::with_capacity(finished.len());
    for (_, id, result) in finished {
        ended.extend(st.resolve(id, result));
    }
    st.next_id = st.next_id.max(replay.next_id);
    let mut compact: Vec<Record> = submits
        .into_iter()
        .filter(|(id, _)| st.jobs.contains(*id))
        .map(|(_, rec)| rec)
        .collect();
    compact.extend(
        ended
            .iter()
            .filter(|e| st.jobs.contains(e.id()))
            .map(Ended::record),
    );
    // The highest id issued belongs to no kept job: an empty `Commit`
    // carries it, so no restart issues it again.
    let last = st.next_id.checked_sub(1);
    if let Some(id) = last.filter(|&id| !st.jobs.contains(id)) {
        compact.push(Record::Commit {
            id,
            at_cycle: 0,
            checkpoint: Vec::new(),
        });
    }
    compact
}
