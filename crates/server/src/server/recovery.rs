//! Crash recovery: the scheduler state rebuilt from a replayed journal
//! ([`crate::journal`]), by the live transitions of [`super::state`].

use std::sync::Mutex;

use super::state::{Ended, State, Terminal};
use super::{address, submit_record, ProgramMemo};
use crate::job::JobError;
use crate::journal::{Record, RecoveredJob};

/// Rebuild scheduler state from journal replay by walking each job
/// through the live transitions, and return the compacted record list
/// to rewrite the journal with: a job's `Submit`, then whatever those
/// transitions journal. Nothing here decides anything admission or a
/// worker does not — in particular identical unfinished jobs are *not*
/// collapsed (which rows formed a batch is not journaled): each is
/// requeued on its own, and the first to finish serves the rest from
/// the result cache, as at admission. Addresses come through the
/// server's program memo, as at admission.
pub(super) fn recover(
    st: &mut State,
    jobs: Vec<RecoveredJob>,
    programs: &Mutex<ProgramMemo>,
) -> Vec<Record> {
    let mut compact = Vec::new();
    for r in jobs {
        compact.push(submit_record(r.id, &r.sub));
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
            Some(result) => compact.extend(st.resolve(r.id, result).iter().map(Ended::record)),
            // From cycle 0: runs are deterministic, so the rerun
            // reproduces the report and every probe row.
            None => st.enqueue(r.id),
        }
    }
    compact
}
