//! Crash recovery: the scheduler state rebuilt from a replayed journal
//! ([`crate::journal`]), by the live transitions of [`super::state`].

use super::state::{SliceState, State, Terminal};
use super::submit_record;
use crate::job::JobError;
use crate::journal::{Record, RecoveredJob};

/// Rebuild scheduler state from journal replay by walking each job
/// through the live transitions, and return the compacted record list
/// to rewrite the journal with: a job's `Submit`, then whatever those
/// transitions journal. Nothing here decides anything admission or a
/// worker does not — in particular identical unfinished jobs are *not*
/// collapsed (which rows formed a batch is not journaled): each is
/// requeued on its own, and the first to finish serves the rest from
/// the result cache, as at admission.
pub(super) fn recover(st: &mut State, jobs: Vec<RecoveredJob>) -> Vec<Record> {
    let mut compact = Vec::new();
    for r in jobs {
        let probed = r.sub.req.sim.probe_interval.is_some();
        compact.push(submit_record(r.id, &r.sub));
        let digest = r.sub.req.digest();
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
            Some(result) => compact.extend(st.resolve(r.id, result)),
            None => {
                // From the latest checkpoint when unprobed, from
                // scratch when probed (the probe ring is not journaled;
                // a deterministic rerun regenerates the identical row
                // stream).
                if let Some((at_cycle, cp)) = r.checkpoint.filter(|_| !probed) {
                    let carry = SliceState {
                        checkpoint: Some(cp),
                        ..SliceState::default()
                    };
                    compact.extend(st.pause(r.id, at_cycle, carry));
                }
                st.enqueue(r.id);
            }
        }
    }
    compact
}
