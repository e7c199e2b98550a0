//! Quiet-cycle fast-forwarding: decide from a scan of the cluster masks
//! ([`ClusterMasks::quiet_scan`]) and the memory system's next event
//! how far the clock can jump with nothing able to issue, and replicate
//! in bulk what per-cycle stepping would have done over the skipped
//! cycles.

use super::*;

/// Memoized aggregate of a completed all-clusters fast-forward scan
/// that found nothing able to issue or activate. Valid until any TCU
/// mutates (an instruction issues, a thread activates, or a memory
/// reply is applied) or the clock reaches `min_busy`; quiet steps and
/// bulk skips preserve it, so memory-bound stretches pay for one
/// scan of the clusters instead of one per quiet cycle.
#[derive(Debug, Clone, Copy)]
pub(super) struct FfScanCache {
    pub(super) min_busy: u64,
    pub(super) blocked_scoreboard: u64,
    pub(super) blocked_lsu: u64,
}

impl<P: Probe> Machine<P> {
    /// Move the clock from the end of a quiet cycle to just before the
    /// next event, replicating the bulk effects per-cycle stepping
    /// would have had: stall counters accrue per skipped cycle, the
    /// round-robin counter advances, component clocks jump.
    pub(super) fn fast_forward(&mut self) {
        let next = self.stats.cycles + 1;
        // The earliest cycle on which stepping could do something.
        let mut horizon = self.skip_horizon();
        // The blocked TCUs of the open parallel section, if any.
        let blocked = match self.mode {
            Mode::Finished => return,
            Mode::Serial { resume_at, .. } => {
                if resume_at <= next {
                    return; // the MTCU issues next cycle
                }
                horizon = horizon.min(resume_at);
                None
            }
            Mode::Parallel { .. } => {
                // A memoized scan stays exact while nothing that feeds
                // it changed: issues/activations/replies invalidate it,
                // and past `min_busy` a latency-stalled TCU wakes.
                let agg = match self.ff_cache.filter(|c| next < c.min_busy) {
                    Some(c) => c,
                    None => {
                        let mut agg = FfScanCache {
                            min_busy: u64::MAX,
                            blocked_scoreboard: 0,
                            blocked_lsu: 0,
                        };
                        let tids_remain = self.next_tid < self.spawn_count;
                        let ntcus = self.cfg.tcus_per_cluster;
                        let masks = &self.masks;
                        let mut quiet = |c: usize| {
                            let scan = masks[c].quiet_scan(next);
                            agg.min_busy = agg.min_busy.min(scan.min_busy);
                            agg.blocked_scoreboard += scan.blocked_scoreboard;
                            agg.blocked_lsu += scan.blocked_lsu;
                            !(scan.issue_next || tids_remain && masks[c].idle(ntcus) > 0)
                        };
                        // With thread IDs exhausted, clusters off the
                        // worklist have no active TCUs: nothing to issue,
                        // wake or attribute stalls to, so the scan covers
                        // the worklist only.
                        let all_quiet = if tids_remain {
                            (0..masks.len()).all(&mut quiet)
                        } else {
                            self.par_active.iter().all(&mut quiet)
                        };
                        if !all_quiet {
                            return; // someone issues or activates next cycle
                        }
                        self.ff_cache = Some(agg);
                        agg
                    }
                };
                horizon = horizon.min(agg.min_busy);
                Some(agg)
            }
        };
        if let Some(e) = self.memory_next_event() {
            horizon = horizon.min(e);
        }
        if P::ENABLED {
            // Sampling boundaries are events: stop the skip at the
            // boundary so the probe records the same machine state
            // per-cycle stepping would. Splitting a quiet skip is
            // stats-invariant (stall accrual, wheel wakes and
            // round-robin advance all split additively), so the run's
            // aggregates — and the unprobed engine — are untouched.
            horizon = horizon.min(self.next_sample.saturating_add(1));
        }
        if horizon <= next {
            return;
        }
        let n = horizon - next;
        self.skip_memory(n);
        if let Some(agg) = blocked {
            self.stats.stall_scoreboard += n * agg.blocked_scoreboard;
            self.stats.stall_lsu += n * agg.blocked_lsu;
            // Only worklist clusters can hold a non-empty wake wheel
            // (inactive ⇒ empty, the worklist invariant).
            for c in self.par_active.iter() {
                self.masks[c].wake_through(next, n);
            }
            self.advance_rr(n);
        }
        self.stats.cycles += n;
        self.poll_probe();
    }

    /// Earliest machine-clock cycle at which the memory system can
    /// change state on its own, or `None` when fully drained.
    pub(super) fn memory_next_event(&self) -> Option<u64> {
        // A queued reply injection retries every cycle (it can be
        // refused by backpressure, which mutates NoC stats).
        if !self.active_outboxes.is_empty() {
            return Some(self.stats.cycles + 1);
        }
        let off = self.stats.cycles - self.mem_clock;
        let mut e = u64::MAX;
        if let Some(x) = self.req_net.next_event() {
            e = e.min(x + off);
        }
        if let Some(x) = self.reply_net.next_event() {
            e = e.min(x + off);
        }
        for m in self.active_modules.iter() {
            if let Some(x) = self.modules[m].next_event() {
                e = e.min(x + off);
            }
        }
        for c in self.active_channels.iter() {
            if let Some(x) = self.channels[c].next_event() {
                e = e.min(x + off);
            }
        }
        (e != u64::MAX).then_some(e)
    }
}
