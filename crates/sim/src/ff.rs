//! Quiet-cycle fast-forwarding: decide from a scan of the clusters and
//! the memory system's next event how far the clock can jump with
//! nothing able to issue, and replicate in bulk what per-cycle stepping
//! would have done over the skipped cycles.

use super::*;

/// Result of scanning one cluster for fast-forward eligibility.
#[derive(Debug, Clone, Copy)]
pub(super) struct ClusterScan {
    /// Some TCU could issue (or fault) next cycle — cannot skip.
    pub(super) issue_next: bool,
    /// Earliest `busy_until` among latency-stalled TCUs (`u64::MAX`
    /// when none).
    pub(super) min_busy: u64,
    /// TCUs that would burn a scoreboard-stall per skipped cycle.
    pub(super) blocked_scoreboard: u64,
    /// TCUs that would burn an LSU-stall per skipped cycle (at the
    /// outstanding-transaction cap).
    pub(super) blocked_lsu: u64,
    /// Idle TCUs (would activate if thread IDs remained).
    pub(super) idle: u64,
}

/// Scan a cluster as it would be seen at the top of cycle `next`:
/// classify every TCU as issuing, latency-stalled, scoreboard-stalled,
/// LSU-capped, silently waiting (join with posted stores) or idle.
/// Reads the memoized `IssueClass` the issue kernel dispatches on; any
/// class that would issue *or fault* reports `issue_next`, so the
/// kernel keeps sole ownership of side effects and errors.
///
/// With `COMPLETE` the scan visits every TCU — the threaded engine
/// sizes thread-ID grants from `idle`, so its counts must stay complete
/// even once `issue_next` is set. The fast-forward engine only uses the
/// counts when nothing issues, so it passes `COMPLETE = false` and the
/// scan returns the moment `issue_next` is decided.
pub(super) fn scan_cluster<const COMPLETE: bool>(cluster: &[Tcu], next: u64) -> ClusterScan {
    let mut scan = ClusterScan {
        issue_next: false,
        min_busy: u64::MAX,
        blocked_scoreboard: 0,
        blocked_lsu: 0,
        idle: 0,
    };
    for tcu in cluster {
        if !tcu.active {
            // A disabled TCU never activates: it is not idle capacity,
            // so thread-ID grant sizing must not count it.
            if !tcu.disabled {
                scan.idle += 1;
            }
            continue;
        }
        if tcu.busy_until > next {
            scan.min_busy = scan.min_busy.min(tcu.busy_until);
            continue;
        }
        if tcu.stuck {
            // Stuck-at: active but never issues — no stall counter, no
            // issue, no event. Only the watchdog ends this.
            continue;
        }
        match tcu.cls {
            IssueClass::Scoreboard => scan.blocked_scoreboard += 1,
            IssueClass::Lsu if tcu.outstanding >= MAX_OUTSTANDING => {
                scan.blocked_lsu += 1;
            }
            IssueClass::Join if tcu.outstanding > 0 => {
                // Join waiting on posted stores is silent: no stall
                // counter, no issue. The reply that unblocks it is a
                // tracked memory event.
            }
            // Every other class issues or faults (port budgets start
            // ≥1 per cluster, and a budget only empties on a cycle
            // that issued — which this, by construction, is not).
            _ => {
                scan.issue_next = true;
                if !COMPLETE {
                    return scan;
                }
            }
        }
    }
    scan
}

/// Memoized aggregate of a completed all-clusters fast-forward scan
/// that found nothing able to issue or activate. Valid until any TCU
/// mutates (an instruction issues, a thread activates, or a memory
/// reply is applied) or the clock reaches `min_busy`; quiet steps and
/// bulk skips preserve it, so memory-bound stretches pay for one
/// O(clusters × TCUs) scan instead of one per quiet cycle.
#[derive(Debug, Clone, Copy)]
pub(super) struct FfScanCache {
    pub(super) min_busy: u64,
    pub(super) blocked_scoreboard: u64,
    pub(super) blocked_lsu: u64,
}

impl<P: Probe> Machine<P> {
    /// Move the clock from the end of a quiet cycle to just before the
    /// next event, replicating the bulk effects per-cycle stepping
    /// would have had: stall counters accrue per skipped cycle,
    /// round-robin pointers advance, component clocks jump.
    pub(super) fn fast_forward(&mut self) {
        let next = self.cycle + 1;
        // The earliest cycle on which stepping could do something;
        // capped so a totally event-free machine still trips the
        // cycle-limit check exactly where the reference engine does,
        // and so the watchdog fires on the identical cycle (a stuck
        // TCU never issues, which a quiet-scan would skip past).
        let mut horizon = (self.max_cycles + 1).min(self.watchdog_horizon());
        let mut blocked_scoreboard = 0u64;
        let mut blocked_lsu = 0u64;
        let parallel = match self.mode {
            Mode::Finished => return,
            Mode::Serial { resume_at, .. } => {
                if resume_at <= next {
                    return; // the MTCU issues next cycle
                }
                horizon = horizon.min(resume_at);
                false
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
                        // With thread IDs exhausted, clusters off the
                        // worklist have no active TCUs: nothing to issue,
                        // wake or attribute stalls to, so the scan covers
                        // the worklist only.
                        let members: Option<&[usize]> = (self.next_tid >= self.spawn_count)
                            .then_some(self.par_active.as_slice());
                        let n_scan = members.map_or(self.clusters.len(), |m| m.len());
                        for i in 0..n_scan {
                            let c = members.map_or(i, |m| m[i]);
                            let scan = scan_cluster::<false>(&self.clusters[c], next);
                            if scan.issue_next
                                || (scan.idle > 0 && self.next_tid < self.spawn_count)
                            {
                                return; // someone issues or activates next cycle
                            }
                            agg.min_busy = agg.min_busy.min(scan.min_busy);
                            agg.blocked_scoreboard += scan.blocked_scoreboard;
                            agg.blocked_lsu += scan.blocked_lsu;
                        }
                        self.ff_cache = Some(agg);
                        agg
                    }
                };
                horizon = horizon.min(agg.min_busy);
                blocked_scoreboard = agg.blocked_scoreboard;
                blocked_lsu = agg.blocked_lsu;
                true
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
        if parallel {
            self.stats.stall_scoreboard += n * blocked_scoreboard;
            self.stats.stall_lsu += n * blocked_lsu;
            // Only worklist clusters can hold a non-empty wake wheel
            // (inactive ⇒ empty, the worklist invariant), and the
            // round-robin pointers catch up lazily via `pcyc` instead
            // of an O(clusters) advance per skip.
            let masks = &mut self.masks;
            for &c in &self.par_active {
                masks[c].wake_through(next, n);
            }
            self.pcyc += n;
        }
        self.cycle += n;
        self.stats.cycles = self.cycle;
        self.poll_probe();
    }

    /// Earliest machine-clock cycle at which the memory system can
    /// change state on its own, or `None` when fully drained.
    pub(super) fn memory_next_event(&self) -> Option<u64> {
        // A queued reply injection retries every cycle (it can be
        // refused by backpressure, which mutates NoC stats).
        if !self.active_outboxes.is_empty() {
            return Some(self.cycle + 1);
        }
        let off = self.cycle - self.mem_clock;
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
