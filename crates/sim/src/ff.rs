//! Quiet-cycle fast-forwarding, one mechanism at two scales. A cluster
//! whose quiet scan ([`ClusterMasks::quiet_scan`]) says nobody can
//! issue is *parked* — it leaves the worklist with its scan
//! recorded, and the machine pays its stalls by addition until
//! something can change the scan. When every cluster with a thread is
//! parked the whole machine is quiet, and the clock jumps to the next
//! event with the same recorded scans paying for the skipped cycles in
//! bulk.

use super::*;
use issue::ClusterScan;

/// The clusters the fast-forward engine has taken off its worklist
/// (`par_active`) although they have a running thread. A member's
/// every ready TCU is scoreboard-blocked, LSU-capped or waiting
/// silently on posted stores, so each cycle it sits out would have
/// burned exactly its recorded `blocked_*` stalls and performed one
/// wheel wake — the first added to the statistics once per parallel
/// cycle by [`Parked::accrue`], the second replayed when the cluster
/// leaves ([`ClusterMasks::wake_through`], as after a clock jump).
/// Three things can change a member's scan, and each un-parks it:
/// a memory reply landing on it, the clock reaching its `min_busy`
/// (kept in a 16-slot `due` wheel — latencies are ≤ 8 — so neither the
/// per-cycle check nor the skip horizon walks the members), and an
/// `sspawn` minting thread IDs its idle TCUs could take. Members always
/// have a running thread, so the set is empty between sections.
#[derive(Debug)]
pub(super) struct Parked {
    set: ActiveSet,
    /// Per cluster, meaningful for members: the first cycle the cluster
    /// did not step, and its quiet scan at the top of that cycle.
    clusters: Vec<(u64, ClusterScan)>,
    /// Summed over the members.
    blocked_scoreboard: u64,
    blocked_lsu: u64,
    /// Members whose `min_busy` is a cycle `x`, counted under `x & 15`.
    due: [u32; 16],
}

impl Parked {
    pub(super) fn new(clusters: usize) -> Self {
        Self {
            set: ActiveSet::new(clusters),
            clusters: vec![(0, ClusterScan::default()); clusters],
            blocked_scoreboard: 0,
            blocked_lsu: 0,
            due: [0; 16],
        }
    }

    pub(super) fn len(&self) -> u64 {
        self.set.len() as u64
    }

    pub(super) fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    pub(super) fn contains(&self, c: usize) -> bool {
        self.set.contains(c)
    }

    /// The first cluster at or after `from` that steps: the next on
    /// `worklist` — or, with `everyone` (thread IDs remain), the next
    /// that is not parked.
    #[inline(always)]
    pub(super) fn next_stepping(
        &self,
        worklist: &ActiveSet,
        everyone: bool,
        from: usize,
    ) -> Option<usize> {
        if everyone {
            (from..self.clusters.len()).find(|&c| !self.contains(c))
        } else {
            worklist.next_from(from)
        }
    }

    /// Cluster `c` leaves `worklist` to sit out cycle `since` and those
    /// after it; `scan` is its quiet scan at the top of `since`.
    pub(super) fn park(
        &mut self,
        worklist: &mut ActiveSet,
        c: usize,
        since: u64,
        scan: ClusterScan,
    ) {
        debug_assert!(!scan.issue_next && !self.contains(c));
        worklist.set(c, false);
        self.set.insert(c);
        self.clusters[c] = (since, scan);
        self.blocked_scoreboard += scan.blocked_scoreboard;
        self.blocked_lsu += scan.blocked_lsu;
        if scan.min_busy != u64::MAX {
            self.due[(scan.min_busy & 15) as usize] += 1;
        }
    }

    /// Member `c` is back on `worklist` and steps again from cycle
    /// `at`: its masks `m` catch up on the wheel wakes of the cycles it
    /// sat out. Returns its scan.
    pub(super) fn unpark(
        &mut self,
        worklist: &mut ActiveSet,
        c: usize,
        m: &mut ClusterMasks,
        at: u64,
    ) -> ClusterScan {
        let (since, scan) = self.clusters[c];
        m.wake_through(since, at - since);
        worklist.insert(c);
        self.set.set(c, false);
        self.blocked_scoreboard -= scan.blocked_scoreboard;
        self.blocked_lsu -= scan.blocked_lsu;
        if scan.min_busy != u64::MAX {
            self.due[(scan.min_busy & 15) as usize] -= 1;
        }
        scan
    }

    /// Un-park the members whose `min_busy` is `cycle`, the cycle about
    /// to step: a TCU of theirs wakes on it.
    pub(super) fn wake_due(
        &mut self,
        worklist: &mut ActiveSet,
        cycle: u64,
        masks: &mut [ClusterMasks],
    ) {
        let slot = (cycle & 15) as usize;
        let mut from = 0;
        while self.due[slot] != 0 {
            let c = self.set.next_from(from).expect("a due member exists");
            if self.clusters[c].1.min_busy == cycle {
                self.unpark(worklist, c, &mut masks[c], cycle);
            }
            from = c + 1;
        }
    }

    /// Un-park everyone part-way through cycle `cycle`, which credited
    /// every member its stalls at the top: members before cluster
    /// `unvisited` have sat the cycle out and step again from the next
    /// one; the rest step in this one after all and give the credit
    /// back. Returns how many gave it back.
    pub(super) fn unpark_all(
        &mut self,
        worklist: &mut ActiveSet,
        unvisited: usize,
        cycle: u64,
        masks: &mut [ClusterMasks],
        stats: &mut MachineStats,
    ) -> u64 {
        let mut gave_back = 0;
        while let Some(c) = self.set.next_from(0) {
            let sat_out = c < unvisited;
            let scan = self.unpark(worklist, c, &mut masks[c], cycle + u64::from(sat_out));
            if !sat_out {
                stats.stall_scoreboard -= scan.blocked_scoreboard;
                stats.stall_lsu -= scan.blocked_lsu;
                gave_back += 1;
            }
        }
        gave_back
    }

    /// The stalls the members burn over `n` cycles.
    pub(super) fn accrue(&self, stats: &mut MachineStats, n: u64) {
        stats.stall_scoreboard += n * self.blocked_scoreboard;
        stats.stall_lsu += n * self.blocked_lsu;
    }

    /// The earliest `min_busy` among the members, none being earlier
    /// than `next` (`u64::MAX` when no member has a latency-stalled
    /// TCU).
    fn min_busy(&self, next: u64) -> u64 {
        (0..16)
            .find(|k| self.due[((next + k) & 15) as usize] != 0)
            .map_or(u64::MAX, |k| next + k)
    }

    /// Bring every member's masks to the top of cycle `at` without
    /// un-parking it: a probe sample reads each cluster's `busy` mask.
    pub(super) fn settle(&mut self, masks: &mut [ClusterMasks], at: u64) {
        for c in self.set.iter() {
            let since = &mut self.clusters[c].0;
            masks[c].wake_through(*since, at - *since);
            *since = at;
        }
    }
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
                // Whoever still steps is scanned, and parked if quiet.
                // Once every cluster with a thread is parked the skip
                // is paid from the recorded scans, so a run of quiet
                // cycles scans each cluster once, not once a cycle.
                let tids_remain = self.next_tid < self.spawn_count;
                let ntcus = self.cfg.tcus_per_cluster;
                let mut c = 0;
                while let Some(stepping) =
                    self.parked.next_stepping(&self.par_active, tids_remain, c)
                {
                    let m = &self.masks[stepping];
                    let scan = m.quiet_scan(next);
                    if scan.issue_next || tids_remain && m.idle(ntcus) > 0 {
                        return; // someone issues or activates next cycle
                    }
                    if m.active != 0 {
                        self.parked.park(&mut self.par_active, stepping, next, scan);
                    }
                    c = stepping + 1;
                }
                horizon = horizon.min(self.parked.min_busy(next));
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
            // Every cluster with a busy bit is parked, and replays the
            // wakes it sat out when it leaves.
            self.parked.accrue(&mut self.stats, n);
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
