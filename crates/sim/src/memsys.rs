//! The memory side of a machine cycle: request NoC → memory modules →
//! DRAM channels → reply NoC → TCUs, stepping only the components that
//! have work.

use super::*;

/// A matured reply headed for a TCU (cluster, tcu, kind, value).
pub(super) struct ReplyDelivery {
    pub(super) cluster: usize,
    pub(super) tcu: usize,
    pub(super) kind: TxnKind,
    pub(super) value: u32,
}

/// The components of one kind (modules, channels, outboxes, clusters)
/// that have work, as a bitset: joining and leaving are O(1), and
/// members are visited by `trailing_zeros` in ascending index order —
/// the order the memory cycle merges DRAM requests and reply injections
/// in, and the order clusters step in.
#[derive(Debug)]
pub(super) struct ActiveSet(Vec<u64>);

impl ActiveSet {
    pub(super) fn new(universe: usize) -> Self {
        Self(vec![0; universe.div_ceil(64)])
    }

    pub(super) fn is_empty(&self) -> bool {
        self.0.iter().all(|&word| word == 0)
    }

    pub(super) fn len(&self) -> usize {
        self.0.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// Add `idx` (a no-op when already a member).
    pub(super) fn insert(&mut self, idx: usize) {
        self.0[idx >> 6] |= 1u64 << (idx & 63);
    }

    pub(super) fn contains(&self, idx: usize) -> bool {
        self.0[idx >> 6] & (1u64 << (idx & 63)) != 0
    }

    /// Make `idx` a member, or not.
    pub(super) fn set(&mut self, idx: usize, member: bool) {
        let bit = 1u64 << (idx & 63);
        let word = &mut self.0[idx >> 6];
        *word = if member { *word | bit } else { *word & !bit };
    }

    /// The smallest member at or after `from`.
    pub(super) fn next_from(&self, from: usize) -> Option<usize> {
        let mut wi = from >> 6;
        let mut word = *self.0.get(wi)? & (u64::MAX << (from & 63));
        while word == 0 {
            wi += 1;
            word = *self.0.get(wi)?;
        }
        Some((wi << 6) | word.trailing_zeros() as usize)
    }

    /// Members, ascending.
    pub(super) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_from(0), |&idx| self.next_from(idx + 1))
    }

    /// Visit the members in ascending order, dropping those `keep`
    /// returns false for.
    pub(super) fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (wi, word) in self.0.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                if !keep((wi << 6) | bits.trailing_zeros() as usize) {
                    *word ^= bits & bits.wrapping_neg();
                }
                bits &= bits - 1;
            }
        }
    }
}

impl<P: Probe> Machine<P> {
    /// Jump the memory side over `n` cycles in which (per
    /// [`Machine::memory_next_event`]) nothing moves: both NoCs and the
    /// active modules and channels skip; idle ones catch up lazily via
    /// `sync_to` when work next reaches them.
    pub(super) fn skip_memory(&mut self, n: u64) {
        self.req_net.skip_idle(n);
        self.reply_net.skip_idle(n);
        for m in self.active_modules.iter() {
            self.modules[m].skip_idle(n);
        }
        for c in self.active_channels.iter() {
            self.channels[c].skip_idle(n);
        }
        self.mem_clock += n;
    }

    /// Advance the NoC, memory modules, DRAM channels and replies.
    pub(super) fn step_memory_system(&mut self) -> Result<(), SimError> {
        let mut replies = std::mem::take(&mut self.scratch_replies);
        self.step_memory_system_collect(&mut replies)?;
        let Machine {
            clusters,
            masks,
            decoded,
            par_active,
            parked,
            stats,
            ..
        } = self;
        for r in replies.drain(..) {
            let (tcu, m) = (&mut clusters[r.cluster][r.tcu], &mut masks[r.cluster]);
            issue::apply_reply(tcu, m, r.tcu, r.kind, r.value, decoded);
            // A reply that frees its TCU to issue makes a parked
            // cluster's scan stale: it steps again from the next cycle.
            if parked.contains(r.cluster) && !m.still_waiting(r.tcu) {
                parked.unpark(par_active, r.cluster, m, stats.cycles + 1);
            }
        }
        self.scratch_replies = replies;
        self.lap(Some(HostLayer::ReplyApply));
        Ok(())
    }

    /// One memory-system cycle with matured replies pushed to `out`
    /// instead of applied (the threaded engine routes them to the
    /// worker that owns the target cluster). Only *active* modules,
    /// channels and outboxes are visited; idle components are clock-
    /// synced lazily when something arrives for them.
    ///
    /// Every NoC delivery must map to a live transaction; a dangling
    /// tag (e.g. a fault layer exhausting its retry budget and
    /// dropping a flit) is a broken protocol invariant and surfaces as
    /// [`SimError::Protocol`] rather than a panic.
    fn step_memory_system_collect(&mut self, out: &mut Vec<ReplyDelivery>) -> Result<(), SimError> {
        self.mem_route_requests()?;
        self.mem_step_modules();
        self.mem_drain_collect(out)
    }

    /// Memory-cycle stage 1: request network → modules. The functional
    /// effect happens here (arrival order at the home module defines
    /// the memory order; kernels separate read and write sets between
    /// barriers).
    pub(super) fn mem_route_requests(&mut self) -> Result<(), SimError> {
        let mut deliveries = std::mem::take(&mut self.scratch_deliveries);
        self.req_net.step_into(&mut deliveries);
        self.lap(Some(HostLayer::ReqNetStep));
        for d in deliveries.drain(..) {
            let Some(txn) = self.txns.get_mut(d.flit.tag) else {
                return Err(SimError::Protocol {
                    what: "request delivery for a dead transaction",
                    at_cycle: 0,
                });
            };
            match txn.kind {
                TxnKind::LoadI(_) | TxnKind::LoadF(_) => {
                    txn.value = self.mem[txn.addr as usize];
                }
                TxnKind::Store => {
                    self.mem[txn.addr as usize] = txn.value;
                }
            }
            let addr = txn.addr;
            let is_write = matches!(txn.kind, TxnKind::Store);
            if P::ENABLED {
                // Oracle hook at the exact point that defines memory
                // order. The issuing TCU still carries the thread's
                // tid: a virtual thread only retires at `join` once
                // its outstanding count drains to zero.
                let (cluster, tcu) = (txn.cluster, txn.tcu);
                let tid = self.clusters[cluster][tcu].rf.tid;
                let spawn = self.tracker.as_ref().map(|t| t.index as u64);
                self.probe.mem_access(spawn, tid, addr, is_write);
            }
            // The module is about to take its step for this memory
            // cycle, so align it to the *previous* one.
            self.modules[d.flit.dst].sync_to(self.mem_clock);
            self.modules[d.flit.dst].enqueue(MemReq {
                addr,
                is_write,
                tag: d.flit.tag,
            });
            self.active_modules.insert(d.flit.dst);
        }
        self.scratch_deliveries = deliveries;
        self.lap(Some(HostLayer::ReqDelivery));
        Ok(())
    }

    /// Memory-cycle stage 2: active modules service their queues and
    /// emit DRAM requests (accumulated into `scratch_creqs`, in active-
    /// module order) and replies (routed to the per-module outboxes).
    /// The threaded engine replaces this stage with a work-stealing
    /// pass over the same active list — each module's step is
    /// independent, and the creq/outbox merge is re-serialized in
    /// module order — so both paths leave identical state for
    /// [`Machine::mem_drain_collect`].
    pub(super) fn mem_step_modules(&mut self) {
        let mut creqs = std::mem::take(&mut self.scratch_creqs);
        let mut resps = std::mem::take(&mut self.scratch_resps);
        for m in self.active_modules.iter() {
            self.modules[m].step(&mut creqs, &mut resps);
            for resp in resps.drain(..) {
                self.module_outbox[m].push_back(resp.req.tag);
                self.active_outboxes.insert(m);
            }
        }
        self.scratch_resps = resps;
        self.scratch_creqs = creqs;
        self.retire_inactive_modules();
        self.lap(Some(HostLayer::ModuleSteps));
    }

    /// Drop modules that went quiescent from the active set (shared
    /// tail of the serial and threaded module-step stages).
    pub(super) fn retire_inactive_modules(&mut self) {
        let modules = &self.modules;
        self.active_modules.retain(|m| modules[m].is_active());
    }

    /// Memory-cycle stage 3: DRAM channels, module fills, reply
    /// injection and reply delivery. Consumes the channel requests
    /// stage 2 left in `scratch_creqs`.
    pub(super) fn mem_drain_collect(
        &mut self,
        out: &mut Vec<ReplyDelivery>,
    ) -> Result<(), SimError> {
        let mut creqs = std::mem::take(&mut self.scratch_creqs);
        for cr in creqs.drain(..) {
            let ch = cr.module / self.cfg.mm_per_dram_ctrl;
            self.channels[ch].sync_to(self.mem_clock);
            self.channels[ch].enqueue(DramReq {
                tag: cr.module as u64,
                ..cr.req
            });
            self.active_channels.insert(ch);
        }
        self.scratch_creqs = creqs;
        self.mem_clock += 1;
        // DRAM channels → module fills.
        for ch in self.active_channels.iter() {
            if let Some(done) = self.channels[ch].step() {
                let m = done.req.tag as usize;
                // Post-step: both module and channel clocks now sit at
                // the current memory cycle.
                self.modules[m].sync_to(self.mem_clock);
                self.modules[m].on_fill(done);
                if self.modules[m].is_active() {
                    self.active_modules.insert(m);
                }
            }
        }
        let channels = &self.channels;
        self.active_channels.retain(|ch| channels[ch].pending() > 0);
        self.lap(Some(HostLayer::Channels));
        // Module outboxes → reply network (one injection per module
        // port per cycle).
        let module_outbox = &mut self.module_outbox;
        let reply_net = &mut self.reply_net;
        let txns = &self.txns;
        let mut dead_tag = false;
        self.active_outboxes.retain(|m| {
            if let Some(&tag) = module_outbox[m].front() {
                match txns.get(tag) {
                    Some(txn) => {
                        if reply_net.try_inject(Flit {
                            src: m,
                            dst: txn.cluster,
                            tag,
                        }) {
                            module_outbox[m].pop_front();
                        }
                    }
                    None => dead_tag = true,
                }
            }
            !module_outbox[m].is_empty()
        });
        self.lap(Some(HostLayer::OutboxInjection));
        if dead_tag {
            return Err(SimError::Protocol {
                what: "module reply for a dead transaction",
                at_cycle: 0,
            });
        }
        // Reply network → TCUs.
        let mut deliveries = std::mem::take(&mut self.scratch_deliveries);
        self.reply_net.step_into(&mut deliveries);
        self.lap(Some(HostLayer::ReplyNetStep));
        for d in deliveries.drain(..) {
            let Some(txn) = self.txns.remove(d.flit.tag) else {
                return Err(SimError::Protocol {
                    what: "reply delivery for a dead transaction",
                    at_cycle: 0,
                });
            };
            out.push(ReplyDelivery {
                cluster: txn.cluster,
                tcu: txn.tcu,
                kind: txn.kind,
                value: txn.value,
            });
        }
        self.scratch_deliveries = deliveries;
        self.lap(Some(HostLayer::ReplyDelivery));
        Ok(())
    }
}
