//! The memory side of a machine cycle: request NoC → memory modules →
//! DRAM channels → reply NoC → TCUs, stepping only the components that
//! have work.

use super::*;

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
            self.modules.skip_idle(m, n);
        }
        for c in self.active_channels.iter() {
            self.channels[c].skip_idle(n);
        }
        self.mem_clock += n;
    }

    /// Advance the NoC, memory modules, DRAM channels and replies, and
    /// write the matured replies back to their TCUs. Only *active*
    /// modules, channels and outboxes are visited; idle components are
    /// clock-synced lazily when something arrives for them.
    pub(super) fn step_memory_system(&mut self) {
        let mut replies = std::mem::take(&mut self.scratch_replies);
        self.mem_route_requests();
        self.mem_step_modules();
        self.mem_drain_collect(&mut replies);
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
            let (tcus, m) = (&mut clusters[r.cluster], &mut masks[r.cluster]);
            issue::apply_reply(tcus, m, r.tcu, r.kind, r.value, decoded);
            // A reply that frees its TCU to issue makes a parked
            // cluster's scan stale: it steps again from the next cycle.
            if parked.contains(r.cluster) && !m.still_waiting(r.tcu) {
                parked.unpark(par_active, r.cluster, m, stats.cycles + 1);
            }
        }
        self.scratch_replies = replies;
        self.lap(Some(HostLayer::ReplyApply));
    }

    /// Memory-cycle stage 1: request network → modules. The functional
    /// effect happens here (arrival order at the home module defines
    /// the memory order; kernels separate read and write sets between
    /// barriers), and the request tag becomes the reply token that
    /// rides the module queue, the outbox and the reply network.
    fn mem_route_requests(&mut self) {
        let mut deliveries = std::mem::take(&mut self.scratch_deliveries);
        self.req_net.step_into(&mut deliveries);
        self.lap(Some(HostLayer::ReqNetStep));
        for d in deliveries.drain(..) {
            let (cluster, req) = (d.flit.src, Request::of(d.flit.tag));
            let addr = req.addr as usize;
            let is_write = req.kind == TxnKind::Store;
            let value = if is_write {
                let value = self.txns.take_store(cluster, req);
                self.mem[addr] = value;
                value
            } else {
                self.mem[addr]
            };
            if P::ENABLED {
                // Oracle hook at the exact point that defines memory
                // order. The issuing TCU still carries the thread's
                // tid: a virtual thread only retires at `join` once
                // its outstanding count drains to zero.
                let tid = self.clusters[cluster].tid(req.tcu);
                let spawn = self.tracker.as_ref().map(|t| t.index as u64);
                self.probe.mem_access(spawn, tid, req.addr, is_write);
            }
            // The module is about to take its step for this memory
            // cycle, so align it to the *previous* one.
            self.modules.sync_to(d.flit.dst, self.mem_clock);
            let tag = Reply::token(d.flit.tag, value, cluster);
            self.modules.enqueue(
                d.flit.dst,
                MemReq {
                    addr: req.addr,
                    is_write,
                    tag,
                },
            );
            self.active_modules.insert(d.flit.dst);
        }
        self.scratch_deliveries = deliveries;
        self.lap(Some(HostLayer::ReqDelivery));
    }

    /// Memory-cycle stage 2: active modules service their queues and
    /// emit DRAM requests (accumulated into `scratch_creqs`, in active-
    /// module order) and replies (routed to the per-module outboxes).
    fn mem_step_modules(&mut self) {
        let mut creqs = std::mem::take(&mut self.scratch_creqs);
        let mut resps = std::mem::take(&mut self.scratch_resps);
        if P::HOST_TIMING {
            self.probe
                .host_work([0, 0, self.active_modules.len() as u64]);
        }
        for m in self.active_modules.iter() {
            self.modules.step(m, &mut creqs, &mut resps);
            for resp in resps.drain(..) {
                self.module_outbox[m].push_back(resp.req.tag);
                self.active_outboxes.insert(m);
            }
        }
        self.scratch_resps = resps;
        self.scratch_creqs = creqs;
        let modules = &self.modules;
        self.active_modules.retain(|m| modules[m].is_active());
        self.lap(Some(HostLayer::ModuleSteps));
    }

    /// Memory-cycle stage 3: DRAM channels, module fills, reply
    /// injection and reply delivery. Consumes the channel requests
    /// stage 2 left in `scratch_creqs`.
    fn mem_drain_collect(&mut self, out: &mut Vec<Reply>) {
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
                self.modules.sync_to(m, self.mem_clock);
                self.modules.on_fill(m, done);
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
        self.active_outboxes.retain(|m| {
            if let Some(&token) = module_outbox[m].front() {
                if reply_net.try_inject(Flit {
                    src: m,
                    dst: Reply::of(token).cluster,
                    tag: token,
                }) {
                    module_outbox[m].pop_front();
                }
            }
            !module_outbox[m].is_empty()
        });
        self.lap(Some(HostLayer::OutboxInjection));
        // Reply network → TCUs.
        let mut deliveries = std::mem::take(&mut self.scratch_deliveries);
        self.reply_net.step_into(&mut deliveries);
        self.lap(Some(HostLayer::ReplyNetStep));
        self.txns.in_flight -= deliveries.len();
        out.extend(deliveries.drain(..).map(|d| Reply::of(d.flit.tag)));
        self.scratch_deliveries = deliveries;
        self.lap(Some(HostLayer::ReplyDelivery));
    }
}
