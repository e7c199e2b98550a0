//! The memory modules of a machine: cache bank + miss handling in front
//! of a (shared) DRAM channel.
//!
//! Matches the "shared memory modules" block of Fig. 1: a module
//! services queued requests in order at one per cycle; hits respond
//! after the cache latency, misses wait for a line fill from the DRAM
//! channel the module shares with its neighbours (MSHR-style merging of
//! concurrent misses to the same line).
//!
//! What waits inside a module — requests queued at its bank, requests
//! waiting on a fill, responses maturing — waits as a record chained
//! through one of two arenas that every module of a [`MemoryModules`]
//! shares, and a free list recycles vacant records. A machine's
//! thousands of modules thus hold only what waits at once across all of
//! them, not each module's own peak. A [`MemoryModule`] is the
//! one-module case.

use crate::cache::{CacheBank, CacheConfig, MemReq, MemResp, Service};
use crate::dram::{DramDone, DramReq};
use std::ops::{Deref, DerefMut, Index};

/// A DRAM request emitted by a module, to be enqueued on its channel by
/// the caller (the simulator owns the channels because several modules
/// share one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelRequest {
    /// The `module` value.
    pub module: usize,
    /// The originating request.
    pub req: DramReq,
}

/// Per-module statistics beyond the bank's own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuleStats {
    /// Misses merged into an already-pending fill (MSHR hits).
    pub merged_misses: u64,
    /// Responses produced.
    pub responses: u64,
}

/// End of a chain (and of a free list).
const NIL: u32 = u32::MAX;

/// The first and last record of a chain (`head == NIL`: empty; `tail`
/// is meaningful otherwise).
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NIL,
        tail: NIL,
    };
}

/// Records of one kind for every module, each with a `u32` link in
/// `links` that chains it; vacant records are chained from `free`. It
/// grows only when `free` is empty, so its length is the most records
/// that ever waited in it at once.
#[derive(Debug)]
struct Arena<T> {
    recs: Vec<T>,
    /// Per record: the record after it in its chain (meaningful unless
    /// it is the chain's tail), or, while vacant, the next vacant one.
    links: Vec<u32>,
    free: u32,
}

impl<T: Copy> Arena<T> {
    fn new() -> Self {
        Self {
            recs: Vec::new(),
            links: Vec::new(),
            free: NIL,
        }
    }

    /// Append `rec` to `chain`, in a vacant record or, when none is
    /// vacant, a new one.
    fn push(&mut self, chain: &mut Chain, rec: T) {
        let i = if self.free == NIL {
            assert!(
                self.recs.len() < NIL as usize,
                "more records than a link can name"
            );
            self.recs.push(rec);
            self.links.push(NIL);
            (self.recs.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.links[i as usize];
            self.recs[i as usize] = rec;
            i
        };
        self.append(chain, i);
    }

    /// Link record `i` (in no chain) behind `chain`'s tail.
    fn append(&mut self, chain: &mut Chain, i: u32) {
        self.links[i as usize] = NIL;
        if chain.head == NIL {
            chain.head = i;
        } else {
            self.links[chain.tail as usize] = i;
        }
        chain.tail = i;
    }

    /// Unlink `chain`'s head (the chain must be non-empty), leaving its
    /// record in place.
    fn unlink(&mut self, chain: &mut Chain) -> u32 {
        let i = chain.head;
        chain.head = self.links[i as usize];
        i
    }

    /// Record `i` (in no chain) becomes vacant.
    fn release(&mut self, i: u32) {
        self.links[i as usize] = self.free;
        self.free = i;
    }

    /// Unlink `chain`'s head and vacate its record; returns the record.
    fn pop(&mut self, chain: &mut Chain) -> T {
        let i = self.unlink(chain);
        self.release(i);
        self.recs[i as usize]
    }
}

/// An MSHR entry: `line` has a fill in flight and `waiters` wait on it.
#[derive(Debug, Clone, Copy)]
struct Fill {
    line: u32,
    waiters: Chain,
}

/// One memory module's own state. What waits in it is chained through
/// the arenas of the [`MemoryModules`] that holds it.
#[derive(Debug)]
pub struct Module {
    bank: CacheBank,
    /// Requests queued at the bank, in arrival order.
    queue: Chain,
    queued: u32,
    /// The MSHR table: as long as the lines DRAM has yet to return — a
    /// handful — and kept sorted by line so a lookup is a binary
    /// search; its order is never observed.
    fills: Vec<Fill>,
    /// Requests waiting on `fills`.
    waiting: u32,
    /// Responses with the cycle they mature on, in schedule order. A
    /// FIFO and not a priority queue: see [`MemoryModules::step`].
    ready: Chain,
    maturing: u32,
    cycle: u64,
    /// Accumulated statistics.
    pub stats: ModuleStats,
}

impl Module {
    /// The `bank` value.
    pub fn bank(&self) -> &CacheBank {
        &self.bank
    }

    /// Mutable access to the bank, for checkpoint restore (stats and
    /// tag-store state live on the bank).
    pub fn bank_mut(&mut self) -> &mut CacheBank {
        &mut self.bank
    }

    /// Requests and fills still outstanding.
    pub fn outstanding(&self) -> usize {
        (self.queued + self.waiting + self.maturing) as usize
    }

    /// True when `step` could do more than tick the clock: a queued
    /// request to service (or MSHR-merge), or a response maturing.
    /// A module waiting only on DRAM fills is *not* active — its next
    /// event is delivered from outside via [`MemoryModules::on_fill`].
    pub fn is_active(&self) -> bool {
        self.queued > 0 || self.maturing > 0
    }
}

/// Every memory module of a machine, numbered from 0, and the two
/// arenas their waiting requests and maturing responses share.
#[derive(Debug)]
pub struct MemoryModules {
    /// The number of module 0 (what its channel requests carry).
    first: usize,
    modules: Vec<Module>,
    /// Requests queued at a bank or waiting on a fill. Moving one from
    /// the queue to a fill relinks its record.
    reqs: Arena<MemReq>,
    /// Responses with the cycle they mature on.
    resps: Arena<(u64, MemResp)>,
}

impl MemoryModules {
    /// `count` modules of cache geometry `cfg`.
    pub fn new(count: usize, cfg: CacheConfig) -> Self {
        Self::numbered(0, count, cfg)
    }

    fn numbered(first: usize, count: usize, cfg: CacheConfig) -> Self {
        Self {
            first,
            modules: (0..count)
                .map(|_| Module {
                    bank: CacheBank::new(cfg),
                    queue: Chain::EMPTY,
                    queued: 0,
                    fills: Vec::new(),
                    waiting: 0,
                    ready: Chain::EMPTY,
                    maturing: 0,
                    cycle: 0,
                    stats: ModuleStats::default(),
                })
                .collect(),
            reqs: Arena::new(),
            resps: Arena::new(),
        }
    }

    /// The modules, in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Module> {
        self.modules.iter()
    }

    /// The modules, in order, for checkpoint restore.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Module> {
        self.modules.iter_mut()
    }

    /// A request arrives at module `m` from the interconnect.
    pub fn enqueue(&mut self, m: usize, req: MemReq) {
        let md = &mut self.modules[m];
        self.reqs.push(&mut md.queue, req);
        md.queued += 1;
        let peak = &mut md.bank.stats.peak_queue;
        *peak = (*peak).max(md.queued as usize);
    }

    /// Earliest cycle (in module `m`'s clock domain) at which a `step`
    /// can change observable state, assuming nothing arrives.
    pub fn next_event(&self, m: usize) -> Option<u64> {
        let md = &self.modules[m];
        if md.queued > 0 {
            Some(md.cycle + 1)
        } else {
            (md.maturing > 0).then(|| self.resps.recs[md.ready.head as usize].0)
        }
    }

    /// Align the clock of module `m`, left unstepped while idle.
    /// Callers must sync before `enqueue`/`on_fill` so latencies are
    /// scheduled against the shared memory clock; jumping the clock of
    /// an idle module is unobservable.
    pub fn sync_to(&mut self, m: usize, cycle: u64) {
        let md = &mut self.modules[m];
        if cycle > md.cycle {
            debug_assert!(!md.is_active(), "clock jump on an active module");
            md.cycle = cycle;
        }
    }

    /// Advance module `m` `n` cycles across which the caller guarantees
    /// (via [`MemoryModules::next_event`]) no request is serviced and
    /// no response matures.
    pub fn skip_idle(&mut self, m: usize, n: u64) {
        debug_assert!(
            self.next_event(m)
                .is_none_or(|e| e > self.modules[m].cycle + n),
            "skip_idle crossed a module event"
        );
        self.modules[m].cycle += n;
    }

    /// Queue `resp` at module `m` to leave `hit_latency` cycles from
    /// now: a constant delay on a clock that only advances (`sync_to`,
    /// `skip_idle`), so responses are scheduled in the order they
    /// mature.
    fn schedule(&mut self, m: usize, resp: MemResp) {
        let md = &mut self.modules[m];
        let at = md.cycle + md.bank.config().hit_latency as u64;
        debug_assert!(
            md.maturing == 0 || self.resps.recs[md.ready.tail as usize].0 <= at,
            "responses scheduled out of order"
        );
        self.resps.push(&mut md.ready, (at, resp));
        md.maturing += 1;
    }

    /// Advance module `m` one cycle: service at most one bank access
    /// and release any responses whose latency elapsed into `resp_out`.
    /// DRAM fills/write-backs the module needs are appended to
    /// `channel_out`. Both vectors are append-only so the caller can
    /// reuse them across modules and cycles without reallocating.
    pub fn step(
        &mut self,
        m: usize,
        channel_out: &mut Vec<ChannelRequest>,
        resp_out: &mut Vec<MemResp>,
    ) {
        let md = &mut self.modules[m];
        md.cycle += 1;
        if md.queued > 0 {
            let i = self.reqs.unlink(&mut md.queue);
            md.queued -= 1;
            let req = self.reqs.recs[i as usize];
            // A request whose line already has a fill in flight merges
            // into the waiting set (MSHR behaviour) — it must not probe
            // the tag store, which already contains the still-arriving
            // line, or it would overtake the original miss and break
            // same-location ordering.
            let line = md.bank.line_of(req.addr);
            match md.fills.binary_search_by_key(&line, |f| f.line) {
                Ok(f) => {
                    self.reqs.append(&mut md.fills[f].waiters, i);
                    md.waiting += 1;
                    md.stats.merged_misses += 1;
                }
                Err(slot) => match md.bank.access(req) {
                    Service::Hit(req) => {
                        self.reqs.release(i);
                        self.schedule(m, MemResp { req, hit: true });
                    }
                    Service::Miss {
                        fill_line,
                        writeback,
                        ..
                    } => {
                        let module = self.first + m;
                        let mut to_dram = |line, is_write| {
                            let req = DramReq {
                                line,
                                is_write,
                                tag: 0,
                            };
                            channel_out.push(ChannelRequest { module, req });
                        };
                        if let Some(wb) = writeback {
                            to_dram(wb, true);
                        }
                        let mut waiters = Chain::EMPTY;
                        self.reqs.append(&mut waiters, i);
                        md.fills.insert(
                            slot,
                            Fill {
                                line: fill_line,
                                waiters,
                            },
                        );
                        md.waiting += 1;
                        to_dram(fill_line, false);
                    }
                },
            }
        }
        self.release(m, resp_out)
    }

    /// Pop every response of module `m` whose latency has matured into
    /// `out`.
    fn release(&mut self, m: usize, out: &mut Vec<MemResp>) {
        let md = &mut self.modules[m];
        while md.maturing > 0 {
            let (at, resp) = self.resps.recs[md.ready.head as usize];
            if at > md.cycle {
                break;
            }
            self.resps.pop(&mut md.ready);
            md.maturing -= 1;
            md.stats.responses += 1;
            out.push(resp);
        }
    }

    /// A DRAM fill for module `m` completed: wake every request waiting
    /// on the line.
    pub fn on_fill(&mut self, m: usize, done: DramDone) {
        if done.req.is_write {
            return; // write-backs complete silently
        }
        let md = &mut self.modules[m];
        let Ok(f) = md.fills.binary_search_by_key(&done.req.line, |f| f.line) else {
            return;
        };
        let mut waiters = md.fills.remove(f).waiters;
        while waiters.head != NIL {
            let req = self.reqs.pop(&mut waiters);
            self.modules[m].waiting -= 1;
            self.schedule(m, MemResp { req, hit: false });
        }
    }
}

impl Index<usize> for MemoryModules {
    type Output = Module;

    fn index(&self, m: usize) -> &Module {
        &self.modules[m]
    }
}

/// One memory module with arenas of its own: a [`MemoryModules`] of
/// one, numbered `id`. It dereferences to that one [`Module`] (bank,
/// stats, `outstanding`, `is_active`).
#[derive(Debug)]
pub struct MemoryModule(MemoryModules);

impl MemoryModule {
    /// Construct a new instance.
    pub fn new(id: usize, cfg: CacheConfig) -> Self {
        Self(MemoryModules::numbered(id, 1, cfg))
    }

    /// A request arrives from the interconnect.
    pub fn enqueue(&mut self, req: MemReq) {
        self.0.enqueue(0, req);
    }

    /// See [`MemoryModules::next_event`].
    pub fn next_event(&self) -> Option<u64> {
        self.0.next_event(0)
    }

    /// See [`MemoryModules::sync_to`].
    pub fn sync_to(&mut self, cycle: u64) {
        self.0.sync_to(0, cycle);
    }

    /// See [`MemoryModules::skip_idle`].
    pub fn skip_idle(&mut self, n: u64) {
        self.0.skip_idle(0, n);
    }

    /// See [`MemoryModules::step`].
    pub fn step(&mut self, channel_out: &mut Vec<ChannelRequest>, resp_out: &mut Vec<MemResp>) {
        self.0.step(0, channel_out, resp_out);
    }

    /// See [`MemoryModules::on_fill`].
    pub fn on_fill(&mut self, done: DramDone) {
        self.0.on_fill(0, done);
    }
}

impl Deref for MemoryModule {
    type Target = Module;

    fn deref(&self) -> &Module {
        &self.0[0]
    }
}

impl DerefMut for MemoryModule {
    fn deref_mut(&mut self) -> &mut Module {
        &mut self.0.modules[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::{DramChannel, DramConfig};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::VecDeque;

    fn module() -> MemoryModule {
        MemoryModule::new(
            0,
            CacheConfig {
                lines: 64,
                ways: 4,
                line_words: 8,
                hit_latency: 2,
            },
        )
    }

    fn drive(m: &mut MemoryModule, chan: &mut DramChannel, cycles: usize) -> Vec<MemResp> {
        let mut out = Vec::new();
        let mut creqs = Vec::new();
        for _ in 0..cycles {
            m.step(&mut creqs, &mut out);
            for cr in creqs.drain(..) {
                chan.enqueue(cr.req);
            }
            if let Some(done) = chan.step() {
                m.on_fill(done);
            }
        }
        out
    }

    #[test]
    fn miss_then_hit_latency_ordering() {
        let mut m = module();
        let mut chan = DramChannel::new(DramConfig {
            bytes_per_cycle: 8.0,
            access_latency: 10,
            line_bytes: 32,
        });
        m.enqueue(MemReq {
            addr: 0,
            is_write: false,
            tag: 1,
        });
        let r1 = drive(&mut m, &mut chan, 40);
        assert_eq!(r1.len(), 1);
        assert!(!r1[0].hit);
        // Second access to the same line is a fast hit.
        m.enqueue(MemReq {
            addr: 3,
            is_write: false,
            tag: 2,
        });
        let r2 = drive(&mut m, &mut chan, 10);
        assert_eq!(r2.len(), 1);
        assert!(r2[0].hit);
    }

    #[test]
    fn concurrent_misses_to_one_line_merge() {
        let mut m = module();
        let mut chan = DramChannel::new(DramConfig {
            bytes_per_cycle: 8.0,
            access_latency: 5,
            line_bytes: 32,
        });
        for t in 0..4 {
            m.enqueue(MemReq {
                addr: t,
                is_write: false,
                tag: t as u64,
            });
        }
        let resps = drive(&mut m, &mut chan, 60);
        assert_eq!(resps.len(), 4);
        assert_eq!(m.stats.merged_misses, 3);
        // Only one fill went to DRAM.
        assert_eq!(chan.stats.reads, 1);
    }

    #[test]
    fn responses_preserve_same_line_order() {
        let mut m = module();
        let mut chan = DramChannel::new(DramConfig {
            bytes_per_cycle: 8.0,
            access_latency: 3,
            line_bytes: 32,
        });
        for t in 0..6 {
            m.enqueue(MemReq {
                addr: 0,
                is_write: t % 2 == 0,
                tag: t as u64,
            });
        }
        let resps = drive(&mut m, &mut chan, 60);
        let tags: Vec<u64> = resps.iter().map(|r| r.req.tag).collect();
        assert_eq!(
            tags,
            vec![0, 1, 2, 3, 4, 5],
            "same-location order must be preserved"
        );
    }

    #[test]
    fn skip_and_sync_match_stepping() {
        // A module waiting only on a DRAM fill is inactive; skipping
        // its idle window must leave response timing identical to
        // stepping through it.
        let mut stepped = module();
        let mut lazy = module();
        let mut sink = Vec::new();
        let mut resps = Vec::new();
        for m in [&mut stepped, &mut lazy] {
            m.enqueue(MemReq {
                addr: 0,
                is_write: false,
                tag: 1,
            });
            m.step(&mut sink, &mut resps);
            assert!(resps.is_empty(), "miss cannot respond immediately");
            assert!(!m.is_active(), "fill-waiting module is inactive");
            assert_eq!(m.next_event(), None);
        }
        // 10 cycles pass while DRAM works: one module steps, the
        // other is left alone and skipped.
        for _ in 0..10 {
            stepped.step(&mut sink, &mut resps);
            assert!(resps.is_empty());
        }
        lazy.skip_idle(10);
        let done = DramDone {
            req: DramReq {
                line: 0,
                is_write: false,
                tag: 0,
            },
            finished_at: 11,
        };
        stepped.on_fill(done);
        lazy.on_fill(done);
        let count_steps = |m: &mut MemoryModule| {
            let mut creqs = Vec::new();
            let mut out = Vec::new();
            for k in 0..20 {
                m.step(&mut creqs, &mut out);
                if !out.is_empty() {
                    return k;
                }
            }
            panic!("response never matured");
        };
        assert_eq!(count_steps(&mut stepped), count_steps(&mut lazy));
        assert_eq!(stepped.stats, lazy.stats);
    }

    #[test]
    fn outstanding_drains_to_zero() {
        let mut m = module();
        let mut chan = DramChannel::new(DramConfig::ddr_like());
        for t in 0..10u32 {
            m.enqueue(MemReq {
                addr: t * 64,
                is_write: false,
                tag: t as u64,
            });
        }
        assert!(m.outstanding() > 0);
        let resps = drive(&mut m, &mut chan, 3000);
        assert_eq!(resps.len(), 10);
        assert_eq!(m.outstanding(), 0);
    }

    /// What waits across every [`OldModule`] of a machine: now, and the
    /// most ever at once.
    #[derive(Debug, Default)]
    struct Census {
        reqs: usize,
        resps: usize,
        peak_reqs: usize,
        peak_resps: usize,
    }

    /// The specification: a module as it was before the arenas, its
    /// bank queue a `VecDeque`, its MSHR table a `Vec<Vec<MemReq>>` of
    /// waiters beside the sorted lines, its responses a `VecDeque`.
    /// `Census` counts what waits in them for the arena lengths.
    #[derive(Debug)]
    struct OldModule {
        id: usize,
        bank: CacheBank,
        queue: VecDeque<MemReq>,
        fill_lines: Vec<u32>,
        fill_waiters: Vec<Vec<MemReq>>,
        ready: VecDeque<(u64, MemResp)>,
        cycle: u64,
        stats: ModuleStats,
    }

    impl OldModule {
        fn new(id: usize, cfg: CacheConfig) -> Self {
            Self {
                id,
                bank: CacheBank::new(cfg),
                queue: VecDeque::new(),
                fill_lines: Vec::new(),
                fill_waiters: Vec::new(),
                ready: VecDeque::new(),
                cycle: 0,
                stats: ModuleStats::default(),
            }
        }

        fn outstanding(&self) -> usize {
            self.queue.len()
                + self.fill_waiters.iter().map(Vec::len).sum::<usize>()
                + self.ready.len()
        }

        fn is_active(&self) -> bool {
            !self.queue.is_empty() || !self.ready.is_empty()
        }

        fn next_event(&self) -> Option<u64> {
            if self.queue.is_empty() {
                self.ready.front().map(|&(at, _)| at)
            } else {
                Some(self.cycle + 1)
            }
        }

        fn enqueue(&mut self, c: &mut Census, req: MemReq) {
            self.queue.push_back(req);
            self.bank.stats.peak_queue = self.bank.stats.peak_queue.max(self.queue.len());
            c.reqs += 1;
            c.peak_reqs = c.peak_reqs.max(c.reqs);
        }

        fn schedule(&mut self, c: &mut Census, resp: MemResp) {
            let at = self.cycle + self.bank.config().hit_latency as u64;
            self.ready.push_back((at, resp));
            c.resps += 1;
            c.peak_resps = c.peak_resps.max(c.resps);
        }

        fn step(
            &mut self,
            c: &mut Census,
            channel_out: &mut Vec<ChannelRequest>,
            resp_out: &mut Vec<MemResp>,
        ) {
            self.cycle += 1;
            let mut mshr_slot = 0;
            if let Some(head) = self.queue.front() {
                match self.fill_lines.binary_search(&self.bank.line_of(head.addr)) {
                    Ok(i) => {
                        let req = self.queue.pop_front().unwrap();
                        self.fill_waiters[i].push(req);
                        self.stats.merged_misses += 1;
                        self.release(c, resp_out);
                        return;
                    }
                    Err(slot) => mshr_slot = slot,
                }
            }
            if let Some(req) = self.queue.pop_front() {
                let to_dram = |line, is_write| ChannelRequest {
                    module: self.id,
                    req: DramReq {
                        line,
                        is_write,
                        tag: 0,
                    },
                };
                match self.bank.access(req) {
                    Service::Hit(req) => {
                        c.reqs -= 1;
                        self.schedule(c, MemResp { req, hit: true });
                    }
                    Service::Miss {
                        req,
                        fill_line,
                        writeback,
                    } => {
                        if let Some(wb) = writeback {
                            channel_out.push(to_dram(wb, true));
                        }
                        self.fill_lines.insert(mshr_slot, fill_line);
                        self.fill_waiters.insert(mshr_slot, vec![req]);
                        channel_out.push(to_dram(fill_line, false));
                    }
                }
            }
            self.release(c, resp_out)
        }

        fn release(&mut self, c: &mut Census, out: &mut Vec<MemResp>) {
            while let Some(&(at, resp)) = self.ready.front() {
                if at > self.cycle {
                    break;
                }
                self.ready.pop_front();
                c.resps -= 1;
                self.stats.responses += 1;
                out.push(resp);
            }
        }

        fn on_fill(&mut self, c: &mut Census, done: DramDone) {
            if done.req.is_write {
                return;
            }
            if let Ok(i) = self.fill_lines.binary_search(&done.req.line) {
                self.fill_lines.remove(i);
                for req in self.fill_waiters.remove(i) {
                    c.reqs -= 1;
                    self.schedule(c, MemResp { req, hit: false });
                }
            }
        }
    }

    /// Require every module's observable state equal in both, and each
    /// arena exactly as long as the most records that ever waited in
    /// it at once.
    fn agree(new: &MemoryModules, old: &[OldModule], c: &Census) -> Result<(), TestCaseError> {
        for (m, o) in old.iter().enumerate() {
            let n = &new[m];
            prop_assert_eq!(n.bank().stats, o.bank.stats, "bank stats of module {}", m);
            prop_assert_eq!(n.stats, o.stats, "stats of module {}", m);
            prop_assert_eq!(
                n.outstanding(),
                o.outstanding(),
                "outstanding at module {}",
                m
            );
            prop_assert_eq!(n.is_active(), o.is_active(), "activity of module {}", m);
            prop_assert_eq!(
                new.next_event(m),
                o.next_event(),
                "next event of module {}",
                m
            );
        }
        prop_assert_eq!(new.reqs.recs.len(), c.peak_reqs, "request arena");
        prop_assert_eq!(new.resps.recs.len(), c.peak_resps, "response arena");
        Ok(())
    }

    /// Step module `m` of both and require the same responses and
    /// channel requests; the channel requests join `pending`.
    fn step_both(
        m: usize,
        (new, old, c): (&mut MemoryModules, &mut [OldModule], &mut Census),
        pending: &mut VecDeque<ChannelRequest>,
    ) -> Result<(), TestCaseError> {
        let (mut got, mut want) = ((Vec::new(), Vec::new()), (Vec::new(), Vec::new()));
        new.step(m, &mut got.0, &mut got.1);
        old[m].step(c, &mut want.0, &mut want.1);
        prop_assert_eq!(&got, &want, "step of module {}", m);
        pending.extend(got.0);
        Ok(())
    }

    /// Deliver `cr`'s completion to its module in both.
    fn fill_both(
        cr: ChannelRequest,
        first: usize,
        (new, old, c): (&mut MemoryModules, &mut [OldModule], &mut Census),
    ) {
        let done = DramDone {
            req: cr.req,
            finished_at: 0,
        };
        new.on_fill(cr.module - first, done);
        old[cr.module - first].on_fill(c, done);
    }

    /// Drive `count` modules numbered from `first` and their oracles
    /// through `ops` — `(kind, random word, write)`: an enqueue, a step,
    /// a fill returning in any order, a `sync_to` or a `skip_idle` —
    /// then drain them, holding both to [`agree`] after every op.
    fn lockstep(
        count: usize,
        first: usize,
        cfg: CacheConfig,
        ops: &[(u32, u32, bool)],
    ) -> Result<(), TestCaseError> {
        let mut new = MemoryModules::numbered(first, count, cfg);
        let mut old: Vec<OldModule> = (0..count).map(|m| OldModule::new(first + m, cfg)).collect();
        let mut c = Census::default();
        let mut pending = VecDeque::new();
        let log_words = cfg.line_words.trailing_zeros();
        let lines = 3 * cfg.lines as u32;
        for (tag, &(kind, r, is_write)) in (0u64..).zip(ops) {
            let m = r as usize % count;
            let both = (&mut new, old.as_mut_slice(), &mut c);
            match kind {
                0..=3 => {
                    let line = (r >> 8) % lines;
                    let addr = (line << log_words) | ((r >> 4) % cfg.line_words as u32);
                    let req = MemReq {
                        addr,
                        is_write,
                        tag,
                    };
                    new.enqueue(m, req);
                    old[m].enqueue(&mut c, req);
                }
                4..=6 => step_both(m, both, &mut pending)?,
                7 | 8 => {
                    if !pending.is_empty() {
                        let at = (r >> 8) as usize % pending.len();
                        fill_both(pending.remove(at).unwrap(), first, both);
                    }
                }
                9 => {
                    let jump = if old[m].is_active() {
                        0
                    } else {
                        u64::from(r >> 8) % 5
                    };
                    new.sync_to(m, old[m].cycle + jump);
                    old[m].cycle += jump;
                }
                _ => {
                    let room = old[m]
                        .next_event()
                        .map_or(u64::MAX, |e| e - old[m].cycle - 1);
                    let n = (u64::from(r >> 8) % 6).min(room);
                    new.skip_idle(m, n);
                    old[m].cycle += n;
                }
            }
            agree(&new, &old, &c)?;
        }
        let mut rounds = 0;
        while !pending.is_empty() || old.iter().any(|o| o.outstanding() > 0) {
            rounds += 1;
            prop_assert!(rounds < 10_000, "the modules never drained");
            if let Some(cr) = pending.pop_front() {
                fill_both(cr, first, (&mut new, &mut old, &mut c));
            }
            for m in 0..count {
                step_both(m, (&mut new, &mut old, &mut c), &mut pending)?;
            }
            agree(&new, &old, &c)?;
        }
        prop_assert_eq!(c.reqs + c.resps, 0);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random geometries and random op sequences over 1-8 modules:
        /// lines reused for hits, repeated while their fill is in
        /// flight for MSHR merges, and written over a small cache for
        /// dirty write-backs.
        #[test]
        fn shared_arenas_serve_as_a_queue_per_module(
            count in 1usize..=8,
            first in 0usize..4,
            log_lines in 0u32..6,
            log_ways in 0u32..3,
            log_words in 2u32..4,
            hit_latency in 1u32..4,
            ops in proptest::collection::vec((0u32..12, any::<u32>(), any::<bool>()), 0..400),
        ) {
            let cfg = CacheConfig {
                lines: 1 << log_lines,
                ways: 1 << log_ways.min(log_lines),
                line_words: 1 << log_words,
                hit_latency,
            };
            lockstep(count, first, cfg, &ops)?;
        }
    }
}
