//! A complete memory module: cache bank + miss handling in front of a
//! (shared) DRAM channel.
//!
//! Matches the "shared memory modules" block of Fig. 1: the module
//! services queued requests in order at one per cycle; hits respond
//! after the cache latency, misses wait for a line fill from the DRAM
//! channel the module shares with its neighbours (MSHR-style merging of
//! concurrent misses to the same line).

use crate::cache::{CacheBank, CacheConfig, MemReq, MemResp, Service};
use crate::dram::{DramDone, DramReq};
use std::collections::VecDeque;

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

/// One memory module of the XMT machine.
#[derive(Debug)]
pub struct MemoryModule {
    id: usize,
    bank: CacheBank,
    /// The MSHR table: `fill_lines[i]` has a fill in flight and
    /// `fill_waiters[i]` are the requests waiting on it. As long as
    /// the lines DRAM has yet to return — a handful — and kept sorted
    /// by line so a lookup is a binary search; its order is never
    /// observed.
    fill_lines: Vec<u32>,
    fill_waiters: Vec<Vec<MemReq>>,
    /// Emptied waiter vectors, reused by the next miss.
    spare_waiters: Vec<Vec<MemReq>>,
    /// Responses with the cycle they mature on, in schedule order. A
    /// FIFO and not a priority queue: see [`MemoryModule::schedule`].
    ready: VecDeque<(u64, MemResp)>,
    cycle: u64,
    /// Accumulated statistics.
    pub stats: ModuleStats,
}

impl MemoryModule {
    /// Construct a new instance.
    pub fn new(id: usize, cfg: CacheConfig) -> Self {
        Self {
            id,
            bank: CacheBank::new(cfg),
            fill_lines: Vec::new(),
            fill_waiters: Vec::new(),
            spare_waiters: Vec::new(),
            ready: VecDeque::new(),
            cycle: 0,
            stats: ModuleStats::default(),
        }
    }

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
        self.bank.queue_len()
            + self.fill_waiters.iter().map(Vec::len).sum::<usize>()
            + self.ready.len()
    }

    /// A request arrives from the interconnect.
    pub fn enqueue(&mut self, req: MemReq) {
        self.bank.enqueue(req);
    }

    /// True when `step` could do more than tick the clock: a queued
    /// request to service (or MSHR-merge), or a response maturing.
    /// A module waiting only on DRAM fills is *not* active — its next
    /// event is delivered from outside via [`MemoryModule::on_fill`].
    pub fn is_active(&self) -> bool {
        self.bank.queue_len() > 0 || !self.ready.is_empty()
    }

    /// Earliest cycle (in this module's clock domain) at which a
    /// `step` can change observable state, assuming nothing arrives.
    pub fn next_event(&self) -> Option<u64> {
        if self.bank.queue_len() > 0 {
            Some(self.cycle + 1)
        } else {
            self.ready.front().map(|&(at, _)| at)
        }
    }

    /// Align the clock of a module that was left unstepped while idle.
    /// Callers must sync before `enqueue`/`on_fill` so latencies are
    /// scheduled against the shared memory clock; jumping the clock of
    /// an idle module is unobservable.
    pub fn sync_to(&mut self, cycle: u64) {
        if cycle > self.cycle {
            debug_assert!(!self.is_active(), "clock jump on an active module");
            self.cycle = cycle;
        }
    }

    /// Advance `n` cycles across which the caller guarantees (via
    /// [`MemoryModule::next_event`]) no request is serviced and no
    /// response matures.
    pub fn skip_idle(&mut self, n: u64) {
        debug_assert!(
            self.next_event().is_none_or(|e| e > self.cycle + n),
            "skip_idle crossed a module event"
        );
        self.cycle += n;
    }

    /// Queue `resp` to leave `hit_latency` cycles from now: a constant
    /// delay on a clock that only advances (`sync_to`, `skip_idle`), so
    /// responses are scheduled in the order they mature.
    fn schedule(&mut self, resp: MemResp) {
        let at = self.cycle + self.bank.config().hit_latency as u64;
        debug_assert!(
            self.ready.back().is_none_or(|&(last, _)| last <= at),
            "responses scheduled out of order"
        );
        self.ready.push_back((at, resp));
    }

    /// Advance one cycle: service at most one bank access and release
    /// any responses whose latency elapsed into `resp_out`. DRAM
    /// fills/write-backs the module needs are appended to
    /// `channel_out`. Both vectors are append-only so the caller can
    /// reuse them across modules and cycles without reallocating.
    pub fn step(&mut self, channel_out: &mut Vec<ChannelRequest>, resp_out: &mut Vec<MemResp>) {
        self.cycle += 1;
        // A request whose line already has a fill in flight merges into
        // the waiting set (MSHR behaviour) — it must not probe the tag
        // store, which already contains the still-arriving line, or it
        // would overtake the original miss and break same-location
        // ordering.
        let mut mshr_slot = 0; // where the head's line would enter the table
        if let Some(head) = self.bank.peek() {
            match self.fill_lines.binary_search(&self.bank.line_of(head.addr)) {
                Ok(i) => {
                    let req = self.bank.pop_head().expect("head exists");
                    self.fill_waiters[i].push(req);
                    self.stats.merged_misses += 1;
                    // Release matured responses and return early: the
                    // bank port was consumed by the merge.
                    self.release(resp_out);
                    return;
                }
                Err(slot) => mshr_slot = slot,
            }
        }
        match self.bank.service_one() {
            Some(Service::Hit(req)) => {
                self.schedule(MemResp { req, hit: true });
            }
            Some(Service::Miss {
                req,
                fill_line,
                writeback,
            }) => {
                let module = self.id;
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
                // The merge check above took every head whose line has
                // a fill in flight, so this miss opens a new entry.
                let mut waiters = self.spare_waiters.pop().unwrap_or_default();
                waiters.push(req);
                self.fill_lines.insert(mshr_slot, fill_line);
                self.fill_waiters.insert(mshr_slot, waiters);
                to_dram(fill_line, false);
            }
            None => {}
        }
        self.release(resp_out)
    }

    /// Pop every response whose latency has matured into `out`.
    fn release(&mut self, out: &mut Vec<MemResp>) {
        while let Some(&(at, resp)) = self.ready.front() {
            if at > self.cycle {
                break;
            }
            self.ready.pop_front();
            self.stats.responses += 1;
            out.push(resp);
        }
    }

    /// A DRAM fill completed: wake every request waiting on the line.
    pub fn on_fill(&mut self, done: DramDone) {
        if done.req.is_write {
            return; // write-backs complete silently
        }
        if let Ok(i) = self.fill_lines.binary_search(&done.req.line) {
            self.fill_lines.remove(i);
            let mut waiters = self.fill_waiters.remove(i);
            for req in waiters.drain(..) {
                self.schedule(MemResp { req, hit: false });
            }
            self.spare_waiters.push(waiters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::{DramChannel, DramConfig};

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
}
