//! The fan-in half both cycle-level models share: a fixed-latency wire
//! pipeline into one service queue per destination port, each serving
//! one flit a cycle (the root of that port's fan-in tree).
//!
//! A destination queue keeps its head flit inline; the flits behind it
//! are linked through the slots of one arena per network, which a free
//! list recycles. A queue of one flit never touches the arena, and the
//! arena grows only to the most flits ever waiting behind a head at
//! once, wherever they wait: a hot port that moves leaves no buffer
//! behind.

use crate::net::{Delivered, Flit, NetStats};
use std::collections::VecDeque;

/// End of a list of arena slots.
const NIL: u32 = u32::MAX;

/// A flit inside a network, 24 bytes. Its destination is implied by
/// the queue it waits in, so the `link` word is free to chain it: in a
/// destination queue it names the arena slot of the flit behind it (or
/// [`NIL`]); on the wire and in the butterfly's stage slab it holds the
/// destination (see [`Waiting::new`]). Port numbers fit in `u32`
/// ([`Egress::new`] asserts it).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Waiting {
    tag: u64,
    injected_at: u64,
    src: u32,
    link: u32,
}

impl Waiting {
    /// `flit`, injected at `injected_at`, with its destination in the
    /// link word.
    #[inline]
    pub(crate) fn new(flit: Flit, injected_at: u64) -> Self {
        Self {
            tag: flit.tag,
            injected_at,
            src: flit.src as u32,
            link: flit.dst as u32,
        }
    }

    /// The destination, while the link word holds it.
    #[inline]
    pub(crate) fn dst(self) -> usize {
        self.link as usize
    }
}

/// One destination's queue: the head flit, and the arena slot of the
/// last flit behind it (meaningful while `head.link != NIL`).
#[derive(Debug, Clone, Copy)]
struct DstQueue {
    head: Waiting,
    tail: u32,
}

#[derive(Debug)]
pub(crate) struct Egress {
    /// Flits on the wires with their queue-arrival cycle, in push order.
    pipeline: VecDeque<(u64, Waiting)>,
    /// Per destination; a queue is non-empty iff its `dst_occ` bit is
    /// set.
    dst_queues: Vec<DstQueue>,
    /// The flits waiting behind a head, chained by `link`; vacant slots
    /// are chained from `free`.
    arena: Vec<Waiting>,
    free: u32,
    /// Total flits across `dst_queues` (O(1) emptiness/next-event).
    queued: usize,
    /// Occupancy bitmap over `dst_queues` (serve without scanning).
    dst_occ: Vec<u64>,
}

impl Egress {
    /// For a network of `srcs` source and `dsts` destination ports.
    pub(crate) fn new(srcs: usize, dsts: usize) -> Self {
        assert!(srcs.max(dsts) <= NIL as usize, "port numbers must fit u32");
        let empty = DstQueue {
            head: Waiting::default(),
            tail: NIL,
        };
        Self {
            pipeline: VecDeque::new(),
            dst_queues: vec![empty; dsts],
            arena: Vec::new(),
            free: NIL,
            queued: 0,
            dst_occ: vec![0u64; dsts.div_ceil(64)],
        }
    }

    /// Put `f` (its destination in the link word) on the wires, to
    /// reach its destination queue at `arrive_at`: the caller's clock
    /// plus a per-network constant. A clock never goes back
    /// (`skip_idle` only advances it), so push order is arrival order —
    /// a FIFO, not a priority queue.
    pub(crate) fn push(&mut self, arrive_at: u64, f: Waiting) {
        debug_assert!(
            self.pipeline.back().is_none_or(|&(at, _)| at <= arrive_at),
            "wire arrivals pushed out of order"
        );
        self.pipeline.push_back((arrive_at, f));
    }

    /// Append `f`, off the wire, to its destination's queue: as its
    /// head if the queue is empty, else into a recycled (or new) arena
    /// slot behind its tail.
    #[inline]
    fn enqueue(&mut self, mut f: Waiting) {
        let dst = f.dst();
        f.link = NIL;
        self.queued += 1;
        let (w, bit) = (dst >> 6, 1u64 << (dst & 63));
        if self.dst_occ[w] & bit == 0 {
            self.dst_occ[w] |= bit;
            self.dst_queues[dst].head = f;
            return;
        }
        let i = if self.free == NIL {
            assert!(
                self.arena.len() < NIL as usize,
                "more flits waiting than a link can name"
            );
            self.arena.push(f);
            (self.arena.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.arena[i as usize].link;
            self.arena[i as usize] = f;
            i
        };
        let q = &mut self.dst_queues[dst];
        if q.head.link == NIL {
            q.head.link = i;
        } else {
            self.arena[q.tail as usize].link = i;
        }
        q.tail = i;
    }

    /// A network step's share at clock `cycle`: wire arrivals enter
    /// their destination queues, then every non-empty queue serves one
    /// flit, in ascending port order.
    pub(crate) fn step(&mut self, cycle: u64, stats: &mut NetStats, out: &mut Vec<Delivered>) {
        while let Some(&(at, f)) = self.pipeline.front() {
            if at > cycle {
                break;
            }
            self.pipeline.pop_front();
            self.enqueue(f);
        }
        if self.queued == 0 {
            return;
        }
        for wi in 0..self.dst_occ.len() {
            let mut bits = self.dst_occ[wi];
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let dst = (wi << 6) | slot;
                let q = &mut self.dst_queues[dst];
                let f = q.head;
                if f.link == NIL {
                    self.dst_occ[wi] &= !(1u64 << slot);
                } else {
                    let next = f.link as usize;
                    q.head = self.arena[next];
                    self.arena[next].link = self.free;
                    self.free = f.link;
                }
                self.queued -= 1;
                stats.delivered += 1;
                stats.total_latency += cycle - f.injected_at;
                out.push(Delivered {
                    flit: Flit {
                        src: f.src as usize,
                        dst,
                        tag: f.tag,
                    },
                    injected_at: f.injected_at,
                    delivered_at: cycle,
                });
            }
        }
    }

    /// Flits on the wires or in a destination queue.
    pub(crate) fn in_flight(&self) -> usize {
        self.pipeline.len() + self.queued
    }

    /// The first cycle after `cycle` on which [`Egress::step`] moves a
    /// flit: the next one while a destination queue holds any, else the
    /// earliest wire arrival (served the cycle it arrives).
    pub(crate) fn next_event(&self, cycle: u64) -> Option<u64> {
        if self.queued > 0 {
            Some(cycle + 1)
        } else {
            self.pipeline.front().map(|&(at, _)| at)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// The specification: the same wire pipeline into one `VecDeque`
    /// per destination, every port visited in ascending order.
    struct Oracle {
        pipeline: VecDeque<(u64, Flit, u64)>,
        queues: Vec<VecDeque<(Flit, u64)>>,
        /// The most flits ever waiting behind a head at once, read
        /// after each step's arrivals (before it serves any).
        peak_behind: usize,
    }

    impl Oracle {
        fn new(dsts: usize) -> Self {
            Self {
                pipeline: VecDeque::new(),
                queues: vec![VecDeque::new(); dsts],
                peak_behind: 0,
            }
        }

        fn step(&mut self, cycle: u64, stats: &mut NetStats, out: &mut Vec<Delivered>) {
            while self.pipeline.front().is_some_and(|&(at, _, _)| at <= cycle) {
                let (_, flit, injected_at) = self.pipeline.pop_front().unwrap();
                self.queues[flit.dst].push_back((flit, injected_at));
            }
            let behind: usize = self.queues.iter().map(|q| q.len().saturating_sub(1)).sum();
            self.peak_behind = self.peak_behind.max(behind);
            for q in &mut self.queues {
                if let Some((flit, injected_at)) = q.pop_front() {
                    stats.delivered += 1;
                    stats.total_latency += cycle - injected_at;
                    out.push(Delivered {
                        flit,
                        injected_at,
                        delivered_at: cycle,
                    });
                }
            }
        }

        fn in_flight(&self) -> usize {
            self.pipeline.len() + self.queues.iter().map(VecDeque::len).sum::<usize>()
        }

        fn next_event(&self, cycle: u64) -> Option<u64> {
            if self.queues.iter().any(|q| !q.is_empty()) {
                Some(cycle + 1)
            } else {
                self.pipeline.front().map(|&(at, _, _)| at)
            }
        }
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Step both at `cycle` and require the same deliveries, stats,
    /// `in_flight` and `next_event`, and an arena exactly as long as
    /// the most flits that ever waited behind a head at once.
    fn step_both(
        cycle: u64,
        (eg, es): (&mut Egress, &mut NetStats),
        (or, os): (&mut Oracle, &mut NetStats),
    ) -> Result<(), TestCaseError> {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        eg.step(cycle, es, &mut got);
        or.step(cycle, os, &mut want);
        prop_assert_eq!(got, want, "deliveries at cycle {}", cycle);
        prop_assert_eq!(*es, *os, "stats at cycle {}", cycle);
        prop_assert_eq!(eg.in_flight(), or.in_flight());
        prop_assert_eq!(eg.next_event(cycle), or.next_event(cycle));
        prop_assert_eq!(eg.arena.len(), or.peak_behind, "arena at cycle {}", cycle);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Bursts at a hot port that moves every `period` cycles, mixed
        /// with uniform traffic, then a drain that jumps every
        /// event-free window the way `skip_idle` does.
        #[test]
        fn arena_queues_serve_as_a_deque_per_destination(
            ports in 1usize..=300,
            latency in 0u64..8,
            load in 1u64..=4,
            period in 1u64..=64,
            cycles in 1u64..400,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = seed | 1;
            let (mut eg, mut es) = (Egress::new(ports, ports), NetStats::default());
            let (mut or, mut os) = (Oracle::new(ports), NetStats::default());
            let mut hot = 0;
            let mut tag = 0;
            for cycle in 0..cycles {
                if cycle % period == 0 {
                    hot = xorshift(&mut rng) as usize % ports;
                }
                for src in 0..ports {
                    let r = xorshift(&mut rng);
                    if r % 8 >= load {
                        continue;
                    }
                    let dst = if r & 16 != 0 { hot } else { (r >> 32) as usize % ports };
                    let flit = Flit { src, dst, tag };
                    tag += 1;
                    eg.push(cycle + latency, Waiting::new(flit, cycle));
                    or.pipeline.push_back((cycle + latency, flit, cycle));
                }
                step_both(cycle + 1, (&mut eg, &mut es), (&mut or, &mut os))?;
            }
            let mut cycle = cycles;
            while let Some(e) = or.next_event(cycle) {
                cycle = e;
                step_both(cycle, (&mut eg, &mut es), (&mut or, &mut os))?;
            }
            prop_assert_eq!(eg.in_flight(), 0);
            prop_assert_eq!(es.delivered, tag);
        }
    }

    #[test]
    fn a_waiting_flit_is_24_bytes_and_32_on_the_wire() {
        assert_eq!(std::mem::size_of::<Waiting>(), 24);
        assert_eq!(std::mem::size_of::<(u64, Waiting)>(), 32);
    }

    #[test]
    fn the_arena_holds_only_what_waits_at_once() {
        // 256 ports filled to 64 flits one after another: a buffer per
        // port would keep 256 × 63 slots; the arena keeps 63.
        let mut eg = Egress::new(256, 256);
        let mut stats = NetStats::default();
        let mut out = Vec::new();
        let mut cycle = 0;
        for dst in 0..256 {
            for src in 0..64 {
                let tag = (dst * 64 + src) as u64;
                eg.push(cycle + 1, Waiting::new(Flit { src, dst, tag }, cycle));
            }
            while eg.in_flight() > 0 {
                cycle += 1;
                eg.step(cycle, &mut stats, &mut out);
                assert!(eg.arena.len() <= 63);
            }
        }
        assert_eq!(eg.arena.len(), 63);
        assert_eq!(stats.delivered, 256 * 64);
        assert!(out.chunks(64).enumerate().all(|(dst, c)| c
            .iter()
            .enumerate()
            .all(|(src, d)| (d.flit.dst, d.flit.src) == (dst, src))));
    }
}
