//! The fan-in half both cycle-level models share: a fixed-latency wire
//! pipeline into one service queue per destination port, each serving
//! one flit a cycle (the root of that port's fan-in tree).

use crate::net::{Delivered, Flit, NetStats};
use std::collections::VecDeque;

/// A flit inside a network.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InFlight {
    pub(crate) flit: Flit,
    pub(crate) injected_at: u64,
}

#[derive(Debug)]
pub(crate) struct Egress {
    /// Flits on the wires with their queue-arrival cycle, in push order.
    pipeline: VecDeque<(u64, InFlight)>,
    dst_queues: Vec<VecDeque<InFlight>>,
    /// Total flits across `dst_queues` (O(1) emptiness/next-event).
    queued: usize,
    /// Occupancy bitmap over `dst_queues` (serve without scanning).
    dst_occ: Vec<u64>,
}

impl Egress {
    pub(crate) fn new(dsts: usize) -> Self {
        Self {
            pipeline: VecDeque::new(),
            dst_queues: vec![VecDeque::new(); dsts],
            queued: 0,
            dst_occ: vec![0u64; dsts.div_ceil(64)],
        }
    }

    /// Put `f` on the wires, to reach its destination queue at
    /// `arrive_at`: the caller's clock plus a per-network constant. A
    /// clock never goes back (`skip_idle` only advances it), so push
    /// order is arrival order — a FIFO, not a priority queue.
    pub(crate) fn push(&mut self, arrive_at: u64, f: InFlight) {
        debug_assert!(
            self.pipeline.back().is_none_or(|&(at, _)| at <= arrive_at),
            "wire arrivals pushed out of order"
        );
        self.pipeline.push_back((arrive_at, f));
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
            let dst = f.flit.dst;
            self.dst_queues[dst].push_back(f);
            self.dst_occ[dst >> 6] |= 1u64 << (dst & 63);
            self.queued += 1;
        }
        if self.queued == 0 {
            return;
        }
        for wi in 0..self.dst_occ.len() {
            let mut bits = self.dst_occ[wi];
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let q = &mut self.dst_queues[(wi << 6) | slot];
                let f = q.pop_front().expect("occupied destination queue");
                if q.is_empty() {
                    self.dst_occ[wi] &= !(1u64 << slot);
                }
                self.queued -= 1;
                stats.delivered += 1;
                stats.total_latency += cycle - f.injected_at;
                out.push(Delivered {
                    flit: f.flit,
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
