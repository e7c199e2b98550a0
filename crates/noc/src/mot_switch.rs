//! Switch-level mesh-of-trees model.
//!
//! [`crate::mot::MotNetwork`] idealizes the MoT as "fixed pipeline
//! latency + per-destination service queue". This module simulates the
//! actual structure — per source, a binary fan-out tree; per
//! destination, a binary fan-in tree with buffered 2-input switches and
//! round-robin arbitration — and exists to *validate* that
//! idealization: the non-blocking property means the switch-level
//! network must deliver the same saturation throughput (see tests).
//! The fan-out side needs no simulation at all: with a single injection
//! per source per cycle, a fan-out tree never arbitrates, so it
//! contributes pure pipeline latency.

use crate::net::{Delivered, Flit, NetStats, Network};
use crate::topology::Topology;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Queued {
    arrive_at: u64,
    seq: u64,
    flit: Flit,
    injected_at: u64,
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.arrive_at, self.seq).cmp(&(other.arrive_at, other.seq))
    }
}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One 2-input fan-in switch with per-input queues.
#[derive(Debug, Default)]
struct Switch {
    inputs: [VecDeque<Queued>; 2],
    /// Round-robin arbitration state.
    prefer: bool,
}

/// Switch-level mesh-of-trees: per destination, a binary fan-in tree
/// over all source ports.
#[derive(Debug)]
pub struct MotSwitchNetwork {
    topo: Topology,
    /// Fan-out latency (source side of the MoT).
    fanout_latency: u64,
    /// trees\[dst\]\[level\]\[switch\]: level 0 has `clusters/2` switches.
    trees: Vec<Vec<Vec<Switch>>>,
    /// Flits traversing the fan-out trees (pure latency).
    fanout: BinaryHeap<Reverse<Queued>>,
    /// Total flits buffered inside the fan-in trees (O(1) next-event).
    queued: usize,
    last_inject: Vec<u64>,
    cycle: u64,
    seq: u64,
    /// Statistics.
    pub stats: NetStats,
}

impl MotSwitchNetwork {
    /// Build for a pure-MoT topology.
    pub fn new(topo: Topology) -> Self {
        assert!(topo.is_nonblocking(), "switch-level model is for pure MoT");
        assert!(topo.clusters >= 2);
        let levels = topo.clusters.trailing_zeros() as usize;
        let trees = (0..topo.modules)
            .map(|_| {
                (0..levels)
                    .map(|l| {
                        let switches = topo.clusters >> (l + 1);
                        (0..switches).map(|_| Switch::default()).collect()
                    })
                    .collect()
            })
            .collect();
        Self {
            fanout_latency: topo.modules.trailing_zeros() as u64,
            topo,
            trees,
            fanout: BinaryHeap::new(),
            queued: 0,
            last_inject: vec![u64::MAX; topo.clusters],
            cycle: 0,
            seq: 0,
            stats: NetStats::default(),
        }
    }

    fn levels(&self) -> usize {
        self.topo.clusters.trailing_zeros() as usize
    }
}

impl Network for MotSwitchNetwork {
    fn ports(&self) -> (usize, usize) {
        (self.topo.clusters, self.topo.modules)
    }

    fn stats(&self) -> NetStats {
        self.stats
    }

    fn restore_stats(&mut self, stats: NetStats) {
        debug_assert_eq!(self.in_flight(), 0, "restore into a busy network");
        self.stats = stats;
    }

    fn try_inject(&mut self, flit: Flit) -> bool {
        assert!(flit.src < self.topo.clusters && flit.dst < self.topo.modules);
        if self.last_inject[flit.src] == self.cycle {
            self.stats.inject_rejections += 1;
            return false;
        }
        self.last_inject[flit.src] = self.cycle;
        self.seq += 1;
        self.fanout.push(Reverse(Queued {
            arrive_at: self.cycle + self.fanout_latency,
            seq: self.seq,
            flit,
            injected_at: self.cycle,
        }));
        self.stats.injected += 1;
        true
    }

    fn step_into(&mut self, out: &mut Vec<Delivered>) {
        self.cycle += 1;
        // Fan-out arrivals enter level 0 of their destination tree at
        // the input matching their source port.
        while let Some(Reverse(q)) = self.fanout.peek() {
            if q.arrive_at > self.cycle {
                break;
            }
            let Reverse(q) = self.fanout.pop().unwrap();
            let sw = q.flit.src >> 1;
            let side = q.flit.src & 1;
            self.trees[q.flit.dst][0][sw].inputs[side].push_back(q);
            self.queued += 1;
        }
        if self.queued == 0 {
            return;
        }
        // Advance every fan-in tree from root level back to leaves so a
        // flit moves one level per cycle.
        let levels = self.levels();
        for dst in 0..self.topo.modules {
            for l in (0..levels).rev() {
                let n_sw = self.trees[dst][l].len();
                for s in 0..n_sw {
                    // Pick one input by round-robin among non-empty.
                    let sw = &mut self.trees[dst][l][s];
                    let pick = match (sw.inputs[0].is_empty(), sw.inputs[1].is_empty()) {
                        (true, true) => continue,
                        (false, true) => 0,
                        (true, false) => 1,
                        (false, false) => {
                            let p = usize::from(sw.prefer);
                            sw.prefer = !sw.prefer;
                            p
                        }
                    };
                    let q = self.trees[dst][l][s].inputs[pick].pop_front().unwrap();
                    if l + 1 == levels {
                        // Root: delivered.
                        self.queued -= 1;
                        let d = Delivered {
                            flit: q.flit,
                            injected_at: q.injected_at,
                            delivered_at: self.cycle,
                        };
                        self.stats.delivered += 1;
                        self.stats.total_latency += d.latency();
                        out.push(d);
                    } else {
                        let side = s & 1;
                        self.trees[dst][l + 1][s >> 1].inputs[side].push_back(q);
                    }
                }
            }
        }
    }

    fn in_flight(&self) -> usize {
        self.queued + self.fanout.len()
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn min_latency(&self) -> u64 {
        // Arrival into level 0 and the first hop share a cycle.
        self.fanout_latency + self.levels() as u64 - 1
    }

    fn next_event(&self) -> Option<u64> {
        if self.queued > 0 {
            Some(self.cycle + 1)
        } else {
            self.fanout.peek().map(|Reverse(q)| q.arrive_at)
        }
    }

    fn skip_idle(&mut self, n: u64) {
        debug_assert_eq!(self.queued, 0, "skip_idle with buffered flits");
        debug_assert!(self
            .fanout
            .peek()
            .is_none_or(|Reverse(q)| q.arrive_at > self.cycle + n));
        // Switch `prefer` bits only toggle when both inputs are
        // occupied, so an idle window leaves them untouched.
        self.cycle += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mot::MotNetwork;
    use crate::traffic::{measure_saturation, Pattern};

    fn net(p: usize) -> MotSwitchNetwork {
        MotSwitchNetwork::new(Topology::pure_mot(p, p))
    }

    #[test]
    fn single_flit_traverses_both_tree_sides() {
        let mut n = net(16);
        assert!(n.try_inject(Flit {
            src: 5,
            dst: 11,
            tag: 7
        }));
        let mut got = Vec::new();
        for _ in 0..20 {
            got.extend(n.step());
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].flit.tag, 7);
        assert_eq!(got[0].latency(), n.min_latency());
    }

    #[test]
    fn permutation_traffic_is_conflict_free() {
        // The defining MoT property (Section II-B: "no blocking in the
        // network"): a permutation sustains one flit per port per cycle.
        let mut n = net(32);
        let s = measure_saturation(&mut n, Pattern::Transpose, 100, 400);
        assert!(
            s.throughput > 0.99,
            "switch-level MoT permutation: {}",
            s.throughput
        );
    }

    #[test]
    fn matches_idealized_model_under_uniform_load() {
        let mut switch = net(32);
        let ssw = measure_saturation(&mut switch, Pattern::Uniform, 200, 600);
        let mut ideal = MotNetwork::new(Topology::pure_mot(32, 32));
        let sid = measure_saturation(&mut ideal, Pattern::Uniform, 200, 600);
        assert!(
            (ssw.throughput - sid.throughput).abs() < 0.05,
            "switch {} vs ideal {}",
            ssw.throughput,
            sid.throughput
        );
    }

    #[test]
    fn hotspot_serializes_like_ideal() {
        let mut n = net(16);
        let s = measure_saturation(&mut n, Pattern::Hotspot(3), 50, 300);
        assert!((s.throughput - 1.0 / 16.0).abs() < 0.02, "{}", s.throughput);
    }

    #[test]
    fn conservation_under_random_bursts() {
        let mut n = net(8);
        let mut injected = 0u64;
        for round in 0..50u64 {
            for src in 0..8 {
                if !(src + round as usize).is_multiple_of(3) {
                    let dst = (src * 5 + round as usize) % 8;
                    if n.try_inject(Flit {
                        src,
                        dst,
                        tag: round * 8 + src as u64,
                    }) {
                        injected += 1;
                    }
                }
            }
            n.step();
        }
        let mut guard = 0;
        while n.in_flight() > 0 && guard < 1000 {
            n.step();
            guard += 1;
        }
        assert_eq!(n.stats.delivered, injected);
    }
}
