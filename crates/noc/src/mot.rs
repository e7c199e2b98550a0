//! Idealized mesh-of-trees model.
//!
//! A pure MoT gives every (source, destination) pair a private path, so
//! the only contention is the destination port itself (the root of that
//! module's fan-in tree serves one flit per cycle). The model is
//! therefore: a fixed pipeline latency equal to the level count, then a
//! per-destination service queue at 1 flit/cycle. Sources are limited
//! to one injection per cycle (the cluster's single LSU port).

use crate::egress::{Egress, Waiting};
use crate::net::{Delivered, Flit, NetStats, Network};
use crate::topology::Topology;

/// The idealized non-blocking MoT network.
#[derive(Debug)]
pub struct MotNetwork {
    topo: Topology,
    cycle: u64,
    latency: u64,
    /// The wire pipeline and the per-destination service queues.
    egress: Egress,
    /// Last injection cycle per source (rate limit 1/cycle).
    last_inject: Vec<u64>,
    /// Accumulated statistics.
    pub stats: NetStats,
}

impl MotNetwork {
    /// Construct a new instance.
    pub fn new(topo: Topology) -> Self {
        assert!(
            topo.is_nonblocking(),
            "MotNetwork models pure MoT topologies"
        );
        Self {
            latency: topo.latency_cycles() as u64,
            topo,
            cycle: 0,
            egress: Egress::new(topo.clusters, topo.modules),
            last_inject: vec![u64::MAX; topo.clusters],
            stats: NetStats::default(),
        }
    }
}

impl Network for MotNetwork {
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
        assert!(flit.src < self.topo.clusters, "source port out of range");
        assert!(
            flit.dst < self.topo.modules,
            "destination port out of range"
        );
        if self.last_inject[flit.src] == self.cycle {
            self.stats.inject_rejections += 1;
            return false;
        }
        self.last_inject[flit.src] = self.cycle;
        self.egress
            .push(self.cycle + self.latency, Waiting::new(flit, self.cycle));
        self.stats.injected += 1;
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight());
        true
    }

    fn step_into(&mut self, out: &mut Vec<Delivered>) {
        self.cycle += 1;
        self.egress.step(self.cycle, &mut self.stats, out);
    }

    fn in_flight(&self) -> usize {
        self.egress.in_flight()
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn min_latency(&self) -> u64 {
        self.latency.max(1)
    }

    fn next_event(&self) -> Option<u64> {
        self.egress.next_event(self.cycle)
    }

    fn skip_idle(&mut self, n: u64) {
        debug_assert!(
            self.next_event().is_none_or(|e| e > self.cycle + n),
            "skip_idle crossed a network event"
        );
        self.cycle += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(c: usize, m: usize) -> MotNetwork {
        MotNetwork::new(Topology::pure_mot(c, m))
    }

    #[test]
    fn single_flit_sees_pipeline_latency() {
        let mut n = net(8, 8);
        assert!(n.try_inject(Flit {
            src: 0,
            dst: 3,
            tag: 1
        }));
        let lat = n.min_latency();
        let mut delivered = Vec::new();
        for _ in 0..lat + 2 {
            delivered.extend(n.step());
        }
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].flit.tag, 1);
        assert_eq!(delivered[0].latency(), lat);
    }

    #[test]
    fn peak_in_flight_counts_each_flit_once() {
        let mut one = net(8, 8);
        assert!(one.try_inject(Flit {
            src: 0,
            dst: 3,
            tag: 0
        }));
        assert_eq!(one.stats.peak_in_flight, 1);
        let mut many = net(8, 8);
        for s in 0..5 {
            assert!(many.try_inject(Flit {
                src: s,
                dst: 3,
                tag: s as u64
            }));
        }
        assert_eq!(many.stats.peak_in_flight, 5);
    }

    #[test]
    fn source_rate_limited_to_one_per_cycle() {
        let mut n = net(4, 4);
        assert!(n.try_inject(Flit {
            src: 2,
            dst: 0,
            tag: 1
        }));
        assert!(!n.try_inject(Flit {
            src: 2,
            dst: 1,
            tag: 2
        }));
        n.step();
        assert!(n.try_inject(Flit {
            src: 2,
            dst: 1,
            tag: 2
        }));
        assert_eq!(n.stats.inject_rejections, 1);
    }

    #[test]
    fn distinct_destinations_do_not_contend() {
        // 4 sources to 4 distinct destinations: all delivered in the
        // same cycle (non-blocking network).
        let mut n = net(4, 4);
        for s in 0..4 {
            assert!(n.try_inject(Flit {
                src: s,
                dst: s,
                tag: s as u64
            }));
        }
        let mut all = Vec::new();
        for _ in 0..n.min_latency() {
            all.extend(n.step());
        }
        assert_eq!(all.len(), 4);
        let lats: Vec<u64> = all.iter().map(|d| d.latency()).collect();
        assert!(lats.iter().all(|&l| l == lats[0]), "{lats:?}");
    }

    #[test]
    fn same_destination_serializes() {
        // 4 sources to one destination: deliveries 1/cycle (queuing),
        // exactly the same-module serialization the paper's twiddle
        // replication works around.
        let mut n = net(4, 4);
        for s in 0..4 {
            assert!(n.try_inject(Flit {
                src: s,
                dst: 0,
                tag: s as u64
            }));
        }
        let mut times = Vec::new();
        for _ in 0..20 {
            for d in n.step() {
                times.push(d.delivered_at);
            }
        }
        assert_eq!(times.len(), 4);
        for w in times.windows(2) {
            assert_eq!(w[1] - w[0], 1, "deliveries must be 1/cycle: {times:?}");
        }
    }

    #[test]
    fn every_flit_delivered_exactly_once() {
        let mut n = net(16, 16);
        let mut injected = 0u64;
        let mut delivered = 0u64;
        for round in 0..10u64 {
            for s in 0..16 {
                let f = Flit {
                    src: s,
                    dst: (s * 7 + round as usize) % 16,
                    tag: round * 100 + s as u64,
                };
                if n.try_inject(f) {
                    injected += 1;
                }
            }
            delivered += n.step().len() as u64;
        }
        while n.in_flight() > 0 {
            delivered += n.step().len() as u64;
        }
        assert_eq!(injected, delivered);
        assert_eq!(n.stats.injected, injected);
        assert_eq!(n.stats.delivered, delivered);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_port_panics() {
        let mut n = net(4, 4);
        n.try_inject(Flit {
            src: 9,
            dst: 0,
            tag: 0,
        });
    }

    #[test]
    fn next_event_and_skip_match_stepping() {
        let mut a = net(8, 8);
        let mut b = net(8, 8);
        assert_eq!(a.next_event(), None);
        for n in [&mut a, &mut b] {
            assert!(n.try_inject(Flit {
                src: 1,
                dst: 6,
                tag: 3
            }));
        }
        // The first event is the pipeline arrival (delivered same
        // cycle it reaches the empty destination queue).
        let ev = a.next_event().expect("flit in flight");
        assert!(ev > a.cycle());
        // a: skip right up to the event; b: step one cycle at a time.
        a.skip_idle(ev - a.cycle() - 1);
        let mut b_out = Vec::new();
        for _ in 0..(ev - b.cycle() - 1) {
            b_out.extend(b.step());
        }
        assert!(b_out.is_empty(), "skipped window must be event-free");
        let da = a.step();
        let db = b.step();
        assert_eq!(da, db, "skip must be invisible to deliveries");
        assert_eq!(a.cycle(), b.cycle());
        assert_eq!(a.next_event(), None);
        assert_eq!(b.next_event(), None);
    }
}
