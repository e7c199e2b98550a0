//! # xmt-noc — XMT network-on-chip models
//!
//! The high-throughput interconnect between processing clusters and
//! cache/memory modules (Section II-B of the paper). Three levels of
//! fidelity:
//!
//! * [`mot::MotNetwork`] — the pure mesh-of-trees: unique path per
//!   (cluster, module) pair, non-blocking, contention only at
//!   destination ports. Cycle-stepped.
//! * [`butterfly::ButterflyNetwork`] — the hybrid MoT/butterfly used
//!   by large configurations: outer MoT levels plus inner *blocking*
//!   butterfly levels with buffered 2×2 switches and backpressure.
//!   Cycle-stepped.
//! * [`analytic`] — closed-form sustainable-throughput model fitted to
//!   the cycle models, used by the 512³ projections.
//!
//! [`topology`] carries the level structure and the silicon-area model
//! (the 190 mm² / 760 mm² calibration points of Section II-B), and
//! [`traffic`] provides synthetic patterns and a saturation harness.

#![warn(missing_docs)]
pub mod analytic;
pub mod butterfly;
mod egress;
pub mod faulty;
pub mod mot;
pub mod mot_switch;
pub mod net;
pub mod topology;
pub mod traffic;

pub use analytic::{effective_throughput, TrafficClass};
pub use butterfly::ButterflyNetwork;
pub use faulty::{fault_hash, probability_threshold, FaultyNetwork, LinkFaults};
pub use mot::MotNetwork;
pub use mot_switch::MotSwitchNetwork;
pub use net::{Delivered, Flit, NetStats, Network};
pub use topology::{NocAreaModel, Topology};
pub use traffic::{measure_saturation, Pattern, Saturation};

/// Build the appropriate cycle-level network for a topology: pure MoT
/// topologies get the non-blocking model, hybrids the butterfly model.
pub fn build_network(topo: Topology) -> Box<dyn Network> {
    if topo.is_nonblocking() {
        Box::new(MotNetwork::new(topo))
    } else {
        Box::new(ButterflyNetwork::new(topo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_network_dispatches_on_topology() {
        let m = build_network(Topology::pure_mot(8, 8));
        assert_eq!(m.ports(), (8, 8));
        let b = build_network(Topology::hybrid(16, 16, 4, 4));
        assert_eq!(b.ports(), (16, 16));
        assert!(b.min_latency() >= 8);
    }
}
