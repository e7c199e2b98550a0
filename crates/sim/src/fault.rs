//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a pure description of every fault a run should
//! experience: DRAM bit flips checked against the SECDED ECC model,
//! NoC flit corruption with bounded retry, and hard component faults
//! (disabled or stuck TCUs, offline clusters and DRAM channels). The
//! plan carries one master seed; every consumer derives its own seed
//! stream from it with a splitmix64-style finalizer, so a run with the
//! same plan replays bit-identically under every engine — no
//! wall-clock time and no OS randomness is ever consulted.

use xmt_mem::EccConfig;
use xmt_noc::LinkFaults;

/// Identifies a TCU by its position in the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcuId {
    /// Home cluster.
    pub cluster: usize,
    /// TCU index within the cluster.
    pub tcu: usize,
}

/// Seeded, declarative description of the faults a run experiences.
///
/// The default plan (any seed, all rates zero, no dead components) is
/// *benign*: building a machine with it is bit-identical to building
/// one with no plan at all — no fault layer is interposed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; all per-component streams derive from it.
    pub seed: u64,
    /// Per-read probability of a correctable single-bit DRAM flip.
    pub dram_single: f64,
    /// Per-read probability of a detectable double-bit DRAM flip.
    pub dram_double: f64,
    /// Per-delivery probability of NoC flit corruption.
    pub noc_corrupt: f64,
    /// Clusters whose TCUs never activate (threads remap around them).
    pub dead_clusters: Vec<usize>,
    /// Individual TCUs that never activate.
    pub dead_tcus: Vec<TcuId>,
    /// TCUs that accept a thread and then never issue (detected by the
    /// watchdog as [`crate::SimError::Stalled`]).
    pub stuck_tcus: Vec<TcuId>,
    /// DRAM channels taken offline; the module groups they serve are
    /// removed from the address hash and traffic routes around them.
    pub dead_channels: Vec<usize>,
}

impl FaultPlan {
    /// The fault layers' fixed retry policy — DRAM re-reads, NoC
    /// redeliveries, NoC backoff base in cycles — as the three words
    /// requests and cache keys carry.
    pub const RETRY_POLICY: (u32, u32, u64) = (
        EccConfig::RETRY_LIMIT,
        LinkFaults::RETRY_LIMIT,
        LinkFaults::BACKOFF_BASE,
    );

    /// A plan with the given master seed and no faults.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            dram_single: 0.0,
            dram_double: 0.0,
            noc_corrupt: 0.0,
            dead_clusters: Vec::new(),
            dead_tcus: Vec::new(),
            stuck_tcus: Vec::new(),
            dead_channels: Vec::new(),
        }
    }

    /// Set DRAM single/double bit-flip probabilities (per read).
    pub fn dram_flips(mut self, single: f64, double: f64) -> Self {
        self.dram_single = single;
        self.dram_double = double;
        self
    }

    /// Set the NoC per-delivery corruption probability.
    pub fn noc_corrupt(mut self, p: f64) -> Self {
        self.noc_corrupt = p;
        self
    }

    /// Take a whole cluster offline (all its TCUs never activate).
    pub fn dead_cluster(mut self, cluster: usize) -> Self {
        self.dead_clusters.push(cluster);
        self
    }

    /// Take one TCU offline.
    pub fn dead_tcu(mut self, cluster: usize, tcu: usize) -> Self {
        self.dead_tcus.push(TcuId { cluster, tcu });
        self
    }

    /// Make one TCU stuck-at: it accepts a thread then never issues.
    pub fn stuck_tcu(mut self, cluster: usize, tcu: usize) -> Self {
        self.stuck_tcus.push(TcuId { cluster, tcu });
        self
    }

    /// Take a DRAM channel (and its memory-module group) offline.
    pub fn dead_channel(mut self, channel: usize) -> Self {
        self.dead_channels.push(channel);
        self
    }

    /// True iff building with this plan is bit-identical to building
    /// without one (no fault layer gets interposed anywhere).
    pub fn is_benign(&self) -> bool {
        self.dram_single == 0.0
            && self.dram_double == 0.0
            && self.noc_corrupt == 0.0
            && self.dead_clusters.is_empty()
            && self.dead_tcus.is_empty()
            && self.stuck_tcus.is_empty()
            && self.dead_channels.is_empty()
    }

    /// Derived seed stream for a named consumer. The master seed is
    /// mixed with a domain tag through the same finalizer the fault
    /// layers use, so streams are independent and reproducible.
    fn stream(&self, domain: u64) -> u64 {
        xmt_noc::fault_hash(self.seed, domain.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// ECC configuration for DRAM channel `ch`, or `None` when flip
    /// rates are zero (the channel keeps its bit-exact fault-free path).
    pub fn ecc_for_channel(&self, ch: usize) -> Option<EccConfig> {
        if self.dram_single == 0.0 && self.dram_double == 0.0 {
            return None;
        }
        Some(EccConfig::new(
            self.stream(0x1000 + ch as u64),
            self.dram_single,
            self.dram_double,
        ))
    }

    /// Link-fault configuration for the request NoC, or `None` when the
    /// corruption rate is zero.
    pub fn req_net_faults(&self) -> Option<LinkFaults> {
        self.net_faults(0x2000)
    }

    /// Link-fault configuration for the reply NoC, or `None` when the
    /// corruption rate is zero.
    pub fn reply_net_faults(&self) -> Option<LinkFaults> {
        self.net_faults(0x2001)
    }

    fn net_faults(&self, domain: u64) -> Option<LinkFaults> {
        if self.noc_corrupt == 0.0 {
            return None;
        }
        Some(LinkFaults::new(self.stream(domain), self.noc_corrupt))
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_benign() {
        assert!(FaultPlan::default().is_benign());
        assert!(FaultPlan::new(42).is_benign());
        assert!(FaultPlan::new(42).ecc_for_channel(0).is_none());
        assert!(FaultPlan::new(42).req_net_faults().is_none());
    }

    #[test]
    fn any_fault_breaks_benignity() {
        assert!(!FaultPlan::new(1).dram_flips(1e-6, 0.0).is_benign());
        assert!(!FaultPlan::new(1).noc_corrupt(1e-4).is_benign());
        assert!(!FaultPlan::new(1).dead_cluster(0).is_benign());
        assert!(!FaultPlan::new(1).dead_tcu(0, 3).is_benign());
        assert!(!FaultPlan::new(1).stuck_tcu(1, 0).is_benign());
        assert!(!FaultPlan::new(1).dead_channel(2).is_benign());
    }

    #[test]
    fn seed_streams_are_independent_and_deterministic() {
        let p = FaultPlan::new(7).dram_flips(1e-5, 1e-7).noc_corrupt(1e-4);
        let a = p.ecc_for_channel(0).unwrap();
        let b = p.ecc_for_channel(1).unwrap();
        assert_ne!(a.seed, b.seed, "channels must draw distinct streams");
        let req = p.req_net_faults().unwrap();
        let rep = p.reply_net_faults().unwrap();
        assert_ne!(req.seed, rep.seed);
        // Replaying the plan gives the same streams.
        let p2 = FaultPlan::new(7).dram_flips(1e-5, 1e-7).noc_corrupt(1e-4);
        assert_eq!(p2.ecc_for_channel(0).unwrap().seed, a.seed);
        assert_eq!(p2.req_net_faults().unwrap().seed, req.seed);
    }
}
