//! Compute-node specifications for the cluster model and the host
//! baselines (Table V / Table VI of the paper).

/// One cluster node (possibly multi-socket).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// The `sockets` value.
    pub sockets: usize,
    /// The `cores_per_socket` value.
    pub cores_per_socket: usize,
    /// The `clock_ghz` value.
    pub clock_ghz: f64,
    /// Peak FLOPs per core per cycle (vector width × FMA).
    pub flops_per_core_cycle: f64,
    /// Aggregate node memory bandwidth in GB/s.
    pub mem_gbs: f64,
    /// Network injection bandwidth per node in GB/s.
    pub inject_gbs: f64,
    /// Last-level cache per socket in MB.
    pub llc_mb_per_socket: f64,
    /// Die area per socket in mm².
    pub die_mm2: f64,
    /// Process node in nm.
    pub tech_nm: u32,
    /// Node power in W (both sockets + memory).
    pub power_w: f64,
}

impl NodeSpec {
    /// Total cores.
    pub fn cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Peak GFLOPS of the whole node.
    pub fn peak_gflops(&self) -> f64 {
        self.cores() as f64 * self.clock_ghz * self.flops_per_core_cycle
    }

    /// The Edison compute node: dual 12-core Intel Xeon E5-2695v2
    /// (Ivy Bridge EP, 2.4 GHz, AVX: 8 DP FLOPs/cycle).
    pub fn e5_2695v2_node() -> Self {
        Self {
            name: "2x Xeon E5-2695v2",
            sockets: 2,
            cores_per_socket: 12,
            clock_ghz: 2.4,
            flops_per_core_cycle: 8.0,
            mem_gbs: 103.0,   // 4ch DDR3-1600 per socket
            inject_gbs: 10.0, // Aries NIC, ~10 GB/s usable per direction
            llc_mb_per_socket: 30.0,
            die_mm2: 541.0,
            tech_nm: 22,
            power_w: 330.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edison_node_matches_paper_arithmetic() {
        let n = NodeSpec::e5_2695v2_node();
        assert_eq!(n.cores(), 24);
        // 24 cores × 2.4 GHz × 8 = 460.8 GFLOPS/node; 5192 nodes give
        // Table VI's 2390 peak TFLOPS.
        assert!((n.peak_gflops() - 460.8).abs() < 0.1);
        let machine_tf = n.peak_gflops() * 5192.0 / 1000.0;
        assert!((machine_tf - 2392.5).abs() < 5.0, "got {machine_tf}");
        // Total cache: 60 MB/node × 5192 = 311,520 MB (Table VI).
        let cache_mb = n.llc_mb_per_socket * n.sockets as f64 * 5192.0;
        assert!((cache_mb - 311_520.0).abs() < 1.0);
    }
}
