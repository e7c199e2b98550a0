//! XMT architecture configurations (Table II of the paper) and scaled
//! variants for tractable cycle simulation.

use xmt_mem::{CacheConfig, DramConfig};
use xmt_noc::Topology;

/// One architecture configuration: the machine-organization row set of
/// Table II plus clocking and memory parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XmtConfig {
    /// Human-readable name ("4k", "8k", "64k", "128k x2", "128k x4").
    pub name: &'static str,
    /// The `tcus` value.
    pub tcus: usize,
    /// The `clusters` value.
    pub clusters: usize,
    /// The `tcus_per_cluster` value.
    pub tcus_per_cluster: usize,
    /// The `memory_modules` value.
    pub memory_modules: usize,
    /// Memory modules per DRAM controller/channel.
    pub mm_per_dram_ctrl: usize,
    /// The `fpus_per_cluster` value.
    pub fpus_per_cluster: usize,
    /// ALUs per cluster (one per TCU in every paper configuration).
    pub alus_per_cluster: usize,
    /// The `mdus_per_cluster` value.
    pub mdus_per_cluster: usize,
    /// The `lsus_per_cluster` value.
    pub lsus_per_cluster: usize,
    /// NoC level split (Table II).
    pub mot_levels: u32,
    /// The `butterfly_levels` value.
    pub butterfly_levels: u32,
    /// Core clock in GHz (the paper assumes 3.3 GHz throughout).
    pub clock_ghz: f64,
    /// Technology node in nm (Table III).
    pub tech_nm: u32,
    /// 3D-VLSI silicon layers (Table III).
    pub si_layers: u32,
    /// Per-module cache slice.
    pub cache: CacheConfig,
    /// DRAM channel parameters.
    pub dram: DramConfig,
}

impl XmtConfig {
    /// Number of DRAM channels.
    pub fn dram_channels(&self) -> usize {
        self.memory_modules / self.mm_per_dram_ctrl
    }

    /// The geometry rules a [`crate::Machine`] can be built from, stated
    /// once: [`crate::MachineBuilder::try_build`] checks them, and so
    /// does every decoder that accepts a configuration from outside
    /// the process. Each rule is what some component's constructor or
    /// index arithmetic relies on.
    pub fn validate(&self) -> Result<(), &'static str> {
        // `ClusterMasks` packs a cluster into `u64` bitmasks.
        if !(1..=64).contains(&self.tcus_per_cluster) {
            return Err("tcus per cluster outside 1..=64");
        }
        // NoC ports and the address hash select by bit field.
        if !self.clusters.is_power_of_two() || !self.memory_modules.is_power_of_two() {
            return Err("cluster and memory-module counts must be powers of two");
        }
        // Module `m` belongs to channel `m / mm_per_dram_ctrl`.
        if !self.memory_modules.is_multiple_of(self.mm_per_dram_ctrl) {
            return Err("memory modules per DRAM controller must divide the module count");
        }
        if self.butterfly_levels > 0 {
            let port_bits = self.clusters.trailing_zeros();
            if self.clusters != self.memory_modules {
                return Err("a butterfly NoC needs as many memory modules as clusters");
            }
            if self.butterfly_levels > port_bits
                || u64::from(self.mot_levels) + u64::from(self.butterfly_levels)
                    > 2 * u64::from(port_bits)
            {
                return Err("more NoC levels than port address bits");
            }
        }
        let cache = &self.cache;
        if !cache.lines.is_power_of_two()
            || !cache.ways.is_power_of_two()
            || cache.ways > cache.lines
        {
            return Err("cache lines and ways must be powers of two, ways <= lines");
        }
        // The packed tag word keeps 30 bits for a line index.
        if !cache.line_words.is_power_of_two() || cache.line_words < 4 {
            return Err("cache line must be a power of two of at least 4 words");
        }
        // A line's burst must be a cycle count the clock can add.
        let rate = self.dram.bytes_per_cycle;
        if rate.is_nan() || rate <= 0.0 || self.dram.burst_cycles() > 1 << 32 {
            return Err("DRAM bytes per cycle must be positive and a burst at most 2^32 cycles");
        }
        Ok(())
    }

    /// NoC topology (cluster ports × module ports with the Table II
    /// level split).
    pub fn topology(&self) -> Topology {
        if self.butterfly_levels == 0 {
            Topology::pure_mot(self.clusters, self.memory_modules)
        } else {
            Topology::hybrid(
                self.clusters,
                self.memory_modules,
                self.mot_levels,
                self.butterfly_levels,
            )
        }
    }

    /// Peak floating-point rate in GFLOPS (one FLOP per FPU per cycle).
    pub fn peak_gflops(&self) -> f64 {
        (self.clusters * self.fpus_per_cluster) as f64 * self.clock_ghz
    }

    /// Peak off-chip bandwidth in GB/s.
    pub fn peak_dram_gbs(&self) -> f64 {
        self.dram_channels() as f64 * self.dram.bytes_per_cycle * self.clock_ghz
    }

    /// Total on-chip cache in MiB.
    pub fn total_cache_mib(&self) -> f64 {
        let per_module = self.cache.lines * self.cache.line_words * 4;
        (self.memory_modules * per_module) as f64 / (1024.0 * 1024.0)
    }

    /// The "4k" baseline: largest single-layer 22 nm configuration.
    pub fn xmt_4k() -> Self {
        Self {
            name: "4k",
            tcus: 4096,
            clusters: 128,
            tcus_per_cluster: 32,
            memory_modules: 128,
            mm_per_dram_ctrl: 8,
            fpus_per_cluster: 1,
            alus_per_cluster: 32,
            mdus_per_cluster: 1,
            lsus_per_cluster: 1,
            mot_levels: 14,
            butterfly_levels: 0,
            clock_ghz: 3.3,
            tech_nm: 22,
            si_layers: 1,
            cache: CacheConfig::default_module(),
            dram: DramConfig::ddr_like(),
        }
    }

    /// The "8k" configuration: 3D VLSI (2 layers), air cooling.
    pub fn xmt_8k() -> Self {
        Self {
            name: "8k",
            tcus: 8192,
            clusters: 256,
            memory_modules: 256,
            mot_levels: 16,
            si_layers: 2,
            ..Self::xmt_4k()
        }
    }

    /// The "64k" configuration: microfluidic cooling, 8 layers, hybrid
    /// NoC (8 MoT + 7 butterfly levels).
    pub fn xmt_64k() -> Self {
        Self {
            name: "64k",
            tcus: 65536,
            clusters: 2048,
            memory_modules: 2048,
            mot_levels: 8,
            butterfly_levels: 7,
            si_layers: 8,
            ..Self::xmt_4k()
        }
    }

    /// The "128k x2" configuration: 14 nm, silicon photonics doubling
    /// the DRAM-controller ratio, 2 FPUs per cluster.
    pub fn xmt_128k_x2() -> Self {
        Self {
            name: "128k x2",
            tcus: 131072,
            clusters: 4096,
            memory_modules: 4096,
            mm_per_dram_ctrl: 4,
            fpus_per_cluster: 2,
            mot_levels: 6,
            butterfly_levels: 9,
            tech_nm: 14,
            si_layers: 9,
            ..Self::xmt_4k()
        }
    }

    /// The "128k x4" configuration: MFC-cooled photonics give every
    /// memory module its own DRAM controller; 4 FPUs per cluster.
    pub fn xmt_128k_x4() -> Self {
        Self {
            name: "128k x4",
            mm_per_dram_ctrl: 1,
            fpus_per_cluster: 4,
            ..Self::xmt_128k_x2()
        }
    }

    /// All five paper configurations in Table II order.
    pub fn paper_configs() -> Vec<XmtConfig> {
        vec![
            Self::xmt_4k(),
            Self::xmt_8k(),
            Self::xmt_64k(),
            Self::xmt_128k_x2(),
            Self::xmt_128k_x4(),
        ]
    }

    /// A proportionally scaled-down variant with `clusters` clusters,
    /// for tractable cycle simulation. Keeps TCUs/cluster, FPU ratio,
    /// MM:cluster ratio, MMs-per-controller and the *blocking* level
    /// count; shrinks the MoT levels to fit the smaller port count.
    /// DRAM latency is also shortened proportionally to keep the
    /// latency-bandwidth balance of the full machine.
    pub fn scaled_to(&self, clusters: usize) -> XmtConfig {
        assert!(clusters.is_power_of_two());
        assert!(clusters <= self.clusters);
        let modules = clusters * self.memory_modules / self.clusters;
        let bits = clusters.trailing_zeros() + modules.trailing_zeros();
        // The butterfly model routes on destination bits, so at most
        // log2(ports) blocking stages exist on a scaled machine.
        let bfly = self
            .butterfly_levels
            .min(bits.saturating_sub(2))
            .min(clusters.trailing_zeros());
        let mut c = *self;
        c.clusters = clusters;
        c.tcus = clusters * self.tcus_per_cluster;
        c.memory_modules = modules;
        c.butterfly_levels = bfly;
        c.mot_levels = bits - bfly;
        c.mm_per_dram_ctrl = self.mm_per_dram_ctrl.min(modules);
        c.dram = DramConfig {
            access_latency: 60,
            ..self.dram
        };
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_match_paper() {
        let cfgs = XmtConfig::paper_configs();
        let tcus: Vec<usize> = cfgs.iter().map(|c| c.tcus).collect();
        assert_eq!(tcus, vec![4096, 8192, 65536, 131072, 131072]);
        let clusters: Vec<usize> = cfgs.iter().map(|c| c.clusters).collect();
        assert_eq!(clusters, vec![128, 256, 2048, 4096, 4096]);
        let mot: Vec<u32> = cfgs.iter().map(|c| c.mot_levels).collect();
        assert_eq!(mot, vec![14, 16, 8, 6, 6]);
        let bfly: Vec<u32> = cfgs.iter().map(|c| c.butterfly_levels).collect();
        assert_eq!(bfly, vec![0, 0, 7, 9, 9]);
        let mmpc: Vec<usize> = cfgs.iter().map(|c| c.mm_per_dram_ctrl).collect();
        assert_eq!(mmpc, vec![8, 8, 8, 4, 1]);
        let fpus: Vec<usize> = cfgs.iter().map(|c| c.fpus_per_cluster).collect();
        assert_eq!(fpus, vec![1, 1, 1, 2, 4]);
        for c in &cfgs {
            assert_eq!(c.tcus, c.clusters * c.tcus_per_cluster);
            assert_eq!(c.tcus_per_cluster, 32);
            assert_eq!(c.alus_per_cluster, 32);
            assert_eq!(c.mdus_per_cluster, 1);
            assert_eq!(c.lsus_per_cluster, 1);
        }
    }

    #[test]
    fn dram_channel_counts_match_section_v() {
        // Section V-B: "The 32 DRAM channels of this configuration" (8k);
        // V-C: "the 256 DRAM channels of this configuration" (64k).
        assert_eq!(XmtConfig::xmt_4k().dram_channels(), 16);
        assert_eq!(XmtConfig::xmt_8k().dram_channels(), 32);
        assert_eq!(XmtConfig::xmt_64k().dram_channels(), 256);
        assert_eq!(XmtConfig::xmt_128k_x2().dram_channels(), 1024);
        assert_eq!(XmtConfig::xmt_128k_x4().dram_channels(), 4096);
    }

    #[test]
    fn off_chip_bandwidth_matches_section_v() {
        // Section V-B: 32 channels need 6.76 Tb/s → 845 GB/s.
        let gbs = XmtConfig::xmt_8k().peak_dram_gbs();
        assert!((gbs - 845.0).abs() < 1.0, "8k off-chip {gbs} GB/s");
    }

    #[test]
    fn peak_gflops_sane() {
        // 4k: 128 FPUs at 3.3 GHz = 422.4 GFLOPS.
        assert!((XmtConfig::xmt_4k().peak_gflops() - 422.4).abs() < 0.1);
        // 128k x4: 16384 FPUs = 54.1 TFLOPS (Table VI: 54).
        let tf = XmtConfig::xmt_128k_x4().peak_gflops() / 1000.0;
        assert!((tf - 54.1).abs() < 0.1, "x4 peak {tf} TFLOPS");
    }

    #[test]
    fn table6_cache_total() {
        // Table VI: 128 MB total cache for the 128k x4 configuration.
        let mib = XmtConfig::xmt_128k_x4().total_cache_mib();
        assert!((mib - 128.0).abs() < 1.0, "cache {mib} MiB");
    }

    #[test]
    fn topology_round_trips() {
        let t = XmtConfig::xmt_64k().topology();
        assert_eq!(t.mot_levels, 8);
        assert_eq!(t.butterfly_levels, 7);
        assert!(XmtConfig::xmt_8k().topology().is_nonblocking());
    }

    #[test]
    fn scaling_preserves_ratios() {
        let s = XmtConfig::xmt_64k().scaled_to(16);
        assert_eq!(s.clusters, 16);
        assert_eq!(s.memory_modules, 16);
        assert_eq!(s.tcus, 512);
        assert_eq!(s.fpus_per_cluster, 1);
        assert!(s.butterfly_levels > 0, "keeps blocking character");
        let t = s.topology();
        assert_eq!(t.mot_levels + t.butterfly_levels, 8);
    }
}
