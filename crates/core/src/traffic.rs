//! Bridge from the simulator's [`XmtConfig`] architecture description
//! to the static traffic analyzer's machine parameters.
//!
//! `xmt-verify` deliberately depends on `xmt-isa` alone, so its
//! [`TrafficParams`] is a plain bag of numbers; this module is where
//! those numbers come from — the analytic performance model's
//! (`xmt_sim::perfmodel`) own rate functions and derating constants
//! and the cycle simulator's cache geometry, so static predictions and
//! `IntervalProbe` measurements are comparable on the same machine.

use xmt_noc::{effective_throughput, TrafficClass};
use xmt_sim::perfmodel::{
    dram_bytes_per_cycle, startup_cycles, COMPUTE_EFFICIENCY, ICN_EFFICIENCY,
};
use xmt_sim::XmtConfig;
use xmt_verify::traffic::TrafficParams;

/// Build the static analyzer's machine parameters for `cfg`, assuming
/// hashed (address-interleaved) NoC traffic — the class every memory
/// access stream on this machine falls into, since lines are striped
/// across modules by address.
pub fn traffic_params(cfg: &XmtConfig) -> TrafficParams {
    TrafficParams {
        line_words: cfg.cache.line_words as u64,
        cache_lines: (cfg.cache.lines * cfg.memory_modules) as u64,
        clusters: cfg.clusters as u64,
        tcus_per_cluster: cfg.tcus_per_cluster as u64,
        fpus_per_cluster: cfg.fpus_per_cluster as u64,
        lsus_per_cluster: cfg.lsus_per_cluster as u64,
        icn_words_per_cluster: effective_throughput(&cfg.topology(), TrafficClass::Hashed)
            * ICN_EFFICIENCY,
        dram_bytes_per_cycle: dram_bytes_per_cycle(cfg),
        startup_cycles: startup_cycles(cfg),
        compute_efficiency: COMPUTE_EFFICIENCY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_config_params_match_the_perf_model_constants() {
        let p = traffic_params(&crate::golden::golden_config());
        assert_eq!(p.line_words, 8);
        assert_eq!(p.clusters, 4);
        assert_eq!(p.tcus_per_cluster, 32);
        assert_eq!(p.fpus_per_cluster, 1);
        // 1 channel × 8 B/cyc × 0.8.
        assert!((p.dram_bytes_per_cycle - 6.4).abs() < 1e-9);
        // Pure MoT sustains full per-port bandwidth.
        assert!((p.icn_words_per_cluster - 0.9).abs() < 1e-9);
        // Ridge = 4 × 1 × 0.9 / 6.4.
        assert!((p.ridge_intensity() - 0.5625).abs() < 1e-9);
    }

    #[test]
    fn paper_scale_ridge_is_stable_across_configs() {
        // 4k: 128 FPUs, 16 channels; 8k: 256 FPUs, 32 channels — the
        // flop:byte ridge is the same 1.125 on both (Table II scales
        // compute and DRAM together).
        for cfg in [XmtConfig::xmt_4k(), XmtConfig::xmt_8k()] {
            let p = traffic_params(&cfg);
            assert!(
                (p.ridge_intensity() - 1.125).abs() < 1e-9,
                "{}: {}",
                cfg.name,
                p.ridge_intensity()
            );
        }
    }
}
