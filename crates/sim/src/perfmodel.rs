//! Analytic (bottleneck) performance model.
//!
//! The cycle simulator is exact but cannot run 512³ inputs on 131,072
//! TCUs in reasonable time, so paper-scale projections use this model:
//! each phase (one spawn) is characterized by its compute, interconnect
//! and DRAM demands, and its duration is the maximum of the three
//! service times plus a startup latency — precisely the Roofline
//! argument of Section VI-B with the interconnect added as a third
//! ceiling (the paper's observations (b) and (c)).
//!
//! Per-resource efficiency factors account for the gap between ideal
//! service rates and what the cycle simulator actually sustains
//! (arbitration, queue turbulence, imperfect overlap). They are
//! calibrated by `xmt-fft`'s model-vs-simulator tests and recorded in
//! EXPERIMENTS.md.

use crate::config::XmtConfig;
use xmt_noc::{effective_throughput, TrafficClass};

/// Fraction of ideal FPU issue bandwidth sustained in practice.
pub const COMPUTE_EFFICIENCY: f64 = 0.90;
/// Fraction of ideal DRAM bandwidth sustained (bank conflicts, refresh,
/// read/write turnaround).
pub const DRAM_EFFICIENCY: f64 = 0.80;
/// Fraction of the NoC's saturation throughput sustained by real
/// (bursty) phase traffic.
pub const ICN_EFFICIENCY: f64 = 0.90;

/// Resource demands of one phase (one parallel section).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDemand {
    /// Label for reports ("stage 3", "rotation", …).
    pub name: String,
    /// Actual floating-point operations.
    pub flops: f64,
    /// Words moved cluster→memory (stores).
    pub icn_words_up: f64,
    /// Words moved memory→cluster (loads, twiddles).
    pub icn_words_down: f64,
    /// Bytes that must cross the DRAM pins.
    pub dram_bytes: f64,
    /// Traffic structure seen by the blocking NoC levels.
    pub traffic: TrafficClass,
    /// Virtual threads available (limits usable TCUs).
    pub parallelism: f64,
}

/// Which resource bound a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// FPU issue bandwidth.
    Compute,
    /// Interconnect word throughput.
    Icn,
    /// Off-chip DRAM bandwidth.
    Dram,
    /// Too little parallelism / dominated by startup latency.
    Latency,
}

/// Modeled execution time of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTime {
    /// Human-readable name.
    pub name: String,
    /// Cycle count.
    pub cycles: f64,
    /// The `bound` value.
    pub bound: Bottleneck,
    /// The three component times (cycles), for reporting.
    pub compute_cycles: f64,
    /// The `icn_cycles` value.
    pub icn_cycles: f64,
    /// The `dram_cycles` value.
    pub dram_cycles: f64,
}

/// The DRAM ceiling's rate: bytes per cycle the machine's channels
/// sustain, derated by [`DRAM_EFFICIENCY`].
pub fn dram_bytes_per_cycle(cfg: &XmtConfig) -> f64 {
    cfg.dram_channels() as f64 * cfg.dram.bytes_per_cycle * DRAM_EFFICIENCY
}

/// A phase's fixed startup: the spawn broadcast plus one full memory
/// round trip (both NoC directions and a DRAM access).
pub fn startup_cycles(cfg: &XmtConfig) -> f64 {
    (cfg.clusters as f64).log2().ceil()
        + 2.0 * cfg.topology().latency_cycles() as f64
        + cfg.dram.access_latency as f64
}

/// Model one phase on one configuration.
pub fn phase_time(cfg: &XmtConfig, d: &PhaseDemand) -> PhaseTime {
    let topo = cfg.topology();

    // Compute ceiling: FPUs issue one FLOP per cycle each, but only as
    // many TCUs as there are threads can feed them.
    let usable_clusters = (d.parallelism / cfg.tcus_per_cluster as f64)
        .min(cfg.clusters as f64)
        .max(1.0);
    let fpu_rate = usable_clusters * cfg.fpus_per_cluster as f64 * COMPUTE_EFFICIENCY;
    let compute_cycles = d.flops / fpu_rate;

    // Interconnect ceiling: each direction independently sustains
    // clusters × effective-throughput words per cycle.
    let icn_rate = usable_clusters * effective_throughput(&topo, d.traffic) * ICN_EFFICIENCY;
    let icn_cycles = (d.icn_words_up.max(d.icn_words_down)) / icn_rate;

    let dram_cycles = d.dram_bytes / dram_bytes_per_cycle(cfg);
    let startup = startup_cycles(cfg);

    let body = compute_cycles.max(icn_cycles).max(dram_cycles);
    let bound = if startup > body {
        Bottleneck::Latency
    } else if body == compute_cycles {
        Bottleneck::Compute
    } else if body == icn_cycles {
        Bottleneck::Icn
    } else {
        Bottleneck::Dram
    };
    PhaseTime {
        name: d.name.clone(),
        cycles: body + startup,
        bound,
        compute_cycles,
        icn_cycles,
        dram_cycles,
    }
}

/// Model a sequence of phases; returns per-phase times and the total.
pub fn run_phases(cfg: &XmtConfig, demands: &[PhaseDemand]) -> (Vec<PhaseTime>, f64) {
    let times: Vec<PhaseTime> = demands.iter().map(|d| phase_time(cfg, d)).collect();
    let total = times.iter().map(|t| t.cycles).sum();
    (times, total)
}

/// GFLOPS achieved by `flops` (any convention) over `cycles` at
/// [`XmtConfig::CLOCK_GHZ`].
pub fn gflops(flops: f64, cycles: f64) -> f64 {
    if cycles <= 0.0 {
        return 0.0;
    }
    flops * XmtConfig::CLOCK_GHZ / cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XmtConfig;

    fn demand(flops: f64, up: f64, down: f64, dram: f64) -> PhaseDemand {
        PhaseDemand {
            name: "t".into(),
            flops,
            icn_words_up: up,
            icn_words_down: down,
            dram_bytes: dram,
            traffic: TrafficClass::Hashed,
            parallelism: 1e9,
        }
    }

    #[test]
    fn dram_bound_phase_on_4k() {
        // The 4k config is bandwidth-bound for FFT-like intensity
        // (paper observation (a)).
        let cfg = XmtConfig::xmt_4k();
        let n = 1e8;
        let t = phase_time(&cfg, &demand(12.75 * n, 2.0 * n, 3.75 * n, 16.0 * n));
        assert_eq!(t.bound, Bottleneck::Dram);
    }

    #[test]
    fn icn_bound_phase_on_128k_x4() {
        // The x4 config has DRAM to spare; the ICN binds (observation (c)).
        let cfg = XmtConfig::xmt_128k_x4();
        let n = 1e8;
        let t = phase_time(&cfg, &demand(12.75 * n, 2.0 * n, 3.75 * n, 16.0 * n));
        assert_eq!(t.bound, Bottleneck::Icn);
    }

    #[test]
    fn compute_bound_when_intensity_high() {
        let cfg = XmtConfig::xmt_4k();
        let n = 1e7;
        let t = phase_time(&cfg, &demand(1000.0 * n, 0.1 * n, 0.1 * n, 0.1 * n));
        assert_eq!(t.bound, Bottleneck::Compute);
    }

    #[test]
    fn latency_bound_for_tiny_work() {
        let cfg = XmtConfig::xmt_64k();
        let t = phase_time(&cfg, &demand(10.0, 10.0, 10.0, 10.0));
        assert_eq!(t.bound, Bottleneck::Latency);
    }

    #[test]
    fn limited_parallelism_raises_compute_time() {
        let cfg = XmtConfig::xmt_4k();
        let mut d = demand(1e8, 0.0, 0.0, 0.0);
        let full = phase_time(&cfg, &d).cycles;
        d.parallelism = 32.0; // one cluster's worth of threads
        let limited = phase_time(&cfg, &d).cycles;
        assert!(limited > 50.0 * full, "full {full} vs limited {limited}");
    }

    #[test]
    fn phases_sum() {
        let cfg = XmtConfig::xmt_8k();
        let d = vec![demand(1e6, 1e6, 1e6, 1e6), demand(2e6, 2e6, 2e6, 2e6)];
        let (times, total) = run_phases(&cfg, &d);
        assert_eq!(times.len(), 2);
        assert!((times[0].cycles + times[1].cycles - total).abs() < 1e-6);
    }

    #[test]
    fn gflops_at_clock() {
        // 3.3e9 flops in 1e9 cycles at 3.3 GHz = 10.89 GFLOPS.
        assert!((gflops(3.3e9, 1e9) - 10.89).abs() < 1e-9);
    }
}
