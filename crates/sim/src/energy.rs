//! Activity-based energy model.
//!
//! The paper's argument is ultimately about the *energy cost of data
//! movement* ("assuming that it is possible to reduce the energy cost
//! of data movement…", Section I). This module prices each activity
//! the simulator (or the phase model) counts — FLOPs, interconnect
//! word-hops, cache accesses, DRAM bytes, off-chip I/O bits — with
//! 22 nm-era per-event energies from the architecture literature, and
//! produces per-run energy breakdowns: joules per transform and
//! GFLOPS/W, comparable with the machine-level power model in
//! [`crate::physical`].

use crate::config::XmtConfig;
use crate::perfmodel::PhaseDemand;

/// Per-event energies in picojoules (22 nm class; scaled by the
/// config's technology node like logic power).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// One single-precision floating-point operation.
    pub pj_per_flop: f64,
    /// One integer/control instruction.
    pub pj_per_int_op: f64,
    /// Moving one 32-bit word across one NoC level.
    pub pj_per_hop_word: f64,
    /// One cache-bank access (32-bit word).
    pub pj_per_cache_access: f64,
    /// One byte moved across the DRAM interface (array access cost).
    pub pj_per_dram_byte: f64,
    /// Off-chip signalling energy per bit (config-dependent: copper
    /// serial vs photonics; see `crate::physical::io_pj_per_bit`).
    pub pj_per_io_bit: f64,
}

impl EnergyModel {
    /// Literature-calibrated defaults for a 22 nm node: ~10 pJ per SP
    /// FLOP, ~1 pJ per int op, ~0.6 pJ per word-hop, ~8 pJ per cache
    /// access, ~10 pJ/B DRAM array + the configuration's I/O energy.
    pub fn for_config(cfg: &XmtConfig) -> Self {
        let scale = match cfg.tech_nm {
            22 => 1.0,
            14 => 0.54,
            _ => 1.0,
        };
        let io = match cfg.name {
            "128k x2" => 0.6, // WDM photonics
            "128k x4" => 3.0, // fast MFC-cooled photonics
            _ => 15.0,        // copper / electrical serial
        };
        Self {
            pj_per_flop: 10.0 * scale,
            pj_per_int_op: 1.0 * scale,
            pj_per_hop_word: 0.6 * scale,
            pj_per_cache_access: 8.0 * scale,
            pj_per_dram_byte: 10.0,
            pj_per_io_bit: io,
        }
    }
}

/// Energy breakdown of one run or one modeled transform, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Floating-point compute.
    pub compute_j: f64,
    /// Integer/control instructions.
    pub control_j: f64,
    /// On-chip interconnect traversal.
    pub noc_j: f64,
    /// Cache-bank accesses.
    pub cache_j: f64,
    /// DRAM array + off-chip signalling.
    pub dram_j: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.control_j + self.noc_j + self.cache_j + self.dram_j
    }

    /// Fraction of energy spent moving data (NoC + cache + DRAM), the
    /// quantity the enabling technologies attack.
    pub fn data_movement_fraction(&self) -> f64 {
        let dm = self.noc_j + self.cache_j + self.dram_j;
        dm / self.total_j().max(f64::MIN_POSITIVE)
    }
}

/// Price the phase demands of a modeled transform on `cfg`.
pub fn phase_energy(cfg: &XmtConfig, demands: &[PhaseDemand]) -> EnergyBreakdown {
    let m = EnergyModel::for_config(cfg);
    let levels = cfg.topology().latency_cycles() as f64;
    let mut out = EnergyBreakdown::default();
    for d in demands {
        let words = d.icn_words_up + d.icn_words_down;
        out.compute_j += d.flops * m.pj_per_flop * 1e-12;
        // ~2 int ops (addressing/control) per word moved.
        out.control_j += 2.0 * words * m.pj_per_int_op * 1e-12;
        out.noc_j += words * levels * m.pj_per_hop_word * 1e-12;
        out.cache_j += words * m.pj_per_cache_access * 1e-12;
        out.dram_j += d.dram_bytes * (m.pj_per_dram_byte + 8.0 * m.pj_per_io_bit) * 1e-12;
    }
    out
}

/// Energy efficiency in GFLOPS per watt given a flop count, energy and
/// elapsed cycles at [`XmtConfig::CLOCK_GHZ`].
pub fn gflops_per_watt(flops: f64, energy: &EnergyBreakdown, cycles: f64) -> f64 {
    let seconds = cycles / (XmtConfig::CLOCK_GHZ * 1e9);
    let watts = energy.total_j() / seconds;
    (flops / seconds / 1e9) / watts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XmtConfig;
    use crate::perfmodel::PhaseDemand;
    use xmt_noc::TrafficClass;

    fn demand(flops: f64, words: f64, dram: f64) -> PhaseDemand {
        PhaseDemand {
            name: "t".into(),
            flops,
            icn_words_up: words / 2.0,
            icn_words_down: words / 2.0,
            dram_bytes: dram,
            traffic: TrafficClass::Hashed,
            parallelism: 1e9,
        }
    }

    #[test]
    fn data_movement_dominates_fft_energy() {
        // An FFT-like phase (low intensity) spends most energy moving
        // data — the paper's premise.
        let cfg = XmtConfig::xmt_4k();
        let e = phase_energy(&cfg, &[demand(12.75e9, 5.75e9, 24e9)]);
        assert!(
            e.data_movement_fraction() > 0.5,
            "{}",
            e.data_movement_fraction()
        );
    }

    #[test]
    fn compute_dominates_high_intensity_kernels() {
        let cfg = XmtConfig::xmt_4k();
        let e = phase_energy(&cfg, &[demand(1e12, 1e6, 1e6)]);
        assert!(e.data_movement_fraction() < 0.1);
    }

    #[test]
    fn photonics_cuts_offchip_energy() {
        // Same demands, different I/O technology: the photonic configs
        // pay far less per DRAM byte.
        let d = vec![demand(1e9, 1e9, 1e10)];
        let copper = phase_energy(&XmtConfig::xmt_64k(), &d);
        let photonic = phase_energy(&XmtConfig::xmt_128k_x2(), &d);
        assert!(
            photonic.dram_j < copper.dram_j / 2.0,
            "photonic {} vs copper {}",
            photonic.dram_j,
            copper.dram_j
        );
    }
}
