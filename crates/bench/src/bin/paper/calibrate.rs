//! Cycle-simulator vs analytic-model calibration.
//!
//! Runs the real XMT FFT program on the cycle simulator at a reduced
//! machine/problem scale and compares the measured cycle count with
//! the bottleneck model's prediction for the *same* scaled
//! configuration — the evidence that the 512³ projections rest on a
//! validated model (the methodology of DESIGN.md §7).

use xmt_bench::{run_plan_validated, sample_wave};
use xmt_fft::plan::XmtFftPlan;
use xmt_fft::project;
use xmt_sim::XmtConfig;

/// One calibration point.
#[derive(Debug, Clone)]
pub struct Calibration {
    pub config_name: &'static str,
    pub clusters: usize,
    pub dims: Vec<usize>,
    /// Cycle-simulator measurement.
    pub measured_cycles: u64,
    /// Analytic model prediction for the same scaled machine.
    pub modeled_cycles: f64,
    /// measured / modeled.
    pub ratio: f64,
}

/// Run one calibration: `base` scaled to `clusters`, FFT of `dims`.
pub fn calibrate(base: &XmtConfig, clusters: usize, dims: &[usize]) -> Calibration {
    let cfg = base.scaled_to(clusters);
    let copies = xmt_fft::default_copies(*dims.last().expect("non-empty dims"), cfg.memory_modules);
    let plan = XmtFftPlan::build(dims, copies);
    let input = sample_wave(dims.iter().product(), 0.17, 0.31);
    let run = run_plan_validated(&plan, &cfg, &input, "calibration");

    let measured_cycles = run.report.stats.cycles;
    let modeled_cycles = project(&cfg, dims).total_cycles;
    Calibration {
        config_name: base.name,
        clusters,
        dims: dims.to_vec(),
        measured_cycles,
        modeled_cycles,
        ratio: measured_cycles as f64 / modeled_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_calibration_within_factor_three() {
        // A small 2D job on a scaled 4k machine: the analytic model
        // must land within a small constant factor of the simulator
        // (latency effects dominate at tiny scale, so the band is
        // loose here; `table4` runs larger, tighter points).
        let c = calibrate(&XmtConfig::xmt_4k(), 4, &[32, 32]);
        assert!(c.measured_cycles > 0);
        assert!(
            c.ratio > 0.3 && c.ratio < 3.5,
            "measured {} vs modeled {:.0} (ratio {:.2})",
            c.measured_cycles,
            c.modeled_cycles,
            c.ratio
        );
    }
}
