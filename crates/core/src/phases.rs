//! FFT workload model: per-phase resource demands for the analytic
//! projection of paper-scale runs (Table IV, Table V, Fig. 3).
//!
//! [`project`] reads each phase's flops, loads (NoC words down), stores
//! (words up) and thread count from the static traffic analyzer
//! ([`analyze`]) run over the transform's generated [`XmtFftPlan`].
//! Rotation stages present the structured burst pattern
//! ([`TrafficClass::Rotation`]); the others are hash-spread.
//!
//! DRAM bytes are the model's own rule, since past 2^17 threads the
//! analyzer bounds them only by an interval: when both ping-pong arrays
//! exceed the aggregate cache, every phase streams 24 B/element (8 B
//! read, write-allocate fill and write-back), which lies inside that
//! interval; otherwise only the first phase pays, 8 B/element, which
//! misses the fill of the destination array and so sits below the
//! analyzer's lower bound.

use crate::plan::{default_copies, XmtFftPlan};
use crate::traffic::traffic_params;
use parafft::flops::fft_flops_convention_nd;
use xmt_noc::TrafficClass;
use xmt_sim::perfmodel::{gflops, PhaseDemand, PhaseTime};
use xmt_sim::XmtConfig;
use xmt_verify::traffic::{analyze, PhaseTraffic};

/// The FFT program for `dims` with the paper's twiddle replication on
/// `cfg`, and the analyzer's traffic for it, one phase per stage.
fn program_traffic(cfg: &XmtConfig, dims: &[usize]) -> (XmtFftPlan, Vec<PhaseTraffic>) {
    let n = *dims.last().expect("at least one dimension");
    let plan = XmtFftPlan::build(dims, default_copies(n, cfg.memory_modules));
    let report = analyze(plan.program.instrs(), &traffic_params(cfg))
        .expect("a generated FFT program is well-formed");
    assert_eq!(report.phases.len(), plan.stages.len());
    (plan, report.phases)
}

/// Aggregated projection of one configuration on one transform shape.
#[derive(Debug, Clone)]
pub struct FftProjection {
    /// The `config_name` value.
    pub config_name: &'static str,
    /// The `dims` value.
    pub dims: Vec<usize>,
    /// The `total_cycles` value.
    pub total_cycles: f64,
    /// GFLOPS under the paper's 5N·log₂N reporting convention.
    pub gflops_convention: f64,
    /// GFLOPS counting actual operations (the Roofline convention).
    pub gflops_actual: f64,
    /// The `phases` value.
    pub phases: Vec<PhaseTime>,
    /// The `demands` value.
    pub demands: Vec<PhaseDemand>,
}

/// One aggregated Roofline point (Fig. 3 marker).
#[derive(Debug, Clone, Copy)]
pub struct RooflinePoint {
    /// Operational intensity in actual FLOPs per DRAM byte.
    pub intensity: f64,
    /// Achieved GFLOPS (actual-FLOP convention).
    pub gflops: f64,
}

impl FftProjection {
    /// The Roofline point of the phases `keep` selects.
    fn aggregate(&self, keep: impl Fn(&PhaseDemand) -> bool) -> RooflinePoint {
        let mut flops = 0.0;
        let mut bytes = 0.0;
        let mut cycles = 0.0;
        for (d, t) in self.demands.iter().zip(&self.phases) {
            if keep(d) {
                flops += d.flops;
                bytes += d.dram_bytes;
                cycles += t.cycles;
            }
        }
        RooflinePoint {
            intensity: if bytes > 0.0 {
                flops / bytes
            } else {
                f64::INFINITY
            },
            gflops: gflops(flops, cycles),
        }
    }

    /// The Fig. 3 rotation-phase marker.
    pub fn rotation_point(&self) -> RooflinePoint {
        self.aggregate(|d| d.name.contains("rotation"))
    }

    /// The Fig. 3 non-rotation marker.
    pub fn non_rotation_point(&self) -> RooflinePoint {
        self.aggregate(|d| !d.name.contains("rotation"))
    }

    /// The Fig. 3 overall marker.
    pub fn overall_point(&self) -> RooflinePoint {
        self.aggregate(|_| true)
    }

    /// Fraction of total cycles spent in rotation phases.
    pub fn rotation_share(&self) -> f64 {
        let rot: f64 = self
            .demands
            .iter()
            .zip(&self.phases)
            .filter(|(d, _)| d.name.contains("rotation"))
            .map(|(_, t)| t.cycles)
            .sum();
        rot / self.total_cycles
    }
}

/// Project a transform of `dims` on `cfg`.
pub fn project(cfg: &XmtConfig, dims: &[usize]) -> FftProjection {
    let (plan, traffic) = program_traffic(cfg, dims);
    let n_elems = plan.total as f64;
    let cache_bytes = (cfg.memory_modules * cfg.cache.lines * cfg.cache.line_words * 4) as f64;
    // Ping-pong arrays: both src and dst compete for cache.
    let streams = 2.0 * 8.0 * n_elems > cache_bytes;
    let demands: Vec<PhaseDemand> = plan
        .stages
        .iter()
        .zip(&traffic)
        .map(|(st, p)| {
            let point = |(lo, hi): (u64, u64)| {
                assert_eq!(lo, hi, "phase {}: an FFT stage's counts are exact", p.index);
                lo as f64
            };
            let label = format!("dim{} stage{}", st.dim, st.idx);
            PhaseDemand {
                name: if st.is_rotation {
                    format!("{label} (rotation)")
                } else {
                    label
                },
                flops: point(p.flops),
                icn_words_up: point(p.writes),
                icn_words_down: point(p.reads),
                dram_bytes: if streams {
                    24.0 * n_elems
                } else if p.index == 0 {
                    8.0 * n_elems
                } else {
                    0.0
                },
                traffic: if st.is_rotation {
                    TrafficClass::Rotation
                } else {
                    TrafficClass::Hashed
                },
                parallelism: p.threads.expect("an FFT stage's thread count is static") as f64,
            }
        })
        .collect();
    let (phases, total_cycles) = xmt_sim::run_phases(cfg, &demands);
    let conv = fft_flops_convention_nd(&dims.iter().map(|&d| d as u64).collect::<Vec<_>>());
    let actual: f64 = demands.iter().map(|d| d.flops).sum();
    FftProjection {
        config_name: cfg.name,
        dims: dims.to_vec(),
        gflops_convention: gflops(conv, total_cycles),
        gflops_actual: gflops(actual, total_cycles),
        total_cycles,
        phases,
        demands,
    }
}

/// The paper's Table IV experiment: single-precision complex 3D FFT of
/// 512×512×512 on each configuration.
pub fn table4_projection() -> Vec<FftProjection> {
    XmtConfig::paper_configs()
        .iter()
        .map(|cfg| project(cfg, &[512, 512, 512]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_sim::{gflops_per_watt, phase_energy, summarize, Bottleneck};

    /// Paper Table IV: GFLOPS per configuration.
    const PAPER_GFLOPS: [f64; 5] = [239.0, 500.0, 3667.0, 12570.0, 18972.0];

    #[test]
    fn stage_demand_counts() {
        let d = project(&XmtConfig::xmt_4k(), &[512, 512, 512]).demands;
        assert_eq!(d.len(), 9, "three radix-8 stages per dimension");
        let rotations = d.iter().filter(|x| x.name.contains("rotation")).count();
        assert_eq!(rotations, 3);
        // 512³ streams on every configuration (1 GiB working set).
        assert!(d.iter().all(|x| x.dram_bytes > 0.0));
        // Twiddled stages carry extra download words.
        assert!(d[0].icn_words_down > d[0].icn_words_up);
        // Rotation stages skip twiddles.
        let rot = d.iter().find(|x| x.name.contains("rotation")).unwrap();
        assert_eq!(rot.icn_words_down, rot.icn_words_up);
    }

    #[test]
    fn the_program_gives_point_counts_and_the_dram_rule_lies_inside_its_interval() {
        let cases = XmtConfig::paper_configs()
            .into_iter()
            .map(|cfg| (cfg, [512; 3]))
            .chain([(XmtConfig::xmt_64k(), [1024; 3])]);
        for (cfg, dims) in cases {
            let (_, traffic) = program_traffic(&cfg, &dims);
            let demands = project(&cfg, &dims).demands;
            assert_eq!(traffic.len(), demands.len());
            for (p, d) in traffic.iter().zip(&demands) {
                let at = format!("{} {dims:?} {}", cfg.name, d.name);
                for (what, (lo, hi)) in
                    [("flops", p.flops), ("reads", p.reads), ("writes", p.writes)]
                {
                    assert_eq!(lo, hi, "{at}: {what} is an interval");
                }
                assert!(p.threads.is_some(), "{at}: thread count unknown");
                let (lo, hi) = p.dram_bytes;
                assert!(
                    (lo as f64..=hi as f64).contains(&d.dram_bytes),
                    "{at}: modelled {} B outside [{lo}, {hi}]",
                    d.dram_bytes
                );
            }
        }
    }

    #[test]
    fn energy_power_consistency_with_physical_model() {
        // Average power implied by the 512³ FFT's energy and duration
        // must not exceed the machine's modeled peak power.
        for cfg in XmtConfig::paper_configs() {
            let p = project(&cfg, &[512; 3]);
            let e = phase_energy(&cfg, &p.demands);
            let seconds = p.total_cycles / (XmtConfig::CLOCK_GHZ * 1e9);
            let avg_w = e.total_j() / seconds;
            let peak_w = summarize(&cfg).peak_power_w;
            assert!(
                avg_w < peak_w * 1.1,
                "{}: avg {avg_w:.0} W exceeds peak {peak_w:.0} W",
                cfg.name
            );
        }
    }

    #[test]
    fn efficiency_improves_with_photonics() {
        let efficiency = |cfg: &XmtConfig| {
            let p = project(cfg, &[512; 3]);
            let e = phase_energy(cfg, &p.demands);
            let flops: f64 = p.demands.iter().map(|d| d.flops).sum();
            gflops_per_watt(flops, &e, p.total_cycles)
        };
        let eff4 = efficiency(&XmtConfig::xmt_4k());
        let effx = efficiency(&XmtConfig::xmt_128k_x4());
        assert!(
            effx > eff4,
            "photonic 14 nm config must be more efficient: {effx:.1} vs {eff4:.1} GF/W"
        );
    }

    #[test]
    fn table4_shape_holds() {
        let proj = table4_projection();
        let g: Vec<f64> = proj.iter().map(|p| p.gflops_convention).collect();
        // Monotone increase across configurations.
        for w in g.windows(2) {
            assert!(w[1] > w[0], "GFLOPS must grow: {g:?}");
        }
        // 4k→8k doubles (both DRAM-bound, bandwidth doubles).
        let r1 = g[1] / g[0];
        assert!((1.8..=2.2).contains(&r1), "8k/4k = {r1}");
        // 8k→64k: large jump (paper 7.3×).
        let r2 = g[2] / g[1];
        assert!((6.0..=9.0).contains(&r2), "64k/8k = {r2}");
        // 64k→128k x2 (paper 3.4×).
        let r3 = g[3] / g[2];
        assert!((2.0..=4.0).contains(&r3), "x2/64k = {r3}");
        // x2→x4: diminishing return, well under 2× (paper 1.51×).
        let r4 = g[4] / g[3];
        assert!((1.15..=1.7).contains(&r4), "x4/x2 = {r4}");
    }

    #[test]
    fn table4_absolute_within_tolerance() {
        // Absolute values are not expected to match the paper exactly
        // (our substrate differs) but must land in the same regime.
        let proj = table4_projection();
        for (p, paper) in proj.iter().zip(PAPER_GFLOPS) {
            let ratio = p.gflops_convention / paper;
            assert!(
                (0.55..=1.6).contains(&ratio),
                "{}: model {:.0} vs paper {paper} (ratio {ratio:.2})",
                p.config_name,
                p.gflops_convention
            );
        }
    }

    #[test]
    fn observation_a_small_configs_bandwidth_bound() {
        // Fig. 3 observation (a): on 4k and 8k both phases sit on the
        // bandwidth slope — every stage is DRAM-bound.
        for cfg in [XmtConfig::xmt_4k(), XmtConfig::xmt_8k()] {
            let p = project(&cfg, &[512, 512, 512]);
            for t in &p.phases {
                assert_eq!(t.bound, Bottleneck::Dram, "{} {}", cfg.name, t.name);
            }
        }
    }

    #[test]
    fn observation_b_rotation_falls_below_slope() {
        // 64k: rotation begins to fall below the slope (ICN-bound,
        // marginally); 128k x2: more pronounced.
        let p64 = project(&XmtConfig::xmt_64k(), &[512, 512, 512]);
        let rot64: Vec<&xmt_sim::PhaseTime> = p64
            .phases
            .iter()
            .filter(|t| t.name.contains("rotation"))
            .collect();
        for t in &rot64 {
            assert_eq!(t.bound, Bottleneck::Icn, "64k rotation must be ICN-bound");
            let gap = t.icn_cycles / t.dram_cycles;
            assert!((1.0..1.5).contains(&gap), "64k gap should be mild: {gap}");
        }
        let px2 = project(&XmtConfig::xmt_128k_x2(), &[512, 512, 512]);
        let rot_x2 = px2
            .phases
            .iter()
            .find(|t| t.name.contains("rotation"))
            .unwrap();
        let gap_x2 = rot_x2.icn_cycles / rot_x2.dram_cycles;
        let gap_64 = rot64[0].icn_cycles / rot64[0].dram_cycles;
        assert!(
            gap_x2 > gap_64 * 1.5,
            "x2 gap {gap_x2} must exceed 64k gap {gap_64}"
        );
    }

    #[test]
    fn observation_c_x4_icn_bound() {
        // 128k x4: even non-rotation stages are ICN-bound; extra DRAM
        // bandwidth no longer helps much.
        let p = project(&XmtConfig::xmt_128k_x4(), &[512, 512, 512]);
        let non_rot = p
            .phases
            .iter()
            .find(|t| !t.name.contains("rotation"))
            .unwrap();
        assert_eq!(non_rot.bound, Bottleneck::Icn);
    }

    #[test]
    fn roofline_points_ordering() {
        // Rotation has lower operational intensity than non-rotation
        // (pure data movement), and overall sits between them.
        let p = project(&XmtConfig::xmt_8k(), &[512, 512, 512]);
        let r = p.rotation_point();
        let nr = p.non_rotation_point();
        let o = p.overall_point();
        assert!(r.intensity < nr.intensity);
        assert!(o.intensity > r.intensity && o.intensity < nr.intensity);
        assert!(o.gflops > r.gflops.min(nr.gflops) && o.gflops < r.gflops.max(nr.gflops));
    }

    #[test]
    fn small_transform_fits_in_cache() {
        let d = project(&XmtConfig::xmt_64k(), &[64, 64]).demands;
        // Only the very first stage pays DRAM traffic.
        assert!(d[0].dram_bytes > 0.0);
        assert!(d[1..].iter().all(|x| x.dram_bytes == 0.0));
    }
}
