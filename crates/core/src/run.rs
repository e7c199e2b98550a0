//! Execute a planned transform on the untimed interpreter or the cycle
//! simulator, and validate against the host reference library.

use crate::plan::XmtFftPlan;
use parafft::Complex32;
use xmt_isa::{ExecError, Interp, RunStats};
use xmt_sim::{MachineBuilder, RunReport, SimConfig, SimError, XmtConfig};

/// Result of running a plan: the transformed data plus engine stats.
#[derive(Debug, Clone)]
pub struct InterpRun {
    /// The `output` value.
    pub output: Vec<Complex32>,
    /// Accumulated statistics.
    pub stats: RunStats,
}

/// Result of running a plan on the cycle simulator.
#[derive(Debug, Clone)]
pub struct MachineRun {
    /// The `output` value.
    pub output: Vec<Complex32>,
    /// Statistics, spawn log and utilization for the run.
    pub report: RunReport,
}

fn unpack(flat: &[f32]) -> Vec<Complex32> {
    flat.chunks(2).map(|p| Complex32::new(p[0], p[1])).collect()
}

/// Run on the untimed interpreter (functional check; fast).
pub fn run_on_interp(plan: &XmtFftPlan, input: &[Complex32]) -> Result<InterpRun, ExecError> {
    let mut m = Interp::new(plan.mem_words);
    m.write_f32s(plan.a_base as usize, &plan.input_image(input));
    for (_, layout, flat) in &plan.twiddles {
        m.write_f32s(layout.base as usize, flat);
    }
    let stats = m.run(&plan.program)?;
    let flat = m.read_f32s(plan.result_base as usize, 2 * plan.total);
    Ok(InterpRun {
        output: unpack(&flat),
        stats,
    })
}

/// A [`MachineBuilder`] for `sim` loaded with the plan's program,
/// twiddle tables and packed input, the memory image grown to the
/// plan's size — attach a probe, then build and run. The single seam
/// through which request values become FFT machines.
pub fn plan_builder_cfg(plan: &XmtFftPlan, sim: &SimConfig, input: &[Complex32]) -> MachineBuilder {
    let mut b = sim
        .builder(plan.program.clone())
        .mem_words(plan.mem_words)
        .write_f32s(plan.a_base as usize, &plan.input_image(input));
    for (_, layout, flat) in &plan.twiddles {
        b = b.write_f32s(layout.base as usize, flat);
    }
    b
}

/// Unpack the transform result from a finished machine's memory.
pub fn read_result<P: xmt_sim::Probe>(
    plan: &XmtFftPlan,
    m: &xmt_sim::Machine<P>,
) -> Vec<Complex32> {
    let mut flat = vec![0.0f32; 2 * plan.total];
    m.read_f32s_into(plan.result_base as usize, &mut flat);
    unpack(&flat)
}

/// Run on the cycle simulator with the given machine configuration.
pub fn run_on_machine(
    plan: &XmtFftPlan,
    cfg: &XmtConfig,
    input: &[Complex32],
) -> Result<MachineRun, SimError> {
    let mut m = plan_builder_cfg(plan, &SimConfig::new(cfg), input).build();
    let report = m.run().into_result()?;
    Ok(MachineRun {
        output: read_result(plan, &m),
        report,
    })
}

/// Host-reference forward transform of the same shape (single
/// precision, matching the XMT kernels).
pub fn host_reference(plan: &XmtFftPlan, input: &[Complex32]) -> Vec<Complex32> {
    let mut data = input.to_vec();
    match plan.dims.len() {
        1 => parafft::Fft::<f32>::new(plan.dims[0], parafft::FftDirection::Forward)
            .process(&mut data),
        2 => parafft::Fft2d::<f32>::new(plan.dims[0], plan.dims[1], parafft::FftDirection::Forward)
            .process(&mut data),
        _ => parafft::Fft3d::<f32>::new(
            (plan.dims[0], plan.dims[1], plan.dims[2]),
            parafft::FftDirection::Forward,
        )
        .process(&mut data),
    }
    data
}

/// Max elementwise error between two complex slices, normalized by the
/// RMS of `a` (single precision).
pub fn rel_error(a: &[Complex32], b: &[Complex32]) -> f64 {
    assert_eq!(a.len(), b.len());
    let err = a
        .iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs() as f64)
        .fold(0.0f64, f64::max);
    let rms = (a.iter().map(|x| x.norm_sqr() as f64).sum::<f64>() / a.len().max(1) as f64).sqrt();
    if rms > 0.0 {
        err / rms
    } else {
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::XmtFftPlan;

    fn sample(n: usize) -> Vec<Complex32> {
        (0..n)
            .map(|i| Complex32::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos() * 0.5 - 0.1))
            .collect()
    }

    #[test]
    fn interp_1d_matches_host_small() {
        for n in [8usize, 16, 64, 512] {
            let plan = XmtFftPlan::new_1d(n, 2);
            let x = sample(n);
            let got = run_on_interp(&plan, &x).unwrap();
            let want = host_reference(&plan, &x);
            let e = rel_error(&want, &got.output);
            assert!(e < 1e-4, "n={n} err={e}");
        }
    }

    #[test]
    fn interp_1d_mixed_radix_tail() {
        for n in [32usize, 128, 1024] {
            let plan = XmtFftPlan::new_1d(n, 2);
            let x = sample(n);
            let got = run_on_interp(&plan, &x).unwrap();
            let want = host_reference(&plan, &x);
            let e = rel_error(&want, &got.output);
            assert!(e < 1e-4, "n={n} err={e}");
        }
    }

    #[test]
    fn interp_2d_matches_host() {
        for (r, c) in [(8usize, 8usize), (16, 64), (64, 16)] {
            let plan = XmtFftPlan::new_2d(r, c, 2);
            let x = sample(r * c);
            let got = run_on_interp(&plan, &x).unwrap();
            let want = host_reference(&plan, &x);
            let e = rel_error(&want, &got.output);
            assert!(e < 1e-4, "{r}x{c} err={e}");
        }
    }

    #[test]
    fn interp_3d_matches_host() {
        for shape in [(8usize, 8usize, 8usize), (8, 16, 32), (16, 16, 16)] {
            let plan = XmtFftPlan::new_3d(shape, 2);
            let x = sample(shape.0 * shape.1 * shape.2);
            let got = run_on_interp(&plan, &x).unwrap();
            let want = host_reference(&plan, &x);
            let e = rel_error(&want, &got.output);
            assert!(e < 1e-4, "{shape:?} err={e}");
        }
    }

    #[test]
    fn replication_count_does_not_change_results() {
        let n = 256;
        let x = sample(n);
        let mut outs = Vec::new();
        for copies in [1u32, 2, 8, 32] {
            let plan = XmtFftPlan::new_1d(n, copies);
            outs.push(run_on_interp(&plan, &x).unwrap().output);
        }
        for o in &outs[1..] {
            assert!(rel_error(&outs[0], o) < 1e-6);
        }
    }

    #[test]
    fn machine_1d_matches_host_and_interp() {
        let n = 512;
        let plan = XmtFftPlan::new_1d(n, 4);
        let x = sample(n);
        let cfg = xmt_sim::XmtConfig::xmt_4k().scaled_to(8);
        let mach = run_on_machine(&plan, &cfg, &x).unwrap();
        let want = host_reference(&plan, &x);
        let e = rel_error(&want, &mach.output);
        assert!(e < 1e-4, "err={e}");
        // Interpreter agrees bit-for-bit with the machine.
        let interp = run_on_interp(&plan, &x).unwrap();
        for (a, b) in interp.output.iter().zip(&mach.output) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        // One spawn per stage was recorded.
        assert_eq!(mach.report.spawns.len(), plan.num_stages());
    }

    #[test]
    fn forced_radix_variants_all_match_host() {
        let n = 64;
        let x = sample(n);
        let want = host_reference(&XmtFftPlan::new_1d(n, 2), &x);
        for radix in [2u32, 4, 8] {
            let plan = XmtFftPlan::build_with(&[n], 2, Some(radix), true);
            let got = run_on_interp(&plan, &x).unwrap();
            let e = rel_error(&want, &got.output);
            assert!(e < 1e-4, "radix {radix}: err {e}");
        }
    }

    #[test]
    fn inverse_plan_roundtrips_through_xmt() {
        // forward then inverse on the XMT engines, scaled by 1/N,
        // recovers the input — the full inverse-transform path.
        for dims in [vec![64usize], vec![16, 16], vec![8, 8, 8]] {
            let total: usize = dims.iter().product();
            let x = sample(total);
            let fwd = XmtFftPlan::build(&dims, 2);
            let inv = XmtFftPlan::build_inverse(&dims, 2);
            let y = run_on_interp(&fwd, &x).unwrap().output;
            let z = run_on_interp(&inv, &y).unwrap().output;
            let scale = 1.0 / total as f32;
            let back: Vec<Complex32> = z.iter().map(|c| c.scale(scale)).collect();
            let e = rel_error(&x, &back);
            assert!(e < 1e-3, "{dims:?}: roundtrip err {e}");
        }
    }

    #[test]
    fn inverse_matches_host_inverse() {
        let n = 512;
        let x = sample(n);
        let plan = XmtFftPlan::build_inverse(&[n], 4);
        let got = run_on_interp(&plan, &x).unwrap().output;
        let mut want = x.clone();
        parafft::Fft::<f32>::new(n, parafft::FftDirection::Inverse).process(&mut want);
        let e = rel_error(&want, &got);
        assert!(e < 1e-4, "err {e}");
    }

    #[test]
    fn unfused_rotation_matches_fused() {
        for dims in [vec![16usize, 32], vec![8, 8, 8]] {
            let x = sample(dims.iter().product());
            let fused = XmtFftPlan::build_with(&dims, 2, None, true);
            let unfused = XmtFftPlan::build_with(&dims, 2, None, false);
            let a = run_on_interp(&fused, &x).unwrap().output;
            let b = run_on_interp(&unfused, &x).unwrap().output;
            assert!(rel_error(&a, &b) < 1e-6, "{dims:?}");
            // And the unfused plan did strictly more memory traffic.
            let fa = run_on_interp(&fused, &x).unwrap().stats;
            let fb = run_on_interp(&unfused, &x).unwrap().stats;
            assert!(fb.mem_reads > fa.mem_reads);
            assert!(fb.mem_writes > fa.mem_writes);
        }
    }

    #[test]
    fn machine_3d_matches_host() {
        let shape = (8usize, 8usize, 8usize);
        let plan = XmtFftPlan::new_3d(shape, 2);
        let x = sample(512);
        let cfg = xmt_sim::XmtConfig::xmt_4k().scaled_to(4);
        let mach = run_on_machine(&plan, &cfg, &x).unwrap();
        let want = host_reference(&plan, &x);
        let e = rel_error(&want, &mach.output);
        assert!(e < 1e-4, "err={e}");
        // Rotation stages are flagged in the metadata and have fewer
        // FLOPs relative to their memory traffic.
        let rot = &mach.report.spawns[plan.stages.iter().position(|s| s.is_rotation).unwrap()];
        assert!(rot.mem_reads > 0 && rot.mem_writes > 0);
    }
}
