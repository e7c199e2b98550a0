//! End-to-end pipeline tests: the generated XMT kernels, executed on
//! the untimed interpreter and the cycle simulator, must match the
//! host FFT library for every shape, configuration and replication
//! factor — and the two engines must agree bit-for-bit.

use proptest::prelude::*;
use xmt_fft::plan::XmtFftPlan;
use xmt_fft::run::{host_reference, rel_error, run_on_interp, run_on_machine};
use xmt_integration::sample32;
use xmt_sim::XmtConfig;

#[test]
fn one_d_sizes_match_host_on_interp() {
    for n in [8usize, 16, 32, 64, 128, 256, 512, 1024, 2048] {
        let plan = XmtFftPlan::new_1d(n, 2);
        let x = sample32(n, n as u64);
        let got = run_on_interp(&plan, &x).unwrap();
        let want = host_reference(&plan, &x);
        let e = rel_error(&want, &got.output);
        assert!(e < 1e-3, "n={n}: err {e}");
    }
}

#[test]
fn two_d_shapes_match_host_on_interp() {
    for (r, c) in [(8usize, 8usize), (8, 64), (64, 8), (32, 32), (16, 128)] {
        let plan = XmtFftPlan::new_2d(r, c, 4);
        let x = sample32(r * c, (r * 1000 + c) as u64);
        let got = run_on_interp(&plan, &x).unwrap();
        let want = host_reference(&plan, &x);
        let e = rel_error(&want, &got.output);
        assert!(e < 1e-3, "{r}x{c}: err {e}");
    }
}

#[test]
fn three_d_shapes_match_host_on_interp() {
    for shape in [
        (8usize, 8usize, 8usize),
        (8, 16, 8),
        (16, 8, 32),
        (16, 16, 16),
    ] {
        let plan = XmtFftPlan::new_3d(shape, 2);
        let x = sample32(shape.0 * shape.1 * shape.2, 99);
        let got = run_on_interp(&plan, &x).unwrap();
        let want = host_reference(&plan, &x);
        let e = rel_error(&want, &got.output);
        assert!(e < 1e-3, "{shape:?}: err {e}");
    }
}

#[test]
fn machine_agrees_with_interpreter_bitwise_across_configs() {
    let n = 256;
    let plan = XmtFftPlan::new_1d(n, 4);
    let x = sample32(n, 5);
    let interp = run_on_interp(&plan, &x).unwrap();
    for base in [
        XmtConfig::xmt_4k(),
        XmtConfig::xmt_64k(),
        XmtConfig::xmt_128k_x4(),
    ] {
        for clusters in [2usize, 8] {
            let cfg = base.scaled_to(clusters);
            let mach = run_on_machine(&plan, &cfg, &x).unwrap();
            for (i, (a, b)) in interp.output.iter().zip(&mach.output).enumerate() {
                assert_eq!(
                    a.re.to_bits(),
                    b.re.to_bits(),
                    "{} @{clusters}: re mismatch at {i}",
                    base.name
                );
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }
}

#[test]
fn machine_3d_with_rotation_matches_host() {
    let shape = (8usize, 16usize, 8usize);
    let plan = XmtFftPlan::new_3d(shape, 2);
    let x = sample32(shape.0 * shape.1 * shape.2, 17);
    let cfg = XmtConfig::xmt_8k().scaled_to(4);
    let got = run_on_machine(&plan, &cfg, &x).unwrap();
    let want = host_reference(&plan, &x);
    let e = rel_error(&want, &got.output);
    assert!(e < 1e-3, "err {e}");
    // Every stage produced a spawn record with the planned thread count.
    assert_eq!(got.report.spawns.len(), plan.num_stages());
    for (meta, s) in plan.stages.iter().zip(&got.report.spawns) {
        assert_eq!(s.threads, meta.kernel.threads() as u64);
    }
}

#[test]
fn rotation_stage_has_lower_flops_than_twiddled_stage() {
    // The rotation (last) stage multiplies no twiddles: fewer FLOPs per
    // element than the twiddled stages — the intensity gap of Fig. 3.
    let plan = XmtFftPlan::new_2d(16, 64, 2);
    let x = sample32(16 * 64, 23);
    let cfg = XmtConfig::xmt_4k().scaled_to(4);
    let run = run_on_machine(&plan, &cfg, &x).unwrap();
    let first = &run.report.spawns[0]; // twiddled
    let meta_last = plan.stages.iter().position(|m| m.is_rotation).unwrap();
    let rot = &run.report.spawns[meta_last];
    assert!(
        rot.flops < first.flops,
        "rotation {} vs twiddled {}",
        rot.flops,
        first.flops
    );
}

#[test]
fn engines_agree_bitwise_on_spawn_heavy_programs() {
    // The fast-forwarding engine must be indistinguishable from
    // per-cycle reference stepping: identical statistics, per-spawn
    // records, memory image and global registers on every golden
    // program.
    use xmt_bench::matrix::{self, Cell, Subject, ENGINES};
    use xmt_fft::golden;
    use xmt_sim::TranslationTier;
    let cells = ENGINES.map(|e| Cell::on(e, TranslationTier::Block));
    for case in golden::cases() {
        matrix::agree(&Subject::golden(&case), &cells).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_inputs_random_shapes_interp(
        seed in 0u64..1000,
        logn in 3u32..9,
        copies_log in 0u32..4,
    ) {
        let n = 1usize << logn;
        let plan = XmtFftPlan::new_1d(n, 1 << copies_log);
        let x = sample32(n, seed);
        let got = run_on_interp(&plan, &x).unwrap();
        let want = host_reference(&plan, &x);
        prop_assert!(rel_error(&want, &got.output) < 1e-3);
    }

    #[test]
    fn random_2d_on_machine(seed in 0u64..100, logr in 3u32..6, logc in 3u32..6) {
        let (r, c) = (1usize << logr, 1usize << logc);
        let plan = XmtFftPlan::new_2d(r, c, 2);
        let x = sample32(r * c, seed);
        let cfg = XmtConfig::xmt_4k().scaled_to(2);
        let got = run_on_machine(&plan, &cfg, &x).unwrap();
        let want = host_reference(&plan, &x);
        prop_assert!(rel_error(&want, &got.output) < 1e-3);
    }
}
