//! Resilience properties of the deterministic fault-injection layer:
//! seeded soft faults replay bit-identically across both advance
//! engines on randomly generated programs, SECDED ECC and bounded NoC
//! retry hide every injected soft fault from the FFT's numerics,
//! degraded topologies (dead clusters / dead DRAM channels) stay
//! bit-correct at reduced throughput, and a checkpointed run resumed
//! from its serialized image finishes with exactly the statistics,
//! spawn log and memory of an uninterrupted run.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use xmt_bench::matrix::{self, Cell, Pauses, Plan, Subject, ENGINES, TIERS};
use xmt_fft::golden;
use xmt_fft::plan::XmtFftPlan;
use xmt_fft::run::{host_reference, plan_builder_cfg, read_result, rel_error};
use xmt_integration::genprog::{build, op_strategy, ro_words, subject};
use xmt_integration::sample32;
use xmt_sim::{Engine, FaultPlan, SimConfig, TranslationTier, XmtConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On generated programs, a fixed-seed fault plan is replayed
    /// bit-identically by every engine: same statistics, spawn log,
    /// memory image and global registers — or the same typed error.
    #[test]
    fn faulted_genprog_replays_bitwise_across_engines(
        serial in proptest::collection::vec(op_strategy(), 0..10),
        par_ops in proptest::collection::vec(op_strategy(), 0..12),
        epilogue in proptest::collection::vec(op_strategy(), 0..6),
        threads in 1u8..24,
        clusters_log in 1u32..3,
        fault_seed in any::<u64>(),
    ) {
        let prog = build(&serial, &par_ops, threads, &epilogue);
        let cfg = XmtConfig::xmt_4k().scaled_to(1 << clusters_log);
        let subject = subject(prog, &cfg, 128 + 24 * 8 + 16, ro_words(fault_seed));
        let cells =
            ENGINES.map(|e| Cell::on(e, TranslationTier::Block).plan(Plan::Soft(fault_seed)));
        matrix::agree_on_outcome(&subject, &cells)
            .map_err(|d| TestCaseError::fail(format!("{d:?}")))?;
    }
}

/// Soft faults never reach the FFT's numerics: SECDED correction and
/// bounded retry hide every injected DRAM flip and corrupted flit, so
/// the faulted transform validates against the host reference and is
/// bit-identical to the healthy run's output.
#[test]
fn soft_faulted_fft_validates_against_host() {
    let n = 512usize;
    let plan = XmtFftPlan::new_1d(n, 4);
    let x = sample32(n, 9);
    let cfg = golden::golden_config();
    let mut healthy = plan_builder_cfg(&plan, &SimConfig::new(&cfg), &x).build();
    healthy.run().unwrap();
    let want = read_result(&plan, &healthy);
    for seed in [1u64, 0xDEAD, 0x0FA5_7FF7] {
        let sim = SimConfig::new(&cfg).faults(Plan::Soft(seed).faults());
        let mut m = plan_builder_cfg(&plan, &sim, &x).build();
        m.run().expect(&format!("seed {seed:#x}"));
        let got = read_result(&plan, &m);
        assert!(rel_error(&host_reference(&plan, &x), &got) < 1e-3);
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "seed {seed:#x}");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "seed {seed:#x}");
        }
    }
}

/// Degraded topologies — dead clusters, a dead DRAM channel, both —
/// still compute a bit-correct transform on every engine; the builder
/// remaps threads and hashed memory around the offline components.
#[test]
fn degraded_fft_validates_on_every_engine() {
    let n = 512usize;
    let plan = XmtFftPlan::new_1d(n, 4);
    let x = sample32(n, 5);
    let cfg = XmtConfig::xmt_4k().scaled_to(16);
    assert!(cfg.dram_channels() >= 2);
    let want = host_reference(&plan, &x);
    let shapes: &[(&[usize], &[usize])] =
        &[(&[3], &[]), (&[3, 7, 11], &[]), (&[], &[1]), (&[3], &[1])];
    for &(clusters, channels) in shapes {
        let mut outs = Vec::new();
        for engine in ENGINES {
            let sim = SimConfig::new(&cfg).engine(engine).faults(FaultPlan {
                dead_clusters: clusters.to_vec(),
                dead_channels: channels.to_vec(),
                ..FaultPlan::default()
            });
            let mut m = plan_builder_cfg(&plan, &sim, &x).build();
            m.run().expect(&format!("{clusters:?}/{channels:?}"));
            outs.push(read_result(&plan, &m));
        }
        assert!(
            rel_error(&want, &outs[0]) < 1e-3,
            "{clusters:?}/{channels:?}"
        );
        for o in &outs[1..] {
            for (a, b) in outs[0].iter().zip(o) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }
}

fn fft_radix8() -> golden::GoldenCase {
    golden::cases()
        .into_iter()
        .find(|c| c.name == "fft_radix8_n512")
        .unwrap()
}

/// Checkpoint/restore equivalence on every golden case at its halfway
/// point and on the FFT at several pause depths: each sliced cell
/// serializes its checkpoint, reads it back, resumes into a fresh
/// machine and must finish exactly as the uninterrupted oracle. (The paper-scale
/// cases' slices — eight per run, and single pauses on both clock
/// parities of the 64k machine — are in `determinism.rs`.)
#[test]
fn checkpoint_restore_matches_uninterrupted_golden_runs() {
    for case in golden::cases() {
        let mut cells = vec![Cell::DEFAULT.sliced(matrix::halfway)];
        if case.name == "fft_radix8_n512" {
            let depths: [Pauses; 3] = [|_| vec![64], |_| vec![1000], |_| vec![9000]];
            cells.extend(depths.map(|p| Cell::DEFAULT.sliced(p)));
        }
        matrix::agree(&Subject::golden(&case), &cells).unwrap();
    }
}

/// Checkpoint/restore composes with the block-compiled tier: a run
/// paused mid-program — after the trace cache has warmed, with parallel
/// sections still ahead — yields the same checkpoint bytes on either
/// tier (the cache is derived state, never serialized), and resumed
/// from them finishes bit-identically to an uninterrupted run. The
/// resumed tier-on machine starts from a cold cache and re-lowers on
/// first entry, which is exactly the mid-trace seam being pinned.
#[test]
fn checkpoint_mid_trace_resumes_bit_identically_across_tiers() {
    // Pause depths chosen to land between FFT stages: the cache is
    // warm (blocks already lowered by earlier stages) and later spawns
    // will re-enter those same traces after resume.
    let depths: [Pauses; 3] = [|_| vec![500], |_| vec![3000], |_| vec![7000]];
    let cells: Vec<Cell> = (depths.iter())
        .flat_map(|&p| TIERS.map(|t| Cell::on(Engine::FastForward, t).sliced(p)))
        .collect();
    matrix::agree(&Subject::golden(&fft_radix8()), &cells).unwrap();
}

/// Checkpoint/restore composes with fault injection: a faulted run
/// paused, serialized and resumed finishes bit-identically to the same
/// faulted run left uninterrupted (the fault streams are positional,
/// so replay does not depend on host state).
#[test]
fn faulted_checkpoint_resume_is_bit_identical() {
    let cell = Cell::DEFAULT.plan(Plan::Soft(0xC0FFEE));
    matrix::agree(
        &Subject::golden(&fft_radix8()),
        &[cell.sliced(matrix::third)],
    )
    .unwrap();
}
