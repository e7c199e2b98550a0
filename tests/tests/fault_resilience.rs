//! Resilience properties of the deterministic fault-injection layer:
//! seeded soft faults replay bit-identically across all three advance
//! engines on randomly generated programs, SECDED ECC and bounded NoC
//! retry hide every injected soft fault from the FFT's numerics,
//! degraded topologies (dead clusters / dead DRAM channels) stay
//! bit-correct at reduced throughput, and a checkpointed run resumed
//! from its serialized image finishes with exactly the statistics,
//! spawn log and memory of an uninterrupted run.

use proptest::prelude::*;
use xmt_fft::golden;
use xmt_fft::plan::XmtFftPlan;
use xmt_fft::run::{host_reference, plan_builder, read_result, rel_error};
use xmt_integration::genprog::{build, op_strategy};
use xmt_integration::sample32;
use xmt_isa::Program;
use xmt_sim::{
    Checkpoint, Engine, FaultPlan, MachineBuilder, RunReport, RunStatus, TranslationTier, XmtConfig,
};

/// Soft-fault plan exercised by most tests: DRAM single/double bit
/// flips plus NoC flit corruption, all recoverable.
fn soft_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .dram_flips(0.02, 0.002)
        .noc_corrupt(0.01)
}

/// Run `prog` under `engine` with `plan` applied; errors are collapsed
/// to their debug string so engine outcomes stay comparable even when
/// a run fails.
fn run_faulted(
    prog: &Program,
    cfg: &XmtConfig,
    ro: &[u32],
    mem_words: usize,
    engine: Engine,
    plan: FaultPlan,
) -> Result<(RunReport, Vec<u32>, [u32; 16]), String> {
    let mut m = MachineBuilder::new(cfg, prog.clone())
        .mem_words(mem_words)
        .engine(engine)
        .faults(plan)
        .write_u32s(0, ro)
        .build();
    let outcome = m.run();
    match outcome.error() {
        None => Ok((outcome.report, m.mem.clone(), m.gregs_snapshot())),
        Some(e) => Err(format!("{e:?}")),
    }
}

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
        let mem_words = 128 + 24 * 8 + 16;
        let ro: Vec<u32> = (0..64u64)
            .map(|i| {
                let mut z = fault_seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z ^= z >> 31;
                z as u32
            })
            .collect();
        let cfg = XmtConfig::xmt_4k().scaled_to(1 << clusters_log);
        let engines = [
            Engine::Reference,
            Engine::FastForward,
            Engine::Threaded { threads: 2 },
        ];
        let runs: Vec<_> = engines
            .iter()
            .map(|&e| run_faulted(&prog, &cfg, &ro, mem_words, e, soft_plan(fault_seed)))
            .collect();
        match &runs[0] {
            Ok((rep, mem, gregs)) => {
                for r in &runs[1..] {
                    let (rep2, mem2, gregs2) = r.as_ref().expect("engines disagree on outcome");
                    prop_assert_eq!(&rep.stats, &rep2.stats, "faulted stats diverge");
                    prop_assert_eq!(&rep.spawns, &rep2.spawns, "faulted spawn log diverges");
                    prop_assert_eq!(mem, mem2, "faulted memory diverges");
                    prop_assert_eq!(gregs, gregs2, "faulted gregs diverge");
                }
            }
            Err(e) => {
                for r in &runs[1..] {
                    let e2 = r.as_ref().expect_err("engines disagree on outcome");
                    prop_assert_eq!(e, e2, "faulted error diverges");
                }
            }
        }
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
    let mut healthy = plan_builder(&plan, &cfg, &x).build();
    healthy.run().unwrap();
    let want = read_result(&plan, &healthy);
    for seed in [1u64, 0xDEAD, 0x0FA5_7FF7] {
        let mut m = plan_builder(&plan, &cfg, &x)
            .faults(soft_plan(seed))
            .build();
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
        for engine in [
            Engine::Reference,
            Engine::FastForward,
            Engine::Threaded { threads: 0 },
        ] {
            let mut m = plan_builder(&plan, &cfg, &x)
                .engine(engine)
                .degraded(clusters, channels)
                .build();
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

/// Run `case` in slices: pause at each cycle `pauses_for` picks from
/// the uninterrupted cycle count (the machine stops at the next
/// quiescent cycle), checkpoint, serialize the checkpoint to bytes and
/// back, and resume those bytes in a fresh machine — the job service's
/// slice commit. After the last pause the run finishes; final
/// statistics, spawn digest and memory image must equal the
/// uninterrupted run's.
fn check_sliced(case: &golden::GoldenCase, pauses_for: impl Fn(u64) -> Vec<u64>) {
    let mut full = case.machine();
    let uninterrupted = full.run().expect("golden case must complete");
    let pauses = pauses_for(uninterrupted.stats.cycles);
    let what = format!("{} sliced at {pauses:?}", case.name);

    let mut m = case.machine();
    let mut now = 0;
    for pause in pauses {
        if pause <= now {
            continue; // the previous slice already ran past this point
        }
        let outcome = m.run_until(pause);
        match outcome.status {
            RunStatus::Completed => {
                assert_eq!(outcome.report.stats, uninterrupted.stats, "{what}");
                return;
            }
            RunStatus::Paused { at_cycle } => {
                assert!(at_cycle >= pause, "{what}");
                now = at_cycle;
            }
            RunStatus::Failed(e) => panic!("{what}: pause@{pause}: {e:?}"),
        }
        let bytes = m.checkpoint_bytes().unwrap();
        let restored = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(restored.cycle(), now, "{what}");
        m = case.builder().resume(&restored).unwrap();
    }
    let rep = m.run().expect(&what);
    assert_eq!(rep.stats, uninterrupted.stats, "{what}");
    assert_eq!(
        golden::spawn_digest(&rep),
        golden::spawn_digest(&uninterrupted),
        "{what}"
    );
    assert_eq!(m.mem, full.mem, "{what}");
}

/// Eight slices of `cycles / 8 + 1` cycles each, every one resumed from
/// the previous slice's bytes — how the job service runs a paper-scale
/// job.
fn check_scaling_slices(expensive: bool) {
    for case in golden::scaling_cases() {
        if (case.name == "fft_xmt8k_n65536") != expensive {
            continue;
        }
        check_sliced(&case, |cycles| {
            (1..8).map(|k| k * (cycles / 8 + 1)).collect()
        });
    }
}

/// Checkpoint/restore equivalence on every golden case at its halfway
/// point, on the FFT at several pause depths, and on the paper-scale
/// configurations as a chain of eight slices — including the hybrid
/// (butterfly) 64k machine, whose NoC arbitrates by memory-clock
/// parity and so only resumes exactly if that clock is restored.
#[test]
fn checkpoint_restore_matches_uninterrupted_golden_runs() {
    for case in golden::cases() {
        check_sliced(&case, |cycles| vec![cycles / 2]);
        if case.name == "fft_radix8_n512" {
            for pause in [64, 1000, 9000] {
                check_sliced(&case, |_| vec![pause]);
            }
        }
    }
    check_scaling_slices(false);
}

/// The dense 8k case simulates ~9M instructions three times over; it
/// runs with the release-profile gates (ci.sh, `-- --include-ignored`).
#[test]
#[ignore = "release-profile gate: run via ci.sh (cargo test --release -- --include-ignored)"]
fn checkpoint_restore_matches_uninterrupted_golden_runs_dense() {
    check_scaling_slices(true);
}

/// Checkpoint/restore composes with the block-compiled tier: pausing a
/// tier-on run mid-program — after the trace cache has warmed and with
/// parallel sections still ahead — must yield the same checkpoint
/// bytes as a tier-off run paused at the same cycle (the cache is
/// derived state, never serialized), and resuming that checkpoint with
/// either tier must finish bit-identically to an uninterrupted run.
/// The resumed tier-on machine starts from a cold cache and re-lowers
/// on first entry, which is exactly the mid-trace seam being pinned.
#[test]
fn checkpoint_mid_trace_resumes_bit_identically_across_tiers() {
    let case = golden::cases()
        .into_iter()
        .find(|c| c.name == "fft_radix8_n512")
        .unwrap();
    let uninterrupted = case.run();
    let mut full = case.machine();
    full.run().unwrap();
    let mem_full = full.mem.clone();

    // Pause depths chosen to land between FFT stages: the cache is
    // warm (blocks already lowered by earlier stages) and later spawns
    // will re-enter those same traces after resume.
    for pause in [500u64, 3000, 7000] {
        let mut snaps = Vec::new();
        for tier in [TranslationTier::Block, TranslationTier::Interpreter] {
            let mut m = case.builder().tier(tier).build();
            match m.run_until(pause).status {
                RunStatus::Paused { at_cycle } => assert!(at_cycle >= pause),
                other => panic!("expected pause at {pause}, got {other:?}"),
            }
            snaps.push(m.checkpoint().unwrap().to_bytes());
        }
        assert_eq!(
            snaps[0], snaps[1],
            "checkpoint bytes differ by tier at pause {pause}"
        );

        let restored = Checkpoint::from_bytes(&snaps[0]).unwrap();
        for tier in [TranslationTier::Block, TranslationTier::Interpreter] {
            let mut resumed = case.builder().tier(tier).resume(&restored).unwrap();
            let rep = resumed.run().expect(&format!("resume@{pause}/{tier:?}"));
            assert_eq!(rep.stats, uninterrupted.stats, "pause {pause} {tier:?}");
            assert_eq!(
                golden::spawn_digest(&rep),
                golden::spawn_digest(&uninterrupted),
                "pause {pause} {tier:?}"
            );
            assert_eq!(resumed.mem, mem_full, "pause {pause} {tier:?}");
        }
    }
}

/// Checkpoint/restore composes with fault injection: a faulted run
/// paused, serialized and resumed finishes bit-identically to the same
/// faulted run left uninterrupted (the fault streams are positional,
/// so replay does not depend on host state).
#[test]
fn faulted_checkpoint_resume_is_bit_identical() {
    let case = golden::cases()
        .into_iter()
        .find(|c| c.name == "fft_radix8_n512")
        .unwrap();
    let plan = || soft_plan(0xC0FFEE);
    let mut full = case.builder().faults(plan()).build();
    let uninterrupted = full.run().unwrap();

    let mut m = case.builder().faults(plan()).build();
    let cp = match m.run_until(uninterrupted.stats.cycles / 3).status {
        RunStatus::Paused { .. } => m.checkpoint().unwrap(),
        other => panic!("expected pause, got {other:?}"),
    };
    let restored = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
    let mut resumed = case.builder().faults(plan()).resume(&restored).unwrap();
    let rep = resumed.run().unwrap();
    assert_eq!(rep.stats, uninterrupted.stats);
    assert_eq!(
        golden::spawn_digest(&rep),
        golden::spawn_digest(&uninterrupted)
    );
    assert_eq!(resumed.mem, full.mem);
}
