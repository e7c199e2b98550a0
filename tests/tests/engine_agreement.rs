//! Cross-engine agreement: on randomly generated programs, the
//! reference, fast-forward and threaded advance loops must produce
//! bitwise-identical run statistics, spawn logs, memory images and
//! global registers. The generator (`xmt_integration::genprog`) avoids
//! `ps`/`sspawn` so the threaded engine genuinely partitions clusters
//! across workers instead of falling back to fast-forward, and uses
//! ≥ 2 clusters for the same reason.
//!
//! This is the property the optimized engines are *defined* by (see
//! `Engine`): fast-forward's bulk skips and mask-driven issue, and the
//! threaded engine's two-phase replay, are pure wall-clock
//! optimizations with no observable effect.

use proptest::prelude::*;
use xmt_integration::genprog::{
    branchy_op_strategy, build, build_multi_spawn, emit, op_strategy, GenOp,
};
use xmt_isa::reg::ir;
use xmt_isa::{Program, ProgramBuilder};
use xmt_sim::{
    Engine, IntervalProbe, IntervalRow, RunReport, SimConfig, TranslationTier, XmtConfig,
};

/// The shared read-only region `[0, 64)` the generated loads read.
fn ro_words(seed: u64) -> Vec<u32> {
    (0..64u64)
        .map(|i| {
            let mut z = seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z ^= z >> 31;
            z as u32
        })
        .collect()
}

/// Run `prog` under `engine` with an [`IntervalProbe`] attached,
/// returning the report, probe sample stream and final state. The
/// probe stream is part of the cross-engine contract: every engine
/// must emit bit-identical interval rows, not just matching totals.
fn run_engine(
    prog: &Program,
    cfg: &XmtConfig,
    ro: &[u32],
    mem_words: usize,
    engine: Engine,
) -> (RunReport, Vec<IntervalRow>, Vec<u32>, [u32; 16]) {
    let mut m = SimConfig::new(cfg)
        .engine(engine)
        .builder(prog.clone())
        .mem_words(mem_words)
        .write_u32s(0, ro)
        .build_probed(IntervalProbe::new(32, 1 << 12));
    let report = m.run().expect("generated program must complete");
    let rows = m.probe().rows();
    let mem = m.mem.clone();
    let gregs = m.gregs_snapshot();
    (report, rows, mem, gregs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_engines_agree_bitwise(
        serial in proptest::collection::vec(op_strategy(), 0..10),
        par_ops in proptest::collection::vec(op_strategy(), 0..12),
        epilogue in proptest::collection::vec(op_strategy(), 0..6),
        threads in 1u8..24,
        clusters_log in 1u32..3,
        ro_seed in any::<u64>(),
    ) {
        let prog = build(&serial, &par_ops, threads, &epilogue);
        let mem_words = 128 + 24 * 8 + 16;
        let ro = ro_words(ro_seed);

        // clusters ≥ 2 so the threaded engine actually partitions.
        let cfg = XmtConfig::xmt_4k().scaled_to(1 << clusters_log);
        let (s_ref, rows_ref, mem_ref, gr_ref) =
            run_engine(&prog, &cfg, &ro, mem_words, Engine::Reference);
        let (s_ff, rows_ff, mem_ff, gr_ff) =
            run_engine(&prog, &cfg, &ro, mem_words, Engine::FastForward);
        let (s_thr, rows_thr, mem_thr, gr_thr) =
            run_engine(&prog, &cfg, &ro, mem_words, Engine::Threaded { threads: 2 });

        prop_assert_eq!(s_ref.stats, s_ff.stats, "fast-forward stats diverge");
        prop_assert_eq!(s_ref.stats, s_thr.stats, "threaded stats diverge");
        prop_assert_eq!(&s_ref.spawns, &s_ff.spawns, "fast-forward spawn log diverges");
        prop_assert_eq!(&s_ref.spawns, &s_thr.spawns, "threaded spawn log diverges");
        prop_assert_eq!(&mem_ref, &mem_ff, "fast-forward memory diverges");
        prop_assert_eq!(&mem_ref, &mem_thr, "threaded memory diverges");
        prop_assert_eq!(gr_ref, gr_ff, "fast-forward gregs diverge");
        prop_assert_eq!(gr_ref, gr_thr, "threaded gregs diverge");
        prop_assert_eq!(&rows_ref, &rows_ff, "fast-forward probe stream diverges");
        prop_assert_eq!(&rows_ref, &rows_thr, "threaded probe stream diverges");
    }
}

/// Unprobed variant of [`run_engine`]: a probed machine never reaches
/// the threaded engine's sharded path (it falls back to fast-forward —
/// see `Machine::run_inner`), so the tests below that exist to exercise
/// sharding must run without a probe. The probe stream's cross-engine
/// identity is already pinned by `all_engines_agree_bitwise` and the
/// ci.sh probe gate.
fn run_engine_unprobed(
    prog: &Program,
    cfg: &XmtConfig,
    ro: &[u32],
    mem_words: usize,
    engine: Engine,
) -> (RunReport, Vec<u32>, [u32; 16]) {
    let mut m = SimConfig::new(cfg)
        .engine(engine)
        .builder(prog.clone())
        .mem_words(mem_words)
        .write_u32s(0, ro)
        .build();
    let report = m.run().expect("generated program must complete");
    let mem = m.mem.clone();
    let gregs = m.gregs_snapshot();
    (report, mem, gregs)
}

proptest! {
    // The full 4096-TCU config simulates 128 clusters per cycle, so
    // keep the sample count and program sizes small: the point is to
    // exercise the threaded engine's sharding (128 clusters across
    // workers, wide spawns spanning shard boundaries) on the same
    // machine the scaling benchmarks use, not to redo the small-config
    // sweep above.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn all_engines_agree_on_full_4k_config(
        serial in proptest::collection::vec(op_strategy(), 0..4),
        par_ops in proptest::collection::vec(op_strategy(), 0..8),
        epilogue in proptest::collection::vec(op_strategy(), 0..4),
        threads in 1u8..=200,
        ro_seed in any::<u64>(),
    ) {
        let prog = build(&serial, &par_ops, threads, &epilogue);
        let mem_words = 128 + 256 * 8 + 16;
        let ro = ro_words(ro_seed);

        let cfg = XmtConfig::xmt_4k();
        let (s_ref, mem_ref, gr_ref) =
            run_engine_unprobed(&prog, &cfg, &ro, mem_words, Engine::Reference);
        let (s_thr, mem_thr, gr_thr) =
            run_engine_unprobed(&prog, &cfg, &ro, mem_words, Engine::Threaded { threads: 2 });

        prop_assert_eq!(s_ref.stats, s_thr.stats, "threaded stats diverge on xmt_4k");
        prop_assert_eq!(&s_ref.spawns, &s_thr.spawns, "threaded spawn log diverges on xmt_4k");
        prop_assert_eq!(&mem_ref, &mem_thr, "threaded memory diverges on xmt_4k");
        prop_assert_eq!(gr_ref, gr_thr, "threaded gregs diverge on xmt_4k");
    }
}

/// Variant of [`run_engine_unprobed`] that also pins the translation
/// tier.
fn run_engine_tiered(
    prog: &Program,
    cfg: &XmtConfig,
    ro: &[u32],
    mem_words: usize,
    engine: Engine,
    tier: TranslationTier,
) -> (RunReport, Vec<u32>, [u32; 16]) {
    let mut m = SimConfig::new(cfg)
        .engine(engine)
        .tier(tier)
        .builder(prog.clone())
        .mem_words(mem_words)
        .write_u32s(0, ro)
        .build();
    let report = m.run().expect("generated program must complete");
    let mem = m.mem.clone();
    let gregs = m.gregs_snapshot();
    (report, mem, gregs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Branch-dense and short-block programs — forward skips over a
    /// single instruction and 1–4-iteration countdown loops — are the
    /// worst case for the block-compiled tier: superblocks degenerate
    /// to one or two micro-ops and every branch resolution crosses a
    /// fallback seam. Tier-on and tier-off runs must be bitwise
    /// identical (stats, spawn log, memory image, global registers)
    /// under all three engines.
    #[test]
    fn tier_agrees_on_branch_dense_programs(
        serial in proptest::collection::vec(branchy_op_strategy(), 0..8),
        par_ops in proptest::collection::vec(branchy_op_strategy(), 0..10),
        epilogue in proptest::collection::vec(branchy_op_strategy(), 0..5),
        threads in 1u8..24,
        clusters_log in 1u32..3,
        ro_seed in any::<u64>(),
    ) {
        let prog = build(&serial, &par_ops, threads, &epilogue);
        let mem_words = 128 + 24 * 8 + 16;
        let ro = ro_words(ro_seed);
        let cfg = XmtConfig::xmt_4k().scaled_to(1 << clusters_log);

        let (s_base, mem_base, gr_base) = run_engine_tiered(
            &prog, &cfg, &ro, mem_words, Engine::Reference, TranslationTier::Interpreter,
        );
        for engine in [
            Engine::Reference,
            Engine::FastForward,
            Engine::Threaded { threads: 2 },
        ] {
            for tier in [TranslationTier::Interpreter, TranslationTier::Block] {
                let (s, mem, gr) = run_engine_tiered(&prog, &cfg, &ro, mem_words, engine, tier);
                prop_assert_eq!(
                    &s_base.stats, &s.stats,
                    "stats diverge under {:?}/{:?}", engine, tier
                );
                prop_assert_eq!(
                    &s_base.spawns, &s.spawns,
                    "spawn log diverges under {:?}/{:?}", engine, tier
                );
                prop_assert_eq!(
                    &mem_base, &mem,
                    "memory diverges under {:?}/{:?}", engine, tier
                );
                prop_assert_eq!(
                    gr_base, gr,
                    "gregs diverge under {:?}/{:?}", engine, tier
                );
            }
        }
    }
}

/// Shard-churn regression: successive spawns of wildly different widths
/// on the full 4096-TCU machine, so clusters enter and leave the
/// threaded engine's active work list — and migrate across shard
/// boundaries as the partition is rebuilt — mid-run. A stale shard mask
/// (e.g. a cluster whose busy/ready bits survived from a previous
/// spawn's tenancy) shows up here as a stats or memory divergence.
#[test]
fn shard_churn_across_spawn_widths() {
    use xmt_integration::genprog::GenOp;
    let par_ops = [
        GenOp::LoadRo { rd: 3, addr: 17 },
        GenOp::Alu {
            which: 0,
            rd: 4,
            rs1: 3,
            rs2: 3,
        },
        GenOp::StorePriv { rs: 4, slot: 2 },
        GenOp::Fli { fd: 2, v: 24 },
        GenOp::Fpu {
            which: 2,
            fd: 3,
            fs1: 2,
            fs2: 2,
        },
        GenOp::FStorePriv { fs: 3, slot: 5 },
    ];
    // 3000 threads floods nearly every cluster; 40 leaves most shards
    // idle; 500/96 land in between. Each transition rebuilds the
    // active-cluster partition.
    let widths = [500u32, 96, 3000, 40, 1024];
    let prog = build_multi_spawn(&[], &par_ops, &widths, &[]);
    let mem_words = 128 + 3000 * 8 + 16;
    let ro: Vec<u32> = (0..64u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let cfg = XmtConfig::xmt_4k();

    let (s_ref, mem_ref, gr_ref) =
        run_engine_unprobed(&prog, &cfg, &ro, mem_words, Engine::Reference);
    for threads in [0usize, 2, 3] {
        let (s_thr, mem_thr, gr_thr) =
            run_engine_unprobed(&prog, &cfg, &ro, mem_words, Engine::Threaded { threads });
        assert_eq!(
            s_ref.stats, s_thr.stats,
            "threaded({threads}) stats diverge under shard churn"
        );
        assert_eq!(
            s_ref.spawns, s_thr.spawns,
            "threaded({threads}) spawn log diverges under shard churn"
        );
        assert_eq!(
            mem_ref, mem_thr,
            "threaded({threads}) memory diverges under shard churn"
        );
        assert_eq!(
            gr_ref, gr_thr,
            "threaded({threads}) gregs diverge under shard churn"
        );
    }
    let (s_ff, mem_ff, gr_ff) =
        run_engine_unprobed(&prog, &cfg, &ro, mem_words, Engine::FastForward);
    assert_eq!(s_ref.stats, s_ff.stats);
    assert_eq!(mem_ref, mem_ff);
    assert_eq!(gr_ref, gr_ff);
}

/// A section in which thread `minter`, after `delay` dependent loads,
/// `sspawn`s `extra` more threads, while every thread (the late ones
/// too) runs `par_ops` and then a dependent-load loop of 1, 3, 5 or 7
/// rounds by its tid. The uneven loops leave clusters with joined
/// (idle) TCUs beside memory-blocked ones — what fast-forward parks —
/// at the cycle the new IDs appear, in clusters on both sides of the
/// minter's.
fn sspawn_program(par_ops: &[GenOp], threads: u8, minter: u8, delay: u8, extra: u8) -> Program {
    let mut b = ProgramBuilder::new();
    let (par, after, no_mint, top) = (b.label(), b.label(), b.label(), b.label());
    b.li(ir(22), threads as u32);
    b.spawn(ir(22), par);
    b.jump(after);
    b.bind(par);
    b.tid(ir(19));
    b.slli(ir(20), ir(19), 3);
    b.addi(ir(20), ir(20), 128);
    for op in par_ops {
        emit(&mut b, op);
    }
    b.li(ir(23), minter as u32);
    b.bne(ir(19), ir(23), no_mint);
    for i in 0..delay {
        emit(&mut b, &GenOp::LoadUse { rd: 3, addr: i });
    }
    b.li(ir(23), extra as u32);
    b.sspawn(ir(24), ir(23));
    b.bind(no_mint);
    b.andi(ir(21), ir(19), 3);
    b.slli(ir(21), ir(21), 1);
    b.addi(ir(21), ir(21), 1);
    b.bind(top);
    emit(&mut b, &GenOp::LoadUse { rd: 4, addr: 40 });
    b.addi(ir(21), ir(21), u32::MAX);
    b.bne(ir(21), ir(0), top);
    b.sw(ir(4), ir(20), 7);
    b.join();
    b.bind(after);
    b.halt();
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `sspawn` mints thread IDs in the middle of a cycle while
    /// fast-forward has clusters parked: those after the minting
    /// cluster activate idle TCUs in that very cycle, those before it
    /// in the next, exactly as under the reference walk — statistics,
    /// spawn log, memory and the every-cycle probe stream agree.
    /// (Threaded falls back to fast-forward on such programs.)
    #[test]
    fn sspawn_mints_ids_while_clusters_are_parked(
        par_ops in proptest::collection::vec(op_strategy(), 0..6),
        threads in 1u8..100,
        minter in any::<u8>(),
        delay in 0u8..6,
        extra in 1u8..60,
        ro_seed in any::<u64>(),
    ) {
        let prog = sspawn_program(&par_ops, threads, minter % threads, delay, extra);
        let mem_words = 128 + 160 * 8 + 16;
        let ro = ro_words(ro_seed);
        let cfg = XmtConfig::xmt_4k().scaled_to(4);
        let run = |engine: Engine| {
            let mut m = SimConfig::new(&cfg)
                .engine(engine)
                .builder(prog.clone())
                .mem_words(mem_words)
                .write_u32s(0, &ro)
                .build_probed(IntervalProbe::new(1, 1 << 12));
            let report = m.run().expect("generated program must complete");
            (report, m.probe().rows(), m.mem.clone())
        };
        let (s_ref, rows_ref, mem_ref) = run(Engine::Reference);
        let (s_ff, rows_ff, mem_ff) = run(Engine::FastForward);
        prop_assert_eq!(s_ref.stats.threads, u64::from(threads) + u64::from(extra));
        prop_assert_eq!(s_ref.stats, s_ff.stats, "fast-forward stats diverge");
        prop_assert_eq!(&s_ref.spawns, &s_ff.spawns, "fast-forward spawn log diverges");
        prop_assert_eq!(&mem_ref, &mem_ff, "fast-forward memory diverges");
        prop_assert_eq!(&rows_ref, &rows_ff, "fast-forward probe stream diverges");
    }
}
