//! Cross-engine agreement: on randomly generated programs, the
//! reference and fast-forward advance loops must produce
//! bitwise-identical run statistics, spawn logs, memory images and
//! global registers — each a set of cells of the determinism matrix
//! (`xmt_bench::matrix`), held to the Reference/interpreter oracle.
//! The generator (`xmt_integration::genprog`) uses ≥ 2 clusters, so
//! work spreads across clusters and parking has clusters to park.
//!
//! This is the property the optimized engine is *defined* by (see
//! `Engine`): fast-forward's bulk skips, parking and mask-driven issue
//! are pure wall-clock optimizations with no observable effect.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use xmt_bench::matrix::{self, Agreed, Cell, Subject, ENGINES, TIERS};
use xmt_integration::genprog::{
    branchy_op_strategy, build, build_multi_spawn, emit, op_strategy, ro_words, subject, GenOp,
};
use xmt_isa::reg::ir;
use xmt_isa::{Program, ProgramBuilder};
use xmt_sim::{Engine, TranslationTier, XmtConfig};

/// `agree`, failing the proptest case with every divergence.
fn agree(subject: &Subject, cells: &[Cell]) -> Result<Agreed, TestCaseError> {
    matrix::agree(subject, cells).map_err(|d| TestCaseError::fail(format!("{d:?}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reference and fast-forward probed (the interval rows are part of
    /// the contract, not just matching totals).
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
        let cfg = XmtConfig::xmt_4k().scaled_to(1 << clusters_log);
        let subject = subject(prog, &cfg, 128 + 24 * 8 + 16, ro_words(ro_seed));
        agree(&subject, &[
            Cell::on(Engine::Reference, TranslationTier::Block).probed(32),
            Cell::on(Engine::FastForward, TranslationTier::Block).probed(32),
        ])?;
    }
}

proptest! {
    // The full 4096-TCU config simulates 128 clusters per cycle, so
    // keep the sample count and program sizes small: the point is to
    // exercise fast-forward (128 clusters, wide spawns parking and
    // waking clusters) on the same machine the scaling benchmarks use,
    // not to redo the small-config sweep above.
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
        let subject = subject(prog, &XmtConfig::xmt_4k(), 128 + 256 * 8 + 16, ro_words(ro_seed));
        agree(&subject, &[Cell::DEFAULT])?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Branch-dense and short-block programs — forward skips over a
    /// single instruction and 1–4-iteration countdown loops — are the
    /// worst case for the block-compiled tier: superblocks degenerate
    /// to one or two micro-ops and every branch resolution crosses a
    /// fallback seam. Every engine on either tier must agree.
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
        let cfg = XmtConfig::xmt_4k().scaled_to(1 << clusters_log);
        let subject = subject(prog, &cfg, 128 + 24 * 8 + 16, ro_words(ro_seed));
        let mut cells = Vec::new();
        for engine in ENGINES {
            cells.extend(TIERS.map(|tier| Cell::on(engine, tier)));
        }
        agree(&subject, &cells)?;
    }
}

/// Churn regression: successive spawns of wildly different widths on
/// the full 4096-TCU machine, so clusters enter and leave
/// fast-forward's active work list and parked set mid-run. A stale
/// cluster mask (e.g. a cluster whose busy/ready bits survived from a
/// previous spawn's tenancy) shows up here as a stats or memory
/// divergence.
#[test]
fn shard_churn_across_spawn_widths() {
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
    // 3000 threads floods nearly every cluster; 40 leaves most
    // clusters idle; 500/96 land in between. Each transition rebuilds
    // the active-cluster list.
    let widths = [500u32, 96, 3000, 40, 1024];
    let prog = build_multi_spawn(&[], &par_ops, &widths, &[]);
    let ro: Vec<u32> = (0..64u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let subject = subject(prog, &XmtConfig::xmt_4k(), 128 + 3000 * 8 + 16, ro);
    matrix::agree(&subject, &[Cell::DEFAULT]).unwrap();
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
        let cfg = XmtConfig::xmt_4k().scaled_to(4);
        let subject = subject(prog, &cfg, 128 + 160 * 8 + 16, ro_words(ro_seed));
        let agreed = agree(&subject, &[
            Cell::on(Engine::Reference, TranslationTier::Block).probed(1),
            Cell::on(Engine::FastForward, TranslationTier::Block).probed(1),
        ])?;
        let minted = agreed.oracle.report.stats.threads;
        prop_assert_eq!(minted, u64::from(threads) + u64::from(extra));
    }
}
