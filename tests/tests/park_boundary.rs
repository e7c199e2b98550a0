//! Regression test: a TCU whose `busy_until` equals the first cycle its
//! cluster sits out parked must keep accruing scoreboard stalls.
//!
//! Fast-forward parks a cluster whose step issued nothing and whose
//! quiet scan finds nobody able to issue, while the clusters beside it
//! keep stepping. The scan counts a TCU whose FPU/MDU latency expires
//! on the first parked cycle as ready — and scoreboard-blocked here —
//! but its `busy` bit is still set: the wheel wake that clears it
//! belongs to a step the cluster no longer takes. Leaving the parked
//! state must replay those wakes (`ClusterMasks::wake_through`, as a
//! clock jump does; `tests/tests/ff_skip_wake.rs` is the machine-wide
//! sibling), or the TCU stays invisible to the mask-driven issue loop
//! until its wheel slot comes round again, and its stalls are dropped
//! while every other statistic stays identical.
//!
//! The program (found with the un-park wakes removed, and frozen here)
//! runs 44 threads on 4 clusters of 32 TCUs, so cluster 0 is full and
//! cluster 1 holds 12: each thread loads `r11`, issues an FPU and an
//! MDU latency op, and then blocks on a second load into the still
//! pending `r11`. The latencies expire inside parked stretches of one
//! cluster while the other is still issuing; the broken engine
//! under-counted `stall_scoreboard` by 96 with all other fields
//! bit-identical. It runs with the release-profile goldens in `ci.sh`,
//! under the codegen the benchmark times.

use xmt_isa::reg::{fr, ir};
use xmt_isa::{FpuOp, Instr, MduOp, Program, ProgramBuilder};
use xmt_sim::{Engine, IntervalProbe, SimConfig, TranslationTier, XmtConfig};

fn program() -> Program {
    let mut b = ProgramBuilder::new();
    let par = b.label();
    let after = b.label();
    b.li(ir(22), 44);
    b.spawn(ir(22), par);
    b.jump(after);
    b.bind(par);
    b.lw(ir(11), ir(0), 23);
    b.push(Instr::Fpu {
        op: FpuOp::Div,
        fd: fr(8),
        fs1: fr(11),
        fs2: fr(7),
    });
    b.push(Instr::Mdu {
        op: MduOp::Divu,
        rd: ir(8),
        rs1: ir(3),
        rs2: ir(3),
    });
    // WAW on the in-flight load: scoreboard-blocked until the reply.
    b.lw(ir(11), ir(0), 14);
    b.join();
    b.bind(after);
    b.halt();
    b.build().unwrap()
}

#[test]
fn park_boundary_wake_preserves_scoreboard_stalls() {
    let prog = program();
    let ro: Vec<u32> = (0..64u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let cfg = XmtConfig::xmt_4k().scaled_to(4);
    let build = |engine: Engine, tier: TranslationTier| {
        SimConfig::new(&cfg)
            .engine(engine)
            .tier(tier)
            .builder(prog.clone())
            .mem_words(128)
            .write_u32s(0, &ro)
    };
    // Unprobed for the statistics: a sample settles the parked
    // clusters' wakes itself, which would hide a missing replay.
    let run = |engine, tier| build(engine, tier).build().run().expect("must complete");
    // And sampled every cycle, so samples land inside parked stretches
    // and read the `busy` masks there.
    let rows = |engine, tier| {
        let mut m = build(engine, tier).build_probed(IntervalProbe::new(1, 1 << 10));
        m.run().expect("must complete");
        m.probe().rows()
    };
    let s_ref = run(Engine::Reference, TranslationTier::Interpreter);
    let rows_ref = rows(Engine::Reference, TranslationTier::Interpreter);
    assert!(s_ref.stats.stall_scoreboard > 0, "nothing blocked");
    for tier in [TranslationTier::Interpreter, TranslationTier::Block] {
        let s_ff = run(Engine::FastForward, tier);
        assert_eq!(
            s_ref.stats, s_ff.stats,
            "fast-forward stats diverge ({tier:?})"
        );
        assert_eq!(s_ref.spawns, s_ff.spawns, "spawn log diverges ({tier:?})");
        assert_eq!(
            rows_ref,
            rows(Engine::FastForward, tier),
            "fast-forward probe stream diverges ({tier:?})"
        );
    }
}
