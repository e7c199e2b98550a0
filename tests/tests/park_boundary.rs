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
//! bit-identical. It runs again in `ci.sh` beside the determinism
//! matrix's release-only cells, under the codegen the benchmark times.

use xmt_bench::matrix::{self, Cell, TIERS};
use xmt_integration::genprog::subject;
use xmt_isa::reg::{fr, ir};
use xmt_isa::{FpuOp, Instr, MduOp, Program, ProgramBuilder};
use xmt_sim::{Engine, TranslationTier, XmtConfig};

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
    let ro: Vec<u32> = (0..64u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let cfg = XmtConfig::xmt_4k().scaled_to(4);
    let subject = subject(program(), &cfg, 128, ro);
    // Unprobed for the statistics: a sample settles the parked
    // clusters' wakes itself, which would hide a missing replay. And
    // sampled every cycle, so samples land inside parked stretches and
    // read the `busy` masks there.
    let mut cells = vec![Cell::on(Engine::Reference, TranslationTier::Interpreter).probed(1)];
    for tier in TIERS {
        let cell = Cell::on(Engine::FastForward, tier);
        cells.extend([cell, cell.probed(1)]);
    }
    let agreed = matrix::agree(&subject, &cells).unwrap();
    assert!(
        agreed.oracle.report.stats.stall_scoreboard > 0,
        "nothing blocked"
    );
}
