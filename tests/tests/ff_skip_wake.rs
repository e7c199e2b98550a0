//! Regression test: a TCU whose `busy_until` equals the first cycle of
//! a fast-forward skip window must keep accruing scoreboard stalls
//! after the jump.
//!
//! The fast-forward engine's quiet-cycle skip jumps the clock without
//! stepping clusters, so the per-cycle wheel wakes that clear expired
//! `busy` bits from the cluster masks do not run. Before
//! `ClusterMasks::wake_through`, a TCU with `busy_until == next` (legal
//! at a skip boundary: the scan treats it as ready, so `min_busy` does
//! not cap the horizon) kept a stale busy bit and became invisible to
//! the mask-driven issue loops until its wheel slot happened to come
//! around again — silently dropping its scoreboard-stall accrual while
//! every other statistic stayed identical.
//!
//! The program below (found by the `engine_agreement` property test and
//! frozen here) arranges exactly that: per-thread FPU and MDU latency
//! issues interleave with a load feeding a write-after-write block, so
//! several threads' latencies expire precisely on skip-window
//! boundaries. The buggy engine under-counted `stall_scoreboard` by 30
//! with all other fields bit-identical.

use xmt_bench::matrix::{self, Cell};
use xmt_integration::genprog::{ro_words, subject};
use xmt_isa::reg::{fr, ir};
use xmt_isa::{AluOp, FpuOp, Instr, MduOp, Program, ProgramBuilder};
use xmt_sim::XmtConfig;

fn program() -> Program {
    let mut b = ProgramBuilder::new();
    let par = b.label();
    let after = b.label();
    b.li(ir(20), 64);
    b.push(Instr::Alu {
        op: AluOp::Sll,
        rd: ir(1),
        rs1: ir(3),
        rs2: ir(9),
    });
    b.push(Instr::Alu {
        op: AluOp::Sll,
        rd: ir(10),
        rs1: ir(2),
        rs2: ir(3),
    });
    b.push(Instr::Fpu {
        op: FpuOp::Add,
        fd: fr(2),
        fs1: fr(2),
        fs2: fr(8),
    });
    b.lw(ir(13), ir(0), 58);
    b.push(Instr::Fpu {
        op: FpuOp::Sub,
        fd: fr(9),
        fs1: fr(11),
        fs2: fr(9),
    });
    b.lw(ir(1), ir(0), 13);
    b.push(Instr::Alu {
        op: AluOp::Add,
        rd: ir(8),
        rs1: ir(12),
        rs2: ir(12),
    });
    b.push(Instr::Alu {
        op: AluOp::Sub,
        rd: ir(6),
        rs1: ir(11),
        rs2: ir(10),
    });
    b.li(ir(22), 12);
    b.spawn(ir(22), par);
    b.jump(after);
    b.bind(par);
    b.tid(ir(19));
    b.slli(ir(20), ir(19), 3);
    b.addi(ir(20), ir(20), 128);
    b.push(Instr::Fpu {
        op: FpuOp::Mul,
        fd: fr(8),
        fs1: fr(4),
        fs2: fr(7),
    });
    b.lw(ir(8), ir(0), 39);
    b.push(Instr::Mdu {
        op: MduOp::Divu,
        rd: ir(13),
        rs1: ir(4),
        rs2: ir(13),
    });
    // WAW on the in-flight load: scoreboard-blocked until the reply.
    b.li(ir(8), 3879331511);
    b.join();
    b.bind(after);
    b.li(ir(20), 64);
    b.halt();
    b.build().unwrap()
}

#[test]
fn skip_boundary_wake_preserves_scoreboard_stalls() {
    let cfg = XmtConfig::xmt_4k().scaled_to(4);
    let ro = ro_words(3709237838518513374);
    let subject = subject(program(), &cfg, 128 + 24 * 8 + 16, ro);
    matrix::agree(&subject, &[Cell::DEFAULT]).unwrap();
}
