//! Binary instruction encoding.
//!
//! A fixed-width 8-byte format — `[opcode, a, b, c, imm₀..imm₃]` —
//! behind a magic header and an instruction count. It is the canonical
//! form of a program: `xmt_sim::simcfg::program_digest` hashes it, so
//! distinct instructions must encode to distinct words.

use crate::instr::{AluOp, BranchCond, FpuOp, Instr, MduOp};
use crate::program::Program;

/// Bytes per encoded instruction.
pub const INSTR_BYTES: usize = 8;
/// Image magic: "XMT1".
pub const MAGIC: [u8; 4] = *b"XMT1";

mod op {
    pub const NOP: u8 = 0x00;
    pub const HALT: u8 = 0x01;
    pub const JOIN: u8 = 0x02;
    pub const LI: u8 = 0x03;
    pub const ALU: u8 = 0x10; // +AluOp index (8 ops)
    pub const ALUI: u8 = 0x18; // +AluOp index
    pub const MDU: u8 = 0x20; // +MduOp index (3 ops)
    pub const FPU: u8 = 0x28; // +FpuOp index (4 ops)
    pub const FNEG: u8 = 0x2C;
    pub const FMOV: u8 = 0x2D;
    pub const FMVIF: u8 = 0x2E;
    pub const FLI: u8 = 0x2F;
    pub const LW: u8 = 0x30;
    pub const SW: u8 = 0x31;
    pub const FLW: u8 = 0x32;
    pub const FSW: u8 = 0x33;
    pub const BRANCH: u8 = 0x38; // +BranchCond index (4)
    pub const JUMP: u8 = 0x3C;
    pub const TID: u8 = 0x40;
    pub const RDGR: u8 = 0x41;
    pub const WRGR: u8 = 0x42;
    pub const PS: u8 = 0x43;
    pub const SPAWN: u8 = 0x44;
    pub const SSPAWN: u8 = 0x45;
}

fn alu_index(o: AluOp) -> u8 {
    match o {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::And => 2,
        AluOp::Or => 3,
        AluOp::Xor => 4,
        AluOp::Sll => 5,
        AluOp::Srl => 6,
        AluOp::Sltu => 7,
    }
}

fn mdu_index(o: MduOp) -> u8 {
    match o {
        MduOp::Mul => 0,
        MduOp::Divu => 1,
        MduOp::Remu => 2,
    }
}

fn fpu_index(o: FpuOp) -> u8 {
    match o {
        FpuOp::Add => 0,
        FpuOp::Sub => 1,
        FpuOp::Mul => 2,
        FpuOp::Div => 3,
    }
}

fn cond_index(c: BranchCond) -> u8 {
    match c {
        BranchCond::Eq => 0,
        BranchCond::Ne => 1,
        BranchCond::Ltu => 2,
        BranchCond::Geu => 3,
    }
}

/// Encode one instruction.
pub fn encode_one(ins: &Instr) -> [u8; INSTR_BYTES] {
    let mut w = [0u8; INSTR_BYTES];
    let (opb, a, b2, c, imm): (u8, u8, u8, u8, u32) = match *ins {
        Instr::Nop => (op::NOP, 0, 0, 0, 0),
        Instr::Halt => (op::HALT, 0, 0, 0, 0),
        Instr::Join => (op::JOIN, 0, 0, 0, 0),
        Instr::Li { rd, imm } => (op::LI, rd.index() as u8, 0, 0, imm),
        Instr::Alu {
            op: o,
            rd,
            rs1,
            rs2,
        } => (
            op::ALU + alu_index(o),
            rd.index() as u8,
            rs1.index() as u8,
            rs2.index() as u8,
            0,
        ),
        Instr::AluI {
            op: o,
            rd,
            rs1,
            imm,
        } => (
            op::ALUI + alu_index(o),
            rd.index() as u8,
            rs1.index() as u8,
            0,
            imm,
        ),
        Instr::Mdu {
            op: o,
            rd,
            rs1,
            rs2,
        } => (
            op::MDU + mdu_index(o),
            rd.index() as u8,
            rs1.index() as u8,
            rs2.index() as u8,
            0,
        ),
        Instr::Fpu {
            op: o,
            fd,
            fs1,
            fs2,
        } => (
            op::FPU + fpu_index(o),
            fd.index() as u8,
            fs1.index() as u8,
            fs2.index() as u8,
            0,
        ),
        Instr::Fneg { fd, fs } => (op::FNEG, fd.index() as u8, fs.index() as u8, 0, 0),
        Instr::Fmov { fd, fs } => (op::FMOV, fd.index() as u8, fs.index() as u8, 0, 0),
        Instr::Fmvif { fd, rs } => (op::FMVIF, fd.index() as u8, rs.index() as u8, 0, 0),
        Instr::Fli { fd, value } => (op::FLI, fd.index() as u8, 0, 0, value.to_bits()),
        Instr::Lw { rd, base, off } => (op::LW, rd.index() as u8, base.index() as u8, 0, off),
        Instr::Sw { rs, base, off } => (op::SW, rs.index() as u8, base.index() as u8, 0, off),
        Instr::Flw { fd, base, off } => (op::FLW, fd.index() as u8, base.index() as u8, 0, off),
        Instr::Fsw { fs, base, off } => (op::FSW, fs.index() as u8, base.index() as u8, 0, off),
        Instr::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => (
            op::BRANCH + cond_index(cond),
            rs1.index() as u8,
            rs2.index() as u8,
            0,
            target as u32,
        ),
        Instr::Jump { target } => (op::JUMP, 0, 0, 0, target as u32),
        Instr::Tid { rd } => (op::TID, rd.index() as u8, 0, 0, 0),
        Instr::ReadGr { rd, src } => (op::RDGR, rd.index() as u8, src.index() as u8, 0, 0),
        Instr::WriteGr { rs, dst } => (op::WRGR, rs.index() as u8, dst.index() as u8, 0, 0),
        Instr::Ps { rd, inc, on } => (
            op::PS,
            rd.index() as u8,
            inc.index() as u8,
            on.index() as u8,
            0,
        ),
        Instr::Spawn { count, entry } => (op::SPAWN, count.index() as u8, 0, 0, entry as u32),
        Instr::Sspawn { rd, count } => (op::SSPAWN, rd.index() as u8, count.index() as u8, 0, 0),
    };
    w[0] = opb;
    w[1] = a;
    w[2] = b2;
    w[3] = c;
    w[4..8].copy_from_slice(&imm.to_le_bytes());
    w
}

/// Serialize a program: magic, u32 instruction count, instructions.
pub fn encode_program(p: &Program) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + p.len() * INSTR_BYTES);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(p.len() as u32).to_le_bytes());
    for ins in p.instrs() {
        out.extend_from_slice(&encode_one(ins));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::reg::{fr, gr, ir};

    /// One of every instruction kind.
    fn exhaustive_program() -> Program {
        let mut b = ProgramBuilder::new();
        let l1 = b.label();
        let l2 = b.label();
        let par = b.label();
        b.li(ir(1), 0xDEAD_BEEF);
        b.add(ir(2), ir(1), ir(0)).sub(ir(3), ir(2), ir(1));
        b.and(ir(4), ir(1), ir(2))
            .or(ir(5), ir(1), ir(2))
            .xor(ir(6), ir(1), ir(2));
        b.sltu(ir(7), ir(1), ir(2));
        b.addi(ir(8), ir(1), 42).andi(ir(9), ir(1), 0xFF);
        b.slli(ir(10), ir(1), 3).srli(ir(11), ir(1), 2);
        b.mul(ir(12), ir(1), ir(2))
            .divu(ir(13), ir(1), ir(2))
            .remu(ir(14), ir(1), ir(2));
        b.lw(ir(15), ir(1), 4).sw(ir(15), ir(1), 8);
        b.flw(fr(1), ir(1), 12).fsw(fr(1), ir(1), 16);
        b.fli(fr(2), core::f32::consts::FRAC_1_SQRT_2);
        b.fadd(fr(3), fr(1), fr(2)).fsub(fr(4), fr(1), fr(2));
        b.fmul(fr(5), fr(1), fr(2)).fdiv(fr(6), fr(1), fr(2));
        b.fneg(fr(7), fr(1)).fmov(fr(8), fr(2));
        b.push(crate::instr::Instr::Fmvif {
            fd: fr(9),
            rs: ir(1),
        });
        b.bind(l1);
        b.beq(ir(1), ir(2), l1).bne(ir(1), ir(2), l1);
        b.bltu(ir(1), ir(2), l2).bgeu(ir(1), ir(2), l2);
        b.bind(l2);
        b.tid(ir(16)).read_gr(ir(17), gr(3)).write_gr(gr(4), ir(17));
        b.ps(ir(18), ir(1), gr(5));
        b.li(ir(19), 2);
        b.spawn(ir(19), par);
        b.jump(l2);
        b.nop();
        b.halt();
        b.bind(par);
        b.sspawn(ir(20), ir(19));
        b.join();
        b.build().unwrap()
    }

    /// Distinct instructions encode to distinct words, so programs
    /// that differ have different digests. (The program's instructions
    /// are pairwise distinct.)
    #[test]
    fn every_instruction_kind_encodes_distinctly() {
        let p = exhaustive_program();
        let words: std::collections::HashSet<_> = p.instrs().iter().map(encode_one).collect();
        assert_eq!(words.len(), p.len(), "two instructions share a word");
    }

    #[test]
    fn image_size_formula() {
        let p = exhaustive_program();
        assert_eq!(encode_program(&p).len(), 8 + p.len() * INSTR_BYTES);
    }
}
