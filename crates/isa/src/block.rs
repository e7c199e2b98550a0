//! Superblock extraction and micro-op lowering — the build-time half
//! of the simulator's block-compiled execution tier.
//!
//! [`BlockMap`] partitions a [`DecodedProgram`] into *superblocks*:
//! maximal straight-line pc ranges. A block starts at pc 0, at every
//! static control target (branch/jump destinations and spawn entries)
//! and immediately after every terminator (branch, jump, `ps`/`sspawn`,
//! `join`, and the serial-only instructions that fault in a TCU); it
//! runs to the next block start. Every pc therefore belongs to exactly
//! one block, and entering a block at its leader covers every pc a
//! thread can reach without crossing a control seam.
//!
//! [`lower_op`] compiles one decoded instruction into a flat
//! [`MicroOp`]: opcode selector, operand register indices, immediate,
//! issue class and unit latency pre-extracted, so the simulator's trace
//! cache replays straight-line code with one dense `u8` dispatch
//! ([`exec_uop`]) instead of a nested `Instr` match per cycle per TCU.
//! Instructions with machine-level side effects (`ps`, `sspawn`,
//! `join`, `spawn`, `halt`) lower to [`UopKind::Boundary`] records that
//! the simulator always executes through its existing per-instruction
//! path — which is what keeps cycle accounting bit-identical at every
//! block seam by construction.

use crate::decoded::{DecodedInstr, DecodedProgram, StepClass};
use crate::instr::{eval_alu, eval_branch, AluOp, BranchCond, FpuOp, Instr, MduOp};
use crate::interp::exec_compute;
use crate::reg::{Regs, NUM_GREGS};

/// Dense micro-op selector. Compute kinds are handled by [`exec_uop`];
/// branch kinds by [`eval_branch_uop`]; memory kinds carry their
/// operands for the simulator's LSU arm; [`UopKind::Boundary`] marks
/// instructions the simulator must run through the interpreter path;
/// [`UopKind::Cold`] marks a slot whose block has not been lowered yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)] // selector variants mirror `Instr` one-to-one
pub enum UopKind {
    Cold = 0,
    // ALU-class compute.
    Li,
    Tid,
    ReadGr,
    Fli,
    Fmov,
    Fmvif,
    /// ALU-class instruction the execution core declines (`wrgr` from
    /// a TCU): [`exec_uop`] returns `false` exactly where
    /// `exec_compute` does.
    Ignore,
    AluAdd,
    AluSub,
    AluAnd,
    AluOr,
    AluXor,
    AluSll,
    AluSrl,
    AluSltu,
    AluIAdd,
    AluISub,
    AluIAnd,
    AluIOr,
    AluIXor,
    AluISll,
    AluISrl,
    AluISltu,
    // FPU-class compute.
    FpuAdd,
    FpuSub,
    FpuMul,
    FpuDiv,
    Fneg,
    // MDU-class compute.
    MduMul,
    MduDivu,
    MduRemu,
    // LSU class: `a` = data register, `b` = base register, `imm` = off.
    Lw,
    Flw,
    Sw,
    Fsw,
    // Branch class: `b`/`c` = sources, `imm` = target.
    BrEq,
    BrNe,
    BrLtu,
    BrGeu,
    Jump,
    /// Machine-level side effects: replay via the interpreter path.
    Boundary,
    Nop,
}

/// [`MicroOp::flags`] bit: the next pc starts a new block, so a
/// sequential engine falling through this op must re-enter the cache.
pub const UOP_ENDS_BLOCK: u8 = 1;

/// Per-unit issue latencies, resolved into each [`MicroOp`] at lowering
/// time (the simulator's timing model owns the numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnitLat {
    /// FPU occupancy in cycles.
    pub fpu: u8,
    /// MDU occupancy in cycles.
    pub mdu: u8,
}

/// One pre-lowered execution record: a 12-byte threaded-code "word"
/// holding everything the replay loop needs with no `Instr` in sight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Dispatch selector.
    pub kind: UopKind,
    /// Destination register index (or store-data register).
    pub a: u8,
    /// First source register index (base register for memory ops).
    pub b: u8,
    /// Second source register index.
    pub c: u8,
    /// Static issue class (mirrors [`DecodedInstr::step`]).
    pub cls: StepClass,
    /// Unit occupancy in cycles (FPU/MDU kinds; 0 elsewhere).
    pub lat: u8,
    /// [`UOP_ENDS_BLOCK`] and friends.
    pub flags: u8,
    /// Immediate: constant, branch/jump target, or memory word offset.
    pub imm: u32,
}

impl MicroOp {
    /// The not-yet-lowered sentinel filling a fresh trace cache.
    pub const COLD: MicroOp = MicroOp {
        kind: UopKind::Cold,
        a: 0,
        b: 0,
        c: 0,
        cls: StepClass::Illegal,
        lat: 0,
        flags: 0,
        imm: 0,
    };

    /// True when the pc after this op starts a new block.
    #[inline(always)]
    pub fn ends_block(&self) -> bool {
        self.flags & UOP_ENDS_BLOCK != 0
    }
}

/// Lower one decoded instruction. `ends` marks the last op of a block
/// (set from the [`BlockMap`], not from the opcode: a branch target
/// can split otherwise straight-line code).
pub fn lower_op(d: &DecodedInstr, lat: UnitLat, ends: bool) -> MicroOp {
    let mut u = MicroOp {
        kind: UopKind::Ignore,
        a: 0,
        b: 0,
        c: 0,
        cls: d.step,
        lat: 0,
        flags: if ends { UOP_ENDS_BLOCK } else { 0 },
        imm: 0,
    };
    let alu_rr = |op: AluOp| match op {
        AluOp::Add => UopKind::AluAdd,
        AluOp::Sub => UopKind::AluSub,
        AluOp::And => UopKind::AluAnd,
        AluOp::Or => UopKind::AluOr,
        AluOp::Xor => UopKind::AluXor,
        AluOp::Sll => UopKind::AluSll,
        AluOp::Srl => UopKind::AluSrl,
        AluOp::Sltu => UopKind::AluSltu,
    };
    let alu_ri = |op: AluOp| match op {
        AluOp::Add => UopKind::AluIAdd,
        AluOp::Sub => UopKind::AluISub,
        AluOp::And => UopKind::AluIAnd,
        AluOp::Or => UopKind::AluIOr,
        AluOp::Xor => UopKind::AluIXor,
        AluOp::Sll => UopKind::AluISll,
        AluOp::Srl => UopKind::AluISrl,
        AluOp::Sltu => UopKind::AluISltu,
    };
    match d.instr {
        Instr::Li { rd, imm } => {
            u.kind = UopKind::Li;
            u.a = rd.index() as u8;
            u.imm = imm;
        }
        Instr::Alu { op, rd, rs1, rs2 } => {
            u.kind = alu_rr(op);
            u.a = rd.index() as u8;
            u.b = rs1.index() as u8;
            u.c = rs2.index() as u8;
        }
        Instr::AluI { op, rd, rs1, imm } => {
            u.kind = alu_ri(op);
            u.a = rd.index() as u8;
            u.b = rs1.index() as u8;
            u.imm = imm;
        }
        Instr::Mdu { op, rd, rs1, rs2 } => {
            u.kind = match op {
                MduOp::Mul => UopKind::MduMul,
                MduOp::Divu => UopKind::MduDivu,
                MduOp::Remu => UopKind::MduRemu,
            };
            u.a = rd.index() as u8;
            u.b = rs1.index() as u8;
            u.c = rs2.index() as u8;
            u.lat = lat.mdu;
        }
        Instr::Lw { rd, base, off } => {
            u.kind = UopKind::Lw;
            u.a = rd.index() as u8;
            u.b = base.index() as u8;
            u.imm = off;
        }
        Instr::Sw { rs, base, off } => {
            u.kind = UopKind::Sw;
            u.a = rs.index() as u8;
            u.b = base.index() as u8;
            u.imm = off;
        }
        Instr::Flw { fd, base, off } => {
            u.kind = UopKind::Flw;
            u.a = fd.index() as u8;
            u.b = base.index() as u8;
            u.imm = off;
        }
        Instr::Fsw { fs, base, off } => {
            u.kind = UopKind::Fsw;
            u.a = fs.index() as u8;
            u.b = base.index() as u8;
            u.imm = off;
        }
        Instr::Fli { fd, value } => {
            u.kind = UopKind::Fli;
            u.a = fd.index() as u8;
            u.imm = value.to_bits();
        }
        Instr::Fpu { op, fd, fs1, fs2 } => {
            u.kind = match op {
                FpuOp::Add => UopKind::FpuAdd,
                FpuOp::Sub => UopKind::FpuSub,
                FpuOp::Mul => UopKind::FpuMul,
                FpuOp::Div => UopKind::FpuDiv,
            };
            u.a = fd.index() as u8;
            u.b = fs1.index() as u8;
            u.c = fs2.index() as u8;
            u.lat = lat.fpu;
        }
        Instr::Fneg { fd, fs } => {
            u.kind = UopKind::Fneg;
            u.a = fd.index() as u8;
            u.b = fs.index() as u8;
            u.lat = lat.fpu;
        }
        Instr::Fmov { fd, fs } => {
            u.kind = UopKind::Fmov;
            u.a = fd.index() as u8;
            u.b = fs.index() as u8;
        }
        Instr::Fmvif { fd, rs } => {
            u.kind = UopKind::Fmvif;
            u.a = fd.index() as u8;
            u.b = rs.index() as u8;
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            u.kind = match cond {
                BranchCond::Eq => UopKind::BrEq,
                BranchCond::Ne => UopKind::BrNe,
                BranchCond::Ltu => UopKind::BrLtu,
                BranchCond::Geu => UopKind::BrGeu,
            };
            u.b = rs1.index() as u8;
            u.c = rs2.index() as u8;
            u.imm = target as u32;
        }
        Instr::Jump { target } => {
            u.kind = UopKind::Jump;
            u.imm = target as u32;
        }
        Instr::Tid { rd } => {
            u.kind = UopKind::Tid;
            u.a = rd.index() as u8;
        }
        Instr::ReadGr { rd, src } => {
            u.kind = UopKind::ReadGr;
            u.a = rd.index() as u8;
            u.b = src.index() as u8;
        }
        Instr::WriteGr { .. } => u.kind = UopKind::Ignore,
        Instr::Nop => u.kind = UopKind::Nop,
        Instr::Ps { .. }
        | Instr::Sspawn { .. }
        | Instr::Spawn { .. }
        | Instr::Join
        | Instr::Halt => u.kind = UopKind::Boundary,
    }
    u
}

/// Execute a compute-class micro-op against a thread's registers.
/// Returns `false` for kinds that are not straight-line compute
/// (memory, branch, boundary, cold) — the caller falls back to its
/// per-instruction path. Semantics are exactly
/// [`crate::interp::exec_compute`]: both dispatch into
/// the same pure `eval_*` kernels.
#[inline(always)]
pub fn exec_uop<R: Regs>(u: &MicroOp, rf: &mut R, gregs: &[u32; NUM_GREGS]) -> bool {
    #[inline(always)]
    fn rr<R: Regs>(u: &MicroOp, rf: &mut R, op: AluOp) {
        let v = eval_alu(op, rf.read_i_raw(u.b), rf.read_i_raw(u.c));
        rf.write_i_raw(u.a, v);
    }
    #[inline(always)]
    fn ri<R: Regs>(u: &MicroOp, rf: &mut R, op: AluOp) {
        let v = eval_alu(op, rf.read_i_raw(u.b), u.imm);
        rf.write_i_raw(u.a, v);
    }
    #[inline(always)]
    fn fp<R: Regs>(u: &MicroOp, rf: &mut R, op: FpuOp) {
        let v = crate::instr::eval_fpu(op, rf.read_f_raw(u.b), rf.read_f_raw(u.c));
        rf.write_f_raw(u.a, v);
    }
    #[inline(always)]
    fn md<R: Regs>(u: &MicroOp, rf: &mut R, op: MduOp) {
        let v = crate::instr::eval_mdu(op, rf.read_i_raw(u.b), rf.read_i_raw(u.c));
        rf.write_i_raw(u.a, v);
    }
    match u.kind {
        UopKind::Li => rf.write_i_raw(u.a, u.imm),
        UopKind::Tid => {
            let tid = rf.tid();
            rf.write_i_raw(u.a, tid);
        }
        UopKind::ReadGr => rf.write_i_raw(u.a, gregs[(u.b as usize) % NUM_GREGS]),
        UopKind::Fli => rf.write_f_raw(u.a, f32::from_bits(u.imm)),
        UopKind::Fmov => {
            let v = rf.read_f_raw(u.b);
            rf.write_f_raw(u.a, v);
        }
        UopKind::Fmvif => {
            let v = f32::from_bits(rf.read_i_raw(u.b));
            rf.write_f_raw(u.a, v);
        }
        UopKind::Nop => {}
        UopKind::AluAdd => rr(u, rf, AluOp::Add),
        UopKind::AluSub => rr(u, rf, AluOp::Sub),
        UopKind::AluAnd => rr(u, rf, AluOp::And),
        UopKind::AluOr => rr(u, rf, AluOp::Or),
        UopKind::AluXor => rr(u, rf, AluOp::Xor),
        UopKind::AluSll => rr(u, rf, AluOp::Sll),
        UopKind::AluSrl => rr(u, rf, AluOp::Srl),
        UopKind::AluSltu => rr(u, rf, AluOp::Sltu),
        UopKind::AluIAdd => ri(u, rf, AluOp::Add),
        UopKind::AluISub => ri(u, rf, AluOp::Sub),
        UopKind::AluIAnd => ri(u, rf, AluOp::And),
        UopKind::AluIOr => ri(u, rf, AluOp::Or),
        UopKind::AluIXor => ri(u, rf, AluOp::Xor),
        UopKind::AluISll => ri(u, rf, AluOp::Sll),
        UopKind::AluISrl => ri(u, rf, AluOp::Srl),
        UopKind::AluISltu => ri(u, rf, AluOp::Sltu),
        UopKind::FpuAdd => fp(u, rf, FpuOp::Add),
        UopKind::FpuSub => fp(u, rf, FpuOp::Sub),
        UopKind::FpuMul => fp(u, rf, FpuOp::Mul),
        UopKind::FpuDiv => fp(u, rf, FpuOp::Div),
        UopKind::Fneg => {
            let v = -rf.read_f_raw(u.b);
            rf.write_f_raw(u.a, v);
        }
        UopKind::MduMul => md(u, rf, MduOp::Mul),
        UopKind::MduDivu => md(u, rf, MduOp::Divu),
        UopKind::MduRemu => md(u, rf, MduOp::Remu),
        UopKind::Ignore
        | UopKind::Lw
        | UopKind::Flw
        | UopKind::Sw
        | UopKind::Fsw
        | UopKind::BrEq
        | UopKind::BrNe
        | UopKind::BrLtu
        | UopKind::BrGeu
        | UopKind::Jump
        | UopKind::Boundary
        | UopKind::Cold => return false,
    }
    true
}

/// Resolve a branch-class micro-op: `Some(target)` when control
/// transfers, `None` for an untaken conditional branch. The caller must
/// have excluded [`UopKind::Cold`] first (kinds outside the branch
/// class report "untaken", which would be wrong for a cold slot).
#[inline(always)]
pub fn eval_branch_uop<R: Regs>(u: &MicroOp, rf: &R) -> Option<usize> {
    debug_assert_ne!(u.kind, UopKind::Cold);
    let taken = match u.kind {
        UopKind::Jump => true,
        UopKind::BrEq => eval_branch(BranchCond::Eq, rf.read_i_raw(u.b), rf.read_i_raw(u.c)),
        UopKind::BrNe => eval_branch(BranchCond::Ne, rf.read_i_raw(u.b), rf.read_i_raw(u.c)),
        UopKind::BrLtu => eval_branch(BranchCond::Ltu, rf.read_i_raw(u.b), rf.read_i_raw(u.c)),
        UopKind::BrGeu => eval_branch(BranchCond::Geu, rf.read_i_raw(u.b), rf.read_i_raw(u.c)),
        _ => false,
    };
    taken.then_some(u.imm as usize)
}

/// Reference implementation of one micro-op step for differential
/// testing: run the *interpreter* core on the decoded instruction the
/// micro-op was lowered from. Used by tests to pin `exec_uop` ==
/// `exec_compute` on every compute instruction.
pub fn exec_interp<R: Regs>(d: &DecodedInstr, rf: &mut R, gregs: &[u32; NUM_GREGS]) -> bool {
    exec_compute(&d.instr, rf, gregs)
}

/// The superblock partition of a program: which pcs lead a block and
/// which terminate one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMap {
    leader: Vec<bool>,
    blocks: usize,
}

/// True when `step` ends a superblock: control transfer, a
/// machine-level side effect that changes scheduling state, or a
/// serial-only instruction (which faults the TCU).
#[inline]
fn terminates(step: StepClass) -> bool {
    matches!(
        step,
        StepClass::Branch | StepClass::Ps | StepClass::Join | StepClass::Illegal
    )
}

impl BlockMap {
    /// Partition `decoded` into superblocks.
    pub fn new(decoded: &DecodedProgram) -> Self {
        Self::from_instrs(decoded.instrs())
    }

    /// Partition a decoded instruction slice into superblocks — the
    /// same partition [`BlockMap::new`] computes, exposed so external
    /// validators (`xmt-verify`'s translation-validation pass) can
    /// recompute the canonical partition without a [`DecodedProgram`].
    pub fn from_instrs(instrs: &[DecodedInstr]) -> Self {
        let n = instrs.len();
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (pc, d) in instrs.iter().enumerate() {
            if let Some(t) = d.instr.control_target() {
                if t < n {
                    leader[t] = true;
                }
            }
            if terminates(d.step) && pc + 1 < n {
                leader[pc + 1] = true;
            }
        }
        let blocks = leader.iter().filter(|&&l| l).count();
        Self { leader, blocks }
    }

    /// True when `pc` starts a superblock.
    #[inline(always)]
    pub fn is_leader(&self, pc: usize) -> bool {
        self.leader.get(pc).copied().unwrap_or(false)
    }

    /// The leader of the block containing `pc` (walks backwards; used
    /// only on the cold-miss path).
    pub fn leader_of(&self, pc: usize) -> usize {
        let mut p = pc.min(self.leader.len().saturating_sub(1));
        while p > 0 && !self.leader[p] {
            p -= 1;
        }
        p
    }

    /// Number of ops in the block led by `entry`: up to (excluding) the
    /// next leader or the end of the program.
    pub fn block_len(&self, entry: usize) -> usize {
        let n = self.leader.len();
        debug_assert!(entry < n && self.leader[entry], "not a block leader");
        let mut end = entry + 1;
        while end < n && !self.leader[end] {
            end += 1;
        }
        end - entry
    }

    /// Total number of superblocks.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Number of pcs covered (the program length).
    pub fn len(&self) -> usize {
        self.leader.len()
    }

    /// True for an empty program.
    pub fn is_empty(&self) -> bool {
        self.leader.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::reg::{fr, gr, ir, RegFile};

    const LAT: UnitLat = UnitLat { fpu: 4, mdu: 8 };

    fn decode(build: impl FnOnce(&mut ProgramBuilder)) -> DecodedProgram {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        DecodedProgram::new(&b.build().unwrap())
    }

    #[test]
    fn leaders_split_at_terminators_and_targets() {
        // 0: li; 1: beq -> 4; 2: add; 3: add; 4: mul; 5: halt
        let dec = decode(|b| {
            let l = b.label();
            b.li(ir(1), 3);
            b.push(Instr::Branch {
                cond: BranchCond::Eq,
                rs1: ir(1),
                rs2: ir(2),
                target: 4,
            });
            b.push(Instr::Alu {
                op: AluOp::Add,
                rd: ir(3),
                rs1: ir(1),
                rs2: ir(1),
            });
            b.push(Instr::Alu {
                op: AluOp::Add,
                rd: ir(3),
                rs1: ir(3),
                rs2: ir(1),
            });
            b.bind(l);
            b.push(Instr::Mdu {
                op: MduOp::Mul,
                rd: ir(4),
                rs1: ir(3),
                rs2: ir(3),
            });
            b.halt();
        });
        let map = BlockMap::new(&dec);
        let leaders: Vec<usize> = (0..map.len()).filter(|&pc| map.is_leader(pc)).collect();
        // 0 (entry), 2 (after branch), 4 (branch target), 5 (after the
        // mul block is NOT a leader — mul doesn't terminate; halt is in
        // the same block as the mul).
        assert_eq!(leaders, vec![0, 2, 4]);
        assert_eq!(map.blocks(), 3);
        assert_eq!(map.block_len(0), 2);
        assert_eq!(map.block_len(2), 2);
        assert_eq!(map.block_len(4), 2);
        assert_eq!(map.leader_of(3), 2);
        assert_eq!(map.leader_of(5), 4);
    }

    #[test]
    fn branch_target_splits_straight_line_code() {
        // A backward branch into the middle of otherwise straight code.
        // 0: li; 1: add; 2: add; 3: bne -> 1; 4: halt
        let dec = decode(|b| {
            b.li(ir(1), 0);
            let l = b.label();
            b.bind(l);
            b.push(Instr::Alu {
                op: AluOp::Add,
                rd: ir(1),
                rs1: ir(1),
                rs2: ir(2),
            });
            b.push(Instr::Alu {
                op: AluOp::Add,
                rd: ir(1),
                rs1: ir(1),
                rs2: ir(2),
            });
            b.push(Instr::Branch {
                cond: BranchCond::Ne,
                rs1: ir(1),
                rs2: ir(3),
                target: 1,
            });
            b.halt();
        });
        let map = BlockMap::new(&dec);
        assert!(map.is_leader(1), "branch target must lead a block");
        assert_eq!(map.block_len(0), 1, "the split shortens the entry block");
        assert_eq!(map.block_len(1), 3, "add/add/bne form one superblock");
    }

    #[test]
    fn lowered_compute_agrees_with_interpreter() {
        let gregs: [u32; NUM_GREGS] = std::array::from_fn(|i| (i as u32).wrapping_mul(0x1234_5677));
        let catalog: Vec<Instr> = vec![
            Instr::Li {
                rd: ir(5),
                imm: 0xDEAD_BEEF,
            },
            Instr::Li { rd: ir(0), imm: 7 }, // r0 write discarded
            Instr::Tid { rd: ir(6) },
            Instr::ReadGr {
                rd: ir(7),
                src: gr(3),
            },
            Instr::Fli {
                fd: fr(2),
                value: -0.0,
            },
            Instr::Fmov {
                fd: fr(3),
                fs: fr(2),
            },
            Instr::Fmvif {
                fd: fr(4),
                rs: ir(5),
            },
            Instr::Fneg {
                fd: fr(5),
                fs: fr(4),
            },
            Instr::Nop,
        ]
        .into_iter()
        .chain(
            [
                AluOp::Add,
                AluOp::Sub,
                AluOp::And,
                AluOp::Or,
                AluOp::Xor,
                AluOp::Sll,
                AluOp::Srl,
                AluOp::Sltu,
            ]
            .into_iter()
            .flat_map(|op| {
                [
                    Instr::Alu {
                        op,
                        rd: ir(8),
                        rs1: ir(5),
                        rs2: ir(6),
                    },
                    Instr::AluI {
                        op,
                        rd: ir(9),
                        rs1: ir(8),
                        imm: 35,
                    },
                ]
            }),
        )
        .chain(
            [MduOp::Mul, MduOp::Divu, MduOp::Remu]
                .into_iter()
                .map(|op| {
                    Instr::Mdu {
                        op,
                        rd: ir(10),
                        rs1: ir(8),
                        rs2: ir(0), // division by zero / x % 0 paths included
                    }
                }),
        )
        .chain(
            [FpuOp::Add, FpuOp::Sub, FpuOp::Mul, FpuOp::Div]
                .into_iter()
                .map(|op| Instr::Fpu {
                    op,
                    fd: fr(6),
                    fs1: fr(4),
                    fs2: fr(5),
                }),
        )
        .collect();

        // Two register files evolved in lockstep: one by the
        // interpreter core, one by micro-op replay. State is carried
        // across instructions so later ops see earlier results.
        let mut rf_i = RegFile::new(13);
        let mut rf_u = RegFile::new(13);
        for (i, rf) in [&mut rf_i, &mut rf_u].into_iter().enumerate() {
            let _ = i;
            for r in 1..32 {
                rf.write_i(ir(r), (r as u32).wrapping_mul(0x9E37_79B9));
                rf.write_f(fr(r), r as f32 * 0.37 - 3.0);
            }
        }
        // `wrgr` is ALU-class but declined by both cores, identically.
        {
            let ins = Instr::WriteGr {
                rs: ir(5),
                dst: gr(1),
            };
            let d = DecodedInstr::new(ins);
            let u = lower_op(&d, LAT, false);
            assert_eq!(u.kind, UopKind::Ignore);
            assert!(!exec_interp(&d, &mut rf_i, &gregs));
            assert!(!exec_uop(&u, &mut rf_u, &gregs));
        }
        for ins in catalog {
            let d = DecodedInstr::new(ins);
            let u = lower_op(&d, LAT, false);
            let hi = exec_interp(&d, &mut rf_i, &gregs);
            let hu = exec_uop(&u, &mut rf_u, &gregs);
            assert_eq!(hi, hu, "handled-ness diverges on {ins:?}");
            assert!(hi, "catalog instruction {ins:?} must be compute-class");
            for r in 0..32 {
                assert_eq!(
                    rf_i.read_i(ir(r)),
                    rf_u.read_i(ir(r)),
                    "ireg {r} diverges after {ins:?}"
                );
                assert_eq!(
                    rf_i.read_f(fr(r)).to_bits(),
                    rf_u.read_f(fr(r)).to_bits(),
                    "freg {r} diverges after {ins:?}"
                );
            }
        }
    }

    #[test]
    fn branch_uops_agree_with_eval_branch() {
        let mut rf = RegFile::new(0);
        rf.write_i(ir(1), 5);
        rf.write_i(ir(2), 9);
        for cond in [
            BranchCond::Eq,
            BranchCond::Ne,
            BranchCond::Ltu,
            BranchCond::Geu,
        ] {
            for (a, b) in [(1usize, 2usize), (2, 1), (1, 1)] {
                let ins = Instr::Branch {
                    cond,
                    rs1: ir(a),
                    rs2: ir(b),
                    target: 17,
                };
                let u = lower_op(&DecodedInstr::new(ins), LAT, true);
                let want = eval_branch(cond, rf.read_i(ir(a)), rf.read_i(ir(b)));
                assert_eq!(
                    eval_branch_uop(&u, &rf),
                    want.then_some(17),
                    "{cond:?} {a} {b}"
                );
                assert!(!exec_uop(&u, &mut rf.clone(), &[0; NUM_GREGS]));
            }
        }
        let j = lower_op(&DecodedInstr::new(Instr::Jump { target: 3 }), LAT, true);
        assert_eq!(eval_branch_uop(&j, &rf), Some(3));
    }

    #[test]
    fn boundary_and_latency_lowering() {
        for ins in [
            Instr::Ps {
                rd: ir(1),
                inc: ir(2),
                on: gr(0),
            },
            Instr::Sspawn {
                rd: ir(1),
                count: ir(2),
            },
            Instr::Join,
            Instr::Halt,
            Instr::Spawn {
                count: ir(1),
                entry: 0,
            },
        ] {
            let u = lower_op(&DecodedInstr::new(ins), LAT, true);
            assert_eq!(u.kind, UopKind::Boundary, "{ins:?}");
            assert!(!exec_uop(&u, &mut RegFile::new(0), &[0; NUM_GREGS]));
        }
        let f = lower_op(
            &DecodedInstr::new(Instr::Fpu {
                op: FpuOp::Mul,
                fd: fr(1),
                fs1: fr(2),
                fs2: fr(3),
            }),
            LAT,
            false,
        );
        assert_eq!(f.lat, 4);
        assert_eq!(f.cls, StepClass::Fpu);
        let m = lower_op(
            &DecodedInstr::new(Instr::Mdu {
                op: MduOp::Mul,
                rd: ir(1),
                rs1: ir(2),
                rs2: ir(3),
            }),
            LAT,
            false,
        );
        assert_eq!(m.lat, 8);
        assert_eq!(m.cls, StepClass::Mdu);
        let l = lower_op(
            &DecodedInstr::new(Instr::Lw {
                rd: ir(4),
                base: ir(5),
                off: 9,
            }),
            LAT,
            true,
        );
        assert_eq!((l.kind, l.a, l.b, l.imm), (UopKind::Lw, 4, 5, 9));
        assert!(l.ends_block());
    }

    #[test]
    fn microop_is_small() {
        assert!(
            std::mem::size_of::<MicroOp>() <= 12,
            "MicroOp grew past 12 bytes; the replay loop's cache \
             footprint is part of the tier's perf contract"
        );
    }
}
