//! Program container and the label-resolving builder (assembler DSL).
//!
//! XMT kernels in this workspace are *generated* by Rust code (the
//! moral equivalent of the XMTC compiler's output): a
//! [`ProgramBuilder`] appends instructions, using [`Label`]s for
//! control flow, and `build()` patches every branch target and checks
//! structural validity.

use crate::instr::{AluOp, BranchCond, FpuOp, Instr, MduOp};
use crate::reg::{FReg, GReg, IReg};
use std::fmt;

/// An abstract jump target handed out by [`ProgramBuilder::label`] and
/// fixed to an instruction index by [`ProgramBuilder::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// A built, immutable program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    instrs: Vec<Instr>,
}

/// Errors detected when finalizing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A label was referenced but never bound.
    UnboundLabel(usize),
    /// A branch/jump/spawn target fell outside the program.
    TargetOutOfRange {
        /// Instruction index of the fault.
        at: usize,
        /// Resolved branch target (instruction index).
        target: usize,
    },
    /// The program is empty.
    Empty,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnboundLabel(l) => write!(f, "label {l} referenced but never bound"),
            BuildError::TargetOutOfRange { at, target } => {
                write!(f, "instruction {at} targets {target}, outside the program")
            }
            BuildError::Empty => write!(f, "program is empty"),
        }
    }
}

impl std::error::Error for BuildError {}

impl Program {
    /// The instruction stream.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Length/count of contained items.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if there are no items.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Fetch one instruction (panics on out-of-range pc; the builder
    /// guarantees all in-program targets are valid).
    #[inline(always)]
    pub fn fetch(&self, pc: usize) -> Instr {
        self.instrs[pc]
    }

    /// Human-readable disassembly, one instruction per line.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (i, ins) in self.instrs.iter().enumerate() {
            out.push_str(&format!("{i:>6}: {ins}\n"));
        }
        out
    }
}

/// Incremental program builder with label fixup.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    bound: Vec<Option<usize>>,
    /// (instruction index, label id) pairs awaiting patch.
    fixups: Vec<(usize, usize)>,
}

impl ProgramBuilder {
    /// Construct a new instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.bound.push(None);
        Label(self.bound.len() - 1)
    }

    /// Bind `label` to the current position.
    pub fn bind(&mut self, label: Label) {
        assert!(
            label.0 < self.bound.len(),
            "label {} was not allocated by this builder",
            label.0
        );
        assert!(self.bound[label.0].is_none(), "label bound twice");
        self.bound[label.0] = Some(self.instrs.len());
    }

    /// Append a raw instruction.
    pub fn push(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(i);
        self
    }

    fn push_with_label(&mut self, i: Instr, label: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), label.0));
        self.instrs.push(i);
        self
    }

    // ---- integer ----
    /// Emit `li`.
    pub fn li(&mut self, rd: IReg, imm: u32) -> &mut Self {
        self.push(Instr::Li { rd, imm })
    }
    /// Emit `add`.
    pub fn add(&mut self, rd: IReg, rs1: IReg, rs2: IReg) -> &mut Self {
        self.push(Instr::Alu {
            op: AluOp::Add,
            rd,
            rs1,
            rs2,
        })
    }
    /// Emit `sub`.
    pub fn sub(&mut self, rd: IReg, rs1: IReg, rs2: IReg) -> &mut Self {
        self.push(Instr::Alu {
            op: AluOp::Sub,
            rd,
            rs1,
            rs2,
        })
    }
    /// Emit `and`.
    pub fn and(&mut self, rd: IReg, rs1: IReg, rs2: IReg) -> &mut Self {
        self.push(Instr::Alu {
            op: AluOp::And,
            rd,
            rs1,
            rs2,
        })
    }
    /// Emit `or`.
    pub fn or(&mut self, rd: IReg, rs1: IReg, rs2: IReg) -> &mut Self {
        self.push(Instr::Alu {
            op: AluOp::Or,
            rd,
            rs1,
            rs2,
        })
    }
    /// Emit `xor`.
    pub fn xor(&mut self, rd: IReg, rs1: IReg, rs2: IReg) -> &mut Self {
        self.push(Instr::Alu {
            op: AluOp::Xor,
            rd,
            rs1,
            rs2,
        })
    }
    /// Emit `addi`.
    pub fn addi(&mut self, rd: IReg, rs1: IReg, imm: u32) -> &mut Self {
        self.push(Instr::AluI {
            op: AluOp::Add,
            rd,
            rs1,
            imm,
        })
    }
    /// Emit `andi`.
    pub fn andi(&mut self, rd: IReg, rs1: IReg, imm: u32) -> &mut Self {
        self.push(Instr::AluI {
            op: AluOp::And,
            rd,
            rs1,
            imm,
        })
    }
    /// Emit `slli`.
    pub fn slli(&mut self, rd: IReg, rs1: IReg, sh: u32) -> &mut Self {
        self.push(Instr::AluI {
            op: AluOp::Sll,
            rd,
            rs1,
            imm: sh,
        })
    }
    /// Emit `srli`.
    pub fn srli(&mut self, rd: IReg, rs1: IReg, sh: u32) -> &mut Self {
        self.push(Instr::AluI {
            op: AluOp::Srl,
            rd,
            rs1,
            imm: sh,
        })
    }
    /// Emit `sltu`.
    pub fn sltu(&mut self, rd: IReg, rs1: IReg, rs2: IReg) -> &mut Self {
        self.push(Instr::Alu {
            op: AluOp::Sltu,
            rd,
            rs1,
            rs2,
        })
    }
    /// Emit `mul`.
    pub fn mul(&mut self, rd: IReg, rs1: IReg, rs2: IReg) -> &mut Self {
        self.push(Instr::Mdu {
            op: MduOp::Mul,
            rd,
            rs1,
            rs2,
        })
    }
    /// Emit `divu`.
    pub fn divu(&mut self, rd: IReg, rs1: IReg, rs2: IReg) -> &mut Self {
        self.push(Instr::Mdu {
            op: MduOp::Divu,
            rd,
            rs1,
            rs2,
        })
    }
    /// Emit `remu`.
    pub fn remu(&mut self, rd: IReg, rs1: IReg, rs2: IReg) -> &mut Self {
        self.push(Instr::Mdu {
            op: MduOp::Remu,
            rd,
            rs1,
            rs2,
        })
    }

    // ---- memory ----
    /// Emit `lw`.
    pub fn lw(&mut self, rd: IReg, base: IReg, off: u32) -> &mut Self {
        self.push(Instr::Lw { rd, base, off })
    }
    /// Emit `sw`.
    pub fn sw(&mut self, rs: IReg, base: IReg, off: u32) -> &mut Self {
        self.push(Instr::Sw { rs, base, off })
    }
    /// Emit `flw`.
    pub fn flw(&mut self, fd: FReg, base: IReg, off: u32) -> &mut Self {
        self.push(Instr::Flw { fd, base, off })
    }
    /// Emit `fsw`.
    pub fn fsw(&mut self, fs: FReg, base: IReg, off: u32) -> &mut Self {
        self.push(Instr::Fsw { fs, base, off })
    }

    // ---- floating point ----
    /// Emit `fli`.
    pub fn fli(&mut self, fd: FReg, value: f32) -> &mut Self {
        self.push(Instr::Fli { fd, value })
    }
    /// Emit `fadd`.
    pub fn fadd(&mut self, fd: FReg, fs1: FReg, fs2: FReg) -> &mut Self {
        self.push(Instr::Fpu {
            op: FpuOp::Add,
            fd,
            fs1,
            fs2,
        })
    }
    /// Emit `fsub`.
    pub fn fsub(&mut self, fd: FReg, fs1: FReg, fs2: FReg) -> &mut Self {
        self.push(Instr::Fpu {
            op: FpuOp::Sub,
            fd,
            fs1,
            fs2,
        })
    }
    /// Emit `fmul`.
    pub fn fmul(&mut self, fd: FReg, fs1: FReg, fs2: FReg) -> &mut Self {
        self.push(Instr::Fpu {
            op: FpuOp::Mul,
            fd,
            fs1,
            fs2,
        })
    }
    /// Emit `fdiv`.
    pub fn fdiv(&mut self, fd: FReg, fs1: FReg, fs2: FReg) -> &mut Self {
        self.push(Instr::Fpu {
            op: FpuOp::Div,
            fd,
            fs1,
            fs2,
        })
    }
    /// Emit `fneg`.
    pub fn fneg(&mut self, fd: FReg, fs: FReg) -> &mut Self {
        self.push(Instr::Fneg { fd, fs })
    }
    /// Emit `fmov`.
    pub fn fmov(&mut self, fd: FReg, fs: FReg) -> &mut Self {
        self.push(Instr::Fmov { fd, fs })
    }

    // ---- control ----
    /// Emit `beq`.
    pub fn beq(&mut self, rs1: IReg, rs2: IReg, l: Label) -> &mut Self {
        self.push_with_label(
            Instr::Branch {
                cond: BranchCond::Eq,
                rs1,
                rs2,
                target: 0,
            },
            l,
        )
    }
    /// Emit `bne`.
    pub fn bne(&mut self, rs1: IReg, rs2: IReg, l: Label) -> &mut Self {
        self.push_with_label(
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1,
                rs2,
                target: 0,
            },
            l,
        )
    }
    /// Emit `bltu`.
    pub fn bltu(&mut self, rs1: IReg, rs2: IReg, l: Label) -> &mut Self {
        self.push_with_label(
            Instr::Branch {
                cond: BranchCond::Ltu,
                rs1,
                rs2,
                target: 0,
            },
            l,
        )
    }
    /// Emit `bgeu`.
    pub fn bgeu(&mut self, rs1: IReg, rs2: IReg, l: Label) -> &mut Self {
        self.push_with_label(
            Instr::Branch {
                cond: BranchCond::Geu,
                rs1,
                rs2,
                target: 0,
            },
            l,
        )
    }
    /// Emit `jump`.
    pub fn jump(&mut self, l: Label) -> &mut Self {
        self.push_with_label(Instr::Jump { target: 0 }, l)
    }

    // ---- XMT ----
    /// Emit `tid`.
    pub fn tid(&mut self, rd: IReg) -> &mut Self {
        self.push(Instr::Tid { rd })
    }
    /// Emit `read_gr`.
    pub fn read_gr(&mut self, rd: IReg, src: GReg) -> &mut Self {
        self.push(Instr::ReadGr { rd, src })
    }
    /// Emit `write_gr`.
    pub fn write_gr(&mut self, dst: GReg, rs: IReg) -> &mut Self {
        self.push(Instr::WriteGr { rs, dst })
    }
    /// Emit `ps`.
    pub fn ps(&mut self, rd: IReg, inc: IReg, on: GReg) -> &mut Self {
        self.push(Instr::Ps { rd, inc, on })
    }
    /// Emit `spawn`.
    pub fn spawn(&mut self, count: IReg, entry: Label) -> &mut Self {
        self.push_with_label(Instr::Spawn { count, entry: 0 }, entry)
    }
    /// Emit `sspawn`.
    pub fn sspawn(&mut self, rd: IReg, count: IReg) -> &mut Self {
        self.push(Instr::Sspawn { rd, count })
    }
    /// Emit `join`.
    pub fn join(&mut self) -> &mut Self {
        self.push(Instr::Join)
    }
    /// Emit `halt`.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Instr::Halt)
    }
    /// Emit `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Instr::Nop)
    }

    /// Resolve labels and produce the program.
    pub fn build(mut self) -> Result<Program, BuildError> {
        if self.instrs.is_empty() {
            return Err(BuildError::Empty);
        }
        for (at, label_id) in &self.fixups {
            // `.get` rather than indexing: a `Label` smuggled in from
            // another builder has an id this builder never allocated,
            // and must surface as the same typed error as a label that
            // was allocated but never bound — not a panic.
            let Some(target) = self.bound.get(*label_id).copied().flatten() else {
                return Err(BuildError::UnboundLabel(*label_id));
            };
            if target > self.instrs.len() {
                return Err(BuildError::TargetOutOfRange { at: *at, target });
            }
            match &mut self.instrs[*at] {
                Instr::Branch { target: t, .. }
                | Instr::Jump { target: t }
                | Instr::Spawn { entry: t, .. } => *t = target,
                other => unreachable!("fixup on non-control instruction {other:?}"),
            }
        }
        Ok(Program {
            instrs: self.instrs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{gr, ir};

    #[test]
    fn label_fixup_resolves_forward_and_backward() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        let done = b.label();
        b.li(ir(1), 3);
        b.bind(top);
        b.beq(ir(1), ir(0), done);
        b.addi(ir(1), ir(1), u32::MAX); // decrement via wraparound add
        b.jump(top);
        b.bind(done);
        b.halt();
        let p = b.build().unwrap();
        match p.fetch(1) {
            Instr::Branch { target, .. } => assert_eq!(target, 4),
            other => panic!("unexpected {other:?}"),
        }
        match p.fetch(3) {
            Instr::Jump { target } => assert_eq!(target, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.jump(l);
        assert!(matches!(b.build(), Err(BuildError::UnboundLabel(_))));
    }

    #[test]
    fn foreign_label_is_unbound_not_a_panic() {
        // A label allocated by one builder means nothing to another:
        // using it must produce the typed error, not an index panic.
        let mut other = ProgramBuilder::new();
        other.label();
        let foreign = other.label(); // id 1: out of range for `b`
        let mut b = ProgramBuilder::new();
        let own = b.label();
        b.bind(own);
        b.jump(foreign);
        b.halt();
        assert_eq!(b.build().unwrap_err(), BuildError::UnboundLabel(1));
    }

    #[test]
    fn empty_program_is_an_error() {
        assert_eq!(
            ProgramBuilder::new().build().unwrap_err(),
            BuildError::Empty
        );
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.nop();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn disassembly_contains_every_instruction() {
        let mut b = ProgramBuilder::new();
        b.li(ir(1), 7).tid(ir(2)).ps(ir(3), ir(1), gr(0)).halt();
        let p = b.build().unwrap();
        let d = p.disassemble();
        assert!(d.contains("li    r1, 7"));
        assert!(d.contains("tid   r2"));
        assert!(d.contains("ps    r3, r1, g0"));
        assert!(d.contains("halt"));
        assert_eq!(d.lines().count(), 4);
    }

    #[test]
    fn spawn_entry_is_patched() {
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let after = b.label();
        b.li(ir(1), 64);
        b.spawn(ir(1), par);
        b.jump(after);
        b.bind(par);
        b.join();
        b.bind(after);
        b.halt();
        let p = b.build().unwrap();
        match p.fetch(1) {
            Instr::Spawn { entry, .. } => assert_eq!(entry, 3),
            other => panic!("unexpected {other:?}"),
        }
    }
}
