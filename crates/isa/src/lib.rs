//! # xmt-isa — the XMT-like instruction set
//!
//! The paper's FFT runs as XMTC programs on XMTSim. This workspace's
//! substitute is a compact RISC-style ISA extended with the XMT
//! primitives of Section II-A of the paper:
//!
//! * `spawn`/`join` — the MTCU broadcasts a parallel section to every
//!   TCU and switches the machine to parallel mode; each TCU runs one
//!   virtual thread at a time and grabs the next thread id through the
//!   prefix-sum unit when its thread joins.
//! * `ps` — constant-time prefix-sum to a global register, the
//!   inter-thread coordination primitive.
//! * global registers — broadcast parameters from serial code into
//!   parallel sections.
//!
//! Kernels are emitted by Rust code through [`ProgramBuilder`] (the
//! stand-in for the XMTC compiler), validated on the untimed
//! [`Interp`], and executed with timing by the `xmt-sim` crate, which
//! shares this crate's semantic core ([`interp::exec_compute`] and the
//! pure `eval_*` functions) so functional results are identical by
//! construction.

#![warn(missing_docs)]
pub mod block;
pub mod codec;
pub mod decoded;
pub mod instr;
pub mod interp;
pub mod program;
pub mod reg;

pub use block::{
    eval_branch_uop, exec_uop, lower_op, BlockMap, MicroOp, UnitLat, UopKind, UOP_ENDS_BLOCK,
};
pub use codec::encode_program;
pub use decoded::{DecodedInstr, DecodedProgram, StepClass, NUM_STEP_CLASSES};
pub use instr::{AluOp, BranchCond, FpuOp, Instr, MduOp, MemAccess, Unit};
pub use interp::{ExecError, Interp, RunStats};
pub use program::{BuildError, Label, Program, ProgramBuilder};
pub use reg::{fr, gr, ir, FReg, GReg, IReg, RegFile, Regs, NUM_FREGS, NUM_GREGS, NUM_IREGS};
