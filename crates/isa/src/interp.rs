//! Functional (untimed) interpreter.
//!
//! Executes a [`Program`] with exact XMT semantics — serial MTCU
//! sections, `spawn`/`join` parallel sections, prefix-sum — but no
//! timing model: parallel threads run to completion in thread-id order.
//! Kernels are developed and unit-tested against this interpreter, then
//! run unmodified on the cycle simulator (`xmt-sim`), which reuses the
//! same `eval_*`/[`exec_compute`] semantic core so the two can never
//! disagree on results.

use crate::instr::{eval_alu, eval_branch, eval_fpu, eval_mdu, Instr};
use crate::program::Program;
use crate::reg::{RegFile, Regs, NUM_GREGS};
use std::fmt;

/// Execution statistics gathered by a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total instructions executed (serial + parallel).
    pub instructions: u64,
    /// Virtual threads executed across all spawns.
    pub threads: u64,
    /// Number of spawn commands executed.
    pub spawns: u64,
    /// Shared-memory word reads.
    pub mem_reads: u64,
    /// Shared-memory word writes.
    pub mem_writes: u64,
    /// Floating-point arithmetic operations executed.
    pub flops: u64,
}

/// Runtime errors. All carry the pc for diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Memory access outside the configured memory size.
    MemOutOfBounds {
        /// Program counter at the fault.
        pc: usize,
        /// Faulting word address.
        addr: u64,
    },
    /// Execution ran past the end of the program without `halt`.
    PcOutOfRange {
        /// Program counter at the fault.
        pc: usize,
    },
    /// `spawn` inside a parallel section (nested spawn unsupported;
    /// the paper's sspawn extension is out of scope).
    SpawnInParallel {
        /// Program counter at the fault.
        pc: usize,
    },
    /// `join` while in serial mode.
    JoinInSerial {
        /// Program counter at the fault.
        pc: usize,
    },
    /// `sspawn` while in serial mode (it extends a running spawn).
    SspawnInSerial {
        /// Program counter at the fault.
        pc: usize,
    },
    /// `halt` inside a parallel section.
    HaltInParallel {
        /// Program counter at the fault.
        pc: usize,
    },
    /// Global-register write from a TCU (serial-mode privilege).
    WriteGrInParallel {
        /// Program counter at the fault.
        pc: usize,
    },
    /// The configured step limit was exceeded (likely an infinite loop).
    StepLimit,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MemOutOfBounds { pc, addr } => {
                write!(f, "memory access at word {addr:#x} out of bounds (pc {pc})")
            }
            ExecError::PcOutOfRange { pc } => write!(f, "pc {pc} ran off the program end"),
            ExecError::SpawnInParallel { pc } => write!(f, "nested spawn at pc {pc}"),
            ExecError::JoinInSerial { pc } => write!(f, "join in serial mode at pc {pc}"),
            ExecError::SspawnInSerial { pc } => {
                write!(f, "sspawn in serial mode at pc {pc}")
            }
            ExecError::HaltInParallel { pc } => write!(f, "halt in parallel mode at pc {pc}"),
            ExecError::WriteGrInParallel { pc } => {
                write!(f, "global-register write from a TCU at pc {pc}")
            }
            ExecError::StepLimit => write!(f, "step limit exceeded"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Execute a compute-class instruction (no memory, control, or PS side
/// effects) against a register file. Returns `true` if the instruction
/// was handled. Shared by this interpreter and the cycle simulator.
#[inline]
pub fn exec_compute<R: Regs>(ins: &Instr, rf: &mut R, gregs: &[u32; NUM_GREGS]) -> bool {
    match *ins {
        Instr::Li { rd, imm } => rf.write_i(rd, imm),
        Instr::Alu { op, rd, rs1, rs2 } => {
            let v = eval_alu(op, rf.read_i(rs1), rf.read_i(rs2));
            rf.write_i(rd, v);
        }
        Instr::AluI { op, rd, rs1, imm } => {
            let v = eval_alu(op, rf.read_i(rs1), imm);
            rf.write_i(rd, v);
        }
        Instr::Mdu { op, rd, rs1, rs2 } => {
            let v = eval_mdu(op, rf.read_i(rs1), rf.read_i(rs2));
            rf.write_i(rd, v);
        }
        Instr::Fli { fd, value } => rf.write_f(fd, value),
        Instr::Fpu { op, fd, fs1, fs2 } => {
            let v = eval_fpu(op, rf.read_f(fs1), rf.read_f(fs2));
            rf.write_f(fd, v);
        }
        Instr::Fneg { fd, fs } => {
            let v = -rf.read_f(fs);
            rf.write_f(fd, v);
        }
        Instr::Fmov { fd, fs } => {
            let v = rf.read_f(fs);
            rf.write_f(fd, v);
        }
        Instr::Fmvif { fd, rs } => {
            let v = f32::from_bits(rf.read_i(rs));
            rf.write_f(fd, v);
        }
        Instr::Tid { rd } => rf.write_i(rd, rf.tid()),
        Instr::ReadGr { rd, src } => rf.write_i(rd, gregs[src.index()]),
        Instr::Nop => {}
        _ => return false,
    }
    true
}

/// The functional machine: a word-addressed shared memory plus global
/// registers.
#[derive(Debug, Clone)]
pub struct Interp {
    /// Shared memory, word (u32) addressed.
    pub mem: Vec<u32>,
    /// Global registers (PS targets).
    pub gregs: [u32; NUM_GREGS],
    /// Abort after this many instructions (default 2³²).
    pub step_limit: u64,
}

impl Interp {
    /// A machine with `mem_words` words of zeroed shared memory.
    pub fn new(mem_words: usize) -> Self {
        Self {
            mem: vec![0; mem_words],
            gregs: [0; NUM_GREGS],
            step_limit: 1 << 32,
        }
    }

    /// Store an `f32` slice at `addr` (word-addressed), bit-cast.
    pub fn write_f32s(&mut self, addr: usize, data: &[f32]) {
        for (i, &v) in data.iter().enumerate() {
            self.mem[addr + i] = v.to_bits();
        }
    }

    /// Read `len` `f32`s starting at word `addr`.
    pub fn read_f32s(&self, addr: usize, len: usize) -> Vec<f32> {
        self.mem[addr..addr + len]
            .iter()
            .map(|&w| f32::from_bits(w))
            .collect()
    }

    /// Store a `u32` slice at word `addr`.
    pub fn write_u32s(&mut self, addr: usize, data: &[u32]) {
        self.mem[addr..addr + data.len()].copy_from_slice(data);
    }

    fn addr(&self, pc: usize, base: u32, off: u32) -> Result<usize, ExecError> {
        let a = base as u64 + off as u64;
        if (a as usize) < self.mem.len() {
            Ok(a as usize)
        } else {
            Err(ExecError::MemOutOfBounds { pc, addr: a })
        }
    }

    /// Run the program from pc 0 in serial mode until `halt`.
    pub fn run(&mut self, prog: &Program) -> Result<RunStats, ExecError> {
        let mut stats = RunStats::default();
        let mut rf = RegFile::new(0);
        let mut pc = 0usize;
        loop {
            if pc >= prog.len() {
                return Err(ExecError::PcOutOfRange { pc });
            }
            let ins = prog.fetch(pc);
            stats.instructions += 1;
            if stats.instructions > self.step_limit {
                return Err(ExecError::StepLimit);
            }
            if exec_compute(&ins, &mut rf, &self.gregs) {
                if ins.is_flop() {
                    stats.flops += 1;
                }
                pc += 1;
                continue;
            }
            match ins {
                Instr::WriteGr { rs, dst } => {
                    self.gregs[dst.index()] = rf.read_i(rs);
                    pc += 1;
                }
                Instr::Lw { rd, base, off } => {
                    let a = self.addr(pc, rf.read_i(base), off)?;
                    rf.write_i(rd, self.mem[a]);
                    stats.mem_reads += 1;
                    pc += 1;
                }
                Instr::Sw { rs, base, off } => {
                    let a = self.addr(pc, rf.read_i(base), off)?;
                    self.mem[a] = rf.read_i(rs);
                    stats.mem_writes += 1;
                    pc += 1;
                }
                Instr::Flw { fd, base, off } => {
                    let a = self.addr(pc, rf.read_i(base), off)?;
                    rf.write_f(fd, f32::from_bits(self.mem[a]));
                    stats.mem_reads += 1;
                    pc += 1;
                }
                Instr::Fsw { fs, base, off } => {
                    let a = self.addr(pc, rf.read_i(base), off)?;
                    self.mem[a] = rf.read_f(fs).to_bits();
                    stats.mem_writes += 1;
                    pc += 1;
                }
                Instr::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    if eval_branch(cond, rf.read_i(rs1), rf.read_i(rs2)) {
                        pc = target;
                    } else {
                        pc += 1;
                    }
                }
                Instr::Jump { target } => pc = target,
                Instr::Ps { rd, inc, on } => {
                    // Serial-mode PS still works: fetch-and-add.
                    let old = self.gregs[on.index()];
                    self.gregs[on.index()] = old.wrapping_add(rf.read_i(inc));
                    rf.write_i(rd, old);
                    pc += 1;
                }
                Instr::Spawn { count, entry } => {
                    let n = rf.read_i(count);
                    stats.spawns += 1;
                    // `sspawn` inside the section may extend the bound,
                    // so iterate against a mutable limit.
                    let mut limit = n;
                    let mut tid = 0;
                    while tid < limit {
                        self.run_thread(prog, entry, tid, &mut limit, &mut stats)?;
                        tid += 1;
                    }
                    pc += 1;
                }
                Instr::Sspawn { .. } => return Err(ExecError::SspawnInSerial { pc }),
                Instr::Join => return Err(ExecError::JoinInSerial { pc }),
                Instr::Halt => return Ok(stats),
                other => unreachable!("unhandled serial instruction {other:?}"),
            }
        }
    }

    /// Run one virtual thread from `entry` until its `join`. `limit`
    /// is the current spawn bound, which `sspawn` may extend.
    fn run_thread(
        &mut self,
        prog: &Program,
        entry: usize,
        tid: u32,
        limit: &mut u32,
        stats: &mut RunStats,
    ) -> Result<(), ExecError> {
        stats.threads += 1;
        let mut rf = RegFile::new(tid);
        let mut pc = entry;
        loop {
            if pc >= prog.len() {
                return Err(ExecError::PcOutOfRange { pc });
            }
            let ins = prog.fetch(pc);
            stats.instructions += 1;
            if stats.instructions > self.step_limit {
                return Err(ExecError::StepLimit);
            }
            if exec_compute(&ins, &mut rf, &self.gregs) {
                if ins.is_flop() {
                    stats.flops += 1;
                }
                pc += 1;
                continue;
            }
            match ins {
                Instr::Lw { rd, base, off } => {
                    let a = self.addr(pc, rf.read_i(base), off)?;
                    rf.write_i(rd, self.mem[a]);
                    stats.mem_reads += 1;
                    pc += 1;
                }
                Instr::Sw { rs, base, off } => {
                    let a = self.addr(pc, rf.read_i(base), off)?;
                    self.mem[a] = rf.read_i(rs);
                    stats.mem_writes += 1;
                    pc += 1;
                }
                Instr::Flw { fd, base, off } => {
                    let a = self.addr(pc, rf.read_i(base), off)?;
                    rf.write_f(fd, f32::from_bits(self.mem[a]));
                    stats.mem_reads += 1;
                    pc += 1;
                }
                Instr::Fsw { fs, base, off } => {
                    let a = self.addr(pc, rf.read_i(base), off)?;
                    self.mem[a] = rf.read_f(fs).to_bits();
                    stats.mem_writes += 1;
                    pc += 1;
                }
                Instr::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    if eval_branch(cond, rf.read_i(rs1), rf.read_i(rs2)) {
                        pc = target;
                    } else {
                        pc += 1;
                    }
                }
                Instr::Jump { target } => pc = target,
                Instr::Ps { rd, inc, on } => {
                    let old = self.gregs[on.index()];
                    self.gregs[on.index()] = old.wrapping_add(rf.read_i(inc));
                    rf.write_i(rd, old);
                    pc += 1;
                }
                Instr::Join => return Ok(()),
                Instr::Sspawn { rd, count } => {
                    // PS on the spawn bound: returns the first new tid.
                    let old = *limit;
                    *limit = limit.wrapping_add(rf.read_i(count));
                    rf.write_i(rd, old);
                    pc += 1;
                }
                Instr::Spawn { .. } => return Err(ExecError::SpawnInParallel { pc }),
                Instr::Halt => return Err(ExecError::HaltInParallel { pc }),
                Instr::WriteGr { .. } => return Err(ExecError::WriteGrInParallel { pc }),
                other => unreachable!("unhandled parallel instruction {other:?}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::reg::{fr, gr, ir};

    #[test]
    fn serial_arithmetic_and_halt() {
        let mut b = ProgramBuilder::new();
        b.li(ir(1), 6).li(ir(2), 7).mul(ir(3), ir(1), ir(2));
        b.li(ir(4), 100).sw(ir(3), ir(4), 0).halt();
        let p = b.build().unwrap();
        let mut m = Interp::new(128);
        let stats = m.run(&p).unwrap();
        assert_eq!(m.mem[100], 42);
        assert_eq!(stats.instructions, 6);
        assert_eq!(stats.mem_writes, 1);
    }

    #[test]
    fn spawn_runs_all_threads() {
        // Each thread stores tid*2 at mem[tid].
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let after = b.label();
        b.li(ir(1), 16);
        b.spawn(ir(1), par);
        b.jump(after);
        b.bind(par);
        b.tid(ir(2));
        b.slli(ir(3), ir(2), 1);
        b.sw(ir(3), ir(2), 0);
        b.join();
        b.bind(after);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Interp::new(64);
        let stats = m.run(&p).unwrap();
        for t in 0..16 {
            assert_eq!(m.mem[t], (t * 2) as u32);
        }
        assert_eq!(stats.threads, 16);
        assert_eq!(stats.spawns, 1);
    }

    #[test]
    fn prefix_sum_hands_out_unique_values() {
        // Every thread ps(1) on g0 and records its ticket at mem[tid].
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let after = b.label();
        b.li(ir(1), 8);
        b.spawn(ir(1), par);
        b.jump(after);
        b.bind(par);
        b.li(ir(2), 1);
        b.ps(ir(3), ir(2), gr(0));
        b.tid(ir(4));
        b.sw(ir(3), ir(4), 0);
        b.join();
        b.bind(after);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Interp::new(32);
        m.run(&p).unwrap();
        let mut tickets: Vec<u32> = m.mem[..8].to_vec();
        tickets.sort_unstable();
        assert_eq!(tickets, (0..8).collect::<Vec<u32>>());
        assert_eq!(m.gregs[0], 8);
    }

    #[test]
    fn fp_pipeline_roundtrip() {
        let mut b = ProgramBuilder::new();
        b.fli(fr(0), 1.5).fli(fr(1), 2.25);
        b.fadd(fr(2), fr(0), fr(1));
        b.fmul(fr(3), fr(2), fr(2));
        b.li(ir(1), 10);
        b.fsw(fr(3), ir(1), 0);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Interp::new(32);
        let stats = m.run(&p).unwrap();
        assert_eq!(m.read_f32s(10, 1)[0], (1.5f32 + 2.25) * (1.5 + 2.25));
        assert_eq!(stats.flops, 2);
    }

    #[test]
    fn loop_with_branch() {
        // Sum 1..=10 into mem[0].
        let mut b = ProgramBuilder::new();
        let top = b.label();
        let done = b.label();
        b.li(ir(1), 10); // counter
        b.li(ir(2), 0); // acc
        b.bind(top);
        b.beq(ir(1), ir(0), done);
        b.add(ir(2), ir(2), ir(1));
        b.addi(ir(1), ir(1), u32::MAX);
        b.jump(top);
        b.bind(done);
        b.sw(ir(2), ir(0), 0);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Interp::new(4);
        m.run(&p).unwrap();
        assert_eq!(m.mem[0], 55);
    }

    #[test]
    fn out_of_bounds_access_is_reported() {
        let mut b = ProgramBuilder::new();
        b.li(ir(1), 1000).lw(ir(2), ir(1), 0).halt();
        let p = b.build().unwrap();
        let mut m = Interp::new(16);
        assert!(matches!(m.run(&p), Err(ExecError::MemOutOfBounds { .. })));
    }

    #[test]
    fn nested_spawn_rejected() {
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let after = b.label();
        b.li(ir(1), 2);
        b.spawn(ir(1), par);
        b.jump(after);
        b.bind(par);
        b.spawn(ir(1), par);
        b.join();
        b.bind(after);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Interp::new(16);
        assert!(matches!(m.run(&p), Err(ExecError::SpawnInParallel { .. })));
    }

    #[test]
    fn join_in_serial_rejected() {
        let mut b = ProgramBuilder::new();
        b.join();
        let p = b.build().unwrap();
        assert!(matches!(
            Interp::new(4).run(&p),
            Err(ExecError::JoinInSerial { pc: 0 })
        ));
    }

    #[test]
    fn runaway_program_hits_step_limit() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.jump(top);
        let p = b.build().unwrap();
        let mut m = Interp::new(4);
        m.step_limit = 1000;
        assert_eq!(m.run(&p), Err(ExecError::StepLimit));
    }

    #[test]
    fn missing_halt_detected() {
        let mut b = ProgramBuilder::new();
        b.nop();
        let p = b.build().unwrap();
        assert!(matches!(
            Interp::new(4).run(&p),
            Err(ExecError::PcOutOfRange { pc: 1 })
        ));
    }

    #[test]
    fn sspawn_chain_generates_dynamic_threads() {
        // Each thread with tid < 7 sspawns one successor: starting
        // from a single thread, eight run in total.
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let after = b.label();
        let done = b.label();
        b.li(ir(1), 1);
        b.spawn(ir(1), par);
        b.jump(after);
        b.bind(par);
        b.tid(ir(2));
        b.li(ir(5), 1);
        b.sw(ir(5), ir(2), 0); // mark ran
        b.li(ir(3), 7);
        b.bgeu(ir(2), ir(3), done);
        b.li(ir(4), 1);
        b.sspawn(ir(6), ir(4));
        b.bind(done);
        b.join();
        b.bind(after);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Interp::new(32);
        let stats = m.run(&p).unwrap();
        assert_eq!(stats.threads, 8);
        assert_eq!(&m.mem[..8], &[1; 8]);
        assert_eq!(m.mem[8], 0);
    }

    #[test]
    fn sspawn_returns_first_new_tid() {
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let after = b.label();
        let skip = b.label();
        b.li(ir(1), 3);
        b.spawn(ir(1), par);
        b.jump(after);
        b.bind(par);
        b.tid(ir(2));
        b.bne(ir(2), ir(0), skip);
        b.li(ir(3), 5);
        b.sspawn(ir(4), ir(3));
        b.li(ir(7), 100);
        b.sw(ir(4), ir(7), 0); // record the returned base tid
        b.bind(skip);
        b.join();
        b.bind(after);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Interp::new(128);
        let stats = m.run(&p).unwrap();
        assert_eq!(m.mem[100], 3, "first new tid continues the sequence");
        assert_eq!(stats.threads, 8);
    }

    #[test]
    fn sspawn_in_serial_rejected() {
        let mut b = ProgramBuilder::new();
        b.li(ir(1), 2).sspawn(ir(2), ir(1)).halt();
        let p = b.build().unwrap();
        assert!(matches!(
            Interp::new(4).run(&p),
            Err(ExecError::SspawnInSerial { pc: 1 })
        ));
    }

    #[test]
    fn global_register_broadcast() {
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let after = b.label();
        b.li(ir(1), 77).write_gr(gr(3), ir(1));
        b.li(ir(2), 4);
        b.spawn(ir(2), par);
        b.jump(after);
        b.bind(par);
        b.read_gr(ir(5), gr(3));
        b.tid(ir(6));
        b.sw(ir(5), ir(6), 0);
        b.join();
        b.bind(after);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Interp::new(16);
        m.run(&p).unwrap();
        assert_eq!(&m.mem[..4], &[77, 77, 77, 77]);
    }
}
