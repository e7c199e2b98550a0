//! Random-program generator shared by the cross-engine agreement test
//! and the static-verifier property tests.
//!
//! Programs have a fixed skeleton — serial prologue, one `spawn` of
//! 1–24 threads, serial epilogue — with bodies drawn from a restricted
//! op set that is always-terminating and **race-free by construction**:
//! loads hit the shared read-only region `[0, 64)`, stores hit the
//! executing context's private region (serial: `[64, 128)`; thread
//! `t`: `[128 + 8t, 128 + 8t + 8)` through the reserved base register
//! r20). That construction is exactly what `xmt-verify` must be able
//! to *prove*, which is what makes the generator double as a
//! no-false-positives oracle for the race detector.
//!
//! Deliberately no `ps`/`sspawn`: every section runs exactly the
//! threads its `spawn` asks for. `sspawn` gets its own agreement test
//! (`sspawn_mints_ids_while_clusters_are_parked`).

use proptest::prelude::*;
use xmt_bench::matrix::Subject;
use xmt_isa::reg::{fr, ir};
use xmt_isa::{AluOp, FpuOp, Instr, MduOp, Program, ProgramBuilder};
use xmt_sim::{SimConfig, XmtConfig};

/// One generated instruction in a restricted, always-terminating form.
#[derive(Debug, Clone)]
pub enum GenOp {
    /// `li rd, imm`.
    Li {
        /// Destination register index (1..16).
        rd: u8,
        /// Immediate.
        imm: u32,
    },
    /// Register-form ALU op (`which` selects among all eight).
    Alu {
        /// Operation selector (0..8).
        which: u8,
        /// Destination register index.
        rd: u8,
        /// First source register index.
        rs1: u8,
        /// Second source register index.
        rs2: u8,
    },
    /// MDU op (`which` selects mul/divu/remu).
    Mdu {
        /// Operation selector (0..3).
        which: u8,
        /// Destination register index.
        rd: u8,
        /// First source register index.
        rs1: u8,
        /// Second source register index.
        rs2: u8,
    },
    /// `fli fd, v·0.125`.
    Fli {
        /// Destination FP register index.
        fd: u8,
        /// Scaled immediate.
        v: i16,
    },
    /// FPU op (`which` selects add/sub/mul/div).
    Fpu {
        /// Operation selector (0..4).
        which: u8,
        /// Destination FP register index.
        fd: u8,
        /// First source FP register index.
        fs1: u8,
        /// Second source FP register index.
        fs2: u8,
    },
    /// Load from the shared read-only region `[0, 64)`.
    LoadRo {
        /// Destination register index.
        rd: u8,
        /// Word address in the read-only region.
        addr: u8,
    },
    /// Store to this context's private region (serial: `[64, 128)`;
    /// thread `t`: `[128 + 8t, 128 + 8t + 8)`).
    StorePriv {
        /// Source register index.
        rs: u8,
        /// Private-slot index (0..8).
        slot: u8,
    },
    /// Float store to the private region.
    FStorePriv {
        /// Source FP register index.
        fs: u8,
        /// Private-slot index (0..8).
        slot: u8,
    },
    /// A load immediately consumed: exercises scoreboard stalls.
    LoadUse {
        /// Destination register index.
        rd: u8,
        /// Word address in the read-only region.
        addr: u8,
    },
    /// A conditional forward branch over a single `li`. Both outcomes
    /// are race-free; the skip splits the body into back-to-back
    /// one-instruction superblocks, the worst case for the trace cache.
    BrSkip {
        /// Condition selector (0..4: eq/ne/ltu/geu).
        cond: u8,
        /// First compared register index.
        rs1: u8,
        /// Second compared register index.
        rs2: u8,
        /// Destination of the skipped `li`.
        rd: u8,
        /// Immediate of the skipped `li`.
        imm: u32,
    },
    /// A bounded countdown loop on reserved r21: 1–4 iterations of an
    /// ALU op plus the backward branch. Short blocks re-entered many
    /// times — the trace cache must replay them without drift.
    Loop {
        /// Iteration count selector (mapped to 1..=4).
        n: u8,
        /// Accumulator register index.
        rd: u8,
        /// Addend register index.
        rs: u8,
    },
}

/// Strategy over the register indices the generator may touch (r1–r15;
/// r19/r20/r22 are reserved for the skeleton, r21 for [`GenOp::Loop`]'s
/// countdown).
pub fn reg_strategy() -> impl Strategy<Value = u8> {
    1u8..16
}

/// Strategy over single generated ops.
pub fn op_strategy() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (reg_strategy(), any::<u32>()).prop_map(|(rd, imm)| GenOp::Li { rd, imm }),
        (0u8..8, reg_strategy(), reg_strategy(), reg_strategy()).prop_map(
            |(which, rd, rs1, rs2)| GenOp::Alu {
                which,
                rd,
                rs1,
                rs2
            }
        ),
        (0u8..3, reg_strategy(), reg_strategy(), reg_strategy()).prop_map(
            |(which, rd, rs1, rs2)| GenOp::Mdu {
                which,
                rd,
                rs1,
                rs2
            }
        ),
        (reg_strategy(), any::<i16>()).prop_map(|(fd, v)| GenOp::Fli { fd, v }),
        (0u8..4, reg_strategy(), reg_strategy(), reg_strategy()).prop_map(
            |(which, fd, fs1, fs2)| GenOp::Fpu {
                which,
                fd,
                fs1,
                fs2
            }
        ),
        (reg_strategy(), 0u8..64).prop_map(|(rd, addr)| GenOp::LoadRo { rd, addr }),
        (reg_strategy(), 0u8..8).prop_map(|(rs, slot)| GenOp::StorePriv { rs, slot }),
        (reg_strategy(), 0u8..8).prop_map(|(fs, slot)| GenOp::FStorePriv { fs, slot }),
        (reg_strategy(), 0u8..64).prop_map(|(rd, addr)| GenOp::LoadUse { rd, addr }),
    ]
}

/// Strategy biased toward control flow: two thirds of the draws are
/// forward skips or bounded loops, so generated bodies are
/// branch-dense with very short straight-line runs — the adversarial
/// shape for the block-compiled tier, whose superblocks degenerate to
/// one or two micro-ops and whose fallback seams fire constantly.
pub fn branchy_op_strategy() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        op_strategy(),
        (
            0u8..4,
            reg_strategy(),
            reg_strategy(),
            reg_strategy(),
            any::<u32>()
        )
            .prop_map(|(cond, rs1, rs2, rd, imm)| GenOp::BrSkip {
                cond,
                rs1,
                rs2,
                rd,
                imm
            }),
        (any::<u8>(), reg_strategy(), reg_strategy()).prop_map(|(n, rd, rs)| GenOp::Loop {
            n,
            rd,
            rs
        }),
    ]
}

/// Emit one generated op; r20 is reserved as the private-base pointer.
pub fn emit(b: &mut ProgramBuilder, op: &GenOp) {
    let alu = |w: u8| {
        [
            AluOp::Add,
            AluOp::Sub,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Sll,
            AluOp::Srl,
            AluOp::Sltu,
        ][w as usize]
    };
    let base = ir(20);
    match *op {
        GenOp::Li { rd, imm } => {
            b.li(ir(rd as usize), imm);
        }
        GenOp::Alu {
            which,
            rd,
            rs1,
            rs2,
        } => {
            b.push(Instr::Alu {
                op: alu(which),
                rd: ir(rd as usize),
                rs1: ir(rs1 as usize),
                rs2: ir(rs2 as usize),
            });
        }
        GenOp::Mdu {
            which,
            rd,
            rs1,
            rs2,
        } => {
            let mop = [MduOp::Mul, MduOp::Divu, MduOp::Remu][which as usize];
            b.push(Instr::Mdu {
                op: mop,
                rd: ir(rd as usize),
                rs1: ir(rs1 as usize),
                rs2: ir(rs2 as usize),
            });
        }
        GenOp::Fli { fd, v } => {
            b.fli(fr(fd as usize), v as f32 * 0.125);
        }
        GenOp::Fpu {
            which,
            fd,
            fs1,
            fs2,
        } => {
            let fop = [FpuOp::Add, FpuOp::Sub, FpuOp::Mul, FpuOp::Div][which as usize];
            b.push(Instr::Fpu {
                op: fop,
                fd: fr(fd as usize),
                fs1: fr(fs1 as usize),
                fs2: fr(fs2 as usize),
            });
        }
        GenOp::LoadRo { rd, addr } => {
            b.lw(ir(rd as usize), ir(0), addr as u32);
        }
        GenOp::StorePriv { rs, slot } => {
            b.sw(ir(rs as usize), base, slot as u32);
        }
        GenOp::FStorePriv { fs, slot } => {
            b.fsw(fr(fs as usize), base, slot as u32);
        }
        GenOp::LoadUse { rd, addr } => {
            let rd = ir(rd as usize);
            b.lw(rd, ir(0), addr as u32);
            b.push(Instr::Alu {
                op: AluOp::Add,
                rd,
                rs1: rd,
                rs2: rd,
            });
        }
        GenOp::BrSkip {
            cond,
            rs1,
            rs2,
            rd,
            imm,
        } => {
            let skip = b.label();
            let (rs1, rs2) = (ir(rs1 as usize), ir(rs2 as usize));
            match cond % 4 {
                0 => b.beq(rs1, rs2, skip),
                1 => b.bne(rs1, rs2, skip),
                2 => b.bltu(rs1, rs2, skip),
                _ => b.bgeu(rs1, rs2, skip),
            };
            b.li(ir(rd as usize), imm);
            b.bind(skip);
        }
        GenOp::Loop { n, rd, rs } => {
            b.li(ir(21), 1 + (n % 4) as u32);
            let top = b.label();
            b.bind(top);
            b.push(Instr::Alu {
                op: AluOp::Add,
                rd: ir(rd as usize),
                rs1: ir(rd as usize),
                rs2: ir(rs as usize),
            });
            b.addi(ir(21), ir(21), u32::MAX); // r21 -= 1 (wrapping)
            b.bne(ir(21), ir(0), top);
        }
    }
}

/// Serial prologue ops, a spawn of `threads` running `par_ops`, serial
/// epilogue ops.
pub fn build(serial: &[GenOp], par_ops: &[GenOp], threads: u8, epilogue: &[GenOp]) -> Program {
    build_with_init(serial, par_ops, threads, epilogue, false)
}

/// Serial prologue, then one spawn/join block per entry in
/// `thread_counts` (each running `par_ops` over its own thread-private
/// region), then a serial epilogue. Successive spawns of very different
/// widths make the set of active clusters — fast-forward's work list
/// and parked set — churn mid-run, which is exactly the regression
/// surface `shard_churn_across_spawn_widths` pins.
pub fn build_multi_spawn(
    serial: &[GenOp],
    par_ops: &[GenOp],
    thread_counts: &[u32],
    epilogue: &[GenOp],
) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(ir(20), 64);
    for op in serial {
        emit(&mut b, op);
    }
    for &n in thread_counts {
        let par = b.label();
        let after = b.label();
        b.li(ir(22), n);
        b.spawn(ir(22), par);
        b.jump(after);
        b.bind(par);
        // Thread-private base: 128 + tid*8. Spawns are serialized by
        // join, so reuse of the regions across blocks is race-free.
        b.tid(ir(19));
        b.slli(ir(20), ir(19), 3);
        b.addi(ir(20), ir(20), 128);
        for op in par_ops {
            emit(&mut b, op);
        }
        b.join();
        b.bind(after);
        b.li(ir(20), 64);
    }
    for op in epilogue {
        emit(&mut b, op);
    }
    b.halt();
    b.build().unwrap()
}

/// Like [`build`], but `init_regs` first writes every register the
/// generator can read (r1–r15, f1–f15) at each region entry — the
/// variant the def-before-use property test uses, since raw generated
/// ops legitimately read registers nothing wrote.
pub fn build_with_init(
    serial: &[GenOp],
    par_ops: &[GenOp],
    threads: u8,
    epilogue: &[GenOp],
    init_regs: bool,
) -> Program {
    let emit_init = |b: &mut ProgramBuilder| {
        for r in 1..16 {
            b.li(ir(r), r as u32);
            b.fli(fr(r), r as f32);
        }
    };
    let mut b = ProgramBuilder::new();
    let par = b.label();
    let after = b.label();
    if init_regs {
        emit_init(&mut b);
    }
    b.li(ir(20), 64);
    for op in serial {
        emit(&mut b, op);
    }
    b.li(ir(22), threads as u32);
    b.spawn(ir(22), par);
    b.jump(after);
    b.bind(par);
    // Thread-private base: 128 + tid*8.
    b.tid(ir(19));
    b.slli(ir(20), ir(19), 3);
    b.addi(ir(20), ir(20), 128);
    if init_regs {
        emit_init(&mut b);
    }
    for op in par_ops {
        emit(&mut b, op);
    }
    b.join();
    b.bind(after);
    b.li(ir(20), 64);
    for op in epilogue {
        emit(&mut b, op);
    }
    b.halt();
    b.build().unwrap()
}

/// The shared read-only region `[0, 64)` the generated loads read,
/// hashed from `seed`.
pub fn ro_words(seed: u64) -> Vec<u32> {
    (0..64u64)
        .map(|i| {
            let mut z = seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z ^= z >> 31;
            z as u32
        })
        .collect()
}

/// `prog` on `cfg` with `mem_words` words of memory, `ro` written at
/// word 0: a subject for the determinism matrix.
pub fn subject(prog: Program, cfg: &XmtConfig, mem_words: usize, ro: Vec<u32>) -> Subject<'static> {
    Subject::new("generated", SimConfig::new(cfg), move |sim| {
        sim.builder(prog.clone())
            .mem_words(mem_words)
            .write_u32s(0, &ro)
    })
}
