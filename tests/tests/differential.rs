//! Differential testing: randomly generated programs must produce
//! bit-identical memory and global-register state on the untimed
//! interpreter and the cycle simulator, across machine configurations.
//! The generator constrains parallel stores to thread-private regions
//! so results are schedule-independent (as real XMT kernels are
//! between barriers).

use proptest::prelude::*;
use xmt_isa::reg::{fr, gr, ir};
use xmt_isa::{Interp, Program, ProgramBuilder};
use xmt_sim::{SimConfig, XmtConfig};

/// One generated instruction in a restricted, always-terminating form.
#[derive(Debug, Clone)]
enum GenOp {
    Li {
        rd: u8,
        imm: u32,
    },
    Alu {
        which: u8,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    AluI {
        which: u8,
        rd: u8,
        rs1: u8,
        imm: u16,
    },
    Mdu {
        which: u8,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Fli {
        fd: u8,
        v: i16,
    },
    Fpu {
        which: u8,
        fd: u8,
        fs1: u8,
        fs2: u8,
    },
    /// Load from the shared read-only region [0, 64).
    LoadRo {
        rd: u8,
        addr: u8,
    },
    /// Store to this context's private region (serial: [64,128);
    /// thread t: [128 + t*8, 128 + t*8 + 8)).
    StorePriv {
        rs: u8,
        slot: u8,
    },
    /// Float store to the private region.
    FStorePriv {
        fs: u8,
        slot: u8,
    },
    /// Prefix-sum on g7 (commutative: final greg value is
    /// schedule-independent; the returned ticket is stored privately).
    Ps {
        slot: u8,
    },
}

/// Integer operands: every register but `r0` and the four `build` and
/// `emit` reserve (r19 tid, r20 private base, r21 scratch, r22 count).
/// FP operands: all 32. The highest registers a program names set how
/// many rows the simulator's per-cluster register store gets, so the
/// generated programs check that store against the interpreter's full
/// register files at every width from 23 rows to 64.
fn ireg_strategy() -> impl Strategy<Value = u8> {
    prop_oneof![1u8..19, 23u8..32]
}

fn freg_strategy() -> impl Strategy<Value = u8> {
    0u8..32
}

fn op_strategy() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (ireg_strategy(), any::<u32>()).prop_map(|(rd, imm)| GenOp::Li { rd, imm }),
        (0u8..8, ireg_strategy(), ireg_strategy(), ireg_strategy()).prop_map(
            |(which, rd, rs1, rs2)| GenOp::Alu {
                which,
                rd,
                rs1,
                rs2
            }
        ),
        (0u8..8, ireg_strategy(), ireg_strategy(), any::<u16>()).prop_map(
            |(which, rd, rs1, imm)| {
                GenOp::AluI {
                    which,
                    rd,
                    rs1,
                    imm,
                }
            }
        ),
        (0u8..3, ireg_strategy(), ireg_strategy(), ireg_strategy()).prop_map(
            |(which, rd, rs1, rs2)| GenOp::Mdu {
                which,
                rd,
                rs1,
                rs2
            }
        ),
        (freg_strategy(), any::<i16>()).prop_map(|(fd, v)| GenOp::Fli { fd, v }),
        (0u8..4, freg_strategy(), freg_strategy(), freg_strategy()).prop_map(
            |(which, fd, fs1, fs2)| GenOp::Fpu {
                which,
                fd,
                fs1,
                fs2
            }
        ),
        (ireg_strategy(), 0u8..64).prop_map(|(rd, addr)| GenOp::LoadRo { rd, addr }),
        (ireg_strategy(), 0u8..8).prop_map(|(rs, slot)| GenOp::StorePriv { rs, slot }),
        (freg_strategy(), 0u8..8).prop_map(|(fs, slot)| GenOp::FStorePriv { fs, slot }),
        (0u8..8).prop_map(|slot| GenOp::Ps { slot }),
    ]
}

/// Emit one generated op. In parallel context, private stores go to
/// the thread's own block derived from `tid_reg`.
fn emit(b: &mut ProgramBuilder, op: &GenOp, tid_reg: Option<xmt_isa::IReg>) {
    use xmt_isa::{AluOp, FpuOp, Instr, MduOp};
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
    // r20 is reserved as the private-base pointer, r21 as scratch.
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
        GenOp::AluI {
            which,
            rd,
            rs1,
            imm,
        } => {
            b.push(Instr::AluI {
                op: alu(which),
                rd: ir(rd as usize),
                rs1: ir(rs1 as usize),
                imm: imm as u32,
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
        GenOp::Ps { slot } => {
            b.li(ir(21), 1);
            b.ps(ir(21), ir(21), gr(7));
            b.sw(ir(21), base, slot as u32);
            let _ = tid_reg;
        }
    }
}

/// Build a complete program: serial prologue ops, a spawn of `threads`
/// running `par_ops`, serial epilogue ops.
fn build(serial: &[GenOp], par_ops: &[GenOp], threads: u8, epilogue: &[GenOp]) -> Program {
    let mut b = ProgramBuilder::new();
    let par = b.label();
    let after = b.label();
    // Serial private base: word 64.
    b.li(ir(20), 64);
    for op in serial {
        emit(&mut b, op, None);
    }
    b.li(ir(22), threads as u32);
    b.spawn(ir(22), par);
    b.jump(after);
    b.bind(par);
    // Thread-private base: 128 + tid*8.
    b.tid(ir(19));
    b.slli(ir(20), ir(19), 3);
    b.addi(ir(20), ir(20), 128);
    for op in par_ops {
        emit(&mut b, op, Some(ir(19)));
    }
    b.join();
    b.bind(after);
    b.li(ir(20), 64);
    for op in epilogue {
        emit(&mut b, op, None);
    }
    b.halt();
    b.build().unwrap()
}

/// Sorted multiset view of the PS tickets each thread stored — tickets
/// are schedule-dependent individually but form the same set.
fn canonicalize_ps_regions(mem: &mut [u32], threads: u8, ps_slots: &[u8]) {
    for &slot in ps_slots {
        let mut vals: Vec<u32> = (0..threads as usize)
            .map(|t| mem[128 + t * 8 + slot as usize])
            .collect();
        vals.sort_unstable();
        for (t, v) in vals.into_iter().enumerate() {
            mem[128 + t * 8 + slot as usize] = v;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interpreter_and_simulator_agree(
        serial in proptest::collection::vec(op_strategy(), 0..12),
        par_ops in proptest::collection::vec(op_strategy(), 0..12),
        epilogue in proptest::collection::vec(op_strategy(), 0..8),
        threads in 1u8..24,
        clusters_log in 1u32..3,
        ro_seed in any::<u64>(),
    ) {
        // At most one PS op per parallel body: with one, each thread's
        // ticket set is a permutation of 0..threads and the per-slot
        // multiset is schedule-independent; with several, interleaving
        // legitimately changes which ticket lands in which slot.
        let mut seen_ps = false;
        let par_ops: Vec<GenOp> = par_ops
            .into_iter()
            .map(|op| {
                if matches!(op, GenOp::Ps { .. }) {
                    if seen_ps {
                        return GenOp::Li { rd: 1, imm: 0 };
                    }
                    seen_ps = true;
                }
                op
            })
            .collect();
        let prog = build(&serial, &par_ops, threads, &epilogue);
        let mem_words = 128 + 24 * 8 + 16;

        // Shared read-only region contents.
        let ro: Vec<u32> = (0..64u64)
            .map(|i| {
                let mut z = ro_seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z ^= z >> 31;
                z as u32
            })
            .collect();

        let mut interp = Interp::new(mem_words);
        interp.write_u32s(0, &ro);
        interp.run(&prog).unwrap();

        let cfg = XmtConfig::xmt_4k().scaled_to(1 << clusters_log);
        let mut mach = SimConfig::new(&cfg)
            .builder(prog)
            .mem_words(mem_words)
            .write_u32s(0, &ro)
            .build();
        mach.run().unwrap();

        // PS tickets may be assigned in different orders; compare them
        // as sets per slot, everything else bit-exactly.
        let ps_slots: Vec<u8> = par_ops
            .iter()
            .filter_map(|o| if let GenOp::Ps { slot } = o { Some(*slot) } else { None })
            .collect();
        let mut mi = interp.mem.clone();
        let mut mm = mach.mem.clone();
        canonicalize_ps_regions(&mut mi, threads, &ps_slots);
        canonicalize_ps_regions(&mut mm, threads, &ps_slots);
        prop_assert_eq!(&mi, &mm, "memory images diverge");
        prop_assert_eq!(interp.gregs, mach.gregs_snapshot(), "global registers diverge");
    }
}
