//! Pass 1 of the static-analysis pipeline: **translation validation**
//! of the block-compiled tier.
//!
//! The simulator's trace cache replays superblocks as flat
//! [`MicroOp`] records (DESIGN.md §15). This module *proves*, per
//! superblock, that the lowered records are equivalent to the reference
//! ISA semantics — by executing both over symbolic state and comparing
//! after every op:
//!
//! * the **reference step** interprets the original [`Instr`] with the
//!   typed register semantics (`r0` reads as zero, writes to it are
//!   discarded, `ReadGr` indexes the global file by the decoded
//!   register), building symbolic values through the same pure
//!   `eval_*` kernels the interpreter uses;
//! * the **lowered step** interprets the [`MicroOp`] fields with the
//!   *raw* accessor semantics of `exec_uop` (`&31` index masking, `r0`
//!   short-circuit, `% NUM_GREGS` on the global index) — so a lowering
//!   bug that happens to alias under masking is still caught by the
//!   canonical-form check below.
//!
//! Symbolic values are hash-consed into a per-block interner, so
//! equality of two expression DAGs is one id compare (structural
//! deep-equality would be exponential on re-associated chains like
//! `r = r + r`), and constants fold through `eval_alu`/`eval_mdu`/
//! `eval_fpu` so `fli`'s bit-pattern immediate meets its reference
//! value exactly.
//!
//! On top of semantic equivalence the validator pins the tier's full
//! deterministic contract: the superblock *partition* must match
//! [`BlockMap::from_instrs`], and every record's issue class, baked
//! unit latency, terminator seam (the [`xmt_isa::UOP_ENDS_BLOCK`] flag) and
//! remaining fields must equal the canonical [`lower_op`] output.
//! Semantic equivalence is the real theorem (it would also accept a
//! smarter backend's alternative encodings); canonical equality is the
//! completeness net that makes *every* single-field mutation of a
//! lowered record rejectable with a typed counterexample
//! ([`TransvalError`] carries the block, the op index, the pc and the
//! diverging symbolic state).
//!
//! `ps`/`sspawn` results and loaded values are opaque symbols indexed
//! by their position in the block, which is exact for equivalence
//! purposes: both executions observe the same opaque value for the
//! same dynamic event. Micro-ops the simulator always defers to the
//! interpreter path ([`UopKind::Boundary`], [`UopKind::Ignore`])
//! execute the *original instruction* on the lowered state — that is
//! the deferral the replay loops actually perform, so for those kinds
//! the validated property is precisely "the kind field routes the op
//! to the interpreter".

use std::collections::HashMap;
use std::fmt;
use xmt_isa::block::{lower_op, BlockMap, MicroOp, UnitLat, UopKind};
use xmt_isa::instr::{eval_alu, eval_fpu, eval_mdu};
use xmt_isa::reg::{NUM_FREGS, NUM_GREGS, NUM_IREGS};
use xmt_isa::{AluOp, BranchCond, DecodedInstr, FpuOp, Instr, MduOp, StepClass};

/// Interned symbolic value: an index into the block's [`Interner`].
type SymId = u32;

/// Branch-condition code for the symbolic branch record ([`BranchCond`]
/// as `u8`, plus this value for an unconditional jump).
const JUMP_CODE: u8 = 4;

/// One node of the hash-consed symbolic expression DAG. Operator
/// enums are stored as `u8` codes (they do not implement `Hash`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    /// A known 32-bit value (integer, or a float's bit pattern).
    Const(u32),
    /// Initial value of integer register `r` at block entry.
    InitI(u8),
    /// Initial value of float register `f` at block entry.
    InitF(u8),
    /// Initial value of global register `g` at block entry.
    InitG(u8),
    /// The virtual thread id.
    Tid,
    /// ALU operation over two values.
    Alu(u8, SymId, SymId),
    /// MDU operation over two values.
    Mdu(u8, SymId, SymId),
    /// FPU operation over two values (bit-pattern domain).
    Fpu(u8, SymId, SymId),
    /// Float negation.
    Fneg(SymId),
    /// The value returned by the `idx`-th op of the block when it is a
    /// load, at the given symbolic word address.
    Load(u32, SymId),
    /// A machine-level side-effect result (`ps` ticket, `sspawn` base
    /// tid, post-`ps` global value) of the `idx`-th op of the block.
    Opaque(u32),
}

const ALU_STRS: [&str; 8] = ["+", "-", "&", "|", "^", "<<", ">>", "<u"];
const MDU_STRS: [&str; 3] = ["*", "/u", "%u"];
const FPU_STRS: [&str; 4] = ["+f", "-f", "*f", "/f"];

/// Per-block hash-consing interner. Fresh per superblock, so ids stay
/// small and block validation is independent.
struct Interner {
    nodes: Vec<Node>,
    ids: HashMap<Node, SymId>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            nodes: Vec::with_capacity(64),
            ids: HashMap::with_capacity(64),
        }
    }

    fn intern(&mut self, n: Node) -> SymId {
        if let Some(&id) = self.ids.get(&n) {
            return id;
        }
        let id = self.nodes.len() as SymId;
        self.nodes.push(n);
        self.ids.insert(n, id);
        id
    }

    fn constant(&mut self, v: u32) -> SymId {
        self.intern(Node::Const(v))
    }

    fn alu(&mut self, op: AluOp, a: SymId, b: SymId) -> SymId {
        if let (Node::Const(x), Node::Const(y)) = (self.nodes[a as usize], self.nodes[b as usize]) {
            return self.constant(eval_alu(op, x, y));
        }
        self.intern(Node::Alu(op as u8, a, b))
    }

    fn mdu(&mut self, op: MduOp, a: SymId, b: SymId) -> SymId {
        if let (Node::Const(x), Node::Const(y)) = (self.nodes[a as usize], self.nodes[b as usize]) {
            return self.constant(eval_mdu(op, x, y));
        }
        self.intern(Node::Mdu(op as u8, a, b))
    }

    fn fpu(&mut self, op: FpuOp, a: SymId, b: SymId) -> SymId {
        if let (Node::Const(x), Node::Const(y)) = (self.nodes[a as usize], self.nodes[b as usize]) {
            let v = eval_fpu(op, f32::from_bits(x), f32::from_bits(y));
            return self.constant(v.to_bits());
        }
        self.intern(Node::Fpu(op as u8, a, b))
    }

    fn fneg(&mut self, a: SymId) -> SymId {
        if let Node::Const(x) = self.nodes[a as usize] {
            return self.constant((-f32::from_bits(x)).to_bits());
        }
        self.intern(Node::Fneg(a))
    }

    /// Symbolic word address of a memory access: `base + off`.
    fn addr(&mut self, base: SymId, off: u32) -> SymId {
        let c = self.constant(off);
        self.alu(AluOp::Add, base, c)
    }

    /// Render a symbolic value for counterexamples, depth-capped.
    fn render(&self, id: SymId, depth: u32) -> String {
        if depth == 0 {
            return "…".into();
        }
        match self.nodes[id as usize] {
            Node::Const(v) => format!("{v:#x}"),
            Node::InitI(r) => format!("r{r}@entry"),
            Node::InitF(r) => format!("f{r}@entry"),
            Node::InitG(g) => format!("g{g}@entry"),
            Node::Tid => "tid".into(),
            Node::Alu(op, a, b) => format!(
                "({} {} {})",
                self.render(a, depth - 1),
                ALU_STRS[op as usize],
                self.render(b, depth - 1)
            ),
            Node::Mdu(op, a, b) => format!(
                "({} {} {})",
                self.render(a, depth - 1),
                MDU_STRS[op as usize],
                self.render(b, depth - 1)
            ),
            Node::Fpu(op, a, b) => format!(
                "({} {} {})",
                self.render(a, depth - 1),
                FPU_STRS[op as usize],
                self.render(b, depth - 1)
            ),
            Node::Fneg(a) => format!("(-f {})", self.render(a, depth - 1)),
            Node::Load(i, a) => format!("load#{i}[{}]", self.render(a, depth - 1)),
            Node::Opaque(i) => format!("opaque#{i}"),
        }
    }
}

/// Symbolic machine state at one point of a superblock.
#[derive(Clone, PartialEq, Eq)]
struct SymState {
    iregs: [SymId; NUM_IREGS],
    fregs: [SymId; NUM_FREGS],
    gregs: [SymId; NUM_GREGS],
    /// Stores issued so far, in order: (is-float, word address, value).
    stores: Vec<(bool, SymId, SymId)>,
    /// Pending control transfer: (condition code, lhs, rhs, target).
    branch: Option<(u8, SymId, SymId, u32)>,
}

impl SymState {
    fn init(it: &mut Interner) -> Self {
        let zero = it.constant(0);
        let mut iregs = [zero; NUM_IREGS];
        for (r, slot) in iregs.iter_mut().enumerate().skip(1) {
            *slot = it.intern(Node::InitI(r as u8));
        }
        let mut fregs = [zero; NUM_FREGS];
        for (r, slot) in fregs.iter_mut().enumerate() {
            *slot = it.intern(Node::InitF(r as u8));
        }
        let mut gregs = [zero; NUM_GREGS];
        for (g, slot) in gregs.iter_mut().enumerate() {
            *slot = it.intern(Node::InitG(g as u8));
        }
        SymState {
            iregs,
            fregs,
            gregs,
            stores: Vec::new(),
            branch: None,
        }
    }

    /// Typed integer write: `r0` is discarded.
    fn write_i(&mut self, idx: usize, v: SymId) {
        if idx != 0 {
            self.iregs[idx] = v;
        }
    }

    /// Raw integer read, mirroring `RegFile::read_i_raw`.
    fn read_i_raw(&self, it: &mut Interner, r: u8) -> SymId {
        if r == 0 {
            it.constant(0)
        } else {
            self.iregs[(r & 31) as usize]
        }
    }

    /// Raw integer write, mirroring `RegFile::write_i_raw`.
    fn write_i_raw(&mut self, r: u8, v: SymId) {
        if r != 0 {
            self.iregs[(r & 31) as usize] = v;
        }
    }

    /// Raw float read, mirroring `RegFile::read_f_raw`.
    fn read_f_raw(&self, r: u8) -> SymId {
        self.fregs[(r & 31) as usize]
    }

    /// Raw float write, mirroring `RegFile::write_f_raw`.
    fn write_f_raw(&mut self, r: u8, v: SymId) {
        self.fregs[(r & 31) as usize] = v;
    }
}

/// Reference step: the typed ISA semantics of one instruction, the
/// ground truth the lowered record is validated against. `idx` is the
/// op's position in its block (tags loads and opaque results).
fn step_ref(it: &mut Interner, st: &mut SymState, ins: &Instr, idx: u32) {
    match *ins {
        Instr::Li { rd, imm } => {
            let v = it.constant(imm);
            st.write_i(rd.index(), v);
        }
        Instr::Alu { op, rd, rs1, rs2 } => {
            let v = it.alu(op, st.iregs[rs1.index()], st.iregs[rs2.index()]);
            st.write_i(rd.index(), v);
        }
        Instr::AluI { op, rd, rs1, imm } => {
            let c = it.constant(imm);
            let v = it.alu(op, st.iregs[rs1.index()], c);
            st.write_i(rd.index(), v);
        }
        Instr::Mdu { op, rd, rs1, rs2 } => {
            let v = it.mdu(op, st.iregs[rs1.index()], st.iregs[rs2.index()]);
            st.write_i(rd.index(), v);
        }
        Instr::Lw { rd, base, off } => {
            let a = it.addr(st.iregs[base.index()], off);
            let v = it.intern(Node::Load(idx, a));
            st.write_i(rd.index(), v);
        }
        Instr::Sw { rs, base, off } => {
            let a = it.addr(st.iregs[base.index()], off);
            st.stores.push((false, a, st.iregs[rs.index()]));
        }
        Instr::Flw { fd, base, off } => {
            let a = it.addr(st.iregs[base.index()], off);
            let v = it.intern(Node::Load(idx, a));
            st.fregs[fd.index()] = v;
        }
        Instr::Fsw { fs, base, off } => {
            let a = it.addr(st.iregs[base.index()], off);
            st.stores.push((true, a, st.fregs[fs.index()]));
        }
        Instr::Fli { fd, value } => {
            st.fregs[fd.index()] = it.constant(value.to_bits());
        }
        Instr::Fpu { op, fd, fs1, fs2 } => {
            st.fregs[fd.index()] = it.fpu(op, st.fregs[fs1.index()], st.fregs[fs2.index()]);
        }
        Instr::Fneg { fd, fs } => {
            st.fregs[fd.index()] = it.fneg(st.fregs[fs.index()]);
        }
        Instr::Fmov { fd, fs } => {
            st.fregs[fd.index()] = st.fregs[fs.index()];
        }
        Instr::Fmvif { fd, rs } => {
            // A bit move: in the bit-pattern domain the value carries over.
            st.fregs[fd.index()] = st.iregs[rs.index()];
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            st.branch = Some((
                cond as u8,
                st.iregs[rs1.index()],
                st.iregs[rs2.index()],
                target as u32,
            ));
        }
        Instr::Jump { target } => {
            let z = it.constant(0);
            st.branch = Some((JUMP_CODE, z, z, target as u32));
        }
        Instr::Tid { rd } => {
            let v = it.intern(Node::Tid);
            st.write_i(rd.index(), v);
        }
        Instr::ReadGr { rd, src } => {
            let v = st.gregs[src.index()];
            st.write_i(rd.index(), v);
        }
        Instr::WriteGr { rs, dst } => {
            st.gregs[dst.index()] = st.iregs[rs.index()];
        }
        Instr::Ps { rd, inc: _, on } => {
            // The ticket and the post-increment global value are two
            // distinct opaque results of the same dynamic event.
            let t = it.intern(Node::Opaque(idx * 2));
            let g = it.intern(Node::Opaque(idx * 2 + 1));
            st.write_i(rd.index(), t);
            st.gregs[on.index()] = g;
        }
        Instr::Sspawn { rd, count: _ } => {
            let t = it.intern(Node::Opaque(idx * 2));
            st.write_i(rd.index(), t);
        }
        Instr::Spawn { .. } | Instr::Join | Instr::Halt | Instr::Nop => {}
    }
}

/// Lowered step: the raw-field semantics of one micro-op, exactly as
/// `exec_uop`/`eval_branch_uop` and the LSU arm would execute it.
/// Returns `false` for [`UopKind::Cold`] (the caller reports it) and
/// defers [`UopKind::Ignore`]/[`UopKind::Boundary`] to the caller.
fn step_uop(it: &mut Interner, st: &mut SymState, u: &MicroOp, idx: u32) {
    let rr = |it: &mut Interner, st: &mut SymState, op: AluOp| {
        let a = st.read_i_raw(it, u.b);
        let b = st.read_i_raw(it, u.c);
        let v = it.alu(op, a, b);
        st.write_i_raw(u.a, v);
    };
    let ri = |it: &mut Interner, st: &mut SymState, op: AluOp| {
        let a = st.read_i_raw(it, u.b);
        let c = it.constant(u.imm);
        let v = it.alu(op, a, c);
        st.write_i_raw(u.a, v);
    };
    let fp = |it: &mut Interner, st: &mut SymState, op: FpuOp| {
        let v = it.fpu(op, st.read_f_raw(u.b), st.read_f_raw(u.c));
        st.write_f_raw(u.a, v);
    };
    let md = |it: &mut Interner, st: &mut SymState, op: MduOp| {
        let a = st.read_i_raw(it, u.b);
        let b = st.read_i_raw(it, u.c);
        let v = it.mdu(op, a, b);
        st.write_i_raw(u.a, v);
    };
    let br = |it: &mut Interner, st: &mut SymState, code: u8| {
        let a = st.read_i_raw(it, u.b);
        let b = st.read_i_raw(it, u.c);
        st.branch = Some((code, a, b, u.imm));
    };
    match u.kind {
        UopKind::Li => {
            let v = it.constant(u.imm);
            st.write_i_raw(u.a, v);
        }
        UopKind::Tid => {
            let v = it.intern(Node::Tid);
            st.write_i_raw(u.a, v);
        }
        UopKind::ReadGr => {
            let v = st.gregs[(u.b as usize) % NUM_GREGS];
            st.write_i_raw(u.a, v);
        }
        UopKind::Fli => {
            let v = it.constant(u.imm);
            st.write_f_raw(u.a, v);
        }
        UopKind::Fmov => {
            let v = st.read_f_raw(u.b);
            st.write_f_raw(u.a, v);
        }
        UopKind::Fmvif => {
            let v = st.read_i_raw(it, u.b);
            st.write_f_raw(u.a, v);
        }
        UopKind::Nop => {}
        UopKind::AluAdd => rr(it, st, AluOp::Add),
        UopKind::AluSub => rr(it, st, AluOp::Sub),
        UopKind::AluAnd => rr(it, st, AluOp::And),
        UopKind::AluOr => rr(it, st, AluOp::Or),
        UopKind::AluXor => rr(it, st, AluOp::Xor),
        UopKind::AluSll => rr(it, st, AluOp::Sll),
        UopKind::AluSrl => rr(it, st, AluOp::Srl),
        UopKind::AluSltu => rr(it, st, AluOp::Sltu),
        UopKind::AluIAdd => ri(it, st, AluOp::Add),
        UopKind::AluISub => ri(it, st, AluOp::Sub),
        UopKind::AluIAnd => ri(it, st, AluOp::And),
        UopKind::AluIOr => ri(it, st, AluOp::Or),
        UopKind::AluIXor => ri(it, st, AluOp::Xor),
        UopKind::AluISll => ri(it, st, AluOp::Sll),
        UopKind::AluISrl => ri(it, st, AluOp::Srl),
        UopKind::AluISltu => ri(it, st, AluOp::Sltu),
        UopKind::FpuAdd => fp(it, st, FpuOp::Add),
        UopKind::FpuSub => fp(it, st, FpuOp::Sub),
        UopKind::FpuMul => fp(it, st, FpuOp::Mul),
        UopKind::FpuDiv => fp(it, st, FpuOp::Div),
        UopKind::Fneg => {
            let v = st.read_f_raw(u.b);
            let v = it.fneg(v);
            st.write_f_raw(u.a, v);
        }
        UopKind::MduMul => md(it, st, MduOp::Mul),
        UopKind::MduDivu => md(it, st, MduOp::Divu),
        UopKind::MduRemu => md(it, st, MduOp::Remu),
        UopKind::Lw => {
            let base = st.read_i_raw(it, u.b);
            let a = it.addr(base, u.imm);
            let v = it.intern(Node::Load(idx, a));
            st.write_i_raw(u.a, v);
        }
        UopKind::Flw => {
            let base = st.read_i_raw(it, u.b);
            let a = it.addr(base, u.imm);
            let v = it.intern(Node::Load(idx, a));
            st.write_f_raw(u.a, v);
        }
        UopKind::Sw => {
            let base = st.read_i_raw(it, u.b);
            let a = it.addr(base, u.imm);
            let v = st.read_i_raw(it, u.a);
            st.stores.push((false, a, v));
        }
        UopKind::Fsw => {
            let base = st.read_i_raw(it, u.b);
            let a = it.addr(base, u.imm);
            let v = st.read_f_raw(u.a);
            st.stores.push((true, a, v));
        }
        UopKind::BrEq => br(it, st, BranchCond::Eq as u8),
        UopKind::BrNe => br(it, st, BranchCond::Ne as u8),
        UopKind::BrLtu => br(it, st, BranchCond::Ltu as u8),
        UopKind::BrGeu => br(it, st, BranchCond::Geu as u8),
        UopKind::Jump => {
            let z = it.constant(0);
            st.branch = Some((JUMP_CODE, z, z, u.imm));
        }
        UopKind::Ignore | UopKind::Boundary | UopKind::Cold => {
            unreachable!("deferred kinds are handled by the caller")
        }
    }
}

/// Why a lowering failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransvalReason {
    /// The micro-op array is not one slot per pc.
    LengthMismatch {
        /// Program length.
        expected: usize,
        /// Micro-op slots provided.
        got: usize,
    },
    /// The provided [`BlockMap`] disagrees with the canonical partition
    /// at this pc (leader where none belongs, or a missing leader).
    Partition {
        /// Canonical leader-ness of the pc.
        expected_leader: bool,
    },
    /// A not-yet-lowered slot where a lowered one is required (strict
    /// mode), or a partially-lowered superblock (lazy mode).
    Cold,
    /// The two symbolic executions diverged at this op.
    Divergence {
        /// Which state component diverged ("ireg r3", "store #2", …).
        what: String,
        /// The reference value, rendered.
        reference: String,
        /// The lowered value, rendered.
        lowered: String,
    },
    /// The baked issue class disagrees with the decoded step class.
    ClassMismatch {
        /// Canonical class.
        expected: StepClass,
        /// Lowered class.
        got: StepClass,
    },
    /// The baked unit latency disagrees with the canonical one.
    LatencyMismatch {
        /// Canonical latency.
        expected: u8,
        /// Lowered latency.
        got: u8,
    },
    /// The block-end flag disagrees with the superblock partition.
    TerminatorSeam {
        /// Whether this pc canonically ends its block.
        expected: bool,
        /// What the lowered flag says.
        got: bool,
    },
    /// The dispatch selector disagrees with the canonical one.
    KindMismatch {
        /// Canonical kind.
        expected: UopKind,
        /// Lowered kind.
        got: UopKind,
    },
    /// Semantically equivalent (under index masking) but not the
    /// canonical [`lower_op`] record — the named field differs.
    NonCanonical {
        /// First differing field.
        field: &'static str,
    },
}

impl fmt::Display for TransvalReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransvalReason::LengthMismatch { expected, got } => write!(
                f,
                "micro-op array has {got} slots for a {expected}-instruction program"
            ),
            TransvalReason::Partition { expected_leader } => {
                if *expected_leader {
                    write!(f, "the canonical partition starts a superblock here")
                } else {
                    write!(f, "no superblock starts here in the canonical partition")
                }
            }
            TransvalReason::Cold => write!(f, "cold (unlowered) slot in a validated block"),
            TransvalReason::Divergence {
                what,
                reference,
                lowered,
            } => write!(
                f,
                "symbolic divergence in {what}: reference {reference}, lowered {lowered}"
            ),
            TransvalReason::ClassMismatch { expected, got } => {
                write!(f, "issue class {got:?} baked, {expected:?} expected")
            }
            TransvalReason::LatencyMismatch { expected, got } => {
                write!(f, "unit latency {got} baked, {expected} expected")
            }
            TransvalReason::TerminatorSeam { expected, got } => write!(
                f,
                "ends-block flag is {got}, but the partition says {expected}"
            ),
            TransvalReason::KindMismatch { expected, got } => {
                write!(
                    f,
                    "dispatch kind {got:?}, canonical lowering has {expected:?}"
                )
            }
            TransvalReason::NonCanonical { field } => write!(
                f,
                "field `{field}` differs from the canonical lowering (semantically masked)"
            ),
        }
    }
}

/// A typed counterexample: where and why a lowering is not equivalent
/// to the reference semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransvalError {
    /// Leader pc of the superblock containing the failure.
    pub block: usize,
    /// Op index within the block.
    pub index: usize,
    /// Absolute pc of the failing op.
    pub pc: usize,
    /// What went wrong.
    pub reason: TransvalReason,
}

impl fmt::Display for TransvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "translation validation failed at pc {} (op {} of the superblock at pc {}): {}",
            self.pc, self.index, self.block, self.reason
        )
    }
}

impl std::error::Error for TransvalError {}

/// What a successful validation covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransvalStats {
    /// Superblocks proven equivalent.
    pub blocks: usize,
    /// Micro-ops checked inside them.
    pub uops: usize,
    /// Fully-cold (not yet lowered) superblocks skipped — nonzero only
    /// under [`validate_cache`].
    pub cold_blocks: usize,
}

/// Compute the canonical lowering of an instruction stream: the
/// superblock partition plus one micro-op per pc, exactly as the
/// simulator's trace cache materializes them. This is the reference
/// the mutation tests perturb.
pub fn lower(instrs: &[Instr], lat: UnitLat) -> (BlockMap, Vec<MicroOp>) {
    let decoded: Vec<DecodedInstr> = instrs.iter().map(|i| DecodedInstr::new(*i)).collect();
    let map = BlockMap::from_instrs(&decoded);
    let n = decoded.len();
    let uops = decoded
        .iter()
        .enumerate()
        .map(|(pc, d)| {
            let ends = pc + 1 == n || map.is_leader(pc + 1);
            lower_op(d, lat, ends)
        })
        .collect();
    (map, uops)
}

fn validate(
    instrs: &[Instr],
    map: &BlockMap,
    uops: &[MicroOp],
    lat: UnitLat,
    allow_cold_blocks: bool,
) -> Result<TransvalStats, TransvalError> {
    let decoded: Vec<DecodedInstr> = instrs.iter().map(|i| DecodedInstr::new(*i)).collect();
    let n = decoded.len();
    if uops.len() != n {
        return Err(TransvalError {
            block: 0,
            index: 0,
            pc: 0,
            reason: TransvalReason::LengthMismatch {
                expected: n,
                got: uops.len(),
            },
        });
    }
    // The partition itself is part of the contract: a wrong seam makes
    // the replay loops re-enter (or fail to re-enter) the cache at the
    // wrong pcs even when every record is individually right.
    let canon_map = BlockMap::from_instrs(&decoded);
    for pc in 0..n {
        if map.is_leader(pc) != canon_map.is_leader(pc) {
            return Err(TransvalError {
                block: canon_map.leader_of(pc),
                index: 0,
                pc,
                reason: TransvalReason::Partition {
                    expected_leader: canon_map.is_leader(pc),
                },
            });
        }
    }

    let mut stats = TransvalStats::default();
    let mut entry = 0;
    while entry < n {
        let len = canon_map.block_len(entry);
        if allow_cold_blocks
            && uops[entry..entry + len]
                .iter()
                .all(|u| u.kind == UopKind::Cold)
        {
            stats.cold_blocks += 1;
            entry += len;
            continue;
        }
        validate_block(&decoded, uops, entry, len, lat)?;
        stats.blocks += 1;
        stats.uops += len;
        entry += len;
    }
    Ok(stats)
}

fn validate_block(
    decoded: &[DecodedInstr],
    uops: &[MicroOp],
    entry: usize,
    len: usize,
    lat: UnitLat,
) -> Result<(), TransvalError> {
    let mut it = Interner::new();
    let mut ref_st = SymState::init(&mut it);
    let mut uop_st = ref_st.clone();
    for i in 0..len {
        let pc = entry + i;
        let d = &decoded[pc];
        let u = &uops[pc];
        let fail = |reason| TransvalError {
            block: entry,
            index: i,
            pc,
            reason,
        };
        if u.kind == UopKind::Cold {
            return Err(fail(TransvalReason::Cold));
        }
        // Semantic lockstep first: a diverging value is the most
        // direct counterexample.
        step_ref(&mut it, &mut ref_st, &d.instr, i as u32);
        match u.kind {
            // The replay loops execute these through the interpreter
            // on the original instruction; model exactly that.
            UopKind::Ignore | UopKind::Boundary => {
                step_ref(&mut it, &mut uop_st, &d.instr, i as u32)
            }
            _ => step_uop(&mut it, &mut uop_st, u, i as u32),
        }
        if let Some(reason) = diverged(&it, &ref_st, &uop_st) {
            return Err(fail(reason));
        }
        // Metadata: everything the issue loops consume besides values.
        let ends = i + 1 == len;
        let canon = lower_op(d, lat, ends);
        if u.cls != canon.cls {
            return Err(fail(TransvalReason::ClassMismatch {
                expected: canon.cls,
                got: u.cls,
            }));
        }
        if u.lat != canon.lat {
            return Err(fail(TransvalReason::LatencyMismatch {
                expected: canon.lat,
                got: u.lat,
            }));
        }
        if u.ends_block() != ends {
            return Err(fail(TransvalReason::TerminatorSeam {
                expected: ends,
                got: u.ends_block(),
            }));
        }
        if u.kind != canon.kind {
            return Err(fail(TransvalReason::KindMismatch {
                expected: canon.kind,
                got: u.kind,
            }));
        }
        // Completeness net: raw-accessor masking makes some field
        // values semantically interchangeable (`a = 5` vs `a = 37`);
        // pin the exact canonical record so every perturbation is
        // rejectable.
        if let Some(field) = noncanonical_field(u, &canon) {
            return Err(fail(TransvalReason::NonCanonical { field }));
        }
    }
    Ok(())
}

fn noncanonical_field(u: &MicroOp, canon: &MicroOp) -> Option<&'static str> {
    if u.a != canon.a {
        Some("a")
    } else if u.b != canon.b {
        Some("b")
    } else if u.c != canon.c {
        Some("c")
    } else if u.flags != canon.flags {
        Some("flags")
    } else if u.imm != canon.imm {
        Some("imm")
    } else {
        None
    }
}

/// First divergence between the two states, rendered.
fn diverged(it: &Interner, a: &SymState, b: &SymState) -> Option<TransvalReason> {
    const DEPTH: u32 = 6;
    let mk = |what: String, ra: SymId, rb: SymId| TransvalReason::Divergence {
        what,
        reference: it.render(ra, DEPTH),
        lowered: it.render(rb, DEPTH),
    };
    for r in 0..NUM_IREGS {
        if a.iregs[r] != b.iregs[r] {
            return Some(mk(format!("ireg r{r}"), a.iregs[r], b.iregs[r]));
        }
    }
    for r in 0..NUM_FREGS {
        if a.fregs[r] != b.fregs[r] {
            return Some(mk(format!("freg f{r}"), a.fregs[r], b.fregs[r]));
        }
    }
    for g in 0..NUM_GREGS {
        if a.gregs[g] != b.gregs[g] {
            return Some(mk(format!("greg g{g}"), a.gregs[g], b.gregs[g]));
        }
    }
    if a.stores.len() != b.stores.len() {
        return Some(TransvalReason::Divergence {
            what: "store count".into(),
            reference: a.stores.len().to_string(),
            lowered: b.stores.len().to_string(),
        });
    }
    for (k, (sa, sb)) in a.stores.iter().zip(&b.stores).enumerate() {
        if sa != sb {
            return Some(TransvalReason::Divergence {
                what: format!("store #{k}"),
                reference: format!(
                    "{}[{}] = {}",
                    if sa.0 { "fmem" } else { "mem" },
                    it.render(sa.1, DEPTH),
                    it.render(sa.2, DEPTH)
                ),
                lowered: format!(
                    "{}[{}] = {}",
                    if sb.0 { "fmem" } else { "mem" },
                    it.render(sb.1, DEPTH),
                    it.render(sb.2, DEPTH)
                ),
            });
        }
    }
    if a.branch != b.branch {
        let show = |br: &Option<(u8, SymId, SymId, u32)>| match br {
            None => "no transfer".to_string(),
            Some((JUMP_CODE, _, _, t)) => format!("jump -> {t}"),
            Some((c, x, y, t)) => format!(
                "branch[{}]({}, {}) -> {t}",
                ["eq", "ne", "ltu", "geu"][*c as usize],
                it.render(*x, DEPTH),
                it.render(*y, DEPTH)
            ),
        };
        return Some(TransvalReason::Divergence {
            what: "control transfer".into(),
            reference: show(&a.branch),
            lowered: show(&b.branch),
        });
    }
    None
}

/// Validate a complete lowering against the reference semantics:
/// every slot must be warm and every superblock must prove equivalent.
/// This is the strict mode the mutation tests and `validate_program`
/// use.
pub fn validate_lowering(
    instrs: &[Instr],
    map: &BlockMap,
    uops: &[MicroOp],
    lat: UnitLat,
) -> Result<TransvalStats, TransvalError> {
    validate(instrs, map, uops, lat, false)
}

/// Validate a (possibly lazily-warmed) trace cache: fully-cold
/// superblocks are skipped and counted, a *partially* cold block is an
/// error (the cache lowers whole blocks atomically).
pub fn validate_cache(
    instrs: &[Instr],
    map: &BlockMap,
    uops: &[MicroOp],
    lat: UnitLat,
) -> Result<TransvalStats, TransvalError> {
    validate(instrs, map, uops, lat, true)
}

/// Lower an instruction stream canonically and validate the result —
/// the one-call entry the static-analysis gate (`xmt_bench::lint`) and
/// `verify_with_lowering` use.
pub fn validate_program(instrs: &[Instr], lat: UnitLat) -> Result<TransvalStats, TransvalError> {
    let (map, uops) = lower(instrs, lat);
    validate_lowering(instrs, &map, &uops, lat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_isa::reg::{fr, gr, ir};
    use xmt_isa::ProgramBuilder;

    const LAT: UnitLat = UnitLat { fpu: 4, mdu: 8 };

    fn kernel() -> Vec<Instr> {
        // A representative mixed kernel: serial driver, spawned body
        // with tid arithmetic, fp pipeline, ps, loads and stores.
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let done = b.label();
        b.li(ir(1), 64);
        b.spawn(ir(1), par);
        b.jump(done);
        b.bind(par);
        b.tid(ir(2));
        b.slli(ir(3), ir(2), 1);
        b.addi(ir(3), ir(3), 128);
        b.flw(fr(1), ir(3), 0);
        b.fmul(fr(2), fr(1), fr(1));
        b.fneg(fr(3), fr(2));
        b.fsw(fr(3), ir(3), 64);
        b.li(ir(4), 1);
        b.ps(ir(5), ir(4), gr(1));
        b.sw(ir(2), ir(5), 0);
        b.join();
        b.bind(done);
        b.halt();
        b.build().unwrap().instrs().to_vec()
    }

    #[test]
    fn canonical_lowering_validates() {
        let instrs = kernel();
        let stats = validate_program(&instrs, LAT).expect("canonical lowering must validate");
        assert!(stats.blocks > 0 && stats.uops == instrs.len());
        assert_eq!(stats.cold_blocks, 0);
    }

    #[test]
    fn every_single_op_program_validates() {
        // Each instruction kind in isolation (one-op blocks).
        for ins in [
            Instr::Nop,
            Instr::Halt,
            Instr::Join,
            Instr::Li { rd: ir(0), imm: 9 },
            Instr::WriteGr {
                rs: ir(3),
                dst: gr(2),
            },
            Instr::Fmvif {
                fd: fr(1),
                rs: ir(0),
            },
        ] {
            validate_program(&[ins], LAT).unwrap_or_else(|e| panic!("{ins:?}: {e}"));
        }
    }

    #[test]
    fn kind_mutation_is_rejected_with_counterexample() {
        let instrs = kernel();
        let (map, mut uops) = lower(&instrs, LAT);
        // The fmul at pc 7 becomes an fdiv: same class/latency/fields,
        // caught purely by the symbolic divergence.
        let pc = instrs
            .iter()
            .position(|i| matches!(i, Instr::Fpu { .. }))
            .unwrap();
        assert_eq!(uops[pc].kind, UopKind::FpuMul);
        uops[pc].kind = UopKind::FpuDiv;
        let err = validate_lowering(&instrs, &map, &uops, LAT).unwrap_err();
        assert_eq!(err.pc, pc);
        assert!(
            matches!(err.reason, TransvalReason::Divergence { .. }),
            "{err}"
        );
    }

    #[test]
    fn masked_register_mutation_is_rejected_as_noncanonical() {
        let instrs = kernel();
        let (map, mut uops) = lower(&instrs, LAT);
        let pc = instrs
            .iter()
            .position(|i| matches!(i, Instr::Alu { .. } | Instr::AluI { .. }))
            .unwrap();
        // `a + 32` aliases `a` under the raw `&31` masking: no value
        // diverges, but the record is not canonical.
        uops[pc].a += 32;
        let err = validate_lowering(&instrs, &map, &uops, LAT).unwrap_err();
        assert_eq!(err.pc, pc);
        assert_eq!(
            err.reason,
            TransvalReason::NonCanonical { field: "a" },
            "{err}"
        );
    }

    #[test]
    fn latency_class_and_seam_mutations_are_rejected() {
        let instrs = kernel();
        let (map, base) = lower(&instrs, LAT);
        let fpu_pc = instrs
            .iter()
            .position(|i| matches!(i, Instr::Fpu { .. }))
            .unwrap();

        let mut uops = base.clone();
        uops[fpu_pc].lat = 7;
        let err = validate_lowering(&instrs, &map, &uops, LAT).unwrap_err();
        assert!(matches!(
            err.reason,
            TransvalReason::LatencyMismatch {
                expected: 4,
                got: 7
            }
        ));

        let mut uops = base.clone();
        uops[fpu_pc].cls = StepClass::Alu;
        let err = validate_lowering(&instrs, &map, &uops, LAT).unwrap_err();
        assert!(matches!(err.reason, TransvalReason::ClassMismatch { .. }));

        let mut uops = base.clone();
        uops[fpu_pc].flags ^= xmt_isa::UOP_ENDS_BLOCK;
        let err = validate_lowering(&instrs, &map, &uops, LAT).unwrap_err();
        assert!(matches!(err.reason, TransvalReason::TerminatorSeam { .. }));
    }

    #[test]
    fn wrong_partition_is_rejected() {
        let instrs = kernel();
        let (_, uops) = lower(&instrs, LAT);
        // A partition computed for a *different* program.
        let other: Vec<DecodedInstr> = [Instr::Nop; 3]
            .iter()
            .map(|i| DecodedInstr::new(*i))
            .collect();
        let bad = BlockMap::from_instrs(&other);
        let err = validate_lowering(&instrs[..3], &bad, &uops[..3], LAT).unwrap_err();
        assert!(matches!(err.reason, TransvalReason::Partition { .. }) || err.pc < 3);
    }

    #[test]
    fn cold_slot_strict_vs_lazy() {
        let instrs = kernel();
        let (map, mut uops) = lower(&instrs, LAT);
        // Freeze one whole block cold (as a lazy cache would leave it).
        let entry = (0..instrs.len())
            .rev()
            .find(|&pc| map.is_leader(pc))
            .unwrap();
        let len = map.block_len(entry);
        for u in &mut uops[entry..entry + len] {
            *u = MicroOp::COLD;
        }
        let err = validate_lowering(&instrs, &map, &uops, LAT).unwrap_err();
        assert_eq!(err.reason, TransvalReason::Cold);
        let stats = validate_cache(&instrs, &map, &uops, LAT).expect("lazy mode skips cold block");
        assert_eq!(stats.cold_blocks, 1);

        // A *partially* cold block is corrupt in either mode.
        let (map, mut uops) = lower(&instrs, LAT);
        let wide = (0..instrs.len())
            .find(|&pc| map.is_leader(pc) && map.block_len(pc) > 1)
            .unwrap();
        uops[wide + 1] = MicroOp::COLD;
        assert!(validate_cache(&instrs, &map, &uops, LAT).is_err());
    }

    #[test]
    fn store_and_branch_divergences_render_witnesses() {
        let instrs = kernel();
        let (map, mut uops) = lower(&instrs, LAT);
        let sw_pc = instrs
            .iter()
            .position(|i| matches!(i, Instr::Sw { .. }))
            .unwrap();
        uops[sw_pc].imm ^= 8; // store lands 8 words off
        let err = validate_lowering(&instrs, &map, &uops, LAT).unwrap_err();
        assert_eq!(err.pc, sw_pc);
        let msg = err.to_string();
        assert!(msg.contains("store"), "{msg}");
    }
}
