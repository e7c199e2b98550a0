//! The cluster issue kernel: the XMT cluster-level rules, written once.
//!
//! A cluster cycle is: wake the TCUs whose FPU/MDU latency expired,
//! then let every ready TCU try to issue one instruction — ALU, branch
//! and `nop` always issue; FPU, MDU and LSU contend for the cluster's
//! shared ports in round-robin order, losers burning one stall each;
//! `join` retires the thread once its posted stores have drained; idle
//! TCUs pick up the next thread ID while any remain. Two functions
//! implement that cycle:
//!
//! * [`issue_walk`] visits TCUs one by one in round-robin order — the
//!   reference semantics, and the only path whenever the visit order is
//!   observable;
//! * [`issue_bulk`] issues straight off the per-class bitmasks,
//!   accruing the stalls of losing contenders by popcount — legal
//!   exactly when [`order_observable`] is false.
//!
//! Both are built from one `#[inline(always)]` helper per issue class
//! on [`Cx`], so each class's semantics, each stall counter and each
//! error constructor exists once. Where the globally ordered effects
//! go sits behind [`IssueSink`], monomorphised per sink: the machine's
//! sink applies everything directly to the machine, the unit tests'
//! records it.

use super::{MachineStats, SimError};
use crate::config::XmtConfig;
use crate::txn::{Request, TxnKind, MAX_OUTSTANDING};
use xmt_isa::block::{eval_branch_uop, exec_uop, MicroOp};
use xmt_isa::decoded::{DecodedProgram, NUM_STEP_CLASSES};
use xmt_isa::instr::{eval_branch, Instr};
use xmt_isa::interp::exec_compute;
use xmt_isa::reg::{Regs, NUM_GREGS};
use xmt_mem::AddressHash;

/// FPU result latency in cycles.
pub(super) const FPU_LATENCY: u64 = 4;
/// MDU (multiply/divide) latency in cycles.
pub(super) const MDU_LATENCY: u64 = 8;

/// One TCU's issue record: every field a visit of the issue kernel
/// reads, in 32 bytes, so a 32-TCU cluster's records fill 1 KiB.
/// Whether the TCU is running a thread, disabled or stuck is not here:
/// those flags live in the cluster's [`ClusterMasks`] only. Nor are its
/// registers: they live in [`ClusterTcus::regs`], reached only when the
/// TCU executes.
#[derive(Debug, Clone, Copy)]
pub(super) struct Tcu {
    /// Cycle until which the TCU is busy (FPU/MDU latency).
    pub(super) busy_until: u64,
    pub(super) pc: usize,
    /// Scoreboard: bitmask of integer registers with pending loads.
    pub(super) pend_i: u32,
    /// Scoreboard: bitmask of FP registers with pending loads.
    pub(super) pend_f: u32,
    /// Outstanding memory transactions (loads + stores).
    pub(super) outstanding: u8,
    /// Memoized issue classification of the instruction at `pc` against
    /// the current scoreboard (see [`IssueClass`]). Kept current by
    /// [`reclassify_masked`] at every pc change and scoreboard clear,
    /// so the issue walk classifies a stalled TCU from this one byte
    /// without refetching the program.
    pub(super) cls: IssueClass,
}

impl Tcu {
    pub(super) const IDLE: Self = Self {
        busy_until: 0,
        pc: 0,
        pend_i: 0,
        pend_f: 0,
        outstanding: 0,
        cls: IssueClass::BadPc,
    };
}

/// Which row of a cluster's register store holds each register, sized
/// to the program: row 0 holds the thread id (`r0` is hardwired to
/// zero, so it needs no row), rows `1..fbase` hold `r1` up to the
/// highest integer register the program names, and the rows from
/// `fbase` on hold `f0` up to the highest FP register it names.
/// Computed once per machine from the union of the decoded program's
/// hazard masks, which cover every register each instruction reads or
/// writes. The radix-8 FFT kernels name `r0`–`r12` and `f0`–`f18`:
/// 32 rows, 128 bytes per TCU. No program gets more than 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegLayout {
    /// Row of `f0`: one past the highest integer register named.
    fbase: u8,
    /// Rows in all.
    rows: u8,
}

impl RegLayout {
    /// The layout of `decoded`'s registers.
    pub fn of(decoded: &DecodedProgram) -> Self {
        let (imask, fmask) = decoded
            .instrs()
            .iter()
            .fold((0u32, 0u32), |(i, f), d| (i | d.imask, f | d.fmask));
        // Rows to hold every set bit of `mask`: its highest index + 1.
        let span = |mask: u32| (u32::BITS - mask.leading_zeros()) as u8;
        let fbase = span(imask).max(1);
        Self {
            fbase,
            rows: fbase + span(fmask),
        }
    }

    /// Rows per TCU (words of the store per TCU).
    pub fn rows(self) -> usize {
        usize::from(self.rows)
    }
}

/// One cluster's TCUs: the issue records the kernel reads on every
/// visit, and beside them one register store for all of them.
///
/// The store is register-major: TCU `t`'s copy of layout row `r` is
/// word `r * ntcus + t`, so a row of the store is one register across
/// the cluster. The TCUs that win the shared FPU and LSU ports on
/// consecutive cycles are neighbours at the same pc, naming the same
/// registers, so their operands share host cache lines; a TCU-major
/// store would give each TCU its own lines.
///
/// `hot` and `regs` stay empty until the cluster's first thread; that
/// activation bears both at once — `ntcus` idle records and
/// `layout.rows() × ntcus` words, the only place either is born — and
/// they then live for the run. A cluster no thread reaches (most of
/// them, on a machine with far more TCUs than threads) holds neither.
#[derive(Debug, Clone)]
pub(super) struct ClusterTcus {
    pub(super) hot: Vec<Tcu>,
    pub(super) regs: Vec<u32>,
    pub(super) layout: RegLayout,
    ntcus: usize,
}

impl ClusterTcus {
    pub(super) fn new(ntcus: usize, layout: RegLayout) -> Self {
        Self {
            hot: Vec::new(),
            regs: Vec::new(),
            layout,
            ntcus,
        }
    }

    /// Bear the cluster's issue records, all idle, and its register
    /// store, all zero.
    #[cold]
    #[inline(never)]
    fn bear(&mut self) {
        self.hot = vec![Tcu::IDLE; self.ntcus];
        self.regs = vec![0; self.layout.rows() * self.ntcus];
    }

    /// TCU `t` takes thread `tid`: zeroed registers, `tid` in row 0.
    /// The cluster's first thread bears the records and the store.
    #[inline(always)]
    fn start_thread(&mut self, t: usize, tid: u32) {
        let ntcus = self.ntcus;
        if self.regs.is_empty() {
            self.bear();
        }
        for w in self.regs[t..].iter_mut().step_by(ntcus) {
            *w = 0;
        }
        self.regs[t] = tid;
    }

    /// The thread id TCU `t` runs (or last ran): row 0. The store must
    /// be born.
    #[inline(always)]
    pub(super) fn tid(&self, t: usize) -> u32 {
        self.regs[t]
    }

    /// TCU `t`'s issue record and its registers. The cluster must be
    /// born.
    #[inline(always)]
    pub(super) fn split(&mut self, t: usize) -> (&mut Tcu, TcuRegs<'_>) {
        let stride = self.ntcus;
        let regs = TcuRegs {
            words: &mut self.regs[t..],
            stride,
            fbase: usize::from(self.layout.fbase),
        };
        (&mut self.hot[t], regs)
    }
}

/// One TCU's registers in its cluster's store: the column starting at
/// its row-0 word, one `stride` (the cluster width) per row.
pub(super) struct TcuRegs<'a> {
    words: &'a mut [u32],
    stride: usize,
    fbase: usize,
}

impl TcuRegs<'_> {
    /// The word of integer register `r` (`r ≥ 1`).
    #[inline(always)]
    fn int(&self, r: u8) -> usize {
        debug_assert!(usize::from(r) < self.fbase, "r{r} is outside the layout");
        usize::from(r) * self.stride
    }

    /// The word of FP register `r`.
    #[inline(always)]
    fn fp(&self, r: u8) -> usize {
        (self.fbase + usize::from(r)) * self.stride
    }
}

impl Regs for TcuRegs<'_> {
    #[inline(always)]
    fn read_i_raw(&self, r: u8) -> u32 {
        if r == 0 {
            0
        } else {
            self.words[self.int(r)]
        }
    }

    #[inline(always)]
    fn write_i_raw(&mut self, r: u8, v: u32) {
        if r != 0 {
            let w = self.int(r);
            self.words[w] = v;
        }
    }

    #[inline(always)]
    fn read_f_raw(&self, r: u8) -> f32 {
        f32::from_bits(self.words[self.fp(r)])
    }

    #[inline(always)]
    fn write_f_raw(&mut self, r: u8, v: f32) {
        let w = self.fp(r);
        self.words[w] = v.to_bits();
    }

    #[inline(always)]
    fn tid(&self) -> u32 {
        self.words[0]
    }
}

/// What a TCU's next visit will do, resolved from (`pc`, scoreboard)
/// whenever either changes. Latency (`busy_until`) and port budgets are
/// deliberately excluded: they vary cycle-to-cycle and stay as direct
/// checks in the issue loop. The payoff is on stall-dominated cycles —
/// classifying a blocked TCU touches only its own cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum IssueClass {
    /// `pc` outside the program: the visit faults.
    BadPc,
    /// Scoreboard conflict: stall until a reply clears it.
    Scoreboard,
    /// Issues on the ALU (always has budget).
    Alu,
    /// Wants the shared FPU port.
    Fpu,
    /// Wants the shared MDU port.
    Mdu,
    /// Wants the shared LSU port.
    Lsu,
    /// Branch or jump: always issues.
    Branch,
    /// `ps`/`sspawn`: always issues (global-state ops).
    Ps,
    /// `join`: retires, or waits silently on posted stores.
    Join,
    /// `nop`: always issues.
    Nop,
    /// Illegal in parallel mode: the visit faults.
    Illegal,
}

/// [`xmt_isa::decoded::StepClass`] → [`IssueClass`] lookup. The static
/// half of issue classification is precomputed per pc at decode time,
/// so classifying (and in particular *re*classifying after every
/// issue) is the two dynamic tests plus this table — no `Instr` match
/// in the hot loop.
const STEP_TO_ISSUE: [IssueClass; NUM_STEP_CLASSES] = [
    IssueClass::Alu,
    IssueClass::Fpu,
    IssueClass::Mdu,
    IssueClass::Lsu,
    IssueClass::Branch,
    IssueClass::Ps,
    IssueClass::Join,
    IssueClass::Nop,
    IssueClass::Illegal,
];

/// Classify the instruction at `pc` against the scoreboard masks.
#[inline]
fn classify(decoded: &DecodedProgram, pc: usize, pend_i: u32, pend_f: u32) -> IssueClass {
    if pc >= decoded.len() {
        return IssueClass::BadPc;
    }
    let d = decoded.fetch(pc);
    if pend_i & d.imask != 0 || pend_f & d.fmask != 0 {
        return IssueClass::Scoreboard;
    }
    STEP_TO_ISSUE[d.step as usize]
}

/// Number of [`IssueClass`] variants (indexes [`ClusterMasks::cls`]).
const NUM_ISSUE_CLASSES: usize = IssueClass::Illegal as usize + 1;

/// Per-cluster bitmasks, bit `t` ↔ TCU `t`: the TCU flags (`active`,
/// `stuck`, `disabled` — stored nowhere else) and a mirror of the TCU
/// hot state.
///
/// The masks let the issue loops reason about a whole cluster with a
/// handful of word ops instead of touching one cache line per TCU:
/// [`issue_walk`] uses `active & !busy` to visit only TCUs whose visit
/// can have an effect, [`issue_bulk`] issues straight off the
/// per-class masks, accruing the stalls of losing contenders by
/// popcount, and [`ClusterMasks::quiet_scan`] plans a quiet-cycle skip
/// without reading a TCU at all.
///
/// Mirror invariants (maintained by every mutation path in this
/// module):
/// - `cls[k]` has bit `t` set iff `cluster[t].cls == k`, active or not.
/// - `busy` has bit `t` set iff `busy_until > cycle`, where `cycle` is
///   the cycle currently being stepped; cleared via `wheel` at the top
///   of each cluster step.
/// - `out_nz` / `at_cap`: `outstanding > 0` / `>= MAX_OUTSTANDING`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct ClusterMasks {
    /// TCUs running a thread.
    pub(super) active: u64,
    pub(super) busy: u64,
    /// TCUs whose `busy_until` equals a future cycle `x`, filed under
    /// slot `x & 15`. Sound because issue latencies are ≤ 8 < 16 and
    /// quiet skips never jump past the minimum live `busy_until`, so a
    /// slot can never hold two generations at once. Skips replay the
    /// wakes they jumped over via [`ClusterMasks::wake_through`].
    wheel: [u64; 16],
    pub(super) cls: [u64; NUM_ISSUE_CLASSES],
    out_nz: u64,
    at_cap: u64,
    /// Hard fault, stuck-at: the TCU accepts a thread, then never
    /// issues (holds the spawn barrier open until the watchdog fires).
    /// Not folded into `busy` — the 16-slot wheel would alias a
    /// forever-busy sentinel.
    pub(super) stuck: u64,
    /// Hard fault, disabled: the TCU never activates; threads remap
    /// around it.
    pub(super) disabled: u64,
}

/// What a cluster would do over a run of quiet cycles, as
/// [`ClusterMasks::quiet_scan`] sees it at the top of the first one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) struct ClusterScan {
    /// Some TCU could issue (or fault) next cycle — cannot skip.
    pub(super) issue_next: bool,
    /// Earliest `busy_until` among latency-stalled TCUs (`u64::MAX`
    /// when none).
    pub(super) min_busy: u64,
    /// TCUs that would burn a scoreboard-stall per skipped cycle.
    pub(super) blocked_scoreboard: u64,
    /// TCUs that would burn an LSU-stall per skipped cycle (at the
    /// outstanding-transaction cap).
    pub(super) blocked_lsu: u64,
}

impl ClusterMasks {
    pub(super) fn new(ntcus: usize) -> Self {
        let mut cls = [0u64; NUM_ISSUE_CLASSES];
        // Idle TCUs carry `IssueClass::BadPc` (see `Tcu::IDLE`).
        cls[IssueClass::BadPc as usize] = ones(ntcus);
        Self {
            active: 0,
            busy: 0,
            wheel: [0; 16],
            cls,
            out_nz: 0,
            at_cap: 0,
            stuck: 0,
            disabled: 0,
        }
    }

    /// Clear TCUs whose latency expires on `cycle` from `busy`.
    #[inline(always)]
    fn wake(&mut self, cycle: u64) {
        let slot = (cycle & 15) as usize;
        self.busy &= !self.wheel[slot];
        self.wheel[slot] = 0;
    }

    /// Record `busy_until` for TCU `t` after a latency issue.
    #[inline(always)]
    fn set_busy(&mut self, t: usize, busy_until: u64) {
        let bit = 1u64 << t;
        self.busy |= bit;
        self.wheel[(busy_until & 15) as usize] |= bit;
    }

    /// Idle enabled TCUs among the cluster's `ntcus`: the thread IDs it
    /// could take.
    pub(super) fn idle(&self, ntcus: usize) -> u64 {
        u64::from((!self.active & !self.disabled & ones(ntcus)).count_ones())
    }

    /// Classify the cluster's running TCUs as they would be seen at the
    /// top of cycle `next`, the cycle after the one last stepped:
    /// issuing, latency-stalled, scoreboard-stalled, LSU-capped,
    /// silently waiting (a `join` with posted stores in flight: no
    /// stall counter, and the reply that unblocks it is a tracked
    /// memory event) or stuck (never issues, no counter, no event).
    /// Any class that would issue *or fault* reports `issue_next` —
    /// port budgets start ≥ 1 per cluster and only empty on a cycle
    /// that issued — so the issue kernel keeps sole ownership of side
    /// effects and errors.
    pub(super) fn quiet_scan(&self, next: u64) -> ClusterScan {
        // Still latency-busy at `next`: busy now and not due to wake on
        // `next` itself.
        let latent = self.busy & !self.wheel[(next & 15) as usize];
        let ready = self.active & !self.stuck & !latent;
        let scoreboard = self.cls[IssueClass::Scoreboard as usize] & ready;
        let capped = self.cls[IssueClass::Lsu as usize] & self.at_cap & ready;
        // Latencies are ≤ 8, so the first later wheel slot holding a
        // latent TCU names the earliest wake.
        let min_busy = if latent == 0 {
            u64::MAX
        } else {
            (1..16)
                .find(|k| self.wheel[((next + k) & 15) as usize] & latent != 0)
                .map_or(u64::MAX, |k| next + k)
        };
        ClusterScan {
            issue_next: ready & !self.waiting() != 0,
            min_busy,
            blocked_scoreboard: u64::from(scoreboard.count_ones()),
            blocked_lsu: u64::from(capped.count_ones()),
        }
    }

    /// The TCUs whose visit can only stall or wait, whatever the cycle,
    /// until a memory reply arrives: scoreboard-blocked, at the
    /// outstanding cap in front of a memory instruction, at a `join`
    /// with posted stores in flight — or stuck, which no reply cures.
    #[inline(always)]
    fn waiting(&self) -> u64 {
        self.cls[IssueClass::Scoreboard as usize]
            | self.cls[IssueClass::Lsu as usize] & self.at_cap
            | self.cls[IssueClass::Join as usize] & self.out_nz
            | self.stuck
    }

    /// TCU `t` is among them. A reply that leaves its TCU waiting
    /// leaves the cluster's quiet scan as it was: the TCU counted as
    /// scoreboard-blocked (or not at all) before and after, and a
    /// memory instruction at the cap never stays there.
    #[inline(always)]
    pub(super) fn still_waiting(&self, t: usize) -> bool {
        self.waiting() & (1u64 << t) != 0
    }

    /// Perform the wakes of the `n` skipped cycles `next ..= next+n-1`
    /// in one go, as quiet-cycle fast-forwarding must: per-cycle
    /// stepping would have called [`ClusterMasks::wake`] on each. A TCU
    /// whose `busy_until` equals a skipped cycle (typically `next`
    /// itself — the skip horizon never passes a *later* live
    /// `busy_until`) would otherwise keep a stale `busy` bit and be
    /// invisible to the mask-driven issue loops until its wheel slot
    /// happened to come around again, silently dropping its stall
    /// accrual. Sixteen wakes visit every slot, so larger jumps clear
    /// the whole wheel; waking a still-busy TCU early is harmless —
    /// the walk re-checks `busy_until` before acting.
    #[inline]
    pub(super) fn wake_through(&mut self, next: u64, n: u64) {
        if self.busy == 0 {
            return; // the wheel files busy TCUs only
        }
        for k in 0..n.min(16) {
            self.wake(next + k);
        }
    }
}

/// A mask with the low `n` bits set (`n ≤ 64`).
#[inline(always)]
pub(super) fn ones(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Rotate `mask` (defined over `ntcus` bits) so round-robin position
/// `start` lands at bit 0; ascending trailing-zero extraction then
/// yields TCU indices in round-robin visit order.
#[inline(always)]
fn rr_rotate(mask: u64, start: usize, ntcus: usize) -> u64 {
    if start == 0 {
        mask
    } else {
        ((mask >> start) | (mask << (ntcus - start))) & ones(ntcus)
    }
}

/// Map a bit position of an [`rr_rotate`]d mask back to a TCU index.
#[inline(always)]
fn rr_unrotate(r: usize, start: usize, ntcus: usize) -> usize {
    let t = start + r;
    if t >= ntcus {
        t - ntcus
    } else {
        t
    }
}

/// Re-resolve `tcu.cls` from its (`pc`, scoreboard) and mirror the
/// change into the cluster's class masks.
#[inline(always)]
fn reclassify_masked(tcu: &mut Tcu, m: &mut ClusterMasks, t: usize, decoded: &DecodedProgram) {
    let new = classify(decoded, tcu.pc, tcu.pend_i, tcu.pend_f);
    let bit = 1u64 << t;
    m.cls[tcu.cls as usize] &= !bit;
    m.cls[new as usize] |= bit;
    tcu.cls = new;
}

/// Bounds-check a base+offset word address against the memory image.
#[inline(always)]
pub(super) fn addr_of(pc: usize, base: u32, off: u32, mem_len: usize) -> Result<usize, SimError> {
    let a = base as u64 + off as u64;
    if (a as usize) < mem_len {
        Ok(a as usize)
    } else {
        // The clock is out of reach here; the step boundary stamps it.
        Err(SimError::MemOutOfBounds {
            pc,
            addr: a,
            at_cycle: 0,
        })
    }
}

/// Write a matured memory reply back into TCU `t` of `tcus`: the loaded
/// value into its registers (the store is born: the TCU issued the
/// request), the scoreboard bit, the outstanding count and the masks
/// mirroring them. A cleared scoreboard bit can only unblock, and no
/// other class depends on replies, so only `Scoreboard` TCUs
/// reclassify.
#[inline(always)]
pub(super) fn apply_reply(
    tcus: &mut ClusterTcus,
    m: &mut ClusterMasks,
    t: usize,
    kind: TxnKind,
    value: u32,
    decoded: &DecodedProgram,
) {
    let (tcu, mut regs) = tcus.split(t);
    match kind {
        TxnKind::LoadI(rd) => {
            regs.write_i(rd, value);
            tcu.pend_i &= !(1u32 << rd.index());
        }
        TxnKind::LoadF(fd) => {
            regs.write_f(fd, f32::from_bits(value));
            tcu.pend_f &= !(1u32 << fd.index());
        }
        TxnKind::Store => {}
    }
    tcu.outstanding -= 1;
    let bit = 1u64 << t;
    m.at_cap &= !bit;
    if tcu.outstanding == 0 {
        m.out_nz &= !bit;
    }
    if tcu.cls == IssueClass::Scoreboard {
        reclassify_masked(tcu, m, t, decoded);
    }
}

/// Everything a cluster step reads but never writes: the program, the
/// cluster's port provisioning, the memory geometry, and the section
/// entry and clock of the cycle being stepped.
#[derive(Clone, Copy)]
pub(super) struct IssueEnv<'a> {
    pub(super) decoded: &'a DecodedProgram,
    /// Cluster width and FPU/MDU/LSU ports per cluster.
    pub(super) cfg: &'a XmtConfig,
    pub(super) mem_len: usize,
    pub(super) hash: &'a AddressHash,
    /// Entry pc of the current parallel section.
    pub(super) entry: usize,
    /// The cycle being stepped.
    pub(super) cycle: u64,
}

/// Where the globally ordered effects of a cluster step go. The issue
/// rules are fixed; a sink only chooses how thread IDs are sourced,
/// where NoC injections land, how a micro-op is fetched, and whether
/// parallel-mode global-register ops exist.
pub(super) trait IssueSink {
    /// True while this cluster can still be handed a thread ID.
    fn tids_remain(&self) -> bool;
    /// Hand out the next thread ID, if any remain.
    fn next_tid(&mut self) -> Option<u32>;
    /// Offer one memory request (a store's value beside it) to the
    /// request NoC, bound for `module`; false means the network refused
    /// it this cycle. A refusal must leave the TCU's store slots and the
    /// in-flight count untouched.
    fn inject(&mut self, request: Request, value: u32, module: usize) -> bool;
    /// The lowered micro-op at `pc`, or `None` to take the
    /// per-instruction interpreter path (tier off, or a cold slot).
    fn fetch(&mut self, decoded: &DecodedProgram, pc: usize) -> Option<MicroOp>;
    /// A replayed branch/jump entered a trace.
    fn note_entry(&mut self);
    /// The global registers compute instructions read.
    fn gregs(&self) -> &[u32; NUM_GREGS];
    /// Apply a `ps`/`sspawn` on behalf of the TCU owning `rf`.
    fn global_op(&mut self, ins: &Instr, rf: &mut TcuRegs<'_>);
}

/// The shared FPU and MDU ports: same arbitration, different latency,
/// budget and stall counter.
#[derive(Clone, Copy)]
enum Port {
    Fpu,
    Mdu,
}

/// One cluster, one cycle: the state the issue helpers mutate.
struct Cx<'a, S> {
    tcus: &'a mut ClusterTcus,
    m: &'a mut ClusterMasks,
    env: &'a IssueEnv<'a>,
    stats: &'a mut MachineStats,
    sink: &'a mut S,
}

impl<S: IssueSink> Cx<'_, S> {
    /// Idle TCU takes thread `tid`: fresh registers at the section
    /// entry. The cluster's first thread bears its issue records and
    /// register store.
    #[inline(always)]
    fn activate(&mut self, t: usize, tid: u32) {
        self.tcus.start_thread(t, tid);
        let tcu = &mut self.tcus.hot[t];
        self.m.active |= 1u64 << t;
        tcu.pc = self.env.entry;
        tcu.busy_until = 0;
        tcu.pend_i = 0;
        tcu.pend_f = 0;
        reclassify_masked(tcu, self.m, t, self.env.decoded);
        self.stats.threads += 1;
    }

    /// Issue the compute instruction at TCU `t`, occupying the TCU for
    /// `lat` further cycles (0 for the per-TCU ALU).
    #[inline(always)]
    fn compute(&mut self, t: usize, lat: u64) {
        let decoded = self.env.decoded;
        let (tcu, mut rf) = self.tcus.split(t);
        let ok = match self.sink.fetch(decoded, tcu.pc) {
            Some(u) => {
                debug_assert_eq!(u64::from(u.lat), lat);
                exec_uop(&u, &mut rf, self.sink.gregs())
            }
            None => exec_compute(&decoded.fetch(tcu.pc).instr, &mut rf, self.sink.gregs()),
        };
        debug_assert!(ok, "compute-class instruction must be compute-executable");
        if lat > 0 {
            tcu.busy_until = self.env.cycle + lat;
            self.m.set_busy(t, tcu.busy_until);
        }
        tcu.pc += 1;
        reclassify_masked(tcu, self.m, t, decoded);
        self.stats.instructions += 1;
    }

    /// TCU `t` won a shared FPU/MDU port.
    #[inline(always)]
    fn port_issue(&mut self, t: usize, port: Port) {
        match port {
            Port::Fpu => {
                self.compute(t, FPU_LATENCY);
                self.stats.flops += 1;
            }
            Port::Mdu => self.compute(t, MDU_LATENCY),
        }
    }

    /// `n` ready TCUs lost a shared FPU/MDU port this cycle.
    #[inline(always)]
    fn port_stall(&mut self, port: Port, n: u64) {
        match port {
            Port::Fpu => self.stats.stall_fpu += n,
            Port::Mdu => self.stats.stall_mdu += n,
        }
    }

    /// Bulk arbitration of one shared port: it goes to the first
    /// `budget` contenders in round-robin order from `start`; every
    /// loser burns one stall, counted without a visit.
    #[inline(always)]
    fn arbitrate(&mut self, port: Port, contenders: u64, mut budget: usize, start: usize) {
        let ntcus = self.env.cfg.tcus_per_cluster;
        let mut rot = rr_rotate(contenders, start, ntcus);
        while rot != 0 && budget > 0 {
            budget -= 1;
            self.port_issue(
                rr_unrotate(rot.trailing_zeros() as usize, start, ntcus),
                port,
            );
            rot &= rot - 1;
        }
        self.port_stall(port, u64::from(rot.count_ones()));
    }

    /// Resolve the branch or jump at TCU `t`.
    #[inline(always)]
    fn branch(&mut self, t: usize) {
        let decoded = self.env.decoded;
        let (tcu, rf) = self.tcus.split(t);
        let pc = tcu.pc;
        if let Some(u) = self.sink.fetch(decoded, pc) {
            tcu.pc = eval_branch_uop(&u, &rf).unwrap_or(pc + 1);
            self.sink.note_entry();
        } else {
            match decoded.fetch(pc).instr {
                Instr::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    let taken = eval_branch(cond, rf.read_i(rs1), rf.read_i(rs2));
                    tcu.pc = if taken { target } else { pc + 1 };
                }
                Instr::Jump { target } => tcu.pc = target,
                _ => unreachable!("branch class on a non-branch instruction"),
            }
        }
        reclassify_masked(tcu, self.m, t, decoded);
        self.stats.instructions += 1;
    }

    /// One LSU visit with port budget left (`*budget > 0`). A TCU at
    /// its outstanding-transaction cap stalls without consuming the
    /// port; otherwise the request is offered to the NoC, which
    /// consumes the port whether or not the network takes it. The
    /// bounds fault precedes the injection attempt.
    #[inline(always)]
    fn lsu(&mut self, t: usize, budget: &mut usize) -> Result<(), SimError> {
        let bit = 1u64 << t;
        if self.m.at_cap & bit != 0 {
            self.stats.stall_lsu += 1;
            return Ok(());
        }
        let env = self.env;
        let (tcu, rf) = self.tcus.split(t);
        let pc = tcu.pc;
        let base_off = |base, off| addr_of(pc, rf.read_i(base), off, env.mem_len);
        let (addr, kind, value) = match env.decoded.fetch(pc).instr {
            Instr::Lw { rd, base, off } => (base_off(base, off)?, TxnKind::LoadI(rd), 0),
            Instr::Flw { fd, base, off } => (base_off(base, off)?, TxnKind::LoadF(fd), 0),
            Instr::Sw { rs, base, off } => (base_off(base, off)?, TxnKind::Store, rf.read_i(rs)),
            Instr::Fsw { fs, base, off } => (
                base_off(base, off)?,
                TxnKind::Store,
                rf.read_f(fs).to_bits(),
            ),
            _ => unreachable!("LSU class on a non-memory instruction"),
        };
        let module = env.hash.module_of(addr as u32);
        *budget -= 1;
        let request = Request {
            addr: addr as u32,
            tcu: t,
            kind,
            slot: 0,
        };
        if !self.sink.inject(request, value, module) {
            self.stats.stall_lsu += 1;
            return Ok(());
        }
        tcu.outstanding += 1;
        match kind {
            TxnKind::LoadI(rd) => {
                if rd.index() != 0 {
                    tcu.pend_i |= 1 << rd.index();
                }
                self.stats.mem_reads += 1;
            }
            TxnKind::LoadF(fd) => {
                tcu.pend_f |= 1 << fd.index();
                self.stats.mem_reads += 1;
            }
            TxnKind::Store => self.stats.mem_writes += 1,
        }
        self.m.out_nz |= bit;
        if tcu.outstanding >= MAX_OUTSTANDING {
            self.m.at_cap |= bit;
        }
        tcu.pc += 1;
        reclassify_masked(tcu, self.m, t, env.decoded);
        self.stats.instructions += 1;
        Ok(())
    }

    /// `ps`/`sspawn` at TCU `t`: a global-state op, applied by the sink.
    #[inline(always)]
    fn global(&mut self, t: usize) {
        let decoded = self.env.decoded;
        let (tcu, mut rf) = self.tcus.split(t);
        self.sink.global_op(&decoded.fetch(tcu.pc).instr, &mut rf);
        tcu.pc += 1;
        reclassify_masked(tcu, self.m, t, decoded);
        self.stats.instructions += 1;
    }

    /// `nop` at TCU `t`.
    #[inline(always)]
    fn nop(&mut self, t: usize) {
        let tcu = &mut self.tcus.hot[t];
        tcu.pc += 1;
        reclassify_masked(tcu, self.m, t, self.env.decoded);
        self.stats.instructions += 1;
    }

    /// Retire the `join`s in `mask` whose posted stores have drained
    /// (the spawn barrier is a memory fence); the rest wait silently —
    /// no stall counter, no issue. `cls` stays at `Join` on retire.
    #[inline(always)]
    fn retire(&mut self, mask: u64) {
        let retire = mask & !self.m.out_nz;
        self.m.active &= !retire;
        self.stats.instructions += u64::from(retire.count_ones());
    }
}

/// The typed error a `BadPc` or `Illegal` visit at `pc` surfaces. (A
/// free function of scalars, so the cold path does not pin the hot
/// loop's state in memory.)
#[cold]
fn fault(decoded: &DecodedProgram, pc: usize, at_cycle: u64) -> SimError {
    if pc >= decoded.len() {
        return SimError::PcOutOfRange { pc, at_cycle };
    }
    let what = match decoded.fetch(pc).instr {
        Instr::Spawn { .. } => "nested spawn",
        Instr::Halt => "halt in parallel mode",
        _ => "instruction illegal in parallel mode",
    };
    SimError::BadInstruction { pc, what, at_cycle }
}

/// True when the order in which this cluster's TCUs are visited can be
/// observed, so the cycle must take [`issue_walk`]: `activations` — a
/// thread ID remains and the cluster has an idle enabled TCU, and IDs
/// are handed out in visit order, interleaved with issues; a ready
/// `ps`/`sspawn` mutates shared state in visit order (and an `sspawn`
/// can mint IDs for TCUs visited later the same cycle); a ready
/// `BadPc`/`Illegal` must fault at exactly the visit the reference
/// order reaches it, after the issues before it and none after.
/// Otherwise every effect of the cycle is confined to the issuing TCU
/// or ordered by port arbitration alone, and [`issue_bulk`] is exact.
#[inline(always)]
fn order_observable(m: &ClusterMasks, ready: u64, activations: bool) -> bool {
    let ordered = m.cls[IssueClass::Ps as usize]
        | m.cls[IssueClass::BadPc as usize]
        | m.cls[IssueClass::Illegal as usize];
    activations || ordered & ready != 0
}

/// Step one cluster one cycle. `start` is the machine's round-robin
/// position for this parallel cycle — the shared-port arbiters of every
/// cluster tick on the one core clock, so there is one counter, not
/// one per cluster; `shortcuts` permits [`issue_bulk`] where legal —
/// the reference engine passes `false`. Returns the number of
/// instructions the cluster issued.
#[inline(always)]
pub(super) fn step_cluster<S: IssueSink>(
    tcus: &mut ClusterTcus,
    m: &mut ClusterMasks,
    start: usize,
    env: &IssueEnv<'_>,
    stats: &mut MachineStats,
    sink: &mut S,
    shortcuts: bool,
) -> Result<u64, SimError> {
    let instr_at_entry = stats.instructions;
    m.wake(env.cycle);
    let ready = m.active & !m.busy & !m.stuck;
    // Cycle-start masks decide activations exactly: a TCU that goes
    // idle mid-cycle (a join) has had its visit, and IDs minted
    // mid-cycle come from a ready `sspawn`, which forces the full walk.
    let activations =
        sink.tids_remain() && !m.active & !m.disabled & ones(env.cfg.tcus_per_cluster) != 0;
    if ready == 0 && !activations {
        // Idle, or every thread latency-busy: no visit can do anything.
        return Ok(0);
    }
    let mut cx = Cx {
        tcus,
        m,
        env,
        stats,
        sink,
    };
    if shortcuts && !order_observable(cx.m, ready, activations) {
        issue_bulk(&mut cx, ready, start)?;
    } else {
        issue_walk(&mut cx, ready, activations, start)?;
    }
    Ok(stats.instructions - instr_at_entry)
}

/// Visit TCUs one at a time in round-robin order from `start`. When no
/// idle TCU can activate this cycle and no ready `sspawn` could mint
/// thread IDs mid-cycle, only ready TCUs are walked: the masks prove
/// idle and latency-busy visits are no-ops, so their cache lines are
/// never touched.
#[inline(always)]
fn issue_walk<S: IssueSink>(
    cx: &mut Cx<'_, S>,
    ready: u64,
    activations: bool,
    start: usize,
) -> Result<(), SimError> {
    let ntcus = cx.env.cfg.tcus_per_cluster;
    let cycle = cx.env.cycle;
    let mut fpu_budget = cx.env.cfg.fpus_per_cluster;
    let mut mdu_budget = cx.env.cfg.mdus_per_cluster;
    let mut lsu_budget = cx.env.cfg.lsus_per_cluster;
    // Visit order, built without a per-TCU `% ntcus` (an integer
    // division the compiler cannot strength-reduce for a runtime
    // cluster width).
    let mut order = [0u8; 64];
    let visits: &[u8] = if activations || cx.m.cls[IssueClass::Ps as usize] & ready != 0 {
        for (i, t) in (start..ntcus).chain(0..start).enumerate() {
            order[i] = t as u8;
        }
        &order[..ntcus]
    } else {
        let mut rot = rr_rotate(ready, start, ntcus);
        let mut n = 0;
        while rot != 0 {
            order[n] = rr_unrotate(rot.trailing_zeros() as usize, start, ntcus) as u8;
            rot &= rot - 1;
            n += 1;
        }
        &order[..n]
    };

    for &t in visits {
        let t = t as usize;
        let bit = 1u64 << t;
        // The PS unit allocates in constant time, so every idle TCU
        // can pick up a thread in the same cycle; disabled TCUs never
        // do, stuck ones do and then hold it without issuing (only the
        // watchdog ends that).
        if cx.m.active & bit == 0 {
            if cx.m.disabled & bit != 0 {
                continue;
            }
            match cx.sink.next_tid() {
                Some(tid) => cx.activate(t, tid),
                None => continue,
            }
        }
        let tcu = &cx.tcus.hot[t];
        if tcu.busy_until > cycle || cx.m.stuck & bit != 0 {
            continue;
        }
        match tcu.cls {
            IssueClass::BadPc | IssueClass::Illegal => {
                return Err(fault(cx.env.decoded, tcu.pc, cycle));
            }
            IssueClass::Scoreboard => cx.stats.stall_scoreboard += 1,
            IssueClass::Alu => cx.compute(t, 0),
            IssueClass::Fpu if fpu_budget == 0 => cx.port_stall(Port::Fpu, 1),
            IssueClass::Fpu => {
                fpu_budget -= 1;
                cx.port_issue(t, Port::Fpu);
            }
            IssueClass::Mdu if mdu_budget == 0 => cx.port_stall(Port::Mdu, 1),
            IssueClass::Mdu => {
                mdu_budget -= 1;
                cx.port_issue(t, Port::Mdu);
            }
            IssueClass::Lsu if lsu_budget == 0 => cx.stats.stall_lsu += 1,
            IssueClass::Lsu => cx.lsu(t, &mut lsu_budget)?,
            IssueClass::Branch => cx.branch(t),
            IssueClass::Ps => cx.global(t),
            // The common visit while posted stores drain: skip `retire`.
            IssueClass::Join if tcu.outstanding > 0 => {}
            IssueClass::Join => cx.retire(bit),
            IssueClass::Nop => cx.nop(t),
        }
    }
    Ok(())
}

/// Issue one cluster cycle straight off the masks: stall counters
/// accrue by popcount without touching the stalled TCUs' cache lines,
/// port winners are picked in round-robin order by rotate +
/// trailing-zeros, and only TCUs that actually execute are
/// dereferenced. Precondition: [`order_observable`] is false.
#[inline(always)]
fn issue_bulk<S: IssueSink>(cx: &mut Cx<'_, S>, ready: u64, start: usize) -> Result<(), SimError> {
    let ntcus = cx.env.cfg.tcus_per_cluster;
    // Snapshot the per-class ready sets before any issue mutates the
    // masks: a TCU's class is stable until its own visit (no cross-TCU
    // effect changes it inside a cluster cycle), so the snapshot is
    // exactly what the walk observes per visit.
    let of = |cls: IssueClass| cx.m.cls[cls as usize] & ready;
    let sb = of(IssueClass::Scoreboard);
    let alu = of(IssueClass::Alu);
    let fpu = of(IssueClass::Fpu);
    let mdu = of(IssueClass::Mdu);
    let lsu = of(IssueClass::Lsu);
    let br = of(IssueClass::Branch);
    let join = of(IssueClass::Join);
    let nop = of(IssueClass::Nop);

    // Scoreboard-blocked TCUs burn one stall each, unvisited.
    cx.stats.stall_scoreboard += u64::from(sb.count_ones());

    // ALU, branch and nop always issue (ALU ports are provisioned one
    // per TCU) and only touch the owning TCU, so round-robin order
    // among them is unobservable; ascending order is fine.
    let mut bits = alu;
    while bits != 0 {
        cx.compute(bits.trailing_zeros() as usize, 0);
        bits &= bits - 1;
    }
    let mut bits = br;
    while bits != 0 {
        cx.branch(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
    let mut bits = nop;
    while bits != 0 {
        cx.nop(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }

    cx.arbitrate(Port::Fpu, fpu, cx.env.cfg.fpus_per_cluster, start);
    cx.arbitrate(Port::Mdu, mdu, cx.env.cfg.mdus_per_cluster, start);

    // LSU: same round-robin port arbitration; see `Cx::lsu` for the
    // outstanding cap and NoC backpressure.
    let mut rot = rr_rotate(lsu, start, ntcus);
    let mut budget = cx.env.cfg.lsus_per_cluster;
    while rot != 0 {
        if budget == 0 {
            cx.stats.stall_lsu += u64::from(rot.count_ones());
            break;
        }
        let t = rr_unrotate(rot.trailing_zeros() as usize, start, ntcus);
        rot &= rot - 1;
        cx.lsu(t, &mut budget)?;
    }

    cx.retire(join);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::ff::Parked;
    use super::super::memsys::ActiveSet;
    use super::*;
    use crate::tier::TraceCache;
    use proptest::prelude::*;
    use std::ops::Range;
    use xmt_isa::block::UopKind;
    use xmt_isa::reg::{fr, ir};
    use xmt_isa::{BranchCond, ProgramBuilder};

    /// One instruction of every issue class at a known pc. pcs 0..=9
    /// are the classes a bulk cycle may find ready; 10 (`halt`) is
    /// `Illegal` and 11 (past the end) is `BadPc`.
    fn class_program() -> DecodedProgram {
        let mut b = ProgramBuilder::new();
        b.addi(ir(1), ir(1), 1); // 0 ALU
        b.fadd(fr(1), fr(1), fr(2)); // 1 FPU
        b.mul(ir(2), ir(1), ir(1)); // 2 MDU
        b.lw(ir(3), ir(4), 0); // 3 LSU
        b.sw(ir(1), ir(4), 8); // 4 LSU
        b.flw(fr(3), ir(4), 16); // 5 LSU
        b.push(Instr::Branch {
            cond: BranchCond::Ne,
            rs1: ir(1),
            rs2: ir(0),
            target: 0,
        }); // 6 branch
        b.push(Instr::Jump { target: 3 }); // 7 jump
        b.nop(); // 8
        b.join(); // 9
        b.halt(); // 10
        DecodedProgram::new(&b.build().unwrap())
    }

    /// A sink that records every globally ordered effect and accepts
    /// the first `budget` injections.
    struct Recording {
        tids: Range<u32>,
        budget: usize,
        granted: Vec<u32>,
        injections: Vec<(Request, u32, usize, bool)>,
        entries: u64,
        trace: TraceCache,
        gregs: [u32; NUM_GREGS],
    }

    impl Recording {
        fn new(tids: Range<u32>, budget: usize, decoded: &DecodedProgram) -> Self {
            Self {
                tids,
                budget,
                granted: Vec::new(),
                injections: Vec::new(),
                entries: 0,
                trace: TraceCache::new(decoded, FPU_LATENCY, MDU_LATENCY),
                gregs: [7; NUM_GREGS],
            }
        }
    }

    impl IssueSink for Recording {
        fn tids_remain(&self) -> bool {
            self.tids.start < self.tids.end
        }
        fn next_tid(&mut self) -> Option<u32> {
            let tid = self.tids.next()?;
            self.granted.push(tid);
            Some(tid)
        }
        fn inject(&mut self, request: Request, value: u32, module: usize) -> bool {
            let accepted = self.budget > 0;
            self.budget -= usize::from(accepted);
            self.injections.push((request, value, module, accepted));
            accepted
        }
        fn fetch(&mut self, decoded: &DecodedProgram, pc: usize) -> Option<MicroOp> {
            Some(self.trace.fetch_warm(decoded, pc))
        }
        fn note_entry(&mut self) {
            self.entries += 1;
        }
        fn gregs(&self) -> &[u32; NUM_GREGS] {
            &self.gregs
        }
        fn global_op(&mut self, _ins: &Instr, _rf: &mut TcuRegs<'_>) {
            unreachable!("bulk-eligible states hold no ready ps/sspawn")
        }
    }

    /// Everything observable about TCU `t`, comparably: its issue
    /// record (idle before the cluster is born) and, once the store is
    /// born, every row of its column.
    fn tcu_view(c: &ClusterTcus, t: usize) -> impl PartialEq + std::fmt::Debug {
        let h = c.hot.get(t).copied().unwrap_or(Tcu::IDLE);
        let ntcus = c.ntcus;
        let rows = c.layout.rows();
        assert!(c.regs.is_empty() || c.regs.len() == rows * ntcus);
        let regs = (!c.regs.is_empty()).then(|| {
            (0..rows)
                .map(|r| c.regs[r * ntcus + t])
                .collect::<Vec<u32>>()
        });
        (
            (h.busy_until, h.pc, h.pend_i, h.pend_f),
            (h.outstanding, h.cls),
            regs,
        )
    }

    /// The per-TCU definition [`ClusterMasks::quiet_scan`] replaced,
    /// kept as its oracle: walk every TCU as it would be seen at the
    /// top of cycle `next`.
    fn scan_by_walk(tcus: &[Tcu], m: &ClusterMasks, next: u64) -> ClusterScan {
        let mut scan = ClusterScan {
            issue_next: false,
            min_busy: u64::MAX,
            blocked_scoreboard: 0,
            blocked_lsu: 0,
        };
        for (t, tcu) in tcus.iter().enumerate() {
            let bit = 1u64 << t;
            if m.active & bit == 0 {
                continue;
            }
            if tcu.busy_until > next {
                scan.min_busy = scan.min_busy.min(tcu.busy_until);
            } else if m.stuck & bit == 0 {
                match tcu.cls {
                    IssueClass::Scoreboard => scan.blocked_scoreboard += 1,
                    IssueClass::Lsu if tcu.outstanding >= MAX_OUTSTANDING => scan.blocked_lsu += 1,
                    IssueClass::Join if tcu.outstanding > 0 => {}
                    _ => scan.issue_next = true,
                }
            }
        }
        scan
    }

    /// A seeded cluster of `ntcus` TCUs as the step of `cycle` finds it:
    /// TCUs latency-busy, waking on `cycle`, stuck, disabled, at the
    /// outstanding cap, scoreboard-blocked, and (unready only) faulting.
    /// With `quiet`, every TCU that could issue is rewritten into one
    /// of the three states that wait for a memory reply. Without it,
    /// while thread IDs remain, one cluster in four has not taken a
    /// thread yet: every TCU idle, some disabled or stuck, and no
    /// issue records or register store born.
    fn gen_cluster(
        rng: &mut proptest::TestRng,
        decoded: &DecodedProgram,
        ntcus: usize,
        cycle: u64,
        tids_remain: bool,
        quiet: bool,
    ) -> (ClusterTcus, ClusterMasks) {
        let layout = RegLayout::of(decoded);
        let mut tcus = ClusterTcus::new(ntcus, layout);
        let mut m = ClusterMasks::new(ntcus);
        if tids_remain && !quiet && rng.below(4) == 0 {
            for t in 0..ntcus {
                match rng.below(16) {
                    0 => m.disabled |= 1 << t,
                    1 => m.stuck |= 1 << t,
                    _ => {}
                }
            }
            return (tcus, m);
        }
        tcus.bear();
        let (int_rows, fp_rows) = (layout.fbase, layout.rows - layout.fbase);
        m.cls = [0; NUM_ISSUE_CLASSES];
        for t in 0..ntcus {
            let bit = 1u64 << t;
            let mut tcu = Tcu::IDLE;
            let disabled = rng.below(16) == 0;
            // Once the cluster has taken a thread no activation may be
            // pending: with thread IDs left, every enabled TCU is
            // running.
            let active = !disabled && (tids_remain || rng.below(4) != 0);
            let stuck = active && rng.below(16) == 0;
            tcu.busy_until = match rng.below(4) {
                0 if active => cycle + rng.below(9), // latency-busy, or waking now
                _ => cycle - rng.below(20),
            };
            // Order-sensitive classes only where they are not ready.
            let unready = !active || stuck || tcu.busy_until > cycle;
            tcu.pc = rng.below(if unready { 12 } else { 10 }) as usize;
            let (_, mut regs) = tcus.split(t);
            regs.words[0] = t as u32;
            for r in 1..int_rows {
                regs.write_i_raw(r, rng.below(1000) as u32);
            }
            for r in 0..fp_rows {
                regs.write_f_raw(r, rng.unit_f64() as f32);
            }
            // Pending loads target registers the program names.
            if rng.below(4) == 0 {
                tcu.pend_i = 1 << rng.below(int_rows.into());
                tcu.pend_f = 1 << rng.below(fp_rows.into());
            }
            tcu.outstanding = rng.below(u64::from(MAX_OUTSTANDING) + 1) as u8;
            tcu.cls = classify(decoded, tcu.pc, tcu.pend_i, tcu.pend_f);
            let waits = match tcu.cls {
                IssueClass::Scoreboard => true,
                IssueClass::Lsu => tcu.outstanding >= MAX_OUTSTANDING,
                IssueClass::Join => tcu.outstanding > 0,
                _ => false,
            };
            if quiet && !waits {
                match rng.below(3) {
                    // `addi r1, r1, 1` behind a pending r1.
                    0 => (tcu.pc, tcu.pend_i) = (0, tcu.pend_i | 2),
                    // A memory instruction at the cap.
                    1 => (tcu.pc, tcu.outstanding) = (3 + rng.below(3) as usize, MAX_OUTSTANDING),
                    // `join` with posted stores in flight.
                    _ => (tcu.pc, tcu.outstanding) = (9, 1 + rng.below(8) as u8),
                }
                tcu.cls = classify(decoded, tcu.pc, tcu.pend_i, tcu.pend_f);
            }
            m.cls[tcu.cls as usize] |= bit;
            if active {
                m.active |= bit;
            }
            if disabled {
                m.disabled |= bit;
            }
            if stuck {
                m.stuck |= bit;
            }
            if tcu.outstanding > 0 {
                m.out_nz |= bit;
            }
            if tcu.outstanding >= MAX_OUTSTANDING {
                m.at_cap |= bit;
            }
            if tcu.busy_until >= cycle && active {
                m.set_busy(t, tcu.busy_until);
            }
            tcus.hot[t] = tcu;
        }
        (tcus, m)
    }

    /// A visit reads one 32-byte record; the registers are not in it.
    #[test]
    fn the_issue_record_is_32_bytes() {
        assert!(std::mem::size_of::<Tcu>() <= 32);
    }

    /// Every register an instruction of `class_program` names, read or
    /// written, has a row of its own in every TCU's column: written
    /// through each TCU's view with a value naming TCU and register,
    /// each reads back its own (`r0` zero), beside the thread id.
    #[test]
    fn the_layout_covers_every_register_the_program_names() {
        let decoded = class_program();
        let layout = RegLayout::of(&decoded);
        assert_eq!(layout.rows(), 9, "the tid, r1-r4 and f0-f3");
        let mut named: Vec<(bool, u8)> = Vec::new();
        for d in decoded.instrs() {
            let ins = d.instr;
            let ints = ins.iregs_read().into_iter().flatten();
            let fps = ins.fregs_read().into_iter().flatten();
            named.extend(
                ints.chain(ins.ireg_written())
                    .map(|r| (false, r.index() as u8)),
            );
            named.extend(
                fps.chain(ins.freg_written())
                    .map(|f| (true, f.index() as u8)),
            );
        }
        named.sort_unstable();
        named.dedup();
        let ntcus = 5;
        let value =
            |t: usize, (fp, r): (bool, u8)| (t as u32) << 16 | u32::from(fp) << 8 | u32::from(r);
        let mut tcus = ClusterTcus::new(ntcus, layout);
        for t in 0..ntcus {
            tcus.start_thread(t, 1000 + t as u32);
            let (_, mut regs) = tcus.split(t);
            for &(fp, r) in &named {
                match fp {
                    false => regs.write_i_raw(r, value(t, (fp, r))),
                    true => regs.write_f_raw(r, f32::from_bits(value(t, (fp, r)))),
                }
            }
        }
        assert_eq!(tcus.regs.len(), layout.rows() * ntcus);
        for t in 0..ntcus {
            let (_, regs) = tcus.split(t);
            assert_eq!(regs.tid(), 1000 + t as u32);
            for &(fp, r) in &named {
                let (got, want) = match fp {
                    false => (
                        regs.read_i_raw(r),
                        if r == 0 { 0 } else { value(t, (fp, r)) },
                    ),
                    true => (regs.read_f_raw(r).to_bits(), value(t, (fp, r))),
                };
                assert_eq!(got, want, "TCU {t}, {} {r}", if fp { "f" } else { "r" });
            }
        }
    }

    /// Rows run to the highest register named, not to the number named:
    /// the tid row, then `r1`..the highest integer register, then
    /// `f0`..the highest FP one.
    #[test]
    fn a_layout_spans_the_highest_registers_named() {
        let rows = |build: &dyn Fn(&mut ProgramBuilder)| {
            let mut b = ProgramBuilder::new();
            build(&mut b);
            b.halt();
            RegLayout::of(&DecodedProgram::new(&b.build().unwrap())).rows()
        };
        assert_eq!(rows(&|_| {}), 1);
        assert_eq!(
            rows(&|b| {
                b.li(ir(1), 7).fli(fr(0), 1.0);
            }),
            3
        );
        assert_eq!(
            rows(&|b| {
                b.li(ir(0), 7).fli(fr(2), 1.0);
            }),
            4
        );
        assert_eq!(
            rows(&|b| {
                b.li(ir(9), 7);
            }),
            10
        );
        assert_eq!(
            rows(&|b| {
                b.li(ir(31), 7).fli(fr(31), 1.0);
            }),
            64
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Wherever the bulk precondition holds, `issue_bulk` and
        /// `issue_walk` are the same function of the cluster state:
        /// identical TCUs, masks and statistics, and the same sequence
        /// of NoC injections and thread-ID grants at the sink. (The
        /// order of micro-op fetches may differ; the set of blocks
        /// they lower may not.) And on the same states — before the
        /// cycle and after it, with TCUs latency-busy, waking on the
        /// scanned cycle, stuck, disabled and at the outstanding cap —
        /// the mask-driven quiet scan equals the per-TCU walk. Where
        /// bulk is not legal — a cluster that has not taken a thread
        /// yet, with IDs left — the walk that bears the cluster's
        /// register store equals the walk over a store born idle
        /// beforehand. Either way the store exists afterwards exactly
        /// when it did before or a thread was granted.
        #[test]
        fn bulk_and_walk_agree_wherever_bulk_is_legal(seed in any::<u64>()) {
            let mut rng = proptest::TestRng::new(seed);
            let decoded = class_program();
            let ntcus = 1 + rng.below(64) as usize;
            let cycle = 100 + rng.below(64);
            let tids_remain = rng.below(2) == 0;
            let (tcus, mut m) = gen_cluster(&mut rng, &decoded, ntcus, cycle, tids_remain, false);
            let cfg = XmtConfig {
                tcus_per_cluster: ntcus,
                fpus_per_cluster: 1 + rng.below(4) as usize,
                mdus_per_cluster: 1 + rng.below(2) as usize,
                lsus_per_cluster: 1 + rng.below(4) as usize,
                ..XmtConfig::xmt_4k()
            };
            let env = IssueEnv {
                decoded: &decoded,
                cfg: &cfg,
                mem_len: 1 << 12,
                hash: &AddressHash::new(16, 8),
                entry: 0,
                cycle,
            };
            let start = rng.below(ntcus as u64) as usize;
            let budget = rng.below(4) as usize;
            let tids = if tids_remain { 1 + rng.below(ntcus as u64) as u32 } else { 0 };
            m.wake(cycle);
            let ready = m.active & !m.busy & !m.stuck;
            let activations = tids_remain && !m.active & !m.disabled & ones(ntcus) != 0;
            prop_assert_eq!(order_observable(&m, ready, activations), activations);
            prop_assert!(!activations || tcus.regs.is_empty());
            prop_assert_eq!(m.quiet_scan(cycle + 1), scan_by_walk(&tcus.hot, &m, cycle + 1));

            let run = |bulk: bool, born: bool| {
                let (mut tcus, mut m) = (tcus.clone(), m.clone());
                if born && tcus.regs.is_empty() {
                    tcus.bear();
                }
                let unborn = tcus.regs.is_empty();
                let mut stats = MachineStats::default();
                let mut sink = Recording::new(0..tids, budget, &decoded);
                let mut cx = Cx {
                    tcus: &mut tcus,
                    m: &mut m,
                    env: &env,
                    stats: &mut stats,
                    sink: &mut sink,
                };
                if bulk {
                    issue_bulk(&mut cx, ready, start).unwrap();
                } else {
                    issue_walk(&mut cx, ready, activations, start).unwrap();
                }
                let lowered: Vec<bool> = sink
                    .trace
                    .uops()
                    .iter()
                    .map(|u| u.kind != UopKind::Cold)
                    .collect();
                assert_eq!(m.quiet_scan(cycle + 1), scan_by_walk(&tcus.hot, &m, cycle + 1));
                assert_eq!(tcus.regs.is_empty(), unborn && sink.granted.is_empty());
                let tcus: Vec<_> = (0..ntcus).map(|t| tcu_view(&tcus, t)).collect();
                let effects = (sink.granted, sink.injections, sink.entries);
                (tcus, m, stats, effects, lowered)
            };
            let (a, b) = if activations {
                (run(false, false), run(false, true))
            } else {
                (run(true, false), run(false, false))
            };
            prop_assert_eq!(&a.0, &b.0);
            prop_assert_eq!(&a.1, &b.1);
            prop_assert_eq!(a.2, b.2);
            prop_assert_eq!(&a.3, &b.3);
            prop_assert_eq!(&a.4, &b.4);
        }

        /// A cluster parked for `k` cycles and then settled is the
        /// cluster stepped `k` times: identical TCUs and masks (the
        /// wake wheel included), identical stall counters, nothing at
        /// the sink, and a mask scan that still equals the per-TCU
        /// walk. `k` runs to 20 — past one wheel revolution — unless a
        /// latency-stalled TCU's wake ends the stretch first, as it
        /// does in the machine. On one of the cycles a memory reply
        /// may land: the cluster stays parked, on its recorded scan,
        /// exactly when the reply leaves its TCU waiting, and is
        /// stepped like the other copy from then on when it does not.
        #[test]
        fn parked_then_settled_equals_empty_steps(seed in any::<u64>()) {
            let mut rng = proptest::TestRng::new(seed);
            let decoded = class_program();
            let ntcus = 1 + rng.below(64) as usize;
            let cycle = 100 + rng.below(64);
            let (tcus, mut m) = gen_cluster(&mut rng, &decoded, ntcus, cycle, false, true);
            m.wake(cycle);
            let next = cycle + 1;
            let scan = m.quiet_scan(next);
            prop_assert_eq!(scan, scan_by_walk(&tcus.hot, &m, next));
            prop_assert!(!scan.issue_next);
            let k = (1 + rng.below(20)).min(scan.min_busy - next);
            let reply = (0..ntcus)
                .filter(|&t| m.active >> t & 1 != 0 && tcus.hot[t].outstanding > 0)
                .nth(rng.below(ntcus as u64) as usize)
                .map(|t| {
                    let kind = match (tcus.hot[t].pend_i, tcus.hot[t].pend_f, rng.below(3)) {
                        (i, _, 0) if i != 0 => TxnKind::LoadI(ir(i.trailing_zeros() as usize)),
                        (_, f, 1) if f != 0 => TxnKind::LoadF(fr(f.trailing_zeros() as usize)),
                        _ => TxnKind::Store,
                    };
                    (next + rng.below(k), t, kind)
                });
            let cfg = XmtConfig {
                tcus_per_cluster: ntcus,
                ..XmtConfig::xmt_4k()
            };
            let hash = AddressHash::new(16, 8);
            let start = rng.below(ntcus as u64) as usize;
            let budget = rng.below(4) as usize;

            let run = |park: bool| {
                let (mut tcus, mut m) = (tcus.clone(), m.clone());
                let mut stats = MachineStats::default();
                let mut sink = Recording::new(0..0, budget, &decoded);
                let (mut parked, mut worklist) = (Parked::new(1), ActiveSet::new(1));
                if park {
                    parked.park(&mut worklist, 0, next, scan);
                }
                for cycle in next..next + k {
                    if parked.contains(0) {
                        parked.wake_due(&mut worklist, cycle, std::slice::from_mut(&mut m));
                        parked.accrue(&mut stats, 1);
                    }
                    if !parked.contains(0) {
                        let env = IssueEnv {
                            decoded: &decoded,
                            cfg: &cfg,
                            mem_len: 1 << 12,
                            hash: &hash,
                            entry: 0,
                            cycle,
                        };
                        let at = (start + (cycle - next) as usize) % ntcus;
                        step_cluster(&mut tcus, &mut m, at, &env, &mut stats, &mut sink, true)
                            .unwrap();
                    }
                    if let Some((_, t, kind)) = reply.filter(|r| r.0 == cycle) {
                        apply_reply(&mut tcus, &mut m, t, kind, 77, &decoded);
                        if parked.contains(0) && !m.still_waiting(t) {
                            parked.unpark(&mut worklist, 0, &mut m, cycle + 1);
                        }
                    }
                }
                if parked.contains(0) {
                    parked.unpark(&mut worklist, 0, &mut m, next + k);
                }
                assert_eq!(m.quiet_scan(next + k), scan_by_walk(&tcus.hot, &m, next + k));
                let tcus: Vec<_> = (0..ntcus).map(|t| tcu_view(&tcus, t)).collect();
                (tcus, m, stats, (sink.granted, sink.injections, sink.entries))
            };
            let (parked, stepped) = (run(true), run(false));
            prop_assert_eq!(&parked.0, &stepped.0);
            prop_assert_eq!(&parked.1, &stepped.1);
            prop_assert_eq!(parked.2, stepped.2);
            prop_assert_eq!(&parked.3, &stepped.3);
        }
    }
}
