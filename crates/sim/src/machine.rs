//! The cycle-level XMT machine simulator.
//!
//! Composes the pieces of Fig. 1: an MTCU running serial sections, TCU
//! clusters with shared FPU/MDU/LSU ports, the prefix-sum unit, the
//! spawn broadcast, the request/reply interconnect (`xmt-noc`) and the
//! hashed memory modules with shared DRAM channels (`xmt-mem`).
//!
//! Functional semantics are shared with the untimed interpreter
//! (`xmt_isa::interp::exec_compute` and the pure `eval_*` helpers), so
//! a program produces bit-identical results on both engines; this
//! simulator adds *when* — the cycle counts the paper's evaluation is
//! built on.
//!
//! Timing model summary (all per 3.3 GHz core cycle):
//! * TCUs are in-order and scalar; ALU-class ops take 1 cycle.
//! * FPU ops: issue limited to `fpus_per_cluster` per cluster per
//!   cycle, 4-cycle result latency.
//! * MDU ops: 1 issue per cluster per cycle, 8-cycle latency.
//! * Loads/stores: 1 LSU slot per cluster per cycle injects into the
//!   request NoC; loads are non-blocking (scoreboarded) with up to 8
//!   outstanding per TCU — the paper's "prefetching methods".
//! * Memory modules service one access per cycle in arrival order;
//!   misses go to the module's shared DRAM channel.
//! * `spawn` broadcast costs log₂(clusters) cycles; thread IDs are
//!   handed out by the PS unit with unlimited same-cycle combining.

use crate::checkpoint::{ChannelState, Checkpoint, ModuleState};
use crate::config::XmtConfig;
use crate::fault::FaultPlan;
use crate::probe::{BlockedTcus, NoProbe, Probe, SampleCtx};
use crate::tier::{TraceCache, TraceStats, TranslationTier};
use crate::txn_slab::TxnSlab;
use std::collections::VecDeque;
use xmt_isa::block::MicroOp;
use xmt_isa::decoded::DecodedProgram;
use xmt_isa::instr::{eval_branch, Instr, Unit};
use xmt_isa::interp::exec_compute;
use xmt_isa::reg::{fr, ir, RegFile, NUM_GREGS};
use xmt_isa::Program;
use xmt_mem::{AddressHash, ChannelRequest, DramChannel, DramReq, MemReq, MemResp, MemoryModule};
use xmt_noc::{Delivered, FaultyNetwork, Flit, Network, Topology};

#[path = "issue.rs"]
mod issue;
#[path = "machine_threaded.rs"]
mod threaded;

use issue::{
    addr_of, ones, ClusterMasks, IssueClass, IssueEnv, IssueSink, Tcu, TxnKind, FPU_LATENCY,
    MAX_OUTSTANDING, MDU_LATENCY,
};

/// The issue kernel's unit latencies as the [`xmt_isa::UnitLat`] value baked
/// into every lowered micro-op — exported so external validators
/// (`xmt-verify`'s translation-validation pass, `xmt_lint`) recompute
/// the canonical lowering with the machine's own numbers.
pub const UNIT_LAT: xmt_isa::UnitLat = xmt_isa::UnitLat {
    fpu: FPU_LATENCY as u8,
    mdu: MDU_LATENCY as u8,
};
/// MTCU private-cache access latency for serial-mode memory ops.
const SERIAL_MEM_LATENCY: u64 = 4;
/// Default watchdog no-progress horizon in cycles. Generous: legitimate
/// quiet stretches are bounded by DRAM latency (hundreds of cycles), so
/// two million cycles without one instruction retiring or one thread
/// starting is always a hang.
const DEFAULT_WATCHDOG: u64 = 2_000_000;

/// Simulator errors. Every variant carries the program counter of the
/// fault (where one exists) and the machine cycle it surfaced on:
/// deep construction sites that cannot see the clock leave `at_cycle`
/// at 0 and the step boundary stamps it via [`SimError::stamped`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Memory access outside the configured memory image.
    MemOutOfBounds {
        /// Program counter at the fault.
        pc: usize,
        /// Faulting word address.
        addr: u64,
        /// Machine cycle the fault surfaced on.
        at_cycle: u64,
    },
    /// Nested spawn, halt-in-parallel, etc.
    BadInstruction {
        /// Program counter at the fault.
        pc: usize,
        /// Description of the illegal action.
        what: &'static str,
        /// Machine cycle the fault surfaced on.
        at_cycle: u64,
    },
    /// Cycle limit exceeded — deadlock or runaway program.
    CycleLimit {
        /// Cycle at which the limit tripped.
        at_cycle: u64,
    },
    /// Execution ran off the end of the program.
    PcOutOfRange {
        /// Program counter at the fault.
        pc: usize,
        /// Machine cycle the fault surfaced on.
        at_cycle: u64,
    },
    /// The watchdog saw no forward progress (no instruction retired and
    /// no thread started) for a whole no-progress horizon — a hang that
    /// would otherwise burn the entire cycle budget, e.g. a stuck-at
    /// TCU holding the spawn barrier open forever.
    Stalled {
        /// Cycle the watchdog fired on.
        at_cycle: u64,
        /// Instructions retired when progress last advanced.
        last_retired: u64,
    },
    /// An internal protocol invariant broke (e.g. a NoC delivery whose
    /// transaction tag is unknown). Always a simulator bug, surfaced as
    /// a typed error instead of a panic so long sweeps keep their
    /// partial results.
    Protocol {
        /// Which invariant broke.
        what: &'static str,
        /// Machine cycle the fault surfaced on.
        at_cycle: u64,
    },
    /// The builder was asked for an impossible machine (fault indices
    /// out of range, every TCU disabled, all DRAM channels dead, …).
    InvalidConfig {
        /// What was wrong.
        what: &'static str,
    },
}

impl SimError {
    /// The machine cycle the error surfaced on (0 for construction-time
    /// errors, which precede the first cycle).
    pub fn cycle(&self) -> u64 {
        match *self {
            SimError::MemOutOfBounds { at_cycle, .. }
            | SimError::BadInstruction { at_cycle, .. }
            | SimError::CycleLimit { at_cycle }
            | SimError::PcOutOfRange { at_cycle, .. }
            | SimError::Stalled { at_cycle, .. }
            | SimError::Protocol { at_cycle, .. } => at_cycle,
            SimError::InvalidConfig { .. } => 0,
        }
    }

    /// Fill in `at_cycle` if the construction site could not see the
    /// clock (left it at 0). Applied at the step boundaries.
    fn stamped(mut self, cycle: u64) -> Self {
        match &mut self {
            SimError::MemOutOfBounds { at_cycle, .. }
            | SimError::BadInstruction { at_cycle, .. }
            | SimError::CycleLimit { at_cycle }
            | SimError::PcOutOfRange { at_cycle, .. }
            | SimError::Stalled { at_cycle, .. }
            | SimError::Protocol { at_cycle, .. } => {
                if *at_cycle == 0 {
                    *at_cycle = cycle;
                }
            }
            SimError::InvalidConfig { .. } => {}
        }
        self
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::MemOutOfBounds { pc, addr, at_cycle } => write!(
                f,
                "memory access at word {addr:#x} out of bounds (pc {pc}, cycle {at_cycle})"
            ),
            SimError::BadInstruction { pc, what, at_cycle } => {
                write!(f, "{what} at pc {pc} (cycle {at_cycle})")
            }
            SimError::CycleLimit { at_cycle } => write!(f, "cycle limit hit at {at_cycle}"),
            SimError::PcOutOfRange { pc, at_cycle } => {
                write!(f, "pc {pc} out of range (cycle {at_cycle})")
            }
            SimError::Stalled {
                at_cycle,
                last_retired,
            } => write!(
                f,
                "no forward progress: watchdog fired at cycle {at_cycle} \
                 ({last_retired} instructions retired)"
            ),
            SimError::Protocol { what, at_cycle } => {
                write!(f, "protocol invariant broken: {what} (cycle {at_cycle})")
            }
            SimError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Typed status of a [`RunOutcome`]: how the run ended.
///
/// Replaces the old `Result<RunReport, FailedRun>` pair (and the
/// `Done`/`Paused` enum `run_until` used to return) with one surface:
/// every way a run can stop is a variant here, and the partial report
/// travels alongside in the [`RunOutcome`] rather than inside an error
/// type.
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus {
    /// The program reached `halt`; the report is complete.
    Completed,
    /// [`Machine::run_until`] paused at the first quiescent cycle at or
    /// after the requested pause point; [`Machine::checkpoint`] can
    /// snapshot the machine, or the run can simply continue.
    Paused {
        /// Cycle the machine paused on.
        at_cycle: u64,
    },
    /// The run stopped on a typed error ([`SimError::cycle`] gives the
    /// failure cycle); the report is partial, as of that cycle.
    Failed(SimError),
}

/// Everything [`Machine::run`] / [`Machine::run_until`] reports: a
/// typed [`RunStatus`] plus the [`RunReport`] — complete on success,
/// partial at a pause or failure — so a swept or faulted run that
/// times out still yields its counters, spawn log and utilization.
///
/// Subsumes the old `RunReport`-on-`Ok` / `FailedRun`-on-`Err` pair:
/// one value, with combinators for the common call shapes
/// ([`RunOutcome::expect`], [`RunOutcome::unwrap`],
/// [`RunOutcome::into_result`]).
#[derive(Debug, Clone)]
#[must_use = "a RunOutcome may carry a failure; check its status"]
pub struct RunOutcome {
    /// How the run ended.
    pub status: RunStatus,
    /// The run's report — complete when `status` is
    /// [`RunStatus::Completed`], otherwise partial as of the pause or
    /// failure cycle.
    pub report: RunReport,
}

impl RunOutcome {
    /// True when the program ran to `halt`.
    pub fn is_completed(&self) -> bool {
        matches!(self.status, RunStatus::Completed)
    }

    /// True when the run paused at a quiescent cycle (only
    /// [`Machine::run_until`] produces this).
    pub fn is_paused(&self) -> bool {
        matches!(self.status, RunStatus::Paused { .. })
    }

    /// The typed error, when the run failed.
    pub fn error(&self) -> Option<&SimError> {
        match &self.status {
            RunStatus::Failed(e) => Some(e),
            _ => None,
        }
    }

    /// The cycle the outcome was decided on: the failure cycle, the
    /// pause cycle, or the final cycle of a completed run.
    pub fn at_cycle(&self) -> u64 {
        match &self.status {
            RunStatus::Completed => self.report.stats.cycles,
            RunStatus::Paused { at_cycle } => *at_cycle,
            RunStatus::Failed(e) => e.cycle(),
        }
    }

    /// The completed report, or a panic naming `what` and the error —
    /// the moral equivalent of `Result::expect` for call sites that
    /// treat anything but completion as a bug.
    #[track_caller]
    pub fn expect(self, what: &str) -> RunReport {
        match self.status {
            RunStatus::Completed => self.report,
            RunStatus::Paused { at_cycle } => {
                panic!("{what}: run paused at cycle {at_cycle}")
            }
            RunStatus::Failed(e) => panic!("{what}: {e}"),
        }
    }

    /// The completed report, or a panic carrying the error.
    #[track_caller]
    pub fn unwrap(self) -> RunReport {
        self.expect("run did not complete")
    }

    /// Split back into the old `Result` shape for `?`-style callers:
    /// a failure becomes `Err` with its typed error, anything else
    /// (completed *or* paused) yields the report.
    pub fn into_result(self) -> Result<RunReport, SimError> {
        match self.status {
            RunStatus::Failed(e) => Err(e),
            _ => Ok(self.report),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Txn {
    cluster: usize,
    tcu: usize,
    addr: u32,
    kind: TxnKind,
    /// Store data (set at issue) or load data (captured when the
    /// request reaches its home module, preserving module order).
    value: u32,
}

/// Offer `txn` to the request network, bound for `module`; false if
/// the network refused it this cycle.
///
/// Tag protocol: the slab's next tag is *peeked* and stamped into the
/// flit first; the transaction is only committed on a successful
/// injection, so a refused attempt leaves the tag stream untouched —
/// the same allocation order every engine observes.
#[inline(always)]
fn inject_request(
    req_net: &mut dyn Network,
    txns: &mut TxnSlab<Txn>,
    module: usize,
    txn: Txn,
) -> bool {
    let tag = txns.peek_tag();
    if !req_net.try_inject(Flit {
        src: txn.cluster,
        dst: module,
        tag,
    }) {
        return false;
    }
    let committed = txns.insert(txn);
    debug_assert_eq!(committed, tag);
    true
}

/// [`IssueSink`] of the serial engines (reference and fast-forward):
/// thread IDs come off the shared PS counter, requests go straight
/// into the request NoC, micro-ops lower lazily on first fetch, and
/// `ps`/`sspawn` apply to the global registers on the spot.
struct Direct<'a> {
    /// The cluster being stepped (the NoC source port).
    c: usize,
    next_tid: &'a mut u32,
    spawn_count: &'a mut u32,
    gregs: &'a mut [u32; NUM_GREGS],
    req_net: &'a mut dyn Network,
    txns: &'a mut TxnSlab<Txn>,
    trace: Option<&'a mut TraceCache>,
}

impl IssueSink for Direct<'_> {
    #[inline(always)]
    fn tids_remain(&self) -> bool {
        *self.next_tid < *self.spawn_count
    }

    // Thread IDs are handed out globally; every idle TCU of every
    // cluster competes for them, which the central counter models
    // exactly.
    #[inline(always)]
    fn next_tid(&mut self) -> Option<u32> {
        self.tids_remain().then(|| {
            let tid = *self.next_tid;
            *self.next_tid += 1;
            tid
        })
    }

    #[inline(always)]
    fn inject(&mut self, tcu: usize, addr: u32, kind: TxnKind, value: u32, module: usize) -> bool {
        let txn = Txn {
            cluster: self.c,
            tcu,
            addr,
            kind,
            value,
        };
        inject_request(self.req_net, self.txns, module, txn)
    }

    #[inline(always)]
    fn fetch(&mut self, decoded: &DecodedProgram, pc: usize) -> Option<MicroOp> {
        self.trace
            .as_deref_mut()
            .map(|tc| tc.fetch_warm(decoded, pc))
    }

    #[inline(always)]
    fn note_entry(&mut self) {
        if let Some(tc) = self.trace.as_deref_mut() {
            tc.note_entry();
        }
    }

    #[inline(always)]
    fn gregs(&self) -> &[u32; NUM_GREGS] {
        self.gregs
    }

    fn global_op(&mut self, ins: &Instr, rf: &mut RegFile) {
        match *ins {
            Instr::Ps { rd, inc, on } => {
                let old = self.gregs[on.index()];
                self.gregs[on.index()] = old.wrapping_add(rf.read_i(inc));
                rf.write_i(rd, old);
            }
            // PS on the spawn bound: the barrier now also waits for
            // the new virtual threads, which idle TCUs pick up
            // immediately.
            Instr::Sspawn { rd, count } => {
                let old = *self.spawn_count;
                *self.spawn_count = old.wrapping_add(rf.read_i(count));
                rf.write_i(rd, old);
            }
            _ => unreachable!("global-op class on a non-ps instruction"),
        }
    }

    #[inline(always)]
    fn joined(&mut self, _n: u64) {}
}

/// Execution mode of the machine.
#[derive(Debug)]
enum Mode {
    /// MTCU running; `resume_at` models multi-cycle serial operations.
    Serial {
        pc: usize,
        resume_at: u64,
    },
    /// Parallel section: TCUs executing threads of the current spawn.
    Parallel {
        return_pc: usize,
    },
    Finished,
}

/// Counters accumulated over the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Cycle count.
    pub cycles: u64,
    /// The `instructions` value.
    pub instructions: u64,
    /// The `flops` value.
    pub flops: u64,
    /// The `mem_reads` value.
    pub mem_reads: u64,
    /// The `mem_writes` value.
    pub mem_writes: u64,
    /// The `threads` value.
    pub threads: u64,
    /// The `spawns` value.
    pub spawns: u64,
    /// Issue stalls by cause.
    pub stall_scoreboard: u64,
    /// The `stall_fpu` value.
    pub stall_fpu: u64,
    /// The `stall_mdu` value.
    pub stall_mdu: u64,
    /// The `stall_lsu` value.
    pub stall_lsu: u64,
}

/// Per-spawn (per parallel section) statistics — the phase-level data
/// behind the Roofline points of Fig. 3.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpawnStats {
    /// Index of the spawn in program order.
    pub index: usize,
    /// Virtual threads executed.
    pub threads: u64,
    /// Machine cycle the spawn instruction issued on (start of the
    /// broadcast) — positions the phase on a trace timeline.
    pub start_cycle: u64,
    /// Wall cycles from spawn start to the barrier completing.
    pub cycles: u64,
    /// The `instructions` value.
    pub instructions: u64,
    /// The `flops` value.
    pub flops: u64,
    /// The `mem_reads` value.
    pub mem_reads: u64,
    /// The `mem_writes` value.
    pub mem_writes: u64,
    /// Bytes actually transferred on the DRAM channels.
    pub dram_bytes: u64,
    /// Scoreboard stall cycles accrued inside this section.
    pub stall_scoreboard: u64,
    /// FPU-port stall cycles accrued inside this section.
    pub stall_fpu: u64,
    /// MDU-port stall cycles accrued inside this section.
    pub stall_mdu: u64,
    /// LSU/NoC/memory stall cycles accrued inside this section.
    pub stall_lsu: u64,
}

impl SpawnStats {
    /// Achieved GFLOPS (actual FLOP count) at `clock_ghz`.
    pub fn gflops(&self, clock_ghz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.flops as f64 * clock_ghz / self.cycles as f64
    }

    /// Operational intensity in FLOPs per DRAM byte.
    pub fn intensity(&self) -> f64 {
        if self.dram_bytes == 0 {
            return f64::INFINITY;
        }
        self.flops as f64 / self.dram_bytes as f64
    }
}

/// Post-run utilization snapshot (see [`Machine::utilization`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UtilizationReport {
    /// Instructions issued by each cluster.
    pub cluster_instr: Vec<u64>,
    /// Cache-bank accesses per memory module.
    pub module_accesses: Vec<u64>,
    /// Cache hit rate per module (1.0 when untouched).
    pub module_hit_rate: Vec<f64>,
    /// Fraction of cycles each DRAM channel was busy.
    pub channel_busy: Vec<f64>,
    /// FLOPs issued / (cycles × FPUs): compute-ceiling utilization.
    pub fpu_utilization: f64,
}

impl UtilizationReport {
    /// Max/mean ratio of per-cluster instruction counts (1.0 = perfect
    /// load balance; the XMT thread scheduler should keep this low).
    pub fn cluster_imbalance(&self) -> f64 {
        let max = self.cluster_instr.iter().copied().max().unwrap_or(0) as f64;
        let sum: u64 = self.cluster_instr.iter().sum();
        let mean = sum as f64 / self.cluster_instr.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Max/mean ratio of per-module access counts (address hashing
    /// should keep this near 1).
    pub fn module_imbalance(&self) -> f64 {
        let max = self.module_accesses.iter().copied().max().unwrap_or(0) as f64;
        let sum: u64 = self.module_accesses.iter().sum();
        let mean = sum as f64 / self.module_accesses.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Everything a completed run reports: the overall counters, the
/// per-phase (per-spawn) log behind the Roofline points of Fig. 3, and
/// the component-utilization snapshot. One struct instead of the old
/// `RunSummary` + separate `Machine::utilization()` accessor, so every
/// caller — benches, tables, tests — gets the whole picture from
/// [`Machine::run`] in one move.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Accumulated statistics.
    pub stats: MachineStats,
    /// The `spawns` value.
    pub spawns: Vec<SpawnStats>,
    /// Per-component utilization (cluster issue balance, module cache
    /// behaviour, DRAM-channel occupancy, FPU-ceiling fraction).
    pub utilization: UtilizationReport,
}

struct SpawnTracker {
    index: usize,
    start_cycle: u64,
    start: MachineStats,
    start_dram_bytes: u64,
    threads_at_start: u64,
}

/// Which advance loop [`Machine::run`] uses. Every engine produces
/// bit-identical [`RunReport`] / memory / register state — the golden
/// cycle tests pin this; engines only differ in wall-clock speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Plain cycle-by-cycle loop: every component steps every cycle.
    /// The semantic baseline the optimized engines are checked against.
    Reference,
    /// Event-driven fast-forward: on cycles where nothing can issue,
    /// jump straight to the next component event (FPU/MDU completion,
    /// NoC arrival, cache-response maturation, DRAM completion, serial
    /// resume) and accrue the skipped cycles' stall statistics in bulk.
    #[default]
    FastForward,
    /// Two-phase parallel cluster stepping on worker threads: each
    /// cycle the clusters compute locally in parallel, then the main
    /// thread replays their memory-injection attempts in cluster order
    /// so NoC arbitration and transaction tags match the serial
    /// engines exactly. Includes the fast-forward optimization. Falls
    /// back to [`Engine::FastForward`] for programs that mutate global
    /// state from parallel mode (`ps`/`sspawn`).
    Threaded {
        /// Worker count; 0 picks one per available core (capped at
        /// the cluster count).
        threads: usize,
    },
}

/// A matured reply headed for a TCU (cluster, tcu, kind, value).
struct ReplyDelivery {
    cluster: usize,
    tcu: usize,
    kind: TxnKind,
    value: u32,
}

/// Result of scanning one cluster for fast-forward eligibility.
#[derive(Debug, Clone, Copy)]
struct ClusterScan {
    /// Some TCU could issue (or fault) next cycle — cannot skip.
    issue_next: bool,
    /// Earliest `busy_until` among latency-stalled TCUs (`u64::MAX`
    /// when none).
    min_busy: u64,
    /// TCUs that would burn a scoreboard-stall per skipped cycle.
    blocked_scoreboard: u64,
    /// TCUs that would burn an LSU-stall per skipped cycle (at the
    /// outstanding-transaction cap).
    blocked_lsu: u64,
    /// Idle TCUs (would activate if thread IDs remained).
    idle: u64,
}

/// Scan a cluster as it would be seen at the top of cycle `next`:
/// classify every TCU as issuing, latency-stalled, scoreboard-stalled,
/// LSU-capped, silently waiting (join with posted stores) or idle.
/// Mirrors the issue tests of `step_cluster` exactly; any instruction
/// that would issue *or fault* reports `issue_next` so the per-cycle
/// path keeps sole ownership of side effects and errors.
///
/// With `COMPLETE` the scan visits every TCU — the threaded engine
/// sizes thread-ID grants from `idle`, so its counts must stay complete
/// even once `issue_next` is set. The fast-forward engine only uses the
/// counts when nothing issues, so it passes `COMPLETE = false` and the
/// scan returns the moment `issue_next` is decided.
fn scan_cluster<const COMPLETE: bool>(cluster: &[Tcu], next: u64) -> ClusterScan {
    let mut scan = ClusterScan {
        issue_next: false,
        min_busy: u64::MAX,
        blocked_scoreboard: 0,
        blocked_lsu: 0,
        idle: 0,
    };
    for tcu in cluster {
        if !tcu.active {
            // A disabled TCU never activates: it is not idle capacity,
            // so thread-ID grant sizing must not count it.
            if !tcu.disabled {
                scan.idle += 1;
            }
            continue;
        }
        if tcu.busy_until > next {
            scan.min_busy = scan.min_busy.min(tcu.busy_until);
            continue;
        }
        if tcu.stuck {
            // Stuck-at: active but never issues — no stall counter, no
            // issue, no event. Only the watchdog ends this.
            continue;
        }
        match tcu.cls {
            IssueClass::Scoreboard => scan.blocked_scoreboard += 1,
            IssueClass::Lsu if tcu.outstanding >= MAX_OUTSTANDING => {
                scan.blocked_lsu += 1;
            }
            IssueClass::Join if tcu.outstanding > 0 => {
                // Join waiting on posted stores is silent: no stall
                // counter, no issue. The reply that unblocks it is a
                // tracked memory event.
            }
            // Every other class issues or faults (port budgets start
            // ≥1 per cluster, and a budget only empties on a cycle
            // that issued — which this, by construction, is not).
            _ => {
                scan.issue_next = true;
                if !COMPLETE {
                    return scan;
                }
            }
        }
    }
    scan
}

/// Memoized aggregate of a completed all-clusters fast-forward scan
/// that found nothing able to issue or activate. Valid until any TCU
/// mutates (an instruction issues, a thread activates, or a memory
/// reply is applied) or the clock reaches `min_busy`; quiet steps and
/// bulk skips preserve it, so memory-bound stretches pay for one
/// O(clusters × TCUs) scan instead of one per quiet cycle.
#[derive(Debug, Clone, Copy)]
struct FfScanCache {
    min_busy: u64,
    blocked_scoreboard: u64,
    blocked_lsu: u64,
}

/// The XMT machine. Built via [`MachineBuilder`].
///
/// The probe type parameter is the observability hook: [`NoProbe`]
/// (the default) has `Probe::ENABLED == false`, so every probe branch
/// in the advance loops constant-folds away and an unprobed machine is
/// bit-for-bit and cycle-for-cycle the pre-observability simulator.
pub struct Machine<P: Probe = NoProbe> {
    cfg: XmtConfig,
    prog: Program,
    /// Functional shared memory (word addressed).
    pub mem: Vec<u32>,
    gregs: [u32; NUM_GREGS],
    mtcu_rf: RegFile,
    mode: Mode,
    cycle: u64,
    /// Parallel-section thread allocation (the PS unit's counter).
    next_tid: u32,
    spawn_count: u32,
    spawn_entry: usize,
    clusters: Vec<Vec<Tcu>>,
    cluster_rr: Vec<usize>,
    /// Instructions issued per cluster (load-balance observability).
    cluster_instr: Vec<u64>,
    req_net: Box<dyn Network>,
    reply_net: Box<dyn Network>,
    modules: Vec<MemoryModule>,
    channels: Vec<DramChannel>,
    module_outbox: Vec<VecDeque<u64>>,
    hash: AddressHash,
    /// In-flight memory transactions, keyed by the dense generational
    /// tags the slab hands out. Tags travel through NoC flits, module
    /// queues and DRAM requests exactly as before; every engine
    /// allocates and frees them in the same order, so the tag stream —
    /// and with it every stat — stays bit-identical across engines.
    txns: TxnSlab<Txn>,
    /// The `max_cycles` value.
    pub max_cycles: u64,
    /// Watchdog no-progress horizon: if no instruction retires and no
    /// thread starts for this many cycles, the run fails with
    /// [`SimError::Stalled`] instead of burning the whole cycle budget.
    pub watchdog: u64,
    /// Cycle on which the progress fingerprint last advanced.
    progress_cycle: u64,
    /// Progress fingerprint (instructions retired + threads started).
    progress_mark: u64,
    /// Accumulated statistics.
    pub stats: MachineStats,
    spawn_log: Vec<SpawnStats>,
    tracker: Option<SpawnTracker>,
    /// Advance-loop selection for [`Machine::run`].
    pub engine: Engine,
    /// Predecoded instruction stream: unit, hazard masks and flop flag
    /// resolved once at construction so the issue loop does one
    /// contiguous fetch per TCU instead of a program fetch plus a
    /// hazard-table lookup plus per-instruction re-derivation.
    decoded: DecodedProgram,
    /// Program touches global state from parallel mode (`ps`/`sspawn`),
    /// which the threaded engine cannot partition across workers.
    has_global_ops: bool,
    /// Completed memory-system steps. Trails `cycle` by the summed
    /// spawn-broadcast cycles (which advance the machine clock without
    /// stepping components); `cycle - mem_clock` converts component
    /// clocks to machine clocks.
    mem_clock: u64,
    /// Sorted indices of modules with work (`MemoryModule::is_active`);
    /// only these step each cycle. `module_active` mirrors membership.
    active_modules: Vec<usize>,
    module_active: Vec<bool>,
    /// Sorted indices of channels with transfers pending.
    active_channels: Vec<usize>,
    channel_active: Vec<bool>,
    /// Sorted indices of non-empty module outboxes.
    active_outboxes: Vec<usize>,
    outbox_active: Vec<bool>,
    /// Per-cluster bitmask mirrors of TCU hot state (see
    /// [`ClusterMasks`]); every mutation path in this file keeps them
    /// current, so the issue loops can skip or bulk-process TCUs
    /// without touching their cache lines.
    masks: Vec<ClusterMasks>,
    /// Memoized quiet-scan aggregates for [`Machine::fast_forward`].
    ff_cache: Option<FfScanCache>,
    /// Reusable per-cycle scratch: matured replies awaiting write-back.
    scratch_replies: Vec<ReplyDelivery>,
    /// Reusable per-cycle scratch: NoC deliveries (request and reply
    /// nets alternate on the same buffer within a cycle).
    scratch_deliveries: Vec<Delivered>,
    /// Reusable per-cycle scratch: module → DRAM channel requests.
    scratch_creqs: Vec<ChannelRequest>,
    /// Reusable per-cycle scratch: module responses.
    scratch_resps: Vec<MemResp>,
    /// The attached probe (zero-sized [`NoProbe`] by default).
    probe: P,
    /// Next sampling boundary (`u64::MAX` when the probe never fires).
    next_sample: u64,
    /// Cycle of the most recent sample, so the end-of-run flush in
    /// [`Machine::report`] does not double-emit.
    last_sample: u64,
    /// Block-compiled execution tier (DESIGN.md §15): `Some` when the
    /// builder selected [`TranslationTier::Block`]. Holds the lazily
    /// warmed superblock trace cache the issue loops replay from; the
    /// interpreter path remains the fallback at every cold slot and
    /// machine-level boundary.
    trace: Option<Box<TraceCache>>,
    /// Tier-only worklist of clusters with any active TCU, maintained by
    /// `step_parallel_worklist` so fully idle clusters (proven quiescent:
    /// no busy TCUs, empty wake wheel) are never visited or skip-woken.
    par_active: Vec<usize>,
    /// Parallel cycles elapsed in the current section (tier bookkeeping
    /// for the lazy round-robin advance; always 0 when the tier is off).
    pcyc: u64,
    /// Per-cluster section cycle through which `cluster_rr` has been
    /// advanced; `sync_rr` settles the arrears before a cluster steps.
    rr_synced: Vec<u64>,
}

/// Insert `idx` into a sorted active list if not already present.
fn activate(list: &mut Vec<usize>, flags: &mut [bool], idx: usize) {
    if !flags[idx] {
        flags[idx] = true;
        let pos = list.partition_point(|&x| x < idx);
        list.insert(pos, idx);
    }
}

/// Staged construction of a [`Machine`]: configuration, program,
/// initial memory image, engine selection and probe registration in
/// one chainable value, replacing the old `Machine::new(cfg, prog,
/// mem_words)` plus post-hoc field pokes and write calls.
///
/// ```
/// # use xmt_sim::{Engine, MachineBuilder, XmtConfig};
/// # use xmt_isa::ProgramBuilder;
/// # let mut b = ProgramBuilder::new();
/// # b.halt();
/// # let prog = b.build().unwrap();
/// let mut m = MachineBuilder::new(&XmtConfig::xmt_4k().scaled_to(4), prog)
///     .mem_words(1024)
///     .write_f32s(16, &[1.0, 2.0])
///     .engine(Engine::FastForward)
///     .build();
/// m.run().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    cfg: XmtConfig,
    prog: Program,
    mem: Vec<u32>,
    engine: Engine,
    max_cycles: Option<u64>,
    faults: FaultPlan,
    watchdog: Option<u64>,
    tier: TranslationTier,
}

impl MachineBuilder {
    /// Start building a machine for `cfg` running `prog`. The memory
    /// image starts empty; size it with [`MachineBuilder::mem_words`]
    /// or implicitly via the `write_*` methods.
    pub fn new(cfg: &XmtConfig, prog: Program) -> Self {
        Self {
            cfg: *cfg,
            prog,
            mem: Vec::new(),
            engine: Engine::default(),
            max_cycles: None,
            faults: FaultPlan::default(),
            watchdog: None,
            tier: TranslationTier::default(),
        }
    }

    /// Grow the memory image to at least `words` zeroed words.
    pub fn mem_words(mut self, words: usize) -> Self {
        if self.mem.len() < words {
            self.mem.resize(words, 0);
        }
        self
    }

    /// Select the advance engine (default [`Engine::FastForward`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Select the execution tier (default [`TranslationTier::Block`],
    /// the trace-cache replay path). [`TranslationTier::Interpreter`]
    /// restores per-instruction dispatch; the two are bit-identical in
    /// every architectural and statistical output, differing only in
    /// host-side speed.
    pub fn tier(mut self, tier: TranslationTier) -> Self {
        self.tier = tier;
        self
    }

    /// Override the runaway/deadlock cycle limit.
    pub fn max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = Some(max_cycles);
        self
    }

    /// Override the watchdog no-progress horizon (default two million
    /// cycles; see [`SimError::Stalled`]).
    pub fn watchdog(mut self, horizon: u64) -> Self {
        self.watchdog = Some(horizon);
        self
    }

    /// Attach a deterministic [`FaultPlan`]. A benign plan (the
    /// default) interposes nothing: the machine is bit-identical to one
    /// built without faults.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Graceful-degradation shorthand: take whole clusters and DRAM
    /// channels offline. Spawned threads remap around the dead clusters
    /// and the address hash spreads lines over the surviving module
    /// groups, so a correct program still produces correct output at
    /// reduced throughput. Merges into the current fault plan.
    pub fn degraded(mut self, dead_clusters: &[usize], dead_channels: &[usize]) -> Self {
        for &c in dead_clusters {
            self.faults.dead_clusters.push(c);
        }
        for &ch in dead_channels {
            self.faults.dead_channels.push(ch);
        }
        self
    }

    /// Store an `f32` slice at word address `addr` (bit-cast), growing
    /// the memory image to fit.
    pub fn write_f32s(mut self, addr: usize, data: &[f32]) -> Self {
        self = self.mem_words(addr + data.len());
        for (i, &v) in data.iter().enumerate() {
            self.mem[addr + i] = v.to_bits();
        }
        self
    }

    /// Store a `u32` slice at word address `addr`, growing the memory
    /// image to fit.
    pub fn write_u32s(mut self, addr: usize, data: &[u32]) -> Self {
        self = self.mem_words(addr + data.len());
        self.mem[addr..addr + data.len()].copy_from_slice(data);
        self
    }

    /// Build an unprobed machine (the zero-overhead default). Panics on
    /// an invalid fault plan; use [`MachineBuilder::try_build`] for a
    /// typed error instead.
    pub fn build(self) -> Machine {
        self.try_build().expect("invalid machine configuration")
    }

    /// Build an unprobed machine, returning
    /// [`SimError::InvalidConfig`] when the configuration or fault plan
    /// is impossible (indices out of range, every TCU disabled, …).
    pub fn try_build(self) -> Result<Machine, SimError> {
        self.try_build_probed(NoProbe)
    }

    /// Build a machine with `probe` attached. Panicking sibling of
    /// [`MachineBuilder::try_build_probed`].
    pub fn build_probed<P: Probe>(self, probe: P) -> Machine<P> {
        self.try_build_probed(probe)
            .expect("invalid machine configuration")
    }

    /// Validate the fault plan against the configuration.
    fn validate_faults(&self) -> Result<(), SimError> {
        let f = &self.faults;
        let err = |what| Err(SimError::InvalidConfig { what });
        if f.dead_clusters.iter().any(|&c| c >= self.cfg.clusters) {
            return err("dead cluster index out of range");
        }
        if f.dead_tcus
            .iter()
            .chain(&f.stuck_tcus)
            .any(|id| id.cluster >= self.cfg.clusters || id.tcu >= self.cfg.tcus_per_cluster)
        {
            return err("faulted TCU index out of range");
        }
        if f.dead_channels
            .iter()
            .any(|&ch| ch >= self.cfg.dram_channels())
        {
            return err("dead DRAM channel index out of range");
        }
        let p_ok = |p: f64| (0.0..=1.0).contains(&p);
        if !p_ok(f.dram_single) || !p_ok(f.dram_double) || !p_ok(f.noc_corrupt) {
            return err("fault probability out of [0, 1]");
        }
        if !f.dead_channels.is_empty() {
            if self.cfg.memory_modules > 64 {
                return err("degraded placement requires \u{2264} 64 memory modules");
            }
            let mut dead = f.dead_channels.clone();
            dead.sort_unstable();
            dead.dedup();
            if dead.len() >= self.cfg.dram_channels() {
                return err("at least one DRAM channel must stay online");
            }
        }
        // At least one TCU must be able to run threads.
        let mut dead_clusters = f.dead_clusters.clone();
        dead_clusters.sort_unstable();
        dead_clusters.dedup();
        let mut dead_tcus: Vec<(usize, usize)> = f
            .dead_tcus
            .iter()
            .map(|id| (id.cluster, id.tcu))
            .filter(|&(c, _)| !dead_clusters.contains(&c))
            .collect();
        dead_tcus.sort_unstable();
        dead_tcus.dedup();
        let total = self.cfg.clusters * self.cfg.tcus_per_cluster;
        let dead = dead_clusters.len() * self.cfg.tcus_per_cluster + dead_tcus.len();
        if dead >= total {
            return err("every TCU is disabled");
        }
        Ok(())
    }

    /// Build a machine with `probe` attached. The probe's
    /// [`Probe::bind`] runs here, before the first cycle, so ring
    /// buffers are sized once and the hot path never allocates. With a
    /// benign fault plan the constructed machine is bit-identical to
    /// the pre-fault-injection simulator: no fault layer is interposed
    /// anywhere.
    pub fn try_build_probed<P: Probe>(self, mut probe: P) -> Result<Machine<P>, SimError> {
        self.validate_faults()?;
        let MachineBuilder {
            cfg,
            prog,
            mem,
            engine,
            max_cycles,
            faults,
            watchdog,
            tier,
        } = self;
        assert!(
            cfg.tcus_per_cluster <= 64,
            "the mask-accelerated issue loop packs a cluster into u64 \
             bitmasks; configs beyond 64 TCUs per cluster are unsupported"
        );
        probe.bind(&cfg);
        let next_sample = if P::ENABLED {
            probe.interval().max(1)
        } else {
            u64::MAX
        };
        let topo = cfg.topology();
        let reply_topo = if topo.is_nonblocking() {
            Topology::pure_mot(cfg.memory_modules, cfg.clusters)
        } else {
            Topology::hybrid(
                cfg.memory_modules,
                cfg.clusters,
                cfg.mot_levels,
                cfg.butterfly_levels,
            )
        };
        let modules = (0..cfg.memory_modules)
            .map(|i| MemoryModule::new(i, cfg.cache))
            .collect();
        let mut channels: Vec<DramChannel> = (0..cfg.dram_channels())
            .map(|_| DramChannel::new(cfg.dram))
            .collect();
        for (ch, channel) in channels.iter_mut().enumerate() {
            if let Some(ecc) = faults.ecc_for_channel(ch) {
                channel.enable_ecc(ecc);
            }
        }
        // Dead DRAM channels take their whole memory-module group
        // offline; the hash spreads lines over the survivors.
        let offline_modules: Vec<usize> = faults
            .dead_channels
            .iter()
            .flat_map(|&ch| ch * cfg.mm_per_dram_ctrl..(ch + 1) * cfg.mm_per_dram_ctrl)
            .collect();
        let hash = if offline_modules.is_empty() {
            AddressHash::new(cfg.memory_modules, cfg.cache.line_words)
        } else {
            AddressHash::degraded(cfg.memory_modules, cfg.cache.line_words, &offline_modules)
        };
        let mut req_net = xmt_noc::build_network(topo);
        let mut reply_net = xmt_noc::build_network(reply_topo);
        if let Some(lf) = faults.req_net_faults() {
            req_net = Box::new(FaultyNetwork::new(req_net, lf));
        }
        if let Some(lf) = faults.reply_net_faults() {
            reply_net = Box::new(FaultyNetwork::new(reply_net, lf));
        }
        let decoded = DecodedProgram::new(&prog);
        let trace = (tier == TranslationTier::Block)
            .then(|| Box::new(TraceCache::new(&decoded, FPU_LATENCY, MDU_LATENCY)));
        let has_global_ops = (0..prog.len())
            .any(|pc| matches!(prog.fetch(pc), Instr::Ps { .. } | Instr::Sspawn { .. }));
        let n_channels = channels.len();
        let mut m = Machine {
            prog,
            mem,
            gregs: [0; NUM_GREGS],
            mtcu_rf: RegFile::new(0),
            mode: Mode::Serial {
                pc: 0,
                resume_at: 0,
            },
            cycle: 0,
            next_tid: 0,
            spawn_count: 0,
            spawn_entry: 0,
            clusters: (0..cfg.clusters)
                .map(|_| (0..cfg.tcus_per_cluster).map(|_| Tcu::idle()).collect())
                .collect(),
            cluster_rr: vec![0; cfg.clusters],
            cluster_instr: vec![0; cfg.clusters],
            req_net,
            reply_net,
            modules,
            channels,
            module_outbox: vec![VecDeque::new(); cfg.memory_modules],
            hash,
            txns: TxnSlab::new(),
            max_cycles: max_cycles.unwrap_or(200_000_000),
            watchdog: watchdog.unwrap_or(DEFAULT_WATCHDOG),
            progress_cycle: 0,
            progress_mark: 0,
            stats: MachineStats::default(),
            spawn_log: Vec::new(),
            tracker: None,
            engine,
            decoded,
            has_global_ops,
            mem_clock: 0,
            active_modules: Vec::new(),
            module_active: vec![false; cfg.memory_modules],
            active_channels: Vec::new(),
            channel_active: vec![false; n_channels],
            active_outboxes: Vec::new(),
            outbox_active: vec![false; cfg.memory_modules],
            masks: vec![ClusterMasks::new(cfg.tcus_per_cluster); cfg.clusters],
            ff_cache: None,
            scratch_replies: Vec::new(),
            scratch_deliveries: Vec::new(),
            scratch_creqs: Vec::new(),
            scratch_resps: Vec::new(),
            probe,
            next_sample,
            last_sample: 0,
            trace,
            par_active: Vec::new(),
            pcyc: 0,
            rr_synced: vec![0; cfg.clusters],
            cfg,
        };
        for &c in &faults.dead_clusters {
            for tcu in &mut m.clusters[c] {
                tcu.disabled = true;
            }
            m.masks[c].disabled = ones(m.cfg.tcus_per_cluster);
        }
        for id in &faults.dead_tcus {
            m.clusters[id.cluster][id.tcu].disabled = true;
            m.masks[id.cluster].disabled |= 1u64 << id.tcu;
        }
        for id in &faults.stuck_tcus {
            let tcu = &mut m.clusters[id.cluster][id.tcu];
            if !tcu.disabled {
                tcu.stuck = true;
                m.masks[id.cluster].stuck |= 1u64 << id.tcu;
            }
        }
        Ok(m)
    }

    /// Build a machine and restore `cp` into it, resuming the run the
    /// checkpoint was taken from. The builder must describe the same
    /// machine (config, program, fault plan) that produced the
    /// checkpoint — geometry is validated, and the fault layers rewind
    /// their deterministic streams to the saved cursors, so the resumed
    /// run finishes with the same final cycle count and spawn digest as
    /// the uninterrupted one under every engine.
    pub fn resume(self, cp: &Checkpoint) -> Result<Machine, SimError> {
        self.resume_probed(cp, NoProbe)
    }

    /// [`MachineBuilder::resume`] with `probe` attached. The probe's
    /// sampling clock is aligned to the *next* interval boundary after
    /// the checkpoint cycle (no catch-up samples for the skipped
    /// prefix), and [`Probe::resync`] is called once with the restored
    /// cumulative state so interval deltas continue from the
    /// checkpoint — a *fresh* [`crate::IntervalProbe`] resumes as the
    /// tail of the uninterrupted run's stream, with the interval the
    /// checkpoint split accounting only its post-checkpoint fraction.
    /// Re-attaching the paused machine's own probe
    /// ([`Machine::into_probe`] +
    /// [`IntervalProbe::into_carried`](crate::IntervalProbe::into_carried))
    /// strengthens that to full bit-identity: the split interval's row
    /// comes out exactly as the uninterrupted run would have emitted
    /// it.
    pub fn resume_probed<P: Probe>(
        self,
        cp: &Checkpoint,
        probe: P,
    ) -> Result<Machine<P>, SimError> {
        let mut m = self.try_build_probed(probe)?;
        let geometry_ok = cp.clusters as usize == m.cfg.clusters
            && cp.tcus_per_cluster as usize == m.cfg.tcus_per_cluster
            && cp.memory_modules as usize == m.cfg.memory_modules
            && cp.dram_channels as usize == m.cfg.dram_channels()
            && cp.prog_len as usize == m.prog.len()
            && cp.gregs.len() == NUM_GREGS
            && cp.mtcu_iregs.len() == 32
            && cp.mtcu_fregs.len() == 32
            && cp.cluster_rr.len() == m.cfg.clusters
            && cp.cluster_instr.len() == m.cfg.clusters
            && cp.modules.len() == m.cfg.memory_modules
            && cp.channels.len() == m.cfg.dram_channels()
            && cp.mem_clock <= cp.cycle;
        if !geometry_ok {
            return Err(SimError::InvalidConfig {
                what: "checkpoint geometry does not match the machine",
            });
        }
        m.mem = cp.mem.clone();
        m.gregs.copy_from_slice(&cp.gregs);
        for i in 0..32 {
            m.mtcu_rf.write_i(ir(i), cp.mtcu_iregs[i]);
            m.mtcu_rf.write_f(fr(i), f32::from_bits(cp.mtcu_fregs[i]));
        }
        m.cycle = cp.cycle;
        m.next_tid = cp.next_tid;
        m.spawn_count = cp.spawn_count;
        m.spawn_entry = cp.spawn_entry as usize;
        m.stats = cp.stats;
        m.spawn_log = cp.spawn_log.clone();
        m.cluster_rr = cp.cluster_rr.iter().map(|&r| r as usize).collect();
        m.cluster_instr = cp.cluster_instr.clone();
        m.mode = Mode::Serial {
            pc: cp.pc as usize,
            resume_at: cp.cycle + 1,
        };
        // Every memory-side component resumes on the clock it paused on
        // (the butterfly NoC arbitrates by clock parity).
        m.skip_memory(cp.mem_clock);
        for module in &mut m.modules {
            module.sync_to(cp.mem_clock);
        }
        for channel in &mut m.channels {
            channel.sync_to(cp.mem_clock);
        }
        // The restored clock counts as fresh progress.
        m.progress_cycle = cp.cycle;
        m.progress_mark = cp.stats.instructions + cp.stats.threads;
        m.last_sample = cp.cycle;
        for (module, ms) in m.modules.iter_mut().zip(&cp.modules) {
            let bank = module.bank_mut();
            bank.restore_tags(&ms.tags);
            bank.stats = ms.cache;
            module.stats = ms.module;
        }
        for (channel, cs) in m.channels.iter_mut().zip(&cp.channels) {
            channel.restore_state(cs.stats, cs.transfers);
        }
        m.req_net.restore_stats(cp.req_stats);
        m.reply_net.restore_stats(cp.reply_stats);
        if P::ENABLED {
            // Jump the sampling clock past the restored prefix (else
            // `poll_probe` would emit a catch-up sample for every
            // boundary below `cp.cycle`) and re-prime the probe's
            // delta baseline from the restored cumulative counters.
            let iv = m.probe.interval().max(1);
            m.next_sample = (cp.cycle / iv).saturating_add(1).saturating_mul(iv);
            m.emit_sample_with(cp.cycle, true);
        }
        Ok(m)
    }
}

impl<P: Probe> Machine<P> {
    /// Store an `f32` slice at word address `addr` (bit-cast).
    pub fn write_f32s(&mut self, addr: usize, data: &[f32]) {
        for (i, &v) in data.iter().enumerate() {
            self.mem[addr + i] = v.to_bits();
        }
    }

    /// Read `len` f32s from word address `addr`.
    pub fn read_f32s(&self, addr: usize, len: usize) -> Vec<f32> {
        self.mem[addr..addr + len]
            .iter()
            .map(|&w| f32::from_bits(w))
            .collect()
    }

    /// Read `out.len()` f32s from word address `addr` into `out` —
    /// the allocation-free sibling of [`Machine::read_f32s`] for
    /// repeated validation reads.
    pub fn read_f32s_into(&self, addr: usize, out: &mut [f32]) {
        let src = &self.mem[addr..addr + out.len()];
        for (o, &w) in out.iter_mut().zip(src) {
            *o = f32::from_bits(w);
        }
    }

    /// Store a `u32` slice at word address `addr`.
    pub fn write_u32s(&mut self, addr: usize, data: &[u32]) {
        self.mem[addr..addr + data.len()].copy_from_slice(data);
    }

    /// The attached probe (e.g. to pull [`crate::IntervalProbe::rows`]
    /// after a run).
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consume the machine and hand back its probe — used when a
    /// paused machine is torn down but its probe should continue on
    /// the checkpoint-restored successor (see
    /// [`IntervalProbe::into_carried`](crate::IntervalProbe::into_carried)).
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// The configuration used.
    pub fn config(&self) -> &XmtConfig {
        &self.cfg
    }

    /// Snapshot of the global registers (useful after a run).
    pub fn gregs_snapshot(&self) -> [u32; NUM_GREGS] {
        self.gregs
    }

    /// Utilization snapshot: per-cluster issue counts, per-module
    /// cache behaviour and DRAM-channel occupancy. Folded into the
    /// [`RunReport`] so callers no longer query the machine post-run.
    fn utilization(&self) -> UtilizationReport {
        let cluster_instr = self.cluster_instr.clone();
        let module_accesses: Vec<u64> = self
            .modules
            .iter()
            .map(|m| m.bank().stats.accesses)
            .collect();
        let module_hit_rate: Vec<f64> = self
            .modules
            .iter()
            .map(|m| {
                let st = m.bank().stats;
                if st.accesses == 0 {
                    1.0
                } else {
                    st.hits as f64 / st.accesses as f64
                }
            })
            .collect();
        let channel_busy: Vec<f64> = self
            .channels
            .iter()
            .map(|ch| {
                if self.cycle == 0 {
                    0.0
                } else {
                    ch.stats.busy_cycles as f64 / self.cycle as f64
                }
            })
            .collect();
        let fpu_util = if self.cycle == 0 {
            0.0
        } else {
            self.stats.flops as f64
                / (self.cycle as f64 * (self.cfg.clusters * self.cfg.fpus_per_cluster) as f64)
        };
        UtilizationReport {
            cluster_instr,
            module_accesses,
            module_hit_rate,
            channel_busy,
            fpu_utilization: fpu_util,
        }
    }

    /// Total DRAM bytes moved so far.
    fn dram_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.stats.bytes).sum()
    }

    /// Run to `halt` with the selected [`Engine`]. The [`RunOutcome`]
    /// always carries a [`RunReport`]: complete on
    /// [`RunStatus::Completed`] (the spawn log is moved into it — use
    /// [`Machine::spawn_log`] for any later inspection), partial up to
    /// the failure cycle on [`RunStatus::Failed`].
    pub fn run(&mut self) -> RunOutcome {
        match self.run_inner() {
            Ok(report) => RunOutcome {
                status: RunStatus::Completed,
                report,
            },
            Err(error) => RunOutcome {
                status: RunStatus::Failed(error),
                report: self.report(),
            },
        }
    }

    fn run_inner(&mut self) -> Result<RunReport, SimError> {
        match self.engine {
            Engine::Reference => self.run_reference(),
            Engine::FastForward => self.run_ff(),
            Engine::Threaded { threads } => {
                // With a probe attached the threaded engine would lag
                // samples: workers bank skip-accrued stall deltas until
                // their next step reply, so mid-run boundaries see
                // stale aggregates. Fast-forward samples exactly, so a
                // probed Threaded selection falls back to it (the
                // sample stream stays bit-identical to Reference).
                if P::ENABLED || self.has_global_ops || self.clusters.len() < 2 {
                    self.run_ff()
                } else {
                    threaded::run(self, threads)
                }
            }
        }
    }

    /// Cycle-budget and watchdog check, run at every step boundary in
    /// every engine. The progress fingerprint is instructions retired
    /// plus threads started: any cycle that advances neither for a
    /// whole watchdog horizon is a hang (legitimate quiet stretches are
    /// bounded by DRAM latency), reported as [`SimError::Stalled`] at
    /// exactly `progress_cycle + watchdog` — the fast-forward and
    /// threaded engines cap their skip horizons there so all three
    /// engines fail on the identical cycle.
    fn check_progress(&mut self) -> Result<(), SimError> {
        if self.cycle > self.max_cycles {
            return Err(SimError::CycleLimit {
                at_cycle: self.cycle,
            });
        }
        let mark = self.stats.instructions + self.stats.threads;
        if mark != self.progress_mark {
            self.progress_mark = mark;
            self.progress_cycle = self.cycle;
        } else if self.cycle >= self.progress_cycle + self.watchdog {
            return Err(SimError::Stalled {
                at_cycle: self.cycle,
                last_retired: self.stats.instructions,
            });
        }
        Ok(())
    }

    /// The skip horizon the watchdog imposes: one past the firing
    /// cycle, so a fast-forward lands exactly on it.
    fn watchdog_horizon(&self) -> u64 {
        (self.progress_cycle + self.watchdog).saturating_add(1)
    }

    /// The baseline advance loop: one `step` per simulated cycle.
    fn run_reference(&mut self) -> Result<RunReport, SimError> {
        while !matches!(self.mode, Mode::Finished) {
            self.step()?;
            self.check_progress()?;
        }
        Ok(self.report())
    }

    /// Fast-forwarding advance loop. Two optimizations over the
    /// reference loop, both invisible in the stats: cycles that do step
    /// use mask-driven bulk issue ([`Machine::step_with`]), and after
    /// any cycle that issued no instruction and activated no thread the
    /// clock jumps directly to the next cycle on which anything can
    /// happen.
    fn run_ff(&mut self) -> Result<RunReport, SimError> {
        while !matches!(self.mode, Mode::Finished) {
            self.ff_advance()?;
        }
        Ok(self.report())
    }

    /// One fast-forward iteration: a stepped cycle, then (if it was
    /// quiet) a bulk skip to the next event.
    fn ff_advance(&mut self) -> Result<(), SimError> {
        let instr_before = self.stats.instructions;
        let threads_before = self.stats.threads;
        self.step_with(true)?;
        self.check_progress()?;
        if instr_before == self.stats.instructions && threads_before == self.stats.threads {
            self.fast_forward();
            self.check_progress()?;
        } else {
            // The step mutated TCU state (issue or activation), so
            // any memoized quiet scan is stale.
            self.ff_cache = None;
        }
        Ok(())
    }

    /// Run until the first *quiescent* cycle at or after `pause_at`
    /// (serial mode, every transaction, NoC flit, module queue and
    /// DRAM transfer drained), or to completion if the program halts
    /// first. A paused machine can be snapshotted with
    /// [`Machine::checkpoint`] and later resumed via
    /// [`MachineBuilder::resume`], or simply run onward. Always
    /// advances with the fast-forward engine; the pause point is
    /// normalized so the checkpoint bytes are engine-invariant and the
    /// final results match an uninterrupted run bit-for-bit.
    ///
    /// On [`RunStatus::Paused`] the report is a *snapshot* (the spawn
    /// log is cloned, not moved) so the machine can be checkpointed or
    /// run onward without losing history.
    pub fn run_until(&mut self, pause_at: u64) -> RunOutcome {
        match self.run_until_inner(pause_at) {
            Ok(Some(at_cycle)) => RunOutcome {
                status: RunStatus::Paused { at_cycle },
                report: self.report_snapshot(),
            },
            Ok(None) => RunOutcome {
                status: RunStatus::Completed,
                report: self.report(),
            },
            Err(error) => RunOutcome {
                status: RunStatus::Failed(error),
                report: self.report(),
            },
        }
    }

    /// `Some(pause_cycle)` on a quiescent pause, `None` on completion.
    fn run_until_inner(&mut self, pause_at: u64) -> Result<Option<u64>, SimError> {
        while !matches!(self.mode, Mode::Finished) {
            if self.cycle >= pause_at && self.quiescent() {
                self.normalize_pause();
                return Ok(Some(self.cycle));
            }
            self.ff_advance()?;
        }
        Ok(None)
    }

    /// True when nothing is in flight anywhere: serial mode, no
    /// transactions, every module/channel/outbox idle, both NoCs empty
    /// (including fault-layer retries) and no open spawn section. At
    /// such a cycle the whole machine state is captured by the
    /// architectural registers plus the component counters.
    fn quiescent(&self) -> bool {
        matches!(self.mode, Mode::Serial { .. })
            && self.txns.is_empty()
            && self.active_modules.is_empty()
            && self.active_channels.is_empty()
            && self.active_outboxes.is_empty()
            && self.req_net.in_flight() == 0
            && self.reply_net.in_flight() == 0
            && self.tracker.is_none()
    }

    /// Canonicalize a quiescent pause point: jump the clock to the eve
    /// of the MTCU's resume cycle (where the fast-forward engine would
    /// naturally land) and re-anchor `resume_at`. Unobservable in the
    /// final results — it only moves the clocks, machine and memory
    /// side together, within a stretch where nothing can happen — and
    /// it makes checkpoint bytes independent of how the pause cycle
    /// was reached.
    fn normalize_pause(&mut self) {
        if let Mode::Serial { pc, resume_at } = self.mode {
            let c = self.cycle.max(resume_at.saturating_sub(1));
            self.skip_memory(c - self.cycle);
            self.cycle = c;
            self.stats.cycles = c;
            self.mode = Mode::Serial {
                pc,
                resume_at: c + 1,
            };
            self.poll_probe();
        }
    }

    /// Snapshot a quiescent machine into a [`Checkpoint`]. Fails with
    /// [`SimError::Protocol`] when called with work in flight — use
    /// [`Machine::run_until`] to reach a quiescent cycle first.
    pub fn checkpoint(&mut self) -> Result<Checkpoint, SimError> {
        if !self.quiescent() {
            return Err(SimError::Protocol {
                what: "checkpoint of a non-quiescent machine",
                at_cycle: self.cycle,
            });
        }
        self.normalize_pause();
        let pc = match self.mode {
            Mode::Serial { pc, .. } => pc,
            _ => unreachable!("quiescent() guarantees serial mode"),
        };
        Ok(Checkpoint {
            clusters: self.cfg.clusters as u32,
            tcus_per_cluster: self.cfg.tcus_per_cluster as u32,
            memory_modules: self.cfg.memory_modules as u32,
            dram_channels: self.cfg.dram_channels() as u32,
            prog_len: self.prog.len() as u32,
            cycle: self.cycle,
            mem_clock: self.mem_clock,
            pc: pc as u32,
            next_tid: self.next_tid,
            spawn_count: self.spawn_count,
            spawn_entry: self.spawn_entry as u32,
            gregs: self.gregs.to_vec(),
            mtcu_iregs: (0..32).map(|i| self.mtcu_rf.read_i(ir(i))).collect(),
            mtcu_fregs: (0..32)
                .map(|i| self.mtcu_rf.read_f(fr(i)).to_bits())
                .collect(),
            mem: self.mem.clone(),
            stats: self.stats,
            spawn_log: self.spawn_log.clone(),
            cluster_rr: self.cluster_rr.iter().map(|&r| r as u32).collect(),
            cluster_instr: self.cluster_instr.clone(),
            modules: self
                .modules
                .iter()
                .map(|m| ModuleState {
                    tags: m.bank().tag_snapshot(),
                    cache: m.bank().stats,
                    module: m.stats,
                })
                .collect(),
            channels: self
                .channels
                .iter()
                .map(|ch| {
                    let (stats, transfers) = ch.state();
                    ChannelState { stats, transfers }
                })
                .collect(),
            req_stats: self.req_net.stats(),
            reply_stats: self.reply_net.stats(),
        })
    }

    /// [`Machine::checkpoint`] straight to serialized bytes — the form
    /// every consumer that moves checkpoints across threads, files or
    /// sockets (the job server's slice commit, its write-ahead
    /// journal) actually wants. Same quiescence requirement.
    pub fn checkpoint_bytes(&mut self) -> Result<Vec<u8>, SimError> {
        Ok(self.checkpoint()?.to_bytes())
    }

    /// Move the clock from the end of a quiet cycle to just before the
    /// next event, replicating the bulk effects per-cycle stepping
    /// would have had: stall counters accrue per skipped cycle,
    /// round-robin pointers advance, component clocks jump.
    fn fast_forward(&mut self) {
        let next = self.cycle + 1;
        // The earliest cycle on which stepping could do something;
        // capped so a totally event-free machine still trips the
        // cycle-limit check exactly where the reference engine does,
        // and so the watchdog fires on the identical cycle (a stuck
        // TCU never issues, which a quiet-scan would skip past).
        let mut horizon = (self.max_cycles + 1).min(self.watchdog_horizon());
        let mut blocked_scoreboard = 0u64;
        let mut blocked_lsu = 0u64;
        let parallel = match self.mode {
            Mode::Finished => return,
            Mode::Serial { resume_at, .. } => {
                if resume_at <= next {
                    return; // the MTCU issues next cycle
                }
                horizon = horizon.min(resume_at);
                false
            }
            Mode::Parallel { .. } => {
                // A memoized scan stays exact while nothing that feeds
                // it changed: issues/activations/replies invalidate it,
                // and past `min_busy` a latency-stalled TCU wakes.
                let agg = match self.ff_cache.filter(|c| next < c.min_busy) {
                    Some(c) => c,
                    None => {
                        let mut agg = FfScanCache {
                            min_busy: u64::MAX,
                            blocked_scoreboard: 0,
                            blocked_lsu: 0,
                        };
                        // With the tier on and thread IDs exhausted,
                        // clusters off the worklist have no active TCUs:
                        // nothing to issue, wake or attribute stalls to,
                        // so the scan covers the worklist only.
                        let members: Option<&[usize]> = (self.trace.is_some()
                            && self.next_tid >= self.spawn_count)
                            .then_some(self.par_active.as_slice());
                        let n_scan = members.map_or(self.clusters.len(), |m| m.len());
                        for i in 0..n_scan {
                            let c = members.map_or(i, |m| m[i]);
                            let scan = scan_cluster::<false>(&self.clusters[c], next);
                            if scan.issue_next
                                || (scan.idle > 0 && self.next_tid < self.spawn_count)
                            {
                                return; // someone issues or activates next cycle
                            }
                            agg.min_busy = agg.min_busy.min(scan.min_busy);
                            agg.blocked_scoreboard += scan.blocked_scoreboard;
                            agg.blocked_lsu += scan.blocked_lsu;
                        }
                        self.ff_cache = Some(agg);
                        agg
                    }
                };
                horizon = horizon.min(agg.min_busy);
                blocked_scoreboard = agg.blocked_scoreboard;
                blocked_lsu = agg.blocked_lsu;
                true
            }
        };
        if let Some(e) = self.memory_next_event() {
            horizon = horizon.min(e);
        }
        if P::ENABLED {
            // Sampling boundaries are events: stop the skip at the
            // boundary so the probe records the same machine state
            // per-cycle stepping would. Splitting a quiet skip is
            // stats-invariant (stall accrual, wheel wakes and
            // round-robin advance all split additively), so the run's
            // aggregates — and the unprobed engine — are untouched.
            horizon = horizon.min(self.next_sample.saturating_add(1));
        }
        if horizon <= next {
            return;
        }
        let n = horizon - next;
        self.skip_memory(n);
        if parallel {
            self.stats.stall_scoreboard += n * blocked_scoreboard;
            self.stats.stall_lsu += n * blocked_lsu;
            if self.trace.is_some() {
                // Only worklist clusters can hold a non-empty wake
                // wheel (inactive ⇒ empty, the worklist invariant), and
                // the round-robin pointers catch up lazily via `pcyc`
                // instead of an O(clusters) advance per skip.
                let masks = &mut self.masks;
                for &c in &self.par_active {
                    masks[c].wake_through(next, n);
                }
                self.pcyc += n;
            } else {
                for m in &mut self.masks {
                    m.wake_through(next, n);
                }
                let ntcus = self.cfg.tcus_per_cluster;
                let adv = (n % ntcus as u64) as usize;
                for rr in &mut self.cluster_rr {
                    *rr = (*rr + adv) % ntcus;
                }
            }
        }
        self.cycle += n;
        self.stats.cycles = self.cycle;
        self.poll_probe();
    }

    /// Jump the memory side over `n` cycles in which (per
    /// [`Machine::memory_next_event`]) nothing moves: both NoCs and the
    /// active modules and channels skip; idle ones catch up lazily via
    /// `sync_to` when work next reaches them.
    fn skip_memory(&mut self, n: u64) {
        self.req_net.skip_idle(n);
        self.reply_net.skip_idle(n);
        for &m in &self.active_modules {
            self.modules[m].skip_idle(n);
        }
        for &c in &self.active_channels {
            self.channels[c].skip_idle(n);
        }
        self.mem_clock += n;
    }

    /// Earliest machine-clock cycle at which the memory system can
    /// change state on its own, or `None` when fully drained.
    fn memory_next_event(&self) -> Option<u64> {
        // A queued reply injection retries every cycle (it can be
        // refused by backpressure, which mutates NoC stats).
        if !self.active_outboxes.is_empty() {
            return Some(self.cycle + 1);
        }
        let off = self.cycle - self.mem_clock;
        let mut e = u64::MAX;
        if let Some(x) = self.req_net.next_event() {
            e = e.min(x + off);
        }
        if let Some(x) = self.reply_net.next_event() {
            e = e.min(x + off);
        }
        for &m in &self.active_modules {
            if let Some(x) = self.modules[m].next_event() {
                e = e.min(x + off);
            }
        }
        for &c in &self.active_channels {
            if let Some(x) = self.channels[c].next_event() {
                e = e.min(x + off);
            }
        }
        (e != u64::MAX).then_some(e)
    }

    /// Per-spawn statistics accumulated so far. [`Machine::run`] moves
    /// the log into its [`RunReport`] rather than cloning it, so after
    /// a completed run the report owns the entries and this is empty;
    /// it is useful when driving the machine manually via
    /// [`Machine::step`].
    pub fn spawn_log(&self) -> &[SpawnStats] {
        &self.spawn_log
    }

    /// Trace-cache exercise counters of the block-compiled tier, or
    /// `None` when the machine was built with
    /// [`TranslationTier::Interpreter`]. Deterministic for a given
    /// (program, config, engine) — the CI tier stage pins this.
    pub fn trace_stats(&self) -> Option<TraceStats> {
        self.trace.as_deref().map(TraceCache::stats)
    }

    /// The block-compiled tier's trace cache itself (read-only), or
    /// `None` under [`TranslationTier::Interpreter`]. The translation
    /// validator in `xmt-verify` audits the lowered records a run
    /// actually replayed through this view.
    pub fn trace_cache(&self) -> Option<&TraceCache> {
        self.trace.as_deref()
    }

    /// Assemble the [`RunReport`], flushing the probe's final partial
    /// interval first so interval totals equal the run aggregates.
    fn report(&mut self) -> RunReport {
        if P::ENABLED && self.cycle > self.last_sample {
            self.emit_sample(self.cycle);
        }
        RunReport {
            stats: self.stats,
            spawns: std::mem::take(&mut self.spawn_log),
            utilization: self.utilization(),
        }
    }

    /// A cloning report of the machine *as of now*, without flushing
    /// the probe or consuming the spawn log — the pause-path report:
    /// the machine keeps its history and can run onward or be
    /// checkpointed.
    fn report_snapshot(&self) -> RunReport {
        RunReport {
            stats: self.stats,
            spawns: self.spawn_log.clone(),
            utilization: self.utilization(),
        }
    }

    /// Emit samples for every boundary the clock has reached. Behind
    /// `P::ENABLED` so the `NoProbe` hot path compiles this away; the
    /// `while` handles the serial spawn broadcast jumping the clock
    /// across several boundaries at once (each gets a sample, from the
    /// same post-step state — identically in every engine).
    #[inline(always)]
    fn poll_probe(&mut self) {
        if !P::ENABLED {
            return;
        }
        while self.cycle >= self.next_sample {
            let boundary = self.next_sample;
            self.next_sample = boundary.saturating_add(self.probe.interval().max(1));
            self.emit_sample(boundary);
        }
    }

    /// Build a [`SampleCtx`] from the live component state and hand it
    /// to the probe. Split borrows keep this allocation-free.
    fn emit_sample(&mut self, boundary: u64) {
        self.emit_sample_with(boundary, false);
    }

    /// [`Machine::emit_sample`], or (with `resync`) the same context
    /// handed to [`Probe::resync`] instead — used once after a
    /// checkpoint restore to re-prime the probe's delta baseline.
    fn emit_sample_with(&mut self, boundary: u64, resync: bool) {
        let Machine {
            probe,
            stats,
            cycle,
            tracker,
            req_net,
            reply_net,
            txns,
            channels,
            modules,
            masks,
            last_sample,
            ..
        } = self;
        let mut blocked = BlockedTcus::default();
        for m in masks.iter() {
            let ready = m.active & !m.busy & !m.stuck;
            blocked.scoreboard +=
                u64::from((m.cls[IssueClass::Scoreboard as usize] & ready).count_ones());
            blocked.fpu += u64::from((m.cls[IssueClass::Fpu as usize] & ready).count_ones());
            blocked.mdu += u64::from((m.cls[IssueClass::Mdu as usize] & ready).count_ones());
            blocked.lsu += u64::from((m.cls[IssueClass::Lsu as usize] & ready).count_ones());
        }
        let ctx = SampleCtx {
            boundary,
            cycle: *cycle,
            spawn: tracker.as_ref().map(|t| t.index as u64),
            stats,
            req_net: req_net.stats(),
            reply_net: reply_net.stats(),
            noc_in_flight: (req_net.in_flight() + reply_net.in_flight()) as u64,
            txns_in_flight: txns.len() as u64,
            blocked,
            channels,
            modules,
        };
        if resync {
            probe.resync(&ctx);
        } else {
            probe.record(&ctx);
            *last_sample = *cycle;
        }
    }

    /// Advance the machine one cycle with the reference issue loop:
    /// every cluster steps, every ready TCU is visited in turn.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.step_with(false)
    }

    /// One machine cycle. `fast` selects the fast-forward engine's
    /// parallel-mode stepping — bulk issue off the cluster masks
    /// wherever the visit order is unobservable and, with the tier on,
    /// only the clusters on the active worklist; the reference engine
    /// (`fast == false`) walks every TCU of every cluster.
    fn step_with(&mut self, fast: bool) -> Result<(), SimError> {
        let r = self.step_inner(fast);
        r.map_err(|e| e.stamped(self.cycle))
    }

    fn step_inner(&mut self, fast: bool) -> Result<(), SimError> {
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        match self.mode {
            Mode::Serial { pc, resume_at } => {
                if self.cycle >= resume_at {
                    self.step_serial(pc)?;
                }
                // Serial mode still drains the memory system (posted
                // writes from the previous section are already done by
                // the barrier, but channels may be finishing refills).
                self.step_memory_system()?;
            }
            Mode::Parallel { return_pc } => {
                if fast && self.trace.is_some() {
                    self.step_parallel_worklist()?;
                } else {
                    for c in 0..self.clusters.len() {
                        self.step_cluster(c, fast)?;
                    }
                }
                self.step_memory_system()?;
                self.maybe_finish_spawn(return_pc);
            }
            Mode::Finished => {}
        }
        self.poll_probe();
        Ok(())
    }

    /// One cluster's slice of a parallel cycle: the issue kernel
    /// ([`issue::step_cluster`]) over this machine's state, with every
    /// globally ordered effect applied on the spot by [`Direct`].
    #[inline]
    fn step_cluster(&mut self, c: usize, shortcuts: bool) -> Result<(), SimError> {
        let Machine {
            cfg,
            clusters,
            masks,
            cluster_rr,
            cluster_instr,
            decoded,
            gregs,
            stats,
            mem,
            hash,
            req_net,
            txns,
            next_tid,
            spawn_count,
            spawn_entry,
            cycle,
            trace,
            ..
        } = self;
        let env = IssueEnv {
            decoded,
            ntcus: cfg.tcus_per_cluster,
            fpus: cfg.fpus_per_cluster,
            mdus: cfg.mdus_per_cluster,
            lsus: cfg.lsus_per_cluster,
            mem_len: mem.len(),
            hash: *hash,
            entry: *spawn_entry,
            cycle: *cycle,
        };
        let mut sink = Direct {
            c,
            next_tid,
            spawn_count,
            gregs,
            req_net: req_net.as_mut(),
            txns,
            trace: trace.as_deref_mut(),
        };
        cluster_instr[c] += issue::step_cluster(
            &mut clusters[c],
            &mut masks[c],
            &mut cluster_rr[c],
            &env,
            stats,
            &mut sink,
            shortcuts,
        )?;
        Ok(())
    }

    /// Settle a cluster's round-robin arrears before it steps. With the
    /// tier on, skipped clusters and bulk fast-forwards no longer eagerly
    /// advance every `cluster_rr` each cycle; `pcyc` counts the parallel
    /// cycles of the current section and each cluster catches up lazily
    /// (same scheme as the threaded engine's shard `synced` field).
    #[inline]
    fn sync_rr(&mut self, c: usize) {
        let ntcus = self.cfg.tcus_per_cluster;
        let lag = (self.pcyc - self.rr_synced[c]) % ntcus as u64;
        if lag > 0 {
            self.cluster_rr[c] = (self.cluster_rr[c] + lag as usize) % ntcus;
        }
        // The step about to run advances the pointer once more.
        self.rr_synced[c] = self.pcyc + 1;
    }

    /// Tiered fast parallel cycle: only clusters on the `par_active`
    /// worklist are visited. A cluster leaves the list when its last
    /// thread joins (proven quiescent: joins drain posted stores first,
    /// and an empty active mask implies an empty wake wheel, so an
    /// unvisited cluster is a guaranteed no-op) and can only rejoin via
    /// activation, which rebuilds the list under a full walk.
    fn step_parallel_worklist(&mut self) -> Result<(), SimError> {
        let nclusters = self.clusters.len();
        if self.next_tid < self.spawn_count {
            // Thread IDs remain: any cluster may activate an idle TCU,
            // so walk them all and rebuild the worklist.
            self.par_active.clear();
            for c in 0..nclusters {
                self.sync_rr(c);
                self.step_cluster(c, true)?;
            }
            for c in 0..nclusters {
                if self.masks[c].active != 0 {
                    self.par_active.push(c);
                }
            }
            self.pcyc += 1;
            return Ok(());
        }
        // Steady state: compact the worklist in place while stepping.
        let mut list = std::mem::take(&mut self.par_active);
        let mut w = 0;
        for i in 0..list.len() {
            let c = list[i];
            if self.masks[c].active == 0 {
                continue;
            }
            self.sync_rr(c);
            if let Err(e) = self.step_cluster(c, true) {
                self.par_active = list;
                return Err(e);
            }
            if self.next_tid < self.spawn_count {
                // An `sspawn` minted thread IDs mid-cycle. The
                // reference walk visits clusters in ascending order, so
                // every cluster after `c` — listed or not — may now
                // activate idle TCUs this same cycle; clusters at or
                // before `c` already had their visit.
                list.truncate(w);
                for c2 in c + 1..nclusters {
                    self.sync_rr(c2);
                    if let Err(e) = self.step_cluster(c2, true) {
                        self.par_active = list;
                        return Err(e);
                    }
                }
                for c2 in 0..nclusters {
                    if self.masks[c2].active != 0 && list.binary_search(&c2).is_err() {
                        list.push(c2);
                    }
                }
                list.sort_unstable();
                self.par_active = list;
                self.pcyc += 1;
                return Ok(());
            }
            list[w] = c;
            w += 1;
        }
        list.truncate(w);
        self.par_active = list;
        self.pcyc += 1;
        Ok(())
    }

    fn addr_of(&self, pc: usize, base: u32, off: u32) -> Result<usize, SimError> {
        addr_of(pc, base, off, self.mem.len())
    }

    fn step_serial(&mut self, pc: usize) -> Result<(), SimError> {
        if pc >= self.prog.len() {
            return Err(SimError::PcOutOfRange {
                pc,
                at_cycle: self.cycle,
            });
        }
        let ins = self.prog.fetch(pc);
        self.stats.instructions += 1;
        if ins.is_flop() {
            self.stats.flops += 1;
        }
        // Compute-class instructions (includes ReadGr).
        let mut rf = std::mem::replace(&mut self.mtcu_rf, RegFile::new(0));
        let handled = exec_compute(&ins, &mut rf, &self.gregs);
        self.mtcu_rf = rf;
        if handled {
            let lat = match ins.unit() {
                Unit::Fpu => FPU_LATENCY,
                Unit::Mdu => MDU_LATENCY,
                _ => 1,
            };
            self.mode = Mode::Serial {
                pc: pc + 1,
                resume_at: self.cycle + lat,
            };
            return Ok(());
        }
        match ins {
            Instr::WriteGr { rs, dst } => {
                self.gregs[dst.index()] = self.mtcu_rf.read_i(rs);
                self.mode = Mode::Serial {
                    pc: pc + 1,
                    resume_at: self.cycle + 1,
                };
            }
            Instr::Lw { rd, base, off } => {
                let a = self.addr_of(pc, self.mtcu_rf.read_i(base), off)?;
                let v = self.mem[a];
                self.mtcu_rf.write_i(rd, v);
                self.stats.mem_reads += 1;
                self.mode = Mode::Serial {
                    pc: pc + 1,
                    resume_at: self.cycle + SERIAL_MEM_LATENCY,
                };
            }
            Instr::Sw { rs, base, off } => {
                let a = self.addr_of(pc, self.mtcu_rf.read_i(base), off)?;
                self.mem[a] = self.mtcu_rf.read_i(rs);
                self.stats.mem_writes += 1;
                self.mode = Mode::Serial {
                    pc: pc + 1,
                    resume_at: self.cycle + SERIAL_MEM_LATENCY,
                };
            }
            Instr::Flw { fd, base, off } => {
                let a = self.addr_of(pc, self.mtcu_rf.read_i(base), off)?;
                let v = f32::from_bits(self.mem[a]);
                self.mtcu_rf.write_f(fd, v);
                self.stats.mem_reads += 1;
                self.mode = Mode::Serial {
                    pc: pc + 1,
                    resume_at: self.cycle + SERIAL_MEM_LATENCY,
                };
            }
            Instr::Fsw { fs, base, off } => {
                let a = self.addr_of(pc, self.mtcu_rf.read_i(base), off)?;
                self.mem[a] = self.mtcu_rf.read_f(fs).to_bits();
                self.stats.mem_writes += 1;
                self.mode = Mode::Serial {
                    pc: pc + 1,
                    resume_at: self.cycle + SERIAL_MEM_LATENCY,
                };
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let t = eval_branch(cond, self.mtcu_rf.read_i(rs1), self.mtcu_rf.read_i(rs2));
                let next = if t { target } else { pc + 1 };
                self.mode = Mode::Serial {
                    pc: next,
                    resume_at: self.cycle + 1,
                };
            }
            Instr::Jump { target } => {
                self.mode = Mode::Serial {
                    pc: target,
                    resume_at: self.cycle + 1,
                };
            }
            Instr::Ps { rd, inc, on } => {
                let old = self.gregs[on.index()];
                self.gregs[on.index()] = old.wrapping_add(self.mtcu_rf.read_i(inc));
                self.mtcu_rf.write_i(rd, old);
                self.mode = Mode::Serial {
                    pc: pc + 1,
                    resume_at: self.cycle + 1,
                };
            }
            Instr::Spawn { count, entry } => {
                let n = self.mtcu_rf.read_i(count);
                self.stats.spawns += 1;
                self.spawn_count = n;
                self.spawn_entry = entry;
                self.next_tid = 0;
                if self.trace.is_some() {
                    // Fresh section: restart the lazy round-robin clock
                    // and the cluster worklist (rebuilt on the first
                    // parallel cycle, when thread IDs are available).
                    self.pcyc = 0;
                    self.rr_synced.fill(0);
                    self.par_active.clear();
                }
                // Broadcast: the parallel section reaches every cluster
                // in log₂(clusters) cycles (Section II-A: "start all
                // TCUs at once in the same time it takes to start one").
                let broadcast = (self.cfg.clusters as f64).log2().ceil() as u64 + 1;
                self.tracker = Some(SpawnTracker {
                    index: self.spawn_log.len(),
                    start_cycle: self.cycle,
                    start: self.stats,
                    start_dram_bytes: self.dram_bytes(),
                    threads_at_start: self.stats.threads,
                });
                self.cycle += broadcast;
                self.stats.cycles = self.cycle;
                self.mode = Mode::Parallel { return_pc: pc + 1 };
            }
            Instr::Join => {
                return Err(SimError::BadInstruction {
                    pc,
                    what: "join in serial mode",
                    at_cycle: self.cycle,
                })
            }
            Instr::Sspawn { .. } => {
                return Err(SimError::BadInstruction {
                    pc,
                    what: "sspawn in serial mode",
                    at_cycle: self.cycle,
                })
            }
            Instr::Halt => {
                self.mode = Mode::Finished;
            }
            // Everything executable lands in a prior arm; anything
            // else is a trap, not a panic — the caller gets a typed
            // error with cycle/PC context.
            _ => {
                return Err(SimError::BadInstruction {
                    pc,
                    what: "instruction not executable in serial mode",
                    at_cycle: self.cycle,
                })
            }
        }
        Ok(())
    }

    /// Advance the NoC, memory modules, DRAM channels and replies.
    fn step_memory_system(&mut self) -> Result<(), SimError> {
        let mut replies = std::mem::take(&mut self.scratch_replies);
        self.step_memory_system_collect(&mut replies)?;
        if !replies.is_empty() {
            // Replies clear scoreboard bits and drop outstanding
            // counts, so any memoized quiet scan is stale.
            self.ff_cache = None;
        }
        let Machine {
            clusters,
            masks,
            decoded,
            ..
        } = self;
        for r in replies.drain(..) {
            let tcu = &mut clusters[r.cluster][r.tcu];
            issue::apply_reply(tcu, &mut masks[r.cluster], r.tcu, r.kind, r.value, decoded);
        }
        self.scratch_replies = replies;
        Ok(())
    }

    /// One memory-system cycle with matured replies pushed to `out`
    /// instead of applied (the threaded engine routes them to the
    /// worker that owns the target cluster). Only *active* modules,
    /// channels and outboxes are visited; idle components are clock-
    /// synced lazily when something arrives for them.
    ///
    /// Every NoC delivery must map to a live transaction; a dangling
    /// tag (e.g. a fault layer exhausting its retry budget and
    /// dropping a flit) is a broken protocol invariant and surfaces as
    /// [`SimError::Protocol`] rather than a panic.
    fn step_memory_system_collect(&mut self, out: &mut Vec<ReplyDelivery>) -> Result<(), SimError> {
        self.mem_route_requests()?;
        self.mem_step_modules();
        self.mem_drain_collect(out)
    }

    /// Memory-cycle stage 1: request network → modules. The functional
    /// effect happens here (arrival order at the home module defines
    /// the memory order; kernels separate read and write sets between
    /// barriers).
    fn mem_route_requests(&mut self) -> Result<(), SimError> {
        let mut deliveries = std::mem::take(&mut self.scratch_deliveries);
        self.req_net.step_into(&mut deliveries);
        for d in deliveries.drain(..) {
            let Some(txn) = self.txns.get_mut(d.flit.tag) else {
                return Err(SimError::Protocol {
                    what: "request delivery for a dead transaction",
                    at_cycle: 0,
                });
            };
            match txn.kind {
                TxnKind::LoadI(_) | TxnKind::LoadF(_) => {
                    txn.value = self.mem[txn.addr as usize];
                }
                TxnKind::Store => {
                    self.mem[txn.addr as usize] = txn.value;
                }
            }
            let addr = txn.addr;
            let is_write = matches!(txn.kind, TxnKind::Store);
            if P::ENABLED {
                // Oracle hook at the exact point that defines memory
                // order. The issuing TCU still carries the thread's
                // tid: a virtual thread only retires at `join` once
                // its outstanding count drains to zero.
                let (cluster, tcu) = (txn.cluster, txn.tcu);
                let tid = self.clusters[cluster][tcu].rf.tid;
                let spawn = self.tracker.as_ref().map(|t| t.index as u64);
                self.probe.mem_access(spawn, tid, addr, is_write);
            }
            // The module is about to take its step for this memory
            // cycle, so align it to the *previous* one.
            self.modules[d.flit.dst].sync_to(self.mem_clock);
            self.modules[d.flit.dst].enqueue(MemReq {
                addr,
                is_write,
                tag: d.flit.tag,
            });
            activate(
                &mut self.active_modules,
                &mut self.module_active,
                d.flit.dst,
            );
        }
        self.scratch_deliveries = deliveries;
        Ok(())
    }

    /// Memory-cycle stage 2: active modules service their queues and
    /// emit DRAM requests (accumulated into `scratch_creqs`, in active-
    /// module order) and replies (routed to the per-module outboxes).
    /// The threaded engine replaces this stage with a work-stealing
    /// pass over the same active list — each module's step is
    /// independent, and the creq/outbox merge is re-serialized in
    /// module order — so both paths leave identical state for
    /// [`Machine::mem_drain_collect`].
    fn mem_step_modules(&mut self) {
        let mut creqs = std::mem::take(&mut self.scratch_creqs);
        let mut resps = std::mem::take(&mut self.scratch_resps);
        for &m in &self.active_modules {
            self.modules[m].step(&mut creqs, &mut resps);
            for resp in resps.drain(..) {
                self.module_outbox[m].push_back(resp.req.tag);
                activate(&mut self.active_outboxes, &mut self.outbox_active, m);
            }
        }
        self.scratch_resps = resps;
        self.scratch_creqs = creqs;
        self.retire_inactive_modules();
    }

    /// Drop modules that went quiescent from the active list (shared
    /// tail of the serial and threaded module-step stages).
    fn retire_inactive_modules(&mut self) {
        let module_active = &mut self.module_active;
        let modules = &self.modules;
        self.active_modules.retain(|&m| {
            let still = modules[m].is_active();
            module_active[m] = still;
            still
        });
    }

    /// Memory-cycle stage 3: DRAM channels, module fills, reply
    /// injection and reply delivery. Consumes the channel requests
    /// stage 2 left in `scratch_creqs`.
    fn mem_drain_collect(&mut self, out: &mut Vec<ReplyDelivery>) -> Result<(), SimError> {
        let mut creqs = std::mem::take(&mut self.scratch_creqs);
        for cr in creqs.drain(..) {
            let ch = cr.module / self.cfg.mm_per_dram_ctrl;
            self.channels[ch].sync_to(self.mem_clock);
            self.channels[ch].enqueue(DramReq {
                tag: cr.module as u64,
                ..cr.req
            });
            activate(&mut self.active_channels, &mut self.channel_active, ch);
        }
        self.scratch_creqs = creqs;
        self.mem_clock += 1;
        // DRAM channels → module fills.
        for &ch in &self.active_channels {
            if let Some(done) = self.channels[ch].step() {
                let m = done.req.tag as usize;
                // Post-step: both module and channel clocks now sit at
                // the current memory cycle.
                self.modules[m].sync_to(self.mem_clock);
                self.modules[m].on_fill(done);
                if self.modules[m].is_active() {
                    activate(&mut self.active_modules, &mut self.module_active, m);
                }
            }
        }
        let channel_active = &mut self.channel_active;
        let channels = &self.channels;
        self.active_channels.retain(|&ch| {
            let still = channels[ch].pending() > 0;
            channel_active[ch] = still;
            still
        });
        // Module outboxes → reply network (one injection per module
        // port per cycle).
        let outbox_active = &mut self.outbox_active;
        let module_outbox = &mut self.module_outbox;
        let reply_net = &mut self.reply_net;
        let txns = &self.txns;
        let mut dead_tag = false;
        self.active_outboxes.retain(|&m| {
            if let Some(&tag) = module_outbox[m].front() {
                match txns.get(tag) {
                    Some(txn) => {
                        if reply_net.try_inject(Flit {
                            src: m,
                            dst: txn.cluster,
                            tag,
                        }) {
                            module_outbox[m].pop_front();
                        }
                    }
                    None => dead_tag = true,
                }
            }
            let still = !module_outbox[m].is_empty();
            outbox_active[m] = still;
            still
        });
        if dead_tag {
            return Err(SimError::Protocol {
                what: "module reply for a dead transaction",
                at_cycle: 0,
            });
        }
        // Reply network → TCUs.
        let mut deliveries = std::mem::take(&mut self.scratch_deliveries);
        self.reply_net.step_into(&mut deliveries);
        for d in deliveries.drain(..) {
            let Some(txn) = self.txns.remove(d.flit.tag) else {
                return Err(SimError::Protocol {
                    what: "reply delivery for a dead transaction",
                    at_cycle: 0,
                });
            };
            out.push(ReplyDelivery {
                cluster: txn.cluster,
                tcu: txn.tcu,
                kind: txn.kind,
                value: txn.value,
            });
        }
        self.scratch_deliveries = deliveries;
        Ok(())
    }

    /// Close the parallel section when all work and memory drained.
    fn maybe_finish_spawn(&mut self, return_pc: usize) {
        if self.next_tid < self.spawn_count {
            return;
        }
        if self.clusters.iter().any(|cl| cl.iter().any(|t| t.active)) {
            return;
        }
        self.maybe_finish_spawn_drained(return_pc);
    }

    /// Barrier tail shared with the threaded engine (which knows TCU
    /// activity from its workers' scans): `txns` covers every request
    /// or reply in a NoC or outbox; the active lists cover modules with
    /// queued/maturing work and channels with fills or write-backs in
    /// flight. A module waiting only on a DRAM fill is inactive, but
    /// its channel stays active until the fill completes and `on_fill`
    /// reactivates the module — so empty lists plus empty `txns` is
    /// exactly the reference engine's full drain scan.
    fn maybe_finish_spawn_drained(&mut self, return_pc: usize) {
        if self.next_tid < self.spawn_count {
            return;
        }
        if !self.txns.is_empty()
            || !self.active_modules.is_empty()
            || !self.active_channels.is_empty()
        {
            return;
        }
        // Section complete: log its stats and resume serial mode.
        if let Some(tr) = self.tracker.take() {
            self.spawn_log.push(SpawnStats {
                index: tr.index,
                threads: self.stats.threads - tr.threads_at_start,
                start_cycle: tr.start_cycle,
                cycles: self.cycle - tr.start_cycle,
                instructions: self.stats.instructions - tr.start.instructions,
                flops: self.stats.flops - tr.start.flops,
                mem_reads: self.stats.mem_reads - tr.start.mem_reads,
                mem_writes: self.stats.mem_writes - tr.start.mem_writes,
                dram_bytes: self.dram_bytes() - tr.start_dram_bytes,
                stall_scoreboard: self.stats.stall_scoreboard - tr.start.stall_scoreboard,
                stall_fpu: self.stats.stall_fpu - tr.start.stall_fpu,
                stall_mdu: self.stats.stall_mdu - tr.start.stall_mdu,
                stall_lsu: self.stats.stall_lsu - tr.start.stall_lsu,
            });
        }
        if self.trace.is_some() {
            // Settle every cluster's lazy round-robin arrears so the
            // serial-mode `cluster_rr` bytes (checkpointed, compared
            // across engines) match eager per-cycle advancing exactly.
            let ntcus = self.cfg.tcus_per_cluster;
            for c in 0..self.cluster_rr.len() {
                let lag = (self.pcyc - self.rr_synced[c]) % ntcus as u64;
                if lag > 0 {
                    self.cluster_rr[c] = (self.cluster_rr[c] + lag as usize) % ntcus;
                }
                self.rr_synced[c] = self.pcyc;
            }
        }
        self.mode = Mode::Serial {
            pc: return_pc,
            resume_at: self.cycle + 1,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_isa::reg::{fr, gr, ir};
    use xmt_isa::ProgramBuilder;

    fn tiny_config() -> XmtConfig {
        XmtConfig::xmt_4k().scaled_to(4)
    }

    fn spawn_store_tids(n: u32) -> Program {
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let after = b.label();
        b.li(ir(1), n);
        b.spawn(ir(1), par);
        b.jump(after);
        b.bind(par);
        b.tid(ir(2));
        b.slli(ir(3), ir(2), 1);
        b.sw(ir(3), ir(2), 0);
        b.join();
        b.bind(after);
        b.halt();
        b.build().unwrap()
    }

    /// The sparse active sets (`active_modules` and friends) must stay
    /// sorted, duplicate-free and in lockstep with their membership
    /// flags under arbitrary insert/remove interleavings — `activate`
    /// inserts, and the step loops remove via `retain` with flag
    /// write-back. A `BTreeSet` mirror is the specification.
    #[test]
    fn active_set_survives_insert_remove_churn() {
        const N: usize = 24;
        let mut list: Vec<usize> = Vec::new();
        let mut flags = vec![false; N];
        let mut mirror = std::collections::BTreeSet::new();
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..4000 {
            let idx = (next() % N as u64) as usize;
            if next() % 3 != 0 {
                // Double-activation is the common case in the step
                // loops (a module gets traffic every cycle); it must
                // be idempotent.
                activate(&mut list, &mut flags, idx);
                mirror.insert(idx);
            } else {
                // The step loops drop members mid-iteration exactly
                // like this: retain + flag write-back.
                list.retain(|&x| {
                    let still = x != idx;
                    if !still {
                        flags[x] = false;
                    }
                    still
                });
                mirror.remove(&idx);
            }
            let expect: Vec<usize> = mirror.iter().copied().collect();
            assert_eq!(list, expect, "active list diverged from mirror");
            for (i, &f) in flags.iter().enumerate() {
                assert_eq!(f, mirror.contains(&i), "flag {i} out of sync");
            }
        }
        // Drain to empty and verify reuse from a clean slate.
        list.retain(|&x| {
            flags[x] = false;
            false
        });
        mirror.clear();
        assert!(list.is_empty());
        activate(&mut list, &mut flags, N - 1);
        activate(&mut list, &mut flags, 0);
        activate(&mut list, &mut flags, N - 1);
        assert_eq!(list, [0, N - 1]);
    }

    #[test]
    fn serial_arithmetic_runs() {
        let mut b = ProgramBuilder::new();
        b.li(ir(1), 6).li(ir(2), 7).mul(ir(3), ir(1), ir(2));
        b.li(ir(4), 10).sw(ir(3), ir(4), 0).halt();
        let mut m = MachineBuilder::new(&tiny_config(), b.build().unwrap())
            .mem_words(64)
            .build();
        let s = m.run().unwrap();
        assert_eq!(m.mem[10], 42);
        assert!(s.stats.cycles >= 6);
        // MDU latency must be visible in the cycle count.
        assert!(s.stats.cycles >= MDU_LATENCY);
    }

    #[test]
    fn parallel_section_matches_interpreter() {
        let prog = spawn_store_tids(64);
        let mut m = MachineBuilder::new(&tiny_config(), prog.clone())
            .mem_words(256)
            .build();
        let s = m.run().unwrap();
        for t in 0..64u32 {
            assert_eq!(m.mem[t as usize], t * 2, "tid {t}");
        }
        assert_eq!(s.stats.threads, 64);
        assert_eq!(s.spawns.len(), 1);
        assert_eq!(s.spawns[0].threads, 64);
        assert_eq!(s.spawns[0].mem_writes, 64);

        // The untimed interpreter agrees bit-for-bit.
        let mut i = xmt_isa::Interp::new(256);
        i.run(&prog).unwrap();
        assert_eq!(&i.mem[..128], &m.mem[..128]);
    }

    #[test]
    fn loads_roundtrip_through_noc() {
        // Threads copy mem[tid] -> mem[tid + 64].
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let after = b.label();
        b.li(ir(1), 32);
        b.spawn(ir(1), par);
        b.jump(after);
        b.bind(par);
        b.tid(ir(2));
        b.lw(ir(3), ir(2), 0);
        b.sw(ir(3), ir(2), 64);
        b.join();
        b.bind(after);
        b.halt();
        let mut m = MachineBuilder::new(&tiny_config(), b.build().unwrap())
            .mem_words(256)
            .build();
        for t in 0..32u32 {
            m.mem[t as usize] = 1000 + t;
        }
        let s = m.run().unwrap();
        for t in 0..32usize {
            assert_eq!(m.mem[t + 64], 1000 + t as u32);
        }
        assert_eq!(s.spawns[0].mem_reads, 32);
        assert_eq!(s.spawns[0].mem_writes, 32);
        // A NoC round trip plus memory access takes real time.
        assert!(s.spawns[0].cycles > 10);
    }

    #[test]
    fn fp_math_through_machine() {
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let after = b.label();
        b.li(ir(1), 8);
        b.spawn(ir(1), par);
        b.jump(after);
        b.bind(par);
        b.tid(ir(2));
        b.flw(fr(0), ir(2), 0);
        b.fmul(fr(1), fr(0), fr(0));
        b.fsw(fr(1), ir(2), 16);
        b.join();
        b.bind(after);
        b.halt();
        let mut m = MachineBuilder::new(&tiny_config(), b.build().unwrap())
            .mem_words(64)
            .build();
        let inputs: Vec<f32> = (0..8).map(|i| i as f32 + 0.5).collect();
        m.write_f32s(0, &inputs);
        let s = m.run().unwrap();
        let out = m.read_f32s(16, 8);
        for (i, (&x, &y)) in inputs.iter().zip(&out).enumerate() {
            assert_eq!(y, x * x, "lane {i}");
        }
        assert_eq!(s.spawns[0].flops, 8);
    }

    #[test]
    fn ps_allocates_unique_tickets() {
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let after = b.label();
        b.li(ir(1), 16);
        b.spawn(ir(1), par);
        b.jump(after);
        b.bind(par);
        b.li(ir(2), 1);
        b.ps(ir(3), ir(2), gr(1));
        b.tid(ir(4));
        b.sw(ir(3), ir(4), 0);
        b.join();
        b.bind(after);
        b.halt();
        let mut m = MachineBuilder::new(&tiny_config(), b.build().unwrap())
            .mem_words(64)
            .build();
        m.run().unwrap();
        let mut tickets: Vec<u32> = m.mem[..16].to_vec();
        tickets.sort_unstable();
        assert_eq!(tickets, (0..16).collect::<Vec<u32>>());
    }

    #[test]
    fn more_threads_than_tcus_reuses_tcus() {
        let cfg = tiny_config();
        let total_tcus = cfg.tcus as u32;
        let prog = spawn_store_tids(total_tcus * 4);
        let mut m = MachineBuilder::new(&cfg, prog)
            .mem_words((total_tcus * 8) as usize)
            .build();
        let s = m.run().unwrap();
        assert_eq!(s.stats.threads as u32, total_tcus * 4);
        for t in 0..(total_tcus * 4) {
            assert_eq!(m.mem[t as usize], t * 2);
        }
    }

    #[test]
    fn cycle_limit_catches_runaway() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.jump(top);
        let mut m = MachineBuilder::new(&tiny_config(), b.build().unwrap())
            .mem_words(16)
            .build();
        m.max_cycles = 10_000;
        assert!(matches!(
            m.run().status,
            RunStatus::Failed(SimError::CycleLimit { .. })
        ));
    }

    #[test]
    fn nested_spawn_is_error() {
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
        let mut m = MachineBuilder::new(&tiny_config(), b.build().unwrap())
            .mem_words(16)
            .build();
        assert!(matches!(
            m.run().status,
            RunStatus::Failed(SimError::BadInstruction { .. })
        ));
    }

    #[test]
    fn out_of_bounds_reported() {
        let mut b = ProgramBuilder::new();
        b.li(ir(1), 9999).lw(ir(2), ir(1), 0).halt();
        let mut m = MachineBuilder::new(&tiny_config(), b.build().unwrap())
            .mem_words(16)
            .build();
        assert!(matches!(
            m.run().status,
            RunStatus::Failed(SimError::MemOutOfBounds { .. })
        ));
    }

    #[test]
    fn spawn_barrier_drains_memory() {
        // After the spawn returns, all stores must be visible without
        // any further simulation.
        let prog = spawn_store_tids(128);
        let mut m = MachineBuilder::new(&tiny_config(), prog)
            .mem_words(512)
            .build();
        m.run().unwrap();
        assert!(m.txns.is_empty());
        for t in 0..128u32 {
            assert_eq!(m.mem[t as usize], t * 2);
        }
    }

    #[test]
    fn sspawn_extends_parallel_section() {
        // 4 initial threads; thread 0 sspawns 4 more; all 8 write
        // their tid, and the barrier waits for the late arrivals.
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let after = b.label();
        let work = b.label();
        b.li(ir(1), 4);
        b.spawn(ir(1), par);
        b.jump(after);
        b.bind(par);
        b.tid(ir(2));
        b.bne(ir(2), ir(0), work); // only tid 0 extends
        b.li(ir(3), 4);
        b.sspawn(ir(4), ir(3));
        b.bind(work);
        b.sw(ir(2), ir(2), 0);
        b.join();
        b.bind(after);
        b.halt();
        let prog = b.build().unwrap();

        let mut m = MachineBuilder::new(&tiny_config(), prog.clone())
            .mem_words(64)
            .build();
        let s = m.run().unwrap();
        assert_eq!(s.stats.threads, 8, "4 original + 4 sspawned");
        for t in 0..8u32 {
            assert_eq!(m.mem[t as usize], t, "tid {t} must have run");
        }

        // Interpreter agrees.
        let mut i = xmt_isa::Interp::new(64);
        i.run(&prog).unwrap();
        assert_eq!(&i.mem[..8], &m.mem[..8]);
    }

    #[test]
    fn sspawn_in_serial_is_error() {
        let mut b = ProgramBuilder::new();
        b.li(ir(1), 2).sspawn(ir(2), ir(1)).halt();
        let mut m = MachineBuilder::new(&tiny_config(), b.build().unwrap())
            .mem_words(16)
            .build();
        assert!(matches!(
            m.run().status,
            RunStatus::Failed(SimError::BadInstruction { .. })
        ));
    }

    #[test]
    fn utilization_report_is_balanced_for_uniform_work() {
        let prog = spawn_store_tids(512);
        let mut m = MachineBuilder::new(&tiny_config(), prog)
            .mem_words(2048)
            .build();
        let u = m.run().unwrap().utilization;
        assert_eq!(u.cluster_instr.len(), 4);
        assert!(
            u.cluster_instr.iter().all(|&c| c > 0),
            "every cluster worked"
        );
        assert!(
            u.cluster_imbalance() < 1.5,
            "PS-based scheduling must balance: {}",
            u.cluster_imbalance()
        );
        assert!(
            u.module_imbalance() < 3.0,
            "hashing must spread modules: {}",
            u.module_imbalance()
        );
        for hr in &u.module_hit_rate {
            assert!((0.0..=1.0).contains(hr));
        }
        for cb in &u.channel_busy {
            assert!((0.0..=1.0).contains(cb));
        }
        assert!(u.fpu_utilization >= 0.0 && u.fpu_utilization <= 1.0);
    }

    #[test]
    fn two_spawns_two_stat_entries() {
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let after1 = b.label();
        let after2 = b.label();
        b.li(ir(1), 8);
        b.spawn(ir(1), par);
        b.jump(after1);
        b.bind(par);
        b.tid(ir(2));
        b.sw(ir(2), ir(2), 0);
        b.join();
        b.bind(after1);
        b.li(ir(1), 16);
        b.spawn(ir(1), par);
        b.jump(after2);
        b.bind(after2);
        b.halt();
        let mut m = MachineBuilder::new(&tiny_config(), b.build().unwrap())
            .mem_words(64)
            .build();
        let s = m.run().unwrap();
        assert_eq!(s.spawns.len(), 2);
        assert_eq!(s.spawns[0].threads, 8);
        assert_eq!(s.spawns[1].threads, 16);
        assert_eq!(s.stats.spawns, 2);
    }

    /// A benign fault plan must not perturb the machine at all: same
    /// cycles, stats and memory as a build with no plan.
    #[test]
    fn benign_fault_plan_is_bit_identical() {
        let prog = spawn_store_tids(64);
        let mut base = MachineBuilder::new(&tiny_config(), prog.clone())
            .mem_words(256)
            .build();
        let sb = base.run().unwrap();
        let mut planned = MachineBuilder::new(&tiny_config(), prog)
            .mem_words(256)
            .faults(FaultPlan::new(0xDEAD_BEEF))
            .build();
        let sp = planned.run().unwrap();
        assert_eq!(sb.stats, sp.stats);
        assert_eq!(base.mem, planned.mem);
    }

    /// A stuck TCU holds the spawn barrier open forever; the watchdog
    /// must convert that hang into `Stalled` — on the same cycle for
    /// every engine — and the partial report must still be delivered.
    #[test]
    fn stuck_tcu_trips_watchdog_in_every_engine() {
        let mut stall_cycles = Vec::new();
        for engine in [
            Engine::Reference,
            Engine::FastForward,
            Engine::Threaded { threads: 2 },
        ] {
            let mut m = MachineBuilder::new(&tiny_config(), spawn_store_tids(64))
                .mem_words(256)
                .faults(FaultPlan::new(1).stuck_tcu(1, 3))
                .watchdog(5_000)
                .build();
            m.engine = engine;
            let outcome = m.run();
            match outcome.status {
                RunStatus::Failed(SimError::Stalled { at_cycle, .. }) => {
                    stall_cycles.push(at_cycle);
                    // Everyone but the stuck TCU's thread retired work.
                    assert!(outcome.report.stats.instructions > 0);
                    assert_eq!(outcome.report.stats.threads, 64);
                }
                other => panic!("expected Stalled, got {other:?}"),
            }
        }
        assert_eq!(stall_cycles[0], stall_cycles[1]);
        assert_eq!(stall_cycles[0], stall_cycles[2]);
    }

    /// Disabled TCUs and clusters shed capacity, not correctness:
    /// threads remap onto the survivors and the results are exact.
    #[test]
    fn degraded_tcus_still_compute_correctly() {
        for engine in [
            Engine::Reference,
            Engine::FastForward,
            Engine::Threaded { threads: 2 },
        ] {
            let mut healthy = MachineBuilder::new(&tiny_config(), spawn_store_tids(64))
                .mem_words(256)
                .build();
            healthy.engine = engine;
            let sh = healthy.run().unwrap();
            let mut degraded = MachineBuilder::new(&tiny_config(), spawn_store_tids(64))
                .mem_words(256)
                .faults(FaultPlan::new(1).dead_cluster(2).dead_tcu(0, 1))
                .build();
            degraded.engine = engine;
            let sd = degraded.run().unwrap();
            assert_eq!(healthy.mem, degraded.mem, "engine {engine:?}");
            assert_eq!(sd.stats.threads, 64);
            // A quarter of the machine is gone; it cannot be faster.
            assert!(sd.stats.cycles >= sh.stats.cycles);
        }
    }

    /// Dead DRAM channels remap the address hash around the offline
    /// module group; memory results stay exact.
    #[test]
    fn degraded_channel_routes_around() {
        let cfg = XmtConfig::xmt_4k().scaled_to(16);
        assert!(cfg.dram_channels() >= 2, "need two channels to kill one");
        let mut m = MachineBuilder::new(&cfg, spawn_store_tids(64))
            .mem_words(256)
            .degraded(&[], &[1])
            .build();
        m.run().unwrap();
        for t in 0..64u32 {
            assert_eq!(m.mem[t as usize], t * 2, "tid {t}");
        }
    }

    /// Impossible fault plans are rejected up front, not at cycle N.
    #[test]
    fn invalid_fault_plans_are_rejected() {
        let cfg = tiny_config();
        let prog = spawn_store_tids(4);
        let bad = [
            FaultPlan::new(0).dead_cluster(99),
            FaultPlan::new(0).dead_tcu(0, 99),
            FaultPlan::new(0).stuck_tcu(99, 0),
            FaultPlan::new(0).dead_channel(99),
            FaultPlan::new(0)
                .dead_cluster(0)
                .dead_cluster(1)
                .dead_cluster(2)
                .dead_cluster(3),
            FaultPlan::new(0).dram_flips(1.5, 0.0),
            FaultPlan::new(0).noc_corrupt(-0.1),
        ];
        for plan in bad {
            let r = MachineBuilder::new(&cfg, prog.clone())
                .mem_words(64)
                .faults(plan.clone())
                .try_build();
            assert!(
                matches!(r, Err(SimError::InvalidConfig { .. })),
                "plan {plan:?} should be rejected"
            );
        }
    }

    /// Seeded DRAM flips and NoC corruption replay bit-identically and
    /// still produce functionally exact results (ECC corrects, the
    /// link layer retries).
    #[test]
    fn injected_soft_faults_replay_bit_identically() {
        let plan = FaultPlan::new(0xFEED)
            .dram_flips(0.05, 0.01)
            .noc_corrupt(0.02);
        let mut reports = Vec::new();
        for engine in [
            Engine::Reference,
            Engine::FastForward,
            Engine::Threaded { threads: 2 },
        ] {
            let mut m = MachineBuilder::new(&tiny_config(), spawn_store_tids(64))
                .mem_words(256)
                .faults(plan.clone())
                .build();
            m.engine = engine;
            let s = m.run().unwrap();
            for t in 0..64u32 {
                assert_eq!(m.mem[t as usize], t * 2, "tid {t} under {engine:?}");
            }
            reports.push(s.stats);
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
    }

    /// Two back-to-back spawns of `n` tid-stores, with `pad` serial
    /// instructions between them (shifts the second section's clock
    /// parity).
    fn two_spawns(n: u32, pad: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let mid = b.label();
        let after = b.label();
        b.li(ir(1), n);
        b.spawn(ir(1), par);
        b.jump(mid);
        b.bind(par);
        b.tid(ir(2));
        b.slli(ir(3), ir(2), 1);
        b.sw(ir(3), ir(2), 0);
        b.join();
        b.bind(mid);
        for _ in 0..pad {
            b.li(ir(4), 7);
        }
        b.spawn(ir(1), par);
        b.jump(after);
        b.bind(after);
        b.halt();
        b.build().unwrap()
    }

    /// Pause at a quiescent point, checkpoint, restore into a fresh
    /// machine, finish: final cycle count, stats and memory must match
    /// an uninterrupted run exactly — and so must simply running the
    /// paused machine onward. The hybrid (butterfly) configurations
    /// arbitrate by memory-clock parity, so they are paused between
    /// two contended sections at both parities.
    #[test]
    fn checkpoint_restore_matches_uninterrupted_run() {
        let hybrid = XmtConfig::xmt_64k().scaled_to(8);
        assert!(hybrid.butterfly_levels > 0);
        let cases = [
            (tiny_config(), spawn_store_tids(64), 40),
            (hybrid, two_spawns(256, 0), 30),
            (hybrid, two_spawns(256, 1), 30),
        ];
        let mut odd_mem_clocks = 0;
        for (cfg, prog, pause) in cases {
            let build = || MachineBuilder::new(&cfg, prog.clone()).mem_words(1024);
            let mut straight = build().build();
            let ss = straight.run().unwrap();

            let mut first = build().build();
            let paused = first.run_until(pause);
            let at = match paused.status {
                RunStatus::Paused { at_cycle } => at_cycle,
                other => panic!("expected a pause, got {other:?}"),
            };
            let cp = first.checkpoint().unwrap();
            assert_eq!(cp.cycle(), at);
            odd_mem_clocks += cp.mem_clock & 1;
            let bytes = cp.to_bytes();
            let cp2 = Checkpoint::from_bytes(&bytes).unwrap();

            let mut resumed = build().resume(&cp2).unwrap();
            let sr = resumed.run().unwrap();
            assert_eq!(ss.stats, sr.stats);
            assert_eq!(ss.spawns, sr.spawns);
            assert_eq!(straight.mem, resumed.mem);

            let onward = first.run().unwrap();
            assert_eq!(ss.stats, onward.stats);
            assert_eq!(straight.mem, first.mem);
        }
        assert!(odd_mem_clocks > 0, "no case paused at an odd memory clock");
    }

    /// A pause that lands on a multi-cycle serial instruction jumps the
    /// clock to the eve of the MTCU's resume cycle; the memory side
    /// must jump with it, or a hybrid NoC continues (or checkpoints)
    /// with its arbitration parity out of step.
    #[test]
    fn pause_normalization_moves_the_memory_clock_too() {
        let cfg = XmtConfig::xmt_64k().scaled_to(8);
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let mid = b.label();
        let after = b.label();
        b.li(ir(1), 256);
        b.spawn(ir(1), par);
        b.jump(mid);
        b.bind(par);
        b.tid(ir(2));
        b.slli(ir(3), ir(2), 1);
        b.sw(ir(3), ir(2), 0);
        b.join();
        b.bind(mid);
        b.mul(ir(4), ir(1), ir(1)); // 8-cycle MDU op: a 7-cycle jump
        b.spawn(ir(1), par);
        b.jump(after);
        b.bind(after);
        b.halt();
        let prog = b.build().unwrap();
        let build = || MachineBuilder::new(&cfg, prog.clone()).mem_words(1024);
        let mut straight = build().build();
        let ss = straight.run().unwrap();

        // The first section's end, then a pause aimed at the `mul`.
        let section_end = build().build().run_until(10).at_cycle();
        let mut m = build().build();
        let at = m.run_until(section_end + 2).at_cycle();
        assert_eq!(at, section_end + 2 + MDU_LATENCY - 1, "pause did not jump");
        let cp = m.checkpoint().unwrap();
        let mut resumed = build().resume(&cp).unwrap();
        assert_eq!(resumed.run().unwrap().stats, ss.stats);
        assert_eq!(m.run().unwrap().stats, ss.stats);
        assert_eq!(m.mem, straight.mem);
    }

    /// A checkpoint taken mid-flight must be refused, and a checkpoint
    /// from a different geometry must not restore.
    #[test]
    fn checkpoint_guards_protocol_and_geometry() {
        let prog = spawn_store_tids(64);
        let mut m = MachineBuilder::new(&tiny_config(), prog.clone())
            .mem_words(256)
            .build();
        // Step into the parallel section: work is in flight.
        while !matches!(m.mode, Mode::Parallel { .. }) {
            m.step().unwrap();
        }
        assert!(matches!(m.checkpoint(), Err(SimError::Protocol { .. })));
        // Finish cleanly, checkpoint, then try to restore into a
        // machine with different geometry.
        while !matches!(m.mode, Mode::Finished) {
            m.step().unwrap();
        }
        let mut m2 = MachineBuilder::new(&tiny_config(), prog.clone())
            .mem_words(256)
            .build();
        let st = m2.run_until(10);
        assert!(matches!(st.status, RunStatus::Paused { .. }));
        let cp = m2.checkpoint().unwrap();
        let r = MachineBuilder::new(&XmtConfig::xmt_4k().scaled_to(8), prog)
            .mem_words(256)
            .resume(&cp);
        assert!(matches!(r, Err(SimError::InvalidConfig { .. })));
    }

    /// `run_until` with a pause point past the program's end completes
    /// the run and reports `Completed` with the same results as `run`.
    #[test]
    fn run_until_past_end_is_done() {
        let prog = spawn_store_tids(16);
        let mut a = MachineBuilder::new(&tiny_config(), prog.clone())
            .mem_words(64)
            .build();
        let sa = a.run().unwrap();
        let mut b = MachineBuilder::new(&tiny_config(), prog)
            .mem_words(64)
            .build();
        let ob = b.run_until(u64::MAX);
        assert!(
            ob.is_completed(),
            "spurious pause/failure at {}",
            ob.at_cycle()
        );
        assert_eq!(sa.stats, ob.report.stats);
    }
}
