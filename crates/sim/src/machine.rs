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
use crate::probe::{BlockedTcus, HostLayer, NoProbe, Probe, SampleCtx};
use crate::simcfg::SimConfig;
use crate::tier::{TraceCache, TraceStats, TranslationTier};
use crate::txn::{Reply, Request, TxnKind, Txns};
use std::collections::VecDeque;
use xmt_isa::block::MicroOp;
use xmt_isa::decoded::DecodedProgram;
use xmt_isa::instr::{eval_branch, Instr, Unit};
use xmt_isa::interp::exec_compute;
use xmt_isa::reg::{fr, ir, RegFile, Regs, NUM_GREGS};
use xmt_isa::Program;
use xmt_mem::{AddressHash, ChannelRequest, DramChannel, DramReq, MemReq, MemResp, MemoryModules};
use xmt_noc::{Delivered, FaultyNetwork, Flit, Network, Topology};

#[path = "builder.rs"]
mod builder;
#[path = "ff.rs"]
mod ff;
#[path = "issue.rs"]
mod issue;
#[path = "memsys.rs"]
mod memsys;
#[path = "outcome.rs"]
mod outcome;

use ff::Parked;
use memsys::ActiveSet;
pub use outcome::{
    MachineStats, RunOutcome, RunReport, RunStatus, SimError, SpawnStats, UtilizationReport,
};

pub use issue::RegLayout;
use issue::{
    addr_of, ones, ClusterMasks, ClusterTcus, IssueClass, IssueEnv, IssueSink, TcuRegs,
    FPU_LATENCY, MDU_LATENCY,
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
/// [`IssueSink`] of both engines (reference and fast-forward):
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
    txns: &'a mut Txns,
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
    fn inject(&mut self, request: Request, value: u32, module: usize) -> bool {
        self.txns
            .inject(self.req_net, self.c, module, request, value)
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

    #[inline(always)]
    fn global_op(&mut self, ins: &Instr, rf: &mut TcuRegs<'_>) {
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

struct SpawnTracker {
    index: usize,
    start_cycle: u64,
    start: MachineStats,
    start_dram_bytes: u64,
    threads_at_start: u64,
}

/// Which advance loop [`Machine::run`] uses. Both loops produce
/// bit-identical [`RunReport`] / memory / register state — the golden
/// cycle tests pin this; they only differ in wall-clock speed.
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
    /// Runs exactly as [`Engine::FastForward`]; `threads` is ignored.
    /// Kept as a name because the request wire format carries its tag
    /// and thread count, so requests and journals that select it still
    /// decode and replay.
    Threaded {
        /// Ignored (the wire format still bounds it to `1..=512`).
        threads: usize,
    },
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
    /// Parallel-section thread allocation (the PS unit's counter).
    next_tid: u32,
    spawn_count: u32,
    spawn_entry: usize,
    /// Per cluster, its TCUs' issue records and (once it has taken a
    /// thread) their register store.
    clusters: Vec<ClusterTcus>,
    /// Round-robin position of the shared-port arbiters: the TCU each
    /// cluster visits first this parallel cycle. One counter for the
    /// machine — every cluster's arbiter ticks on the one core clock —
    /// advanced once per parallel cycle, stepped or skipped.
    rr: usize,
    /// Instructions issued per cluster (load-balance observability).
    cluster_instr: Vec<u64>,
    req_net: Box<dyn Network>,
    reply_net: Box<dyn Network>,
    modules: MemoryModules,
    channels: Vec<DramChannel>,
    module_outbox: Vec<VecDeque<u64>>,
    hash: AddressHash,
    /// Memory transactions in flight: their count, and the values of
    /// stores on their way to their home module. Each transaction
    /// travels as its own tag (see [`crate::txn`]).
    txns: Txns,
    /// Runaway/deadlock cycle limit ([`SimError::CycleLimit`]).
    max_cycles: u64,
    /// Watchdog no-progress horizon: if no instruction retires and no
    /// thread starts for this many cycles, the run fails with
    /// [`SimError::Stalled`] instead of burning the whole cycle budget.
    watchdog: u64,
    /// Cycle on which the progress fingerprint last advanced.
    progress_cycle: u64,
    /// Progress fingerprint (instructions retired + threads started).
    progress_mark: u64,
    /// Accumulated statistics. `stats.cycles` is the machine clock.
    pub stats: MachineStats,
    spawn_log: Vec<SpawnStats>,
    tracker: Option<SpawnTracker>,
    /// Advance-loop selection for [`Machine::run`].
    engine: Engine,
    /// Predecoded instruction stream: unit, hazard masks and flop flag
    /// resolved once at construction so the issue loop does one
    /// contiguous fetch per TCU instead of a program fetch plus a
    /// hazard-table lookup plus per-instruction re-derivation.
    decoded: DecodedProgram,
    /// Completed memory-system steps. Trails `cycle` by the summed
    /// spawn-broadcast cycles (which advance the machine clock without
    /// stepping components); `cycle - mem_clock` converts component
    /// clocks to machine clocks.
    mem_clock: u64,
    /// Modules with work (`Module::is_active`); only these step
    /// each cycle.
    active_modules: ActiveSet,
    /// Channels with transfers pending.
    active_channels: ActiveSet,
    /// Non-empty module outboxes.
    active_outboxes: ActiveSet,
    /// Per-cluster TCU flags and bitmask mirrors of TCU hot state (see
    /// [`ClusterMasks`]), so the issue loops can skip or bulk-process
    /// TCUs without touching their cache lines.
    masks: Vec<ClusterMasks>,
    /// Reusable per-cycle scratch: matured replies awaiting write-back.
    scratch_replies: Vec<Reply>,
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
    /// Fast-forward worklist of clusters with any active TCU, maintained
    /// by `step_clusters` so fully idle clusters (proven quiescent: no
    /// busy TCUs, empty wake wheel) are never visited or skip-woken.
    /// Empty outside parallel sections.
    par_active: ActiveSet,
    /// Clusters fast-forward has taken off the worklist although they
    /// have active TCUs, because none of those can issue (see
    /// [`Parked`]); un-parking puts a cluster back.
    parked: Parked,
}

/// A [`Machine`] on its way to being built: the [`SimConfig`] that
/// says what to build, the program, and the initial memory image. It
/// is made only by [`SimConfig::builder`]; every knob (engine, tier,
/// faults, watchdog, cycle limit) is set on the `SimConfig`, and the
/// builder only loads memory.
///
/// ```
/// # use xmt_sim::{Engine, SimConfig, XmtConfig};
/// # use xmt_isa::ProgramBuilder;
/// # let mut b = ProgramBuilder::new();
/// # b.halt();
/// # let prog = b.build().unwrap();
/// let mut m = SimConfig::new(&XmtConfig::xmt_4k().scaled_to(4))
///     .engine(Engine::FastForward)
///     .mem_words(1024)
///     .builder(prog)
///     .write_f32s(16, &[1.0, 2.0])
///     .build();
/// m.run().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    pub(crate) sim: SimConfig,
    pub(crate) prog: Program,
    pub(crate) mem: Vec<u32>,
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

    /// The attached probe (e.g. to pull [`crate::IntervalProbe::rows`]
    /// after a run).
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Snapshot of the global registers (useful after a run).
    pub fn gregs_snapshot(&self) -> [u32; NUM_GREGS] {
        self.gregs
    }

    /// Utilization snapshot: per-cluster issue counts, per-module
    /// cache behaviour and DRAM-channel occupancy. Folded into the
    /// [`RunReport`] so callers no longer query the machine post-run.
    fn utilization(&self) -> UtilizationReport {
        let cycles = self.stats.cycles;
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
                if cycles == 0 {
                    0.0
                } else {
                    ch.stats.busy_cycles as f64 / cycles as f64
                }
            })
            .collect();
        let fpu_util = if cycles == 0 {
            0.0
        } else {
            self.stats.flops as f64
                / (cycles as f64 * (self.cfg.clusters * self.cfg.fpus_per_cluster) as f64)
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
    /// [`RunStatus::Completed`] (the spawn log is moved into it),
    /// partial up to the failure cycle on [`RunStatus::Failed`].
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

    /// Host-time ledger hook (see [`HostLayer`]); compiled out unless
    /// the probe asks for host timing.
    #[inline(always)]
    fn lap(&mut self, layer: Option<HostLayer>) {
        if P::HOST_TIMING {
            self.probe.host_lap(layer);
        }
    }

    fn run_inner(&mut self) -> Result<RunReport, SimError> {
        self.lap(None);
        match self.engine {
            // The baseline: one `step` per simulated cycle.
            Engine::Reference => {
                while !matches!(self.mode, Mode::Finished) {
                    self.step()?;
                    self.check_progress()?;
                }
                Ok(self.report())
            }
            Engine::FastForward | Engine::Threaded { .. } => {
                self.run_until_inner(u64::MAX).map(|_| self.report())
            }
        }
    }

    /// Cycle-budget and watchdog check, run at every step boundary in
    /// every engine. The progress fingerprint is instructions retired
    /// plus threads started: any cycle that advances neither for a
    /// whole watchdog horizon is a hang (legitimate quiet stretches are
    /// bounded by DRAM latency), reported as [`SimError::Stalled`] at
    /// exactly `progress_cycle + watchdog` — the fast-forward engine
    /// caps its skip horizons there so both engines fail on the
    /// identical cycle.
    fn check_progress(&mut self) -> Result<(), SimError> {
        if self.stats.cycles > self.max_cycles {
            return Err(SimError::CycleLimit {
                at_cycle: self.stats.cycles,
            });
        }
        let mark = self.stats.instructions + self.stats.threads;
        if mark != self.progress_mark {
            self.progress_mark = mark;
            self.progress_cycle = self.stats.cycles;
        } else if self.stats.cycles >= self.progress_cycle.saturating_add(self.watchdog) {
            return Err(SimError::Stalled {
                at_cycle: self.stats.cycles,
                last_retired: self.stats.instructions,
            });
        }
        Ok(())
    }

    /// How far a bulk skip may jump: one past the cycle on which the
    /// watchdog or the cycle limit would fire, so a totally event-free
    /// machine trips either check exactly where the reference engine
    /// does (a stuck TCU never issues, which a quiet scan would skip
    /// past). Saturating: a decoded request may carry `u64::MAX` for
    /// either limit.
    pub(super) fn skip_horizon(&self) -> u64 {
        let watchdog = self.progress_cycle.saturating_add(self.watchdog);
        watchdog.min(self.max_cycles).saturating_add(1)
    }

    /// One fast-forward iteration. Two optimizations over the
    /// reference loop, both invisible in the stats: the cycle that
    /// steps uses mask-driven bulk issue ([`Machine::step_with`]), and
    /// if it issued no instruction and activated no thread the clock
    /// then jumps directly to the next cycle on which anything can
    /// happen.
    fn ff_advance(&mut self) -> Result<(), SimError> {
        let instr_before = self.stats.instructions;
        let threads_before = self.stats.threads;
        self.step_with(true)?;
        self.check_progress()?;
        if instr_before == self.stats.instructions && threads_before == self.stats.threads {
            self.fast_forward();
            self.check_progress()?;
        }
        self.lap(Some(HostLayer::FastForward));
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
        self.lap(None);
        while !matches!(self.mode, Mode::Finished) {
            if self.stats.cycles >= pause_at && self.quiescent() {
                self.normalize_pause();
                return Ok(Some(self.stats.cycles));
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
            && self.txns.in_flight == 0
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
            let c = self.stats.cycles.max(resume_at.saturating_sub(1));
            self.skip_memory(c - self.stats.cycles);
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
                at_cycle: self.stats.cycles,
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
            cycle: self.stats.cycles,
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
            cluster_rr: vec![self.rr as u32; self.cfg.clusters],
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
    /// a checkpoint takes to cross a thread, file or socket, or to be
    /// resumed into a fresh machine (`xmt_bench::matrix`'s sliced
    /// cells do exactly that). Same quiescence requirement.
    pub fn checkpoint_bytes(&mut self) -> Result<Vec<u8>, SimError> {
        Ok(self.checkpoint()?.to_bytes())
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
        if P::ENABLED && self.stats.cycles > self.last_sample {
            self.emit_sample(self.stats.cycles);
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
        while self.stats.cycles >= self.next_sample {
            let boundary = self.next_sample;
            self.next_sample = boundary.saturating_add(self.probe.interval().max(1));
            self.emit_sample(boundary);
        }
    }

    /// Build a [`SampleCtx`] from the live component state and hand it
    /// to the probe. Split borrows keep this allocation-free.
    fn emit_sample(&mut self, boundary: u64) {
        let Machine {
            probe,
            stats,
            tracker,
            req_net,
            reply_net,
            txns,
            channels,
            modules,
            masks,
            parked,
            last_sample,
            ..
        } = self;
        // The sample reads every cluster's `busy` mask as the cycle
        // just stepped left it.
        parked.settle(masks, stats.cycles + 1);
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
            cycle: stats.cycles,
            spawn: tracker.as_ref().map(|t| t.index as u64),
            stats,
            req_net: req_net.stats(),
            reply_net: reply_net.stats(),
            noc_in_flight: (req_net.in_flight() + reply_net.in_flight()) as u64,
            txns_in_flight: txns.in_flight as u64,
            blocked,
            channels,
            modules,
        };
        probe.record(&ctx);
        *last_sample = stats.cycles;
    }

    /// Advance the machine one cycle with the reference issue loop:
    /// every cluster steps, every ready TCU is visited in turn.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.step_with(false)
    }

    /// One machine cycle. `fast` selects the fast-forward engine's
    /// parallel-mode stepping — bulk issue off the cluster masks
    /// wherever the visit order is unobservable, over only the clusters
    /// that can do something; the reference engine (`fast == false`)
    /// walks every TCU of every cluster.
    fn step_with(&mut self, fast: bool) -> Result<(), SimError> {
        let r = self.step_inner(fast);
        r.map_err(|e| e.stamped(self.stats.cycles))
    }

    fn step_inner(&mut self, fast: bool) -> Result<(), SimError> {
        self.stats.cycles += 1;
        match self.mode {
            Mode::Serial { pc, resume_at } => {
                if self.stats.cycles >= resume_at {
                    self.step_serial(pc)?;
                }
                self.lap(Some(HostLayer::SerialStep));
                // Serial mode still drains the memory system (posted
                // writes from the previous section are already done by
                // the barrier, but channels may be finishing refills).
                self.step_memory_system();
            }
            Mode::Parallel { return_pc } => {
                self.step_clusters(fast)?;
                self.advance_rr(1);
                self.lap(Some(HostLayer::ClusterIssue));
                self.step_memory_system();
                self.maybe_finish_spawn(return_pc);
            }
            Mode::Finished => {}
        }
        self.poll_probe();
        Ok(())
    }

    /// `n` parallel cycles went by, stepped or skipped: the arbiters
    /// moved on by one TCU per cycle.
    fn advance_rr(&mut self, n: u64) {
        let ntcus = self.cfg.tcus_per_cluster as u64;
        self.rr = ((self.rr as u64 + n % ntcus) % ntcus) as usize;
    }

    /// The cluster half of a parallel cycle: the issue kernel
    /// ([`issue::step_cluster`]) over this machine's clusters in
    /// ascending order, with every globally ordered effect applied on
    /// the spot by [`Direct`]. While thread IDs remain any cluster may
    /// activate an idle TCU, so every cluster steps — also within a
    /// cycle, from the cluster on whose `sspawn` minted new IDs
    /// (clusters before it already had their visit). Otherwise, with
    /// `fast`, only the `par_active` worklist steps: a cluster off it
    /// has no thread running — its last one joined with posted stores
    /// drained, and an empty active mask implies an empty wake wheel —
    /// so its visit is a guaranteed no-op. Membership follows the
    /// active mask of every cluster that steps.
    ///
    /// With `fast`, [`Parked`] clusters are off the worklist and sit the
    /// cycle out whether or not IDs remain: the cycle opens by
    /// un-parking those a latency expiry wakes and crediting the rest
    /// their stalls, and a cluster whose step issued nothing parks if
    /// its quiet scan for the next cycle finds nobody able to issue and
    /// no idle TCU that could take a remaining ID.
    fn step_clusters(&mut self, fast: bool) -> Result<(), SimError> {
        let Machine {
            cfg,
            clusters,
            masks,
            par_active,
            parked,
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
            trace,
            probe,
            ..
        } = self;
        let cycle = stats.cycles;
        parked.wake_due(par_active, cycle, masks);
        parked.accrue(stats, 1);
        if !fast {
            // The reference walk visits everyone (fast-forward can have
            // left members behind only by failing mid-section).
            parked.unpark_all(par_active, 0, cycle, masks, stats);
        }
        // Host ledger: clusters stepped, and clusters sitting it out.
        let mut steps = 0;
        let mut sat_out = if P::HOST_TIMING { parked.len() } else { 0 };
        let env = IssueEnv {
            decoded,
            cfg,
            mem_len: mem.len(),
            hash,
            entry: self.spawn_entry,
            cycle,
        };
        let mut sink = Direct {
            c: 0,
            next_tid,
            spawn_count,
            gregs,
            req_net: req_net.as_mut(),
            txns,
            trace: trace.as_deref_mut(),
        };
        let mut tids_remain = sink.tids_remain();
        let mut c = 0;
        while c < clusters.len() {
            if fast {
                match parked.next_stepping(par_active, tids_remain, c) {
                    Some(stepping) => c = stepping,
                    None => break,
                }
            }
            sink.c = c;
            let (tcus, m) = (&mut clusters[c], &mut masks[c]);
            let issued = match issue::step_cluster(tcus, m, self.rr, &env, stats, &mut sink, fast) {
                Ok(issued) => issued,
                Err(e) => {
                    // The clusters after `c` never had this cycle.
                    parked.unpark_all(par_active, c + 1, cycle, masks, stats);
                    return Err(e);
                }
            };
            steps += 1;
            cluster_instr[c] += issued;
            par_active.set(c, m.active != 0);
            let had_tids = std::mem::replace(&mut tids_remain, sink.tids_remain());
            if fast && issued == 0 && m.active != 0 {
                let scan = m.quiet_scan(cycle + 1);
                let activates = tids_remain && m.idle(cfg.tcus_per_cluster) > 0;
                if !(scan.issue_next || activates) {
                    parked.park(par_active, c, cycle + 1, scan);
                }
            }
            if tids_remain && !had_tids {
                // An `sspawn` minted IDs: parked clusters may hold idle
                // TCUs, and those after `c` activate them this cycle.
                let gave_back = parked.unpark_all(par_active, c + 1, cycle, masks, stats);
                if P::HOST_TIMING {
                    sat_out -= gave_back;
                }
            }
            c += 1;
        }
        if P::HOST_TIMING {
            probe.host_work([steps, sat_out, 0]);
        }
        Ok(())
    }

    fn addr_of(&self, pc: usize, base: u32, off: u32) -> Result<usize, SimError> {
        addr_of(pc, base, off, self.mem.len())
    }

    fn step_serial(&mut self, pc: usize) -> Result<(), SimError> {
        if pc >= self.prog.len() {
            return Err(SimError::PcOutOfRange {
                pc,
                at_cycle: self.stats.cycles,
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
                resume_at: self.stats.cycles + lat,
            };
            return Ok(());
        }
        match ins {
            Instr::WriteGr { rs, dst } => {
                self.gregs[dst.index()] = self.mtcu_rf.read_i(rs);
                self.mode = Mode::Serial {
                    pc: pc + 1,
                    resume_at: self.stats.cycles + 1,
                };
            }
            Instr::Lw { rd, base, off } => {
                let a = self.addr_of(pc, self.mtcu_rf.read_i(base), off)?;
                let v = self.mem[a];
                self.mtcu_rf.write_i(rd, v);
                self.stats.mem_reads += 1;
                self.mode = Mode::Serial {
                    pc: pc + 1,
                    resume_at: self.stats.cycles + SERIAL_MEM_LATENCY,
                };
            }
            Instr::Sw { rs, base, off } => {
                let a = self.addr_of(pc, self.mtcu_rf.read_i(base), off)?;
                self.mem[a] = self.mtcu_rf.read_i(rs);
                self.stats.mem_writes += 1;
                self.mode = Mode::Serial {
                    pc: pc + 1,
                    resume_at: self.stats.cycles + SERIAL_MEM_LATENCY,
                };
            }
            Instr::Flw { fd, base, off } => {
                let a = self.addr_of(pc, self.mtcu_rf.read_i(base), off)?;
                let v = f32::from_bits(self.mem[a]);
                self.mtcu_rf.write_f(fd, v);
                self.stats.mem_reads += 1;
                self.mode = Mode::Serial {
                    pc: pc + 1,
                    resume_at: self.stats.cycles + SERIAL_MEM_LATENCY,
                };
            }
            Instr::Fsw { fs, base, off } => {
                let a = self.addr_of(pc, self.mtcu_rf.read_i(base), off)?;
                self.mem[a] = self.mtcu_rf.read_f(fs).to_bits();
                self.stats.mem_writes += 1;
                self.mode = Mode::Serial {
                    pc: pc + 1,
                    resume_at: self.stats.cycles + SERIAL_MEM_LATENCY,
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
                    resume_at: self.stats.cycles + 1,
                };
            }
            Instr::Jump { target } => {
                self.mode = Mode::Serial {
                    pc: target,
                    resume_at: self.stats.cycles + 1,
                };
            }
            Instr::Ps { rd, inc, on } => {
                let old = self.gregs[on.index()];
                self.gregs[on.index()] = old.wrapping_add(self.mtcu_rf.read_i(inc));
                self.mtcu_rf.write_i(rd, old);
                self.mode = Mode::Serial {
                    pc: pc + 1,
                    resume_at: self.stats.cycles + 1,
                };
            }
            Instr::Spawn { count, entry } => {
                let n = self.mtcu_rf.read_i(count);
                self.stats.spawns += 1;
                self.spawn_count = n;
                self.spawn_entry = entry;
                self.next_tid = 0;
                // Broadcast: the parallel section reaches every cluster
                // in log₂(clusters) cycles (Section II-A: "start all
                // TCUs at once in the same time it takes to start one").
                let broadcast = (self.cfg.clusters as f64).log2().ceil() as u64 + 1;
                self.tracker = Some(SpawnTracker {
                    index: self.spawn_log.len(),
                    start_cycle: self.stats.cycles,
                    start: self.stats,
                    start_dram_bytes: self.dram_bytes(),
                    threads_at_start: self.stats.threads,
                });
                self.stats.cycles += broadcast;
                self.mode = Mode::Parallel { return_pc: pc + 1 };
            }
            Instr::Join => {
                return Err(SimError::BadInstruction {
                    pc,
                    what: "join in serial mode",
                    at_cycle: self.stats.cycles,
                })
            }
            Instr::Sspawn { .. } => {
                return Err(SimError::BadInstruction {
                    pc,
                    what: "sspawn in serial mode",
                    at_cycle: self.stats.cycles,
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
                    at_cycle: self.stats.cycles,
                })
            }
        }
        Ok(())
    }

    /// Close the parallel section when all work and memory drained.
    /// "No thread running anywhere" is asked of the worklist and the
    /// parked set, not of every cluster's masks, and that is exact: a
    /// cluster's `active` mask changes only inside its own step
    /// (activation, `join`), `step_clusters` sets its membership from
    /// the mask after every step under either engine, and a
    /// cluster that does not step has the mask it had when it last did —
    /// empty if it is off the list with IDs exhausted, non-empty if it
    /// is parked.
    fn maybe_finish_spawn(&mut self, return_pc: usize) {
        if self.next_tid < self.spawn_count
            || !self.par_active.is_empty()
            || !self.parked.is_empty()
        {
            return;
        }
        debug_assert!(self.masks.iter().all(|m| m.active == 0));
        // The in-flight count covers every request or reply in a NoC,
        // module queue or outbox; the active lists cover modules with
        // queued/maturing work and channels with fills or write-backs
        // in flight. A module waiting only on a DRAM fill is inactive,
        // but its channel stays active until the fill completes and
        // `on_fill` reactivates the module — so empty lists and nothing
        // in flight is exactly a full drain scan.
        if self.txns.in_flight != 0
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
                cycles: self.stats.cycles - tr.start_cycle,
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
        self.mode = Mode::Serial {
            pc: return_pc,
            resume_at: self.stats.cycles + 1,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
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

    /// The active sets (`active_modules` and friends) must visit their
    /// members in ascending order, without duplicates, and keep `len`
    /// right under arbitrary insert/drop interleavings — `insert` adds,
    /// the step loops drop members mid-visit via `retain`, and the
    /// cluster worklist follows a mask with `set` and walks itself with
    /// `next_from`. A `BTreeSet` mirror is the specification.
    #[test]
    fn active_set_survives_insert_remove_churn() {
        const N: usize = 150; // three words, the last one partial
        let mut set = ActiveSet::new(N);
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
                set.insert(idx);
                mirror.insert(idx);
            } else {
                // Drop `idx` and every seventh member, mid-visit.
                let mut visited = Vec::new();
                set.retain(|x| {
                    visited.push(x);
                    x != idx && x % 7 != 0
                });
                let expect: Vec<usize> = mirror.iter().copied().collect();
                assert_eq!(visited, expect, "retain visits every member, ascending");
                mirror.retain(|&x| x != idx && x % 7 != 0);
            }
            // The worklist's own moves: membership set from a
            // predicate, and the next member from a cursor.
            let (other, member) = ((next() % N as u64) as usize, next() % 2 == 0);
            set.set(other, member);
            if member {
                mirror.insert(other);
            } else {
                mirror.remove(&other);
            }
            assert_eq!(set.next_from(idx), mirror.range(idx..).next().copied());
            let expect: Vec<usize> = mirror.iter().copied().collect();
            assert_eq!(set.iter().collect::<Vec<_>>(), expect);
            assert_eq!(set.len(), mirror.len());
            assert_eq!(set.is_empty(), mirror.is_empty());
        }
        // Drain to empty and verify reuse from a clean slate.
        set.retain(|_| false);
        assert!(set.is_empty());
        set.insert(N - 1);
        set.insert(0);
        set.insert(N - 1);
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, N - 1]);
    }

    #[test]
    fn serial_arithmetic_runs() {
        let mut b = ProgramBuilder::new();
        b.li(ir(1), 6).li(ir(2), 7).mul(ir(3), ir(1), ir(2));
        b.li(ir(4), 10).sw(ir(3), ir(4), 0).halt();
        let mut m = SimConfig::new(&tiny_config())
            .builder(b.build().unwrap())
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
        let mut m = SimConfig::new(&tiny_config())
            .builder(prog.clone())
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
        let mut m = SimConfig::new(&tiny_config())
            .builder(b.build().unwrap())
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
        let mut m = SimConfig::new(&tiny_config())
            .builder(b.build().unwrap())
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
        let mut m = SimConfig::new(&tiny_config())
            .builder(b.build().unwrap())
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
        let total_tcus = cfg.tcus() as u32;
        let prog = spawn_store_tids(total_tcus * 4);
        let mut m = SimConfig::new(&cfg)
            .builder(prog)
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
        let mut m = SimConfig::new(&tiny_config())
            .max_cycles(10_000)
            .builder(b.build().unwrap())
            .mem_words(16)
            .build();
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
        let mut m = SimConfig::new(&tiny_config())
            .builder(b.build().unwrap())
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
        let mut m = SimConfig::new(&tiny_config())
            .builder(b.build().unwrap())
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
        let mut m = SimConfig::new(&tiny_config())
            .builder(prog)
            .mem_words(512)
            .build();
        m.run().unwrap();
        assert_eq!(m.txns.in_flight, 0);
        for t in 0..128u32 {
            assert_eq!(m.mem[t as usize], t * 2);
        }
    }

    /// A refused injection takes no store slot. With two LSUs per
    /// cluster the MoT, which takes one flit per source per cycle,
    /// refuses the second LSU winner of every cycle; each thread stores
    /// twelve values, more than a TCU has slots, so slots are reused.
    #[test]
    fn refused_injections_leave_store_slots_untouched() {
        const STORES: u32 = 12;
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let after = b.label();
        b.li(ir(1), 64);
        b.spawn(ir(1), par);
        b.jump(after);
        b.bind(par);
        b.tid(ir(2));
        b.slli(ir(3), ir(2), 4);
        for k in 0..STORES {
            b.addi(ir(4), ir(3), 1000 + k);
            b.sw(ir(4), ir(3), k);
        }
        b.join();
        b.bind(after);
        b.halt();
        let prog = b.build().unwrap();
        let mut interp = xmt_isa::Interp::new(1024);
        interp.run(&prog).unwrap();
        let mut cfg = tiny_config();
        cfg.lsus_per_cluster = 2;
        for engine in [Engine::Reference, Engine::FastForward] {
            let mut m = SimConfig::new(&cfg)
                .engine(engine)
                .builder(prog.clone())
                .mem_words(1024)
                .build();
            let s = m.run().unwrap();
            assert_eq!(s.stats.mem_writes, 64 * u64::from(STORES));
            assert!(m.req_net.stats().inject_rejections > 0, "{engine:?}");
            assert_eq!(m.mem, interp.mem, "{engine:?}");
            assert_eq!(m.txns.in_flight, 0, "{engine:?}");
            assert_eq!(m.txns.taken_slots(), 0, "{engine:?}");
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

        let mut m = SimConfig::new(&tiny_config())
            .builder(prog.clone())
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
        let mut m = SimConfig::new(&tiny_config())
            .builder(b.build().unwrap())
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
        let mut m = SimConfig::new(&tiny_config())
            .builder(prog)
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
        let mut m = SimConfig::new(&tiny_config())
            .builder(b.build().unwrap())
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
        let mut base = SimConfig::new(&tiny_config())
            .builder(prog.clone())
            .mem_words(256)
            .build();
        let sb = base.run().unwrap();
        let mut planned = SimConfig::new(&tiny_config())
            .faults(FaultPlan::new(0xDEAD_BEEF))
            .builder(prog)
            .mem_words(256)
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
        for engine in [Engine::Reference, Engine::FastForward] {
            let mut m = SimConfig::new(&tiny_config())
                .engine(engine)
                .faults(FaultPlan::new(1).stuck_tcu(1, 3))
                .watchdog(5_000)
                .builder(spawn_store_tids(64))
                .mem_words(256)
                .build();
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
    }

    /// A fault in the middle of a cycle leaves fast-forward's partial
    /// report equal to the reference's, parked clusters included: those
    /// before the faulting cluster sat the cycle out, those after it
    /// never had it. 40 threads fill cluster 0 and put 8 in cluster 1,
    /// each running a chain of dependent loads, while thread `faulty` —
    /// in either cluster — reaches a `halt` after `delay` ALU ops; the
    /// delays sweep the fault across parked and stepping neighbours.
    /// (An illegal instruction forces the walk; a bounds fault inside a
    /// bulk cycle has already counted the cycle's scoreboard stalls, at
    /// the parent too.)
    #[test]
    fn mid_cycle_fault_reports_reference_statistics() {
        for (faulty, delay) in [3, 35]
            .into_iter()
            .flat_map(|f| (0..64).map(move |d| (f, d)))
        {
            let mut b = ProgramBuilder::new();
            let par = b.label();
            let after = b.label();
            let blocked = b.label();
            b.li(ir(1), 40);
            b.spawn(ir(1), par);
            b.jump(after);
            b.bind(par);
            b.tid(ir(2));
            b.li(ir(5), faulty);
            b.bne(ir(2), ir(5), blocked);
            for _ in 0..delay {
                b.addi(ir(6), ir(6), 1);
            }
            b.halt();
            b.bind(blocked);
            for _ in 0..4 {
                b.lw(ir(3), ir(2), 0);
                b.add(ir(2), ir(3), ir(2));
            }
            b.join();
            b.bind(after);
            b.halt();
            let prog = b.build().unwrap();
            let run = |engine| {
                let mut m = SimConfig::new(&tiny_config())
                    .engine(engine)
                    .builder(prog.clone())
                    .mem_words(256)
                    .build();
                let outcome = m.run();
                assert!(
                    matches!(
                        outcome.status,
                        RunStatus::Failed(SimError::BadInstruction { .. })
                    ),
                    "{:?}",
                    outcome.status
                );
                (outcome.status, outcome.report.stats)
            };
            let (reference, fast) = (run(Engine::Reference), run(Engine::FastForward));
            assert_eq!(reference, fast, "faulty thread {faulty} after {delay}");
        }
    }

    /// Disabled TCUs and clusters shed capacity, not correctness:
    /// threads remap onto the survivors and the results are exact.
    #[test]
    fn degraded_tcus_still_compute_correctly() {
        for engine in [Engine::Reference, Engine::FastForward] {
            let mut healthy = SimConfig::new(&tiny_config())
                .engine(engine)
                .builder(spawn_store_tids(64))
                .mem_words(256)
                .build();
            let sh = healthy.run().unwrap();
            let mut degraded = SimConfig::new(&tiny_config())
                .engine(engine)
                .faults(FaultPlan::new(1).dead_cluster(2).dead_tcu(0, 1))
                .builder(spawn_store_tids(64))
                .mem_words(256)
                .build();
            let sd = degraded.run().unwrap();
            assert_eq!(healthy.mem, degraded.mem, "engine {engine:?}");
            assert_eq!(sd.stats.threads, 64);
            // A quarter of the machine is gone; it cannot be faster.
            assert!(sd.stats.cycles >= sh.stats.cycles);
        }
    }

    /// Register stores and issue records are born only in clusters that
    /// take a thread. 40 threads fill cluster 0 and put 8 in cluster 1;
    /// under every engine those two end the run with 32 issue records
    /// and a store of 4 rows (the tid, r1–r3) per TCU, whose row 0
    /// holds the thread IDs they ran, clusters 2 and 3 end it with
    /// neither, and the runs agree.
    #[test]
    fn only_clusters_that_take_a_thread_hold_register_files() {
        let run = |engine| {
            let mut m = SimConfig::new(&tiny_config())
                .engine(engine)
                .builder(spawn_store_tids(40))
                .mem_words(256)
                .build();
            let report = m.run().unwrap();
            let words: Vec<usize> = m.clusters.iter().map(|c| c.regs.len()).collect();
            assert_eq!(words, [4 * 32, 4 * 32, 0, 0], "{engine:?}");
            let records: Vec<usize> = m.clusters.iter().map(|c| c.hot.len()).collect();
            assert_eq!(records, [32, 32, 0, 0], "{engine:?}");
            let mut tids: Vec<u32> = m
                .clusters
                .iter()
                .filter(|c| !c.regs.is_empty())
                .flat_map(|c| (0..32).map(|t| c.tid(t)))
                .collect();
            tids.sort_unstable();
            let want: Vec<u32> = std::iter::repeat_n(0, 24).chain(0..40).collect();
            assert_eq!(tids, want, "{engine:?}");
            (report.stats, report.spawns, m.mem)
        };
        let reference = run(Engine::Reference);
        assert_eq!(reference, run(Engine::FastForward));
    }

    /// Dead DRAM channels remap the address hash around the offline
    /// module group; memory results stay exact.
    #[test]
    fn degraded_channel_routes_around() {
        let cfg = XmtConfig::xmt_4k().scaled_to(16);
        assert!(cfg.dram_channels() >= 2, "need two channels to kill one");
        let mut m = SimConfig::new(&cfg)
            .faults(FaultPlan::new(0).dead_channel(1))
            .builder(spawn_store_tids(64))
            .mem_words(256)
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
            let r = SimConfig::new(&cfg)
                .faults(plan.clone())
                .builder(prog.clone())
                .mem_words(64)
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
        for engine in [Engine::Reference, Engine::FastForward] {
            let mut m = SimConfig::new(&tiny_config())
                .engine(engine)
                .faults(plan.clone())
                .builder(spawn_store_tids(64))
                .mem_words(256)
                .build();
            let s = m.run().unwrap();
            for t in 0..64u32 {
                assert_eq!(m.mem[t as usize], t * 2, "tid {t} under {engine:?}");
            }
            reports.push(s.stats);
        }
        assert_eq!(reports[0], reports[1]);
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
            let build = || SimConfig::new(&cfg).builder(prog.clone()).mem_words(1024);
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
        let build = || SimConfig::new(&cfg).builder(prog.clone()).mem_words(1024);
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
        let mut m = SimConfig::new(&tiny_config())
            .builder(prog.clone())
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
        let mut m2 = SimConfig::new(&tiny_config())
            .builder(prog.clone())
            .mem_words(256)
            .build();
        let st = m2.run_until(10);
        assert!(matches!(st.status, RunStatus::Paused { .. }));
        let cp = m2.checkpoint().unwrap();
        let r = SimConfig::new(&XmtConfig::xmt_4k().scaled_to(8))
            .builder(prog.clone())
            .mem_words(256)
            .resume(&cp);
        assert!(matches!(r, Err(SimError::InvalidConfig { .. })));
        // Round-robin values that are not one in-range number decode —
        // the format has a slot per cluster — but must not resume: an
        // out-of-range one used to index past the issue walk's order.
        let clusters = tiny_config().clusters;
        let mut unequal = vec![cp.cluster_rr[0]; clusters];
        unequal[clusters - 1] += 1;
        for rr in [unequal, vec![1000; clusters], vec![32; clusters]] {
            let mut bad = cp.clone();
            bad.cluster_rr = rr;
            let bad = Checkpoint::from_bytes(&bad.to_bytes()).unwrap();
            let r = SimConfig::new(&tiny_config())
                .builder(prog.clone())
                .mem_words(256)
                .resume(&bad);
            assert!(matches!(r, Err(SimError::InvalidConfig { .. })));
        }
    }

    /// `run_until` with a pause point past the program's end completes
    /// the run and reports `Completed` with the same results as `run`.
    #[test]
    fn run_until_past_end_is_done() {
        let prog = spawn_store_tids(16);
        let mut a = SimConfig::new(&tiny_config())
            .builder(prog.clone())
            .mem_words(64)
            .build();
        let sa = a.run().unwrap();
        let mut b = SimConfig::new(&tiny_config())
            .builder(prog)
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
