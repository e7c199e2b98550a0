//! Sharded parallel advance loop (`Engine::Threaded`).
//!
//! The machine is partitioned into *shards*: every cluster (with its
//! TCUs and issue scratch) and every memory module lives in its own
//! padded cell, and a pool of persistent workers claims cells from a
//! per-cycle work list with an atomic cursor — work-stealing restricted
//! to the **active-cluster list**, so clusters with no running threads
//! are never touched (the reference engine walks every cluster every
//! cycle; here an idle shard costs nothing, not even a cache line).
//!
//! Synchronization is epoch-based, not message-based: the coordinator
//! publishes a command (step clusters / step modules / stop) by
//! bumping an epoch counter, participates in the claim loop itself,
//! and spin-waits for the workers' done counter — two atomic waves per
//! stepped cycle instead of the two mpsc round trips per worker the
//! previous engine paid (which cost it a ~10x slowdown at small
//! cluster counts). Quiet cycles do not step shards at all: the
//! coordinator scans the active shards — lazily, only once a cycle
//! has proven quiet — folds the scans into the same fast-forward
//! horizon the `FastForward` engine computes, and jumps the clock in
//! bulk, so barriers are amortized across entire memory-latency
//! stretches. With one participant (the resolved default when the
//! host has one CPU) the same loop runs with no workers to publish to
//! or wait for: the coordinator claims every shard itself.
//!
//! The issue rules themselves are not in this file: a shard steps
//! through the one issue kernel (`issue::step_cluster`), and [`Shard`]
//! — this engine's `IssueSink` — is the whole of what differs from the
//! serial engines. Bit-identity with `Engine::Reference` is preserved
//! by re-serializing every globally-ordered decision on the
//! coordinator: thread-ID grants are sized in global cluster order
//! before each cycle, memory-injection attempts are recorded per shard
//! and replayed into the request NoC in cluster order (through the
//! same `Txns::inject` the serial engines call, so a store takes its
//! slot and a transaction counts as in flight only on an accepted
//! injection), and module steps — independent per module — are merged
//! back in module order before DRAM channels and reply routing run
//! serially.
//!
//! Programs that mutate global state from parallel mode
//! (`ps`/`sspawn`) and probed machines never reach this module —
//! `Machine::run` falls back to the fast-forward engine for them.
//!
//! One intentional divergence: on a simulation *error* (out-of-bounds
//! access, pc overflow), the reference engine stops mid-cycle, leaving
//! later clusters unstepped; here, every claimed shard of the faulting
//! cycle has already stepped. The returned error is still the first in
//! cluster order, but machine state and statistics after a failed run
//! may differ from the reference engine's. Successful runs are
//! identical.

use super::*;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;
use xmt_isa::block::UopKind;

/// Spin iterations before a waiting worker parks (the coordinator's
/// inter-epoch turnaround is usually far shorter than this).
const SPIN_ROUNDS: u32 = 1 << 12;
/// Minimum active-module count before the module-step stage is worth
/// an extra epoch (below it, the coordinator steps modules inline).
const MEM_PAR_MIN: usize = 8;

/// One memory-instruction injection attempt, replayed by the
/// coordinator in cluster order. `accepted` is the shard's prediction
/// (the port had budget); the replay asserts the real NoC agrees.
struct Attempt {
    request: Request,
    value: u32,
    module: usize,
    accepted: bool,
}

/// One cluster shard: the TCU state moved out of the machine for the
/// run, plus everything a participant needs to step it and everything
/// the coordinator reads back afterwards. Padded so two shards never
/// share a cache line.
struct ClusterShard {
    tcus: ClusterTcus,
    /// The cluster's issue masks, moved out of the machine together
    /// with the TCUs.
    masks: ClusterMasks,
    /// Instructions issued by this cluster (merged at shutdown).
    instr: u64,
    /// Contiguous thread-ID grant for this cycle.
    grant: Range<u32>,
    /// Request-NoC injection budget sampled for this cycle.
    budget: usize,
    /// Trace entries via branch/jump resolution (merged at shutdown).
    trace_entries: u64,
    /// Matured replies to apply before the next cycle's issue
    /// (equivalent to the serial engines applying them at the end of
    /// the previous one: no issue logic runs in between).
    deliveries: Vec<Reply>,
    /// Injection attempts recorded this cycle.
    attempts: Vec<Attempt>,
    /// First error this shard hit this cycle.
    error: Option<SimError>,
}

/// Per-module scratch for the parallel module-step stage.
#[derive(Default)]
struct ModuleShard {
    creqs: Vec<ChannelRequest>,
    resps: Vec<MemResp>,
}

/// What an epoch asks the participants to do.
#[derive(Clone, Copy)]
enum EpochCmd {
    /// Claim clusters from the work list and step them one cycle,
    /// visiting TCUs from round-robin position `start`.
    Clusters {
        cycle: u64,
        start: usize,
    },
    /// Claim modules from the work list and step each one memory
    /// cycle into its [`ModuleShard`].
    Modules,
    Stop,
}

/// Global-register snapshot and entry pc of the current section.
struct Section {
    gregs: [u32; NUM_GREGS],
    entry: usize,
}

#[repr(align(128))]
struct Pad<T>(UnsafeCell<T>);

/// State shared between the coordinator and the worker pool. All
/// `UnsafeCell` access follows the epoch protocol: the coordinator
/// owns every cell between epochs; during an epoch, each work-list
/// index is claimed by exactly one participant via `cursor`, and the
/// coordinator only touches cells through its own claim loop. The
/// `Release` epoch store / `Acquire` epoch load pair publishes the
/// coordinator's writes to workers; the `Release` done increment /
/// `Acquire` done load pair publishes the workers' writes back.
struct Shared<'a> {
    epoch: AtomicU64,
    done: AtomicU64,
    poisoned: AtomicBool,
    cmd: UnsafeCell<EpochCmd>,
    cursor: AtomicUsize,
    /// Cluster indices (Clusters epochs) or module indices (Modules
    /// epochs) to claim.
    work: UnsafeCell<Vec<u32>>,
    section: UnsafeCell<Section>,
    clusters: Vec<Pad<ClusterShard>>,
    modules: Vec<Pad<ModuleShard>>,
    /// Base pointer of `Machine::modules`, re-derived before every
    /// Modules epoch (never dereferenced outside one).
    modules_ptr: UnsafeCell<*mut MemoryModule>,
    /// Per-worker stat deltas for the current epoch.
    deltas: Vec<Pad<MachineStats>>,
    /// Per-worker parked flags (coordinator only unparks sleepers).
    parked: Vec<AtomicBool>,
    /// Pre-lowered trace cache, shared read-only by every participant
    /// (`None` when the machine runs the interpreter tier).
    trace: Option<&'a TraceCache>,
    /// The run's issue environment; `entry` and `cycle` are filled in
    /// per shard step from the section and the epoch command.
    env: IssueEnv<'a>,
}

// SAFETY: every UnsafeCell is accessed under the epoch protocol
// documented on the struct; the raw module pointer is only
// dereferenced during a Modules epoch, at distinct indices per
// participant.
unsafe impl Sync for Shared<'_> {}

/// Signals epoch completion even if the participant's work panicked,
/// so the coordinator's spin-wait terminates (it then reports the
/// poisoning; the scope re-raises the panic at join).
struct DoneGuard<'a> {
    sh: &'a Shared<'a>,
}

impl Drop for DoneGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.sh.poisoned.store(true, Ordering::Release);
        }
        self.sh.done.fetch_add(1, Ordering::Release);
    }
}

/// Sum `d` into `into`, leaving the coordinator-owned fields
/// (`cycles`, `spawns`) alone.
fn add_stats(into: &mut MachineStats, d: &MachineStats) {
    into.instructions += d.instructions;
    into.flops += d.flops;
    into.mem_reads += d.mem_reads;
    into.mem_writes += d.mem_writes;
    into.threads += d.threads;
    into.stall_scoreboard += d.stall_scoreboard;
    into.stall_fpu += d.stall_fpu;
    into.stall_mdu += d.stall_mdu;
    into.stall_lsu += d.stall_lsu;
}

pub(super) fn run<P: Probe>(m: &mut Machine<P>, threads: usize) -> Result<RunReport, SimError> {
    debug_assert!(!P::ENABLED, "probed runs fall back before reaching here");
    let nclusters = m.cfg.clusters;
    let participants = if threads == 0 {
        rayon::current_num_threads()
    } else {
        threads
    }
    .clamp(1, nclusters);
    let spawned = participants - 1;
    let ntcus = m.cfg.tcus_per_cluster;
    let (cfg, hash, decoded) = (m.cfg, m.hash, m.decoded.clone());
    let env = IssueEnv {
        decoded: &decoded,
        cfg: &cfg,
        mem_len: m.mem.len(),
        hash: &hash,
        entry: 0,
        cycle: 0,
    };
    // Pre-lower every superblock so the shards' read-only fetches never
    // see a cold slot; the workers share one immutable cache.
    let trace: Option<TraceCache> = match m.trace.as_deref_mut() {
        Some(tc) => {
            tc.lower_all(&decoded);
            Some(tc.clone())
        }
        None => None,
    };

    // Move the TCU state (and the issue masks) out of the machine
    // into the shards.
    let healthy: Vec<u64> = m.masks.iter().map(|masks| masks.idle(ntcus)).collect();
    let cluster_shards: Vec<Pad<ClusterShard>> = std::mem::take(&mut m.clusters)
        .into_iter()
        .zip(std::mem::take(&mut m.masks))
        .map(|(tcus, masks)| {
            Pad(UnsafeCell::new(ClusterShard {
                tcus,
                masks,
                instr: 0,
                grant: 0..0,
                budget: 0,
                trace_entries: 0,
                deliveries: Vec::new(),
                attempts: Vec::new(),
                error: None,
            }))
        })
        .collect();

    let shared = Shared {
        epoch: AtomicU64::new(0),
        done: AtomicU64::new(0),
        poisoned: AtomicBool::new(false),
        cmd: UnsafeCell::new(EpochCmd::Stop),
        cursor: AtomicUsize::new(0),
        work: UnsafeCell::new(Vec::with_capacity(nclusters.max(m.modules.len()))),
        section: UnsafeCell::new(Section {
            gregs: [0; NUM_GREGS],
            entry: 0,
        }),
        clusters: cluster_shards,
        modules: (0..m.modules.len())
            .map(|_| Pad(UnsafeCell::new(ModuleShard::default())))
            .collect(),
        modules_ptr: UnsafeCell::new(std::ptr::null_mut()),
        deltas: (0..spawned)
            .map(|_| Pad(UnsafeCell::new(MachineStats::default())))
            .collect(),
        parked: (0..spawned).map(|_| AtomicBool::new(false)).collect(),
        trace: trace.as_ref(),
        env,
    };

    let result = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spawned)
            .map(|w| {
                s.spawn({
                    let shared = &shared;
                    move || worker_main(shared, w)
                })
            })
            .collect();
        let worker_threads: Vec<std::thread::Thread> =
            handles.iter().map(|h| h.thread().clone()).collect();
        let mut pool = Pool {
            sh: &shared,
            worker_threads,
            done_target: 0,
        };
        let result = main_loop(m, &mut pool, &healthy);
        // Shut the pool down without waiting for the Stop epoch (a
        // panicked worker would never acknowledge it); the scope join
        // below is the real barrier and surfaces worker panics.
        pool.dispatch(EpochCmd::Stop, &mut MachineStats::default());
        result
    });

    // Reassemble the machine (also on the error path, so the caller
    // can still inspect memory and statistics).
    let mut trace_entries = 0u64;
    for (c, cell) in shared.clusters.into_iter().enumerate() {
        let shard = cell.0.into_inner();
        m.clusters.push(shard.tcus);
        m.masks.push(shard.masks);
        m.cluster_instr[c] += shard.instr;
        trace_entries += shard.trace_entries;
    }
    if let Some(tc) = m.trace.as_deref_mut() {
        tc.add_entries(trace_entries);
    }
    result.map(|()| m.report())
}

/// The epoch-dispatch half of the coordinator: publish a command,
/// participate in it, and wait for the pool.
struct Pool<'s, 'a> {
    sh: &'s Shared<'a>,
    worker_threads: Vec<std::thread::Thread>,
    done_target: u64,
}

impl Pool<'_, '_> {
    /// Publish `cmd`, run the coordinator's own claim loop, and leave
    /// the workers running theirs. Caller must `wait()` before
    /// touching any shard. The coordinator's stat delta accumulates
    /// into `delta`.
    fn dispatch(&mut self, cmd: EpochCmd, delta: &mut MachineStats) {
        let sh = self.sh;
        sh.cursor.store(0, Ordering::Relaxed);
        // SAFETY: coordinator owns the cells between epochs.
        unsafe { *sh.cmd.get() = cmd };
        if !self.worker_threads.is_empty() {
            sh.epoch.fetch_add(1, Ordering::Release);
            self.done_target += self.worker_threads.len() as u64;
            for (w, t) in self.worker_threads.iter().enumerate() {
                if sh.parked[w].load(Ordering::Acquire) {
                    t.unpark();
                }
            }
        }
        run_cmd(sh, cmd, delta);
    }

    /// Wait for every worker to finish the current epoch.
    fn wait(&self) -> Result<(), SimError> {
        let sh = self.sh;
        let mut spins = 0u32;
        while sh.done.load(Ordering::Acquire) < self.done_target {
            spins = spins.wrapping_add(1);
            if spins & 0x3FF == 0 {
                // Let workers run on oversubscribed hosts.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        if sh.poisoned.load(Ordering::Acquire) {
            return Err(SimError::Protocol {
                what: "threaded worker panicked",
                at_cycle: 0,
            });
        }
        Ok(())
    }
}

fn worker_main(sh: &Shared<'_>, wid: usize) {
    let mut seen = 0u64;
    loop {
        // Wait for the next epoch: spin briefly, then park. A parked
        // worker is woken by the coordinator's targeted unpark; the
        // timeout only covers the benign race where the flag was read
        // before the store landed.
        let mut spins = 0u32;
        loop {
            let e = sh.epoch.load(Ordering::Acquire);
            if e != seen {
                seen = e;
                break;
            }
            spins += 1;
            if spins < SPIN_ROUNDS {
                std::hint::spin_loop();
            } else {
                sh.parked[wid].store(true, Ordering::Release);
                if sh.epoch.load(Ordering::Acquire) == seen {
                    std::thread::park_timeout(Duration::from_millis(1));
                }
                sh.parked[wid].store(false, Ordering::Relaxed);
            }
        }
        let guard = DoneGuard { sh };
        // SAFETY: published before the epoch bump; coordinator does
        // not write it again until after `wait()`.
        let cmd = unsafe { *sh.cmd.get() };
        let stop = matches!(cmd, EpochCmd::Stop);
        if !stop {
            let mut delta = MachineStats::default();
            run_cmd(sh, cmd, &mut delta);
            // SAFETY: this worker's own delta slot.
            unsafe { *sh.deltas[wid].0.get() = delta };
        }
        drop(guard);
        if stop {
            return;
        }
    }
}

/// The claim loop every participant (workers and coordinator) runs.
fn run_cmd(sh: &Shared<'_>, cmd: EpochCmd, delta: &mut MachineStats) {
    // SAFETY: work list is written by the coordinator before the epoch
    // and read-only during it.
    let work = unsafe { &*sh.work.get() };
    match cmd {
        EpochCmd::Clusters { cycle, start } => loop {
            let i = sh.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= work.len() {
                break;
            }
            let c = work[i] as usize;
            // SAFETY: index `i` (hence cluster `c`) is claimed by
            // exactly one participant this epoch.
            let shard = unsafe { &mut *sh.clusters[c].0.get() };
            step_shard(sh, shard, cycle, start, delta);
        },
        EpochCmd::Modules => {
            // SAFETY: re-derived by the coordinator for this epoch.
            let base = unsafe { *sh.modules_ptr.get() };
            loop {
                let i = sh.cursor.fetch_add(1, Ordering::Relaxed);
                if i >= work.len() {
                    break;
                }
                let mm = work[i] as usize;
                // SAFETY: module `mm` and its shard are claimed by
                // exactly one participant this epoch; `base` points at
                // the live `Machine::modules` buffer, untouched by the
                // coordinator during the epoch.
                let module = unsafe { &mut *base.add(mm) };
                let ms = unsafe { &mut *sh.modules[mm].0.get() };
                module.step(&mut ms.creqs, &mut ms.resps);
            }
        }
        EpochCmd::Stop => {}
    }
}

/// [`IssueSink`] of the threaded engine: nothing a shard does may
/// touch shared state, so every globally ordered effect is either
/// pre-sized by the coordinator (the thread-ID grant, the NoC budget)
/// or recorded for it to replay in cluster order (injection attempts,
/// trace-entry counts).
struct Shard<'a> {
    /// This cluster's contiguous slice of the global thread-ID
    /// counter, sized to its idle-TCU count.
    grant: &'a mut Range<u32>,
    /// Request-NoC injections the source port will still accept this
    /// cycle. The prediction is exact: both NoCs refuse solely on the
    /// backpressure `inject_budget` reported, and the replay asserts
    /// the real network agrees.
    budget: &'a mut usize,
    attempts: &'a mut Vec<Attempt>,
    trace_entries: &'a mut u64,
    trace: Option<&'a TraceCache>,
    gregs: &'a [u32; NUM_GREGS],
}

impl IssueSink for Shard<'_> {
    #[inline(always)]
    fn tids_remain(&self) -> bool {
        self.grant.start < self.grant.end
    }

    #[inline(always)]
    fn next_tid(&mut self) -> Option<u32> {
        self.grant.next()
    }

    #[inline(always)]
    fn inject(&mut self, request: Request, value: u32, module: usize) -> bool {
        let accepted = *self.budget > 0;
        if accepted {
            *self.budget -= 1;
        }
        self.attempts.push(Attempt {
            request,
            value,
            module,
            accepted,
        });
        accepted
    }

    // Read-only fetch from the pre-lowered cache. A cold slot cannot
    // happen after `lower_all`, but falling back to the interpreter
    // path keeps every seam safe.
    #[inline(always)]
    fn fetch(&mut self, _decoded: &DecodedProgram, pc: usize) -> Option<MicroOp> {
        let u = self.trace?.fetch(pc);
        (u.kind != UopKind::Cold).then_some(u)
    }

    #[inline(always)]
    fn note_entry(&mut self) {
        *self.trace_entries += 1;
    }

    #[inline(always)]
    fn gregs(&self) -> &[u32; NUM_GREGS] {
        self.gregs
    }

    fn global_op(&mut self, _ins: &Instr, _rf: &mut TcuRegs<'_>) {
        // `Machine::run` routes ps/sspawn programs to the fast-forward
        // engine; they cannot reach a shard.
        unreachable!("global-state op in threaded shard")
    }
}

/// Step one cluster shard one cycle: reply application, and the issue
/// kernel behind a [`Shard`] sink.
fn step_shard(
    sh: &Shared<'_>,
    shard: &mut ClusterShard,
    cycle: u64,
    start: usize,
    delta: &mut MachineStats,
) {
    for d in shard.deliveries.drain(..) {
        issue::apply_reply(
            &mut shard.tcus,
            &mut shard.masks,
            d.tcu,
            d.kind,
            d.value,
            sh.env.decoded,
        );
    }
    // SAFETY: written by the coordinator before the epoch (at spawn
    // time), read-only during it.
    let section = unsafe { &*sh.section.get() };
    let env = IssueEnv {
        entry: section.entry,
        cycle,
        ..sh.env
    };
    let mut sink = Shard {
        grant: &mut shard.grant,
        budget: &mut shard.budget,
        attempts: &mut shard.attempts,
        trace_entries: &mut shard.trace_entries,
        trace: sh.trace,
        gregs: &section.gregs,
    };
    match issue::step_cluster(
        &mut shard.tcus,
        &mut shard.masks,
        start,
        &env,
        delta,
        &mut sink,
        true,
    ) {
        Ok(issued) => shard.instr += issued,
        Err(e) => shard.error = Some(e),
    }
}

fn main_loop<P: Probe>(
    m: &mut Machine<P>,
    pool: &mut Pool<'_, '_>,
    healthy: &[u64],
) -> Result<(), SimError> {
    let sh = pool.sh;
    let nclusters = healthy.len();
    let ntcus = m.cfg.tcus_per_cluster;
    let healthy_total: u64 = healthy.iter().sum();
    // Post-cycle idle-TCU count per cluster, re-read from the masks of
    // each shard that stepped (drives grant sizing and the active-work
    // decision — full scans only happen on quiet cycles). Before the
    // first spawn — and between sections — every non-disabled TCU is
    // idle.
    let mut idle: Vec<u64> = healthy.to_vec();
    let mut sum_idle: u64 = healthy_total;
    let mut replies_buf: Vec<Reply> = Vec::new();
    // Coordinator-side copy of the active-cluster list: `sh.work` is
    // repurposed for module indices during Modules epochs, so the
    // merge and skip phases read this one.
    let mut active: Vec<u32> = Vec::with_capacity(nclusters);

    loop {
        match m.mode {
            Mode::Finished => return Ok(()),
            Mode::Serial { .. } => {
                let instr_before = m.stats.instructions;
                m.step()?;
                m.check_progress()?;
                if let Mode::Parallel { .. } = m.mode {
                    // A spawn just executed: publish the section for
                    // the shards to read on their next epoch.
                    // SAFETY: no epoch is in flight.
                    unsafe {
                        *sh.section.get() = Section {
                            gregs: m.gregs,
                            entry: m.spawn_entry,
                        };
                    }
                } else if instr_before == m.stats.instructions {
                    // Quiet serial cycle (waiting out an instruction
                    // latency or a draining channel): fast-forward.
                    // Only the Serial arm of `fast_forward` can run
                    // here, which never touches the (empty) clusters.
                    m.fast_forward();
                    m.check_progress()?;
                }
            }
            Mode::Parallel { return_pc } => {
                m.stats.cycles += 1;
                // Phase 0: build the active work list and size the
                // thread-ID grants from the idle counts — exactly the
                // TCUs the serial scan would have activated, in the
                // same global cluster order. A cluster joins the list
                // iff it has running TCUs or receives a grant; all
                // others are untouched this cycle.
                active.clear();
                for c in 0..nclusters {
                    let has_active = idle[c] < healthy[c];
                    let avail = (m.spawn_count - m.next_tid) as u64;
                    let g = if avail > 0 {
                        idle[c].min(avail) as u32
                    } else {
                        0
                    };
                    if !has_active && g == 0 {
                        continue;
                    }
                    // SAFETY: no epoch in flight; coordinator owns
                    // every cell.
                    let shard = unsafe { &mut *sh.clusters[c].0.get() };
                    shard.grant = m.next_tid..m.next_tid + g;
                    m.next_tid += g;
                    shard.error = None;
                    shard.budget = m.req_net.inject_budget(c);
                    shard.attempts.clear();
                    active.push(c as u32);
                }
                let instr_before = m.stats.instructions;
                let threads_before = m.stats.threads;
                let mut main_delta = MachineStats::default();
                {
                    // SAFETY: no epoch in flight.
                    let work = unsafe { &mut *sh.work.get() };
                    work.clear();
                    work.extend_from_slice(&active);
                }
                // Phase 1: step the shards (workers+coordinator).
                pool.dispatch(
                    EpochCmd::Clusters {
                        cycle: m.stats.cycles,
                        start: m.rr,
                    },
                    &mut main_delta,
                );
                pool.wait()?;
                m.advance_rr(1);
                add_stats(&mut m.stats, &main_delta);
                for d in &sh.deltas {
                    // SAFETY: epoch done; workers are waiting.
                    add_stats(&mut m.stats, unsafe { &*d.0.get() });
                }
                // Phase 2 (merge): replay attempts in cluster order so
                // store slots and NoC arbitration match the serial engines
                // bit for bit, and take the new idle counts.
                let mut first_err: Option<SimError> = None;
                for &c in &active {
                    let c = c as usize;
                    // SAFETY: epoch done; coordinator owns cells.
                    let shard = unsafe { &mut *sh.clusters[c].0.get() };
                    if first_err.is_none() {
                        for a in shard.attempts.drain(..) {
                            let accepted =
                                m.txns
                                    .inject(m.req_net.as_mut(), c, a.module, a.request, a.value);
                            debug_assert_eq!(
                                accepted, a.accepted,
                                "shard mispredicted NoC acceptance"
                            );
                        }
                        first_err = shard.error.take();
                    }
                    let now_idle = shard.masks.idle(ntcus);
                    sum_idle = sum_idle + now_idle - idle[c];
                    idle[c] = now_idle;
                }
                if let Some(e) = first_err {
                    // `addr_of` faults surface from shards without a
                    // clock; stamp them with the merge-side cycle.
                    return Err(e.stamped(m.stats.cycles));
                }
                let total_active = healthy_total - sum_idle;
                m.lap(Some(HostLayer::ClusterIssue));
                // Phase 3: the memory system. Module steps are
                // independent per module, so a big enough active set
                // gets its own work-stealing epoch; everything with a
                // global order (request routing, DRAM channels, reply
                // injection) stays on the coordinator.
                replies_buf.clear();
                m.mem_route_requests();
                if !pool.worker_threads.is_empty() && m.active_modules.len() >= MEM_PAR_MIN {
                    {
                        // SAFETY: no epoch in flight.
                        let work = unsafe { &mut *sh.work.get() };
                        work.clear();
                        work.extend(m.active_modules.iter().map(|mm| mm as u32));
                    }
                    // SAFETY: re-derive the buffer pointer for this
                    // epoch; the coordinator leaves `m.modules` alone
                    // until `wait()` returns.
                    unsafe { *sh.modules_ptr.get() = m.modules.as_mut_ptr() };
                    if P::HOST_TIMING {
                        m.probe.host_work([0, 0, m.active_modules.len() as u64]);
                    }
                    pool.dispatch(EpochCmd::Modules, &mut main_delta);
                    pool.wait()?;
                    // Merge in module order: responses to outboxes,
                    // channel requests into the serial creq stream.
                    let mut creqs = std::mem::take(&mut m.scratch_creqs);
                    for mm in m.active_modules.iter() {
                        // SAFETY: epoch done; coordinator owns cells.
                        let ms = unsafe { &mut *sh.modules[mm].0.get() };
                        for resp in ms.resps.drain(..) {
                            m.module_outbox[mm].push_back(resp.req.tag);
                            m.active_outboxes.insert(mm);
                        }
                        creqs.append(&mut ms.creqs);
                    }
                    m.scratch_creqs = creqs;
                    m.retire_inactive_modules();
                    m.lap(Some(HostLayer::ModuleSteps));
                } else {
                    m.mem_step_modules();
                }
                m.mem_drain_collect(&mut replies_buf);
                // Matured replies land in the owning shard for the
                // next cycle.
                let pending_count = replies_buf.len();
                for r in replies_buf.drain(..) {
                    // SAFETY: no epoch in flight.
                    let shard = unsafe { &mut *sh.clusters[r.cluster].0.get() };
                    shard.deliveries.push(r);
                }
                if total_active == 0 {
                    m.maybe_finish_spawn_drained(return_pc);
                }
                m.check_progress()?;
                // Fast-forward: quiet cycle, no replies about to land,
                // nothing issuable and no thread to activate → jump to
                // the next event. Only now are the active shards
                // scanned (busy cycles never pay for a scan); clusters
                // outside the work list are fully idle and would
                // report `issue_next: false`, `min_busy: MAX` and zero
                // blocked counts, so only work-list shards constrain
                // the horizon.
                let quiet =
                    instr_before == m.stats.instructions && threads_before == m.stats.threads;
                if quiet && pending_count == 0 && matches!(m.mode, Mode::Parallel { .. }) {
                    // Same watchdog cap as `fast_forward`: the skip
                    // may not leap past the cycle on which the
                    // watchdog would fire (a stuck TCU looks
                    // permanently quiet).
                    let mut horizon = m.skip_horizon();
                    let next = m.stats.cycles + 1;
                    let mut can_skip = !(m.next_tid < m.spawn_count && sum_idle > 0);
                    let (mut blocked_scoreboard, mut blocked_lsu) = (0, 0);
                    if can_skip {
                        for &c in &active {
                            // SAFETY: no epoch in flight.
                            let shard = unsafe { &*sh.clusters[c as usize].0.get() };
                            let scan = shard.masks.quiet_scan(next);
                            if scan.issue_next {
                                can_skip = false;
                                break;
                            }
                            horizon = horizon.min(scan.min_busy);
                            blocked_scoreboard += scan.blocked_scoreboard;
                            blocked_lsu += scan.blocked_lsu;
                        }
                    }
                    if can_skip {
                        if let Some(e) = m.memory_next_event() {
                            horizon = horizon.min(e);
                        }
                        if horizon > next {
                            let n = horizon - next;
                            m.stats.stall_scoreboard += n * blocked_scoreboard;
                            m.stats.stall_lsu += n * blocked_lsu;
                            // Busy bits of skipped cycles must clear,
                            // exactly as `fast_forward` does, or the
                            // mask-driven issue loop would skip TCUs
                            // whose units finished during the jump.
                            // Non-work clusters have no busy bits set.
                            for &c in &active {
                                // SAFETY: no epoch in flight.
                                let shard = unsafe { &mut *sh.clusters[c as usize].0.get() };
                                shard.masks.wake_through(next, n);
                            }
                            m.skip_memory(n);
                            m.stats.cycles += n;
                            m.advance_rr(n);
                            m.check_progress()?;
                        }
                    }
                }
            }
        }
    }
}
