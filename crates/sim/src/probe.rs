//! Cycle-resolved observability probes.
//!
//! A [`Probe`] is attached to a [`Machine`](crate::Machine) at build
//! time ([`MachineBuilder::build_probed`](crate::MachineBuilder::build_probed))
//! as a *generic parameter*, never a trait object. The disabled default
//! [`NoProbe`] has `ENABLED = false`, so every probe hook in the engine
//! hot paths sits behind `if P::ENABLED { ... }` and is constant-folded
//! away — the allocation-free hot path stays allocation-free and the
//! golden cycle counts are bit-for-bit those of an unprobed machine
//! (`tests/tests/probe_correctness.rs` holds this on every golden case
//! and engine; what a probe costs in host time is the benchmark's
//! `sim.probed_run_ms` against `sim.run_ms`).
//!
//! Sampling contract: the machine calls [`Probe::record`] once per
//! elapsed interval of [`Probe::interval`] cycles, at the first moment
//! the clock reaches or passes the interval boundary, plus one final
//! flush when the run ends mid-interval. The [`SampleCtx`] passed in
//! borrows live component state (cumulative [`MachineStats`], DRAM
//! channels, memory modules, NoC counters, instantaneous stall masks),
//! so a probe computes per-interval deltas by keeping its own previous
//! snapshot. Because the engines visit identical architectural
//! states at every cycle boundary, the sample stream is bit-identical
//! across engines (pinned by the `engine_agreement` proptest).
//!
//! [`IntervalProbe`] is the bundled implementation: a fixed-capacity
//! ring of plain-old-data rows allocated once at bind time.

use crate::config::XmtConfig;
use crate::machine::MachineStats;
use std::collections::HashMap;
use xmt_mem::{DramChannel, MemoryModules};
use xmt_noc::NetStats;

/// Instantaneous count of TCUs blocked at a sample boundary, split by
/// the issue-class reason recorded in the per-cluster `ClusterMasks`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockedTcus {
    /// Waiting on a scoreboarded register (outstanding load / in-flight
    /// FPU or MDU result).
    pub scoreboard: u64,
    /// Next instruction is FPU-class: blocked on a shared FPU port (or
    /// the scoreboard for its operands).
    pub fpu: u64,
    /// Next instruction is MDU-class: blocked on the shared MDU port.
    pub mdu: u64,
    /// Next instruction is LSU-class: blocked on an LSU port, NoC
    /// injection backpressure, or the outstanding-request cap while
    /// memory requests wait on DRAM.
    pub lsu: u64,
}

/// Everything a probe may read at a sample boundary. All references
/// borrow live machine state; copy what you need.
pub struct SampleCtx<'a> {
    /// The nominal interval boundary this sample accounts for. Strictly
    /// increasing by [`Probe::interval`] except for the final flush,
    /// where it equals the end-of-run cycle.
    pub boundary: u64,
    /// The machine clock when the sample was taken (`>= boundary`; the
    /// serial spawn broadcast can jump the clock past a boundary).
    pub cycle: u64,
    /// Index of the parallel section in progress, `None` in serial mode.
    pub spawn: Option<u64>,
    /// Cumulative run statistics.
    pub stats: &'a MachineStats,
    /// Request-network counters (cumulative).
    pub req_net: NetStats,
    /// Reply-network counters (cumulative).
    pub reply_net: NetStats,
    /// Flits currently inside both NoCs.
    pub noc_in_flight: u64,
    /// Memory transactions currently in flight end to end.
    pub txns_in_flight: u64,
    /// TCUs blocked right now, by cause.
    pub blocked: BlockedTcus,
    /// DRAM channels (cumulative `stats` plus instantaneous `pending`).
    pub channels: &'a [DramChannel],
    /// Memory modules (instantaneous `outstanding` queue depths).
    pub modules: &'a MemoryModules,
}

impl SampleCtx<'_> {
    /// Total bytes moved over all DRAM channels so far.
    pub fn dram_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.stats.bytes).sum()
    }
}

/// A host-time bucket of the advance loop: where the *simulator* (not
/// the simulated machine) spends wall time inside one cycle, in the
/// order a cycle visits them. Collected by [`HostLayers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostLayer {
    /// The MTCU's serial instruction (plus the top-of-cycle bookkeeping).
    SerialStep,
    /// The issue kernel over every stepped cluster.
    ClusterIssue,
    /// `req_net.step_into`.
    ReqNetStep,
    /// Request deliveries: functional memory effect and module enqueue.
    ReqDelivery,
    /// Active memory modules' steps and the move into their outboxes.
    ModuleSteps,
    /// DRAM-channel enqueue, channel steps and line fills.
    Channels,
    /// Module outboxes into the reply network.
    OutboxInjection,
    /// `reply_net.step_into`.
    ReplyNetStep,
    /// Reply deliveries: each reply token decoded for its TCU.
    ReplyDelivery,
    /// Replies written back to their TCUs.
    ReplyApply,
    /// End-of-cycle checks, the quiet scan and the bulk skip.
    FastForward,
}

impl HostLayer {
    /// Every layer in cycle order, with its stable snake-case name (the
    /// `layers` keys of BENCH_sim.json).
    pub const ALL: [(HostLayer, &'static str); 11] = [
        (HostLayer::SerialStep, "serial_step"),
        (HostLayer::ClusterIssue, "cluster_issue"),
        (HostLayer::ReqNetStep, "req_net_step"),
        (HostLayer::ReqDelivery, "req_delivery"),
        (HostLayer::ModuleSteps, "module_steps"),
        (HostLayer::Channels, "channels"),
        (HostLayer::OutboxInjection, "outbox_injection"),
        (HostLayer::ReplyNetStep, "reply_net_step"),
        (HostLayer::ReplyDelivery, "reply_delivery"),
        (HostLayer::ReplyApply, "reply_apply"),
        (HostLayer::FastForward, "fast_forward"),
    ];
}

/// Observer attached to a machine as a zero-cost generic parameter.
pub trait Probe {
    /// `false` compiles every probe hook out of the engine hot paths.
    const ENABLED: bool;

    /// `true` makes the advance loops call [`Probe::host_lap`] at every
    /// [`HostLayer`] boundary; `false` (every probe but [`HostLayers`])
    /// compiles those calls out.
    const HOST_TIMING: bool = false;

    /// The advance loop crossed a layer boundary: the host time since
    /// the previous call belongs to `layer` (`None`: to nobody — a run
    /// is starting). Only called when [`Probe::HOST_TIMING`] is set.
    fn host_lap(&mut self, layer: Option<HostLayer>) {
        let _ = layer;
    }

    /// Host work one stage of a cycle did, as `[clusters stepped,
    /// clusters parked, modules stepped]`: clusters that went through
    /// the issue kernel and that sat the cycle out with their stalls
    /// paid by addition (fast-forward only), and active memory modules
    /// stepped. Only called when [`Probe::HOST_TIMING`] is set.
    fn host_work(&mut self, work: [u64; 3]) {
        let _ = work;
    }

    /// Called once, before the first cycle, with the machine
    /// configuration — size ring buffers here so [`Probe::record`]
    /// never allocates.
    fn bind(&mut self, cfg: &XmtConfig) {
        let _ = cfg;
    }

    /// Sampling period in cycles (clamped to ≥ 1 by the machine).
    fn interval(&self) -> u64 {
        u64::MAX
    }

    /// Record one sample. Must not allocate: this runs inside the
    /// engine advance loops.
    fn record(&mut self, ctx: &SampleCtx<'_>);

    /// Called for every memory transaction issued from a parallel
    /// section, at the moment the request reaches its home memory
    /// module — the point that defines the global memory order.
    /// `spawn` is the parallel-section index (`None` would mean serial
    /// mode, but the MTCU touches memory directly and never routes
    /// through here), `tid` the issuing virtual thread. Default: no-op
    /// (and compiled out entirely when `ENABLED` is false).
    ///
    /// Unlike [`Probe::record`] this is a *correctness-oracle* hook,
    /// not a sampling hook: it is only intended for test probes such
    /// as [`RaceCheck`], which may allocate.
    fn mem_access(&mut self, spawn: Option<u64>, tid: u32, addr: u32, is_write: bool) {
        let _ = (spawn, tid, addr, is_write);
    }
}

/// The zero-cost disabled probe (the default machine type parameter).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;

    fn record(&mut self, _ctx: &SampleCtx<'_>) {}
}

/// Host-time ledger: attributes the wall time of
/// [`Machine::run`](crate::Machine::run) to [`HostLayer`]s by reading
/// the clock once at every layer boundary. It samples nothing (`ENABLED = false`), so the
/// simulated results are those of a [`NoProbe`] machine; the host time
/// is not — a dozen clock reads a cycle is small against a paper-scale
/// cycle and several times a 512-point job's, so end-to-end numbers are
/// never taken with it attached (`bench_sim`'s ledger run is its one
/// user).
#[derive(Debug, Clone, Copy, Default)]
pub struct HostLayers {
    last: Option<std::time::Instant>,
    ns: [u64; HostLayer::ALL.len()],
    work: [u64; 3],
}

impl HostLayers {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Host nanoseconds attributed to `layer` so far.
    pub fn ns(&self, layer: HostLayer) -> u64 {
        self.ns[layer as usize]
    }

    /// Host nanoseconds attributed to any layer so far.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Host work so far — unlike the nanoseconds, counts that repeat
    /// exactly: cluster steps taken (calls of the issue kernel), cluster
    /// steps *not* taken because the cluster was parked on a cycle the
    /// machine stepped (with the first, what an engine that parks
    /// nobody steps), and memory-module steps taken (one per active
    /// module per memory cycle).
    pub fn work(&self) -> [u64; 3] {
        self.work
    }
}

impl Probe for HostLayers {
    const ENABLED: bool = false;
    const HOST_TIMING: bool = true;

    fn record(&mut self, _ctx: &SampleCtx<'_>) {}

    fn host_lap(&mut self, layer: Option<HostLayer>) {
        let now = std::time::Instant::now();
        if let (Some(layer), Some(last)) = (layer, self.last) {
            self.ns[layer as usize] += (now - last).as_nanos() as u64;
        }
        self.last = Some(now);
    }

    fn host_work(&mut self, work: [u64; 3]) {
        for (count, n) in self.work.iter_mut().zip(work) {
            *count += n;
        }
    }
}

/// One materialized sample: per-interval deltas plus instantaneous
/// occupancy at the boundary. Produced by [`IntervalProbe::rows`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalRow {
    /// Nominal interval boundary (see [`SampleCtx::boundary`]).
    pub boundary: u64,
    /// Machine clock at the sample (see [`SampleCtx::cycle`]).
    pub cycle: u64,
    /// Parallel-section index, `None` in serial mode.
    pub spawn: Option<u64>,
    /// Instructions issued during the interval.
    pub instructions: u64,
    /// FP operations completed during the interval.
    pub flops: u64,
    /// Memory reads issued during the interval.
    pub mem_reads: u64,
    /// Memory writes issued during the interval.
    pub mem_writes: u64,
    /// Threads started during the interval.
    pub threads: u64,
    /// Scoreboard stall cycles accrued during the interval.
    pub stall_scoreboard: u64,
    /// FPU-port stall cycles accrued during the interval.
    pub stall_fpu: u64,
    /// MDU-port stall cycles accrued during the interval.
    pub stall_mdu: u64,
    /// LSU/NoC/memory stall cycles accrued during the interval.
    pub stall_lsu: u64,
    /// DRAM bytes moved during the interval.
    pub dram_bytes: u64,
    /// Flits injected into either NoC during the interval.
    pub noc_injected: u64,
    /// Flits delivered by either NoC during the interval.
    pub noc_delivered: u64,
    /// NoC injection rejections (backpressure) during the interval.
    pub noc_rejections: u64,
    /// Flits inside both NoCs at the boundary.
    pub noc_in_flight: u64,
    /// Memory transactions in flight at the boundary.
    pub txns_in_flight: u64,
    /// TCUs blocked at the boundary, by cause.
    pub blocked: BlockedTcus,
    /// Requests queued inside memory modules at the boundary.
    pub module_queue: u64,
    /// DRAM single-bit errors corrected by ECC during the interval.
    pub ecc_corrected: u64,
    /// DRAM double-bit errors detected by SECDED during the interval.
    pub ecc_detected: u64,
    /// NoC flits corrupted in flight during the interval.
    pub noc_corrupted: u64,
    /// NoC flit redeliveries (fault retries) during the interval.
    pub noc_retried: u64,
    /// Per-DRAM-channel busy cycles during the interval.
    pub channel_busy: Vec<u64>,
    /// Per-DRAM-channel queue depth at the boundary.
    pub channel_queue: Vec<u64>,
}

/// Scalar `u64` fields of an [`IntervalRow`].
const ROW_WORDS: usize = 26;

// The scalar block in row-codec order: what the probe's ring stores per
// slot and what the job service's row format writes (`spawn` and the
// per-channel series travel beside it).
crate::word_codec!(
    pub IntervalRow,
    ROW_WORDS,
    [
        boundary,
        cycle,
        instructions,
        flops,
        mem_reads,
        mem_writes,
        threads,
        stall_scoreboard,
        stall_fpu,
        stall_mdu,
        stall_lsu,
        dram_bytes,
        noc_injected,
        noc_delivered,
        noc_rejections,
        noc_in_flight,
        txns_in_flight,
        blocked.scoreboard,
        blocked.fpu,
        blocked.mdu,
        blocked.lsu,
        module_queue,
        ecc_corrected,
        ecc_detected,
        noc_corrupted,
        noc_retried,
    ]
);

/// Cumulative counters as of the previous sample (for deltas).
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    stats: MachineStats,
    dram_bytes: u64,
    noc_injected: u64,
    noc_delivered: u64,
    noc_rejections: u64,
    ecc_corrected: u64,
    ecc_detected: u64,
    noc_corrupted: u64,
    noc_retried: u64,
}

impl Snapshot {
    /// The cumulative counters as `ctx` shows them now.
    fn of(ctx: &SampleCtx<'_>) -> Snapshot {
        Snapshot {
            stats: *ctx.stats,
            dram_bytes: ctx.dram_bytes(),
            noc_injected: ctx.req_net.injected + ctx.reply_net.injected,
            noc_delivered: ctx.req_net.delivered + ctx.reply_net.delivered,
            noc_rejections: ctx.req_net.inject_rejections + ctx.reply_net.inject_rejections,
            ecc_corrected: ctx.channels.iter().map(|c| c.stats.ecc_corrected).sum(),
            ecc_detected: ctx.channels.iter().map(|c| c.stats.ecc_detected).sum(),
            noc_corrupted: ctx.req_net.corrupted + ctx.reply_net.corrupted,
            noc_retried: ctx.req_net.retried + ctx.reply_net.retried,
        }
    }
}

/// Time-sliced counter probe: samples every `interval` cycles into a
/// fixed ring of `capacity` rows (oldest rows are overwritten once the
/// ring is full; [`IntervalProbe::dropped`] reports how many).
///
/// All storage is allocated once in [`Probe::bind`]: a ring slot is a
/// row's `spawn` and scalar words ([`IntervalRow::to_words`]), and the
/// per-channel series live in flat `capacity × channels` arrays beside
/// the ring.
#[derive(Debug, Clone)]
pub struct IntervalProbe {
    interval: u64,
    capacity: usize,
    nchan: usize,
    /// Samples recorded over the whole run (ring slot = `seq % capacity`).
    seq: u64,
    ring: Vec<(Option<u64>, [u64; ROW_WORDS])>,
    chan_busy: Vec<u64>,
    chan_queue: Vec<u64>,
    last: Snapshot,
    last_chan_busy: Vec<u64>,
}

impl IntervalProbe {
    /// Probe sampling every `interval` cycles, keeping the most recent
    /// `capacity` samples.
    pub fn new(interval: u64, capacity: usize) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        assert!(capacity > 0, "ring capacity must be positive");
        Self {
            interval,
            capacity,
            nchan: 0,
            seq: 0,
            ring: Vec::new(),
            chan_busy: Vec::new(),
            chan_queue: Vec::new(),
            last: Snapshot::default(),
            last_chan_busy: Vec::new(),
        }
    }

    /// Samples recorded over the whole run (including overwritten ones).
    pub fn samples(&self) -> u64 {
        self.seq
    }

    /// Samples lost to ring overwrite.
    pub fn dropped(&self) -> u64 {
        self.seq.saturating_sub(self.capacity as u64)
    }

    /// Cumulative statistics as of the last sample. After the machine's
    /// end-of-run flush this equals the run's final aggregates — the
    /// invariant the probe-correctness tests pin (and unlike summing
    /// [`IntervalProbe::rows`], it survives ring overwrite).
    pub fn totals(&self) -> MachineStats {
        self.last.stats
    }

    /// The retained samples, oldest first, materialized with their
    /// per-channel series.
    pub fn rows(&self) -> Vec<IntervalRow> {
        self.slots()
            .zip(self.scalar_rows())
            .map(|(slot, row)| {
                let chan = slot * self.nchan..(slot + 1) * self.nchan;
                IntervalRow {
                    channel_busy: self.chan_busy[chan.clone()].to_vec(),
                    channel_queue: self.chan_queue[chan].to_vec(),
                    ..row
                }
            })
            .collect()
    }

    /// The retained samples, oldest first, without their per-channel
    /// series (`channel_busy` and `channel_queue` are empty): a reader
    /// of the scalar fields allocates nothing per row.
    pub fn scalar_rows(&self) -> impl Iterator<Item = IntervalRow> + '_ {
        self.slots().map(|slot| {
            let (spawn, words) = self.ring[slot];
            IntervalRow {
                spawn,
                ..IntervalRow::from_words(words)
            }
        })
    }

    /// The ring slots of the retained samples, oldest first.
    fn slots(&self) -> impl Iterator<Item = usize> {
        let capacity = self.capacity as u64;
        (self.seq.saturating_sub(capacity)..self.seq).map(move |s| (s % capacity) as usize)
    }
}

/// A same-word, cross-thread conflict observed by [`RaceCheck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// Parallel-section index the conflict occurred in.
    pub spawn: u64,
    /// The contested word address.
    pub addr: u32,
    /// Thread whose access reached the word's home module first.
    pub first_tid: u32,
    /// Thread whose access completed the conflict.
    pub second_tid: u32,
    /// True when the earlier access was a write.
    pub first_is_write: bool,
    /// True when the later access was a write.
    pub second_is_write: bool,
}

/// Which threads have touched one word within the current spawn.
#[derive(Debug, Clone, Copy, Default)]
struct WordState {
    writer: Option<u32>,
    reader: Option<u32>,
    /// One conflict per word is enough evidence; don't flood.
    reported: bool,
}

/// Dynamic happens-before oracle for the static race detector in
/// `xmt-verify`: records, per parallel section, the first writer and
/// first reader of every touched word in the order requests arrive at
/// their home memory modules (the machine's definition of memory
/// order), and materializes a [`Conflict`] whenever two *distinct*
/// threads touch the same word and at least one of them writes.
///
/// Within a spawn there is no ordering between threads, so any such
/// pair is a data race *witnessed on this execution* — the oracle has
/// no false positives, and a static `race` finding it cannot reproduce
/// is either input-dependent or a conservative ⊤-widening. Word state
/// resets at each spawn boundary: the `spawn`/`join` barrier orders
/// everything across sections.
///
/// Test-only by design: it allocates per touched word and therefore
/// perturbs nothing it measures (the functional memory order is
/// engine-invariant), but it is not part of the zero-cost sampling
/// path and should not be attached to benchmark runs.
#[derive(Debug, Clone, Default)]
pub struct RaceCheck {
    cur_spawn: Option<u64>,
    words: HashMap<u32, WordState>,
    conflicts: Vec<Conflict>,
}

impl RaceCheck {
    /// A fresh oracle with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every conflict observed, in memory order.
    pub fn conflicts(&self) -> &[Conflict] {
        &self.conflicts
    }
}

impl Probe for RaceCheck {
    const ENABLED: bool = true;

    fn record(&mut self, _ctx: &SampleCtx<'_>) {}

    fn mem_access(&mut self, spawn: Option<u64>, tid: u32, addr: u32, is_write: bool) {
        let Some(spawn) = spawn else {
            return; // serial mode: single-threaded by construction
        };
        if self.cur_spawn != Some(spawn) {
            self.words.clear();
            self.cur_spawn = Some(spawn);
        }
        let w = self.words.entry(addr).or_default();
        let prior = match (w.writer, w.reader) {
            // A prior *write* by another thread conflicts with
            // anything; a prior read only conflicts with a write.
            (Some(pw), _) if pw != tid => Some((pw, true)),
            (_, Some(pr)) if pr != tid && is_write => Some((pr, false)),
            _ => None,
        };
        if let Some((first_tid, first_is_write)) = prior {
            if !w.reported {
                w.reported = true;
                self.conflicts.push(Conflict {
                    spawn,
                    addr,
                    first_tid,
                    second_tid: tid,
                    first_is_write,
                    second_is_write: is_write,
                });
            }
        }
        if is_write {
            w.writer.get_or_insert(tid);
        } else {
            w.reader.get_or_insert(tid);
        }
    }
}

impl Probe for IntervalProbe {
    const ENABLED: bool = true;

    fn bind(&mut self, cfg: &XmtConfig) {
        self.nchan = cfg.dram_channels();
        self.ring = vec![(None, [0; ROW_WORDS]); self.capacity];
        self.chan_busy = vec![0; self.capacity * self.nchan];
        self.chan_queue = vec![0; self.capacity * self.nchan];
        self.last_chan_busy = vec![0; self.nchan];
        self.seq = 0;
        self.last = Snapshot::default();
    }

    fn interval(&self) -> u64 {
        self.interval
    }

    fn record(&mut self, ctx: &SampleCtx<'_>) {
        let slot = (self.seq % self.capacity as u64) as usize;
        let (now, last) = (Snapshot::of(ctx), &self.last);
        let (s, p) = (&now.stats, &last.stats);
        // An `IntervalRow` with empty series allocates nothing.
        let row = IntervalRow {
            boundary: ctx.boundary,
            cycle: ctx.cycle,
            spawn: ctx.spawn,
            instructions: s.instructions - p.instructions,
            flops: s.flops - p.flops,
            mem_reads: s.mem_reads - p.mem_reads,
            mem_writes: s.mem_writes - p.mem_writes,
            threads: s.threads - p.threads,
            stall_scoreboard: s.stall_scoreboard - p.stall_scoreboard,
            stall_fpu: s.stall_fpu - p.stall_fpu,
            stall_mdu: s.stall_mdu - p.stall_mdu,
            stall_lsu: s.stall_lsu - p.stall_lsu,
            dram_bytes: now.dram_bytes - last.dram_bytes,
            noc_injected: now.noc_injected - last.noc_injected,
            noc_delivered: now.noc_delivered - last.noc_delivered,
            noc_rejections: now.noc_rejections - last.noc_rejections,
            noc_in_flight: ctx.noc_in_flight,
            txns_in_flight: ctx.txns_in_flight,
            blocked: ctx.blocked,
            module_queue: ctx.modules.iter().map(|m| m.outstanding() as u64).sum(),
            ecc_corrected: now.ecc_corrected - last.ecc_corrected,
            ecc_detected: now.ecc_detected - last.ecc_detected,
            noc_corrupted: now.noc_corrupted - last.noc_corrupted,
            noc_retried: now.noc_retried - last.noc_retried,
            channel_busy: Vec::new(),
            channel_queue: Vec::new(),
        };
        self.ring[slot] = (row.spawn, row.to_words());
        let base = slot * self.nchan;
        for (k, ch) in ctx.channels.iter().enumerate() {
            self.chan_busy[base + k] = ch.stats.busy_cycles - self.last_chan_busy[k];
            self.chan_queue[base + k] = ch.pending() as u64;
            self.last_chan_busy[k] = ch.stats.busy_cycles;
        }
        self.last = now;
        self.seq += 1;
    }
}
