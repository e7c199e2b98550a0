//! What a run reports and how it can fail: the typed [`SimError`], the
//! [`RunStatus`] / [`RunOutcome`] pair every `run*` entry point
//! returns, and the counters and per-phase statistics inside a
//! [`RunReport`].

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
    pub(super) fn stamped(mut self, cycle: u64) -> Self {
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
    /// [`Machine::run_until`](crate::Machine::run_until) paused at the first quiescent cycle at or
    /// after the requested pause point; [`Machine::checkpoint`](crate::Machine::checkpoint) can
    /// snapshot the machine, or the run can simply continue.
    Paused {
        /// Cycle the machine paused on.
        at_cycle: u64,
    },
    /// The run stopped on a typed error ([`SimError::cycle`] gives the
    /// failure cycle); the report is partial, as of that cycle.
    Failed(SimError),
}

/// Everything [`Machine::run`](crate::Machine::run) / [`Machine::run_until`](crate::Machine::run_until) reports: a
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

/// `to_words`/`from_words` for a struct's `u64`-like fields: the field
/// order every byte codec (checkpoints, the job service's report, row
/// and statistics formats) writes, stated once. Changing a list changes
/// those formats. A field may be a path into a nested struct
/// (`blocked.fpu`); fields left out of the list keep their `Default`
/// through `from_words`. (The casts are for the fields that are `usize`.)
#[macro_export]
macro_rules! word_codec {
    ($vis:vis $ty:ident, $n:expr, [$($($field:ident).+),* $(,)?]) => {
        impl $ty {
            /// The listed fields in codec order.
            $vis fn to_words(&self) -> [u64; $n] {
                [$(self.$($field).+ as u64),*]
            }

            /// Inverse of `to_words`.
            $vis fn from_words(words: [u64; $n]) -> Self {
                let mut v = <$ty>::default();
                let mut words = words.into_iter();
                $(v.$($field).+ = words.next().expect("one word per listed field") as _;)*
                v
            }
        }
    };
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

word_codec!(
    pub MachineStats,
    11,
    [
        cycles,
        instructions,
        flops,
        mem_reads,
        mem_writes,
        threads,
        spawns,
        stall_scoreboard,
        stall_fpu,
        stall_mdu,
        stall_lsu
    ]
);

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

word_codec!(
    pub SpawnStats,
    13,
    [
        index,
        threads,
        start_cycle,
        cycles,
        instructions,
        flops,
        mem_reads,
        mem_writes,
        dram_bytes,
        stall_scoreboard,
        stall_fpu,
        stall_mdu,
        stall_lsu
    ]
);

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

/// Post-run utilization snapshot (see [`Machine::utilization`](crate::Machine::utilization)).
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
/// [`Machine::run`](crate::Machine::run) in one move.
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
