//! # xmt-sim — cycle-level simulator of the XMT many-core
//!
//! The workspace's stand-in for XMTSim (Section III-A of the paper):
//! a cycle-stepped model of the architecture in Fig. 1 — MTCU, TCU
//! clusters with shared functional units, prefix-sum unit, spawn/join
//! broadcast, hybrid MoT/butterfly interconnect and hashed memory
//! modules over shared DRAM channels.
//!
//! * [`config`] — the five Table II/III architecture configurations and
//!   proportionally scaled variants for tractable simulation.
//! * [`physical`] — silicon area / power / off-chip I/O model
//!   (reproduces Table III and the Table VI power figures).
//! * [`machine`] — the simulator proper; functionally exact (shares the
//!   `xmt-isa` semantic core) and timed.
//! * [`perfmodel`] — the calibrated bottleneck model used to project
//!   paper-scale (512³, 131,072-TCU) runs that the cycle simulator
//!   cannot execute directly.
//! * [`probe`] / [`trace`] — cycle-resolved observability: zero-cost
//!   [`Probe`] hooks sampled every K cycles into fixed ring buffers,
//!   exported as Chrome `trace_event` JSON or a per-phase roofline /
//!   stall-attribution table.
//! * [`tier`] — the block-compiled execution tier: a per-program trace
//!   cache of superblock micro-ops that the issue loops replay via
//!   dense dispatch, bit-identical to per-instruction interpretation.
//! * [`bytes`] — the little-endian writer/reader every binary format
//!   (checkpoints here; reports, requests, frames and journal records
//!   in `xmt-server`) is built from.
//! * [`fault`] / [`checkpoint`] — deterministic resilience: seeded
//!   [`FaultPlan`]s (ECC-checked DRAM flips, NoC corruption + retry,
//!   dead/stuck components), graceful degradation around offline
//!   clusters and channels, and quiescent-point [`Checkpoint`]
//!   snapshots that resume bit-identically.

#![warn(missing_docs)]
pub mod bytes;
pub mod checkpoint;
pub mod config;
pub mod energy;
pub mod fault;
pub mod machine;
pub mod perfmodel;
pub mod physical;
pub mod probe;
pub mod simcfg;
pub mod tier;
pub mod trace;
mod txn;

pub use checkpoint::Checkpoint;
pub use config::XmtConfig;
pub use energy::{gflops_per_watt, phase_energy, EnergyBreakdown, EnergyModel};
pub use fault::{FaultPlan, TcuId};
pub use machine::{
    Engine, Machine, MachineBuilder, MachineStats, RegLayout, RunOutcome, RunReport, RunStatus,
    SimError, SpawnStats, UtilizationReport, UNIT_LAT,
};
pub use perfmodel::{phase_time, run_phases, Bottleneck, PhaseDemand, PhaseTime};
pub use physical::{summarize, PhysicalSummary};
pub use probe::{
    BlockedTcus, Conflict, HostLayer, HostLayers, IntervalProbe, IntervalRow, NoProbe, Probe,
    RaceCheck, SampleCtx,
};
pub use simcfg::{program_digest, SimConfig};
pub use tier::{TraceCache, TraceStats, TranslationTier};
pub use trace::{chrome_trace, phase_table};
