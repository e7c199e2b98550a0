//! Simulation-as-a-service: a batch job server over the XMT simulator.
//!
//! The simulator crates expose one-machine-at-a-time APIs: build a
//! [`xmt_sim::Machine`], run it, read the report. Reproducing the
//! paper's tables means running *batches* — the five golden
//! configurations, fault sweeps, scaling curves — and long paper-scale
//! runs monopolize whatever thread they run on. This crate turns those
//! requests into *jobs*:
//!
//! - A [`SimRequest`] names a workload ([`WorkloadSpec`]) plus a
//!   [`xmt_sim::SimConfig`] request value — the same value the bench
//!   binaries lower onto builders, here used additionally as the
//!   content-address of the result.
//! - [`Server::submit`] queues the request and returns a [`JobHandle`]
//!   to poll, wait on, stream probe rows from, or cancel.
//! - A pool of host worker threads drains the queue. Long jobs are
//!   **preempted at quiescent points** every `quantum` simulated
//!   cycles and requeued at the back with their machine — round-robin
//!   fairness, so a paper-scale FFT cannot starve the rest of a sweep.
//!   The next slice runs the same machine onward on whichever worker
//!   pops the job; nothing is serialized between slices.
//! - Completed unprobed runs are stored in a **content-addressed
//!   result cache** (LRU in memory, optionally persisted to disk),
//!   keyed by `(workload, program digest, SimConfig cache key)`.
//!   Resubmitting a bit-identical request is served from cache with
//!   byte-identical report bytes; changing only the advance engine
//!   still hits (engines are bit-identical by contract).
//! - Probed requests stream their [`xmt_sim::IntervalRow`]s to the
//!   handle incrementally, slice by slice; preemption is invisible in
//!   the stream (the probe stays on the paused machine).
//! - A worker killed mid-job ([`Server::kill_worker`]) loses its
//!   in-flight slice and the machine: the job runs again from cycle 0
//!   on the surviving workers and still produces bit-identical
//!   results, sending no probe row and billing no cycle twice. A
//!   restart on the write-ahead journal does the same for every job
//!   that was in flight: the journal records decisions, not machine
//!   state.
//!   Failed simulations surface through the partial-report path of
//!   [`xmt_sim::RunOutcome`] rather than poisoning the queue.
//!
//! See DESIGN.md §16 for the service architecture and the cache-key
//! contract.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod job;
pub mod journal;
pub mod net;
pub mod request;
pub mod server;
pub mod wire;

pub use cache::{CacheStats, ResultCache};
pub use client::{Client, ClientConfig, ClientError, RemoteResult};
pub use job::{JobError, JobId, JobResult, JobState, JobStatus, Lane};
pub use journal::Journal;
pub use net::{NetServer, RemoteStats};
pub use request::{SimRequest, WorkloadSpec};
pub use server::{JobHandle, QuotaPolicy, Server, ServerConfig, ServerStats, Submission};
pub use wire::{
    decode_report, decode_request, decode_row, encode_report, encode_request, encode_row,
};
