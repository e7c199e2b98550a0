//! # xmt-mem — the XMT shared-memory subsystem
//!
//! Models the memory side of Fig. 1 of the paper: the global address
//! space is hash-partitioned across memory modules ([`hash`]); each
//! module has an on-chip cache slice servicing queued requests in order
//! ([`cache`], [`module`]; a machine's modules share the arenas their
//! queues are chained through) and shares an off-chip DRAM channel with
//! its neighbours ([`dram`]). There are no TCU-side data caches and no
//! coherence protocol — every address has one home module, and within a
//! module same-location order is preserved (Section II-A).

#![warn(missing_docs)]
pub mod cache;
pub mod dram;
pub mod hash;
pub mod module;

pub use cache::{CacheBank, CacheConfig, CacheStats, MemReq, MemResp, Service};
pub use dram::{DramChannel, DramConfig, DramDone, DramReq, DramStats, EccConfig};
pub use hash::AddressHash;
pub use module::{ChannelRequest, MemoryModule, MemoryModules, Module, ModuleStats};
