//! Quiescent-state checkpointing.
//!
//! A [`Checkpoint`] captures everything a machine needs to resume a run
//! bit-identically: the architectural state (memory image, global and
//! MTCU registers, mode PC, PS-unit counters), the accumulated
//! statistics, and the replayable component state (cache tag stores,
//! DRAM-channel stats plus the ECC fault-stream cursor, NoC counters
//! plus the link-fault cursor). Checkpoints are only taken at
//! *quiescent* points — serial mode with the whole memory system
//! drained — so no in-flight transaction, NoC flit or DRAM transfer
//! ever needs to be serialized; [`crate::Machine::run_until`] finds
//! such a point on request.
//!
//! The byte format ([`Checkpoint::to_bytes`]) is versioned
//! little-endian with explicit geometry, so a stale or mismatched blob
//! is rejected with a typed [`SimError`] instead of resuming garbage.

use crate::bytes::{put_u32, put_u32s, put_u64, put_u64s, put_words, Reader};
use crate::machine::{MachineStats, SimError, SpawnStats};
use xmt_mem::{CacheStats, DramStats, ModuleStats};
use xmt_noc::NetStats;

/// Format magic: "XMTCKPT" plus a format version byte. Version 2 added
/// `mem_clock`; a version-1 blob fails the magic check like any other
/// foreign byte string.
const MAGIC: u64 = 0x584D_5443_4B50_5402;

/// Per-module replayable state: the cache tag store and counters.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ModuleState {
    pub(crate) tags: Vec<u64>,
    pub(crate) cache: CacheStats,
    pub(crate) module: ModuleStats,
}

/// Per-channel replayable state: counters plus the ECC fault cursor.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChannelState {
    pub(crate) stats: DramStats,
    pub(crate) transfers: u64,
}

/// A resumable snapshot of a quiescent [`crate::Machine`]. Produced by
/// [`crate::Machine::checkpoint`], consumed by
/// [`crate::MachineBuilder::resume`]; serializable via
/// [`Checkpoint::to_bytes`] / [`Checkpoint::from_bytes`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    // Geometry — validated against the resuming builder's config.
    pub(crate) clusters: u32,
    pub(crate) tcus_per_cluster: u32,
    pub(crate) memory_modules: u32,
    pub(crate) dram_channels: u32,
    pub(crate) prog_len: u32,
    // Architectural state.
    pub(crate) cycle: u64,
    /// The memory-side clock (NoCs, modules, DRAM channels). Not
    /// derivable from `cycle` — it trails it by the spawn-broadcast
    /// cycles — and architectural: the butterfly NoC's alternating
    /// arbitration priority is this clock's parity.
    pub(crate) mem_clock: u64,
    pub(crate) pc: u32,
    pub(crate) next_tid: u32,
    pub(crate) spawn_count: u32,
    pub(crate) spawn_entry: u32,
    pub(crate) gregs: Vec<u32>,
    pub(crate) mtcu_iregs: Vec<u32>,
    pub(crate) mtcu_fregs: Vec<u32>,
    pub(crate) mem: Vec<u32>,
    // Accumulated observables.
    pub(crate) stats: MachineStats,
    pub(crate) spawn_log: Vec<SpawnStats>,
    /// The machine's round-robin counter, once per cluster (the format
    /// dates from a copy per cluster; `resume` requires them equal).
    pub(crate) cluster_rr: Vec<u32>,
    pub(crate) cluster_instr: Vec<u64>,
    pub(crate) modules: Vec<ModuleState>,
    pub(crate) channels: Vec<ChannelState>,
    pub(crate) req_stats: NetStats,
    pub(crate) reply_stats: NetStats,
}

impl Checkpoint {
    /// The machine cycle the checkpoint was taken at.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Serialize to the versioned little-endian byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64 + self.mem.len() * 4);
        put_u64(&mut b, MAGIC);
        for v in [
            self.clusters,
            self.tcus_per_cluster,
            self.memory_modules,
            self.dram_channels,
            self.prog_len,
            self.pc,
            self.next_tid,
            self.spawn_count,
            self.spawn_entry,
        ] {
            put_u32(&mut b, v);
        }
        put_u64(&mut b, self.cycle);
        put_u64(&mut b, self.mem_clock);
        put_u32s(&mut b, &self.gregs);
        put_u32s(&mut b, &self.mtcu_iregs);
        put_u32s(&mut b, &self.mtcu_fregs);
        put_u32s(&mut b, &self.mem);
        put_words(&mut b, &self.stats.to_words());
        put_u32(&mut b, self.spawn_log.len() as u32);
        for s in &self.spawn_log {
            put_words(&mut b, &s.to_words());
        }
        put_u32s(&mut b, &self.cluster_rr);
        put_u64s(&mut b, &self.cluster_instr);
        put_u32(&mut b, self.modules.len() as u32);
        for m in &self.modules {
            put_u64s(&mut b, &m.tags);
            for v in [
                m.cache.accesses,
                m.cache.hits,
                m.cache.misses,
                m.cache.writebacks,
            ] {
                put_u64(&mut b, v);
            }
            put_u64(&mut b, m.cache.peak_queue as u64);
            put_u64(&mut b, m.module.merged_misses);
            put_u64(&mut b, m.module.responses);
        }
        put_u32(&mut b, self.channels.len() as u32);
        for c in &self.channels {
            put_dram_stats(&mut b, &c.stats);
            put_u64(&mut b, c.transfers);
        }
        put_net_stats(&mut b, &self.req_stats);
        put_net_stats(&mut b, &self.reply_stats);
        b
    }

    /// Parse the byte format; rejects truncated, corrupt or
    /// differently-versioned blobs with a typed error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, SimError> {
        Self::decode(bytes).map_err(|what| SimError::InvalidConfig { what })
    }

    fn decode(bytes: &[u8]) -> Result<Checkpoint, &'static str> {
        let mut r = Reader::new(bytes);
        if r.u64()? != MAGIC {
            return Err("checkpoint magic/version mismatch");
        }
        // Field initializers run in the order written: format order.
        let cp = Checkpoint {
            clusters: r.u32()?,
            tcus_per_cluster: r.u32()?,
            memory_modules: r.u32()?,
            dram_channels: r.u32()?,
            prog_len: r.u32()?,
            pc: r.u32()?,
            next_tid: r.u32()?,
            spawn_count: r.u32()?,
            spawn_entry: r.u32()?,
            cycle: r.u64()?,
            mem_clock: r.u64()?,
            gregs: r.u32s()?,
            mtcu_iregs: r.u32s()?,
            mtcu_fregs: r.u32s()?,
            mem: r.u32s()?,
            stats: MachineStats::from_words(r.words()?),
            spawn_log: (0..r.count()?)
                .map(|_| Ok(SpawnStats::from_words(r.words()?)))
                .collect::<Result<_, &'static str>>()?,
            cluster_rr: r.u32s()?,
            cluster_instr: r.u64s()?,
            modules: (0..r.count()?)
                .map(|_| module_state(&mut r))
                .collect::<Result<_, _>>()?,
            channels: (0..r.count()?)
                .map(|_| {
                    Ok(ChannelState {
                        stats: dram_stats(&mut r)?,
                        transfers: r.u64()?,
                    })
                })
                .collect::<Result<_, &'static str>>()?,
            req_stats: net_stats(&mut r)?,
            reply_stats: net_stats(&mut r)?,
        };
        if !r.at_end() {
            return Err("trailing bytes after checkpoint payload");
        }
        Ok(cp)
    }
}

fn module_state(r: &mut Reader<'_>) -> Result<ModuleState, &'static str> {
    let tags = r.u64s()?;
    if tags.iter().any(|&word| word > u64::from(u32::MAX)) {
        return Err("cache tag word beyond 32 bits");
    }
    Ok(ModuleState {
        tags,
        cache: CacheStats {
            accesses: r.u64()?,
            hits: r.u64()?,
            misses: r.u64()?,
            writebacks: r.u64()?,
            peak_queue: r.u64()? as usize,
        },
        module: ModuleStats {
            merged_misses: r.u64()?,
            responses: r.u64()?,
        },
    })
}

fn put_dram_stats(b: &mut Vec<u8>, s: &DramStats) {
    for v in [
        s.reads,
        s.writes,
        s.bytes,
        s.busy_cycles,
        s.peak_queue as u64,
        s.ecc_corrected,
        s.ecc_detected,
        s.ecc_retries,
        s.ecc_unrecoverable,
    ] {
        put_u64(b, v);
    }
}

fn put_net_stats(b: &mut Vec<u8>, s: &NetStats) {
    for v in [
        s.injected,
        s.delivered,
        s.total_latency,
        s.peak_in_flight as u64,
        s.inject_rejections,
        s.corrupted,
        s.retried,
        s.retry_exhausted,
    ] {
        put_u64(b, v);
    }
}

fn dram_stats(r: &mut Reader<'_>) -> Result<DramStats, &'static str> {
    Ok(DramStats {
        reads: r.u64()?,
        writes: r.u64()?,
        bytes: r.u64()?,
        busy_cycles: r.u64()?,
        peak_queue: r.u64()? as usize,
        ecc_corrected: r.u64()?,
        ecc_detected: r.u64()?,
        ecc_retries: r.u64()?,
        ecc_unrecoverable: r.u64()?,
    })
}

fn net_stats(r: &mut Reader<'_>) -> Result<NetStats, &'static str> {
    Ok(NetStats {
        injected: r.u64()?,
        delivered: r.u64()?,
        total_latency: r.u64()?,
        peak_in_flight: r.u64()? as usize,
        inject_rejections: r.u64()?,
        corrupted: r.u64()?,
        retried: r.u64()?,
        retry_exhausted: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            clusters: 4,
            tcus_per_cluster: 32,
            memory_modules: 4,
            dram_channels: 1,
            prog_len: 17,
            cycle: 12345,
            mem_clock: 12301,
            pc: 9,
            next_tid: 64,
            spawn_count: 64,
            spawn_entry: 4,
            gregs: (0..16).collect(),
            mtcu_iregs: (100..132).collect(),
            mtcu_fregs: (200..232).collect(),
            mem: (0..512).collect(),
            stats: MachineStats {
                cycles: 12345,
                instructions: 999,
                threads: 64,
                ..Default::default()
            },
            spawn_log: vec![SpawnStats {
                index: 0,
                threads: 64,
                start_cycle: 10,
                cycles: 400,
                ..Default::default()
            }],
            cluster_rr: vec![1, 2, 3, 4],
            cluster_instr: vec![10, 20, 30, 40],
            modules: (0..4)
                .map(|i| ModuleState {
                    tags: vec![i, 0, i << 2 | 3],
                    cache: CacheStats {
                        accesses: 100 + i,
                        hits: 90,
                        misses: 10,
                        writebacks: 2,
                        peak_queue: 5,
                    },
                    module: ModuleStats {
                        merged_misses: 1,
                        responses: 100,
                    },
                })
                .collect(),
            channels: vec![ChannelState {
                stats: DramStats {
                    reads: 10,
                    bytes: 640,
                    ecc_detected: 1,
                    ..Default::default()
                },
                transfers: 12,
            }],
            req_stats: NetStats {
                injected: 128,
                delivered: 128,
                total_latency: 900,
                peak_in_flight: 17,
                inject_rejections: 3,
                ..Default::default()
            },
            reply_stats: NetStats {
                injected: 128,
                delivered: 128,
                corrupted: 2,
                retried: 2,
                ..Default::default()
            },
        }
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let cp = sample();
        let bytes = cp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(cp, back);
    }

    #[test]
    fn truncation_is_rejected_everywhere() {
        let bytes = sample().to_bytes();
        for cut in [0, 4, 7, 8, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Checkpoint::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn bad_magic_and_trailing_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xFF;
        assert!(Checkpoint::from_bytes(&bytes).is_err());
        bytes[0] ^= 0xFF;
        bytes.push(0);
        assert!(Checkpoint::from_bytes(&bytes).is_err());
    }
}
