//! The block-compiled execution tier's runtime half: the per-program
//! trace cache (DESIGN.md §15).
//!
//! `xmt_isa::block` provides the build-time pieces — superblock
//! extraction ([`BlockMap`]) and per-instruction lowering into flat
//! [`MicroOp`] records. This module owns the *cache*: one pre-sized
//! micro-op slot per program counter, filled a superblock at a time the
//! first time execution enters the block. The issue loops replay warm
//! slots with a dense one-byte dispatch and fall back to the
//! per-instruction interpreter path at every machine-level boundary,
//! which is why enabling the tier cannot move a single cycle:
//! the lowered records compute the same values through the same
//! `eval_*` kernels, and everything with scheduling consequences still
//! runs the original code.

use xmt_isa::block::{lower_op, BlockMap, MicroOp, UnitLat, UopKind};
use xmt_isa::decoded::DecodedProgram;

/// Which execution tier the parallel issue loops use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TranslationTier {
    /// Per-instruction dispatch through the decoded stream only — the
    /// pre-tier simulator, byte for byte.
    Interpreter,
    /// Trace-cache replay of superblocks (the default). Bit-identical
    /// cycle accounting; the golden and engine-agreement suites pin
    /// this with the tier on and off.
    #[default]
    Block,
}

/// Counters describing how the trace cache was exercised. Fully
/// deterministic for a given (program, config, engine): `bench_sim
/// --check` asserts they repeat between runs and match the committed
/// `trace` rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Superblocks in the program (static).
    pub blocks: u64,
    /// Superblocks actually lowered (lazily on first entry, or all of
    /// them after [`TraceCache::lower_all`]).
    pub lowered: u64,
    /// Micro-ops materialized by those lowerings.
    pub uops: u64,
    /// Trace entries via branch/jump resolution. Thread activations
    /// also enter a trace (at the spawn entry block) but are already
    /// counted by `MachineStats::threads`; callers wanting total
    /// entries add the two.
    pub entries: u64,
}

/// The per-(program, pc) trace cache: superblock map plus one micro-op
/// slot per pc, lowered per block on first entry.
#[derive(Debug, Clone)]
pub struct TraceCache {
    map: BlockMap,
    uops: Vec<MicroOp>,
    lat: UnitLat,
    stats: TraceStats,
}

impl TraceCache {
    /// Size a cold cache for `decoded`. `fpu_lat`/`mdu_lat` are the
    /// simulator's unit latencies, baked into each lowered record.
    pub fn new(decoded: &DecodedProgram, fpu_lat: u64, mdu_lat: u64) -> Self {
        let map = BlockMap::new(decoded);
        let blocks = map.blocks() as u64;
        Self {
            map,
            uops: vec![MicroOp::COLD; decoded.len()],
            lat: UnitLat {
                fpu: fpu_lat as u8,
                mdu: mdu_lat as u8,
            },
            stats: TraceStats {
                blocks,
                ..TraceStats::default()
            },
        }
    }

    /// Read the slot at `pc`, lowering its whole superblock first if
    /// this is the first entry. The hot path is one indexed load plus a
    /// byte compare.
    #[inline(always)]
    pub fn fetch_warm(&mut self, decoded: &DecodedProgram, pc: usize) -> MicroOp {
        let u = self.uops[pc];
        if u.kind == UopKind::Cold {
            return self.warm(decoded, pc);
        }
        u
    }

    /// Miss path: lower the superblock containing `pc`. `pc` is usually
    /// a block leader (every seam the issue loops re-enter through —
    /// spawn entries, branch targets, fall-throughs past a terminator —
    /// is one by construction), but mid-block entry is handled too, so
    /// any missed seam degrades to a lowering, never to wrong replay.
    #[cold]
    fn warm(&mut self, decoded: &DecodedProgram, pc: usize) -> MicroOp {
        let entry = self.map.leader_of(pc);
        let len = self.map.block_len(entry);
        for p in entry..entry + len {
            let ends = p + 1 == entry + len;
            self.uops[p] = lower_op(decoded.fetch(p), self.lat, ends);
        }
        self.stats.lowered += 1;
        self.stats.uops += len as u64;
        self.uops[pc]
    }

    /// Lower every superblock up front, so no slot is left
    /// [`UopKind::Cold`] (the lowering cost measured apart from a run).
    pub fn lower_all(&mut self, decoded: &DecodedProgram) {
        for pc in 0..self.uops.len() {
            if self.map.is_leader(pc) && self.uops[pc].kind == UopKind::Cold {
                self.warm(decoded, pc);
            }
        }
    }

    /// Count one trace entry (branch/jump resolution landing on a
    /// block).
    #[inline(always)]
    pub fn note_entry(&mut self) {
        self.stats.entries += 1;
    }

    /// The exercise counters.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// The superblock partition (read-only).
    pub fn map(&self) -> &BlockMap {
        &self.map
    }

    /// The lowered micro-op slots, one per pc ([`UopKind::Cold`] where
    /// no block has been entered yet). Read-only: the translation
    /// validator in `xmt-verify` checks these exact records against the
    /// reference ISA semantics.
    pub fn uops(&self) -> &[MicroOp] {
        &self.uops
    }

    /// The unit latencies baked into every lowered record.
    pub fn unit_lat(&self) -> UnitLat {
        self.lat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_isa::reg::ir;
    use xmt_isa::{Instr, ProgramBuilder};

    fn small_decoded() -> DecodedProgram {
        let mut b = ProgramBuilder::new();
        b.li(ir(1), 4);
        b.push(Instr::Branch {
            cond: xmt_isa::BranchCond::Ne,
            rs1: ir(1),
            rs2: ir(0),
            target: 3,
        });
        b.li(ir(2), 9);
        b.halt();
        DecodedProgram::new(&b.build().unwrap())
    }

    #[test]
    fn lazy_lowering_fills_one_block_at_a_time() {
        let dec = small_decoded();
        let mut tc = TraceCache::new(&dec, 4, 8);
        assert_eq!(tc.stats().blocks, 3); // [0..=1], [2], [3]
        assert_eq!(tc.uops()[0].kind, UopKind::Cold);
        let u = tc.fetch_warm(&dec, 0);
        assert_eq!(u.kind, UopKind::Li);
        assert_eq!(tc.stats().lowered, 1);
        assert_eq!(tc.stats().uops, 2);
        // The other blocks stay cold until entered.
        assert_eq!(tc.uops()[2].kind, UopKind::Cold);
        assert_eq!(tc.uops()[3].kind, UopKind::Cold);
        let _ = tc.fetch_warm(&dec, 3);
        assert_eq!(tc.stats().lowered, 2);
        // Re-entry is a hit: nothing lowers again.
        let _ = tc.fetch_warm(&dec, 0);
        assert_eq!(tc.stats().lowered, 2);
    }

    #[test]
    fn lower_all_warms_every_block() {
        let dec = small_decoded();
        let mut tc = TraceCache::new(&dec, 4, 8);
        tc.lower_all(&dec);
        assert_eq!(tc.stats().lowered, tc.stats().blocks);
        for pc in 0..dec.len() {
            assert_ne!(tc.uops()[pc].kind, UopKind::Cold, "pc {pc}");
        }
        assert_eq!(tc.stats().uops, dec.len() as u64);
    }

    #[test]
    fn default_tier_is_block() {
        assert_eq!(TranslationTier::default(), TranslationTier::Block);
    }
}
