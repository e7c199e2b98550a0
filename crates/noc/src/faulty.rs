//! Deterministic link-fault layer: wraps any [`Network`] and corrupts
//! a seeded, replayable subset of deliveries, redelivering them after a
//! bounded exponential backoff.
//!
//! Determinism is the whole point. Fault decisions are keyed to the
//! *delivery index* — the k-th flit the inner network delivers is
//! corrupted iff `fault_hash(seed, k)` falls below the configured
//! threshold — so two runs of the same program under the same seed make
//! identical decisions regardless of engine (reference or fast-forward)
//! and regardless of how the clock was advanced. There is no
//! RNG state to carry: the hash is stateless, so checkpoint restore
//! only needs the delivery cursor, which is recoverable from the
//! delivered/retried counters.
//!
//! A flit whose retry budget is exhausted is **delivered anyway** and
//! counted in [`NetStats::retry_exhausted`]: the link layer models
//! bounded retry, and residual errors are left to end-to-end recovery.
//! Dropping the flit instead would lose the memory transaction it
//! carries (the simulator's transactions travel as their flits' tags)
//! and wedge the simulated machine forever, turning a fault model into
//! a liveness bug; the simulator's watchdog exists for *genuine* stalls (stuck
//! TCUs), not for ones the fault layer manufactures.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::net::{Delivered, Flit, NetStats, Network};

/// Stateless mixing hash used for all fault-point decisions: maps a
/// `(seed, event index)` pair to a uniformly distributed `u64` with no
/// sequential state (splitmix64 finalizer over the sum). Shared by the
/// NoC corruption and DRAM ECC models so every fault site draws from
/// the same replayable family.
pub fn fault_hash(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Convert a probability in `[0, 1]` to the `u32` threshold compared
/// against the low 32 bits of [`fault_hash`].
pub fn probability_threshold(p: f64) -> u32 {
    assert!((0.0..=1.0).contains(&p), "probability out of [0,1]: {p}");
    (p * u32::MAX as f64) as u32
}

/// Seeded link-fault parameters for one [`FaultyNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFaults {
    /// Seed for the per-delivery fault hash.
    pub seed: u64,
    /// Corruption threshold: delivery `k` is corrupted iff the low 32
    /// bits of `fault_hash(seed, k)` are below this value.
    pub p_corrupt: u32,
}

impl LinkFaults {
    /// Redelivery attempts before a corrupted flit is delivered anyway.
    pub const RETRY_LIMIT: u32 = 4;
    /// Base backoff in cycles; attempt `a` waits `BACKOFF_BASE << a`.
    pub const BACKOFF_BASE: u64 = 2;

    /// Link faults with corruption probability `p_corrupt` per
    /// delivery.
    pub fn new(seed: u64, p_corrupt: f64) -> Self {
        LinkFaults {
            seed,
            p_corrupt: probability_threshold(p_corrupt),
        }
    }
}

/// A corrupted flit waiting out its backoff before redelivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Retry {
    ready_at: u64,
    seq: u64,
    flit: Flit,
    injected_at: u64,
    first_delivered_at: u64,
    attempt: u32,
}

impl Ord for Retry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ready_at, self.seq).cmp(&(other.ready_at, other.seq))
    }
}

impl PartialOrd for Retry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A [`Network`] decorator that corrupts a deterministic subset of the
/// inner network's deliveries and redelivers them after exponential
/// backoff. Timing-only: flit payloads are opaque tags, so "corrupt"
/// means "the link-level CRC failed and the delivery is replayed",
/// which surfaces as added latency plus the [`NetStats`] fault
/// counters. With `p_corrupt == 0` the wrapper is pass-through.
pub struct FaultyNetwork {
    inner: Box<dyn Network>,
    faults: LinkFaults,
    /// Deliveries the inner network has produced so far — the fault
    /// hash index. Monotonic; restored from stats on checkpoint resume.
    deliveries: u64,
    retries: BinaryHeap<Reverse<Retry>>,
    seq: u64,
    extra_latency: u64,
    corrupted: u64,
    retried: u64,
    retry_exhausted: u64,
    buf: Vec<Delivered>,
}

impl FaultyNetwork {
    /// Wrap `inner` with the given fault parameters.
    pub fn new(inner: Box<dyn Network>, faults: LinkFaults) -> Self {
        FaultyNetwork {
            inner,
            faults,
            deliveries: 0,
            retries: BinaryHeap::new(),
            seq: 0,
            extra_latency: 0,
            corrupted: 0,
            retried: 0,
            retry_exhausted: 0,
            buf: Vec::new(),
        }
    }

    /// True iff delivery index `k` is corrupted under this seed.
    fn corrupts(&self, k: u64) -> bool {
        (fault_hash(self.faults.seed, k) as u32) < self.faults.p_corrupt
    }

    /// Route one delivery attempt: pass it through, or queue a retry.
    /// `attempt` is 0 for a fresh delivery from the inner network.
    fn process(
        &mut self,
        flit: Flit,
        injected_at: u64,
        first_delivered_at: u64,
        attempt: u32,
        now: u64,
        out: &mut Vec<Delivered>,
    ) {
        // A retry re-rolls against a fresh delivery index, so repeated
        // corruption of the same flit stays possible but independent.
        let k = self.deliveries;
        self.deliveries += 1;
        let corrupt = self.corrupts(k);
        if corrupt && attempt < LinkFaults::RETRY_LIMIT {
            self.corrupted += 1;
            self.retried += 1;
            let ready_at = now + (LinkFaults::BACKOFF_BASE << attempt);
            let seq = self.seq;
            self.seq += 1;
            self.retries.push(Reverse(Retry {
                ready_at,
                seq,
                flit,
                injected_at,
                first_delivered_at,
                attempt: attempt + 1,
            }));
            return;
        }
        if corrupt {
            self.corrupted += 1;
            self.retry_exhausted += 1;
        }
        if attempt > 0 {
            self.extra_latency += now - first_delivered_at;
        }
        out.push(Delivered {
            flit,
            injected_at,
            delivered_at: now,
        });
    }
}

impl Network for FaultyNetwork {
    fn ports(&self) -> (usize, usize) {
        self.inner.ports()
    }

    fn try_inject(&mut self, flit: Flit) -> bool {
        self.inner.try_inject(flit)
    }

    fn step_into(&mut self, out: &mut Vec<Delivered>) {
        let mut fresh = std::mem::take(&mut self.buf);
        fresh.clear();
        self.inner.step_into(&mut fresh);
        let now = self.inner.cycle();
        // Due retries first, in (ready_at, seq) order, then this
        // cycle's fresh deliveries — a fixed order so delivery indices
        // (and hence fault decisions) are engine-invariant.
        while let Some(Reverse(r)) = self.retries.peek().copied() {
            if r.ready_at > now {
                break;
            }
            self.retries.pop();
            self.process(
                r.flit,
                r.injected_at,
                r.first_delivered_at,
                r.attempt,
                now,
                out,
            );
        }
        for d in &fresh {
            self.process(d.flit, d.injected_at, d.delivered_at, 0, now, out);
        }
        self.buf = fresh;
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight() + self.retries.len()
    }

    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }

    fn min_latency(&self) -> u64 {
        self.inner.min_latency()
    }

    fn next_event(&self) -> Option<u64> {
        let retry = self.retries.peek().map(|Reverse(r)| r.ready_at);
        match (self.inner.next_event(), retry) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn skip_idle(&mut self, n: u64) {
        debug_assert!(
            self.retries
                .peek()
                .is_none_or(|Reverse(r)| r.ready_at > self.inner.cycle() + n),
            "skip_idle crossed a pending retry"
        );
        self.inner.skip_idle(n);
    }

    fn inject_budget(&self, src: usize) -> usize {
        self.inner.inject_budget(src)
    }

    fn stats(&self) -> NetStats {
        let mut s = self.inner.stats();
        s.corrupted += self.corrupted;
        s.retried += self.retried;
        s.retry_exhausted += self.retry_exhausted;
        s.total_latency += self.extra_latency;
        s
    }

    fn restore_stats(&mut self, stats: NetStats) {
        debug_assert_eq!(self.in_flight(), 0, "restore into a busy network");
        self.corrupted = 0;
        self.retried = 0;
        self.retry_exhausted = 0;
        self.extra_latency = 0;
        // The delivery cursor is recoverable: every inner delivery
        // either reached the caller (delivered) or became a retry, and
        // each retry attempt consumed one more index.
        self.deliveries = stats.delivered + stats.retried;
        self.inner.restore_stats(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butterfly::ButterflyNetwork;
    use crate::topology::Topology;

    fn net(p: f64, seed: u64) -> FaultyNetwork {
        let topo = Topology::hybrid(8, 8, 2, 2);
        FaultyNetwork::new(
            Box::new(ButterflyNetwork::new(topo)),
            LinkFaults::new(seed, p),
        )
    }

    fn drain(n: &mut FaultyNetwork, flits: usize) -> Vec<Delivered> {
        let mut out = Vec::new();
        let mut guard = 0;
        while out.len() < flits {
            out.extend(n.step());
            guard += 1;
            assert!(guard < 10_000, "network failed to drain");
        }
        out
    }

    #[test]
    fn zero_rate_is_pass_through() {
        let mut f = net(0.0, 7);
        let mut clean = net(0.0, 99);
        for n in [&mut f, &mut clean] {
            for src in 0..8 {
                assert!(n.try_inject(Flit {
                    src,
                    dst: (src + 3) % 8,
                    tag: src as u64,
                }));
            }
        }
        let a = drain(&mut f, 8);
        let b = drain(&mut clean, 8);
        assert_eq!(a, b);
        let s = f.stats();
        assert_eq!(s.corrupted, 0);
        assert_eq!(s.retried, 0);
        assert_eq!(s.retry_exhausted, 0);
    }

    #[test]
    fn all_flits_eventually_delivered_even_at_full_corruption() {
        let mut f = net(1.0, 3);
        for src in 0..8 {
            assert!(f.try_inject(Flit {
                src,
                dst: src ^ 1,
                tag: 100 + src as u64,
            }));
        }
        let out = drain(&mut f, 8);
        assert_eq!(out.len(), 8);
        let mut tags: Vec<u64> = out.iter().map(|d| d.flit.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, (100..108).collect::<Vec<_>>());
        let s = f.stats();
        // Every delivery attempt is corrupted; each flit burns its
        // full retry budget then is delivered anyway.
        assert_eq!(s.retry_exhausted, 8);
        assert_eq!(s.retried, 8 * 4);
        assert_eq!(f.in_flight(), 0);
    }

    #[test]
    fn retried_flits_pay_backoff_latency() {
        let mut f = net(1.0, 11);
        assert!(f.try_inject(Flit {
            src: 0,
            dst: 5,
            tag: 1,
        }));
        let out = drain(&mut f, 1);
        // 4 retries with backoff 2<<a: 2 + 4 + 8 + 16 = 30 extra.
        let base = f.inner.stats().total_latency;
        assert_eq!(out[0].latency(), base + 30);
        assert_eq!(f.stats().total_latency, base + 30);
    }

    #[test]
    fn same_seed_replays_identically() {
        let run = |seed: u64| {
            let mut f = net(0.5, seed);
            for src in 0..8 {
                assert!(f.try_inject(Flit {
                    src,
                    dst: 7 - src,
                    tag: src as u64,
                }));
            }
            let out = drain(&mut f, 8);
            (out, f.stats())
        };
        assert_eq!(run(42), run(42));
        // Different seeds should (for this workload) diverge.
        let (_, a) = run(42);
        let (_, b) = run(43);
        assert!(a != b || a.corrupted == 0);
    }

    #[test]
    fn restore_stats_round_trips_the_cursor() {
        let mut f = net(0.5, 9);
        for src in 0..8 {
            assert!(f.try_inject(Flit {
                src,
                dst: (src + 1) % 8,
                tag: src as u64,
            }));
        }
        drain(&mut f, 8);
        let stats = f.stats();
        let cursor = f.deliveries;
        let mut g = net(0.5, 9);
        g.restore_stats(stats);
        assert_eq!(g.deliveries, cursor);
        assert_eq!(g.stats(), stats);
    }

    #[test]
    fn probability_threshold_bounds() {
        assert_eq!(probability_threshold(0.0), 0);
        assert_eq!(probability_threshold(1.0), u32::MAX);
        assert!(probability_threshold(0.5) > u32::MAX / 3);
    }
}
