//! Blocking (partial) butterfly model — the inner levels of the hybrid
//! MoT/butterfly network of Section II-B.
//!
//! Unlike the MoT, butterfly stages share internal links: two flits
//! whose routes converge on the same switch output must serialize, and
//! full queues propagate backpressure upstream. The network routes on
//! the top `stages` destination bits; the remaining (outer, MoT) levels
//! are modeled as a fixed latency plus the per-destination service
//! queue, exactly as in [`crate::mot`]. With `stages == 0` this model
//! degenerates to the pure MoT one cycle slower: its `min_latency` is
//! `mot_levels + 1` where [`crate::mot::MotNetwork`]'s is `mot_levels`
//! (the machine builds a `MotNetwork` for such a topology).
//!
//! This blocking is what drives the paper's observations (b) and (c) in
//! Section VI-B: configurations with more butterfly levels fall further
//! below the bandwidth roofline on permutation-heavy phases (rotation).
//!
//! A stage is arbitrated 64 rows at a time: three bitmaps per stage
//! (`RowBits`) say which rings are non-empty, which heads route up
//! and which rings are full, and a few word operations decide, for
//! every switch in a word, which heads move. Heads that stay are
//! counted into `stalls` by popcount and never visited; only moving
//! heads touch their rings.

use crate::egress::{Egress, Waiting};
use crate::net::{Delivered, Flit, NetStats, Network};
use crate::topology::Topology;

/// FIFO rings of in-flight slab indices, one per switch input, chained
/// through one link per slab entry the way [`crate::egress`] chains a
/// destination queue: a ring is its head, tail and length, and holds no
/// slots of its own, so the rings together hold only the flits staged
/// at once. The network's backpressure check against `qcap` precedes
/// every push. Vacant slab entries are chained through the same links.
#[derive(Debug)]
struct Rings {
    ends: Vec<RingEnds>,
    /// Per slab entry: the entry behind it in its ring (meaningful
    /// unless it is its ring's tail), or, while vacant, the next vacant
    /// entry ([`NIL`] ends the list).
    links: Vec<u32>,
    /// The first vacant slab entry, or [`NIL`].
    free: u32,
}

/// End of a list of slab entries.
const NIL: u32 = u32::MAX;

/// One ring's head and tail entries (meaningful while `len > 0`) and
/// length.
#[derive(Debug, Clone, Copy, Default)]
struct RingEnds {
    head: u32,
    tail: u32,
    len: u8,
}

impl Rings {
    fn new(rings: usize, qcap: usize) -> Self {
        assert!((1..=255).contains(&qcap), "queue capacity must fit u8");
        Self {
            ends: vec![RingEnds::default(); rings],
            links: Vec::new(),
            free: NIL,
        }
    }

    fn len(&self, ring: usize) -> usize {
        self.ends[ring].len as usize
    }

    /// A vacant slab entry to fill, else `None`: the slab grows by one
    /// entry, which the caller links with [`Rings::grow`].
    fn reuse(&mut self) -> Option<u32> {
        (self.free != NIL).then(|| {
            let i = self.free;
            self.free = self.links[i as usize];
            i
        })
    }

    /// Link the slab's new last entry; returns its index.
    fn grow(&mut self) -> u32 {
        assert!(
            self.links.len() < NIL as usize,
            "more flits staged than a link can name"
        );
        self.links.push(NIL);
        (self.links.len() - 1) as u32
    }

    /// Slab entry `i` (in no ring) becomes vacant.
    fn vacate(&mut self, i: u32) {
        self.links[i as usize] = self.free;
        self.free = i;
    }

    /// Append `v`, returning the ring's new length.
    fn push_back(&mut self, ring: usize, v: u32) -> usize {
        let e = &mut self.ends[ring];
        if e.len == 0 {
            e.head = v;
        } else {
            self.links[e.tail as usize] = v;
        }
        e.tail = v;
        e.len += 1;
        e.len as usize
    }

    /// Remove the head, returning it and the entry now at the front.
    fn pop_front(&mut self, ring: usize) -> (u32, Option<u32>) {
        let e = &mut self.ends[ring];
        assert!(e.len > 0, "pop from an empty ring");
        let v = e.head;
        e.len -= 1;
        if e.len == 0 {
            return (v, None);
        }
        e.head = self.links[v as usize];
        (v, Some(e.head))
    }
}

/// The rows' state, a bit per row kept in step with the rings by every
/// push and pop: word `s * words + j` of each bitmap holds stage `s`'s
/// rows `64 j ..`, bit `p` row `64 j + p`.
#[derive(Debug)]
struct RowBits {
    /// The ring is non-empty.
    has: Vec<u64>,
    /// The head flit's destination has the stage's routing bit set
    /// (meaningful under `has`).
    up: Vec<u64>,
    /// The ring holds `qcap` flits.
    full: Vec<u64>,
}

/// For `b < 6`, the word positions whose bit `b` is clear: the lower
/// row of each switch, whose partner sits `1 << b` bits above it.
const LOWER_ROWS: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// Which heads of a word's switches move. Each pair holds the (lower,
/// upper) rows' bits aligned bit for bit, the upper row being the one
/// with the routing bit set: `has` and `up` at this stage, and `full`
/// of the same two rows at the next (zero at the last stage, whose
/// outer pipeline is unbounded). A head moves iff its output has room,
/// unless both heads want one output: then the clock-parity winner
/// (upper when `hi_wins`) moves if it can and the loser stalls either
/// way. Returns the (lower, upper) move masks.
#[inline]
fn arbitrate(has: (u64, u64), up: (u64, u64), full: (u64, u64), hi_wins: bool) -> (u64, u64) {
    let conflict = has.0 & has.1 & !(up.0 ^ up.1);
    let room = |u: u64| !((u & full.1) | (!u & full.0));
    let m0 = has.0 & room(up.0);
    let m1 = has.1 & room(up.1);
    if hi_wins {
        (m0 & !conflict, m1)
    } else {
        (m0, m1 & !conflict)
    }
}

/// Cycle-level partial butterfly with per-input-port queues.
///
/// Stage `s` routes on destination bit `port_bits - 1 - s`: the two
/// rows of a switch differ in that bit, and a flit leaves on the row
/// that carries its destination's bit. So every next-stage row is fed
/// by exactly one switch and the switches of a stage decide
/// independently. From the last stage, moves run in ascending switch
/// order, winner first: the order flits of different switches meet in
/// the outer pipeline.
#[derive(Debug)]
pub struct ButterflyNetwork {
    topo: Topology,
    ports: usize,
    port_bits: u32,
    stages: u32,
    qcap: usize,
    /// Ring `s * ports + row`: flits waiting at the input of stage `s`.
    queues: Rings,
    /// The flits those rings index, each destination in its link
    /// word; `queues` chains the entries, vacant ones too.
    flits: Vec<Waiting>,
    /// Total flits across `queues` (O(1) next-event check).
    staged: usize,
    /// Outer (MoT) traversal after the last butterfly stage, and the
    /// per-destination service queues.
    egress: Egress,
    last_inject: Vec<u64>,
    cycle: u64,
    extra_latency: u64,
    /// Per-stage flit counts (skip empty stages in `step_into`).
    staged_per: Vec<usize>,
    /// Words of 64 rows per stage.
    words: usize,
    /// Every stage's rows: non-empty, head routes up, ring full.
    bits: RowBits,
    /// Accumulated statistics.
    pub stats: NetStats,
    /// Stage-move stalls due to contention or full downstream queues.
    pub stalls: u64,
}

impl ButterflyNetwork {
    /// Build from a hybrid topology (uses its butterfly level count and
    /// treats the MoT levels as fixed latency). Queue capacity per
    /// switch input defaults to 8.
    pub fn new(topo: Topology) -> Self {
        Self::with_queue_capacity(topo, 8)
    }

    /// The `with_queue_capacity` value.
    pub fn with_queue_capacity(topo: Topology, qcap: usize) -> Self {
        assert_eq!(
            topo.clusters, topo.modules,
            "butterfly model assumes symmetric port counts"
        );
        let ports = topo.clusters;
        let port_bits = ports.trailing_zeros();
        let stages = topo.butterfly_levels;
        assert!(
            stages <= port_bits,
            "more butterfly stages than address bits"
        );
        let words = ports.div_ceil(64);
        Self {
            topo,
            ports,
            port_bits,
            stages,
            qcap,
            queues: Rings::new(stages as usize * ports, qcap),
            flits: Vec::new(),
            staged: 0,
            egress: Egress::new(ports, ports),
            last_inject: vec![u64::MAX; ports],
            cycle: 0,
            extra_latency: topo.mot_levels as u64,
            staged_per: vec![0; stages as usize],
            words,
            bits: RowBits {
                has: vec![0; stages as usize * words],
                up: vec![0; stages as usize * words],
                full: vec![0; stages as usize * words],
            },
            stats: NetStats::default(),
            stalls: 0,
        }
    }

    /// The topology this network was built from.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// The bit index stage `s` routes on (top bits first).
    #[inline]
    fn route_bit(&self, s: usize) -> u32 {
        self.port_bits - 1 - s as u32
    }

    /// Set `row`'s `up` bit at stage `s` from destination `dst`.
    #[inline]
    fn set_up(&mut self, s: usize, row: usize, dst: usize) {
        let (w, p) = (s * self.words + (row >> 6), row & 63);
        let up = (dst >> self.route_bit(s)) as u64 & 1;
        self.bits.up[w] = (self.bits.up[w] & !(1 << p)) | up << p;
    }

    /// Append slab index `i` (bound for `dst`) to stage `s`'s row
    /// `row`, refreshing the row's bits.
    #[inline(always)]
    fn push(&mut self, s: usize, row: usize, i: u32, dst: usize) {
        let len = self.queues.push_back(s * self.ports + row, i);
        let (w, p) = (s * self.words + (row >> 6), row & 63);
        if len == 1 {
            self.bits.has[w] |= 1 << p;
            self.set_up(s, row, dst);
        }
        if len == self.qcap {
            self.bits.full[w] |= 1 << p;
        }
    }

    /// Take the head of stage `s`'s row `row`, refreshing the row's
    /// bits from the flit behind it.
    #[inline(always)]
    fn pop(&mut self, s: usize, row: usize) -> u32 {
        let (i, next) = self.queues.pop_front(s * self.ports + row);
        let (w, p) = (s * self.words + (row >> 6), row & 63);
        self.bits.full[w] &= !(1 << p);
        match next {
            Some(h) => self.set_up(s, row, self.flits[h as usize].dst()),
            None => self.bits.has[w] &= !(1 << p),
        }
        i
    }

    /// Move the head of stage `s`'s row `row` on: into the next stage's
    /// row that carries its destination's routing bit, or, from the
    /// last stage, onto the outer pipeline.
    #[inline(always)]
    fn move_head(&mut self, s: usize, row: usize) {
        let i = self.pop(s, row);
        let f = self.flits[i as usize];
        if s + 1 == self.stages as usize {
            self.staged -= 1;
            self.queues.vacate(i);
            self.egress.push(self.cycle + self.extra_latency + 1, f);
        } else {
            let mask = 1usize << self.route_bit(s);
            let dst = f.dst();
            self.push(s + 1, (row & !mask) | (dst & mask), i, dst);
        }
    }

    /// Move the heads a word's arbitration chose: bit `p` of `m.0` is
    /// row `lo + p`, of `m.1` row `hi + p`. From the last stage, whose
    /// flits of different switches meet in the outer pipeline, switch
    /// by switch in ascending order, the conflict winner first.
    /// Elsewhere every move has its own source and target ring, so the
    /// winner's mask runs, then the loser's.
    #[inline(always)]
    fn move_word(&mut self, s: usize, (lo, hi): (usize, usize), m: (u64, u64), hi_wins: bool) {
        let order = if hi_wins {
            [(hi, m.1), (lo, m.0)]
        } else {
            [(lo, m.0), (hi, m.1)]
        };
        if s + 1 < self.stages as usize {
            for (base, mut moves) in order {
                while moves != 0 {
                    let p = moves.trailing_zeros() as usize;
                    moves &= moves - 1;
                    self.move_head(s, base + p);
                }
            }
            return;
        }
        let mut any = m.0 | m.1;
        while any != 0 {
            let p = any.trailing_zeros() as usize;
            any &= any - 1;
            for (base, moves) in order {
                if moves >> p & 1 != 0 {
                    self.move_head(s, base + p);
                }
            }
        }
    }

    /// Advance one stage: move head flits toward stage `s+1` (or the
    /// outer pipeline for the last stage), arbitrating switch outputs
    /// a word of rows at a time. The alternating arbitration bit
    /// toggles once per cycle at every switch whether or not flits are
    /// present, so it is uniform across the network and derived from
    /// the clock parity instead of materialized per switch.
    fn advance_stage(&mut self, s: usize) {
        let b = self.route_bit(s);
        let here = s * self.words;
        // The next stage's words (none after the last stage: the outer
        // pipeline is never full).
        let next = (s + 1 < self.stages as usize).then_some(here + self.words);
        // Value the old per-switch bit would hold after `cycle - 1`
        // toggles from an all-false start: the upper row goes first.
        let hi_wins = self.cycle & 1 == 0;
        let (mut heads, mut moved) = (0u32, 0u32);
        if b >= 6 {
            // A switch's rows sit at one bit of words `j` and `k`.
            let stride = 1usize << (b - 6);
            for j in (0..self.words).filter(|j| j & stride == 0) {
                let k = j | stride;
                let has = (self.bits.has[here + j], self.bits.has[here + k]);
                if has.0 | has.1 == 0 {
                    continue;
                }
                let up = (self.bits.up[here + j], self.bits.up[here + k]);
                let full = next.map_or((0, 0), |n| (self.bits.full[n + j], self.bits.full[n + k]));
                let m = arbitrate(has, up, full, hi_wins);
                heads += has.0.count_ones() + has.1.count_ones();
                moved += m.0.count_ones() + m.1.count_ones();
                self.move_word(s, (j << 6, k << 6), m, hi_wins);
            }
        } else {
            // A switch's rows sit in one word, `1 << b` bits apart.
            let (sh, low) = (1u32 << b, LOWER_ROWS[b as usize]);
            let pair = |x: u64| (x & low, x >> sh & low);
            for j in 0..self.words {
                let has = self.bits.has[here + j];
                if has == 0 {
                    continue;
                }
                let full = next.map_or(0, |n| self.bits.full[n + j]);
                let m = arbitrate(pair(has), pair(self.bits.up[here + j]), pair(full), hi_wins);
                heads += has.count_ones();
                moved += m.0.count_ones() + m.1.count_ones();
                self.move_word(s, (j << 6, (j << 6) + sh as usize), m, hi_wins);
            }
        }
        self.stalls += u64::from(heads - moved);
        self.staged_per[s] -= moved as usize;
        if next.is_some() {
            self.staged_per[s + 1] += moved as usize;
        }
    }
}

impl Network for ButterflyNetwork {
    fn ports(&self) -> (usize, usize) {
        (self.ports, self.ports)
    }

    fn stats(&self) -> NetStats {
        self.stats
    }

    fn restore_stats(&mut self, stats: NetStats) {
        debug_assert_eq!(self.in_flight(), 0, "restore into a busy network");
        self.stats = stats;
    }

    fn try_inject(&mut self, flit: Flit) -> bool {
        assert!(flit.src < self.ports, "source port out of range");
        assert!(flit.dst < self.ports, "destination port out of range");
        if self.last_inject[flit.src] == self.cycle {
            self.stats.inject_rejections += 1;
            return false;
        }
        let f = Waiting::new(flit, self.cycle);
        if self.stages == 0 {
            self.egress.push(self.cycle + self.extra_latency + 1, f);
        } else {
            if self.queues.len(flit.src) >= self.qcap {
                self.stats.inject_rejections += 1;
                return false; // backpressure at the injection port
            }
            let i = match self.queues.reuse() {
                Some(i) => {
                    self.flits[i as usize] = f;
                    i
                }
                None => {
                    self.flits.push(f);
                    self.queues.grow()
                }
            };
            self.push(0, flit.src, i, flit.dst);
            self.staged += 1;
            self.staged_per[0] += 1;
        }
        self.last_inject[flit.src] = self.cycle;
        self.stats.injected += 1;
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight());
        true
    }

    fn step_into(&mut self, out: &mut Vec<Delivered>) {
        self.cycle += 1;
        // Process stages from the last to the first so each flit moves
        // at most one stage per cycle (pipelined flow). Empty stages
        // have nothing to move (their arbitration bit is virtual).
        if self.staged > 0 {
            for s in (0..self.stages as usize).rev() {
                if self.staged_per[s] > 0 {
                    self.advance_stage(s);
                }
            }
        }
        self.egress.step(self.cycle, &mut self.stats, out);
    }

    fn in_flight(&self) -> usize {
        self.staged + self.egress.in_flight()
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn min_latency(&self) -> u64 {
        self.stages as u64 + self.extra_latency + 1
    }

    fn next_event(&self) -> Option<u64> {
        if self.staged > 0 {
            // Staged flits may move (or stall-count) every cycle.
            Some(self.cycle + 1)
        } else {
            self.egress.next_event(self.cycle)
        }
    }

    fn skip_idle(&mut self, n: u64) {
        debug_assert!(
            self.next_event().is_none_or(|e| e > self.cycle + n),
            "skip_idle crossed a network event"
        );
        // The arbitration parity is derived from the clock, so the
        // skip advances it implicitly (odd skips flip it, exactly as
        // stepping would).
        self.cycle += n;
    }

    fn inject_budget(&self, src: usize) -> usize {
        if self.stages == 0 || self.queues.len(src) < self.qcap {
            1
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mot::MotNetwork;
    use crate::traffic::Pattern;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::VecDeque;

    fn hybrid(ports: usize, mot: u32, bf: u32) -> ButterflyNetwork {
        ButterflyNetwork::new(Topology::hybrid(ports, ports, mot, bf))
    }

    /// Insert a zero bit at position `bit` into `w` (spreading the
    /// switch index across the remaining bits), yielding the lower row.
    fn insert_zero_bit(w: usize, bit: u32) -> usize {
        let low_mask = (1usize << bit) - 1;
        ((w & !low_mask) << 1) | (w & low_mask)
    }

    /// The specification the word-parallel arbitration must equal: the
    /// per-switch walk, visiting every switch of every stage in
    /// ascending order, each input its own `VecDeque`.
    struct Walk {
        ports: usize,
        port_bits: u32,
        stages: u32,
        qcap: usize,
        /// Queue `s * ports + row`.
        queues: Vec<VecDeque<Waiting>>,
        staged: usize,
        egress: Egress,
        last_inject: Vec<u64>,
        cycle: u64,
        extra_latency: u64,
        stats: NetStats,
        stalls: u64,
    }

    impl Walk {
        fn new(topo: Topology, qcap: usize) -> Self {
            let ports = topo.clusters;
            Self {
                ports,
                port_bits: ports.trailing_zeros(),
                stages: topo.butterfly_levels,
                qcap,
                queues: vec![VecDeque::new(); topo.butterfly_levels as usize * ports],
                staged: 0,
                egress: Egress::new(ports, ports),
                last_inject: vec![u64::MAX; ports],
                cycle: 0,
                extra_latency: topo.mot_levels as u64,
                stats: NetStats::default(),
                stalls: 0,
            }
        }

        fn advance_stage(&mut self, s: u32) {
            let bit = self.port_bits - 1 - s;
            let mask = 1usize << bit;
            let here = s as usize * self.ports;
            let next = here + self.ports;
            let last = s + 1 == self.stages;
            let pri = self.cycle & 1 == 0;
            for w in 0..self.ports / 2 {
                let r0 = insert_zero_bit(w, bit);
                let r1 = r0 | mask;
                let want = |q: &VecDeque<Waiting>| q.front().map(|f| r0 | (f.dst() & mask));
                let (w0, w1) = (want(&self.queues[here + r0]), want(&self.queues[here + r1]));
                let (first, second) = if pri { (r1, r0) } else { (r0, r1) };
                let mut taken: Option<usize> = None;
                for row in [first, second] {
                    let Some(out) = (if row == r0 { w0 } else { w1 }) else {
                        continue;
                    };
                    if taken == Some(out) {
                        self.stalls += 1; // lost arbitration this cycle
                        continue;
                    }
                    if !last && self.queues[next + out].len() >= self.qcap {
                        self.stalls += 1;
                        continue;
                    }
                    let f = self.queues[here + row].pop_front().unwrap();
                    if last {
                        self.staged -= 1;
                        self.egress.push(self.cycle + self.extra_latency + 1, f);
                    } else {
                        self.queues[next + out].push_back(f);
                    }
                    taken = Some(if taken.is_none() { out } else { usize::MAX });
                }
            }
        }
    }

    impl Network for Walk {
        fn ports(&self) -> (usize, usize) {
            (self.ports, self.ports)
        }

        fn stats(&self) -> NetStats {
            self.stats
        }

        fn try_inject(&mut self, flit: Flit) -> bool {
            if self.last_inject[flit.src] == self.cycle || self.queues[flit.src].len() >= self.qcap
            {
                self.stats.inject_rejections += 1;
                return false;
            }
            self.last_inject[flit.src] = self.cycle;
            self.queues[flit.src].push_back(Waiting::new(flit, self.cycle));
            self.staged += 1;
            self.stats.injected += 1;
            self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight());
            true
        }

        fn step_into(&mut self, out: &mut Vec<Delivered>) {
            self.cycle += 1;
            for s in (0..self.stages).rev() {
                self.advance_stage(s);
            }
            self.egress.step(self.cycle, &mut self.stats, out);
        }

        fn in_flight(&self) -> usize {
            self.staged + self.egress.in_flight()
        }

        fn cycle(&self) -> u64 {
            self.cycle
        }

        fn min_latency(&self) -> u64 {
            self.stages as u64 + self.extra_latency + 1
        }

        fn next_event(&self) -> Option<u64> {
            if self.staged > 0 {
                Some(self.cycle + 1)
            } else {
                self.egress.next_event(self.cycle)
            }
        }

        fn skip_idle(&mut self, n: u64) {
            self.cycle += n;
        }

        fn inject_budget(&self, src: usize) -> usize {
            usize::from(self.queues[src].len() < self.qcap)
        }
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Step both networks once and require the same deliveries, stats
    /// and stalls.
    fn step_both(net: &mut ButterflyNetwork, spec: &mut Walk) -> Result<(), TestCaseError> {
        let (got, want) = (net.step(), spec.step());
        let at = net.cycle();
        prop_assert_eq!(got, want, "deliveries at cycle {}", at);
        prop_assert_eq!(net.stats, spec.stats, "stats at cycle {}", at);
        prop_assert_eq!(net.stalls, spec.stalls, "stalls at cycle {}", at);
        Ok(())
    }

    /// Drive the network and the walk with one seeded schedule: three
    /// rounds of a burst at up to four times what `traffic` can drain
    /// (0 uniform, 1 one hot destination, 2 the low eighth of the
    /// ports, 3 transpose), then a drain that jumps every event-free
    /// window with `skip_idle`, then an idle tail of one to four
    /// cycles. Every cycle, every source's `inject_budget` and
    /// `try_inject` answers must agree.
    fn lockstep(topo: Topology, qcap: usize, traffic: u32, seed: u64) -> Result<(), TestCaseError> {
        let mut net = ButterflyNetwork::with_queue_capacity(topo, qcap);
        let mut spec = Walk::new(topo, qcap);
        let ports = topo.clusters;
        let lp = ports.trailing_zeros();
        let mut rng = seed | 1;
        let hot = xorshift(&mut rng) as usize % ports;
        let eighth = (ports / 8).max(1);
        type Dst = Box<dyn Fn(usize, u64) -> usize>;
        let (drain, dst): (usize, Dst) = match traffic {
            0 => (ports / 2, Box::new(move |_, r| (r >> 32) as usize % ports)),
            1 => (1, Box::new(move |_, _| hot)),
            2 => (eighth, Box::new(move |_, r| (r >> 32) as usize % eighth)),
            _ => (
                1 << (lp / 2),
                Box::new(move |src, _| Pattern::Transpose.dst(src, ports, 0)),
            ),
        };
        let mut tag = 0u64;
        for _round in 0..3 {
            let burst = 8 + xorshift(&mut rng) % 24;
            let load = (drain * (1 + xorshift(&mut rng) as usize % 4)).min(ports);
            for _ in 0..burst {
                for src in 0..ports {
                    prop_assert_eq!(net.inject_budget(src), spec.inject_budget(src));
                    let r = xorshift(&mut rng);
                    if r as usize % ports >= load {
                        continue;
                    }
                    let flit = Flit {
                        src,
                        dst: dst(src, r),
                        tag,
                    };
                    tag += 1;
                    let ok = net.try_inject(flit);
                    prop_assert_eq!(ok, spec.try_inject(flit), "inject {:?}", flit);
                    if ok && r & 8 != 0 {
                        prop_assert!(!net.try_inject(flit) && !spec.try_inject(flit));
                    }
                }
                step_both(&mut net, &mut spec)?;
            }
            while spec.in_flight() > 0 {
                let e = net.next_event();
                prop_assert_eq!(e, spec.next_event());
                let e = e.expect("flits in flight");
                if e > net.cycle() + 1 {
                    let n = e - net.cycle() - 1;
                    net.skip_idle(n);
                    spec.skip_idle(n);
                }
                step_both(&mut net, &mut spec)?;
            }
            prop_assert_eq!(net.in_flight(), 0);
            let tail = 1 + xorshift(&mut rng) % 4;
            net.skip_idle(tail);
            spec.skip_idle(tail);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn word_arbitration_equals_the_switch_walk(
            log_ports in 1u32..=12,
            stage_pick in 0u32..9,
            mot_pick in 0u32..32,
            qcap in 1usize..=8,
            traffic in 0u32..4,
            seed in 0u64..1_000_000,
        ) {
            let ports = 1usize << log_ports;
            let stages = 1 + stage_pick % log_ports.min(9);
            let mot = mot_pick % (2 * log_ports - stages + 1);
            lockstep(Topology::hybrid(ports, ports, mot, stages), qcap, traffic, seed)?;
        }
    }

    #[test]
    fn insert_zero_bit_enumerates_rows() {
        // bit 1, 8 ports: switch w pairs rows {r, r|2}.
        let rows: Vec<usize> = (0..4).map(|w| insert_zero_bit(w, 1)).collect();
        assert_eq!(rows, vec![0, 1, 4, 5]);
        // Each row and its partner cover all 8 ports exactly once.
        let mut all: Vec<usize> = rows.iter().flat_map(|&r| [r, r | 2]).collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn single_flit_routes_to_destination() {
        let mut n = hybrid(8, 2, 3);
        assert!(n.try_inject(Flit {
            src: 5,
            dst: 2,
            tag: 42
        }));
        let mut got = Vec::new();
        for _ in 0..30 {
            got.extend(n.step());
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].flit.dst, 2);
        assert_eq!(got[0].flit.tag, 42);
        assert!(got[0].latency() >= n.min_latency());
    }

    #[test]
    fn all_pairs_eventually_delivered() {
        let mut n = hybrid(16, 2, 4);
        let mut injected = 0u64;
        let mut delivered = 0u64;
        for round in 0..8usize {
            for s in 0..16 {
                let f = Flit {
                    src: s,
                    dst: (s + round) % 16,
                    tag: (round * 16 + s) as u64,
                };
                if n.try_inject(f) {
                    injected += 1;
                }
            }
            delivered += n.step().len() as u64;
        }
        let mut idle = 0;
        while idle < 100 {
            let d = n.step().len() as u64;
            delivered += d;
            if n.in_flight() == 0 {
                break;
            }
            idle += 1;
        }
        assert_eq!(injected, delivered);
    }

    #[test]
    fn zero_stage_butterfly_behaves_like_mot() {
        // The same flits into a zero-stage butterfly and a MoT of the
        // same levels: the same counts, one cycle later.
        let topo = Topology::hybrid(8, 8, 6, 0);
        let mut n = ButterflyNetwork::new(topo);
        let mut mot = MotNetwork::new(topo);
        assert_eq!(n.min_latency(), mot.min_latency() + 1);
        for s in 0..8 {
            let f = Flit {
                src: s,
                dst: s / 2,
                tag: s as u64,
            };
            assert!(n.try_inject(f));
            assert!(mot.try_inject(f));
        }
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for _ in 0..n.min_latency() + 4 {
            got.extend(n.step());
            want.extend(mot.step());
        }
        assert_eq!(got.len(), 8);
        let (a, b) = (n.stats(), mot.stats());
        assert_eq!(
            (a.injected, a.delivered, a.peak_in_flight),
            (b.injected, b.delivered, b.peak_in_flight)
        );
        assert_eq!(a.peak_in_flight, 8);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!((g.flit, g.latency()), (w.flit, w.latency() + 1));
        }
    }

    #[test]
    fn converging_routes_cause_stalls() {
        // All sources send to destinations in the same half: the first
        // stage forces them through half the links.
        let mut n = hybrid(16, 0, 4);
        for round in 0..32 {
            for s in 0..16 {
                let _ = n.try_inject(Flit {
                    src: s,
                    dst: s % 8,
                    tag: round * 16 + s as u64,
                });
            }
            n.step();
        }
        assert!(n.stalls > 0, "funneled traffic must contend");
    }

    #[test]
    fn backpressure_rejects_injection_when_full() {
        let mut n = ButterflyNetwork::with_queue_capacity(Topology::hybrid(4, 4, 0, 2), 1);
        assert!(n.try_inject(Flit {
            src: 0,
            dst: 3,
            tag: 0
        }));
        // Same source same cycle: rate limit.
        assert!(!n.try_inject(Flit {
            src: 0,
            dst: 2,
            tag: 1
        }));
        n.step();
        // Queue drained into stage flow; inject more until full.
        let mut rejected = false;
        for round in 0..50u64 {
            if !n.try_inject(Flit {
                src: 0,
                dst: 3,
                tag: 10 + round,
            }) {
                rejected = true;
                break;
            }
            // Do not step: fill the input queue.
        }
        assert!(rejected, "qcap=1 input must eventually refuse");
    }

    #[test]
    fn odd_skip_preserves_arbitration_state() {
        // Two identical networks; one skips an odd idle window, the
        // other steps through it. Subsequent contending traffic must
        // arbitrate identically (same delivery order, same stalls).
        let mut a = hybrid(8, 0, 3);
        let mut b = hybrid(8, 0, 3);
        a.skip_idle(3);
        for _ in 0..3 {
            assert!(b.step().is_empty());
        }
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        for round in 0..40u64 {
            for (n, got) in [(&mut a, &mut got_a), (&mut b, &mut got_b)] {
                // Sources 0 and 4 contend for the same first-stage
                // output toward destination 1 every cycle.
                let _ = n.try_inject(Flit {
                    src: 0,
                    dst: 1,
                    tag: round * 2,
                });
                let _ = n.try_inject(Flit {
                    src: 4,
                    dst: 1,
                    tag: round * 2 + 1,
                });
                got.extend(n.step().into_iter().map(|d| d.flit.tag));
            }
        }
        assert!(!got_a.is_empty());
        assert_eq!(got_a, got_b, "skip changed arbitration outcomes");
        assert_eq!(a.stalls, b.stalls);
    }

    #[test]
    fn inject_budget_predicts_backpressure() {
        let mut n = ButterflyNetwork::with_queue_capacity(Topology::hybrid(4, 4, 0, 2), 1);
        assert_eq!(n.inject_budget(0), 1);
        assert!(n.try_inject(Flit {
            src: 0,
            dst: 3,
            tag: 0
        }));
        // Input queue now full: the budget for the *next* cycle (no
        // step yet, queue still occupied) is zero.
        assert_eq!(n.inject_budget(0), 0);
    }

    #[test]
    fn uniform_traffic_throughput_reasonable() {
        // Uniform random-ish traffic should sustain well over half the
        // port bandwidth on a 3-stage butterfly.
        let ports = 16;
        let mut n = hybrid(ports, 0, 3);
        let cycles = 400u64;
        for c in 0..cycles {
            for s in 0..ports {
                let dst = (s * 5 + c as usize * 3 + 1) % ports;
                let _ = n.try_inject(Flit {
                    src: s,
                    dst,
                    tag: c * 100 + s as u64,
                });
            }
            n.step();
        }
        let thr = n.stats.delivered as f64 / cycles as f64 / ports as f64;
        assert!(thr > 0.5, "throughput {thr} too low");
    }

    #[test]
    fn the_rings_hold_only_the_staged_flits() {
        // Every source bursts toward one hot destination, then the
        // network drains: a ring is its two ends and a length, and the
        // slab and its links grow to the most flits staged at once.
        let ports = 64;
        let mut n = hybrid(ports, 2, 4);
        let mut peak = 0;
        for c in 0..200u64 {
            for src in 0..ports {
                let dst = if c < 100 {
                    5
                } else {
                    (src * 7 + c as usize) % ports
                };
                let _ = n.try_inject(Flit { src, dst, tag: c });
                peak = peak.max(n.staged);
            }
            n.step();
        }
        while n.in_flight() > 0 {
            n.step();
        }
        assert_eq!(std::mem::size_of::<RingEnds>(), 12);
        assert_eq!(n.queues.ends.len(), 4 * ports);
        assert_eq!(n.queues.links.len(), n.flits.len());
        assert_eq!(n.flits.len(), peak);
        // Drained, every entry is vacant: the free list walks them all.
        let next = |i: u32| Some(n.queues.links[i as usize]).filter(|&j| j != NIL);
        let vacant = std::iter::successors(Some(n.queues.free).filter(|&i| i != NIL), |&i| next(i));
        assert_eq!(vacant.count(), peak);
    }
}
