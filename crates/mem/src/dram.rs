//! DRAM channel model.
//!
//! Each channel moves whole cache lines at a fixed bandwidth with a
//! fixed access latency. The paper's parameters (Section V-B): a
//! DDR3-class channel provides 211 Gb/s ≈ 8 bytes per 3.3 GHz cycle,
//! and several memory modules share one channel ("MMs per DRAM Ctrl."
//! in Table II) — the off-chip bandwidth wall the enabling technologies
//! (serial links, photonics) progressively remove.
//!
//! An optional SECDED ECC model ([`EccConfig`]) injects seeded,
//! replayable bit-flip faults against completed transfers: single-bit
//! flips are corrected in place (counted, no timing effect), double-bit
//! flips are detected and the transfer is re-run up to a retry budget,
//! after which it completes anyway as an unrecoverable error (counted;
//! end-to-end recovery is the caller's problem). Fault decisions are
//! keyed to the per-channel completed-transfer index through a
//! stateless hash, so they replay bit-identically across simulator
//! engines and across checkpoint restores.

use std::collections::VecDeque;

/// Stateless splitmix64-finalizer hash keying ECC fault decisions to
/// `(seed, transfer index)`. Same family as the NoC link-fault hash;
/// each fault site gets its own seed stream so the functions need only
/// be individually uniform, not shared.
fn ecc_hash(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded SECDED error-injection parameters for one [`DramChannel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccConfig {
    /// Seed for the per-transfer fault hash.
    pub seed: u64,
    /// Single-bit-flip threshold: transfer `k` takes a correctable
    /// flip iff the *high* 32 bits of the hash fall below this.
    pub p_single: u32,
    /// Double-bit-flip threshold: transfer `k` takes a detected
    /// uncorrectable flip iff the *low* 32 bits fall below this.
    /// A double flip takes precedence over a single on the same index.
    pub p_double: u32,
}

impl EccConfig {
    /// Re-reads attempted for a double-bit error before the transfer
    /// is completed anyway and counted unrecoverable.
    pub const RETRY_LIMIT: u32 = 2;

    /// ECC injection with the given per-transfer single/double flip
    /// probabilities.
    pub fn new(seed: u64, p_single: f64, p_double: f64) -> Self {
        let th = |p: f64| {
            assert!((0.0..=1.0).contains(&p), "probability out of [0,1]: {p}");
            (p * u32::MAX as f64) as u32
        };
        Self {
            seed,
            p_single: th(p_single),
            p_double: th(p_double),
        }
    }
}

/// A line transfer requested from a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramReq {
    /// Global line index.
    pub line: u32,
    /// True for a write-back, false for a fill.
    pub is_write: bool,
    /// Opaque token returned on completion.
    pub tag: u64,
}

/// A completed transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramDone {
    /// The originating request.
    pub req: DramReq,
    /// The `finished_at` value.
    pub finished_at: u64,
}

/// Channel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Transfer bandwidth in bytes per core cycle (8 ≈ DDR3 at the
    /// core clock; the photonic configs raise channel *count* instead).
    pub bytes_per_cycle: f64,
    /// Fixed access latency in cycles before data starts moving
    /// (row activation + off-chip flight; ~60 ns ≈ 200 cycles at
    /// 3.3 GHz, shortened in scaled-down simulations).
    pub access_latency: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
}

impl DramConfig {
    /// The paper-calibrated channel: 8 B/cycle, 32-byte lines.
    pub fn ddr_like() -> Self {
        Self {
            bytes_per_cycle: 8.0,
            access_latency: 200,
            line_bytes: 32,
        }
    }

    /// Cycles the data burst occupies the channel.
    pub fn burst_cycles(&self) -> u64 {
        (self.line_bytes as f64 / self.bytes_per_cycle)
            .ceil()
            .max(1.0) as u64
    }
}

/// Statistics for one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// The `reads` value.
    pub reads: u64,
    /// The `writes` value.
    pub writes: u64,
    /// The `bytes` value.
    pub bytes: u64,
    /// The `busy_cycles` value.
    pub busy_cycles: u64,
    /// The `peak_queue` value.
    pub peak_queue: usize,
    /// Single-bit errors corrected in place (no timing effect).
    pub ecc_corrected: u64,
    /// Double-bit errors detected by SECDED.
    pub ecc_detected: u64,
    /// Transfer re-runs triggered by detected double-bit errors.
    pub ecc_retries: u64,
    /// Double-bit errors whose retry budget was exhausted; the
    /// transfer completed anyway, leaving recovery to the caller.
    pub ecc_unrecoverable: u64,
}

/// One DRAM channel: a FIFO of line transfers, one in flight at a time.
#[derive(Debug)]
pub struct DramChannel {
    cfg: DramConfig,
    queue: VecDeque<DramReq>,
    /// (request, completion cycle) of the in-flight transfer.
    current: Option<(DramReq, u64)>,
    cycle: u64,
    /// Accumulated statistics.
    pub stats: DramStats,
    /// Optional seeded SECDED fault injection.
    ecc: Option<EccConfig>,
    /// Completed-transfer attempts so far — the ECC fault-hash index.
    transfers: u64,
    /// Re-reads already burned by the in-flight transfer.
    current_retries: u32,
}

impl DramChannel {
    /// Construct a new instance.
    pub fn new(cfg: DramConfig) -> Self {
        Self {
            cfg,
            queue: VecDeque::new(),
            current: None,
            cycle: 0,
            stats: DramStats::default(),
            ecc: None,
            transfers: 0,
            current_retries: 0,
        }
    }

    /// Enable seeded SECDED fault injection on this channel.
    pub fn enable_ecc(&mut self, ecc: EccConfig) {
        self.ecc = Some(ecc);
    }

    /// Checkpointable state: accumulated stats plus the ECC fault-hash
    /// cursor. Only meaningful on an idle channel.
    pub fn state(&self) -> (DramStats, u64) {
        debug_assert_eq!(self.pending(), 0, "checkpoint of a busy channel");
        (self.stats, self.transfers)
    }

    /// Restore state captured by [`DramChannel::state`] into a freshly
    /// built, idle channel.
    pub fn restore_state(&mut self, stats: DramStats, transfers: u64) {
        assert_eq!(self.pending(), 0, "restore into a busy channel");
        self.stats = stats;
        self.transfers = transfers;
        self.current_retries = 0;
    }

    /// Queue a transfer.
    pub fn enqueue(&mut self, req: DramReq) {
        self.queue.push_back(req);
        self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
    }

    /// The `pending` value.
    pub fn pending(&self) -> usize {
        self.queue.len() + usize::from(self.current.is_some())
    }

    /// Earliest cycle (channel clock) at which `step` can change
    /// state: the in-flight transfer's completion, or the very next
    /// cycle when a queued transfer is waiting to start.
    pub fn next_event(&self) -> Option<u64> {
        match (&self.current, self.queue.is_empty()) {
            (Some((_, done_at)), _) => Some(*done_at),
            (None, false) => Some(self.cycle + 1),
            (None, true) => None,
        }
    }

    /// Align the clock of a channel left unstepped while empty. Must
    /// be called before `enqueue` on a channel that was idle.
    pub fn sync_to(&mut self, cycle: u64) {
        if cycle > self.cycle {
            debug_assert_eq!(self.pending(), 0, "clock jump on a busy channel");
            self.cycle = cycle;
        }
    }

    /// Advance `n` cycles across which the caller guarantees (via
    /// [`DramChannel::next_event`]) no transfer starts or completes.
    /// Busy-cycle accounting still accrues for an in-flight transfer,
    /// exactly as per-cycle stepping would.
    pub fn skip_idle(&mut self, n: u64) {
        debug_assert!(
            self.next_event().is_none_or(|e| e > self.cycle + n),
            "skip_idle crossed a channel event"
        );
        if self.current.is_some() || !self.queue.is_empty() {
            self.stats.busy_cycles += n;
        }
        self.cycle += n;
    }

    /// Advance one cycle; returns the transfer that completed, if any.
    /// A completed transfer frees the channel for the next one in the
    /// same cycle, so a saturated channel sustains exactly one line per
    /// `access_latency + burst_cycles` (pipelined: per `burst_cycles`
    /// once the latency is hidden by queueing, as in hardware the row
    /// latency overlaps the previous burst; we approximate by charging
    /// latency only when the channel was idle).
    pub fn step(&mut self) -> Option<DramDone> {
        self.cycle += 1;
        if self.current.is_some() || !self.queue.is_empty() {
            self.stats.busy_cycles += 1;
        }
        let mut completed = None;
        if let Some((req, done_at)) = self.current {
            if self.cycle >= done_at {
                if let Some(ecc) = self.ecc {
                    let k = self.transfers;
                    self.transfers += 1;
                    let h = ecc_hash(ecc.seed, k);
                    let double = (h as u32) < ecc.p_double;
                    let single = ((h >> 32) as u32) < ecc.p_single;
                    if double {
                        self.stats.ecc_detected += 1;
                        if self.current_retries < EccConfig::RETRY_LIMIT {
                            // Detected double-bit error: re-read the
                            // line. The row is still open, so the
                            // retry pays the burst only.
                            self.stats.ecc_retries += 1;
                            self.current_retries += 1;
                            self.current = Some((req, self.cycle + self.cfg.burst_cycles()));
                            return None;
                        }
                        self.stats.ecc_unrecoverable += 1;
                    } else if single {
                        self.stats.ecc_corrected += 1;
                    }
                }
                self.current = None;
                self.current_retries = 0;
                if req.is_write {
                    self.stats.writes += 1;
                } else {
                    self.stats.reads += 1;
                }
                self.stats.bytes += self.cfg.line_bytes as u64;
                completed = Some(DramDone {
                    req,
                    finished_at: self.cycle,
                });
            }
        }
        if self.current.is_none() {
            if let Some(req) = self.queue.pop_front() {
                // Back-to-back transfers hide the access latency behind
                // the previous burst; a transfer starting on an idle
                // channel pays it in full.
                let lat = if completed.is_some() {
                    0
                } else {
                    self.cfg.access_latency as u64
                };
                let done_at = self.cycle + lat + self.cfg.burst_cycles();
                self.current = Some((req, done_at));
            }
        }
        completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(lat: u32) -> DramChannel {
        DramChannel::new(DramConfig {
            bytes_per_cycle: 8.0,
            access_latency: lat,
            line_bytes: 32,
        })
    }

    #[test]
    fn burst_cycles_from_bandwidth() {
        assert_eq!(DramConfig::ddr_like().burst_cycles(), 4);
        let slow = DramConfig {
            bytes_per_cycle: 2.0,
            access_latency: 0,
            line_bytes: 32,
        };
        assert_eq!(slow.burst_cycles(), 16);
    }

    #[test]
    fn single_transfer_timing() {
        let mut c = chan(10);
        c.enqueue(DramReq {
            line: 5,
            is_write: false,
            tag: 1,
        });
        let mut done = None;
        let mut cycles = 0;
        while done.is_none() && cycles < 100 {
            done = c.step();
            cycles += 1;
        }
        // 1 (start) + 10 (latency) + 4 (burst) = completes at cycle 15.
        assert_eq!(done.unwrap().finished_at, 15);
        assert_eq!(c.stats.reads, 1);
        assert_eq!(c.stats.bytes, 32);
    }

    #[test]
    fn back_to_back_transfers_pipeline_at_burst_rate_plus_latency() {
        let mut c = chan(0);
        for i in 0..4 {
            c.enqueue(DramReq {
                line: i,
                is_write: i % 2 == 1,
                tag: i as u64,
            });
        }
        let mut completions = Vec::new();
        for _ in 0..100 {
            if let Some(d) = c.step() {
                completions.push(d.finished_at);
            }
        }
        assert_eq!(completions.len(), 4);
        // With zero latency each line takes burst_cycles; spacing 4.
        for w in completions.windows(2) {
            assert_eq!(w[1] - w[0], 4);
        }
        assert_eq!(c.stats.reads, 2);
        assert_eq!(c.stats.writes, 2);
    }

    #[test]
    fn busy_accounting() {
        let mut c = chan(0);
        for _ in 0..10 {
            c.step();
        }
        assert_eq!(c.stats.busy_cycles, 0);
        c.enqueue(DramReq {
            line: 0,
            is_write: false,
            tag: 0,
        });
        while c.pending() > 0 {
            c.step();
        }
        assert!(c.stats.busy_cycles >= 4);
    }

    #[test]
    fn skip_idle_matches_stepping_including_busy_cycles() {
        let mut stepped = chan(10);
        let mut skipped = chan(10);
        for c in [&mut stepped, &mut skipped] {
            c.enqueue(DramReq {
                line: 3,
                is_write: false,
                tag: 7,
            });
            assert!(c.step().is_none(), "transfer just started");
        }
        let done_at = stepped.next_event().expect("transfer in flight");
        // Reference: step cycle by cycle to completion.
        let mut a = None;
        while a.is_none() {
            a = stepped.step();
        }
        // Skipper: jump to one cycle before the event, then step once.
        skipped.skip_idle(done_at - skipped.cycle - 1);
        let b = skipped.step().expect("completion on the event cycle");
        assert_eq!(a.unwrap(), b);
        assert_eq!(stepped.stats, skipped.stats, "busy accounting must match");
        assert_eq!(stepped.next_event(), None);
        assert_eq!(skipped.next_event(), None);
    }

    #[test]
    fn utilization_under_saturation() {
        // Saturated channel must be busy every cycle and sustain
        // exactly line_bytes / burst_cycles per cycle.
        let mut c = chan(0);
        let total = 50u64;
        for i in 0..total {
            c.enqueue(DramReq {
                line: i as u32,
                is_write: false,
                tag: i,
            });
        }
        let mut cycles = 0u64;
        let mut done = 0u64;
        while done < total {
            if c.step().is_some() {
                done += 1;
            }
            cycles += 1;
        }
        let bw = c.stats.bytes as f64 / cycles as f64;
        assert!((bw - 8.0).abs() < 0.5, "sustained {bw} B/cycle");
    }

    fn run_to_done(c: &mut DramChannel) -> DramDone {
        for _ in 0..10_000 {
            if let Some(d) = c.step() {
                return d;
            }
        }
        panic!("transfer never completed");
    }

    #[test]
    fn ecc_single_bit_corrects_without_timing_effect() {
        let mut clean = chan(10);
        let mut faulty = chan(10);
        faulty.enable_ecc(EccConfig::new(1, 1.0, 0.0));
        for c in [&mut clean, &mut faulty] {
            c.enqueue(DramReq {
                line: 0,
                is_write: false,
                tag: 0,
            });
        }
        let a = run_to_done(&mut clean);
        let b = run_to_done(&mut faulty);
        assert_eq!(a.finished_at, b.finished_at, "correction is free");
        assert_eq!(faulty.stats.ecc_corrected, 1);
        assert_eq!(faulty.stats.ecc_detected, 0);
    }

    #[test]
    fn ecc_double_bit_retries_then_gives_up() {
        let mut clean = chan(10);
        let mut faulty = chan(10);
        faulty.enable_ecc(EccConfig::new(2, 0.0, 1.0));
        for c in [&mut clean, &mut faulty] {
            c.enqueue(DramReq {
                line: 9,
                is_write: false,
                tag: 4,
            });
        }
        let a = run_to_done(&mut clean);
        let b = run_to_done(&mut faulty);
        // Two re-reads, each one burst (4 cycles) with the row open.
        assert_eq!(b.finished_at, a.finished_at + 2 * 4);
        assert_eq!(b.req, a.req);
        assert_eq!(faulty.stats.ecc_detected, 3);
        assert_eq!(faulty.stats.ecc_retries, 2);
        assert_eq!(faulty.stats.ecc_unrecoverable, 1);
        assert_eq!(faulty.stats.reads, 1, "the transfer still completes once");
    }

    #[test]
    fn ecc_same_seed_replays_identically() {
        let run = |seed| {
            let mut c = chan(0);
            c.enable_ecc(EccConfig::new(seed, 0.3, 0.1));
            for i in 0..32 {
                c.enqueue(DramReq {
                    line: i,
                    is_write: false,
                    tag: i as u64,
                });
            }
            let mut finishes = Vec::new();
            while c.pending() > 0 {
                if let Some(d) = c.step() {
                    finishes.push(d.finished_at);
                }
            }
            (finishes, c.stats)
        };
        assert_eq!(run(77), run(77));
    }

    #[test]
    fn ecc_state_round_trip_resumes_the_fault_stream() {
        let mut whole = chan(0);
        whole.enable_ecc(EccConfig::new(5, 0.4, 0.2));
        let mut split = chan(0);
        split.enable_ecc(EccConfig::new(5, 0.4, 0.2));
        let reqs: Vec<DramReq> = (0..16)
            .map(|i| DramReq {
                line: i,
                is_write: false,
                tag: i as u64,
            })
            .collect();
        for r in &reqs {
            whole.enqueue(*r);
            run_to_done(&mut whole);
        }
        // Split run: first half, checkpoint, restore into a fresh
        // channel, second half.
        for r in &reqs[..8] {
            split.enqueue(*r);
            run_to_done(&mut split);
        }
        let (stats, transfers) = split.state();
        let mut resumed = chan(0);
        resumed.enable_ecc(EccConfig::new(5, 0.4, 0.2));
        resumed.restore_state(stats, transfers);
        for r in &reqs[8..] {
            resumed.enqueue(*r);
            run_to_done(&mut resumed);
        }
        // Counter totals (not busy cycles: the resumed channel's clock
        // restarted) must match the uninterrupted run.
        assert_eq!(resumed.stats.ecc_corrected, whole.stats.ecc_corrected);
        assert_eq!(resumed.stats.ecc_detected, whole.stats.ecc_detected);
        assert_eq!(resumed.stats.ecc_retries, whole.stats.ecc_retries);
        assert_eq!(resumed.stats.reads, whole.stats.reads);
    }
}
