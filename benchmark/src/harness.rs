//! The round runner every workload goes through: fresh set-up per
//! round, untimed warm-up ops, a fixed number of timed ops, output
//! checks after the clock stops, and the host gauges sampled in
//! between.

use crate::host::{self, Chase};
use crate::stats;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// How one round of a workload is shaped. Fixed counts, so a round's
/// work and memory are the same on every run and every commit.
#[derive(Debug, Clone, Copy)]
pub struct RoundPlan {
    /// Timed ops per round.
    pub ops: usize,
    /// Untimed (but checked) ops before them.
    pub warmups: usize,
    /// Timed ops between two samples of the host gauges.
    pub gauge_every: usize,
    /// Times the set-up is made (and timed) per round; the last one is
    /// the one the round's ops run on. More than one where a set-up is
    /// a few milliseconds and a run holds only a few rounds.
    pub setups: usize,
}

/// One workload: a closed loop of one client.
pub trait Workload {
    /// What an op hands to [`Workload::check`] once the clock stopped.
    type Out;

    fn plan(&self) -> RoundPlan;
    /// Untimed work before a round's set-up: generate the round's
    /// inputs from the seed.
    fn prepare(&mut self, round: u64);
    /// The round's set-up, timed as one `setup_s` sample.
    fn setup(&mut self, tr: &Tracer);
    /// One op, timed.
    fn op(&mut self, tr: &Tracer) -> Self::Out;
    /// Is the op's output correct? Untimed.
    fn check(&mut self, out: Self::Out) -> Result<(), String>;
    /// Drop the round's state. Untimed.
    fn teardown(&mut self);
}

/// One reading of the two host gauges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gauge {
    /// Memory-latency gauge: ns per dependent load ([`Chase`]).
    pub chase_ns: f64,
    /// Core-speed gauge: ms per pass ([`host::spin_ms`]).
    pub spin_ms: f64,
}

impl Gauge {
    /// The reference host every latency is normalised to: the quiet
    /// readings of the host the benchmark was defined on. Only ratios
    /// to these matter, and only between runs on one host.
    pub const REFERENCE: Gauge = Gauge {
        chase_ns: 200.0,
        spin_ms: 4.4,
    };

    fn mean(a: Gauge, b: Gauge) -> Gauge {
        Gauge {
            chase_ns: (a.chase_ns + b.chase_ns) / 2.0,
            spin_ms: (a.spin_ms + b.spin_ms) / 2.0,
        }
    }

    /// How much slower than the reference host this moment was: the
    /// mean of how much slower its core and its memory were running.
    /// A wall-clock time divided by this is the host-normalised time.
    /// (Which of the two a workload follows changes from one quarter
    /// of an hour to the next on the host this was tuned on, so the
    /// blend is the even one for every workload, not a weight each —
    /// the README has the numbers.)
    pub fn dilation(&self) -> f64 {
        (self.spin_ms / Self::REFERENCE.spin_ms + self.chase_ns / Self::REFERENCE.chase_ns) / 2.0
    }
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub round: u64,
    /// Wall-clock latency.
    pub ms: f64,
    /// The gauges beside this op: mean of the readings before and
    /// after its block of ops.
    pub gauge: Gauge,
    /// Recorded with the tracer on.
    pub traced: bool,
}

/// Everything the rounds of one run measured.
#[derive(Default)]
pub struct Measured {
    /// (wall seconds, gauges around it) of each round's set-up.
    pub setups: Vec<(f64, Gauge)>,
    pub ops: Vec<OpSample>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    pub rounds: u64,
    /// Timed ops run, failed ones included.
    pub timed: u64,
    /// Over the timed blocks of every round: CPU seconds, context
    /// switches and allocation calls of the whole process.
    pub cpu_s: f64,
    pub ctx_switches: u64,
    pub allocs: u64,
    /// Resident set before the first and after the last timed op of
    /// round 0, KiB: what the round's ops left behind on a fresh heap.
    pub round0_rss_kb: (u64, u64),
}

impl Measured {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Wall-clock latencies of the ops recorded with the tracer on or
    /// off.
    pub fn latencies_ms(&self, traced: bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.traced == traced)
            .map(|o| o.ms)
            .collect()
    }

    /// The same, each divided by the host's dilation beside it.
    pub fn normalised_ms(&self, traced: bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.traced == traced)
            .map(|o| o.ms / o.gauge.dilation())
            .collect()
    }
}

/// The host gauges, sampled between blocks of ops and around set-ups;
/// their medians are printed with every run so a contended run is
/// recognisable after the fact.
pub struct Gauges {
    chase: Chase,
    pub readings: Vec<Gauge>,
}

impl Gauges {
    pub fn new() -> Gauges {
        Gauges {
            chase: Chase::new(),
            readings: Vec::new(),
        }
    }

    pub fn sample(&mut self) -> Gauge {
        let g = Gauge {
            spin_ms: host::spin_ms(),
            chase_ns: self.chase.sample_ns(),
        };
        self.readings.push(g);
        g
    }

    /// Median reading of the memory-latency gauge over the run.
    pub fn chase_ns(&self) -> f64 {
        stats::median(&self.readings.iter().map(|g| g.chase_ns).collect::<Vec<_>>())
    }

    fn spin_readings(&self) -> Vec<f64> {
        self.readings.iter().map(|g| g.spin_ms).collect()
    }

    /// `host.calib_ms`: median reading of the core-speed gauge.
    pub fn calib_ms(&self) -> f64 {
        stats::median(&self.spin_readings())
    }

    /// `host.noise_frac`: median ÷ fastest − 1 of the core-speed gauge —
    /// how much slower the typical pass was than the run's quietest
    /// moment.
    pub fn noise_frac(&self) -> f64 {
        let min = self
            .spin_readings()
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        self.calib_ms() / min - 1.0
    }
}

/// An op that takes this many times the round's running median is a
/// failure: it misses every latency figure instead of stretching them.
/// (Not 100: sweep 1789 of every `svc_hit` round takes 65–250 ms, 130
/// to 500 medians, while the server's job table rehashes past 28 672
/// entries under the state lock. That pause is the program's and stays
/// in the figures; a wedge is what this catches.)
const STALL_FACTOR: f64 = 1000.0;

/// Run one round. `traced` switches the tracer on for the round's
/// set-up and timed ops.
pub fn run_round<W: Workload>(
    w: &mut W,
    round: u64,
    traced: bool,
    tr: &Tracer,
    gauges: &mut Gauges,
    m: &mut Measured,
) {
    let plan = w.plan();
    w.prepare(round);
    let before_setup = gauges.sample();
    tr.set_on(traced);
    let mut setups_s = Vec::with_capacity(plan.setups);
    for i in 0..plan.setups.max(1) {
        if i > 0 {
            w.teardown();
        }
        let t = Instant::now();
        tr.span("setup", || w.setup(tr));
        setups_s.push(t.elapsed().as_secs_f64());
    }
    tr.set_on(false);
    for _ in 0..plan.warmups {
        let out = w.op(tr);
        m.attempted += 1;
        if let Err(e) = w.check(out) {
            m.fail(format!("round {round} warm-up: {e}"));
        }
    }
    let mut round_ms: Vec<f64> = Vec::with_capacity(plan.ops);
    let mut done = 0;
    let mut before = gauges.sample();
    let around_setup = Gauge::mean(before_setup, before);
    m.setups
        .extend(setups_s.into_iter().map(|s| (s, around_setup)));
    if round == 0 {
        m.round0_rss_kb.0 = host::rss_kb();
    }
    while done < plan.ops {
        let block = plan.gauge_every.min(plan.ops - done);
        let (cpu0, csw0) = host::cpu_and_switches();
        let (allocs0, _) = host::alloc_counters();
        let mut outs = Vec::with_capacity(block);
        for _ in 0..block {
            tr.set_on(traced);
            tr.next_op();
            let t = Instant::now();
            let out = tr.span("op", || w.op(tr));
            outs.push((t.elapsed().as_secs_f64() * 1e3, out));
            tr.set_on(false);
        }
        let (cpu1, csw1) = host::cpu_and_switches();
        let (allocs1, _) = host::alloc_counters();
        m.cpu_s += cpu1 - cpu0;
        m.ctx_switches += csw1 - csw0;
        m.allocs += allocs1 - allocs0;
        m.timed += block as u64;
        if round == 0 && done + block == plan.ops {
            m.round0_rss_kb.1 = host::rss_kb();
        }
        let after = gauges.sample();
        let gauge = Gauge::mean(before, after);
        for (i, (ms, out)) in outs.into_iter().enumerate() {
            m.attempted += 1;
            let stalled = round_ms.len() >= 8 && ms > STALL_FACTOR * stats::median(&round_ms);
            match w.check(out) {
                Err(e) => m.fail(format!("round {round} op {}: {e}", done + i)),
                Ok(()) if stalled => m.fail(format!(
                    "round {round} op {}: stalled for {ms:.1} ms",
                    done + i
                )),
                Ok(()) => {
                    round_ms.push(ms);
                    m.ops.push(OpSample {
                        round,
                        ms,
                        gauge,
                        traced,
                    });
                }
            }
        }
        before = after;
        done += block;
    }
    w.teardown();
    m.rounds += 1;
}

/// Run rounds for about `seconds`: a round is never cut short (its op
/// count is fixed), so the run ends at the round boundary nearest the
/// budget. With `alternate_tracing`, odd rounds record spans and even
/// rounds do not, so the two halves see the same host. `max_rounds`
/// caps the count (the smoke run).
pub fn run_for<W: Workload>(
    w: &mut W,
    seconds: f64,
    max_rounds: u64,
    alternate_tracing: bool,
    tr: &Tracer,
    gauges: &mut Gauges,
) -> Measured {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut m = Measured::default();
    loop {
        let traced = alternate_tracing && m.rounds % 2 == 1;
        run_round(w, m.rounds, traced, tr, gauges, &mut m);
        let elapsed = start.elapsed();
        let per_round = elapsed / m.rounds as u32;
        let both_halves = !alternate_tracing || m.rounds >= 2;
        if m.rounds >= max_rounds || (both_halves && elapsed + per_round / 2 > budget) {
            return m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dilation_is_one_on_the_reference_host_and_blends_the_gauges() {
        assert!((Gauge::REFERENCE.dilation() - 1.0).abs() < 1e-12);
        let slow_memory = Gauge {
            chase_ns: 300.0,
            ..Gauge::REFERENCE
        };
        assert!((slow_memory.dilation() - 1.25).abs() < 1e-12);
        let slow_both = Gauge {
            chase_ns: 300.0,
            spin_ms: 6.6,
        };
        assert!((slow_both.dilation() - 1.5).abs() < 1e-12);
    }

    /// A workload that counts its calls and fails every third check.
    struct Counting {
        ops: u64,
        setups: u64,
    }

    impl Workload for Counting {
        type Out = u64;
        fn plan(&self) -> RoundPlan {
            RoundPlan {
                ops: 6,
                warmups: 1,
                gauge_every: 4,
                setups: 3,
            }
        }
        fn prepare(&mut self, _round: u64) {}
        fn setup(&mut self, _tr: &Tracer) {
            self.setups += 1;
        }
        fn op(&mut self, _tr: &Tracer) -> u64 {
            self.ops += 1;
            self.ops
        }
        fn check(&mut self, out: u64) -> Result<(), String> {
            if out.is_multiple_of(3) {
                Err(format!("op {out} is wrong"))
            } else {
                Ok(())
            }
        }
        fn teardown(&mut self) {}
    }

    #[test]
    fn rounds_count_every_op_and_keep_failures_out_of_the_latencies() {
        let mut w = Counting { ops: 0, setups: 0 };
        let tr = Tracer::new();
        let mut gauges = Gauges::new();
        let m = run_for(&mut w, 0.0, 2, true, &tr, &mut gauges);
        assert_eq!((m.rounds, w.setups, m.setups.len()), (2, 6, 6));
        assert_eq!(m.attempted, 14, "6 timed ops and 1 warm-up per round");
        assert_eq!(m.failed, 4, "ops 3, 6, 9 and 12");
        assert_eq!(m.ops.len(), 8, "a failed op misses every latency figure");
        assert_eq!(m.errors.len(), 4);
        // Round 1 was traced, round 0 was not.
        assert_eq!(m.latencies_ms(false).len() + m.latencies_ms(true).len(), 8);
        assert!(m.ops.iter().all(|o| o.traced == (o.round == 1)));
        assert!(tr.len() > 0);
        // Two gauge readings around set-up, then one per block of 4.
        assert_eq!(gauges.readings.len(), 2 * 4);
    }
}
