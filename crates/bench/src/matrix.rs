//! The determinism matrix: the one place a run's determinism is judged.
//!
//! Every number this reproduction reports is a cycle count, and it
//! holds only while every engine, translation tier, fault plan, probe
//! and slicing of a run yields the same cycles, statistics and memory.
//! A [`Subject`] is a workload: a base [`SimConfig`] plus a function
//! from a config to a [`MachineBuilder`]. A [`Cell`] is one way to run
//! it: an engine, a tier, a fault [`Plan`], a probe interval or none,
//! and pause points or none. [`agree`] runs each cell and holds it to
//! the *oracle* — Reference on the interpreter tier, unprobed and
//! unsliced, under the cell's plan (a benign plan is held to the
//! healthy oracle) — and returns the oracle's result, or every
//! divergence, naming the cell and the first field that differs.
//!
//! What a cell yields ([`Yield`]), in the order it is compared:
//! - the outcome, statistics, spawn log, the whole memory image and
//!   the global registers: the oracle's. [`agree`] requires the runs to
//!   complete; [`agree_on_outcome`] lets them fail alike, compared by
//!   the typed error's `Debug` text alone;
//! - probe rows: the first probed cell's with the same interval and
//!   oracle;
//! - trace-cache counters: the first run's of the same engine, tier,
//!   oracle and pauses (a resumed machine starts cold);
//! - per pause, the cycle it paused on and a digest of its checkpoint
//!   bytes: the first sliced cell's with the same pauses and oracle.
//!
//! The cell lists: [`exact_cells`] (engine × tier × plan, what
//! `bench_sim` runs), [`probe_cells`] (engine × [`PROBE_INTERVALS`]),
//! and the pause sets [`halfway`], [`third`], [`eight_slices`] and
//! [`SERIAL_PARITY`]; the suites pick fixed pause cycles of their own.

use crate::baseline::{self, ExactRow};
use std::fmt::Debug;
use xmt_fft::golden::{self, GoldenCase};
use xmt_sim::{
    Checkpoint, Engine, FaultPlan, IntervalProbe, IntervalRow, Machine, MachineBuilder, Probe,
    RunOutcome, RunReport, RunStatus, SimConfig, TraceStats, TranslationTier,
};

/// The engines of the exact pass; the first is the oracle's.
pub const ENGINES: [Engine; 2] = [Engine::Reference, Engine::FastForward];

/// The translation tiers; the first is the oracle's.
pub const TIERS: [TranslationTier; 2] = [TranslationTier::Interpreter, TranslationTier::Block];

/// The fault plans of the exact pass; paper-scale cases run only the
/// first.
pub const PLANS: [Plan; 3] = [Plan::Healthy, Plan::Benign, Plan::Soft(0xFEED_5EED)];

/// The sampling intervals of the probed cells: every cycle, an odd
/// stride that drifts across both clock parities, the default grid,
/// and one longer than any run (only the end-of-run flush samples).
pub const PROBE_INTERVALS: [u64; 4] = [1, 7, 64, 1 << 20];

/// A cell's fault plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    Healthy,
    /// A seeded [`FaultPlan`] with every rate zero: must change
    /// nothing, so it is held to the healthy oracle.
    Benign,
    /// DRAM bit flips and NoC corruption from this seed, all
    /// recoverable: changes the run, the same way under every engine
    /// and tier.
    Soft(u64),
}

impl Plan {
    pub fn faults(self) -> FaultPlan {
        match self {
            Plan::Healthy => FaultPlan::default(),
            Plan::Benign => FaultPlan::new(0xB1A5),
            Plan::Soft(seed) => FaultPlan::new(seed)
                .dram_flips(0.02, 0.002)
                .noc_corrupt(0.01),
        }
    }

    /// The plan whose oracle this plan's cells are held to.
    fn oracle(self) -> Plan {
        match self {
            Plan::Benign => Plan::Healthy,
            plan => plan,
        }
    }
}

/// Pause points of a sliced cell, chosen from the oracle's report.
pub type Pauses = fn(&RunReport) -> Vec<u64>;

/// One way to run a subject.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub engine: Engine,
    pub tier: TranslationTier,
    pub plan: Plan,
    /// Sample an [`IntervalProbe`] every this many cycles.
    pub probe: Option<u64>,
    /// Run in slices: pause at the first quiescent cycle at or after
    /// each point, serialize the checkpoint, read it back and resume
    /// into a fresh machine.
    pub pauses: Option<Pauses>,
}

impl Cell {
    /// What every cell is held to.
    pub const ORACLE: Cell = Cell::on(Engine::Reference, TranslationTier::Interpreter);
    /// What every consumer runs by default; a `BENCH_sim.json` row
    /// records its trace counters.
    pub const DEFAULT: Cell = Cell::on(Engine::FastForward, TranslationTier::Block);

    /// Healthy, unprobed and unsliced.
    pub const fn on(engine: Engine, tier: TranslationTier) -> Cell {
        Cell {
            engine,
            tier,
            plan: Plan::Healthy,
            probe: None,
            pauses: None,
        }
    }

    pub const fn plan(self, plan: Plan) -> Cell {
        Cell { plan, ..self }
    }

    pub const fn probed(self, interval: u64) -> Cell {
        Cell {
            probe: Some(interval),
            ..self
        }
    }

    pub const fn sliced(self, pauses: Pauses) -> Cell {
        Cell {
            pauses: Some(pauses),
            ..self
        }
    }

    /// This is `plain` (which is neither probed nor sliced).
    fn is(&self, plain: Cell) -> bool {
        (self.engine, self.tier, self.plan) == (plain.engine, plain.tier, plain.plan)
            && self.probe.is_none()
            && self.pauses.is_none()
    }

    fn name(&self) -> String {
        let (e, t, p) = (self.engine, self.tier, self.plan);
        match self.probe {
            Some(interval) => format!("{e:?}/{t:?}/{p:?}/probe@{interval}"),
            None => format!("{e:?}/{t:?}/{p:?}"),
        }
    }
}

/// Every engine × tier × plan of `plans`, in table order.
pub fn exact_cells(plans: &[Plan]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &plan in plans {
        for engine in ENGINES {
            cells.extend(TIERS.map(|tier| Cell::on(engine, tier).plan(plan)));
        }
    }
    cells
}

/// Every engine on the default tier, probed at every one of
/// [`PROBE_INTERVALS`].
pub fn probe_cells() -> Vec<Cell> {
    (PROBE_INTERVALS.into_iter())
        .flat_map(|iv| ENGINES.map(|e| Cell::on(e, TranslationTier::Block).probed(iv)))
        .collect()
}

pub fn halfway(r: &RunReport) -> Vec<u64> {
    vec![r.stats.cycles / 2]
}

pub fn third(r: &RunReport) -> Vec<u64> {
    vec![r.stats.cycles / 3]
}

/// Eight slices of `cycles / 8 + 1` cycles each.
pub fn eight_slices(r: &RunReport) -> Vec<u64> {
    (1..8).map(|k| k * (r.stats.cycles / 8 + 1)).collect()
}

/// The cycle spawn `K` ends: inside the serial stretch after it.
pub fn end_of_spawn<const K: usize>(r: &RunReport) -> Vec<u64> {
    (r.spawns.get(K).iter())
        .map(|s| s.start_cycle + s.cycles)
        .collect()
}

/// The middle of spawn `K`: the machine runs on to its end, the next
/// quiescent cycle.
pub fn mid_spawn<const K: usize>(r: &RunReport) -> Vec<u64> {
    (r.spawns.get(K).iter())
        .map(|s| s.start_cycle + s.cycles / 2)
        .collect()
}

/// Single pauses at the ends of the first two spawns — the first in
/// the serial stretch after it, the second reached from the middle of
/// the spawn — for a machine whose memory side arbitrates by clock
/// parity: a resumed run is exact only if it is restored on either
/// parity. The caller asserts that the paused cycles do differ in
/// parity.
pub const SERIAL_PARITY: [Pauses; 2] = [end_of_spawn::<0>, mid_spawn::<1>];

/// A workload the matrix runs: a base configuration and how to load
/// the program and memory image onto a configuration.
pub struct Subject<'a> {
    name: String,
    sim: SimConfig,
    build: Box<dyn Fn(&SimConfig) -> MachineBuilder + 'a>,
}

impl<'a> Subject<'a> {
    pub fn new(
        name: &str,
        sim: SimConfig,
        build: impl Fn(&SimConfig) -> MachineBuilder + 'a,
    ) -> Self {
        Subject {
            name: name.to_string(),
            sim,
            build: Box::new(build),
        }
    }

    /// A golden workload (`xmt_fft::golden`).
    pub fn golden(case: &'a GoldenCase) -> Self {
        Subject::new(case.name, case.sim_config(), |sim| case.builder(sim))
    }

    fn builder(&self, cell: &Cell) -> MachineBuilder {
        let sim = self.sim.clone().engine(cell.engine).tier(cell.tier);
        (self.build)(&sim.faults(cell.plan.faults()))
    }
}

/// What one run of a cell produced.
#[derive(Debug, Clone)]
pub struct Yield {
    /// The report: complete, or partial as of a failure.
    pub report: RunReport,
    /// The typed error's `Debug` text when the run failed.
    pub error: Option<String>,
    pub mem: Vec<u32>,
    pub gregs: [u32; 16],
    /// The retained interval rows (empty unprobed).
    pub rows: Vec<IntervalRow>,
    pub trace: Option<TraceStats>,
    /// Per pause taken: (the cycle the machine paused on, an FNV-1a
    /// digest of its checkpoint bytes).
    pub paused: Vec<(u64, u64)>,
}

impl Yield {
    fn of<P: Probe>(m: &Machine<P>, outcome: RunOutcome, paused: Vec<(u64, u64)>) -> Yield {
        let error = match outcome.status {
            RunStatus::Completed => None,
            status => Some(format!("{status:?}")),
        };
        Yield {
            report: outcome.report,
            error,
            mem: m.mem.clone(),
            gregs: m.gregs_snapshot(),
            rows: Vec::new(),
            trace: m.trace_stats(),
            paused,
        }
    }

    /// The first of outcome, statistics, spawn log, memory and global
    /// registers that differs from the oracle's.
    fn differs_from(&self, o: &Yield) -> Option<String> {
        if self.error.is_some() || o.error.is_some() {
            return differ("outcome", &[&self.error], &[&o.error], "the oracle");
        }
        let (got, want) = (&self.report, &o.report);
        differ("stats", &[got.stats], &[want.stats], "the oracle")
            .or_else(|| differ("spawn", &got.spawns, &want.spawns, "the oracle"))
            .or_else(|| differ("memory word", &self.mem, &o.mem, "the oracle"))
            .or_else(|| differ("global register", &self.gregs, &o.gregs, "the oracle"))
    }
}

/// `what` at the first index where `got` and `want` part, if they do.
fn differ<T: PartialEq + Debug>(what: &str, got: &[T], want: &[T], of: &str) -> Option<String> {
    let i = got.iter().zip(want).take_while(|(a, b)| a == b).count();
    (got != want).then(|| format!("{what} {i}: {:?} != {of}'s {:?}", got.get(i), want.get(i)))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    (bytes.iter()).fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Run one cell; a sliced cell pauses at `pauses`.
fn run(subject: &Subject, cell: &Cell, pauses: &[u64]) -> Yield {
    if let Some(interval) = cell.probe {
        let probe = IntervalProbe::new(interval, 1 << 14);
        let mut m = subject.builder(cell).build_probed(probe);
        let outcome = m.run();
        let rows = m.probe().rows();
        return Yield {
            rows,
            ..Yield::of(&m, outcome, Vec::new())
        };
    }
    let mut m = subject.builder(cell).build();
    let mut paused = Vec::new();
    for &pause in pauses {
        if paused.last().is_some_and(|&(at, _)| pause <= at) {
            continue; // the previous slice already ran past this point
        }
        let outcome = m.run_until(pause);
        let RunStatus::Paused { at_cycle } = outcome.status else {
            return Yield::of(&m, outcome, paused);
        };
        let mut resume = || -> Result<u64, String> {
            let bytes = m.checkpoint_bytes().map_err(|e| format!("{e:?}"))?;
            let cp = Checkpoint::from_bytes(&bytes).map_err(|e| format!("{e:?}"))?;
            if at_cycle < pause || cp.cycle() != at_cycle {
                return Err(format!("asked for {pause}, read back {}", cp.cycle()));
            }
            m = subject
                .builder(cell)
                .resume(&cp)
                .map_err(|e| format!("{e:?}"))?;
            Ok(fnv1a(&bytes))
        };
        match resume() {
            Ok(digest) => paused.push((at_cycle, digest)),
            Err(e) => {
                let error = Some(format!("slice at {at_cycle}: {e}"));
                return Yield {
                    error,
                    ..Yield::of(&m, outcome, paused)
                };
            }
        }
    }
    let outcome = m.run();
    Yield::of(&m, outcome, paused)
}

/// What every cell agreed on.
#[derive(Debug)]
pub struct Agreed {
    /// The oracle of the first cell's plan.
    pub oracle: Yield,
    /// Each cell with what it yielded, in the order given.
    pub cells: Vec<(Cell, Yield)>,
}

impl Agreed {
    /// The exact part of a `BENCH_sim.json` row: the oracle's cycles,
    /// statistics and spawn digest, and [`Cell::DEFAULT`]'s trace
    /// counters — which must be among the cells.
    pub fn row(&self, section: &'static str, name: &str) -> ExactRow {
        let (_, default) = (self.cells.iter())
            .find(|(c, _)| c.is(Cell::DEFAULT))
            .expect("the cells hold the default cell");
        let ts = default.trace.expect("the block tier keeps trace counters");
        let stats = self.oracle.report.stats;
        ExactRow {
            section,
            name: name.to_string(),
            simulated_cycles: stats.cycles,
            spawn_digest: golden::spawn_digest(&self.oracle.report),
            stats,
            trace: baseline::trace_fields(
                ts.blocks,
                ts.lowered,
                ts.uops,
                ts.entries + stats.threads,
            ),
            work: Vec::new(),
        }
    }
}

/// Every divergence [`agree`] found, one line each.
pub struct Divergences(pub Vec<String>);

impl Debug for Divergences {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} divergence(s):\n{}", self.0.len(), self.0.join("\n"))
    }
}

/// Run every cell of `subject`, hold each to the oracle and to its
/// peers (module docs), and require every cell to complete: a failure
/// the cells share is still a failure.
///
/// # Panics
/// On no cells, or a cell both probed and sliced.
pub fn agree(subject: &Subject, cells: &[Cell]) -> Result<Agreed, Divergences> {
    judge(subject, cells, true)
}

/// [`agree`] without the completion requirement: the cells may agree
/// on a typed error, for a plan that may make a run fail.
///
/// # Panics
/// As [`agree`].
pub fn agree_on_outcome(subject: &Subject, cells: &[Cell]) -> Result<Agreed, Divergences> {
    judge(subject, cells, false)
}

fn judge(subject: &Subject, cells: &[Cell], complete: bool) -> Result<Agreed, Divergences> {
    let first_plan = cells.first().expect("at least one cell").plan.oracle();
    let mut oracles: Vec<(Plan, Yield)> = Vec::new();
    for plan in cells.iter().map(|c| c.plan.oracle()) {
        if oracles.iter().all(|(p, _)| *p != plan) {
            oracles.push((plan, run(subject, &Cell::ORACLE.plan(plan), &[])));
        }
    }
    let mut done: Vec<(Cell, Vec<u64>, Yield)> = Vec::new();
    let mut diverged = Vec::new();
    for &cell in cells {
        assert!(
            cell.probe.is_none() || cell.pauses.is_none(),
            "probed and sliced"
        );
        let key = cell.plan.oracle();
        let oracle = &oracles
            .iter()
            .find(|(p, _)| *p == key)
            .expect("ran above")
            .1;
        let pauses = cell.pauses.map_or_else(Vec::new, |f| f(&oracle.report));
        let y = if cell.is(Cell::ORACLE.plan(key)) {
            oracle.clone()
        } else {
            run(subject, &cell, &pauses)
        };
        // The first earlier cell of the same oracle that `same` picks.
        let peer = |same: &dyn Fn(&Cell, &[u64]) -> bool| {
            (done.iter())
                .find(|(c, p, _)| c.plan.oracle() == key && same(c, p))
                .map(|(c, _, y)| (c.name(), y))
        };
        let rows = (cell.probe)
            .and_then(|_| peer(&|c, _| c.probe == cell.probe))
            .and_then(|(c, p)| differ("probe row", &y.rows, &p.rows, &c));
        let trace = peer(&|c, p| (c.engine, c.tier) == (cell.engine, cell.tier) && p == pauses)
            .and_then(|(c, p)| differ("trace stats", &[y.trace], &[p.trace], &c));
        let paused = (cell.pauses)
            .and_then(|_| peer(&|c, p| c.pauses.is_some() && p == pauses))
            .and_then(|(c, p)| differ("pause", &y.paused, &p.paused, &c));
        let failed = (y.error.as_ref())
            .filter(|_| complete)
            .map(|e| format!("did not complete: {e}"));
        if let Some(what) = failed
            .or_else(|| y.differs_from(oracle))
            .or(rows)
            .or(trace)
            .or(paused)
        {
            let sliced = cell
                .pauses
                .map_or_else(String::new, |_| format!("/paused@{pauses:?}"));
            diverged.push(format!("{}/{}{sliced}: {what}", subject.name, cell.name()));
        }
        done.push((cell, pauses, y));
    }
    if !diverged.is_empty() {
        return Err(Divergences(diverged));
    }
    let first = oracles
        .iter()
        .position(|(p, _)| *p == first_plan)
        .expect("ran above");
    Ok(Agreed {
        oracle: oracles.swap_remove(first).1,
        cells: done.into_iter().map(|(c, _, y)| (c, y)).collect(),
    })
}
