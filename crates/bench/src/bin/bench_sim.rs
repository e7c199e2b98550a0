//! Record and check `BENCH_sim.json` (format: `xmt_bench::baseline`).
//!
//! ```text
//! cargo run --release -p xmt-bench --bin bench_sim -- OUT.json
//! cargo run --release -p xmt-bench --bin bench_sim -- --check BENCH_sim.json
//! ```
//!
//! Both verbs first run the *exact pass*: every golden workload under
//! every engine × translation tier × fault plan of [`ENGINES`] ×
//! [`TIERS`] × [`PLANS`], and every paper-scale case
//! (`golden::scaling_cases`) under every engine × tier, healthy. Each
//! cell's full statistics and spawn digest must equal those of the
//! Reference engine on the interpreter tier — for a benign fault plan
//! (seeded, all rates zero) those of the *healthy* oracle, for the
//! seeded soft-fault plan those of the oracle under the same plan — and
//! a block-tier cell's trace-cache counters must repeat between its
//! healthy and benign runs. Then each paper-scale case runs once more
//! under fast-forward with the [`HostLayers`] ledger attached; the
//! layers must account for [`LEDGER_FLOOR`] of `Machine::run`'s wall
//! time (a share within one run, not a comparison between runs). Any
//! failure is listed and the exit status is 1 (2: it could not run —
//! bad arguments, an unreadable or malformed baseline).
//!
//! *Record* (`OUT.json`) then times Reference and FastForward on every
//! case — one warm-up, then the minimum of repeated runs, see
//! [`measure`] — and writes the file. The rates and the ledger are this
//! host's reading at one moment: information for the reader, compared
//! by nothing. Nothing is written if the exact pass failed.
//!
//! *Check* (`--check BASELINE.json`) writes nothing and times nothing:
//! it compares every case's simulated cycles, spawn digest and trace
//! row with the baseline's (`baseline::compare`), and fails on a case
//! the baseline lacks. Whether the code got faster or slower is not
//! this binary's question — that is shown only by alternating
//! parent/change pairs of `xmt-perfbench` (benchmark/README.md).

use std::time::Instant;
use xmt_bench::baseline::{self, ExactRow, Recorded};
use xmt_fft::golden::{self, GoldenCase};
use xmt_sim::{
    Engine, FaultPlan, HostLayer, HostLayers, MachineStats, TraceStats, TranslationTier,
};

/// The first engine and tier are the oracle every other cell is held to.
const ENGINES: [(&str, Engine); 3] = [
    ("reference", Engine::Reference),
    ("fast_forward", Engine::FastForward),
    ("threaded", Engine::Threaded { threads: 0 }),
];
const TIERS: [(&str, TranslationTier); 2] = [
    ("interpreter", TranslationTier::Interpreter),
    ("block", TranslationTier::Block),
];

#[derive(Clone, Copy, PartialEq)]
enum Plan {
    Healthy,
    /// A seeded [`FaultPlan`] with every rate zero: must change nothing.
    Benign,
    /// Fixed-seed DRAM bit flips + NoC corruption: changes the run, the
    /// same way under every engine and tier.
    Soft,
}
/// Paper-scale cases run only the first (healthy) plan.
const PLANS: [(&str, Plan); 3] = [
    ("healthy", Plan::Healthy),
    ("benign", Plan::Benign),
    ("soft", Plan::Soft),
];

/// The ledger must account for this share of `Machine::run`.
const LEDGER_FLOOR: f64 = 0.95;

/// What one run is judged by.
#[derive(Clone, Copy, PartialEq)]
struct Cell {
    stats: MachineStats,
    digest: u64,
    trace: Option<TraceStats>,
}

fn run_cell(case: &GoldenCase, engine: Engine, tier: TranslationTier, plan: Plan) -> Cell {
    let mut sim = case.sim_config().engine(engine).tier(tier);
    sim = match plan {
        Plan::Healthy => sim,
        Plan::Benign => sim.faults(FaultPlan::new(0xB1A5)),
        Plan::Soft => sim.faults(
            FaultPlan::new(0xFEED_5EED)
                .dram_flips(0.02, 0.002)
                .noc_corrupt(0.01),
        ),
    };
    let mut m = case.builder_cfg(&sim).build();
    let rep = m.run().expect("golden case must complete");
    Cell {
        stats: rep.stats,
        digest: golden::spawn_digest(&rep),
        trace: m.trace_stats(),
    }
}

/// The exact pass over one case (module docs): failures are appended,
/// the returned row is what the default configuration produced.
fn exact_pass(
    case: &GoldenCase,
    section: &'static str,
    plans: &[(&str, Plan)],
    failures: &mut Vec<String>,
) -> ExactRow {
    let failed_before = failures.len();
    let mut healthy: Vec<Cell> = Vec::new();
    let mut default_cell = None;
    for &(pname, plan) in plans {
        let mut cells: Vec<Cell> = Vec::new();
        for (ename, engine) in ENGINES {
            for (tname, tier) in TIERS {
                let cell = run_cell(case, engine, tier, plan);
                let at = format!("{}/{ename}/{tname}/{pname}", case.name);
                // A benign plan is held to the healthy oracle.
                let want = match plan {
                    Plan::Benign => healthy[0],
                    _ => *cells.first().unwrap_or(&cell),
                };
                if cell.stats != want.stats {
                    failures.push(format!(
                        "{at}: stats {:?} != reference/interpreter {:?}",
                        cell.stats, want.stats
                    ));
                }
                if cell.digest != want.digest {
                    failures.push(format!(
                        "{at}: spawn digest {:#018x} != reference/interpreter {:#018x}",
                        cell.digest, want.digest
                    ));
                }
                // Same engine, same tier, one run earlier.
                if plan == Plan::Benign && cell.trace != healthy[cells.len()].trace {
                    failures.push(format!(
                        "{at}: trace stats {:?} do not repeat the healthy run's {:?}",
                        cell.trace,
                        healthy[cells.len()].trace
                    ));
                }
                if (ename, tname, plan) == ("fast_forward", "block", Plan::Healthy) {
                    default_cell = Some(cell);
                }
                cells.push(cell);
            }
        }
        if plan == Plan::Healthy {
            healthy = cells;
        }
    }
    let cell = default_cell.expect("the matrix holds fast_forward/block/healthy");
    let ts = cell.trace.expect("the block tier exposes trace stats");
    eprintln!(
        "{:18} {:>9} cycles  digest {:#018x}  {} cells {}",
        case.name,
        cell.stats.cycles,
        cell.digest,
        plans.len() * ENGINES.len() * TIERS.len(),
        if failures.len() == failed_before {
            "agree"
        } else {
            "DIFFER"
        }
    );
    ExactRow {
        section,
        name: case.name.to_string(),
        simulated_cycles: cell.stats.cycles,
        spawn_digest: cell.digest,
        trace: baseline::trace_fields(
            ts.blocks,
            ts.lowered,
            ts.uops,
            ts.entries + cell.stats.threads,
        ),
    }
}

/// One fast-forward run with the host-time ledger attached: the
/// `layers` JSON object (host ns and share of `Machine::run` per
/// [`HostLayer`], and the cluster steps taken and parked). The ledger's
/// clock reads cost host time, so no rate in the file is measured with
/// it attached.
fn ledger(case: &GoldenCase, want: &ExactRow, failures: &mut Vec<String>) -> String {
    let sim = case.sim_config().engine(Engine::FastForward);
    let mut m = case.builder_cfg(&sim).build_probed(HostLayers::new());
    let t0 = Instant::now();
    let rep = m.run().expect("golden case must complete");
    let run_ns = t0.elapsed().as_nanos() as u64;
    if (rep.stats.cycles, golden::spawn_digest(&rep)) != (want.simulated_cycles, want.spawn_digest)
    {
        failures.push(format!(
            "{}: the ledger run gave {} cycles, not {}, or another spawn digest",
            case.name, rep.stats.cycles, want.simulated_cycles
        ));
    }
    let ledger = *m.probe();
    let accounted = ledger.total_ns() as f64 / run_ns as f64;
    if accounted < LEDGER_FLOOR {
        failures.push(format!(
            "{}: layers account for {:.1}% of Machine::run < {:.0}%",
            case.name,
            accounted * 100.0,
            LEDGER_FLOOR * 100.0
        ));
    }
    // Two counts beside the nanoseconds, exact where those are one
    // host's reading: an engine that parks nobody steps their sum.
    let (steps, parked) = (ledger.cluster_steps(), ledger.parked_cluster_cycles());
    let mut json = format!(
        "{{ \"run_ns\": {run_ns}, \"accounted\": {accounted:.4}, \
         \"cluster_steps\": {steps}, \"parked_cluster_cycles\": {parked}"
    );
    eprint!(
        "{:18} {:>8.1} ms  {steps} cluster steps, {parked} parked ",
        case.name,
        run_ns as f64 / 1e6
    );
    for (layer, name) in HostLayer::ALL {
        let ns = ledger.ns(layer);
        let share = ns as f64 / run_ns as f64;
        json.push_str(&format!(
            ", \"{name}\": {{ \"ns\": {ns}, \"share\": {share:.4} }}"
        ));
        eprint!(" {name} {:.1}%", share * 100.0);
    }
    eprintln!();
    json + " }"
}

/// Keep sampling until this much measured time has accumulated...
const TARGET_SECS: f64 = 0.25;
/// ...but never fewer timed runs than this, nor more than that.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 1000;

/// Minimum wall-clock seconds of one run of `case` under `engine`,
/// after one untimed warm-up (page faults, allocator growth). On a
/// shared host the minimum tracks what the machine can do, where a mean
/// absorbs scheduler noise; it is still one host's reading.
fn measure(case: &GoldenCase, engine: Engine) -> f64 {
    let sim = case.sim_config().engine(engine);
    let run_once = || {
        let mut m = case.builder_cfg(&sim).build();
        let t0 = Instant::now();
        m.run().expect("golden case must complete");
        t0.elapsed().as_secs_f64()
    };
    run_once();
    let (mut best, mut total, mut reps) = (f64::INFINITY, 0.0, 0);
    while reps < MIN_REPS || (total < TARGET_SECS && reps < MAX_REPS) {
        let secs = run_once();
        best = best.min(secs);
        total += secs;
        reps += 1;
    }
    best
}

/// Could not run at all (bad arguments, unreadable or malformed
/// baseline, unwritable output): exit 2, apart from a failed check's 1.
fn die(msg: String) -> ! {
    eprintln!("bench_sim: {msg}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (check, path) = match args.as_slice() {
        [flag, path] if flag == "--check" => (true, path),
        [path] if !path.starts_with("--") => (false, path),
        _ => die("usage: bench_sim OUT.json | bench_sim --check BASELINE.json".into()),
    };
    let expected = check.then(|| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("{path}: {e}")));
        baseline::exact_rows(&text).unwrap_or_else(|e| die(format!("{path}: {e}")))
    });

    let mut failures = Vec::new();
    let mut rows = Vec::new();
    // Section, its cases, their fault plans, whether they get a ledger.
    let [golden_rows, scaling_rows] = baseline::SECTIONS;
    let sections = [
        (golden_rows, golden::cases(), &PLANS[..], false),
        (scaling_rows, golden::scaling_cases(), &PLANS[..1], true),
    ];
    for (section, cases, plans, with_ledger) in sections {
        for case in cases {
            let exact = exact_pass(&case, section, plans, &mut failures);
            let layers = with_ledger.then(|| ledger(&case, &exact, &mut failures));
            let mut engines = Vec::new();
            if !check {
                for (name, engine) in &ENGINES[..2] {
                    let secs = measure(&case, *engine);
                    let rate = exact.simulated_cycles as f64 / secs;
                    eprintln!("{:18} {name:13} {rate:>10.0} cycles/s", case.name);
                    engines.push((*name, secs));
                }
            }
            rows.push(Recorded {
                exact,
                tcus: case.config().tcus,
                layers,
                engines,
            });
        }
    }

    if let Some(expected) = &expected {
        let fresh: Vec<ExactRow> = rows.into_iter().map(|r| r.exact).collect();
        failures.extend(baseline::compare(&fresh, expected));
    } else if failures.is_empty() {
        let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
        std::fs::write(path, baseline::render(host_threads, &rows))
            .unwrap_or_else(|e| die(format!("{path}: {e}")));
        eprintln!("wrote {path}");
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("BENCH CHECK FAILED: {f}");
        }
        std::process::exit(1);
    }
    if check {
        eprintln!("{path}: every exact field matches");
    }
}
