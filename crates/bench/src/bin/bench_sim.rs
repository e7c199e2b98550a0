//! Record and check `BENCH_sim.json` (format: `xmt_bench::baseline`).
//!
//! ```text
//! cargo run --release -p xmt-bench --bin bench_sim -- OUT.json
//! cargo run --release -p xmt-bench --bin bench_sim -- --check BENCH_sim.json
//! ```
//!
//! Both verbs first run the *exact pass* through the determinism
//! matrix (`xmt_bench::matrix::agree`): every golden workload under
//! every engine × translation tier × fault plan of `matrix::ENGINES` ×
//! `matrix::TIERS` × [`PLANS`], and every paper-scale case
//! (`golden::scaling_cases`) under every engine × tier, healthy. Each
//! cell's statistics, spawn log, memory image and global registers must
//! equal those of the Reference engine on the interpreter tier — for a
//! benign fault plan (seeded, all rates zero) those of the *healthy*
//! oracle, for the seeded soft-fault plan those of the oracle under the
//! same plan — and a block-tier cell's trace-cache counters must repeat
//! between its healthy and benign runs. Then each paper-scale case runs
//! once more under fast-forward with the [`HostLayers`] ledger
//! attached; the layers must account for [`LEDGER_FLOOR`] of
//! `Machine::run`'s wall time (a share within one run, not a comparison
//! between runs). Any failure is listed and the exit status is 1 (2: it
//! could not run — bad arguments, an unreadable or malformed baseline).
//!
//! *Record* (`OUT.json`) then times Reference and FastForward on every
//! case — one warm-up, then the minimum of repeated runs, see
//! [`measure`] — and writes the file. The rates and the ledger are this
//! host's reading at one moment: information for the reader, compared
//! by nothing. Nothing is written if the exact pass failed.
//!
//! *Check* (`--check BASELINE.json`) writes nothing and times nothing:
//! it compares every case's simulated cycles, spawn digest, statistics
//! and trace row, and every paper-scale case's ledger work counts (cluster steps
//! taken and parked), with the baseline's (`baseline::compare`), and
//! fails on a case the baseline lacks. Whether the code got faster or
//! slower is not this binary's question — that is shown only by
//! alternating parent/change pairs of `xmt-perfbench`
//! (benchmark/README.md).

use std::time::Instant;
use xmt_bench::baseline::{self, ExactRow, Recorded};
use xmt_bench::matrix::{self, Plan, Subject, PLANS};
use xmt_fft::golden::{self, GoldenCase};
use xmt_sim::{Engine, HostLayer, HostLayers};

/// The ledger must account for this share of `Machine::run`.
const LEDGER_FLOOR: f64 = 0.95;

/// The exact pass over one case (module docs): its row, or `None`
/// with the divergences appended to `failures`.
fn exact_pass(
    case: &GoldenCase,
    section: &'static str,
    plans: &[Plan],
    failures: &mut Vec<String>,
) -> Option<ExactRow> {
    let cells = matrix::exact_cells(plans);
    let agreed = matrix::agree(&Subject::golden(case), &cells);
    let row = agreed.as_ref().ok().map(|a| a.row(section, case.name));
    eprintln!(
        "{:18} {:>9} cycles  digest {:#018x}  {} cells {}",
        case.name,
        row.as_ref().map_or(0, |r| r.simulated_cycles),
        row.as_ref().map_or(0, |r| r.spawn_digest),
        cells.len(),
        if row.is_some() { "agree" } else { "DIFFER" }
    );
    if let Err(d) = agreed {
        failures.extend(d.0);
    }
    row
}

/// One fast-forward run with the host-time ledger attached: the
/// `layers` JSON object (host ns and share of `Machine::run` per
/// [`HostLayer`], and the cluster steps taken and parked and the module
/// steps taken, which also go into `want.work`). The ledger's clock
/// reads cost host time, so no rate in the file is measured with it
/// attached.
fn ledger(case: &GoldenCase, want: &mut ExactRow, failures: &mut Vec<String>) -> String {
    let sim = case.sim_config().engine(Engine::FastForward);
    let mut m = case.builder(&sim).build_probed(HostLayers::new());
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
    // Three counts beside the nanoseconds, exact where those are one
    // host's reading (`--check` holds them): an engine that parks
    // nobody steps the first two's sum, and the third is the memory
    // side's module steps.
    let [steps, parked, modules] = ledger.work();
    want.work = vec![steps, parked, modules];
    let mut json = format!("{{ \"run_ns\": {run_ns}, \"accounted\": {accounted:.4}");
    for (key, n) in baseline::WORK_FIELDS.iter().zip(&want.work) {
        json.push_str(&format!(", \"{key}\": {n}"));
    }
    eprint!(
        "{:18} {:>8.1} ms  {steps} cluster steps, {parked} parked, {modules} module steps ",
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
        let mut m = case.builder(&sim).build();
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
            let Some(mut exact) = exact_pass(&case, section, plans, &mut failures) else {
                continue;
            };
            let layers = with_ledger.then(|| ledger(&case, &mut exact, &mut failures));
            let mut engines = Vec::new();
            if !check {
                for (name, engine) in [
                    ("reference", Engine::Reference),
                    ("fast_forward", Engine::FastForward),
                ] {
                    let secs = measure(&case, engine);
                    let rate = exact.simulated_cycles as f64 / secs;
                    eprintln!("{:18} {name:13} {rate:>10.0} cycles/s", case.name);
                    engines.push((name, secs));
                }
            }
            rows.push(Recorded {
                exact,
                tcus: case.config().tcus(),
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
