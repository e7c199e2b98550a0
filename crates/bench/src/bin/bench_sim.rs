//! Measure simulator engine throughput and emit `BENCH_sim.json`.
//!
//! Runs the golden workloads (the same ones the cycle-count regression
//! tests pin bit-for-bit) under each advance engine and reports
//! simulated-cycles per host-second plus the speedup of the optimized
//! engines over per-cycle reference stepping.
//!
//! Timing discipline: each (case, engine) pair gets one untimed warm-up
//! run (page faults, allocator growth, branch-predictor training), then
//! repeated timed runs until ~250 ms of aggregate measurement or the
//! rep cap, whichever first. Workloads whose single run is shorter than
//! ~2 ms (spawn_storm, ps_tickets) are timed in *batches* sized to
//! ≥ 10 ms and the per-run time is the batch mean — a lone 100 µs run
//! is mostly timer quantization and scheduler noise, which used to make
//! `speedup_vs_reference` on the tiny workloads meaningless. The
//! *minimum* per-run time across reps/batches is reported — on a
//! shared/throttling host the minimum tracks the machine's actual
//! capability, where a mean or median absorbs scheduler noise.
//!
//! ```text
//! cargo run --release -p xmt-bench --bin bench_sim [out.json] \
//!     [--check baseline.json] [--engine <name>] [--scaling] [--probe] \
//!     [--faults] [--tier] [--profile]
//! ```
//!
//! With `--check`, after measuring, the run fails (exit 1) if any
//! workload's fresh fast-forward speedup falls below 1.0× or if a
//! workload's simulated cycle count (or, for the scaling cases, spawn
//! digest) differs from the committed baseline — CI wires this to
//! `BENCH_sim.json` so an engine change cannot silently regress the
//! default engine or the golden cycle counts. The unprobed fast-forward
//! throughput must also stay within a (generous) factor of the
//! baseline's, so probe hooks cannot creep into the `NoProbe` hot path
//! unnoticed. Throughput is only comparable between hosts with the same
//! core count (the threaded engine sizes its worker pool from it): when
//! the baseline's `host_threads` differs from this host's, cycle counts
//! and digests are still checked, but the cycles/s floor and the
//! Threaded gate are *not applied* and the run fails with a message
//! asking for the baseline to be re-recorded here.
//!
//! With `--engine <name>` (reference | fast_forward | threaded), only
//! that engine is measured. No JSON is written and no cross-engine
//! checks run — the mode exists so CI and local runs can benchmark one
//! engine without paying for all three.
//!
//! With `--scaling`, the paper-scale workloads (`golden::scaling_cases`:
//! FFT plans on the 4096-, 8192- and 65536-TCU configurations) are
//! additionally measured — under reference, fast-forward, and the
//! threaded engine at both auto and 2 host threads — and a `"scaling"`
//! section (cycles/s vs TCU count vs host threads) is appended to the
//! JSON. The mode always asserts that every engine produces identical
//! simulated cycles and spawn digests on every scaling case, and fails
//! if the threaded engine's throughput drops below
//! [`SCALING_GATE_FLOOR`] × reference on any of them (the "Threaded
//! must win at paper scale" gate, with slack for CI jitter).
//!
//! With `--probe`, every workload additionally runs with an
//! [`IntervalProbe`] attached, asserting the probed cycle counts are
//! bit-identical to the unprobed (and baseline) ones and that the
//! probe's cumulative totals equal the run's final statistics — the
//! zero-interference contract of the observability layer. No JSON is
//! written in this mode.
//!
//! With `--faults`, every workload runs once with a *benign*
//! [`FaultPlan`] (seeded but all rates zero, no dead components) and
//! the cycle count, full statistics and spawn digest must be
//! bit-identical to a plain build — the fault layer's own
//! zero-interference contract. Each workload then runs with a
//! fixed-seed soft-fault plan (DRAM bit flips + NoC corruption) under
//! all three engines, which must agree bit-for-bit on the faulted
//! statistics: deterministic replay. No JSON is written in this mode.
//!
//! With `--tier`, the block-compiled execution tier's contracts are
//! checked on every golden workload: tier-on runs (the default
//! [`TranslationTier::Block`]) must be bit-identical in statistics and
//! spawn digest to tier-off ([`TranslationTier::Interpreter`]) runs
//! under all three engines, trace-cache statistics must be byte-equal
//! across repeated runs (deterministic exercise), a fixed-seed
//! soft-fault replay must not be perturbed by the tier, and tier-on
//! fast-forward throughput must reach [`TIER_GATE_FLOOR`] × tier-off
//! on the paper-scale FFT workloads. No JSON is written in this mode.

//!
//! With `--profile`, every paper-scale workload runs once under
//! fast-forward with the [`HostLayers`] ledger attached, and a
//! `"layers"` line (host ns and share of `Machine::run` per
//! [`HostLayer`]) is spliced into that workload's `scaling` row of the
//! output file, which must already hold the row (`--scaling` writes
//! them; rewriting them drops the line, so profile afterwards). Fails
//! if the run's cycles or digest differ from the row's, or if the
//! layers account for less than [`PROFILE_FLOOR`] of the run's wall
//! time. The ledger's clock reads cost host time, so no rate in the
//! file is ever measured with it attached.

use std::fmt::Write as _;
use std::time::Instant;
use xmt_fft::golden;
use xmt_sim::{Engine, FaultPlan, HostLayer, HostLayers, TranslationTier};

/// Keep sampling until this much measured time has accumulated.
const TARGET_SECS: f64 = 0.25;
/// Never fewer timed reps (batches) than this (variance floor)...
const MIN_REPS: usize = 3;
/// ...and never more than this (fast cases would spin forever).
const MAX_REPS: usize = 1000;
/// Single runs shorter than this are timer-noise-dominated: batch them.
const BATCH_FLOOR_SECS: f64 = 0.002;
/// Size batches of tiny runs to at least this much wall clock.
const BATCH_TARGET_SECS: f64 = 0.010;
/// Upper bound on runs per timed batch.
const MAX_BATCH: usize = 512;

/// Min per-run wall-clock seconds for one engine on one case, after one
/// untimed warm-up run. Tiny runs are timed in batches (see module
/// docs). Returns `(simulated_cycles, spawn_digest, best_seconds)`.
fn measure(case: &golden::GoldenCase, engine: Engine) -> (u64, u64, f64) {
    let sim = case.sim_config().engine(engine);
    let run_once = || {
        let mut m = case.builder_cfg(&sim).build();
        let t0 = Instant::now();
        let s = m.run().expect("golden case must complete");
        let secs = t0.elapsed().as_secs_f64();
        (s.stats.cycles, golden::spawn_digest(&s), secs)
    };
    // Warm-up (untimed result-wise, but its duration sizes the batch).
    let (cycles, digest, warm_secs) = run_once();
    let batch = if warm_secs < BATCH_FLOOR_SECS {
        ((BATCH_TARGET_SECS / warm_secs.max(1e-7)).ceil() as usize).clamp(1, MAX_BATCH)
    } else {
        1
    };
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    let mut reps = 0;
    while reps < MIN_REPS || (total < TARGET_SECS && reps < MAX_REPS) {
        let t0 = Instant::now();
        for _ in 0..batch {
            let (c, d, _) = run_once();
            assert_eq!(c, cycles, "nondeterministic cycle count on {}", case.name);
            assert_eq!(d, digest, "nondeterministic spawn log on {}", case.name);
        }
        let secs = t0.elapsed().as_secs_f64() / batch as f64;
        best = best.min(secs);
        total += secs * batch as f64;
        reps += 1;
    }
    (cycles, digest, best)
}

/// The part of a baseline JSON from `"name": "<workload>"` on. No JSON
/// dependency: the file is written by this binary, so the shape is
/// known.
fn workload_tail<'a>(baseline: &'a str, workload: &str) -> Option<&'a str> {
    let start = baseline.find(&format!("\"name\": \"{workload}\""))?;
    Some(&baseline[start..])
}

/// The first run of digits in `radix` after `key` in `text`.
fn number_after(text: &str, key: &str, radix: u32) -> Option<u64> {
    let tail = &text[text.find(key)? + key.len()..];
    let digits: String = tail
        .chars()
        .skip_while(|c| !c.is_digit(radix))
        .take_while(|c| c.is_digit(radix))
        .collect();
    u64::from_str_radix(&digits, radix).ok()
}

/// `"field": <digits>` of a baseline workload.
fn baseline_u64(baseline: &str, workload: &str, field: &str) -> Option<u64> {
    number_after(
        workload_tail(baseline, workload)?,
        &format!("\"{field}\":"),
        10,
    )
}

/// The baseline's `spawn_digest` for a scaling workload.
fn baseline_digest(baseline: &str, workload: &str) -> Option<u64> {
    number_after(
        workload_tail(baseline, workload)?,
        "\"spawn_digest\": \"0x",
        16,
    )
}

/// The `host_threads` the baseline was recorded with.
fn baseline_host_threads(baseline: &str) -> Option<u64> {
    number_after(baseline, "\"host_threads\":", 10)
}

/// The baseline's fast-forward `cycles_per_second` for a workload.
fn baseline_ff_rate(baseline: &str, workload: &str) -> Option<u64> {
    let tail = workload_tail(baseline, workload)?;
    let ff = &tail[tail.find("\"fast_forward\":")?..];
    number_after(ff, "\"cycles_per_second\":", 10)
}

/// Unprobed throughput may not fall below this fraction of the
/// committed baseline's (generous: it must absorb host noise and CI
/// contention, while still catching probe hooks leaking into the
/// `NoProbe` hot path, which costs integer factors, not percents).
const NOPROBE_RATE_FLOOR: f64 = 0.25;

/// `--scaling` gate: the threaded engine's throughput must stay at or
/// above this fraction of reference on every paper-scale workload —
/// nominally ≥ 1.0× ("Threaded must win"), with slack for CI jitter.
const SCALING_GATE_FLOOR: f64 = 0.9;

/// `--tier` gate: tier-on fast-forward must beat tier-off by at least
/// this factor on the issue-bound paper-scale FFT workloads (best case
/// across the set — the dense-regime cases are memory-system-bound,
/// where the tier is throughput-neutral by design). The tier lands
/// ≥ 3× on a quiet host; 1.5× leaves room for CI contention while
/// still catching the tier being silently disabled or de-optimized.
const TIER_GATE_FLOOR: f64 = 1.5;

/// `--tier` gate: no paper-scale FFT workload may run slower with the
/// tier on than off beyond host jitter — even the memory-bound ones
/// where the replay path is not expected to win.
const TIER_REGRESS_FLOOR: f64 = 0.9;

/// `--probe`: rerun every golden workload with an [`IntervalProbe`]
/// attached and assert the observability layer changes nothing: cycle
/// counts stay bit-identical to the unprobed run (and the committed
/// baseline), and the probe's cumulative totals equal the run's final
/// statistics. Returns failure messages.
fn probe_check(baseline: Option<&str>) -> Vec<String> {
    let mut failures = Vec::new();
    let engines: &[(&str, Engine)] = &[
        ("reference", Engine::Reference),
        ("fast_forward", Engine::FastForward),
        ("threaded", Engine::Threaded { threads: 0 }),
    ];
    for case in golden::cases() {
        let mut plain = case.builder_cfg(&case.sim_config()).build();
        let unprobed = plain.run().expect("golden case must complete");
        for &(name, engine) in engines {
            let sim = case.sim_config().engine(engine).probed(64);
            let probe = sim.interval_probe().expect("probed request value");
            let mut m = case.builder_cfg(&sim).build_probed(probe);
            let rep = m.run().expect("probed golden case must complete");
            let probe = m.probe();
            if rep.stats.cycles != unprobed.stats.cycles {
                failures.push(format!(
                    "{}/{name}: probed cycles {} != unprobed {}",
                    case.name, rep.stats.cycles, unprobed.stats.cycles
                ));
            }
            if probe.totals() != rep.stats {
                failures.push(format!(
                    "{}/{name}: probe totals {:?} != run stats {:?}",
                    case.name,
                    probe.totals(),
                    rep.stats
                ));
            }
            if probe.samples() == 0 {
                failures.push(format!("{}/{name}: probe recorded no samples", case.name));
            }
            if let Some(base) = baseline {
                match baseline_u64(base, case.name, "simulated_cycles") {
                    Some(want) if want != rep.stats.cycles => failures.push(format!(
                        "{}/{name}: probed simulated_cycles {} != baseline {want}",
                        case.name, rep.stats.cycles
                    )),
                    None => failures.push(format!("{}: missing from baseline", case.name)),
                    _ => {}
                }
            }
            eprintln!(
                "{:16} {:13} {:>9} cycles  {:>6} samples  probe OK",
                case.name,
                name,
                rep.stats.cycles,
                probe.samples()
            );
        }
    }
    failures
}

/// `--faults`: check the fault layer's two contracts on every golden
/// workload. (1) Zero interference: a benign seeded [`FaultPlan`]
/// changes nothing — stats and spawn digest bit-identical to a plain
/// build (and the committed baseline's cycle count). (2) Deterministic
/// replay: a fixed-seed soft-fault plan produces bit-identical faulted
/// statistics under reference, fast-forward and threaded advance.
/// Returns failure messages.
fn fault_check(baseline: Option<&str>) -> Vec<String> {
    let mut failures = Vec::new();
    let engines: &[(&str, Engine)] = &[
        ("reference", Engine::Reference),
        ("fast_forward", Engine::FastForward),
        ("threaded", Engine::Threaded { threads: 0 }),
    ];
    for case in golden::cases() {
        let mut plain = case.builder_cfg(&case.sim_config()).build();
        let healthy = plain.run().expect("golden case must complete");

        // (1) Benign plan: the fault layer must not perturb anything.
        let benign_sim = case.sim_config().faults(FaultPlan::new(0xB1A5));
        let mut m = case.builder_cfg(&benign_sim).build();
        let benign = m.run().expect("benign-fault golden case must complete");
        if benign.stats != healthy.stats {
            failures.push(format!(
                "{}: benign fault plan perturbed stats ({:?} != {:?})",
                case.name, benign.stats, healthy.stats
            ));
        }
        if golden::spawn_digest(&benign) != golden::spawn_digest(&healthy) {
            failures.push(format!(
                "{}: benign fault plan perturbed the spawn log",
                case.name
            ));
        }
        if let Some(base) = baseline {
            match baseline_u64(base, case.name, "simulated_cycles") {
                Some(want) if want != benign.stats.cycles => failures.push(format!(
                    "{}: benign-fault simulated_cycles {} != baseline {want}",
                    case.name, benign.stats.cycles
                )),
                None => failures.push(format!("{}: missing from baseline", case.name)),
                _ => {}
            }
        }

        // (2) Fixed-seed soft faults: every engine replays identically.
        let plan = || {
            FaultPlan::new(0xFEED_5EED)
                .dram_flips(0.02, 0.002)
                .noc_corrupt(0.01)
        };
        let mut faulted = Vec::new();
        for &(name, engine) in engines {
            let sim = case.sim_config().engine(engine).faults(plan());
            let mut m = case.builder_cfg(&sim).build();
            let rep = m.run().expect("soft-faulted golden case must complete");
            eprintln!(
                "{:16} {:13} healthy {:>8} cycles  faulted {:>8} cycles",
                case.name, name, healthy.stats.cycles, rep.stats.cycles
            );
            faulted.push((name, rep));
        }
        let (ref_name, ref_rep) = &faulted[0];
        for (name, rep) in &faulted[1..] {
            if rep.stats != ref_rep.stats {
                failures.push(format!(
                    "{}: faulted stats diverge between {ref_name} and {name}",
                    case.name
                ));
            }
            if golden::spawn_digest(rep) != golden::spawn_digest(ref_rep) {
                failures.push(format!(
                    "{}: faulted spawn log diverges between {ref_name} and {name}",
                    case.name
                ));
            }
        }
    }
    failures
}

/// Best-of-3 wall-clock seconds for one run of `case` under `engine`
/// with the translation tier pinned. Lighter than [`measure`] (no
/// time-accumulation target): the `--tier` gate only compares the two
/// tiers on the long paper-scale runs, where a single run is far above
/// timer noise.
fn measure_tier(case: &golden::GoldenCase, engine: Engine, tier: TranslationTier) -> f64 {
    let sim = case.sim_config().engine(engine).tier(tier);
    let run_once = || {
        let mut m = case.builder_cfg(&sim).build();
        let t0 = Instant::now();
        m.run().expect("golden case must complete");
        t0.elapsed().as_secs_f64()
    };
    let _ = run_once(); // warm-up
    (0..3).map(|_| run_once()).fold(f64::INFINITY, f64::min)
}

/// `--tier`: check the block-compiled tier's contracts. (1) Zero
/// interference: tier-on statistics and spawn digests are bit-identical
/// to tier-off under reference, fast-forward and threaded advance, on
/// every golden workload (and match the committed baseline's cycle
/// counts). (2) Determinism: the trace cache's exercise counters are
/// byte-equal across repeated tier-on runs. (3) Fault transparency: a
/// fixed-seed soft-fault replay is unchanged by the tier. (4) Speed:
/// tier-on fast-forward reaches [`TIER_GATE_FLOOR`] × tier-off on the
/// paper-scale FFT workloads. Returns failure messages.
fn tier_check(baseline: Option<&str>) -> Vec<String> {
    let mut failures = Vec::new();
    let engines: &[(&str, Engine)] = &[
        ("reference", Engine::Reference),
        ("fast_forward", Engine::FastForward),
        ("threaded", Engine::Threaded { threads: 0 }),
    ];
    for case in golden::cases() {
        let off_sim = case.sim_config().tier(TranslationTier::Interpreter);
        let mut off = case.builder_cfg(&off_sim).build();
        let off_rep = off.run().expect("tier-off golden case must complete");
        for &(name, engine) in engines {
            let run_on = || {
                let sim = case
                    .sim_config()
                    .engine(engine)
                    .tier(TranslationTier::Block);
                let mut m = case.builder_cfg(&sim).build();
                let rep = m.run().expect("tier-on golden case must complete");
                let ts = m.trace_stats().expect("Block tier must expose trace stats");
                (rep, ts)
            };
            let (on_rep, ts) = run_on();
            if on_rep.stats != off_rep.stats {
                failures.push(format!(
                    "{}/{name}: tier-on stats {:?} != tier-off {:?}",
                    case.name, on_rep.stats, off_rep.stats
                ));
            }
            if golden::spawn_digest(&on_rep) != golden::spawn_digest(&off_rep) {
                failures.push(format!(
                    "{}/{name}: tier-on spawn log differs from tier-off",
                    case.name
                ));
            }
            let mut m = case.builder_cfg(&off_sim.clone().engine(engine)).build();
            let rep = m.run().expect("tier-off golden case must complete");
            if rep.stats != off_rep.stats {
                failures.push(format!(
                    "{}/{name}: tier-off stats diverge across engines",
                    case.name
                ));
            }
            // Determinism: the cache's exercise counters are a pure
            // function of (program, config, engine).
            let (_, ts2) = run_on();
            if ts != ts2 {
                failures.push(format!(
                    "{}/{name}: trace stats nondeterministic ({ts:?} != {ts2:?})",
                    case.name
                ));
            }
            if let Some(base) = baseline {
                match baseline_u64(base, case.name, "simulated_cycles") {
                    Some(want) if want != on_rep.stats.cycles => failures.push(format!(
                        "{}/{name}: tier-on simulated_cycles {} != baseline {want}",
                        case.name, on_rep.stats.cycles
                    )),
                    None => failures.push(format!("{}: missing from baseline", case.name)),
                    _ => {}
                }
            }
            let entries = ts.entries + on_rep.stats.threads;
            eprintln!(
                "{:16} {:13} {:>9} cycles  {:>4} blocks {:>4} lowered {:>8} entries  tier OK",
                case.name, name, on_rep.stats.cycles, ts.blocks, ts.lowered, entries
            );
        }
        // Fault transparency: the tier must be invisible to a seeded
        // soft-fault replay, bit for bit.
        let plan = || {
            FaultPlan::new(0xFEED_5EED)
                .dram_flips(0.02, 0.002)
                .noc_corrupt(0.01)
        };
        let fault_off = case
            .sim_config()
            .faults(plan())
            .tier(TranslationTier::Interpreter);
        let mut a = case.builder_cfg(&fault_off).build();
        let fa = a.run().expect("faulted tier-off run must complete");
        let fault_on = case
            .sim_config()
            .faults(plan())
            .tier(TranslationTier::Block);
        let mut b = case.builder_cfg(&fault_on).build();
        let fb = b.run().expect("faulted tier-on run must complete");
        if fa.stats != fb.stats || golden::spawn_digest(&fa) != golden::spawn_digest(&fb) {
            failures.push(format!(
                "{}: soft-fault replay perturbed by the tier",
                case.name
            ));
        }
    }
    // Throughput gate on the paper-scale FFTs, fast-forward engine:
    // no case may regress past TIER_REGRESS_FLOOR, and the best case
    // must clear TIER_GATE_FLOOR (the dense-regime workloads spend
    // their host time in the NoC/DRAM model, which the tier leaves
    // untouched; the issue-bound ones are where replay must pay).
    let mut best = 0.0_f64;
    for case in golden::scaling_cases() {
        let off = measure_tier(&case, Engine::FastForward, TranslationTier::Interpreter);
        let on = measure_tier(&case, Engine::FastForward, TranslationTier::Block);
        let ratio = off / on;
        eprintln!(
            "{:18} fast_forward  tier-off {:>7.3}s  tier-on {:>7.3}s  {ratio:.2}x",
            case.name, off, on
        );
        if ratio < TIER_REGRESS_FLOOR {
            failures.push(format!(
                "{}: tier-on fast-forward {ratio:.2}x tier-off < {TIER_REGRESS_FLOOR}x \
                 — the tier must never cost throughput",
                case.name
            ));
        }
        best = best.max(ratio);
    }
    if best < TIER_GATE_FLOOR {
        failures.push(format!(
            "best tier-on speedup {best:.2}x < {TIER_GATE_FLOOR}x floor \
             — the block-compiled tier is not paying for itself"
        ));
    }
    failures
}

/// `--profile`: the layers must account for at least this much of
/// `Machine::run`'s wall time.
const PROFILE_FLOOR: f64 = 0.95;

/// Put `line` into scaling row `name` of BENCH_sim.json `text`, directly
/// before the row's `"engines"` line, replacing an earlier `"layers"`
/// line there.
fn splice_layers(text: &mut String, name: &str, line: &str) -> Result<(), String> {
    let find = |text: &str, from: usize, what: &str| {
        text[from..]
            .find(what)
            .map(|i| from + i)
            .ok_or_else(|| format!("{name}: no {what} to splice the layers before"))
    };
    let scaling = find(text, 0, "\"scaling\"")?;
    let row = find(text, scaling, &format!("\"name\": \"{name}\""))?;
    let engines = find(text, row, "      \"engines\"")?;
    let start = text[row..engines]
        .find("      \"layers\"")
        .map_or(engines, |i| row + i);
    text.replace_range(start..engines, line);
    Ok(())
}

/// `--profile`: the host-time ledger of every scaling case, spliced
/// into `out_path` (see the module docs). Returns failure messages.
fn profile(out_path: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let mut text = std::fs::read_to_string(out_path)
        .unwrap_or_else(|e| panic!("--profile splices into {out_path}: {e}"));
    for case in golden::scaling_cases() {
        let sim = case.sim_config().engine(Engine::FastForward);
        // Warm-up, as every other measurement here.
        case.builder_cfg(&sim)
            .build()
            .run()
            .expect("golden case must complete");
        let mut m = case.builder_cfg(&sim).build_probed(HostLayers::new());
        let t0 = Instant::now();
        let rep = m.run().expect("golden case must complete");
        let run_ns = t0.elapsed().as_nanos() as u64;
        let (cycles, digest) = (rep.stats.cycles, golden::spawn_digest(&rep));
        if baseline_u64(&text, case.name, "simulated_cycles") != Some(cycles)
            || baseline_digest(&text, case.name) != Some(digest)
        {
            failures.push(format!(
                "{}: profiled run gave {cycles} cycles, digest {digest:#018x}; {out_path} differs",
                case.name
            ));
        }
        let ledger = *m.probe();
        let accounted = ledger.total_ns() as f64 / run_ns as f64;
        if accounted < PROFILE_FLOOR {
            failures.push(format!(
                "{}: layers account for {:.1}% of Machine::run < {:.0}%",
                case.name,
                accounted * 100.0,
                PROFILE_FLOOR * 100.0
            ));
        }
        let mut line =
            format!("      \"layers\": {{ \"run_ns\": {run_ns}, \"accounted\": {accounted:.4}");
        eprint!("{:18} {:>8.1} ms ", case.name, run_ns as f64 / 1e6);
        for (layer, name) in HostLayer::ALL {
            let ns = ledger.ns(layer);
            let share = ns as f64 / run_ns as f64;
            write!(
                line,
                ", \"{name}\": {{ \"ns\": {ns}, \"share\": {share:.4} }}"
            )
            .unwrap();
            eprint!(" {name} {:.1}%", share * 100.0);
        }
        eprintln!();
        line.push_str(" },\n");
        if let Err(e) = splice_layers(&mut text, case.name, &line) {
            failures.push(e);
        }
    }
    std::fs::write(out_path, &text).expect("write BENCH_sim.json");
    eprintln!("wrote {out_path}");
    failures
}

/// One measured row: engine label, cycles, digest, best secs, rate.
type Row = (&'static str, u64, u64, f64, f64);

/// Measure `case` under `engines`, logging each rate to stderr.
fn measure_case(case: &golden::GoldenCase, engines: &[(&'static str, Engine)]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &(name, engine) in engines {
        let (cycles, digest, secs) = measure(case, engine);
        let rate = cycles as f64 / secs;
        eprintln!(
            "{:18} {:13} {:>9} cycles  {:>10.0} cycles/s",
            case.name, name, cycles, rate
        );
        rows.push((name, cycles, digest, secs, rate));
    }
    rows
}

/// Render one workload's `"trace"` JSON object from a single tier-on
/// fast-forward run: superblock count, lowerings, micro-ops, total
/// trace entries (branch resolutions plus thread activations) and the
/// hit rate — the fraction of entries that found an already-lowered
/// block (each lazy lowering is the miss that warmed it).
fn render_trace(json: &mut String, case: &golden::GoldenCase) {
    let sim = case.sim_config().engine(Engine::FastForward);
    let mut m = case.builder_cfg(&sim).build();
    let rep = m.run().expect("golden case must complete");
    let ts = m.trace_stats().expect("default tier must be Block");
    let entries = ts.entries + rep.stats.threads;
    let hits = entries.saturating_sub(ts.lowered);
    let hit_rate = if entries > 0 {
        hits as f64 / entries as f64
    } else {
        1.0
    };
    writeln!(
        json,
        "      \"trace\": {{ \"blocks\": {}, \"lowered\": {}, \"uops\": {}, \
         \"entries\": {entries}, \"hit_rate\": {hit_rate:.4} }},",
        ts.blocks, ts.lowered, ts.uops
    )
    .unwrap();
}

/// Render one workload's `"engines"` JSON object. `ref_rate` is the
/// reference engine's rate when it was measured (speedup denominator).
fn render_engines(json: &mut String, rows: &[Row], ref_rate: Option<f64>) {
    writeln!(json, "      \"engines\": {{").unwrap();
    for (ei, (name, _, _, secs, rate)) in rows.iter().enumerate() {
        let comma = if ei + 1 < rows.len() { "," } else { "" };
        let speedup = ref_rate.map_or_else(String::new, |r| {
            format!(", \"speedup_vs_reference\": {:.2}", rate / r)
        });
        writeln!(
            json,
            "        \"{name}\": {{ \"host_seconds\": {secs:.6}, \
             \"cycles_per_second\": {rate:.0}{speedup} }}{comma}",
        )
        .unwrap();
    }
    writeln!(json, "      }}").unwrap();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| args.get(i + 1).expect("--check needs a baseline path"));
    let engine_filter = args
        .iter()
        .position(|a| a == "--engine")
        .map(|i| args.get(i + 1).expect("--engine needs a name").as_str());
    let probe_mode = args.iter().any(|a| a == "--probe");
    let fault_mode = args.iter().any(|a| a == "--faults");
    let tier_mode = args.iter().any(|a| a == "--tier");
    let scaling_mode = args.iter().any(|a| a == "--scaling");
    let profile_mode = args.iter().any(|a| a == "--profile");
    let out_path = args
        .iter()
        .find(|a| {
            !a.starts_with("--") && check_path != Some(a) && engine_filter != Some(a.as_str())
        })
        .cloned()
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    // Read the baseline *before* measuring: out_path and the baseline
    // are usually the same committed file.
    let baseline = check_path
        .map(|p| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read baseline {p}: {e}")));

    if profile_mode {
        let failures = profile(&out_path);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("PROFILE CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
        return;
    }
    if probe_mode {
        let failures = probe_check(baseline.as_deref());
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("PROBE CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("probe checks passed: probed runs bit-identical to unprobed");
        return;
    }
    if fault_mode {
        let failures = fault_check(baseline.as_deref());
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAULT CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "fault checks passed: benign plans are zero-interference, \
             faulted runs replay bit-identically across engines"
        );
        return;
    }
    if tier_mode {
        let failures = tier_check(baseline.as_deref());
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("TIER CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "tier checks passed: block-compiled runs bit-identical to \
             interpreted, trace stats deterministic, throughput gate met"
        );
        return;
    }
    let all_engines: &[(&'static str, Engine)] = &[
        ("reference", Engine::Reference),
        ("fast_forward", Engine::FastForward),
        ("threaded", Engine::Threaded { threads: 0 }),
    ];
    let engines: Vec<(&'static str, Engine)> = match engine_filter {
        Some(want) => {
            let picked: Vec<_> = all_engines
                .iter()
                .copied()
                .filter(|(n, _)| *n == want)
                .collect();
            assert!(
                !picked.is_empty(),
                "--engine {want}: unknown engine (expected one of reference, \
                 fast_forward, threaded)"
            );
            picked
        }
        None => all_engines.to_vec(),
    };

    let mut failures = Vec::new();
    let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
    // Throughput floors only mean something against a baseline recorded
    // on a host with the same core count.
    let rates_comparable = match baseline.as_deref().map(baseline_host_threads) {
        Some(recorded) if recorded != Some(host_threads as u64) => {
            failures.push(format!(
                "baseline was recorded with host_threads={} but this host has {host_threads}: \
                 cycle counts and digests checked, cycles/s floors and the Threaded gate NOT \
                 applied — re-record the baseline on this host",
                recorded.map_or_else(|| "?".to_string(), |n| n.to_string())
            ));
            false
        }
        _ => true,
    };
    let mut json = String::from("{\n  \"benchmark\": \"sim_throughput\",\n");
    writeln!(json, "  \"machine\": {{").unwrap();
    writeln!(json, "    \"host_threads\": {host_threads},").unwrap();
    writeln!(json, "    \"os\": \"{}\",", std::env::consts::OS).unwrap();
    writeln!(json, "    \"arch\": \"{}\"", std::env::consts::ARCH).unwrap();
    writeln!(json, "  }},").unwrap();
    json.push_str("  \"workloads\": [\n");
    let cases = golden::cases();
    for (ci, case) in cases.iter().enumerate() {
        let rows = measure_case(case, &engines);
        let ref_rate = rows
            .iter()
            .find(|r| r.0 == "reference")
            .map(|r| r.4)
            .filter(|_| engine_filter.is_none());
        if let (Some(base), None) = (&baseline, engine_filter) {
            let ff_speedup = rows[1].4 / rows[0].4;
            if ff_speedup < 1.0 {
                failures.push(format!(
                    "{}: fast_forward speedup {ff_speedup:.2}x < 1.0x vs reference",
                    case.name
                ));
            }
            match baseline_u64(base, case.name, "simulated_cycles") {
                Some(want) if want != rows[0].1 => failures.push(format!(
                    "{}: simulated_cycles {} != baseline {want}",
                    case.name, rows[0].1
                )),
                None => failures.push(format!("{}: missing from baseline", case.name)),
                _ => {}
            }
            if let Some(rate) = baseline_ff_rate(base, case.name).filter(|_| rates_comparable) {
                let floor = NOPROBE_RATE_FLOOR * rate as f64;
                if rows[1].4 < floor {
                    failures.push(format!(
                        "{}: fast_forward {:.0} cycles/s below {:.0} \
                         ({}% of baseline {rate}) — NoProbe hot path regressed",
                        case.name,
                        rows[1].4,
                        floor,
                        (NOPROBE_RATE_FLOOR * 100.0) as u32
                    ));
                }
            }
        }
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"name\": \"{}\",", case.name).unwrap();
        writeln!(json, "      \"simulated_cycles\": {},", rows[0].1).unwrap();
        if engine_filter.is_none() {
            render_trace(&mut json, case);
        }
        render_engines(&mut json, &rows, ref_rate);
        let comma = if ci + 1 < cases.len() { "," } else { "" };
        writeln!(json, "    }}{comma}").unwrap();
    }
    if scaling_mode {
        json.push_str("  ],\n  \"scaling\": [\n");
        // The host-thread axis of the curve: the threaded engine at
        // auto (all cores) and at a pinned 2 workers, alongside the
        // serial engines.
        let scaling_engines: Vec<(&'static str, Engine)> = {
            let base: &[(&'static str, Engine)] = &[
                ("reference", Engine::Reference),
                ("fast_forward", Engine::FastForward),
                ("threaded", Engine::Threaded { threads: 0 }),
                ("threaded_2", Engine::Threaded { threads: 2 }),
            ];
            match engine_filter {
                Some(want) => base
                    .iter()
                    .copied()
                    .filter(|(n, _)| n.starts_with(want))
                    .collect(),
                None => base.to_vec(),
            }
        };
        let scases = golden::scaling_cases();
        for (ci, case) in scases.iter().enumerate() {
            let cfg = case.config();
            let rows = measure_case(case, &scaling_engines);
            // Bit-identity across every engine, unconditionally.
            for r in &rows[1..] {
                if r.1 != rows[0].1 {
                    failures.push(format!(
                        "{}: {} cycles {} != {} cycles {}",
                        case.name, r.0, r.1, rows[0].0, rows[0].1
                    ));
                }
                if r.2 != rows[0].2 {
                    failures.push(format!(
                        "{}: {} spawn digest {:#018x} != {} {:#018x}",
                        case.name, r.0, r.2, rows[0].0, rows[0].2
                    ));
                }
            }
            let ref_rate = rows.iter().find(|r| r.0 == "reference").map(|r| r.4);
            if let (Some(rr), Some(thr)) = (ref_rate, rows.iter().find(|r| r.0 == "threaded")) {
                let ratio = thr.4 / rr;
                if rates_comparable && ratio < SCALING_GATE_FLOOR {
                    failures.push(format!(
                        "{}: threaded {:.2}x reference < {SCALING_GATE_FLOOR}x floor \
                         — the sharded engine must win at paper scale",
                        case.name, ratio
                    ));
                }
            }
            if let (Some(base), None) = (&baseline, engine_filter) {
                match baseline_u64(base, case.name, "simulated_cycles") {
                    Some(want) if want != rows[0].1 => failures.push(format!(
                        "{}: simulated_cycles {} != baseline {want}",
                        case.name, rows[0].1
                    )),
                    None => failures.push(format!("{}: missing from baseline", case.name)),
                    _ => {}
                }
                match baseline_digest(base, case.name) {
                    Some(want) if want != rows[0].2 => failures.push(format!(
                        "{}: spawn digest {:#018x} != baseline {want:#018x}",
                        case.name, rows[0].2
                    )),
                    None => failures.push(format!("{}: no baseline spawn digest", case.name)),
                    _ => {}
                }
            }
            writeln!(json, "    {{").unwrap();
            writeln!(json, "      \"name\": \"{}\",", case.name).unwrap();
            writeln!(json, "      \"tcus\": {},", cfg.tcus).unwrap();
            writeln!(json, "      \"simulated_cycles\": {},", rows[0].1).unwrap();
            writeln!(json, "      \"spawn_digest\": \"{:#018x}\",", rows[0].2).unwrap();
            if engine_filter.is_none() {
                render_trace(&mut json, case);
            }
            render_engines(&mut json, &rows, ref_rate);
            let comma = if ci + 1 < scases.len() { "," } else { "" };
            writeln!(json, "    }}{comma}").unwrap();
        }
    }
    json.push_str("  ]\n}\n");
    if engine_filter.is_some() {
        eprintln!("--engine filter active: measurements printed, no JSON written");
    } else {
        std::fs::write(&out_path, &json).expect("write BENCH_sim.json");
        eprintln!("wrote {out_path}");
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("BENCH CHECK FAILED: {f}");
        }
        std::process::exit(1);
    }
}
