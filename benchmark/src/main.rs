//! The repository's benchmark: four workloads, five end-to-end metrics,
//! and a traced pass that derives the per-layer numbers. See
//! `benchmark/README.md` for every name, and `BENCHMARK.json` at the
//! repository root for the contract the driver runs it under.
//!
//! ```text
//! xmt-perfbench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! xmt-perfbench run [--seed N] [--seconds S] [--traced] [--smoke] [--out FILE]
//! xmt-perfbench compare A1.json A2.json … --vs B1.json B2.json …
//! ```

mod compare;
mod harness;
mod host;
mod json;
mod layers;
mod metrics;
mod sim;
mod stats;
mod svc;
mod trace;

use harness::{Gauges, Measured, RoundPlan, Workload};
use json::Value;
use metrics::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use sim::{SimWorkload, Subject};
use std::process::ExitCode;
use svc::{Kind, SvcWorkload};
use trace::Tracer;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures unless
/// told otherwise.
const RUN_SECONDS: f64 = 30.0;

/// Spans written to a trace file; the per-layer numbers use them all.
const TRACE_FILE_SPANS: usize = 40_000;

/// The share of a traced run's seconds spent in the workload's own
/// rounds; the rest goes to the per-layer probes.
const TRACED_ROUNDS_SHARE: f64 = 0.35;

/// One invocation in the driver's form.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be within (0, 600]".into());
                }
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(out)
}

/// The round shape of each workload: the fixed counts `BENCHMARK.json`
/// quotes in each workload's reason. Smoke runs keep the shape and
/// shrink the counts.
fn round_plan(workload: &str, smoke: bool) -> RoundPlan {
    // A sim set-up is milliseconds and a 30 s run holds 3 to 10 rounds,
    // so each round makes it several times; a service set-up is 16 cold
    // jobs and a run holds a dozen.
    let (ops, warmups, gauge_every, setups) = match workload {
        "sim_dense" => (5, 1, 1, 8),
        "sim_sparse" => (10, 2, 1, 4),
        "svc_cold" => (400, 2, 20, 1),
        "svc_hit" => (2500, 2, 100, 1),
        other => unreachable!("{other} was validated"),
    };
    if smoke {
        RoundPlan {
            ops: (ops / 50).max(2),
            warmups: 1,
            gauge_every: (gauge_every / 10).max(1),
            setups: 1,
        }
    } else {
        RoundPlan {
            ops,
            warmups,
            gauge_every,
            setups,
        }
    }
}

/// What one run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// The table the result line must carry, by name.
    names: Vec<&'static str>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last line of standard output, as the driver reads it.
    fn result_line(&self) -> Result<String, String> {
        Ok(Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            (
                "metrics".into(),
                metrics::to_json(&self.metrics, &self.names)?,
            ),
        ])
        .render())
    }
}

fn print_metrics(m: &Metrics) {
    for (name, value) in &m.0 {
        println!(
            "  {name:<30} {value:>16.6} {}",
            metrics::unit_of(name).unwrap_or("")
        );
    }
}

fn print_failures(m: &Measured) {
    for e in &m.errors {
        println!("  FAILED: {e}");
    }
}

/// Per-round lower quartiles of the wall-clock latencies: the table the
/// "stable across rounds" criterion of `svc_hit` is read from.
fn print_rounds(m: &Measured) {
    let per_round: Vec<f64> = (0..m.rounds)
        .filter_map(|r| {
            let ms: Vec<f64> = m
                .ops
                .iter()
                .filter(|o| o.round == r)
                .map(|o| o.ms)
                .collect();
            (!ms.is_empty()).then(|| stats::quartiles(&ms).0)
        })
        .collect();
    if per_round.is_empty() {
        return;
    }
    let (lo, hi) = per_round
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    println!(
        "  per-round wall-clock op p25, ms: [{}]  max/min {:.3}",
        per_round
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(", "),
        hi / lo
    );
}

/// The five end-to-end metrics from an untraced run.
fn end_to_end(m: &Measured) -> Metrics {
    let mut out = Metrics::default();
    let setups: Vec<f64> = m.setups.iter().map(|(s, g)| s / g.dilation()).collect();
    out.put("setup_s", stats::quartiles(&setups).0);
    let ms = m.normalised_ms(false);
    if ms.is_empty() {
        // Every op failed: the run is incorrect, and the figures say so.
        for name in ["ops_per_s", "op_p50_ms", "op_p25_ms"] {
            out.put(name, 0.0);
        }
    } else {
        let (p25, p50, _) = stats::quartiles(&ms);
        out.put(
            "ops_per_s",
            ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3),
        );
        out.put("op_p50_ms", p50);
        out.put("op_p25_ms", p25);
    }
    // Includes the 64 MiB the memory-latency gauge keeps resident: a
    // constant, which also keeps a few-MiB workload's allocator jitter
    // inside the metric's bound.
    out.put("peak_rss_mb", host::peak_rss_kb() as f64 / 1024.0);
    out
}

fn print_host(gauges: &Gauges, pinned: bool) {
    println!(
        "  host: pinned {}  calib_ms {:.3}  noise_frac {:.3}  chase_ns {:.1}  ({} gauge readings)",
        u8::from(pinned),
        gauges.calib_ms(),
        gauges.noise_frac(),
        gauges.chase_ns(),
        gauges.readings.len()
    );
}

fn run_untraced<W: Workload>(mut w: W, args: &RunArgs, pinned: bool) -> Outcome {
    let tr = Tracer::new();
    let mut gauges = Gauges::new();
    let max_rounds = if args.smoke { 1 } else { u64::MAX };
    let m = harness::run_for(&mut w, args.seconds, max_rounds, false, &tr, &mut gauges);
    let metrics = end_to_end(&m);
    println!(
        "{} seed {} — {} rounds, {} timed ops pooled, {} attempted, {} failed",
        args.workload,
        args.seed,
        m.rounds,
        m.ops.len(),
        m.attempted,
        m.failed
    );
    print_metrics(&metrics);
    let raw = m.latencies_ms(false);
    if !raw.is_empty() {
        let (p25, p50, _) = stats::quartiles(&raw);
        println!("  wall clock, not normalised: op_p25 {p25:.4} ms  op_p50 {p50:.4} ms");
    }
    print_rounds(&m);
    print_host(&gauges, pinned);
    print_failures(&m);
    Outcome {
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        names: END_TO_END.iter().map(|e| e.name).collect(),
    }
}

/// What the traced run needs to know about the workload beyond running
/// it.
trait Traced: Workload {
    fn subject(&self) -> Subject;
    /// `Some` for a service workload: its kind and the service's own
    /// counters as the last round ended.
    fn service(&self) -> Option<(Kind, Option<xmt_server::RemoteStats>)>;
}

impl Traced for SimWorkload {
    fn subject(&self) -> Subject {
        SimWorkload::subject(self).clone()
    }
    fn service(&self) -> Option<(Kind, Option<xmt_server::RemoteStats>)> {
        None
    }
}

impl Traced for SvcWorkload {
    fn subject(&self) -> Subject {
        Subject::service()
    }
    fn service(&self) -> Option<(Kind, Option<xmt_server::RemoteStats>)> {
        Some((self.kind(), self.last_stats))
    }
}

/// `server.*` as the client sees them, from the rounds of a service
/// workload and the spans around its calls.
fn client_view(
    m: &Measured,
    tr: &Tracer,
    kind: Kind,
    stats: Option<xmt_server::RemoteStats>,
    out: &mut Metrics,
) {
    let jobs_per_op = match kind {
        Kind::Cold => 1.0,
        Kind::Hit => svc::SWEEP as f64,
    };
    out.put("server.submit_p50_us", tr.median_ms("Client::submit") * 1e3);
    out.put("server.wait_p50_us", tr.median_ms("Client::wait") * 1e3);
    let all = stats::sorted(&m.ops.iter().map(|o| o.ms).collect::<Vec<_>>());
    let q = |p: f64| {
        if all.is_empty() {
            0.0
        } else {
            stats::quantile(&all, p)
        }
    };
    out.put("server.op_p90_ms", q(0.9));
    out.put("server.op_p99_ms", q(0.99));
    out.put("server.op_max_ms", all.last().copied().unwrap_or(0.0));
    let timed = m.timed.max(1) as f64;
    out.put("server.cpu_ms_per_op", m.cpu_s * 1e3 / timed);
    out.put("server.ctx_switches_per_op", m.ctx_switches as f64 / timed);
    out.put("server.allocs_per_op", m.allocs as f64 / timed);
    let round0_jobs = (m.ops.iter().filter(|o| o.round == 0).count() as f64 * jobs_per_op).max(1.0);
    out.put(
        "server.rss_kb_per_job",
        m.round0_rss_kb.1.saturating_sub(m.round0_rss_kb.0) as f64 / round0_jobs,
    );
    let (hit_frac, rejected) = stats.map_or((0.0, 0.0), |s| {
        let looked = s.cache.hits + s.cache.disk_hits + s.cache.misses;
        (
            (s.cache.hits + s.cache.disk_hits) as f64 / looked.max(1) as f64,
            (s.server.rejected_overload + s.server.rejected_quota) as f64,
        )
    });
    out.put("server.cache_hit_frac", hit_frac);
    out.put("server.rejected", rejected);
}

/// The write path peeled: the same cold job in-process, over TCP
/// without the journal, over TCP with it, and run directly.
fn write_path(
    seed: u64,
    smoke: bool,
    tr: &Tracer,
    gauges: &mut Gauges,
    out: &mut Metrics,
) -> Vec<String> {
    let mut problems = Vec::new();
    let n = if smoke { 8 } else { 120 };
    // Directly: no service at all. Recorded under spans, which is where
    // a service workload's `sim.build_ms` / `sim.run_ms` come from.
    tr.set_on(true);
    let direct: Vec<f64> = (0..n.min(40))
        .map(|i| {
            let req = svc::request(seed ^ 0xD1EC ^ i as u64);
            let t = std::time::Instant::now();
            std::hint::black_box(svc::direct_bytes(&req, tr));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    tr.set_on(false);
    let direct_ms = stats::median(&direct);
    out.put("server.direct_op_ms", direct_ms);

    // In-process: the server without TCP, client or journal.
    let cfg = xmt_server::ServerConfig {
        workers: 1,
        quantum: svc::QUANTUM,
        ..xmt_server::ServerConfig::default()
    };
    match xmt_server::Server::start(cfg) {
        Err(e) => {
            problems.push(format!("in-process server: {e}"));
            out.put("server.inproc_op_ms", 0.0);
        }
        Ok(server) => {
            let mut ms = Vec::with_capacity(n);
            for i in 0..n {
                let req = svc::request(seed ^ 0x1A9C ^ (i as u64) << 20);
                let t = std::time::Instant::now();
                let res = server.submit(req).and_then(|h| h.wait());
                ms.push(t.elapsed().as_secs_f64() * 1e3);
                if !matches!(&res, Ok(r) if r.outcome.is_completed() && !r.from_cache) {
                    problems.push("in-process cold job did not complete".into());
                }
            }
            out.put("server.inproc_op_ms", stats::median(&ms));
        }
    }

    // Over TCP, journal off and on: one short round each.
    let shape = RoundPlan {
        ops: n,
        warmups: 2,
        gauge_every: n,
        setups: 1,
    };
    let mut with_journal = |journal: bool| -> (f64, Option<xmt_server::RemoteStats>, u32) {
        let mut w = SvcWorkload::new(Kind::Cold, seed ^ u64::from(journal), shape, journal);
        let mut m = Measured::default();
        harness::run_round(&mut w, 0, false, &Tracer::new(), gauges, &mut m);
        problems.extend(m.errors.iter().cloned());
        let ms = m.latencies_ms(false);
        let p50 = if ms.is_empty() {
            0.0
        } else {
            stats::median(&ms)
        };
        (p50, w.last_stats, w.last_slices)
    };
    let (tcp_ms, _, slices) = with_journal(false);
    let (journal_ms, stats, _) = with_journal(true);
    out.put("server.journal_op_ms", journal_ms);
    out.put("server.slices_per_op", f64::from(slices));
    // Every job of the journaled round, prefill and warm-ups included,
    // wrote the same records.
    let jobs = (n + 2 + svc::SWEEP) as f64;
    out.put(
        "server.journal_bytes_per_op",
        stats.map_or(0.0, |s| (s.server.journal_bytes as f64 / jobs).round()),
    );
    out.put(
        "server.overhead_frac",
        if tcp_ms > 0.0 {
            1.0 - direct_ms / tcp_ms
        } else {
            0.0
        },
    );
    println!(
        "  cold job: direct {direct_ms:.3} ms, over TCP {tcp_ms:.3} ms, with the journal {journal_ms:.3} ms"
    );
    problems
}

fn run_traced<W: Traced>(mut w: W, args: &RunArgs, unpinned: Option<[u64; 16]>) -> Outcome {
    let tr = Tracer::new();
    let mut gauges = Gauges::new();
    let mut out = Metrics::default();
    let mut problems: Vec<String> = Vec::new();

    // The workload's own rounds, spans on and off alternately.
    let max_rounds = if args.smoke { 2 } else { u64::MAX };
    let m = harness::run_for(
        &mut w,
        args.seconds * TRACED_ROUNDS_SHARE,
        max_rounds,
        true,
        &tr,
        &mut gauges,
    );
    let (plain, traced) = (m.latencies_ms(false), m.latencies_ms(true));
    out.put(
        "trace.overhead_frac",
        if plain.is_empty() || traced.is_empty() {
            0.0
        } else {
            stats::median(&traced) / stats::median(&plain) - 1.0
        },
    );

    // The service side. A service workload's client view is its own
    // rounds; a simulation workload borrows one short cold round.
    let probe_tr = Tracer::new();
    match w.service() {
        Some((kind, stats)) => client_view(&m, &tr, kind, stats, &mut out),
        None => {
            let shape = RoundPlan {
                ops: if args.smoke { 8 } else { 120 },
                warmups: 2,
                gauge_every: 40,
                setups: 1,
            };
            let mut cold = SvcWorkload::new(Kind::Cold, args.seed, shape, false);
            let mut cm = Measured::default();
            harness::run_round(&mut cold, 0, true, &probe_tr, &mut gauges, &mut cm);
            problems.extend(cm.errors.iter().cloned());
            client_view(&cm, &probe_tr, Kind::Cold, cold.last_stats, &mut out);
        }
    }
    problems.extend(write_path(
        args.seed,
        args.smoke,
        &probe_tr,
        &mut gauges,
        &mut out,
    ));
    problems.extend(layers::server_standalone(args.seed, &mut out));

    // The simulation side, on the machine and transform this workload
    // simulates. Its build/run split comes from the spans around them:
    // the workload's own ops, or the direct runs of the service's job.
    let subject = w.subject();
    let sim_tr = if w.service().is_some() {
        &probe_tr
    } else {
        &tr
    };
    let builder_ms = sim_tr.median_ms("plan_builder_cfg") + sim_tr.median_ms("SimRequest::builder");
    out.put(
        "sim.build_ms",
        builder_ms + sim_tr.median_ms("MachineBuilder::build"),
    );
    let run_ms = sim_tr.median_ms("Machine::run");
    out.put("sim.run_ms", run_ms);
    problems.extend(layers::sim_side(
        &subject, args.seed, run_ms, unpinned, &mut out,
    ));

    out.put("host.calib_ms", gauges.calib_ms());
    out.put("host.noise_frac", gauges.noise_frac());
    out.put("host.pinned", f64::from(u8::from(unpinned.is_some())));
    out.put("host.copy_gbs", host::copy_gbs());
    out.put("trace.spans", (tr.len() + probe_tr.len()) as f64);

    // Spans out, summary up.
    let path = svc::out_dir().join(format!("trace-{}.json", args.workload));
    if let Err(e) = std::fs::write(&path, tr.chrome_json(TRACE_FILE_SPANS)) {
        problems.push(format!("{}: {e}", path.display()));
    }
    println!(
        "{} seed {} traced — {} rounds, {} spans, written to {}",
        args.workload,
        args.seed,
        m.rounds,
        tr.len(),
        path.display()
    );
    println!(
        "  {:<26} {:>8} {:>14} {:>14} {:>12}",
        "span", "count", "total ms", "self ms", "median ms"
    );
    for (name, s) in tr.summary() {
        println!(
            "  {name:<26} {:>8} {:>14.3} {:>14.3} {:>12.4}",
            s.count,
            s.total_us / 1e3,
            s.self_us / 1e3,
            stats::median(&s.durs_us) / 1e3
        );
    }
    print_metrics(&out);
    print_host(&gauges, unpinned.is_some());
    print_failures(&m);
    for p in &problems {
        println!("  FAILED: {p}");
    }
    Outcome {
        attempted: m.attempted + problems.len() as u64,
        failed: m.failed + problems.len() as u64,
        metrics: out,
        names: PER_LAYER.iter().map(|p| p.name).collect(),
    }
}

/// One workload in this process, as the driver runs it.
fn run_one(args: &RunArgs) -> Result<Outcome, String> {
    std::fs::create_dir_all(svc::out_dir())
        .map_err(|e| format!("{}: {e}", svc::out_dir().display()))?;
    let unpinned = host::pin_to_one_cpu();
    if unpinned.is_none() {
        eprintln!("warning: could not pin to one CPU; host.pinned = 0 and loopback latencies will be noisier");
    }
    let plan = round_plan(&args.workload, args.smoke);
    macro_rules! go {
        ($w:expr) => {
            if args.traced {
                run_traced($w, args, unpinned)
            } else {
                run_untraced($w, args, unpinned.is_some())
            }
        };
    }
    Ok(match args.workload.as_str() {
        "sim_dense" => go!(SimWorkload::new(
            Subject::dense(args.smoke),
            args.seed,
            plan
        )?),
        "sim_sparse" => go!(SimWorkload::new(
            Subject::sparse(args.smoke),
            args.seed,
            plan
        )?),
        "svc_cold" => go!(SvcWorkload::new(Kind::Cold, args.seed, plan, false)),
        "svc_hit" => go!(SvcWorkload::new(Kind::Hit, args.seed, plan, false)),
        other => unreachable!("{other} was validated"),
    })
}

/// `run`: every workload in a process of its own (so `peak_rss_mb` is
/// that workload's), gathered into one run file for `compare`.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let mut seed = 1u64;
    let mut seconds = RUN_SECONDS;
    let (mut traced, mut smoke) = (false, false);
    let mut out_path = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--out" => out_path = Some(std::path::PathBuf::from(value()?)),
            "--traced" => traced = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = |workload: &str, trace: bool| -> Result<Value, String> {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if smoke {
            cmd.arg("--smoke");
        }
        let output = cmd
            .output()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let last = stdout.lines().last().unwrap_or("");
        json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))
    };
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let result = child(workload, false)?;
        all_correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
        let mut members = match result {
            Value::Obj(m) => m,
            _ => return Err(format!("{workload}: result line is not an object")),
        };
        if traced {
            let layers = child(workload, true)?;
            all_correct &= layers.get("correct").and_then(Value::as_bool) == Some(true);
            members.push((
                "layers".into(),
                layers.get("metrics").cloned().unwrap_or(Value::Null),
            ));
        }
        workloads.push((workload.to_string(), Value::Obj(members)));
    }
    let doc = Value::Obj(vec![
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(seconds)),
        ("smoke".into(), Value::Bool(smoke)),
        ("workloads".into(), Value::Obj(workloads)),
    ]);
    let path = out_path.unwrap_or_else(|| svc::out_dir().join(format!("run-{seed}.json")));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "run file: {}  ({})",
        path.display(),
        if all_correct {
            "every output correct"
        } else {
            "INCORRECT OUTPUTS"
        }
    );
    Ok(all_correct)
}

/// `compare A… --vs B…`: true when nothing got worse.
fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--vs")
        .ok_or("usage: compare A1.json A2.json … --vs B1.json B2.json …")?;
    let (a, b) = (
        compare::load(&args[..split])?,
        compare::load(&args[split + 1..])?,
    );
    if a.is_empty() || b.is_empty() {
        return Err("compare needs at least one run file on each side of --vs".into());
    }
    let rows = compare::compare(&a, &b);
    print!("{}", compare::render(&rows));
    let moved = compare::count_mismatches(&a, &b);
    for (workload, metric, values) in &moved {
        println!("count moved: {workload} {metric} reads {values:?}");
    }
    if moved.is_empty() {
        println!("every exact count that both sets carry is identical");
    }
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Worse))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => parse_run_args(&args).and_then(|run| {
            let outcome = run_one(&run)?;
            // The result is the last line of standard output.
            println!("{}", outcome.result_line()?);
            Ok(outcome.correct())
        }),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("xmt-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse_in_any_order() {
        let a = parse_run_args(&strs(&[
            "--trace",
            "1",
            "--seconds",
            "12.5",
            "--workload",
            "svc_hit",
            "--seed",
            "42",
        ]))
        .unwrap();
        assert_eq!(
            a,
            RunArgs {
                workload: "svc_hit".into(),
                seed: 42,
                seconds: 12.5,
                traced: true,
                smoke: false
            }
        );
        for bad in [
            vec!["--workload", "nope"],
            vec!["--workload", "svc_hit", "--trace", "2"],
            vec!["--workload", "svc_hit", "--seconds", "0"],
            vec!["--workload"],
            vec!["--seed", "3"],
            vec!["--workload", "svc_hit", "--frobnicate"],
        ] {
            assert!(parse_run_args(&strs(&bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        for (i, e) in END_TO_END.iter().enumerate() {
            metrics.put(e.name, 1.5 + i as f64);
        }
        let o = Outcome {
            attempted: 10,
            failed: 0,
            metrics,
            names: END_TO_END.iter().map(|e| e.name).collect(),
        };
        let line = o.result_line().unwrap();
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let m = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );
    }

    #[test]
    fn every_workload_has_a_round_plan_and_smoke_shrinks_it() {
        for w in WORKLOADS {
            let (full, smoke) = (round_plan(w, false), round_plan(w, true));
            assert!(full.ops >= 5 && full.warmups >= 1);
            assert!(smoke.ops >= 2 && smoke.ops < full.ops.max(3));
            assert!(smoke.gauge_every >= 1);
        }
    }
}
