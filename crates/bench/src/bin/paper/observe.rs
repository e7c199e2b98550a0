//! Observe a golden workload cycle-by-interval: run it with an
//! [`IntervalProbe`] attached, write a Chrome `trace_event` JSON
//! (open in `chrome://tracing` or <https://ui.perfetto.dev>) with
//! per-interval DRAM-channel busy fractions, NoC occupancy and
//! stall-cause counters, and print the per-phase stall-attribution
//! table with each spawn's roofline placement.
//!
//! ```text
//! cargo run --release -p xmt-bench --bin paper -- observe [workload] \
//!     [--interval N] [--out trace.json] [--stream]
//! ```
//!
//! Defaults: `fft_radix8_n512`, interval 64 cycles, output
//! `trace_<workload>.json` in the target directory (`CARGO_TARGET_DIR`,
//! else `target/`).
//!
//! `--stream` shrinks the per-module cache to a few lines and
//! throttles DRAM channel bandwidth before running, putting the
//! workload in the paper's operating regime: the 512³ problem the
//! paper measures dwarfs on-chip cache and shares modest aggregate
//! DRAM bandwidth across 64k TCUs, so every butterfly pass streams
//! from memory. In that regime the table reproduces the paper's
//! qualitative claim — every FFT phase sits on the bandwidth slope of
//! the roofline at ~100% of the attainable rate, and the stall
//! attribution is dominated by memory waits (outstanding-load
//! `scoreboard` stalls plus the `lsu/mem` path): DRAM-bound, not
//! compute-bound. Without the flag the scaled-down 512-point working
//! set fits in cache and the same kernel is compute/FPU-bound — the
//! contrast *is* the paper's Fig. 3 argument. (`--stream` timing is a
//! what-if analysis; the golden cycle counts only pin the unmodified
//! configuration.)

use std::path::PathBuf;

use xmt_fft::golden;
use xmt_sim::{chrome_trace, phase_table, IntervalProbe, SimConfig};

pub fn run(args: &crate::Args) {
    let workload = args.get("workload").unwrap_or("fft_radix8_n512");
    let interval = args.count("--interval").unwrap_or(64);
    let stream = args.has("--stream");

    let cases = golden::cases();
    let case = cases
        .iter()
        .find(|c| c.name == workload)
        .unwrap_or_else(|| {
            eprintln!(
                "unknown workload '{workload}'; available: {}",
                cases.iter().map(|c| c.name).collect::<Vec<_>>().join(", ")
            );
            std::process::exit(2);
        });
    let out_path = match args.get("--out") {
        Some(p) => PathBuf::from(p),
        None => xmt_bench::target_dir().join(format!("trace_{workload}.json")),
    };

    let mut cfg = golden::golden_config();
    if stream {
        // Paper regime: working set >> cache, so butterfly passes
        // stream from DRAM, and per-TCU DRAM bandwidth is scarce (the
        // full 64k-TCU machine shares ~110 GB/s; the scaled-down
        // golden config is far more generous per TCU, which would
        // hide the bottleneck being demonstrated).
        cfg.cache.lines = 8;
        cfg.cache.ways = 1;
        cfg.dram.bytes_per_cycle = 1.0;
        eprintln!(
            "--stream: per-module cache shrunk to {} lines x {} B, DRAM channels \
             throttled to {} B/cycle (paper regime: problem >> cache, bandwidth-starved)",
            cfg.cache.lines,
            cfg.cache.line_words * 4,
            cfg.dram.bytes_per_cycle
        );
    }
    let mut m = case
        .builder(&SimConfig::new(&cfg))
        .build_probed(IntervalProbe::new(interval, 1 << 16));
    let report = m.run().expect("workload must complete");
    let probe = m.probe();
    let rows = probe.rows();
    eprintln!(
        "{workload}: {} cycles, {} samples at interval {interval}{}",
        report.stats.cycles,
        probe.samples(),
        if probe.dropped() > 0 {
            format!(" ({} dropped to ring overwrite)", probe.dropped())
        } else {
            String::new()
        }
    );

    let json = chrome_trace(&rows, &report, &cfg);
    if let Some(dir) = out_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let shown = out_path.display();
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {shown}: {e}"));
    eprintln!("wrote {shown} — load it in chrome://tracing or ui.perfetto.dev");

    println!("{}", phase_table(&report, &cfg));
}
