//! Sweep deterministic fault injection over the golden FFT workload
//! and print a resilience table.
//!
//! Three sections:
//!
//! 1. **Soft-fault sweep** — escalating DRAM bit-flip and NoC
//!    corruption rates on the golden radix-8 FFT. Every row validates
//!    the transform against the host reference: SECDED correction and
//!    bounded link retry must hide every injected fault, at the cost of
//!    extra cycles. The fault counters come from the probe stream (the
//!    same columns `chrome_trace` renders as the "faults" track).
//! 2. **Degraded topologies** — dead clusters and dead DRAM channels.
//!    The builder remaps threads and hashed memory around the offline
//!    components; the transform must stay bit-correct at reduced
//!    throughput.
//! 3. **Watchdog** — a stuck-at TCU that holds the spawn barrier open
//!    forever. The run must fail *promptly* with `SimError::Stalled`
//!    rather than burning the whole cycle budget.
//!
//! Everything is seeded: rerunning with the same `--seed` reproduces
//! every row bit-for-bit (there is no wall-clock or OS randomness
//! anywhere in the fault path).
//!
//! ```text
//! cargo run --release -p xmt-bench --bin paper -- fault_sweep [--seed N]
//! ```

use parafft::Complex32;
use xmt_fft::golden;
use xmt_fft::plan::XmtFftPlan;
use xmt_fft::run::{host_reference, plan_builder_cfg, read_result, rel_error};
use xmt_sim::{FaultPlan, SimConfig, SimError, XmtConfig};

/// Transform shape for the sweep: the golden 512-point radix-8 FFT.
fn fft_plan() -> XmtFftPlan {
    XmtFftPlan::new_1d(512, 4)
}

/// Sum of one fault counter over the probe's retained interval rows.
fn total(rows: &[xmt_sim::IntervalRow], f: impl Fn(&xmt_sim::IntervalRow) -> u64) -> u64 {
    rows.iter().map(f).sum()
}

/// Run the golden FFT described by the [`SimConfig`] request value,
/// returning `(cycles, rows, rel_err)` or the error. Each sweep row is
/// a config — the same values the job server hashes and caches.
fn run_fft(
    sim: &SimConfig,
    input: &[Complex32],
) -> Result<(u64, Vec<xmt_sim::IntervalRow>, f64), SimError> {
    let plan = fft_plan();
    let probe = sim.interval_probe().expect("sweep configs are probed");
    let mut m = plan_builder_cfg(&plan, sim, input).build_probed(probe);
    let rep = m.run().into_result()?;
    let err = rel_error(&host_reference(&plan, input), &read_result(&plan, &m));
    Ok((rep.stats.cycles, m.probe().rows(), err))
}

pub fn run(args: &crate::Args) {
    let seed = args.count("--seed").unwrap_or(0x0FA5_7FF7);

    let cfg = golden::golden_config();
    let input = golden::sample_input(512, 2024);

    println!(
        "fault sweep: 512-point radix-8 FFT on {} (seed {seed:#x})",
        cfg.name
    );
    println!();
    println!("soft faults (SECDED ECC + bounded NoC retry):");
    println!(
        "{:>10} {:>9} {:>9} {:>8} {:>8} {:>9} {:>8} {:>9}  result",
        "rate", "cycles", "overhead", "ecc_corr", "ecc_det", "noc_corr", "noc_rtr", "rel_err"
    );
    let mut healthy_cycles = 0u64;
    for &rate in &[0.0f64, 1e-4, 1e-3, 1e-2, 5e-2] {
        let plan = FaultPlan::new(seed)
            .dram_flips(rate, rate / 10.0)
            .noc_corrupt(rate);
        let sim = SimConfig::new(&cfg).faults(plan).probed(64);
        match run_fft(&sim, &input) {
            Ok((cycles, rows, err)) => {
                if rate == 0.0 {
                    healthy_cycles = cycles;
                }
                let overhead = 100.0 * (cycles as f64 / healthy_cycles as f64 - 1.0);
                let ok = if err < 1e-3 { "correct" } else { "WRONG" };
                println!(
                    "{:>10.0e} {:>9} {:>7.1}% {:>8} {:>8} {:>9} {:>8} {:>9.1e}  {ok}",
                    rate,
                    cycles,
                    overhead,
                    total(&rows, |r| r.ecc_corrected),
                    total(&rows, |r| r.ecc_detected),
                    total(&rows, |r| r.noc_corrupted),
                    total(&rows, |r| r.noc_retried),
                    err,
                );
                assert!(err < 1e-3, "faulted FFT diverged at rate {rate}");
            }
            Err(e) => println!("{rate:>10.0e}  failed: {e:?}"),
        }
    }

    // Degradation needs a topology with something to lose: ≥ 2 DRAM
    // channels and enough clusters that killing some leaves capacity.
    let big = XmtConfig::xmt_4k().scaled_to(16);
    let big_input = golden::sample_input(512, 2024);
    println!();
    println!(
        "degraded topologies ({}: {} clusters, {} DRAM channels):",
        big.name,
        big.clusters,
        big.dram_channels()
    );
    println!(
        "{:>24} {:>9} {:>9} {:>9}  result",
        "offline", "cycles", "slowdown", "rel_err"
    );
    let mut base = 0u64;
    let shapes: &[(&str, &[usize], &[usize])] = &[
        ("none", &[], &[]),
        ("cluster 3", &[3], &[]),
        ("clusters 3,7,11", &[3, 7, 11], &[]),
        ("channel 1", &[], &[1]),
        ("cluster 3 + channel 1", &[3], &[1]),
    ];
    for &(label, clusters, channels) in shapes {
        let sim = SimConfig::new(&big).degraded(clusters, channels).probed(64);
        match run_fft(&sim, &big_input) {
            Ok((cycles, _, err)) => {
                if base == 0 {
                    base = cycles;
                }
                let ok = if err < 1e-3 { "correct" } else { "WRONG" };
                println!(
                    "{:>24} {:>9} {:>8.2}x {:>9.1e}  {ok}",
                    label,
                    cycles,
                    cycles as f64 / base as f64,
                    err
                );
                assert!(err < 1e-3, "degraded FFT diverged ({label})");
            }
            Err(e) => println!("{label:>24}  failed: {e:?}"),
        }
    }

    println!();
    println!("watchdog (stuck-at TCU holds the spawn barrier open):");
    let stuck = FaultPlan::new(seed).stuck_tcu(1, 3);
    let sim = SimConfig::new(&cfg)
        .faults(stuck)
        .watchdog(20_000)
        .probed(64);
    match run_fft(&sim, &input) {
        Ok((cycles, _, _)) => println!("  unexpectedly completed in {cycles} cycles"),
        Err(SimError::Stalled {
            at_cycle,
            last_retired,
        }) => println!(
            "  stalled at cycle {at_cycle} ({last_retired} instructions retired) — \
             watchdog fired after 20000 cycles without progress"
        ),
        Err(e) => println!("  failed with unexpected error: {e:?}"),
    }
}
