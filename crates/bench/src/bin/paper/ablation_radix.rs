//! Ablation: radix 2 vs 4 vs 8 (Section IV-A "Choice of Radix").
//!
//! Higher radix means fewer passes over memory (`log_r N` stages at
//! `N·2` words each way per stage) at the cost of per-thread register
//! pressure and less parallelism per stage. The paper picks 8 — the
//! largest radix whose working set fits the 32 FP registers.
//!
//! Runs the real kernels on the cycle simulator (output checked
//! against the host library every time).

use xmt_bench::{render_table, run_plan_validated, sample_wave};
use xmt_fft::plan::XmtFftPlan;
use xmt_sim::XmtConfig;

pub fn run(_: &crate::Args) {
    let n = 4096usize; // 2^12 = 8^4 = 4^6 = 2^12: all three radices apply
    let cfg = XmtConfig::xmt_4k().scaled_to(8);
    let x = sample_wave(n, 0.11, 0.07);

    println!("Ablation — radix choice (1D {n}-point FFT, 4k config scaled to 8 clusters)\n");
    let mut rows = Vec::new();
    let mut r8_cycles = 0u64;
    for radix in [2u32, 4, 8] {
        let plan = XmtFftPlan::build_with(&[n], 4, Some(radix), true);
        let run = run_plan_validated(&plan, &cfg, &x, &format!("radix {radix}"));
        let s = run.report.stats;
        if radix == 8 {
            r8_cycles = s.cycles;
        }
        rows.push(vec![
            radix.to_string(),
            plan.num_stages().to_string(),
            s.cycles.to_string(),
            s.mem_reads.to_string(),
            s.mem_writes.to_string(),
            s.flops.to_string(),
            format!("{:.1}", s.flops as f64 * cfg.clock_ghz / s.cycles as f64),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["radix", "stages", "cycles", "reads", "writes", "flops", "GFLOPS"],
            &rows
        )
    );
    let r2_cycles: u64 = rows[0][2].parse().unwrap();
    println!(
        "radix-8 is {:.2}x faster than radix-2 on the simulated machine\n\
         (fewer memory passes: 4 stages instead of 12).",
        r2_cycles as f64 / r8_cycles as f64
    );
}
