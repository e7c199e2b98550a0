//! Ablation: twiddle-table replication (Section IV-A "Twiddle
//! Factors").
//!
//! All rows of a multidimensional FFT read the *same* twiddle factors;
//! with a single table copy those reads queue on the same cache
//! modules ("accesses to the same memory location on XMT are queued"),
//! so the paper replicates the table until each cache module holds one
//! line of it. This binary measures simulated cycles as the replica
//! count grows.

use xmt_bench::{render_table, run_plan_validated, sample_wave};
use xmt_fft::plan::XmtFftPlan;
use xmt_sim::XmtConfig;

pub fn run(_: &crate::Args) {
    // Many rows sharing a tiny table maximizes same-line pressure: a
    // 16-entry table is 4 cache lines, so with one copy only 4 of the
    // 32 cache modules serve every twiddle read.
    let (rows_n, cols) = (512usize, 16usize);
    let cfg = XmtConfig::xmt_4k().scaled_to(32);
    let x = sample_wave(rows_n * cols, 0.013, 0.029);

    println!(
        "Ablation — twiddle replication ({rows_n}x{cols} 2D FFT, {} cache modules)\n",
        cfg.memory_modules
    );
    let mut table = Vec::new();
    let mut first_cycles = 0u64;
    for copies in [1u32, 2, 4, 8, 16] {
        let plan = XmtFftPlan::build_with(&[rows_n, cols], copies, None, true);
        let run = run_plan_validated(&plan, &cfg, &x, &format!("copies={copies}"));
        let cycles = run.report.stats.cycles;
        if copies == 1 {
            first_cycles = cycles;
        }
        table.push(vec![
            copies.to_string(),
            cycles.to_string(),
            format!("{:.2}x", first_cycles as f64 / cycles as f64),
        ]);
    }
    println!(
        "{}",
        render_table(&["replicas", "cycles", "speedup vs 1 copy"], &table)
    );
    let policy = xmt_fft::default_copies(cols, cfg.memory_modules);
    println!(
        "\npaper policy for this shape: {policy} replicas (one cache line per module);\n\
         diminishing returns beyond that, exactly as Section IV-A argues."
    );
}
