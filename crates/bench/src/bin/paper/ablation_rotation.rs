//! Ablation: fused vs separate rotation (Section VI-B: "the rotation
//! is combined with the last iteration of the computation to reduce
//! the number of synchronization points and round trips to memory").
//!
//! The unfused variant runs the same FFT stages plus an explicit
//! rotation-copy pass per dimension — one extra read+write of the
//! whole array and one extra spawn barrier each.

use xmt_bench::{render_table, run_plan_validated, sample_wave};
use xmt_fft::plan::XmtFftPlan;
use xmt_sim::XmtConfig;

pub fn run(_: &crate::Args) {
    let cfg = XmtConfig::xmt_4k().scaled_to(8);
    println!("Ablation — fused vs separate rotation pass (4k scaled to 8 clusters)\n");
    let mut rows = Vec::new();
    for dims in [vec![64usize, 64], vec![16, 16, 16]] {
        let total: usize = dims.iter().product();
        let x = sample_wave(total, 0.017, 0.041);
        let mut cycles = [0u64; 2];
        for (slot, fused) in [(0usize, true), (1, false)] {
            let plan = XmtFftPlan::build_with(&dims, 4, None, fused);
            let run = run_plan_validated(&plan, &cfg, &x, &format!("{dims:?} fused={fused}"));
            cycles[slot] = run.report.stats.cycles;
            rows.push(vec![
                format!("{dims:?}"),
                if fused { "fused" } else { "separate" }.into(),
                plan.num_stages().to_string(),
                run.report.stats.cycles.to_string(),
                run.report.stats.mem_reads.to_string(),
                run.report.stats.mem_writes.to_string(),
            ]);
        }
        println!(
            "shape {:?}: fusing the rotation saves {:.1}% of cycles",
            dims,
            100.0 * (1.0 - cycles[0] as f64 / cycles[1] as f64)
        );
    }
    println!();
    println!(
        "{}",
        render_table(
            &["shape", "rotation", "spawns", "cycles", "reads", "writes"],
            &rows
        )
    );
}
