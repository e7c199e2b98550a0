//! Regenerates Table IV: FFT performance on XMT (GFLOPS, 5N·log₂N
//! convention, 512³ single-precision complex, 3.3 GHz).
//!
//! Methodology (DESIGN.md §7): the cycle simulator executes the real
//! radix-8 DIF kernels at reduced machine/problem scale to validate
//! the analytic bottleneck model, which then projects the five paper
//! configurations at 512³ (directly cycle-simulating 2^27 points on
//! 131,072 TCUs is computationally infeasible — as it was for the
//! authors, who ran XMTSim on reduced configurations as well).
//!
//! Run with `--quick` to skip the slower calibration runs.

use crate::calibrate::calibrate;
use xmt_bench::{render_table, ColumnTable};
use xmt_fft::table4_projection;
use xmt_sim::XmtConfig;

const PAPER_GFLOPS: [f64; 5] = [239.0, 500.0, 3667.0, 12570.0, 18972.0];

pub fn run(args: &crate::Args) {
    let quick = args.has("--quick");

    println!("Table IV — FFT performance on XMT (3D FFT, 512^3, single precision)\n");
    let proj = table4_projection();
    let mut t = ColumnTable::new("", proj.iter().map(|p| p.config_name));
    t.row(
        "GFLOPS (model)",
        proj.iter().map(|p| format!("{:.0}", p.gflops_convention)),
    )
    .row(
        "GFLOPS (paper)",
        PAPER_GFLOPS.iter().map(|v| format!("{v:.0}")),
    )
    .row(
        "model / paper",
        proj.iter()
            .zip(PAPER_GFLOPS)
            .map(|(p, v)| format!("{:.2}", p.gflops_convention / v)),
    )
    .row(
        "growth vs previous",
        std::iter::once("-".to_string()).chain(
            proj.windows(2)
                .map(|w| format!("{:.2}x", w[1].gflops_convention / w[0].gflops_convention)),
        ),
    )
    .row(
        "rotation share of time",
        proj.iter()
            .map(|p| format!("{:.0}%", 100.0 * p.rotation_share())),
    );
    println!("{}", t.render());

    if quick {
        println!("(--quick: skipping cycle-simulator calibration runs)");
        return;
    }

    println!("\nCalibration: cycle simulator vs analytic model at reduced scale");
    println!("(real radix-8 DIF kernels executed instruction-by-instruction; output");
    println!(" verified against the parafft host reference on every run)\n");
    let points = [
        (XmtConfig::xmt_4k(), 8usize, vec![4096usize]),
        (XmtConfig::xmt_4k(), 8, vec![64, 64]),
        (XmtConfig::xmt_4k(), 16, vec![32, 32, 32]),
        (XmtConfig::xmt_64k(), 16, vec![64, 64]),
        (XmtConfig::xmt_64k(), 32, vec![32, 32, 32]),
    ];
    let mut rows = Vec::new();
    for (base, clusters, dims) in points {
        let c = calibrate(&base, clusters, &dims);
        rows.push(vec![
            format!("{} @{} clusters", c.config_name, c.clusters),
            format!("{:?}", c.dims),
            c.measured_cycles.to_string(),
            format!("{:.0}", c.modeled_cycles),
            format!("{:.2}", c.ratio),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "scaled config",
                "shape",
                "sim cycles",
                "model cycles",
                "sim/model"
            ],
            &rows
        )
    );
}
