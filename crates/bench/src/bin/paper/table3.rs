//! Regenerates Table III: physical configurations (technology node,
//! 3D layers, silicon area), from the calibrated area model in
//! `xmt_sim::physical`, with the paper's published values beside the
//! model output.

use xmt_bench::ColumnTable;
use xmt_sim::{summarize, XmtConfig};

const PAPER_TOTALS: [f64; 5] = [227.0, 551.0, 3046.0, 3284.0, 3540.0];
const PAPER_PER_LAYER: [f64; 5] = [227.0, 276.0, 380.0, 365.0, 393.0];

pub fn run(_: &crate::Args) {
    let cfgs = XmtConfig::paper_configs();
    let sums: Vec<_> = cfgs.iter().map(summarize).collect();
    let mut t = ColumnTable::new("", cfgs.iter().map(|c| c.name));
    t.row("Technology Node (nm)", sums.iter().map(|s| s.tech_nm))
        .row("Silicon (Si) Layers", sums.iter().map(|s| s.si_layers))
        .row(
            "Si Area per Layer (mm2), model",
            sums.iter().map(|s| format!("{:.0}", s.area_per_layer_mm2)),
        )
        .row(
            "Si Area per Layer (mm2), paper",
            PAPER_PER_LAYER.iter().map(|v| format!("{v:.0}")),
        )
        .row(
            "Total Si Area (mm2), model",
            sums.iter().map(|s| format!("{:.0}", s.total_area_mm2)),
        )
        .row(
            "Total Si Area (mm2), paper",
            PAPER_TOTALS.iter().map(|v| format!("{v:.0}")),
        )
        .row(
            "Peak power (W), model",
            sums.iter().map(|s| format!("{:.0}", s.peak_power_w)),
        )
        .row(
            "Off-chip BW (Tb/s)",
            sums.iter().map(|s| format!("{:.2}", s.offchip_tbps)),
        )
        .row("Serial pins for DRAM", sums.iter().map(|s| s.serial_pins));
    println!("Table III — XMT physical configurations (area model vs paper)\n");
    println!("{}", t.render());
    let worst = sums
        .iter()
        .zip(PAPER_TOTALS)
        .map(|(s, p)| ((s.total_area_mm2 - p) / p).abs())
        .fold(0.0f64, f64::max);
    println!(
        "Largest total-area deviation from the paper: {:.1} %",
        worst * 100.0
    );
}
