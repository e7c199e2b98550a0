//! Regenerates Table II: the five XMT architecture configurations.
//!
//! Rows come straight from `xmt_sim::XmtConfig::paper_configs()` — the
//! same presets the simulator and the projections run on.

use xmt_bench::ColumnTable;
use xmt_sim::XmtConfig;

pub fn run(_: &crate::Args) {
    let cfgs = XmtConfig::paper_configs();
    let mut t = ColumnTable::new("", cfgs.iter().map(|c| c.name));
    t.row("TCUs", cfgs.iter().map(|c| c.tcus))
        .row("Clusters", cfgs.iter().map(|c| c.clusters))
        .row("Memory Modules", cfgs.iter().map(|c| c.memory_modules))
        .row("NoC MoT Levels", cfgs.iter().map(|c| c.mot_levels))
        .row(
            "NoC Butterfly Levels",
            cfgs.iter().map(|c| c.butterfly_levels),
        )
        .row(
            "MMs per DRAM Ctrl.",
            cfgs.iter().map(|c| c.mm_per_dram_ctrl),
        )
        .row("DRAM Channels", cfgs.iter().map(|c| c.dram_channels()))
        .row("FPUs per Cluster", cfgs.iter().map(|c| c.fpus_per_cluster))
        .row("TCUs per Cluster", cfgs.iter().map(|c| c.tcus_per_cluster))
        .row("ALUs per Cluster", cfgs.iter().map(|c| c.alus_per_cluster))
        .row("MDUs per Cluster", cfgs.iter().map(|c| c.mdus_per_cluster))
        .row("LSUs per Cluster", cfgs.iter().map(|c| c.lsus_per_cluster))
        .row(
            "Peak GFLOPS",
            cfgs.iter().map(|c| format!("{:.0}", c.peak_gflops())),
        )
        .row(
            "Peak DRAM GB/s",
            cfgs.iter().map(|c| format!("{:.0}", c.peak_dram_gbs())),
        );
    println!("Table II — XMT architecture configurations\n");
    println!("{}", t.render());
    println!(
        "(The paper's rows are reproduced exactly; \"DRAM Channels\", \"Peak GFLOPS\" and\n\
         \"Peak DRAM GB/s\" are derived rows used by the Roofline analysis.)"
    );
}
