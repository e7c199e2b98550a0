//! Regenerates Table VI: Edison (Cray XC30) versus XMT (128k x4).
//!
//! Machine rows come from the cluster model (`hpc_cluster::Cluster`)
//! and the XMT physical model; the FFT rows come from the distributed
//! pencil-FFT model (Edison, 1024³ double complex on 32,768 cores) and
//! the XMT projection (512³ single complex).

use hpc_cluster::{model, Cluster, Fft3dJob};
use xmt_bench::ColumnTable;
use xmt_fft::project;
use xmt_sim::{summarize, XmtConfig};

pub fn run(_: &crate::Args) {
    let edison = Cluster::edison();
    let ejob = Fft3dJob::edison_reference();
    let efft = model(&edison, &ejob);

    let xmt = XmtConfig::xmt_128k_x4();
    let phys = summarize(&xmt);
    let xfft = project(&xmt, &[512, 512, 512]);
    let xmt_tf = xfft.gflops_convention / 1000.0;
    let xmt_pct = xfft.gflops_convention / (xmt.peak_gflops()) * 100.0;

    println!("Table VI — comparison of Edison (Cray XC30) to XMT (128k x4)\n");
    let mut t = ColumnTable::new("", ["Edison", "XMT (128k x4)"]);
    t.row(
        "# processing elements",
        [
            format!("{} cores", edison.cores()),
            format!("{} TCUs", xmt.tcus()),
        ],
    )
    .row(
        "# processor groups",
        [
            format!("{} nodes", edison.nodes),
            format!("{} clusters", xmt.clusters),
        ],
    )
    .row(
        "Total cache memory",
        [
            format!("{:.0} MB", edison.total_cache_mb()),
            format!("{:.0} MB", xmt.total_cache_mib()),
        ],
    )
    .row(
        "# chips",
        [
            format!(
                "{} CPU + {} router",
                edison.cpu_chips(),
                edison.router_chips()
            ),
            "1".into(),
        ],
    )
    .row(
        "Total silicon area",
        [
            format!(
                "{:.0} cm2 (22nm) + {:.0} cm2 (40nm)",
                edison.cpu_silicon_cm2(),
                edison.router_silicon_cm2()
            ),
            format!("{:.1} cm2 (14nm)", phys.total_area_mm2 / 100.0),
        ],
    )
    .row(
        "Normalized Si area (22 nm)",
        [
            format!("{:.0} cm2", edison.silicon_cm2_at_22nm()),
            format!("{:.0} cm2", phys.area_22nm_mm2 / 100.0),
        ],
    )
    .row(
        "Peak power",
        [
            format!("{:.0} kW", edison.peak_power_kw),
            format!("{:.1} kW", phys.peak_power_w / 1000.0),
        ],
    )
    .row(
        "Peak teraFLOPS",
        [
            format!("{:.0}", edison.peak_tflops()),
            format!("{:.0}", xmt.peak_gflops() / 1000.0),
        ],
    )
    .row(
        "TeraFLOPS for FFT (size), model",
        [
            format!("{:.1} (1024^3)", efft.gflops / 1000.0),
            format!("{:.1} (512^3)", xmt_tf),
        ],
    )
    .row(
        "TeraFLOPS for FFT, paper",
        ["13.6 (1024^3)", "19.0 (512^3)"],
    )
    .row(
        "% of peak FLOPS, model",
        [
            format!("{:.2}%", efft.pct_of_machine_peak),
            format!("{:.0}%", xmt_pct),
        ],
    )
    .row("% of peak FLOPS, paper", ["0.57%", "35%"]);
    println!("{}", t.render());

    let factor = xmt_tf * 1000.0 / efft.gflops;
    let si = edison.silicon_cm2_at_22nm() / (phys.area_22nm_mm2 / 100.0);
    let pw = edison.peak_power_kw / (phys.peak_power_w / 1000.0);
    println!(
        "\nHeadline (model): the single-chip XMT delivers {factor:.2}x the Edison FFT rate\n\
         while Edison uses {si:.0}x the (normalized) silicon and {pw:.0}x the power.\n\
         (Paper headline: 1.4x the speed at 870x silicon / 375x power; Edison comm\n\
         fraction in our model: {:.0}% of runtime.)",
        efft.comm_fraction * 100.0
    );
}
