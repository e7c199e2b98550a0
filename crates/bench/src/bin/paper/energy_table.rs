//! Energy analysis (extension): joules per 512³ FFT and GFLOPS/W for
//! every XMT configuration, plus the Edison comparison — quantifying
//! the paper's core premise that the enabling technologies attack the
//! *energy cost of data movement*.

use hpc_cluster::{model, Cluster, Fft3dJob};
use xmt_bench::render_table;
use xmt_fft::{stage_demands, table4_projection};
use xmt_sim::{gflops_per_watt, phase_energy, XmtConfig};

pub fn run(_: &crate::Args) {
    println!("Energy per 512^3 single-precision 3D FFT (activity-based model)\n");
    let mut rows = Vec::new();
    for (cfg, proj) in XmtConfig::paper_configs().iter().zip(table4_projection()) {
        let demands = stage_demands(&[512, 512, 512], cfg);
        let e = phase_energy(cfg, &demands);
        let flops: f64 = demands.iter().map(|d| d.flops).sum();
        let seconds = proj.total_cycles / (cfg.clock_ghz * 1e9);
        rows.push(vec![
            cfg.name.to_string(),
            format!("{:.2}", e.total_j()),
            format!("{:.0}%", 100.0 * e.data_movement_fraction()),
            format!("{:.1}", e.total_j() / seconds),
            format!("{:.1}", gflops_per_watt(cfg, flops, &e, proj.total_cycles)),
            format!("{:.1}", seconds * 1e3),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "config",
                "energy (J)",
                "data-movement",
                "avg power (W)",
                "GFLOPS/W",
                "time (ms)"
            ],
            &rows
        )
    );

    // Edison reference: energy = machine power × runtime (the paper's
    // Table VI power row), normalized to the same transform size for a
    // fair per-FLOP comparison.
    let edison = Cluster::edison();
    let efft = model(&edison, &Fft3dJob::edison_reference());
    let e_joules = edison.peak_power_kw * 1000.0 * efft.total_s;
    let e_gfw = efft.gflops / (edison.peak_power_kw * 1000.0);
    println!(
        "\nEdison (1024^3, whole-machine power): {:.0} J per transform, {:.3} GFLOPS/W",
        e_joules, e_gfw
    );
    let xmt = XmtConfig::xmt_128k_x4();
    let demands = stage_demands(&[512, 512, 512], &xmt);
    let ex = phase_energy(&xmt, &demands);
    let flops: f64 = demands.iter().map(|d| d.flops).sum();
    let proj = xmt_fft::project(&xmt, &[512, 512, 512]);
    let x_gfw = gflops_per_watt(&xmt, flops, &ex, proj.total_cycles);
    println!(
        "XMT 128k x4: {x_gfw:.1} GFLOPS/W — {:.0}x the cluster's FFT energy efficiency.",
        x_gfw / e_gfw
    );
}
