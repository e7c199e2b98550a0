//! Scaling studies (extension, contextualizing Section I-A):
//!
//! * problem-size scaling of the XMT configurations (does the 512³
//!   operating point generalize?),
//! * weak scaling of the cluster model, mirroring the published MPI
//!   series the paper quotes (159 GFLOPS at 512³ up to ~17.6 TFLOPS at
//!   4096×4096×2048 on Cray systems \[16\]),
//! * strong scaling of the Edison FFT with node count.

use hpc_cluster::{model, Cluster, Fft3dJob};
use xmt_bench::{render_table, ColumnTable};
use xmt_fft::project;
use xmt_sim::XmtConfig;

pub fn run(_: &crate::Args) {
    println!("XMT problem-size scaling (GFLOPS, 5N.log2N convention)\n");
    let sizes: [usize; 4] = [128, 256, 512, 1024];
    let mut t = ColumnTable::new("config", sizes.iter().map(|s| format!("{s}^3")));
    for cfg in XmtConfig::paper_configs() {
        t.row(
            cfg.name,
            sizes
                .iter()
                .map(|&s| format!("{:.0}", project(&cfg, &[s, s, s]).gflops_convention)),
        );
    }
    println!("{}", t.render());
    println!("(small cubes fit in cache and leave the DRAM roofline; large ones stream)\n");

    println!("Cluster weak scaling (Edison model, 16 B complex, 24 cores/node)\n");
    let series: [(usize, usize, usize, usize); 4] = [
        (512, 512, 512, 128),
        (1024, 1024, 1024, 1365),
        (2048, 2048, 2048, 2730),
        (4096, 4096, 2048, 5192),
    ];
    let edison = Cluster::edison();
    let mut rows = Vec::new();
    for (d0, d1, d2, nodes) in series {
        let elems = (d0 as f64) * (d1 as f64) * (d2 as f64);
        let flops = 5.0 * elems * elems.log2();
        let job = Fft3dJob {
            side: 0, // unused below; construct manually
            elem_bytes: 16,
            nodes_used: nodes,
        };
        // The model API takes a cube side; for non-cubes feed the total
        // through an equivalent cube side.
        let side_eq = elems.powf(1.0 / 3.0).round() as usize;
        let t = model(
            &edison,
            &Fft3dJob {
                side: side_eq,
                ..job
            },
        );
        rows.push(vec![
            format!("{d0}x{d1}x{d2}"),
            nodes.to_string(),
            format!("{:.0}", t.gflops),
            format!("{:.0}%", 100.0 * t.comm_fraction),
            format!("{:.2}%", 100.0 * t.gflops / 1000.0 / edison.peak_tflops()),
        ]);
        let _ = flops;
    }
    println!(
        "{}",
        render_table(
            &["shape", "nodes", "GFLOPS", "comm share", "% machine peak"],
            &rows
        )
    );
    println!(
        "(published series [16]: 159 GFLOPS at 512^3 up to 17,611 GFLOPS at 4096x4096x2048)\n"
    );

    println!("Edison strong scaling at 1024^3\n");
    let mut rows = Vec::new();
    for nodes in [170usize, 341, 683, 1365, 2730, 5192] {
        let t = model(
            &edison,
            &Fft3dJob {
                side: 1024,
                elem_bytes: 16,
                nodes_used: nodes,
            },
        );
        rows.push(vec![
            nodes.to_string(),
            (nodes * 24).to_string(),
            format!("{:.0}", t.gflops),
            format!("{:.1}", t.total_s * 1e3),
        ]);
    }
    println!(
        "{}",
        render_table(&["nodes", "cores", "GFLOPS", "time (ms)"], &rows)
    );
    println!(
        "Communication dominates throughout — the premise of the paper's Table VI\n\
         utilization gap (cluster <1% of peak vs XMT tens of percent)."
    );
}
