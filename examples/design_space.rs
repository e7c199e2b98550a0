//! Design-space exploration with the calibrated performance model:
//! sweep cluster count, DRAM channels and FPUs per cluster, and find
//! where the 3D FFT flips from bandwidth-bound to interconnect- or
//! compute-bound — the engineering question behind the paper's five
//! configurations.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use xmt_fft::project;
use xmt_sim::{Bottleneck, XmtConfig};

fn main() {
    let dims = [512usize, 512, 512];

    println!("Sweep 1: DRAM channels on the 64k machine (MMs per controller)");
    println!(
        "{:<10} {:>9} {:>12} {:>14}",
        "MM/ctrl", "channels", "GFLOPS", "bound(non-rot)"
    );
    for mm_per_ctrl in [32usize, 16, 8, 4, 2, 1] {
        let mut cfg = XmtConfig::xmt_64k();
        cfg.mm_per_dram_ctrl = mm_per_ctrl;
        let p = project(&cfg, &dims);
        let bound = p
            .phases
            .iter()
            .find(|t| !t.name.contains("rotation"))
            .map(|t| format!("{:?}", t.bound))
            .unwrap();
        println!(
            "{:<10} {:>9} {:>12.0} {:>14}",
            mm_per_ctrl,
            cfg.dram_channels(),
            p.gflops_convention,
            bound
        );
    }

    println!("\nSweep 2: FPUs per cluster on the 128k x2 memory system");
    println!("{:<6} {:>12} {:>10}", "FPUs", "GFLOPS", "gain");
    let mut prev = None::<f64>;
    for fpus in [1usize, 2, 4, 8] {
        let mut cfg = XmtConfig::xmt_128k_x2();
        cfg.fpus_per_cluster = fpus;
        let p = project(&cfg, &dims);
        let gain = prev.map(|g| format!("{:+.0}%", 100.0 * (p.gflops_convention / g - 1.0)));
        println!(
            "{:<6} {:>12.0} {:>10}",
            fpus,
            p.gflops_convention,
            gain.unwrap_or_else(|| "-".into())
        );
        prev = Some(p.gflops_convention);
    }
    println!("(diminishing returns beyond 2-4 FPUs: Section V-E's observation)");

    println!("\nSweep 3: machine size at fixed per-cluster resources");
    println!(
        "{:<10} {:>8} {:>12} {:>16}",
        "clusters", "TCUs", "GFLOPS", "binding resource"
    );
    for shift in 0..6 {
        let clusters = 128usize << shift;
        let mut cfg = XmtConfig::xmt_4k();
        cfg.clusters = clusters;
        cfg.memory_modules = clusters;
        // Keep the pure MoT while it fits, then go hybrid like the paper.
        if clusters > 256 {
            cfg.mot_levels = 8;
            cfg.butterfly_levels = (2 * clusters.trailing_zeros())
                .saturating_sub(8)
                .min(clusters.trailing_zeros());
        } else {
            cfg.mot_levels = 2 * clusters.trailing_zeros();
            cfg.butterfly_levels = 0;
        }
        let p = project(&cfg, &dims);
        let worst = p
            .phases
            .iter()
            .max_by(|a, b| a.cycles.total_cmp(&b.cycles))
            .unwrap();
        println!(
            "{:<10} {:>8} {:>12.0} {:>16}",
            clusters,
            cfg.tcus(),
            p.gflops_convention,
            format!("{:?}", worst.bound)
        );
    }
    println!("\n(Every number above is the calibrated bottleneck model; see");
    println!(" `cargo run -p xmt-bench --bin table4` for its validation against");
    println!(" the cycle simulator.)");
    let _ = Bottleneck::Dram; // referenced for readers of this example
}
