//! Regenerates Table V: XMT speedups relative to FFTW (serial and 32
//! threads on dual Xeon E5-2690).
//!
//! Two baselines are reported: the paper-pinned FFTW rates (derived
//! from Table IV/V arithmetic) and this host's measured `parafft`
//! rates — the first makes the table comparable to the paper, the
//! second makes it honest about the machine you are on.

use hpc_cluster::{measure_host, paper_pinned, speedups};
use xmt_bench::ColumnTable;
use xmt_fft::table4_projection;

const PAPER_VS_SERIAL: [f64; 5] = [31.0, 66.0, 482.0, 1652.0, 2494.0];
const PAPER_VS_32T: [f64; 5] = [2.8, 5.8, 43.0, 147.0, 222.0];

pub fn run(args: &crate::Args) {
    let quick = args.has("--quick");
    let proj = table4_projection();
    let pinned = paper_pinned();

    println!("Table V — speedups relative to FFTW\n");
    println!(
        "Baseline (paper-pinned): serial {:.2} GFLOPS, {} threads {:.1} GFLOPS\n",
        pinned.serial_gflops, pinned.parallel_threads, pinned.parallel_gflops
    );
    let mut t = ColumnTable::new("", proj.iter().map(|p| p.config_name));
    t.row(
        "vs serial (model)",
        proj.iter()
            .map(|p| format!("{:.0}X", speedups(p.gflops_convention, &pinned).vs_serial)),
    )
    .row(
        "vs serial (paper)",
        PAPER_VS_SERIAL.iter().map(|v| format!("{v:.0}X")),
    )
    .row(
        "vs 32 threads (model)",
        proj.iter()
            .map(|p| format!("{:.1}X", speedups(p.gflops_convention, &pinned).vs_parallel)),
    )
    .row(
        "vs 32 threads (paper)",
        PAPER_VS_32T.iter().map(|v| format!("{v:.1}X")),
    );

    if !quick {
        let host = measure_host(1 << 20, 3);
        println!(
            "Baseline (host-measured, parafft): serial {:.2} GFLOPS, {} threads {:.2} GFLOPS",
            host.serial_gflops, host.parallel_threads, host.parallel_gflops
        );
        println!("(absolute host rates differ from a 2016 Xeon; ratios are what transfer)\n");
        t.row(
            "vs host serial (measured)",
            proj.iter()
                .map(|p| format!("{:.0}X", speedups(p.gflops_convention, &host).vs_serial)),
        )
        .row(
            "vs host parallel (measured)",
            proj.iter()
                .map(|p| format!("{:.1}X", speedups(p.gflops_convention, &host).vs_parallel)),
        );
    }
    println!("{}", t.render());
    println!(
        "Note: the paper's silicon argument also holds here — the 4k configuration\n\
         uses 227 mm^2 at 22 nm, i.e. 58% of the dual-E5-2690 baseline's silicon\n\
         (2 x 197 mm^2 at 22-nm-equivalent scaling), while beating its 32 threads."
    );
}
