//! Run the paper's radix-8 DIF FFT *through the XMT cycle simulator*:
//! generate the stage kernels, execute them instruction-by-instruction
//! on a scaled-down machine, verify the numerics against the host
//! library, and print per-phase cycles and the Roofline placement.
//!
//! ```sh
//! cargo run --release --example xmt_fft_sim
//! ```

use parafft::Complex32;
use roofline::Platform;
use xmt_fft::plan::XmtFftPlan;
use xmt_fft::run::{host_reference, rel_error, run_on_machine};
use xmt_sim::XmtConfig;

fn main() {
    // A 64×64 2D FFT on the 4k configuration scaled to 8 clusters.
    let dims = [64usize, 64];
    let cfg = XmtConfig::xmt_4k().scaled_to(8);
    let copies = xmt_fft::default_copies(dims[1], cfg.memory_modules);
    let plan = XmtFftPlan::build(&dims, copies);
    println!(
        "machine: {} clusters x {} TCUs, {} memory modules, {} DRAM channels",
        cfg.clusters,
        cfg.tcus_per_cluster,
        cfg.memory_modules,
        cfg.dram_channels()
    );
    println!(
        "plan: {:?} FFT, {} stages, {} twiddle replicas, {} instructions\n",
        dims,
        plan.num_stages(),
        copies,
        plan.program.len()
    );

    let total: usize = dims.iter().product();
    let input: Vec<Complex32> = (0..total)
        .map(|i| Complex32::new((i as f32 * 0.05).sin(), (i as f32 * 0.03).cos()))
        .collect();
    let run = run_on_machine(&plan, &cfg, &input).expect("simulation");
    let err = rel_error(&host_reference(&plan, &input), &run.output);
    println!("numerical check vs parafft: rel err {err:.2e} (single precision)\n");
    assert!(err < 1e-4);

    println!("per-stage simulator statistics:");
    println!(
        "{:<22} {:>8} {:>9} {:>9} {:>8} {:>9} {:>8}",
        "stage", "threads", "cycles", "instrs", "flops", "dram B", "GFLOPS"
    );
    for (meta, s) in plan.stages.iter().zip(&run.report.spawns) {
        let label = format!(
            "dim{} stage{}{}",
            meta.dim,
            meta.idx,
            if meta.is_rotation { " (rot)" } else { "" }
        );
        println!(
            "{:<22} {:>8} {:>9} {:>9} {:>8} {:>9} {:>8.1}",
            label,
            s.threads,
            s.cycles,
            s.instructions,
            s.flops,
            s.dram_bytes,
            s.gflops()
        );
    }

    let st = &run.report.stats;
    println!(
        "\ntotals: {} cycles, {} instructions, {} flops, {} reads, {} writes",
        st.cycles, st.instructions, st.flops, st.mem_reads, st.mem_writes
    );
    println!(
        "stalls: scoreboard {}, fpu {}, mdu {}, lsu {}",
        st.stall_scoreboard, st.stall_fpu, st.stall_mdu, st.stall_lsu
    );

    let u = &run.report.utilization;
    println!(
        "\nutilization: cluster imbalance {:.2}, module imbalance {:.2}, FPU {:.0}%, \
         mean hit rate {:.0}%",
        u.cluster_imbalance(),
        u.module_imbalance(),
        100.0 * u.fpu_utilization,
        100.0 * u.module_hit_rate.iter().sum::<f64>() / u.module_hit_rate.len() as f64
    );

    // Roofline placement of the whole run on the scaled machine.
    let plat = Platform::new("scaled 4k", cfg.peak_gflops(), cfg.peak_dram_gbs());
    let dram_bytes: u64 = run.report.spawns.iter().map(|s| s.dram_bytes).sum();
    let oi = st.flops as f64 / dram_bytes.max(1) as f64;
    let gf = st.flops as f64 * XmtConfig::CLOCK_GHZ / st.cycles as f64;
    println!(
        "\nroofline: intensity {:.2} FLOPs/byte, achieved {:.1} GFLOPS, attainable {:.1} ({:.0}% of roof)",
        oi,
        gf,
        plat.attainable(oi),
        100.0 * gf / plat.attainable(oi)
    );
}
