//! Regenerates the paper's §I-A prior-work comparison: published FFT
//! results on GPUs, MPI clusters and prior XMT work, with this
//! workspace's model outputs beside each published anchor — the
//! context in which the paper's Table IV numbers should be read.

use hpc_cluster::{
    device_fft_gflops, hybrid_fft_gflops, model, Cluster, Fft3dJob, GpuFftJob, GpuSpec,
};
use xmt_bench::render_table;
use xmt_fft::project;
use xmt_sim::XmtConfig;

pub fn run(_: &crate::Args) {
    println!("Prior work on the FFT (paper Section I-A) — published vs this workspace's models\n");

    let gtx = GpuSpec::gtx_280();
    let c2075 = GpuSpec::tesla_c2075();
    let n22 = 1usize << 22;
    let fused_1d = GpuFftJob {
        passes: (n22 as f64).log2() / 9.0,
        ..GpuFftJob::d1(n22)
    };
    let edison = Cluster::edison();
    let e1024 = model(&edison, &Fft3dJob::edison_reference());

    let rows: Vec<Vec<String>> = vec![
        vec![
            "GPGPU: GTX 280, 1D batched [14]".into(),
            "~300 GFLOPS".into(),
            format!("{:.0} GFLOPS", device_fft_gflops(&gtx, &fused_1d)),
        ],
        vec![
            "GPGPU: GTX 280, 2D 1024x1024 [14]".into(),
            "~120 GFLOPS".into(),
            format!(
                "{:.0} GFLOPS",
                device_fft_gflops(&gtx, &GpuFftJob::d2(1024))
            ),
        ],
        vec![
            "Hybrid GPU-CPU: C2075, 2D [15]".into(),
            "43 GFLOPS".into(),
            format!(
                "{:.0} GFLOPS",
                hybrid_fft_gflops(&c2075, &GpuFftJob::d2(8192))
            ),
        ],
        vec![
            "Hybrid GPU-CPU: C2075, 3D [15]".into(),
            "27 GFLOPS".into(),
            format!(
                "{:.0} GFLOPS",
                hybrid_fft_gflops(&c2075, &GpuFftJob::d3(512))
            ),
        ],
        vec![
            "MPI: Edison-class, 3D 1024^3, 32k cores [16]".into(),
            "13,603 GFLOPS".into(),
            format!("{:.0} GFLOPS", e1024.gflops),
        ],
        vec![
            "This paper: XMT 128k x4, 3D 512^3".into(),
            "18,972 GFLOPS".into(),
            format!(
                "{:.0} GFLOPS",
                project(&XmtConfig::xmt_128k_x4(), &[512, 512, 512]).gflops_convention
            ),
        ],
        vec![
            "This paper: XMT 4k (1 chip layer), 3D 512^3".into(),
            "239 GFLOPS".into(),
            format!(
                "{:.0} GFLOPS",
                project(&XmtConfig::xmt_4k(), &[512, 512, 512]).gflops_convention
            ),
        ],
    ];
    println!("{}", render_table(&["system", "published", "model"], &rows));
    println!(
        "\nReading: single GPUs are device-bandwidth-bound in the low hundreds of\n\
         GFLOPS (and PCIe-bound in the tens when data lives on the host); clusters\n\
         reach terascale only with tens of thousands of cores at <1% utilization.\n\
         The paper's smallest XMT configuration matches a GPU with a third of the\n\
         silicon; the largest matches the cluster on one chip."
    );
}
