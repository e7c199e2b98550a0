//! Regenerate the golden cycle-count constants asserted by
//! `tests/tests/golden_cycles.rs`.
//!
//! Runs the golden programs (radix-8 FFT kernel and the spawn/join +
//! prefix-sum microbenchmarks) on the cycle simulator and prints the
//! resulting `RunReport` statistics as Rust constants. If a future
//! change *intentionally* alters simulator timing, rerun this tool
//! and paste its output into the test; any unintentional drift shows
//! up as a golden-test failure instead.
//!
//! ```text
//! cargo run --release -p xmt-bench --bin paper -- golden_capture [--scaling]
//! ```

use xmt_fft::golden;

pub fn run(args: &crate::Args) {
    let scaling = args.has("--scaling");
    let mut out = String::new();
    let cases = if scaling {
        golden::scaling_cases()
    } else {
        golden::cases()
    };
    for case in cases {
        let t0 = std::time::Instant::now();
        let summary = case.run();
        let host = t0.elapsed();
        out.push_str(&golden::render_const(case.name, &summary));
        eprintln!(
            "{}: {} cycles simulated in {:?}",
            case.name, summary.stats.cycles, host
        );
    }
    println!("{out}");
}
