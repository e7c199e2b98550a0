//! # xmt-bench — experiment harness shared by the `paper` binary and the
//! two gate binaries.
//!
//! `paper <command>` regenerates every table and figure of the paper
//! (`table1` … `table6`, `fig3`; DESIGN.md §5 has the index) and the
//! ablations of Section IV-A's design choices; `bench_sim` and
//! `xmt_lint` are the exact gates `ci.sh` runs. The gates' checks live
//! here, where tier-1's suites call them too: [`matrix`] judges a run's
//! determinism, [`lint`] proves the kernels clean and pins the paper's
//! roofline verdict.

use std::path::PathBuf;

pub mod baseline;
pub mod fmt;
pub mod lint;
pub mod matrix;
pub mod runner;

pub use fmt::render_table;
pub use runner::{run_plan_validated, sample_wave, ColumnTable};

/// Where `paper observe` puts the trace it writes unasked
/// (`trace_<workload>.json`): cargo's target directory, so a run from
/// the repository root leaves the work tree clean.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}
