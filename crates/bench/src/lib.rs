//! # xmt-bench — experiment harness shared by the `paper` binary, the
//! two gate binaries and the Criterion benches.
//!
//! `paper <command>` regenerates every table and figure of the paper
//! (`table1` … `table6`, `fig3`; DESIGN.md §5 has the index) and the
//! ablations of Section IV-A's design choices; `bench_sim` and
//! `xmt_lint` are the exact gates `ci.sh` runs.

use std::path::PathBuf;

pub mod baseline;
pub mod fmt;
pub mod matrix;
pub mod runner;

pub use fmt::render_table;
pub use runner::{run_plan_validated, sample_wave, ColumnTable};

/// Where the binaries put what they write unasked (`xmt-lint.json`,
/// `trace_<workload>.json`): cargo's target directory, so a run from
/// the repository root leaves the work tree clean.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}
