//! # xmt-bench — experiment harness shared by the table/figure
//! regenerator binaries and the Criterion benches.
//!
//! One binary per table/figure of the paper:
//! `table1` … `table6`, `fig3` (see DESIGN.md §5 for the index), plus
//! ablation binaries for the design choices of Section IV-A.

pub mod baseline;
pub mod calibrate;
pub mod fmt;
pub mod runner;

pub use calibrate::{calibrate, Calibration};
pub use fmt::render_table;
pub use runner::{run_plan_validated, run_validated, sample_wave, ColumnTable};
