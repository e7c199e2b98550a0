//! # xmt-fft — the paper's contribution: radix-8 DIF FFT on XMT
//!
//! This crate is the reproduction of the paper's core artifact: the
//! fine-grained, breadth-first, radix-8 decimation-in-frequency FFT
//! written for the XMT many-core, together with the experiment
//! apparatus that evaluates it.
//!
//! * [`codelet`] — register-allocated butterfly emitters (the
//!   radix-2/4/8 in-register DFTs; radix 8 is the largest that fits
//!   the 32 FP registers, Section IV-A).
//! * [`kernels`] — one Stockham DIF stage as one `spawn` section, with
//!   the replicated twiddle-table addressing and the fused rotation
//!   store for the last stage of each dimension.
//! * [`plan`] — whole-transform planning (1D/2D/3D), including the
//!   ablation knobs: forced radix and unfused rotation.
//! * [`run`] — execute a plan on the untimed interpreter or the cycle
//!   simulator, and validate against the `parafft` host reference.
//! * [`phases`] — the per-stage resource-demand model feeding the
//!   calibrated bottleneck projections (Tables IV/V/VI, Fig. 3).
//!
//! ## Example: simulate the paper's FFT on a scaled-down XMT
//!
//! ```
//! use xmt_fft::plan::XmtFftPlan;
//! use xmt_fft::run::{host_reference, rel_error, run_on_machine};
//! use xmt_sim::XmtConfig;
//! use parafft::Complex32;
//!
//! let plan = XmtFftPlan::new_2d(16, 64, 4);
//! let cfg = XmtConfig::xmt_4k().scaled_to(4);
//! let input: Vec<Complex32> =
//!     (0..16 * 64).map(|i| Complex32::new(i as f32, 0.0)).collect();
//! let run = run_on_machine(&plan, &cfg, &input).unwrap();
//! assert!(rel_error(&host_reference(&plan, &input), &run.output) < 1e-3);
//! assert_eq!(run.report.spawns.len(), plan.num_stages());
//! ```

#![warn(missing_docs)]
pub mod codelet;
pub mod golden;
pub mod kernels;
pub mod phases;
pub mod plan;
pub mod run;
pub mod traffic;

pub use kernels::{Rotation, StageKernel, TwiddleLayout};
pub use phases::{project, table4_projection, FftProjection, RooflinePoint};
pub use plan::{default_copies, radix_schedule, StageMeta, XmtFftPlan};
pub use run::{
    host_reference, plan_builder_cfg, read_result, rel_error, run_on_interp, run_on_machine,
    InterpRun, MachineRun,
};
