//! Whole-transform planning: chain stage kernels into a complete XMT
//! program for a 1D, 2D or 3D single-precision complex FFT.
//!
//! The generated program is exactly the paper's structure: per
//! dimension, `log₈ N` breadth-first radix-8 stages (with a 4 or 2
//! stage when `N` is not a power of 8), each one `spawn`; the last
//! stage of each dimension fuses the axis rotation. The transform
//! ping-pongs between two arrays (self-sorting Stockham), so no
//! separate digit-reversal pass is needed.

use crate::kernels::{Rotation, StageKernel, TwiddleLayout};
use parafft::twiddle::{replication_for, ReplicatedTwiddles, TwiddleTable};
use parafft::{Complex32, FftDirection};
use xmt_isa::reg::ir;
use xmt_isa::{Program, ProgramBuilder};

/// Metadata for one generated stage (one spawn).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageMeta {
    /// Dimension pass (0-based).
    pub dim: usize,
    /// Stage index within its pass.
    pub idx: usize,
    /// Full kernel parameters.
    pub kernel: StageKernel,
    /// True if this stage performs (or is) a rotation.
    pub is_rotation: bool,
    /// True for a pure rotation-copy pass (the unfused ablation); the
    /// kernel field then only carries geometry, not butterfly params.
    pub is_copy: bool,
}

/// A complete planned transform.
#[derive(Debug, Clone)]
pub struct XmtFftPlan {
    /// The executable program (serial driver + one section per stage).
    pub program: Program,
    /// Per-stage metadata, in execution order (matches the machine's
    /// per-spawn statistics order).
    pub stages: Vec<StageMeta>,
    /// The transform shape (1–3 dimensions).
    pub dims: Vec<usize>,
    /// Total elements.
    pub total: usize,
    /// Word address of buffer A (input is loaded here).
    pub a_base: u32,
    /// Word address of buffer B.
    pub b_base: u32,
    /// Where the final result lives (A or B depending on stage parity).
    pub result_base: u32,
    /// Replicated twiddle tables: (row length, layout, flat f32 data).
    pub twiddles: Vec<(usize, TwiddleLayout, Vec<f32>)>,
    /// Words of shared memory the program needs.
    pub mem_words: usize,
}

/// Factor a power-of-two row length into kernel radices, preferring 8
/// (the paper's choice), with a 4 or 2 tail.
pub fn radix_schedule(n: usize) -> Vec<u32> {
    assert!(
        n.is_power_of_two() && n >= 2,
        "row length must be a power of two >= 2"
    );
    let mut bits = n.trailing_zeros();
    let mut out = Vec::new();
    while bits >= 3 {
        out.push(8);
        bits -= 3;
    }
    match bits {
        2 => out.push(4),
        1 => out.push(2),
        _ => {}
    }
    out
}

/// Replica count for a row length: the paper's policy (one cache line
/// per cache module), rounded up to a power of two for shift-only
/// indexing in the kernels.
pub fn default_copies(n: usize, cache_modules: usize) -> u32 {
    // 8-word lines hold 4 single-precision complex factors.
    let c = replication_for(n, cache_modules, 4);
    (c.next_power_of_two() as u32).max(1)
}

impl XmtFftPlan {
    /// Plan a 1D transform of `n` points (power of two ≥ 2).
    pub fn new_1d(n: usize, copies: u32) -> Self {
        Self::build(&[n], copies)
    }

    /// Plan a 2D transform over a `rows × cols` row-major array.
    pub fn new_2d(rows: usize, cols: usize, copies: u32) -> Self {
        Self::build(&[rows, cols], copies)
    }

    /// Plan a 3D transform over a `(d0, d1, d2)` row-major array.
    pub fn new_3d(shape: (usize, usize, usize), copies: u32) -> Self {
        Self::build(&[shape.0, shape.1, shape.2], copies)
    }

    /// Core builder with the paper's choices: greedy radix-8 schedule
    /// and rotation fused into each pass's last stage. `copies` is the
    /// twiddle replica count (power of two); use [`default_copies`]
    /// for the paper's policy.
    pub fn build(dims: &[usize], copies: u32) -> Self {
        Self::build_with(dims, copies, None, true)
    }

    /// Plan an inverse (unnormalized) transform of the same shapes.
    pub fn build_inverse(dims: &[usize], copies: u32) -> Self {
        Self::build_full(dims, copies, None, true, FftDirection::Inverse)
    }

    /// Builder exposing the Section IV-A design choices for ablation:
    /// `forced_radix` pins every stage to one radix (each dimension
    /// must be a power of it); `fuse_rotation = false` emits a separate
    /// rotation-copy pass after each dimension instead of fusing it
    /// into the last stage.
    pub fn build_with(
        dims: &[usize],
        copies: u32,
        forced_radix: Option<u32>,
        fuse_rotation: bool,
    ) -> Self {
        Self::build_full(
            dims,
            copies,
            forced_radix,
            fuse_rotation,
            FftDirection::Forward,
        )
    }

    /// Fully general builder: ablation knobs plus transform direction.
    pub fn build_full(
        dims: &[usize],
        copies: u32,
        forced_radix: Option<u32>,
        fuse_rotation: bool,
        direction: FftDirection,
    ) -> Self {
        assert!((1..=3).contains(&dims.len()), "1–3 dimensions supported");
        assert!(copies.is_power_of_two());
        for &d in dims {
            assert!(
                d.is_power_of_two() && d >= 2,
                "each dimension must be a power of two >= 2"
            );
        }
        let total: usize = dims.iter().product();
        let a_base = 0u32;
        let b_base = (2 * total) as u32;

        // One twiddle table per distinct row length.
        let mut row_lengths: Vec<usize> = match dims.len() {
            1 => vec![dims[0]],
            2 => vec![dims[1], dims[0]],
            _ => vec![dims[2], dims[0], dims[1]],
        };
        let mut distinct = row_lengths.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut tw_cursor = (4 * total) as u32;
        let mut twiddles: Vec<(usize, TwiddleLayout, Vec<f32>)> = Vec::new();
        for &n in &distinct {
            let layout = TwiddleLayout {
                base: tw_cursor,
                copies,
                n: n as u32,
            };
            let table = TwiddleTable::<f32>::new(n, direction);
            let rep = ReplicatedTwiddles::new(&table, copies as usize);
            let flat: Vec<f32> = rep.flat().iter().flat_map(|c| [c.re, c.im]).collect();
            tw_cursor += layout.words();
            twiddles.push((n, layout, flat));
        }
        let tw_for = |n: usize| -> TwiddleLayout {
            twiddles
                .iter()
                .find(|(tn, _, _)| *tn == n)
                .expect("table exists")
                .1
        };

        // Per-pass geometry: (rows, row length, rotation descriptor).
        // Rotation uses the current logical shape, so the transform
        // returns to its original layout after all passes.
        let passes: Vec<(usize, usize, Option<Rotation>)> = match dims.len() {
            1 => vec![(1, dims[0], None)],
            2 => {
                let (r, c) = (dims[0], dims[1]);
                vec![
                    (
                        r,
                        c,
                        Some(Rotation {
                            d0: r as u32,
                            d1: 1,
                            d2: c as u32,
                        }),
                    ),
                    (
                        c,
                        r,
                        Some(Rotation {
                            d0: c as u32,
                            d1: 1,
                            d2: r as u32,
                        }),
                    ),
                ]
            }
            _ => {
                let (d0, d1, d2) = (dims[0], dims[1], dims[2]);
                vec![
                    (
                        d0 * d1,
                        d2,
                        Some(Rotation {
                            d0: d0 as u32,
                            d1: d1 as u32,
                            d2: d2 as u32,
                        }),
                    ),
                    (
                        d1 * d2,
                        d0,
                        Some(Rotation {
                            d0: d1 as u32,
                            d1: d2 as u32,
                            d2: d0 as u32,
                        }),
                    ),
                    (
                        d2 * d0,
                        d1,
                        Some(Rotation {
                            d0: d2 as u32,
                            d1: d0 as u32,
                            d2: d1 as u32,
                        }),
                    ),
                ]
            }
        };
        // The row_lengths vec above must match the pass order.
        debug_assert_eq!(row_lengths, passes.iter().map(|p| p.1).collect::<Vec<_>>());
        row_lengths.clear();

        // Build the stage list, ping-ponging between A and B.
        let mut stages: Vec<StageMeta> = Vec::new();
        let mut in_a = true;
        for (dim, &(rows, n, rot)) in passes.iter().enumerate() {
            let sched = match forced_radix {
                None => radix_schedule(n),
                Some(r) => {
                    let k = parafft::permute::exact_log(n, r as usize)
                        .expect("dimension must be a power of the forced radix");
                    vec![r; k as usize]
                }
            };
            let last_idx = sched.len() - 1;
            let mut s = 1u32;
            for (idx, &r) in sched.iter().enumerate() {
                let (src, dst) = if in_a {
                    (a_base, b_base)
                } else {
                    (b_base, a_base)
                };
                let rotation = if idx == last_idx && fuse_rotation {
                    rot
                } else {
                    None
                };
                let kernel = StageKernel {
                    n: n as u32,
                    rows: rows as u32,
                    radix: r,
                    s,
                    src,
                    dst,
                    tw: tw_for(n),
                    rotation,
                    direction,
                };
                stages.push(StageMeta {
                    dim,
                    idx,
                    kernel,
                    is_rotation: rotation.is_some(),
                    is_copy: false,
                });
                s *= r;
                in_a = !in_a;
            }
            // Unfused rotation: a separate copy pass (only meaningful
            // for multidimensional transforms).
            if !fuse_rotation {
                if let Some(rotation) = rot {
                    let (src, dst) = if in_a {
                        (a_base, b_base)
                    } else {
                        (b_base, a_base)
                    };
                    let kernel = StageKernel {
                        n: n as u32,
                        rows: rows as u32,
                        radix: 8,
                        s: (n / 8) as u32,
                        src,
                        dst,
                        tw: tw_for(n),
                        rotation: Some(rotation),
                        direction,
                    };
                    stages.push(StageMeta {
                        dim,
                        idx: sched.len(),
                        kernel,
                        is_rotation: true,
                        is_copy: true,
                    });
                    in_a = !in_a;
                }
            }
        }
        let result_base = if in_a { a_base } else { b_base };

        // Emit: serial driver first, then the sections.
        let mut b = ProgramBuilder::new();
        let labels: Vec<_> = stages.iter().map(|_| b.label()).collect();
        for (st, &lab) in stages.iter().zip(&labels) {
            b.li(ir(1), st.kernel.threads());
            b.spawn(ir(1), lab);
        }
        b.halt();
        for (st, &lab) in stages.iter().zip(&labels) {
            b.bind(lab);
            if st.is_copy {
                let k = &st.kernel;
                crate::kernels::emit_rotation_copy_body(
                    &mut b,
                    k.rows,
                    k.n,
                    k.src,
                    k.dst,
                    k.rotation.expect("copy pass carries a rotation"),
                );
            } else {
                crate::kernels::emit_stage_body(&mut b, &st.kernel);
            }
        }
        let program = b.build().expect("plan program must build");

        let mem_words = tw_cursor as usize + 64;
        Self {
            program,
            stages,
            dims: dims.to_vec(),
            total,
            a_base,
            b_base,
            result_base,
            twiddles,
            mem_words,
        }
    }

    /// Flatten complex input to the f32 image loaded at `a_base`.
    pub fn input_image(&self, input: &[Complex32]) -> Vec<f32> {
        assert_eq!(
            input.len(),
            self.total,
            "input length must match the plan shape"
        );
        input.iter().flat_map(|c| [c.re, c.im]).collect()
    }

    /// Total virtual threads across all stages.
    pub fn total_threads(&self) -> u64 {
        self.stages.iter().map(|s| s.kernel.threads() as u64).sum()
    }

    /// Number of stages (spawns).
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_schedule_prefers_8() {
        assert_eq!(radix_schedule(512), vec![8, 8, 8]);
        assert_eq!(radix_schedule(1024), vec![8, 8, 8, 2]);
        assert_eq!(radix_schedule(256), vec![8, 8, 4]);
        assert_eq!(radix_schedule(8), vec![8]);
        assert_eq!(radix_schedule(4), vec![4]);
        assert_eq!(radix_schedule(2), vec![2]);
    }

    #[test]
    fn paper_shape_has_nine_stages() {
        // 512³ = three passes of three radix-8 stages.
        let plan = XmtFftPlan::new_3d((64, 64, 64), 2);
        assert_eq!(plan.num_stages(), 6); // 64 = 8·8 → 2 stages × 3 dims
        let plan512 = radix_schedule(512).len() * 3;
        assert_eq!(plan512, 9);
    }

    #[test]
    fn stage_geometry_1d() {
        let plan = XmtFftPlan::new_1d(512, 4);
        assert_eq!(plan.num_stages(), 3);
        let s: Vec<u32> = plan.stages.iter().map(|m| m.kernel.s).collect();
        assert_eq!(s, vec![1, 8, 64]);
        // Ping-pong: A→B→A→B; result in B after 3 stages.
        assert_eq!(plan.stages[0].kernel.src, plan.a_base);
        assert_eq!(plan.stages[1].kernel.src, plan.b_base);
        assert_eq!(plan.result_base, plan.b_base);
        assert!(
            !plan.stages.iter().any(|m| m.is_rotation),
            "1D has no rotation"
        );
    }

    #[test]
    fn rotation_on_last_stage_of_each_pass() {
        let plan = XmtFftPlan::new_3d((8, 8, 8), 2);
        assert_eq!(plan.num_stages(), 3);
        assert!(
            plan.stages.iter().all(|m| m.is_rotation),
            "8 = one radix-8 stage per dim"
        );
        let plan2 = XmtFftPlan::new_3d((64, 64, 64), 2);
        let rots: Vec<bool> = plan2.stages.iter().map(|m| m.is_rotation).collect();
        assert_eq!(rots, vec![false, true, false, true, false, true]);
    }

    #[test]
    fn thread_counts_match_paper_formula() {
        // Paper: "for an input size of 256³, 2 million threads are
        // available" (per stage: N/8).
        let n: u64 = 256 * 256 * 256;
        let plan = XmtFftPlan::new_3d((256, 256, 256), 1);
        let per_stage = plan.stages[0].kernel.threads() as u64;
        assert_eq!(per_stage, n / 8);
        assert!(per_stage > 2_000_000);
    }

    #[test]
    fn twiddle_tables_shared_across_dimensions() {
        let plan = XmtFftPlan::new_3d((16, 16, 16), 2);
        assert_eq!(plan.twiddles.len(), 1, "cube shares one table");
        let plan2 = XmtFftPlan::new_2d(16, 64, 2);
        assert_eq!(plan2.twiddles.len(), 2);
    }

    #[test]
    fn default_copies_power_of_two() {
        for n in [64usize, 512, 4096] {
            for modules in [16usize, 128, 2048] {
                let c = default_copies(n, modules);
                assert!(c.is_power_of_two());
                assert!(c >= 1);
            }
        }
        // Small table, many modules: heavy replication.
        assert!(default_copies(64, 2048) >= 64);
        // Huge table: single copy suffices.
        assert_eq!(default_copies(1 << 20, 128), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_dims() {
        XmtFftPlan::new_1d(24, 1);
    }

    #[test]
    fn forced_radix_schedules() {
        let p2 = XmtFftPlan::build_with(&[64], 2, Some(2), true);
        assert_eq!(p2.num_stages(), 6);
        assert!(p2.stages.iter().all(|m| m.kernel.radix == 2));
        let p4 = XmtFftPlan::build_with(&[64], 2, Some(4), true);
        assert_eq!(p4.num_stages(), 3);
        let p8 = XmtFftPlan::build_with(&[64], 2, Some(8), true);
        assert_eq!(p8.num_stages(), 2);
    }

    /// The simulator sizes each TCU's registers to the registers a
    /// program names (`xmt_sim::RegLayout`). Every plan on the default
    /// radix schedule names `r0`–`r12` and `f0`–`f18` — the radix-8
    /// codelet holds its eight complex points and scratch in 19 of
    /// Section IV-A's 32 FP registers — so it gets 32 rows: the thread
    /// id, `r1`–`r12` and `f0`–`f18`. The radix ablation's forced
    /// radix-2 and radix-4 plans need fewer.
    #[test]
    fn every_fft_plan_gets_32_register_rows() {
        let rows = |plan: XmtFftPlan| {
            let decoded = xmt_isa::DecodedProgram::new(&plan.program);
            xmt_sim::RegLayout::of(&decoded).rows()
        };
        let plans = [
            XmtFftPlan::new_1d(64, 2),
            XmtFftPlan::new_1d(512, 4),
            XmtFftPlan::new_1d(1024, 2),
            XmtFftPlan::new_1d(65536, 1),
            XmtFftPlan::new_2d(16, 64, 2),
            XmtFftPlan::new_3d((16, 16, 16), 2),
            XmtFftPlan::build_inverse(&[512], 4),
            XmtFftPlan::build_with(&[16, 64], 2, None, false),
        ];
        for plan in plans {
            let dims = plan.dims.clone();
            assert_eq!(rows(plan), 32, "{dims:?}");
        }
        assert_eq!(rows(XmtFftPlan::build_with(&[64], 2, Some(2), true)), 19);
        assert_eq!(rows(XmtFftPlan::build_with(&[64], 2, Some(4), true)), 23);
    }

    #[test]
    #[should_panic(expected = "power of the forced radix")]
    fn forced_radix_must_divide() {
        XmtFftPlan::build_with(&[32], 2, Some(8), true);
    }

    #[test]
    fn unfused_rotation_adds_copy_passes() {
        let fused = XmtFftPlan::build_with(&[16, 64], 2, None, true);
        let unfused = XmtFftPlan::build_with(&[16, 64], 2, None, false);
        assert_eq!(unfused.num_stages(), fused.num_stages() + 2);
        let copies: Vec<bool> = unfused.stages.iter().map(|m| m.is_copy).collect();
        assert_eq!(copies.iter().filter(|&&c| c).count(), 2);
        // Copy passes come after each dimension's FFT stages.
        assert!(unfused
            .stages
            .iter()
            .filter(|m| m.is_copy)
            .all(|m| m.is_rotation));
        // FFT stages of the unfused plan carry no rotation.
        assert!(unfused
            .stages
            .iter()
            .filter(|m| !m.is_copy)
            .all(|m| m.kernel.rotation.is_none()));
    }
}
