//! Canonical golden workloads for simulator regression testing.
//!
//! Every timing-visible refactor of `xmt-sim` must leave these runs
//! bit-identical: `BENCH_sim.json` records their exact statistics,
//! `bench_sim --check` and `tests/tests/determinism.rs` hold every
//! engine, tier and fault plan to them, and `crates/bench` reuses the
//! same workloads for throughput measurement, so the numbers being
//! benchmarked are the numbers being verified.
//!
//! The set covers the scheduling regimes the simulator distinguishes:
//! a radix-8 FFT kernel (deep FPU + memory pipelines, multi-spawn), a
//! spawn/join thread-storm (activation grants and barrier drain), a
//! prefix-sum ticket loop (serializing `ps` traffic), a
//! compute-saturated FPU chain (no idle cycles to skip), and a
//! dependent-load pointer chase (memory-latency-bound, almost every
//! cycle skippable).

use crate::plan::XmtFftPlan;
use parafft::Complex32;
use xmt_isa::reg::{fr, gr, ir};
use xmt_isa::{Program, ProgramBuilder};
use xmt_sim::{Machine, MachineBuilder, RunReport, SimConfig, XmtConfig};

/// Initial memory images: (word base, f32 words) pairs.
type MemImages = Vec<(usize, Vec<f32>)>;
/// Everything needed to build a machine: config, program, memory
/// size in words, and initial memory images.
type CaseSetup = (XmtConfig, Program, usize, MemImages);

/// A named, deterministic simulator workload.
pub struct GoldenCase {
    /// Stable identifier, used in test assertions and bench output.
    pub name: &'static str,
    build: fn() -> CaseSetup,
}

impl GoldenCase {
    /// The machine configuration this case runs on (for reporting,
    /// e.g. the TCU count axis of the scaling curve).
    pub fn config(&self) -> XmtConfig {
        let (cfg, _, _, _) = (self.build)();
        cfg
    }

    /// This case as a [`SimConfig`] request value: its architecture and
    /// memory size with every other knob at the default. Shape it
    /// (engine, tier, faults, probe) and hand it to
    /// [`GoldenCase::builder`] — or submit it to the job server.
    pub fn sim_config(&self) -> SimConfig {
        let (cfg, _, mem_words, _) = (self.build)();
        SimConfig::new(&cfg).mem_words(mem_words)
    }

    /// A [`MachineBuilder`] for this case: `sim` supplies every knob,
    /// the case supplies program and memory images. Start from
    /// [`GoldenCase::sim_config`]; a modified `sim.arch` (what-if
    /// analysis: shrink the cache, change DRAM latency, …) must keep
    /// the `memory_modules` the program was generated for, and its
    /// timing is *not* covered by the golden cycle counts.
    pub fn builder(&self, sim: &SimConfig) -> MachineBuilder {
        let (_, prog, mem_words, images) = (self.build)();
        let mut b = sim.builder(prog).mem_words(mem_words);
        for (base, flat) in &images {
            b = b.write_f32s(*base, flat);
        }
        b
    }

    /// The program this case runs, for static analysis (`xmt-verify`/
    /// `xmt-lint`) or disassembly.
    pub fn program(&self) -> Program {
        let (_, prog, _, _) = (self.build)();
        prog
    }

    /// Construct the machine for this case, ready to run.
    pub fn machine(&self) -> Machine {
        self.builder(&self.sim_config()).build()
    }

    /// Run the case to completion and return its report.
    pub fn run(&self) -> RunReport {
        self.machine().run().expect("golden case must complete")
    }
}

/// Deterministic pseudo-random complex input (no external RNG crate).
pub fn sample_input(n: usize, seed: u64) -> Vec<Complex32> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f32 / (1u64 << 53) as f32 - 0.5
    };
    (0..n).map(|_| Complex32::new(next(), next())).collect()
}

/// The scaled-down "4k" configuration all golden cases run on.
pub fn golden_config() -> XmtConfig {
    XmtConfig::xmt_4k().scaled_to(4)
}

fn fft_build(n: usize) -> CaseSetup {
    fft_build_on(golden_config(), n)
}

fn fft_build_on(cfg: XmtConfig, n: usize) -> CaseSetup {
    let plan = XmtFftPlan::new_1d(n, crate::plan::default_copies(n, cfg.memory_modules));
    let input = sample_input(n, 0xF0F7);
    let mut images = vec![(plan.a_base as usize, plan.input_image(&input))];
    for (_, layout, flat) in &plan.twiddles {
        images.push((layout.base as usize, flat.clone()));
    }
    (cfg, plan.program.clone(), plan.mem_words, images)
}

fn spawn_storm_build() -> CaseSetup {
    // Two back-to-back spawns reusing TCUs: tid-indexed stores, then
    // tid-indexed load/add/store, so the barrier must drain real
    // memory traffic both times.
    let mut b = ProgramBuilder::new();
    let par1 = b.label();
    let par2 = b.label();
    let mid = b.label();
    let after = b.label();
    b.li(ir(1), 200);
    b.spawn(ir(1), par1);
    b.jump(mid);
    b.bind(par1);
    b.tid(ir(2));
    b.slli(ir(3), ir(2), 1);
    b.sw(ir(3), ir(2), 0);
    b.join();
    b.bind(mid);
    b.li(ir(1), 200);
    b.spawn(ir(1), par2);
    b.jump(after);
    b.bind(par2);
    b.tid(ir(2));
    b.lw(ir(3), ir(2), 0);
    b.addi(ir(3), ir(3), 5);
    b.sw(ir(3), ir(2), 256);
    b.join();
    b.bind(after);
    b.halt();
    (golden_config(), b.build().unwrap(), 1024, Vec::new())
}

fn ps_tickets_build() -> CaseSetup {
    // Every thread draws a prefix-sum ticket and stores its tid at the
    // ticket slot; exercises the serializing global-register path.
    let mut b = ProgramBuilder::new();
    let par = b.label();
    let after = b.label();
    b.li(ir(1), 96);
    b.spawn(ir(1), par);
    b.jump(after);
    b.bind(par);
    b.li(ir(2), 1);
    b.ps(ir(3), ir(2), gr(1));
    b.tid(ir(4));
    b.sw(ir(4), ir(3), 0);
    b.join();
    b.bind(after);
    b.halt();
    (golden_config(), b.build().unwrap(), 256, Vec::new())
}

fn fpu_chain_build() -> CaseSetup {
    // Compute-saturated: every thread runs a dependent FPU chain with
    // no memory traffic after the initial load, so almost every cycle
    // issues work somewhere and fast-forwarding has nothing to skip.
    let mut b = ProgramBuilder::new();
    let par = b.label();
    let after = b.label();
    b.li(ir(1), 128);
    b.spawn(ir(1), par);
    b.jump(after);
    b.bind(par);
    b.tid(ir(2));
    b.flw(fr(1), ir(2), 0);
    for _ in 0..24 {
        b.fmul(fr(1), fr(1), fr(1));
        b.fadd(fr(1), fr(1), fr(1));
    }
    b.fsw(fr(1), ir(2), 256);
    b.join();
    b.bind(after);
    b.halt();
    let images = vec![(0usize, vec![1.0001f32; 128])];
    (golden_config(), b.build().unwrap(), 1024, images)
}

fn mem_chase_build() -> CaseSetup {
    // Memory-latency-bound: a single thread chases a pointer chain
    // laid out so every hop lands on a line nothing has touched before
    // — a cold miss paying the full DRAM access latency with an idle
    // channel (more threads would stagger and stream the channel at
    // burst rate, turning the run bandwidth-bound). While each fill is
    // in flight the whole machine is quiet: the regime where
    // fast-forwarding pays off most.
    const THREADS: usize = 1;
    const HOPS: usize = 64;
    const LINE_WORDS: usize = 8;
    let mem_words = THREADS * HOPS * LINE_WORDS;
    let mut image = vec![0.0f32; mem_words];
    for t in 0..THREADS {
        for k in 0..HOPS - 1 {
            let cur = (k * THREADS + t) * LINE_WORDS;
            let next = ((k + 1) * THREADS + t) * LINE_WORDS;
            image[cur] = f32::from_bits(next as u32);
        }
    }
    let mut b = ProgramBuilder::new();
    let par = b.label();
    let after = b.label();
    b.li(ir(1), THREADS as u32);
    b.spawn(ir(1), par);
    b.jump(after);
    b.bind(par);
    b.tid(ir(2));
    b.slli(ir(3), ir(2), 3); // thread t starts its chain at line t
    for _ in 0..HOPS {
        b.lw(ir(3), ir(3), 0);
    }
    b.sw(ir(3), ir(2), 0);
    b.join();
    b.bind(after);
    b.halt();
    (
        golden_config(),
        b.build().unwrap(),
        mem_words,
        vec![(0, image)],
    )
}

/// All golden cases, in a stable order.
pub fn cases() -> Vec<GoldenCase> {
    vec![
        GoldenCase {
            name: "fft_radix8_n512",
            build: || fft_build(512),
        },
        GoldenCase {
            name: "spawn_storm",
            build: spawn_storm_build,
        },
        GoldenCase {
            name: "ps_tickets",
            build: ps_tickets_build,
        },
        GoldenCase {
            name: "fpu_chain",
            build: fpu_chain_build,
        },
        GoldenCase {
            name: "mem_chase",
            build: mem_chase_build,
        },
    ]
}

/// Large-configuration scaling workloads: FFT plans on the paper's
/// full-scale 4096-, 8192- and 65536-TCU machines, in both a *dense*
/// regime (n large enough that every cluster runs threads all stage
/// long) and a *sparse* one (thread count well under the TCU count, so
/// most clusters sit idle — the regime where fast-forward's
/// active-cluster work list pays off most). Not part of [`cases`] (the
/// per-commit golden suite stays cheap); `bench_sim` records them in
/// `BENCH_sim.json` and checks every engine and tier against them, and
/// `tests/tests/determinism.rs` holds the default cell and sliced runs
/// to the same rows.
pub fn scaling_cases() -> Vec<GoldenCase> {
    vec![
        GoldenCase {
            name: "fft_xmt4k_n32768",
            build: || fft_build_on(XmtConfig::xmt_4k(), 32768),
        },
        GoldenCase {
            name: "fft_xmt8k_n8192",
            build: || fft_build_on(XmtConfig::xmt_8k(), 8192),
        },
        GoldenCase {
            name: "fft_xmt8k_n65536",
            build: || fft_build_on(XmtConfig::xmt_8k(), 65536),
        },
        GoldenCase {
            name: "fft_xmt64k_n8192",
            build: || fft_build_on(XmtConfig::xmt_64k(), 8192),
        },
    ]
}

/// Order-sensitive digest of the original `SpawnStats` fields, so
/// per-spawn timing is pinned as tightly as the totals. Observability
/// fields added later (`start_cycle`, per-cause stalls) are kept out
/// of the digest so the committed golden values stay stable.
pub fn spawn_digest(s: &RunReport) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for sp in &s.spawns {
        mix(sp.index as u64);
        mix(sp.threads);
        mix(sp.cycles);
        mix(sp.instructions);
        mix(sp.flops);
        mix(sp.mem_reads);
        mix(sp.mem_writes);
        mix(sp.dram_bytes);
    }
    h
}
