//! The static-analysis gate: the one place the workspace's kernels are
//! proven clean and the paper's roofline verdict is pinned. The
//! `xmt_lint` binary prints what [`check`] finds over every
//! [`targets`] entry; tier-1's `static_analysis` suite calls the same
//! function.
//!
//! [`check`] runs, in order, on one [`Target`]:
//! 1. the front half of `xmt-verify` (structure, def-before-use, dead
//!    stores, races; warnings do not gate);
//! 2. translation validation: the target's lowering into the
//!    block-compiled tier's micro-ops is proven equivalent to the
//!    reference ISA semantics (`validate_program`);
//! 3. the static traffic analyzer: per-phase instruction, flop,
//!    memory, NoC and DRAM bounds and a roofline verdict, held to the
//!    target's pinned verdict when it has one — the paper's claim is
//!    that the paper-scale FFT is bandwidth-bound;
//! 4. for a measured target, a probed run: every per-phase quantity it
//!    measures must fall inside its predicted interval, the probe ring
//!    must have kept every sample, and the trace cache the run actually
//!    replayed must validate and hold at least one lowered block.
//!
//! Every problem is a finding, named by its target; a target passes
//! when it has none. XMTC-authored targets are a special case: their
//! scatter addresses come from `/` and `%` on broadcast globals, which
//! the affine domain widens to ⊤, so the race pass reports *unproven*
//! (not disproven) races. Those are counted apart and do not gate;
//! generated kernels, which the domain does prove, gate strictly.

use xmt_fft::golden::{self, GoldenCase};
use xmt_fft::plan::{default_copies, XmtFftPlan};
use xmt_fft::traffic::traffic_params;
use xmt_isa::Program;
use xmt_sim::{IntervalProbe, UNIT_LAT};
use xmt_verify::traffic::{analyze, TrafficParams, TrafficReport, Verdict};
use xmt_verify::transval::{validate_cache, validate_program, TransvalStats};
use xmt_verify::{verify, Kind};

/// Samples the cross-check's probe keeps, one per cycle: more than the
/// longest measured run (`fft_xmt8k_n65536`, 89 081 cycles). A run
/// that outgrows it is a finding, not a silent under-count.
const PROBE_RING: usize = 400_000;

/// One program the gate proves things about.
pub struct Target {
    pub name: String,
    /// `golden`, `scaling`, `plan` or `xmtc`.
    pub kind: &'static str,
    /// The program, or why its XMTC source did not compile.
    pub prog: Result<Program, String>,
    pub params: TrafficParams,
    /// XMTC targets: ⊤-address races are counted, not gated.
    pub relax_races: bool,
    /// The pinned roofline verdict, gated when set.
    pub expect: Option<Verdict>,
    /// When set, a probed run of this case is cross-checked against
    /// the static intervals and its replayed trace cache audited.
    pub measure: Option<GoldenCase>,
}

/// What [`check`] found on one target.
#[derive(Default)]
pub struct Outcome {
    pub name: String,
    pub kind: &'static str,
    /// Races the affine domain could not disprove on a relaxed target.
    pub unproven: usize,
    pub transval: Option<TransvalStats>,
    pub cache_audit: Option<TransvalStats>,
    pub verdict: Option<Verdict>,
    pub expect: Option<Verdict>,
    /// `ok`, `failed`, or `skipped` for a target not measured.
    pub crosscheck: &'static str,
    /// Everything that gates, one line each.
    pub findings: Vec<String>,
}

impl Outcome {
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Every target of the gate: the golden workloads and the paper-scale
/// scaling cases (all measured, each with its pinned verdict), the FFT
/// plans the experiments sweep, and the two XMTC samples.
pub fn targets() -> Vec<Target> {
    let measured = |case: GoldenCase, kind, expect| Target {
        name: case.name.to_string(),
        kind,
        prog: Ok(case.program()),
        params: traffic_params(&case.sim_config().arch),
        relax_races: false,
        expect,
        measure: Some(case),
    };
    let mut targets = Vec::new();
    for case in golden::cases() {
        let expect = match case.name {
            "spawn_storm" | "ps_tickets" => Some(Verdict::BandwidthBound),
            "fpu_chain" => Some(Verdict::ComputeBound),
            "mem_chase" => Some(Verdict::LatencyBound),
            // fft_radix8_n512 straddles the scaled-down golden ridge;
            // the paper-scale pin lives on the scaling cases.
            _ => None,
        };
        targets.push(measured(case, "golden", expect));
    }
    for case in golden::scaling_cases() {
        targets.push(measured(case, "scaling", Some(Verdict::BandwidthBound)));
    }

    let cfg = golden::golden_config();
    let params = traffic_params(&cfg);
    let copies = |n| default_copies(n, cfg.memory_modules);
    let plans = [
        ("fft_1d_n64", XmtFftPlan::new_1d(64, copies(64))),
        ("fft_1d_n512", XmtFftPlan::new_1d(512, copies(512))),
        ("fft_1d_n4096", XmtFftPlan::new_1d(4096, copies(4096))),
        ("fft_2d_64x64", XmtFftPlan::new_2d(64, 64, copies(4096))),
    ];
    for (name, plan) in plans {
        targets.push(Target {
            name: name.to_string(),
            kind: "plan",
            prog: Ok(plan.program),
            params,
            relax_races: false,
            expect: None,
            measure: None,
        });
    }

    // The FFT's ⊤ addresses relax the race gate; the affine
    // complex-square must prove clean end to end.
    for (name, src, relax_races) in [
        ("xmtc_fft_radix2", xmtc::samples::FFT_RADIX2, true),
        ("xmtc_complex_square", xmtc::samples::COMPLEX_SQUARE, false),
    ] {
        targets.push(Target {
            name: name.to_string(),
            kind: "xmtc",
            prog: xmtc::compile(src).map_err(|e| e.to_string()),
            params,
            relax_races,
            expect: None,
            measure: None,
        });
    }
    targets
}

/// Run every pass of the gate on `t`.
pub fn check(t: &Target) -> Outcome {
    let mut o = Outcome {
        name: t.name.clone(),
        kind: t.kind,
        expect: t.expect,
        crosscheck: "skipped",
        ..Outcome::default()
    };
    let prog = match &t.prog {
        Ok(prog) => prog,
        Err(e) => {
            o.findings.push(format!("does not compile: {e}"));
            return o;
        }
    };
    for d in verify(prog).errors() {
        if t.relax_races && d.kind == Kind::Race {
            o.unproven += 1;
        } else {
            o.findings.push(d.to_string());
        }
    }
    match validate_program(prog.instrs(), UNIT_LAT) {
        Ok(stats) => o.transval = Some(stats),
        Err(e) => o.findings.push(format!("error[transval] pc {}: {e}", e.pc)),
    }
    let traffic = match analyze(prog.instrs(), &t.params) {
        Ok(traffic) => traffic,
        Err(e) => {
            o.findings.push(format!("error[traffic]: {e}"));
            return o;
        }
    };
    o.verdict = Some(traffic.verdict);
    if let Some(want) = t.expect.filter(|&want| want != traffic.verdict) {
        o.findings.push(format!(
            "roofline verdict is {}, paper pins {want}",
            traffic.verdict
        ));
    }
    if let Some(case) = &t.measure {
        let before = o.findings.len();
        crosscheck(case, prog, &traffic, &mut o);
        o.crosscheck = if o.findings.len() == before {
            "ok"
        } else {
            "failed"
        };
    }
    o
}

/// The probed run of a measured target: the replayed-trace-cache audit,
/// then every per-phase measurement against its predicted interval.
fn crosscheck(case: &GoldenCase, prog: &Program, report: &TrafficReport, o: &mut Outcome) {
    let mut m = case
        .builder(&case.sim_config())
        .build_probed(IntervalProbe::new(1, PROBE_RING));
    let outcome = m.run();
    if let Some(e) = outcome.error() {
        o.findings.push(format!("probed run failed: {e}"));
        return;
    }
    let audit = m
        .trace_cache()
        .map(|tc| validate_cache(prog.instrs(), tc.map(), tc.uops(), tc.unit_lat()));
    match audit {
        Some(Ok(stats)) if stats.blocks > 0 => o.cache_audit = Some(stats),
        Some(Ok(_)) | None => o
            .findings
            .push("trace-cache audit: nothing was audited".into()),
        Some(Err(e)) => o.findings.push(format!("trace-cache audit: {e}")),
    }

    let probe = m.probe();
    if probe.dropped() != 0 {
        o.findings.push(format!(
            "probe ring dropped {} of {} samples: NoC flits and DRAM bytes would be under-counted",
            probe.dropped(),
            probe.samples()
        ));
        return;
    }
    let spawns = &outcome.report.spawns;
    if !report.phase_order_exact || report.phases.len() != spawns.len() {
        o.findings.push(format!(
            "cross-check needs exact phase order: predicted {} phase(s), measured {}",
            report.phases.len(),
            spawns.len()
        ));
        return;
    }
    for (p, s) in report.phases.iter().zip(spawns) {
        let of_phase = || {
            probe
                .scalar_rows()
                .filter(|r| r.spawn == Some(s.index as u64))
        };
        let quantities = [
            (
                "threads",
                s.threads,
                p.threads.map_or((0, u64::MAX), |t| (t, t)),
            ),
            ("instructions", s.instructions, p.instructions),
            ("flops", s.flops, p.flops),
            ("reads", s.mem_reads, p.reads),
            ("writes", s.mem_writes, p.writes),
            (
                "noc flits",
                of_phase().map(|r| r.noc_injected).sum(),
                p.noc_flits,
            ),
            (
                "dram bytes",
                of_phase().map(|r| r.dram_bytes).sum(),
                p.dram_bytes,
            ),
        ];
        for (what, got, (lo, hi)) in quantities {
            if !(lo..=hi).contains(&got) {
                o.findings.push(format!(
                    "phase {}: measured {what} {got} outside predicted [{lo}, {hi}]",
                    p.index
                ));
            }
        }
    }
}
