//! The static-analysis pipeline against live machines: the trace
//! cache a run actually replayed must validate, and the traffic
//! analyzer's per-phase bounds must contain what an `IntervalProbe`
//! measures — the same gates `xmt_lint` enforces, pinned as tests.

use xmt_fft::golden::{cases, scaling_cases};
use xmt_fft::traffic::traffic_params;
use xmt_sim::IntervalProbe;
use xmt_verify::traffic::{analyze, Verdict};
use xmt_verify::transval::validate_cache;

/// After a run under the block-compiled tier, every superblock the
/// machine actually lowered must prove equivalent to the reference
/// semantics; unexecuted blocks stay cold and are skipped, never
/// wrongly warmed.
#[test]
fn replayed_trace_caches_validate_against_reference_semantics() {
    for case in cases() {
        let prog = case.program();
        let mut m = case.machine();
        let outcome = m.run();
        assert!(outcome.is_completed(), "{} did not complete", case.name);
        let tc = m
            .trace_cache()
            .expect("block tier is the default; trace cache must exist");
        let stats = validate_cache(prog.instrs(), tc.map(), tc.uops(), tc.unit_lat())
            .unwrap_or_else(|e| panic!("{}: replayed cache failed validation: {e}", case.name));
        assert!(stats.blocks > 0, "{}: nothing was audited", case.name);
    }
}

/// Every per-phase measurement (threads, instructions, flops, reads,
/// writes, NoC flits, DRAM bytes) falls inside the statically
/// predicted interval on every golden workload.
#[test]
fn measured_traffic_falls_inside_static_bounds() {
    for case in cases() {
        let params = traffic_params(&case.sim_config().arch);
        let prog = case.program();
        let report =
            analyze(prog.instrs(), &params).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        assert!(report.phase_order_exact, "{}", case.name);

        let mut m = case
            .builder(&case.sim_config())
            .build_probed(IntervalProbe::new(1, 400_000));
        let outcome = m.run();
        assert!(outcome.is_completed(), "{} did not complete", case.name);
        let rep = &outcome.report;
        assert_eq!(report.phases.len(), rep.spawns.len(), "{}", case.name);
        let rows = m.probe().rows();

        let within = |what: &str, got: u64, (lo, hi): (u64, u64), idx: usize| {
            assert!(
                lo <= got && got <= hi,
                "{} phase {idx}: measured {what} {got} outside [{lo}, {hi}]",
                case.name
            );
        };
        for (p, s) in report.phases.iter().zip(&rep.spawns) {
            if let Some(t) = p.threads {
                assert_eq!(t, s.threads, "{} phase {}", case.name, p.index);
            }
            within("instructions", s.instructions, p.instructions, p.index);
            within("flops", s.flops, p.flops, p.index);
            within("reads", s.mem_reads, p.reads, p.index);
            within("writes", s.mem_writes, p.writes, p.index);
            let noc: u64 = rows
                .iter()
                .filter(|r| r.spawn == Some(s.index as u64))
                .map(|r| r.noc_injected)
                .sum();
            within("noc flits", noc, p.noc_flits, p.index);
            let dram: u64 = rows
                .iter()
                .filter(|r| r.spawn == Some(s.index as u64))
                .map(|r| r.dram_bytes)
                .sum();
            within("dram bytes", dram, p.dram_bytes, p.index);
        }
    }
}

/// The paper's headline claim, derived without running anything: at
/// paper scale every FFT golden classifies bandwidth-bound, while the
/// synthetic compute kernel stays compute-bound — the analyzer can
/// tell the regimes apart from the program text alone.
#[test]
fn paper_scale_fft_is_statically_bandwidth_bound() {
    for case in scaling_cases() {
        let params = traffic_params(&case.sim_config().arch);
        let prog = case.program();
        let report =
            analyze(prog.instrs(), &params).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        assert_eq!(
            report.verdict,
            Verdict::BandwidthBound,
            "{}: got {}",
            case.name,
            report.verdict
        );
    }
    let contrast = cases()
        .into_iter()
        .find(|c| c.name == "fpu_chain")
        .expect("fpu_chain golden");
    let params = traffic_params(&contrast.sim_config().arch);
    let report = analyze(contrast.program().instrs(), &params).unwrap();
    assert_eq!(report.verdict, Verdict::ComputeBound);
}
