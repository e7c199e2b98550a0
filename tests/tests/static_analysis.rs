//! The static-analysis gate (`xmt_bench::lint`) as tier-1 tests: every
//! target `xmt_lint` checks passes the same `check` here, split by kind
//! so the kinds run side by side.

use std::sync::OnceLock;

use xmt_bench::lint::{check, targets, Outcome};

/// `check` on every target of `kind`.
fn run(kind: &str) -> Vec<Outcome> {
    let outcomes: Vec<Outcome> = targets()
        .into_iter()
        .filter(|t| t.kind == kind)
        .map(|mut t| {
            // A probed paper-scale run costs minutes unoptimised; the
            // release `xmt_lint` stage of ci.sh measures these.
            if kind == "scaling" {
                t.measure = None;
            }
            check(&t)
        })
        .collect();
    assert!(!outcomes.is_empty(), "no {kind} target");
    outcomes
}

/// Fails naming each outcome that has a finding.
fn assert_passed(outcomes: &[Outcome]) {
    let failed: Vec<String> = outcomes
        .iter()
        .filter(|o| !o.passed())
        .map(|o| format!("{}: {}", o.name, o.findings.join("; ")))
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

/// The golden targets, each checked once with its probed run; the two
/// golden tests below read different parts of the same outcomes.
fn goldens() -> &'static [Outcome] {
    static GOLDENS: OnceLock<Vec<Outcome>> = OnceLock::new();
    GOLDENS.get_or_init(|| run("golden"))
}

/// Every golden workload verifies clean, holds its pinned verdict, and
/// a probed run of it measures every per-phase quantity inside the
/// statically predicted interval.
#[test]
fn measured_traffic_falls_inside_static_bounds() {
    assert_passed(goldens());
    for o in goldens() {
        assert_eq!(o.crosscheck, "ok", "{}", o.name);
    }
}

/// After a probed run under the block-compiled tier, every superblock
/// the machine lowered proves equivalent to the reference semantics,
/// and at least one block was audited on every golden workload.
#[test]
fn replayed_trace_caches_validate_against_reference_semantics() {
    for o in goldens() {
        let audit = o.cache_audit.as_ref();
        assert!(
            audit.is_some_and(|s| s.blocks > 0),
            "{}: {}",
            o.name,
            o.findings.join("; ")
        );
    }
}

/// The paper's headline claim, derived without running anything: at
/// paper scale every FFT classifies bandwidth-bound (the goldens pin
/// `fpu_chain` compute-bound, so the analyzer tells the regimes apart).
#[test]
fn paper_scale_fft_is_statically_bandwidth_bound() {
    assert_passed(&run("scaling"));
}

/// The FFT plans the experiments sweep and the XMTC samples verify
/// clean and translate equivalently.
#[test]
fn fft_plans_and_xmtc_samples_verify_clean() {
    assert_passed(&run("plan"));
    assert_passed(&run("xmtc"));
}
