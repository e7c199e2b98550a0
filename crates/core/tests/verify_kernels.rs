//! Static verification of the kernels this crate generates.
//!
//! Every golden workload verifies clean here, at the crate that builds
//! it, so a generator change that introduces a shared word or an
//! unwritten register fails before a simulator run ever observes
//! nondeterminism. The negative cases pin that the verifier has teeth:
//! a seeded racy kernel and an uninit-register kernel are rejected with
//! actionable diagnostics. The FFT plan shapes the experiments sweep
//! are targets of the static-analysis gate (`xmt_bench::lint`), which
//! `xmt_lint` and the integration suite `static_analysis` run.

use xmt_fft::golden;
use xmt_isa::{ir, ProgramBuilder};
use xmt_verify::{verify, Kind};

#[test]
fn every_golden_case_verifies_clean() {
    for case in golden::cases() {
        let report = verify(&case.program());
        assert!(
            report.is_clean(),
            "golden case `{}` failed verification:\n{report}",
            case.name
        );
    }
}

#[test]
fn seeded_racy_kernel_is_rejected_with_a_witness() {
    // A "reduction" that accumulates into one shared word without ps:
    // exactly the bug class the paper's programming model forbids.
    let mut b = ProgramBuilder::new();
    let par = b.label();
    let done = b.label();
    b.li(ir(1), 64);
    b.spawn(ir(1), par);
    b.jump(done);
    b.bind(par);
    b.tid(ir(2));
    b.li(ir(3), 512);
    b.lw(ir(4), ir(3), 0);
    b.add(ir(4), ir(4), ir(2));
    b.sw(ir(4), ir(3), 0); // all 64 threads read-modify-write word 512
    b.join();
    b.bind(done);
    b.halt();
    let report = verify(&b.build().unwrap());
    let race = report
        .errors()
        .find(|d| d.kind == Kind::Race)
        .expect("the shared accumulator must be reported as a race");
    // The diagnostic carries a concrete witness: the word and a pair
    // of thread ids that collide on it.
    assert!(race.message.contains("word 512"), "{}", race.message);
    assert!(race.message.contains("threads"), "{}", race.message);
}

#[test]
fn seeded_uninit_kernel_is_rejected_naming_the_register() {
    // The stage body forgets to compute its base pointer (r7) before
    // storing through it.
    let mut b = ProgramBuilder::new();
    let par = b.label();
    let done = b.label();
    b.li(ir(1), 8);
    b.spawn(ir(1), par);
    b.jump(done);
    b.bind(par);
    b.tid(ir(2));
    b.sw(ir(2), ir(7), 0);
    b.join();
    b.bind(done);
    b.halt();
    let report = verify(&b.build().unwrap());
    let diag = report
        .errors()
        .find(|d| d.kind == Kind::UninitRead)
        .expect("the unwritten base register must be reported");
    assert!(diag.message.contains("r7"), "{}", diag.message);
}
