//! The determinism gate against the one table of expected results.
//!
//! `BENCH_sim.json` (recorded by `bench_sim OUT`, and nothing else) is
//! the table: per workload, the simulated cycles, spawn digest, the
//! run's statistics and the trace-cache row. Here every golden workload
//! runs the exact pass's cells (`xmt_bench::matrix::exact_cells`: every
//! engine × tier × fault plan) and the paper-scale cases run the
//! default cell and their sliced cells; the matrix holds each cell to
//! the oracle, and the oracle is held to its row. `bench_sim --check`
//! (ci.sh) runs every paper-scale case under every engine and tier in
//! release; the dense `fft_xmt8k_n65536` runs here only in release
//! (`#[ignore]`, ci.sh).

use xmt_bench::baseline::{self, ExactRow};
use xmt_bench::matrix::{self, Agreed, Cell, Subject, ENGINES, PLANS, SERIAL_PARITY};
use xmt_fft::golden::{self, GoldenCase};
use xmt_sim::Engine;

const BENCH: &str = include_str!("../../BENCH_sim.json");

/// Hold `agreed` to the committed row of `case` in `section`. The
/// ledger's host work counts are `bench_sim`'s to check.
fn matches_its_row(section: &'static str, case: &GoldenCase, agreed: &Agreed) {
    let want: Vec<ExactRow> = baseline::exact_rows(BENCH)
        .expect("BENCH_sim.json parses")
        .into_iter()
        .filter(|r| r.section == section && r.name == case.name)
        .collect();
    let mut fresh = agreed.row(section, case.name);
    fresh.work = want.first().map_or_else(Vec::new, |r| r.work.clone());
    assert_eq!(baseline::compare(&[fresh], &want), Vec::<String>::new());
}

fn scaling_case(name: &str) -> GoldenCase {
    golden::scaling_cases()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap()
}

/// The default cell and a chain of eight slices; `extra` cells too.
fn scaling_agrees(name: &str, extra: &[Cell]) -> Agreed {
    let case = scaling_case(name);
    let mut cells = vec![Cell::DEFAULT, Cell::DEFAULT.sliced(matrix::eight_slices)];
    cells.extend_from_slice(extra);
    let agreed = matrix::agree(&Subject::golden(&case), &cells).unwrap();
    matches_its_row("scaling", &case, &agreed);
    agreed
}

/// Every golden case under `engine`'s cells of the exact pass (each
/// tier × fault plan) and the default cell, whose trace counters the
/// row records; each cell is held to the oracle and the oracle to its
/// row.
fn golden_cases_agree_under(engine: Engine) {
    let mut cells: Vec<Cell> = (matrix::exact_cells(&PLANS).into_iter())
        .filter(|c| c.engine == engine)
        .collect();
    if engine != Cell::DEFAULT.engine {
        cells.push(Cell::DEFAULT);
    }
    for case in golden::cases() {
        let agreed = matrix::agree(&Subject::golden(&case), &cells).unwrap();
        let report = &agreed.oracle.report;
        assert_eq!(
            report.spawns.len() as u64,
            report.stats.spawns,
            "{}",
            case.name
        );
        matches_its_row("workloads", &case, &agreed);
    }
}

#[test]
fn reference_cells_match_the_golden_rows() {
    golden_cases_agree_under(ENGINES[0]);
}

#[test]
fn fast_forward_cells_match_the_golden_rows() {
    golden_cases_agree_under(ENGINES[1]);
}

#[test]
fn fft_xmt4k_n32768_agrees_sliced_and_matches_its_row() {
    scaling_agrees("fft_xmt4k_n32768", &[]);
}

#[test]
fn fft_xmt8k_n8192_agrees_sliced_and_matches_its_row() {
    scaling_agrees("fft_xmt8k_n8192", &[]);
}

/// The 64k machine's butterfly NoC arbitrates by memory-clock parity,
/// so a resumed run is exact only if the clock it paused on is
/// restored. Single pauses on both parities — one inside a serial
/// stretch — make that a checked property rather than a property of
/// where eight even slices happen to land.
#[test]
fn fft_xmt64k_n8192_resumes_on_both_clock_parities() {
    let parity: Vec<Cell> = (SERIAL_PARITY.iter())
        .map(|&p| Cell::DEFAULT.sliced(p))
        .collect();
    let agreed = scaling_agrees("fft_xmt64k_n8192", &parity);
    let spawns = &agreed.oracle.report.spawns;
    let paused: Vec<u64> = (agreed.cells.iter().rev().take(parity.len()))
        .map(|(_, y)| {
            assert_eq!(y.paused.len(), 1, "one pause per parity cell");
            y.paused[0].0
        })
        .collect();
    assert!(
        paused.iter().any(|c| c % 2 == 0) && paused.iter().any(|c| c % 2 == 1),
        "the parity cells paused at {paused:?}: one parity only"
    );
    let serial = |p: u64| {
        (spawns.windows(2)).any(|w| w[0].start_cycle + w[0].cycles <= p && p < w[1].start_cycle)
    };
    let asked: Vec<u64> = SERIAL_PARITY
        .iter()
        .flat_map(|p| p(&agreed.oracle.report))
        .collect();
    assert!(
        asked.iter().any(|&p| serial(p)),
        "no pause of {asked:?} lies in a serial stretch"
    );
}

/// ~9M instructions per run: release only (ci.sh).
#[test]
#[ignore = "release-profile gate: run via ci.sh (cargo test --release -- --include-ignored)"]
fn fft_xmt8k_n65536_agrees_sliced_and_matches_its_row() {
    scaling_agrees("fft_xmt8k_n65536", &[]);
}

/// A watchdog and a cycle limit of `u64::MAX` — both reachable from a
/// decoded service request — mean "no limit", under every engine: the
/// run completes on the golden cycle instead of overflowing the
/// horizon arithmetic (a panic in debug builds, an immediate `Stalled`
/// in release).
#[test]
fn unbounded_watchdog_and_cycle_limit_do_not_overflow() {
    let case = golden::cases()
        .into_iter()
        .find(|c| c.name == "ps_tickets")
        .unwrap();
    for engine in ENGINES {
        let sim = case
            .sim_config()
            .engine(engine)
            .watchdog(u64::MAX)
            .max_cycles(u64::MAX);
        let out = case.builder(&sim).build().run();
        assert!(out.is_completed(), "{engine:?}: {:?}", out.status);
        assert_eq!(out.report.stats.cycles, 135, "{engine:?}");
    }
}
