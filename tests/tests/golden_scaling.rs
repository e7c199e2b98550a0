//! Golden regression tests for the paper-scale configurations.
//!
//! `golden::scaling_cases()` runs the FFT on the full 4096-, 8192- and
//! 65536-TCU machines from `crates/sim/src/config.rs` — the configs the
//! paper's scaling argument is actually about. The constants below were
//! captured with `golden_capture --scaling` under the Reference engine;
//! every engine must reproduce them bit-for-bit.
//!
//! Debug builds simulate these machines slowly, so the default (tier-1)
//! suite checks one engine — Threaded, which exercises the coordinator's
//! grant sizing and injection replay on top of the shared issue kernel —
//! on the three cheaper cases.
//! The dense 8k case and the Reference/FastForward engines run in
//! release via `ci.sh` (`cargo test --release ... -- --ignored`), and
//! `bench_sim --check` independently asserts three-engine identity on
//! every case, tier on and off.

use xmt_fft::golden::{scaling_cases, spawn_digest};

/// Captured 2026-08-08 via `golden_capture --scaling` (Reference
/// engine) after the sharded-Threaded/NoC-occupancy rework; identical
/// to the pre-rework counts for these plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    cycles: u64,
    instructions: u64,
    threads: u64,
    spawns: u64,
    spawn_digest: u64,
}

const GOLDEN: &[(&str, Golden)] = &[
    (
        "fft_xmt4k_n32768",
        Golden {
            cycles: 29074,
            instructions: 3751947,
            threads: 20480,
            spawns: 5,
            spawn_digest: 0x9795eb3c0559c08a,
        },
    ),
    (
        "fft_xmt8k_n8192",
        Golden {
            cycles: 21885,
            instructions: 950283,
            threads: 8192,
            spawns: 5,
            spawn_digest: 0xb708530ec88ad011,
        },
    ),
    (
        "fft_xmt8k_n65536",
        Golden {
            cycles: 89081,
            instructions: 9248781,
            threads: 73728,
            spawns: 6,
            spawn_digest: 0x3fac44bcd9e1057a,
        },
    ),
    (
        "fft_xmt64k_n8192",
        Golden {
            cycles: 23903,
            instructions: 950283,
            threads: 8192,
            spawns: 5,
            spawn_digest: 0xd067d8c495d7c367,
        },
    ),
];

/// The dense 8k run simulates ~9M instructions; keep it out of the
/// debug-profile default suite (it runs in release via ci.sh).
const EXPENSIVE: &[&str] = &["fft_xmt8k_n65536"];

fn check(engine: xmt_sim::Engine, include_expensive: bool) {
    for case in scaling_cases() {
        if !include_expensive && EXPENSIVE.contains(&case.name) {
            continue;
        }
        let want = GOLDEN
            .iter()
            .find(|(n, _)| *n == case.name)
            .unwrap_or_else(|| panic!("no golden entry for case {}", case.name))
            .1;
        let mut m = case.builder(&case.sim_config().engine(engine)).build();
        let s = m.run().expect("scaling case must complete");
        let got = Golden {
            cycles: s.stats.cycles,
            instructions: s.stats.instructions,
            threads: s.stats.threads,
            spawns: s.stats.spawns,
            spawn_digest: spawn_digest(&s),
        };
        assert_eq!(
            got, want,
            "case {} diverged from captured scaling golden under {:?}",
            case.name, engine
        );
    }
}

#[test]
fn threaded_engine_matches_scaling_golden() {
    check(xmt_sim::Engine::Threaded { threads: 0 }, false);
}

#[test]
#[ignore = "release-profile gate: run via ci.sh (cargo test --release -- --ignored)"]
fn reference_engine_matches_scaling_golden() {
    check(xmt_sim::Engine::Reference, true);
}

#[test]
#[ignore = "release-profile gate: run via ci.sh (cargo test --release -- --ignored)"]
fn fast_forward_engine_matches_scaling_golden() {
    check(xmt_sim::Engine::FastForward, true);
}

#[test]
#[ignore = "release-profile gate: run via ci.sh (cargo test --release -- --ignored)"]
fn threaded_engine_matches_scaling_golden_dense() {
    check(xmt_sim::Engine::Threaded { threads: 0 }, true);
}
