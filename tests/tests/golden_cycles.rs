//! Golden cycle-count regression tests.
//!
//! The constants below were captured from the simulator *before* the
//! fast-forward / parallel-stepping engine rework (see
//! `crates/bench/src/bin/paper/golden_capture.rs` to regenerate). Every
//! engine must reproduce them bit-for-bit: the optimized engines are
//! only allowed to change how fast wall-clock time passes, never a
//! single simulated statistic.

use xmt_fft::golden::{cases, spawn_digest};

/// Frozen pre-refactor statistics for one golden case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    cycles: u64,
    instructions: u64,
    flops: u64,
    mem_reads: u64,
    mem_writes: u64,
    threads: u64,
    spawns: u64,
    stall_scoreboard: u64,
    stall_fpu: u64,
    stall_mdu: u64,
    stall_lsu: u64,
    spawn_digest: u64,
}

/// Captured 2026-08-06 from the pre-refactor one-cycle-at-a-time
/// simulator (seed commit lineage), via `golden_capture`.
const GOLDEN: &[(&str, Golden)] = &[
    (
        "fft_radix8_n512",
        Golden {
            cycles: 10512,
            instructions: 32903,
            flops: 16896,
            mem_reads: 4864,
            mem_writes: 3072,
            threads: 192,
            spawns: 3,
            stall_scoreboard: 25710,
            stall_fpu: 403012,
            stall_mdu: 0,
            stall_lsu: 125609,
            spawn_digest: 0xbbf7096bac06b31b,
        },
    ),
    (
        "spawn_storm",
        Golden {
            cycles: 408,
            instructions: 1807,
            flops: 0,
            mem_reads: 200,
            mem_writes: 400,
            threads: 400,
            spawns: 2,
            stall_scoreboard: 2963,
            stall_fpu: 0,
            stall_mdu: 0,
            stall_lsu: 6388,
            spawn_digest: 0xfc8bbdaaf9bafc41,
        },
    ),
    (
        "ps_tickets",
        Golden {
            cycles: 135,
            instructions: 484,
            flops: 0,
            mem_reads: 0,
            mem_writes: 96,
            threads: 96,
            spawns: 1,
            stall_scoreboard: 0,
            stall_fpu: 0,
            stall_mdu: 0,
            stall_lsu: 1488,
            spawn_digest: 0x52b6c192e189101e,
        },
    ),
    (
        "fpu_chain",
        Golden {
            cycles: 1691,
            instructions: 6660,
            flops: 6144,
            mem_reads: 128,
            mem_writes: 128,
            threads: 128,
            spawns: 1,
            stall_scoreboard: 11616,
            stall_fpu: 160654,
            stall_mdu: 0,
            stall_lsu: 1984,
            spawn_digest: 0x1d9ad2d065b7c4aa,
        },
    ),
    (
        "mem_chase",
        Golden {
            cycles: 4691,
            instructions: 72,
            flops: 0,
            mem_reads: 64,
            mem_writes: 1,
            threads: 1,
            spawns: 1,
            stall_scoreboard: 4608,
            stall_fpu: 0,
            stall_mdu: 0,
            stall_lsu: 0,
            spawn_digest: 0x6acae01d62c8fbd8,
        },
    ),
];

fn check_all(engine: xmt_sim::Engine) {
    for case in cases() {
        let want = GOLDEN
            .iter()
            .find(|(n, _)| *n == case.name)
            .unwrap_or_else(|| panic!("no golden entry for case {}", case.name))
            .1;
        let mut m = case.builder(&case.sim_config().engine(engine)).build();
        let s = m.run().expect("golden case must complete");
        let got = Golden {
            cycles: s.stats.cycles,
            instructions: s.stats.instructions,
            flops: s.stats.flops,
            mem_reads: s.stats.mem_reads,
            mem_writes: s.stats.mem_writes,
            threads: s.stats.threads,
            spawns: s.stats.spawns,
            stall_scoreboard: s.stats.stall_scoreboard,
            stall_fpu: s.stats.stall_fpu,
            stall_mdu: s.stats.stall_mdu,
            stall_lsu: s.stats.stall_lsu,
            spawn_digest: spawn_digest(&s),
        };
        assert_eq!(
            got, want,
            "case {} diverged from pre-refactor golden stats under {:?}",
            case.name, engine
        );
        assert_eq!(
            s.spawns.len() as u64,
            s.stats.spawns,
            "case {}: one SpawnStats record per spawn",
            case.name
        );
    }
}

#[test]
fn reference_engine_matches_pre_refactor_golden() {
    check_all(xmt_sim::Engine::Reference);
}

#[test]
fn fast_forward_engine_matches_pre_refactor_golden() {
    check_all(xmt_sim::Engine::FastForward);
}

#[test]
fn threaded_engine_matches_pre_refactor_golden() {
    check_all(xmt_sim::Engine::Threaded { threads: 0 });
}

/// A watchdog and a cycle limit of `u64::MAX` — both reachable from a
/// decoded service request — mean "no limit", under every engine: the
/// run completes on the golden cycle instead of overflowing the
/// horizon arithmetic (a panic in debug builds, an immediate `Stalled`
/// in release).
#[test]
fn unbounded_watchdog_and_cycle_limit_do_not_overflow() {
    let case = cases()
        .into_iter()
        .find(|c| c.name == "ps_tickets")
        .unwrap();
    for engine in [
        xmt_sim::Engine::Reference,
        xmt_sim::Engine::FastForward,
        xmt_sim::Engine::Threaded { threads: 2 },
    ] {
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
