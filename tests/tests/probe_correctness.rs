//! Correctness of the observability layer (probes): interval sampling
//! must be an *accounting identity*, not an approximation.
//!
//! * The probe's cumulative totals after the end-of-run flush equal the
//!   run's final statistics, on every golden workload under every
//!   engine.
//! * Summing the retained interval rows reconstructs the same totals
//!   when the ring did not overwrite (capacity ≥ samples).
//! * The sample stream is bit-identical across engines — the same
//!   contract the engines already honour for stats/spawns/memory.
//! * Attaching a probe never changes the simulated cycle count.
//! * The [`HostLayers`] host-time ledger changes no simulated result and
//!   attributes (nearly) all of the run's wall time, never more.
//! * The [`RaceCheck`] oracle agrees with the static verdict of
//!   `xmt-verify`: zero observed conflicts on every (statically
//!   race-free) golden workload, and at least one on a seeded racy
//!   program that the static analysis also rejects.

use xmt_fft::golden;
use xmt_isa::{ir, ProgramBuilder};
use xmt_sim::{
    Engine, HostLayer, HostLayers, IntervalProbe, IntervalRow, MachineBuilder, MachineStats,
    RaceCheck, RunReport,
};

const ENGINES: [Engine; 3] = [
    Engine::Reference,
    Engine::FastForward,
    Engine::Threaded { threads: 2 },
];

/// Run one golden case probed, returning the report, the probe's
/// cumulative totals and the retained sample rows.
fn run_probed(
    case: &golden::GoldenCase,
    engine: Engine,
    interval: u64,
) -> (RunReport, MachineStats, Vec<IntervalRow>) {
    let mut m = case
        .builder()
        .engine(engine)
        .build_probed(IntervalProbe::new(interval, 1 << 14));
    let report = m.run().expect("golden case must complete");
    let totals = m.probe().totals();
    let rows = m.probe().rows();
    (report, totals, rows)
}

#[test]
fn probe_totals_equal_run_aggregates_on_all_engines() {
    for case in golden::cases() {
        for engine in ENGINES {
            let (report, totals, rows) = run_probed(&case, engine, 64);
            assert_eq!(
                totals, report.stats,
                "{} under {engine:?}: probe totals diverge from run stats",
                case.name
            );
            assert!(
                !rows.is_empty(),
                "{} under {engine:?}: no samples recorded",
                case.name
            );
            // The final flush lands exactly on the end-of-run cycle.
            let last = rows.last().unwrap();
            assert_eq!(
                last.cycle, report.stats.cycles,
                "{} under {engine:?}: last sample not at end of run",
                case.name
            );
        }
    }
}

#[test]
fn interval_rows_sum_to_totals_without_overwrite() {
    for case in golden::cases() {
        let (report, _, rows) = run_probed(&case, Engine::FastForward, 32);
        let sum = |f: fn(&IntervalRow) -> u64| rows.iter().map(f).sum::<u64>();
        assert_eq!(
            sum(|r| r.instructions),
            report.stats.instructions,
            "{}",
            case.name
        );
        assert_eq!(sum(|r| r.flops), report.stats.flops, "{}", case.name);
        assert_eq!(
            sum(|r| r.mem_reads),
            report.stats.mem_reads,
            "{}",
            case.name
        );
        assert_eq!(
            sum(|r| r.mem_writes),
            report.stats.mem_writes,
            "{}",
            case.name
        );
        assert_eq!(sum(|r| r.threads), report.stats.threads, "{}", case.name);
        assert_eq!(
            sum(|r| r.stall_scoreboard),
            report.stats.stall_scoreboard,
            "{}",
            case.name
        );
        assert_eq!(
            sum(|r| r.stall_fpu),
            report.stats.stall_fpu,
            "{}",
            case.name
        );
        assert_eq!(
            sum(|r| r.stall_mdu),
            report.stats.stall_mdu,
            "{}",
            case.name
        );
        assert_eq!(
            sum(|r| r.stall_lsu),
            report.stats.stall_lsu,
            "{}",
            case.name
        );
        // DRAM bytes: rows carry per-interval deltas of the same
        // cumulative counter the spawn log reports.
        let spawn_bytes: u64 = report.spawns.iter().map(|s| s.dram_bytes).sum();
        assert!(
            sum(|r| r.dram_bytes) >= spawn_bytes,
            "{}: interval DRAM bytes {} < spawn-attributed {}",
            case.name,
            rows.iter().map(|r| r.dram_bytes).sum::<u64>(),
            spawn_bytes
        );
    }
}

#[test]
fn sample_stream_bit_identical_across_engines() {
    // Interval 1 samples every cycle and 7 drifts across both clock
    // parities, so samples land inside the stretches fast-forward's
    // parked clusters sit out, not only on the 64-cycle grid.
    for case in golden::cases() {
        for interval in [1, 7, 64] {
            let (_, _, rows_ref) = run_probed(&case, ENGINES[0], interval);
            for engine in &ENGINES[1..] {
                let (_, _, rows) = run_probed(&case, *engine, interval);
                assert_eq!(
                    rows, rows_ref,
                    "{} @interval {interval}: probe stream diverges under {engine:?}",
                    case.name
                );
            }
        }
    }
}

#[test]
fn probing_does_not_change_cycle_counts() {
    for case in golden::cases() {
        let unprobed = case.builder().build().run().unwrap();
        for interval in [1, 7, 64, 1 << 20] {
            let (report, _, _) = run_probed(&case, Engine::FastForward, interval);
            assert_eq!(
                report.stats, unprobed.stats,
                "{} @interval {interval}: probed stats diverge from unprobed",
                case.name
            );
        }
    }
}

#[test]
fn race_oracle_is_silent_on_all_golden_cases() {
    // The static verifier proves every golden program race-free
    // (`crates/core/tests/verify_kernels.rs`); the dynamic oracle must
    // agree on the executions themselves, under every engine.
    for case in golden::cases() {
        for engine in ENGINES {
            let mut m = case.builder().engine(engine).build_probed(RaceCheck::new());
            m.run().expect("golden case must complete");
            assert_eq!(
                m.probe().conflicts(),
                &[],
                "{} under {engine:?}: oracle observed a conflict on a statically race-free program",
                case.name
            );
        }
    }
}

#[test]
fn race_oracle_and_static_verdict_agree_on_a_seeded_race() {
    // The same shared-accumulator kernel the static tests seed: every
    // thread read-modify-writes word 512 without `ps`.
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
    b.sw(ir(4), ir(3), 0);
    b.join();
    b.bind(done);
    b.halt();
    let prog = b.build().unwrap();

    // Static: rejected.
    let report = xmt_verify::verify(&prog);
    assert!(
        report.errors().any(|d| d.kind == xmt_verify::Kind::Race),
        "static analysis missed the seeded race:\n{report}"
    );

    // Dynamic: the oracle witnesses it on the actual execution, under
    // every engine, on the contested word.
    let cfg = golden::golden_config();
    for engine in ENGINES {
        let mut m = MachineBuilder::new(&cfg, prog.clone())
            .mem_words(1024)
            .engine(engine)
            .build_probed(RaceCheck::new());
        m.run().expect("racy program still completes");
        let conflicts = m.probe().conflicts();
        assert!(
            !conflicts.is_empty(),
            "{engine:?}: oracle observed no conflict on a racy program"
        );
        assert!(
            conflicts.iter().all(|c| c.addr == 512),
            "{engine:?}: conflict on an unexpected word: {conflicts:?}"
        );
        let c = conflicts[0];
        assert_ne!(c.first_tid, c.second_tid);
    }
}

#[test]
fn ring_overwrite_keeps_totals_and_reports_drops() {
    // A tiny ring on a long workload: rows are dropped, totals are not.
    let cases = golden::cases();
    let case = &cases[0];
    let mut m = case.builder().build_probed(IntervalProbe::new(16, 8));
    let report = m.run().unwrap();
    let probe = m.probe();
    assert!(probe.dropped() > 0, "expected ring overwrite");
    assert_eq!(probe.rows().len(), 8);
    assert_eq!(probe.totals(), report.stats);
}

#[test]
fn host_ledger_changes_nothing_and_accounts_for_the_run() {
    for case in golden::cases() {
        let plain = case.builder().build().run().expect("golden case");
        for engine in ENGINES {
            let mut m = case
                .builder()
                .engine(engine)
                .build_probed(HostLayers::new());
            let t0 = std::time::Instant::now();
            let report = m.run().expect("golden case must complete");
            let wall = t0.elapsed().as_nanos() as u64;
            assert_eq!(report.stats, plain.stats, "{} {engine:?}", case.name);
            assert_eq!(
                golden::spawn_digest(&report),
                golden::spawn_digest(&plain),
                "{} {engine:?}",
                case.name
            );
            let ledger = m.probe();
            let sum: u64 = HostLayer::ALL.iter().map(|&(l, _)| ledger.ns(l)).sum();
            assert_eq!(sum, ledger.total_ns());
            assert!(
                sum > 0 && sum <= wall,
                "{} {engine:?}: {sum} of {wall} ns",
                case.name
            );
        }
    }
}
