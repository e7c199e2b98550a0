//! Failure injection: starve each resource of the simulated machine in
//! turn — one DRAM channel for everything, a single tiny cache, minimal
//! interconnect, one cluster — and check that *functional* results are
//! bit-identical to the untimed interpreter while timing degrades in
//! the expected direction. Timing models must never change semantics.

use parafft::Complex32;
use xmt_fft::plan::XmtFftPlan;
use xmt_fft::run::{host_reference, rel_error, run_on_machine};
use xmt_integration::sample32;
use xmt_mem::{CacheConfig, DramConfig};
use xmt_sim::XmtConfig;

/// A deliberately starved machine: 2 clusters, minimal cache, one slow
/// DRAM channel shared by every module.
fn starved() -> XmtConfig {
    let mut cfg = XmtConfig::xmt_4k().scaled_to(2);
    cfg.cache = CacheConfig {
        lines: 32,
        ways: 2,
        line_words: 8,
        hit_latency: 2,
    };
    cfg.mm_per_dram_ctrl = cfg.memory_modules;
    cfg.dram = DramConfig {
        bytes_per_cycle: 2.0,
        access_latency: 150,
        line_bytes: 32,
    };
    cfg
}

#[test]
fn fft_correct_under_memory_starvation() {
    let n = 256usize;
    let plan = XmtFftPlan::new_1d(n, 2);
    let x: Vec<Complex32> = sample32(n, 42);
    let healthy = run_on_machine(&plan, &XmtConfig::xmt_4k().scaled_to(2), &x).unwrap();
    let starvedr = run_on_machine(&plan, &starved(), &x).unwrap();

    // Bit-identical numerics regardless of the memory system.
    for (a, b) in healthy.output.iter().zip(&starvedr.output) {
        assert_eq!(a.re.to_bits(), b.re.to_bits());
        assert_eq!(a.im.to_bits(), b.im.to_bits());
    }
    assert!(rel_error(&host_reference(&plan, &x), &starvedr.output) < 1e-3);

    // And measurably slower: capacity misses + one slow channel.
    assert!(
        starvedr.report.stats.cycles as f64 > 1.3 * healthy.report.stats.cycles as f64,
        "starved {} vs healthy {}",
        starvedr.report.stats.cycles,
        healthy.report.stats.cycles
    );
    // The tiny cache forces real DRAM traffic.
    let starved_dram: u64 = starvedr.report.spawns.iter().map(|s| s.dram_bytes).sum();
    let healthy_dram: u64 = healthy.report.spawns.iter().map(|s| s.dram_bytes).sum();
    assert!(starved_dram > healthy_dram);
}

#[test]
fn single_cluster_machine_still_correct() {
    let cfg = XmtConfig::xmt_4k().scaled_to(1);
    let plan = XmtFftPlan::new_2d(16, 16, 1);
    let x = sample32(256, 7);
    let run = run_on_machine(&plan, &cfg, &x).unwrap();
    assert!(rel_error(&host_reference(&plan, &x), &run.output) < 1e-3);
    // All 32 TCUs of the single cluster were exercised by >32 threads.
    assert_eq!(run.report.stats.threads, plan.total_threads());
}

#[test]
fn dram_latency_spike_only_slows() {
    let n = 512usize;
    let plan = XmtFftPlan::new_1d(n, 2);
    let x = sample32(n, 3);
    let mut slow = XmtConfig::xmt_4k().scaled_to(4);
    slow.dram = DramConfig {
        access_latency: 1000,
        ..slow.dram
    };
    // Make data not fit in cache so latency actually matters.
    slow.cache = CacheConfig {
        lines: 16,
        ways: 2,
        line_words: 8,
        hit_latency: 2,
    };
    let mut fast = XmtConfig::xmt_4k().scaled_to(4);
    fast.cache = slow.cache;
    let r_slow = run_on_machine(&plan, &slow, &x).unwrap();
    let r_fast = run_on_machine(&plan, &fast, &x).unwrap();
    for (a, b) in r_slow.output.iter().zip(&r_fast.output) {
        assert_eq!(a.re.to_bits(), b.re.to_bits());
    }
    assert!(r_slow.report.stats.cycles > r_fast.report.stats.cycles);
}

#[test]
fn deep_blocking_network_only_slows() {
    // Maximum butterfly depth on a scaled hybrid vs pure MoT: same
    // results, more cycles per delivered word under contention.
    let n = 1024usize;
    let plan = XmtFftPlan::new_1d(n, 4);
    let x = sample32(n, 11);
    let moty = XmtConfig::xmt_8k().scaled_to(8); // pure MoT
    let hybrid = XmtConfig::xmt_128k_x4().scaled_to(8); // blocking levels
    assert!(hybrid.butterfly_levels > 0);
    let a = run_on_machine(&plan, &moty, &x).unwrap();
    let b = run_on_machine(&plan, &hybrid, &x).unwrap();
    for (p, q) in a.output.iter().zip(&b.output) {
        assert_eq!(p.re.to_bits(), q.re.to_bits());
        assert_eq!(p.im.to_bits(), q.im.to_bits());
    }
}

#[test]
fn zero_thread_spawn_is_a_clean_noop() {
    use xmt_isa::reg::ir;
    let mut b = xmt_isa::ProgramBuilder::new();
    let par = b.label();
    let after = b.label();
    b.li(ir(1), 0);
    b.spawn(ir(1), par);
    b.jump(after);
    b.bind(par);
    b.tid(ir(2));
    b.sw(ir(2), ir(2), 0);
    b.join();
    b.bind(after);
    b.li(ir(3), 1).sw(ir(3), ir(0), 8);
    b.halt();
    let prog = b.build().unwrap();
    let mut m = xmt_sim::SimConfig::new(&XmtConfig::xmt_4k().scaled_to(2))
        .builder(prog)
        .mem_words(16)
        .build();
    let s = m.run().unwrap();
    assert_eq!(s.stats.threads, 0);
    assert_eq!(m.mem[8], 1, "serial code after the empty spawn still runs");
    assert_eq!(m.mem[0], 0, "no thread ran");
}
