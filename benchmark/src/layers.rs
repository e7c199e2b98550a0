//! The per-layer probes of the traced run: each crate's public
//! functions driven on their own, on the machine and transform the
//! workload simulates, so a change to one layer has a number that moves
//! before (and explains why) an end-to-end number does.

use crate::host;
use crate::metrics::Metrics;
use crate::sim::Subject;
use crate::svc;
use parafft::{Complex32, Fft3d, FftDirection, Granularity};
use std::time::Instant;
use xmt_fft::golden::{sample_input, spawn_digest};
use xmt_fft::run::{host_reference, read_result, rel_error, run_on_interp};
use xmt_isa::DecodedProgram;
use xmt_mem::{DramChannel, DramReq, MemReq, MemoryModule};
use xmt_noc::{measure_saturation, ButterflyNetwork, MotNetwork, Network, Pattern};
use xmt_server::SimRequest;
use xmt_sim::{
    Checkpoint, Engine, Machine, RunReport, RunStatus, TraceCache, TranslationTier, UNIT_LAT,
};

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls of `f`, ms.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms_since(t)
        })
        .collect();
    crate::stats::median(&samples)
}

/// Median time of one call of `f` in µs, over `reps` batches of
/// `batch` calls (for calls too short to time singly).
fn median_us_batched<T>(reps: usize, batch: usize, mut f: impl FnMut() -> T) -> f64 {
    median_ms(reps, || {
        for _ in 0..batch {
            std::hint::black_box(f());
        }
    }) * 1e3
        / batch as f64
}

/// The subject as the request the service would be sent.
fn request_of(subject: &Subject, seed: u64) -> SimRequest {
    match subject.golden {
        Some(name) => SimRequest::golden(name).expect("golden scaling case exists"),
        None => svc::request(seed),
    }
}

/// What the sim-side probes found wrong (each is a failed check of the
/// traced run).
pub type Problems = Vec<String>;

/// `sim.*` (except the span-derived build/run split), `isa.*`, `noc.*`,
/// `mem.*`, `core.*`, `fftlib.*`, `verify.*` for `subject`.
///
/// `run_ms` is the median `Machine::run` of the subject as the caller
/// measured it (from spans); `unpinned` is the CPU mask to widen to
/// for the two measurements that need a second core.
pub fn sim_side(
    subject: &Subject,
    seed: u64,
    run_ms: f64,
    unpinned: Option<[u64; 16]>,
    m: &mut Metrics,
) -> Problems {
    let mut problems = Problems::new();
    let heavy = subject.golden.is_some();
    let reps = if heavy { 3 } else { 9 };

    // core: plan, input image, request builder
    m.put("core.plan_build_ms", median_ms(reps, || subject.plan()));
    let plan = subject.plan();
    let input = sample_input(subject.n, seed);
    m.put(
        "core.input_image_ms",
        median_ms(reps, || plan.input_image(&input)),
    );
    let req = request_of(subject, seed);
    m.put("core.request_builder_ms", median_ms(reps, || req.builder()));

    // One plain run (default engine and tier), with allocations counted.
    let (a0, b0) = host::alloc_counters();
    let mut machine = req.builder().build();
    let base = machine.run();
    let (a1, b1) = host::alloc_counters();
    m.put("sim.allocs_per_run", (a1 - a0) as f64);
    m.put("sim.alloc_kb_per_run", ((b1 - b0) / 1024) as f64);
    let report = base.report.clone();
    if !base.is_completed() {
        problems.push(format!("plain run did not complete: {:?}", base.status));
    }
    put_simulated_counts(&report, &machine, m);
    m.put("sim.kcycles_per_s", report.stats.cycles as f64 / run_ms);
    m.put(
        "sim.host_ns_per_instr",
        run_ms * 1e6 / report.stats.instructions.max(1) as f64,
    );

    // core: read-back and accuracy against the host library. The
    // request's own input wave is what `machine` ran.
    let ran_input = match subject.golden {
        Some(_) => sample_input(subject.n, 0xF0F7),
        None => input.clone(),
    };
    m.put(
        "core.read_result_ms",
        median_ms(reps, || read_result(&plan, &machine)),
    );
    let reference = host_reference(&plan, &ran_input);
    let err = rel_error(&reference, &read_result(&plan, &machine));
    m.put("core.rel_error", err);
    if err.is_nan() || err >= 1e-3 {
        problems.push(format!("read-back rel_error {err:e}"));
    }
    drop(machine);

    // sim: the same run through the other engines and tiers. Each must
    // reproduce the plain run's simulated result exactly.
    let mut same = |what: &str, r: &RunReport| {
        if r.stats != report.stats || spawn_digest(r) != spawn_digest(&report) {
            problems.push(format!("{what} run disagrees with the default engine"));
        }
    };
    let variant = |sim: xmt_sim::SimConfig| {
        let mut mach = SimRequest {
            workload: req.workload.clone(),
            sim,
        }
        .builder()
        .build();
        let t = Instant::now();
        let out = mach.run();
        (ms_since(t), out.report)
    };
    let (ms, r) = variant(req.sim.clone().engine(Engine::Reference));
    m.put("sim.reference_run_ms", ms);
    same("reference", &r);
    let (ms, r) = variant(req.sim.clone().tier(TranslationTier::Interpreter));
    m.put("sim.tier_off_run_ms", ms);
    same("tier-off", &r);
    {
        let sim = req.sim.clone().probed(64);
        let probe = sim.interval_probe().expect("probed config");
        let mut mach = SimRequest {
            workload: req.workload.clone(),
            sim,
        }
        .builder()
        .build_probed(probe);
        let t = Instant::now();
        let out = mach.run();
        m.put("sim.probed_run_ms", ms_since(t));
        same("probed", &out.report);
    }

    // The two measurements that want a second core run unpinned.
    if let Some(mask) = &unpinned {
        host::set_affinity(mask);
    }
    let (ms, r) = variant(req.sim.clone().engine(Engine::Threaded { threads: 2 }));
    m.put("sim.threaded2_run_ms", ms);
    same("threaded", &r);
    let cube = Fft3d::<f32>::cube(128, FftDirection::Forward);
    let mut data: Vec<Complex32> = sample_input(128 * 128 * 128, seed);
    m.put(
        "fftlib.fft3d_128_par2_ms",
        median_ms(3, || cube.process_par(&mut data, Granularity::Coarse)),
    );
    if unpinned.is_some() {
        host::pin_to_one_cpu();
    }
    m.put(
        "fftlib.fft3d_128_ms",
        median_ms(3, || cube.process(&mut data)),
    );
    drop(data);

    sliced(&req, subject, &report, m, &mut problems);

    // fftlib: the host reference of the subject's transform
    let ref_ms = median_ms(reps.max(5), || host_reference(&plan, &ran_input));
    m.put("fftlib.reference_ms", ref_ms);
    let flops = 5.0 * subject.n as f64 * (subject.n as f64).log2();
    m.put("fftlib.gflops", flops / (ref_ms * 1e6));

    // isa: the functional floor (same program, no timing model), and
    // the two passes a machine build runs over the program
    let t = Instant::now();
    let interp = run_on_interp(&plan, &ran_input);
    let interp_ms = ms_since(t);
    m.put("isa.interp_ms", interp_ms);
    match interp {
        Ok(run) => {
            m.put(
                "isa.interp_minstr_per_s",
                run.stats.instructions as f64 / (interp_ms * 1e3),
            );
            if run.stats.instructions != report.stats.instructions {
                problems.push("interpreter and simulator disagree on the instruction count".into());
            }
        }
        Err(e) => {
            m.put("isa.interp_minstr_per_s", 0.0);
            problems.push(format!("interpreter: {e:?}"));
        }
    }
    m.put(
        "isa.decode_ms",
        median_ms(reps, || DecodedProgram::new(&plan.program)),
    );
    let decoded = DecodedProgram::new(&plan.program);
    m.put(
        "isa.lower_all_ms",
        median_ms(reps, || {
            let mut cache = TraceCache::new(&decoded, UNIT_LAT.fpu as u64, UNIT_LAT.mdu as u64);
            cache.lower_all(&decoded);
            cache
        }),
    );
    m.put("isa.program_instrs", plan.program.len() as f64);

    // verify: what CI pays for this program
    let t = Instant::now();
    let lint = xmt_verify::verify(&plan.program);
    m.put("verify.lint_ms", ms_since(t));
    if !lint.is_clean() {
        problems.push("xmt_verify::verify reports errors on the workload's program".into());
    }
    let t = Instant::now();
    let tv = xmt_verify::transval::validate_program(plan.program.instrs(), UNIT_LAT);
    m.put("verify.transval_ms", ms_since(t));
    if let Err(e) = tv {
        problems.push(format!("translation validation: {e}"));
    }

    noc_and_mem(subject, &report, run_ms, m);
    problems
}

/// The simulated statistics: identical under any simulator-speed
/// change, for any seed.
fn put_simulated_counts(r: &RunReport, machine: &Machine, m: &mut Metrics) {
    let s = &r.stats;
    m.put("sim.cycles", s.cycles as f64);
    m.put("sim.instructions", s.instructions as f64);
    m.put("sim.flops", s.flops as f64);
    m.put("sim.mem_reads", s.mem_reads as f64);
    m.put("sim.mem_writes", s.mem_writes as f64);
    m.put(
        "sim.dram_bytes",
        r.spawns.iter().map(|sp| sp.dram_bytes).sum::<u64>() as f64,
    );
    m.put("sim.spawns", s.spawns as f64);
    m.put("sim.threads", s.threads as f64);
    m.put("sim.stall_scoreboard", s.stall_scoreboard as f64);
    m.put("sim.stall_fpu", s.stall_fpu as f64);
    m.put("sim.stall_mdu", s.stall_mdu as f64);
    m.put("sim.stall_lsu", s.stall_lsu as f64);
    let ts = machine.trace_stats().unwrap_or_default();
    m.put("sim.trace_uops", ts.uops as f64);
    // As `bench_sim` defines it: entries (branch landings plus thread
    // activations) that found their block already lowered.
    let entries = ts.entries + s.threads;
    m.put(
        "sim.trace_hit_rate",
        if entries == 0 {
            1.0
        } else {
            entries.saturating_sub(ts.lowered) as f64 / entries as f64
        },
    );
}

/// Run the request the way a worker does: a quantum at a time, the
/// machine rebuilt from the request and resumed from checkpoint bytes
/// at every slice.
fn sliced(
    req: &SimRequest,
    subject: &Subject,
    whole: &RunReport,
    m: &mut Metrics,
    problems: &mut Problems,
) {
    // A run pauses only where it is quiescent (between spawns), so a
    // paper-scale plan yields at most one slice per stage however small
    // the quantum.
    let quantum = match subject.golden {
        Some(_) => whole.stats.cycles / 8 + 1,
        None => svc::QUANTUM,
    };
    let (mut encode, mut decode, mut resume) = (Vec::new(), Vec::new(), Vec::new());
    let mut cp_bytes: Option<Vec<u8>> = None;
    let mut first_len = 0usize;
    let t_all = Instant::now();
    let last = loop {
        let cp = cp_bytes.as_deref().map(|b| {
            let t = Instant::now();
            let cp = Checkpoint::from_bytes(b);
            decode.push(ms_since(t));
            cp
        });
        let builder = req.builder();
        let (mut mach, target) = match cp {
            Some(Ok(cp)) => {
                let t = Instant::now();
                let mach = builder.resume(&cp);
                resume.push(ms_since(t));
                match mach {
                    Ok(mach) => (mach, cp.cycle().saturating_add(quantum)),
                    Err(e) => {
                        problems.push(format!("resume: {e}"));
                        break None;
                    }
                }
            }
            Some(Err(e)) => {
                problems.push(format!("checkpoint decode: {e}"));
                break None;
            }
            None => (builder.build(), quantum),
        };
        let out = mach.run_until(target);
        match out.status {
            RunStatus::Paused { .. } => {
                let t = Instant::now();
                let bytes = mach.checkpoint_bytes();
                encode.push(ms_since(t));
                match bytes {
                    Ok(b) => {
                        if first_len == 0 {
                            first_len = b.len();
                        }
                        cp_bytes = Some(b);
                    }
                    Err(e) => {
                        problems.push(format!("checkpoint: {e}"));
                        break None;
                    }
                }
            }
            _ => break Some(out.report),
        }
    };
    m.put("sim.sliced_run_ms", ms_since(t_all));
    let med = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(v)
        }
    };
    m.put("sim.checkpoint_encode_ms", med(&encode));
    m.put("sim.checkpoint_decode_ms", med(&decode));
    m.put("sim.resume_ms", med(&resume));
    m.put("sim.checkpoint_bytes", first_len as f64);
    match last {
        Some(r) if r.stats == whole.stats && spawn_digest(&r) == spawn_digest(whole) => {}
        // The service's own job must slice bit-identically: the service
        // workloads' byte checks stand on it. On the paper-scale plans a
        // disagreement is printed, not failed: `fft_xmt64k_n8192` resumed
        // from a checkpoint ends 9 to 17 cycles early at the commit this
        // benchmark was defined on, which is the simulator's to fix.
        Some(r) if subject.golden.is_some() => println!(
            "  NOTE: sliced run ends at cycle {}, uninterrupted at {} — slicing is not bit-identical here",
            r.stats.cycles, whole.stats.cycles
        ),
        Some(_) => problems.push("sliced run disagrees with the uninterrupted run".into()),
        None => {}
    }
    if encode.is_empty() {
        problems.push("sliced run never paused".into());
    }
}

/// The subject's interconnect and memory side, driven standalone, and
/// the share of the run they would account for at those unit costs.
fn noc_and_mem(subject: &Subject, report: &RunReport, run_ms: f64, m: &mut Metrics) {
    let topo = subject.arch.topology();
    let s = &report.stats;
    let accesses = (s.mem_reads + s.mem_writes) as f64;
    // Flits the run offered each of its two networks per cycle, on
    // average (every access is one request flit and one reply flit).
    let offered = accesses / s.cycles.max(1) as f64;
    const WARMUP: u64 = 100;
    const MEASURE: u64 = 400;
    /// (ns per saturated cycle, ns per idle cycle, ns per cycle at
    /// `offered` flits a cycle, flits delivered per saturated cycle)
    fn drive<N: Network>(mut net: N, offered: f64) -> (f64, f64, f64, f64) {
        let (srcs, dsts) = net.ports();
        let t = Instant::now();
        let sat = measure_saturation(&mut net, Pattern::Uniform, WARMUP, MEASURE);
        let sat_ns = t.elapsed().as_secs_f64() * 1e9 / (WARMUP + MEASURE) as f64;
        let mut out = Vec::new();
        let mut drain = |net: &mut N| {
            while net.in_flight() > 0 {
                out.clear();
                net.step_into(&mut out);
            }
        };
        drain(&mut net);
        let mut out = Vec::new();
        let t = Instant::now();
        for _ in 0..4 * MEASURE {
            out.clear();
            net.step_into(&mut out);
        }
        let idle_ns = t.elapsed().as_secs_f64() * 1e9 / (4 * MEASURE) as f64;
        // The run's own mean load, spread round-robin over the sources.
        let (mut due, mut src, mut tag) = (0.0f64, 0usize, 0u64);
        let t = Instant::now();
        for cycle in 0..4 * MEASURE {
            due += offered;
            while due >= 1.0 {
                due -= 1.0;
                net.try_inject(xmt_noc::Flit {
                    src,
                    dst: Pattern::Uniform.dst(src, dsts, cycle),
                    tag,
                });
                src = (src + 1) % srcs;
                tag += 1;
            }
            out.clear();
            net.step_into(&mut out);
        }
        let load_ns = t.elapsed().as_secs_f64() * 1e9 / (4 * MEASURE) as f64;
        (sat_ns, idle_ns, load_ns, sat.throughput * dsts as f64)
    }
    let runs: Vec<(f64, f64, f64, f64)> = (0..3)
        .map(|_| {
            if topo.is_nonblocking() {
                drive(MotNetwork::new(topo), offered)
            } else {
                drive(ButterflyNetwork::new(topo), offered)
            }
        })
        .collect();
    let med = |f: fn(&(f64, f64, f64, f64)) -> f64| {
        crate::stats::median(&runs.iter().map(f).collect::<Vec<_>>())
    };
    m.put("noc.sat_ns_per_cycle", med(|r| r.0));
    m.put("noc.idle_ns_per_cycle", med(|r| r.1));
    m.put("noc.sat_flits_per_cycle", runs[0].3);
    // Both networks, every simulated cycle, at the cost of a cycle
    // carrying the run's mean load. An upper estimate where the engine
    // skips quiet cycles.
    m.put(
        "noc.est_share",
        2.0 * med(|r| r.2) * s.cycles as f64 / (run_ms * 1e6),
    );

    // mem: one module on a resident working set (the bank's service
    // cost), one channel on a queue of fills, both idle, and a
    // sequential stream through the pair for the hit rate.
    const REQS: u64 = 100_000;
    let cache = subject.arch.cache;
    let module_ns = crate::stats::median(
        &(0..3)
            .map(|_| {
                let mut module = MemoryModule::new(0, cache);
                let (mut chan_out, mut resp) = (Vec::new(), Vec::new());
                let resident = (cache.lines * cache.line_words / 2) as u64;
                let t = Instant::now();
                let mut answered = 0u64;
                let mut sent = 0u64;
                // Misses on the first pass are never filled (no channel
                // here); they are a vanishing share of REQS.
                while sent < REQS || module.is_active() {
                    if sent < REQS {
                        module.enqueue(MemReq {
                            addr: (sent % resident) as u32,
                            is_write: sent % 4 == 3,
                            tag: sent,
                        });
                        sent += 1;
                    }
                    module.step(&mut chan_out, &mut resp);
                    answered += resp.len() as u64;
                    resp.clear();
                    chan_out.clear();
                }
                std::hint::black_box(answered);
                t.elapsed().as_secs_f64() * 1e9 / REQS as f64
            })
            .collect::<Vec<_>>(),
    );
    m.put("mem.module_ns_per_req", module_ns);
    let dram_ns = crate::stats::median(
        &(0..3)
            .map(|_| {
                let mut chan = DramChannel::new(subject.arch.dram);
                const FILLS: u64 = 20_000;
                let t = Instant::now();
                for i in 0..FILLS {
                    chan.enqueue(DramReq {
                        line: i as u32,
                        is_write: i % 4 == 3,
                        tag: i,
                    });
                }
                let mut done = 0u64;
                while done < FILLS {
                    done += u64::from(chan.step().is_some());
                }
                t.elapsed().as_secs_f64() * 1e9 / FILLS as f64
            })
            .collect::<Vec<_>>(),
    );
    m.put("mem.dram_ns_per_req", dram_ns);
    let idle_step_ns = {
        let mut module = MemoryModule::new(0, cache);
        let mut chan = DramChannel::new(subject.arch.dram);
        let (mut chan_out, mut resp) = (Vec::new(), Vec::new());
        median_us_batched(5, 100_000, || {
            module.step(&mut chan_out, &mut resp);
            chan.step()
        }) * 1e3
    };
    m.put("mem.idle_ns_per_step", idle_step_ns);
    let hit_rate = {
        let mut module = MemoryModule::new(0, cache);
        let mut chan = DramChannel::new(subject.arch.dram);
        let (mut chan_out, mut resp) = (Vec::new(), Vec::new());
        const STREAM: u64 = 20_000;
        let (mut sent, mut answered) = (0u64, 0u64);
        while answered < STREAM {
            if sent < STREAM {
                module.enqueue(MemReq {
                    addr: sent as u32,
                    is_write: false,
                    tag: sent,
                });
                sent += 1;
            }
            module.step(&mut chan_out, &mut resp);
            for cr in chan_out.drain(..) {
                chan.enqueue(cr.req);
            }
            if let Some(done) = chan.step() {
                module.on_fill(done);
            }
            answered += resp.len() as u64;
            resp.clear();
        }
        let st = module.bank().stats;
        st.hits as f64 / (st.hits + st.misses).max(1) as f64
    };
    m.put("mem.stream_hit_rate", hit_rate);
    let dram_lines = report.spawns.iter().map(|sp| sp.dram_bytes).sum::<u64>() as f64
        / subject.arch.dram.line_bytes as f64;
    m.put(
        "mem.est_share",
        (module_ns * accesses + dram_ns * dram_lines) / (run_ms * 1e6),
    );
}

/// `server.*` that need no running service: the codecs, the cache and
/// the journal on their own, on the service workloads' request and its
/// report.
pub fn server_standalone(seed: u64, m: &mut Metrics) -> Problems {
    let mut problems = Problems::new();
    let req = svc::request(seed);
    let report = req.builder().build().run().report;
    let req_bytes = xmt_server::encode_request(&req);
    let rep_bytes = xmt_server::encode_report(&report);
    m.put("server.request_bytes", req_bytes.len() as f64);
    m.put("server.report_bytes", rep_bytes.len() as f64);
    m.put(
        "server.encode_request_us",
        median_us_batched(5, 2000, || xmt_server::encode_request(&req)),
    );
    m.put(
        "server.decode_request_us",
        median_us_batched(5, 2000, || xmt_server::decode_request(&req_bytes)),
    );
    m.put(
        "server.encode_report_us",
        median_us_batched(5, 2000, || xmt_server::encode_report(&report)),
    );
    m.put(
        "server.decode_report_us",
        median_us_batched(5, 2000, || xmt_server::decode_report(&rep_bytes)),
    );
    if xmt_server::decode_request(&req_bytes).ok().as_ref() != Some(&req) {
        problems.push("request does not survive its wire codec".into());
    }

    // cache: inserts past capacity (every cold job evicts), then hits
    let mut cache = xmt_server::ResultCache::new(64, None);
    let mut key = 0u64;
    m.put(
        "server.cache_insert_us",
        median_us_batched(5, 2000, || {
            key += 1;
            cache.insert(key, rep_bytes.clone(), report.stats.cycles)
        }),
    );
    let newest = key;
    m.put(
        "server.cache_get_us",
        median_us_batched(5, 2000, || cache.get(newest)),
    );

    // journal: one checkpoint commit appended and fsynced where the
    // workload's journal lives, and a replay of a journal of such jobs
    let path = svc::out_dir().join(format!("journal-probe-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    match xmt_server::Journal::open(&path) {
        Err(e) => {
            problems.push(format!("journal open: {e}"));
            m.put("server.journal_append_us", 0.0);
            m.put("server.journal_replay_ms", 0.0);
        }
        Ok(mut journal) => {
            use xmt_server::journal::Record;
            let checkpoint = {
                let mut mach = req.builder().build();
                let _ = mach.run_until(svc::QUANTUM);
                mach.checkpoint_bytes().unwrap_or_default()
            };
            const JOBS: u64 = 50;
            let mut appends = Vec::new();
            for id in 0..JOBS {
                let recs = [
                    Record::Submit {
                        id,
                        tenant: "default".into(),
                        lane: xmt_server::Lane::Normal,
                        token: id + 1,
                        req: req_bytes.clone(),
                    },
                    Record::Commit {
                        id,
                        at_cycle: svc::QUANTUM,
                        checkpoint: checkpoint.clone(),
                    },
                    Record::Done {
                        id,
                        slices: 5,
                        from_cache: false,
                        report: rep_bytes.clone(),
                    },
                ];
                for (i, rec) in recs.iter().enumerate() {
                    let t = Instant::now();
                    let r = journal.append(rec);
                    if i == 1 {
                        appends.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    if let Err(e) = r {
                        problems.push(format!("journal append: {e}"));
                    }
                }
            }
            m.put("server.journal_append_us", crate::stats::median(&appends));
            drop(journal);
            let t = Instant::now();
            let replay = xmt_server::Journal::replay(&path);
            m.put("server.journal_replay_ms", ms_since(t));
            match replay {
                Ok(r) if r.jobs.len() as u64 == JOBS => {}
                Ok(r) => problems.push(format!(
                    "journal replay found {} of {JOBS} jobs",
                    r.jobs.len()
                )),
                Err(e) => problems.push(format!("journal replay: {e}")),
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    problems
}
