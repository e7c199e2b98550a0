//! Property tests of the substrates: interconnect delivery guarantees,
//! address-hash structure, memory-module ordering, DRAM accounting,
//! and ISA interpreter/simulator agreement on random straight-line
//! programs.

use proptest::prelude::*;
use xmt_mem::{AddressHash, CacheConfig, DramChannel, DramConfig, DramReq, MemReq, MemoryModule};
use xmt_noc::{
    build_network, measure_saturation, ButterflyNetwork, Flit, MotNetwork, NetStats, Network,
    Pattern, Topology,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mot_delivers_every_flit_exactly_once(
        seed in 0u64..10_000,
        log_ports in 2u32..6,
        rounds in 1usize..30,
    ) {
        let ports = 1usize << log_ports;
        let mut net = MotNetwork::new(Topology::pure_mot(ports, ports));
        let mut injected = Vec::new();
        for round in 0..rounds {
            for s in 0..ports {
                let mut z = seed
                    .wrapping_add((round * ports + s) as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z ^= z >> 31;
                let f = Flit { src: s, dst: (z as usize) % ports, tag: (round * ports + s) as u64 };
                if net.try_inject(f) {
                    injected.push(f.tag);
                }
            }
            for d in net.step() {
                let pos = injected.iter().position(|&t| t == d.flit.tag);
                prop_assert!(pos.is_some(), "delivered unknown or duplicate tag");
                injected.swap_remove(pos.unwrap());
            }
        }
        let mut guard = 0;
        while net.in_flight() > 0 && guard < 10_000 {
            for d in net.step() {
                let pos = injected.iter().position(|&t| t == d.flit.tag);
                prop_assert!(pos.is_some());
                injected.swap_remove(pos.unwrap());
            }
            guard += 1;
        }
        prop_assert!(injected.is_empty(), "{} flits lost", injected.len());
    }

    #[test]
    fn butterfly_delivers_every_flit_exactly_once(
        seed in 0u64..10_000,
        stages in 1u32..4,
        rounds in 1usize..20,
    ) {
        let ports = 16usize;
        let topo = Topology::hybrid(ports, ports, 8 - stages, stages);
        let mut net = ButterflyNetwork::new(topo);
        let mut outstanding = 0u64;
        let mut delivered = 0u64;
        for round in 0..rounds {
            for s in 0..ports {
                let mut z = seed.wrapping_add((round * 31 + s) as u64)
                    .wrapping_mul(0x2545_F491_4F6C_DD1D);
                z ^= z >> 29;
                let f = Flit { src: s, dst: (z as usize) % ports, tag: z };
                if net.try_inject(f) {
                    outstanding += 1;
                }
            }
            delivered += net.step().len() as u64;
        }
        let mut guard = 0;
        while net.in_flight() > 0 && guard < 20_000 {
            delivered += net.step().len() as u64;
            guard += 1;
        }
        prop_assert_eq!(delivered, outstanding);
    }

    #[test]
    fn address_hash_line_atomicity_and_balance(
        log_modules in 1u32..8,
        lines in 64usize..512,
    ) {
        let modules = 1usize << log_modules;
        let h = AddressHash::new(modules, 8);
        let mut counts = vec![0usize; modules];
        for line in 0..lines {
            let base = (line * 8) as u32;
            let m = h.module_of(base);
            // Whole line maps to one module.
            for off in 1..8u32 {
                prop_assert_eq!(h.module_of(base + off), m);
            }
            counts[m] += 1;
        }
        // No module gets everything (unless there is only one).
        if modules > 1 && lines >= 4 * modules {
            let max = counts.iter().max().unwrap();
            prop_assert!(*max < lines, "all lines on one module");
        }
    }

    #[test]
    fn memory_module_conserves_requests(n_reqs in 1usize..60, seed in 0u64..1000) {
        let mut module = MemoryModule::new(
            0,
            CacheConfig { lines: 16, ways: 4, line_words: 8, hit_latency: 2 },
        );
        let mut chan = DramChannel::new(DramConfig {
            bytes_per_cycle: 8.0,
            access_latency: 5,
            line_bytes: 32,
        });
        for i in 0..n_reqs {
            let mut z = seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z ^= z >> 33;
            module.enqueue(MemReq {
                addr: (z % 4096) as u32,
                is_write: z & 1 == 1,
                tag: i as u64,
            });
        }
        let mut responses = Vec::new();
        for _ in 0..20_000 {
            let mut creqs = Vec::new();
            let mut resps = Vec::new();
            module.step(&mut creqs, &mut resps);
            responses.extend(resps.into_iter().map(|r| r.req.tag));
            for cr in creqs {
                chan.enqueue(DramReq { tag: cr.module as u64, ..cr.req });
            }
            if let Some(done) = chan.step() {
                module.on_fill(done);
            }
            if module.outstanding() == 0 && chan.pending() == 0 {
                break;
            }
        }
        responses.sort_unstable();
        let expect: Vec<u64> = (0..n_reqs as u64).collect();
        prop_assert_eq!(responses, expect, "every request answered exactly once");
    }

    #[test]
    fn dram_byte_accounting(xfers in 1usize..40) {
        let cfg = DramConfig { bytes_per_cycle: 8.0, access_latency: 3, line_bytes: 32 };
        let mut chan = DramChannel::new(cfg);
        for i in 0..xfers {
            chan.enqueue(DramReq { line: i as u32, is_write: i % 3 == 0, tag: i as u64 });
        }
        let mut done = 0;
        let mut guard = 0;
        while done < xfers && guard < 100_000 {
            if chan.step().is_some() {
                done += 1;
            }
            guard += 1;
        }
        prop_assert_eq!(done, xfers);
        prop_assert_eq!(chan.stats.bytes, 32 * xfers as u64);
        prop_assert_eq!((chan.stats.reads + chan.stats.writes) as usize, xfers);
    }
}

#[test]
fn hotspot_vs_spread_traffic_on_mot() {
    // The same-address serialization the paper works around with
    // twiddle replication: hotspot throughput is 1/ports of spread.
    let ports = 16;
    let mut hot = MotNetwork::new(Topology::pure_mot(ports, ports));
    let s_hot = measure_saturation(&mut hot, Pattern::Hotspot(0), 50, 300);
    let mut spread = MotNetwork::new(Topology::pure_mot(ports, ports));
    let s_spread = measure_saturation(&mut spread, Pattern::Uniform, 50, 300);
    assert!(s_spread.throughput > s_hot.throughput * 8.0);
}

#[test]
fn build_network_polymorphism() {
    for topo in [Topology::pure_mot(8, 8), Topology::hybrid(8, 8, 2, 3)] {
        let mut n = build_network(topo);
        assert!(n.try_inject(Flit {
            src: 1,
            dst: 5,
            tag: 0
        }));
        let mut delivered = 0;
        for _ in 0..50 {
            delivered += n.step().len();
        }
        assert_eq!(delivered, 1);
    }
}

/// EXPERIMENTS.md's "Interconnect saturation" table, recomputed the way
/// `cargo run --release -p xmt-noc --example saturation_probe` measures
/// it: saturation throughput of the blocking butterfly under hashed
/// (uniform) and transpose traffic, at the three decimals printed
/// there. Release only (`--include-ignored`): 2048 ports for 1200
/// cycles is slow unoptimised.
#[test]
#[ignore]
fn experiments_saturation_table_is_reproduced() {
    let rows = [
        (128usize, 3, "0.682", "0.125"),
        (128, 7, "0.639", "0.106"),
        (1024, 7, "0.637", "0.031"),
        (2048, 7, "0.635", "0.027"),
        (2048, 9, "0.622", "0.027"),
    ];
    for (ports, b, hashed, transpose) in rows {
        let bits = ports.trailing_zeros();
        let topo = Topology::hybrid(ports, ports, 2 * bits - b, b);
        let measure = |pattern| {
            let mut net = ButterflyNetwork::new(topo);
            let s = measure_saturation(&mut net, pattern, 300, 900);
            format!("{:.3}", s.throughput)
        };
        assert_eq!(
            (measure(Pattern::Uniform), measure(Pattern::Transpose)),
            (hashed.to_string(), transpose.to_string()),
            "ports={ports} b={b}"
        );
    }
}

// ---------------------------------------------------------------------
// Component pins. The NoC and memory-module models are otherwise
// bit-pinned only through whole-machine goldens; these drive each one
// alone with a seeded schedule and pin an FNV-1a hash of everything it
// emits plus its final statistics. The constants were captured before
// the memory side moved off heaps and hash maps, and hold after it.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Step `net` once, hashing the deliveries in the order it emits them.
fn step_hashed(net: &mut dyn Network, h: &mut Fnv) {
    for d in net.step() {
        for w in [d.flit.src as u64, d.flit.dst as u64, d.flit.tag] {
            h.word(w);
        }
        h.word(d.injected_at);
        h.word(d.delivered_at);
    }
}

/// Drain `net` by `next_event` + `skip_idle` jumps, then idle it for
/// `tail` more cycles in one skip (odd and even tails flip or keep the
/// butterfly's clock-parity arbitration).
fn drain_by_events(net: &mut dyn Network, h: &mut Fnv, tail: u64) {
    while let Some(e) = net.next_event() {
        assert!(e > net.cycle(), "next_event in the past");
        if e > net.cycle() + 1 {
            net.skip_idle(e - net.cycle() - 1);
        }
        h.word(net.cycle());
        step_hashed(net, h);
    }
    assert_eq!(net.in_flight(), 0);
    net.skip_idle(tail);
}

/// Seeded schedule: saturating bursts (optionally three quarters of
/// them at one hot destination, every source also trying a second,
/// always-refused injection), sparse traffic, then event-driven drains
/// with an odd and an even idle tail. Destinations other than `hot`
/// are drawn from ports `0..dsts`. Returns the delivery hash, the final
/// stats and how many first injections backpressure refused.
fn pin_network(
    net: &mut dyn Network,
    seed: u64,
    hot: Option<usize>,
    dsts: usize,
) -> (u64, NetStats, u64) {
    let srcs = net.ports().0;
    assert!(dsts <= net.ports().1);
    let mut h = Fnv::new();
    let mut refused = 0u64;
    let mut rng = seed | 1;
    let mut tag = 0u64;
    for round in 0..6u64 {
        let burst = 24 + (round % 3) * 8;
        for _ in 0..burst {
            for src in 0..srcs {
                let r = xorshift(&mut rng);
                let dst = match hot {
                    Some(d) if r & 3 != 0 => d,
                    _ => (r >> 8) as usize % dsts,
                };
                if net.try_inject(Flit { src, dst, tag }) {
                    tag += 1;
                    assert!(!net.try_inject(Flit { src, dst, tag }), "two flits a cycle");
                } else {
                    refused += 1;
                }
            }
            step_hashed(net, &mut h);
        }
        for _ in 0..40 {
            for src in 0..srcs {
                let r = xorshift(&mut rng);
                if r & 7 == 0
                    && net.try_inject(Flit {
                        src,
                        dst: (r >> 8) as usize % dsts,
                        tag,
                    })
                {
                    tag += 1;
                }
            }
            step_hashed(net, &mut h);
        }
        drain_by_events(net, &mut h, 3 + round);
    }
    h.word(net.cycle());
    (h.0, net.stats(), refused)
}

fn net_stats(
    injected: u64,
    delivered: u64,
    total_latency: u64,
    peak_in_flight: usize,
    inject_rejections: u64,
) -> NetStats {
    NetStats {
        injected,
        delivered,
        total_latency,
        peak_in_flight,
        inject_rejections,
        ..NetStats::default()
    }
}

#[test]
fn mot_16_is_pinned() {
    let mut net = MotNetwork::new(Topology::pure_mot(16, 16));
    let (hash, stats, refused) = pin_network(&mut net, 0x5eed_0001, None, 16);
    assert_eq!(refused, 0, "a MoT source port is never backpressured");
    assert_eq!(
        (hash, stats),
        (2456153032161054724, net_stats(3523, 3523, 36730, 187, 3072))
    );
}

#[test]
fn mot_256_hot_destination_is_pinned() {
    let mut net = MotNetwork::new(Topology::pure_mot(256, 256));
    let (hash, stats, refused) = pin_network(&mut net, 0x5eed_0002, Some(77), 256);
    assert_eq!(refused, 0, "a MoT source port is never backpressured");
    assert_eq!(
        (hash, stats),
        (
            10019025269528492511,
            net_stats(56837, 56837, 118953331, 8689, 49152)
        )
    );
}

#[test]
fn butterfly_64_is_pinned() {
    let mut net = ButterflyNetwork::new(Topology::hybrid(64, 64, 2, 4));
    let (hash, stats, refused) = pin_network(&mut net, 0x5eed_0003, Some(5), 64);
    assert!(refused > 0, "qcap never reached");
    assert_eq!(
        (hash, stats, net.stalls),
        (
            18322208225237124455,
            net_stats(7670, 7670, 2595306, 1083, 13695),
            75221
        )
    );
}

#[test]
fn butterfly_2048_is_pinned() {
    let mut net = ButterflyNetwork::new(Topology::hybrid(2048, 2048, 8, 7));
    let (hash, stats, refused) = pin_network(&mut net, 0x5eed_0004, None, 2048);
    assert!(refused > 0, "qcap never reached");
    assert_eq!(
        (hash, stats, net.stalls),
        (
            15277082539148432691,
            net_stats(436118, 436118, 12848809, 51529, 393542),
            715715
        )
    );
}

/// The reply network of `fft_xmt64k_n8192`: its 8 192 threads fill
/// clusters 0-255, so every module answers toward the low eighth of
/// the ports: all flits take the same output through the first three
/// stages, and contend there.
#[test]
fn butterfly_2048_confined_is_pinned() {
    let mut net = ButterflyNetwork::new(Topology::hybrid(2048, 2048, 8, 7));
    let (hash, stats, refused) = pin_network(&mut net, 0x5eed_0006, None, 256);
    assert_eq!(
        (hash, stats, net.stalls, refused),
        (
            7521874701086861547,
            net_stats(233282, 233282, 28211695, 34137, 436550),
            2516874,
            178221
        )
    );
}

/// Seeded schedule whose hot destination moves every 64 cycles, as
/// the hot module of a dense FFT moves from stage to stage: each cycle
/// every source tries one injection with probability 1/4, three
/// quarters of them at the current hot port, the rest uniform. Two
/// rounds of 16 moves, each drained by events, so one port's backlog
/// drains while the next one's builds. Returns what [`pin_network`]
/// does.
fn pin_moving_hot(net: &mut dyn Network, seed: u64) -> (u64, NetStats, u64) {
    let (srcs, dsts) = net.ports();
    let mut h = Fnv::new();
    let mut refused = 0u64;
    let mut rng = seed | 1;
    let mut tag = 0u64;
    for round in 0..2u64 {
        for _ in 0..16 {
            let hot = xorshift(&mut rng) as usize % dsts;
            for _ in 0..64 {
                for src in 0..srcs {
                    let r = xorshift(&mut rng);
                    if r & 3 != 0 {
                        continue;
                    }
                    let dst = if r & 12 != 0 {
                        hot
                    } else {
                        (r >> 8) as usize % dsts
                    };
                    if net.try_inject(Flit { src, dst, tag }) {
                        tag += 1;
                    } else {
                        refused += 1;
                    }
                }
                step_hashed(net, &mut h);
            }
        }
        drain_by_events(net, &mut h, 1 + round);
    }
    h.word(net.cycle());
    (h.0, net.stats(), refused)
}

#[test]
fn mot_and_butterfly_with_a_moving_hot_destination_are_pinned() {
    let mut mot = MotNetwork::new(Topology::pure_mot(256, 256));
    let (hash, stats, refused) = pin_moving_hot(&mut mot, 0x5eed_0007);
    assert_eq!(refused, 0, "a MoT source port is never backpressured");
    assert_eq!(
        (hash, stats),
        (
            10517934009004193181,
            net_stats(131536, 131536, 153718064, 41861, 0)
        )
    );
    let mut bf = ButterflyNetwork::new(Topology::hybrid(64, 64, 2, 4));
    let (hash, stats, refused) = pin_moving_hot(&mut bf, 0x5eed_0008);
    assert!(refused > 0, "qcap never reached");
    assert_eq!(
        (hash, stats, bf.stalls, refused),
        (
            10609518279639351303,
            net_stats(24018, 24018, 6764762, 3328, 8909),
            151087,
            8909
        )
    );
}

/// One module and its DRAM channel, driven the way the simulator's
/// memory cycle drives them (an idle component is left unstepped and
/// `sync_to`-ed when work next reaches it): line reuse for hits, same-
/// line bursts for MSHR merges, write sweeps over a 16-line cache for
/// dirty evictions, and long gaps so both go idle in between.
#[test]
fn module_and_channel_are_pinned() {
    let mut module = MemoryModule::new(
        3,
        CacheConfig {
            lines: 16,
            ways: 2,
            line_words: 8,
            hit_latency: 2,
        },
    );
    let mut chan = DramChannel::new(DramConfig {
        bytes_per_cycle: 8.0,
        access_latency: 11,
        line_bytes: 32,
    });
    let mut h = Fnv::new();
    let mut rng = 0x5eed_0005u64;
    let (mut creqs, mut resps) = (Vec::new(), Vec::new());
    let mut tag = 0u64;
    let mut answered = 0u64;
    let mut clock = 0u64;
    let mut lazy_syncs = 0u32;
    while clock < 6000 || answered < tag {
        let phase = (clock / 500) % 4;
        let r = xorshift(&mut rng);
        let arrivals = match phase {
            _ if clock >= 6000 => 0,
            0 => (r & 3 == 0) as u64, // light, mostly hits after warm-up
            1 => 1 + (r & 1),         // over the 1/cycle bank port: queue + merges
            2 => (clock % 500 < 60) as u64, // a write sweep, then a long idle gap
            _ => (r & 15 == 0) as u64,
        };
        for k in 0..arrivals {
            let line = match phase {
                0 => (r >> 8) % 6,
                1 => (r >> 8) % 3 + 40 * ((clock / 16) % 5),
                2 => clock % 500,
                _ => (r >> 8) % 64,
            };
            if !module.is_active() && module.outstanding() == 0 {
                lazy_syncs += 1;
            }
            module.sync_to(clock);
            module.enqueue(MemReq {
                addr: (line * 8 + (r >> 20) % 8 + k) as u32,
                is_write: phase == 2 || r & 0x30 == 0,
                tag,
            });
            tag += 1;
        }
        if module.is_active() {
            module.step(&mut creqs, &mut resps);
        }
        for cr in creqs.drain(..) {
            assert_eq!(cr.module, 3);
            chan.sync_to(clock);
            chan.enqueue(cr.req);
        }
        clock += 1;
        if chan.pending() > 0 {
            if let Some(done) = chan.step() {
                module.sync_to(clock);
                module.on_fill(done);
            }
        }
        for resp in resps.drain(..) {
            h.word(clock);
            h.word(resp.req.tag);
            h.word(resp.hit as u64);
            answered += 1;
        }
    }
    assert_eq!(module.outstanding(), 0);
    assert!(lazy_syncs > 4, "the schedule never idled the module");
    let (cache, mstats, dram) = (module.bank().stats, module.stats, chan.stats);
    assert!(cache.hits > 0 && cache.writebacks > 0 && mstats.merged_misses > 0);
    assert_eq!((h.0, answered, clock), (4565265894503642587, 2877, 6008));
    assert_eq!(
        (
            cache.accesses,
            cache.hits,
            cache.misses,
            cache.writebacks,
            cache.peak_queue
        ),
        (1370, 815, 555, 317, 250)
    );
    assert_eq!((mstats.merged_misses, mstats.responses), (1507, 2877));
    assert_eq!(
        (
            dram.reads,
            dram.writes,
            dram.bytes,
            dram.busy_cycles,
            dram.peak_queue
        ),
        (555, 317, 27904, 4208, 96)
    );
}

/// Injections at seeded cycles into two copies of a network: one is
/// stepped every cycle, the other jumps with `next_event` + `skip_idle`
/// wherever it may. Both must deliver the same flits on the same cycles.
fn skip_equals_step(
    mut stepped: Box<dyn Network>,
    mut jumped: Box<dyn Network>,
    seed: u64,
    n: usize,
) {
    let (srcs, dsts) = stepped.ports();
    let mut rng = seed | 1;
    let mut at = 0u64;
    let (mut got_s, mut got_j) = (Vec::new(), Vec::new());
    for tag in 0..n as u64 {
        let r = xorshift(&mut rng);
        // Gaps from 0 (same-cycle neighbours) to 40 cycles.
        at += [0, 0, 1, 2, 7, 40][(r % 6) as usize];
        let flit = Flit {
            src: (r >> 8) as usize % srcs,
            dst: (r >> 24) as usize % dsts,
            tag,
        };
        while stepped.cycle() < at {
            got_s.extend(stepped.step());
        }
        while jumped.cycle() < at {
            let quiet_until = jumped.next_event().map_or(at, |e| (e - 1).min(at));
            if quiet_until > jumped.cycle() {
                jumped.skip_idle(quiet_until - jumped.cycle());
            } else {
                got_j.extend(jumped.step());
            }
        }
        assert_eq!(stepped.try_inject(flit), jumped.try_inject(flit));
    }
    while stepped.in_flight() > 0 {
        got_s.extend(stepped.step());
    }
    while let Some(e) = jumped.next_event() {
        if e > jumped.cycle() + 1 {
            jumped.skip_idle(e - jumped.cycle() - 1);
        }
        got_j.extend(jumped.step());
    }
    assert_eq!(got_s, got_j);
    assert_eq!(stepped.stats(), jumped.stats());
    assert_eq!(stepped.cycle(), jumped.cycle());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn skipping_networks_deliver_what_stepped_ones_do(
        seed in 0u64..1_000_000,
        log_ports in 2u32..7,
        stages in 0u32..4,
        n in 1usize..200,
    ) {
        let ports = 1usize << log_ports;
        let topo = if stages == 0 {
            Topology::pure_mot(ports, ports)
        } else {
            Topology::hybrid(ports, ports, 2, stages.min(log_ports))
        };
        skip_equals_step(build_network(topo), build_network(topo), seed, n);
    }
}
