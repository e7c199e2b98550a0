//! Binary serialization of the service's value types: [`RunReport`]
//! (the result cache's value format), [`SimRequest`] (the submit
//! payload and journal record body) and [`IntervalRow`] (the streamed
//! probe sample).
//!
//! Same idiom as the simulator's checkpoint codec, over the same
//! primitives ([`xmt_sim::bytes`]): versioned magic, little-endian
//! fixed-width fields, length-prefixed arrays, floats bit-exact via
//! `to_bits`. Encoding is canonical — equal values
//! encode to equal bytes — which is what makes "a cache hit returns a
//! byte-identical report" a checkable contract rather than a hope.
//!
//! Every decoder is total: arbitrary, truncated or bit-flipped input
//! returns a typed error — never a panic, never an over-read, never an
//! attacker-sized allocation (length prefixes are bounded by the
//! remaining payload, each architecture word is checked against its
//! row of [`xmt_sim::config::ARCH_WORDS`] — a field's bound before the
//! word is narrowed, a derived or constant value's equality — the
//! retry-policy words must equal [`FaultPlan::RETRY_POLICY`], and the
//! architecture must pass [`XmtConfig::validate`], so no request that
//! decodes can panic a machine constructor or a run).
//! `tests/tests/wire_properties.rs` fuzzes this contract.

use crate::request::{SimRequest, WorkloadSpec};
use xmt_sim::bytes::put_u64s;
pub(crate) use xmt_sim::bytes::{put_str, put_u32, put_u64, put_words, Reader};
use xmt_sim::config::ARCH_WORDS;
use xmt_sim::{
    Engine, FaultPlan, IntervalRow, MachineStats, RunReport, SimConfig, SpawnStats,
    TranslationTier, UtilizationReport, XmtConfig,
};

/// Typed decode failure: a static description of the first violated
/// invariant. (`&'static str` keeps the codec allocation-free on the
/// error path — the same idiom the checkpoint codec uses.)
pub type WireError = &'static str;

/// Run decoder `f` over the whole of `bytes`. Every format in this
/// crate ends where its payload ends, so bytes left over are an error
/// (`trailing`) — checked here, once, for every decoder.
pub(crate) fn whole<T>(
    bytes: &[u8],
    trailing: WireError,
    f: impl FnOnce(&mut Reader<'_>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let v = f(&mut r)?;
    if r.at_end() {
        Ok(v)
    } else {
        Err(trailing)
    }
}

/// Format magic: "XMTREP" plus a format version byte.
const MAGIC: u64 = 0x584D_5452_4550_0001;

/// Request-format magic: "XMTREQ" plus a format version byte.
const REQ_MAGIC: u64 = 0x584D_5452_5121_0001;

/// Row-format magic: "XMTROW" plus a format version byte.
const ROW_MAGIC: u64 = 0x584D_5452_4F57_0001;

/// Serialize a report to the versioned little-endian byte format.
pub fn encode_report(r: &RunReport) -> Vec<u8> {
    let mut b = Vec::with_capacity(256 + r.spawns.len() * 13 * 8);
    put_u64(&mut b, MAGIC);
    put_words(&mut b, &r.stats.to_words());
    put_u32(&mut b, r.spawns.len() as u32);
    for s in &r.spawns {
        put_words(&mut b, &s.to_words());
    }
    put_u64s(&mut b, &r.utilization.cluster_instr);
    put_u64s(&mut b, &r.utilization.module_accesses);
    put_f64s(&mut b, &r.utilization.module_hit_rate);
    put_f64s(&mut b, &r.utilization.channel_busy);
    put_u64(&mut b, r.utilization.fpu_utilization.to_bits());
    b
}

/// Parse the byte format; rejects truncated, corrupt or
/// differently-versioned blobs (e.g. a stale persisted cache file).
pub fn decode_report(bytes: &[u8]) -> Result<RunReport, &'static str> {
    whole(bytes, "trailing bytes after report payload", |r| {
        if r.u64()? != MAGIC {
            return Err("report magic/version mismatch");
        }
        let stats = MachineStats::from_words(r.words()?);
        let n = r.count()?;
        let mut spawns = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            spawns.push(SpawnStats::from_words(r.words()?));
        }
        let utilization = UtilizationReport {
            cluster_instr: r.u64s()?,
            module_accesses: r.u64s()?,
            module_hit_rate: f64s(r)?,
            channel_busy: f64s(r)?,
            fpu_utilization: f64::from_bits(r.u64()?),
        };
        Ok(RunReport {
            stats,
            spawns,
            utilization,
        })
    })
}

/// Serialize a request — workload spec plus the *complete*
/// [`SimConfig`] (engine and probe settings included, unlike the cache
/// key) — to the versioned little-endian byte format. This is the
/// submit payload on the wire and the body of a journal `Submit`
/// record.
pub fn encode_request(req: &SimRequest) -> Vec<u8> {
    let mut b = Vec::with_capacity(256);
    put_request(&mut b, req);
    b
}

/// [`encode_request`] appended to `b`: how a submit frame carries a
/// request without encoding it apart first.
pub(crate) fn put_request(b: &mut Vec<u8>, req: &SimRequest) {
    put_u64(b, REQ_MAGIC);
    match &req.workload {
        WorkloadSpec::Golden { name } => {
            b.push(0);
            put_str(b, name);
        }
        WorkloadSpec::Fft {
            dims,
            copies,
            input_seed,
        } => {
            b.push(1);
            put_u32(b, dims.len() as u32);
            for &d in dims {
                put_u64(b, d as u64);
            }
            put_u32(b, *copies);
            put_u64(b, *input_seed);
        }
    }
    put_sim_config(b, &req.sim);
}

/// Parse a request. Beyond structural decoding this *validates* the
/// request — golden names must resolve, FFT shapes and every resource
/// knob must sit inside the service bounds — so a worker never sees an
/// unresolvable or resource-exhausting job and the resolver in
/// [`SimRequest::program`] can keep its "validated at construction"
/// contract.
pub fn decode_request(bytes: &[u8]) -> Result<SimRequest, WireError> {
    let req = whole(bytes, "trailing bytes after request payload", request)?;
    if let WorkloadSpec::Golden { name } = &req.workload {
        if crate::request::find_case(name).is_none() {
            return Err("unknown golden workload name");
        }
    }
    Ok(req)
}

fn request(r: &mut Reader<'_>) -> Result<SimRequest, WireError> {
    if r.u64()? != REQ_MAGIC {
        return Err("request magic/version mismatch");
    }
    let workload = match r.u8()? {
        0 => {
            let name = r.str(128)?;
            WorkloadSpec::Golden { name }
        }
        1 => {
            let ndims = r.u32()? as usize;
            if ndims == 0 || ndims > 3 {
                return Err("fft rank outside 1..=3");
            }
            let mut dims = Vec::with_capacity(ndims);
            let mut total: u64 = 1;
            for _ in 0..ndims {
                let d = r.u64()?;
                if !(2..=(1 << 22)).contains(&d) || !d.is_power_of_two() {
                    return Err("fft dimension not a power of two in bounds");
                }
                total = total.saturating_mul(d);
                dims.push(d as usize);
            }
            let copies = r.u32()?;
            if copies == 0 || copies > 1024 {
                return Err("fft copies outside 1..=1024");
            }
            if total.saturating_mul(u64::from(copies)) > (1 << 24) {
                return Err("fft footprint exceeds service bound");
            }
            let input_seed = r.u64()?;
            WorkloadSpec::Fft {
                dims,
                copies,
                input_seed,
            }
        }
        _ => return Err("unknown workload tag"),
    };
    let sim = sim_config(r)?;
    Ok(SimRequest { workload, sim })
}

/// Serialize one streamed probe sample: the scalar words in
/// [`IntervalRow::to_words`] order with `spawn` after the first two
/// (`boundary`, `cycle`), then the per-channel series.
pub fn encode_row(row: &IntervalRow) -> Vec<u8> {
    let mut b = Vec::with_capacity(256);
    put_u64(&mut b, ROW_MAGIC);
    let words = row.to_words();
    put_words(&mut b, &words[..2]);
    put_opt_u64(&mut b, row.spawn);
    put_words(&mut b, &words[2..]);
    put_u64s(&mut b, &row.channel_busy);
    put_u64s(&mut b, &row.channel_queue);
    b
}

/// Parse one streamed probe sample.
pub fn decode_row(bytes: &[u8]) -> Result<IntervalRow, WireError> {
    whole(bytes, "trailing bytes after row payload", |r| {
        if r.u64()? != ROW_MAGIC {
            return Err("row magic/version mismatch");
        }
        let mut words = IntervalRow::default().to_words();
        let (head, tail) = words.split_at_mut(2);
        for w in head {
            *w = r.u64()?;
        }
        let spawn = opt_u64(r)?;
        for w in tail {
            *w = r.u64()?;
        }
        Ok(IntervalRow {
            spawn,
            channel_busy: r.u64s()?,
            channel_queue: r.u64s()?,
            ..IntervalRow::from_words(words)
        })
    })
}

fn put_sim_config(b: &mut Vec<u8>, s: &SimConfig) {
    put_xmt_config(b, &s.arch);
    match s.engine {
        Engine::Reference => b.push(0),
        Engine::FastForward => b.push(1),
        Engine::Threaded { threads } => {
            b.push(2);
            put_u32(b, threads as u32);
        }
    }
    b.push(match s.tier {
        TranslationTier::Interpreter => 0,
        TranslationTier::Block => 1,
    });
    put_fault_plan(b, &s.faults);
    put_opt_u64(b, s.watchdog);
    put_opt_u64(b, s.max_cycles);
    put_opt_u64(b, s.probe_interval);
    put_u64(b, s.probe_capacity as u64);
    put_u64(b, s.mem_words as u64);
}

fn put_xmt_config(b: &mut Vec<u8>, a: &XmtConfig) {
    put_str(b, a.name);
    for w in &ARCH_WORDS {
        put_u64(b, (w.get)(a));
    }
}

fn put_fault_plan(b: &mut Vec<u8>, f: &FaultPlan) {
    let (dram_retry, noc_retry, noc_backoff) = FaultPlan::RETRY_POLICY;
    put_u64(b, f.seed);
    put_u64(b, f.dram_single.to_bits());
    put_u64(b, f.dram_double.to_bits());
    put_u32(b, dram_retry);
    put_u64(b, f.noc_corrupt.to_bits());
    put_u32(b, noc_retry);
    put_u64(b, noc_backoff);
    put_usizes(b, f.dead_clusters.iter().copied());
    put_usizes(b, f.dead_tcus.iter().flat_map(|t| [t.cluster, t.tcu]));
    put_usizes(b, f.stuck_tcus.iter().flat_map(|t| [t.cluster, t.tcu]));
    put_usizes(b, f.dead_channels.iter().copied());
}

/// Component indices as a length-prefixed `u64` array.
fn put_usizes(b: &mut Vec<u8>, vs: impl Iterator<Item = usize>) {
    put_u64s(b, &vs.map(|v| v as u64).collect::<Vec<_>>());
}

/// `Some(v)` as `[1, v]`, `None` as `[0]`.
fn put_opt_u64(b: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => b.push(0),
        Some(v) => {
            b.push(1);
            put_u64(b, v);
        }
    }
}

fn put_f64s(b: &mut Vec<u8>, vs: &[f64]) {
    put_u32(b, vs.len() as u32);
    for &v in vs {
        put_u64(b, v.to_bits());
    }
}

fn opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, &'static str> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        _ => Err("bad option flag"),
    }
}

/// A `usize` that must fit the service's allocation bounds.
fn bounded_usize(r: &mut Reader<'_>, max: u64, what: &'static str) -> Result<usize, &'static str> {
    let v = r.u64()?;
    if v > max {
        return Err(what);
    }
    Ok(v as usize)
}

fn sim_config(r: &mut Reader<'_>) -> Result<SimConfig, &'static str> {
    let arch = xmt_config(r)?;
    let engine = match r.u8()? {
        0 => Engine::Reference,
        1 => Engine::FastForward,
        2 => {
            let threads = r.u32()?;
            if threads == 0 || threads > 512 {
                return Err("threaded engine thread count outside 1..=512");
            }
            Engine::Threaded {
                threads: threads as usize,
            }
        }
        _ => return Err("unknown engine tag"),
    };
    let tier = match r.u8()? {
        0 => TranslationTier::Interpreter,
        1 => TranslationTier::Block,
        _ => return Err("unknown tier tag"),
    };
    let faults = fault_plan(r)?;
    let watchdog = opt_u64(r)?;
    let max_cycles = opt_u64(r)?;
    let probe_interval = opt_u64(r)?;
    if probe_interval == Some(0) {
        return Err("probe interval must be nonzero");
    }
    let probe_capacity = bounded_usize(r, 1 << 20, "probe capacity exceeds bound")?;
    let mem_words = bounded_usize(r, 1 << 28, "memory image exceeds bound")?;
    let mut s = SimConfig::new(&arch)
        .engine(engine)
        .tier(tier)
        .faults(faults)
        .probe_capacity(probe_capacity)
        .mem_words(mem_words);
    s.watchdog = watchdog;
    s.max_cycles = max_cycles;
    s.probe_interval = probe_interval;
    Ok(s)
}

fn xmt_config(r: &mut Reader<'_>) -> Result<XmtConfig, &'static str> {
    let name = r.str(32)?;
    // `XmtConfig::name` is `&'static str`: resolve against the five
    // paper configurations instead of leaking attacker-controlled
    // strings. Every config the workspace produces (including
    // `scaled_to` variants) keeps its base row's name.
    let mut cfg = XmtConfig::paper_configs()
        .into_iter()
        .find(|c| c.name == name)
        .ok_or("unknown architecture name")?;
    let mut words = [0; ARCH_WORDS.len()];
    for (word, w) in words.iter_mut().zip(&ARCH_WORDS) {
        *word = r.u64()?;
        if *word > w.max {
            return Err("architecture word exceeds its bound");
        }
        if let Some(set) = w.set {
            set(&mut cfg, *word);
        }
    }
    // A derived word can be checked only once every field is read.
    for (&word, w) in words.iter().zip(&ARCH_WORDS) {
        if w.set.is_none() && word != (w.get)(&cfg) {
            return Err("architecture word disagrees with its fixed or derived value");
        }
    }
    cfg.validate()?;
    Ok(cfg)
}

fn fault_plan(r: &mut Reader<'_>) -> Result<FaultPlan, &'static str> {
    let mut f = FaultPlan::new(r.u64()?);
    f.dram_single = f64::from_bits(r.u64()?);
    f.dram_double = f64::from_bits(r.u64()?);
    let dram_retry = r.u32()?;
    f.noc_corrupt = f64::from_bits(r.u64()?);
    if (dram_retry, r.u32()?, r.u64()?) != FaultPlan::RETRY_POLICY {
        return Err("retry policy words disagree with the fixed policy");
    }
    f.dead_clusters = component_list(r)?;
    f.dead_tcus = tcu_list(r)?;
    f.stuck_tcus = tcu_list(r)?;
    f.dead_channels = component_list(r)?;
    Ok(f)
}

fn component_list(r: &mut Reader<'_>) -> Result<Vec<usize>, &'static str> {
    let vs = r.u64s()?;
    if vs.len() > 4096 || vs.iter().any(|&v| v > 1 << 20) {
        return Err("component fault list exceeds bound");
    }
    Ok(vs.into_iter().map(|v| v as usize).collect())
}

fn tcu_list(r: &mut Reader<'_>) -> Result<Vec<xmt_sim::TcuId>, &'static str> {
    let vs = r.u64s()?;
    if vs.len() % 2 != 0 {
        return Err("tcu fault list has odd length");
    }
    if vs.len() > 8192 || vs.iter().any(|&v| v > 1 << 20) {
        return Err("tcu fault list exceeds bound");
    }
    Ok(vs
        .chunks_exact(2)
        .map(|p| xmt_sim::TcuId {
            cluster: p[0] as usize,
            tcu: p[1] as usize,
        })
        .collect())
}

fn f64s(r: &mut Reader<'_>) -> Result<Vec<f64>, &'static str> {
    Ok(r.u64s()?.into_iter().map(f64::from_bits).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            stats: MachineStats {
                cycles: 12_345,
                instructions: 999,
                flops: 420,
                threads: 64,
                ..Default::default()
            },
            spawns: vec![
                SpawnStats {
                    index: 0,
                    threads: 64,
                    start_cycle: 10,
                    cycles: 400,
                    dram_bytes: 4096,
                    ..Default::default()
                },
                SpawnStats {
                    index: 1,
                    threads: 32,
                    start_cycle: 500,
                    ..Default::default()
                },
            ],
            utilization: UtilizationReport {
                cluster_instr: vec![10, 20, 30, 40],
                module_accesses: vec![5, 5, 6, 4],
                module_hit_rate: vec![0.5, 1.0, 0.875, 0.0],
                channel_busy: vec![0.25],
                fpu_utilization: 0.125,
            },
        }
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let rep = sample();
        let bytes = encode_report(&rep);
        let back = decode_report(&bytes).unwrap();
        assert_eq!(back.stats, rep.stats);
        assert_eq!(back.spawns, rep.spawns);
        assert_eq!(back.utilization, rep.utilization);
        assert_eq!(
            encode_report(&back),
            bytes,
            "re-encoding is byte-identical (canonical form)"
        );
    }

    #[test]
    fn truncation_and_bad_magic_rejected() {
        let bytes = encode_report(&sample());
        for cut in [0, 4, 8, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_report(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decode_report(&bad).is_err());
        let mut long = bytes;
        long.push(0);
        assert!(decode_report(&long).is_err());
    }

    #[test]
    fn request_round_trip_preserves_digest() {
        let golden = SimRequest::golden("fft_radix8_n512")
            .unwrap()
            .with_sim(|s| {
                s.engine(Engine::Threaded { threads: 3 })
                    .tier(TranslationTier::Interpreter)
                    .faults(
                        FaultPlan::new(9)
                            .dram_flips(1e-6, 1e-9)
                            .noc_corrupt(1e-5)
                            .stuck_tcu(1, 2)
                            .dead_channel(0),
                    )
                    .watchdog(10_000)
                    .probed(128)
            });
        let arch = XmtConfig::xmt_8k().scaled_to(8);
        let fft = SimRequest::fft(&[64, 64], 2, 7, &arch);
        for req in [golden, fft] {
            let bytes = encode_request(&req);
            let back = decode_request(&bytes).expect("round trip");
            assert_eq!(back, req);
            assert_eq!(back.digest(), req.digest(), "content address survives");
            assert_eq!(encode_request(&back), bytes, "canonical re-encode");
        }
    }

    /// Request and journal bytes must not move: every [`SimConfig`]
    /// field off its default, encoded, digest captured once.
    #[test]
    fn request_bytes_are_pinned() {
        let arch = XmtConfig::xmt_4k().scaled_to(16);
        let req = SimRequest::fft(&[256], 1, 7, &arch).with_sim(|s| {
            s.engine(Engine::Reference)
                .tier(TranslationTier::Interpreter)
                .faults(
                    FaultPlan::new(0x5EED)
                        .dram_flips(1e-6, 1e-9)
                        .noc_corrupt(1e-5)
                        .dead_cluster(3)
                        .dead_tcu(1, 4)
                        .stuck_tcu(2, 5)
                        .dead_channel(1),
                )
                .watchdog(10_000)
                .max_cycles(1 << 20)
                .probed(128)
                .probe_capacity(64)
                .mem_words(4096)
        });
        let bytes = encode_request(&req);
        assert_eq!(bytes.len(), 364);
        assert_eq!(xmt_sim::simcfg::fnv1a(&bytes), 0xa50c_9cab_2918_96b6);
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn request_decoder_rejects_garbage_and_bounds() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0; 64]).is_err());
        let good = encode_request(&SimRequest::golden("ps_tickets").unwrap());
        for cut in [0, 8, 9, good.len() / 2, good.len() - 1] {
            assert!(decode_request(&good[..cut]).is_err(), "cut at {cut}");
        }
        // An unknown golden name decodes structurally but must fail
        // validation (the resolver would panic on it downstream).
        let mut req = SimRequest::golden("ps_tickets").unwrap();
        req.workload = WorkloadSpec::Golden {
            name: "no_such_case".into(),
        };
        assert!(decode_request(&encode_request(&req)).is_err());
        // An absurd FFT shape is rejected by the footprint bound.
        let arch = XmtConfig::xmt_4k().scaled_to(4);
        let mut fft = SimRequest::fft(&[256], 1, 0, &arch);
        fft.workload = WorkloadSpec::Fft {
            dims: vec![1 << 22, 1 << 22],
            copies: 1024,
            input_seed: 0,
        };
        assert!(decode_request(&encode_request(&fft)).is_err());
    }

    #[test]
    fn row_round_trip_is_exact() {
        use xmt_sim::BlockedTcus;
        let row = IntervalRow {
            boundary: 640,
            cycle: 641,
            spawn: Some(3),
            instructions: 10,
            flops: 4,
            dram_bytes: 4096,
            blocked: BlockedTcus {
                scoreboard: 1,
                fpu: 2,
                mdu: 3,
                lsu: 4,
            },
            channel_busy: vec![1, 2, 3],
            channel_queue: vec![0, 9],
            ..Default::default()
        };
        let bytes = encode_row(&row);
        let back = decode_row(&bytes).unwrap();
        assert_eq!(back, row);
        for cut in [0, 7, bytes.len() - 1] {
            assert!(decode_row(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
