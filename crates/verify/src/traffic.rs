//! Pass 2 of the static-analysis pipeline: **static traffic and
//! roofline analysis**.
//!
//! The race detector's linear-in-tid domain ([`crate::affine`])
//! already recovers every spawn region's address expressions; this
//! pass reuses that fixpoint to compute, per parallel phase and
//! **without running the program**:
//!
//! * exact per-phase instruction / flop / load / store counts (for
//!   straight-line thread bodies, path bounds otherwise),
//! * the phase's **footprint** — the set of distinct cache lines it
//!   touches, by enumerating the linear address forms over all tids,
//! * predicted **NoC traffic** — every TCU load/store crosses the
//!   interconnect to a shared memory module (one request plus one
//!   reply flit), so flits = `2 × (reads + writes)` exactly,
//! * a predicted **DRAM byte interval** `[lo, hi]` from a
//!   resident-line model: the caches are write-allocate with
//!   `line_bytes` fills and no flush between phases, so a phase's
//!   traffic is its *cold* lines times the line size — lines already
//!   fetched by an earlier phase stay resident while the aggregate
//!   footprint fits in the cache. MTCU (serial-mode) accesses bypass
//!   the NoC, the caches and DRAM entirely and contribute nothing.
//!
//! On top of the traffic the pass classifies each phase and the whole
//! workload on the machine's **roofline**:
//!
//! * the *measured-regime* [`Bottleneck`] mirrors the analytic
//!   performance model (`xmt_sim::perfmodel`): the phase's time under
//!   each resource — issue slots, shared FPUs, NoC words, DRAM
//!   bytes — at the phase's own occupancy, and the bottleneck is the
//!   largest. This is the regime the cycle simulator actually runs
//!   (cache-resident FFT stages come out FPU-bound, the cold-fill
//!   stage DRAM-bound).
//! * the *streaming-regime* intensity is the paper's claim: FFT data
//!   at paper problem sizes does not fit any cache, so every stage
//!   streams its footprint from DRAM. A phase's streaming intensity is
//!   `flops / footprint bytes`; comparing it against the machine's
//!   **ridge point** (peak FLOP rate / DRAM bandwidth) classifies the
//!   *algorithm* independently of the golden problem size: below the
//!   ridge the phase is bandwidth-bound on this machine whenever its
//!   working set exceeds the cache. Every radix-8 FFT stage sits near
//!   0.6 flops/byte against a ridge of ~1.1 — the paper's
//!   bandwidth-bound verdict, statically.
//!
//! Every quantity is tagged exact or bounding; the static-analysis gate
//! (`xmt_bench::lint`) requires every measured per-phase quantity of the
//! golden workloads and paper-scale cases to fall inside its interval.

use crate::affine::AbsVal;
use crate::cfg::Cfg;
use crate::races::{affine_fixpoint, region_accesses, spawn_count};
use std::collections::HashSet;
use std::fmt;
use xmt_isa::Instr;

/// Largest statically-known thread count the footprint enumerator
/// expands exactly; larger counts degrade to access-count bounds.
pub const FOOTPRINT_ENUM_CAP: u64 = 1 << 17;

/// The machine parameters the analyzer needs — a deliberately
/// simulator-independent subset of the architecture description, so
/// `xmt-verify` keeps its single `xmt-isa` dependency. Build one from
/// an `XmtConfig` (plus the NoC model's effective throughput) at the
/// call site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficParams {
    /// Words per cache line.
    pub line_words: u64,
    /// Aggregate cache capacity in lines, across all memory modules.
    pub cache_lines: u64,
    /// Cluster count.
    pub clusters: u64,
    /// TCUs per cluster (issue slots).
    pub tcus_per_cluster: u64,
    /// Shared FPUs per cluster.
    pub fpus_per_cluster: u64,
    /// LSU ports per cluster (memory issues per cluster per cycle).
    pub lsus_per_cluster: u64,
    /// Effective NoC words per cluster per cycle (topology throughput
    /// times the interconnect efficiency factor).
    pub icn_words_per_cluster: f64,
    /// Effective aggregate DRAM bytes per cycle (channels × per-channel
    /// rate × DRAM efficiency).
    pub dram_bytes_per_cycle: f64,
    /// Pipeline-fill latency added to every phase (spawn broadcast +
    /// network round trip + first DRAM access).
    pub startup_cycles: f64,
    /// Derating applied to peak issue/FPU/LSU rates.
    pub compute_efficiency: f64,
}

impl TrafficParams {
    /// Bytes per cache line.
    pub fn line_bytes(&self) -> u64 {
        self.line_words * 4
    }

    /// The machine's roofline **ridge point** in flops per DRAM byte:
    /// peak FLOP rate over effective DRAM bandwidth. A kernel whose
    /// operational intensity sits below this is bandwidth-bound
    /// whenever its working set streams.
    pub fn ridge_intensity(&self) -> f64 {
        let peak_flops = (self.clusters * self.fpus_per_cluster) as f64 * self.compute_efficiency;
        peak_flops / self.dram_bytes_per_cycle
    }
}

/// The resource a phase saturates first in the measured regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// TCU issue slots.
    Issue,
    /// The shared per-cluster FPUs.
    Fpu,
    /// LSU ports / NoC word throughput.
    Icn,
    /// DRAM byte bandwidth.
    Dram,
    /// Startup and round-trip latency (occupancy too low to saturate
    /// any throughput resource).
    Latency,
}

impl fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Bottleneck::Issue => "issue",
            Bottleneck::Fpu => "fpu",
            Bottleneck::Icn => "icn",
            Bottleneck::Dram => "dram",
            Bottleneck::Latency => "latency",
        })
    }
}

/// Workload-level roofline verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every flop-carrying phase's streaming intensity sits below the
    /// machine's ridge point: the algorithm is limited by the memory
    /// system whenever its data streams (the paper's FFT claim).
    BandwidthBound,
    /// At least one flop-carrying phase sits at or above the ridge.
    ComputeBound,
    /// No flops and not enough parallelism to saturate throughput:
    /// round-trip latency dominates.
    LatencyBound,
    /// The analysis could not establish enough to classify.
    Unknown,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::BandwidthBound => "bandwidth-bound",
            Verdict::ComputeBound => "compute-bound",
            Verdict::LatencyBound => "latency-bound",
            Verdict::Unknown => "unknown",
        })
    }
}

/// Statically-predicted traffic and classification for one parallel
/// phase (one spawn site, in serial program order).
#[derive(Debug, Clone)]
pub struct PhaseTraffic {
    /// Phase index in serial program order (matches the simulator's
    /// spawn index when the serial driver is branch-free).
    pub index: usize,
    /// pc of the `spawn` instruction.
    pub spawn_at: usize,
    /// Entry pc of the parallel section.
    pub entry: usize,
    /// Statically-known thread count (`None` when the serial constant
    /// propagation cannot pin it or `sspawn` extends it at run time).
    pub threads: Option<u64>,
    /// True when every per-phase count below is exact: straight-line
    /// body, known thread count, and every address linear in the tid.
    pub exact: bool,
    /// Total instructions `[lo, hi]` (equal when exact).
    pub instructions: (u64, u64),
    /// Total FP operations `[lo, hi]`.
    pub flops: (u64, u64),
    /// Total loads `[lo, hi]`.
    pub reads: (u64, u64),
    /// Total stores `[lo, hi]`.
    pub writes: (u64, u64),
    /// Predicted NoC flits `[lo, hi]` — `2 × (reads + writes)`; each
    /// access injects one request and one reply flit.
    pub noc_flits: (u64, u64),
    /// Distinct cache lines the phase touches, `[must, may]`: the
    /// lower bound enumerates the linear (certainly-executed)
    /// accesses, the upper adds the spans of range-bounded ones
    /// (modular twiddle indices and the like). `None` when some
    /// access address is completely unknown.
    pub footprint_lines: Option<(u64, u64)>,
    /// Predicted DRAM bytes `[lo, hi]` under the resident-line model.
    pub dram_bytes: (u64, u64),
    /// Measured-regime bottleneck (at this phase's occupancy, with the
    /// predicted DRAM traffic).
    pub bottleneck: Bottleneck,
    /// Streaming-regime operational intensity `[lo, hi]`: flops per
    /// footprint byte, were the working set to stream from DRAM (the
    /// interval reflects the footprint interval).
    pub streaming_intensity: Option<(f64, f64)>,
}

/// The full static traffic report for one program on one machine.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Per-phase predictions, in serial program order.
    pub phases: Vec<PhaseTraffic>,
    /// Workload-level roofline verdict.
    pub verdict: Verdict,
    /// The ridge point the verdict compared against.
    pub ridge_intensity: f64,
    /// True when the serial driver is conditional-branch-free, so the
    /// static phase order provably matches the dynamic spawn order.
    pub phase_order_exact: bool,
    /// Analysis caveats (capacity pressure, widened addresses, …).
    pub notes: Vec<String>,
}

impl fmt::Display for TrafficReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} phase(s), verdict {} (ridge {:.3} flops/byte)",
            self.phases.len(),
            self.verdict,
            self.ridge_intensity
        )?;
        for p in &self.phases {
            let rng = |(lo, hi): (u64, u64)| {
                if lo == hi {
                    format!("{lo}")
                } else {
                    format!("{lo}..{hi}")
                }
            };
            writeln!(
                f,
                "  phase {} @pc{}: threads {} instrs {} flops {} reads {} writes {} flits {} dram {} B — {} (streaming {})",
                p.index,
                p.spawn_at,
                p.threads.map_or("?".into(), |t| t.to_string()),
                rng(p.instructions),
                rng(p.flops),
                rng(p.reads),
                rng(p.writes),
                rng(p.noc_flits),
                rng(p.dram_bytes),
                p.bottleneck,
                p.streaming_intensity.map_or("?".into(), |(lo, hi)| {
                    if (lo - hi).abs() < 1e-12 {
                        format!("{lo:.3} flops/B")
                    } else {
                        format!("{lo:.3}..{hi:.3} flops/B")
                    }
                }),
            )?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Why the analysis could not run at all (per-phase imprecision is
/// reported inside [`TrafficReport`] instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrafficError {
    /// The program fails structural verification; phase extraction
    /// would be meaningless.
    Structure(String),
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::Structure(why) => {
                write!(
                    f,
                    "traffic analysis needs a structurally-valid program: {why}"
                )
            }
        }
    }
}

impl std::error::Error for TrafficError {}

/// Per-thread operation counts along paths entry→join: `[lo, hi]`
/// per metric, plus whether the body was a single straight-line path.
struct BodyCounts {
    straight: bool,
    instrs: (u64, u64),
    flops: (u64, u64),
    reads: (u64, u64),
    writes: (u64, u64),
    /// True when some path never reaches `join` without a back edge —
    /// the counts are then meaningless upper bounds.
    unbounded: bool,
}

fn is_flop(ins: &Instr) -> bool {
    matches!(ins, Instr::Fpu { .. } | Instr::Fneg { .. })
}

/// Count per-thread operations over the region DAG. Back edges (a
/// branch or jump to a lower-or-equal pc inside the region) make the
/// counts unbounded.
fn body_counts(instrs: &[Instr], pcs: &[usize]) -> BodyCounts {
    let member: HashSet<usize> = pcs.iter().copied().collect();
    #[derive(Clone, Copy)]
    struct Acc {
        instrs: (u64, u64),
        flops: (u64, u64),
        reads: (u64, u64),
        writes: (u64, u64),
    }
    let meet = |a: Option<Acc>, b: Acc| match a {
        None => b,
        Some(a) => Acc {
            instrs: (a.instrs.0.min(b.instrs.0), a.instrs.1.max(b.instrs.1)),
            flops: (a.flops.0.min(b.flops.0), a.flops.1.max(b.flops.1)),
            reads: (a.reads.0.min(b.reads.0), a.reads.1.max(b.reads.1)),
            writes: (a.writes.0.min(b.writes.0), a.writes.1.max(b.writes.1)),
        },
    };
    let mut state: std::collections::HashMap<usize, Acc> = std::collections::HashMap::new();
    let entry = pcs.first().copied().unwrap_or(0);
    state.insert(
        entry,
        Acc {
            instrs: (0, 0),
            flops: (0, 0),
            reads: (0, 0),
            writes: (0, 0),
        },
    );
    let mut at_join: Option<Acc> = None;
    let mut straight = true;
    let mut unbounded = false;
    // pcs are ascending; with forward-only edges a single sweep
    // relaxes every path.
    for &pc in pcs {
        let Some(cur) = state.get(&pc).copied() else {
            continue;
        };
        let ins = &instrs[pc];
        let stepped = Acc {
            instrs: (cur.instrs.0 + 1, cur.instrs.1 + 1),
            flops: {
                let f = u64::from(is_flop(ins));
                (cur.flops.0 + f, cur.flops.1 + f)
            },
            reads: {
                let r = u64::from(matches!(ins.mem_access(), Some(m) if !m.is_write));
                (cur.reads.0 + r, cur.reads.1 + r)
            },
            writes: {
                let w = u64::from(matches!(ins.mem_access(), Some(m) if m.is_write));
                (cur.writes.0 + w, cur.writes.1 + w)
            },
        };
        if matches!(ins, Instr::Join) {
            at_join = Some(meet(at_join, stepped));
            continue;
        }
        if !matches!(
            ins,
            Instr::Lw { .. }
                | Instr::Sw { .. }
                | Instr::Flw { .. }
                | Instr::Fsw { .. }
                | Instr::Fli { .. }
                | Instr::Li { .. }
                | Instr::Alu { .. }
                | Instr::AluI { .. }
                | Instr::Mdu { .. }
                | Instr::Fpu { .. }
                | Instr::Fneg { .. }
                | Instr::Fmov { .. }
                | Instr::Fmvif { .. }
                | Instr::Tid { .. }
                | Instr::ReadGr { .. }
                | Instr::Ps { .. }
                | Instr::Sspawn { .. }
                | Instr::Nop
        ) {
            straight = false;
        }
        for succ in crate::cfg::successors(ins, pc, true).into_iter().flatten() {
            if !member.contains(&succ) {
                continue;
            }
            if succ <= pc {
                unbounded = true;
                continue;
            }
            let prev = state.get(&succ).copied();
            state.insert(succ, meet(prev, stepped));
        }
    }
    let acc = at_join.unwrap_or(Acc {
        instrs: (0, u64::MAX),
        flops: (0, u64::MAX),
        reads: (0, u64::MAX),
        writes: (0, u64::MAX),
    });
    BodyCounts {
        straight: straight && !unbounded,
        instrs: acc.instrs,
        flops: acc.flops,
        reads: acc.reads,
        writes: acc.writes,
        unbounded,
    }
}

/// Resident-line tracker carried across phases: `must` holds lines
/// certainly in cache (fetched by a certainly-executed access of an
/// earlier phase, no capacity pressure since), `may` holds every line
/// an earlier phase *could* have fetched, `any_top` records that some
/// earlier access had a completely unknown address (so *any* line may
/// be resident and no later lower bound can claim a cold miss).
struct Residency {
    must: HashSet<u64>,
    may: HashSet<u64>,
    any_top: bool,
    pressure: bool,
}

/// Per-access-site span cap: a range-bounded address whose span
/// exceeds this many lines is treated as unknown instead (the span
/// would dominate any useful bound).
const SPAN_LINE_CAP: u64 = 1 << 16;

/// Statically analyze per-phase traffic and classify the workload on
/// the machine's roofline. Fails only on structurally-invalid
/// programs; imprecision (unknown thread counts, widened addresses,
/// capacity pressure) degrades individual phases to bounding intervals
/// instead, flagged via [`PhaseTraffic::exact`] and the report notes.
pub fn analyze(instrs: &[Instr], params: &TrafficParams) -> Result<TrafficReport, TrafficError> {
    let mut diags = Vec::new();
    let cfg = Cfg::build(instrs, &mut diags);
    if let Some(d) = diags.iter().find(|d| d.severity == crate::Severity::Error) {
        return Err(TrafficError::Structure(d.message.clone()));
    }

    let serial_pcs: Vec<usize> = (0..instrs.len()).filter(|&pc| cfg.serial[pc]).collect();
    let serial_state = affine_fixpoint(instrs, &serial_pcs, 0, false, 0);
    let phase_order_exact = !serial_pcs
        .iter()
        .any(|&pc| matches!(instrs[pc], Instr::Branch { .. }));

    let mut notes = Vec::new();
    if !phase_order_exact {
        notes.push(
            "serial driver has conditional branches: static phase order may not match the dynamic spawn order"
                .to_string(),
        );
    }

    let mut res = Residency {
        must: HashSet::new(),
        may: HashSet::new(),
        any_top: false,
        pressure: false,
    };
    let mut phases = Vec::new();
    let line_bytes = params.line_bytes();

    for (index, site) in cfg.spawns.iter().enumerate() {
        let region = cfg.region(instrs, site.entry);
        let has_sspawn = region
            .iter()
            .any(|&pc| matches!(instrs[pc], Instr::Sspawn { .. }));
        let threads = if has_sspawn {
            notes.push(format!(
                "phase {index}: sspawn extends the thread count at run time"
            ));
            None
        } else {
            spawn_count(&serial_state, site)
        };

        let counts = body_counts(instrs, &region);
        if counts.unbounded {
            notes.push(format!(
                "phase {index}: thread body has a loop — per-thread counts unbounded"
            ));
        }

        let bits = match threads {
            Some(t) if t > 1 => 64 - (t - 1).leading_zeros(),
            Some(_) => 1,
            None => 32,
        };
        let state = affine_fixpoint(instrs, &region, site.entry, true, bits);
        let accesses = region_accesses(instrs, &region, &state);

        // Footprint enumeration. Linear accesses of a straight-line
        // body are certainly executed by every thread: their lines are
        // must-touch. Range-bounded addresses (e.g. a modular twiddle
        // index) contribute their whole span as may-touch lines. Top
        // addresses stay per-access counts.
        let enumerable = counts.straight
            && !counts.unbounded
            && threads.is_some_and(|t| t <= FOOTPRINT_ENUM_CAP);
        let mut must_lines: HashSet<u64> = HashSet::new();
        let mut may_lines: HashSet<u64> = HashSet::new();
        let mut top_accesses: u64 = 0; // dynamic count, not sites
        let mut all_linear = true;
        let mut widened_pcs: Vec<usize> = Vec::new();
        if enumerable {
            let t = threads.unwrap();
            for a in &accesses {
                match &a.addr {
                    AbsVal::Lin(l) => {
                        for tid in 0..t as u32 {
                            let line = u64::from(l.eval(tid)) / params.line_words;
                            must_lines.insert(line);
                            may_lines.insert(line);
                        }
                    }
                    other => {
                        all_linear = false;
                        widened_pcs.push(a.pc);
                        let span = other
                            .bounds(32)
                            .map(|(lo, hi)| (lo / params.line_words, hi / params.line_words));
                        match span {
                            Some((llo, lhi)) if lhi - llo < SPAN_LINE_CAP => {
                                may_lines.extend(llo..=lhi);
                            }
                            _ => top_accesses += t,
                        }
                    }
                }
            }
        } else {
            all_linear = accesses.is_empty();
            // Every dynamic access may touch a fresh line.
            top_accesses = counts
                .reads
                .1
                .saturating_add(counts.writes.1)
                .saturating_mul(threads.unwrap_or(1));
        }

        if !widened_pcs.is_empty() {
            widened_pcs.truncate(8);
            notes.push(format!(
                "phase {index}: address not linear in tid at pc(s) {widened_pcs:?} — footprint widened to a span"
            ));
        }

        let exact = enumerable && all_linear && !counts.unbounded;

        // Totals: per-thread bounds × thread-count bounds.
        let t_lo = threads.unwrap_or(0);
        let t_hi = threads.unwrap_or(u64::MAX);
        let scale = |(lo, hi): (u64, u64)| (lo.saturating_mul(t_lo), hi.saturating_mul(t_hi));
        let instructions = scale(counts.instrs);
        let flops = scale(counts.flops);
        let reads = scale(counts.reads);
        let writes = scale(counts.writes);
        let noc_flits = (
            2 * (reads.0.saturating_add(writes.0)),
            (reads.1.saturating_add(writes.1)).saturating_mul(2),
        );

        // DRAM interval under the resident-line model. Write misses
        // allocate (fill the line from DRAM) just like read misses.
        // Lower bound: must-touch lines that no earlier phase could
        // have fetched are certain cold misses. Upper bound: every
        // may-touch line not certainly resident plus every unknown
        // access fills one line.
        let cold_must = must_lines.iter().filter(|l| !res.may.contains(l)).count() as u64;
        let dram_lo = if enumerable && !res.any_top && !res.pressure {
            cold_must * line_bytes
        } else {
            0
        };
        let may_new = may_lines.iter().filter(|l| !res.must.contains(l)).count() as u64;
        let mut dram_hi = may_new
            .saturating_mul(line_bytes)
            .saturating_add(top_accesses.saturating_mul(line_bytes));
        if res.pressure {
            // Conflict/capacity evictions possible: every access may
            // re-miss.
            dram_hi = dram_hi.max((reads.1.saturating_add(writes.1)).saturating_mul(line_bytes));
        }

        // Advance residency. Must lines become certainly resident, may
        // lines possibly resident; top accesses poison later lower
        // bounds entirely.
        if enumerable {
            res.must.extend(must_lines.iter().copied());
        }
        res.may.extend(may_lines.iter().copied());
        if top_accesses > 0 {
            res.any_top = true;
        }
        // Half-capacity guard: beyond it, set-conflict evictions can
        // no longer be ruled out by the aggregate model.
        if (res.may.len() as u64).saturating_add(top_accesses) > params.cache_lines / 2 {
            if !res.pressure {
                notes.push(format!(
                    "phase {index}: aggregate footprint beyond half the cache — later DRAM bounds assume re-misses"
                ));
            }
            res.pressure = true;
            res.must.clear();
        }

        let footprint_lines = (enumerable && top_accesses == 0)
            .then_some((must_lines.len() as u64, may_lines.len() as u64));
        let streaming_intensity = footprint_lines.and_then(|(flo, fhi)| {
            (flo > 0 && flops.0 == flops.1).then(|| {
                let f = flops.0 as f64;
                (f / (fhi * line_bytes) as f64, f / (flo * line_bytes) as f64)
            })
        });

        let bottleneck = classify_phase(
            params,
            threads,
            instructions.1,
            flops.1,
            reads.1,
            writes.1,
            dram_hi,
        );

        phases.push(PhaseTraffic {
            index,
            spawn_at: site.at,
            entry: site.entry,
            threads,
            exact,
            instructions,
            flops,
            reads,
            writes,
            noc_flits,
            footprint_lines,
            dram_bytes: (dram_lo, dram_hi),
            bottleneck,
            streaming_intensity,
        });
    }

    let ridge = params.ridge_intensity();
    let verdict = workload_verdict(&phases, ridge, params);
    Ok(TrafficReport {
        phases,
        verdict,
        ridge_intensity: ridge,
        phase_order_exact,
        notes,
    })
}

/// Measured-regime bottleneck: time under each resource at the phase's
/// occupancy; the slowest wins. Mirrors `xmt_sim::perfmodel` with the
/// LSU port added (one memory issue per cluster per cycle).
fn classify_phase(
    p: &TrafficParams,
    threads: Option<u64>,
    instrs: u64,
    flops: u64,
    reads: u64,
    writes: u64,
    dram_bytes: u64,
) -> Bottleneck {
    let threads = threads.unwrap_or(p.clusters * p.tcus_per_cluster);
    if threads < p.tcus_per_cluster && flops == 0 {
        // Not even one cluster's worth of threads: round-trip latency
        // dominates any throughput term.
        return Bottleneck::Latency;
    }
    let usable = (threads as f64 / p.tcus_per_cluster as f64)
        .min(p.clusters as f64)
        .max(1.0);
    let eff = p.compute_efficiency;
    let t_issue = instrs as f64 / (usable * p.tcus_per_cluster as f64 * eff);
    let t_fpu = if p.fpus_per_cluster > 0 {
        flops as f64 / (usable * p.fpus_per_cluster as f64 * eff)
    } else {
        0.0
    };
    let accesses = reads.saturating_add(writes) as f64;
    let t_lsu = accesses / (usable * p.lsus_per_cluster as f64 * eff);
    let t_icn = (reads.max(writes)) as f64 / (usable * p.icn_words_per_cluster);
    let t_mem_net = t_lsu.max(t_icn);
    let t_dram = dram_bytes as f64 / p.dram_bytes_per_cycle;
    let t_lat = p.startup_cycles;
    let mut best = (Bottleneck::Issue, t_issue);
    for (b, t) in [
        (Bottleneck::Fpu, t_fpu),
        (Bottleneck::Icn, t_mem_net),
        (Bottleneck::Dram, t_dram),
        (Bottleneck::Latency, t_lat),
    ] {
        if t > best.1 {
            best = (b, t);
        }
    }
    best.0
}

/// Workload verdict: flop-carrying phases are judged by streaming
/// intensity against the ridge; pure-data workloads by their dominant
/// measured-regime bottleneck.
fn workload_verdict(phases: &[PhaseTraffic], ridge: f64, p: &TrafficParams) -> Verdict {
    let flop_phases: Vec<&PhaseTraffic> = phases.iter().filter(|ph| ph.flops.1 > 0).collect();
    if !flop_phases.is_empty() {
        if flop_phases
            .iter()
            .any(|ph| ph.streaming_intensity.is_none())
        {
            return Verdict::Unknown;
        }
        // The whole intensity interval of every flop phase below the
        // ridge: bandwidth-bound. Any interval entirely at or above it:
        // compute-bound. Straddling: unclassifiable.
        if flop_phases
            .iter()
            .all(|ph| ph.streaming_intensity.unwrap().1 < ridge)
        {
            return Verdict::BandwidthBound;
        }
        if flop_phases
            .iter()
            .any(|ph| ph.streaming_intensity.unwrap().0 >= ridge)
        {
            return Verdict::ComputeBound;
        }
        return Verdict::Unknown;
    }
    // No flops anywhere: classify by the dominant bottleneck.
    let max_threads = phases.iter().filter_map(|ph| ph.threads).max().unwrap_or(0);
    if max_threads < p.tcus_per_cluster {
        return Verdict::LatencyBound;
    }
    match phases.iter().map(|ph| ph.bottleneck).next() {
        Some(Bottleneck::Dram | Bottleneck::Icn) => Verdict::BandwidthBound,
        Some(Bottleneck::Latency) => Verdict::LatencyBound,
        Some(_) => Verdict::ComputeBound,
        None => Verdict::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_isa::reg::{fr, ir};
    use xmt_isa::ProgramBuilder;

    /// A small machine: 4 clusters × 32 TCUs, 1 FPU/LSU per cluster,
    /// 512-line aggregate cache of 8-word lines, 6.4 B/cyc DRAM.
    fn params() -> TrafficParams {
        TrafficParams {
            line_words: 8,
            cache_lines: 512,
            clusters: 4,
            tcus_per_cluster: 32,
            fpus_per_cluster: 1,
            lsus_per_cluster: 1,
            icn_words_per_cluster: 0.9,
            dram_bytes_per_cycle: 6.4,
            startup_cycles: 80.0,
            compute_efficiency: 0.9,
        }
    }

    /// 64 threads, each: load its private word from array A (base
    /// 1024), one fmul, store to array B (base 2048).
    fn streaming_kernel() -> Vec<Instr> {
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let done = b.label();
        b.li(ir(1), 64);
        b.spawn(ir(1), par);
        b.jump(done);
        b.bind(par);
        b.tid(ir(2));
        b.addi(ir(3), ir(2), 1024);
        b.flw(fr(1), ir(3), 0);
        b.fmul(fr(2), fr(1), fr(1));
        b.addi(ir(4), ir(2), 2048);
        b.fsw(fr(2), ir(4), 0);
        b.join();
        b.bind(done);
        b.halt();
        b.build().unwrap().instrs().to_vec()
    }

    #[test]
    fn straight_line_phase_is_exact() {
        let r = analyze(&streaming_kernel(), &params()).unwrap();
        assert_eq!(r.phases.len(), 1);
        let p = &r.phases[0];
        assert!(p.exact, "{r}");
        assert_eq!(p.threads, Some(64));
        assert_eq!(p.reads, (64, 64));
        assert_eq!(p.writes, (64, 64));
        assert_eq!(p.noc_flits, (256, 256));
        // 64 contiguous words at 1024 and at 2048: 8 lines each.
        assert_eq!(p.footprint_lines, Some((16, 16)));
        assert_eq!(p.dram_bytes, (512, 512));
        assert!(r.phase_order_exact);
    }

    #[test]
    fn resident_lines_are_not_recharged() {
        // Two identical phases over the same array: the second one's
        // footprint is warm, so its DRAM interval is exactly zero.
        let mut b = ProgramBuilder::new();
        let done = b.label();
        let spawn_once = |b: &mut ProgramBuilder| {
            let par = b.label();
            let next = b.label();
            b.li(ir(1), 64);
            b.spawn(ir(1), par);
            b.jump(next);
            b.bind(par);
            b.tid(ir(2));
            b.addi(ir(3), ir(2), 1024);
            b.lw(ir(4), ir(3), 0);
            b.sw(ir(4), ir(3), 0);
            b.join();
            b.bind(next);
        };
        spawn_once(&mut b);
        spawn_once(&mut b);
        b.jump(done);
        b.bind(done);
        b.halt();
        let prog = b.build().unwrap();
        let r = analyze(prog.instrs(), &params()).unwrap();
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].dram_bytes, (256, 256)); // 8 cold lines
        assert_eq!(r.phases[1].dram_bytes, (0, 0)); // all warm
    }

    #[test]
    fn streaming_intensity_classifies_low_intensity_as_bandwidth_bound() {
        let r = analyze(&streaming_kernel(), &params()).unwrap();
        // 64 flops over 16 lines × 32 B = 0.125 flops/byte, far below
        // the ridge of 4×1×0.9/6.4 ≈ 0.56.
        let (lo, hi) = r.phases[0].streaming_intensity.unwrap();
        assert_eq!(lo, hi);
        assert!(hi < r.ridge_intensity, "{hi} vs {}", r.ridge_intensity);
        assert_eq!(r.verdict, Verdict::BandwidthBound);
    }

    #[test]
    fn flop_dense_kernel_is_compute_bound() {
        // One load, many dependent fmuls: intensity far above ridge.
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let done = b.label();
        b.li(ir(1), 64);
        b.spawn(ir(1), par);
        b.jump(done);
        b.bind(par);
        b.tid(ir(2));
        b.addi(ir(3), ir(2), 1024);
        b.flw(fr(1), ir(3), 0);
        for _ in 0..32 {
            b.fmul(fr(1), fr(1), fr(1));
        }
        b.fsw(fr(1), ir(3), 0);
        b.join();
        b.bind(done);
        b.halt();
        let prog = b.build().unwrap();
        let r = analyze(prog.instrs(), &params()).unwrap();
        assert_eq!(r.verdict, Verdict::ComputeBound, "{r}");
        assert_eq!(r.phases[0].bottleneck, Bottleneck::Fpu);
    }

    #[test]
    fn unknown_addresses_degrade_to_bounds_not_errors() {
        // Pointer chase: the loaded address is ⊤, so DRAM gets a
        // bounding interval and the phase is inexact.
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let done = b.label();
        b.li(ir(1), 1);
        b.spawn(ir(1), par);
        b.jump(done);
        b.bind(par);
        b.li(ir(3), 0);
        b.lw(ir(4), ir(3), 0);
        b.lw(ir(4), ir(4), 0); // data-dependent address
        b.join();
        b.bind(done);
        b.halt();
        let prog = b.build().unwrap();
        let r = analyze(prog.instrs(), &params()).unwrap();
        let p = &r.phases[0];
        assert!(!p.exact);
        // The first load's line (word 0) is a certain cold miss; the
        // chased load may hit it or fill one more line.
        assert_eq!(p.dram_bytes, (32, 64));
        assert_eq!(p.footprint_lines, None);
        // One thread, no flops: latency-bound.
        assert_eq!(p.bottleneck, Bottleneck::Latency);
        assert_eq!(r.verdict, Verdict::LatencyBound);
    }

    #[test]
    fn branchy_bodies_report_path_bounds() {
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let done = b.label();
        let skip = b.label();
        b.li(ir(1), 64);
        b.spawn(ir(1), par);
        b.jump(done);
        b.bind(par);
        b.tid(ir(2));
        b.addi(ir(3), ir(2), 1024);
        b.beq(ir(2), ir(0), skip);
        b.sw(ir(2), ir(3), 0); // skipped by thread 0
        b.bind(skip);
        b.join();
        b.bind(done);
        b.halt();
        let prog = b.build().unwrap();
        let r = analyze(prog.instrs(), &params()).unwrap();
        let p = &r.phases[0];
        assert!(!p.exact);
        assert_eq!(p.writes, (0, 64));
        assert_eq!(p.noc_flits, (0, 128));
    }
}
