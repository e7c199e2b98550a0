//! [`SimConfig`] — a simulation request as a plain value.
//!
//! Every knob a machine has — architecture, engine, tier, fault plan
//! (dead components included), watchdog, cycle limit, starting memory
//! size, probe interval — is a field of [`SimConfig`], and only there:
//! the whole value is `Clone + PartialEq`, and [`SimConfig::builder`]
//! is the one way to a [`MachineBuilder`], which adds nothing but the
//! program and its memory image.
//!
//! Because the workspace is vendored-offline (no serde), the value
//! carries its own canonical encoding: [`SimConfig::cache_canon`]
//! renders every field that can change a run's results — floats
//! bit-exactly via `to_bits`, the architecture from
//! [`crate::config::ARCH_WORDS`] — into a stable `key=value` text, and
//! [`SimConfig::digest`] folds that text together with a program
//! digest into the content address the result cache and job queue key
//! on. The cache key deliberately **excludes the engine and the probe
//! interval**: the engines are bit-identical (so an engine
//! change must *hit* the cache), and probed/streaming runs bypass the
//! cache entirely; it **includes the tier**, matching the service
//! contract in DESIGN.md §16.

use crate::config::{XmtConfig, ARCH_WORDS};
use crate::fault::{FaultPlan, TcuId};
use crate::machine::{Engine, MachineBuilder};
use crate::probe::IntervalProbe;
use crate::tier::TranslationTier;
use xmt_isa::codec::encode_program;
use xmt_isa::Program;

/// 64-bit FNV-1a over a byte string — the workspace's standard
/// content-digest primitive (same family as `spawn_digest`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

/// [`fnv1a`] as a running hash: the digest of everything fed to it so
/// far. As a [`CanonSink`] it hashes a canonical text while it is
/// written, without building the text.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of nothing.
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feed `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    /// The digest of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// Where canonical text goes: a buffer ([`SimConfig::cache_canon`]'s
/// text) or an [`Fnv1a`] (a content address, hashed as it is written,
/// the text never built). Integers are appended digit by digit rather
/// than through `core::fmt`, which costs more than the hashing.
pub trait CanonSink {
    /// Append `bytes`, a piece of UTF-8 text.
    fn put(&mut self, bytes: &[u8]);

    /// Append `s`.
    fn text(&mut self, s: &str) {
        self.put(s.as_bytes());
    }

    /// Append `v` in decimal, as `{}` prints it.
    fn dec(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.put(&buf[at..]);
    }

    /// Append `v` as 16 lowercase hex digits, as `{:016x}` prints it.
    fn hex(&mut self, v: u64) {
        let mut buf = [0u8; 16];
        for (i, d) in buf.iter_mut().enumerate() {
            let nibble = (v >> (60 - 4 * i)) as u8 & 0xf;
            *d = if nibble < 10 {
                b'0' + nibble
            } else {
                b'a' + nibble - 10
            };
        }
        self.put(&buf);
    }

    /// Append `items` as `{:?}` prints a slice: `[a, b]`, each item
    /// written by `item`.
    fn list<T>(&mut self, items: &[T], item: impl Fn(&mut Self, &T))
    where
        Self: Sized,
    {
        self.text("[");
        for (i, x) in items.iter().enumerate() {
            if i > 0 {
                self.text(", ");
            }
            item(self, x);
        }
        self.text("]");
    }
}

impl CanonSink for Fnv1a {
    fn put(&mut self, bytes: &[u8]) {
        self.bytes(bytes);
    }
}

impl CanonSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Content digest of a program: FNV-1a over its canonical instruction
/// encoding (`xmt_isa::codec::encode_program`). Two programs with the
/// same digest execute identically on every engine.
pub fn program_digest(prog: &Program) -> u64 {
    fnv1a(&encode_program(prog))
}

/// A complete, self-contained description of one simulation run.
///
/// Everything a machine can be told, as data: architecture,
/// engine, execution tier, fault plan (including degradation), watchdog
/// and cycle-limit overrides, memory-image size, and an optional probe
/// interval for streaming runs. A `SimConfig` plus a program is a
/// *request* — hashable, comparable, and replayable bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The architecture configuration (Table II row or scaled variant).
    pub arch: XmtConfig,
    /// Advance engine. Not part of the cache key: engines are
    /// bit-identical by contract.
    pub engine: Engine,
    /// Execution tier. Part of the cache key (service contract).
    pub tier: TranslationTier,
    /// Deterministic fault plan; carries the seed and all hard faults.
    pub faults: FaultPlan,
    /// Watchdog no-progress horizon override (`None` = default).
    pub watchdog: Option<u64>,
    /// Runaway cycle-limit override (`None` = default).
    pub max_cycles: Option<u64>,
    /// Sampling interval for streamed [`IntervalProbe`] rows; `None`
    /// runs unprobed (the zero-overhead default). Not part of the
    /// cache key: probed runs bypass the result cache.
    pub probe_interval: Option<u64>,
    /// Ring capacity for the interval probe (rows retained).
    pub probe_capacity: usize,
    /// Words of zeroed data memory the machine starts with (program
    /// inputs are written on top of this by the workload).
    pub mem_words: usize,
}

impl SimConfig {
    /// A config for `arch` with every knob at its default: FastForward
    /// engine, Block tier, benign faults, default watchdog/limits,
    /// unprobed, no memory.
    pub fn new(arch: &XmtConfig) -> Self {
        Self {
            arch: *arch,
            engine: Engine::default(),
            tier: TranslationTier::default(),
            faults: FaultPlan::default(),
            watchdog: None,
            max_cycles: None,
            probe_interval: None,
            probe_capacity: 1 << 14,
            mem_words: 0,
        }
    }

    /// Select the advance engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Select the execution tier (default [`TranslationTier::Block`],
    /// the trace-cache replay path). [`TranslationTier::Interpreter`]
    /// restores per-instruction dispatch; the two are bit-identical in
    /// every architectural and statistical output, differing only in
    /// host-side speed.
    pub fn tier(mut self, tier: TranslationTier) -> Self {
        self.tier = tier;
        self
    }

    /// Attach a deterministic [`FaultPlan`]. A benign plan (the
    /// default) interposes nothing: the machine is bit-identical to one
    /// built without faults.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Override the watchdog no-progress horizon (default two million
    /// cycles; see [`crate::SimError::Stalled`]).
    pub fn watchdog(mut self, horizon: u64) -> Self {
        self.watchdog = Some(horizon);
        self
    }

    /// Override the runaway cycle limit (default 200 million cycles;
    /// see [`crate::SimError::CycleLimit`]).
    pub fn max_cycles(mut self, max: u64) -> Self {
        self.max_cycles = Some(max);
        self
    }

    /// Request streamed interval sampling every `interval` cycles.
    pub fn probed(mut self, interval: u64) -> Self {
        self.probe_interval = Some(interval);
        self
    }

    /// Set the interval-probe ring capacity.
    pub fn probe_capacity(mut self, rows: usize) -> Self {
        self.probe_capacity = rows;
        self
    }

    /// Require at least `words` words of data memory.
    pub fn mem_words(mut self, words: usize) -> Self {
        self.mem_words = self.mem_words.max(words);
        self
    }

    /// A [`MachineBuilder`] for `prog` on this config, with
    /// [`SimConfig::mem_words`] zeroed words of memory — the one way
    /// to build a machine. Workloads write their inputs on the returned
    /// builder and `build`/`resume` as usual.
    pub fn builder(&self, prog: Program) -> MachineBuilder {
        MachineBuilder {
            sim: self.clone(),
            prog,
            mem: vec![0; self.mem_words],
        }
    }

    /// The interval probe this config asks for, or `None` for an
    /// unprobed run.
    pub fn interval_probe(&self) -> Option<IntervalProbe> {
        self.probe_interval
            .map(|iv| IntervalProbe::new(iv, self.probe_capacity.max(1)))
    }

    /// The canonical text of everything that can change the run's
    /// *results* — architecture, tier, fault plan (seed included),
    /// watchdog, cycle limit, memory size — and nothing that cannot
    /// (engine, probe settings). Stable across runs and platforms,
    /// floats rendered bit-exactly. The architecture is printed from
    /// [`ARCH_WORDS`], a line per group.
    pub fn cache_canon(&self) -> String {
        let mut s = Vec::with_capacity(512);
        self.write_canon(&mut s);
        String::from_utf8(s).expect("every piece of the canon is UTF-8")
    }

    /// Write [`SimConfig::cache_canon`]'s text to `w`.
    fn write_canon(&self, w: &mut impl CanonSink) {
        let f = &self.faults;
        w.text("arch=");
        w.text(self.arch.name);
        let mut line = 0;
        for k in ARCH_WORDS.iter().filter(|k| !k.key.is_empty()) {
            w.text(if k.line == line { " " } else { "\n" });
            line = k.line;
            w.text(k.key);
            w.text("=");
            let v = (k.get)(&self.arch);
            if k.float {
                w.hex(v);
            } else {
                w.dec(v);
            }
        }
        w.text("\ntier=");
        w.text(tier_canon(&self.tier));
        let (dram_retry, noc_retry, noc_backoff) = FaultPlan::RETRY_POLICY;
        w.text("\nseed=");
        w.dec(f.seed);
        w.text(" dram_single=");
        w.hex(f.dram_single.to_bits());
        w.text(" dram_double=");
        w.hex(f.dram_double.to_bits());
        w.text(" dram_retry=");
        w.dec(u64::from(dram_retry));
        w.text(" noc_corrupt=");
        w.hex(f.noc_corrupt.to_bits());
        w.text(" noc_retry=");
        w.dec(u64::from(noc_retry));
        w.text(" noc_backoff=");
        w.dec(noc_backoff);
        w.text("\ndead_clusters=");
        w.list(&f.dead_clusters, |w, &c| w.dec(c as u64));
        w.text(" dead_tcus=");
        w.list(&f.dead_tcus, put_tcu);
        w.text(" stuck_tcus=");
        w.list(&f.stuck_tcus, put_tcu);
        w.text(" dead_channels=");
        w.list(&f.dead_channels, |w, &c| w.dec(c as u64));
        w.text("\nwatchdog=");
        w.dec(self.watchdog.unwrap_or(0));
        w.text(" max_cycles=");
        w.dec(self.max_cycles.unwrap_or(0));
        w.text(" mem_words=");
        w.dec(self.mem_words as u64);
        w.text("\n");
    }

    /// The content address of `(program, this config)`: FNV-1a over
    /// the program digest and [`SimConfig::cache_canon`]. This is the
    /// cache key `(program digest, config, seed, fault plan, tier)`
    /// from the service contract — bit-identical requests collide, and
    /// an engine change alone does not change the address. The canon
    /// text is hashed as it is written, never built.
    pub fn digest(&self, prog_digest: u64) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(&prog_digest.to_le_bytes());
        self.write_canon(&mut h);
        h.finish()
    }
}

/// A TCU id as a `(cluster, tcu)` pair, the way the tuple prints with
/// `{:?}`.
fn put_tcu(w: &mut impl CanonSink, t: &TcuId) {
    w.text("(");
    w.dec(t.cluster as u64);
    w.text(", ");
    w.dec(t.tcu as u64);
    w.text(")");
}

fn tier_canon(t: &TranslationTier) -> &'static str {
    match t {
        TranslationTier::Interpreter => "interpreter",
        TranslationTier::Block => "block",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_isa::ProgramBuilder;

    fn prog() -> Program {
        let mut b = ProgramBuilder::new();
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn digest_ignores_engine_and_probe_but_not_tier_or_seed() {
        let arch = XmtConfig::xmt_4k().scaled_to(4);
        let base = SimConfig::new(&arch).mem_words(64);
        let pd = program_digest(&prog());
        let d0 = base.digest(pd);
        assert_eq!(
            base.clone().engine(Engine::Reference).digest(pd),
            d0,
            "engine must not change the content address"
        );
        assert_eq!(
            base.clone().probed(64).digest(pd),
            d0,
            "probe settings must not change the content address"
        );
        assert_ne!(
            base.clone().tier(TranslationTier::Interpreter).digest(pd),
            d0,
            "tier is part of the service contract key"
        );
        assert_ne!(
            base.clone().faults(FaultPlan::new(7)).digest(pd),
            d0,
            "fault seed is part of the key"
        );
        assert_ne!(base.clone().mem_words(128).digest(pd), d0);
        assert_ne!(
            base.digest(pd.wrapping_add(1)),
            d0,
            "program digest is part of the key"
        );
    }

    #[test]
    fn canon_is_stable_and_complete() {
        let arch = XmtConfig::xmt_8k().scaled_to(8);
        let c = SimConfig::new(&arch)
            .engine(Engine::Threaded { threads: 3 })
            .tier(TranslationTier::Interpreter)
            .faults(
                FaultPlan::new(9)
                    .dram_flips(1e-6, 1e-9)
                    .stuck_tcu(1, 2)
                    .dead_cluster(3)
                    .dead_channel(0),
            )
            .watchdog(10_000)
            .max_cycles(1 << 20)
            .probed(128)
            .mem_words(4096);
        let canon = c.cache_canon();
        assert_eq!(canon, c.clone().cache_canon(), "encoding is deterministic");
        for needle in [
            "tier=interpreter",
            "seed=9",
            "stuck_tcus=[(1, 2)]",
            "dead_clusters=[3]",
            "dead_channels=[0]",
            "watchdog=10000",
            "max_cycles=1048576",
            "mem_words=4096",
        ] {
            assert!(canon.contains(needle), "canon missing {needle}");
        }
    }

    /// The pinned `.rep` file names are digests of this text, so it
    /// must not move: every field off its default, captured once.
    #[test]
    fn cache_canon_text_is_pinned() {
        let c = SimConfig::new(&XmtConfig::xmt_4k().scaled_to(16))
            .engine(Engine::Reference)
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
            .mem_words(4096);
        assert_eq!(
            c.cache_canon(),
            concat!(
                "arch=4k clusters=16 tpc=32 mm=16 mmpc=8 fpus=1 alus=32 mdus=1 lsus=1 ",
                "mot=8 bfly=0 clock=400a666666666666 nm=22 layers=1\n",
                "cache_lines=1024 cache_ways=8 cache_lw=8 cache_hit=2\n",
                "dram_bpc=4020000000000000 dram_lat=60 dram_lb=32\n",
                "tier=interpreter\n",
                "seed=24301 dram_single=3eb0c6f7a0b5ed8d dram_double=3e112e0be826d695 ",
                "dram_retry=2 noc_corrupt=3ee4f8b588e368f1 noc_retry=4 noc_backoff=2\n",
                "dead_clusters=[3] dead_tcus=[(1, 4)] stuck_tcus=[(2, 5)] dead_channels=[1]\n",
                "watchdog=10000 max_cycles=1048576 mem_words=4096\n",
            )
        );
    }

    /// The canon writer prints integers, hex words and lists exactly as
    /// `{}`, `{:016x}` and `{:?}` do, at the edges of each digit count.
    #[test]
    fn canon_numbers_print_as_core_fmt_does() {
        let mut values = vec![0, 1, 9, 10, 99, 100, u64::MAX, u64::MAX / 10, 1 << 63];
        values.extend(
            (0..64)
                .map(|b| 1u64 << b)
                .chain((1..20).map(|e| 10u64.pow(e) - 1)),
        );
        for v in values {
            let mut w = Vec::new();
            w.dec(v);
            w.text(" ");
            w.hex(v);
            assert_eq!(String::from_utf8(w).unwrap(), format!("{v} {v:016x}"));
        }
        for list in [&[][..], &[7][..], &[3, 0, 12_345][..]] {
            let mut w = Vec::new();
            w.list(list, |w, &x: &usize| w.dec(x as u64));
            assert_eq!(String::from_utf8(w).unwrap(), format!("{list:?}"));
        }
    }

    /// Hashed as it is written, the address is still FNV-1a over the
    /// program digest's bytes and then the canon text's.
    #[test]
    fn digest_is_fnv1a_of_the_canon_bytes() {
        let c = SimConfig::new(&XmtConfig::xmt_4k().scaled_to(16))
            .faults(
                FaultPlan::new(3)
                    .dead_tcu(1, 4)
                    .stuck_tcu(2, 5)
                    .stuck_tcu(0, 1),
            )
            .mem_words(4096);
        let pd = program_digest(&prog());
        let mut bytes = pd.to_le_bytes().to_vec();
        bytes.extend_from_slice(c.cache_canon().as_bytes());
        assert_eq!(c.digest(pd), fnv1a(&bytes));
        assert!(c.cache_canon().contains("stuck_tcus=[(2, 5), (0, 1)]"));
    }
}
