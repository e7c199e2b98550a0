//! Construction of a [`Machine`]: the [`MachineBuilder`]'s memory
//! image, fault plan validation, assembly of the components, and
//! restoring a [`Checkpoint`] into a freshly built machine. (The
//! builder struct itself is declared beside [`Machine`] in
//! `machine.rs`; every other knob is a [`SimConfig`] field.)

use super::*;

/// Default watchdog no-progress horizon in cycles. Generous: legitimate
/// quiet stretches are bounded by DRAM latency (hundreds of cycles), so
/// two million cycles without one instruction retiring or one thread
/// starting is always a hang.
const DEFAULT_WATCHDOG: u64 = 2_000_000;

impl MachineBuilder {
    /// Grow the memory image to at least `words` zeroed words.
    pub fn mem_words(mut self, words: usize) -> Self {
        if self.mem.len() < words {
            self.mem.resize(words, 0);
        }
        self
    }

    /// Store an `f32` slice at word address `addr` (bit-cast), growing
    /// the memory image to fit.
    pub fn write_f32s(mut self, addr: usize, data: &[f32]) -> Self {
        self = self.mem_words(addr + data.len());
        for (i, &v) in data.iter().enumerate() {
            self.mem[addr + i] = v.to_bits();
        }
        self
    }

    /// Store a `u32` slice at word address `addr`, growing the memory
    /// image to fit.
    pub fn write_u32s(mut self, addr: usize, data: &[u32]) -> Self {
        self = self.mem_words(addr + data.len());
        self.mem[addr..addr + data.len()].copy_from_slice(data);
        self
    }

    /// Build an unprobed machine (the zero-overhead default). Panics on
    /// an invalid configuration or fault plan; use
    /// [`MachineBuilder::try_build`] for a typed error instead.
    pub fn build(self) -> Machine {
        self.try_build().expect("invalid machine configuration")
    }

    /// Build an unprobed machine, returning
    /// [`SimError::InvalidConfig`] when the configuration
    /// ([`XmtConfig::validate`]) or fault plan is impossible (indices
    /// out of range, every TCU disabled, …).
    pub fn try_build(self) -> Result<Machine, SimError> {
        self.try_build_probed(NoProbe)
    }

    /// Build a machine with `probe` attached. Panicking sibling of
    /// [`MachineBuilder::try_build_probed`].
    pub fn build_probed<P: Probe>(self, probe: P) -> Machine<P> {
        self.try_build_probed(probe)
            .expect("invalid machine configuration")
    }

    /// Validate the fault plan against the configuration.
    fn validate_faults(&self) -> Result<(), SimError> {
        let (f, cfg) = (&self.sim.faults, &self.sim.arch);
        let err = |what| Err(SimError::InvalidConfig { what });
        if f.dead_clusters.iter().any(|&c| c >= cfg.clusters) {
            return err("dead cluster index out of range");
        }
        if f.dead_tcus
            .iter()
            .chain(&f.stuck_tcus)
            .any(|id| id.cluster >= cfg.clusters || id.tcu >= cfg.tcus_per_cluster)
        {
            return err("faulted TCU index out of range");
        }
        if f.dead_channels.iter().any(|&ch| ch >= cfg.dram_channels()) {
            return err("dead DRAM channel index out of range");
        }
        let p_ok = |p: f64| (0.0..=1.0).contains(&p);
        if !p_ok(f.dram_single) || !p_ok(f.dram_double) || !p_ok(f.noc_corrupt) {
            return err("fault probability out of [0, 1]");
        }
        if !f.dead_channels.is_empty() {
            if cfg.memory_modules > 64 {
                return err("degraded placement requires \u{2264} 64 memory modules");
            }
            let mut dead = f.dead_channels.clone();
            dead.sort_unstable();
            dead.dedup();
            if dead.len() >= cfg.dram_channels() {
                return err("at least one DRAM channel must stay online");
            }
        }
        Ok(())
    }

    /// Build a machine with `probe` attached. The probe's
    /// [`Probe::bind`] runs here, before the first cycle, so ring
    /// buffers are sized once and the hot path never allocates. With a
    /// benign fault plan the constructed machine is bit-identical to
    /// the pre-fault-injection simulator: no fault layer is interposed
    /// anywhere.
    pub fn try_build_probed<P: Probe>(self, mut probe: P) -> Result<Machine<P>, SimError> {
        self.sim
            .arch
            .validate()
            .map_err(|what| SimError::InvalidConfig { what })?;
        self.validate_faults()?;
        let MachineBuilder { sim, prog, mem } = self;
        let SimConfig {
            arch: cfg,
            engine,
            tier,
            faults,
            watchdog,
            max_cycles,
            ..
        } = sim;
        probe.bind(&cfg);
        let next_sample = if P::ENABLED {
            probe.interval().max(1)
        } else {
            u64::MAX
        };
        let topo = cfg.topology();
        let reply_topo = if topo.is_nonblocking() {
            Topology::pure_mot(cfg.memory_modules, cfg.clusters)
        } else {
            Topology::hybrid(
                cfg.memory_modules,
                cfg.clusters,
                cfg.mot_levels,
                cfg.butterfly_levels,
            )
        };
        let modules = MemoryModules::new(cfg.memory_modules, cfg.cache);
        let mut channels: Vec<DramChannel> = (0..cfg.dram_channels())
            .map(|_| DramChannel::new(cfg.dram))
            .collect();
        for (ch, channel) in channels.iter_mut().enumerate() {
            if let Some(ecc) = faults.ecc_for_channel(ch) {
                channel.enable_ecc(ecc);
            }
        }
        // Dead DRAM channels take their whole memory-module group
        // offline; the hash spreads lines over the survivors.
        let offline_modules: Vec<usize> = faults
            .dead_channels
            .iter()
            .flat_map(|&ch| ch * cfg.mm_per_dram_ctrl..(ch + 1) * cfg.mm_per_dram_ctrl)
            .collect();
        let hash = if offline_modules.is_empty() {
            AddressHash::new(cfg.memory_modules, cfg.cache.line_words)
        } else {
            AddressHash::degraded(cfg.memory_modules, cfg.cache.line_words, &offline_modules)
        };
        let mut req_net = xmt_noc::build_network(topo);
        let mut reply_net = xmt_noc::build_network(reply_topo);
        if let Some(lf) = faults.req_net_faults() {
            req_net = Box::new(FaultyNetwork::new(req_net, lf));
        }
        if let Some(lf) = faults.reply_net_faults() {
            reply_net = Box::new(FaultyNetwork::new(reply_net, lf));
        }
        let decoded = DecodedProgram::new(&prog);
        let layout = RegLayout::of(&decoded);
        let trace = (tier == TranslationTier::Block)
            .then(|| Box::new(TraceCache::new(&decoded, FPU_LATENCY, MDU_LATENCY)));
        let n_channels = channels.len();
        let mut m = Machine {
            prog,
            mem,
            gregs: [0; NUM_GREGS],
            mtcu_rf: RegFile::new(0),
            mode: Mode::Serial {
                pc: 0,
                resume_at: 0,
            },
            next_tid: 0,
            spawn_count: 0,
            spawn_entry: 0,
            clusters: vec![ClusterTcus::new(cfg.tcus_per_cluster, layout); cfg.clusters],
            rr: 0,
            cluster_instr: vec![0; cfg.clusters],
            req_net,
            reply_net,
            modules,
            channels,
            module_outbox: vec![VecDeque::new(); cfg.memory_modules],
            hash,
            txns: Txns::new(cfg.clusters, cfg.tcus_per_cluster),
            max_cycles: max_cycles.unwrap_or(200_000_000),
            watchdog: watchdog.unwrap_or(DEFAULT_WATCHDOG),
            progress_cycle: 0,
            progress_mark: 0,
            stats: MachineStats::default(),
            spawn_log: Vec::new(),
            tracker: None,
            engine,
            decoded,
            mem_clock: 0,
            active_modules: ActiveSet::new(cfg.memory_modules),
            active_channels: ActiveSet::new(n_channels),
            active_outboxes: ActiveSet::new(cfg.memory_modules),
            masks: vec![ClusterMasks::new(cfg.tcus_per_cluster); cfg.clusters],
            scratch_replies: Vec::new(),
            scratch_deliveries: Vec::new(),
            scratch_creqs: Vec::new(),
            scratch_resps: Vec::new(),
            probe,
            next_sample,
            last_sample: 0,
            trace,
            par_active: ActiveSet::new(cfg.clusters),
            parked: Parked::new(cfg.clusters),
            cfg,
        };
        for &c in &faults.dead_clusters {
            m.masks[c].disabled = ones(m.cfg.tcus_per_cluster);
        }
        for id in &faults.dead_tcus {
            m.masks[id.cluster].disabled |= 1u64 << id.tcu;
        }
        for id in &faults.stuck_tcus {
            let masks = &mut m.masks[id.cluster];
            masks.stuck |= (1u64 << id.tcu) & !masks.disabled;
        }
        // At least one TCU must be able to run threads.
        let all = ones(m.cfg.tcus_per_cluster);
        if m.masks.iter().all(|masks| masks.disabled == all) {
            return Err(SimError::InvalidConfig {
                what: "every TCU is disabled",
            });
        }
        Ok(m)
    }

    /// Build a machine and restore `cp` into it, resuming the run the
    /// checkpoint was taken from. The builder must describe the same
    /// machine (config, program, fault plan) that produced the
    /// checkpoint — geometry is validated, and the fault layers rewind
    /// their deterministic streams to the saved cursors, so the resumed
    /// run finishes with the same final cycle count and spawn digest as
    /// the uninterrupted one under every engine.
    pub fn resume(self, cp: &Checkpoint) -> Result<Machine, SimError> {
        let mut m = self.try_build()?;
        let geometry_ok = cp.clusters as usize == m.cfg.clusters
            && cp.tcus_per_cluster as usize == m.cfg.tcus_per_cluster
            && cp.memory_modules as usize == m.cfg.memory_modules
            && cp.dram_channels as usize == m.cfg.dram_channels()
            && cp.prog_len as usize == m.prog.len()
            && cp.gregs.len() == NUM_GREGS
            && cp.mtcu_iregs.len() == 32
            && cp.mtcu_fregs.len() == 32
            && cp.cluster_rr.len() == m.cfg.clusters
            && cp.cluster_instr.len() == m.cfg.clusters
            && cp.modules.len() == m.cfg.memory_modules
            && (cp.modules.iter()).all(|ms| ms.tags.len() == m.cfg.cache.lines)
            && cp.channels.len() == m.cfg.dram_channels()
            && cp.mem_clock <= cp.cycle;
        if !geometry_ok {
            return Err(SimError::InvalidConfig {
                what: "checkpoint geometry does not match the machine",
            });
        }
        // The machine has one clock and one round-robin counter; the
        // format carries the clock twice and the counter per cluster.
        let rr = cp.cluster_rr[0];
        if cp.stats.cycles != cp.cycle
            || cp.cluster_rr.iter().any(|&r| r != rr)
            || rr as usize >= m.cfg.tcus_per_cluster
        {
            return Err(SimError::InvalidConfig {
                what: "checkpoint clock or round-robin state is inconsistent",
            });
        }
        m.mem = cp.mem.clone();
        m.gregs.copy_from_slice(&cp.gregs);
        for i in 0..32 {
            m.mtcu_rf.write_i(ir(i), cp.mtcu_iregs[i]);
            m.mtcu_rf.write_f(fr(i), f32::from_bits(cp.mtcu_fregs[i]));
        }
        m.next_tid = cp.next_tid;
        m.spawn_count = cp.spawn_count;
        m.spawn_entry = cp.spawn_entry as usize;
        m.stats = cp.stats;
        m.spawn_log = cp.spawn_log.clone();
        m.rr = rr as usize;
        m.cluster_instr = cp.cluster_instr.clone();
        m.mode = Mode::Serial {
            pc: cp.pc as usize,
            resume_at: cp.cycle + 1,
        };
        // Every memory-side component resumes on the clock it paused on
        // (the butterfly NoC arbitrates by clock parity).
        m.skip_memory(cp.mem_clock);
        for i in 0..m.cfg.memory_modules {
            m.modules.sync_to(i, cp.mem_clock);
        }
        for channel in &mut m.channels {
            channel.sync_to(cp.mem_clock);
        }
        // The restored clock counts as fresh progress.
        m.progress_cycle = cp.cycle;
        m.progress_mark = cp.stats.instructions + cp.stats.threads;
        for (module, ms) in m.modules.iter_mut().zip(&cp.modules) {
            let bank = module.bank_mut();
            bank.restore_tags(&ms.tags);
            bank.stats = ms.cache;
            module.stats = ms.module;
        }
        for (channel, cs) in m.channels.iter_mut().zip(&cp.channels) {
            channel.restore_state(cs.stats, cs.transfers);
        }
        m.req_net.restore_stats(cp.req_stats);
        m.reply_net.restore_stats(cp.reply_stats);
        Ok(m)
    }
}
