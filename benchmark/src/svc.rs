//! The two service workloads: one client over loopback TCP against an
//! `xmt-server` with one worker, asking for jobs it has never seen
//! (`svc_cold`) or for sweeps of jobs it has cached (`svc_hit`).

use crate::harness::{RoundPlan, Workload};
use crate::sim::Subject;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use xmt_server::{
    Client, ClientConfig, JobId, NetServer, RemoteResult, RemoteStats, Server, ServerConfig,
    SimRequest, Submission,
};

/// Cached keys per `svc_hit` sweep (and prefilled in every set-up).
pub const SWEEP: usize = 16;

/// Preemption quantum in simulated cycles: the 512-point job runs
/// 10 512 cycles, so every cold job is checkpointed, requeued, rebuilt
/// and resumed at least three times (≥ 4 slices).
pub const QUANTUM: u64 = 2400;

/// One in this many cold results is recomputed directly and compared.
const DIRECT_CHECK_EVERY: u64 = 64;

const WAIT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Hit,
}

/// The directory the benchmark may write in: `benchmark/out` of the
/// checkout it runs from (the working directory when that is the
/// repository root, else this package's own directory).
pub fn out_dir() -> PathBuf {
    let local = std::path::Path::new("benchmark");
    let base = if local.join("Cargo.toml").exists() {
        local.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    base.join("out")
}

/// The request for input wave `input_seed`.
pub fn request(input_seed: u64) -> SimRequest {
    let s = Subject::service();
    SimRequest::fft(&[s.n], s.copies(), input_seed, &s.arch)
}

/// The canonical result bytes of `req` run directly, no service.
pub fn direct_bytes(req: &SimRequest, tr: &Tracer) -> Vec<u8> {
    let builder = tr.span("SimRequest::builder", || req.builder());
    let mut m = tr.span("MachineBuilder::build", || builder.build());
    let out = tr.span("Machine::run", || m.run());
    tr.span("wire::encode_report", || {
        xmt_server::encode_report(&out.report)
    })
}

/// A running service and its one client.
pub struct Live {
    pub client: Client,
    net: NetServer,
    pub server: Arc<Server>,
    journal: Option<PathBuf>,
}

impl Live {
    /// Start server, TCP front end and client. `journal` is the
    /// write-ahead journal's file, fsynced before every acknowledgement.
    pub fn start(journal: Option<PathBuf>, tr: &Tracer) -> Result<Live, String> {
        if let Some(j) = &journal {
            let _ = std::fs::remove_file(j);
        }
        let cfg = ServerConfig {
            workers: 1,
            quantum: QUANTUM,
            journal: journal.clone(),
            ..ServerConfig::default()
        };
        let server = Arc::new(
            tr.span("Server::start", || Server::start(cfg))
                .map_err(|e| format!("server start: {e}"))?,
        );
        let net = tr
            .span("NetServer::bind", || {
                NetServer::bind(Arc::clone(&server), "127.0.0.1:0")
            })
            .map_err(|e| format!("bind loopback: {e}"))?;
        let addr = net.local_addr().to_string();
        let client = tr
            .span("Client::connect", || {
                Client::connect(&addr, ClientConfig::default())
            })
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Live {
            client,
            net,
            server,
            journal,
        })
    }

    pub fn submit(&mut self, req: &SimRequest, tr: &Tracer) -> Result<JobId, String> {
        tr.span("Client::submit", || {
            self.client.submit(Submission::new(req.clone()))
        })
        .map_err(|e| format!("submit: {e}"))
    }

    pub fn wait(&mut self, id: JobId, tr: &Tracer) -> Result<RemoteResult, String> {
        tr.span("Client::wait", || self.client.wait(id, WAIT))
            .map_err(|e| format!("wait: {e}"))
    }

    /// Stop and join every thread, then delete the journal file.
    pub fn stop(self) {
        let Live {
            client,
            mut net,
            server,
            journal,
        } = self;
        drop(client);
        net.stop();
        drop(net);
        drop(server);
        if let Some(j) = journal {
            let _ = std::fs::remove_file(j);
        }
    }
}

pub struct SvcWorkload {
    kind: Kind,
    seed: u64,
    plan_shape: RoundPlan,
    with_journal: bool,
    round: u64,
    /// Deterministic stream for never-seen keys and sweep orders.
    rng: u64,
    live: Option<Live>,
    /// The prefilled keys and their result bytes.
    prefill: Vec<(SimRequest, Vec<u8>)>,
    cold_ops: u64,
    /// Set-up failures surface at the first check.
    setup_error: Option<String>,
    /// One prefilled result per round is recomputed directly.
    prefill_checked: bool,
    /// Slices of the last checked cold job, for `server.slices_per_op`.
    pub last_slices: u32,
    /// The service's own counters as the last round ended.
    pub last_stats: Option<RemoteStats>,
}

/// What an op returns for checking: each job's key — the input seed of
/// a cold job, the prefill index of a cached one — and what came back.
pub type SvcOut = Vec<(u64, Result<RemoteResult, String>)>;

impl SvcWorkload {
    pub fn new(kind: Kind, seed: u64, plan_shape: RoundPlan, with_journal: bool) -> SvcWorkload {
        SvcWorkload {
            kind,
            seed,
            plan_shape,
            with_journal,
            round: 0,
            rng: seed ^ 0x5EED_5EED_5EED_5EED,
            live: None,
            prefill: Vec::new(),
            cold_ops: 0,
            setup_error: None,
            prefill_checked: false,
            last_slices: 0,
            last_stats: None,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn kind(&self) -> Kind {
        self.kind
    }

    fn try_setup(&mut self, tr: &Tracer) -> Result<(), String> {
        let journal = self
            .with_journal
            .then(|| out_dir().join(format!("journal-{}-{}.bin", std::process::id(), self.round)));
        let mut live = Live::start(journal, tr)?;
        // Prefill: SWEEP keys derived from the seed, each a cold job.
        self.prefill.clear();
        for k in 0..SWEEP as u64 {
            let req = request(self.seed.wrapping_mul(1_000_003).wrapping_add(k));
            let id = live.submit(&req, tr)?;
            let res = live.wait(id, tr)?;
            if !res.completed || res.from_cache {
                return Err(format!(
                    "prefill key {k}: completed {} from_cache {}",
                    res.completed, res.from_cache
                ));
            }
            self.prefill.push((req, res.bytes));
        }
        self.live = Some(live);
        self.prefill_checked = false;
        Ok(())
    }
}

impl Workload for SvcWorkload {
    type Out = SvcOut;

    fn plan(&self) -> RoundPlan {
        self.plan_shape
    }

    fn prepare(&mut self, round: u64) {
        self.round = round;
    }

    fn setup(&mut self, tr: &Tracer) {
        self.setup_error = self.try_setup(tr).err();
    }

    fn op(&mut self, tr: &Tracer) -> SvcOut {
        match self.kind {
            Kind::Cold => {
                // Far from the prefilled seeds, never repeated.
                let input_seed = self.next_u64() | 1 << 63;
                let req = request(input_seed);
                let res = match self.live.as_mut() {
                    None => Err("service is not up".to_string()),
                    Some(live) => live.submit(&req, tr).and_then(|id| live.wait(id, tr)),
                };
                vec![(input_seed, res)]
            }
            Kind::Hit => {
                // The sweep in a seeded order: all submits, then all waits.
                let mut order: Vec<usize> = (0..SWEEP).collect();
                for i in (1..SWEEP).rev() {
                    order.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
                }
                let Some(live) = self.live.as_mut() else {
                    return vec![(0, Err("service is not up".to_string()))];
                };
                let ids: Vec<(usize, Result<JobId, String>)> = order
                    .iter()
                    .map(|&k| (k, live.submit(&self.prefill[k].0, tr)))
                    .collect();
                ids.into_iter()
                    .map(|(k, id)| (k as u64, id.and_then(|id| live.wait(id, tr))))
                    .collect()
            }
        }
    }

    fn check(&mut self, out: SvcOut) -> Result<(), String> {
        if let Some(e) = &self.setup_error {
            return Err(format!("set-up failed: {e}"));
        }
        if !self.prefill_checked {
            self.prefill_checked = true;
            let (req, bytes) = &self.prefill[(self.round as usize) % SWEEP];
            if *bytes != direct_bytes(req, &Tracer::new()) {
                return Err("prefilled result differs from a direct Machine::run".into());
            }
        }
        for (key, res) in out {
            let res = res?;
            match self.kind {
                Kind::Cold => {
                    self.cold_ops += 1;
                    self.last_slices = res.slices;
                    if !res.completed || res.from_cache || res.slices < 4 {
                        return Err(format!(
                            "cold job: completed {} from_cache {} slices {}",
                            res.completed, res.from_cache, res.slices
                        ));
                    }
                    if self.cold_ops % DIRECT_CHECK_EVERY == 1
                        && res.bytes != direct_bytes(&request(key), &Tracer::new())
                    {
                        return Err("service result differs from a direct Machine::run".into());
                    }
                }
                Kind::Hit => {
                    let cached = &self.prefill[key as usize].1;
                    if !res.from_cache || res.bytes != *cached {
                        return Err(format!(
                            "cached key {key}: from_cache {} bytes equal {}",
                            res.from_cache,
                            res.bytes == *cached
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn teardown(&mut self) {
        if let Some(mut live) = self.live.take() {
            self.last_stats = live.client.stats().ok();
            live.stop();
        }
    }
}
