//! [`SimRequest`] — one simulation job as a plain, hashable value.
//!
//! A request is a [`WorkloadSpec`] (what program and inputs to run)
//! plus a [`SimConfig`] (how to run it). Both halves are data: the
//! pair can be cloned across threads, rendered canonically, and
//! content-addressed, which is what lets the job queue deduplicate
//! work through the result cache and lets a preempted job be rebuilt
//! from scratch on a different worker thread.

use xmt_fft::golden::{self, GoldenCase};
use xmt_fft::plan::XmtFftPlan;
use xmt_fft::run::plan_builder_cfg;
use xmt_sim::simcfg::fnv1a;
use xmt_sim::{program_digest, FaultPlan, MachineBuilder, SimConfig, XmtConfig};

/// What program a job runs and on what inputs. Workloads are named
/// deterministically — the spec, not the resolved images, is what the
/// content address covers — so two requests with equal specs and equal
/// configs are guaranteed to compute identical results.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// A golden workload by name: one of [`golden::cases`] (the five
    /// paper configurations) or [`golden::scaling_cases`] (the
    /// paper-scale FFT plans).
    Golden {
        /// The case name, e.g. `"fft_radix8_n512"`.
        name: String,
    },
    /// An FFT plan of arbitrary shape on a deterministic sample input.
    Fft {
        /// Transform dimensions (1-, 2- or 3-D).
        dims: Vec<usize>,
        /// Data-replication factor (paper's bandwidth knob).
        copies: u32,
        /// Seed for the deterministic input wave.
        input_seed: u64,
    },
}

impl WorkloadSpec {
    /// Canonical text of the spec: the workload half of the content
    /// address.
    pub fn canon(&self) -> String {
        match self {
            WorkloadSpec::Golden { name } => format!("golden:{name}"),
            WorkloadSpec::Fft {
                dims,
                copies,
                input_seed,
            } => format!("fft:dims={dims:?} copies={copies} seed={input_seed}"),
        }
    }
}

/// Look a golden case up by name across both case sets.
pub(crate) fn find_case(name: &str) -> Option<GoldenCase> {
    golden::cases()
        .into_iter()
        .chain(golden::scaling_cases())
        .find(|c| c.name == name)
}

/// One simulation job: workload plus request value. Submit it with
/// [`crate::Server::submit`]; shape the config with
/// [`SimRequest::with_sim`] before submitting.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// What to run.
    pub workload: WorkloadSpec,
    /// How to run it — also the cache-key half of the content address.
    pub sim: SimConfig,
}

impl SimRequest {
    /// A request for a golden workload by name, with the case's own
    /// architecture and memory size and every other knob at its
    /// default. Errors on an unknown name — requests are validated at
    /// construction so the worker pool never sees an unresolvable job.
    pub fn golden(name: &str) -> Result<Self, String> {
        find_case(name)
            .map(|case| Self::of_case(&case))
            .ok_or_else(|| format!("unknown golden workload '{name}'"))
    }

    fn of_case(case: &GoldenCase) -> Self {
        Self {
            workload: WorkloadSpec::Golden {
                name: case.name.to_string(),
            },
            sim: case.sim_config(),
        }
    }

    /// A request for an FFT of the given shape on `arch`, with a
    /// deterministic input wave derived from `input_seed`.
    pub fn fft(dims: &[usize], copies: u32, input_seed: u64, arch: &XmtConfig) -> Self {
        let plan = XmtFftPlan::build(dims, copies);
        Self {
            workload: WorkloadSpec::Fft {
                dims: dims.to_vec(),
                copies,
                input_seed,
            },
            sim: SimConfig::new(arch).mem_words(plan.mem_words),
        }
    }

    /// Shape the request value (engine, tier, faults, probe, …) before
    /// submitting: `req.with_sim(|s| s.probed(64).watchdog(20_000))`.
    pub fn with_sim(mut self, f: impl FnOnce(SimConfig) -> SimConfig) -> Self {
        self.sim = f(self.sim);
        self
    }

    /// The five paper configurations as one batch — the golden cases
    /// whose cycle counts the regression tests pin.
    pub fn paper_batch() -> Vec<SimRequest> {
        golden::cases().iter().map(Self::of_case).collect()
    }

    /// A soft-fault sweep over the golden FFT: one request per rate,
    /// each with a seeded [`FaultPlan`] injecting DRAM bit flips and
    /// NoC corruption (the `fault_sweep` binary's first table, as a
    /// batch of cacheable jobs).
    pub fn fault_sweep(seed: u64, rates: &[f64]) -> Vec<SimRequest> {
        rates
            .iter()
            .map(|&rate| {
                SimRequest::golden("fft_radix8_n512")
                    .expect("golden FFT case exists")
                    .with_sim(|s| {
                        s.faults(
                            FaultPlan::new(seed)
                                .dram_flips(rate, rate / 10.0)
                                .noc_corrupt(rate),
                        )
                    })
            })
            .collect()
    }

    /// The program this request runs (resolved from the spec).
    pub fn program(&self) -> xmt_isa::Program {
        match &self.workload {
            WorkloadSpec::Golden { name } => find_case(name)
                .expect("validated at construction")
                .program(),
            WorkloadSpec::Fft { dims, copies, .. } => XmtFftPlan::build(dims, *copies).program,
        }
    }

    /// The content address of this request: FNV-1a over the workload
    /// canon, the program digest, and the [`SimConfig`] cache key. By
    /// construction it ignores the advance engine and probe settings
    /// (see [`SimConfig::digest`]) and covers everything else that can
    /// change the result — this is the key the result cache and job
    /// queue use.
    pub fn digest(&self) -> u64 {
        let sim_digest = self.sim.digest(program_digest(&self.program()));
        let mut bytes = self.workload.canon().into_bytes();
        bytes.extend_from_slice(&sim_digest.to_le_bytes());
        fnv1a(&bytes)
    }

    /// A [`MachineBuilder`] for this request: the workload's program
    /// and memory images loaded under the request value's knobs. The
    /// caller `build`s, `build_probed`s, or `resume`s it — this is how
    /// every worker slice (fresh or resumed) reconstructs its machine.
    pub fn builder(&self) -> MachineBuilder {
        match &self.workload {
            WorkloadSpec::Golden { name } => find_case(name)
                .expect("validated at construction")
                .builder_cfg(&self.sim),
            WorkloadSpec::Fft {
                dims,
                copies,
                input_seed,
            } => {
                let plan = XmtFftPlan::build(dims, *copies);
                let input = golden::sample_input(plan.total, *input_seed);
                plan_builder_cfg(&plan, &self.sim, &input)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_sim::Engine;

    #[test]
    fn unknown_golden_name_is_rejected() {
        assert!(SimRequest::golden("no_such_case").is_err());
    }

    #[test]
    fn digest_covers_workload_but_not_engine() {
        let a = SimRequest::golden("fft_radix8_n512").unwrap();
        let b = SimRequest::golden("spawn_storm").unwrap();
        assert_ne!(
            a.digest(),
            b.digest(),
            "different workloads, different keys"
        );
        let a_ref = a.clone().with_sim(|s| s.engine(Engine::Reference));
        assert_eq!(
            a.digest(),
            a_ref.digest(),
            "engine choice must hit the same cache line"
        );
        let a_seeded = a.clone().with_sim(|s| s.faults(FaultPlan::new(3)));
        assert_ne!(a.digest(), a_seeded.digest(), "fault seed is in the key");
    }

    #[test]
    fn fft_requests_distinguish_inputs() {
        let arch = XmtConfig::xmt_4k().scaled_to(4);
        let a = SimRequest::fft(&[256], 2, 1, &arch);
        let b = SimRequest::fft(&[256], 2, 2, &arch);
        assert_ne!(
            a.digest(),
            b.digest(),
            "same program, different input seed — must not collide"
        );
    }

    #[test]
    fn paper_batch_is_the_five_golden_cases() {
        let batch = SimRequest::paper_batch();
        assert_eq!(batch.len(), golden::cases().len());
        let digests: std::collections::HashSet<u64> =
            batch.iter().map(SimRequest::digest).collect();
        assert_eq!(digests.len(), batch.len(), "batch keys are distinct");
    }

    #[test]
    fn request_builder_runs_the_workload() {
        let req = SimRequest::golden("ps_tickets").unwrap();
        let rep = req.builder().build().run().expect("golden case completes");
        assert!(rep.stats.cycles > 0);
    }
}
