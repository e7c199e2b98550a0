//! The two simulation workloads: build a machine for a paper-scale FFT
//! plan and run it to completion on the default engine and tier.

use crate::harness::{RoundPlan, Workload};
use crate::json;
use crate::trace::Tracer;
use parafft::Complex32;
use xmt_fft::golden::{sample_input, spawn_digest};
use xmt_fft::plan::{default_copies, XmtFftPlan};
use xmt_fft::run::{host_reference, plan_builder_cfg, read_result, rel_error};
use xmt_sim::{Machine, RunOutcome, SimConfig, XmtConfig};

/// The machine and transform a simulation runs: what the sim-side
/// per-layer probes are pointed at, for every workload.
#[derive(Debug, Clone)]
pub struct Subject {
    /// The golden case this is, when it is one (`BENCH_sim.json` row).
    pub golden: Option<&'static str>,
    pub arch: XmtConfig,
    pub n: usize,
}

impl Subject {
    /// `fft_xmt8k_n65536`: a thread per TCU all stage long. The smoke
    /// run takes the same regime at a fifth of the cost,
    /// `fft_xmt4k_n32768`.
    pub fn dense(smoke: bool) -> Subject {
        if smoke {
            Subject {
                golden: Some("fft_xmt4k_n32768"),
                arch: XmtConfig::xmt_4k(),
                n: 32768,
            }
        } else {
            Subject {
                golden: Some("fft_xmt8k_n65536"),
                arch: XmtConfig::xmt_8k(),
                n: 65536,
            }
        }
    }

    /// `fft_xmt64k_n8192`: threads ≪ TCUs. The smoke run takes
    /// `fft_xmt8k_n8192`, the same transform on an eighth of the TCUs.
    pub fn sparse(smoke: bool) -> Subject {
        Subject {
            golden: Some(if smoke {
                "fft_xmt8k_n8192"
            } else {
                "fft_xmt64k_n8192"
            }),
            arch: if smoke {
                XmtConfig::xmt_8k()
            } else {
                XmtConfig::xmt_64k()
            },
            n: 8192,
        }
    }

    /// The service workloads' job: a 512-point FFT on the scaled-down
    /// machine every golden case uses.
    pub fn service() -> Subject {
        Subject {
            golden: None,
            arch: xmt_fft::golden::golden_config(),
            n: 512,
        }
    }

    pub fn copies(&self) -> u32 {
        default_copies(self.n, self.arch.memory_modules)
    }

    pub fn plan(&self) -> XmtFftPlan {
        XmtFftPlan::new_1d(self.n, self.copies())
    }
}

/// The committed simulated result of a golden scaling case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub cycles: u64,
    pub digest: u64,
}

/// Read `name`'s `simulated_cycles` and `spawn_digest` from the
/// `scaling` rows of `BENCH_sim.json` text.
pub fn expected_from(bench_sim_json: &str, name: &str) -> Result<Expected, String> {
    let doc = json::parse(bench_sim_json)?;
    let row = doc
        .get("scaling")
        .and_then(json::Value::as_arr)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("name").and_then(json::Value::as_str) == Some(name))
        })
        .ok_or_else(|| format!("BENCH_sim.json has no scaling row {name}"))?;
    let cycles = row
        .get("simulated_cycles")
        .and_then(json::Value::as_f64)
        .ok_or("scaling row without simulated_cycles")? as u64;
    let digest = row
        .get("spawn_digest")
        .and_then(json::Value::as_str)
        .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
        .ok_or("scaling row without a hex spawn_digest")?;
    Ok(Expected { cycles, digest })
}

/// `BENCH_sim.json` of the checkout this runs in: the working
/// directory when run from the repository root (how the driver and
/// `ci.sh` run it), else the directory above this package.
pub fn read_bench_sim() -> Result<String, String> {
    let local = std::path::Path::new("BENCH_sim.json");
    let path = if local.exists() {
        local.to_path_buf()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCH_sim.json")
    };
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

pub struct SimWorkload {
    subject: Subject,
    seed: u64,
    plan_shape: RoundPlan,
    expected: Expected,
    // The round's state.
    plan: Option<XmtFftPlan>,
    sim: Option<SimConfig>,
    input: Vec<Complex32>,
    reference: Option<Vec<Complex32>>,
}

impl SimWorkload {
    pub fn subject(&self) -> &Subject {
        &self.subject
    }

    pub fn new(subject: Subject, seed: u64, plan_shape: RoundPlan) -> Result<SimWorkload, String> {
        let name = subject.golden.ok_or("a sim workload runs a golden case")?;
        let expected = expected_from(&read_bench_sim()?, name)?;
        Ok(SimWorkload {
            subject,
            seed,
            plan_shape,
            expected,
            plan: None,
            sim: None,
            input: Vec::new(),
            reference: None,
        })
    }
}

impl Workload for SimWorkload {
    type Out = (Machine, RunOutcome);

    fn plan(&self) -> RoundPlan {
        self.plan_shape
    }

    fn prepare(&mut self, round: u64) {
        // A different input wave per round and per seed. The simulated
        // timing does not depend on the data, which `check` holds every
        // op to.
        self.input = sample_input(
            self.subject.n,
            self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(round),
        );
        self.reference = None;
    }

    fn setup(&mut self, tr: &Tracer) {
        let plan = tr.span("XmtFftPlan::build", || self.subject.plan());
        let sim = SimConfig::new(&self.subject.arch).mem_words(plan.mem_words);
        // The first machine of the round: what a caller pays before
        // its first run.
        let first = tr.span("plan_builder_cfg", || {
            plan_builder_cfg(&plan, &sim, &self.input)
        });
        drop(tr.span("MachineBuilder::build", || first.build()));
        self.plan = Some(plan);
        self.sim = Some(sim);
    }

    fn op(&mut self, tr: &Tracer) -> Self::Out {
        let plan = self.plan.as_ref().expect("set up");
        let sim = self.sim.as_ref().expect("set up");
        let builder = tr.span("plan_builder_cfg", || {
            plan_builder_cfg(plan, sim, &self.input)
        });
        let mut m = tr.span("MachineBuilder::build", || builder.build());
        let out = tr.span("Machine::run", || m.run());
        (m, out)
    }

    fn check(&mut self, (m, out): Self::Out) -> Result<(), String> {
        if !out.is_completed() {
            return Err(format!("run did not complete: {:?}", out.status));
        }
        let got = Expected {
            cycles: out.report.stats.cycles,
            digest: spawn_digest(&out.report),
        };
        if got != self.expected {
            return Err(format!(
                "simulated result moved: got {} cycles, digest {:#018x}; BENCH_sim.json says {} and {:#018x}",
                got.cycles, got.digest, self.expected.cycles, self.expected.digest
            ));
        }
        let plan = self.plan.as_ref().expect("set up");
        let reference = self
            .reference
            .get_or_insert_with(|| host_reference(plan, &self.input));
        let err = rel_error(reference, &read_result(plan, &m));
        if err.is_nan() || err >= 1e-3 {
            return Err(format!(
                "read-back differs from host_reference: rel_error {err:e}"
            ));
        }
        Ok(())
    }

    fn teardown(&mut self) {
        self.plan = None;
        self.sim = None;
        self.reference = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_reads_cycles_and_hex_digest() {
        let text = r#"{"scaling": [
            {"name": "a", "simulated_cycles": 7, "spawn_digest": "0x10"},
            {"name": "fft_xmt8k_n65536", "simulated_cycles": 89081,
             "spawn_digest": "0x3fac44bcd9e1057a"}]}"#;
        assert_eq!(
            expected_from(text, "fft_xmt8k_n65536").unwrap(),
            Expected {
                cycles: 89081,
                digest: 0x3fac_44bc_d9e1_057a
            }
        );
        assert!(expected_from(text, "missing").is_err());
        assert!(expected_from("{}", "a").is_err());
    }

    /// The committed file must carry the two rows the sim workloads
    /// check every op against.
    #[test]
    fn bench_sim_json_has_both_cases() {
        let text = read_bench_sim().unwrap();
        for s in [
            Subject::dense(false),
            Subject::sparse(false),
            Subject::dense(true),
            Subject::sparse(true),
        ] {
            assert!(expected_from(&text, s.golden.unwrap()).unwrap().cycles > 0);
        }
    }
}
