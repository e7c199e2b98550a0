//! The benchmark's vocabulary: every workload and metric by name, unit
//! and direction. `BENCHMARK.json` at the repository root states the
//! same tables for the driver; a unit test keeps the two in step.

use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may worsen before a change
/// counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p25_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// The four workloads, in the order `run` executes them.
pub const WORKLOADS: &[&str] = &["sim_dense", "sim_sparse", "svc_cold", "svc_hit"];

/// A per-layer metric. `exact` marks a count that repeats exactly for
/// a given seed, on which two commits compare exactly (the `=` of the
/// README's tables).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Stated for the driver in `BENCHMARK.json`; the test that holds
    /// that file to this table is its only reader here.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // sim: the timed op, split
    time("sim.build_ms", "ms"),
    time("sim.run_ms", "ms"),
    rate("sim.kcycles_per_s", "kcycles/s"),
    time("sim.host_ns_per_instr", "ns"),
    // sim: the same run through the other engines and tiers
    time("sim.reference_run_ms", "ms"),
    time("sim.threaded2_run_ms", "ms"),
    time("sim.tier_off_run_ms", "ms"),
    time("sim.probed_run_ms", "ms"),
    // sim: the service's way of running it
    time("sim.sliced_run_ms", "ms"),
    time("sim.checkpoint_encode_ms", "ms"),
    time("sim.checkpoint_decode_ms", "ms"),
    time("sim.resume_ms", "ms"),
    count("sim.checkpoint_bytes", "bytes"),
    // (a few calls in 128 000 differ from run to run: hash seeds)
    time("sim.allocs_per_run", "count"),
    time("sim.alloc_kb_per_run", "KiB"),
    // sim: simulated statistics, fixed under any simulator-speed change
    count("sim.cycles", "count"),
    count("sim.instructions", "count"),
    count("sim.flops", "count"),
    count("sim.mem_reads", "count"),
    count("sim.mem_writes", "count"),
    count("sim.dram_bytes", "bytes"),
    count("sim.spawns", "count"),
    count("sim.threads", "count"),
    count("sim.stall_scoreboard", "count"),
    count("sim.stall_fpu", "count"),
    count("sim.stall_mdu", "count"),
    count("sim.stall_lsu", "count"),
    count("sim.trace_uops", "count"),
    PerLayer {
        name: "sim.trace_hit_rate",
        unit: "frac",
        better: Better::Higher,
        exact: true,
    },
    // isa
    time("isa.interp_ms", "ms"),
    rate("isa.interp_minstr_per_s", "Minstr/s"),
    time("isa.decode_ms", "ms"),
    time("isa.lower_all_ms", "ms"),
    count("isa.program_instrs", "count"),
    // noc
    time("noc.sat_ns_per_cycle", "ns"),
    time("noc.idle_ns_per_cycle", "ns"),
    count("noc.sat_flits_per_cycle", "flits/cycle"),
    time("noc.est_share", "frac"),
    // mem
    time("mem.module_ns_per_req", "ns"),
    time("mem.dram_ns_per_req", "ns"),
    time("mem.idle_ns_per_step", "ns"),
    PerLayer {
        name: "mem.stream_hit_rate",
        unit: "frac",
        better: Better::Higher,
        exact: true,
    },
    time("mem.est_share", "frac"),
    // core (xmt-fft)
    time("core.plan_build_ms", "ms"),
    time("core.input_image_ms", "ms"),
    time("core.request_builder_ms", "ms"),
    time("core.read_result_ms", "ms"),
    time("core.rel_error", "frac"),
    // fftlib (parafft)
    time("fftlib.reference_ms", "ms"),
    rate("fftlib.gflops", "gflops"),
    time("fftlib.fft3d_128_ms", "ms"),
    time("fftlib.fft3d_128_par2_ms", "ms"),
    // verify
    time("verify.lint_ms", "ms"),
    time("verify.transval_ms", "ms"),
    // server: the client's view
    time("server.submit_p50_us", "us"),
    time("server.wait_p50_us", "us"),
    time("server.op_p90_ms", "ms"),
    time("server.op_p99_ms", "ms"),
    time("server.op_max_ms", "ms"),
    time("server.cpu_ms_per_op", "ms"),
    time("server.ctx_switches_per_op", "1/op"),
    time("server.allocs_per_op", "1/op"),
    // server: the write path, peeled
    time("server.inproc_op_ms", "ms"),
    time("server.direct_op_ms", "ms"),
    time("server.overhead_frac", "frac"),
    time("server.journal_op_ms", "ms"),
    count("server.slices_per_op", "count"),
    time("server.journal_append_us", "us"),
    count("server.journal_bytes_per_op", "bytes"),
    time("server.journal_replay_ms", "ms"),
    time("server.cache_insert_us", "us"),
    // server: the read path, peeled
    time("server.encode_request_us", "us"),
    time("server.decode_request_us", "us"),
    time("server.encode_report_us", "us"),
    time("server.decode_report_us", "us"),
    count("server.request_bytes", "bytes"),
    count("server.report_bytes", "bytes"),
    time("server.cache_get_us", "us"),
    PerLayer {
        name: "server.cache_hit_frac",
        unit: "frac",
        better: Better::Higher,
        exact: true,
    },
    time("server.rss_kb_per_job", "KiB"),
    count("server.rejected", "count"),
    // the host and the tracer themselves
    time("host.calib_ms", "ms"),
    time("host.noise_frac", "frac"),
    rate("host.pinned", "bool"),
    rate("host.copy_gbs", "GB/s"),
    time("trace.overhead_frac", "frac"),
    time("trace.spans", "count"),
];

/// Measured values by name, in the order they were recorded.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} recorded twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Unit of the metric called `name`, from whichever table holds it.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// The `metrics` object of a result line: exactly the names of `table`
/// (given as its name list), each `{value, unit}`. A name the run did
/// not measure is an error — the driver refuses a result with a metric
/// missing, so fail here with the name.
pub fn to_json(measured: &Metrics, names: &[&'static str]) -> Result<Value, String> {
    let mut members = Vec::with_capacity(names.len());
    for name in names {
        let v = measured
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        members.push((
            name.to_string(),
            Value::Obj(vec![
                ("value".into(), Value::Num(v)),
                (
                    "unit".into(),
                    Value::Str(unit_of(name).expect("name comes from a table").into()),
                ),
            ]),
        ));
    }
    Ok(Value::Obj(members))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the binary prints. They must name the same things.
    #[test]
    fn benchmark_json_states_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(j.get("better").unwrap().as_str(), Some(m.better.as_str()));
            assert_eq!(
                j.get("bound").unwrap().as_f64(),
                Some(m.bound),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25, "a bound is never widened past 0.25");
        }
        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(j.get("better").unwrap().as_str(), Some(m.better.as_str()));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all.chain(WORKLOADS.iter().map(|w| (*w, "count"))) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    #[test]
    fn result_metrics_are_exactly_the_table() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5);
        assert!(to_json(&m, &["setup_s", "op_p25_ms"]).is_err());
        m.put("op_p25_ms", 1.25);
        let v = to_json(&m, &["setup_s", "op_p25_ms"]).unwrap();
        assert_eq!(
            v.render(),
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"op_p25_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}"
        );
    }
}
