//! The `BENCH_sim.json` format: written by `bench_sim OUT`, compared by
//! `bench_sim --check`, read at run time by `benchmark/` (its
//! `sim::expected_from` wants `scaling[].{name, simulated_cycles,
//! spawn_digest}`).
//!
//! A row has an *exact* part — simulated cycles, spawn digest, the
//! trace-cache counters — which is a pure function of the code and is
//! what [`compare`] holds a fresh run to, and an *informational* part —
//! host seconds, cycles/s, the host-time `layers` ledger — which is one
//! reading of a noisy host, recorded and never compared. A speed claim
//! or regression is shown only by alternating `xmt-perfbench` pairs
//! (benchmark/README.md).

use std::fmt::Write as _;

/// The two row arrays of the file, in file order.
pub const SECTIONS: [&str; 2] = ["workloads", "scaling"];

/// The exact part of one row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactRow {
    /// Which of [`SECTIONS`] holds the row.
    pub section: &'static str,
    pub name: String,
    pub simulated_cycles: u64,
    pub spawn_digest: u64,
    /// The `trace` object's fields as written: key and number text.
    pub trace: Vec<(String, String)>,
}

/// The `trace` fields of a tier-on fast-forward run: superblocks,
/// lowerings, micro-ops, total trace entries (branch resolutions plus
/// thread activations) and the hit rate — the fraction of entries that
/// found an already-lowered block (each lazy lowering is the miss that
/// warmed it).
pub fn trace_fields(blocks: u64, lowered: u64, uops: u64, entries: u64) -> Vec<(String, String)> {
    let hit_rate = if entries > 0 {
        entries.saturating_sub(lowered) as f64 / entries as f64
    } else {
        1.0
    };
    vec![
        ("blocks".into(), blocks.to_string()),
        ("lowered".into(), lowered.to_string()),
        ("uops".into(), uops.to_string()),
        ("entries".into(), entries.to_string()),
        ("hit_rate".into(), format!("{hit_rate:.4}")),
    ]
}

/// One row as recorded: the exact part plus this host's readings.
#[derive(Debug, Clone)]
pub struct Recorded {
    pub exact: ExactRow,
    pub tcus: usize,
    /// The host-time ledger, already a JSON object (scaling rows).
    pub layers: Option<String>,
    /// Best host seconds per engine; the first is the speedup base.
    pub engines: Vec<(&'static str, f64)>,
}

/// The whole file.
pub fn render(host_threads: usize, rows: &[Recorded]) -> String {
    let section = |name: &str| {
        let rows: Vec<String> = rows
            .iter()
            .filter(|r| r.exact.section == name)
            .map(render_row)
            .collect();
        format!("  \"{name}\": [\n{}\n  ]", rows.join(",\n"))
    };
    format!(
        "{{\n  \"benchmark\": \"sim_throughput\",\n  \"machine\": {{\n    \
         \"host_threads\": {host_threads},\n    \"os\": \"{}\",\n    \"arch\": \"{}\"\n  }},\n\
         {},\n{}\n}}\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        section(SECTIONS[0]),
        section(SECTIONS[1])
    )
}

fn render_row(row: &Recorded) -> String {
    let e = &row.exact;
    let mut json = String::from("    {\n");
    writeln!(json, "      \"name\": \"{}\",", e.name).unwrap();
    writeln!(json, "      \"tcus\": {},", row.tcus).unwrap();
    writeln!(json, "      \"simulated_cycles\": {},", e.simulated_cycles).unwrap();
    writeln!(
        json,
        "      \"spawn_digest\": \"{:#018x}\",",
        e.spawn_digest
    )
    .unwrap();
    let trace: Vec<String> = e
        .trace
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    writeln!(json, "      \"trace\": {{ {} }},", trace.join(", ")).unwrap();
    if let Some(layers) = &row.layers {
        writeln!(json, "      \"layers\": {layers},").unwrap();
    }
    let cycles = e.simulated_cycles as f64;
    let base = row.engines.first().map_or(f64::NAN, |&(_, secs)| secs);
    let engines: Vec<String> = row
        .engines
        .iter()
        .map(|&(name, secs)| {
            format!(
                "        \"{name}\": {{ \"host_seconds\": {secs:.6}, \"cycles_per_second\": {:.0}, \
                 \"speedup_vs_reference\": {:.2} }}",
                cycles / secs,
                base / secs
            )
        })
        .collect();
    write!(
        json,
        "      \"engines\": {{\n{}\n      }}\n    }}",
        engines.join(",\n")
    )
    .unwrap();
    json
}

/// A JSON value of the kinds `bench_sim` writes; numbers keep their
/// text so comparing them is exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a whole document; trailing non-space is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text, i: 0 };
        let v = p.value()?;
        p.space();
        if p.i != p.s.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    /// Advance over bytes that satisfy `keep`; the text passed over.
    /// (`keep` only accepts ASCII, so both ends are char boundaries.)
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &str {
        let start = self.i;
        while self.peek().is_some_and(&keep) {
            self.i += 1;
        }
        &self.s[start..self.i]
    }

    fn space(&mut self) {
        self.take_while(|c| c.is_ascii_whitespace());
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.i..].starts_with(lit);
        if hit {
            self.i += lit.len();
        }
        hit
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        self.space();
        if self.eat(lit) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    /// `open` is consumed; items separated by commas up to `close`.
    fn items<T>(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        self.space();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            self.space();
            if self.eat(close) {
                return Ok(out);
            }
            self.expect(",")?;
        }
    }

    /// `bench_sim` writes names and hex digests only: no escapes.
    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let start = self.i;
        while self.peek().is_some_and(|c| c != b'"' && c != b'\\') {
            self.i += 1;
        }
        let text = self.s[start..self.i].to_string();
        self.expect("\"").map(|()| text)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.peek() {
            Some(b'{') => {
                self.i += 1;
                let fields = self.items("}", |p| {
                    let key = p.string()?;
                    p.expect(":")?;
                    Ok((key, p.value()?))
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.i += 1;
                Ok(Json::Arr(self.items("]", Self::value)?))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(c) if c.is_ascii_digit() || c == b'-' => {
                let text = self
                    .take_while(|c| c.is_ascii_digit() || b"+-.eE".contains(&c))
                    .to_string();
                match text.parse::<f64>() {
                    Ok(_) => Ok(Json::Num(text)),
                    Err(_) => Err(self.err("malformed number")),
                }
            }
            _ => Err(self.err("expected a value")),
        }
    }
}

/// The exact rows of a `BENCH_sim.json` text. A row without one of the
/// exact fields is an error naming the row: a baseline that cannot
/// judge a workload must not pass it.
pub fn exact_rows(text: &str) -> Result<Vec<ExactRow>, String> {
    let doc = Json::parse(text)?;
    let mut rows = Vec::new();
    for section in SECTIONS {
        let Some(Json::Arr(items)) = doc.get(section) else {
            continue; // every row of it is then reported missing
        };
        for item in items {
            let Some(Json::Str(name)) = item.get("name") else {
                return Err(format!("{section}: row without a name"));
            };
            let simulated_cycles = match item.get("simulated_cycles") {
                Some(Json::Num(n)) => n.parse::<u64>().ok(),
                _ => None,
            }
            .ok_or_else(|| format!("{name}: no simulated_cycles"))?;
            let spawn_digest = match item.get("spawn_digest") {
                Some(Json::Str(s)) => s
                    .strip_prefix("0x")
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok()),
                _ => None,
            }
            .ok_or_else(|| format!("{name}: no hex spawn_digest"))?;
            let Some(Json::Obj(fields)) = item.get("trace") else {
                return Err(format!("{name}: no trace row"));
            };
            let trace = fields
                .iter()
                .map(|(k, v)| match v {
                    Json::Num(n) => Ok((k.clone(), n.clone())),
                    _ => Err(format!("{name}: trace.{k} is not a number")),
                })
                .collect::<Result<_, _>>()?;
            rows.push(ExactRow {
                section,
                name: name.clone(),
                simulated_cycles,
                spawn_digest,
                trace,
            });
        }
    }
    Ok(rows)
}

/// Hold `fresh` rows to `baseline`: one message per differing exact
/// field, per fresh row the baseline lacks, and per baseline row that
/// is no longer run. Nothing else in the file is looked at.
pub fn compare(fresh: &[ExactRow], baseline: &[ExactRow]) -> Vec<String> {
    let mut failures = Vec::new();
    let same_row = |a: &ExactRow, b: &ExactRow| a.section == b.section && a.name == b.name;
    for f in fresh {
        let Some(b) = baseline.iter().find(|b| same_row(f, b)) else {
            failures.push(format!("{}: missing from baseline {}", f.name, f.section));
            continue;
        };
        if f.simulated_cycles != b.simulated_cycles {
            failures.push(format!(
                "{}: simulated_cycles {} != baseline {}",
                f.name, f.simulated_cycles, b.simulated_cycles
            ));
        }
        if f.spawn_digest != b.spawn_digest {
            failures.push(format!(
                "{}: spawn_digest {:#018x} != baseline {:#018x}",
                f.name, f.spawn_digest, b.spawn_digest
            ));
        }
        if f.trace != b.trace {
            failures.push(format!(
                "{}: trace {:?} != baseline {:?}",
                f.name, f.trace, b.trace
            ));
        }
    }
    for b in baseline {
        if !fresh.iter().any(|f| same_row(f, b)) {
            failures.push(format!("{}: in baseline {} but not run", b.name, b.section));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_fft::golden;

    fn row(section: &'static str, name: &str, cycles: u64) -> Recorded {
        Recorded {
            exact: ExactRow {
                section,
                name: name.to_string(),
                simulated_cycles: cycles,
                spawn_digest: 0x9795_eb3c_0559_c08a,
                trace: trace_fields(11, 5, 916, 20480),
            },
            tcus: 4096,
            layers: (section == "scaling").then(|| "{ \"run_ns\": 5 }".to_string()),
            engines: vec![("reference", 0.5), ("fast_forward", 0.25)],
        }
    }

    fn sample() -> Vec<Recorded> {
        vec![
            row("workloads", "small", 408),
            row("workloads", "other", 135),
            row("scaling", "big", 29074),
        ]
    }

    fn exact(rows: &[Recorded]) -> Vec<ExactRow> {
        rows.iter().map(|r| r.exact.clone()).collect()
    }

    #[test]
    fn rendered_file_parses_back_to_its_exact_rows() {
        let rows = sample();
        let text = render(2, &rows);
        assert_eq!(exact_rows(&text).unwrap(), exact(&rows));
        // What benchmark/src/sim.rs::expected_from reads.
        let doc = Json::parse(&text).unwrap();
        let Some(Json::Arr(scaling)) = doc.get("scaling") else {
            panic!("no scaling array in {text}");
        };
        assert_eq!(scaling[0].get("name"), Some(&Json::Str("big".into())));
        assert_eq!(
            scaling[0].get("simulated_cycles"),
            Some(&Json::Num("29074".into()))
        );
        assert_eq!(
            scaling[0].get("spawn_digest"),
            Some(&Json::Str("0x9795eb3c0559c08a".into()))
        );
        assert!(text.contains("\"speedup_vs_reference\": 2.00"));
    }

    #[test]
    fn rates_and_host_fields_are_not_compared() {
        let fresh = sample();
        let mut other_host = sample();
        for r in &mut other_host {
            r.engines = vec![("reference", 9.0), ("fast_forward", 7.0)];
            r.layers = None;
            r.tcus = 1;
        }
        let baseline = exact_rows(&render(64, &other_host)).unwrap();
        assert_eq!(compare(&exact(&fresh), &baseline), Vec::<String>::new());
    }

    #[test]
    fn every_exact_field_is_compared_and_the_row_is_named() {
        let fresh = exact(&sample());
        let differs = |edit: &dyn Fn(&mut ExactRow)| {
            let mut base = fresh.clone();
            edit(&mut base[2]);
            compare(&fresh, &base)
        };
        let f = differs(&|r| r.simulated_cycles += 1);
        assert_eq!(f.len(), 1);
        assert!(f[0].starts_with("big: simulated_cycles 29074 != baseline 29075"));
        let f = differs(&|r| r.spawn_digest ^= 1);
        assert_eq!(f.len(), 1);
        assert!(f[0].starts_with("big: spawn_digest"), "{f:?}");
        for field in 0..5 {
            let f = differs(&|r| r.trace[field].1.push('1'));
            assert_eq!(f.len(), 1);
            assert!(f[0].starts_with("big: trace"), "{f:?}");
        }
    }

    #[test]
    fn missing_and_stale_rows_fail_by_name() {
        let fresh = exact(&sample());
        // A file recorded without its scaling section (what the old
        // `--check` without `--scaling` left behind).
        let text = render(2, &sample()[..2]);
        let f = compare(&fresh, &exact_rows(&text).unwrap());
        assert_eq!(f, ["big: missing from baseline scaling"]);
        // The same name in the other section does not count.
        let mut moved = fresh.clone();
        moved[2].section = "workloads";
        assert_eq!(compare(&fresh, &moved).len(), 2);
        let f = compare(&fresh[..2], &fresh);
        assert_eq!(f, ["big: in baseline scaling but not run"]);
    }

    #[test]
    fn malformed_baselines_are_errors() {
        assert!(exact_rows("{ \"workloads\": [").is_err());
        assert!(exact_rows("{} x").is_err());
        let text = render(2, &sample());
        for key in ["simulated_cycles", "spawn_digest", "trace"] {
            let e = exact_rows(&text.replace(key, "renamed")).unwrap_err();
            assert!(e.starts_with("small: no "), "{e}");
        }
    }

    /// The committed file is in the shape this module writes and holds
    /// a row for every case `bench_sim` runs, the scaling ones where
    /// `benchmark/` looks for them.
    #[test]
    fn committed_file_has_every_golden_row() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
        let rows = exact_rows(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |section: &str| -> Vec<&str> {
            rows.iter()
                .filter(|r| r.section == section)
                .map(|r| r.name.as_str())
                .collect()
        };
        let want = |cases: Vec<golden::GoldenCase>| -> Vec<&'static str> {
            cases.iter().map(|c| c.name).collect()
        };
        assert_eq!(names("workloads"), want(golden::cases()));
        assert_eq!(names("scaling"), want(golden::scaling_cases()));
    }
}
