//! `compare`: two sets of runs, judged by the rule of the
//! choosing-metrics guide — per workload and end-to-end metric the two
//! medians with their quartiles, a verdict against the metric's bound,
//! and the pairs won.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use std::fmt::Write;

/// How set B reads against set A for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// B wins at least nine tenths of the pairs and the medians differ
    /// by more than the distance between A's quartiles.
    Better,
    /// Within the bound, and A's own runs agree closely enough to say so.
    Same,
    /// A's quartile distance exceeds the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// (B − A) ÷ A of the medians, signed so that positive is worse.
    pub worsening: f64,
    pub pairs_won: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Judge one metric: `a` and `b` are the runs of the two sets in the
/// order they were made (pair i is `a[i]` against `b[i]`).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, usize, usize, Verdict) {
    let (qa1, qa2, qa3) = stats::quartiles(a);
    let (_, qb2, _) = stats::quartiles(b);
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worsening = sign * (qb2 - qa2) / qa2.abs();
    let b_wins = |x: f64, y: f64| sign * (y - x) < 0.0;
    let pairs = a.len().min(b.len());
    let won = (0..pairs).filter(|&i| b_wins(a[i], b[i])).count();
    let a_spread = stats::spread(a);
    let clean_sweep = a.iter().all(|&x| b.iter().all(|&y| b_wins(x, y)));
    let verdict = if worsening > bound {
        Verdict::Worse
    } else if pairs > 0
        && won * 10 >= pairs * 9
        && (qb2 - qa2).abs() > (qa3 - qa1)
        && worsening < 0.0
    {
        Verdict::Better
    } else if a_spread > bound && !clean_sweep {
        Verdict::Unresolved
    } else {
        Verdict::Same
    };
    (worsening, won, pairs, verdict)
}

/// The values of `metric` on `workload` across a set of run files.
fn values(set: &[Value], workload: &str, section: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get(section)?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Compare two sets of parsed run files.
pub fn compare(a: &[Value], b: &[Value]) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        for metric in END_TO_END {
            let va = values(a, workload, "metrics", metric.name);
            let vb = values(b, workload, "metrics", metric.name);
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worsening, pairs_won, pairs, verdict) =
                judge(&va, &vb, metric.better, metric.bound);
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.name,
                a: stats::quartiles(&va),
                b: stats::quartiles(&vb),
                worsening,
                pairs_won,
                pairs,
                verdict,
            });
        }
    }
    rows
}

/// Exact counts (`=` metrics) of the traced runs that differ anywhere
/// across the two sets: `(workload, metric, distinct values)`.
pub fn count_mismatches(a: &[Value], b: &[Value]) -> Vec<(String, &'static str, Vec<f64>)> {
    let mut out = Vec::new();
    for workload in WORKLOADS {
        for metric in PER_LAYER.iter().filter(|m| m.exact) {
            let mut all = values(a, workload, "layers", metric.name);
            all.extend(values(b, workload, "layers", metric.name));
            all.sort_by(f64::total_cmp);
            all.dedup();
            if all.len() > 1 {
                out.push((workload.to_string(), metric.name, all));
            }
        }
    }
    out
}

/// The comparison as a Markdown table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "| workload | metric | A median [q1, q3] | B median [q1, q3] | B vs A | bound | pairs B won | verdict |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|---|---|---|").unwrap();
    for r in rows {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == r.metric)
            .map_or(0.0, |m| m.bound);
        writeln!(
            out,
            "| {} | {} | {:.4} [{:.4}, {:.4}] | {:.4} [{:.4}, {:.4}] | {:+.1} % {} | {:.0} % | {}/{} | {} |",
            r.workload,
            r.metric,
            r.a.1,
            r.a.0,
            r.a.2,
            r.b.1,
            r.b.0,
            r.b.2,
            r.worsening * 100.0,
            if r.worsening > 0.0 { "worse" } else { "better" },
            bound * 100.0,
            r.pairs_won,
            r.pairs,
            r.verdict.as_str()
        )
        .unwrap();
    }
    out
}

/// Read and parse run files.
pub fn load(paths: &[String]) -> Result<Vec<Value>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            json::parse(&text).map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_file(p25: f64, rss: f64) -> Value {
        json::parse(&format!(
            r#"{{"workloads": {{"sim_dense": {{"metrics": {{
                "op_p25_ms": {{"value": {p25}, "unit": "ms"}},
                "peak_rss_mb": {{"value": {rss}, "unit": "MiB"}}}},
              "layers": {{"sim.cycles": {{"value": 89081, "unit": "count"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn same_code_reads_same() {
        let a: Vec<f64> = vec![100.0, 101.0, 99.0, 100.5, 99.5];
        let b: Vec<f64> = vec![100.2, 99.8, 100.9, 99.1, 100.0];
        let (_, _, pairs, v) = judge(&a, &b, Better::Lower, 0.1);
        assert_eq!((pairs, v), (5, Verdict::Same));
    }

    #[test]
    fn a_slowdown_past_the_bound_is_worse_in_either_direction() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.0];
        let slow = [115.0, 116.0, 114.0, 115.0, 115.0];
        assert_eq!(judge(&a, &slow, Better::Lower, 0.1).3, Verdict::Worse);
        // For a rate, lower is the bad direction.
        let fewer = [85.0, 86.0, 84.0, 85.0, 85.0];
        assert_eq!(judge(&a, &fewer, Better::Higher, 0.1).3, Verdict::Worse);
        assert_eq!(judge(&a, &slow, Better::Higher, 0.1).3, Verdict::Better);
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs_and_to_clear_the_spread() {
        let a = [
            100.0, 104.0, 96.0, 102.0, 98.0, 100.0, 101.0, 99.0, 103.0, 97.0,
        ];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        let (worsening, won, pairs, v) = judge(&a, &faster, Better::Lower, 0.1);
        assert!(worsening < 0.0);
        assert_eq!((won, pairs, v), (10, 10, Verdict::Better));
        // Inside A's own quartile distance: no claim.
        let barely: Vec<f64> = a.iter().map(|x| x * 0.99).collect();
        assert_eq!(judge(&a, &barely, Better::Lower, 0.1).3, Verdict::Same);
    }

    #[test]
    fn a_parent_noisier_than_the_bound_is_unresolved_unless_swept() {
        let a = [80.0, 120.0, 90.0, 110.0, 100.0];
        let b = [85.0, 115.0, 95.0, 105.0, 101.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.1).3, Verdict::Unresolved);
        // Every B run beats every A run: resolved despite the spread.
        let swept = [70.0, 71.0, 72.0, 73.0, 74.0];
        assert_ne!(judge(&a, &swept, Better::Lower, 0.1).3, Verdict::Unresolved);
    }

    #[test]
    fn compare_reads_run_files_and_flags_moved_counts() {
        let a = vec![
            run_file(10.0, 100.0),
            run_file(10.2, 100.0),
            run_file(9.9, 100.0),
        ];
        let b = vec![
            run_file(13.0, 100.0),
            run_file(13.1, 100.0),
            run_file(12.9, 100.0),
        ];
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 2);
        let p25 = rows.iter().find(|r| r.metric == "op_p25_ms").unwrap();
        assert_eq!(p25.verdict, Verdict::Worse);
        assert_eq!((p25.pairs_won, p25.pairs), (0, 3));
        let rss = rows.iter().find(|r| r.metric == "peak_rss_mb").unwrap();
        assert_eq!(rss.verdict, Verdict::Same);
        assert!(render(&rows).contains("| sim_dense | op_p25_ms |"));
        assert!(count_mismatches(&a, &b).is_empty());
        let mut moved = run_file(10.0, 100.0);
        if let Value::Obj(top) = &mut moved {
            top[0].1 = json::parse(
                r#"{"sim_dense": {"layers": {"sim.cycles": {"value": 89082, "unit": "count"}}}}"#,
            )
            .unwrap();
        }
        let mism = count_mismatches(&a, &[moved]);
        assert_eq!(mism.len(), 1);
        assert_eq!(mism[0].1, "sim.cycles");
    }
}
